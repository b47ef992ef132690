//! Pins the exact triangle lists of the CG and Euler stand-in meshes.
//!
//! Table 12's patterns are derived from these triangulations, so any
//! change to the Delaunay kernel (insertion order, point location, cavity
//! bookkeeping) must reproduce every triangle, in order and orientation.
//! The digests are FNV-1a over each vertex index as a little-endian `u64`.

use cm5_mesh::meshgen::{cg_mesh, euler_mesh, EULER_MESH_SIZES};

fn fnv1a_triangles(tris: &[[usize; 3]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in tris {
        for &v in t {
            for b in (v as u64).to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn cg_mesh_triangles_are_pinned() {
    let m = cg_mesh();
    assert_eq!(
        (m.triangles().len(), fnv1a_triangles(m.triangles())),
        (32258, 0x6dbf_f026_71ea_9d84),
        "cg_mesh triangle list changed"
    );
}

#[test]
fn euler_mesh_triangles_are_pinned() {
    let got: Vec<(usize, usize, u64)> = EULER_MESH_SIZES
        .iter()
        .map(|&v| {
            let m = euler_mesh(v);
            (v, m.triangles().len(), fnv1a_triangles(m.triangles()))
        })
        .collect();
    assert_eq!(
        got,
        [
            (545, 1017, 0x8c26_390b_747c_35dd),
            (2048, 3956, 0x0b7c_f9be_abd2_c610),
            (3072, 5974, 0x3d15_d863_b565_2f77),
            (9216, 18050, 0xb530_16d7_d8cb_860e),
        ],
        "euler_mesh triangle lists changed"
    );
}
