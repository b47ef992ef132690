//! Pins the Table 12 halo patterns every named workload builds.
//!
//! `named_pattern(name, n)` is what `cm5 workload`, `cm5 advise --name` and
//! the service's `workload` queries answer from, so any change to the mesh,
//! the partitioners or the halo builder must reproduce every byte count.
//! Each digest is FNV-1a over the nonzero cells `(p, q, bytes)` in
//! row-major order, each value a little-endian `u64`; the nonzero count is
//! pinned alongside it.

use cm5_core::Pattern;
use cm5_workloads::named_pattern;

fn fnv1a_pattern(pat: &Pattern) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in 0..pat.n() {
        for q in 0..pat.n() {
            let bytes = pat.get(p, q);
            if bytes == 0 {
                continue;
            }
            for word in [p as u64, q as u64, bytes] {
                for b in word.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    h
}

/// `(nonzero pairs, digest)` of each name at n = 2, 32, 256 and the largest
/// power of two up to 2048 its mesh admits.
fn digests(name: &str, sizes: &[usize]) -> Vec<(usize, usize, u64)> {
    sizes
        .iter()
        .map(|&n| {
            let pat = named_pattern(name, n).expect("admitted size");
            (n, pat.nonzero_pairs(), fnv1a_pattern(&pat))
        })
        .collect()
}

#[test]
fn cg_patterns_are_pinned() {
    assert_eq!(
        digests("cg", &[2, 32, 256, 2048]),
        [
            (2, 2, 0x6d25_b209_8377_2625),
            (32, 62, 0x80a8_ab37_8d00_a405),
            (256, 258, 0x9cef_11db_66c5_1dd5),
            (2048, 258, 0x5169_2ede_055a_ef55),
        ],
        "cg patterns changed"
    );
}

#[test]
fn euler545_patterns_are_pinned() {
    assert_eq!(
        digests("euler545", &[2, 32, 256, 512]),
        [
            (2, 2, 0xf432_c95b_39d9_7cad),
            (32, 436, 0x301f_3fd9_cad0_b29d),
            (256, 7164, 0x00a0_ce76_139d_d775),
            (512, 9278, 0xa003_9400_95d5_5a0d),
        ],
        "euler545 patterns changed"
    );
}

#[test]
fn euler2k_patterns_are_pinned() {
    assert_eq!(
        digests("euler2k", &[2, 32, 256, 2048]),
        [
            (2, 2, 0x5964_2d6e_fc2c_e165),
            (32, 466, 0x3719_4ce1_44dd_fb23),
            (256, 7952, 0x39e6_bc53_7d79_44c5),
            (2048, 37230, 0x2780_bd9f_4606_4b65),
        ],
        "euler2k patterns changed"
    );
}

#[test]
fn euler3k_patterns_are_pinned() {
    assert_eq!(
        digests("euler3k", &[2, 32, 256, 2048]),
        [
            (2, 2, 0x2091_ea43_6f08_5b18),
            (32, 440, 0xa07d_02c3_3eff_04bc),
            (256, 7326, 0x6591_26bb_3b43_72a5),
            (2048, 53288, 0xc60f_2a1a_0ac2_115d),
        ],
        "euler3k patterns changed"
    );
}

#[test]
fn euler9k_patterns_are_pinned() {
    assert_eq!(
        digests("euler9k", &[2, 32, 256, 2048]),
        [
            (2, 2, 0xb9db_7595_2edd_2a8d),
            (32, 378, 0x3b24_80ff_f07d_ab97),
            (256, 5412, 0x357a_727a_1511_98c2),
            (2048, 118332, 0xf17c_c620_ade8_24e9),
        ],
        "euler9k patterns changed"
    );
}
