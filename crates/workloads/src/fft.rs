//! Fast Fourier transforms — sequential reference and the distributed 2-D
//! FFT of the paper's §3.5 / Table 5.
//!
//! The paper's 2-D FFT: "The 2D array is distributed along rows among
//! processors. Each processor initially performs 1D FFT on its local data
//! and performs a complete exchange using any one of the algorithms
//! described. Each processor then performs 1D FFT on new data."
//!
//! Two drivers:
//!
//! * [`distributed_fft2d`] — thread-mode, **numerically real**: payloads
//!   carry actual `f64` pairs through the simulated network, the transpose
//!   is done by a genuine complete exchange, and the result is verified
//!   against [`fft2d_seq`] in the tests;
//! * [`fft2d_programs`] — op-mode cost model for the Table 5 parameter
//!   sweep (same communication schedule, flop-charged compute), cheap
//!   enough to run the 2048² × 256-processor corner.

use bytes::{BufMut, Bytes, BytesMut};
use cm5_core::exec::complete_exchange_payload;
use cm5_core::regular::ExchangeAlg;
use cm5_sim::{CmmdNode, Op, OpProgram};

/// A complex number (two f64s). Minimal on purpose: the library avoids
/// external numeric dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// Construct a complex number.
    #[inline]
    pub fn new(re: f64, im: f64) -> C64 {
        C64 { re, im }
    }

    /// e^{iθ}.
    #[inline]
    pub fn cis(theta: f64) -> C64 {
        C64::new(theta.cos(), theta.sin())
    }

    /// Squared magnitude.
    #[inline]
    pub fn norm2(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

impl std::ops::Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, other: C64) -> C64 {
        C64::new(self.re + other.re, self.im + other.im)
    }
}

impl std::ops::Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, other: C64) -> C64 {
        C64::new(self.re - other.re, self.im - other.im)
    }
}

impl std::ops::Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, other: C64) -> C64 {
        C64::new(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )
    }
}

/// In-place iterative radix-2 Cooley–Tukey FFT. Length must be a power of
/// two. `inverse` computes the unscaled inverse transform (divide by `n`
/// yourself if you need the unitary inverse).
pub fn fft_inplace(x: &mut [C64], inverse: bool) {
    let n = x.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if i < j {
            x.swap(i, j);
        }
    }
    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = C64::cis(ang);
        let mut i = 0;
        while i < n {
            let mut w = C64::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = x[i + k];
                let v = x[i + k + len / 2] * w;
                x[i + k] = u + v;
                x[i + k + len / 2] = u - v;
                w = w * wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// O(n²) reference DFT, for testing the FFT.
pub fn dft_naive(x: &[C64], inverse: bool) -> Vec<C64> {
    let n = x.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    (0..n)
        .map(|k| {
            let mut acc = C64::default();
            for (j, &v) in x.iter().enumerate() {
                let w = C64::cis(sign * 2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64);
                acc = acc + v * w;
            }
            acc
        })
        .collect()
}

/// Standard flop count of a radix-2 complex FFT of length `n`: 5·n·lg n.
pub fn fft_flops(n: usize) -> u64 {
    5 * n as u64 * n.trailing_zeros() as u64
}

/// Sequential 2-D FFT of a row-major `n × n` array (in place).
pub fn fft2d_seq(data: &mut [C64], n: usize) {
    assert_eq!(data.len(), n * n);
    for row in data.chunks_exact_mut(n) {
        fft_inplace(row, false);
    }
    transpose_square(data, n);
    for row in data.chunks_exact_mut(n) {
        fft_inplace(row, false);
    }
    transpose_square(data, n);
}

/// In-place transpose of a row-major square matrix.
pub fn transpose_square(data: &mut [C64], n: usize) {
    assert_eq!(data.len(), n * n);
    for i in 0..n {
        for j in (i + 1)..n {
            data.swap(i * n + j, j * n + i);
        }
    }
}

/// Distributed 2-D FFT over the simulated machine (call from every node of
/// a [`cm5_sim::Simulation::run_nodes`] closure).
///
/// `local_rows` holds this node's `n/P` consecutive rows of the `n × n`
/// input (row-major). Returns this node's rows of the **transposed** 2-D
/// FFT (the standard distributed formulation leaves the result transposed;
/// callers compare against `transpose(fft2d_seq(input))`).
///
/// Compute is charged at the machine's scalar flop rate; the transpose
/// moves real bytes through `alg`'s complete exchange.
pub fn distributed_fft2d(
    node: &CmmdNode,
    alg: ExchangeAlg,
    n: usize,
    local_rows: &[C64],
) -> Vec<C64> {
    let p = node.nodes();
    let me = node.id();
    assert!(
        n.is_multiple_of(p),
        "array side {n} must divide by node count {p}"
    );
    let rows = n / p;
    assert_eq!(local_rows.len(), rows * n);
    let mut data = local_rows.to_vec();

    // Phase 1: FFT my rows.
    for row in data.chunks_exact_mut(n) {
        fft_inplace(row, false);
    }
    node.flops(rows as u64 * fft_flops(n));

    // Transpose: block (me → j) = my rows restricted to j's columns.
    let blocks: Vec<Bytes> = (0..p)
        .map(|j| {
            let mut buf = BytesMut::with_capacity(rows * rows * 16);
            for r in 0..rows {
                for c in (j * rows)..((j + 1) * rows) {
                    let v = data[r * n + c];
                    buf.put_f64_le(v.re);
                    buf.put_f64_le(v.im);
                }
            }
            buf.freeze()
        })
        .collect();
    node.memcpy((rows * n * 16) as u64); // pack cost
    let received = complete_exchange_payload(node, alg, blocks);
    node.memcpy((rows * n * 16) as u64); // unpack cost

    // Reassemble: my new row r (global row me*rows + r of the transposed
    // array) takes element c from node c/rows' block.
    let mut out = vec![C64::default(); rows * n];
    for (j, block) in received.iter().enumerate() {
        // block = node j's rows × my columns, row-major (j's local r, my c).
        assert_eq!(block.len(), rows * rows * 16, "block size from node {j}");
        for jr in 0..rows {
            for mc in 0..rows {
                let off = (jr * rows + mc) * 16;
                let re = f64::from_le_bytes(block[off..off + 8].try_into().expect("8B"));
                let im = f64::from_le_bytes(block[off + 8..off + 16].try_into().expect("8B"));
                // In the transposed array, my row (me*rows + mc) column
                // (j*rows + jr) = original (j*rows + jr, me*rows + mc).
                out[mc * n + j * rows + jr] = C64::new(re, im);
            }
        }
    }
    let _ = me;

    // Phase 2: FFT the transposed rows.
    for row in out.chunks_exact_mut(n) {
        fft_inplace(row, false);
    }
    node.flops(rows as u64 * fft_flops(n));
    out
}

/// Rows of the `n × n` array each of `procs` nodes holds.
fn local_rows(procs: usize, n: usize) -> u64 {
    assert!(
        n.is_multiple_of(procs),
        "array side {n} must divide by {procs}"
    );
    (n / procs) as u64
}

/// Bytes each node sends each other node in the 2-D FFT's transpose: an
/// `n/P × n/P` block of `elem_bytes` elements.
pub fn fft2d_pair_bytes(procs: usize, n: usize, elem_bytes: u64) -> u64 {
    elem_bytes * local_rows(procs, n).pow(2)
}

/// Every node's compute in the 2-D FFT, split around the transpose:
/// phase-1 flops and the pack memcpy before it, the unpack memcpy and
/// phase-2 flops after it. All nodes run the same ops, so the transpose
/// starts at the same instant everywhere.
fn fft2d_compute(procs: usize, n: usize, elem_bytes: u64) -> ([Op; 2], [Op; 2]) {
    let rows = local_rows(procs, n);
    let phase = Op::Flops {
        flops: rows * fft_flops(n),
    };
    let local = Op::Memcpy {
        bytes: elem_bytes * rows * n as u64,
    };
    ([phase.clone(), local.clone()], [local, phase])
}

/// Op-mode cost model of the same 2-D FFT for the Table 5 sweep: per
/// node, the phase-1 flops and pack memcpy, the transpose's complete
/// exchange of [`fft2d_pair_bytes`] per pair, the unpack memcpy and the
/// phase-2 flops. `elem_bytes` is 8 for the paper's
/// single-precision complex data.
pub fn fft2d_programs(alg: ExchangeAlg, procs: usize, n: usize, elem_bytes: u64) -> Vec<OpProgram> {
    let (before, after) = fft2d_compute(procs, n, elem_bytes);
    let mut programs =
        cm5_core::exec::exchange_programs(alg, procs, fft2d_pair_bytes(procs, n, elem_bytes));
    for prog in programs.iter_mut() {
        let mut full = Vec::with_capacity(prog.len() + 4);
        full.extend_from_slice(&before);
        full.append(prog);
        full.extend_from_slice(&after);
        *prog = full;
    }
    programs
}

/// [`fft2d_programs`] without the transpose: each node runs only the
/// compute. Its makespan is what the compute adds to the exchange's.
pub fn fft2d_compute_programs(procs: usize, n: usize, elem_bytes: u64) -> Vec<OpProgram> {
    let (before, after) = fft2d_compute(procs, n, elem_bytes);
    vec![[before, after].concat(); procs]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: C64, b: C64, tol: f64) -> bool {
        (a.re - b.re).abs() < tol && (a.im - b.im).abs() < tol
    }

    fn test_signal(n: usize, seed: u64) -> Vec<C64> {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).max(3);
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..n).map(|_| C64::new(next(), next())).collect()
    }

    #[test]
    fn fft_matches_naive_dft() {
        for n in [1usize, 2, 4, 16, 64] {
            let x = test_signal(n, n as u64);
            let mut y = x.clone();
            fft_inplace(&mut y, false);
            let reference = dft_naive(&x, false);
            for (a, b) in y.iter().zip(&reference) {
                assert!(close(*a, *b, 1e-9), "n={n}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn fft_roundtrip() {
        let n = 128;
        let x = test_signal(n, 9);
        let mut y = x.clone();
        fft_inplace(&mut y, false);
        fft_inplace(&mut y, true);
        for (a, b) in y.iter().zip(&x) {
            let scaled = C64::new(a.re / n as f64, a.im / n as f64);
            assert!(close(scaled, *b, 1e-12));
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![C64::default(); 8];
        x[0] = C64::new(1.0, 0.0);
        fft_inplace(&mut x, false);
        for v in &x {
            assert!(close(*v, C64::new(1.0, 0.0), 1e-12));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        let mut x = vec![C64::default(); 6];
        fft_inplace(&mut x, false);
    }

    #[test]
    fn transpose_is_involution() {
        let n = 16;
        let x = test_signal(n * n, 4);
        let mut y = x.clone();
        transpose_square(&mut y, n);
        assert_eq!(y[1], x[n]); // (0,1) ↔ (1,0)
        transpose_square(&mut y, n);
        assert_eq!(x, y);
    }

    #[test]
    fn fft2d_seq_separable() {
        // 2-D FFT of a separable impulse is flat ones.
        let n = 8;
        let mut data = vec![C64::default(); n * n];
        data[0] = C64::new(1.0, 0.0);
        fft2d_seq(&mut data, n);
        for v in &data {
            assert!(close(*v, C64::new(1.0, 0.0), 1e-12));
        }
    }

    #[test]
    fn fft_flops_formula() {
        assert_eq!(fft_flops(8), 5 * 8 * 3);
        assert_eq!(fft_flops(1024), 5 * 1024 * 10);
    }

    #[test]
    fn programs_include_compute_and_exchange() {
        let progs = fft2d_programs(ExchangeAlg::Pex, 8, 64, 8);
        assert_eq!(progs.len(), 8);
        for prog in &progs {
            assert!(matches!(prog[0], Op::Flops { .. }));
            assert!(matches!(prog.last(), Some(Op::Flops { .. })));
            let sends = prog
                .iter()
                .filter(|op| matches!(op, Op::Send { .. }))
                .count();
            assert_eq!(sends, 7, "one send per partner");
            // Per-pair bytes: 8 × (64/8)² = 512.
            let bytes = prog.iter().find_map(|op| match op {
                Op::Send { bytes, .. } => Some(*bytes),
                _ => None,
            });
            assert_eq!(bytes, Some(512));
        }
    }

    #[test]
    fn compute_programs_are_the_fft_programs_without_the_transpose() {
        let compute = fft2d_compute_programs(8, 64, 8);
        assert_eq!(fft2d_pair_bytes(8, 64, 8), 512);
        for (prog, only) in fft2d_programs(ExchangeAlg::Bex, 8, 64, 8)
            .iter()
            .zip(&compute)
        {
            assert_eq!(only.len(), 4);
            assert_eq!(prog[..2], only[..2]);
            assert_eq!(prog[prog.len() - 2..], only[2..]);
        }
    }
}
