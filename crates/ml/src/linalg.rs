//! Minimal dense linear-algebra kernels for the auto-encoder.
//!
//! Only what backpropagation through small dense layers needs: row-major
//! GEMM in the three transpose configurations, plus a handful of
//! element-wise helpers.
//!
//! **Kernel contract.** All three GEMMs are one register-tiled body,
//! [`gemm_body`]: an `MR×NR` tile of `C` lives in accumulators across the
//! whole `p` loop and is stored once. For every `C[i][j]` the reduction
//! starts from `0.0` and runs over `p` in ascending order as a rounded
//! multiply followed by a rounded add — never `mul_add`, never reassociated
//! — exactly as the naive triple loop would. The body is portable Rust,
//! compiled twice: as written, and inside a `#[target_feature(enable =
//! "avx2")]` wrapper that [`matmul`], [`matmul_at_b`] and [`matmul_a_bt`]
//! pick per call when the host has AVX2 — there is no knob.
//! Wider registers only change how many independent `C[i][j]` advance per
//! instruction, not the operations any one of them sees, and the wrapper
//! does not enable FMA, so hosts with and without AVX2 produce the same
//! bits. Together with the row-independence of `matmul` (row `i` of `C`
//! reads only row `i` of `A`), this is also what lets the auto-encoder fan a
//! forward pass out over row chunks and still produce bit-identical
//! activations at every compute-pool width.
//!
//! The tile loop has no cache blocking: it is sized for the auto-encoder's
//! layers, where `B` (at most 64×64) stays in L1.

/// Rows of the `C` register tile.
const MR: usize = 4;
/// Columns of the `C` register tile: two 4-lane vectors, so the 8
/// accumulators, 2 `B` vectors and a broadcast `A` value fit in 16 registers.
const NR: usize = 8;

/// The `R×C` tile of `C` at `(i0, j0)`. Constant tile bounds let the two
/// inner loops unroll and `acc` live in registers.
#[inline(always)]
fn gemm_tile<const TRANS_A: bool, const R: usize, const C: usize>(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    (m, k, n): (usize, usize, usize),
    (i0, j0): (usize, usize),
) {
    let mut acc = [[0.0f64; C]; R];
    // The tile's rows of a row-major `A` (unused when `TRANS_A`).
    let a_rows: [&[f64]; R] =
        std::array::from_fn(|r| if TRANS_A { a } else { &a[(i0 + r) * k..][..k] });
    for (p, b_row) in (0..k).zip(b.chunks_exact(n)) {
        let a_col: [f64; R] = if TRANS_A {
            a[p * m + i0..][..R].try_into().expect("R values")
        } else {
            std::array::from_fn(|r| a_rows[r][p])
        };
        let b_row: &[f64; C] = b_row[j0..][..C].try_into().expect("C values");
        for (acc_row, a_v) in acc.iter_mut().zip(a_col) {
            for (acc_v, b_v) in acc_row.iter_mut().zip(b_row) {
                *acc_v += a_v * b_v;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        c[(i0 + r) * n + j0..][..C].copy_from_slice(acc_row);
    }
}

/// `C[m×n] = op(A) · B[k×n]`, all row-major, `C` overwritten; `op(A)` is
/// `A[m×k]`, or `Aᵀ` of an `A` stored `k×m` when `TRANS_A`. This is the
/// portable instantiation of the kernel, public for tests and benches;
/// [`matmul`] and [`matmul_at_b`] are the dispatched ones.
#[inline(always)]
pub fn gemm_body<const TRANS_A: bool>(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "A dims");
    assert_eq!(b.len(), k * n, "B dims");
    assert_eq!(c.len(), m * n, "C dims");
    if c.is_empty() {
        return;
    }
    let dims = (m, k, n);
    // Full tiles, then a column at a time for the right edge and a row at a
    // time for the bottom edge.
    let (m_full, n_full) = (m - m % MR, n - n % NR);
    for i0 in (0..m_full).step_by(MR) {
        for j0 in (0..n_full).step_by(NR) {
            gemm_tile::<TRANS_A, MR, NR>(a, b, c, dims, (i0, j0));
        }
        for j in n_full..n {
            gemm_tile::<TRANS_A, MR, 1>(a, b, c, dims, (i0, j));
        }
    }
    for i in m_full..m {
        for j0 in (0..n_full).step_by(NR) {
            gemm_tile::<TRANS_A, 1, NR>(a, b, c, dims, (i, j0));
        }
        for j in n_full..n {
            gemm_tile::<TRANS_A, 1, 1>(a, b, c, dims, (i, j));
        }
    }
}

/// [`gemm_body`] compiled with 256-bit vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2<const TRANS_A: bool>(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) {
    gemm_body::<TRANS_A>(a, b, c, m, k, n);
}

/// True when the host has AVX2, i.e. when the wide instantiations of the
/// kernels are the ones that run (std caches the cpuid).
#[inline]
pub(crate) fn wide() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Name of the kernel instantiation this host dispatches to (for test and
/// CI logs).
pub fn dispatched_path() -> &'static str {
    if wide() {
        "avx2"
    } else {
        "portable"
    }
}

/// [`gemm_body`], on the widest instantiation the host supports.
fn gemm<const TRANS_A: bool>(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if wide() {
        // SAFETY: `wide()` is true only when the host has AVX2.
        return unsafe { gemm_avx2::<TRANS_A>(a, b, c, m, k, n) };
    }
    gemm_body::<TRANS_A>(a, b, c, m, k, n)
}

/// `C[m×n] = A[m×k] · B[k×n]` (row-major, C overwritten).
pub fn matmul(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    gemm::<false>(a, b, c, m, k, n);
}

/// `C[m×n] = Aᵀ[m×k] · B[k×n]` where `A` is stored `k×m` (row-major).
pub fn matmul_at_b(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    gemm::<true>(a, b, c, m, k, n);
}

/// `out[cols×rows] = xᵀ` for a row-major `x[rows×cols]`.
pub fn transpose(x: &[f64], out: &mut [f64], rows: usize, cols: usize) {
    assert_eq!(x.len(), rows * cols, "x dims");
    assert_eq!(out.len(), rows * cols, "out dims");
    for i in 0..rows {
        for j in 0..cols {
            out[j * rows + i] = x[i * cols + j];
        }
    }
}

/// `C[m×n] = A[m×k] · Bᵀ[k×n]` where `B` is stored `n×k` (row-major) and
/// `bt` (`k·n` values) is scratch that receives `Bᵀ`: a dot product along
/// `B`'s rows cannot vectorise without reassociating, the same ascending-`p`
/// sums down `Bᵀ`'s columns can.
pub fn matmul_a_bt(
    a: &[f64],
    b: &[f64],
    bt: &mut [f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) {
    transpose(b, bt, n, k);
    gemm::<false>(a, bt, c, m, k, n);
}

/// Add row-vector `bias[n]` to every row of `x[m×n]`.
pub fn add_bias(x: &mut [f64], bias: &[f64]) {
    let n = bias.len();
    assert_eq!(x.len() % n, 0, "x not a multiple of bias length");
    for row in x.chunks_exact_mut(n) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// In-place ReLU. Written as an unconditional store of a select: the sign
/// of an activation is a coin flip, so a branch here mispredicts every other
/// element and a conditional store cannot vectorise.
pub fn relu(x: &mut [f64]) {
    for v in x.iter_mut() {
        *v = if *v < 0.0 { 0.0 } else { *v };
    }
}

/// In-place ReLU derivative mask: `g[i] = 0` wherever `activ[i] <= 0`.
pub fn relu_backward(g: &mut [f64], activ: &[f64]) {
    assert_eq!(g.len(), activ.len());
    for (gv, &a) in g.iter_mut().zip(activ) {
        *gv = if a <= 0.0 { 0.0 } else { *gv };
    }
}

/// Column sums of `x[m×n]` into `out[n]` (used for bias gradients).
pub fn column_sums(x: &[f64], out: &mut [f64]) {
    let n = out.len();
    assert_eq!(x.len() % n, 0);
    out.fill(0.0);
    for row in x.chunks_exact(n) {
        for (o, &v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
}

/// `y ← y + alpha * x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// Mean squared error between two equal-length buffers.
pub fn mse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    if a.is_empty() {
        return 0.0;
    }
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = [1.0, 2.0, 3.0, 4.0]; // 2x2
        let i = [1.0, 0.0, 0.0, 1.0];
        let mut c = [0.0; 4];
        matmul(&a, &i, &mut c, 2, 2, 2);
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_known_product() {
        // [1 2; 3 4] · [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0; 4];
        matmul(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        // A 1x3 · B 3x2 = C 1x2
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 4.0, 2.0, 5.0, 3.0, 6.0];
        let mut c = [0.0; 2];
        matmul(&a, &b, &mut c, 1, 3, 2);
        assert_eq!(c, [14.0, 32.0]);
    }

    #[test]
    fn at_b_equals_transpose_then_mul() {
        // A stored 2x3; compute Aᵀ(3x2) · B(2x2).
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [1.0, 2.0, 3.0, 4.0];
        let mut c = [0.0; 6];
        matmul_at_b(&a, &b, &mut c, 3, 2, 2);
        // Aᵀ = [1 4; 2 5; 3 6]; Aᵀ·B = [13 18; 17 24; 21 30]
        assert_eq!(c, [13.0, 18.0, 17.0, 24.0, 21.0, 30.0]);
    }

    #[test]
    fn a_bt_equals_mul_by_transpose() {
        // A 2x2 · Bᵀ where B stored 2x2.
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0]; // B = [5 6; 7 8], Bᵀ = [5 7; 6 8]
        let mut c = [0.0; 4];
        matmul_a_bt(&a, &b, &mut [0.0; 4], &mut c, 2, 2, 2);
        assert_eq!(c, [17.0, 23.0, 39.0, 53.0]);
    }

    /// The naive triple loop whose per-element accumulation order the
    /// kernel promises.
    fn naive_matmul(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn test_matrix(len: usize, salt: u64) -> Vec<f64> {
        // Deterministic irregular values; xorshift keeps it dependency-free.
        let mut state = salt | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 2048) as f64 / 512.0 - 2.0
            })
            .collect()
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn reports_dispatched_path() {
        println!("linalg kernels dispatch to: {}", dispatched_path());
        if !wide() {
            println!("SKIPPED: no AVX2 on this host, dispatched == portable by construction");
        }
    }

    proptest::proptest! {
        /// Portable, dispatched and naive agree bit for bit in all three
        /// transpose forms, at sizes on both sides of the tile edges.
        #[test]
        fn prop_portable_dispatched_and_naive_agree(
            m in 1usize..=130,
            k in 1usize..=130,
            n in 1usize..=130,
            salt in 1u64..1000,
        ) {
            let a = test_matrix(m * k, salt);
            let b = test_matrix(k * n, salt + 1000);
            let expect = bits(&naive_matmul(&a, &b, m, k, n));
            let mut at = vec![0.0; m * k];
            transpose(&a, &mut at, m, k);
            let mut bt = vec![0.0; k * n];
            transpose(&b, &mut bt, k, n);
            // Non-zero C: every kernel must overwrite.
            let mut c = vec![1.0; m * n];

            gemm_body::<false>(&a, &b, &mut c, m, k, n);
            proptest::prop_assert_eq!(&bits(&c), &expect, "portable A·B");
            matmul(&a, &b, &mut c, m, k, n);
            proptest::prop_assert_eq!(&bits(&c), &expect, "dispatched A·B");

            gemm_body::<true>(&at, &b, &mut c, m, k, n);
            proptest::prop_assert_eq!(&bits(&c), &expect, "portable Aᵀ·B");
            matmul_at_b(&at, &b, &mut c, m, k, n);
            proptest::prop_assert_eq!(&bits(&c), &expect, "dispatched Aᵀ·B");

            // A·Bᵀ is a transpose and then the A·B kernel in both builds.
            let mut scratch = vec![0.0; k * n];
            matmul_a_bt(&a, &bt, &mut scratch, &mut c, m, k, n);
            proptest::prop_assert_eq!(&bits(&c), &expect, "dispatched A·Bᵀ");
        }
    }

    #[test]
    fn bias_broadcast() {
        let mut x = [0.0, 0.0, 1.0, 1.0];
        add_bias(&mut x, &[10.0, 20.0]);
        assert_eq!(x, [10.0, 20.0, 11.0, 21.0]);
    }

    #[test]
    fn relu_and_backward() {
        let mut x = [-1.0, 0.0, 2.0];
        relu(&mut x);
        assert_eq!(x, [0.0, 0.0, 2.0]);
        let mut g = [5.0, 5.0, 5.0];
        relu_backward(&mut g, &x);
        assert_eq!(g, [0.0, 0.0, 5.0]);
    }

    #[test]
    fn column_sums_basic() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 3x2
        let mut out = [0.0; 2];
        column_sums(&x, &mut out);
        assert_eq!(out, [9.0, 12.0]);
    }

    #[test]
    fn axpy_basic() {
        let mut y = [1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, [7.0, 9.0]);
    }

    #[test]
    fn mse_basic() {
        assert_eq!(mse(&[1.0, 2.0], &[1.0, 4.0]), 2.0);
        assert_eq!(mse(&[], &[]), 0.0);
    }
}
