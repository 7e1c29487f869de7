//! Runtime-dispatched SIMD microkernels with scalar fallbacks.
//!
//! Every hot inner loop in this crate (gemm micro-tiles, conv axpy ranges,
//! block reductions, transcendental maps, the fused GRU gate math) funnels
//! through the free functions in this module. Each function picks a
//! **backend** once per call:
//!
//! - `avx2+fma` — explicit `std::arch` intrinsics, used when the CPU
//!   supports AVX2 and FMA (detected once per process via
//!   `is_x86_feature_detected!`) and the user has not opted out.
//! - `scalar`   — the portable Rust loops that were previously the only
//!   implementation. Always available, always the fallback.
//!
//! Selection order: the calling thread's `simd` override (installed by an
//! [`Overrides::scope`] guard in tests and benches) outranks the
//! `LTTF_SIMD` environment variable (`LTTF_SIMD=0` forces scalar), which
//! outranks auto-detection. The override is per thread, yet a kernel never
//! mixes backends across the parallel pool's chunk boundaries: each
//! fork-join region carries its dispatcher's overrides to the workers that
//! run its chunks.
//!
//! # Determinism contract (see DESIGN.md §8)
//!
//! Lane-parallel operations (element-wise arithmetic) produce **bit
//! -identical** results on both backends: each output element is computed
//! by the same IEEE operations in the same order. Operations that fuse
//! multiply-add (gemm, conv, axpy) or reshape reduction trees (dot, sum)
//! or replace `libm` transcendentals with polynomial kernels (exp,
//! sigmoid, tanh, gelu) may differ from the scalar backend in the last
//! ulp. Within **one** backend every kernel remains a pure function of its
//! operands and shapes — bit-identical across runs and thread counts.

use lttf_parallel::Overrides;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod avx2;
mod scalar;

/// True when this CPU can run the AVX2+FMA kernels (cached detection).
fn hw_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static V: OnceLock<bool> = OnceLock::new();
        *V.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when kernels should take the AVX2+FMA path for this call: the
/// calling thread's `simd` override, else `LTTF_SIMD`, else yes — always
/// gated on hardware support.
#[inline]
pub fn enabled() -> bool {
    let wanted = Overrides::current().simd.or_else(lttf_obs::env::simd);
    wanted.unwrap_or(true) && hw_supported()
}

/// Name of the backend [`enabled`] resolves to right now, for report
/// headers: `"avx2+fma"`, `"scalar"` (hardware cannot do better), or
/// `"scalar (forced)"` (hardware could, but `LTTF_SIMD=0` or an override
/// said no).
pub fn backend_name() -> &'static str {
    if enabled() {
        "avx2+fma"
    } else if hw_supported() {
        "scalar (forced)"
    } else {
        "scalar"
    }
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

/// Sum of a slice with pairwise (cascade) error growth.
///
/// Scalar backend: recursive halving with a 32-element sequential base.
/// SIMD backend: recursive halving to 256-element blocks reduced by a
/// 4-accumulator AVX2 loop. Both trees depend only on the length.
#[inline]
pub fn sum(x: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2+FMA were detected at runtime.
        return unsafe { avx2::sum(x) };
    }
    scalar::sum(x)
}

/// Dot product with pairwise error growth; same tree shapes as [`sum`].
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2+FMA were detected at runtime.
        return unsafe { avx2::dot(a, b) };
    }
    scalar::dot(a, b)
}

/// `y[i] += a * x[i]` (the conv/attention accumulation primitive).
#[inline]
pub fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
    debug_assert_eq!(y.len(), x.len());
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2+FMA were detected at runtime.
        unsafe { avx2::axpy(y, a, x) };
        return;
    }
    scalar::axpy(y, a, x);
}

// ---------------------------------------------------------------------------
// gemm micro-tiles
// ---------------------------------------------------------------------------

/// `out[0..m, 0..n] += a[0..m, 0..k] @ b[0..k, 0..n]` over strided
/// row-major operands (`lda`/`ldb`/`ldo` are row strides, so callers can
/// point into larger matrices or a packed panel).
///
/// Dispatches to the AVX2+FMA register-blocked micro-tile when enabled,
/// else to a portable i-k-j loop. Within each backend the accumulation
/// order per output element is a pure function of `(m, k, n)`.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn gemm_block(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    debug_assert!(a.len() >= (m - 1) * lda + k);
    debug_assert!(b.len() >= (k - 1) * ldb + n);
    debug_assert!(out.len() >= (m - 1) * ldo + n);
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: bounds checked above; `enabled()` implies AVX2+FMA.
        unsafe { avx2::gemm_block(a, lda, b, ldb, out, ldo, m, k, n) };
        return;
    }
    scalar::gemm_block(a, lda, b, ldb, out, ldo, m, k, n);
}

// ---------------------------------------------------------------------------
// Element-wise slice kernels
// ---------------------------------------------------------------------------

/// Which lane-parallel binary operation [`binary`] applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
}

/// `out[i] = a[i] op b[i]`. Lane-parallel IEEE operations — bit-identical
/// on both backends; the SIMD path only widens the stride.
#[inline]
pub fn binary(op: BinOp, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2+FMA were detected at runtime.
        unsafe { avx2::binary(op, a, b, out) };
        return;
    }
    scalar::binary(op, a, b, out);
}

/// Which transcendental map [`unary`] applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    /// `e^x`
    Exp,
    /// `1 / (1 + e^{-x})`
    Sigmoid,
    /// `tanh x`
    Tanh,
    /// GELU, tanh approximation (transformer convention)
    Gelu,
}

/// `out[i] = f(x[i])` for the transcendental maps the models lean on.
///
/// The SIMD backend uses a degree-5 polynomial `exp` (≈2 ulp) instead of
/// `libm`, so results differ from the scalar backend in the last ulps;
/// each backend alone is a pure function of the input bytes.
#[inline]
pub fn unary(op: UnOp, x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2+FMA were detected at runtime.
        unsafe { avx2::unary(op, x, out) };
        return;
    }
    scalar::unary(op, x, out);
}

// ---------------------------------------------------------------------------
// Fused GRU gates
// ---------------------------------------------------------------------------

/// Fused GRU gate math for one batch row of `h` lanes.
///
/// Inputs are the pre-activation gate rows `gi = x_t W_ih + b_ih` and
/// `gh = h_{t-1} W_hh + b_hh`, both laid out `[r | z | n]` (PyTorch
/// order), plus the previous hidden state row. Computes
///
/// ```text
/// r = σ(gi_r + gh_r)    z = σ(gi_z + gh_z)
/// n = tanh(gi_n + r ⊙ gh_n)
/// h' = (1 − z) ⊙ n + z ⊙ h
/// ```
///
/// When `stash` is given, the gate activations `(r, z, n, gh_n)` are
/// recorded for the hand-written backward pass
/// ([`crate::gru_layer_backward`]).
pub fn gru_gates_row(
    gi: &[f32],
    gh: &[f32],
    h: &[f32],
    out: &mut [f32],
    stash: Option<(&mut [f32], &mut [f32], &mut [f32], &mut [f32])>,
) {
    let hs = h.len();
    debug_assert_eq!(gi.len(), 3 * hs);
    debug_assert_eq!(gh.len(), 3 * hs);
    debug_assert_eq!(out.len(), hs);
    if let Some((r, z, n, ghn)) = &stash {
        debug_assert!(r.len() == hs && z.len() == hs && n.len() == hs && ghn.len() == hs);
    }
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2+FMA were detected at runtime.
        unsafe { avx2::gru_gates_row(gi, gh, h, out, stash) };
        return;
    }
    scalar::gru_gates_row(gi, gh, h, out, stash);
}

/// Run `f` with the scalar kernels forced, then with SIMD requested, on
/// the calling thread only; returns `(scalar, simd)`.
#[cfg(test)]
pub(crate) fn on_both_backends<T>(f: impl Fn() -> T) -> (T, T) {
    let pinned = |simd| {
        let _g = Overrides::simd(simd).scope();
        f()
    };
    (pinned(false), pinned(true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_name_is_consistent_with_enabled() {
        let (scalar, simd) = on_both_backends(|| (enabled(), backend_name()));
        assert!(!scalar.0 && scalar.1.starts_with("scalar"));
        assert_eq!(simd.0, hw_supported());
    }

    #[test]
    fn binary_ops_bit_identical_across_backends() {
        let a: Vec<f32> = (0..133).map(|i| (i as f32 * 0.37).sin() * 8.0).collect();
        let b: Vec<f32> = (0..133).map(|i| (i as f32 * 0.53).cos() * 2.0 + 0.5).collect();
        for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div] {
            let (scalar_out, simd_out) = on_both_backends(|| {
                let mut out = vec![0.0f32; a.len()];
                binary(op, &a, &b, &mut out);
                out
            });
            for (i, (s, v)) in scalar_out.iter().zip(&simd_out).enumerate() {
                assert_eq!(s.to_bits(), v.to_bits(), "{op:?} lane {i}: {s} vs {v}");
            }
        }
    }

    #[test]
    fn unary_ops_close_across_backends() {
        let x: Vec<f32> = (0..257).map(|i| (i as f32 - 128.0) * 0.11).collect();
        for op in [UnOp::Exp, UnOp::Sigmoid, UnOp::Tanh, UnOp::Gelu] {
            let (scalar_out, simd_out) = on_both_backends(|| {
                let mut out = vec![0.0f32; x.len()];
                unary(op, &x, &mut out);
                out
            });
            for (i, (s, v)) in scalar_out.iter().zip(&simd_out).enumerate() {
                let tol = 4e-6 * s.abs().max(1.0);
                assert!(
                    (s - v).abs() <= tol,
                    "{op:?} at x={}: scalar {s} vs simd {v}",
                    x[i]
                );
            }
        }
    }

    #[test]
    fn reductions_close_across_backends() {
        for n in [0usize, 1, 7, 31, 32, 33, 255, 256, 257, 1000, 8192] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin() * 3.0).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.3).cos() * 2.0).collect();
            let ((s_sum, s_dot), (v_sum, v_dot)) = on_both_backends(|| (sum(&a), dot(&a, &b)));
            assert!(
                (s_sum - v_sum).abs() <= 1e-4 * s_sum.abs().max(1.0),
                "sum len {n}: {s_sum} vs {v_sum}"
            );
            assert!(
                (s_dot - v_dot).abs() <= 1e-4 * s_dot.abs().max(1.0),
                "dot len {n}: {s_dot} vs {v_dot}"
            );
        }
    }
}
