//! 1-D convolution, the workhorse of the models' embedding layers.
//!
//! The forward kernel is written in axpy form — for each `(in_ch, tap)`
//! pair the valid output range is computed once and updated with a
//! branch-free fused loop — instead of testing the padding bounds on every
//! multiply. The stride-1 axpy dispatches through [`crate::simd`] (FMA on
//! the AVX2 backend; the scalar backend keeps the accumulation order of
//! the textbook loop bit-for-bit). The stride-1 backward passes are the
//! mirror images — `conv1d_backward_input` is a transposed-conv axpy per
//! `(out_ch, in_ch, tap)`, `conv1d_backward_weight` a dot per weight tap —
//! so the backward paths run on the same microkernels as the forward.
//! Batches/out-channels are distributed over the worker pool without
//! changing any result bytes.

use crate::tensor::Tensor;
use lttf_parallel::par_chunks_mut;

/// Approximate multiply-add count per parallel task for conv kernels.
const PAR_GRAIN: usize = 64 * 1024;

/// Forward kernel for one `(batch, out_ch)` pair: writes `out_len` results
/// given the batch's input plane `x` (`[cin, len]`) and the out-channel's
/// weight plane `w` (`[cin, k]`).
#[allow(clippy::too_many_arguments)]
fn conv1d_one(
    x: &[f32],
    w: &[f32],
    bias_v: f32,
    out: &mut [f32],
    cin: usize,
    len: usize,
    k: usize,
    padding: usize,
    stride: usize,
) {
    let out_len = out.len();
    out.fill(bias_v);
    if len == 0 {
        return;
    }
    for ic in 0..cin {
        let xrow = &x[ic * len..(ic + 1) * len];
        let wrow = &w[ic * k..(ic + 1) * k];
        for (kk, &wv) in wrow.iter().enumerate() {
            // Valid outputs satisfy padding <= ot*stride + kk < padding + len.
            let ot_min = if padding > kk {
                (padding - kk).div_ceil(stride)
            } else {
                0
            };
            let hi = padding + len - 1;
            if hi < kk {
                continue;
            }
            let ot_max = ((hi - kk) / stride).min(out_len.wrapping_sub(1));
            if out_len == 0 || ot_min > ot_max {
                continue;
            }
            if stride == 1 {
                // Contiguous input span: a straight axpy.
                let x0 = ot_min + kk - padding;
                let span = ot_max - ot_min + 1;
                crate::simd::axpy(&mut out[ot_min..ot_min + span], wv, &xrow[x0..x0 + span]);
            } else {
                for ot in ot_min..=ot_max {
                    out[ot] += xrow[ot * stride + kk - padding] * wv;
                }
            }
        }
    }
}

impl Tensor {
    /// 1-D cross-correlation (the deep-learning "convolution").
    ///
    /// * `self`: input of shape `[batch, in_ch, len]`
    /// * `weight`: kernel of shape `[out_ch, in_ch, k]`
    /// * `bias`: optional `[out_ch]`
    /// * `padding`: zeros added to both ends of the length axis
    /// * `stride`: step between output positions
    ///
    /// Output shape: `[batch, out_ch, (len + 2*padding - k)/stride + 1]`.
    ///
    /// # Panics
    /// Panics on rank/channel mismatches or if the kernel does not fit the
    /// padded input.
    pub fn conv1d(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        padding: usize,
        stride: usize,
    ) -> Tensor {
        assert_eq!(
            self.ndim(),
            3,
            "conv1d input must be [batch, in_ch, len], got {}",
            self.shape
        );
        assert_eq!(
            weight.ndim(),
            3,
            "conv1d weight must be [out_ch, in_ch, k], got {}",
            weight.shape
        );
        assert!(stride >= 1, "conv1d stride must be >= 1");
        let (b, cin, len) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        let (cout, cin_w, k) = (weight.shape()[0], weight.shape()[1], weight.shape()[2]);
        assert_eq!(
            cin, cin_w,
            "conv1d channel mismatch: input has {cin}, weight expects {cin_w}"
        );
        if let Some(bias) = bias {
            assert_eq!(
                bias.shape(),
                &[cout],
                "conv1d bias must be [out_ch={cout}], got {}",
                bias.shape
            );
        }
        let padded_len = len + 2 * padding;
        assert!(
            padded_len >= k,
            "conv1d kernel of size {k} does not fit padded input of length {padded_len}"
        );
        let out_len = (padded_len - k) / stride + 1;
        let span = lttf_obs::span!(
            "conv1d",
            b * cout * out_len * cin * k >= crate::obs_min_work()
        );
        span.bytes((self.numel() + weight.numel() + b * cout * out_len) * 4);
        let mut out = vec![0.0f32; b * cout * out_len];
        if out_len > 0 {
            // One work item per (batch, out_ch) pair; group enough pairs per
            // task to amortize dispatch.
            let per = lttf_parallel::items_per_task(cin * k * out_len, PAR_GRAIN);
            let x = &self.data;
            let w = &weight.data;
            par_chunks_mut(&mut out, per * out_len, |ci, chunk| {
                for (j, o) in chunk.chunks_mut(out_len).enumerate() {
                    let flat = ci * per + j;
                    let (bi, oc) = (flat / cout, flat % cout);
                    let bias_v = bias.map_or(0.0, |bv| bv.data[oc]);
                    conv1d_one(
                        &x[bi * cin * len..(bi + 1) * cin * len],
                        &w[oc * cin * k..(oc + 1) * cin * k],
                        bias_v,
                        o,
                        cin,
                        len,
                        k,
                        padding,
                        stride,
                    );
                }
            });
        }
        Tensor::from_vec(out, &[b, cout, out_len])
    }

    /// Gradient of `conv1d` with respect to its input.
    ///
    /// `grad_out` has the shape of the forward output. Returns a tensor
    /// shaped like the forward input.
    pub fn conv1d_backward_input(
        grad_out: &Tensor,
        weight: &Tensor,
        input_shape: &[usize],
        padding: usize,
        stride: usize,
    ) -> Tensor {
        let (b, cin, len) = (input_shape[0], input_shape[1], input_shape[2]);
        let (cout, _, k) = (weight.shape()[0], weight.shape()[1], weight.shape()[2]);
        let out_len = grad_out.shape()[2];
        let _span = lttf_obs::span!(
            "conv1d_bwd_input",
            b * cout * out_len * cin * k >= crate::obs_min_work()
        );
        let mut gin = vec![0.0f32; b * cin * len];
        if cin * len > 0 {
            let go_all = &grad_out.data;
            let w = &weight.data;
            if stride == 1 {
                // Transposed-conv axpy form: for a fixed `(oc, kk)` the valid
                // output positions `ot` map to the contiguous input span
                // `ot + kk - padding`, so each `(ic)` gradient row is a sum of
                // axpys over `(oc, kk)`. Rows `(bi, ic)` are disjoint, which
                // lets us split a single batch's backward across the pool.
                let per = lttf_parallel::items_per_task(cout * k * out_len, PAR_GRAIN);
                par_chunks_mut(&mut gin, per * len, |ci, chunk| {
                    for (j, row) in chunk.chunks_mut(len).enumerate() {
                        let flat = ci * per + j;
                        let (bi, ic) = (flat / cin, flat % cin);
                        for oc in 0..cout {
                            let go = &go_all
                                [(bi * cout + oc) * out_len..(bi * cout + oc + 1) * out_len];
                            let wrow = &w[(oc * cin + ic) * k..(oc * cin + ic) * k + k];
                            for (kk, &wv) in wrow.iter().enumerate() {
                                let ot_lo = padding.saturating_sub(kk);
                                let ot_hi = (len + padding).saturating_sub(kk).min(out_len);
                                if ot_lo >= ot_hi {
                                    continue;
                                }
                                let span = ot_hi - ot_lo;
                                let x0 = ot_lo + kk - padding;
                                crate::simd::axpy(
                                    &mut row[x0..x0 + span],
                                    wv,
                                    &go[ot_lo..ot_hi],
                                );
                            }
                        }
                    }
                });
            } else {
                // Strided scatter: each batch owns a disjoint gradient plane;
                // the per-batch scatter order matches the textbook loop.
                par_chunks_mut(&mut gin, cin * len, |bi, plane| {
                    for oc in 0..cout {
                        for ot in 0..out_len {
                            let go = go_all[(bi * cout + oc) * out_len + ot];
                            if go == 0.0 {
                                continue;
                            }
                            let start = ot * stride;
                            for ic in 0..cin {
                                let w_base = (oc * cin + ic) * k;
                                let g_base = ic * len;
                                for kk in 0..k {
                                    let pos = start + kk;
                                    if pos < padding || pos >= padding + len {
                                        continue;
                                    }
                                    plane[g_base + pos - padding] += go * w[w_base + kk];
                                }
                            }
                        }
                    }
                });
            }
        }
        Tensor::from_vec(gin, input_shape)
    }

    /// Gradient of `conv1d` with respect to its weight.
    pub fn conv1d_backward_weight(
        grad_out: &Tensor,
        input: &Tensor,
        weight_shape: &[usize],
        padding: usize,
        stride: usize,
    ) -> Tensor {
        let (b, cin, len) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let (cout, _, k) = (weight_shape[0], weight_shape[1], weight_shape[2]);
        let out_len = grad_out.shape()[2];
        let _span = lttf_obs::span!(
            "conv1d_bwd_weight",
            b * cout * out_len * cin * k >= crate::obs_min_work()
        );
        let mut gw = vec![0.0f32; cout * cin * k];
        if stride == 1 && out_len > 0 {
            // Dot form: each weight tap is the dot of the out-channel's
            // gradient row with the aligned input span, summed over batches.
            // Out-channel weight planes are disjoint, so a single request's
            // weight backward also splits across the pool.
            let go_all = &grad_out.data;
            let x_all = &input.data;
            let per = lttf_parallel::items_per_task(b * cin * k * out_len, PAR_GRAIN);
            par_chunks_mut(&mut gw, per * cin * k, |ci, chunk| {
                for (j, wplane) in chunk.chunks_mut(cin * k).enumerate() {
                    let oc = ci * per + j;
                    for bi in 0..b {
                        let go = &go_all[(bi * cout + oc) * out_len..(bi * cout + oc + 1) * out_len];
                        for ic in 0..cin {
                            let xrow = &x_all[(bi * cin + ic) * len..(bi * cin + ic + 1) * len];
                            for kk in 0..k {
                                let ot_lo = padding.saturating_sub(kk);
                                let ot_hi = (len + padding).saturating_sub(kk).min(out_len);
                                if ot_lo >= ot_hi {
                                    continue;
                                }
                                let span = ot_hi - ot_lo;
                                let x0 = ot_lo + kk - padding;
                                wplane[ic * k + kk] +=
                                    crate::simd::dot(&go[ot_lo..ot_hi], &xrow[x0..x0 + span]);
                            }
                        }
                    }
                }
            });
        } else {
            for bi in 0..b {
                for oc in 0..cout {
                    for ot in 0..out_len {
                        let go = grad_out.data[(bi * cout + oc) * out_len + ot];
                        if go == 0.0 {
                            continue;
                        }
                        let start = ot * stride;
                        for ic in 0..cin {
                            let in_base = (bi * cin + ic) * len;
                            let w_base = (oc * cin + ic) * k;
                            for kk in 0..k {
                                let pos = start + kk;
                                if pos < padding || pos >= padding + len {
                                    continue;
                                }
                                gw[w_base + kk] += go * input.data[in_base + pos - padding];
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(gw, weight_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv1d_identity_kernel() {
        // 1x1 kernel of value 1 reproduces the input.
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 1, 4]);
        let w = Tensor::from_vec(vec![1.0], &[1, 1, 1]);
        let y = x.conv1d(&w, None, 0, 1);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv1d_moving_sum() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 1, 4]);
        let w = Tensor::from_vec(vec![1., 1.], &[1, 1, 2]);
        let y = x.conv1d(&w, None, 0, 1);
        assert_eq!(y.shape(), &[1, 1, 3]);
        assert_eq!(y.data(), &[3., 5., 7.]);
    }

    #[test]
    fn conv1d_padding_same() {
        // kernel 3, padding 1 keeps the length ("same" convolution).
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 1, 4]);
        let w = Tensor::from_vec(vec![0., 1., 0.], &[1, 1, 3]);
        let y = x.conv1d(&w, None, 1, 1);
        assert_eq!(y.shape(), &[1, 1, 4]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv1d_stride() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4., 5.], &[1, 1, 5]);
        let w = Tensor::from_vec(vec![1.], &[1, 1, 1]);
        let y = x.conv1d(&w, None, 0, 2);
        assert_eq!(y.data(), &[1., 3., 5.]);
    }

    #[test]
    fn conv1d_multi_channel() {
        // 2 input channels summed by a kernel of ones.
        let x = Tensor::from_vec(vec![1., 2., 10., 20.], &[1, 2, 2]);
        let w = Tensor::from_vec(vec![1., 1.], &[1, 2, 1]);
        let y = x.conv1d(&w, None, 0, 1);
        assert_eq!(y.data(), &[11., 22.]);
    }

    #[test]
    fn conv1d_bias() {
        let x = Tensor::from_vec(vec![1., 2.], &[1, 1, 2]);
        let w = Tensor::from_vec(vec![1.], &[1, 1, 1]);
        let b = Tensor::from_slice(&[100.0]);
        let y = x.conv1d(&w, Some(&b), 0, 1);
        assert_eq!(y.data(), &[101., 102.]);
    }

    #[test]
    fn conv1d_batched() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 1, 2]);
        let w = Tensor::from_vec(vec![2.], &[1, 1, 1]);
        let y = x.conv1d(&w, None, 0, 1);
        assert_eq!(y.shape(), &[2, 1, 2]);
        assert_eq!(y.data(), &[2., 4., 6., 8.]);
    }

    /// Numerical check of the input gradient: perturb each input element and
    /// compare the finite-difference slope of sum(conv) to the analytic one.
    #[test]
    fn conv1d_input_gradient_matches_finite_difference() {
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.3, 1.2, -0.7], &[1, 2, 3]);
        let w = Tensor::from_vec(vec![0.2, -0.4, 0.6, 0.1, -0.3, 0.5, 0.7, 0.9], &[2, 2, 2]);
        let pad = 1;
        let stride = 1;
        let y = x.conv1d(&w, None, pad, stride);
        let go = y.ones_like();
        let gin = Tensor::conv1d_backward_input(&go, &w, x.shape(), pad, stride);
        let eps = 1e-3;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (xp.conv1d(&w, None, pad, stride).sum()
                - xm.conv1d(&w, None, pad, stride).sum())
                / (2.0 * eps);
            assert!(
                (num - gin.data()[i]).abs() < 1e-2,
                "input grad mismatch at {i}: numeric {num} vs analytic {}",
                gin.data()[i]
            );
        }
    }

    #[test]
    fn conv1d_weight_gradient_matches_finite_difference() {
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.3, 1.2, -0.7], &[1, 2, 3]);
        let w = Tensor::from_vec(vec![0.2, -0.4, 0.6, 0.1, -0.3, 0.5, 0.7, 0.9], &[2, 2, 2]);
        let pad = 0;
        let stride = 1;
        let y = x.conv1d(&w, None, pad, stride);
        let go = y.ones_like();
        let gw = Tensor::conv1d_backward_weight(&go, &x, w.shape(), pad, stride);
        let eps = 1e-3;
        for i in 0..w.numel() {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (x.conv1d(&wp, None, pad, stride).sum()
                - x.conv1d(&wm, None, pad, stride).sum())
                / (2.0 * eps);
            assert!(
                (num - gw.data()[i]).abs() < 1e-2,
                "weight grad mismatch at {i}: numeric {num} vs analytic {}",
                gw.data()[i]
            );
        }
    }

    /// The axpy-form kernel must be bit-for-bit identical to the textbook
    /// per-output accumulation loop it replaced, across strides and padding.
    /// The contract holds for the scalar backend (the AVX2 axpy fuses the
    /// multiply-add and may differ in the last ulp — DESIGN.md §8), so the
    /// kernel choice is pinned for the duration of the test.
    #[test]
    fn conv1d_matches_reference_bit_for_bit() {
        let _scalar = lttf_parallel::Overrides::simd(false).scope();
        let (b, cin, len, cout, k) = (3, 4, 29, 5, 3);
        let x = Tensor::from_vec(
            (0..b * cin * len)
                .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.013)
                .collect(),
            &[b, cin, len],
        );
        let w = Tensor::from_vec(
            (0..cout * cin * k)
                .map(|i| ((i * 53 % 67) as f32 - 33.0) * 0.021)
                .collect(),
            &[cout, cin, k],
        );
        let bias = Tensor::from_vec((0..cout).map(|i| i as f32 * 0.1).collect(), &[cout]);
        for &(padding, stride) in &[(0usize, 1usize), (2, 1), (1, 2), (3, 3)] {
            let got = x.conv1d(&w, Some(&bias), padding, stride);
            let out_len = (len + 2 * padding - k) / stride + 1;
            let mut want = vec![0.0f32; b * cout * out_len];
            for bi in 0..b {
                for oc in 0..cout {
                    for ot in 0..out_len {
                        let mut acc = bias.data()[oc];
                        for ic in 0..cin {
                            for kk in 0..k {
                                let pos = ot * stride + kk;
                                if pos < padding || pos >= padding + len {
                                    continue;
                                }
                                acc += x.data()[(bi * cin + ic) * len + pos - padding]
                                    * w.data()[(oc * cin + ic) * k + kk];
                            }
                        }
                        want[(bi * cout + oc) * out_len + ot] = acc;
                    }
                }
            }
            for (i, (&g, &e)) in got.data().iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    e.to_bits(),
                    "pad={padding} stride={stride}: mismatch at {i}: {g} vs {e}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn conv1d_channel_mismatch_panics() {
        let x = Tensor::zeros(&[1, 2, 4]);
        let w = Tensor::zeros(&[1, 3, 2]);
        x.conv1d(&w, None, 0, 1);
    }
}
