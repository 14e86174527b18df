//! Unified cache-blocked, B-panel-packed GEMM.
//!
//! One kernel computes every product the network needs — `A·B`, `A·Bᵀ`,
//! `Aᵀ·B` and the (never hot) `Aᵀ·Bᵀ` — in two steps: [`pack_rhs`]
//! lays the logical rhs `B[k, n]` out as contiguous column panels (a
//! [`PackedRhs`]), then [`gemm_packed_into`] accumulates against those
//! panels. A `Transposed` lhs is packed row-major into a workspace buffer
//! first. A constant rhs (a layer's frozen weights) can be packed once
//! and reused; an uncached product packs and runs in one call, copying
//! exactly what the kernel needs (a row-major rhs that fits one panel is
//! borrowed, not copied).
//!
//! The panel walk reads any [`PackedRhs`] geometry — one block of panels
//! [`PANEL`] wide here, `kc`-deep blocks of zero-padded `NR`-wide
//! micro-panels from the SIMD backend — so the SIMD backend can hand a
//! product below its size threshold to this kernel without repacking.
//!
//! # Determinism contract
//!
//! `tests/determinism.rs` pins serial and parallel builds to *bitwise*
//! identical results, so the accumulation order here is load-bearing:
//!
//! * every output element accumulates its `k` terms with `p` ascending, as
//!   a single dependent add chain;
//! * products with a `RowMajor` rhs skip terms whose `A` coefficient is
//!   exactly `0.0` (matching the historical reference kernels — skipping
//!   is *not* a pure optimization, it changes `-0.0` and `NaN`/`inf`
//!   propagation); products with a `Transposed` rhs never skip (their
//!   reference was a plain dot product);
//! * the 4-step unrolled chain `(((o + a₀x₀) + a₁x₁) + a₂x₂) + a₃x₃`
//!   performs the same adds in the same order as four single steps, so
//!   neither the panel width nor the depth blocking of the packed rhs
//!   changes a result bit;
//! * parallelism only changes which thread computes an output row, never
//!   the order of operations within one.

use std::borrow::Cow;

use crate::backend::{GemmSpec, MatLayout, PackedRhs};
use crate::workspace;

/// Panel width (output columns) processed per cache block. One output
/// segment plus four packed `B` rows of this width stay inside L1.
pub(crate) const PANEL: usize = 512;

/// Packs the logical rhs `B[k, n]` (stored as `layout` says) into blocks
/// of `kc` rows, each holding `nr`-wide column panels stored row-major;
/// with `padded`, every panel is zero-padded to a full `nr` lanes.
///
/// A row-major rhs that already is that layout (one block, one unpadded
/// panel) is borrowed; everything else is copied into a workspace
/// buffer.
pub(crate) fn pack_rhs<'a>(
    k: usize,
    n: usize,
    layout: MatLayout,
    b: &'a [f32],
    kc: usize,
    nr: usize,
    padded: bool,
) -> PackedRhs<'a> {
    assert_eq!(b.len(), k * n, "gemm: rhs length");
    let kc = kc.clamp(1, k.max(1));
    let nr = nr.max(1);
    if layout == MatLayout::RowMajor && !padded && kc == k.max(1) && nr >= n {
        return PackedRhs::from_parts(k, n, layout, kc, nr, padded, Cow::Borrowed(b));
    }
    let n_stored = if padded { n.div_ceil(nr) * nr } else { n };
    let mut dst = workspace::take_raw(k * n_stored);
    for pc in (0..k).step_by(kc) {
        let kc_eff = kc.min(k - pc);
        let block = &mut dst[pc * n_stored..(pc + kc_eff) * n_stored];
        for j0 in (0..n).step_by(nr) {
            let w = nr.min(n - j0);
            let stride = if padded { nr } else { w };
            let panel = &mut block[j0 * kc_eff..j0 * kc_eff + kc_eff * stride];
            match layout {
                MatLayout::RowMajor => {
                    for p in 0..kc_eff {
                        let row = &b[(pc + p) * n + j0..(pc + p) * n + j0 + w];
                        panel[p * stride..p * stride + w].copy_from_slice(row);
                    }
                }
                MatLayout::Transposed => {
                    for jj in 0..w {
                        let col = &b[(j0 + jj) * k + pc..(j0 + jj) * k + pc + kc_eff];
                        for (p, &v) in col.iter().enumerate() {
                            panel[p * stride + jj] = v;
                        }
                    }
                }
            }
            if w < stride {
                for p in 0..kc_eff {
                    panel[p * stride + w..(p + 1) * stride].fill(0.0);
                }
            }
        }
    }
    PackedRhs::from_parts(k, n, layout, kc, nr, padded, Cow::Owned(dst))
}

/// Accumulates `spec`'s product against a packed rhs into `out`
/// (`m · n`, caller-zeroed for a plain product).
///
/// `spec.parallel` requests fan-out over output rows (honored only when
/// the `parallel` feature is active and enough threads exist).
///
/// # Panics
///
/// Panics if slice lengths or the packed operand disagree with `spec`.
pub(crate) fn gemm_packed_into(spec: &GemmSpec, a: &[f32], b: &PackedRhs<'_>, out: &mut [f32]) {
    spec.check_packed(a, b, out);
    let (m, k, n) = (spec.m, spec.k, spec.n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }

    // Pack a strided lhs into a contiguous workspace buffer.
    let a_packed = match spec.lhs {
        MatLayout::Transposed => Some(pack_a_transposed(a, m, k)),
        MatLayout::RowMajor => None,
    };
    let a_eff: &[f32] = a_packed.as_deref().unwrap_or(a);

    let skip_zero = spec.skips_zero_lhs();
    let row = |i: usize, out_row: &mut [f32]| {
        let a_row = &a_eff[i * k..(i + 1) * k];
        for pc in (0..k).step_by(b.kc()) {
            let kc_eff = b.kc().min(k - pc);
            for j0 in (0..n).step_by(b.nr()) {
                let w = b.nr().min(n - j0);
                let (panel, stride) = b.panel(pc, j0);
                accumulate_panel(
                    &a_row[pc..pc + kc_eff],
                    panel,
                    stride,
                    &mut out_row[j0..j0 + w],
                    skip_zero,
                );
            }
        }
    };

    if spec.parallel {
        // Grain 0: the caller already decided this product is worth
        // fanning out; `for_chunks_mut` still falls back to the serial
        // loop when the feature is off or no extra threads exist.
        crate::chunks::for_chunks_mut(out, n, 0, |i, out_row| row(i, out_row));
    } else {
        for (i, out_row) in out.chunks_mut(n).enumerate() {
            row(i, out_row);
        }
    }

    if let Some(buf) = a_packed {
        workspace::recycle(buf);
    }
}

/// Accumulates `out_seg[j] += Σ_p a_row[p] · panel[p·stride + j]` with
/// `p` ascending per element. Four `k` steps run as one dependent chain
/// per element (same adds, same order, fewer L1 round-trips); when
/// `skip_zero`, any zero coefficient in a quad falls back to skip-aware
/// single steps, preserving the reference kernels' exact semantics.
fn accumulate_panel(
    a_row: &[f32],
    panel: &[f32],
    stride: usize,
    out_seg: &mut [f32],
    skip_zero: bool,
) {
    let k = a_row.len();
    let w = out_seg.len();
    let b_row = |p: usize| &panel[p * stride..p * stride + w];
    let mut p = 0;
    while p + 3 < k {
        let (a0, a1, a2, a3) = (a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]);
        if !skip_zero || (a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0) {
            let (b0, b1, b2, b3) = (b_row(p), b_row(p + 1), b_row(p + 2), b_row(p + 3));
            for ((((o, &x0), &x1), &x2), &x3) in out_seg.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
            {
                *o = (((*o + a0 * x0) + a1 * x1) + a2 * x2) + a3 * x3;
            }
        } else {
            for (q, &a) in a_row[p..p + 4].iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (o, &x) in out_seg.iter_mut().zip(b_row(p + q)) {
                    *o += a * x;
                }
            }
        }
        p += 4;
    }
    for (q, &a) in a_row[p..].iter().enumerate() {
        if skip_zero && a == 0.0 {
            continue;
        }
        for (o, &x) in out_seg.iter_mut().zip(b_row(p + q)) {
            *o += a * x;
        }
    }
}

/// Packs `a` (`[k, m]` row-major) as `Aᵀ` (`[m, k]` row-major) into a
/// workspace buffer. Source rows stream; the `m` destination rows being
/// interleaved stay within a few open cache lines.
pub(crate) fn pack_a_transposed(a: &[f32], m: usize, k: usize) -> Vec<f32> {
    let mut dst = workspace::take_raw(m * k);
    for p in 0..k {
        let src_row = &a[p * m..(p + 1) * m];
        for (i, &v) in src_row.iter().enumerate() {
            dst[i * k + p] = v;
        }
    }
    dst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(len: usize, salt: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(salt.wrapping_mul(0x2545_F491_4F6C_DD1D));
                ((h >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    fn with_zeros(mut v: Vec<f32>) -> Vec<f32> {
        for (i, x) in v.iter_mut().enumerate() {
            if i % 5 == 0 {
                *x = 0.0;
            }
        }
        v
    }

    /// Independent per-element reference with the documented order and
    /// skip semantics.
    fn naive(spec: &GemmSpec, a: &[f32], b: &[f32]) -> Vec<f32> {
        let (m, k, n) = (spec.m, spec.k, spec.n);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    let av = match spec.lhs {
                        MatLayout::Transposed => a[p * m + i],
                        MatLayout::RowMajor => a[i * k + p],
                    };
                    if spec.skips_zero_lhs() && av == 0.0 {
                        continue;
                    }
                    let bv = match spec.rhs {
                        MatLayout::Transposed => b[j * k + p],
                        MatLayout::RowMajor => b[p * n + j],
                    };
                    acc += av * bv;
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    /// Packs with the given panel geometry and runs the packed kernel.
    fn run(spec: &GemmSpec, a: &[f32], b: &[f32], geometry: (usize, usize, bool)) -> Vec<f32> {
        let (kc, nr, padded) = geometry;
        let packed = pack_rhs(spec.k, spec.n, spec.rhs, b, kc, nr, padded);
        let mut out = vec![0.0f32; spec.out_len()];
        gemm_packed_into(spec, a, &packed, &mut out);
        packed.recycle();
        out
    }

    #[test]
    fn matches_naive_reference_bitwise() {
        const LAYOUTS: [MatLayout; 2] = [MatLayout::RowMajor, MatLayout::Transposed];
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (16, 72, 16),
            (33, 9, 130),
            (4, 6, PANEL + 3), // exercises the panel split
            (2, 70, 2 * PANEL + 1),
        ] {
            for lhs in LAYOUTS {
                for rhs in LAYOUTS {
                    for zeros in [false, true] {
                        let spec = GemmSpec::with_layouts(m, k, n, lhs, rhs);
                        let mut a = synth(m * k, 1);
                        let mut b = synth(k * n, 2);
                        if zeros {
                            a = with_zeros(a);
                            b = with_zeros(b);
                        }
                        let expect = naive(&spec, &a, &b);
                        // The reference geometry, and the SIMD backend's
                        // depth-blocked, zero-padded micro-panels: the
                        // panel walk must not change a bit.
                        for geometry in [(k, PANEL, false), (5, 16, true), (3, 7, false)] {
                            for parallel in [false, true] {
                                let got = run(&spec.parallel(parallel), &a, &b, geometry);
                                assert_eq!(
                                    got, expect,
                                    "{spec:?} zeros={zeros} geometry={geometry:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn row_major_rhs_in_one_panel_is_borrowed() {
        let b = synth(3 * 4, 9);
        let packed = pack_rhs(3, 4, MatLayout::RowMajor, &b, 3, PANEL, false);
        assert!(packed.is_borrowed());
        let packed = pack_rhs(3, 4, MatLayout::Transposed, &b, 3, PANEL, false);
        assert!(!packed.is_borrowed());
        packed.recycle();
    }

    #[test]
    fn empty_dims_are_no_ops() {
        assert!(run(&GemmSpec::nn(0, 0, 0), &[], &[], (0, PANEL, false)).is_empty());
        let packed = pack_rhs(0, 2, MatLayout::RowMajor, &[], 0, PANEL, false);
        let mut out = vec![0.0f32; 4];
        gemm_packed_into(&GemmSpec::nn(2, 0, 2), &[], &packed, &mut out);
        assert_eq!(out, vec![0.0; 4]);
    }

    #[test]
    fn accumulates_into_existing_output() {
        let a = vec![1.0f32, 2.0];
        let b = vec![3.0f32, 4.0];
        let packed = pack_rhs(2, 1, MatLayout::RowMajor, &b, 2, PANEL, false);
        let mut out = vec![10.0f32];
        gemm_packed_into(&GemmSpec::nn(1, 2, 1), &a, &packed, &mut out);
        assert_eq!(out, vec![10.0 + 3.0 + 8.0]);
    }
}
