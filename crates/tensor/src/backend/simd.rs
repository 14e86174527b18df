//! AVX2/FMA register-blocked GEMM microkernel (feature `simd`, x86_64).
//!
//! Classic three-level blocking: the rhs is packed once into `kc`-deep
//! blocks of `NR`-wide micro-panels (zero-padded at the edge; a constant
//! rhs can stay packed across calls, see [`Backend::pack_rhs`]), then
//! each `mc`-row strip of the output packs its lhs block into `MR`-row
//! micro-panels and walks `MR × NR` output tiles. The microkernel holds
//! one tile in registers —
//! `MR = 6` rows × `NR = 16` columns = 12 ymm accumulators — broadcasting
//! one lhs scalar against two rhs vectors per FMA. Block sizes `mc/kc/nc`
//! come from [`GemmTuning`] (persisted by `calibrate gemm`, loaded at
//! backend init).
//!
//! # Numerics
//!
//! This backend is **not** bitwise-compatible with the scalar reference:
//! FMAs contract the multiply-add rounding and each output element is the
//! sum of 8-lane partial accumulators, so the accumulation order differs.
//! It never skips zero coefficients. The conformance suite
//! (`tests/backend_conformance.rs`) pins it to the documented forward
//! error bound against an `f64` reference: for every element,
//! `|simd − ref| ≤ 2·k·ε·Σₚ|aᵢₚ·bₚⱼ|` (`ε = f32::EPSILON`).
//!
//! # Safety
//!
//! Every `unsafe` block below executes AVX2/FMA intrinsics; construction
//! is gated on [`SimdBackend::new`] verifying `avx2` **and** `fma` via
//! `is_x86_feature_detected!`, so the target-feature contract holds on
//! every path that can reach the kernel.

use std::arch::x86_64::*;

use super::tune::{self, GemmTuning};
use super::{Backend, GemmSpec, MatLayout, PackedRhs, ScalarBackend};
use crate::workspace;

/// Microkernel tile rows (lhs values broadcast per step).
pub const MR: usize = 6;
/// Microkernel tile columns (two 8-lane ymm vectors).
pub const NR: usize = 16;

/// Products below this multiply-accumulate count run on the scalar
/// backend — packing overhead beats the vector win on tiny shapes.
const SIMD_MIN_FLOPS: usize = 8 * 1024;

/// The AVX2/FMA backend. Constructed only through [`SimdBackend::new`] /
/// [`SimdBackend::detect`], which verify the CPU features the kernels are
/// compiled for.
#[derive(Debug, Clone)]
pub struct SimdBackend {
    tuning: GemmTuning,
}

impl SimdBackend {
    /// Builds the backend with an explicit tuning if this CPU supports
    /// AVX2+FMA; `None` otherwise. Block sizes are sanitized and rounded
    /// to microkernel multiples.
    pub fn new(tuning: GemmTuning) -> Option<SimdBackend> {
        if !(std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma"))
        {
            return None;
        }
        let t = tuning.sanitized();
        Some(SimdBackend {
            tuning: GemmTuning {
                mc: round_up(t.mc, MR),
                kc: t.kc,
                nc: round_up(t.nc, NR),
            },
        })
    }

    /// Builds the backend with the persisted tuning for this machine
    /// ([`tune::load`]), falling back to [`GemmTuning::default`] when no
    /// tuning file exists.
    pub fn detect() -> Option<SimdBackend> {
        SimdBackend::new(tune::load().unwrap_or_default())
    }

    /// The (rounded) block sizes this backend runs with.
    pub fn tuning(&self) -> GemmTuning {
        self.tuning
    }
}

impl Backend for SimdBackend {
    fn name(&self) -> &'static str {
        "simd-avx2"
    }

    fn pack_rhs<'a>(&self, k: usize, n: usize, layout: MatLayout, b: &'a [f32]) -> PackedRhs<'a> {
        crate::gemm::pack_rhs(k, n, layout, b, self.tuning.kc, NR, true)
    }

    fn gemm_packed(&self, spec: &GemmSpec, a: &[f32], b: &PackedRhs<'_>, out: &mut [f32]) {
        spec.check_packed(a, b, out);
        let (m, k, n) = (spec.m, spec.k, spec.n);
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        if m * k * n < SIMD_MIN_FLOPS {
            // The scalar kernel reads the micro-panel layout as it is, so
            // the delegated product is bitwise the scalar reference. It is
            // timed by the scalar kernel's own hook.
            return ScalarBackend.gemm_packed(spec, a, b, out);
        }
        assert!(
            b.nr() == NR && b.padded(),
            "gemm: rhs was not packed by the SIMD backend"
        );
        // Per-shape kernel timing; `None` (one relaxed load) unless
        // telemetry is armed and `DEEPMORPH_KERNEL_TIMING=1`.
        let _timer = deepmorph_telemetry::kernel_timer(m, k, n);
        let (mc, nc) = (self.tuning.mc, self.tuning.nc);

        let strip = |strip_idx: usize, out_strip: &mut [f32]| {
            let i0 = strip_idx * mc;
            let rows = out_strip.len() / n;
            process_strip(spec, a, b, out_strip, i0, rows, nc);
        };

        if spec.parallel {
            // Grain 0: the caller sized the fan-out decision; the chunk
            // helper still runs inline when no worker threads exist.
            crate::chunks::for_chunks_mut(out, mc * n, 0, |i, chunk| strip(i, chunk));
        } else {
            for (i, chunk) in out.chunks_mut(mc * n).enumerate() {
                strip(i, chunk);
            }
        }
    }
}

fn round_up(v: usize, to: usize) -> usize {
    v.div_ceil(to) * to
}

#[inline]
fn a_at(spec: &GemmSpec, a: &[f32], i: usize, p: usize) -> f32 {
    match spec.lhs {
        MatLayout::RowMajor => a[i * spec.k + p],
        MatLayout::Transposed => a[p * spec.m + i],
    }
}

/// Runs every kc-block of one `rows`-row output strip starting at global
/// row `i0`, against the rhs's own `kc` blocking.
fn process_strip(
    spec: &GemmSpec,
    a: &[f32],
    packed_b: &PackedRhs<'_>,
    out_strip: &mut [f32],
    i0: usize,
    rows: usize,
    nc: usize,
) {
    let (k, n, kc) = (spec.k, spec.n, packed_b.kc());
    let n_pad = round_up(n, NR);
    let m_tiles = rows.div_ceil(MR);
    let mut tile = [0.0f32; MR * NR];
    let mut pc = 0;
    while pc < k {
        let kc_eff = kc.min(k - pc);
        // Pack this strip's lhs block: MR-row micro-panels (panel-depth
        // `p`, then row lane), bottom edge zero-padded.
        let mut packed_a = workspace::take_raw(m_tiles * MR * kc_eff);
        for mi in 0..m_tiles {
            let panel = &mut packed_a[mi * kc_eff * MR..(mi + 1) * kc_eff * MR];
            let r0 = mi * MR;
            let h = MR.min(rows - r0);
            for p in 0..kc_eff {
                for ii in 0..MR {
                    panel[p * MR + ii] = if ii < h {
                        a_at(spec, a, i0 + r0 + ii, pc + p)
                    } else {
                        0.0
                    };
                }
            }
        }

        // Walk rhs micro-panels in nc-wide groups (panel stays hot across
        // the mi loop; the group bound keeps the active pack in L2).
        let mut jc = 0;
        while jc < n_pad {
            let jc_end = (jc + nc).min(n_pad);
            for jm in jc / NR..jc_end / NR {
                let j0 = jm * NR;
                let (b_panel, _) = packed_b.panel(pc, j0);
                let w = NR.min(n - j0);
                for mi in 0..m_tiles {
                    let a_panel = &packed_a[mi * kc_eff * MR..(mi + 1) * kc_eff * MR];
                    // SAFETY: construction verified avx2+fma (see module
                    // docs); panels are exactly kc_eff·MR / kc_eff·NR long
                    // (`gemm_packed` asserted zero-padded NR-lane panels).
                    unsafe {
                        tile_mr_nr(
                            kc_eff,
                            a_panel.as_ptr(),
                            b_panel.as_ptr(),
                            tile.as_mut_ptr(),
                        );
                    }
                    let r0 = mi * MR;
                    let h = MR.min(rows - r0);
                    for ii in 0..h {
                        let dst = &mut out_strip[(r0 + ii) * n + j0..(r0 + ii) * n + j0 + w];
                        let src = &tile[ii * NR..ii * NR + w];
                        for (o, &v) in dst.iter_mut().zip(src) {
                            *o += v;
                        }
                    }
                }
            }
            jc = jc_end;
        }
        workspace::recycle(packed_a);
        pc += kc;
    }
}

/// Computes one `MR × NR` tile: `tile = A_panel · B_panel` over `kc`
/// depth steps, 12 ymm accumulators, FMA contraction.
///
/// # Safety
///
/// Caller must guarantee AVX2+FMA are available and that `ap`/`bp` point
/// to at least `kc·MR` / `kc·NR` valid floats and `tile` to `MR·NR`.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tile_mr_nr(kc: usize, ap: *const f32, bp: *const f32, tile: *mut f32) {
    let mut acc0 = [_mm256_setzero_ps(); MR];
    let mut acc1 = [_mm256_setzero_ps(); MR];
    for p in 0..kc {
        let b0 = _mm256_loadu_ps(bp.add(p * NR));
        let b1 = _mm256_loadu_ps(bp.add(p * NR + 8));
        for i in 0..MR {
            let av = _mm256_broadcast_ss(&*ap.add(p * MR + i));
            acc0[i] = _mm256_fmadd_ps(av, b0, acc0[i]);
            acc1[i] = _mm256_fmadd_ps(av, b1, acc1[i]);
        }
    }
    for i in 0..MR {
        _mm256_storeu_ps(tile.add(i * NR), acc0[i]);
        _mm256_storeu_ps(tile.add(i * NR + 8), acc1[i]);
    }
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

    /// `f64` reference product with per-element absolute-term sums (for
    /// the documented forward error bound).
    fn reference(spec: &GemmSpec, a: &[f32], b: &[f32]) -> (Vec<f64>, Vec<f64>) {
        let (m, k, n) = (spec.m, spec.k, spec.n);
        let mut out = vec![0.0f64; m * n];
        let mut abs = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    let av = a_at(spec, a, i, p) as f64;
                    let bv = match spec.rhs {
                        MatLayout::RowMajor => b[p * n + j],
                        MatLayout::Transposed => b[j * k + p],
                    } as f64;
                    out[i * n + j] += av * bv;
                    abs[i * n + j] += (av * bv).abs();
                }
            }
        }
        (out, abs)
    }

    fn assert_within_bound(spec: &GemmSpec, got: &[f32], refs: &(Vec<f64>, Vec<f64>)) {
        let (expect, abs) = refs;
        for (i, (&g, (&e, &s))) in got.iter().zip(expect.iter().zip(abs.iter())).enumerate() {
            let tol = 2.0 * spec.k as f64 * f32::EPSILON as f64 * s + 1e-12;
            assert!(
                ((g as f64) - e).abs() <= tol,
                "elem {i}: got {g}, want {e} ± {tol} ({spec:?})"
            );
        }
    }

    #[test]
    fn simd_matches_f64_reference_within_bound() {
        let Some(be) = SimdBackend::new(GemmTuning::default()) else {
            eprintln!("skipping: no AVX2+FMA on this CPU");
            return;
        };
        for &(m, k, n) in &[
            (1usize, 40usize, 1usize),
            (MR, 64, NR),
            (MR + 1, 33, NR + 1),
            (37, 129, 50),
            (64, 300, 48),
            (200, 17, 3),
        ] {
            for lhs in [MatLayout::RowMajor, MatLayout::Transposed] {
                for rhs in [MatLayout::RowMajor, MatLayout::Transposed] {
                    let spec = GemmSpec::with_layouts(m, k, n, lhs, rhs);
                    let a = synth(spec.lhs_len(), 7);
                    let b = synth(spec.rhs_len(), 11);
                    let refs = reference(&spec, &a, &b);
                    let mut out = vec![0.0f32; m * n];
                    be.gemm(&spec, &a, &b, &mut out);
                    assert_within_bound(&spec, &out, &refs);
                    // Parallel fan-out must stay within the same bound.
                    let mut out_p = vec![0.0f32; m * n];
                    be.gemm(&spec.parallel(true), &a, &b, &mut out_p);
                    assert_within_bound(&spec, &out_p, &refs);
                }
            }
        }
    }

    #[test]
    fn simd_accumulates_into_existing_output() {
        let Some(be) = SimdBackend::new(GemmTuning::default()) else {
            return;
        };
        // Large enough to clear the scalar-fallback threshold.
        let (m, k, n) = (24, 64, 24);
        let spec = GemmSpec::nn(m, k, n);
        let a = synth(m * k, 3);
        let b = synth(k * n, 4);
        let mut base = vec![0.0f32; m * n];
        be.gemm(&spec, &a, &b, &mut base);
        let mut out = vec![1.0f32; m * n];
        be.gemm(&spec, &a, &b, &mut out);
        for (o, bse) in out.iter().zip(&base) {
            assert!((o - 1.0 - bse).abs() <= 1e-4 * (1.0 + bse.abs()));
        }
    }

    #[test]
    fn tiny_products_fall_back_to_scalar_bitwise() {
        let Some(be) = SimdBackend::new(GemmTuning::default()) else {
            return;
        };
        let spec = GemmSpec::nt(3, 5, 4);
        let a = synth(15, 1);
        let b = synth(20, 2);
        let mut simd_out = vec![0.0f32; 12];
        be.gemm(&spec, &a, &b, &mut simd_out);
        let mut scalar_out = vec![0.0f32; 12];
        ScalarBackend.gemm(&spec, &a, &b, &mut scalar_out);
        assert_eq!(simd_out, scalar_out);
    }

    #[test]
    fn block_sizes_are_rounded_to_microkernel_multiples() {
        let Some(be) = SimdBackend::new(GemmTuning {
            mc: 50,
            kc: 100,
            nc: 100,
        }) else {
            return;
        };
        let t = be.tuning();
        assert_eq!(t.mc % MR, 0);
        assert_eq!(t.nc % NR, 0);
        assert_eq!(t.kc, 100);
    }
}
