//! Backend conformance suite.
//!
//! Three layers of guarantees, in decreasing strictness:
//!
//! 1. **The scalar backend is bitwise-pinned.** FNV-1a digests of its
//!    outputs on fixed inputs are asserted against constants recorded
//!    when the backend seam landed — any accidental change to the
//!    reference kernels (accumulation order, zero-skip contract,
//!    blocking) breaks these tests, not just downstream fingerprints.
//! 2. **The scalar backend is the `Tensor` product.** Property tests pin
//!    `Backend::gemm` bitwise against the `matmul`/`matmul_nt`/
//!    `matmul_tn` reference family on random shapes and data, for every
//!    operand-layout combination.
//! 3. **Every other backend tracks an f64 reference within an error
//!    bound.** The SIMD microkernel (when compiled and the CPU supports
//!    it) may re-associate the contraction, so it is held to the
//!    standard forward error bound of a length-`k` dot product rather
//!    than bitwise equality.
//!
//! Across all of them, a product against a rhs packed once
//! (`Backend::pack_rhs` + `Backend::gemm_packed`) is bitwise the
//! backend's own `gemm`.

use deepmorph_tensor::backend::{self, BackendHandle, ComputeCtx, GemmSpec, MatLayout};
use deepmorph_tensor::Tensor;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// FNV-1a over the output bit patterns: any single-bit drift anywhere in
/// the result flips the digest.
fn digest(xs: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Deterministic pseudo-random fill with exact zeros sprinkled in, so the
/// zero-skip part of the reference contract is exercised.
fn fill(len: usize, salt: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(salt);
            if h.is_multiple_of(11) {
                0.0
            } else {
                ((h >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            }
        })
        .collect()
}

fn scalar_gemm(spec: &GemmSpec, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; spec.out_len()];
    backend::scalar().gemm(spec, a, b, &mut out);
    out
}

const LAYOUTS: [(MatLayout, MatLayout); 4] = [
    (MatLayout::RowMajor, MatLayout::RowMajor),
    (MatLayout::RowMajor, MatLayout::Transposed),
    (MatLayout::Transposed, MatLayout::RowMajor),
    (MatLayout::Transposed, MatLayout::Transposed),
];

/// Layer 1: the reference kernel's exact outputs, pinned by digest. The
/// constants were recorded from the scalar backend when the seam landed;
/// they must never change — a new backend goes behind its own
/// `BackendKind`, it does not move the reference.
#[test]
fn scalar_backend_is_bitwise_pinned() {
    const PINNED: [u64; 4] = [
        0xf03f_6269_bd43_1d00,
        0x0a78_ddcd_9a64_2891,
        0x46ce_29af_d21d_b606,
        0x7e29_c425_102c_4d0a,
    ];
    let (m, k, n) = (5, 7, 6);
    let digests: Vec<u64> = LAYOUTS
        .iter()
        .map(|&(lhs, rhs)| {
            let spec = GemmSpec::with_layouts(m, k, n, lhs, rhs);
            let a = fill(spec.lhs_len(), 3);
            let b = fill(spec.rhs_len(), 17);
            digest(&scalar_gemm(&spec, &a, &b))
        })
        .collect();
    assert_eq!(
        digests, PINNED,
        "scalar reference drifted (actual digests {digests:#018x?})"
    );
}

/// Layer 1b: accumulation semantics are part of the pinned contract —
/// `gemm` adds into `out`, it does not overwrite it. The exact result is
/// digest-pinned (the kernel folds the partial sums into `out` in its
/// blocked order, which rounds differently from `init + product`); the
/// approximate check documents what the digest means.
#[test]
fn scalar_backend_accumulates_into_out() {
    const PINNED: u64 = 0x0621_071f_7f61_2448;
    let spec = GemmSpec::nt(4, 9, 3);
    let a = fill(spec.lhs_len(), 5);
    let b = fill(spec.rhs_len(), 23);
    let init = fill(spec.out_len(), 41);
    let mut out = init.clone();
    backend::scalar().gemm(&spec, &a, &b, &mut out);
    let product = scalar_gemm(&spec, &a, &b);
    for ((o, i), p) in out.iter().zip(&init).zip(&product) {
        assert!((o - (i + p)).abs() < 1e-5, "{o} vs {i} + {p}");
    }
    assert_eq!(
        digest(&out),
        PINNED,
        "accumulation drifted (actual digest {:#018x})",
        digest(&out)
    );
}

/// The default context is the scalar reference: a build that never opts
/// into another backend is bitwise-unchanged by construction.
#[test]
fn default_context_is_the_scalar_reference() {
    assert_eq!(ComputeCtx::default().backend_name(), "scalar");
    assert_eq!(ComputeCtx::scalar().backend_name(), "scalar");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Layer 2: `Backend::gemm` on the scalar backend is bitwise the
    /// `Tensor` reference product, for every layout the layers emit.
    #[test]
    fn scalar_backend_matches_tensor_products_bitwise(
        m in 1usize..9, k in 1usize..9, n in 1usize..9, salt in 0u64..1000,
    ) {
        let a = fill(m * k, salt);
        let b = fill(k * n, salt.wrapping_add(7));

        // nn: A[m,k] · B[k,n]
        let nn = scalar_gemm(&GemmSpec::nn(m, k, n), &a, &b);
        let ta = Tensor::from_vec(a.clone(), &[m, k]).unwrap();
        let tb = Tensor::from_vec(b.clone(), &[k, n]).unwrap();
        let reference = ta.matmul_serial(&tb).unwrap();
        for (x, y) in nn.iter().zip(reference.data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }

        // nt: A[m,k] · B[n,k]ᵀ — rhs slice holds the transpose.
        let bt = fill(n * k, salt.wrapping_add(13));
        let nt = scalar_gemm(&GemmSpec::nt(m, k, n), &a, &bt);
        let tbt = Tensor::from_vec(bt, &[n, k]).unwrap();
        let reference = ta.matmul_nt_serial(&tbt).unwrap();
        for (x, y) in nt.iter().zip(reference.data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }

        // tn: A[k,m]ᵀ · B[k,n] — lhs slice holds the transpose.
        let at = fill(k * m, salt.wrapping_add(29));
        let tn = scalar_gemm(&GemmSpec::tn(m, k, n), &at, &b);
        let tat = Tensor::from_vec(at, &[k, m]).unwrap();
        let reference = tat.matmul_tn_serial(&tb).unwrap();
        for (x, y) in tn.iter().zip(reference.data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// Layer 2b: the double-transposed product (never emitted by layers,
    /// still part of the contract) equals materializing the lhs and
    /// running nt.
    #[test]
    fn scalar_tt_equals_materialized_nt(
        m in 1usize..7, k in 1usize..7, n in 1usize..7, salt in 0u64..1000,
    ) {
        let at = fill(k * m, salt);   // lhs stored transposed: [k, m]
        let bt = fill(n * k, salt.wrapping_add(3)); // rhs stored transposed: [n, k]
        let spec = GemmSpec::with_layouts(m, k, n, MatLayout::Transposed, MatLayout::Transposed);
        let tt = scalar_gemm(&spec, &at, &bt);
        // Materialize A row-major by hand, then nt.
        let mut a = vec![0.0f32; m * k];
        for r in 0..k {
            for c in 0..m {
                a[c * k + r] = at[r * m + c];
            }
        }
        let nt = scalar_gemm(&GemmSpec::nt(m, k, n), &a, &bt);
        for (x, y) in tt.iter().zip(&nt) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// Layer 3: whatever backend `Auto` resolves to (the SIMD microkernel
    /// on capable builds, the scalar reference otherwise) stays within
    /// the standard forward error bound of a length-`k` f32 dot product
    /// against an f64 reference: `|got − ref| ≤ 2k·ε·Σ|aᵢₚ·bₚⱼ|`.
    #[test]
    fn resolved_backend_within_dot_product_error_bound(
        m in 1usize..24, k in 1usize..48, n in 1usize..24, salt in 0u64..1000,
    ) {
        let backend = backend::simd_or_scalar();
        let a = fill(m * k, salt);
        let bt = fill(n * k, salt.wrapping_add(11));
        let spec = GemmSpec::nt(m, k, n);
        let mut out = vec![0.0f32; m * n];
        backend.gemm(&spec, &a, &bt, &mut out);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                let mut mag = 0.0f64;
                for p in 0..k {
                    let prod = f64::from(a[i * k + p]) * f64::from(bt[j * k + p]);
                    acc += prod;
                    mag += prod.abs();
                }
                let tol = 2.0 * k as f64 * f64::from(f32::EPSILON) * mag + 1e-12;
                let got = f64::from(out[i * n + j]);
                prop_assert!(
                    (got - acc).abs() <= tol,
                    "[{i},{j}] got {got} ref {acc} tol {tol} ({})",
                    backend.name()
                );
            }
        }
    }
}

/// Every backend this build can run. On SIMD builds this adds a tuning
/// whose depth block (`kc` = 24) is far below the tested `k`, so packed
/// operands span several depth blocks.
fn backends() -> Vec<BackendHandle> {
    #[allow(unused_mut)]
    let mut all = vec![backend::scalar(), backend::simd_or_scalar()];
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    all.extend(backend::simd_with_tuning(
        deepmorph_tensor::backend::tune::GemmTuning {
            mc: 12,
            kc: 24,
            nc: 32,
        },
    ));
    all
}

/// `gemm_packed` against `pack_rhs` must equal `gemm` bit for bit, serial
/// and parallel, accumulating into a non-zero output, and a packed rhs
/// must serve a second lhs unchanged.
fn check_packed_matches_gemm(
    be: &BackendHandle,
    spec: &GemmSpec,
    salt: u64,
) -> Result<(), TestCaseError> {
    let a = fill(spec.lhs_len(), salt);
    let a2 = fill(spec.lhs_len(), salt.wrapping_add(5));
    let b = fill(spec.rhs_len(), salt.wrapping_add(7));
    let init = fill(spec.out_len(), salt.wrapping_add(3));
    let packed = be.pack_rhs(spec.k, spec.n, spec.rhs, &b);
    for spec in [*spec, spec.parallel(true)] {
        for lhs in [&a, &a2] {
            let mut expect = init.clone();
            be.gemm(&spec, lhs, &b, &mut expect);
            let mut got = init.clone();
            be.gemm_packed(&spec, lhs, &packed, &mut got);
            for (i, (x, y)) in got.iter().zip(&expect).enumerate() {
                prop_assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{} {:?} elem {}",
                    be.name(),
                    spec,
                    i
                );
            }
        }
    }
    Ok(())
}

/// The packed-rhs corners, pinned by hand: `n` not a multiple of the
/// 16-lane micro-panel, `k` above the default and the test tuning's depth
/// block (256 and 24), and `m·k·n` on both sides of the SIMD backend's
/// 8192 multiply-accumulate scalar-fallback threshold.
#[test]
fn packed_rhs_corners_match_gemm_bitwise() {
    for &(m, k, n) in &[
        (1usize, 300usize, 10usize), // 3000 MACs: scalar fallback, k > kc
        (2, 5, 3),
        (7, 300, 37), // 77700 MACs: SIMD kernel, n % 16 != 0, k > kc
        (33, 260, 16),
        (4, 256, 8), // 8192 MACs: exactly the threshold
        (4, 255, 8), // 8160 MACs: just below it
    ] {
        for (lhs, rhs) in LAYOUTS {
            let spec = GemmSpec::with_layouts(m, k, n, lhs, rhs);
            for be in backends() {
                check_packed_matches_gemm(&be, &spec, 17).unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A rhs packed once gives the bits `gemm` gives, on every backend,
    /// layout and shape (`m·k·n` spans 1 to ~250k multiply-accumulates,
    /// so both sides of the SIMD fallback threshold; `k` up to 300 spans
    /// several depth blocks).
    #[test]
    fn packed_rhs_gemm_is_bitwise_gemm(
        m in 1usize..24, k in 1usize..300, n in 1usize..40,
        layouts in 0usize..4, salt in 0u64..1000,
    ) {
        let (lhs, rhs) = LAYOUTS[layouts];
        let spec = GemmSpec::with_layouts(m, k, n, lhs, rhs);
        for be in backends() {
            check_packed_matches_gemm(&be, &spec, salt)?;
        }
    }
}
