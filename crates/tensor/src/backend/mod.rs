//! Pluggable compute backends behind one typed kernel API.
//!
//! Every dense product in the workspace — the matmul family and the
//! im2col'd convolution — dispatches through the [`Backend`] trait's one
//! kernel, [`Backend::gemm`], which packs the rhs into the backend's
//! panel layout ([`Backend::pack_rhs`]) and runs the packed kernel
//! ([`Backend::gemm_packed`]). A caller whose rhs does not change between
//! products (a layer's weights in an eval forward) packs it once into a
//! [`PackedRhs`] and calls the packed kernel directly; the product is
//! bitwise the one [`Backend::gemm`] computes. The descriptor every
//! backend consumes is a [`GemmSpec`]: dimensions plus per-operand
//! [`MatLayout`]s and a fan-out hint, replacing the historical
//! `(a_transposed, b_transposed)` boolean-flag call surface. The raw
//! kernel entry points are private to this crate; [`Tensor`]'s `matmul*`
//! methods and [`ComputeCtx`] are the only ways in.
//!
//! Two implementations exist:
//!
//! * [`ScalarBackend`] — the default and the **bitwise reference**. It is
//!   the PR 2 cache-blocked, B-panel-packed kernel with the pinned
//!   per-element accumulation order; every determinism digest in
//!   `tests/determinism.rs` is defined against it, and it is selected
//!   everywhere unless a caller explicitly asks for something else.
//! * `SimdBackend` (feature `simd`, x86_64 only) — an AVX2/FMA
//!   register-blocked microkernel with runtime CPU-feature detection and
//!   scalar fallback. Same inputs, *different accumulation order* (8-lane
//!   FMA with per-tile partial sums), so results match the scalar backend
//!   to documented ULP bounds, not bitwise — see
//!   `crates/tensor/tests/backend_conformance.rs`.
//!
//! # Selection
//!
//! Nothing is implicit: [`ComputeCtx`] carries the chosen backend handle
//! (plus workspace access) and is threaded explicitly through
//! `Graph`/`Trainer`/the serve scheduler. [`ComputeCtx::default`] is the
//! scalar backend, so a build with `--features simd` is still
//! bitwise-unchanged until a caller opts a context in via
//! [`ComputeCtx::auto`], [`select`], or `DEEPMORPH_BACKEND`.

use std::borrow::Cow;
use std::sync::Arc;
use std::sync::OnceLock;

use crate::workspace::{self, Workspace};
use crate::{Tensor, TensorError};

pub mod quant;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub mod simd;
pub mod tune;

/// Storage layout of one GEMM operand, relative to the logical matrix the
/// product is defined over.
///
/// `RowMajor` means the operand slice stores the logical matrix directly;
/// `Transposed` means the slice stores its transpose (so the kernel packs
/// or strides it). For `out = A·B` with `A: [m, k]` and `B: [k, n]`:
///
/// | operand | `RowMajor` slice shape | `Transposed` slice shape |
/// |---------|------------------------|--------------------------|
/// | lhs `A` | `[m, k]`               | `[k, m]`                 |
/// | rhs `B` | `[k, n]`               | `[n, k]`                 |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatLayout {
    /// The slice stores the logical matrix row-major.
    RowMajor,
    /// The slice stores the logical matrix's transpose row-major.
    Transposed,
}

/// Typed descriptor of one GEMM: `out[m, n] += A[m, k] · B[k, n]`, with
/// the storage layout of each operand and a parallelism hint.
///
/// This is the single call surface every [`Backend`] consumes — it
/// replaces the historical boolean-flag (`a_transposed`, `b_transposed`)
/// kernel entry points. Constructors cover the three products the
/// networks use (`nn`, `nt`, `tn`); [`GemmSpec::with_layouts`] spells any
/// combination, including the (never hot) double-transposed product.
///
/// # Accumulation semantics
///
/// The output **accumulates**: callers zero `out` for a plain product.
/// Zero-skip semantics are part of the reference contract and follow the
/// rhs layout: products with a `RowMajor` rhs skip `A` coefficients that
/// are exactly `0.0` (matching the historical `NN`/`TN` kernels, which
/// affects `-0.0`/`NaN`/`inf` propagation); products with a `Transposed`
/// rhs never skip (the historical `NT` dot-product kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmSpec {
    /// Output rows.
    pub m: usize,
    /// Inner (contraction) dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Layout of the lhs operand.
    pub lhs: MatLayout,
    /// Layout of the rhs operand.
    pub rhs: MatLayout,
    /// Request fan-out over output rows. A hint: backends may run inline
    /// when the product is too small to pay for dispatch or when no
    /// worker threads exist.
    pub parallel: bool,
}

impl GemmSpec {
    /// `out += A[m,k] · B[k,n]`, both operands row-major.
    pub fn nn(m: usize, k: usize, n: usize) -> Self {
        GemmSpec::with_layouts(m, k, n, MatLayout::RowMajor, MatLayout::RowMajor)
    }

    /// `out += A[m,k] · B[n,k]ᵀ` (rhs stored transposed — the dense/conv
    /// forward product).
    pub fn nt(m: usize, k: usize, n: usize) -> Self {
        GemmSpec::with_layouts(m, k, n, MatLayout::RowMajor, MatLayout::Transposed)
    }

    /// `out += A[k,m]ᵀ · B[k,n]` (lhs stored transposed — the weight
    /// gradient product).
    pub fn tn(m: usize, k: usize, n: usize) -> Self {
        GemmSpec::with_layouts(m, k, n, MatLayout::Transposed, MatLayout::RowMajor)
    }

    /// A spec with explicit operand layouts.
    pub fn with_layouts(m: usize, k: usize, n: usize, lhs: MatLayout, rhs: MatLayout) -> Self {
        GemmSpec {
            m,
            k,
            n,
            lhs,
            rhs,
            parallel: false,
        }
    }

    /// Returns the spec with the fan-out hint set.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Returns the spec with the fan-out hint sized by the product: on
    /// when the `parallel` feature is active and the multiply-accumulate
    /// count clears the dispatch-cost grain.
    pub fn parallel_worthwhile(self) -> Self {
        let worthwhile = cfg!(feature = "parallel")
            && self.m * self.k * self.n >= crate::chunks::PAR_GRAIN_FLOPS;
        self.parallel(worthwhile)
    }

    /// Required lhs slice length.
    pub fn lhs_len(&self) -> usize {
        self.m * self.k
    }

    /// Required rhs slice length.
    pub fn rhs_len(&self) -> usize {
        self.k * self.n
    }

    /// Required output slice length.
    pub fn out_len(&self) -> usize {
        self.m * self.n
    }

    /// `true` when the reference contract skips exactly-zero lhs
    /// coefficients (see the type-level docs).
    pub fn skips_zero_lhs(&self) -> bool {
        self.rhs == MatLayout::RowMajor
    }

    /// Panics unless the slices match the spec (backends call this before
    /// touching any data, so a shape bug is a loud assert at the seam, not
    /// UB or silent corruption inside a kernel).
    pub fn check(&self, a: &[f32], b: &[f32], out: &[f32]) {
        assert_eq!(a.len(), self.lhs_len(), "gemm: lhs length");
        assert_eq!(b.len(), self.rhs_len(), "gemm: rhs length");
        assert_eq!(out.len(), self.out_len(), "gemm: out length");
    }

    /// [`GemmSpec::check`] for a packed rhs: its dimensions and source
    /// layout must be the spec's (the layout carries the zero-skip
    /// contract).
    pub(crate) fn check_packed(&self, a: &[f32], b: &PackedRhs<'_>, out: &[f32]) {
        assert_eq!(a.len(), self.lhs_len(), "gemm: lhs length");
        assert_eq!((b.k(), b.n()), (self.k, self.n), "gemm: packed rhs shape");
        assert_eq!(b.layout(), self.rhs, "gemm: packed rhs layout");
        assert_eq!(out.len(), self.out_len(), "gemm: out length");
    }
}

/// A GEMM rhs `B[k, n]` packed into a backend's panel layout, so a
/// constant operand is laid out once and reused across products
/// ([`Backend::pack_rhs`], [`Backend::gemm_packed`];
/// [`ComputeCtx::pack_nt`] for a layer's weights).
///
/// The rows of `B` are split into blocks of `kc` rows; each block holds
/// the columns as `nr`-wide panels stored row-major, back to back (the
/// last panel narrower, or zero-padded to `nr` lanes when `padded`).
/// The scalar reference packs one block of 512-wide panels and borrows a
/// row-major rhs that already has that layout; the SIMD backend packs
/// `kc`-deep blocks of 16-lane micro-panels.
///
/// A packed rhs records the layout `B` was stored in, because that layout
/// carries the zero-skip contract (see [`GemmSpec`]). It does not track
/// its source: whoever caches one must drop it when the source changes.
#[derive(Debug)]
pub struct PackedRhs<'a> {
    k: usize,
    n: usize,
    layout: MatLayout,
    kc: usize,
    nr: usize,
    padded: bool,
    data: Cow<'a, [f32]>,
}

impl<'a> PackedRhs<'a> {
    pub(crate) fn from_parts(
        k: usize,
        n: usize,
        layout: MatLayout,
        kc: usize,
        nr: usize,
        padded: bool,
        data: Cow<'a, [f32]>,
    ) -> Self {
        PackedRhs {
            k,
            n,
            layout,
            kc,
            nr,
            padded,
            data,
        }
    }

    /// Inner (contraction) dimension.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// Output columns.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// The layout the source operand was stored in.
    pub(crate) fn layout(&self) -> MatLayout {
        self.layout
    }

    /// Rows per block.
    pub(crate) fn kc(&self) -> usize {
        self.kc
    }

    /// Panel width in lanes.
    pub(crate) fn nr(&self) -> usize {
        self.nr
    }

    /// `true` when every panel is zero-padded to `nr` lanes.
    #[cfg_attr(not(all(feature = "simd", target_arch = "x86_64")), allow(dead_code))]
    pub(crate) fn padded(&self) -> bool {
        self.padded
    }

    /// `true` when the packed form borrows its source instead of holding
    /// a copy.
    #[cfg(test)]
    pub(crate) fn is_borrowed(&self) -> bool {
        matches!(self.data, Cow::Borrowed(_))
    }

    /// The panel of rows `pc..pc + kc` and columns starting at `j0`
    /// (`pc`, `j0` block and panel starts), with its row stride.
    pub(crate) fn panel(&self, pc: usize, j0: usize) -> (&[f32], usize) {
        let kc_eff = self.kc.min(self.k - pc);
        let stride = if self.padded {
            self.nr
        } else {
            self.nr.min(self.n - j0)
        };
        let n_stored = if self.padded {
            self.n.div_ceil(self.nr) * self.nr
        } else {
            self.n
        };
        let start = pc * n_stored + j0 * kc_eff;
        (&self.data[start..start + kc_eff * stride], stride)
    }

    /// A packed rhs that owns its elements (copying a borrowed source), to
    /// keep across products.
    pub(crate) fn into_owned(self) -> PackedRhs<'static> {
        PackedRhs {
            data: Cow::Owned(self.data.into_owned()),
            ..self
        }
    }

    /// Returns an owned buffer to the thread's workspace arena.
    pub fn recycle(self) {
        if let Cow::Owned(buf) = self.data {
            workspace::recycle(buf);
        }
    }
}

/// A compute backend: the kernels behind every layer forward/backward.
///
/// Implementations must be `Send + Sync` — one handle is shared across
/// serving workers and training threads. See the module docs for the
/// determinism contract each implementation offers.
pub trait Backend: Send + Sync + std::fmt::Debug {
    /// Stable identifier (used in logs, benches, and tuning-file keys).
    fn name(&self) -> &'static str;

    /// Packs the rhs `b` of a `k × n` product (stored as `layout` says)
    /// into this backend's panel layout.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k · n`.
    fn pack_rhs<'a>(&self, k: usize, n: usize, layout: MatLayout, b: &'a [f32]) -> PackedRhs<'a>;

    /// Accumulates the product described by `spec` into `out`, against a
    /// rhs packed by this backend's [`Backend::pack_rhs`].
    ///
    /// # Panics
    ///
    /// Panics if the lhs or output length, or the packed rhs's shape or
    /// layout, disagree with the spec, or if another backend packed it in
    /// a layout this one cannot read.
    fn gemm_packed(&self, spec: &GemmSpec, a: &[f32], b: &PackedRhs<'_>, out: &mut [f32]);

    /// Accumulates the product described by `spec` into `out`: packs the
    /// rhs, runs the packed kernel, and returns any copy to the
    /// workspace.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with the spec.
    fn gemm(&self, spec: &GemmSpec, a: &[f32], b: &[f32], out: &mut [f32]) {
        spec.check(a, b, out);
        let packed = self.pack_rhs(spec.k, spec.n, spec.rhs, b);
        self.gemm_packed(spec, a, &packed, out);
        packed.recycle();
    }
}

/// Shared, cheaply clonable handle to a backend.
pub type BackendHandle = Arc<dyn Backend>;

/// The default backend: the PR 2 cache-blocked scalar kernel with the
/// pinned per-element accumulation order. This is the bitwise reference
/// every digest and cross-build test is defined against.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScalarBackend;

impl Backend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn pack_rhs<'a>(&self, k: usize, n: usize, layout: MatLayout, b: &'a [f32]) -> PackedRhs<'a> {
        crate::gemm::pack_rhs(k, n, layout, b, k, crate::gemm::PANEL, false)
    }

    /// Reads every panel geometry, so it also runs products whose rhs the
    /// SIMD backend packed.
    fn gemm_packed(&self, spec: &GemmSpec, a: &[f32], b: &PackedRhs<'_>, out: &mut [f32]) {
        // Per-shape kernel timing; `None` (one relaxed load) unless
        // telemetry is armed and `DEEPMORPH_KERNEL_TIMING=1`.
        let _timer = deepmorph_telemetry::kernel_timer(spec.m, spec.k, spec.n);
        crate::gemm::gemm_packed_into(spec, a, b, out);
    }
}

static SCALAR: OnceLock<BackendHandle> = OnceLock::new();

/// The shared [`ScalarBackend`] handle.
pub fn scalar() -> BackendHandle {
    Arc::clone(SCALAR.get_or_init(|| Arc::new(ScalarBackend)))
}

/// Which backend a caller asks for; resolved by [`select`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The bitwise-reference scalar kernel (the default everywhere).
    #[default]
    Scalar,
    /// The SIMD microkernel if this build carries it *and* the CPU
    /// supports it; the scalar backend otherwise.
    Simd,
    /// The fastest backend available: SIMD when compiled + detected,
    /// scalar otherwise.
    Auto,
}

impl BackendKind {
    /// Parses `"scalar"` / `"simd"` / `"auto"` (used by
    /// `DEEPMORPH_BACKEND` and CLI flags).
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(BackendKind::Scalar),
            "simd" => Some(BackendKind::Simd),
            "auto" => Some(BackendKind::Auto),
            _ => None,
        }
    }
}

/// Resolves a [`BackendKind`] to a concrete handle. `Simd`/`Auto` fall
/// back to the scalar backend when the `simd` feature is off or the CPU
/// lacks AVX2+FMA — callers can always ask and always get a valid kernel.
pub fn select(kind: BackendKind) -> BackendHandle {
    match kind {
        BackendKind::Scalar => scalar(),
        BackendKind::Simd | BackendKind::Auto => simd_or_scalar(),
    }
}

/// The SIMD backend when compiled in and runtime-supported, otherwise the
/// scalar backend. The detection result (and the tuning-file load) is
/// cached after the first call.
pub fn simd_or_scalar() -> BackendHandle {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        static SIMD: OnceLock<Option<BackendHandle>> = OnceLock::new();
        if let Some(h) =
            SIMD.get_or_init(|| simd::SimdBackend::detect().map(|b| Arc::new(b) as BackendHandle))
        {
            return Arc::clone(h);
        }
    }
    scalar()
}

/// `true` when [`simd_or_scalar`] resolves to a real SIMD backend.
pub fn simd_available() -> bool {
    simd_or_scalar().name() != "scalar"
}

/// The SIMD backend with an explicit block-size tuning — the autotuner's
/// door for measuring candidates before persisting a winner. `None` when
/// the CPU lacks AVX2+FMA.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub fn simd_with_tuning(t: tune::GemmTuning) -> Option<BackendHandle> {
    simd::SimdBackend::new(t).map(|b| Arc::new(b) as BackendHandle)
}

/// Explicit compute context: the backend handle a graph/trainer/scheduler
/// runs its kernels on, plus access to the per-thread scratch workspace.
///
/// Contexts are cheap to clone (one `Arc` bump) and are threaded
/// explicitly — a `Graph` owns one, the serve scheduler hands one to each
/// replica it builds — instead of kernels consulting process-global
/// state. The default context is the scalar (bitwise-reference) backend.
#[derive(Debug, Clone)]
pub struct ComputeCtx {
    backend: BackendHandle,
}

impl Default for ComputeCtx {
    fn default() -> Self {
        ComputeCtx::scalar()
    }
}

impl ComputeCtx {
    /// A context on the bitwise-reference scalar backend.
    pub fn scalar() -> Self {
        ComputeCtx { backend: scalar() }
    }

    /// A context on the fastest backend this build + CPU offers.
    pub fn auto() -> Self {
        ComputeCtx {
            backend: select(BackendKind::Auto),
        }
    }

    /// A context on an explicit backend handle.
    pub fn with_backend(backend: BackendHandle) -> Self {
        ComputeCtx { backend }
    }

    /// A context resolved from a [`BackendKind`].
    pub fn for_kind(kind: BackendKind) -> Self {
        ComputeCtx {
            backend: select(kind),
        }
    }

    /// A context from the `DEEPMORPH_BACKEND` environment variable
    /// (`scalar` | `simd` | `auto`; unset or unknown = scalar).
    pub fn from_env() -> Self {
        let kind = std::env::var("DEEPMORPH_BACKEND")
            .ok()
            .and_then(|v| BackendKind::parse(&v))
            .unwrap_or_default();
        ComputeCtx::for_kind(kind)
    }

    /// The backend handle.
    pub fn backend(&self) -> &BackendHandle {
        &self.backend
    }

    /// The backend's stable name.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Runs `f` with the calling thread's scratch [`Workspace`] — the
    /// context's explicit door to the arena every kernel draws buffers
    /// from (one arena per thread; see [`crate::workspace`]).
    pub fn with_workspace<R>(&self, f: impl FnOnce(&mut Workspace) -> R) -> R {
        workspace::with(f)
    }

    /// `A @ B` on this context's backend (shapes as
    /// [`Tensor::matmul`](crate::Tensor::matmul)).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] or
    /// [`TensorError::MatmulDimMismatch`].
    pub fn matmul(&self, a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
        self.product(a, b, MatLayout::RowMajor, MatLayout::RowMajor, "matmul")
    }

    /// `A @ Bᵀ` on this context's backend (shapes as
    /// [`Tensor::matmul_nt`](crate::Tensor::matmul_nt)).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] or
    /// [`TensorError::MatmulDimMismatch`].
    pub fn matmul_nt(&self, a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
        self.product(
            a,
            b,
            MatLayout::RowMajor,
            MatLayout::Transposed,
            "matmul_nt",
        )
    }

    /// `Aᵀ @ B` on this context's backend (shapes as
    /// [`Tensor::matmul_tn`](crate::Tensor::matmul_tn)).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] or
    /// [`TensorError::MatmulDimMismatch`].
    pub fn matmul_tn(&self, a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
        self.product(
            a,
            b,
            MatLayout::Transposed,
            MatLayout::RowMajor,
            "matmul_tn",
        )
    }

    /// Packs `b`, a constant `[n, k]` rhs of [`ComputeCtx::matmul_nt`]
    /// (a `Dense`/`Conv2d` weight), once for repeated products on this
    /// context's backend ([`ComputeCtx::matmul_nt_packed`]). The packed
    /// copy does not follow later changes to `b`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for a non-matrix.
    pub fn pack_nt(&self, b: &Tensor) -> Result<PackedRhs<'static>, TensorError> {
        b.expect_rank(2, "pack_nt")?;
        let (n, k) = (b.shape()[0], b.shape()[1]);
        let packed = self.backend.pack_rhs(k, n, MatLayout::Transposed, b.data());
        Ok(packed.into_owned())
    }

    /// `A @ Bᵀ` against a `b` packed by [`ComputeCtx::pack_nt`] on this
    /// context: bitwise what [`ComputeCtx::matmul_nt`] computes from the
    /// unpacked `b`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] or
    /// [`TensorError::MatmulDimMismatch`].
    ///
    /// # Panics
    ///
    /// Panics if `b` was packed by another backend or from a rhs stored
    /// row-major.
    pub fn matmul_nt_packed(&self, a: &Tensor, b: &PackedRhs<'_>) -> Result<Tensor, TensorError> {
        a.expect_rank(2, "matmul_nt_packed")?;
        let (m, k) = (a.shape()[0], a.shape()[1]);
        if k != b.k() {
            return Err(TensorError::MatmulDimMismatch {
                lhs: [m, k],
                rhs: [b.k(), b.n()],
            });
        }
        let spec = GemmSpec::nt(m, k, b.n()).parallel_worthwhile();
        let mut out = workspace::tensor_zeroed(&[m, spec.n]);
        self.backend.gemm_packed(&spec, a.data(), b, out.data_mut());
        Ok(out)
    }

    fn product(
        &self,
        a: &Tensor,
        b: &Tensor,
        lhs: MatLayout,
        rhs: MatLayout,
        op: &'static str,
    ) -> Result<Tensor, TensorError> {
        let spec = a.gemm_spec(b, lhs, rhs, op)?.parallel_worthwhile();
        let mut out = workspace::tensor_zeroed(&[spec.m, spec.n]);
        self.backend.gemm(&spec, a.data(), b.data(), out.data_mut());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_constructors_set_layouts_and_lengths() {
        let s = GemmSpec::nn(2, 3, 4);
        assert_eq!((s.lhs, s.rhs), (MatLayout::RowMajor, MatLayout::RowMajor));
        assert_eq!((s.lhs_len(), s.rhs_len(), s.out_len()), (6, 12, 8));
        assert!(s.skips_zero_lhs());

        let s = GemmSpec::nt(2, 3, 4).parallel(true);
        assert_eq!((s.lhs, s.rhs), (MatLayout::RowMajor, MatLayout::Transposed));
        assert!(s.parallel);
        assert!(!s.skips_zero_lhs());

        let s = GemmSpec::tn(2, 3, 4);
        assert_eq!((s.lhs, s.rhs), (MatLayout::Transposed, MatLayout::RowMajor));
        assert!(s.skips_zero_lhs());
    }

    #[test]
    #[should_panic(expected = "lhs length")]
    fn scalar_backend_checks_lengths() {
        ScalarBackend.gemm(&GemmSpec::nn(2, 2, 2), &[0.0; 3], &[0.0; 4], &mut [0.0; 4]);
    }

    #[test]
    fn scalar_backend_matches_tensor_matmul_bitwise() {
        let a =
            Tensor::from_vec((0..12).map(|v| v as f32 * 0.37 - 1.0).collect(), &[3, 4]).unwrap();
        let b =
            Tensor::from_vec((0..20).map(|v| (v as f32 * 0.11).sin()).collect(), &[4, 5]).unwrap();
        let via_tensor = a.matmul(&b).unwrap();
        let mut out = vec![0.0f32; 15];
        scalar().gemm(&GemmSpec::nn(3, 4, 5), a.data(), b.data(), &mut out);
        assert_eq!(via_tensor.data(), &out[..]);
    }

    #[test]
    fn double_transposed_product_matches_materialized() {
        // A stored as [k, m], B stored as [n, k]: out = Aᵀ·Bᵀ... spelled
        // against the NT reference after materializing the lhs.
        let (m, k, n) = (3usize, 5usize, 4usize);
        let a_t: Vec<f32> = (0..k * m).map(|v| (v as f32 * 0.23).cos()).collect();
        let b_t: Vec<f32> = (0..n * k).map(|v| v as f32 * 0.17 - 2.0).collect();
        // Materialize A row-major and use the NT kernel as the oracle.
        let mut a = vec![0.0f32; m * k];
        for p in 0..k {
            for i in 0..m {
                a[i * k + p] = a_t[p * m + i];
            }
        }
        let mut expect = vec![0.0f32; m * n];
        scalar().gemm(&GemmSpec::nt(m, k, n), &a, &b_t, &mut expect);
        let mut got = vec![0.0f32; m * n];
        scalar().gemm(
            &GemmSpec::with_layouts(m, k, n, MatLayout::Transposed, MatLayout::Transposed),
            &a_t,
            &b_t,
            &mut got,
        );
        assert_eq!(expect, got);
    }

    #[test]
    fn kind_parsing_and_selection_fall_back_to_scalar() {
        assert_eq!(BackendKind::parse("Scalar"), Some(BackendKind::Scalar));
        assert_eq!(BackendKind::parse("SIMD"), Some(BackendKind::Simd));
        assert_eq!(BackendKind::parse("auto"), Some(BackendKind::Auto));
        assert_eq!(BackendKind::parse("gpu"), None);
        assert_eq!(select(BackendKind::Scalar).name(), "scalar");
        // Simd/Auto resolve to *something* valid on every build.
        let name = select(BackendKind::Auto).name();
        assert!(name == "scalar" || name.starts_with("simd"));
    }

    #[test]
    fn ctx_matmul_dispatches_and_validates() {
        let ctx = ComputeCtx::default();
        assert_eq!(ctx.backend_name(), "scalar");
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::eye(2);
        let c = ctx.matmul(&a, &b).unwrap();
        assert_eq!(c.data(), a.data());
        let nt = ctx.matmul_nt(&a, &b).unwrap();
        assert_eq!(nt.data(), a.matmul_nt(&b).unwrap().data());
        let tn = ctx.matmul_tn(&a, &b).unwrap();
        assert_eq!(tn.data(), a.matmul_tn(&b).unwrap().data());
        assert!(ctx.matmul(&a, &Tensor::ones(&[3, 2])).is_err());
        ctx.with_workspace(|ws| {
            let _ = ws.stats();
        });
    }
}
