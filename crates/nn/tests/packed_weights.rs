//! The packed weights an eval forward reuses never go stale.
//!
//! `Conv2d` and `Dense` pack their weights once for the bound backend and
//! reuse the packed copy across eval forwards. Every route that changes
//! the weights (an optimizer step, `import_state`) or the backend
//! (`bind_compute`) must drop it: the next eval forward has to equal,
//! bit for bit, the same forward on a freshly built layer holding the
//! same weights.

use deepmorph_nn::prelude::*;
use deepmorph_tensor::init::stream_rng;
use deepmorph_tensor::Tensor;

/// Which layer a test graph exercises. Both products are large enough
/// to clear the SIMD backend's scalar-fallback threshold.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Conv,
    Dense,
}

const KINDS: [Kind; 2] = [Kind::Conv, Kind::Dense];

fn build(kind: Kind, seed: u64) -> Graph {
    let mut rng = stream_rng(seed, "packed-weights");
    let mut gb = GraphBuilder::new();
    let x = gb.input();
    let out = match kind {
        Kind::Conv => gb
            .add_layer(Conv2d::new(2, 8, 8, 8, 3, 1, 1, &mut rng).unwrap(), &[x])
            .unwrap(),
        Kind::Dense => gb.add_layer(Dense::new(128, 32, &mut rng), &[x]).unwrap(),
    };
    gb.build(out).unwrap()
}

fn input(kind: Kind) -> Tensor {
    let shape: &[usize] = match kind {
        Kind::Conv => &[4, 2, 8, 8],
        Kind::Dense => &[4, 128],
    };
    let len: usize = shape.iter().product();
    let data = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
    Tensor::from_vec(data, shape).unwrap()
}

fn contexts() -> [ComputeCtx; 2] {
    [ComputeCtx::scalar(), ComputeCtx::auto()]
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// The eval forward of a graph built from scratch with the weights in
/// `state` on `ctx`: it has never packed anything.
fn fresh_forward(kind: Kind, state: &StateDict, ctx: &ComputeCtx, x: &Tensor) -> Tensor {
    let mut fresh = build(kind, 999);
    fresh.import_state(state).unwrap();
    fresh.bind_compute(ctx);
    fresh.forward(x, Mode::Eval).unwrap()
}

#[test]
fn optimizer_step_drops_the_packed_weights() {
    for kind in KINDS {
        for ctx in contexts() {
            let mut g = build(kind, 1);
            g.bind_compute(&ctx);
            let x = input(kind);
            let before = g.forward(&x, Mode::Eval).unwrap();
            let y = g.forward(&x, Mode::Train).unwrap();
            g.backward(&Tensor::ones(y.shape())).unwrap();
            Sgd::new(0.1).step(&mut g).unwrap();
            let after = g.forward(&x, Mode::Eval).unwrap();
            assert_ne!(
                bits(&before),
                bits(&after),
                "{kind:?}: the step moved nothing"
            );
            let expect = fresh_forward(kind, &g.export_state(), &ctx, &x);
            assert_eq!(
                bits(&after),
                bits(&expect),
                "{kind:?} on {}: stale weights after an SGD step",
                ctx.backend_name()
            );
        }
    }
}

#[test]
fn import_state_drops_the_packed_weights() {
    for kind in KINDS {
        for ctx in contexts() {
            let mut g = build(kind, 1);
            g.bind_compute(&ctx);
            let x = input(kind);
            let before = g.forward(&x, Mode::Eval).unwrap();
            let state = build(kind, 2).export_state();
            g.import_state(&state).unwrap();
            let after = g.forward(&x, Mode::Eval).unwrap();
            assert_ne!(
                bits(&before),
                bits(&after),
                "{kind:?}: import changed nothing"
            );
            let expect = fresh_forward(kind, &state, &ctx, &x);
            assert_eq!(
                bits(&after),
                bits(&expect),
                "{kind:?} on {}: stale weights after import_state",
                ctx.backend_name()
            );
        }
    }
}

#[test]
fn bind_compute_drops_the_packed_weights() {
    for kind in KINDS {
        let x = input(kind);
        let mut g = build(kind, 1);
        let state = g.export_state();
        // scalar → Auto → scalar, with nothing between the eval forwards
        // but the context switch.
        for ctx in [
            ComputeCtx::scalar(),
            ComputeCtx::auto(),
            ComputeCtx::scalar(),
        ] {
            g.bind_compute(&ctx);
            let got = g.forward(&x, Mode::Eval).unwrap();
            let expect = fresh_forward(kind, &state, &ctx, &x);
            assert_eq!(
                bits(&got),
                bits(&expect),
                "{kind:?}: weights packed for another backend after bind_compute({})",
                ctx.backend_name()
            );
        }
    }
}

#[test]
fn packed_eval_forward_equals_the_unpacked_training_product() {
    // On the scalar reference the eval forward (packed weights) and the
    // training forward (weights packed per call) run the same kernel on
    // the same panels, so they agree bit for bit — twice in a row, the
    // second time from the cached pack.
    for kind in KINDS {
        let mut g = build(kind, 3);
        let x = input(kind);
        let train = g.forward(&x, Mode::Train).unwrap();
        for _ in 0..2 {
            let eval = g.forward(&x, Mode::Eval).unwrap();
            assert_eq!(bits(&eval), bits(&train), "{kind:?}");
        }
    }
}
