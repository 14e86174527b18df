//! Fully-connected layer.

use deepmorph_tensor::backend::quant::{self, Precision, QuantizedMat};
use deepmorph_tensor::backend::{ComputeCtx, PackedRhs};
use deepmorph_tensor::{init::Init, workspace, Tensor};
use rand::Rng;

use crate::layer::{Grads, Layer, Mode, Param};
use crate::{NnError, Result};

/// Fully-connected (affine) layer: `y = x W^T + b`.
///
/// `x` is `[n, in_features]`, `W` is `[out_features, in_features]`, `b` is
/// `[out_features]`.
///
/// Every product dispatches through the layer's [`ComputeCtx`] (scalar by
/// default; see [`Layer::bind_compute`]). An [`Layer::apply_precision`]
/// call with [`Precision::I8`] builds an integer weight path the eval-mode
/// forward uses instead of the f32 GEMM. Otherwise eval-mode forwards run
/// against the weights packed once for the bound backend; every weight or
/// context change drops the packed copy.
#[derive(Debug)]
pub struct Dense {
    name: String,
    in_features: usize,
    out_features: usize,
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
    ctx: ComputeCtx,
    qweight: Option<QuantizedMat>,
    /// `weight` packed for `ctx`'s backend by the first eval-mode f32/f16
    /// forward; dropped by everything that can change the weights or the
    /// backend ([`Layer::visit_params`], [`Layer::bind_compute`],
    /// [`Layer::apply_precision`]).
    packed_weight: Option<PackedRhs<'static>>,
}

impl Dense {
    /// Creates a dense layer with He-normal weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        Dense::with_init(in_features, out_features, Init::HeNormal, rng)
    }

    /// Creates a dense layer with a specific weight initializer.
    pub fn with_init(
        in_features: usize,
        out_features: usize,
        init: Init,
        rng: &mut impl Rng,
    ) -> Self {
        let weight = Param::new(init.materialize(
            &[out_features, in_features],
            in_features,
            out_features,
            rng,
        ));
        let bias = Param::new(Tensor::zeros(&[out_features]));
        Dense {
            name: format!("dense[{in_features}->{out_features}]"),
            in_features,
            out_features,
            weight,
            bias,
            cached_input: None,
            ctx: ComputeCtx::default(),
            qweight: None,
            packed_weight: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Read access to the weight matrix (tests, inspection).
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// Returns the packed weight (if any) to the workspace arena; the next
    /// eval forward packs the current weights again.
    fn drop_packed_weight(&mut self) {
        if let Some(packed) = self.packed_weight.take() {
            packed.recycle();
        }
    }
}

impl Layer for Dense {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, inputs: &[&Tensor], mode: Mode) -> Result<Tensor> {
        let x = single_input(inputs, &self.name)?;
        x.expect_rank(2, "dense forward")?;
        let quantized = self.qweight.as_ref().filter(|q| x.shape()[1] == q.cols());
        let mut y = match (mode, quantized) {
            (Mode::Eval, Some(q)) => {
                let m = x.shape()[0];
                let mut y = workspace::tensor_raw(&[m, self.out_features]);
                quant::qgemm_nt(x.data(), q, y.data_mut(), m);
                y
            }
            (Mode::Eval, None) => {
                let packed = match &mut self.packed_weight {
                    Some(packed) => packed,
                    slot => slot.insert(self.ctx.pack_nt(&self.weight.value)?),
                };
                self.ctx.matmul_nt_packed(x, packed)?
            }
            (Mode::Train, _) => self.ctx.matmul_nt(x, &self.weight.value)?,
        };
        y.add_row_broadcast(&self.bias.value)?;
        if mode == Mode::Train {
            // Pooled copy for the backward pass; the previous batch's copy
            // cycles back through the arena.
            workspace::recycle_opt(self.cached_input.replace(x.pooled_clone()));
        }
        Ok(y)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Grads> {
        let x = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::MissingActivation {
                layer: self.name.clone(),
            })?;
        // dW = g^T x : [out, n] @ [n, in] -> [out, in]
        let dw = self.ctx.matmul_tn(grad, x)?;
        self.weight.grad.add_assign_tensor(&dw)?;
        workspace::recycle_tensor(dw);
        // db = column sums of g.
        let db = grad.sum_axis0()?;
        self.bias.grad.add_assign_tensor(&db)?;
        workspace::recycle_tensor(db);
        // dx = g W : [n, out] @ [out, in] -> [n, in]
        let dx = self.ctx.matmul(grad, &self.weight.value)?;
        Ok(Grads::one(dx))
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.drop_packed_weight();
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }

    fn clear_cache(&mut self) {
        workspace::recycle_opt(self.cached_input.take());
    }

    fn bind_compute(&mut self, ctx: &ComputeCtx) {
        self.drop_packed_weight();
        self.ctx = ctx.clone();
    }

    fn apply_precision(&mut self, precision: Precision) -> Result<()> {
        self.drop_packed_weight();
        match precision {
            Precision::F32 => self.qweight = None,
            Precision::F16 => {
                quant::f16_round_slice(self.weight.value.data_mut());
                quant::f16_round_slice(self.bias.value.data_mut());
                self.qweight = None;
            }
            Precision::I8 => {
                self.qweight = Some(QuantizedMat::from_rows(
                    self.weight.value.data(),
                    self.out_features,
                    self.in_features,
                ));
                quant::f16_round_slice(self.bias.value.data_mut());
            }
        }
        Ok(())
    }
}

/// Extracts the single input of a unary layer.
pub(crate) fn single_input<'a>(inputs: &[&'a Tensor], name: &str) -> Result<&'a Tensor> {
    if inputs.len() != 1 {
        return Err(NnError::ArityMismatch {
            layer: name.to_string(),
            expected: 1,
            actual: inputs.len(),
        });
    }
    Ok(inputs[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepmorph_tensor::init::stream_rng;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = stream_rng(1, "dense");
        let mut layer = Dense::new(3, 2, &mut rng);
        layer.bias.value = Tensor::from_slice(&[1.0, -1.0]);
        let x = Tensor::zeros(&[4, 3]);
        let y = layer.forward(&[&x], Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[4, 2]);
        // Zero input → output equals bias.
        assert_eq!(y.row(0).unwrap(), &[1.0, -1.0]);
    }

    #[test]
    fn backward_requires_forward() {
        let mut rng = stream_rng(1, "dense");
        let mut layer = Dense::new(3, 2, &mut rng);
        let g = Tensor::ones(&[1, 2]);
        assert!(matches!(
            layer.backward(&g).unwrap_err(),
            NnError::MissingActivation { .. }
        ));
    }

    #[test]
    fn gradient_check() {
        // Numerical vs analytic gradient on a scalar loss L = sum(y).
        let mut rng = stream_rng(2, "dense");
        let mut layer = Dense::new(3, 2, &mut rng);
        let x = Tensor::from_vec(vec![0.5, -0.3, 0.8, 0.1, 0.9, -0.7], &[2, 3]).unwrap();
        let _ = layer.forward(&[&x], Mode::Train).unwrap();
        let gout = Tensor::ones(&[2, 2]);
        let gin = layer.backward(&gout).unwrap().into_first();

        let eps = 1e-3;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let yp = layer.forward(&[&xp], Mode::Eval).unwrap().sum();
            let ym = layer.forward(&[&xm], Mode::Eval).unwrap().sum();
            let num = (yp - ym) / (2.0 * eps);
            let ana = gin.data()[i];
            assert!(
                (num - ana).abs() < 1e-2,
                "input grad {i}: numeric {num} analytic {ana}"
            );
        }
    }

    #[test]
    fn weight_gradient_check() {
        let mut rng = stream_rng(3, "dense");
        let mut layer = Dense::new(2, 2, &mut rng);
        let x = Tensor::from_vec(vec![0.2, -0.4, 0.6, 0.8], &[2, 2]).unwrap();
        let _ = layer.forward(&[&x], Mode::Train).unwrap();
        let gout = Tensor::ones(&[2, 2]);
        let _ = layer.backward(&gout).unwrap();
        let analytic = layer.weight.grad.clone();

        // Weights change through `visit_params`, as an optimizer's do, so
        // the eval forward's packed copy is dropped.
        let set = |layer: &mut Dense, i: usize, v: f32| {
            let mut first = true;
            layer.visit_params(&mut |p| {
                if std::mem::take(&mut first) {
                    p.value.data_mut()[i] = v;
                }
            });
        };
        let eps = 1e-3;
        for i in 0..layer.weight.value.len() {
            let orig = layer.weight.value.data()[i];
            set(&mut layer, i, orig + eps);
            let yp = layer.forward(&[&x], Mode::Eval).unwrap().sum();
            set(&mut layer, i, orig - eps);
            let ym = layer.forward(&[&x], Mode::Eval).unwrap().sum();
            set(&mut layer, i, orig);
            let num = (yp - ym) / (2.0 * eps);
            assert!(
                (num - analytic.data()[i]).abs() < 1e-2,
                "weight grad {i}: numeric {num} analytic {}",
                analytic.data()[i]
            );
        }
    }

    #[test]
    fn param_count() {
        let mut rng = stream_rng(4, "dense");
        let mut layer = Dense::new(10, 5, &mut rng);
        assert_eq!(layer.param_count(), 10 * 5 + 5);
    }

    #[test]
    fn bound_context_is_bitwise_identical() {
        let mut rng = stream_rng(5, "dense");
        let mut layer = Dense::new(4, 3, &mut rng);
        let x = Tensor::from_vec((0..8).map(|v| v as f32 * 0.3 - 1.0).collect(), &[2, 4]).unwrap();
        let before = layer.forward(&[&x], Mode::Eval).unwrap();
        layer.bind_compute(&ComputeCtx::scalar());
        let after = layer.forward(&[&x], Mode::Eval).unwrap();
        assert_eq!(before.data(), after.data());
    }

    #[test]
    fn i8_precision_quantizes_eval_forward_only() {
        let mut rng = stream_rng(6, "dense");
        let mut layer = Dense::new(5, 4, &mut rng);
        let x =
            Tensor::from_vec((0..10).map(|v| (v as f32 * 0.7).sin()).collect(), &[2, 5]).unwrap();
        let f32_out = layer.forward(&[&x], Mode::Eval).unwrap();
        layer.apply_precision(Precision::I8).unwrap();
        let q = layer.qweight.as_ref().expect("i8 weight path");
        assert_eq!((q.rows(), q.cols()), (4, 5));
        let q_out = layer.forward(&[&x], Mode::Eval).unwrap();
        // Quantized result tracks f32 within the i8 step budget but is a
        // genuinely different kernel, while the train-mode forward keeps
        // running the f32 path against the stored weights.
        for (a, b) in q_out.data().iter().zip(f32_out.data()) {
            assert!((a - b).abs() < 0.1, "quantized {a} vs f32 {b}");
        }
        let t_out = layer.forward(&[&x], Mode::Train).unwrap();
        let deq = layer.qweight.as_ref().unwrap().dequantize();
        assert_ne!(deq, layer.weight.value.data());
        assert_eq!(t_out.shape(), &[2, 4]);
        // Demoting back to f32 drops the integer path (weights stay as-is).
        layer.apply_precision(Precision::F32).unwrap();
        assert!(layer.qweight.is_none());
    }

    #[test]
    fn f16_precision_rounds_parameters() {
        let mut rng = stream_rng(7, "dense");
        let mut layer = Dense::new(3, 2, &mut rng);
        layer.apply_precision(Precision::F16).unwrap();
        for &w in layer.weight.value.data() {
            assert_eq!(quant::f16_round(w), w, "weight not f16-representable");
        }
        assert!(layer.qweight.is_none());
    }
}
