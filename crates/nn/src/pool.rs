//! Pooling layers: max, average, and global average.

use deepmorph_tensor::conv::{
    avgpool2d, avgpool2d_backward, global_avg_pool, global_avg_pool_backward, maxpool2d_backward,
    maxpool2d_eval_into, maxpool2d_into, PoolGeometry,
};
use deepmorph_tensor::{workspace, Tensor};

use crate::dense::single_input;
use crate::layer::{Grads, Layer, Mode};
use crate::{NnError, Result};

/// Max pooling over square windows of an NCHW tensor.
///
/// The argmax routing table lives in a persistent per-layer buffer that is
/// overwritten each training batch, so a warm forward/backward step
/// performs no heap allocations. Eval-mode forwards write no routing
/// table, so they cannot clobber the one a pending backward needs.
#[derive(Debug)]
pub struct MaxPool2d {
    name: String,
    geo: PoolGeometry,
    /// Argmax routing table of the last **training** forward (what
    /// backward consumes).
    argmax: Vec<usize>,
    active: bool,
}

impl MaxPool2d {
    /// Creates a max-pool layer; geometry is validated up front.
    ///
    /// # Errors
    ///
    /// Returns a geometry error if the window does not fit the input.
    pub fn new(
        channels: usize,
        in_h: usize,
        in_w: usize,
        window: usize,
        stride: usize,
    ) -> Result<Self> {
        let geo = PoolGeometry::new(channels, in_h, in_w, window, stride)?;
        Ok(MaxPool2d {
            name: format!("maxpool[{window}x{window} s{stride} @{in_h}x{in_w}]"),
            geo,
            argmax: Vec::new(),
            active: false,
        })
    }

    /// Output shape `[c, h, w]` (excluding batch).
    pub fn out_shape(&self) -> [usize; 3] {
        [self.geo.channels, self.geo.out_h, self.geo.out_w]
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, inputs: &[&Tensor], mode: Mode) -> Result<Tensor> {
        let x = single_input(inputs, &self.name)?;
        x.expect_rank(4, "maxpool2d")?;
        let n = x.shape()[0];
        let mut out =
            workspace::tensor_raw(&[n, self.geo.channels, self.geo.out_h, self.geo.out_w]);
        if mode == Mode::Eval {
            maxpool2d_eval_into(x, &self.geo, out.data_mut())?;
            return Ok(out);
        }
        self.argmax.resize(out.len(), 0);
        maxpool2d_into(x, &self.geo, out.data_mut(), &mut self.argmax)?;
        self.active = true;
        Ok(out)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Grads> {
        let expected = grad.len();
        if !self.active || self.argmax.len() != expected {
            return Err(NnError::MissingActivation {
                layer: self.name.clone(),
            });
        }
        Ok(Grads::one(maxpool2d_backward(
            grad,
            &self.argmax,
            &self.geo,
        )?))
    }

    fn clear_cache(&mut self) {
        self.argmax = Vec::new();
        self.active = false;
    }
}

/// Average pooling over square windows of an NCHW tensor.
#[derive(Debug)]
pub struct AvgPool2d {
    name: String,
    geo: PoolGeometry,
    seen_forward: bool,
}

impl AvgPool2d {
    /// Creates an average-pool layer; geometry is validated up front.
    ///
    /// # Errors
    ///
    /// Returns a geometry error if the window does not fit the input.
    pub fn new(
        channels: usize,
        in_h: usize,
        in_w: usize,
        window: usize,
        stride: usize,
    ) -> Result<Self> {
        let geo = PoolGeometry::new(channels, in_h, in_w, window, stride)?;
        Ok(AvgPool2d {
            name: format!("avgpool[{window}x{window} s{stride} @{in_h}x{in_w}]"),
            geo,
            seen_forward: false,
        })
    }

    /// Output shape `[c, h, w]` (excluding batch).
    pub fn out_shape(&self) -> [usize; 3] {
        [self.geo.channels, self.geo.out_h, self.geo.out_w]
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, inputs: &[&Tensor], mode: Mode) -> Result<Tensor> {
        let x = single_input(inputs, &self.name)?;
        if mode == Mode::Train {
            self.seen_forward = true;
        }
        avgpool2d(x, &self.geo).map_err(Into::into)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Grads> {
        if !self.seen_forward {
            return Err(NnError::MissingActivation {
                layer: self.name.clone(),
            });
        }
        Ok(Grads::one(avgpool2d_backward(grad, &self.geo)?))
    }

    fn clear_cache(&mut self) {
        self.seen_forward = false;
    }
}

/// Global average pool: `[n, c, h, w]` → `[n, c]`.
#[derive(Debug)]
pub struct GlobalAvgPool {
    spatial: Option<(usize, usize)>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool { spatial: None }
    }
}

impl Default for GlobalAvgPool {
    fn default() -> Self {
        GlobalAvgPool::new()
    }
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> &str {
        "global_avg_pool"
    }

    fn forward(&mut self, inputs: &[&Tensor], mode: Mode) -> Result<Tensor> {
        let x = single_input(inputs, "global_avg_pool")?;
        x.expect_rank(4, "global_avg_pool")?;
        if mode == Mode::Train {
            self.spatial = Some((x.shape()[2], x.shape()[3]));
        }
        global_avg_pool(x).map_err(Into::into)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Grads> {
        let (h, w) = self.spatial.ok_or_else(|| NnError::MissingActivation {
            layer: "global_avg_pool".into(),
        })?;
        Ok(Grads::one(global_avg_pool_backward(grad, h, w)?))
    }

    fn clear_cache(&mut self) {
        self.spatial = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_shapes_and_routing() {
        let mut l = MaxPool2d::new(2, 4, 4, 2, 2).unwrap();
        let x = Tensor::from_vec((0..32).map(|v| v as f32).collect(), &[1, 2, 4, 4]).unwrap();
        let y = l.forward(&[&x], Mode::Train).unwrap();
        assert_eq!(y.shape(), &[1, 2, 2, 2]);
        let g = l
            .backward(&Tensor::ones(&[1, 2, 2, 2]))
            .unwrap()
            .into_first();
        assert_eq!(g.shape(), &[1, 2, 4, 4]);
        assert_eq!(g.sum(), 8.0);
    }

    #[test]
    fn eval_forward_does_not_clobber_training_argmax() {
        // forward(Train, A) → forward(Eval, B) → backward must route A's
        // gradient through A's argmax, not B's.
        let mut l = MaxPool2d::new(1, 4, 4, 2, 2).unwrap();
        let a = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        // B reverses A, so its maxima sit in different window corners.
        let b = Tensor::from_vec((0..16).rev().map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let _ = l.forward(&[&a], Mode::Train).unwrap();
        let _ = l.forward(&[&b], Mode::Eval).unwrap();
        let g = l
            .backward(&Tensor::ones(&[1, 1, 2, 2]))
            .unwrap()
            .into_first();
        // A's maxima are the bottom-right corner of each window.
        assert_eq!(g.at(&[0, 0, 1, 1]).unwrap(), 1.0);
        assert_eq!(g.at(&[0, 0, 0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn avgpool_gradient_is_uniform() {
        let mut l = AvgPool2d::new(1, 4, 4, 2, 2).unwrap();
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let _ = l.forward(&[&x], Mode::Train).unwrap();
        let g = l
            .backward(&Tensor::ones(&[1, 1, 2, 2]))
            .unwrap()
            .into_first();
        assert!(g.data().iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    fn global_pool_averages_planes() {
        let mut l = GlobalAvgPool::new();
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]).unwrap();
        let y = l.forward(&[&x], Mode::Train).unwrap();
        assert_eq!(y.shape(), &[1, 2]);
        assert!((y.data()[0] - 1.5).abs() < 1e-6);
        assert!((y.data()[1] - 5.5).abs() < 1e-6);
        let g = l.backward(&Tensor::ones(&[1, 2])).unwrap().into_first();
        assert_eq!(g.shape(), &[1, 2, 2, 2]);
        assert!((g.sum() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut l = GlobalAvgPool::new();
        assert!(l.backward(&Tensor::ones(&[1, 2])).is_err());
        let mut l = AvgPool2d::new(1, 4, 4, 2, 2).unwrap();
        assert!(l.backward(&Tensor::ones(&[1, 1, 2, 2])).is_err());
        let mut l = MaxPool2d::new(1, 4, 4, 2, 2).unwrap();
        assert!(l.backward(&Tensor::ones(&[1, 1, 2, 2])).is_err());
    }
}
