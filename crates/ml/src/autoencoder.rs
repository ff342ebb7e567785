//! Dense auto-encoder for reconstruction-error outlier detection.
//!
//! The paper uses "the Keras-based auto-encoder implementation of PyOD with
//! four hidden layers with a size of [64, 32, 32, 64], and thus, a total
//! number of 11,552 parameters". PyOD's Keras model wraps those hidden
//! layers with extra input-sized dense layers; the dense-layer sequence that
//! yields **exactly 11,552 trainable parameters** for 32 input features is
//!
//! ```text
//! 32 → 32 → 64 → 32 → 32 → 64 → 32 → 32
//!    1056  2112  2080  1056  2112  2080  1056   = 11,552
//! ```
//!
//! (each arrow is a dense layer with bias; counts are `in·out + out`).
//! This module implements that exact architecture as a from-scratch MLP:
//! ReLU activations on all but the last layer, mean-squared reconstruction
//! error as the loss, and backpropagation with either plain SGD or Adam.
//!
//! The outlier score of a point is its reconstruction error — "the
//! reconstruction error is used to determine whether a data point is
//! anomalous".

use crate::dataset::Dataset;
use crate::linalg::{
    self, add_bias, column_sums, matmul, matmul_a_bt, matmul_at_b, relu, relu_backward,
};
use crate::outlier::{ModelKind, OutlierModel};
use pilot_dataflow::ComputePool;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Rows per compute-pool unit in the batch forward/score path. Fixed (never
/// derived from pool width); each row's activations depend on that row
/// alone (see the bit-exactness contract in [`crate::linalg`]), so chunked
/// forward passes reproduce the full-batch result exactly.
const FORWARD_CHUNK: usize = 128;

/// Optimiser choice for training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Optimizer {
    /// Plain stochastic gradient descent.
    Sgd,
    /// Adam (Kingma & Ba) with the canonical β₁=0.9, β₂=0.999, ε=1e-8.
    Adam,
}

/// Configuration for [`AutoEncoder`].
#[derive(Debug, Clone, PartialEq)]
pub struct AutoEncoderConfig {
    /// Input dimensionality.
    pub features: usize,
    /// Sizes of the dense layers between input and output. The paper's
    /// PyOD model for 32 features is `[32, 64, 32, 32, 64, 32]` with an
    /// implicit final output layer of size `features`.
    pub hidden: Vec<usize>,
    /// Learning rate.
    pub lr: f64,
    /// Passes over each batch in `partial_fit`.
    pub epochs_per_batch: usize,
    /// Mini-batch size used inside a training pass.
    pub minibatch: usize,
    /// Optimiser.
    pub optimizer: Optimizer,
    /// Weight-init seed.
    pub seed: u64,
}

impl AutoEncoderConfig {
    /// The paper's PyOD architecture over 32 features: hidden sizes
    /// `[64, 32, 32, 64]` plus PyOD's input-sized wrapper layers, for a
    /// total of 11,552 trainable parameters.
    pub fn paper() -> Self {
        Self {
            features: 32,
            hidden: vec![32, 64, 32, 32, 64, 32],
            lr: 1e-3,
            epochs_per_batch: 1,
            minibatch: 64,
            optimizer: Optimizer::Adam,
            seed: 42,
        }
    }

    /// Full sequence of layer dimensions, input to output.
    pub fn layer_dims(&self) -> Vec<usize> {
        let mut dims = Vec::with_capacity(self.hidden.len() + 2);
        dims.push(self.features);
        dims.extend_from_slice(&self.hidden);
        dims.push(self.features);
        dims
    }

    /// Total trainable parameter count (weights + biases).
    pub fn parameter_count(&self) -> usize {
        self.layer_dims()
            .windows(2)
            .map(|w| w[0] * w[1] + w[1])
            .sum()
    }
}

/// One dense layer's parameters and its Adam state.
#[derive(Debug, Clone)]
struct Layer {
    /// `in_dim × out_dim`, row-major.
    w: Vec<f64>,
    /// `out_dim`.
    b: Vec<f64>,
    in_dim: usize,
    out_dim: usize,
    // Adam moments (empty under SGD).
    m_w: Vec<f64>,
    v_w: Vec<f64>,
    m_b: Vec<f64>,
    v_b: Vec<f64>,
}

impl Layer {
    fn new(in_dim: usize, out_dim: usize, adam: bool, rng: &mut StdRng) -> Self {
        // He initialisation for ReLU layers.
        let scale = (2.0 / in_dim as f64).sqrt();
        let w: Vec<f64> = (0..in_dim * out_dim)
            .map(|_| {
                // Box–Muller
                let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.random();
                scale * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
            })
            .collect();
        let moments = |len: usize| vec![0.0; if adam { len } else { 0 }];
        Self {
            m_w: moments(w.len()),
            v_w: moments(w.len()),
            m_b: moments(out_dim),
            v_b: moments(out_dim),
            w,
            b: vec![0.0; out_dim],
            in_dim,
            out_dim,
        }
    }
}

/// Adam's β₁, β₂ and ε.
const ADAM_BETA1: f64 = 0.9;
const ADAM_BETA2: f64 = 0.999;
const ADAM_EPS: f64 = 1e-8;

/// Step size and bias corrections `1 − βᵗ` of one Adam step.
#[derive(Clone, Copy)]
struct Adam {
    lr: f64,
    bias1: f64,
    bias2: f64,
}

impl Adam {
    /// Update `param` from `grad` and the moments `m`, `v`. Portable body;
    /// every operation is a correctly-rounded IEEE one (no FMA), so any
    /// vector width gives the same bits.
    #[inline(always)]
    fn update_body(self, param: &mut [f64], grad: &[f64], m: &mut [f64], v: &mut [f64]) {
        let len = param.len();
        let (grad, m, v) = (&grad[..len], &mut m[..len], &mut v[..len]);
        for i in 0..len {
            let g = grad[i];
            m[i] = ADAM_BETA1 * m[i] + (1.0 - ADAM_BETA1) * g;
            v[i] = ADAM_BETA2 * v[i] + (1.0 - ADAM_BETA2) * g * g;
            let m_hat = m[i] / self.bias1;
            let v_hat = v[i] / self.bias2;
            param[i] -= self.lr * m_hat / (v_hat.sqrt() + ADAM_EPS);
        }
    }

    /// [`Adam::update_body`] compiled with 256-bit vectors.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn update_avx2(self, param: &mut [f64], grad: &[f64], m: &mut [f64], v: &mut [f64]) {
        self.update_body(param, grad, m, v);
    }

    /// [`Adam::update_body`], on the widest instantiation the host supports.
    fn update(self, param: &mut [f64], grad: &[f64], m: &mut [f64], v: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if linalg::wide() {
            // SAFETY: `wide()` is true only when the host has AVX2.
            return unsafe { self.update_avx2(param, grad, m, v) };
        }
        self.update_body(param, grad, m, v)
    }
}

/// Training buffers, sized at construction for one mini-batch so that a
/// training step allocates nothing.
#[derive(Debug, Clone)]
struct Workspace {
    /// Activations of every layer but the last.
    hidden: Vec<Vec<f64>>,
    /// The network's output, then (in place) dL/d(output) of the layer the
    /// backward pass is at.
    delta: Vec<f64>,
    /// dL/d(output) of the layer before it.
    prev_delta: Vec<f64>,
    grad_w: Vec<f64>,
    grad_b: Vec<f64>,
    /// Wᵀ of the layer the backward pass is at.
    wt: Vec<f64>,
}

/// One buffer of `rows × out_dim` per layer but the last.
fn hidden_buffers(layers: &[Layer], rows: usize) -> Vec<Vec<f64>> {
    let hidden = &layers[..layers.len() - 1];
    hidden.iter().map(|l| vec![0.0; rows * l.out_dim]).collect()
}

/// Forward pass over `rows` rows of `batch`: every layer but the last
/// applies ReLU and leaves its activations in `hidden`; the last writes
/// `output`.
fn forward(
    layers: &[Layer],
    batch: &[f64],
    rows: usize,
    hidden: &mut [Vec<f64>],
    output: &mut [f64],
) {
    for (li, layer) in layers.iter().enumerate() {
        let (done, rest) = hidden.split_at_mut(li);
        let input = match done.last() {
            Some(prev) => &prev[..rows * layer.in_dim],
            None => batch,
        };
        let (out, activate) = match rest.first_mut() {
            Some(next) => (&mut next[..rows * layer.out_dim], true),
            None => (&mut *output, false),
        };
        matmul(input, &layer.w, out, rows, layer.in_dim, layer.out_dim);
        add_bias(out, &layer.b);
        if activate {
            relu(out);
        }
    }
}

/// The auto-encoder model.
#[derive(Debug, Clone)]
pub struct AutoEncoder {
    config: AutoEncoderConfig,
    layers: Vec<Layer>,
    ws: Workspace,
    /// Adam timestep.
    t: u64,
    /// Mean training loss of the last `partial_fit` call.
    last_loss: f64,
    /// Fan-out for batch forward/score; sequential by default. Training
    /// stays on the caller thread (its gradient reduction is inherently
    /// batch-order-dependent).
    pool: Arc<ComputePool>,
}

impl AutoEncoder {
    /// Create a randomly-initialised model.
    pub fn new(config: AutoEncoderConfig) -> Self {
        assert!(config.features > 0, "features must be > 0");
        assert!(config.lr > 0.0, "lr must be > 0");
        assert!(config.minibatch > 0, "minibatch must be > 0");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let dims = config.layer_dims();
        let adam = config.optimizer == Optimizer::Adam;
        let layers: Vec<Layer> = dims
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], adam, &mut rng))
            .collect();
        let widest = dims.iter().copied().max().unwrap_or(0);
        let largest = layers.iter().map(|l| l.w.len()).max().unwrap_or(0);
        let ws = Workspace {
            hidden: hidden_buffers(&layers, config.minibatch),
            delta: vec![0.0; config.minibatch * widest],
            prev_delta: vec![0.0; config.minibatch * widest],
            grad_w: vec![0.0; largest],
            grad_b: vec![0.0; widest],
            wt: vec![0.0; largest],
        };
        Self {
            config,
            layers,
            ws,
            t: 0,
            last_loss: f64::NAN,
            pool: Arc::new(ComputePool::sequential()),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AutoEncoderConfig {
        &self.config
    }

    /// Total trainable parameters (matches
    /// [`AutoEncoderConfig::parameter_count`]).
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// Mean training loss of the last `partial_fit` (NaN before training).
    pub fn last_loss(&self) -> f64 {
        self.last_loss
    }

    /// Reconstruct a batch (the final activation of the forward pass).
    ///
    /// Rows are fanned out over the pool in fixed chunks of
    /// `FORWARD_CHUNK`; per-row independence of the dense layers makes the
    /// chunked result bit-identical to a single full-batch pass.
    pub fn reconstruct(&self, data: &Dataset<'_>) -> Vec<f64> {
        assert_eq!(data.cols(), self.config.features, "feature mismatch");
        let d = self.config.features;
        let raw = data.raw();
        let mut out = vec![0.0; data.rows() * d];
        // Chunk length is a multiple of the feature count, so every chunk
        // covers whole rows.
        self.pool
            .for_each_chunk_mut(&mut out, FORWARD_CHUNK * d, |ci, chunk| {
                let rows = chunk.len() / d;
                let start = ci * FORWARD_CHUNK * d;
                let batch = &raw[start..start + chunk.len()];
                let mut hidden = hidden_buffers(&self.layers, rows);
                forward(&self.layers, batch, rows, &mut hidden, chunk);
            });
        out
    }

    /// One SGD/Adam step on one mini-batch; returns the batch MSE.
    fn train_step(&mut self, batch: &[f64], rows: usize) -> f64 {
        let Self { layers, ws, .. } = self;
        let n_out = batch.len();
        forward(layers, batch, rows, &mut ws.hidden, &mut ws.delta[..n_out]);
        // dL/dŷ for L = mean((ŷ−x)²): 2(ŷ−x)/N, in place over ŷ.
        let mut loss = 0.0;
        for (y, &x) in ws.delta[..n_out].iter_mut().zip(batch) {
            let err = *y - x;
            loss += err * err;
            *y = 2.0 * err / n_out as f64;
        }
        loss /= n_out as f64;

        self.t += 1;
        let lr = self.config.lr;
        let t = self.t as f64;
        let adam = Adam {
            lr,
            bias1: 1.0 - ADAM_BETA1.powf(t),
            bias2: 1.0 - ADAM_BETA2.powf(t),
        };
        // Backward through layers.
        for li in (0..layers.len()).rev() {
            let layer = &mut layers[li];
            let (in_dim, out_dim) = (layer.in_dim, layer.out_dim);
            let input = match li {
                0 => batch,
                _ => &ws.hidden[li - 1][..rows * in_dim],
            };
            let delta = &ws.delta[..rows * out_dim];
            // Gradients.
            let grad_w = &mut ws.grad_w[..in_dim * out_dim];
            matmul_at_b(input, delta, grad_w, in_dim, rows, out_dim);
            let grad_b = &mut ws.grad_b[..out_dim];
            column_sums(delta, grad_b);
            // Propagate delta to the previous layer before mutating weights.
            if li > 0 {
                let prev_delta = &mut ws.prev_delta[..rows * in_dim];
                let wt = &mut ws.wt[..in_dim * out_dim];
                matmul_a_bt(delta, &layer.w, wt, prev_delta, rows, out_dim, in_dim);
                relu_backward(prev_delta, input);
            }
            // Apply the update.
            match self.config.optimizer {
                Optimizer::Sgd => {
                    for (w, g) in layer.w.iter_mut().zip(&*grad_w) {
                        *w -= lr * g;
                    }
                    for (b, g) in layer.b.iter_mut().zip(&*grad_b) {
                        *b -= lr * g;
                    }
                }
                Optimizer::Adam => {
                    adam.update(&mut layer.w, grad_w, &mut layer.m_w, &mut layer.v_w);
                    adam.update(&mut layer.b, grad_b, &mut layer.m_b, &mut layer.v_b);
                }
            }
            std::mem::swap(&mut ws.delta, &mut ws.prev_delta);
        }
        loss
    }

    /// Numerical-gradient check hook (tests only): loss on a batch without
    /// updating parameters.
    #[doc(hidden)]
    pub fn loss_on(&self, data: &Dataset<'_>) -> f64 {
        let out = self.reconstruct(data);
        linalg::mse(&out, data.raw())
    }

    /// Direct parameter access for finite-difference tests.
    #[doc(hidden)]
    pub fn nudge_weight(&mut self, layer: usize, idx: usize, delta: f64) {
        self.layers[layer].w[idx] += delta;
    }

    /// The compute pool currently attached (sequential by default).
    pub fn compute_pool(&self) -> &Arc<ComputePool> {
        &self.pool
    }
}

impl OutlierModel for AutoEncoder {
    fn kind(&self) -> ModelKind {
        ModelKind::AutoEncoder
    }

    /// Train on the incoming batch: `epochs_per_batch` passes of mini-batch
    /// gradient descent.
    fn partial_fit(&mut self, data: &Dataset<'_>) {
        assert_eq!(data.cols(), self.config.features, "feature mismatch");
        if data.is_empty() {
            return;
        }
        let d = self.config.features;
        let mb = self.config.minibatch;
        let mut total = 0.0;
        let mut steps = 0;
        for _ in 0..self.config.epochs_per_batch.max(1) {
            for chunk in data.raw().chunks(mb * d) {
                let rows = chunk.len() / d;
                total += self.train_step(chunk, rows);
                steps += 1;
            }
        }
        self.last_loss = total / steps as f64;
    }

    /// Outlier score: per-row mean squared reconstruction error.
    fn score(&self, data: &Dataset<'_>) -> Vec<f64> {
        let recon = self.reconstruct(data);
        let d = self.config.features;
        data.raw()
            .chunks(d)
            .zip(recon.chunks(d))
            .map(|(x, y)| {
                x.iter()
                    .zip(y)
                    .map(|(&a, &b)| (a - b) * (a - b))
                    .sum::<f64>()
                    / d as f64
            })
            .collect()
    }

    /// Flat layout: for each layer, weights then biases.
    fn weights(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.parameter_count());
        for l in &self.layers {
            out.extend_from_slice(&l.w);
            out.extend_from_slice(&l.b);
        }
        out
    }

    fn set_weights(&mut self, weights: &[f64]) -> bool {
        if weights.len() != self.parameter_count() {
            return false;
        }
        let mut off = 0;
        for l in &mut self.layers {
            let wl = l.w.len();
            l.w.copy_from_slice(&weights[off..off + wl]);
            off += wl;
            let bl = l.b.len();
            l.b.copy_from_slice(&weights[off..off + bl]);
            off += bl;
        }
        true
    }

    fn set_compute_pool(&mut self, pool: Arc<ComputePool>) {
        self.pool = pool;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> AutoEncoderConfig {
        AutoEncoderConfig {
            features: 4,
            hidden: vec![8, 4, 8],
            lr: 1e-2,
            epochs_per_batch: 50,
            minibatch: 16,
            optimizer: Optimizer::Adam,
            seed: 1,
        }
    }

    /// Points on a 1-D manifold embedded in 4-D (easily compressible).
    fn manifold_data(n: usize) -> Vec<f64> {
        let mut data = Vec::with_capacity(n * 4);
        for i in 0..n {
            let t = i as f64 / n as f64 * 2.0 - 1.0;
            data.extend_from_slice(&[t, 2.0 * t, -t, 0.5 * t]);
        }
        data
    }

    #[test]
    fn paper_parameter_count() {
        // The headline check: the paper states 11,552 parameters.
        let cfg = AutoEncoderConfig::paper();
        assert_eq!(cfg.parameter_count(), 11_552);
        let model = AutoEncoder::new(cfg);
        assert_eq!(model.parameter_count(), 11_552);
    }

    #[test]
    fn layer_dims_sandwich_hidden() {
        let cfg = AutoEncoderConfig::paper();
        assert_eq!(cfg.layer_dims(), vec![32, 32, 64, 32, 32, 64, 32, 32]);
    }

    #[test]
    fn training_reduces_loss() {
        let data = manifold_data(64);
        let ds = Dataset::new(&data, 64, 4);
        let mut ae = AutoEncoder::new(tiny_config());
        let before = ae.loss_on(&ds);
        for _ in 0..10 {
            ae.partial_fit(&ds);
        }
        let after = ae.loss_on(&ds);
        assert!(
            after < before * 0.5,
            "loss did not halve: before={before} after={after}"
        );
    }

    #[test]
    fn sgd_also_learns() {
        let mut cfg = tiny_config();
        cfg.optimizer = Optimizer::Sgd;
        cfg.lr = 0.05;
        let data = manifold_data(64);
        let ds = Dataset::new(&data, 64, 4);
        let mut ae = AutoEncoder::new(cfg);
        let before = ae.loss_on(&ds);
        for _ in 0..20 {
            ae.partial_fit(&ds);
        }
        assert!(ae.loss_on(&ds) < before, "SGD failed to reduce loss");
    }

    #[test]
    fn outliers_have_higher_reconstruction_error() {
        let mut data = manifold_data(128);
        // Off-manifold outliers.
        data.extend_from_slice(&[5.0, -5.0, 5.0, -5.0]);
        data.extend_from_slice(&[-4.0, 4.0, 4.0, 4.0]);
        let train = manifold_data(128);
        let train_ds = Dataset::new(&train, 128, 4);
        let mut ae = AutoEncoder::new(tiny_config());
        for _ in 0..20 {
            ae.partial_fit(&train_ds);
        }
        let ds = Dataset::new(&data, 130, 4);
        let scores = ae.score(&ds);
        let max_inlier = scores[..128].iter().cloned().fold(0.0f64, f64::max);
        assert!(scores[128] > max_inlier, "outlier 1 not detected");
        assert!(scores[129] > max_inlier, "outlier 2 not detected");
    }

    #[test]
    fn gradient_matches_finite_difference() {
        // Analytic gradient via one SGD step vs central finite differences.
        let mut cfg = tiny_config();
        cfg.optimizer = Optimizer::Sgd;
        cfg.epochs_per_batch = 1;
        let data = manifold_data(8);
        let ds = Dataset::new(&data, 8, 4);

        // Finite-difference gradient for a handful of weights in layer 0.
        for idx in [0usize, 3, 7] {
            let mut m = AutoEncoder::new(cfg.clone());
            let eps = 1e-6;
            m.nudge_weight(0, idx, eps);
            let up = m.loss_on(&ds);
            m.nudge_weight(0, idx, -2.0 * eps);
            let down = m.loss_on(&ds);
            m.nudge_weight(0, idx, eps); // restore
            let fd_grad = (up - down) / (2.0 * eps);

            // Analytic: after one SGD step with lr, w' = w − lr·g.
            let mut m2 = AutoEncoder::new(cfg.clone());
            let w_before = m2.weights();
            m2.partial_fit(&ds);
            let w_after = m2.weights();
            let analytic = (w_before[idx] - w_after[idx]) / cfg.lr;

            assert!(
                (fd_grad - analytic).abs() < 1e-4 * (1.0 + fd_grad.abs()),
                "idx={idx} fd={fd_grad} analytic={analytic}"
            );
        }
    }

    #[test]
    fn pool_width_never_changes_reconstruction() {
        // 300 rows spans multiple FORWARD_CHUNK chunks plus a partial one.
        let data = manifold_data(300);
        let ds = Dataset::new(&data, 300, 4);
        let mut seq = AutoEncoder::new(tiny_config());
        seq.partial_fit(&ds);
        let expect = seq.score(&ds);
        let trained = seq.weights();
        for width in [2usize, 3, 8] {
            let mut ae = AutoEncoder::new(tiny_config());
            assert!(ae.set_weights(&trained));
            ae.set_compute_pool(Arc::new(ComputePool::new(width)));
            assert_eq!(ae.score(&ds), expect, "width={width}");
        }
    }

    #[test]
    fn weights_roundtrip_preserves_behaviour() {
        let data = manifold_data(32);
        let ds = Dataset::new(&data, 32, 4);
        let mut a = AutoEncoder::new(tiny_config());
        a.partial_fit(&ds);
        let w = a.weights();
        assert_eq!(w.len(), a.parameter_count());
        let mut b = AutoEncoder::new(tiny_config().clone());
        assert!(b.set_weights(&w));
        assert_eq!(a.score(&ds), b.score(&ds));
    }

    #[test]
    fn set_weights_rejects_bad_shape() {
        let mut ae = AutoEncoder::new(tiny_config());
        assert!(!ae.set_weights(&[0.0; 3]));
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut ae = AutoEncoder::new(tiny_config());
        let data: [f64; 0] = [];
        ae.partial_fit(&Dataset::new(&data, 0, 4));
        assert!(ae.last_loss().is_nan());
    }

    #[test]
    fn reconstruct_shape_matches_input() {
        let data = manifold_data(10);
        let ds = Dataset::new(&data, 10, 4);
        let ae = AutoEncoder::new(tiny_config());
        assert_eq!(ae.reconstruct(&ds).len(), 40);
    }

    #[test]
    fn deterministic_initialisation() {
        let a = AutoEncoder::new(tiny_config());
        let b = AutoEncoder::new(tiny_config());
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    #[should_panic(expected = "feature mismatch")]
    fn feature_mismatch_panics() {
        let ae = AutoEncoder::new(tiny_config());
        let data = [0.0; 6];
        ae.reconstruct(&Dataset::new(&data, 2, 3));
    }
}
