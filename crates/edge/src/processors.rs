//! Ready-made FaaS functions wrapping the evaluation models.
//!
//! These are the `process_cloud` (and hybrid `process_edge`) implementations
//! the experiments bind into pipelines. Each cloud processor follows the
//! paper's per-message protocol (Section III.2): update the model on the
//! incoming data, score it, flag outliers, and publish the new weights
//! through the parameter service.

use crate::faas::{CloudFactory, Context, EdgeFactory, ProcessOutcome, ProduceFactory};
use pilot_datagen::{Block, DataGenConfig, DataGenerator};
use pilot_metrics::Component;
use pilot_ml::eval::threshold_by_contamination;
use pilot_ml::{
    AutoEncoder, AutoEncoderConfig, Dataset, IsolationForest, IsolationForestConfig, KMeans,
    KMeansConfig, ModelKind, OutlierModel,
};
use pilot_params::MergePolicy;
use std::sync::Arc;

/// Fraction of points flagged as outliers (PyOD's default contamination).
pub const CONTAMINATION: f64 = 0.05;

/// A produce function streaming `messages` blocks from the Mini-App
/// generator, one generator per device (seeded per device so streams
/// differ).
pub fn datagen_produce_factory(config: DataGenConfig, messages: usize) -> ProduceFactory {
    Arc::new(move |_ctx: &Context, device: usize| {
        let cfg = config
            .clone()
            .with_seed(config.seed ^ (device as u64) << 32);
        let mut generator = DataGenerator::new(cfg);
        let mut remaining = messages;
        Box::new(move |_ctx: &Context| {
            if remaining == 0 {
                return None;
            }
            remaining -= 1;
            Some(generator.next_block())
        })
    })
}

/// Wrap any [`OutlierModel`] constructor into a cloud-processing factory
/// implementing the paper's update → score → publish loop.
pub fn model_processor_factory<M, F>(make_model: F) -> CloudFactory
where
    M: OutlierModel + 'static,
    F: Fn() -> M + Send + Sync + 'static,
{
    Arc::new(move |ctx: &Context| {
        let mut model = make_model();
        // Fan fit/score out across the hosting pilot's compute pool
        // (width 1 on single-core pilots → unchanged sequential path;
        // scores are bit-identical at any width).
        model.set_compute_pool(Arc::clone(&ctx.compute));
        Box::new(move |ctx: &Context, block: &Block| {
            let ds = Dataset::new(&block.data, block.points, block.features);
            // Train on the incoming data ("the model is updated based on
            // the incoming data").
            model.partial_fit(&ds);
            // Inference: outlier scores + thresholding.
            let scores = model.score(&ds);
            let flags = threshold_by_contamination(&scores, CONTAMINATION);
            let outliers = flags.iter().filter(|&&f| f).count();
            ctx.counter("outliers_detected").add(outliers as u64);
            ctx.counter("points_processed").add(block.points as u64);
            // Publish weights via the parameter service (models without a
            // flat parametrisation — isolation forests — skip this).
            let weights = model.weights();
            if !weights.is_empty() {
                let spans = ctx.metrics.for_job(ctx.job_id);
                let start_us = spans.now_us();
                ctx.params
                    .update(&ctx.model_key(), MergePolicy::Assign, &weights);
                spans.record(
                    block.msg_id,
                    Component::ParamServer,
                    start_us,
                    spans.now_us(),
                    (weights.len() * 8) as u64,
                );
            }
            Ok(ProcessOutcome {
                scores: Some(scores),
                outliers,
            })
        })
    })
}

/// The paper's baseline: no model, no scoring — the pipeline overhead
/// measurement of Fig. 2.
pub fn baseline_factory() -> CloudFactory {
    Arc::new(|_ctx: &Context| {
        Box::new(|ctx: &Context, block: &Block| {
            ctx.counter("points_processed").add(block.points as u64);
            Ok(ProcessOutcome::default())
        })
    })
}

/// k-means (k = 25 over 32 features, the paper's configuration).
pub fn kmeans_factory(config: KMeansConfig) -> CloudFactory {
    model_processor_factory(move || KMeans::new(config.clone()))
}

/// Isolation forest (100 trees, ψ = 256 — PyOD defaults).
pub fn isoforest_factory(config: IsolationForestConfig) -> CloudFactory {
    model_processor_factory(move || IsolationForest::new(config.clone()))
}

/// Auto-encoder (hidden [64, 32, 32, 64], 11,552 parameters).
pub fn autoencoder_factory(config: AutoEncoderConfig) -> CloudFactory {
    model_processor_factory(move || AutoEncoder::new(config.clone()))
}

/// The processor for a [`ModelKind`] at the paper's configuration, assuming
/// `features` input features (32 in every paper experiment).
pub fn paper_model_factory(kind: ModelKind, features: usize) -> CloudFactory {
    match kind {
        ModelKind::Baseline => baseline_factory(),
        ModelKind::KMeans => {
            let mut cfg = KMeansConfig::paper();
            cfg.features = features;
            kmeans_factory(cfg)
        }
        ModelKind::IsolationForest => isoforest_factory(IsolationForestConfig::paper()),
        ModelKind::AutoEncoder => {
            let mut cfg = AutoEncoderConfig::paper();
            if features != cfg.features {
                cfg.features = features;
                // Keep the hidden sandwich proportional for non-paper dims.
                cfg.hidden = vec![
                    features,
                    features * 2,
                    features,
                    features,
                    features * 2,
                    features,
                ];
            }
            autoencoder_factory(cfg)
        }
    }
}

/// A cloud processor running the paper's full stage list — "pre-processing,
/// training and inference" (Section III.2): a streaming
/// [`pilot_ml::StandardScaler`] z-scores each batch against all data seen
/// so far, then the model trains and scores on the standardised features.
/// Scaler statistics are published alongside the model so another worker
/// can resume with identical normalisation.
pub fn preprocessed_model_factory<M, F>(features: usize, make_model: F) -> CloudFactory
where
    M: OutlierModel + 'static,
    F: Fn() -> M + Send + Sync + 'static,
{
    Arc::new(move |ctx: &Context| {
        let mut scaler = pilot_ml::StandardScaler::new(features);
        let mut model = make_model();
        model.set_compute_pool(Arc::clone(&ctx.compute));
        Box::new(move |ctx: &Context, block: &Block| {
            let raw = Dataset::new(&block.data, block.points, block.features);
            // Stage 1: pre-processing (streaming standardisation).
            scaler.partial_fit(&raw);
            let z = scaler.transform(&raw);
            let zds = Dataset::new(&z, block.points, block.features);
            // Stage 2: training.
            model.partial_fit(&zds);
            // Stage 3: inference.
            let scores = model.score(&zds);
            let flags = threshold_by_contamination(&scores, CONTAMINATION);
            let outliers = flags.iter().filter(|&&f| f).count();
            ctx.counter("outliers_detected").add(outliers as u64);
            ctx.counter("points_processed").add(block.points as u64);
            let weights = model.weights();
            if !weights.is_empty() {
                ctx.params
                    .update(&ctx.model_key(), MergePolicy::Assign, &weights);
            }
            ctx.params.update(
                &format!("{}:scaler", ctx.model_key()),
                MergePolicy::Assign,
                &scaler.weights(),
            );
            Ok(ProcessOutcome {
                scores: Some(scores),
                outliers,
            })
        })
    })
}

/// Hybrid-mode edge function: keep every `factor`-th point (systematic
/// subsampling), shrinking what crosses the WAN by ~`factor`× — the
/// "data compression step before the data transfer" the paper recommends.
pub fn downsample_edge_factory(factor: usize) -> EdgeFactory {
    assert!(factor >= 1, "downsample factor must be >= 1");
    Arc::new(move |_ctx: &Context, _device| {
        Box::new(move |_ctx: &Context, block: Block| {
            if factor == 1 {
                return Ok(block);
            }
            let d = block.features;
            let mut data = Vec::with_capacity(block.data.len() / factor + d);
            let mut labels = Vec::with_capacity(block.points / factor + 1);
            for i in (0..block.points).step_by(factor) {
                data.extend_from_slice(&block.data[i * d..(i + 1) * d]);
                labels.push(*block.labels.get(i).unwrap_or(&false));
            }
            Ok(Block {
                msg_id: block.msg_id,
                points: labels.len(),
                features: d,
                data,
                labels,
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilot_metrics::MetricsRegistry;
    use pilot_params::ParameterServer;
    use std::collections::HashMap;

    fn ctx() -> Context {
        Context::new(
            1,
            1,
            ParameterServer::new(),
            MetricsRegistry::new(),
            HashMap::new(),
        )
    }

    fn block(points: usize) -> Block {
        let mut generator = DataGenerator::new(DataGenConfig::paper(points));
        generator.next_block()
    }

    #[test]
    fn datagen_producer_streams_and_ends() {
        let c = ctx();
        let factory = datagen_produce_factory(DataGenConfig::paper(10), 3);
        let mut produce = factory(&c, 0);
        assert!(produce(&c).is_some());
        assert!(produce(&c).is_some());
        assert!(produce(&c).is_some());
        assert!(produce(&c).is_none());
    }

    #[test]
    fn devices_get_different_streams() {
        let c = ctx();
        let factory = datagen_produce_factory(DataGenConfig::paper(10), 1);
        let b0 = (factory(&c, 0))(&c).unwrap();
        let b1 = (factory(&c, 1))(&c).unwrap();
        assert_ne!(b0.data, b1.data);
    }

    #[test]
    fn baseline_counts_points_without_scores() {
        let c = ctx();
        let mut f = baseline_factory()(&c);
        let out = f(&c, &block(50)).unwrap();
        assert!(out.scores.is_none());
        assert_eq!(c.counter("points_processed").get(), 50);
    }

    #[test]
    fn kmeans_processor_scores_and_publishes() {
        let c = ctx();
        let mut cfg = KMeansConfig::paper();
        cfg.features = 32;
        let mut f = kmeans_factory(cfg)(&c);
        let out = f(&c, &block(200)).unwrap();
        assert_eq!(out.scores.unwrap().len(), 200);
        // ~5% contamination flagged.
        assert!(out.outliers >= 5 && out.outliers <= 25, "{}", out.outliers);
        // Weights landed in the parameter server under the job key.
        assert!(c.params.get(&c.model_key()).is_some());
        // A ParamServer span was recorded.
        let report = c.metrics.report();
        assert!(report
            .component(&Component::ParamServer)
            .is_some_and(|s| s.count == 1));
    }

    #[test]
    fn isoforest_processor_runs_without_weights() {
        let c = ctx();
        let mut cfg = IsolationForestConfig::paper();
        cfg.n_trees = 20; // keep the test fast
        let mut f = isoforest_factory(cfg)(&c);
        let out = f(&c, &block(300)).unwrap();
        assert_eq!(out.scores.unwrap().len(), 300);
        assert!(c.params.get(&c.model_key()).is_none());
    }

    #[test]
    fn autoencoder_processor_trains_and_publishes() {
        let c = ctx();
        let mut f = autoencoder_factory(AutoEncoderConfig::paper())(&c);
        let out = f(&c, &block(100)).unwrap();
        assert_eq!(out.scores.unwrap().len(), 100);
        let (w, _) = c.params.get(&c.model_key()).unwrap();
        assert_eq!(w.len(), 11_552);
    }

    #[test]
    fn paper_model_factory_covers_all_kinds() {
        let c = ctx();
        for kind in ModelKind::all() {
            if kind == ModelKind::IsolationForest {
                continue; // covered above with a smaller forest
            }
            let mut f = paper_model_factory(kind, 32)(&c);
            assert!(f(&c, &block(50)).is_ok(), "{kind}");
        }
    }

    #[test]
    fn preprocessed_factory_runs_all_three_stages() {
        let c = ctx();
        let mut cfg = KMeansConfig::paper();
        cfg.features = 32;
        let mut f = preprocessed_model_factory(32, move || KMeans::new(cfg.clone()))(&c);
        let out = f(&c, &block(300)).unwrap();
        assert_eq!(out.scores.unwrap().len(), 300);
        // Model weights and scaler statistics both published.
        assert!(c.params.get(&c.model_key()).is_some());
        let (scaler_w, _) = c
            .params
            .get(&format!("{}:scaler", c.model_key()))
            .expect("scaler stats");
        assert_eq!(scaler_w.len(), 1 + 2 * 32);
        assert_eq!(scaler_w[0], 300.0, "scaler saw all points");
        // Second batch accumulates.
        f(&c, &block(300)).unwrap();
        let (scaler_w, _) = c.params.get(&format!("{}:scaler", c.model_key())).unwrap();
        assert_eq!(scaler_w[0], 600.0);
    }

    #[test]
    fn downsample_keeps_every_kth_point() {
        let c = ctx();
        let mut f = downsample_edge_factory(4)(&c, 0);
        let b = block(100);
        let out = f(&c, b.clone()).unwrap();
        assert_eq!(out.points, 25);
        assert_eq!(out.data.len(), 25 * 32);
        assert_eq!(&out.data[..32], b.point(0));
        assert_eq!(&out.data[32..64], b.point(4));
    }

    #[test]
    fn downsample_factor_one_is_identity() {
        let c = ctx();
        let mut f = downsample_edge_factory(1)(&c, 0);
        let b = block(10);
        assert_eq!(f(&c, b.clone()).unwrap(), b);
    }

    #[test]
    fn model_updates_stream_through_param_server() {
        let c = ctx();
        let mut cfg = KMeansConfig::paper();
        cfg.features = 32;
        let mut f = kmeans_factory(cfg)(&c);
        f(&c, &block(100)).unwrap();
        let (_, v1) = c.params.get(&c.model_key()).unwrap();
        f(&c, &block(100)).unwrap();
        let (_, v2) = c.params.get(&c.model_key()).unwrap();
        assert!(v2 > v1, "model version must advance per message");
    }
}
