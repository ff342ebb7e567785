//! Per-stage configuration: the validated form of [`PipelineConfig`].
//!
//! The flat [`PipelineConfig`] (and its builder methods) stays the public
//! compatibility surface; [`PipelineConfig::resolve`] turns it into
//! [`StageConfigs`] — one sub-config per stage, checked by
//! [`PipelineConfig::validate`] — at `start()`. The stages only ever see
//! their own sub-config, so a knob cannot leak into the wrong stage.

use crate::deployment::DeploymentMode;
use crate::pipeline::{PipelineConfig, PipelineError};
use std::time::Duration;

/// Producer-stage configuration (who produces, how fast, where edge
/// processing runs).
#[derive(Debug, Clone)]
pub struct ProducerConfig {
    /// Edge devices = broker partitions.
    pub devices: usize,
    /// Edge reactor threads driving the device tasks (`None` = the edge
    /// pilot's core count, the default).
    pub reactor_threads: Option<usize>,
    /// Per-device send rate in messages/second (0 = unthrottled).
    pub rate_per_device: f64,
    /// Deployment modality (decides whether `process_edge` runs).
    pub mode: DeploymentMode,
}

/// Transport-stage configuration (how encoded messages cross the
/// edge→broker link).
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Wire codec for blocks crossing the network.
    pub codec: pilot_datagen::Codec,
    /// Producer batch threshold in encoded bytes (0 = serial per-message
    /// transfers, the default).
    pub batch_max_bytes: usize,
    /// How long the first message of a batch may wait for batch-mates.
    pub linger: Duration,
}

impl TransportConfig {
    /// Whether producer batching (the pipelined transport) is on.
    pub fn batching(&self) -> bool {
        self.batch_max_bytes > 0
    }
}

/// Consumer-stage configuration (fetch, look-ahead, and processor pool).
#[derive(Debug, Clone)]
pub struct ConsumerConfig {
    /// Initial consumer-member count.
    pub processors: usize,
    /// Batches each consumer keeps in flight on the broker→cloud link
    /// ahead of the one it is processing (0 = none, the default).
    pub prefetch_depth: usize,
    /// Max records per partition per fetch.
    pub fetch_max: usize,
    /// Reactor threads driving the consumer members (`None` = the cloud
    /// pilot's core count, the default).
    pub reactor_threads: Option<usize>,
}

/// The per-stage sub-configs resolved from a validated [`PipelineConfig`]
/// at `start()`.
#[derive(Debug, Clone)]
pub struct StageConfigs {
    /// Producer stage.
    pub producer: ProducerConfig,
    /// Edge→broker transport.
    pub transport: TransportConfig,
    /// Consumer stage.
    pub consumer: ConsumerConfig,
}

impl PipelineConfig {
    /// Check knob consistency without needing pilots.
    ///
    /// Rejected configurations:
    /// * `devices == 0` or `processors == 0` ([`PipelineError::Capacity`]);
    /// * `producer_threads == Some(0)` — an edge reactor with no threads
    ///   would never poll any device ([`PipelineError::Config`]);
    /// * `compute_threads == Some(0)` — a width-0 compute pool cannot run
    ///   anything ([`PipelineError::Config`]);
    /// * `reactor_threads == Some(0)` — a reactor with no threads would
    ///   never poll any consumer member ([`PipelineError::Config`]);
    /// * `linger > 0` with `batch_max_bytes == 0` — the linger window only
    ///   exists inside the batcher, so this combination used to be a silent
    ///   no-op; it is now an error so the intent (batching) is explicit
    ///   ([`PipelineError::Config`]);
    /// * `telemetry_sample_ms == Some(0)` — a zero sampling interval would
    ///   spin the sampler thread flat out; use `None` to disable telemetry
    ///   ([`PipelineError::Config`]);
    /// * an inconsistent [`controller`](PipelineConfig::controller) config
    ///   — zero tick or hysteresis, inverted lag thresholds, or any
    ///   per-knob bound with `min > max` ([`PipelineError::Config`]);
    /// * an inconsistent [`gateway`](PipelineConfig::gateway) config — an
    ///   empty bind address, zero workers, or a zero body cap
    ///   ([`PipelineError::Config`]).
    ///
    /// Called by `EdgeToCloudPipeline::start()` before any resource is
    /// provisioned; also usable directly on a hand-built config.
    pub fn validate(&self) -> Result<(), PipelineError> {
        if self.devices == 0 {
            return Err(PipelineError::Capacity("devices must be > 0".into()));
        }
        if self.processors == 0 {
            return Err(PipelineError::Capacity("processors must be > 0".into()));
        }
        if self.producer_threads == Some(0) {
            return Err(PipelineError::Config(
                "producer_threads must be > 0 when set (use None for the \
                 edge pilot's core count)"
                    .into(),
            ));
        }
        if self.compute_threads == Some(0) {
            return Err(PipelineError::Config(
                "compute_threads must be > 0 when set".into(),
            ));
        }
        if self.reactor_threads == Some(0) {
            return Err(PipelineError::Config(
                "reactor_threads must be > 0 when set (use None for the \
                 cloud pilot's core count)"
                    .into(),
            ));
        }
        if self.linger > Duration::ZERO && self.batch_max_bytes == 0 {
            return Err(PipelineError::Config(
                "linger requires batch_max_bytes > 0 (a linger window without \
                 batching would silently do nothing)"
                    .into(),
            ));
        }
        if self.telemetry_sample_ms == Some(0) {
            return Err(PipelineError::Config(
                "telemetry_sample_ms must be > 0 when set (use None to \
                 disable telemetry)"
                    .into(),
            ));
        }
        if self.log_dir.is_none() {
            if self.fsync_interval_ms.is_some() {
                return Err(PipelineError::Config(
                    "fsync_interval_ms requires log_dir (there is no durable \
                     log for the fsync window to apply to)"
                        .into(),
                ));
            }
            if self.fsync_batch_bytes.is_some() {
                return Err(PipelineError::Config(
                    "fsync_batch_bytes requires log_dir (there is no durable \
                     log for the early-kick threshold to apply to)"
                        .into(),
                ));
            }
        }
        if self.fsync_interval_ms == Some(0) {
            return Err(PipelineError::Config(
                "fsync_interval_ms must be > 0 when set (a zero commit \
                 window would fsync per append; omit it for the default)"
                    .into(),
            ));
        }
        if self.fsync_batch_bytes == Some(0) {
            return Err(PipelineError::Config(
                "fsync_batch_bytes must be > 0 when set (a zero threshold \
                 would kick the flusher on every append; omit it for the \
                 default)"
                    .into(),
            ));
        }
        if let Some(ctl) = &self.controller {
            ctl.validate().map_err(PipelineError::Config)?;
        }
        if let Some(gw) = &self.gateway {
            gw.validate()
                .map_err(|e| PipelineError::Config(format!("gateway: {e}")))?;
        }
        Ok(())
    }

    /// Resolve the durable-log knobs into the broker's
    /// [`DurabilityConfig`](pilot_broker::DurabilityConfig) — `None` when
    /// [`log_dir`](PipelineConfig::log_dir) is unset (the seed memory-only
    /// log). Assumes [`Self::validate`] passed.
    pub fn durability(&self) -> Option<pilot_broker::DurabilityConfig> {
        let dir = self.log_dir.as_ref()?;
        let (mut interval, mut batch_bytes) = match pilot_broker::SyncPolicy::group_commit_default()
        {
            pilot_broker::SyncPolicy::GroupCommit {
                interval,
                batch_bytes,
            } => (interval, batch_bytes),
            _ => unreachable!("default policy is group commit"),
        };
        if let Some(ms) = self.fsync_interval_ms {
            interval = Duration::from_millis(ms);
        }
        if let Some(b) = self.fsync_batch_bytes {
            batch_bytes = b;
        }
        Some(pilot_broker::DurabilityConfig::new(dir).with_policy(
            pilot_broker::SyncPolicy::GroupCommit {
                interval,
                batch_bytes,
            },
        ))
    }

    /// Validate and split into per-stage sub-configs.
    pub fn resolve(&self) -> Result<StageConfigs, PipelineError> {
        self.validate()?;
        Ok(StageConfigs {
            producer: ProducerConfig {
                devices: self.devices,
                reactor_threads: self.producer_threads,
                rate_per_device: self.rate_per_device,
                mode: self.mode,
            },
            transport: TransportConfig {
                codec: self.codec,
                batch_max_bytes: self.batch_max_bytes,
                linger: self.linger,
            },
            consumer: ConsumerConfig {
                processors: self.processors,
                prefetch_depth: self.prefetch_depth,
                fetch_max: self.fetch_max,
                reactor_threads: self.reactor_threads,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(PipelineConfig::default().validate().is_ok());
    }

    #[test]
    fn zero_devices_rejected() {
        let cfg = PipelineConfig {
            devices: 0,
            ..PipelineConfig::default()
        };
        assert!(matches!(cfg.validate(), Err(PipelineError::Capacity(_))));
    }

    #[test]
    fn zero_processors_rejected() {
        let cfg = PipelineConfig {
            processors: 0,
            ..PipelineConfig::default()
        };
        assert!(matches!(cfg.validate(), Err(PipelineError::Capacity(_))));
    }

    #[test]
    fn zero_producer_threads_rejected() {
        let cfg = PipelineConfig {
            producer_threads: Some(0),
            ..PipelineConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, PipelineError::Config(_)), "{err}");
        assert!(err.to_string().contains("producer_threads"));
    }

    #[test]
    fn zero_compute_threads_rejected() {
        let cfg = PipelineConfig {
            compute_threads: Some(0),
            ..PipelineConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, PipelineError::Config(_)), "{err}");
        assert!(err.to_string().contains("compute_threads"));
    }

    #[test]
    fn zero_reactor_threads_rejected() {
        let cfg = PipelineConfig {
            reactor_threads: Some(0),
            ..PipelineConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, PipelineError::Config(_)), "{err}");
        assert!(err.to_string().contains("reactor_threads"));
        let on = PipelineConfig {
            reactor_threads: Some(2),
            ..PipelineConfig::default()
        };
        assert!(on.validate().is_ok());
    }

    #[test]
    fn zero_telemetry_interval_rejected() {
        let cfg = PipelineConfig {
            telemetry_sample_ms: Some(0),
            ..PipelineConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, PipelineError::Config(_)), "{err}");
        assert!(err.to_string().contains("telemetry_sample_ms"));
        let on = PipelineConfig {
            telemetry_sample_ms: Some(5),
            ..PipelineConfig::default()
        };
        assert!(on.validate().is_ok());
    }

    #[test]
    fn fsync_knobs_require_log_dir() {
        for cfg in [
            PipelineConfig {
                fsync_interval_ms: Some(5),
                ..PipelineConfig::default()
            },
            PipelineConfig {
                fsync_batch_bytes: Some(1 << 20),
                ..PipelineConfig::default()
            },
        ] {
            let err = cfg.validate().unwrap_err();
            assert!(matches!(err, PipelineError::Config(_)), "{err}");
            assert!(err.to_string().contains("log_dir"), "{err}");
        }
    }

    #[test]
    fn zero_fsync_knobs_rejected() {
        let base = PipelineConfig {
            log_dir: Some(std::env::temp_dir().join("pilot-knob-test")),
            ..PipelineConfig::default()
        };
        assert!(base.validate().is_ok());
        assert!(base.durability().is_some());
        let cfg = PipelineConfig {
            fsync_interval_ms: Some(0),
            ..base.clone()
        };
        assert!(cfg.validate().is_err());
        let cfg = PipelineConfig {
            fsync_batch_bytes: Some(0),
            ..base
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn durability_resolves_knobs_onto_policy() {
        assert!(PipelineConfig::default().durability().is_none());
        let cfg = PipelineConfig {
            log_dir: Some(std::env::temp_dir().join("pilot-knob-test")),
            fsync_interval_ms: Some(7),
            fsync_batch_bytes: Some(4096),
            ..PipelineConfig::default()
        };
        let d = cfg.durability().unwrap();
        assert_eq!(
            d.policy,
            pilot_broker::SyncPolicy::GroupCommit {
                interval: Duration::from_millis(7),
                batch_bytes: 4096,
            }
        );
        // Unset knobs fall back to the engine default.
        let cfg = PipelineConfig {
            log_dir: Some(std::env::temp_dir().join("pilot-knob-test")),
            ..PipelineConfig::default()
        };
        assert_eq!(
            cfg.durability().unwrap().policy,
            pilot_broker::SyncPolicy::group_commit_default()
        );
    }

    #[test]
    fn inconsistent_controller_rejected() {
        use crate::control::{ControlBounds, ControllerConfig};
        let ok = PipelineConfig {
            controller: Some(ControllerConfig::default()),
            ..PipelineConfig::default()
        };
        assert!(ok.validate().is_ok());
        for bad in [
            ControllerConfig {
                tick: Duration::ZERO,
                ..ControllerConfig::default()
            },
            ControllerConfig {
                hysteresis: 0,
                ..ControllerConfig::default()
            },
            ControllerConfig {
                lag_low: 100,
                lag_bound: 10,
                ..ControllerConfig::default()
            },
            ControllerConfig {
                bounds: ControlBounds {
                    min_processors: 8,
                    max_processors: 2,
                    ..ControlBounds::default()
                },
                ..ControllerConfig::default()
            },
        ] {
            let cfg = PipelineConfig {
                controller: Some(bad),
                ..PipelineConfig::default()
            };
            let err = cfg.validate().unwrap_err();
            assert!(matches!(err, PipelineError::Config(_)), "{err}");
            assert!(err.to_string().contains("controller"), "{err}");
        }
    }

    #[test]
    fn linger_without_batching_rejected() {
        let cfg = PipelineConfig {
            linger: Duration::from_millis(2),
            ..PipelineConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, PipelineError::Config(_)), "{err}");
        assert!(err.to_string().contains("batch_max_bytes"));
    }

    #[test]
    fn linger_with_batching_accepted() {
        let cfg = PipelineConfig {
            linger: Duration::from_millis(2),
            batch_max_bytes: 64 * 1024,
            ..PipelineConfig::default()
        };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn resolve_maps_knobs_onto_stages() {
        let cfg = PipelineConfig {
            devices: 8,
            processors: 2,
            producer_threads: Some(3),
            batch_max_bytes: 1024,
            linger: Duration::from_millis(1),
            prefetch_depth: 2,
            reactor_threads: Some(4),
            ..PipelineConfig::default()
        };
        let stages = cfg.resolve().unwrap();
        assert_eq!(stages.producer.devices, 8);
        assert_eq!(stages.producer.reactor_threads, Some(3));
        assert!(stages.transport.batching());
        assert_eq!(stages.consumer.processors, 2);
        assert_eq!(stages.consumer.prefetch_depth, 2);
        assert_eq!(stages.consumer.reactor_threads, Some(4));
        let defaults = PipelineConfig::default().resolve().unwrap();
        assert!(!defaults.transport.batching());
        // Unset = sized from the edge / cloud pilot's cores at `start()`.
        assert_eq!(defaults.producer.reactor_threads, None);
        assert_eq!(defaults.consumer.reactor_threads, None);
    }
}
