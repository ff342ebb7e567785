//! Validation of the flat [`PipelineConfig`]: `start()` checks it once and
//! the runtime keeps the validated config itself; the live knobs among its
//! fields seed the [`TuneTable`](super::TuneTable).

use crate::pipeline::{PipelineConfig, PipelineError};
use std::time::Duration;

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
        if let Some(ctl) = &self.controller {
            ctl.validate().map_err(PipelineError::Config)?;
        }
        if let Some(gw) = &self.gateway {
            gw.validate()
                .map_err(|e| PipelineError::Config(format!("gateway: {e}")))?;
        }
        Ok(())
    }

    /// The broker's [`DurabilityConfig`](pilot_broker::DurabilityConfig)
    /// for [`log_dir`](PipelineConfig::log_dir) with the engine's
    /// group-commit defaults — `None` when `log_dir` is unset (the seed
    /// memory-only log).
    pub fn durability(&self) -> Option<pilot_broker::DurabilityConfig> {
        self.log_dir
            .as_ref()
            .map(pilot_broker::DurabilityConfig::new)
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
    fn durability_is_log_dir_with_group_commit_defaults() {
        assert!(PipelineConfig::default().durability().is_none());
        let cfg = PipelineConfig {
            log_dir: Some(std::env::temp_dir().join("pilot-knob-test")),
            ..PipelineConfig::default()
        };
        assert!(cfg.validate().is_ok());
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
}
