//! Analytic capacity planning.
//!
//! The paper closes: "These insights provide valuable input for system
//! design and deployment, allowing an optimal resource layout"
//! (Section V). This module turns the measured insights into a predictive
//! tool: a bottleneck model of the pipeline as a four-stage tandem queue
//! (producers → edge-link → broker → cloud-link → processors) that
//! predicts throughput, the binding constraint, and the zero-queueing
//! latency floor for a configuration *without running it* — then lets the
//! application size pilots and pick deployments before paying for them.
//!
//! The prediction is intentionally first-order (capacity = min over
//! stages; latency = sum of service times): exactly the arithmetic a
//! deployment engineer does on a whiteboard, now executable and testable
//! against the simulator (`tests/planner.rs` validates predictions against
//! measured runs).

use pilot_datagen::Codec;
use pilot_netsim::LinkSpec;

/// What the planner needs to know about a prospective deployment.
#[derive(Debug, Clone)]
pub struct PlannerInput {
    /// Edge devices (= partitions; each producer is serial).
    pub devices: usize,
    /// Points per message.
    pub points: usize,
    /// Features per point.
    pub features: usize,
    /// Wire codec.
    pub codec: Codec,
    /// Seconds one device needs to produce + serialize one message.
    pub produce_secs: f64,
    /// Seconds one processor needs for one message (decode + model).
    pub process_secs: f64,
    /// Cloud consumer tasks.
    pub processors: usize,
    /// Edge → broker link.
    pub link_edge_broker: LinkSpec,
    /// Broker → cloud link.
    pub link_broker_cloud: LinkSpec,
    /// Offered per-device rate (msgs/s); 0 = unthrottled.
    pub rate_per_device: f64,
    /// Broker copy bandwidth in bytes/s (in-memory append+fetch); the
    /// default models a memcpy-bound in-process broker.
    pub broker_bytes_per_sec: f64,
}

impl PlannerInput {
    /// Reasonable defaults for the paper's workload shape; override the
    /// cost fields with measurements for real planning.
    pub fn new(devices: usize, points: usize) -> Self {
        Self {
            devices,
            points,
            features: 32,
            codec: Codec::F64,
            produce_secs: 1e-4,
            process_secs: 1e-4,
            processors: devices,
            link_edge_broker: pilot_netsim::profiles::cloud_local("e->b", 0),
            link_broker_cloud: pilot_netsim::profiles::cloud_local("b->c", 0),
            rate_per_device: 0.0,
            broker_bytes_per_sec: 2e9,
        }
    }

    /// Serialized message size under the configured codec.
    pub fn message_bytes(&self) -> usize {
        self.codec.serialized_size(self.points, self.features)
    }
}

/// One stage's capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct StageCapacity {
    /// Stage label ("producers", "edge->broker link", ...).
    pub stage: String,
    /// Maximum sustainable messages/second through this stage.
    pub capacity_msgs: f64,
}

/// The planner's verdict.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Per-stage capacities, pipeline order.
    pub stages: Vec<StageCapacity>,
    /// Offered load (∞ represented as `f64::INFINITY` when unthrottled).
    pub offered_msgs: f64,
    /// Predicted pipeline throughput: min(offered, stage capacities).
    pub throughput_msgs: f64,
    /// Predicted throughput in MB/s.
    pub throughput_mb: f64,
    /// The binding constraint ("offered load" if the workload is the limit).
    pub bottleneck: String,
    /// Zero-queueing latency floor per message, milliseconds.
    pub latency_floor_ms: f64,
}

/// Predict throughput, bottleneck, and the latency floor for a deployment.
pub fn predict(input: &PlannerInput) -> Prediction {
    let msg_bytes = input.message_bytes() as f64;
    let msg_bits = msg_bytes * 8.0;
    let link_cap = |l: &LinkSpec| {
        let bw = (l.bw_min_bps + l.bw_max_bps) / 2.0;
        if bw.is_finite() && bw > 0.0 {
            bw / msg_bits
        } else {
            f64::INFINITY
        }
    };
    let stages = vec![
        StageCapacity {
            stage: "producers".into(),
            capacity_msgs: if input.produce_secs > 0.0 {
                input.devices as f64 / input.produce_secs
            } else {
                f64::INFINITY
            },
        },
        StageCapacity {
            stage: "edge->broker link".into(),
            capacity_msgs: link_cap(&input.link_edge_broker),
        },
        StageCapacity {
            stage: "broker".into(),
            capacity_msgs: if input.broker_bytes_per_sec > 0.0 {
                input.broker_bytes_per_sec / msg_bytes
            } else {
                f64::INFINITY
            },
        },
        StageCapacity {
            stage: "broker->cloud link".into(),
            capacity_msgs: link_cap(&input.link_broker_cloud),
        },
        StageCapacity {
            stage: "processors".into(),
            capacity_msgs: if input.process_secs > 0.0 {
                input.processors as f64 / input.process_secs
            } else {
                f64::INFINITY
            },
        },
    ];
    let offered = if input.rate_per_device > 0.0 {
        input.rate_per_device * input.devices as f64
    } else {
        f64::INFINITY
    };
    let (bottleneck, min_cap) = stages
        .iter()
        .map(|s| (s.stage.clone(), s.capacity_msgs))
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .expect("non-empty stages");
    let (throughput_msgs, bottleneck) = if offered < min_cap {
        (offered, "offered load".to_string())
    } else {
        (min_cap, bottleneck)
    };
    // Latency floor: serial service through every stage, plus propagation.
    let transit = |l: &LinkSpec| l.expected_secs(msg_bytes as u64);
    let latency_floor_ms = (input.produce_secs
        + transit(&input.link_edge_broker)
        + msg_bytes / input.broker_bytes_per_sec.max(1.0)
        + transit(&input.link_broker_cloud)
        + input.process_secs)
        * 1e3;
    Prediction {
        stages,
        offered_msgs: offered,
        throughput_msgs,
        throughput_mb: throughput_msgs * msg_bytes / 1e6,
        bottleneck,
        latency_floor_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilot_netsim::profiles;

    #[test]
    fn wan_is_the_bottleneck_for_big_messages() {
        let mut input = PlannerInput::new(4, 10_000);
        input.link_edge_broker = profiles::transatlantic("wan", 0);
        let p = predict(&input);
        assert_eq!(p.bottleneck, "edge->broker link");
        // 80 Mbit/s mean over 2.56 MB messages ≈ 3.9 msgs/s.
        assert!(
            (p.throughput_msgs - 3.9).abs() < 0.3,
            "{}",
            p.throughput_msgs
        );
        assert!(p.latency_floor_ms > 70.0, "propagation floor");
    }

    #[test]
    fn slow_model_moves_bottleneck_to_processors() {
        let mut input = PlannerInput::new(4, 1_000);
        input.process_secs = 0.2; // auto-encoder-class cost
        let p = predict(&input);
        assert_eq!(p.bottleneck, "processors");
        assert!((p.throughput_msgs - 4.0 / 0.2).abs() < 1e-9);
    }

    #[test]
    fn throttled_load_caps_below_capacity() {
        let mut input = PlannerInput::new(2, 100);
        input.rate_per_device = 10.0;
        let p = predict(&input);
        assert_eq!(p.bottleneck, "offered load");
        assert_eq!(p.throughput_msgs, 20.0);
    }

    #[test]
    fn q16_codec_quadruples_wan_capacity() {
        let mut f64_in = PlannerInput::new(1, 5_000);
        f64_in.link_edge_broker = profiles::transatlantic("wan", 0);
        let mut q16_in = f64_in.clone();
        q16_in.codec = Codec::Q16;
        let pf = predict(&f64_in);
        let pq = predict(&q16_in);
        let ratio = pq.throughput_msgs / pf.throughput_msgs;
        assert!((3.5..=4.5).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn stage_list_is_pipeline_ordered() {
        let p = predict(&PlannerInput::new(1, 100));
        let names: Vec<&str> = p.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "producers",
                "edge->broker link",
                "broker",
                "broker->cloud link",
                "processors"
            ]
        );
    }
}
