//! The pipeline's stage gauges — the push/pull instrumentation points of
//! the live telemetry plane (DESIGN.md §11).
//!
//! When [`PipelineConfig::telemetry_sample_ms`] is set, `start()` registers
//! one [`Gauge`] per instrumentation point under a stable name in the job's
//! [`MetricsRegistry`] and stores the handles here. **Push** gauges are
//! updated inline by the stage that owns the state (deadline-queue and
//! credit-wait depth by the device tasks, prefetch occupancy by the
//! consumer) — one relaxed atomic add on a path that already crosses a
//! simulated network link. **Pull** gauges (link reservation queues and
//! credit, compute-pool occupancy, consumer lag, the pipeline topic's log)
//! are refreshed by `StageGauges::probes` closures the
//! [`TelemetrySampler`](pilot_metrics::TelemetrySampler) runs before each
//! snapshot, so the hot path never pays for state it does not own.
//!
//! With the knob unset, `Shared::gauges` is `None` and none of this exists:
//! no registry entries, no sampler thread, and every hot-path update is a
//! single pointer-null check (asserted zero-overhead in
//! `tests/telemetry.rs`).
//!
//! [`PipelineConfig::telemetry_sample_ms`]: crate::pipeline::PipelineConfig::telemetry_sample_ms

use super::Shared;
use pilot_metrics::{Gauge, MetricsRegistry, Probe};
use std::sync::Arc;

/// Stable gauge name: producer deadline-queue depth (device tasks parked on
/// a deadline — their next send time, their batch's linger expiry, or a
/// transfer's landing).
pub const GAUGE_PRODUCER_QUEUE_DEPTH: &str = "producer.deadline_queue_depth";
/// Stable gauge name: device tasks due to send but parked on the
/// edge→broker link's byte credit (the in-flight window binds).
pub const GAUGE_CREDIT_WAIT_DEPTH: &str = "producer.credit_wait_depth";
/// Stable gauge name: encoded bytes aboard in-flight producer batches
/// (reservation issued, messages not yet appended) — the edge→broker
/// link's byte credit in use.
pub const GAUGE_INFLIGHT_BATCH_BYTES: &str = "producer.inflight_batch_bytes";
/// Stable gauge name: batches in flight on the broker→cloud link ahead of
/// the one each consumer is waiting for or processing (the look-ahead
/// window in use, summed over all consumers; 0 at `prefetch_depth` 0).
pub const GAUGE_PREFETCH_OCCUPANCY: &str = "consumer.prefetch_occupancy";
/// Stable gauge name: jobs currently running inside the cloud compute pool.
pub const GAUGE_COMPUTE_POOL_OCCUPANCY: &str = "cloud.compute_pool_occupancy";
/// Stable gauge name: µs of transfer already reserved but not yet elapsed
/// on the edge→broker link (its queueing backlog).
pub const GAUGE_NET_EDGE_BROKER_PENDING: &str = "net.edge_broker.pending_us";
/// Stable gauge name: cumulative µs of transit reserved on the edge→broker
/// link since creation (its busy time).
pub const GAUGE_NET_EDGE_BROKER_BUSY: &str = "net.edge_broker.busy_us";
/// Stable gauge name: reservation backlog of the broker→cloud link.
pub const GAUGE_NET_BROKER_CLOUD_PENDING: &str = "net.broker_cloud.pending_us";
/// Stable gauge name: cumulative busy time of the broker→cloud link.
pub const GAUGE_NET_BROKER_CLOUD_BUSY: &str = "net.broker_cloud.busy_us";
/// Stable gauge name: total consumer-group lag (records behind the
/// watermarks, summed over partitions).
pub const GAUGE_BROKER_LAG_TOTAL: &str = "broker.lag.total";
/// Stable gauge name: reactor tasks queued ready to poll (consumer members
/// with data or an expired timer, waiting for a reactor thread).
pub const GAUGE_REACTOR_READY_DEPTH: &str = "consumer.reactor.ready_queue_depth";
/// Stable gauge name: cumulative µs the reactor threads spent inside task
/// polls (the reactor's busy time; compare against wall clock × threads
/// for utilisation).
pub const GAUGE_REACTOR_POLL_US: &str = "consumer.reactor.poll_us";
/// Stable gauge name: bytes appended to the durable broker log but not yet
/// covered by an fsync. Stays 0 when `log_dir` is unset.
pub const GAUGE_LOG_DIRTY_BYTES: &str = "broker.log.dirty_bytes";
/// Stable gauge name: cumulative µs the storage engine has spent inside
/// fsync — when this grows as fast as wall clock, the platter is the choke
/// point and the bottleneck attributor should say so.
pub const GAUGE_LOG_FSYNC_US: &str = "broker.log.fsync_us";
/// Stable gauge name: log segments across the pipeline topic's partitions
/// (resident and on-disk alike).
pub const GAUGE_LOG_SEGMENT_COUNT: &str = "broker.log.segment_count";
/// Stable gauge name: records appended to the pipeline topic but not yet
/// durable, summed over partitions (high watermark − durable watermark).
/// Bounded by one commit window of traffic when the group-commit flusher
/// keeps up.
pub const GAUGE_LOG_DURABLE_LAG: &str = "broker.log.durable_lag";
/// Stable gauge name: wire bytes the pipeline topic's logs still hold,
/// summed over partitions — what its consumer group has not yet
/// committed. It reads 0 once the run has drained, whatever other topics
/// the broker hosts.
pub const GAUGE_LOG_RETAINED_BYTES: &str = "broker.log.retained_bytes";

/// The pipeline's registered gauge handles. Lives in `Shared::gauges` (as
/// `Option<Arc<_>>`); `None` means telemetry is off and every hot-path
/// update short-circuits on the null check.
pub(crate) struct StageGauges {
    /// Device tasks parked on a deadline, summed over the cell.
    pub(crate) producer_queue_depth: Arc<Gauge>,
    /// Device tasks parked on the link's credit.
    pub(crate) credit_wait_depth: Arc<Gauge>,
    /// Look-ahead batches in flight ahead of the consumers' front batch.
    pub(crate) prefetch_occupancy: Arc<Gauge>,
    /// The edge→broker link's credit in use (pull).
    inflight_batch_bytes: Arc<Gauge>,
    /// Compute-pool occupancy (pull — refreshed by the sampler probe).
    compute_pool_occupancy: Arc<Gauge>,
    /// Link backlog / busy-time gauges (pull).
    net_edge_broker_pending: Arc<Gauge>,
    net_edge_broker_busy: Arc<Gauge>,
    net_broker_cloud_pending: Arc<Gauge>,
    net_broker_cloud_busy: Arc<Gauge>,
    /// Total consumer lag (pull).
    lag_total: Arc<Gauge>,
    /// Reactor ready-queue depth and cumulative poll time (pull).
    reactor_ready_depth: Arc<Gauge>,
    reactor_poll_us: Arc<Gauge>,
    /// Storage-engine gauges (pull; all but `segment_count` and
    /// `retained_bytes` stay zero unless the durable log is on).
    log_dirty_bytes: Arc<Gauge>,
    log_fsync_us: Arc<Gauge>,
    log_segment_count: Arc<Gauge>,
    log_durable_lag: Arc<Gauge>,
    log_retained_bytes: Arc<Gauge>,
}

impl StageGauges {
    /// Register every stage gauge under its stable name. Their number does
    /// not depend on the pipeline's shape, so neither does a frame's width.
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
        Self {
            producer_queue_depth: registry.gauge(GAUGE_PRODUCER_QUEUE_DEPTH),
            credit_wait_depth: registry.gauge(GAUGE_CREDIT_WAIT_DEPTH),
            inflight_batch_bytes: registry.gauge(GAUGE_INFLIGHT_BATCH_BYTES),
            prefetch_occupancy: registry.gauge(GAUGE_PREFETCH_OCCUPANCY),
            compute_pool_occupancy: registry.gauge(GAUGE_COMPUTE_POOL_OCCUPANCY),
            net_edge_broker_pending: registry.gauge(GAUGE_NET_EDGE_BROKER_PENDING),
            net_edge_broker_busy: registry.gauge(GAUGE_NET_EDGE_BROKER_BUSY),
            net_broker_cloud_pending: registry.gauge(GAUGE_NET_BROKER_CLOUD_PENDING),
            net_broker_cloud_busy: registry.gauge(GAUGE_NET_BROKER_CLOUD_BUSY),
            lag_total: registry.gauge(GAUGE_BROKER_LAG_TOTAL),
            reactor_ready_depth: registry.gauge(GAUGE_REACTOR_READY_DEPTH),
            reactor_poll_us: registry.gauge(GAUGE_REACTOR_POLL_US),
            log_dirty_bytes: registry.gauge(GAUGE_LOG_DIRTY_BYTES),
            log_fsync_us: registry.gauge(GAUGE_LOG_FSYNC_US),
            log_segment_count: registry.gauge(GAUGE_LOG_SEGMENT_COUNT),
            log_durable_lag: registry.gauge(GAUGE_LOG_DURABLE_LAG),
            log_retained_bytes: registry.gauge(GAUGE_LOG_RETAINED_BYTES),
        }
    }

    /// The sampler probes refreshing the pull gauges before each snapshot:
    /// link backlog, busy time and credit in use, compute-pool occupancy,
    /// consumer lag, reactor activity, and the pipeline topic's log. The
    /// probes capture the pipeline's `Shared` — the sampler is owned by
    /// `PipelineCtl`, not by `Shared`, so no reference cycle forms.
    pub(crate) fn probes(shared: &Arc<Shared>) -> Vec<Probe> {
        let links = Arc::clone(shared);
        let pool = Arc::clone(shared);
        let lag = Arc::clone(shared);
        let reactor = Arc::clone(shared);
        let storage = Arc::clone(shared);
        vec![
            Box::new(move || {
                let Some(g) = links.gauges.as_deref() else {
                    return;
                };
                g.net_edge_broker_pending
                    .set(links.link_edge_broker.pending_us() as i64);
                g.net_edge_broker_busy
                    .set(links.link_edge_broker.busy_us() as i64);
                g.net_broker_cloud_pending
                    .set(links.link_broker_cloud.pending_us() as i64);
                g.net_broker_cloud_busy
                    .set(links.link_broker_cloud.busy_us() as i64);
                g.inflight_batch_bytes
                    .set(links.credit.in_flight_bytes() as i64);
            }),
            Box::new(move || {
                let Some(g) = pool.gauges.as_deref() else {
                    return;
                };
                g.compute_pool_occupancy
                    .set(pool.ctx.compute.occupancy() as i64);
            }),
            Box::new(move || {
                let Some(g) = lag.gauges.as_deref() else {
                    return;
                };
                if let Ok(lags) = lag.broker.lag(&lag.group(), &lag.topic) {
                    g.lag_total.set(lags.iter().sum::<u64>() as i64);
                }
            }),
            Box::new(move || {
                let Some(g) = reactor.gauges.as_deref() else {
                    return;
                };
                g.reactor_ready_depth
                    .set(reactor.cloud_reactor.ready_depth());
                g.reactor_poll_us
                    .set(reactor.cloud_reactor.poll_time_us() as i64);
            }),
            Box::new(move || {
                let Some(g) = storage.gauges.as_deref() else {
                    return;
                };
                let Ok(topic) = storage.broker.topic(&storage.topic) else {
                    return;
                };
                let stats = topic.log_stats();
                g.log_dirty_bytes.set(stats.dirty_bytes as i64);
                g.log_fsync_us.set(stats.fsync_us as i64);
                g.log_segment_count.set(stats.segment_count as i64);
                g.log_durable_lag.set(stats.durable_lag as i64);
                g.log_retained_bytes.set(stats.retained_bytes as i64);
            }),
        ]
    }
}
