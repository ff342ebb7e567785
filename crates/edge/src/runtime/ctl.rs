//! The pipeline control surface: [`PipelineCtl`] (what monitor threads
//! observe and adapt) and [`RunningPipeline`] (what applications hold).
//!
//! Shutdown paths all converge on the stage lifecycle: `wait()` lets every
//! stage finish and drain; `abort()` raises `stop_all` so stages drain at
//! their next step boundary; and *dropping* a mid-run pipeline now aborts
//! and joins everything with a bounded grace period, so a dropped handle
//! cannot leak producer tasks or reactor threads.

use super::consumer::ConsumerStage;
use super::Shared;
use crate::faas::{CloudFactory, Context};
use crate::pipeline::PipelineError;
use crate::summary::RunSummary;
use parking_lot::Mutex;
use pilot_core::Pilot;
use pilot_dataflow::{ReactorHandle, TaskFuture};
use pilot_metrics::{PipelineReport, TelemetryFrame, TelemetrySampler};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The shared control surface of a running pipeline: everything a monitor
/// thread (the [`crate::control::Controller`]) needs to observe and adapt
/// it. Internal — applications hold a [`RunningPipeline`].
pub(crate) struct PipelineCtl {
    pub(crate) shared: Arc<Shared>,
    /// The cloud pilot, billed for the reactor's busy time: the reactor
    /// threads stand for its cores, though they are not its task slots.
    cloud: Pilot,
    /// Reactor poll time already billed to `cloud`, in microseconds.
    billed_us: AtomicU64,
    /// Live members: name, per-member stop flag, reactor task handle.
    consumers: Mutex<Vec<(String, Arc<AtomicBool>, ReactorHandle)>>,
    /// Members retired by a scale-down, joined at `wait()`/drop.
    retired: Mutex<Vec<ReactorHandle>>,
    next_member: AtomicUsize,
    /// The telemetry sampler thread, when `telemetry_sample_ms` is set.
    /// Stopped explicitly at the end of `wait()` (so the final frame sees
    /// the drained gauge levels) and implicitly by its own `Drop`.
    telemetry: Option<TelemetrySampler>,
}

impl PipelineCtl {
    pub(crate) fn new(
        shared: Arc<Shared>,
        cloud: Pilot,
        telemetry: Option<TelemetrySampler>,
    ) -> Self {
        Self {
            shared,
            cloud,
            billed_us: AtomicU64::new(0),
            consumers: Mutex::new(Vec::new()),
            retired: Mutex::new(Vec::new()),
            next_member: AtomicUsize::new(0),
            telemetry,
        }
    }

    /// Add `n` consumer members. All of them join the group in **one**
    /// coordinator rebalance — O(n), where n sequential joins cost O(n²)
    /// assignment writes (minutes at 64k members) — and *before* any of
    /// their tasks is spawned, so a member's first poll already sees the
    /// final assignment (no startup rebalance, no redelivery). Each member
    /// then runs as a task on the pipeline's reactor.
    pub(crate) fn spawn_consumers(&self, n: usize) -> Result<(), PipelineError> {
        let members: Vec<String> = (0..n)
            .map(|_| {
                format!(
                    "processor-{}",
                    self.next_member.fetch_add(1, Ordering::Relaxed)
                )
            })
            .collect();
        self.shared.coordinator.join_many(&members);
        for member in members {
            let stop = Arc::new(AtomicBool::new(false));
            let stage =
                ConsumerStage::new(Arc::clone(&self.shared), member.clone(), Arc::clone(&stop))
                    .map_err(PipelineError::Task)?;
            let handle = self
                .shared
                .reactor
                .spawn(&format!("process-cloud-{member}"), Box::new(stage));
            self.consumers.lock().push((member, stop, handle));
        }
        Ok(())
    }

    /// Re-queue every parked member so it observes freshly raised stop
    /// flags or a new group generation (a member parked on the arrival
    /// registry is only woken by data otherwise).
    pub(crate) fn wake_reactor(&self) {
        self.shared.reactor.wake_all();
    }

    /// Join the reactor threads (every member has settled) and bill the
    /// time they spent inside member polls to the cloud pilot — what the
    /// pilot's energy accounting sees of consumer work. Idempotent: a
    /// second call bills only what accrued since the first (nothing).
    fn shutdown_reactor(&self) {
        self.shared.reactor.shutdown();
        let total = self.shared.reactor.poll_time_us();
        let billed = self.billed_us.swap(total, Ordering::Relaxed);
        self.cloud
            .record_busy(Duration::from_micros(total.saturating_sub(billed)));
    }

    pub(crate) fn processor_count(&self) -> usize {
        self.consumers.lock().len()
    }

    /// Total consumer-group lag (records behind the watermarks).
    pub(crate) fn total_lag(&self) -> u64 {
        self.shared
            .broker
            .lag(&self.shared.group(), &self.shared.topic)
            .map(|v| v.iter().sum())
            .unwrap_or(0)
    }

    pub(crate) fn is_stopped(&self) -> bool {
        self.shared.stopping()
    }

    pub(crate) fn all_done(&self) -> bool {
        self.shared.sentinels.all_done()
    }

    /// The telemetry sampler, when the telemetry plane is on (the
    /// controller reads frames and attribution input through this).
    pub(crate) fn telemetry_sampler(&self) -> Option<&TelemetrySampler> {
        self.telemetry.as_ref()
    }

    pub(crate) fn scale_processors(&self, n: usize) -> Result<(), PipelineError> {
        if n == 0 {
            return Err(PipelineError::Capacity(
                "cannot scale processors to 0".into(),
            ));
        }
        loop {
            let current = self.consumers.lock().len();
            if current == n {
                // One wake for the whole scale event: parked members
                // re-sync against the new generation instead of waiting
                // for data (or the idle backstop) to surface it.
                self.wake_reactor();
                // Keep the tune-table mirror in step for observers.
                self.shared.tune.set_processors(n);
                return Ok(());
            }
            if current < n {
                self.spawn_consumers(1)?;
            } else {
                let (_, stop, handle) = self.consumers.lock().pop().expect("non-empty");
                stop.store(true, Ordering::Relaxed);
                self.wake_reactor();
                self.retired.lock().push(handle);
            }
        }
    }
}

/// A live pipeline. Obtain via [`crate::pipeline::EdgeToCloudPipeline::start`].
///
/// Dropping a `RunningPipeline` without calling [`RunningPipeline::wait`]
/// aborts the run: every stage is stopped at its next step boundary,
/// drains (batch flush, sentinel append, group leave), and is joined with
/// a bounded grace period — no threads outlive the drop.
pub struct RunningPipeline {
    pub(crate) ctl: Arc<PipelineCtl>,
    producers: Vec<TaskFuture>,
    /// The attached feedback controller (`attach_controller` /
    /// `PipelineConfig::controller`). One slot: attaching replaces the
    /// previous one. `Arc`'d so the gateway's `/control/journal` handler
    /// can read the journal without holding a `RunningPipeline` reference.
    pub(crate) scaler: Arc<Mutex<Option<crate::control::ControllerHandle>>>,
    /// The observability gateway, when [`PipelineConfig::gateway`] is set.
    /// Lives here (not in [`PipelineCtl`]): its handlers capture
    /// `Arc<PipelineCtl>`, so storing it inside the ctl would cycle.
    ///
    /// [`PipelineConfig::gateway`]: crate::pipeline::PipelineConfig::gateway
    gateway: Mutex<Option<pilot_gateway::Gateway>>,
}

impl RunningPipeline {
    pub(crate) fn new(ctl: Arc<PipelineCtl>, producers: Vec<TaskFuture>) -> Self {
        Self {
            ctl,
            producers,
            scaler: Arc::new(Mutex::new(None)),
            gateway: Mutex::new(None),
        }
    }

    pub(crate) fn install_gateway(&self, gateway: pilot_gateway::Gateway) {
        *self.gateway.lock() = Some(gateway);
    }

    /// The bound address of the observability gateway, when
    /// [`PipelineConfig::gateway`] is set (resolves `:0` ephemeral ports).
    ///
    /// [`PipelineConfig::gateway`]: crate::pipeline::PipelineConfig::gateway
    pub fn gateway_addr(&self) -> Option<std::net::SocketAddr> {
        self.gateway.lock().as_ref().map(|g| g.addr())
    }

    /// A handle to the broker carrying this pipeline's topic (the gateway's
    /// `POST /produce` appends through the same handle; tests fetch records
    /// back to verify ingestion).
    pub fn broker(&self) -> pilot_broker::Broker {
        self.ctl.shared.broker.clone()
    }

    /// The job id linking this run's metrics.
    pub fn job_id(&self) -> u64 {
        self.ctl.shared.ctx.job_id
    }

    /// The context shared with the FaaS functions.
    pub fn context(&self) -> &Context {
        &self.ctl.shared.ctx
    }

    /// The broker topic carrying this pipeline's data.
    pub fn topic(&self) -> &str {
        &self.ctl.shared.topic
    }

    /// Current consumer-pool size.
    pub fn processor_count(&self) -> usize {
        self.ctl.processor_count()
    }

    /// Total consumer-group lag: records produced but not yet consumed.
    /// The controller's input signal; also useful for dashboards.
    pub fn lag(&self) -> u64 {
        self.ctl.total_lag()
    }

    /// Hot-swap the cloud-processing function (paper Section II-D). Every
    /// consumer re-instantiates from the new factory before its next
    /// message. Returns the new function generation.
    pub fn replace_cloud_function(&self, factory: CloudFactory) -> u64 {
        self.ctl.shared.cloud_slot.replace(factory)
    }

    /// Scale the consumer pool to `n` members at runtime; partitions are
    /// rebalanced across the new member set. A partition changes hands
    /// between batches — its new owner waits for the batch the old owner
    /// is processing to be committed — so the resize itself delivers
    /// nothing twice (delivery stays at-least-once, as in Kafka, for
    /// members that fail mid-batch).
    pub fn scale_processors(&self, n: usize) -> Result<(), PipelineError> {
        self.ctl.scale_processors(n)
    }

    /// Attach the feedback controller (DESIGN.md §15), closing the
    /// telemetry→knob loop over this pipeline. Replaces any previously
    /// attached controller. Called automatically by the
    /// runtime when [`PipelineConfig::controller`] is set.
    ///
    /// [`PipelineConfig::controller`]: crate::pipeline::PipelineConfig::controller
    pub fn attach_controller(&self, config: crate::control::ControllerConfig) {
        let handle = crate::control::Controller::spawn(Arc::clone(&self.ctl), config);
        if let Some(old) = self.scaler.lock().replace(handle) {
            old.stop();
        }
    }

    /// The attached control loop's full action journal: every applied
    /// action with its cause, knob levels before/after, and the gauge
    /// snapshot at decision time. Empty when no controller is attached
    /// (the default — asserted zero-footprint in `tests/control.rs`).
    pub fn control_events(&self) -> Vec<crate::control::ControlEvent> {
        self.scaler
            .lock()
            .as_ref()
            .map(|s| s.events())
            .unwrap_or_default()
    }

    /// The live knob table shared with the stages: batch threshold,
    /// linger, prefetch depth, fetch budget. Writes take effect within one
    /// stage round; an attached controller writes the same cells.
    pub fn tune(&self) -> Arc<crate::runtime::TuneTable> {
        Arc::clone(&self.ctl.shared.tune)
    }

    /// Linked metrics for this job so far (usable mid-run).
    pub fn report(&self) -> PipelineReport {
        self.ctl.shared.metrics().report_for_job(self.job_id())
    }

    /// Telemetry frames sampled so far (usable mid-run). Each frame is one
    /// timestamped snapshot of every stage gauge — deadline-queue depth,
    /// in-flight batch bytes, prefetch occupancy, per-partition lag, link
    /// backlog/busy time, compute-pool occupancy — taken every
    /// `telemetry_sample_ms` milliseconds. Empty when the telemetry plane
    /// is off (the default). Feed these and the span stream to
    /// [`pilot_metrics::attribute`] for an online bottleneck attribution,
    /// or to [`pilot_metrics::chrome_trace_json`] for a Perfetto-loadable
    /// trace with gauge counter tracks.
    pub fn telemetry(&self) -> Vec<TelemetryFrame> {
        self.ctl
            .telemetry
            .as_ref()
            .map(|s| s.frames())
            .unwrap_or_default()
    }

    /// Stop everything without waiting for stream completion.
    pub fn abort(&self) {
        self.ctl.shared.stop_all.store(true, Ordering::Relaxed);
        self.ctl.wake_reactor();
    }

    /// Wait for the run to complete: producers finish their streams,
    /// consumers drain every partition's sentinel. Returns the run summary.
    pub fn wait(self, timeout: Duration) -> Result<RunSummary, PipelineError> {
        let deadline = Instant::now() + timeout;
        // 1. Producers run to end-of-stream.
        for fut in &self.producers {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match fut.wait_timeout(remaining) {
                None => {
                    self.abort();
                    return Err(PipelineError::Timeout);
                }
                Some(Err(e)) => {
                    self.abort();
                    return Err(PipelineError::Task(e.to_string()));
                }
                Some(Ok(_)) => {}
            }
        }
        // 2. Consumers drain all partitions (skipped when the run was
        // aborted — consumers exit on `stop_all` without draining).
        while !self.ctl.all_done() && !self.ctl.is_stopped() {
            if Instant::now() >= deadline {
                self.abort();
                return Err(PipelineError::Timeout);
            }
            // Surface consumer crashes instead of spinning to timeout.
            for (_, _, handle) in self.ctl.consumers.lock().iter() {
                if handle.is_finished() {
                    if let Some(Err(e)) = handle.wait_timeout(Duration::ZERO) {
                        self.abort();
                        return Err(PipelineError::Task(e));
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // 3. Shut the pool down and collect.
        if let Some(scaler) = self.scaler.lock().take() {
            scaler.stop();
        }
        self.ctl.shared.stop_all.store(true, Ordering::Relaxed);
        self.ctl.wake_reactor();
        let consumers = std::mem::take(&mut *self.ctl.consumers.lock());
        for (_, _, handle) in consumers {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if handle
                .wait_timeout(remaining.max(Duration::from_millis(100)))
                .is_none()
            {
                return Err(PipelineError::Timeout);
            }
        }
        // Retired members (scale-downs) may still be inside their last
        // poll; the span store is not complete until they finish. Join
        // them under the same deadline as live members.
        for handle in std::mem::take(&mut *self.ctl.retired.lock()) {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match handle.wait_timeout(remaining.max(Duration::from_millis(100))) {
                None => return Err(PipelineError::Timeout),
                Some(Err(e)) => return Err(PipelineError::Task(e)),
                Some(Ok(_)) => {}
            }
        }
        // Every reactor task is settled; join the reactor threads now so
        // a completed wait() leaves no pool threads behind.
        self.ctl.shutdown_reactor();
        // The gateway goes down before the sampler: its SSE streams poll
        // the sampler, and shutdown() joins the worker threads, so no
        // handler can observe a stopped telemetry plane.
        if let Some(mut gw) = self.gateway.lock().take() {
            gw.shutdown();
        }
        // Stop the sampler after every stage drained, so its final frame
        // records the quiesced gauge levels (zero depth, zero in-flight).
        if let Some(t) = &self.ctl.telemetry {
            t.stop();
        }
        let ctx = &self.ctl.shared.ctx;
        Ok(RunSummary::from_report(
            ctx.job_id,
            ctx.metrics.report_for_job(ctx.job_id),
            ctx.counter("outliers_detected").get(),
        ))
    }
}

impl Drop for RunningPipeline {
    /// Abort-and-join: stop the scaler, raise `stop_all`, flag every
    /// consumer, and give each task a bounded grace period to drain. After
    /// a completed [`RunningPipeline::wait`] every future is already
    /// settled and this is instantaneous; after a mid-run drop the stages
    /// drain (producers flush batches and append their sentinels, the
    /// sentinel count is conserved) and their pilot cores free up for the
    /// next pipeline.
    fn drop(&mut self) {
        const GRACE: Duration = Duration::from_secs(5);
        if let Some(mut gw) = self.gateway.lock().take() {
            gw.shutdown();
        }
        if let Some(scaler) = self.scaler.lock().take() {
            scaler.stop();
        }
        self.ctl.shared.stop_all.store(true, Ordering::Relaxed);
        let consumers = std::mem::take(&mut *self.ctl.consumers.lock());
        for (_, stop, _) in &consumers {
            stop.store(true, Ordering::Relaxed);
        }
        self.ctl.wake_reactor();
        for fut in self.producers.drain(..) {
            let _ = fut.wait_timeout(GRACE);
        }
        for (_, _, handle) in consumers {
            let _ = handle.wait_timeout(GRACE);
        }
        for handle in std::mem::take(&mut *self.ctl.retired.lock()) {
            let _ = handle.wait_timeout(GRACE);
        }
        self.ctl.shutdown_reactor();
        if let Some(t) = &self.ctl.telemetry {
            t.stop();
        }
    }
}

impl std::fmt::Debug for RunningPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunningPipeline")
            .field("job_id", &self.job_id())
            .field("topic", &self.ctl.shared.topic)
            .field("processors", &self.processor_count())
            .finish()
    }
}
