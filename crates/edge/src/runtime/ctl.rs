//! The pipeline control surface: [`PipelineCtl`] (what monitor threads
//! observe and adapt) and [`RunningPipeline`] (what applications hold).
//!
//! Devices and consumer members are the same kind of thing here — reactor
//! task handles — so every shutdown path is one sequence: `wait()` lets
//! every task finish and drain; `abort()` raises `stop_all` and wakes both
//! reactors so tasks drain at their next poll; and *dropping* a mid-run
//! pipeline aborts and joins everything with a bounded grace period, so a
//! dropped handle cannot leak tasks or reactor threads.
//!
//! The ctl also holds the pipeline's one control journal: controller
//! decisions and operator tunes append to it, stamped on one clock (time
//! since the pipeline started).

use super::consumer::{spawn_members, Member};
use super::Shared;
use crate::control::{Action, Cause, ControlEvent, ControllerHandle};
use crate::faas::{CloudFactory, Context};
use crate::observe::Observability;
use crate::pipeline::PipelineError;
use crate::summary::RunSummary;
use parking_lot::Mutex;
use pilot_core::Pilot;
use pilot_dataflow::ReactorHandle;
use pilot_metrics::{PipelineReport, TelemetryFrame, TelemetrySampler};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The shared control surface of a running pipeline: everything a monitor
/// thread (the [`crate::control::Controller`]) needs to observe and adapt
/// it. Internal — applications hold a [`RunningPipeline`].
pub(crate) struct PipelineCtl {
    pub(crate) shared: Arc<Shared>,
    /// The pilots whose cores the two reactors stand for, each billed for
    /// its reactor's busy time when the reactors shut down (once).
    edge: Pilot,
    cloud: Pilot,
    billed: AtomicBool,
    /// Live members: name, per-member stop flag, reactor task handle.
    consumers: Mutex<Vec<Member>>,
    /// Members retired by a scale-down, joined at `wait()`/drop.
    retired: Mutex<Vec<ReactorHandle>>,
    next_member: AtomicUsize,
    /// The telemetry sampler thread, when `telemetry_sample_ms` is set;
    /// the [`RunningPipeline`]'s [`Observability`] stops it.
    telemetry: Option<Arc<TelemetrySampler>>,
    /// The journal clock's zero.
    started: Instant,
    /// Every applied control action, in the order applied.
    journal: Mutex<Vec<ControlEvent>>,
}

impl PipelineCtl {
    pub(crate) fn new(
        shared: Arc<Shared>,
        edge: Pilot,
        cloud: Pilot,
        telemetry: Option<Arc<TelemetrySampler>>,
    ) -> Self {
        Self {
            shared,
            edge,
            cloud,
            billed: AtomicBool::new(false),
            consumers: Mutex::new(Vec::new()),
            retired: Mutex::new(Vec::new()),
            next_member: AtomicUsize::new(0),
            telemetry,
            started: Instant::now(),
            journal: Mutex::new(Vec::new()),
        }
    }

    /// Time since the pipeline started: the clock of the control journal.
    pub(crate) fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Journal applied actions with their cause and the latest telemetry
    /// frame's gauge levels (empty when the telemetry plane is off). One
    /// call stamps one `at`; taking it under the lock keeps the journal in
    /// time order whoever appends.
    pub(crate) fn journal(&self, cause: Cause, actions: &[Action]) {
        let gauges: Vec<(String, i64)> = self
            .telemetry
            .as_ref()
            .and_then(|s| s.latest())
            .map(|f| f.values.iter().map(|(n, v)| (n.to_string(), *v)).collect())
            .unwrap_or_default();
        let mut journal = self.journal.lock();
        let at = self.elapsed();
        journal.extend(actions.iter().map(|action| ControlEvent {
            at,
            cause: cause.clone(),
            action: action.clone(),
            gauges: gauges.clone(),
        }));
    }

    /// The journal so far.
    pub(crate) fn journal_events(&self) -> Vec<ControlEvent> {
        self.journal.lock().clone()
    }

    /// Add `n` consumer members, named in spawn order, through
    /// [`spawn_members`]: one rebalance, then one task each on the
    /// pipeline's cloud reactor.
    pub(crate) fn spawn_consumers(&self, n: usize) -> Result<(), PipelineError> {
        let members: Vec<String> = (0..n)
            .map(|_| {
                format!(
                    "processor-{}",
                    self.next_member.fetch_add(1, Ordering::Relaxed)
                )
            })
            .collect();
        let spawned = spawn_members(&self.shared, members).map_err(PipelineError::Task)?;
        self.consumers.lock().extend(spawned);
        Ok(())
    }

    /// Re-queue every parked member so it observes freshly raised stop
    /// flags or a new group generation (a member parked on the arrival
    /// registry is only woken by data otherwise).
    pub(crate) fn wake_reactor(&self) {
        self.shared.cloud_reactor.wake_all();
    }

    /// Join both reactors' threads (every task has settled) and bill the
    /// time they spent inside polls to the pilot whose cores they stand
    /// for — what the pilots' energy accounting sees of the pipeline's
    /// work. Idempotent: only the first call bills.
    fn shutdown_reactors(&self) {
        let shared = &self.shared;
        shared.edge_reactor.shutdown();
        shared.cloud_reactor.shutdown();
        if !self.billed.swap(true, Ordering::Relaxed) {
            for (pilot, reactor) in [
                (&self.edge, &shared.edge_reactor),
                (&self.cloud, &shared.cloud_reactor),
            ] {
                pilot.record_busy(Duration::from_micros(reactor.poll_time_us()));
            }
        }
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
    /// controller's bottleneck verdict waits for its first frames).
    pub(crate) fn telemetry_sampler(&self) -> Option<&TelemetrySampler> {
        self.telemetry.as_deref()
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
/// aborts the run: every task is stopped at its next poll, drains (batch
/// flush, sentinel append, group leave), and is joined with a bounded grace
/// period — no threads outlive the drop.
pub struct RunningPipeline {
    pub(crate) ctl: Arc<PipelineCtl>,
    /// One task per edge device, in device order.
    pub(crate) producers: Vec<ReactorHandle>,
    /// The feedback controller, when [`PipelineConfig::controller`] is set.
    ///
    /// [`PipelineConfig::controller`]: crate::pipeline::PipelineConfig::controller
    pub(crate) controller: Option<ControllerHandle>,
    /// The telemetry sampler and, when [`PipelineConfig::gateway`] is set,
    /// the observability gateway. Lives here (not in [`PipelineCtl`]): the
    /// gateway's handlers capture `Arc<PipelineCtl>`, so storing it inside
    /// the ctl would cycle.
    ///
    /// [`PipelineConfig::gateway`]: crate::pipeline::PipelineConfig::gateway
    pub(crate) observed: Observability,
}

impl RunningPipeline {
    /// The bound address of the observability gateway, when
    /// [`PipelineConfig::gateway`] is set (resolves `:0` ephemeral ports).
    ///
    /// [`PipelineConfig::gateway`]: crate::pipeline::PipelineConfig::gateway
    pub fn gateway_addr(&self) -> Option<std::net::SocketAddr> {
        self.observed.gateway_addr()
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

    /// The pipeline's control journal: every action the controller or an
    /// operator (the gateway's `POST /control/tune`) applied, in order, with
    /// its cause and the gauge snapshot at decision time, stamped on one
    /// clock. Empty when nothing tuned the pipeline (the default with no
    /// controller — asserted zero-footprint in `tests/control.rs`).
    pub fn control_events(&self) -> Vec<ControlEvent> {
        self.ctl.journal_events()
    }

    /// The live knob table shared with the stages: batch threshold,
    /// linger, prefetch depth, fetch budget. Writes take effect within one
    /// stage round; the controller and the gateway write the same cells.
    pub fn tune(&self) -> Arc<crate::runtime::TuneTable> {
        Arc::clone(&self.ctl.shared.tune)
    }

    /// Linked metrics for this job so far (usable mid-run).
    pub fn report(&self) -> PipelineReport {
        self.ctl.shared.metrics().report_for_job(self.job_id())
    }

    /// Telemetry frames sampled so far (usable mid-run). Each frame is one
    /// timestamped snapshot of every stage gauge — deadline-queue depth,
    /// in-flight batch bytes, prefetch occupancy, total lag, link
    /// backlog/busy time, compute-pool occupancy — taken every
    /// `telemetry_sample_ms` milliseconds. Empty when the telemetry plane
    /// is off (the default). Feed these and the span stream to
    /// [`pilot_metrics::chrome_trace_json`] for a Perfetto-loadable trace
    /// with gauge counter tracks.
    pub fn telemetry(&self) -> Vec<TelemetryFrame> {
        self.observed
            .sampler()
            .map(|s| s.frames())
            .unwrap_or_default()
    }

    /// The telemetry sampler, when `telemetry_sample_ms` was set: its
    /// `latest()` frame costs one frame's copy where
    /// [`RunningPipeline::telemetry`] copies the whole ring.
    pub fn sampler(&self) -> Option<&TelemetrySampler> {
        self.observed.sampler()
    }

    /// Stop everything without waiting for stream completion.
    pub fn abort(&self) {
        self.ctl.shared.stop();
    }

    /// Stop every stage and join its tasks — devices, live members, members
    /// retired by a scale-down — until `deadline` (each task gets at least
    /// 100 ms past it). Stopped tasks drain: devices flush and append their
    /// sentinels, members leave the group. The first task error is the
    /// run's; a task that does not settle in time is a timeout.
    fn stop_and_join(&mut self, deadline: Instant) -> Result<(), PipelineError> {
        // Dropping the controller's handle stops and joins its thread.
        drop(self.controller.take());
        self.ctl.shared.stop();
        let consumers = std::mem::take(&mut *self.ctl.consumers.lock());
        let retired = std::mem::take(&mut *self.ctl.retired.lock());
        let handles = self
            .producers
            .iter()
            .chain(consumers.iter().map(|(_, _, handle)| handle))
            .chain(&retired);
        let mut failure = None;
        for handle in handles {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match handle.wait_timeout(remaining.max(Duration::from_millis(100))) {
                None => return Err(PipelineError::Timeout),
                Some(Err(e)) => {
                    failure.get_or_insert(PipelineError::Task(format!("{}: {e}", handle.name())));
                }
                Some(Ok(_)) => {}
            }
        }
        failure.map_or(Ok(()), Err)
    }

    /// Once every task has settled: join the reactor threads, so no pool
    /// thread outlives the run, then shut the observability plane down
    /// (its sampler's final frame records the quiesced gauge levels).
    fn shutdown(&mut self) {
        self.ctl.shutdown_reactors();
        self.observed.shutdown();
    }

    /// Wait for the run to complete: producers finish their streams,
    /// consumers drain every partition's sentinel. Returns the run summary.
    /// A task that failed or panicked ends the run with its error.
    pub fn wait(mut self, timeout: Duration) -> Result<RunSummary, PipelineError> {
        let deadline = Instant::now() + timeout;
        let ctl = Arc::clone(&self.ctl);
        let shared = &ctl.shared;
        // A task that failed cleanly has raised the stop flag itself; one
        // that panicked only shows in its reactor's failure count.
        let halted = || {
            shared.stopping()
                || shared.edge_reactor.failed_count() + shared.cloud_reactor.failed_count() > 0
        };
        // 1. Devices stream to their sentinels. Blocking on their handles
        // costs nothing while they run; the periodic look is what notices
        // a failed consumer before the streams end.
        for device in &self.producers {
            while !(device.is_finished() || halted()) {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    self.abort();
                    return Err(PipelineError::Timeout);
                }
                device.wait_timeout(remaining.min(Duration::from_millis(50)));
            }
        }
        // 2. Members drain every partition's sentinel.
        while !(self.ctl.all_done() || halted()) {
            if Instant::now() >= deadline {
                self.abort();
                return Err(PipelineError::Timeout);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // 3. Stop what still runs and join every task. The span store is
        // not complete until the last one — a retired member may still be
        // inside its last poll — has finished.
        self.stop_and_join(deadline)?;
        self.shutdown();
        let ctx = &shared.ctx;
        Ok(RunSummary::from_report(
            ctx.job_id,
            ctx.metrics.report_for_job(ctx.job_id),
            ctx.counter("outliers_detected").get(),
        ))
    }
}

impl Drop for RunningPipeline {
    /// Abort-and-join: stop the controller, raise `stop_all`, wake both
    /// reactors, and give the tasks a bounded grace period to drain. After
    /// a completed [`RunningPipeline::wait`] every task is already settled
    /// and this is instantaneous; after a mid-run drop the stages drain
    /// (producers flush batches and append their sentinels, the sentinel
    /// count is conserved) and the reactor threads are joined, so the
    /// pilots' cores are free for the next pipeline.
    fn drop(&mut self) {
        const GRACE: Duration = Duration::from_secs(5);
        let _ = self.stop_and_join(Instant::now() + GRACE);
        self.shutdown();
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
