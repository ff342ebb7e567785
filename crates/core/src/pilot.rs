//! The pilot: a placeholder job owning resources and hosting frameworks.

use crate::backend::ResourceBackend;
use crate::description::PilotDescription;
use crate::error::PilotError;
use crate::queue::QueueSlot;
use crate::state::PilotState;
use parking_lot::{Condvar, Mutex};
use pilot_broker::Broker;
use pilot_dataflow::{Client, LocalExecutor};
use pilot_metrics::EnergyModel;
use pilot_params::ParameterServer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct PilotInner {
    state: Mutex<PilotState>,
    state_changed: Condvar,
    /// The executor compute units run on, one thread per core; built by
    /// the first [`Pilot::client`], so a pilot that only hosts frameworks
    /// (a pipeline's reactors, a broker) never spawns it.
    units: Mutex<Option<Arc<LocalExecutor>>>,
    slot: Mutex<Option<QueueSlot>>,
    activated_at: Mutex<Option<Instant>>,
    failure: Mutex<Option<String>>,
    broker: Mutex<Option<Broker>>,
    params: Mutex<Option<ParameterServer>>,
    /// Busy time billed through [`Pilot::record_busy`].
    hosted_busy_ns: AtomicU64,
}

/// A pilot job. Obtain from [`crate::PilotComputeService::create_pilot`];
/// share freely (`Arc` inside).
#[derive(Clone)]
pub struct Pilot {
    id: u64,
    desc: PilotDescription,
    inner: Arc<PilotInner>,
}

impl Pilot {
    pub(crate) fn new(id: u64, desc: PilotDescription) -> Self {
        Self {
            id,
            desc,
            inner: Arc::new(PilotInner {
                state: Mutex::new(PilotState::New),
                state_changed: Condvar::new(),
                units: Mutex::new(None),
                slot: Mutex::new(None),
                activated_at: Mutex::new(None),
                failure: Mutex::new(None),
                broker: Mutex::new(None),
                params: Mutex::new(None),
                hosted_busy_ns: AtomicU64::new(0),
            }),
        }
    }

    /// Unique id within its service.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The description this pilot was created from.
    pub fn description(&self) -> &PilotDescription {
        &self.desc
    }

    /// The site the pilot lives on.
    pub fn site(&self) -> &str {
        &self.desc.site
    }

    /// Current state.
    pub fn state(&self) -> PilotState {
        *self.inner.state.lock()
    }

    /// Failure message, if the pilot failed.
    pub fn failure(&self) -> Option<String> {
        self.inner.failure.lock().clone()
    }

    /// Attempt a state transition; returns false (and leaves the state) if
    /// it would be illegal.
    pub(crate) fn transition(&self, next: PilotState) -> bool {
        let mut st = self.inner.state.lock();
        if !st.can_transition_to(next) {
            return false;
        }
        *st = next;
        self.inner.state_changed.notify_all();
        true
    }

    /// Drive the provisioning lifecycle on the calling thread (the service
    /// spawns this in the background).
    pub(crate) fn run_lifecycle(&self, backend: Arc<dyn ResourceBackend>) {
        if !self.transition(PilotState::Submitted) {
            return; // cancelled before submission
        }
        if !self.transition(PilotState::Queued) {
            return;
        }
        let provisioned = match backend.provision(&self.desc) {
            Ok(p) => p,
            Err(e) => {
                *self.inner.failure.lock() = Some(e.to_string());
                self.transition(PilotState::Failed);
                return;
            }
        };
        if !provisioned.boot_delay.is_zero() {
            std::thread::sleep(provisioned.boot_delay);
        }
        // The pilot may have been cancelled while queued/booting.
        {
            let mut slot = self.inner.slot.lock();
            *slot = provisioned.slot;
        }
        // Activation books capacity and spawns nothing: the cores are
        // lent to whatever the pilot hosts, when it hosts it.
        if !self.transition(PilotState::Active) {
            // Cancelled during boot: give the queue slot back.
            self.inner.slot.lock().take();
        }
        *self.inner.activated_at.lock() = Some(Instant::now());
    }

    /// Block until the pilot reaches `target` (or any terminal state), up
    /// to `timeout`.
    pub fn wait_state(&self, target: PilotState, timeout: Duration) -> Result<(), PilotError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state.lock();
        loop {
            if *st == target {
                return Ok(());
            }
            if st.is_terminal() {
                return Err(PilotError::NotActive(*st));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(PilotError::Timeout);
            }
            self.inner.state_changed.wait_for(&mut st, deadline - now);
        }
    }

    /// Convenience: wait until Active.
    pub fn wait_active(&self, timeout: Duration) -> Result<(), PilotError> {
        self.wait_state(PilotState::Active, timeout)
    }

    /// A client submitting compute units to this pilot (Active only): at
    /// most `cores` units run at once, the rest start in submission order.
    /// The executor they run on is built here, at the first call: a pilot
    /// nobody submits to never spawns a thread. Pooled pilots take no
    /// compute units and return [`PilotError::Pooled`].
    pub fn client(&self) -> Result<Client, PilotError> {
        // The state is read under the lock `teardown` takes the executor
        // through, so a release cannot slip between the check and the
        // build and leave threads behind.
        let mut units = self.inner.units.lock();
        let state = self.state();
        if state != PilotState::Active {
            return Err(PilotError::NotActive(state));
        }
        if self.desc.pooled {
            return Err(PilotError::Pooled);
        }
        let exec = units.get_or_insert_with(|| Arc::new(LocalExecutor::new(self.desc.cores)));
        Ok(Client::from(Arc::clone(exec)))
    }

    /// Host a broker on this pilot ("the pilot abstraction can manage
    /// brokering and data processing frameworks, e.g., Kafka"). Idempotent.
    pub fn start_broker(&self) -> Result<Broker, PilotError> {
        if self.state() != PilotState::Active {
            return Err(PilotError::NotActive(self.state()));
        }
        let mut guard = self.inner.broker.lock();
        Ok(guard.get_or_insert_with(Broker::new).clone())
    }

    /// Host a parameter server on this pilot. Idempotent.
    pub fn start_param_server(&self) -> Result<ParameterServer, PilotError> {
        if self.state() != PilotState::Active {
            return Err(PilotError::NotActive(self.state()));
        }
        let mut guard = self.inner.params.lock();
        Ok(guard.get_or_insert_with(ParameterServer::new).clone())
    }

    /// Seconds of pilot lifetime so far (0 before activation).
    pub fn uptime(&self) -> Duration {
        self.inner
            .activated_at
            .lock()
            .map(|t| t.elapsed())
            .unwrap_or(Duration::ZERO)
    }

    /// True once the pilot has outlived its walltime.
    pub fn is_expired(&self) -> bool {
        match self.desc.walltime {
            Some(w) => self.uptime() > w,
            None => false,
        }
    }

    /// Bill `busy` core-time to this pilot for work its cores did outside
    /// its compute units — a framework the pilot hosts on threads of its
    /// own (a pipeline's edge and cloud reactors) reports its busy time
    /// here so [`Pilot::energy`] keeps accounting for it.
    pub fn record_busy(&self, busy: Duration) {
        self.inner
            .hosted_busy_ns
            .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Energy estimate: busy time (compute units plus
    /// [`Pilot::record_busy`]) at the class's active wattage, the rest of
    /// the uptime at idle wattage.
    pub fn energy(&self) -> EnergyModel {
        let mut m = EnergyModel::new(self.desc.class);
        m.record_busy(self.inner.hosted_busy_ns.load(Ordering::Relaxed) as f64 / 1e9);
        if let Some(exec) = self.inner.units.lock().as_ref() {
            m.record_busy(exec.poll_time_us() as f64 / 1e6);
        }
        m.set_wall(self.uptime().as_secs_f64());
        m
    }

    /// Cancel the pilot (from any live state): running compute units
    /// finish, queued ones are cancelled, the queue slot is freed.
    pub fn cancel(&self) {
        if self.transition(PilotState::Cancelled) {
            self.teardown();
        }
    }

    /// Release the pilot normally (Active → Done): running compute units
    /// finish, queued ones are cancelled, the queue slot is freed.
    pub fn release(&self) {
        if self.transition(PilotState::Done) {
            self.teardown();
        }
    }

    fn teardown(&self) {
        if let Some(exec) = self.inner.units.lock().take() {
            exec.shutdown();
            // Keep what the units cost in the pilot's energy account.
            self.record_busy(Duration::from_micros(exec.poll_time_us()));
        }
        self.inner.slot.lock().take();
    }
}

impl std::fmt::Debug for Pilot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pilot")
            .field("id", &self.id)
            .field("resource", &self.desc.resource)
            .field("state", &self.state())
            .finish()
    }
}
