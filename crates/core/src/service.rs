//! The pilot compute service: backend registry + pilot factory.

use crate::backend::{
    CloudVmBackend, LocalBackend, ResourceBackend, ServerlessBackend, SshEdgeBackend,
};
use crate::description::PilotDescription;
use crate::error::PilotError;
use crate::pilot::Pilot;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Creates and tracks pilots, routing descriptions to backend plugins by
/// URL scheme (paper Fig. 1, step 1: "applications acquire edge-to-cloud
/// resources using the pilot framework").
pub struct PilotComputeService {
    backends: Mutex<HashMap<&'static str, Arc<dyn ResourceBackend>>>,
    pilots: Mutex<Vec<Pilot>>,
    next_id: Mutex<u64>,
}

impl PilotComputeService {
    /// A service with the standard plugins registered: `local`, `ssh`
    /// (edge devices), `openstack` (cloud VMs). Batch backends need a queue,
    /// so they are registered explicitly via [`Self::register_backend`].
    pub fn new() -> Self {
        let svc = Self {
            backends: Mutex::new(HashMap::new()),
            pilots: Mutex::new(Vec::new()),
            next_id: Mutex::new(0),
        };
        svc.register_backend(Arc::new(LocalBackend));
        svc.register_backend(Arc::new(SshEdgeBackend::default()));
        svc.register_backend(Arc::new(CloudVmBackend::default()));
        svc.register_backend(Arc::new(ServerlessBackend::new(64)));
        svc
    }

    /// Register (or replace) a backend plugin.
    pub fn register_backend(&self, backend: Arc<dyn ResourceBackend>) {
        self.backends.lock().insert(backend.scheme(), backend);
    }

    /// Registered schemes.
    pub fn schemes(&self) -> Vec<&'static str> {
        let mut s: Vec<&'static str> = self.backends.lock().keys().copied().collect();
        s.sort_unstable();
        s
    }

    /// Create a pilot and start provisioning it in the background.
    /// Returns immediately with the pilot in (or soon past) `New`.
    pub fn create_pilot(&self, desc: PilotDescription) -> Result<Pilot, PilotError> {
        desc.validate().map_err(PilotError::InvalidDescription)?;
        let backend = self
            .backends
            .lock()
            .get(desc.scheme())
            .cloned()
            .ok_or_else(|| PilotError::UnknownScheme(desc.scheme().to_string()))?;
        let id = {
            let mut n = self.next_id.lock();
            let id = *n;
            *n += 1;
            id
        };
        let pilot = Pilot::new(id, desc);
        self.pilots.lock().push(pilot.clone());
        let p = pilot.clone();
        std::thread::Builder::new()
            .name(format!("pilot-{id}-lifecycle"))
            .spawn(move || p.run_lifecycle(backend))
            .expect("spawn pilot lifecycle thread");
        Ok(pilot)
    }

    /// Create a pilot and block until it is Active (or fails).
    pub fn submit_and_wait(
        &self,
        desc: PilotDescription,
        timeout: Duration,
    ) -> Result<Pilot, PilotError> {
        let pilot = self.create_pilot(desc)?;
        pilot.wait_active(timeout)?;
        Ok(pilot)
    }

    /// Provision a fleet of pilots on ONE background thread and block
    /// until every one is Active (or the first failure/timeout).
    ///
    /// [`Self::create_pilot`] spawns a lifecycle thread per pilot; for a
    /// 1024-cell federation that is a 1024-thread spike just to flip
    /// state machines whose local backend boots instantly. Here the whole
    /// fleet shares a single transient `pilot-fleet-lifecycle` thread —
    /// the federation layer's O(k)-threads budget starts at provisioning.
    pub fn submit_fleet(
        &self,
        descs: Vec<PilotDescription>,
        timeout: Duration,
    ) -> Result<Vec<Pilot>, PilotError> {
        let mut work = Vec::with_capacity(descs.len());
        let mut fleet = Vec::with_capacity(descs.len());
        for desc in descs {
            desc.validate().map_err(PilotError::InvalidDescription)?;
            let backend = self
                .backends
                .lock()
                .get(desc.scheme())
                .cloned()
                .ok_or_else(|| PilotError::UnknownScheme(desc.scheme().to_string()))?;
            let id = {
                let mut n = self.next_id.lock();
                let id = *n;
                *n += 1;
                id
            };
            let pilot = Pilot::new(id, desc);
            self.pilots.lock().push(pilot.clone());
            fleet.push(pilot.clone());
            work.push((pilot, backend));
        }
        std::thread::Builder::new()
            .name("pilot-fleet-lifecycle".to_string())
            .spawn(move || {
                for (pilot, backend) in work {
                    pilot.run_lifecycle(backend);
                }
            })
            .expect("spawn fleet lifecycle thread");
        let deadline = std::time::Instant::now() + timeout;
        for pilot in &fleet {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            pilot.wait_active(left)?;
        }
        Ok(fleet)
    }

    /// All pilots ever created by this service.
    pub fn pilots(&self) -> Vec<Pilot> {
        self.pilots.lock().clone()
    }

    /// Cancel every non-terminal pilot.
    pub fn cancel_all(&self) {
        for p in self.pilots.lock().iter() {
            p.cancel();
        }
    }

    /// Enforce walltimes once: cancel every Active pilot that has outlived
    /// its walltime. Returns how many were reaped. (Walltime is otherwise
    /// advisory; call this from a periodic maintenance loop to make it
    /// binding, as a batch scheduler would.)
    pub fn reap_expired(&self) -> usize {
        let mut reaped = 0;
        for p in self.pilots.lock().iter() {
            if p.state() == crate::state::PilotState::Active && p.is_expired() {
                p.cancel();
                reaped += 1;
            }
        }
        reaped
    }

    /// Aggregate energy estimate across every pilot this service created —
    /// the fleet-level number an energy-aware scheduler (the paper's
    /// future-work direction) would optimise.
    pub fn fleet_energy_joules(&self) -> f64 {
        self.pilots.lock().iter().map(|p| p.energy().joules()).sum()
    }
}

impl Default for PilotComputeService {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for PilotComputeService {
    fn drop(&mut self) {
        self.cancel_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BatchQueueBackend;
    use crate::queue::BatchQueue;
    use crate::state::PilotState;

    const WAIT: Duration = Duration::from_secs(5);

    #[test]
    fn local_pilot_activates_and_runs_tasks() {
        let svc = PilotComputeService::new();
        let pilot = svc
            .submit_and_wait(PilotDescription::local(2, 4.0), WAIT)
            .unwrap();
        assert_eq!(pilot.state(), PilotState::Active);
        let client = pilot.client().unwrap();
        let f = client.submit("probe", || Ok(7u32)).unwrap();
        assert_eq!(f.wait_as::<u32>().unwrap(), 7);
        pilot.release();
        assert_eq!(pilot.state(), PilotState::Done);
    }

    #[test]
    fn edge_pilot_has_boot_delay_and_right_envelope() {
        let svc = PilotComputeService::new();
        let pilot = svc
            .create_pilot(PilotDescription::edge_device("pi-1", "factory"))
            .unwrap();
        // Immediately after create it cannot be active yet (100 ms boot).
        assert_ne!(pilot.state(), PilotState::Active);
        pilot.wait_active(WAIT).unwrap();
        assert_eq!(pilot.description().cores, 1);
        assert_eq!(pilot.site(), "factory");
    }

    #[test]
    fn unknown_scheme_rejected() {
        let svc = PilotComputeService::new();
        let mut d = PilotDescription::local(1, 1.0);
        d.resource = "warp://drive".into();
        assert_eq!(
            svc.create_pilot(d).err(),
            Some(PilotError::UnknownScheme("warp".into()))
        );
    }

    #[test]
    fn invalid_description_rejected() {
        let svc = PilotComputeService::new();
        let mut d = PilotDescription::local(1, 1.0);
        d.cores = 0;
        assert!(matches!(
            svc.create_pilot(d),
            Err(PilotError::InvalidDescription(_))
        ));
    }

    #[test]
    fn client_before_active_fails() {
        let svc = PilotComputeService::new();
        let pilot = svc
            .create_pilot(PilotDescription::edge_device("pi", "lab"))
            .unwrap();
        // The 100 ms boot window is plenty to observe the pre-active error.
        if pilot.state() != PilotState::Active {
            assert!(matches!(pilot.client(), Err(PilotError::NotActive(_))));
        }
    }

    #[test]
    fn batch_pilot_goes_through_queue() {
        let svc = PilotComputeService::new();
        let queue = BatchQueue::new("normal", 1);
        svc.register_backend(Arc::new(BatchQueueBackend::new(queue.clone())));
        let p1 = svc
            .create_pilot(PilotDescription::hpc("normal", 4, 8.0))
            .unwrap();
        p1.wait_active(WAIT).unwrap();
        // Second pilot must wait in the queue while p1 holds the slot.
        let p2 = svc
            .create_pilot(PilotDescription::hpc("normal", 4, 8.0))
            .unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(p2.state(), PilotState::Queued);
        p1.release();
        p2.wait_active(WAIT).unwrap();
        p2.release();
    }

    #[test]
    fn cancel_before_active() {
        let svc = PilotComputeService::new();
        let pilot = svc
            .create_pilot(PilotDescription::edge_device("pi", "lab"))
            .unwrap();
        pilot.cancel();
        assert_eq!(pilot.state(), PilotState::Cancelled);
        // The lifecycle thread must not resurrect it.
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(pilot.state(), PilotState::Cancelled);
        assert!(pilot.client().is_err());
    }

    #[test]
    fn failed_provisioning_surfaces_message() {
        let svc = PilotComputeService::new();
        let mut d = PilotDescription::edge_device("pi", "lab");
        d.cores = 4;
        d.memory_gb = 64.0; // over the edge envelope
        let pilot = svc.create_pilot(d).unwrap();
        let err = pilot.wait_active(WAIT).unwrap_err();
        assert_eq!(err, PilotError::NotActive(PilotState::Failed));
        assert!(pilot.failure().unwrap().contains("64"));
    }

    #[test]
    fn pilot_hosts_broker_and_param_server() {
        let svc = PilotComputeService::new();
        let pilot = svc
            .submit_and_wait(PilotDescription::local(1, 2.0), WAIT)
            .unwrap();
        let broker = pilot.start_broker().unwrap();
        broker
            .create_topic("t", 1, pilot_broker::RetentionPolicy::unbounded())
            .unwrap();
        // Idempotent: same broker comes back.
        let broker2 = pilot.start_broker().unwrap();
        assert!(broker2.topic("t").is_ok());
        let ps = pilot.start_param_server().unwrap();
        ps.put("w", vec![1.0]);
        assert_eq!(pilot.start_param_server().unwrap().len(), 1);
    }

    #[test]
    fn energy_accounting_reflects_work() {
        let svc = PilotComputeService::new();
        let pilot = svc
            .submit_and_wait(PilotDescription::local(1, 2.0), WAIT)
            .unwrap();
        let client = pilot.client().unwrap();
        let f = client
            .submit("burn", || {
                std::thread::sleep(Duration::from_millis(50));
                Ok(())
            })
            .unwrap();
        f.wait().unwrap();
        let e = pilot.energy();
        assert!(e.busy_secs() >= 0.04, "busy={}", e.busy_secs());
        assert!(e.joules() > 0.0);
        // Busy time of a hosted framework's own threads adds to the tasks'.
        pilot.record_busy(Duration::from_millis(200));
        assert!(pilot.energy().busy_secs() >= e.busy_secs() + 0.2);
    }

    #[test]
    fn walltime_expiry_flag() {
        let svc = PilotComputeService::new();
        let desc = PilotDescription::local(1, 1.0).with_walltime(Duration::from_millis(30));
        let pilot = svc.submit_and_wait(desc, WAIT).unwrap();
        assert!(!pilot.is_expired());
        std::thread::sleep(Duration::from_millis(60));
        assert!(pilot.is_expired());
    }

    #[test]
    fn service_tracks_and_cancels_all() {
        let svc = PilotComputeService::new();
        for _ in 0..3 {
            svc.submit_and_wait(PilotDescription::local(1, 1.0), WAIT)
                .unwrap();
        }
        assert_eq!(svc.pilots().len(), 3);
        svc.cancel_all();
        for p in svc.pilots() {
            assert_eq!(p.state(), PilotState::Cancelled);
        }
    }

    #[test]
    fn reap_expired_cancels_only_overdue() {
        let svc = PilotComputeService::new();
        let short = svc
            .submit_and_wait(
                PilotDescription::local(1, 1.0).with_walltime(Duration::from_millis(20)),
                WAIT,
            )
            .unwrap();
        let long = svc
            .submit_and_wait(
                PilotDescription::local(1, 1.0).with_walltime(Duration::from_secs(3600)),
                WAIT,
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(svc.reap_expired(), 1);
        assert_eq!(short.state(), PilotState::Cancelled);
        assert_eq!(long.state(), PilotState::Active);
    }

    #[test]
    fn fleet_energy_aggregates() {
        let svc = PilotComputeService::new();
        let a = svc
            .submit_and_wait(PilotDescription::local(1, 1.0), WAIT)
            .unwrap();
        let b = svc
            .submit_and_wait(PilotDescription::local(1, 1.0), WAIT)
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let fleet = svc.fleet_energy_joules();
        assert!(fleet > 0.0);
        assert!((fleet - (a.energy().joules() + b.energy().joules())).abs() < fleet * 0.5);
    }

    #[test]
    fn serverless_pilot_through_service() {
        let svc = PilotComputeService::new();
        let mut desc = PilotDescription::local(1, 2.0);
        desc.resource = "serverless://faas".into();
        let pilot = svc.submit_and_wait(desc, WAIT).unwrap();
        let f = pilot.client().unwrap().submit("fn", || Ok(1u8)).unwrap();
        assert_eq!(f.wait_as::<u8>().unwrap(), 1);
    }

    #[test]
    fn fleet_activates_on_one_lifecycle_thread() {
        let svc = PilotComputeService::new();
        let fleet = svc
            .submit_fleet(
                (0..32).map(|_| PilotDescription::pooled(1, 0.5)).collect(),
                WAIT,
            )
            .unwrap();
        assert_eq!(fleet.len(), 32);
        let mut ids = std::collections::BTreeSet::new();
        for p in &fleet {
            assert_eq!(p.state(), PilotState::Active);
            // Pooled: capacity booked, but no private cluster to submit to.
            assert_eq!(p.client().err(), Some(PilotError::Pooled));
            // Hosting still works without a cluster.
            assert!(p.start_broker().is_ok());
            ids.insert(p.id());
        }
        assert_eq!(ids.len(), 32, "fleet ids are unique");
        assert_eq!(svc.pilots().len(), 32);
    }

    #[test]
    fn fleet_rejects_invalid_description_up_front() {
        let svc = PilotComputeService::new();
        let mut bad = PilotDescription::local(1, 1.0);
        bad.cores = 0;
        let err = svc
            .submit_fleet(vec![PilotDescription::local(1, 1.0), bad], WAIT)
            .unwrap_err();
        assert!(matches!(err, PilotError::InvalidDescription(_)));
    }

    #[test]
    fn pilot_ids_are_unique() {
        let svc = PilotComputeService::new();
        let a = svc.create_pilot(PilotDescription::local(1, 1.0)).unwrap();
        let b = svc.create_pilot(PilotDescription::local(1, 1.0)).unwrap();
        assert_ne!(a.id(), b.id());
    }
}
