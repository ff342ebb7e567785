//! A witness consumer group, for tests that read a pipeline's log back
//! after the run.
//!
//! A pipeline topic trims at its consumer groups' commit floor, so once a
//! run drains its log holds nothing. A witness group that commits offset 0
//! on every partition before the first append pins the floor at 0, and the
//! whole log stays readable. The devices' produce functions wait on a gate
//! that [`Witness::pin`] opens once the witness has committed.

use pilot_edge::faas::{Context, ProduceFactory};
use pilot_edge::RunningPipeline;
use std::sync::{Arc, Condvar, Mutex};

/// The witness group's gate: closed until [`Witness::pin`].
#[derive(Default)]
pub struct Witness(Arc<(Mutex<bool>, Condvar)>);

impl Witness {
    /// Wrap `produce` so that no device produces (or ends its stream)
    /// before the witness has pinned the floor.
    pub fn gate(&self, produce: ProduceFactory) -> ProduceFactory {
        let gate = Arc::clone(&self.0);
        Arc::new(move |ctx: &Context, device: usize| {
            let mut inner = produce(ctx, device);
            let gate = Arc::clone(&gate);
            let mut open = false;
            Box::new(move |ctx: &Context| {
                if !open {
                    let (lock, cvar) = &*gate;
                    drop(
                        cvar.wait_while(lock.lock().unwrap(), |open| !*open)
                            .unwrap(),
                    );
                    open = true;
                }
                inner(ctx)
            })
        })
    }

    /// Commit offset 0 for the witness group on each of the `partitions`
    /// partitions of `running`'s topic, then open the gate.
    pub fn pin(&self, running: &RunningPipeline, partitions: usize) {
        let broker = running.broker();
        for partition in 0..partitions {
            broker.commit_offset("witness", running.topic(), partition, 0);
        }
        let (lock, cvar) = &*self.0;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
    }
}
