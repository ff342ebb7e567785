//! Federated averaging — the paper's named future-work scenario ("we will
//! explore novel edge-to-cloud scenarios, e.g., federated learning").
//!
//! Implements the FedAvg aggregation rule (McMahan et al., 2017): each
//! round, clients train locally and upload `(weights, sample_count)`; the
//! server replaces the global model with the sample-weighted average. The
//! weight vectors are the flat parametrisations every [`crate::OutlierModel`]
//! already exposes, so any weighted model (k-means, auto-encoder) can be
//! trained federated without code changes — the `federated` example runs it
//! end-to-end over Pilot-Edge's parameter server.

/// One client's contribution to a round.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientUpdate {
    /// Flat model parameters (layout defined by the model).
    pub weights: Vec<f64>,
    /// Local samples this update was trained on (its FedAvg weight).
    pub samples: u64,
}

/// Sample-weighted average of client updates (FedAvg).
///
/// Returns `None` if `updates` is empty, shapes disagree, or the total
/// sample count is zero.
pub fn fed_avg(updates: &[ClientUpdate]) -> Option<Vec<f64>> {
    let first = updates.first()?;
    let dim = first.weights.len();
    let total: u64 = updates.iter().map(|u| u.samples).sum();
    if total == 0 || updates.iter().any(|u| u.weights.len() != dim) {
        return None;
    }
    let mut out = vec![0.0; dim];
    for u in updates {
        let w = u.samples as f64 / total as f64;
        for (o, &v) in out.iter_mut().zip(&u.weights) {
            *o += w * v;
        }
    }
    Some(out)
}

/// FedAvg into a caller-owned buffer: same semantics as [`fed_avg`]
/// (returns `false` on empty input, shape mismatch, or zero total
/// samples, leaving `out` cleared), but reuses `out`'s capacity so a
/// steady-state aggregation loop allocates nothing per round.
///
/// Numerically this accumulates `samples · wᵢ` sums and normalizes once
/// at the end, so results agree with [`fed_avg`] to floating-point
/// rounding (not bit-exactly).
pub fn fed_avg_into(out: &mut Vec<f64>, updates: &[ClientUpdate]) -> bool {
    out.clear();
    let Some(first) = updates.first() else {
        return false;
    };
    let dim = first.weights.len();
    let total: u64 = updates.iter().map(|u| u.samples).sum();
    if total == 0 || updates.iter().any(|u| u.weights.len() != dim) {
        return false;
    }
    out.resize(dim, 0.0);
    for u in updates {
        let s = u.samples as f64;
        for (o, &v) in out.iter_mut().zip(&u.weights) {
            *o += s * v;
        }
    }
    let inv = 1.0 / total as f64;
    for o in out.iter_mut() {
        *o *= inv;
    }
    true
}

/// Streaming FedAvg: push `(weights, samples)` contributions one at a
/// time — no intermediate [`ClientUpdate`] vector, no per-contribution
/// allocation — then [`FedAvgAccumulator::finish_into`] a reusable
/// output buffer. This is the shape the hierarchical aggregators need:
/// regional tiers pull cell models as borrowed slices straight out of
/// the parameter server and fold them in place.
#[derive(Debug, Clone, Default)]
pub struct FedAvgAccumulator {
    sums: Vec<f64>,
    total: u64,
    count: usize,
    mismatch: bool,
}

impl FedAvgAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one contribution in. The first push fixes the shape; any
    /// later shape mismatch poisons the round (finish returns `false`),
    /// mirroring [`fed_avg`]'s all-or-nothing rule.
    pub fn push(&mut self, weights: &[f64], samples: u64) {
        if self.count == 0 {
            self.sums.clear();
            self.sums.resize(weights.len(), 0.0);
        } else if weights.len() != self.sums.len() {
            self.mismatch = true;
        }
        if self.mismatch {
            self.count += 1;
            return;
        }
        let s = samples as f64;
        for (o, &v) in self.sums.iter_mut().zip(weights) {
            *o += s * v;
        }
        self.total += samples;
        self.count += 1;
    }

    /// Contributions pushed since the last finish/reset.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Total samples folded in so far.
    pub fn total_samples(&self) -> u64 {
        self.total
    }

    /// Normalize the folded sums into `out` (capacity reused) and reset
    /// for the next round. Returns `false` — with `out` cleared — when
    /// nothing was pushed, shapes mismatched, or total samples are zero.
    pub fn finish_into(&mut self, out: &mut Vec<f64>) -> bool {
        out.clear();
        let ok = self.count > 0 && !self.mismatch && self.total > 0;
        if ok {
            out.extend_from_slice(&self.sums);
            let inv = 1.0 / self.total as f64;
            for o in out.iter_mut() {
                *o *= inv;
            }
        }
        self.sums.clear();
        self.total = 0;
        self.count = 0;
        self.mismatch = false;
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fed_avg_weighted_mean() {
        let updates = [
            ClientUpdate {
                weights: vec![0.0, 0.0],
                samples: 1,
            },
            ClientUpdate {
                weights: vec![3.0, 9.0],
                samples: 2,
            },
        ];
        // (1·[0,0] + 2·[3,9]) / 3 = [2, 6]
        assert_eq!(fed_avg(&updates), Some(vec![2.0, 6.0]));
    }

    #[test]
    fn fed_avg_rejects_bad_inputs() {
        assert_eq!(fed_avg(&[]), None);
        let mismatch = [
            ClientUpdate {
                weights: vec![1.0],
                samples: 1,
            },
            ClientUpdate {
                weights: vec![1.0, 2.0],
                samples: 1,
            },
        ];
        assert_eq!(fed_avg(&mismatch), None);
        let zero = [ClientUpdate {
            weights: vec![1.0],
            samples: 0,
        }];
        assert_eq!(fed_avg(&zero), None);
    }

    #[test]
    fn fed_avg_into_reuses_buffer_and_matches() {
        let updates = [
            ClientUpdate {
                weights: vec![0.0, 0.0],
                samples: 1,
            },
            ClientUpdate {
                weights: vec![3.0, 9.0],
                samples: 2,
            },
        ];
        let mut out = Vec::with_capacity(8);
        let cap = out.capacity();
        assert!(fed_avg_into(&mut out, &updates));
        assert_eq!(out, vec![2.0, 6.0]);
        assert_eq!(out.capacity(), cap, "steady state must not reallocate");
        // Failure modes clear the buffer and report false.
        assert!(!fed_avg_into(&mut out, &[]));
        assert!(out.is_empty());
    }

    #[test]
    fn accumulator_streams_like_batch() {
        let mut acc = FedAvgAccumulator::new();
        acc.push(&[0.0, 0.0], 1);
        acc.push(&[3.0, 9.0], 2);
        assert_eq!(acc.count(), 2);
        assert_eq!(acc.total_samples(), 3);
        let mut out = Vec::new();
        assert!(acc.finish_into(&mut out));
        assert_eq!(out, vec![2.0, 6.0]);
        // finish resets: the accumulator is reusable for the next round.
        assert_eq!(acc.count(), 0);
        acc.push(&[5.0], 1);
        assert!(acc.finish_into(&mut out));
        assert_eq!(out, vec![5.0]);
    }

    #[test]
    fn accumulator_rejects_mismatch_and_zero_samples() {
        let mut acc = FedAvgAccumulator::new();
        let mut out = vec![99.0];
        assert!(!acc.finish_into(&mut out), "empty round fails");
        assert!(out.is_empty());
        acc.push(&[1.0, 2.0], 1);
        acc.push(&[1.0], 1); // shape mismatch poisons the round
        assert!(!acc.finish_into(&mut out));
        acc.push(&[1.0], 0); // zero total samples
        assert!(!acc.finish_into(&mut out));
    }

    /// Materialize equal-shape updates from raw generated parts: each
    /// client's fixed-width weight row is truncated to the shared `dim`.
    fn make_updates(dim: usize, raw: &[(Vec<f64>, u64)]) -> Vec<ClientUpdate> {
        raw.iter()
            .map(|(w, s)| ClientUpdate {
                weights: w[..dim].to_vec(),
                samples: *s,
            })
            .collect()
    }

    proptest! {
        /// Sample-weight normalization: the average is a convex
        /// combination, so every coordinate stays inside the clients'
        /// per-coordinate envelope, and scaling every sample count by a
        /// common factor changes nothing (weights normalize).
        #[test]
        fn prop_normalization(
            dim in 1usize..6,
            raw in proptest::collection::vec(
                (proptest::collection::vec(-1e6f64..1e6, 6..7), 1u64..1000),
                1..8,
            ),
            scale in 1u64..50,
        ) {
            let updates = make_updates(dim, &raw);
            let avg = fed_avg(&updates).unwrap();
            for (d, a) in avg.iter().enumerate() {
                let lo = updates.iter().map(|u| u.weights[d]).fold(f64::MAX, f64::min);
                let hi = updates.iter().map(|u| u.weights[d]).fold(f64::MIN, f64::max);
                prop_assert!(*a >= lo - 1e-6 && *a <= hi + 1e-6);
            }
            let scaled: Vec<ClientUpdate> = updates
                .iter()
                .map(|u| ClientUpdate { weights: u.weights.clone(), samples: u.samples * scale })
                .collect();
            let avg2 = fed_avg(&scaled).unwrap();
            for (a, b) in avg.iter().zip(&avg2) {
                prop_assert!((a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0));
            }
        }

        /// Shape mismatch → None/false across all three entry points.
        #[test]
        fn prop_shape_mismatch_rejected(
            dim in 1usize..6,
            raw in proptest::collection::vec(
                (proptest::collection::vec(-1e6f64..1e6, 6..7), 1u64..1000),
                1..8,
            ),
            extra in -1e6f64..1e6,
        ) {
            let updates = make_updates(dim, &raw);
            let mut bad = updates.clone();
            // One extra client disagrees on dim — the whole round fails.
            bad.push(ClientUpdate {
                weights: vec![extra; dim + 1],
                samples: 1,
            });
            prop_assert_eq!(fed_avg(&bad), None);
            let mut out = vec![1.0];
            prop_assert!(!fed_avg_into(&mut out, &bad));
            prop_assert!(out.is_empty());
            let mut acc = FedAvgAccumulator::new();
            for u in &bad {
                acc.push(&u.weights, u.samples);
            }
            prop_assert!(!acc.finish_into(&mut out));
        }

        /// Permutation invariance: client order cannot matter (up to
        /// floating-point rounding), and the streaming paths agree with
        /// the batch path.
        #[test]
        fn prop_permutation_invariance(
            dim in 1usize..6,
            raw in proptest::collection::vec(
                (proptest::collection::vec(-1e6f64..1e6, 6..7), 1u64..1000),
                1..8,
            ),
            rot in 0usize..8,
        ) {
            let updates = make_updates(dim, &raw);
            let base = fed_avg(&updates).unwrap();
            let mut rotated = updates.clone();
            let n = rotated.len();
            rotated.rotate_left(rot % n);
            let tol = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
            let perm = fed_avg(&rotated).unwrap();
            let mut streamed = Vec::new();
            prop_assert!(fed_avg_into(&mut streamed, &rotated));
            let mut acc = FedAvgAccumulator::new();
            for u in &rotated {
                acc.push(&u.weights, u.samples);
            }
            let mut acc_out = Vec::new();
            prop_assert!(acc.finish_into(&mut acc_out));
            for d in 0..base.len() {
                prop_assert!(tol(base[d], perm[d]), "fed_avg perm at {}", d);
                prop_assert!(tol(base[d], streamed[d]), "fed_avg_into at {}", d);
                prop_assert!(tol(base[d], acc_out[d]), "accumulator at {}", d);
            }
        }
    }

    #[test]
    fn federated_kmeans_converges_like_central() {
        // Two clients with disjoint halves of the same mixture; federated
        // averaging of centroid matrices should land near the central fit.
        use crate::dataset::Dataset;
        use crate::kmeans::{KMeans, KMeansConfig};
        use crate::outlier::OutlierModel;
        let cfg = KMeansConfig {
            k: 2,
            features: 1,
            max_iters: 50,
            tol: 1e-9,
            seed: 3,
        };
        // Cluster A around 0, cluster B around 100.
        let client1: Vec<f64> = (0..50).map(|i| (i % 5) as f64 * 0.1).collect();
        let client2: Vec<f64> = (0..50).map(|i| 100.0 + (i % 5) as f64 * 0.1).collect();
        let mut updates = Vec::new();
        for data in [&client1, &client2] {
            let ds = Dataset::new(data, 50, 1);
            let mut m = KMeans::new(cfg.clone());
            m.fit(&ds);
            updates.push(ClientUpdate {
                weights: m.weights(),
                samples: 50,
            });
        }
        // Each client sees ONE cluster, so both of its centroids sit there;
        // the average of the two client models lands near 50 for both
        // centroids — the textbook failure-and-fix motivation for running
        // *rounds* with shared initialisation. Verify the mechanics: the
        // average is the exact midpoint of the client centroids.
        let global = fed_avg(&updates).unwrap();
        let c1 = &updates[0].weights;
        let c2 = &updates[1].weights;
        for i in 0..2 {
            assert!((global[i] - (c1[i] + c2[i]) / 2.0).abs() < 1e-9);
        }
    }
}
