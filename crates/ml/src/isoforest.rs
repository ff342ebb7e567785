//! Isolation forest (Liu, Ting & Zhou, ICDM 2008).
//!
//! The paper uses the PyOD implementation with its defaults: an ensemble of
//! 100 trees ("a default of 100 ensemble tasks"), each built on a random
//! subsample (ψ = 256 in the original algorithm and in
//! scikit-learn/PyOD). An outlier "is defined by the number of steps
//! required to isolate a data point; the fewer steps required, the more
//! likely a point is an outlier". The anomaly score is the original paper's
//! `s(x, ψ) = 2^(−E[h(x)] / c(ψ))` where `c(ψ)` is the average unsuccessful
//! BST search path length.
//!
//! Streaming behaviour: like the Pilot-Edge deployment, the model is refit
//! on each incoming message's data (`partial_fit` rebuilds the ensemble from
//! the new batch) — isolation forests have no incremental update, and
//! rebuilding is exactly what makes them ~5× slower than k-means in Fig. 3.
//!
//! **Layout.** A tree is one flat array of 24-byte nodes. A leaf stores the
//! finished path length `depth + c(size)` (so scoring calls no `ln`) and
//! points at itself, which lets a walk take a fixed `height` steps with no
//! data-dependent branch; eight points walk side by side so their load
//! chains overlap. Scoring is tree-major inside each fixed 128-row chunk —
//! the tree stays in L1 while the chunk passes through it — and still adds
//! each point's path lengths in tree order, so scores do not depend on any
//! of this. Fitting gathers each tree's ψ sampled rows once, column-major,
//! and builds on that copy.

use crate::dataset::Dataset;
use crate::outlier::{ModelKind, OutlierModel};
use pilot_dataflow::ComputePool;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Rows scored per compute-pool unit. Fixed (never derived from pool
/// width) so chunk boundaries — and therefore scores — are identical for
/// every pool size.
const SCORE_CHUNK: usize = 128;

/// Configuration for [`IsolationForest`].
#[derive(Debug, Clone, PartialEq)]
pub struct IsolationForestConfig {
    /// Ensemble size (paper/PyOD default: 100).
    pub n_trees: usize,
    /// Subsample size ψ per tree (original paper default: 256).
    pub subsample: usize,
    /// RNG seed.
    pub seed: u64,
}

impl IsolationForestConfig {
    /// The paper's configuration: 100 trees, ψ = 256.
    pub fn paper() -> Self {
        Self {
            n_trees: 100,
            subsample: 256,
            seed: 42,
        }
    }
}

/// Points walked down a tree side by side (see [`ITree::walk`]).
const LANES: usize = 8;

/// Node of an isolation tree; a tree is a flat array of these, root first.
/// A leaf points at itself on both sides, so a walk can take a fixed number
/// of steps without asking whether it has arrived.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Split value. For a leaf: the path length of every point that ends
    /// here, `depth + c(size)`, worked out once at build time.
    value: f64,
    /// Split feature (0 for a leaf).
    feature: u32,
    left: u32,
    right: u32,
}

/// One isolation tree.
#[derive(Debug, Clone)]
struct ITree {
    nodes: Vec<Node>,
    /// Depth of the deepest leaf.
    height: u32,
}

impl ITree {
    /// Path lengths h(x) of `L` points, with the `c(size)` adjustment at
    /// truncated leaves. Every point takes `height` steps (a leaf steps to
    /// itself), which leaves no data-dependent branch to mispredict and `L`
    /// independent load chains for the core to overlap.
    #[inline(always)]
    fn walk<const L: usize>(&self, points: [&[f64]; L]) -> [f64; L] {
        let mut at = [0usize; L];
        for _ in 0..self.height {
            for (idx, point) in at.iter_mut().zip(points) {
                let node = &self.nodes[*idx];
                let next = if point[node.feature as usize] < node.value {
                    node.left
                } else {
                    node.right
                };
                *idx = next as usize;
            }
        }
        at.map(|idx| self.nodes[idx].value)
    }
}

/// Values between the starts of two gathered columns beyond ψ. With the
/// default ψ = 256 an unpadded column is 2 KiB, every column starts in one of
/// two L1 sets, and the gather's 32 write streams evict each other.
const COL_PAD: usize = 8;

/// Builds one tree over a gathered subsample: `cols[f·stride + s]` is
/// feature `f` of sampled row `s`, so every min/max and partition pass reads
/// one contiguous ψ-value column instead of ψ rows of the batch.
struct TreeBuilder<'a> {
    cols: &'a [f64],
    stride: usize,
    features: usize,
    /// `ceil(log2(ψ))`: splitting stops here if isolation has not.
    height_limit: u32,
    rng: &'a mut StdRng,
    tree: ITree,
}

impl TreeBuilder<'_> {
    /// Append the subtree over subsample rows `rows`; returns its index.
    fn grow(&mut self, rows: &mut [u32], depth: u32) -> u32 {
        let my_idx = self.tree.nodes.len() as u32;
        // Pick a feature with spread; give up after a few attempts (the
        // sample may be constant in every dimension).
        let mut split = None;
        if rows.len() > 1 && depth < self.height_limit {
            for _ in 0..8 {
                let f = self.rng.random_range(0..self.features);
                let col = &self.cols[f * self.stride..][..self.stride];
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for &r in rows.iter() {
                    let v = col[r as usize];
                    lo = if v < lo { v } else { lo };
                    hi = if v > hi { v } else { hi };
                }
                if hi > lo {
                    split = Some((f, col, self.rng.random_range(lo..hi)));
                    break;
                }
            }
        }
        let Some((feature, col, value)) = split else {
            self.tree.nodes.push(Node {
                value: f64::from(depth) + c_factor(rows.len()),
                feature: 0,
                left: my_idx,
                right: my_idx,
            });
            self.tree.height = self.tree.height.max(depth);
            return my_idx;
        };
        // Partition in place; the unconditional swap keeps the 50/50
        // comparison out of the branch predictor.
        let mut mid = 0;
        for i in 0..rows.len() {
            rows.swap(i, mid);
            mid += usize::from(col[rows[mid] as usize] < value);
        }
        // Take this node's slot before recursing; the children fill in.
        self.tree.nodes.push(Node {
            value,
            feature: feature as u32,
            left: 0,
            right: 0,
        });
        let (left_rows, right_rows) = rows.split_at_mut(mid);
        let left = self.grow(left_rows, depth + 1);
        let right = self.grow(right_rows, depth + 1);
        let node = &mut self.tree.nodes[my_idx as usize];
        (node.left, node.right) = (left, right);
        my_idx
    }
}

/// Average path length of an unsuccessful BST search over `n` points:
/// `c(n) = 2·H(n−1) − 2(n−1)/n`, with `H(i) ≈ ln(i) + γ`.
pub fn c_factor(n: usize) -> f64 {
    /// Euler–Mascheroni constant (std's EGAMMA is not yet stable).
    const EGAMMA: f64 = 0.577_215_664_901_532_9;
    if n <= 1 {
        return 0.0;
    }
    let nf = n as f64;
    let h = (nf - 1.0).ln() + EGAMMA;
    2.0 * h - 2.0 * (nf - 1.0) / nf
}

/// Derive an independent RNG seed for one tree of one fit. Trees must not
/// share an RNG stream (that would serialise tree construction), and
/// successive refits must draw different forests (the streaming pipeline
/// refits per message), so the seed mixes `(config seed, fit epoch, tree
/// index)` through a SplitMix64 finaliser.
fn derive_tree_seed(seed: u64, epoch: u64, tree: u64) -> u64 {
    let mut z =
        seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tree.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Trees built per compute-pool unit; they share one [`BuildScratch`].
const TREES_PER_UNIT: usize = 4;

/// Buffers one pool unit reuses across the trees it builds.
struct BuildScratch {
    /// `stamp[i] == mark` ⇔ row `i` is in the subsample being drawn; a fresh
    /// mark per tree means the array is never cleared.
    stamp: Vec<u32>,
    /// The sampled row indices, in draw order.
    picks: Vec<usize>,
    /// The gathered subsample, [`TreeBuilder::cols`].
    cols: Vec<f64>,
    /// The build's working list of subsample rows.
    rows: Vec<u32>,
}

impl BuildScratch {
    fn new(n: usize) -> Self {
        Self {
            stamp: vec![0; n],
            picks: Vec::new(),
            cols: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Sample ψ distinct indices from `0..n` into `picks` (Floyd's
    /// algorithm). Membership is a stamped mark per row (`mark` is non-zero
    /// and new to this scratch), so a draw costs O(1) and the pick order
    /// stays a pure function of the RNG stream.
    fn sample_indices(&mut self, psi: usize, mark: u32, rng: &mut StdRng) {
        let n = self.stamp.len();
        self.picks.clear();
        if psi >= n {
            self.picks.extend(0..n);
            return;
        }
        for j in (n - psi)..n {
            let t = rng.random_range(0..=j);
            let pick = if self.stamp[t] == mark { j } else { t };
            self.stamp[pick] = mark;
            self.picks.push(pick);
        }
    }

    /// Draw a ψ-row subsample of `data`, gather it, and build a tree on it.
    fn build_tree(&mut self, data: &Dataset<'_>, psi: usize, mark: u32, rng: &mut StdRng) -> ITree {
        self.sample_indices(psi, mark, rng);
        let psi = self.picks.len();
        let stride = psi + COL_PAD;
        self.cols.resize(stride * data.cols(), 0.0);
        for (s, &pick) in self.picks.iter().enumerate() {
            for (f, &v) in data.row(pick).iter().enumerate() {
                self.cols[f * stride + s] = v;
            }
        }
        self.rows.clear();
        self.rows.extend(0..psi as u32);
        let mut builder = TreeBuilder {
            cols: &self.cols,
            stride,
            features: data.cols(),
            height_limit: (psi as f64).log2().ceil().max(1.0) as u32,
            rng,
            tree: ITree {
                nodes: Vec::with_capacity(2 * psi),
                height: 0,
            },
        };
        builder.grow(&mut self.rows, 0);
        builder.tree
    }
}

/// The isolation-forest ensemble.
#[derive(Debug)]
pub struct IsolationForest {
    config: IsolationForestConfig,
    trees: Vec<ITree>,
    /// ψ actually used by the last fit (min(subsample, n)).
    effective_subsample: usize,
    /// Fits completed so far; folded into per-tree seeds so successive
    /// refits (one per streaming message) draw fresh forests.
    fit_epoch: u64,
    /// Fan-out for tree building and scoring; sequential by default.
    pool: Arc<ComputePool>,
}

impl IsolationForest {
    /// Create an untrained forest.
    pub fn new(config: IsolationForestConfig) -> Self {
        assert!(config.n_trees > 0, "n_trees must be > 0");
        assert!(config.subsample > 1, "subsample must be > 1");
        Self {
            config,
            trees: Vec::new(),
            effective_subsample: 0,
            fit_epoch: 0,
            pool: Arc::new(ComputePool::sequential()),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &IsolationForestConfig {
        &self.config
    }

    /// True once trees exist.
    pub fn is_trained(&self) -> bool {
        !self.trees.is_empty()
    }

    /// Number of trees currently in the ensemble.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Fit the ensemble on a batch (replaces any previous trees).
    ///
    /// Every tree owns an RNG seeded from `(seed, fit epoch, tree index)`,
    /// so the ensemble is a pure function of the config and fit history —
    /// independent of build order and therefore of pool width. With a
    /// multi-thread [`ComputePool`] attached the (paper-default) 100 trees
    /// build in parallel; this is the Fig. 3 hot spot, since streaming
    /// refits rebuild the whole ensemble per message.
    pub fn fit(&mut self, data: &Dataset<'_>) {
        if data.is_empty() {
            return;
        }
        let n = data.rows();
        let psi = self.config.subsample.min(n);
        let seed = self.config.seed;
        let epoch = self.fit_epoch;
        self.fit_epoch += 1;
        let n_trees = self.config.n_trees;
        let units = self.pool.map(n_trees.div_ceil(TREES_PER_UNIT), |unit| {
            let mut scratch = BuildScratch::new(n);
            let first = unit * TREES_PER_UNIT;
            (first..n_trees.min(first + TREES_PER_UNIT))
                .map(|t| {
                    let mut rng = StdRng::seed_from_u64(derive_tree_seed(seed, epoch, t as u64));
                    scratch.build_tree(data, psi, t as u32 + 1, &mut rng)
                })
                .collect::<Vec<_>>()
        });
        self.trees = units.into_iter().flatten().collect();
        self.effective_subsample = psi;
    }
}

impl OutlierModel for IsolationForest {
    fn kind(&self) -> ModelKind {
        ModelKind::IsolationForest
    }

    /// Streaming update = refit on the incoming batch (isolation forests
    /// are not incrementally updatable; this mirrors the paper's per-message
    /// model update and is the source of the model's high per-message cost).
    fn partial_fit(&mut self, data: &Dataset<'_>) {
        self.fit(data);
    }

    /// Anomaly score `s(x, ψ) = 2^(−E[h(x)]/c(ψ))` ∈ (0, 1]; higher is more
    /// anomalous. Rows are fanned out over the pool in fixed-size chunks;
    /// each score depends on its row alone, so the result is bit-identical
    /// at every pool width.
    fn score(&self, data: &Dataset<'_>) -> Vec<f64> {
        assert!(self.is_trained(), "score before training");
        let c = c_factor(self.effective_subsample).max(f64::MIN_POSITIVE);
        let view = *data;
        let n_trees = self.trees.len() as f64;
        let mut scores = vec![0.0; data.rows()];
        self.pool
            .for_each_chunk_mut(&mut scores, SCORE_CHUNK, |ci, chunk| {
                let base = ci * SCORE_CHUNK;
                // Tree-major: one tree stays in L1 for the whole chunk, and
                // every point still sums its path lengths in tree order.
                for tree in &self.trees {
                    let mut groups = chunk.chunks_exact_mut(LANES);
                    let mut row = base;
                    for sums in groups.by_ref() {
                        let paths = tree.walk::<LANES>(std::array::from_fn(|l| view.row(row + l)));
                        for (sum, path) in sums.iter_mut().zip(paths) {
                            *sum += path;
                        }
                        row += LANES;
                    }
                    for sum in groups.into_remainder() {
                        *sum += tree.walk([view.row(row)])[0];
                        row += 1;
                    }
                }
                for s in chunk.iter_mut() {
                    let e_h = *s / n_trees;
                    // `exp2`, not `2f64.powf`: LLVM rewrites the `pow`
                    // call to `exp2` only when optimising, and the two
                    // differ in the last bit, so the scores would depend
                    // on the build profile.
                    *s = (-e_h / c).exp2();
                }
            });
        scores
    }

    fn weights(&self) -> Vec<f64> {
        // Tree structure is not a flat parameter vector; the parameter
        // server shares isolation forests by re-fitting on the receiver
        // side (documented contract).
        Vec::new()
    }

    fn set_weights(&mut self, weights: &[f64]) -> bool {
        weights.is_empty()
    }

    fn set_compute_pool(&mut self, pool: Arc<ComputePool>) {
        self.pool = pool;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tight Gaussian blob with a few extreme points appended.
    fn blob_with_outliers() -> (Vec<f64>, usize, usize) {
        let mut data = Vec::new();
        let mut state = 9u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2000) as f64 / 1000.0 - 1.0
        };
        let n_inliers = 500;
        for _ in 0..n_inliers {
            data.push(next());
            data.push(next());
        }
        let outliers = [(50.0, 50.0), (-60.0, 40.0), (45.0, -55.0)];
        for &(x, y) in &outliers {
            data.push(x);
            data.push(y);
        }
        (data, n_inliers, outliers.len())
    }

    fn cfg() -> IsolationForestConfig {
        IsolationForestConfig {
            n_trees: 50,
            subsample: 128,
            seed: 3,
        }
    }

    #[test]
    fn c_factor_known_values() {
        assert_eq!(c_factor(0), 0.0);
        assert_eq!(c_factor(1), 0.0);
        // c(2) = 2·(ln(1)+γ) − 2·(1/2) = 2γ − 1 ≈ 0.1544
        assert!((c_factor(2) - (2.0 * 0.577_215_664_901_532_9 - 1.0)).abs() < 1e-12);
        // c grows with n
        assert!(c_factor(256) > c_factor(64));
    }

    #[test]
    fn outliers_rank_above_inliers() {
        let (data, n_in, n_out) = blob_with_outliers();
        let ds = Dataset::new(&data, n_in + n_out, 2);
        let mut f = IsolationForest::new(cfg());
        f.fit(&ds);
        let scores = f.score(&ds);
        let min_outlier = scores[n_in..].iter().cloned().fold(f64::INFINITY, f64::min);
        // Count inliers scoring above the weakest outlier — should be none
        // or nearly none.
        let violations = scores[..n_in].iter().filter(|&&s| s > min_outlier).count();
        assert!(violations <= 2, "violations={violations}");
    }

    #[test]
    fn scores_are_in_unit_interval() {
        let (data, n_in, n_out) = blob_with_outliers();
        let ds = Dataset::new(&data, n_in + n_out, 2);
        let mut f = IsolationForest::new(cfg());
        f.fit(&ds);
        for s in f.score(&ds) {
            assert!((0.0..=1.0).contains(&s), "s={s}");
        }
    }

    #[test]
    fn outlier_scores_exceed_half() {
        // Liu et al.: points with score well above 0.5 are anomalies.
        let (data, n_in, n_out) = blob_with_outliers();
        let ds = Dataset::new(&data, n_in + n_out, 2);
        let mut f = IsolationForest::new(cfg());
        f.fit(&ds);
        let scores = f.score(&ds);
        for s in &scores[n_in..] {
            assert!(*s > 0.55, "outlier score {s}");
        }
    }

    #[test]
    fn partial_fit_rebuilds_ensemble() {
        let (data, n_in, n_out) = blob_with_outliers();
        let ds = Dataset::new(&data, n_in + n_out, 2);
        let mut f = IsolationForest::new(cfg());
        f.partial_fit(&ds);
        assert_eq!(f.tree_count(), 50);
        f.partial_fit(&ds);
        assert_eq!(f.tree_count(), 50);
    }

    #[test]
    fn constant_data_gets_uniform_scores() {
        let data = vec![1.0; 64 * 2];
        let ds = Dataset::new(&data, 64, 2);
        let mut f = IsolationForest::new(cfg());
        f.fit(&ds);
        let scores = f.score(&ds);
        let first = scores[0];
        assert!(scores.iter().all(|&s| (s - first).abs() < 1e-9));
    }

    #[test]
    fn small_batch_clamps_subsample() {
        let data = vec![0.0, 1.0, 2.0, 3.0]; // 4 rows × 1 col
        let ds = Dataset::new(&data, 4, 1);
        let mut f = IsolationForest::new(cfg());
        f.fit(&ds);
        assert_eq!(f.effective_subsample, 4);
        assert_eq!(f.score(&ds).len(), 4);
    }

    #[test]
    fn seeded_forests_reproduce() {
        let (data, n_in, n_out) = blob_with_outliers();
        let ds = Dataset::new(&data, n_in + n_out, 2);
        let mut a = IsolationForest::new(cfg());
        let mut b = IsolationForest::new(cfg());
        a.fit(&ds);
        b.fit(&ds);
        assert_eq!(a.score(&ds), b.score(&ds));
    }

    #[test]
    fn pool_width_never_changes_scores() {
        let (data, n_in, n_out) = blob_with_outliers();
        let ds = Dataset::new(&data, n_in + n_out, 2);
        let mut seq = IsolationForest::new(cfg());
        seq.fit(&ds);
        let expect = seq.score(&ds);
        for width in [2usize, 3, 8] {
            let mut f = IsolationForest::new(cfg());
            f.set_compute_pool(Arc::new(ComputePool::new(width)));
            f.fit(&ds);
            assert_eq!(f.score(&ds), expect, "width={width}");
        }
    }

    #[test]
    fn refits_draw_fresh_forests() {
        // Streaming refits must not reuse the epoch-0 forest seeds.
        let (data, n_in, n_out) = blob_with_outliers();
        let ds = Dataset::new(&data, n_in + n_out, 2);
        let mut f = IsolationForest::new(cfg());
        f.fit(&ds);
        let first = f.score(&ds);
        f.fit(&ds);
        assert_ne!(
            f.score(&ds),
            first,
            "second fit reused first fit's RNG streams"
        );
    }

    #[test]
    fn sampled_indices_are_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut scratch = BuildScratch::new(1000);
        scratch.sample_indices(256, 1, &mut rng);
        let sample = scratch.picks.clone();
        assert_eq!(sample.len(), 256);
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 256, "duplicates drawn");
        assert!(sample.iter().all(|&i| i < 1000));
        // ψ ≥ n degenerates to the identity permutation.
        let mut scratch = BuildScratch::new(4);
        scratch.sample_indices(8, 1, &mut rng);
        assert_eq!(scratch.picks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn stamped_sampling_draws_what_a_linear_membership_scan_draws() {
        // Floyd's algorithm with the pick set kept in a `Vec` and scanned:
        // the definition the stamped version must reproduce pick for pick,
        // including when one scratch serves several trees in a row.
        let mut scratch = BuildScratch::new(1000);
        for mark in 1..=5u32 {
            let mut reference_rng = StdRng::seed_from_u64(u64::from(mark));
            let mut chosen: Vec<usize> = Vec::new();
            for j in (1000 - 256)..1000 {
                let t = reference_rng.random_range(0..=j);
                chosen.push(if chosen.contains(&t) { j } else { t });
            }
            let mut rng = StdRng::seed_from_u64(u64::from(mark));
            scratch.sample_indices(256, mark, &mut rng);
            assert_eq!(scratch.picks, chosen, "mark={mark}");
        }
    }

    #[test]
    fn flat_path_length_matches_a_reference_walk() {
        // Reference: walk the same tree counting splits in an f64 and add
        // `c(size)` of the leaf reached, with `size` recovered by dropping
        // the tree's own subsample through it.
        let walk = |tree: &ITree, point: &[f64]| -> (usize, f64) {
            let (mut idx, mut depth) = (0usize, 0.0);
            while tree.nodes[idx].left as usize != idx {
                let node = tree.nodes[idx];
                depth += 1.0;
                idx = if point[node.feature as usize] < node.value {
                    node.left as usize
                } else {
                    node.right as usize
                };
            }
            (idx, depth)
        };
        let mut rng = StdRng::seed_from_u64(5);
        let d = 6;
        let data: Vec<f64> = (0..700 * d).map(|_| rng.random_range(-3.0..3.0)).collect();
        let ds = Dataset::new(&data, 700, d);
        let points: Vec<f64> = (0..10_000 * d)
            .map(|_| rng.random_range(-4.0..4.0))
            .collect();
        let mut scratch = BuildScratch::new(700);
        for mark in 1..=4 {
            let tree = scratch.build_tree(&ds, 256, mark, &mut rng);
            let mut sizes = vec![0usize; tree.nodes.len()];
            for &pick in &scratch.picks {
                sizes[walk(&tree, ds.row(pick)).0] += 1;
            }
            assert_eq!(sizes.iter().sum::<usize>(), 256);
            for point in points.chunks(d) {
                let (leaf, depth) = walk(&tree, point);
                let expect = depth + c_factor(sizes[leaf]);
                assert_eq!(tree.walk([point])[0].to_bits(), expect.to_bits());
            }
        }
    }

    #[test]
    fn weights_contract_is_empty() {
        let mut f = IsolationForest::new(cfg());
        assert!(f.weights().is_empty());
        assert!(f.set_weights(&[]));
        assert!(!f.set_weights(&[1.0]));
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut f = IsolationForest::new(cfg());
        let data: [f64; 0] = [];
        f.partial_fit(&Dataset::new(&data, 0, 2));
        assert!(!f.is_trained());
    }

    #[test]
    fn paper_config_defaults() {
        let c = IsolationForestConfig::paper();
        assert_eq!(c.n_trees, 100);
        assert_eq!(c.subsample, 256);
    }
}
