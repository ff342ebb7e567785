//! Ground-truth evaluation of outlier scores.
//!
//! The paper's figures report systems metrics (throughput/latency), but the
//! repository also verifies that the models *work*: the generator emits
//! ground-truth outlier labels, and these utilities score the models against
//! them (ROC-AUC and precision@k). Used by integration tests and the
//! `outlier_detection` example.

/// Area under the ROC curve for `scores` against boolean `labels`
/// (true = positive/outlier). Higher scores should indicate outliers.
/// Ties are handled by the standard rank-sum (Mann–Whitney) formulation.
/// Returns 0.5 when either class is absent.
pub fn roc_auc(scores: &[f64], labels: &[bool]) -> f64 {
    assert_eq!(scores.len(), labels.len());
    let n_pos = labels.iter().filter(|&&l| l).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    // Rank scores (average ranks for ties).
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let mut ranks = vec![0.0; scores.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && scores[idx[j + 1]] == scores[idx[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = avg_rank;
        }
        i = j + 1;
    }
    let rank_sum_pos: f64 = ranks
        .iter()
        .zip(labels)
        .filter(|(_, &l)| l)
        .map(|(&r, _)| r)
        .sum();
    let u = rank_sum_pos - (n_pos * (n_pos + 1)) as f64 / 2.0;
    u / (n_pos * n_neg) as f64
}

/// Precision among the `k` highest-scoring points. Returns 0 for `k == 0`.
pub fn precision_at_k(scores: &[f64], labels: &[bool], k: usize) -> f64 {
    assert_eq!(scores.len(), labels.len());
    if k == 0 || scores.is_empty() {
        return 0.0;
    }
    let k = k.min(scores.len());
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    let hits = idx[..k].iter().filter(|&&i| labels[i]).count();
    hits as f64 / k as f64
}

/// Threshold scores at the `1 − contamination` quantile, mirroring PyOD's
/// `contamination` parameter: the top `contamination` fraction of scores is
/// flagged as outliers. Scores tied with the cutoff are all flagged. A NaN
/// score (a diverged model) is never flagged, and when NaNs fill the whole
/// top fraction nothing is.
pub fn threshold_by_contamination(scores: &[f64], contamination: f64) -> Vec<bool> {
    let contamination = contamination.clamp(0.0, 1.0);
    if scores.is_empty() {
        return Vec::new();
    }
    let n_flag = ((scores.len() as f64) * contamination).round() as usize;
    if n_flag == 0 {
        return vec![false; scores.len()];
    }
    // The `n_flag`-th highest score, by selection rather than a full sort;
    // `total_cmp` gives NaNs a rank (beyond ±inf, by sign) where
    // `partial_cmp` panicked on them.
    let mut ranked: Vec<f64> = scores.to_vec();
    let k = n_flag.min(ranked.len()) - 1;
    let (_, &mut cutoff, _) = ranked.select_nth_unstable_by(k, |a, b| b.total_cmp(a));
    scores.iter().map(|&s| s >= cutoff).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_separation_auc_one() {
        let scores = [0.1, 0.2, 0.9, 0.95];
        let labels = [false, false, true, true];
        assert_eq!(roc_auc(&scores, &labels), 1.0);
    }

    #[test]
    fn inverted_scores_auc_zero() {
        let scores = [0.9, 0.95, 0.1, 0.2];
        let labels = [false, false, true, true];
        assert_eq!(roc_auc(&scores, &labels), 0.0);
    }

    #[test]
    fn random_scores_auc_half() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let labels = [false, true, false, true];
        assert_eq!(roc_auc(&scores, &labels), 0.5);
    }

    #[test]
    fn single_class_auc_half() {
        assert_eq!(roc_auc(&[0.1, 0.9], &[false, false]), 0.5);
        assert_eq!(roc_auc(&[0.1, 0.9], &[true, true]), 0.5);
    }

    #[test]
    fn auc_with_ties_averaged() {
        // Two positives with the same score as two negatives: AUC = 0.5 for
        // those pairs, 1.0 for the clearly-higher positive.
        let scores = [0.5, 0.5, 0.5, 0.5, 0.9];
        let labels = [false, false, true, true, true];
        let auc = roc_auc(&scores, &labels);
        // pairs: 6 total; (0.9 vs both negs) = 2 wins; 4 ties = 2.0
        assert!((auc - (2.0 + 2.0) / 6.0).abs() < 1e-12, "auc={auc}");
    }

    #[test]
    fn precision_at_k_basics() {
        let scores = [0.9, 0.8, 0.1, 0.2];
        let labels = [true, false, false, true];
        assert_eq!(precision_at_k(&scores, &labels, 1), 1.0);
        assert_eq!(precision_at_k(&scores, &labels, 2), 0.5);
        assert_eq!(precision_at_k(&scores, &labels, 0), 0.0);
        // k beyond len clamps.
        assert_eq!(precision_at_k(&scores, &labels, 10), 0.5);
    }

    #[test]
    fn contamination_flags_top_fraction() {
        let scores = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        let flags = threshold_by_contamination(&scores, 0.2);
        assert_eq!(flags.iter().filter(|&&f| f).count(), 2);
        assert!(flags[9] && flags[8]);
    }

    #[test]
    fn contamination_survives_nan_and_infinite_scores() {
        let scores = [
            1.0,
            f64::NAN,
            f64::INFINITY,
            3.0,
            f64::NEG_INFINITY,
            -f64::NAN,
            2.0,
            0.5,
        ];
        // Top quarter = 2 of 8: the positive NaN outranks +inf and takes a
        // slot, `>=` against the +inf cutoff then flags +inf alone.
        let flags = threshold_by_contamination(&scores, 0.25);
        assert_eq!(
            flags,
            [false, false, true, false, false, false, false, false]
        );
        // Top half = 4 of 8: NaN, +inf, 3.0, 2.0.
        let flags = threshold_by_contamination(&scores, 0.5);
        assert_eq!(flags, [false, false, true, true, false, false, true, false]);
        // All NaN: nothing to flag, and no panic.
        assert_eq!(threshold_by_contamination(&[f64::NAN; 4], 0.5), [false; 4]);
        // The rank-based metrics take the same input without panicking.
        let labels = [false, true, true, false, false, false, true, false];
        assert!(roc_auc(&scores, &labels).is_finite());
        assert_eq!(precision_at_k(&scores, &labels, 2), 1.0);
    }

    #[test]
    fn contamination_flags_the_same_set_as_a_full_sort_with_ties() {
        // The definition the selection replaced: sort a copy descending and
        // compare against the `n_flag`-th entry.
        let by_sort = |scores: &[f64], n_flag: usize| -> Vec<bool> {
            let mut sorted = scores.to_vec();
            sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let cutoff = sorted[n_flag - 1];
            scores.iter().map(|&s| s >= cutoff).collect()
        };
        // Few distinct values, so the cutoff lands inside a run of ties.
        let scores: Vec<f64> = (0..200u32)
            .map(|i| f64::from(i * 7919 % 13) / 4.0)
            .collect();
        for n_flag in [1usize, 2, 10, 37, 100, 199, 200] {
            let contamination = n_flag as f64 / scores.len() as f64;
            let flags = threshold_by_contamination(&scores, contamination);
            assert_eq!(flags, by_sort(&scores, n_flag), "n_flag={n_flag}");
            assert!(flags.iter().filter(|&&f| f).count() >= n_flag);
        }
    }

    #[test]
    fn contamination_zero_flags_nothing() {
        let flags = threshold_by_contamination(&[1.0, 2.0], 0.0);
        assert!(flags.iter().all(|&f| !f));
    }

    #[test]
    fn contamination_one_flags_everything() {
        let flags = threshold_by_contamination(&[1.0, 2.0], 1.0);
        assert!(flags.iter().all(|&f| f));
    }

    #[test]
    fn contamination_empty_input() {
        assert!(threshold_by_contamination(&[], 0.5).is_empty());
    }
}
