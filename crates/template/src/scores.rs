//! Per-class score tables: log-likelihoods, softmax probabilities, fusion.

use reveal_par::simd;

/// Log-likelihood scores per candidate label, with softmax probabilities.
///
/// Produced by [`crate::TemplateSet::classify`]; fused across the value and
/// negation templates by [`ScoreTable::fuse`], which is how the attack uses
/// the third vulnerability to prune false positives of the second.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreTable {
    /// `(label, log_likelihood)` sorted by label.
    scores: Vec<(i64, f64)>,
}

impl ScoreTable {
    /// Builds from raw log-likelihoods (need not be normalized).
    pub fn from_log_likelihoods(mut scores: Vec<(i64, f64)>) -> Self {
        scores.sort_by_key(|(l, _)| *l);
        Self { scores }
    }

    /// The `(label, log_likelihood)` pairs, ascending by label.
    pub fn log_likelihoods(&self) -> &[(i64, f64)] {
        &self.scores
    }

    /// The label with maximal likelihood.
    ///
    /// # Panics
    ///
    /// Panics on an empty table (cannot be produced by `classify`).
    pub fn best_label(&self) -> i64 {
        self.scores
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("non-empty score table")
            .0
    }

    /// Softmax probabilities `(label, p)`, ascending by label.
    pub fn probabilities(&self) -> Vec<(i64, f64)> {
        let max = self
            .scores
            .iter()
            .map(|(_, s)| *s)
            .fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = self.scores.iter().map(|(_, s)| (s - max).exp()).collect();
        let total = simd::sum(&exps);
        self.scores
            .iter()
            .zip(exps)
            .map(|((l, _), e)| (*l, e / total))
            .collect()
    }

    /// The probability assigned to a specific label (0 if absent).
    pub fn probability_of(&self, label: i64) -> f64 {
        self.probabilities()
            .into_iter()
            .find(|(l, _)| *l == label)
            .map(|(_, p)| p)
            .unwrap_or(0.0)
    }

    /// Labels ranked by descending probability.
    pub fn ranking(&self) -> Vec<i64> {
        let mut probs = self.probabilities();
        probs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        probs.into_iter().map(|(l, _)| l).collect()
    }

    /// Fuses two independent observations of the same secret by summing
    /// log-likelihoods on the label intersection.
    ///
    /// This implements the paper's combination of the second and third
    /// vulnerabilities: the negation-region template only exists for negative
    /// candidates, so fusing shrinks the candidate set *and* sharpens the
    /// scores.
    pub fn fuse(&self, other: &ScoreTable) -> ScoreTable {
        // Merge-join of the two label-sorted lists. Should `other` repeat a
        // label, its last entry is the one fused.
        let mut fused = Vec::with_capacity(self.scores.len().min(other.scores.len()));
        let mut j = 0;
        for &(label, score) in &self.scores {
            while j < other.scores.len() && other.scores[j].0 < label {
                j += 1;
            }
            while j + 1 < other.scores.len() && other.scores[j + 1].0 == label {
                j += 1;
            }
            if let Some(&(l, o)) = other.scores.get(j) {
                if l == label {
                    fused.push((label, score + o));
                }
            }
        }
        ScoreTable { scores: fused }
    }

    /// Restricts to a subset of labels (e.g. after the sign classifier has
    /// ruled out half the range).
    pub fn restrict<F: Fn(i64) -> bool>(&self, keep: F) -> ScoreTable {
        ScoreTable {
            scores: self
                .scores
                .iter()
                .filter(|(l, _)| keep(*l))
                .copied()
                .collect(),
        }
    }

    /// Whether the table has any candidates.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Number of candidate labels.
    pub fn len(&self) -> usize {
        self.scores.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(pairs: &[(i64, f64)]) -> ScoreTable {
        ScoreTable::from_log_likelihoods(pairs.to_vec())
    }

    #[test]
    fn best_label_and_ranking() {
        let t = table(&[(0, -5.0), (1, -1.0), (-1, -3.0)]);
        assert_eq!(t.best_label(), 1);
        assert_eq!(t.ranking(), vec![1, -1, 0]);
    }

    #[test]
    fn probabilities_sum_to_one_and_order() {
        let t = table(&[(-2, -10.0), (3, -1.0), (7, -2.0)]);
        let probs = t.probabilities();
        let sum: f64 = probs.iter().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(t.probability_of(3) > t.probability_of(7));
        assert!(t.probability_of(7) > t.probability_of(-2));
        assert_eq!(t.probability_of(99), 0.0);
    }

    #[test]
    fn extreme_scores_do_not_overflow() {
        let t = table(&[(0, -1e6), (1, -3.0)]);
        let probs = t.probabilities();
        assert!((t.probability_of(1) - 1.0).abs() < 1e-12);
        assert!(probs.iter().all(|(_, p)| p.is_finite()));
    }

    #[test]
    fn fusion_sharpens_agreement() {
        // Observation A slightly prefers 2; observation B slightly prefers 2.
        let a = table(&[(1, -2.0), (2, -1.5), (3, -2.0)]);
        let b = table(&[(1, -2.2), (2, -1.4), (3, -1.9)]);
        let fused = a.fuse(&b);
        assert_eq!(fused.best_label(), 2);
        assert!(fused.probability_of(2) > a.probability_of(2));
    }

    #[test]
    fn fusion_resolves_ties() {
        // A cannot distinguish 2 and 3 (same HW); B (negation) can.
        let a = table(&[(2, -1.0), (3, -1.0)]);
        let b = table(&[(2, -0.5), (3, -4.0)]);
        assert_eq!(a.fuse(&b).best_label(), 2);
    }

    #[test]
    fn fusion_intersects_labels() {
        let a = table(&[(1, -1.0), (2, -2.0), (3, -3.0)]);
        let b = table(&[(2, -1.0), (3, -1.0)]);
        let fused = a.fuse(&b);
        assert_eq!(fused.len(), 2);
        assert_eq!(fused.probability_of(1), 0.0);
    }

    #[test]
    fn fusion_of_disjoint_labels_is_empty() {
        let a = table(&[(-3, -1.0), (-1, -2.0), (5, -0.5)]);
        let b = table(&[(-2, -1.0), (0, -1.0), (4, -3.0), (6, -0.1)]);
        assert!(a.fuse(&b).is_empty());
        assert!(b.fuse(&a).is_empty());
        assert!(a.fuse(&table(&[])).is_empty());
        assert!(table(&[]).fuse(&a).is_empty());
    }

    #[test]
    fn fusion_of_interleaved_labels_matches_lookup_join() {
        // Partially overlapping, interleaved label sets of different
        // lengths; the merge-join must equal a lookup join bit for bit,
        // keeping the left operand's score first in each sum.
        let a = table(&[
            (-14, -0.3),
            (-9, -1.7),
            (-4, -2.2),
            (-1, -0.9),
            (2, -5.5),
            (7, -0.01),
        ]);
        let b = table(&[
            (-12, -0.4),
            (-9, -0.6),
            (-5, -1.1),
            (-4, -3.3),
            (2, -0.7),
            (3, -8.0),
        ]);
        for (x, y) in [(&a, &b), (&b, &a)] {
            let expected: Vec<(i64, f64)> = x
                .log_likelihoods()
                .iter()
                .filter_map(|&(l, s)| {
                    let o = y.log_likelihoods().iter().find(|(m, _)| *m == l)?.1;
                    Some((l, s + o))
                })
                .collect();
            let fused = x.fuse(y);
            assert_eq!(fused.log_likelihoods().len(), 3);
            for (got, want) in fused.log_likelihoods().iter().zip(&expected) {
                assert_eq!(got.0, want.0);
                assert_eq!(got.1.to_bits(), want.1.to_bits());
            }
        }
        // A repeated label on the right fuses its last entry.
        let repeated = table(&[(-9, -1.0), (-9, -2.0), (2, -0.5)]);
        assert_eq!(
            a.fuse(&repeated).log_likelihoods(),
            &[(-9, -1.7 + -2.0), (2, -5.5 + -0.5)]
        );
    }

    #[test]
    fn restriction_filters_labels() {
        let t = table(&[(-2, -1.0), (-1, -2.0), (0, -3.0), (1, -0.5)]);
        let negatives = t.restrict(|l| l < 0);
        assert_eq!(negatives.len(), 2);
        assert_eq!(negatives.best_label(), -2);
    }
}
