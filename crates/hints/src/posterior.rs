//! Per-coefficient posterior tables (Table II of the paper) and the hint
//! ladder that turns them into DBDD hints.
//!
//! The framework "takes the scores of each measurement and creates
//! probabilities for each output"; coefficients guessed with probability
//! ≈ 1 become **perfect** hints, the rest become **approximate** hints with
//! the posterior's variance, or are **skipped** when the posterior is no
//! sharper than the prior. That ladder is one API: [`HintPolicy::decide`]
//! places a variance on a rung, [`HintDecision::cmp_strength`] orders the
//! rungs, [`HintSummary::of`] counts them, and [`fold_decisions`] integrates
//! a decision vector into a fresh [`DbddInstance`].

use crate::dbdd::{DbddInstance, HintError, LweParameters, SecurityEstimate};
use std::cmp::Ordering;
use std::fmt;

/// A discrete posterior over candidate coefficient values.
#[derive(Debug, Clone, PartialEq)]
pub struct Posterior {
    /// `(value, probability)`, probabilities normalized to 1.
    entries: Vec<(i64, f64)>,
}

/// Errors from posterior construction.
#[derive(Debug, Clone, PartialEq)]
pub enum PosteriorError {
    /// Probabilities were empty or all zero.
    Degenerate,
    /// A probability was negative or non-finite.
    BadProbability(f64),
}

impl fmt::Display for PosteriorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PosteriorError::Degenerate => write!(f, "posterior has no probability mass"),
            PosteriorError::BadProbability(p) => write!(f, "bad probability {p}"),
        }
    }
}

impl std::error::Error for PosteriorError {}

impl Posterior {
    /// Builds a posterior from raw scores, normalizing to total mass 1.
    /// When the scores' sum overflows, each score is first divided by the
    /// largest one, so the sum being normalized by is finite.
    ///
    /// # Errors
    ///
    /// Fails when the mass is zero or a probability is invalid.
    pub fn new(entries: Vec<(i64, f64)>) -> Result<Self, PosteriorError> {
        if let Some(&(_, p)) = entries.iter().find(|(_, p)| !p.is_finite() || *p < 0.0) {
            return Err(PosteriorError::BadProbability(p));
        }
        let normalize = |entries: Vec<(i64, f64)>, total: f64| -> Vec<(i64, f64)> {
            entries.into_iter().map(|(v, p)| (v, p / total)).collect()
        };
        let total: f64 = entries.iter().map(|(_, p)| p).sum();
        if total <= 0.0 {
            return Err(PosteriorError::Degenerate);
        }
        let mut entries = if total.is_finite() {
            normalize(entries, total)
        } else {
            let largest = entries.iter().map(|(_, p)| *p).fold(0.0, f64::max);
            let scaled = normalize(entries, largest);
            let total = scaled.iter().map(|(_, p)| p).sum();
            normalize(scaled, total)
        };
        entries.sort_by_key(|(v, _)| *v);
        Ok(Self { entries })
    }

    /// A point-mass posterior (the coefficient is known).
    pub fn certain(value: i64) -> Self {
        Self {
            entries: vec![(value, 1.0)],
        }
    }

    /// The `(value, probability)` pairs, ascending by value.
    pub fn entries(&self) -> &[(i64, f64)] {
        &self.entries
    }

    /// The most likely value. Ties keep the later (larger) value, matching
    /// `Iterator::max_by` semantics; a panic-free fold is used because the
    /// service path must never be able to unwrap, even though `entries` is
    /// non-empty by construction.
    pub fn mode(&self) -> i64 {
        let mut best: Option<(i64, f64)> = None;
        for &(value, p) in &self.entries {
            best = match best {
                Some((_, bp))
                    if p.partial_cmp(&bp).unwrap_or(std::cmp::Ordering::Equal)
                        == std::cmp::Ordering::Less =>
                {
                    best
                }
                _ => Some((value, p)),
            };
        }
        best.map_or(0, |(value, _)| value)
    }

    /// The probability of the mode.
    pub fn confidence(&self) -> f64 {
        self.entries.iter().map(|(_, p)| *p).fold(0.0, f64::max)
    }

    /// The mean ("centered" column of Table II).
    pub fn mean(&self) -> f64 {
        self.entries.iter().map(|(v, p)| *v as f64 * p).sum()
    }

    /// The variance ("variance" column of Table II).
    pub fn variance(&self) -> f64 {
        let mean = self.mean();
        self.entries
            .iter()
            .map(|(v, p)| p * (*v as f64 - mean).powi(2))
            .sum()
    }
}

/// How posteriors are converted into hints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HintPolicy {
    /// Posteriors with variance at or below this become perfect hints.
    pub perfect_variance_threshold: f64,
    /// Approximate hints are skipped when the posterior is no sharper than
    /// the prior (variance ratio above this).
    pub max_useful_variance_ratio: f64,
    /// The prior variance of a coefficient (σ² of the sampler).
    pub prior_variance: f64,
    /// Calibration factor multiplied into every posterior variance before
    /// classification. `1.0` is the paper's behaviour (bit-exact: a `× 1.0`
    /// float multiply is the identity); the robust driver raises it when a
    /// capture looks degraded, so hints degrade perfect → approximate →
    /// skipped instead of over-claiming certainty.
    pub variance_inflation: f64,
}

/// The degradation-ladder decision for one coefficient: the rung it lands
/// on and the value a perfect or approximate hint claims.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HintDecision {
    /// Exact value, integrated via `integrate_perfect_hint`.
    Perfect { value: i64 },
    /// Approximate value, integrated via `integrate_approximate_hint` with
    /// this ε².
    Approximate { value: i64, eps_squared: f64 },
    /// No sharper than the prior: nothing is integrated for this
    /// coordinate.
    Skipped,
}

impl HintDecision {
    /// The ladder's one strength order: perfect > approximate > skipped,
    /// and of two approximate hints the one with the smaller ε² is
    /// stronger; values play no part. Two approximate hints are unordered
    /// (`None`) when either ε² is NaN, so neither replaces nor dominates
    /// the other.
    pub fn cmp_strength(&self, other: &Self) -> Option<Ordering> {
        let rung = |d: &Self| match d {
            HintDecision::Perfect { .. } => 2u8,
            HintDecision::Approximate { .. } => 1,
            HintDecision::Skipped => 0,
        };
        match (self, other) {
            (
                HintDecision::Approximate { eps_squared: a, .. },
                HintDecision::Approximate { eps_squared: b, .. },
            ) => b.partial_cmp(a),
            _ => Some(rung(self).cmp(&rung(other))),
        }
    }
}

impl HintPolicy {
    /// The paper's setting: σ = 3.2 prior, perfect below 1e-9 variance.
    pub fn seal_paper() -> Self {
        Self {
            perfect_variance_threshold: 1e-9,
            max_useful_variance_ratio: 0.999,
            prior_variance: 3.2 * 3.2,
            variance_inflation: 1.0,
        }
    }

    /// A copy with the given variance-inflation calibration.
    pub fn with_variance_inflation(mut self, inflation: f64) -> Self {
        self.variance_inflation = inflation.max(1.0);
        self
    }

    /// Places a posterior variance on the degradation ladder, claiming
    /// `value`. This is the single decision rule the whole workspace uses,
    /// so the reports, the robust attack's gate and the service can never
    /// disagree. A NaN or infinite variance is skipped.
    pub fn decide(&self, value: i64, variance: f64) -> HintDecision {
        let variance = variance * self.variance_inflation;
        if variance <= self.perfect_variance_threshold {
            HintDecision::Perfect { value }
        } else if variance < self.prior_variance * self.max_useful_variance_ratio {
            // Find the hint variance ε² whose Bayesian posterior equals the
            // measured posterior variance: ε² = vσ² / (σ² − v).
            let prior = self.prior_variance;
            HintDecision::Approximate {
                value,
                eps_squared: variance * prior / (prior - variance),
            }
        } else {
            HintDecision::Skipped
        }
    }
}

/// Decisions counted by rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HintSummary {
    /// Coordinates integrated as perfect hints.
    pub perfect: usize,
    /// Coordinates integrated as approximate hints.
    pub approximate: usize,
    /// Coordinates skipped (posterior no sharper than the prior).
    pub skipped: usize,
}

impl HintSummary {
    /// Counts `decisions` by rung.
    pub fn of<'a>(decisions: impl IntoIterator<Item = &'a HintDecision>) -> Self {
        let mut summary = Self::default();
        for decision in decisions {
            summary.record(decision);
        }
        summary
    }

    fn record(&mut self, decision: &HintDecision) {
        match decision {
            HintDecision::Perfect { .. } => self.perfect += 1,
            HintDecision::Approximate { .. } => self.approximate += 1,
            HintDecision::Skipped => self.skipped += 1,
        }
    }
}

/// A decision [`fold_decisions`] could not integrate.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldError {
    /// The DBDD coordinate of the decision.
    pub coordinate: usize,
    /// Why integration failed.
    pub error: HintError,
}

impl fmt::Display for FoldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "coordinate {}: {}", self.coordinate, self.error)
    }
}

impl std::error::Error for FoldError {}

/// Folds one decision per coordinate, in ascending coordinate order from
/// 0, into a fresh DBDD instance of `params`: perfect decisions via
/// `integrate_perfect_hint`, approximate ones via
/// `integrate_approximate_hint` with their ε², skipped ones only counted.
/// Returns the hinted estimate and the decisions' summary. Every report and
/// the service fold through here, so their estimates agree bit for bit.
///
/// # Errors
///
/// Stops at the first decision that fails to integrate (coordinate out of
/// range, non-positive ε²).
pub fn fold_decisions(
    params: &LweParameters,
    decisions: impl IntoIterator<Item = HintDecision>,
) -> Result<(SecurityEstimate, HintSummary), FoldError> {
    let mut instance = DbddInstance::from_lwe(params);
    let mut summary = HintSummary::default();
    for (coordinate, decision) in decisions.into_iter().enumerate() {
        match decision {
            HintDecision::Perfect { .. } => instance.integrate_perfect_hint(coordinate),
            HintDecision::Approximate { eps_squared, .. } => {
                instance.integrate_approximate_hint(coordinate, eps_squared)
            }
            HintDecision::Skipped => Ok(()),
        }
        .map_err(|error| FoldError { coordinate, error })?;
        summary.record(&decision);
    }
    Ok((instance.estimate(), summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approximate(eps_squared: f64) -> HintDecision {
        HintDecision::Approximate {
            value: 1,
            eps_squared,
        }
    }

    #[test]
    fn normalization_and_moments() {
        let p = Posterior::new(vec![(1, 2.0), (2, 2.0)]).unwrap();
        assert_eq!(p.entries(), &[(1, 0.5), (2, 0.5)]);
        assert!((p.mean() - 1.5).abs() < 1e-12);
        assert!((p.variance() - 0.25).abs() < 1e-12);
        assert_eq!(p.confidence(), 0.5);
    }

    #[test]
    fn overflowing_mass_normalizes_to_an_approximate_hint() {
        // The raw sum overflows to ∞; dividing by it would zero every
        // probability and pass a variance of 0 off as a perfect hint.
        let p = Posterior::new(vec![(1, f64::MAX), (2, f64::MAX)]).unwrap();
        assert_eq!(p.entries(), &[(1, 0.5), (2, 0.5)]);
        assert_eq!(p.variance(), 0.25);
        let policy = HintPolicy::seal_paper();
        assert!(matches!(
            policy.decide(p.mode(), p.variance()),
            HintDecision::Approximate { .. }
        ));
        // A finite sum keeps the plain division.
        let q = Posterior::new(vec![(1, 0.1), (2, 0.7), (3, 0.2)]).unwrap();
        let total = 0.1 + 0.7 + 0.2;
        assert_eq!(
            q.entries(),
            &[(1, 0.1 / total), (2, 0.7 / total), (3, 0.2 / total)]
        );
    }

    #[test]
    fn table_ii_style_rows() {
        // Row "1" of Table II: P(1) ≈ 1, P(2) = 2.7e-10 → centered 1,
        // variance ≈ 2.7e-10, a perfect hint.
        let policy = HintPolicy::seal_paper();
        let p = Posterior::new(vec![(1, 1.0 - 2.7e-10), (2, 2.7e-10)]).unwrap();
        assert_eq!(p.mode(), 1);
        assert!((p.mean() - 1.0).abs() < 1e-9);
        assert!((p.variance() - 2.7e-10).abs() < 1e-11);
        assert_eq!(
            policy.decide(p.mode(), p.variance()),
            HintDecision::Perfect { value: 1 }
        );
        // Row "0": exact point mass.
        let zero = Posterior::certain(0);
        assert_eq!(zero.variance(), 0.0);
        assert_eq!(
            policy.decide(zero.mode(), zero.variance()),
            HintDecision::Perfect { value: 0 }
        );
    }

    #[test]
    fn rejects_bad_posteriors() {
        assert!(matches!(
            Posterior::new(vec![]),
            Err(PosteriorError::Degenerate)
        ));
        assert!(matches!(
            Posterior::new(vec![(0, 0.0)]),
            Err(PosteriorError::Degenerate)
        ));
        assert!(matches!(
            Posterior::new(vec![(0, -1.0)]),
            Err(PosteriorError::BadProbability(_))
        ));
        assert!(matches!(
            Posterior::new(vec![(0, f64::NAN)]),
            Err(PosteriorError::BadProbability(_))
        ));
    }

    #[test]
    fn integration_dichotomy() {
        let params = LweParameters::seal_128_paper();
        let policy = HintPolicy::seal_paper();
        let posteriors = [
            Posterior::certain(-2),                               // perfect
            Posterior::new(vec![(1, 0.7), (2, 0.3)]).unwrap(),    // approximate
            Posterior::new(vec![(-14, 1.0), (14, 1.0)]).unwrap(), // worse than prior? var=196 → skipped
        ];
        let decisions: Vec<HintDecision> = posteriors
            .iter()
            .map(|p| policy.decide(p.mode(), p.variance()))
            .collect();
        let (estimate, summary) = fold_decisions(&params, decisions.iter().copied()).unwrap();
        assert_eq!(summary.perfect, 1);
        assert_eq!(summary.approximate, 1);
        assert_eq!(summary.skipped, 1);
        assert_eq!(HintSummary::of(&decisions), summary);
        // The fold is the explicit integration, bit for bit.
        let mut inst = DbddInstance::from_lwe(&params);
        inst.integrate_perfect_hint(0).unwrap();
        let v = posteriors[1].variance();
        let prior = policy.prior_variance;
        inst.integrate_approximate_hint(1, v * prior / (prior - v))
            .unwrap();
        assert_eq!(estimate.bikz.to_bits(), inst.estimate().bikz.to_bits());
    }

    #[test]
    fn fold_reports_the_failing_coordinate() {
        let params = LweParameters::seal_like(4, 3329.0, 2.0);
        let err = fold_decisions(
            &params,
            [
                HintDecision::Skipped,
                approximate(0.0),
                HintDecision::Skipped,
            ],
        )
        .unwrap_err();
        assert_eq!(err.coordinate, 1);
        assert_eq!(err.error, HintError::NonPositive(0.0));
        assert_eq!(
            err.to_string(),
            "coordinate 1: argument must be positive, got 0"
        );
        // More decisions than coordinates (m + n = 8) fail at the first
        // coordinate past the end.
        let err = fold_decisions(&params, [HintDecision::Perfect { value: 0 }; 9]).unwrap_err();
        assert_eq!(err.coordinate, 8);
        assert!(matches!(err.error, HintError::BadCoordinate { .. }));
    }

    #[test]
    fn classification_matches_integration_dichotomy() {
        let policy = HintPolicy::seal_paper();
        assert_eq!(policy.decide(3, 0.0), HintDecision::Perfect { value: 3 });
        assert_eq!(policy.decide(3, 1e-10), HintDecision::Perfect { value: 3 });
        match policy.decide(-1, 0.21) {
            HintDecision::Approximate { value, eps_squared } => {
                let prior = 3.2 * 3.2;
                assert_eq!(value, -1);
                assert!((eps_squared - 0.21 * prior / (prior - 0.21)).abs() < 1e-12);
            }
            other => panic!("expected approximate, got {other:?}"),
        }
        assert_eq!(policy.decide(3, 196.0), HintDecision::Skipped);
    }

    #[test]
    fn decide_at_the_ladder_boundaries() {
        let policy = HintPolicy::seal_paper();
        // The perfect threshold is inclusive.
        let threshold = policy.perfect_variance_threshold;
        assert_eq!(
            policy.decide(2, threshold),
            HintDecision::Perfect { value: 2 }
        );
        assert!(matches!(
            policy.decide(2, threshold.next_up()),
            HintDecision::Approximate { .. }
        ));
        // The useful-variance bound is exclusive.
        let bound = policy.prior_variance * policy.max_useful_variance_ratio;
        assert_eq!(policy.decide(2, bound), HintDecision::Skipped);
        assert!(matches!(
            policy.decide(2, bound.next_down()),
            HintDecision::Approximate { .. }
        ));
        // A variance that is not a number, or infinite, claims nothing.
        for variance in [f64::NAN, f64::INFINITY] {
            assert_eq!(policy.decide(2, variance), HintDecision::Skipped);
            let inflated = policy.with_variance_inflation(4.0);
            assert_eq!(inflated.decide(2, variance), HintDecision::Skipped);
        }
    }

    #[test]
    fn strength_order_reproduces_merge_and_dominance() {
        use Ordering::{Equal, Greater, Less};
        let p = HintDecision::Perfect { value: 3 };
        let p_other = HintDecision::Perfect { value: -3 };
        let (a_sharp, a_fuzzy, a_nan) =
            (approximate(0.25), approximate(0.5), approximate(f64::NAN));
        let s = HintDecision::Skipped;
        // The two rules the order replaces, written out as they stood.
        let rank = |d: &HintDecision| match d {
            HintDecision::Perfect { .. } => 2u8,
            HintDecision::Approximate { .. } => 1,
            HintDecision::Skipped => 0,
        };
        let eps = |d: &HintDecision| match d {
            HintDecision::Approximate { eps_squared, .. } => Some(*eps_squared),
            _ => None,
        };
        // Serve's merge: the incoming decision replaces the incumbent.
        let old_merge_replaces = |incumbent: &HintDecision, incoming: &HintDecision| {
            rank(incoming) > rank(incumbent)
                || matches!((eps(incumbent), eps(incoming)), (Some(cur), Some(new)) if new < cur)
        };
        // The gate's dominance: the learned decision may replace the
        // template one.
        let old_dominates =
            |learned: &HintDecision, template: &HintDecision| match (eps(learned), eps(template)) {
                (Some(le), Some(de)) => le <= de,
                _ => rank(learned) >= rank(template),
            };
        let all = [p, p_other, a_sharp, a_fuzzy, a_nan, s];
        for x in &all {
            for y in &all {
                let order = x.cmp_strength(y);
                assert_eq!(
                    order == Some(Greater),
                    old_merge_replaces(y, x),
                    "merge of {x:?} over {y:?}"
                );
                assert_eq!(
                    matches!(order, Some(Greater | Equal)),
                    old_dominates(x, y),
                    "dominance of {x:?} over {y:?}"
                );
            }
        }
        // The table the order encodes.
        let cases = [
            (p, s, Some(Greater)),
            (p, a_sharp, Some(Greater)),
            (a_fuzzy, p, Some(Less)),
            (a_fuzzy, s, Some(Greater)),
            (s, s, Some(Equal)),
            (p, p_other, Some(Equal)),
            (a_sharp, a_fuzzy, Some(Greater)),
            (a_fuzzy, a_sharp, Some(Less)),
            (a_sharp, approximate(0.25), Some(Equal)),
            (a_nan, a_sharp, None),
            (a_sharp, a_nan, None),
            (a_nan, a_nan, None),
            (a_nan, p, Some(Less)),
            (a_nan, s, Some(Greater)),
        ];
        for (x, y, want) in cases {
            assert_eq!(x.cmp_strength(&y), want, "{x:?} vs {y:?}");
        }
    }

    #[test]
    fn variance_inflation_degrades_classes_monotonically() {
        let base = HintPolicy::seal_paper();
        // Inflation 1.0 is the identity (bit-exact).
        assert_eq!(
            base.with_variance_inflation(1.0).decide(0, 0.5),
            base.decide(0, 0.5)
        );
        // A borderline-perfect posterior degrades to approximate, then an
        // approximate one degrades to skipped, as inflation grows.
        let inflated = base.with_variance_inflation(100.0);
        assert_eq!(base.decide(0, 5e-10), HintDecision::Perfect { value: 0 });
        assert!(matches!(
            inflated.decide(0, 5e-10),
            HintDecision::Approximate { .. }
        ));
        assert!(matches!(
            base.decide(0, 2.0),
            HintDecision::Approximate { .. }
        ));
        assert_eq!(inflated.decide(0, 2.0), HintDecision::Skipped);
        // Inflation below 1.0 is clamped: it must never sharpen hints.
        assert_eq!(base.with_variance_inflation(0.1).variance_inflation, 1.0);
        // Inflated approximate hints carry a larger ε².
        let eps = |p: &HintPolicy| match p.decide(0, 0.5) {
            HintDecision::Approximate { eps_squared, .. } => eps_squared,
            other => panic!("expected approximate, got {other:?}"),
        };
        assert!(eps(&base.with_variance_inflation(4.0)) > eps(&base));
    }

    #[test]
    fn sharper_posterior_means_lower_bikz() {
        let policy = HintPolicy::seal_paper();
        let run = |confidence: f64| {
            let post = Posterior::new(vec![(1, confidence), (5, 1.0 - confidence)]).unwrap();
            let decision = policy.decide(post.mode(), post.variance());
            let (estimate, _) =
                fold_decisions(&LweParameters::seal_128_paper(), [decision; 1024]).unwrap();
            estimate.bikz
        };
        let sharp = run(0.9999);
        let fuzzy = run(0.7);
        assert!(sharp < fuzzy, "sharp {sharp} vs fuzzy {fuzzy}");
    }

    use proptest::prelude::*;

    proptest! {
        /// The robust driver's central safety property: raising the
        /// variance inflation can only weaken a decision — it never climbs
        /// the ladder, and while both decisions stay approximate the
        /// claimed hint sharpness (ε²) never improves.
        #[test]
        fn prop_inflation_never_improves_a_classification(
            variance in 0.0f64..20.0,
            a in 1.0f64..50.0,
            extra in 0.0f64..50.0,
        ) {
            let b = a + extra;
            let policy = HintPolicy::seal_paper();
            let low = policy.with_variance_inflation(a).decide(0, variance);
            let high = policy.with_variance_inflation(b).decide(0, variance);
            prop_assert!(
                matches!(high.cmp_strength(&low), Some(Ordering::Less | Ordering::Equal)),
                "inflation {a} -> {b} strengthened {low:?} to {high:?} at variance {variance}"
            );
        }

        /// Classification is also monotone in the variance itself at any
        /// fixed inflation: a fuzzier posterior never earns a stronger
        /// hint.
        #[test]
        fn prop_fuzzier_posterior_never_earns_a_stronger_hint(
            variance in 0.0f64..20.0,
            widen in 0.0f64..20.0,
            inflation in 1.0f64..10.0,
        ) {
            let policy = HintPolicy::seal_paper().with_variance_inflation(inflation);
            let sharp = policy.decide(0, variance);
            let fuzzy = policy.decide(0, variance + widen);
            prop_assert!(matches!(
                fuzzy.cmp_strength(&sharp),
                Some(Ordering::Less | Ordering::Equal)
            ));
        }
    }
}
