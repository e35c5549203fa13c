//! From single-trace estimates to security numbers: exporting the attack's
//! per-coefficient posteriors into the LWE-with-hints framework and
//! reporting bikz/bits as in Tables III and IV.

use crate::profile::SingleTraceAttack;
use reveal_hints::{
    fold_decisions, DbddInstance, FoldError, HintDecision, HintError, HintPolicy, HintSummary,
    LweParameters, Posterior, PosteriorError, SecurityEstimate,
};
use std::fmt;

/// Errors from report generation.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportError {
    /// Hint integration failed.
    Hint(HintError),
    /// A posterior could not be built from the estimates.
    Posterior(PosteriorError),
    /// More coefficient estimates than error coordinates.
    TooManyCoefficients { estimates: usize, coords: usize },
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Hint(e) => write!(f, "hint integration failed: {e}"),
            ReportError::Posterior(e) => write!(f, "posterior construction failed: {e}"),
            ReportError::TooManyCoefficients { estimates, coords } => {
                write!(f, "{estimates} estimates for {coords} error coordinates")
            }
        }
    }
}

impl std::error::Error for ReportError {}

impl From<HintError> for ReportError {
    fn from(e: HintError) -> Self {
        ReportError::Hint(e)
    }
}

impl From<FoldError> for ReportError {
    fn from(e: FoldError) -> Self {
        ReportError::Hint(e.error)
    }
}

impl From<PosteriorError> for ReportError {
    fn from(e: PosteriorError) -> Self {
        ReportError::Posterior(e)
    }
}

/// The paper-style security report for one attacked trace.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackReport {
    /// Security without any side information (Table III row 1).
    pub baseline: SecurityEstimate,
    /// Security after integrating the trace's hints (Table III row 2).
    pub with_hints: SecurityEstimate,
    /// How the hints were classified.
    pub hints: HintSummary,
    /// Number of coefficient estimates consumed.
    pub coefficients: usize,
}

impl fmt::Display for AttackReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "attack without hints: {:.2} bikz (~2^{:.1})",
            self.baseline.bikz, self.baseline.bits
        )?;
        writeln!(
            f,
            "attack with hints:    {:.2} bikz (~2^{:.1})",
            self.with_hints.bikz, self.with_hints.bits
        )?;
        write!(
            f,
            "hints: {} perfect, {} approximate, {} skipped over {} coefficients",
            self.hints.perfect, self.hints.approximate, self.hints.skipped, self.coefficients
        )
    }
}

/// Builds the full-information report (Table III): every coefficient's
/// posterior becomes a perfect or approximate hint per `policy`.
///
/// # Errors
///
/// Fails when estimates outnumber the instance's error coordinates or hint
/// integration fails.
pub fn report_full_attack(
    attack: &SingleTraceAttack,
    params: &LweParameters,
    policy: &HintPolicy,
) -> Result<AttackReport, ReportError> {
    let posteriors: Result<Vec<Posterior>, _> = attack
        .coefficients
        .iter()
        .map(|c| Posterior::new(c.probabilities.clone()))
        .collect();
    report_posteriors(&posteriors?, params, policy)
}

/// Builds the sign-only report (Table IV): only the branch vulnerability is
/// used — zero coefficients become perfect hints, nonzero ones keep the
/// rounded-Gaussian prior restricted to the detected sign.
///
/// # Errors
///
/// Same as [`report_full_attack`].
pub fn report_sign_only(
    attack: &SingleTraceAttack,
    params: &LweParameters,
    policy: &HintPolicy,
    sigma: f64,
    value_range: i64,
) -> Result<AttackReport, ReportError> {
    let prior = rounded_gaussian_prior(sigma, value_range);
    let posteriors: Result<Vec<Posterior>, _> = attack
        .coefficients
        .iter()
        .map(|c| sign_only_posterior(&prior, c.sign))
        .collect();
    report_posteriors(&posteriors?, params, policy)
}

/// What knowing only a coefficient's sign leaves of `prior`: the prior
/// restricted to the values of sign `sign.signum()` and renormalized, or
/// the certain zero for sign 0.
///
/// # Errors
///
/// Fails when `prior` holds no valid mass of that sign.
pub fn sign_only_posterior(prior: &[(i64, f64)], sign: i64) -> Result<Posterior, PosteriorError> {
    if sign == 0 {
        return Ok(Posterior::certain(0));
    }
    Posterior::new(
        prior
            .iter()
            .filter(|(v, _)| v.signum() == sign.signum())
            .copied()
            .collect(),
    )
}

/// Builds the report from explicit posteriors: each posterior's mode is
/// decided at its variance by `policy`.
///
/// # Errors
///
/// Fails when posteriors outnumber error coordinates.
pub fn report_posteriors(
    posteriors: &[Posterior],
    params: &LweParameters,
    policy: &HintPolicy,
) -> Result<AttackReport, ReportError> {
    let decisions = posteriors
        .iter()
        .map(|p| policy.decide(p.mode(), p.variance()));
    report_decisions(decisions, params)
}

/// The report all the `report_*` functions end in: one decision per error
/// coordinate, folded in order by [`fold_decisions`].
///
/// # Errors
///
/// Fails when decisions outnumber error coordinates or hint integration
/// fails.
pub(crate) fn report_decisions(
    decisions: impl ExactSizeIterator<Item = HintDecision>,
    params: &LweParameters,
) -> Result<AttackReport, ReportError> {
    let coefficients = decisions.len();
    if coefficients > params.m {
        return Err(ReportError::TooManyCoefficients {
            estimates: coefficients,
            coords: params.m,
        });
    }
    let (with_hints, hints) = fold_decisions(params, decisions)?;
    Ok(AttackReport {
        baseline: DbddInstance::from_lwe(params).estimate(),
        with_hints,
        hints,
        coefficients,
    })
}

/// The probability mass function of `round(N(0, σ²))` clipped to
/// `[-range, range]`, normalized — the prior the sign-only analysis
/// conditions on.
pub fn rounded_gaussian_prior(sigma: f64, range: i64) -> Vec<(i64, f64)> {
    let phi = |x: f64| 0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2));
    let mut entries: Vec<(i64, f64)> = (-range..=range)
        .map(|v| {
            let lo = (v as f64 - 0.5) / sigma;
            let hi = (v as f64 + 0.5) / sigma;
            (v, phi(hi) - phi(lo))
        })
        .collect();
    let total: f64 = entries.iter().map(|(_, p)| p).sum();
    for (_, p) in &mut entries {
        *p /= total;
    }
    entries
}

/// The error function, via the Abramowitz–Stegun 7.1.26 rational
/// approximation (|error| < 1.5e-7 — ample for prior construction).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::CoefficientEstimate;

    fn perfect_attack(values: &[i64]) -> SingleTraceAttack {
        SingleTraceAttack {
            coefficients: values
                .iter()
                .map(|&v| CoefficientEstimate {
                    sign: v.signum(),
                    predicted: v,
                    probabilities: vec![(v, 1.0)],
                })
                .collect(),
        }
    }

    #[test]
    fn erf_known_values() {
        assert!(erf(0.0).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427008).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427008).abs() < 1e-6);
        assert!((erf(3.0) - 0.9999779).abs() < 1e-6);
    }

    #[test]
    fn prior_moments_match_sampler() {
        let prior = rounded_gaussian_prior(3.19, 41);
        let total: f64 = prior.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let mean: f64 = prior.iter().map(|(v, p)| *v as f64 * p).sum();
        let var: f64 = prior
            .iter()
            .map(|(v, p)| p * (*v as f64 - mean).powi(2))
            .sum();
        assert!(mean.abs() < 1e-9);
        // Var of round(N(0, 3.19²)) ≈ 3.19² + 1/12.
        assert!((var - (3.19f64 * 3.19 + 1.0 / 12.0)).abs() < 0.02);
        // P(0) ≈ 12.5%.
        let p0 = prior.iter().find(|(v, _)| *v == 0).unwrap().1;
        assert!((p0 - 0.1246).abs() < 0.005, "P(0) = {p0}");
    }

    #[test]
    fn full_report_collapses_security() {
        let values: Vec<i64> = (0..1024).map(|i| ((i % 29) as i64) - 14).collect();
        let report = report_full_attack(
            &perfect_attack(&values),
            &LweParameters::seal_128_paper(),
            &HintPolicy::seal_paper(),
        )
        .unwrap();
        assert!(report.baseline.bikz > 300.0);
        assert!(report.with_hints.bikz < 40.0);
        assert_eq!(report.hints.perfect, 1024);
        assert!(report.to_string().contains("bikz"));
    }

    #[test]
    fn sign_only_report_lands_between() {
        let values: Vec<i64> = (0..1024).map(|i| ((i % 29) as i64) - 14).collect();
        let attack = perfect_attack(&values);
        let params = LweParameters::seal_128_paper();
        let policy = HintPolicy::seal_paper();
        let full = report_full_attack(&attack, &params, &policy).unwrap();
        let sign_only = report_sign_only(&attack, &params, &policy, 3.19, 14).unwrap();
        assert!(sign_only.with_hints.bikz > full.with_hints.bikz + 50.0);
        assert!(sign_only.with_hints.bikz < sign_only.baseline.bikz - 30.0);
        // Paper Table IV conclusion: signs alone cannot recover the message.
        assert!(sign_only.with_hints.bits > 40.0);
    }

    #[test]
    fn too_many_estimates_rejected() {
        let values = vec![0i64; 2000];
        let err = report_full_attack(
            &perfect_attack(&values),
            &LweParameters::seal_128_paper(),
            &HintPolicy::seal_paper(),
        );
        assert!(matches!(
            err,
            Err(ReportError::TooManyCoefficients {
                estimates: 2000,
                coords: 1024
            })
        ));
    }

    #[test]
    fn fuzzy_posteriors_still_reduce_security() {
        let attack = SingleTraceAttack {
            coefficients: (0..1024)
                .map(|_| CoefficientEstimate {
                    sign: 1,
                    predicted: 2,
                    probabilities: vec![(1, 0.2), (2, 0.5), (3, 0.3)],
                })
                .collect(),
        };
        let report = report_full_attack(
            &attack,
            &LweParameters::seal_128_paper(),
            &HintPolicy::seal_paper(),
        )
        .unwrap();
        assert_eq!(report.hints.approximate, 1024);
        assert!(report.with_hints.bikz < report.baseline.bikz);
    }
}
