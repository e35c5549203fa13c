//! Test-vector leakage assessment (TVLA): the standard Welch t-test
//! methodology for certifying (or failing) an implementation's side-channel
//! posture — fixed-class vs random-class traces, per-sample t statistics,
//! fail when |t| exceeds the conventional 4.5 threshold.
//!
//! Used here to grade the sampler variants of §V-A the way an evaluation
//! lab would.

use crate::stats::Covariance;
use std::fmt;

/// The conventional TVLA pass/fail threshold.
pub const TVLA_THRESHOLD: f64 = 4.5;

/// Errors from the assessment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TvlaError {
    /// One of the groups has fewer than two traces.
    NotEnoughTraces { fixed: usize, random: usize },
    /// Trace lengths disagree.
    RaggedTraces,
}

impl fmt::Display for TvlaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TvlaError::NotEnoughTraces { fixed, random } => {
                write!(
                    f,
                    "need >= 2 traces per group, got {fixed} fixed / {random} random"
                )
            }
            TvlaError::RaggedTraces => write!(f, "traces must have equal length"),
        }
    }
}

impl std::error::Error for TvlaError {}

/// The result of a fixed-vs-random assessment.
#[derive(Debug, Clone, PartialEq)]
pub struct TvlaResult {
    /// Per-sample Welch t statistics.
    pub t_statistics: Vec<f64>,
    /// Samples whose |t| exceeds the threshold.
    pub failing_samples: Vec<usize>,
    /// The largest |t| observed.
    pub max_abs_t: f64,
}

impl TvlaResult {
    /// Whether the implementation passes (no sample above threshold).
    pub fn passes(&self) -> bool {
        self.failing_samples.is_empty()
    }
}

/// Runs the fixed-vs-random Welch t-test.
///
/// # Errors
///
/// Fails on group sizes below 2 or ragged trace lengths.
pub fn welch_t_test(fixed: &[Vec<f64>], random: &[Vec<f64>]) -> Result<TvlaResult, TvlaError> {
    if fixed.len() < 2 || random.len() < 2 {
        return Err(TvlaError::NotEnoughTraces {
            fixed: fixed.len(),
            random: random.len(),
        });
    }
    let len = fixed[0].len();
    if fixed.iter().chain(random).any(|t| t.len() != len) {
        return Err(TvlaError::RaggedTraces);
    }
    let mut t_statistics = Vec::with_capacity(len);
    let mut failing_samples = Vec::new();
    let mut max_abs_t = 0.0f64;
    for s in 0..len {
        let mut a = Covariance::new(1);
        let mut b = Covariance::new(1);
        for t in fixed {
            a.push(&[t[s]]);
        }
        for t in random {
            b.push(&[t[s]]);
        }
        let va = a.sample_covariance()[0] / a.count() as f64;
        let vb = b.sample_covariance()[0] / b.count() as f64;
        let denom = (va + vb).sqrt();
        let t_stat = if denom > 0.0 {
            (a.mean()[0] - b.mean()[0]) / denom
        } else {
            0.0
        };
        if t_stat.abs() > TVLA_THRESHOLD {
            failing_samples.push(s);
        }
        max_abs_t = max_abs_t.max(t_stat.abs());
        t_statistics.push(t_stat);
    }
    Ok(TvlaResult {
        t_statistics,
        failing_samples,
        max_abs_t,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_traces(count: usize, len: usize, level: f64, jitter: f64) -> Vec<Vec<f64>> {
        (0..count)
            .map(|i| {
                (0..len)
                    .map(|s| level + jitter * ((i * 13 + s * 7) as f64).sin())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn identical_distributions_pass() {
        let fixed = flat_traces(50, 32, 1.0, 0.2);
        let random = flat_traces(50, 32, 1.0, 0.2);
        // Same deterministic generator → identical groups → t = 0.
        let r = welch_t_test(&fixed, &random).unwrap();
        assert!(r.passes(), "max |t| = {}", r.max_abs_t);
    }

    #[test]
    fn mean_shift_fails_at_the_right_sample() {
        let fixed = flat_traces(100, 32, 1.0, 0.1);
        let mut random = flat_traces(100, 32, 1.0, 0.1);
        for (i, t) in random.iter_mut().enumerate() {
            t[17] += 0.5 + 0.001 * (i as f64).sin();
        }
        let r = welch_t_test(&fixed, &random).unwrap();
        assert!(!r.passes());
        assert!(r.failing_samples.contains(&17));
        assert!(r.max_abs_t > TVLA_THRESHOLD);
        // Only the shifted sample fails.
        assert_eq!(r.failing_samples, vec![17]);
    }

    #[test]
    fn error_paths() {
        let one = flat_traces(1, 8, 1.0, 0.1);
        let two = flat_traces(2, 8, 1.0, 0.1);
        assert!(matches!(
            welch_t_test(&one, &two),
            Err(TvlaError::NotEnoughTraces {
                fixed: 1,
                random: 2
            })
        ));
        let ragged = vec![vec![1.0; 8], vec![1.0; 9]];
        assert!(matches!(
            welch_t_test(&ragged, &two),
            Err(TvlaError::RaggedTraces)
        ));
    }

    #[test]
    fn t_grows_with_sample_count() {
        // The same small effect becomes detectable with more traces.
        let effect = 0.05;
        let t_at = |count: usize| {
            let fixed = flat_traces(count, 4, 1.0, 0.2);
            let mut random = flat_traces(count, 4, 1.0, 0.2);
            for (i, t) in random.iter_mut().enumerate() {
                // Break the perfect symmetry so variances stay sane.
                t[2] += effect + 0.01 * ((i * 31) as f64).cos();
            }
            welch_t_test(&fixed, &random).unwrap().max_abs_t
        };
        assert!(t_at(400) > t_at(25));
    }
}
