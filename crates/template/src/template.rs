//! Multivariate Gaussian templates in the style of Chari et al. \[28\].
//!
//! A template per candidate secret (here: per sampled coefficient value)
//! captures the mean and covariance of the POI-projected traces. The attack
//! evaluates the log-likelihood of a single observed trace under every
//! template and picks the maximizer; soft probabilities (needed by the
//! LWE-with-hints export, Table II) come from a softmax over the
//! log-likelihoods.

use crate::matrix::{regularize, Cholesky, MatrixError};
use crate::scores::ScoreTable;
use reveal_par::simd;
use reveal_trace::stats::Covariance;
use reveal_trace::TraceSet;
use std::collections::BTreeMap;
use std::fmt;

/// Classes the scoring kernel advances in lockstep. Each class's
/// Mahalanobis solve is a chain of dependent divides; walking a group's
/// rows together lets the group's chains overlap in the pipeline.
const GROUP: usize = 4;

/// Largest template dimension whose kernel work space lives on the stack;
/// larger templates take one heap buffer per classification.
const STACK_DIM: usize = 32;

/// Errors from template construction or classification.
#[derive(Debug, Clone, PartialEq)]
pub enum TemplateError {
    /// A class had fewer traces than dimensions (covariance singular).
    NotEnoughTraces {
        label: i64,
        count: usize,
        dim: usize,
    },
    /// The profiling set was empty or unlabelled.
    NoClasses,
    /// Factorization failed even after regularization.
    Matrix(MatrixError),
    /// An observation had the wrong dimension.
    DimensionMismatch { expected: usize, got: usize },
}

impl fmt::Display for TemplateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemplateError::NotEnoughTraces { label, count, dim } => write!(
                f,
                "class {label} has {count} traces for {dim} dimensions — covariance would be singular"
            ),
            TemplateError::NoClasses => write!(f, "profiling set has no labelled traces"),
            TemplateError::Matrix(e) => write!(f, "covariance factorization failed: {e}"),
            TemplateError::DimensionMismatch { expected, got } => {
                write!(f, "expected {expected}-dimensional observation, got {got}")
            }
        }
    }
}

impl std::error::Error for TemplateError {}

impl From<MatrixError> for TemplateError {
    fn from(e: MatrixError) -> Self {
        TemplateError::Matrix(e)
    }
}

/// Covariance strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CovarianceMode {
    /// One covariance per class (classic template attack).
    PerClass,
    /// A single covariance pooled over all classes (more robust with few
    /// traces per class; standard practice since Choudary & Kuhn).
    Pooled,
}

/// One class template: mean vector plus (shared or own) covariance factor.
#[derive(Debug, Clone)]
struct ClassTemplate {
    label: i64,
    mean: Vec<f64>,
    /// Index into the factor table (pooled mode shares index 0).
    factor: usize,
}

/// A trained set of Gaussian templates over POI vectors.
///
/// # Examples
///
/// ```
/// use reveal_template::{TemplateSet, CovarianceMode};
/// // Two 1-D classes at -1 and +1 with small jitter.
/// let obs: Vec<(i64, Vec<f64>)> = (0..20)
///     .flat_map(|i| {
///         let j = (i as f64) * 0.01;
///         [(-1i64, vec![-1.0 + j]), (1i64, vec![1.0 - j])]
///     })
///     .collect();
/// let set = TemplateSet::fit(&obs, CovarianceMode::Pooled, 1e-9)?;
/// assert_eq!(set.classify(&[0.9])?.best_label(), 1);
/// assert_eq!(set.classify(&[-0.8])?.best_label(), -1);
/// # Ok::<(), reveal_template::TemplateError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TemplateSet {
    dim: usize,
    /// Ascending by label.
    classes: Vec<ClassTemplate>,
    factors: Vec<(Cholesky, f64)>, // (factor, log_det)
    mode: CovarianceMode,
}

impl TemplateSet {
    /// Fits templates from `(label, poi_vector)` observations.
    ///
    /// `ridge` is added to covariance diagonals before factorization; pass a
    /// small value like `1e-6` for numerical robustness.
    ///
    /// # Errors
    ///
    /// Fails when there are no observations, a class is too small in
    /// per-class mode, or the covariance cannot be factorized.
    pub fn fit(
        observations: &[(i64, Vec<f64>)],
        mode: CovarianceMode,
        ridge: f64,
    ) -> Result<Self, TemplateError> {
        let dim = observations
            .first()
            .map(|(_, v)| v.len())
            .ok_or(TemplateError::NoClasses)?;
        let mut by_label: BTreeMap<i64, Vec<&Vec<f64>>> = BTreeMap::new();
        for (label, v) in observations {
            if v.len() != dim {
                return Err(TemplateError::DimensionMismatch {
                    expected: dim,
                    got: v.len(),
                });
            }
            by_label.entry(*label).or_default().push(v);
        }
        let mut classes = Vec::with_capacity(by_label.len());
        let mut factors = Vec::new();
        match mode {
            CovarianceMode::Pooled => {
                let mut pooled = Covariance::new(dim);
                let mut means: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
                for (&label, vecs) in &by_label {
                    let mut acc = Covariance::new(dim);
                    for v in vecs {
                        acc.push(v);
                    }
                    means.insert(label, acc.mean().to_vec());
                }
                // Pool the *centered* observations across classes.
                for (&label, vecs) in &by_label {
                    let mean = &means[&label];
                    for v in vecs {
                        let centered: Vec<f64> = v.iter().zip(mean).map(|(a, b)| a - b).collect();
                        pooled.push(&centered);
                    }
                }
                let mut cov = pooled.sample_covariance();
                regularize(&mut cov, dim, ridge);
                let ch = Cholesky::new(&cov, dim)?;
                let log_det = ch.log_determinant();
                factors.push((ch, log_det));
                for (label, mean) in means {
                    classes.push(ClassTemplate {
                        label,
                        mean,
                        factor: 0,
                    });
                }
            }
            CovarianceMode::PerClass => {
                for (&label, vecs) in &by_label {
                    if vecs.len() <= dim {
                        return Err(TemplateError::NotEnoughTraces {
                            label,
                            count: vecs.len(),
                            dim,
                        });
                    }
                    let mut acc = Covariance::new(dim);
                    for v in vecs {
                        acc.push(v);
                    }
                    let mut cov = acc.sample_covariance();
                    regularize(&mut cov, dim, ridge);
                    let ch = Cholesky::new(&cov, dim)?;
                    let log_det = ch.log_determinant();
                    classes.push(ClassTemplate {
                        label,
                        mean: acc.mean().to_vec(),
                        factor: factors.len(),
                    });
                    factors.push((ch, log_det));
                }
            }
        }
        if classes.is_empty() {
            return Err(TemplateError::NoClasses);
        }
        Ok(Self {
            dim,
            classes,
            factors,
            mode,
        })
    }

    /// Convenience: fits from a labelled [`TraceSet`] projected onto POIs.
    ///
    /// # Errors
    ///
    /// Same as [`TemplateSet::fit`].
    pub fn fit_trace_set(
        set: &TraceSet,
        pois: &[usize],
        mode: CovarianceMode,
        ridge: f64,
    ) -> Result<Self, TemplateError> {
        let observations: Vec<(i64, Vec<f64>)> = set
            .iter()
            .filter_map(|t| t.label().map(|l| (l, t.project(pois))))
            .collect();
        Self::fit(&observations, mode, ridge)
    }

    /// POI-vector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The covariance strategy used.
    pub fn mode(&self) -> CovarianceMode {
        self.mode
    }

    /// The class labels, ascending.
    pub fn labels(&self) -> Vec<i64> {
        self.classes.iter().map(|c| c.label).collect()
    }

    /// The template mean of a class.
    pub fn class_mean(&self, label: i64) -> Option<&[f64]> {
        let i = self
            .classes
            .binary_search_by_key(&label, |c| c.label)
            .ok()?;
        Some(&self.classes[i].mean)
    }

    /// Log-likelihood (up to the shared `-d/2 ln 2π` constant) of an
    /// observation under each class template.
    ///
    /// # Errors
    ///
    /// Fails on dimension mismatch.
    pub fn classify(&self, observation: &[f64]) -> Result<ScoreTable, TemplateError> {
        if observation.len() != self.dim {
            return Err(TemplateError::DimensionMismatch {
                expected: self.dim,
                got: observation.len(),
            });
        }
        Ok(self.score(|i| observation[i]))
    }

    /// [`classify`](Self::classify) of the projection of `samples` onto
    /// `pois` — the observation [`fit_trace_set`](Self::fit_trace_set)
    /// builds from a profiling trace — read in place, without
    /// materializing it.
    ///
    /// # Errors
    ///
    /// Fails with [`TemplateError::DimensionMismatch`] when `pois` does not
    /// have one index per dimension, or when `samples` is too short for
    /// the largest index.
    pub fn classify_projected(
        &self,
        samples: &[f64],
        pois: &[usize],
    ) -> Result<ScoreTable, TemplateError> {
        if pois.len() != self.dim {
            return Err(TemplateError::DimensionMismatch {
                expected: self.dim,
                got: pois.len(),
            });
        }
        if let Some(&max) = pois.iter().max().filter(|&&max| max >= samples.len()) {
            return Err(TemplateError::DimensionMismatch {
                expected: max + 1,
                got: samples.len(),
            });
        }
        Ok(self.score(|i| samples[pois[i]]))
    }

    /// Scores every class against the observation `x(0..dim)`: the
    /// log-likelihood `-(d² + ln det Σ) / 2`, with each class's `d²`
    /// computed in exactly [`Cholesky::mahalanobis_squared`]'s operation
    /// order — the same difference vector, the same [`simd::dot`] per
    /// forward row, the same backward loop and divides, the same final
    /// dot — so every score is bit-identical to the per-class solve. What
    /// differs is the schedule: [`GROUP`] classes walk their rows
    /// together, so their divide chains overlap, and the solves run in one
    /// work space reused across groups (on the stack up to [`STACK_DIM`]
    /// dimensions).
    fn score(&self, x: impl Fn(usize) -> f64) -> ScoreTable {
        let dim = self.dim;
        let mut stack = [0.0; 2 * GROUP * STACK_DIM];
        let mut heap = Vec::new();
        let work = if dim <= STACK_DIM {
            &mut stack[..2 * GROUP * dim]
        } else {
            heap.resize(2 * GROUP * dim, 0.0);
            heap.as_mut_slice()
        };
        let (diffs, solved) = work.split_at_mut(GROUP * dim);
        let mut scores = Vec::with_capacity(self.classes.len());
        for group in self.classes.chunks(GROUP) {
            let factor = |c: usize| &self.factors[group[c].factor];
            for (c, class) in group.iter().enumerate() {
                for (i, d) in diffs[c * dim..(c + 1) * dim].iter_mut().enumerate() {
                    *d = x(i) - class.mean[i];
                }
            }
            // Forward substitution `L·y = diff`, one row of every class at
            // a time.
            for i in 0..dim {
                for c in 0..group.len() {
                    let l = factor(c).0.lower();
                    let y = &mut solved[c * dim..(c + 1) * dim];
                    let sum = diffs[c * dim + i] - simd::dot(&l[i * dim..i * dim + i], &y[..i]);
                    y[i] = sum / l[i * dim + i];
                }
            }
            // Backward substitution `Lᵀ·x = y` in place: `x[k]` overwrites
            // `y[k]` once row `k` is solved, and row `i` reads only
            // `y[i]` and the solved `x[i + 1..]`.
            for i in (0..dim).rev() {
                for c in 0..group.len() {
                    let l = factor(c).0.lower();
                    let y = &mut solved[c * dim..(c + 1) * dim];
                    let mut sum = y[i];
                    for k in i + 1..dim {
                        sum -= l[k * dim + i] * y[k];
                    }
                    y[i] = sum / l[i * dim + i];
                }
            }
            for (c, class) in group.iter().enumerate() {
                let range = c * dim..(c + 1) * dim;
                let d2 = simd::dot(&diffs[range.clone()], &solved[range]);
                scores.push((class.label, -0.5 * (d2 + factor(c).1)));
            }
        }
        ScoreTable::from_log_likelihoods(scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reveal_trace::Trace;

    fn gaussian_cloud(center: &[f64], count: usize, spread: f64, seed: u64) -> Vec<Vec<f64>> {
        // Deterministic pseudo-random jitter (hash-based, isotropic enough
        // for a full-rank covariance; no RNG needed for tests).
        (0..count as u64)
            .map(|i| {
                center
                    .iter()
                    .enumerate()
                    .map(|(d, &c)| {
                        let h = (i
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add((d as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
                            .wrapping_add(seed.wrapping_mul(0x94D0_49BB_1331_11EB)))
                        .rotate_left(31);
                        let unit = (h % 10_000) as f64 / 10_000.0 - 0.5;
                        c + 2.0 * spread * unit
                    })
                    .collect()
            })
            .collect()
    }

    fn three_class_data() -> Vec<(i64, Vec<f64>)> {
        let mut obs = Vec::new();
        for (label, center) in [(-1i64, [-2.0, 0.0]), (0, [0.0, 2.0]), (1, [2.0, 0.0])] {
            for v in gaussian_cloud(&center, 40, 0.3, label.unsigned_abs()) {
                obs.push((label, v));
            }
        }
        obs
    }

    #[test]
    fn pooled_and_per_class_classify_separable_data() {
        let obs = three_class_data();
        for mode in [CovarianceMode::Pooled, CovarianceMode::PerClass] {
            let set = TemplateSet::fit(&obs, mode, 1e-9).unwrap();
            assert_eq!(set.labels(), vec![-1, 0, 1]);
            assert_eq!(set.classify(&[-2.0, 0.1]).unwrap().best_label(), -1);
            assert_eq!(set.classify(&[0.1, 1.9]).unwrap().best_label(), 0);
            assert_eq!(set.classify(&[1.8, -0.1]).unwrap().best_label(), 1);
        }
    }

    #[test]
    fn probabilities_are_normalized_and_confident() {
        let obs = three_class_data();
        let set = TemplateSet::fit(&obs, CovarianceMode::Pooled, 1e-9).unwrap();
        let scores = set.classify(&[2.0, 0.0]).unwrap();
        let probs = scores.probabilities();
        let total: f64 = probs.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let p1 = probs.iter().find(|(l, _)| *l == 1).unwrap().1;
        assert!(p1 > 0.95, "should be confident, got {p1}");
    }

    #[test]
    fn per_class_rejects_tiny_classes() {
        let obs = vec![
            (0i64, vec![0.0, 0.0]),
            (0, vec![0.1, 0.1]),
            (1, vec![1.0, 1.0]),
            (1, vec![1.1, 0.9]),
        ];
        assert!(matches!(
            TemplateSet::fit(&obs, CovarianceMode::PerClass, 1e-9),
            Err(TemplateError::NotEnoughTraces { .. })
        ));
        // Pooled mode copes.
        assert!(TemplateSet::fit(&obs, CovarianceMode::Pooled, 1e-6).is_ok());
    }

    #[test]
    fn empty_and_mismatched_inputs() {
        assert!(matches!(
            TemplateSet::fit(&[], CovarianceMode::Pooled, 0.0),
            Err(TemplateError::NoClasses)
        ));
        let obs = vec![(0i64, vec![1.0, 2.0]), (1, vec![1.0])];
        assert!(matches!(
            TemplateSet::fit(&obs, CovarianceMode::Pooled, 0.0),
            Err(TemplateError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
        let good = three_class_data();
        let set = TemplateSet::fit(&good, CovarianceMode::Pooled, 1e-9).unwrap();
        assert!(matches!(
            set.classify(&[1.0]),
            Err(TemplateError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn fit_from_trace_set_with_pois() {
        let mut ts = TraceSet::new();
        for i in 0..30 {
            let j = i as f64 * 0.01;
            // Leakage only at samples 2 and 5.
            ts.push(Trace::labelled(
                vec![1.0, 1.0, 3.0 + j, 1.0, 1.0, 0.0 - j, 1.0, 1.0],
                1,
            ));
            ts.push(Trace::labelled(
                vec![1.0, 1.0, 0.0 - j, 1.0, 1.0, 3.0 + j, 1.0, 1.0],
                -1,
            ));
        }
        let set = TemplateSet::fit_trace_set(&ts, &[2, 5], CovarianceMode::Pooled, 1e-9).unwrap();
        assert_eq!(set.dim(), 2);
        assert_eq!(set.classify(&[3.0, 0.0]).unwrap().best_label(), 1);
        assert_eq!(set.classify(&[0.0, 3.0]).unwrap().best_label(), -1);
    }

    /// A fitted set of `classes` classes in `dim` dimensions, plus a few
    /// observations to score (off-center, and one far outlier).
    fn lockstep_case(
        dim: usize,
        classes: usize,
        mode: CovarianceMode,
    ) -> (TemplateSet, Vec<Vec<f64>>) {
        let mut obs = Vec::new();
        for c in 0..classes {
            let center: Vec<f64> = (0..dim)
                .map(|d| c as f64 * 0.7 - (d % 5) as f64 * 0.3)
                .collect();
            for v in gaussian_cloud(&center, dim + 3, 0.4, (dim * 31 + c) as u64) {
                obs.push((c as i64 - 14, v));
            }
        }
        let set = TemplateSet::fit(&obs, mode, 1e-6).unwrap();
        let probes = vec![
            obs[0].1.clone(),
            gaussian_cloud(&vec![0.3; dim], 1, 2.0, dim as u64).remove(0),
            vec![1e3; dim],
        ];
        (set, probes)
    }

    /// The lockstep kernel against the per-class solve it schedules.
    fn assert_lockstep_matches_per_class(set: &TemplateSet, probes: &[Vec<f64>]) {
        for x in probes {
            let scores = set.classify(x).unwrap();
            assert_eq!(scores.len(), set.classes.len());
            for ((label, score), class) in scores.log_likelihoods().iter().zip(&set.classes) {
                let (factor, log_det) = &set.factors[class.factor];
                let d2 = factor.mahalanobis_squared(x, &class.mean).unwrap();
                assert_eq!(*label, class.label);
                assert_eq!(
                    score.to_bits(),
                    (-0.5 * (d2 + log_det)).to_bits(),
                    "dim {} classes {} mode {:?}",
                    set.dim,
                    set.classes.len(),
                    set.mode
                );
            }
            // Reading the observation through a POI map changes nothing.
            let pois: Vec<usize> = (0..set.dim).map(|i| 2 * i + 1).collect();
            let mut window = vec![f64::NAN; 2 * set.dim + 1];
            for (&p, &v) in pois.iter().zip(x) {
                window[p] = v;
            }
            assert_eq!(set.classify_projected(&window, &pois).unwrap(), scores);
        }
    }

    #[test]
    fn lockstep_scores_match_per_class_mahalanobis_bit_for_bit() {
        for mode in [CovarianceMode::Pooled, CovarianceMode::PerClass] {
            // Every dimension up to the stack limit and past it (the heap
            // work space), 24 being the largest the POI ablation uses, each
            // with a class count that is not a multiple of the group width
            // whenever the cycle allows.
            for dim in (1..=STACK_DIM + 1).chain([40]) {
                let (set, probes) = lockstep_case(dim, 1 + (dim * 7) % 29, mode);
                assert_lockstep_matches_per_class(&set, &probes);
            }
            // Every class count from one to the paper's 29 labels.
            for classes in 1..=29 {
                let (set, probes) = lockstep_case(24, classes, mode);
                assert_lockstep_matches_per_class(&set, &probes);
            }
        }
    }

    #[test]
    fn projected_classification_rejects_short_samples() {
        let set = TemplateSet::fit(&three_class_data(), CovarianceMode::Pooled, 1e-9).unwrap();
        assert_eq!(
            set.classify_projected(&[1.0; 4], &[0, 7]),
            Err(TemplateError::DimensionMismatch {
                expected: 8,
                got: 4
            })
        );
        assert_eq!(
            set.classify_projected(&[1.0; 4], &[0, 1, 2]),
            Err(TemplateError::DimensionMismatch {
                expected: 2,
                got: 3
            })
        );
    }

    #[test]
    fn class_means_recovered() {
        let obs = three_class_data();
        let set = TemplateSet::fit(&obs, CovarianceMode::Pooled, 1e-9).unwrap();
        let m = set.class_mean(1).unwrap();
        assert!((m[0] - 2.0).abs() < 0.2);
        assert!(m[1].abs() < 0.2);
        assert!(set.class_mean(99).is_none());
    }
}
