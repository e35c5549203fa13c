//! Multivariate Gaussian templates in the style of Chari et al. \[28\].
//!
//! A template per candidate secret (here: per sampled coefficient value)
//! captures the mean of the POI-projected traces; one covariance, pooled
//! over all classes, captures the noise. The attack evaluates the
//! log-likelihood of a single observed trace under every template and picks
//! the maximizer; soft probabilities (needed by the LWE-with-hints export,
//! Table II) come from a softmax over the log-likelihoods.

use crate::matrix::{regularize, Cholesky, MatrixError};
use crate::scores::ScoreTable;
use reveal_par::simd;
use reveal_trace::stats::Covariance;
use reveal_trace::TraceSet;
use std::fmt;
use std::ops::Range;

/// Classes the scoring kernel solves at once, one per lane of its work
/// space. Every step of the solve is the same operation on each lane, so the
/// compiler turns it into packed arithmetic across classes.
const LANES: usize = 8;

/// One value per class of a lane group.
type Lanes = [f64; LANES];

/// Largest template dimension whose kernel work space lives on the stack;
/// larger templates take one heap buffer per classification.
const STACK_DIM: usize = 32;

/// Errors from template construction or classification.
#[derive(Debug, Clone, PartialEq)]
pub enum TemplateError {
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

/// One class template: its label and mean vector.
#[derive(Debug, Clone)]
struct ClassTemplate {
    label: i64,
    mean: Vec<f64>,
}

/// A trained set of Gaussian templates over POI vectors, sharing one
/// covariance pooled over the centred observations of every class (robust
/// with few traces per class; standard practice since Choudary & Kuhn).
///
/// # Examples
///
/// ```
/// use reveal_template::TemplateSet;
/// // Two 1-D classes at -1 and +1 with small jitter.
/// let obs: Vec<(i64, Vec<f64>)> = (0..20)
///     .flat_map(|i| {
///         let j = (i as f64) * 0.01;
///         [(-1i64, vec![-1.0 + j]), (1i64, vec![1.0 - j])]
///     })
///     .collect();
/// let set = TemplateSet::fit(&obs, 1e-9)?;
/// assert_eq!(set.classify(&[0.9])?.best_label(), 1);
/// assert_eq!(set.classify(&[-0.8])?.best_label(), -1);
/// # Ok::<(), reveal_template::TemplateError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TemplateSet {
    dim: usize,
    /// Ascending by label.
    classes: Vec<ClassTemplate>,
    /// The factor of the pooled covariance.
    factor: Cholesky,
    /// `ln det` of the pooled covariance.
    log_det: f64,
}

impl TemplateSet {
    /// Fits templates from `(label, poi_vector)` observations.
    ///
    /// `ridge` is added to the covariance diagonal before factorization;
    /// pass a small value like `1e-6` for numerical robustness.
    ///
    /// # Errors
    ///
    /// Fails when there are no observations, when they differ in dimension,
    /// or when the covariance cannot be factorized.
    pub fn fit(observations: &[(i64, Vec<f64>)], ridge: f64) -> Result<Self, TemplateError> {
        let dim = observations
            .first()
            .map(|(_, v)| v.len())
            .ok_or(TemplateError::NoClasses)?;
        if let Some((_, v)) = observations.iter().find(|(_, v)| v.len() != dim) {
            return Err(TemplateError::DimensionMismatch {
                expected: dim,
                got: v.len(),
            });
        }
        let observations = observations.iter().map(|(l, v)| (*l, v.as_slice()));
        let rows = ClassRows::gather(dim, observations, |v, row| row.copy_from_slice(v));
        Self::fit_rows(&rows, ridge)
    }

    /// Convenience: fits from a labelled [`TraceSet`] projected onto POIs.
    /// Each labelled trace's projection is written once, straight into the
    /// class-grouped buffer the fit reads.
    ///
    /// # Errors
    ///
    /// Same as [`TemplateSet::fit`].
    pub fn fit_trace_set(
        set: &TraceSet,
        pois: &[usize],
        ridge: f64,
    ) -> Result<Self, TemplateError> {
        let labelled = set
            .iter()
            .filter_map(|t| t.label().map(|l| (l, t.samples())));
        let rows = ClassRows::gather(pois.len(), labelled, |samples, row| {
            for (r, &p) in row.iter_mut().zip(pois) {
                *r = samples[p];
            }
        });
        Self::fit_rows(&rows, ridge)
    }

    /// The fit body behind [`fit`](Self::fit) and
    /// [`fit_trace_set`](Self::fit_trace_set). Each class's Welford pass,
    /// and the pooled pass over the centred observations (classes
    /// ascending, input order within a class), pushes the same vectors in
    /// the same order as a per-class grouping of the input would, so every
    /// mean, covariance and factor is bit-identical to it.
    fn fit_rows(rows: &ClassRows, ridge: f64) -> Result<Self, TemplateError> {
        if rows.classes.is_empty() {
            return Err(TemplateError::NoClasses);
        }
        let dim = rows.dim;
        let classes: Vec<ClassTemplate> = rows
            .classes
            .iter()
            .map(|(label, range)| {
                let mut acc = Covariance::new(dim);
                for v in rows.rows(range) {
                    acc.push(v);
                }
                ClassTemplate {
                    label: *label,
                    mean: acc.mean().to_vec(),
                }
            })
            .collect();
        // Pool the *centered* observations across classes.
        let mut pooled = Covariance::new(dim);
        let mut centered = vec![0.0; dim];
        for ((_, range), class) in rows.classes.iter().zip(&classes) {
            for v in rows.rows(range) {
                for ((c, a), b) in centered.iter_mut().zip(v).zip(&class.mean) {
                    *c = a - b;
                }
                pooled.push(&centered);
            }
        }
        let mut cov = pooled.sample_covariance();
        regularize(&mut cov, dim, ridge);
        let factor = Cholesky::new(&cov, dim)?;
        let log_det = factor.log_determinant();
        Ok(Self {
            dim,
            classes,
            factor,
            log_det,
        })
    }

    /// POI-vector dimension.
    pub fn dim(&self) -> usize {
        self.dim
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
    /// order — the same difference vector, the same [`simd::dot`]
    /// recurrence per forward row, the same backward loop and divides, the
    /// same final dot — so every score is bit-identical to the per-class
    /// solve. What differs is the layout: [`LANES`] classes (in label order,
    /// the last group padded with zero differences) share one work space
    /// `[dim][LANES]`, and each step runs on all lanes at once against the
    /// one pooled factor, whose entries every lane reads alike. The work
    /// space lives on the stack up to [`STACK_DIM`] dimensions.
    fn score(&self, x: impl Fn(usize) -> f64) -> ScoreTable {
        let dim = self.dim;
        let l = self.factor.lower();
        let mut stack = [[0.0; LANES]; 2 * STACK_DIM];
        let mut heap = Vec::new();
        let work = if dim <= STACK_DIM {
            &mut stack[..2 * dim]
        } else {
            heap.resize(2 * dim, [0.0; LANES]);
            heap.as_mut_slice()
        };
        let (diffs, solved) = work.split_at_mut(dim);
        let mut scores = Vec::with_capacity(self.classes.len());
        for group in self.classes.chunks(LANES) {
            for (i, d) in diffs.iter_mut().enumerate() {
                let xi = x(i);
                for (d, class) in d.iter_mut().zip(group) {
                    *d = xi - class.mean[i];
                }
                d[group.len()..].fill(0.0);
            }
            // Forward substitution `L·y = diff`: row `i` subtracts the dot
            // of its prefix with the solved `y[..i]`.
            for i in 0..dim {
                let row = &l[i * dim..i * dim + i];
                let dot = lane_dot(i, |k| solved[k].map(|y| row[k] * y));
                let pivot = l[i * dim + i];
                solved[i] = std::array::from_fn(|c| (diffs[i][c] - dot[c]) / pivot);
            }
            // Backward substitution `Lᵀ·x = y` in place: `x[k]` overwrites
            // `y[k]` once row `k` is solved, and row `i` reads only `y[i]`
            // and the solved `x[i + 1..]`.
            for i in (0..dim).rev() {
                let mut sum = solved[i];
                for k in i + 1..dim {
                    let lki = l[k * dim + i];
                    for (s, x) in sum.iter_mut().zip(&solved[k]) {
                        *s -= lki * x;
                    }
                }
                let pivot = l[i * dim + i];
                solved[i] = sum.map(|s| s / pivot);
            }
            let d2 = lane_dot(dim, |k| std::array::from_fn(|c| diffs[k][c] * solved[k][c]));
            for (class, d2) in group.iter().zip(d2) {
                scores.push((class.label, -0.5 * (d2 + self.log_det)));
            }
        }
        ScoreTable::from_log_likelihoods(scores)
    }
}

/// [`simd::dot`]'s recurrence run on every lane: the sum of `term(k)` over
/// `k < len`, with term `k` of the chunked prefix added into accumulator
/// `k % simd::LANES`, the accumulators combined as `(a0 + a1) + (a2 + a3)`,
/// and the remainder added on in order.
#[inline]
fn lane_dot(len: usize, term: impl Fn(usize) -> Lanes) -> Lanes {
    let split = len - len % simd::LANES;
    let mut acc = [[0.0; LANES]; simd::LANES];
    for k in (0..split).step_by(simd::LANES) {
        for (j, acc) in acc.iter_mut().enumerate() {
            for (a, t) in acc.iter_mut().zip(term(k + j)) {
                *a += t;
            }
        }
    }
    let mut total: Lanes =
        std::array::from_fn(|c| (acc[0][c] + acc[1][c]) + (acc[2][c] + acc[3][c]));
    for k in split..len {
        for (s, t) in total.iter_mut().zip(term(k)) {
            *s += t;
        }
    }
    total
}

/// Fit observations grouped by class in one flat row-major buffer: labels
/// ascending, each class's rows contiguous and in input order (a counting
/// sort).
struct ClassRows {
    dim: usize,
    /// Each class's label and row range, ascending by label.
    classes: Vec<(i64, Range<usize>)>,
    rows: Vec<f64>,
}

impl ClassRows {
    /// Counting-sorts `observations` into class order; `write` fills an
    /// observation's `dim`-wide row from its source.
    fn gather<'a>(
        dim: usize,
        observations: impl Iterator<Item = (i64, &'a [f64])> + Clone,
        write: impl Fn(&[f64], &mut [f64]),
    ) -> Self {
        // Each run of equal sorted labels is one class's row range.
        let mut labels: Vec<i64> = observations.clone().map(|(label, _)| label).collect();
        labels.sort_unstable();
        let mut end = 0;
        let classes: Vec<(i64, Range<usize>)> = labels
            .chunk_by(|a, b| a == b)
            .map(|run| {
                end += run.len();
                (run[0], end - run.len()..end)
            })
            .collect();
        // Each class's next free row.
        let mut next: Vec<usize> = classes.iter().map(|(_, range)| range.start).collect();
        let mut rows = vec![0.0; end * dim];
        for (label, source) in observations {
            let (Ok(c) | Err(c)) = classes.binary_search_by_key(&label, |(l, _)| *l);
            write(source, &mut rows[next[c] * dim..][..dim]);
            next[c] += 1;
        }
        Self { dim, classes, rows }
    }

    /// The rows in `range`, in order.
    fn rows<'a>(&'a self, range: &Range<usize>) -> impl Iterator<Item = &'a [f64]> + 'a {
        range
            .clone()
            .map(move |r| &self.rows[r * self.dim..][..self.dim])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use reveal_trace::Trace;
    use std::collections::BTreeMap;
    use std::time::{Duration, Instant};

    /// The reference fit: a `BTreeMap` of per-class observation lists,
    /// and a fresh centred `Vec` per pooled observation.
    fn fit_reference(
        observations: &[(i64, Vec<f64>)],
        ridge: f64,
    ) -> Result<TemplateSet, TemplateError> {
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
        let mut pooled = Covariance::new(dim);
        let mut means: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
        for (&label, vecs) in &by_label {
            let mut acc = Covariance::new(dim);
            for v in vecs {
                acc.push(v);
            }
            means.insert(label, acc.mean().to_vec());
        }
        for (&label, vecs) in &by_label {
            let mean = &means[&label];
            for v in vecs {
                let centered: Vec<f64> = v.iter().zip(mean).map(|(a, b)| a - b).collect();
                pooled.push(&centered);
            }
        }
        let mut cov = pooled.sample_covariance();
        regularize(&mut cov, dim, ridge);
        let factor = Cholesky::new(&cov, dim)?;
        let log_det = factor.log_determinant();
        Ok(TemplateSet {
            dim,
            classes: means
                .into_iter()
                .map(|(label, mean)| ClassTemplate { label, mean })
                .collect(),
            factor,
            log_det,
        })
    }

    /// The reference trace-set fit: one projected `Vec` per labelled trace.
    fn fit_trace_set_reference(
        set: &TraceSet,
        pois: &[usize],
        ridge: f64,
    ) -> Result<TemplateSet, TemplateError> {
        let observations: Vec<(i64, Vec<f64>)> = set
            .iter()
            .filter_map(|t| t.label().map(|l| (l, t.project(pois))))
            .collect();
        fit_reference(&observations, ridge)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The scores of `table` as `(label, bits)`.
    fn score_bits(table: &ScoreTable) -> Vec<(i64, u64)> {
        table
            .log_likelihoods()
            .iter()
            .map(|(l, s)| (*l, s.to_bits()))
            .collect()
    }

    /// The oracle the scoring kernel reproduces: one
    /// [`Cholesky::mahalanobis_squared`] per class.
    fn per_class_scores(set: &TemplateSet, x: &[f64]) -> ScoreTable {
        ScoreTable::from_log_likelihoods(
            set.classes
                .iter()
                .map(|class| {
                    let d2 = set.factor.mahalanobis_squared(x, &class.mean).unwrap();
                    (class.label, -0.5 * (d2 + set.log_det))
                })
                .collect(),
        )
    }

    /// Two fits agree bit for bit: the same error, or the same labels,
    /// means, factor and log-determinant, and the same scores on `probes`.
    fn assert_same_fit(
        got: &Result<TemplateSet, TemplateError>,
        want: &Result<TemplateSet, TemplateError>,
        probes: &[Vec<f64>],
    ) -> Result<(), TestCaseError> {
        let (got, want) = match (got, want) {
            (Ok(got), Ok(want)) => (got, want),
            (got, want) => {
                prop_assert_eq!(got.as_ref().err(), want.as_ref().err());
                return Ok(());
            }
        };
        prop_assert_eq!(got.dim, want.dim);
        prop_assert_eq!(got.labels(), want.labels());
        for label in want.labels() {
            let mean = |set: &TemplateSet| set.class_mean(label).map(bits);
            prop_assert_eq!(mean(got), mean(want));
        }
        prop_assert_eq!(bits(got.factor.lower()), bits(want.factor.lower()));
        prop_assert_eq!(got.log_det.to_bits(), want.log_det.to_bits());
        for x in probes {
            let scores = |set: &TemplateSet| score_bits(&set.classify(x).unwrap());
            prop_assert_eq!(scores(got), scores(want));
        }
        Ok(())
    }

    /// `count` observations of dimension `dim` with labels drawn from
    /// `labels` classes, interleaved in random order; the noise spans
    /// several magnitudes.
    fn random_observations(
        seed: u64,
        count: usize,
        dim: usize,
        labels: i64,
    ) -> Vec<(i64, Vec<f64>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let label = rng.gen_range(0..labels) * 5 - 9;
                let v = (0..dim)
                    .map(|i| {
                        let noise = (rng.gen::<f64>() - 0.5) * 10f64.powi(rng.gen_range(-2..2));
                        label as f64 * 0.3 * (i % 3) as f64 + noise
                    })
                    .collect();
                (label, v)
            })
            .collect()
    }

    /// Observations to score: an input vector, and a far outlier.
    fn probes(input: &[f64]) -> Vec<Vec<f64>> {
        vec![input.to_vec(), vec![1e3; input.len()]]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn prop_fit_matches_reference_bit_for_bit(
            seed in any::<u64>(),
            count in 1usize..120,
            dim in 0usize..=12,
            labels in 1i64..=6,
        ) {
            let observations = random_observations(seed, count, dim, labels);
            let probes = probes(&observations[0].1);
            assert_same_fit(
                &TemplateSet::fit(&observations, 1e-9),
                &fit_reference(&observations, 1e-9),
                &probes,
            )?;
        }

        #[test]
        fn prop_fit_trace_set_matches_reference_bit_for_bit(
            seed in any::<u64>(),
            count in 1usize..120,
            len in 1usize..=30,
            dim in 1usize..=12,
            labels in 1i64..=6,
        ) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
            let set: TraceSet = random_observations(seed, count, len, labels)
                .into_iter()
                .map(|(label, samples)| {
                    if rng.gen_bool(0.1) {
                        Trace::new(samples)
                    } else {
                        Trace::labelled(samples, label)
                    }
                })
                .collect();
            let pois: Vec<usize> = (0..dim).map(|_| rng.gen_range(0..len)).collect();
            let probes = probes(&set.traces()[0].project(&pois));
            assert_same_fit(
                &TemplateSet::fit_trace_set(&set, &pois, 1e-9),
                &fit_trace_set_reference(&set, &pois, 1e-9),
                &probes,
            )?;
        }
    }

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
    fn pooled_templates_classify_separable_data() {
        let set = TemplateSet::fit(&three_class_data(), 1e-9).unwrap();
        assert_eq!(set.labels(), vec![-1, 0, 1]);
        assert_eq!(set.classify(&[-2.0, 0.1]).unwrap().best_label(), -1);
        assert_eq!(set.classify(&[0.1, 1.9]).unwrap().best_label(), 0);
        assert_eq!(set.classify(&[1.8, -0.1]).unwrap().best_label(), 1);
    }

    #[test]
    fn probabilities_are_normalized_and_confident() {
        let obs = three_class_data();
        let set = TemplateSet::fit(&obs, 1e-9).unwrap();
        let scores = set.classify(&[2.0, 0.0]).unwrap();
        let probs = scores.probabilities();
        let total: f64 = probs.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let p1 = probs.iter().find(|(l, _)| *l == 1).unwrap().1;
        assert!(p1 > 0.95, "should be confident, got {p1}");
    }

    #[test]
    fn pooled_fit_accepts_classes_smaller_than_the_dimension() {
        // Two traces per class in two dimensions: each class alone has a
        // singular covariance, the pooled one does not.
        let obs = vec![
            (0i64, vec![0.0, 0.0]),
            (0, vec![0.1, 0.1]),
            (1, vec![1.0, 1.0]),
            (1, vec![1.1, 0.9]),
        ];
        assert!(TemplateSet::fit(&obs, 1e-6).is_ok());
    }

    #[test]
    fn empty_and_mismatched_inputs() {
        assert!(matches!(
            TemplateSet::fit(&[], 0.0),
            Err(TemplateError::NoClasses)
        ));
        let obs = vec![(0i64, vec![1.0, 2.0]), (1, vec![1.0])];
        assert!(matches!(
            TemplateSet::fit(&obs, 0.0),
            Err(TemplateError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
        let good = three_class_data();
        let set = TemplateSet::fit(&good, 1e-9).unwrap();
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
        let set = TemplateSet::fit_trace_set(&ts, &[2, 5], 1e-9).unwrap();
        assert_eq!(set.dim(), 2);
        assert_eq!(set.classify(&[3.0, 0.0]).unwrap().best_label(), 1);
        assert_eq!(set.classify(&[0.0, 3.0]).unwrap().best_label(), -1);
    }

    /// A fitted set of `classes` classes in `dim` dimensions, plus
    /// observations to score: off-center, far outliers of both signs, and
    /// subnormal.
    fn lane_case(dim: usize, classes: usize) -> (TemplateSet, Vec<Vec<f64>>) {
        let mut obs = Vec::new();
        for c in 0..classes {
            let center: Vec<f64> = (0..dim)
                .map(|d| c as f64 * 0.7 - (d % 5) as f64 * 0.3)
                .collect();
            for v in gaussian_cloud(&center, dim + 3, 0.4, (dim * 31 + c) as u64) {
                obs.push((c as i64 - 14, v));
            }
        }
        let set = TemplateSet::fit(&obs, 1e-6).unwrap();
        let subnormal: Vec<f64> = (0..dim)
            .map(|d| f64::MIN_POSITIVE * (d as f64 - 2.5) / 8.0)
            .collect();
        let probes = vec![
            obs[0].1.clone(),
            gaussian_cloud(&vec![0.3; dim], 1, 2.0, dim as u64).remove(0),
            vec![1e3; dim],
            vec![1e300; dim],
            vec![-1e300; dim],
            subnormal,
        ];
        (set, probes)
    }

    /// The lane kernel against the per-class solve, bit for bit.
    fn assert_lanes_match_per_class(set: &TemplateSet, probes: &[Vec<f64>]) {
        for x in probes {
            let scores = set.classify(x).unwrap();
            assert_eq!(
                score_bits(&scores),
                score_bits(&per_class_scores(set, x)),
                "dim {} classes {} probe {x:?}",
                set.dim,
                set.classes.len()
            );
            // Reading the observation through a POI map changes nothing.
            let pois: Vec<usize> = (0..set.dim).map(|i| 2 * i + 1).collect();
            let mut window = vec![f64::NAN; 2 * set.dim + 1];
            for (&p, &v) in pois.iter().zip(x) {
                window[p] = v;
            }
            let projected = set.classify_projected(&window, &pois).unwrap();
            assert_eq!(score_bits(&projected), score_bits(&scores));
        }
    }

    #[test]
    fn lane_scores_match_per_class_mahalanobis_bit_for_bit() {
        // Every dimension up to the stack limit and past it (the heap work
        // space), 24 being the largest the POI ablation uses, each with a
        // class count that leaves a partial lane group whenever the cycle
        // allows.
        for dim in (1..=STACK_DIM + 1).chain([40]) {
            let (set, probes) = lane_case(dim, 1 + (dim * 7) % 29);
            assert_lanes_match_per_class(&set, &probes);
        }
        // Every class count from one to the paper's 29 labels: every
        // remainder of the lane width.
        for classes in 1..=29 {
            let (set, probes) = lane_case(24, classes);
            assert_lanes_match_per_class(&set, &probes);
        }
    }

    #[test]
    fn lane_scoring_outpaces_the_per_class_solve() {
        // The paper's sets at dim 10 (one POI per dimension): 3 sign
        // classes, then 14 positive and twice 14 negative value classes,
        // each window scored against all four, serially.
        let sets: Vec<TemplateSet> = [3, 14, 14, 14]
            .iter()
            .map(|&classes| lane_case(10, classes).0)
            .collect();
        let windows: Vec<Vec<f64>> = (0..1024)
            .map(|w| gaussian_cloud(&[0.5; 10], 1, 3.0, w).remove(0))
            .collect();
        let timed = |score: &dyn Fn(&TemplateSet, &[f64]) -> ScoreTable| {
            let start = Instant::now();
            let mut tables = Vec::with_capacity(windows.len() * sets.len());
            for x in &windows {
                for set in &sets {
                    tables.push(score(set, x));
                }
            }
            (start.elapsed(), tables)
        };
        // Interleaved reps, best of three per side, every rep bit-identical.
        let (mut lanes, mut oracle) = (Duration::MAX, Duration::MAX);
        for _ in 0..3 {
            let (t_lanes, fast) = timed(&|set, x| set.classify(x).unwrap());
            let (t_oracle, slow) = timed(&per_class_scores);
            assert!(fast
                .iter()
                .zip(&slow)
                .all(|(a, b)| score_bits(a) == score_bits(b)));
            lanes = lanes.min(t_lanes);
            oracle = oracle.min(t_oracle);
        }
        let ratio = oracle.as_secs_f64() / lanes.as_secs_f64();
        println!(
            "lanes {:.2} ms, per-class oracle {:.2} ms: {ratio:.2}x",
            lanes.as_secs_f64() * 1e3,
            oracle.as_secs_f64() * 1e3
        );
        // Optimized builds vectorize the lanes; unoptimized ones only have
        // to stay bit-identical.
        let floor = if cfg!(debug_assertions) { 0.0 } else { 3.5 };
        assert!(
            ratio >= floor,
            "lane scoring is only {ratio:.2}x the per-class solve (floor {floor}x)"
        );
    }

    #[test]
    fn projected_classification_rejects_short_samples() {
        let set = TemplateSet::fit(&three_class_data(), 1e-9).unwrap();
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
        let set = TemplateSet::fit(&obs, 1e-9).unwrap();
        let m = set.class_mean(1).unwrap();
        assert!((m[0] - 2.0).abs() < 0.2);
        assert!(m[1].abs() < 0.2);
        assert!(set.class_mean(99).is_none());
    }
}
