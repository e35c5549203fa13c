//! A learned branch classifier: deterministic, seeded multinomial logistic
//! regression trained with mini-batch SGD.
//!
//! This is the second classification *rail* of the attack (following the
//! GALACTICS line of ML side-channel work): where the pooled-Gaussian
//! [`TemplateSet`](crate::TemplateSet) models each class with a fitted
//! covariance — and degrades badly when the attack capture is noisier than
//! the profiling captures — the learned rail is a discriminative softmax
//! model trained on *noise-augmented* copies of the same profiling
//! observations, then **temperature-calibrated** on a held-out split so its
//! probabilities stay honest in exactly the degraded regimes it was
//! augmented for.
//!
//! ## Determinism contract
//!
//! Training is bit-identical at any `REVEAL_THREADS`:
//!
//! - every random choice (holdout split, augmentation noise, epoch
//!   shuffles) comes from [`StdRng`]s seeded via
//!   [`reveal_par::derive_seed`] from the single configured seed;
//! - the per-example forward/backward passes fan out through
//!   [`reveal_par::par_map_index_modeled`], which returns results in index order
//!   whatever the thread count, and the gradient fold over a mini-batch is
//!   a serial in-order [`simd::axpy`] accumulation;
//! - all inner products and rank-1 updates go through the lane-structured
//!   [`simd::dot`] / [`simd::axpy`] kernels, whose reduction order is part
//!   of their definition.
//!
//! Two fits with the same observations and config therefore produce
//! bit-identical weights, temperature and scores — the property the robust
//! driver's zero-fault bit-identity test leans on.

use crate::ScoreTable;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use reveal_par::simd;
use std::fmt;

/// Cost model for one SGD example's forward/backward pass (units:
/// `classes × (dim + 1)` multiply-accumulates). Mini-batches are tiny, so
/// this keeps them serial unless the feature space is unusually large.
static SGD_EXAMPLE_COST: reveal_par::CostModel =
    reveal_par::CostModel::new("learned.sgd.example", 12.0);

/// Typed failures of the learned rail. Training never panics: bad inputs,
/// divergence and degenerate splits all surface here so the caller can fall
/// back to the template rail.
#[derive(Debug, Clone, PartialEq)]
pub enum LearnedError {
    /// Fewer than two classes, or no observations at all.
    NotEnoughData {
        /// Observations supplied.
        observations: usize,
        /// Distinct labels among them.
        classes: usize,
    },
    /// An observation's feature vector has the wrong length.
    DimensionMismatch {
        /// Expected feature count.
        expected: usize,
        /// Observed feature count.
        got: usize,
    },
    /// A feature, label weight or derived quantity is NaN/∞.
    NonFinite {
        /// Which quantity was non-finite.
        what: &'static str,
    },
    /// The SGD loss went non-finite (learning rate too hot, degenerate
    /// scaling); the partially trained model is discarded.
    Diverged {
        /// Epoch at which the loss exploded.
        epoch: usize,
    },
    /// A configuration knob is out of its domain.
    BadConfig {
        /// Which knob.
        what: &'static str,
    },
}

impl fmt::Display for LearnedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearnedError::NotEnoughData {
                observations,
                classes,
            } => write!(
                f,
                "learned classifier needs >=2 classes: got {classes} among {observations} observations"
            ),
            LearnedError::DimensionMismatch { expected, got } => {
                write!(f, "feature vector has {got} entries, expected {expected}")
            }
            LearnedError::NonFinite { what } => write!(f, "non-finite {what}"),
            LearnedError::Diverged { epoch } => {
                write!(f, "SGD loss went non-finite at epoch {epoch}")
            }
            LearnedError::BadConfig { what } => write!(f, "bad learned-classifier config: {what}"),
        }
    }
}

impl std::error::Error for LearnedError {}

/// Training knobs for [`LearnedClassifier::fit`]. The defaults train the
/// attack's POI-projected windows (10–20 features, 3–29 classes) in well
/// under a second at profiling scale.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnedConfig {
    /// Passes over the (augmented) training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD step size (on standardized features).
    pub learning_rate: f64,
    /// L2 weight decay (biases exempt).
    pub l2: f64,
    /// Fraction of observations held out for temperature calibration
    /// (`0.0` disables calibration; the temperature stays 1).
    pub holdout_fraction: f64,
    /// Per-observation noise-augmentation ladder, in *raw feature units*:
    /// each σ adds one extra copy of every observation with `N(0, σ²)`
    /// noise on every feature. This is what buys the rail its degraded-
    /// capture robustness — train it at the noise levels you expect to
    /// arbitrate at.
    pub augment_sigmas: Vec<f64>,
    /// Master seed for the split, the augmentation noise and the epoch
    /// shuffles.
    pub seed: u64,
}

impl Default for LearnedConfig {
    fn default() -> Self {
        Self {
            epochs: 32,
            batch_size: 32,
            learning_rate: 0.3,
            l2: 1e-4,
            holdout_fraction: 0.2,
            augment_sigmas: Vec::new(),
            seed: 0x1EA4_11ED,
        }
    }
}

impl LearnedConfig {
    /// Replaces the seed (used to derive independent per-rail streams).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn validate(&self) -> Result<(), LearnedError> {
        let bad = |what| Err(LearnedError::BadConfig { what });
        if self.epochs == 0 {
            return bad("epochs must be positive");
        }
        if self.batch_size == 0 {
            return bad("batch_size must be positive");
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return bad("learning_rate must be finite and positive");
        }
        if !(self.l2.is_finite() && self.l2 >= 0.0) {
            return bad("l2 must be finite and non-negative");
        }
        if !(0.0..1.0).contains(&self.holdout_fraction) {
            return bad("holdout_fraction must be in [0, 1)");
        }
        if self
            .augment_sigmas
            .iter()
            .any(|s| !(s.is_finite() && *s >= 0.0))
        {
            return bad("augment_sigmas must be finite and non-negative");
        }
        Ok(())
    }
}

/// A trained multinomial logistic-regression classifier with per-feature
/// standardization and a calibrated softmax temperature.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnedClassifier {
    /// Class labels, ascending.
    labels: Vec<i64>,
    /// Feature dimension (before the implicit bias feature).
    dim: usize,
    /// Per-feature training mean.
    mean: Vec<f64>,
    /// Per-feature inverse standard deviation.
    inv_std: Vec<f64>,
    /// Row-major `labels.len() × (dim + 1)` weights; the last column is the
    /// bias (trained on an appended constant-1 feature).
    weights: Vec<f64>,
    /// Calibrated softmax temperature (1.0 when calibration is disabled).
    temperature: f64,
    /// Mean held-out negative log-likelihood at the calibrated temperature
    /// (NaN when calibration is disabled).
    holdout_nll: f64,
}

/// One standardized training example: class index plus features with the
/// trailing bias constant.
struct Example {
    class: usize,
    phi: Vec<f64>,
}

/// A standard normal draw (Box–Muller; deterministic given the generator).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1 = (1.0 - rng.gen::<f64>()).max(1e-300);
    let u2 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// `log(Σ exp(xᵢ))` without overflow.
fn log_sum_exp(xs: &[f64]) -> f64 {
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let shifted: Vec<f64> = xs.iter().map(|x| (x - max).exp()).collect();
    max + simd::sum(&shifted).ln()
}

impl LearnedClassifier {
    /// Trains on `(label, features)` observations. See the module docs for
    /// the determinism contract; the shape mirrors
    /// [`TemplateSet::fit`](crate::TemplateSet::fit) so both rails can be
    /// trained from the same profiling projections.
    ///
    /// # Errors
    ///
    /// Typed, never panicking: [`LearnedError::NotEnoughData`] /
    /// [`DimensionMismatch`](LearnedError::DimensionMismatch) /
    /// [`NonFinite`](LearnedError::NonFinite) on bad inputs,
    /// [`Diverged`](LearnedError::Diverged) when the loss explodes,
    /// [`BadConfig`](LearnedError::BadConfig) on out-of-domain knobs.
    pub fn fit(
        observations: &[(i64, Vec<f64>)],
        config: &LearnedConfig,
    ) -> Result<Self, LearnedError> {
        config.validate()?;
        let mut labels: Vec<i64> = observations.iter().map(|(l, _)| *l).collect();
        labels.sort_unstable();
        labels.dedup();
        if observations.is_empty() || labels.len() < 2 {
            return Err(LearnedError::NotEnoughData {
                observations: observations.len(),
                classes: labels.len(),
            });
        }
        let dim = observations[0].1.len();
        if dim == 0 {
            return Err(LearnedError::BadConfig {
                what: "observations must have at least one feature",
            });
        }
        for (_, x) in observations {
            if x.len() != dim {
                return Err(LearnedError::DimensionMismatch {
                    expected: dim,
                    got: x.len(),
                });
            }
            if x.iter().any(|v| !v.is_finite()) {
                return Err(LearnedError::NonFinite {
                    what: "training feature",
                });
            }
        }

        // Deterministic holdout split: shuffle indices once from the master
        // seed, carve the tail off for calibration.
        let mut order: Vec<usize> = (0..observations.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(config.seed));
        let holdout_len = ((observations.len() as f64) * config.holdout_fraction) as usize;
        let holdout_len = holdout_len.min(observations.len().saturating_sub(labels.len()));
        let (train_idx, holdout_idx) = order.split_at(observations.len() - holdout_len);

        // Standardization from the raw (un-augmented) training features.
        let mut mean = vec![0.0; dim];
        for &i in train_idx {
            for (m, v) in mean.iter_mut().zip(&observations[i].1) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= train_idx.len() as f64;
        }
        let mut var = vec![0.0; dim];
        for &i in train_idx {
            for ((s, v), m) in var.iter_mut().zip(&observations[i].1).zip(&mean) {
                let d = v - m;
                *s += d * d;
            }
        }
        let inv_std: Vec<f64> = var
            .iter()
            .map(|s| 1.0 / (s / train_idx.len() as f64).sqrt().max(1e-9))
            .collect();

        let class_of = |label: i64| -> usize {
            labels.binary_search(&label).unwrap_or(0) // Unreachable: labels were built from the observations.
        };
        let standardize = |raw: &[f64], noise: Option<(&mut StdRng, f64)>| -> Vec<f64> {
            let mut phi = Vec::with_capacity(dim + 1);
            match noise {
                Some((rng, sigma)) => {
                    for ((v, m), s) in raw.iter().zip(&mean).zip(&inv_std) {
                        phi.push((v + sigma * gaussian(rng) - m) * s);
                    }
                }
                None => {
                    for ((v, m), s) in raw.iter().zip(&mean).zip(&inv_std) {
                        phi.push((v - m) * s);
                    }
                }
            }
            phi.push(1.0);
            phi
        };

        // Augmented example sets: each configured σ adds one noisy copy of
        // every observation (noise in raw feature units, applied before
        // standardization). Both splits get the same ladder so the
        // temperature is calibrated under the regimes the rail will see.
        let build = |idx: &[usize], stream: u64| -> Vec<Example> {
            let mut rng = StdRng::seed_from_u64(reveal_par::derive_seed(config.seed, stream));
            let mut examples = Vec::with_capacity(idx.len() * (1 + config.augment_sigmas.len()));
            for &i in idx {
                let (label, raw) = &observations[i];
                let class = class_of(*label);
                examples.push(Example {
                    class,
                    phi: standardize(raw, None),
                });
                for &sigma in &config.augment_sigmas {
                    examples.push(Example {
                        class,
                        phi: standardize(raw, Some((&mut rng, sigma))),
                    });
                }
            }
            examples
        };
        let train = build(train_idx, 1);
        let holdout = build(holdout_idx, 2);

        // Mini-batch SGD. The batch fan-out returns per-example softmax
        // errors in input order; the gradient fold is serial and in order,
        // so the update is bit-identical at any thread count.
        let classes = labels.len();
        let stride = dim + 1;
        let mut weights = vec![0.0; classes * stride];
        let mut grad = vec![0.0; classes * stride];
        let mut batch_order: Vec<usize> = (0..train.len()).collect();
        let cost_units = (classes * stride) as u64;
        for epoch in 0..config.epochs {
            batch_order.shuffle(&mut StdRng::seed_from_u64(reveal_par::derive_seed(
                config.seed,
                3 + epoch as u64,
            )));
            let mut epoch_loss = 0.0;
            for batch in batch_order.chunks(config.batch_size) {
                let passes: Vec<(Vec<f64>, f64)> = reveal_par::par_map_index_modeled(
                    batch.len(),
                    &SGD_EXAMPLE_COST,
                    cost_units,
                    |b| {
                        let ex = &train[batch[b]];
                        let logits: Vec<f64> = (0..classes)
                            .map(|c| simd::dot(&weights[c * stride..(c + 1) * stride], &ex.phi))
                            .collect();
                        let lse = log_sum_exp(&logits);
                        let loss = lse - logits[ex.class];
                        let mut errors: Vec<f64> = logits.iter().map(|l| (l - lse).exp()).collect();
                        errors[ex.class] -= 1.0;
                        (errors, loss)
                    },
                );
                grad.fill(0.0);
                for ((errors, loss), &i) in passes.iter().zip(batch) {
                    epoch_loss += loss;
                    for (c, e) in errors.iter().enumerate() {
                        simd::axpy(*e, &train[i].phi, &mut grad[c * stride..(c + 1) * stride]);
                    }
                }
                let step = config.learning_rate / batch.len() as f64;
                let decay = 1.0 - config.learning_rate * config.l2;
                for c in 0..classes {
                    let row = &mut weights[c * stride..(c + 1) * stride];
                    for w in row[..dim].iter_mut() {
                        *w *= decay;
                    }
                    let g = &grad[c * stride..(c + 1) * stride];
                    simd::axpy(-step, g, &mut weights[c * stride..(c + 1) * stride]);
                }
            }
            if !epoch_loss.is_finite() {
                return Err(LearnedError::Diverged { epoch });
            }
        }
        if weights.iter().any(|w| !w.is_finite()) {
            return Err(LearnedError::NonFinite {
                what: "trained weight",
            });
        }

        // Held-out temperature scaling: golden-section search on ln T for
        // the temperature minimizing the held-out NLL. Deterministic (fixed
        // iteration count), and skipped when there is nothing held out.
        let mut classifier = Self {
            labels,
            dim,
            mean,
            inv_std,
            weights,
            temperature: 1.0,
            holdout_nll: f64::NAN,
        };
        if !holdout.is_empty() {
            let logits: Vec<(usize, Vec<f64>)> = holdout
                .iter()
                .map(|ex| {
                    let l: Vec<f64> = (0..classes)
                        .map(|c| {
                            simd::dot(&classifier.weights[c * stride..(c + 1) * stride], &ex.phi)
                        })
                        .collect();
                    (ex.class, l)
                })
                .collect();
            let nll = |log_t: f64| -> f64 {
                let t = log_t.exp();
                let total: f64 = logits
                    .iter()
                    .map(|(class, l)| {
                        let scaled: Vec<f64> = l.iter().map(|x| x / t).collect();
                        log_sum_exp(&scaled) - scaled[*class]
                    })
                    .sum();
                total / logits.len() as f64
            };
            let phi = (5f64.sqrt() - 1.0) / 2.0;
            let (mut lo, mut hi) = (0.25f64.ln(), 8f64.ln());
            let (mut a, mut b) = (hi - phi * (hi - lo), lo + phi * (hi - lo));
            let (mut fa, mut fb) = (nll(a), nll(b));
            for _ in 0..48 {
                if fa <= fb {
                    hi = b;
                    b = a;
                    fb = fa;
                    a = hi - phi * (hi - lo);
                    fa = nll(a);
                } else {
                    lo = a;
                    a = b;
                    fa = fb;
                    b = lo + phi * (hi - lo);
                    fb = nll(b);
                }
            }
            let best = 0.5 * (lo + hi);
            classifier.temperature = best.exp();
            classifier.holdout_nll = nll(best);
            if !classifier.temperature.is_finite() || classifier.temperature <= 0.0 {
                return Err(LearnedError::NonFinite {
                    what: "calibrated temperature",
                });
            }
        }
        Ok(classifier)
    }

    /// Scores one observation: temperature-scaled logits as a
    /// [`ScoreTable`], so `probabilities()` yields the *calibrated* softmax.
    ///
    /// # Errors
    ///
    /// [`LearnedError::DimensionMismatch`] on the wrong feature count,
    /// [`LearnedError::NonFinite`] on NaN/∞ features.
    pub fn classify(&self, observation: &[f64]) -> Result<ScoreTable, LearnedError> {
        if observation.len() != self.dim {
            return Err(LearnedError::DimensionMismatch {
                expected: self.dim,
                got: observation.len(),
            });
        }
        if observation.iter().any(|v| !v.is_finite()) {
            return Err(LearnedError::NonFinite {
                what: "observation feature",
            });
        }
        let mut phi = Vec::with_capacity(self.dim + 1);
        for ((v, m), s) in observation.iter().zip(&self.mean).zip(&self.inv_std) {
            phi.push((v - m) * s);
        }
        phi.push(1.0);
        let stride = self.dim + 1;
        let scores: Vec<(i64, f64)> = self
            .labels
            .iter()
            .enumerate()
            .map(|(c, &label)| {
                (
                    label,
                    simd::dot(&self.weights[c * stride..(c + 1) * stride], &phi) / self.temperature,
                )
            })
            .collect();
        Ok(ScoreTable::from_log_likelihoods(scores))
    }

    /// The class labels, ascending.
    pub fn labels(&self) -> &[i64] {
        &self.labels
    }

    /// Feature dimension the classifier expects.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The calibrated softmax temperature (1.0 when calibration was off).
    pub fn temperature(&self) -> f64 {
        self.temperature
    }

    /// Mean held-out NLL at the calibrated temperature (NaN when
    /// calibration was off).
    pub fn holdout_nll(&self) -> f64 {
        self.holdout_nll
    }

    /// Top-1 accuracy on labelled observations (diagnostic).
    pub fn accuracy(&self, observations: &[(i64, Vec<f64>)]) -> f64 {
        if observations.is_empty() {
            return 0.0;
        }
        let hits = observations
            .iter()
            .filter(|(label, x)| {
                self.classify(x)
                    .map(|s| s.best_label() == *label)
                    .unwrap_or(false)
            })
            .count();
        hits as f64 / observations.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated 2-D Gaussian blobs plus an offset third class.
    fn blobs(per_class: usize, noise: f64, seed: u64) -> Vec<(i64, Vec<f64>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut obs = Vec::new();
        for (label, cx, cy) in [(-1i64, -2.0, 0.0), (0, 0.0, 2.0), (1, 2.0, 0.0)] {
            for _ in 0..per_class {
                obs.push((
                    label,
                    vec![
                        cx + noise * gaussian(&mut rng),
                        cy + noise * gaussian(&mut rng),
                    ],
                ));
            }
        }
        obs
    }

    #[test]
    fn learns_separable_blobs() {
        let obs = blobs(60, 0.3, 7);
        let clf = LearnedClassifier::fit(&obs, &LearnedConfig::default()).unwrap();
        assert!(clf.accuracy(&obs) > 0.95, "accuracy {}", clf.accuracy(&obs));
        assert_eq!(clf.labels(), &[-1, 0, 1]);
        let probs = clf.classify(&[2.0, 0.0]).unwrap().probabilities();
        let total: f64 = probs.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn training_is_bit_identical_across_thread_counts() {
        let obs = blobs(40, 0.4, 11);
        let config = LearnedConfig {
            augment_sigmas: vec![0.2, 0.5],
            ..LearnedConfig::default()
        };
        let reference =
            reveal_par::with_threads(1, || LearnedClassifier::fit(&obs, &config).unwrap());
        for threads in [2, 4] {
            let other = reveal_par::with_threads(threads, || {
                LearnedClassifier::fit(&obs, &config).unwrap()
            });
            assert_eq!(
                reference
                    .weights
                    .iter()
                    .map(|w| w.to_bits())
                    .collect::<Vec<_>>(),
                other
                    .weights
                    .iter()
                    .map(|w| w.to_bits())
                    .collect::<Vec<_>>(),
                "threads {threads}"
            );
            assert_eq!(
                reference.temperature.to_bits(),
                other.temperature.to_bits(),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn same_seed_same_model_different_seed_different_model() {
        let obs = blobs(40, 0.4, 13);
        let a = LearnedClassifier::fit(&obs, &LearnedConfig::default()).unwrap();
        let b = LearnedClassifier::fit(&obs, &LearnedConfig::default()).unwrap();
        assert_eq!(a, b);
        let c = LearnedClassifier::fit(&obs, &LearnedConfig::default().with_seed(99)).unwrap();
        assert_ne!(a.weights, c.weights);
    }

    #[test]
    fn typed_errors_never_panic() {
        // Too few classes.
        let one_class: Vec<(i64, Vec<f64>)> = (0..10).map(|_| (1i64, vec![0.0, 1.0])).collect();
        assert!(matches!(
            LearnedClassifier::fit(&one_class, &LearnedConfig::default()),
            Err(LearnedError::NotEnoughData { classes: 1, .. })
        ));
        // Ragged features.
        let ragged = vec![(0i64, vec![1.0, 2.0]), (1, vec![1.0])];
        assert!(matches!(
            LearnedClassifier::fit(&ragged, &LearnedConfig::default()),
            Err(LearnedError::DimensionMismatch { .. })
        ));
        // NaN feature.
        let nan = vec![(0i64, vec![1.0, f64::NAN]), (1, vec![0.0, 1.0])];
        assert!(matches!(
            LearnedClassifier::fit(&nan, &LearnedConfig::default()),
            Err(LearnedError::NonFinite { .. })
        ));
        // Hot learning rate diverges with a typed error, not a panic.
        let obs = blobs(30, 0.3, 17);
        let hot = LearnedConfig {
            learning_rate: 1e12,
            ..LearnedConfig::default()
        };
        assert!(matches!(
            LearnedClassifier::fit(&obs, &hot),
            Err(LearnedError::Diverged { .. } | LearnedError::NonFinite { .. })
        ));
        // Bad config knobs.
        let bad = LearnedConfig {
            holdout_fraction: 1.5,
            ..LearnedConfig::default()
        };
        assert!(matches!(
            LearnedClassifier::fit(&obs, &bad),
            Err(LearnedError::BadConfig { .. })
        ));
    }

    #[test]
    fn classify_checks_inputs() {
        let obs = blobs(30, 0.3, 19);
        let clf = LearnedClassifier::fit(&obs, &LearnedConfig::default()).unwrap();
        assert!(matches!(
            clf.classify(&[1.0]),
            Err(LearnedError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            clf.classify(&[1.0, f64::INFINITY]),
            Err(LearnedError::NonFinite { .. })
        ));
    }

    #[test]
    fn temperature_calibration_softens_overconfidence_under_noise() {
        // Train clean but augment at the noise level the test set will
        // have: the calibrated temperature should exceed the uncalibrated
        // one's implicit 1.0, flattening the probabilities toward honesty.
        let clean = blobs(80, 0.2, 23);
        let augmented = LearnedConfig {
            augment_sigmas: vec![1.0, 2.0],
            ..LearnedConfig::default()
        };
        let clf = LearnedClassifier::fit(&clean, &augmented).unwrap();
        assert!(clf.temperature() > 0.0);
        assert!(clf.holdout_nll().is_finite());
        // A no-holdout fit keeps temperature exactly 1.
        let no_holdout = LearnedConfig {
            holdout_fraction: 0.0,
            ..LearnedConfig::default()
        };
        let raw = LearnedClassifier::fit(&clean, &no_holdout).unwrap();
        assert_eq!(raw.temperature(), 1.0);
        assert!(raw.holdout_nll().is_nan());
    }

    #[test]
    fn augmented_training_survives_noisy_test_features() {
        // The augmentation contract: a rail trained with noise copies keeps
        // classifying when the test features are noisier than profiling.
        let train = blobs(80, 0.2, 29);
        let noisy_test = blobs(40, 1.0, 31);
        let plain = LearnedClassifier::fit(&train, &LearnedConfig::default()).unwrap();
        let hardened = LearnedClassifier::fit(
            &train,
            &LearnedConfig {
                augment_sigmas: vec![0.5, 1.0, 1.5],
                ..LearnedConfig::default()
            },
        )
        .unwrap();
        assert!(
            hardened.accuracy(&noisy_test) + 0.05 >= plain.accuracy(&noisy_test),
            "hardened {:.3} vs plain {:.3}",
            hardened.accuracy(&noisy_test),
            plain.accuracy(&noisy_test)
        );
        assert!(hardened.accuracy(&noisy_test) > 0.7);
    }
}
