//! The profiling stage: learn segmentation-aligned templates from a device
//! the adversary controls (§II-B threat model, §III-D template construction).

use crate::config::AttackConfig;
use crate::device::Device;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use reveal_rv32::kernel::KernelError;
use reveal_rv32::PowerCapture;
use reveal_template::{LearnedClassifier, LearnedConfig, LearnedError, TemplateError, TemplateSet};
use reveal_trace::poi::{select_pois, PoiError};
use reveal_trace::segment::{refined_bursts_into, SegmentError, SegmentScratch};
use reveal_trace::{Trace, TraceSet};
use std::collections::BTreeSet;
use std::fmt;

/// Errors from profiling or attacking.
#[derive(Debug, Clone, PartialEq)]
pub enum AttackError {
    /// Segmentation failed on a trace.
    Segment(SegmentError),
    /// Template fitting/classification failed.
    Template(TemplateError),
    /// POI selection failed.
    Poi(PoiError),
    /// The device failed to run.
    Kernel(KernelError),
    /// Segmentation found the wrong number of windows during the attack.
    WindowCountMismatch { expected: usize, got: usize },
    /// Not enough profiling data survived for some class.
    NotEnoughProfilingData { label: i64, count: usize },
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::Segment(e) => write!(f, "segmentation failed: {e}"),
            AttackError::Template(e) => write!(f, "template stage failed: {e}"),
            AttackError::Poi(e) => write!(f, "POI selection failed: {e}"),
            AttackError::Kernel(e) => write!(f, "device execution failed: {e}"),
            AttackError::WindowCountMismatch { expected, got } => {
                write!(f, "expected {expected} windows, segmentation found {got}")
            }
            AttackError::NotEnoughProfilingData { label, count } => {
                write!(f, "class {label} has only {count} profiling windows")
            }
        }
    }
}

impl std::error::Error for AttackError {}

impl From<SegmentError> for AttackError {
    fn from(e: SegmentError) -> Self {
        AttackError::Segment(e)
    }
}

impl From<TemplateError> for AttackError {
    fn from(e: TemplateError) -> Self {
        AttackError::Template(e)
    }
}

impl From<PoiError> for AttackError {
    fn from(e: PoiError) -> Self {
        AttackError::Poi(e)
    }
}

impl From<KernelError> for AttackError {
    fn from(e: KernelError) -> Self {
        AttackError::Kernel(e)
    }
}

/// Extracts the per-coefficient *ladder windows* from a full trace: each
/// window is the fixed-length slice starting where a distribution-call burst
/// ends (the `if/else-if/else` region of Fig. 2).
///
/// # Errors
///
/// Propagates burst-detection failures.
pub fn extract_ladder_windows(
    samples: &[f64],
    config: &AttackConfig,
) -> Result<Vec<Vec<f64>>, SegmentError> {
    extract_ladder_windows_into(samples, config, &mut SegmentScratch::new())
}

/// [`extract_ladder_windows`] with caller-provided segmentation scratch:
/// burst finding and end refinement run through the fused three-pass
/// segmenter ([`refined_bursts_into`]), reusing the scratch's buffers, so a
/// warm worker segments each capture without large allocations. Identical
/// windows (this *is* [`extract_ladder_windows`], which passes a cold
/// scratch).
///
/// # Errors
///
/// Same as [`extract_ladder_windows`].
pub fn extract_ladder_windows_into(
    samples: &[f64],
    config: &AttackConfig,
    scratch: &mut SegmentScratch,
) -> Result<Vec<Vec<f64>>, SegmentError> {
    let bursts = refined_bursts_into(samples, &config.segment, scratch)?;
    Ok(ladder_windows(samples, &bursts, config))
}

/// [`extract_ladder_windows`] through the pre-fast-path segmenters (full
/// percentile sorts per trace). Identical windows; kept for
/// [`collect_profiling_baseline`], the fast path's oracle and yardstick.
///
/// # Errors
///
/// Same as [`extract_ladder_windows`].
pub fn extract_ladder_windows_reference(
    samples: &[f64],
    config: &AttackConfig,
) -> Result<Vec<Vec<f64>>, SegmentError> {
    let bursts = reveal_trace::segment::find_bursts_reference(samples, &config.segment)?;
    let bursts =
        reveal_trace::segment::refine_burst_ends_reference(samples, &bursts, &config.segment);
    Ok(ladder_windows(samples, &bursts, config))
}

/// Copies of the ladder windows after `bursts`.
fn ladder_windows(
    samples: &[f64],
    bursts: &[(usize, usize)],
    config: &AttackConfig,
) -> Vec<Vec<f64>> {
    let mut windows = Vec::with_capacity(bursts.len());
    windows.extend(
        full_window_starts(samples.len(), bursts, config)
            .map(|start| samples[start..start + config.ladder_window].to_vec()),
    );
    windows
}

/// Where the ladder window after each burst starts, for the bursts whose
/// full window fits in a trace of `len` samples. Only full windows qualify:
/// the device's epilogue burst (the encryption work following the sampler)
/// guarantees one for every real coefficient, while the epilogue burst
/// itself — with nothing after it — is dropped here.
fn full_window_starts<'a>(
    len: usize,
    bursts: &'a [(usize, usize)],
    config: &'a AttackConfig,
) -> impl Iterator<Item = usize> + 'a {
    bursts
        .iter()
        .map(|&(_, end)| end)
        .filter(move |end| end + config.ladder_window <= len)
}

/// The trained single-trace attacker: sign templates plus sign-conditional
/// value templates (with negation/store fusion for the negative class),
/// optionally carrying the learned second rail for per-burst arbitration
/// in the robust driver.
#[derive(Debug, Clone)]
pub struct TrainedAttack {
    config: AttackConfig,
    sign_pois: Vec<usize>,
    sign_templates: TemplateSet,
    pos_pois: Vec<usize>,
    pos_templates: TemplateSet,
    neg_early_pois: Vec<usize>,
    neg_early_templates: TemplateSet,
    neg_late_pois: Vec<usize>,
    neg_late_templates: TemplateSet,
    profiling_windows: usize,
    learned: Option<LearnedRail>,
}

/// The learned classification rail: seeded logistic-regression classifiers
/// over the *same* POI projections the pooled-Gaussian templates read,
/// trained from the same profiling captures
/// ([`TrainedAttack::fit_learned_rail`]) with noise augmentation and
/// held-out temperature calibration. The negative class uses one classifier
/// over the concatenated negation-region and store-region projections —
/// the learned analogue of the template rail's score fusion.
#[derive(Debug, Clone)]
pub struct LearnedRail {
    /// The trained ladder window length; shorter windows are rejected.
    ladder_window: usize,
    sign_pois: Vec<usize>,
    pos_pois: Vec<usize>,
    /// Negation-region POIs followed by store-region POIs.
    neg_pois: Vec<usize>,
    sign: LearnedClassifier,
    pos: LearnedClassifier,
    neg: LearnedClassifier,
}

impl LearnedRail {
    /// Classifies one ladder window through the learned rail, mirroring
    /// [`TrainedAttack::attack_window`]: sign first, then the
    /// sign-conditional value classifier. The probabilities are the
    /// temperature-calibrated softmax.
    ///
    /// # Errors
    ///
    /// Fails with [`LearnedError::DimensionMismatch`] when `window` is
    /// shorter than the trained ladder window; propagates learned-classifier
    /// failures.
    pub fn attack_window(&self, window: &[f64]) -> Result<CoefficientEstimate, LearnedError> {
        if window.len() < self.ladder_window {
            return Err(LearnedError::DimensionMismatch {
                expected: self.ladder_window,
                got: window.len(),
            });
        }
        let project = |pois: &[usize]| -> Vec<f64> { pois.iter().map(|&i| window[i]).collect() };
        let sign = self.sign.classify(&project(&self.sign_pois))?.best_label();
        let (predicted, probabilities) = match sign {
            0 => (0, vec![(0, 1.0)]),
            s if s > 0 => {
                let scores = self.pos.classify(&project(&self.pos_pois))?;
                (scores.best_label(), scores.probabilities())
            }
            _ => {
                let scores = self.neg.classify(&project(&self.neg_pois))?;
                (scores.best_label(), scores.probabilities())
            }
        };
        Ok(CoefficientEstimate {
            sign,
            predicted,
            probabilities,
        })
    }

    /// Calibrated temperatures of the (sign, positive, negative)
    /// classifiers — diagnostics for the robust report.
    pub fn temperatures(&self) -> (f64, f64, f64) {
        (
            self.sign.temperature(),
            self.pos.temperature(),
            self.neg.temperature(),
        )
    }
}

/// The per-coefficient outcome of a single-trace attack.
#[derive(Debug, Clone, PartialEq)]
pub struct CoefficientEstimate {
    /// The sign decision (−1, 0, +1).
    pub sign: i64,
    /// The most likely coefficient value.
    pub predicted: i64,
    /// `(value, probability)` over the sign-consistent candidates.
    pub probabilities: Vec<(i64, f64)>,
}

impl CoefficientEstimate {
    /// The probability assigned to a given value.
    pub fn probability_of(&self, value: i64) -> f64 {
        self.probabilities
            .iter()
            .find(|(v, _)| *v == value)
            .map(|(_, p)| *p)
            .unwrap_or(0.0)
    }

    /// The confidence of the top candidate.
    pub fn confidence(&self) -> f64 {
        self.probabilities
            .iter()
            .map(|(_, p)| *p)
            .fold(0.0, f64::max)
    }
}

/// Result of attacking one full trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleTraceAttack {
    /// One estimate per detected coefficient window, in trace order.
    pub coefficients: Vec<CoefficientEstimate>,
}

impl SingleTraceAttack {
    /// The predicted coefficient vector.
    pub fn predicted_values(&self) -> Vec<i64> {
        self.coefficients.iter().map(|c| c.predicted).collect()
    }

    /// Fraction of coefficients whose *sign* matches the given ground truth.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn sign_accuracy(&self, truth: &[i64]) -> f64 {
        assert_eq!(truth.len(), self.coefficients.len());
        let hits = self
            .coefficients
            .iter()
            .zip(truth)
            .filter(|(c, t)| c.sign == t.signum())
            .count();
        hits as f64 / truth.len().max(1) as f64
    }

    /// Fraction of coefficients whose *value* matches the ground truth.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn value_accuracy(&self, truth: &[i64]) -> f64 {
        assert_eq!(truth.len(), self.coefficients.len());
        let hits = self
            .coefficients
            .iter()
            .zip(truth)
            .filter(|(c, t)| c.predicted == **t)
            .count();
        hits as f64 / truth.len().max(1) as f64
    }
}

/// The labelled window sets one profiling campaign yields: the sign set plus
/// the sign-conditional value sets, ready for [`TrainedAttack::fit`].
#[derive(Debug, Clone)]
pub struct ProfilingData {
    /// Windows labelled by coefficient sign (−1, 0, +1).
    pub sign_set: TraceSet,
    /// Windows of positive coefficients, labelled by value.
    pub pos_set: TraceSet,
    /// Windows of negative coefficients, labelled by value.
    pub neg_set: TraceSet,
    /// Total windows that survived segmentation.
    pub total_windows: usize,
}

/// One profiling worker's reusable state: the rv32 sampler scratch (trace
/// buffer, burst memo, compiled-block cache) plus the segmentation scratch.
/// Profiling never reads per-instruction spans, so the sampler side is
/// [`samples_only`](reveal_rv32::kernel::SamplerScratch::samples_only).
#[derive(Debug, Clone)]
struct ProfileScratch {
    sampler: reveal_rv32::kernel::SamplerScratch,
    segment: SegmentScratch,
}

impl ProfileScratch {
    fn new() -> Self {
        Self {
            sampler: reveal_rv32::kernel::SamplerScratch::samples_only(),
            segment: SegmentScratch::new(),
        }
    }
}

/// Cost model for one profiling capture (capture + segmentation, ~ms each):
/// items are expensive, so claims are near-singular and the worker count
/// saturates quickly.
static PROFILE_RUN_COST: reveal_par::CostModel =
    reveal_par::CostModel::new("attack.profile.run", 4_000_000.0);

/// Cost model for classifying one ladder window (units: window samples),
/// shared by the plain and the robust driver.
pub(crate) static ATTACK_WINDOW_COST: reveal_par::CostModel =
    reveal_par::CostModel::new("attack.window.classify", 100.0);

/// What one profiling run yields: its chosen values and ladder windows,
/// `None` when segmentation found the wrong window count (re-capture).
type RunYield = Result<Option<(Vec<i64>, Vec<Vec<f64>>)>, AttackError>;

/// The per-run body shared by the fast path and the baseline: balanced,
/// shuffled chosen values from the run's derived seed, one capture, window
/// extraction.
fn profiling_run(
    device: &Device,
    config: &AttackConfig,
    labels: &[i64],
    master_seed: u64,
    run: usize,
    scratch: Option<&mut ProfileScratch>,
) -> RunYield {
    let n = device.degree();
    let mut rng = StdRng::seed_from_u64(reveal_par::derive_seed(master_seed, run as u64));
    // Balanced, shuffled chosen values; the per-run offset makes all
    // classes appear across runs even when n < label count.
    let mut values: Vec<i64> = (0..n)
        .map(|i| labels[(i + run * n) % labels.len()])
        .collect();
    values.shuffle(&mut rng);
    let windows = match scratch {
        Some(scratch) => {
            let capture = device.capture_chosen_into(&values, &mut rng, &mut scratch.sampler)?;
            extract_ladder_windows_into(&capture.run.capture.samples, config, &mut scratch.segment)?
        }
        None => {
            let capture = device.capture_chosen_reference(&values, &mut rng)?;
            extract_ladder_windows_reference(&capture.run.capture.samples, config)?
        }
    };
    if windows.len() != n {
        // Segmentation glitch: a real adversary would re-capture.
        return Ok(None);
    }
    Ok(Some((values, windows)))
}

/// Folds run yields (in run order) into the labelled window sets.
fn accumulate_runs(
    collected: impl IntoIterator<Item = RunYield>,
) -> Result<ProfilingData, AttackError> {
    let mut data = ProfilingData {
        sign_set: TraceSet::new(),
        pos_set: TraceSet::new(),
        neg_set: TraceSet::new(),
        total_windows: 0,
    };
    for run_yield in collected {
        let Some((values, windows)) = run_yield? else {
            continue;
        };
        for (w, &v) in windows.into_iter().zip(&values) {
            data.total_windows += 1;
            data.sign_set.push(Trace::labelled(w.clone(), v.signum()));
            if v > 0 {
                data.pos_set.push(Trace::labelled(w, v));
            } else if v < 0 {
                data.neg_set.push(Trace::labelled(w, v));
            }
        }
    }
    Ok(data)
}

/// Collects `runs` chosen-value profiling captures in parallel. Run `i` is a
/// pure function of `(master_seed, i)`: its chosen values, its device noise
/// and its timing variance all come from an [`StdRng`] seeded with
/// [`reveal_par::derive_seed`]`(master_seed, i)` — never from a shared
/// mutable generator — so the collected sets are identical whatever the
/// thread count, and a run's data no longer depends on how much randomness
/// earlier runs happened to consume.
///
/// Runs go through the rv32 streaming fast path with **worker-pinned
/// scratch**: every worker owns one long-lived
/// [`reveal_rv32::kernel::SamplerScratch`] for its entire share of the
/// collection (serial: one scratch for all runs), so the trace buffer is
/// allocated once and the sub-trace memo stays warm across every run a
/// worker touches — no per-chunk cold starts. The partition is scheduling
/// only: each run's values depend on nothing but its own derived seed, so
/// the collected sets are bit-identical to [`collect_profiling_baseline`]
/// for any thread count or chunk plan.
///
/// # Errors
///
/// Propagates the first failing run's error (in run order). Runs whose
/// segmentation finds the wrong window count are skipped, as a real
/// adversary would re-capture.
pub fn collect_profiling(
    device: &Device,
    runs: usize,
    config: &AttackConfig,
    master_seed: u64,
) -> Result<ProfilingData, AttackError> {
    let labels = config.value_labels();
    accumulate_runs(reveal_par::par_map_index_with_scratch(
        runs,
        &PROFILE_RUN_COST,
        1,
        ProfileScratch::new,
        |scratch, run| profiling_run(device, config, &labels, master_seed, run, Some(scratch)),
    ))
}

/// The oracle for [`collect_profiling`]: a plain serial loop over the runs,
/// materializing captures through [`Device::capture_chosen_reference`]
/// (per-step decoding, `sin`-per-bit rendering, per-sample noise). Kept for
/// the equivalence tests, and as the yardstick of the fast-path timing test
/// (`fast_path_outpaces_the_reference_collector`).
///
/// # Errors
///
/// Same as [`collect_profiling`].
pub fn collect_profiling_baseline(
    device: &Device,
    runs: usize,
    config: &AttackConfig,
    master_seed: u64,
) -> Result<ProfilingData, AttackError> {
    let labels = config.value_labels();
    accumulate_runs(
        (0..runs).map(|run| profiling_run(device, config, &labels, master_seed, run, None)),
    )
}

impl TrainedAttack {
    /// Profiles `device` with `runs` chosen-value captures and fits all
    /// template sets. Each run cycles through every value class in
    /// `[-value_range, value_range]` in shuffled positions, so classes stay
    /// balanced and position effects decorrelate.
    ///
    /// The supplied generator contributes exactly one `u64` — the master
    /// seed handed to [`profile_seeded`](TrainedAttack::profile_seeded) —
    /// so profiling is reproducible from the seed alone and runs in
    /// parallel across `REVEAL_THREADS` workers.
    ///
    /// # Errors
    ///
    /// Fails when segmentation, POI selection or template fitting fails, or
    /// when too little per-class data survives.
    pub fn profile<R: Rng + ?Sized>(
        device: &Device,
        runs: usize,
        config: &AttackConfig,
        rng: &mut R,
    ) -> Result<Self, AttackError> {
        Self::profile_seeded(device, runs, config, rng.next_u64())
    }

    /// Seed-explicit profiling: collects [`collect_profiling`]'s window sets
    /// (in parallel, deterministically) and fits the templates. Two calls
    /// with the same arguments produce bit-identical attackers at any
    /// thread count.
    ///
    /// # Errors
    ///
    /// Same as [`TrainedAttack::profile`].
    pub fn profile_seeded(
        device: &Device,
        runs: usize,
        config: &AttackConfig,
        master_seed: u64,
    ) -> Result<Self, AttackError> {
        let data = collect_profiling(device, runs, config, master_seed)?;
        Self::fit(
            config.clone(),
            data.sign_set,
            data.pos_set,
            data.neg_set,
            data.total_windows,
        )
    }

    /// Fits the template sets from already-windowed profiling data (used by
    /// `profile` and directly by tests/benches that bring their own data).
    ///
    /// # Errors
    ///
    /// Same as [`TrainedAttack::profile`].
    pub fn fit(
        config: AttackConfig,
        sign_set: TraceSet,
        pos_set: TraceSet,
        neg_set: TraceSet,
        profiling_windows: usize,
    ) -> Result<Self, AttackError> {
        for (set, name) in [(&sign_set, 0i64), (&pos_set, 1), (&neg_set, -1)] {
            if set.len() < 8 {
                return Err(AttackError::NotEnoughProfilingData {
                    label: name,
                    count: set.len(),
                });
            }
        }
        let sign_pois = select_pois(
            &sign_set,
            config.poi_method,
            config.poi_count,
            config.poi_min_spacing,
        )?;
        let sign_templates = TemplateSet::fit_trace_set(&sign_set, &sign_pois, config.ridge)?;

        let pos_pois = select_pois(
            &pos_set,
            config.poi_method,
            config.poi_count,
            config.poi_min_spacing,
        )?;
        let pos_templates = TemplateSet::fit_trace_set(&pos_set, &pos_pois, config.ridge)?;

        // Negatives: separate POI sets for the negation region (early part of
        // the ladder) and the store region (late part), fused at attack time.
        let split = (config.ladder_window as f64 * config.early_fraction) as usize;
        let neg_stat = reveal_trace::poi::leakage_statistic(&neg_set, config.poi_method)?;
        let early_stat: Vec<f64> = neg_stat
            .iter()
            .enumerate()
            .map(|(i, &s)| if i < split { s } else { 0.0 })
            .collect();
        let late_stat: Vec<f64> = neg_stat
            .iter()
            .enumerate()
            .map(|(i, &s)| if i >= split { s } else { 0.0 })
            .collect();
        let neg_early_pois = reveal_trace::poi::select_pois_from_statistic(
            &early_stat,
            config.poi_count,
            config.poi_min_spacing,
        );
        let neg_late_pois = reveal_trace::poi::select_pois_from_statistic(
            &late_stat,
            config.poi_count,
            config.poi_min_spacing,
        );
        let neg_early_templates =
            TemplateSet::fit_trace_set(&neg_set, &neg_early_pois, config.ridge)?;
        let neg_late_templates =
            TemplateSet::fit_trace_set(&neg_set, &neg_late_pois, config.ridge)?;

        Ok(Self {
            config,
            sign_pois,
            sign_templates,
            pos_pois,
            pos_templates,
            neg_early_pois,
            neg_early_templates,
            neg_late_pois,
            neg_late_templates,
            profiling_windows,
            learned: None,
        })
    }

    /// Seed-explicit **two-rail** profiling: collects one profiling
    /// campaign, fits the pooled-Gaussian templates, then trains the
    /// learned rail from the *same* labelled windows and attaches it.
    ///
    /// The learned rail's failure is **not** fatal: a diverged or
    /// degenerate training run returns the template-only attacker plus the
    /// typed [`LearnedError`] so the caller can record the LDA-only
    /// fallback in its report — the driver degrades, it never panics.
    ///
    /// # Errors
    ///
    /// Same as [`TrainedAttack::profile_seeded`] (template-rail failures
    /// are still fatal: without templates there is no attack at all).
    pub fn profile_seeded_two_rail(
        device: &Device,
        runs: usize,
        config: &AttackConfig,
        master_seed: u64,
        learned: &LearnedConfig,
    ) -> Result<(Self, Option<LearnedError>), AttackError> {
        let data = collect_profiling(device, runs, config, master_seed)?;
        let mut attack = Self::fit(
            config.clone(),
            data.sign_set.clone(),
            data.pos_set.clone(),
            data.neg_set.clone(),
            data.total_windows,
        )?;
        match attack.fit_learned_rail(&data, learned) {
            Ok(rail) => {
                attack.learned = Some(rail);
                Ok((attack, None))
            }
            Err(e) => Ok((attack, Some(e))),
        }
    }

    /// Trains the learned rail from a profiling campaign's labelled
    /// windows, projected onto this attacker's already-selected POIs (the
    /// rails therefore read identical evidence). Per-classifier seeds are
    /// derived from `config.seed` so the three problems get independent
    /// deterministic streams.
    ///
    /// # Errors
    ///
    /// Propagates typed learned-training failures; the attacker itself is
    /// untouched on error.
    pub fn fit_learned_rail(
        &self,
        data: &ProfilingData,
        config: &LearnedConfig,
    ) -> Result<LearnedRail, LearnedError> {
        let project = |set: &TraceSet, pois: &[usize]| -> Vec<(i64, Vec<f64>)> {
            set.iter()
                .map(|t| (t.label().unwrap_or(0), t.project(pois)))
                .collect()
        };
        let neg_pois: Vec<usize> = self
            .neg_early_pois
            .iter()
            .chain(&self.neg_late_pois)
            .copied()
            .collect();
        let seeded = |stream: u64| {
            config
                .clone()
                .with_seed(reveal_par::derive_seed(config.seed, stream))
        };
        let sign = LearnedClassifier::fit(&project(&data.sign_set, &self.sign_pois), &seeded(1))?;
        let pos = LearnedClassifier::fit(&project(&data.pos_set, &self.pos_pois), &seeded(2))?;
        let neg = LearnedClassifier::fit(&project(&data.neg_set, &neg_pois), &seeded(3))?;
        Ok(LearnedRail {
            ladder_window: self.config.ladder_window,
            sign_pois: self.sign_pois.clone(),
            pos_pois: self.pos_pois.clone(),
            neg_pois,
            sign,
            pos,
            neg,
        })
    }

    /// Attaches (or replaces) the learned rail.
    #[must_use]
    pub fn with_learned_rail(mut self, rail: LearnedRail) -> Self {
        self.learned = Some(rail);
        self
    }

    /// Drops the learned rail (template-only attacker).
    #[must_use]
    pub fn without_learned_rail(mut self) -> Self {
        self.learned = None;
        self
    }

    /// The attached learned rail, if any.
    pub fn learned_rail(&self) -> Option<&LearnedRail> {
        self.learned.as_ref()
    }

    /// The configuration the attacker was trained with.
    pub fn config(&self) -> &AttackConfig {
        &self.config
    }

    /// Number of profiling windows consumed.
    pub fn profiling_windows(&self) -> usize {
        self.profiling_windows
    }

    /// Attacks a full single trace: segmentation, per-window sign decision,
    /// sign-conditional value recovery with negation/store fusion.
    ///
    /// # Errors
    ///
    /// Fails when segmentation or classification fails.
    pub fn attack_trace(&self, samples: &[f64]) -> Result<SingleTraceAttack, AttackError> {
        let starts = ladder_window_starts(samples, &self.config)?;
        let ladder = self.config.ladder_window;
        // Each window's classification is independent; fan out across
        // threads and keep trace order. The first failing window (in trace
        // order) determines the error, matching the serial loop. The cost
        // model keeps short traces serial — a single classification is far
        // cheaper than a thread handoff — and sizes claims from measured
        // per-window cost on longer ones. Windows are read in place from
        // the trace, never copied.
        let coefficients = reveal_par::par_map_index_modeled(
            starts.len(),
            &ATTACK_WINDOW_COST,
            ladder as u64,
            |w| self.attack_window(&samples[starts[w]..starts[w] + ladder]),
        )
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        Ok(SingleTraceAttack { coefficients })
    }

    /// Attacks a full trace whose window count is known (a real encryption
    /// samples exactly `n` coefficients); mismatches are reported.
    ///
    /// # Errors
    ///
    /// Additionally fails with [`AttackError::WindowCountMismatch`].
    pub fn attack_trace_expecting(
        &self,
        samples: &[f64],
        expected_windows: usize,
    ) -> Result<SingleTraceAttack, AttackError> {
        let result = self.attack_trace(samples)?;
        if result.coefficients.len() != expected_windows {
            return Err(AttackError::WindowCountMismatch {
                expected: expected_windows,
                got: result.coefficients.len(),
            });
        }
        Ok(result)
    }

    /// Classifies one ladder window.
    ///
    /// # Errors
    ///
    /// Fails with [`TemplateError::DimensionMismatch`] (as
    /// [`AttackError::Template`]) when `window` is shorter than the trained
    /// ladder window; propagates template-classification failures.
    pub fn attack_window(&self, window: &[f64]) -> Result<CoefficientEstimate, AttackError> {
        self.attack_window_scored(window).0
    }

    /// [`attack_window`](Self::attack_window) together with the window's
    /// raw sign fit score, both from one sign-template classification. The
    /// score is the unnormalized log-likelihood of the best-fitting *sign*
    /// class — an absolute goodness-of-fit number, in contrast to the
    /// softmax probabilities, which always sum to one even when every
    /// template fits terribly. The robust driver screens windows whose
    /// score falls far below the per-trace population (misaligned, glitched
    /// or clipped windows score catastrophically against every class at
    /// once). The score is `None` only when the sign classification fails;
    /// a failing value-template classification still leaves it.
    pub(crate) fn attack_window_scored(
        &self,
        window: &[f64],
    ) -> (Result<CoefficientEstimate, AttackError>, Option<f64>) {
        let ladder = self.config.ladder_window;
        if window.len() < ladder {
            let short = TemplateError::DimensionMismatch {
                expected: ladder,
                got: window.len(),
            };
            return (Err(short.into()), None);
        }
        let sign_scores = match self
            .sign_templates
            .classify_projected(window, &self.sign_pois)
        {
            Ok(scores) => scores,
            Err(e) => return (Err(e.into()), None),
        };
        let fit = sign_scores
            .log_likelihoods()
            .iter()
            .map(|(_, s)| *s)
            .fold(f64::NEG_INFINITY, f64::max);
        let sign = sign_scores.best_label();
        (self.estimate_given_sign(window, sign), Some(fit))
    }

    /// The sign-conditional value recovery of one window whose sign is
    /// decided: positive templates, or the fused negation/store templates.
    fn estimate_given_sign(
        &self,
        window: &[f64],
        sign: i64,
    ) -> Result<CoefficientEstimate, AttackError> {
        let (predicted, probabilities) = match sign {
            0 => (0, vec![(0, 1.0)]),
            s if s > 0 => {
                let scores = self
                    .pos_templates
                    .classify_projected(window, &self.pos_pois)?;
                (scores.best_label(), scores.probabilities())
            }
            _ => {
                let early = self
                    .neg_early_templates
                    .classify_projected(window, &self.neg_early_pois)?;
                let late = self
                    .neg_late_templates
                    .classify_projected(window, &self.neg_late_pois)?;
                let fused = early.fuse(&late);
                (fused.best_label(), fused.probabilities())
            }
        };
        Ok(CoefficientEstimate {
            sign,
            predicted,
            probabilities,
        })
    }

    /// The program counters this trained attack actually reads: every
    /// selected point of interest, in every detected ladder window of
    /// `capture`, mapped through the capture's per-instruction
    /// [`SampleSpan`](reveal_rv32::SampleSpan)s to the instruction that
    /// produced the sample. This is the dynamic half of the
    /// static-predicts-dynamic contract: the static leakage map's
    /// top-ranked sites must cover every PC returned here.
    ///
    /// # Errors
    ///
    /// Propagates segmentation failures; requires a span-annotated capture
    /// (not one rendered through a
    /// [`samples_only`](reveal_rv32::kernel::SamplerScratch::samples_only)
    /// scratch).
    pub fn exploited_pcs(&self, capture: &PowerCapture) -> Result<ExploitedPcs, AttackError> {
        let starts = ladder_window_starts(&capture.samples, &self.config)?;
        let pcs_for = |pois: &[usize]| -> BTreeSet<u32> {
            let mut pcs = BTreeSet::new();
            for &start in &starts {
                for &poi in pois {
                    if let Some(pc) = pc_of_sample(capture, start + poi) {
                        pcs.insert(pc);
                    }
                }
            }
            pcs
        };
        Ok(ExploitedPcs {
            sign: pcs_for(&self.sign_pois),
            positive: pcs_for(&self.pos_pois),
            negative_early: pcs_for(&self.neg_early_pois),
            negative_late: pcs_for(&self.neg_late_pois),
        })
    }
}

/// Per-class unions of the PCs a trained attack's points of interest land
/// on (see [`TrainedAttack::exploited_pcs`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploitedPcs {
    /// PCs observed by the sign classifier.
    pub sign: BTreeSet<u32>,
    /// PCs observed by the positive-value templates.
    pub positive: BTreeSet<u32>,
    /// PCs observed by the negative-value negation-region templates.
    pub negative_early: BTreeSet<u32>,
    /// PCs observed by the negative-value store-region templates.
    pub negative_late: BTreeSet<u32>,
}

impl ExploitedPcs {
    /// Every PC any classifier observes.
    pub fn union(&self) -> BTreeSet<u32> {
        let mut all = self.sign.clone();
        all.extend(&self.positive);
        all.extend(&self.negative_early);
        all.extend(&self.negative_late);
        all
    }
}

/// Absolute sample offsets where each full ladder window begins, under the
/// same burst segmentation [`extract_ladder_windows`] uses.
///
/// # Errors
///
/// Propagates burst-detection failures.
pub fn ladder_window_starts(
    samples: &[f64],
    config: &AttackConfig,
) -> Result<Vec<usize>, SegmentError> {
    let bursts = refined_bursts_into(samples, &config.segment, &mut SegmentScratch::new())?;
    Ok(full_window_starts(samples.len(), &bursts, config).collect())
}

/// The PC whose instruction produced `sample`, via the capture's span
/// annotations (`None` past the end or for span-less captures).
fn pc_of_sample(capture: &PowerCapture, sample: usize) -> Option<u32> {
    // Spans are emitted in execution order with contiguous sample ranges,
    // so a binary search on `end` finds the unique covering span.
    let idx = capture.spans.partition_point(|s| s.end <= sample);
    let span = capture.spans.get(idx)?;
    (span.start <= sample && sample < span.end).then_some(span.pc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use reveal_rv32::power::PowerModelConfig;

    const Q: u64 = 132120577;

    fn trained(noise: f64, runs: usize, seed: u64) -> (Device, TrainedAttack, StdRng) {
        let device = Device::new(
            64,
            &[Q],
            PowerModelConfig::default().with_noise_sigma(noise),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let config = AttackConfig::default();
        let attack = TrainedAttack::profile(&device, runs, &config, &mut rng).unwrap();
        (device, attack, rng)
    }

    #[test]
    fn window_extraction_counts_match_ground_truth() {
        let device = Device::new(32, &[Q], PowerModelConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let cap = device.capture_fresh(&mut rng).unwrap();
        let windows =
            extract_ladder_windows(&cap.run.capture.samples, &AttackConfig::default()).unwrap();
        assert_eq!(windows.len(), 32);
        assert!(windows.iter().all(|w| w.len() == 96));
    }

    #[test]
    fn low_noise_attack_recovers_signs_perfectly() {
        let (device, attack, mut rng) = trained(0.05, 24, 2);
        let cap = device.capture_fresh(&mut rng).unwrap();
        let result = attack
            .attack_trace_expecting(&cap.run.capture.samples, 64)
            .unwrap();
        let sign_acc = result.sign_accuracy(&cap.values);
        assert_eq!(sign_acc, 1.0, "paper: 100% sign accuracy");
    }

    #[test]
    fn low_noise_attack_matches_table_i_shape() {
        // Table I regime: zeros recovered at 100%, negatives far better than
        // positives (Hamming-weight collisions confuse the positive branch,
        // the negation disambiguates the negative one).
        let (device, attack, mut rng) = trained(0.05, 24, 3);
        let (mut ph, mut pt, mut nh, mut nt, mut zh, mut zt) = (0, 0, 0, 0, 0, 0);
        for _ in 0..4 {
            let cap = device.capture_fresh(&mut rng).unwrap();
            let result = attack
                .attack_trace_expecting(&cap.run.capture.samples, 64)
                .unwrap();
            for (est, &truth) in result.coefficients.iter().zip(&cap.values) {
                let hit = (est.predicted == truth) as usize;
                if truth > 0 {
                    pt += 1;
                    ph += hit;
                } else if truth < 0 {
                    nt += 1;
                    nh += hit;
                } else {
                    zt += 1;
                    zh += hit;
                }
            }
        }
        assert_eq!(zh, zt, "zero coefficients must be recovered exactly");
        let neg_acc = nh as f64 / nt.max(1) as f64;
        let pos_acc = ph as f64 / pt.max(1) as f64;
        assert!(neg_acc > 0.6, "negative accuracy {neg_acc:.2}");
        assert!(
            neg_acc > pos_acc + 0.2,
            "Table I asymmetry missing: neg {neg_acc:.2} pos {pos_acc:.2}"
        );
    }

    #[test]
    fn negatives_beat_positives() {
        // The paper's Table I asymmetry: the negation (3rd vulnerability)
        // makes negative coefficients easier to recover than positive ones.
        let (device, attack, mut rng) = trained(0.25, 30, 4);
        let mut pos_hits = 0usize;
        let mut pos_total = 0usize;
        let mut neg_hits = 0usize;
        let mut neg_total = 0usize;
        for _ in 0..8 {
            let cap = device.capture_fresh(&mut rng).unwrap();
            let Ok(result) = attack.attack_trace_expecting(&cap.run.capture.samples, 64) else {
                continue;
            };
            for (est, &truth) in result.coefficients.iter().zip(&cap.values) {
                if truth > 0 {
                    pos_total += 1;
                    pos_hits += (est.predicted == truth) as usize;
                } else if truth < 0 {
                    neg_total += 1;
                    neg_hits += (est.predicted == truth) as usize;
                }
            }
        }
        let pos_acc = pos_hits as f64 / pos_total.max(1) as f64;
        let neg_acc = neg_hits as f64 / neg_total.max(1) as f64;
        assert!(
            neg_acc > pos_acc,
            "negatives ({neg_acc:.2}) must beat positives ({pos_acc:.2})"
        );
    }

    #[test]
    fn estimates_expose_posteriors() {
        let (device, attack, mut rng) = trained(0.1, 20, 5);
        let cap = device.capture_fresh(&mut rng).unwrap();
        let result = attack.attack_trace(&cap.run.capture.samples).unwrap();
        for est in &result.coefficients {
            let total: f64 = est.probabilities.iter().map(|(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-9);
            assert!(est.confidence() > 0.0);
            assert_eq!(est.probability_of(est.predicted), est.confidence());
            // Sign-consistency of candidates.
            match est.sign {
                0 => assert_eq!(est.probabilities, vec![(0, 1.0)]),
                s if s > 0 => assert!(est.probabilities.iter().all(|(v, _)| *v > 0)),
                _ => assert!(est.probabilities.iter().all(|(v, _)| *v < 0)),
            }
        }
    }

    #[test]
    fn fast_path_profiling_matches_baseline() {
        // The chunked, memoized collector must yield bit-identical labelled
        // sets to the one-task-per-run materializing baseline.
        let device = Device::new(32, &[Q], PowerModelConfig::default()).unwrap();
        let config = AttackConfig::default();
        // 11 runs: exercises a full chunk plus a ragged tail.
        let fast = collect_profiling(&device, 11, &config, 0xFEED_5EED).unwrap();
        let baseline = collect_profiling_baseline(&device, 11, &config, 0xFEED_5EED).unwrap();
        assert_eq!(fast.total_windows, baseline.total_windows);
        assert_eq!(fast.sign_set, baseline.sign_set);
        assert_eq!(fast.pos_set, baseline.pos_set);
        assert_eq!(fast.neg_set, baseline.neg_set);
        assert!(fast.total_windows > 0);
    }

    #[test]
    fn window_count_mismatch_detected() {
        let (_, attack, _) = trained(0.1, 20, 6);
        // A synthetic flat trace with two bursts only.
        let mut t = vec![1.0; 2000];
        for s in [100usize, 900] {
            for i in s..s + 200 {
                t[i] = 4.0;
            }
        }
        match attack.attack_trace_expecting(&t, 64) {
            Err(AttackError::WindowCountMismatch { expected: 64, got }) => assert_eq!(got, 2),
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn short_window_fails_typed_on_the_template_rail() {
        let (_, attack, _) = trained(0.1, 20, 7);
        for len in [0, 40, 95] {
            assert_eq!(
                attack.attack_window(&vec![1.0; len]),
                Err(AttackError::Template(TemplateError::DimensionMismatch {
                    expected: 96,
                    got: len
                }))
            );
        }
        assert!(attack.attack_window(&[1.0; 96]).is_ok());
    }

    #[test]
    fn short_window_fails_typed_on_the_learned_rail() {
        let device =
            Device::new(16, &[Q], PowerModelConfig::default().with_noise_sigma(0.05)).unwrap();
        let (attack, err) = TrainedAttack::profile_seeded_two_rail(
            &device,
            30,
            &AttackConfig::default(),
            0x5407,
            &LearnedConfig::default(),
        )
        .unwrap();
        assert!(err.is_none(), "learned rail must train: {err:?}");
        let rail = attack.learned_rail().unwrap();
        for len in [0, 40, 95] {
            assert_eq!(
                rail.attack_window(&vec![1.0; len]),
                Err(LearnedError::DimensionMismatch {
                    expected: 96,
                    got: len
                })
            );
        }
        assert!(rail.attack_window(&[1.0; 96]).is_ok());
    }

    #[test]
    fn profiling_needs_data() {
        let config = AttackConfig::default();
        let err = TrainedAttack::fit(config, TraceSet::new(), TraceSet::new(), TraceSet::new(), 0);
        assert!(matches!(
            err,
            Err(AttackError::NotEnoughProfilingData { .. })
        ));
    }

    #[test]
    fn non_finite_profiling_sample_fails_typed() {
        let config = AttackConfig::default();
        let set = |labels: &[i64], nan: bool| -> TraceSet {
            (0..60)
                .map(|i| {
                    let label = labels[i % labels.len()];
                    let mut samples: Vec<f64> = (0..config.ladder_window)
                        .map(|t| {
                            ((i * 7 + t * 13) % 17) as f64 * 0.1 + (label * (t % 3) as i64) as f64
                        })
                        .collect();
                    if nan && i == 17 {
                        samples[5] = f64::NAN;
                    }
                    Trace::labelled(samples, label)
                })
                .collect()
        };
        // The NaN in each of the sign, positive and negative sets.
        for bad in 0..3 {
            let err = TrainedAttack::fit(
                config.clone(),
                set(&[-1, 0, 1], bad == 0),
                set(&[1, 2, 3], bad == 1),
                set(&[-1, -2, -3], bad == 2),
                180,
            )
            .err();
            assert_eq!(
                err,
                Some(AttackError::Poi(PoiError::NonFinite { sample: 5 })),
                "NaN in set {bad}"
            );
        }
    }
}
