//! The self-healing attack driver: runs the single-trace pipeline on
//! degraded captures, with per-stage sanity checks, bounded segmentation
//! retry, and a confidence-gated hint-degradation ladder.
//!
//! ## Architecture
//!
//! 1. **Segment with retry** — burst detection runs through a bounded
//!    schedule of progressively relaxed [`SegmentConfig`]s until the burst
//!    count matches the expected coefficient count; leftover mismatches are
//!    *healed* (over-count → merge the closest pair, under-count → split
//!    the longest burst), and every healed window is remembered as
//!    untrustworthy.
//! 2. **Screen** — each ladder window passes sample-level (MAD z-scores
//!    against the window's own samples), gain-level (burst-median vs a
//!    calibrated clean reference) and fit-level (raw sign-template
//!    log-likelihood vs the per-trace population) sanity checks; failures
//!    mark the window *suspect* without aborting anything. At the default
//!    knobs the sample-level screen cannot fire: its threshold,
//!    `glitch_z · glitch_floor_fraction · range` = 10 · 0.1 · range, is
//!    the trace's whole dynamic range, and no sample deviates from its
//!    window median by more; spiked windows are flagged, when at all,
//!    mostly by the fit screen. The glitch and gain screens decide each
//!    window from exact bounds (its span; the burst's counts against the
//!    exact level interval the gain test passes) and run their selections
//!    only where a bound cannot decide.
//! 3. **Gate** — per-coefficient posteriors are classified onto the
//!    perfect / approximate / skipped ladder by the *shared*
//!    [`HintPolicy::decide`] rule, with the posterior
//!    variance inflated when the trace's robust noise estimate exceeds the
//!    calibrated clean level, suspect windows demoted to at most an
//!    approximate hint, and healed windows skipped outright.
//!
//! With zero faults nothing fires: rung 0 of the retry schedule *is* the
//! production configuration, the variance inflation is exactly `1.0`
//! (a float multiply by 1.0 is the identity), and no screen trips — so the
//! recovered coefficients and the bikz estimate are bit-identical to
//! [`TrainedAttack::attack_trace`] followed by
//! [`report_full_attack`](crate::report::report_full_attack). The
//! `tests/chaos.rs` suite pins exactly that.

use crate::config::AttackConfig;
use crate::profile::{
    full_window_start, AttackError, CoefficientEstimate, TrainedAttack, ATTACK_WINDOW_COST,
};
use crate::report::{report_decisions, AttackReport, ReportError};
use reveal_hints::{HintDecision, HintPolicy, HintSummary, LweParameters, Posterior};
use reveal_trace::order::last_not_exceeding;
use reveal_trace::sanity::{
    finite_min_max, mad_in_place, mad_outlier_flags, median, median_in_place, robust_noise_sigma,
    MAD_TO_SIGMA,
};
use reveal_trace::segment::{refined_bursts_into, SegmentConfig, SegmentError, SegmentScratch};
use std::cmp::Ordering;

/// Knobs of the robust driver. Defaults are deliberately conservative: on a
/// clean capture none of the screens may fire (the zero-fault bit-identity
/// test enforces this).
#[derive(Debug, Clone, PartialEq)]
pub struct RobustConfig {
    /// Robust z-score above which a window sample counts as a glitch/clip
    /// artifact (screened against the window's own sample population).
    pub glitch_z: f64,
    /// MAD floor for the glitch screen, as a fraction of the trace's
    /// dynamic range (keeps near-constant windows from flagging noise).
    /// At the default 0.1, with the default `glitch_z` of 10, the screen's
    /// threshold is the whole dynamic range and it never fires; a floor of
    /// 0.01 lets it flag spiked windows.
    pub glitch_floor_fraction: f64,
    /// Robust z-score below the population median at which a window's raw
    /// sign-template log-likelihood marks it suspect (misalignment screen).
    pub score_z: f64,
    /// Relative burst-gain deviation (|level/reference − 1|) above which a
    /// window is suspect. Matches the injector's corruption tolerance.
    pub gain_tolerance: f64,
    /// Robust z-score for the burst-length outlier screen.
    pub length_z: f64,
    /// σ̂/σ_ref ratio below which variance inflation stays exactly 1.0
    /// (bit-identity regime); above it, inflation grows as the ratio
    /// squared.
    pub inflation_knee: f64,
    /// Posterior-variance floor assigned when a suspect window's hint is
    /// demoted from perfect to approximate.
    pub demoted_variance_floor: f64,
}

impl Default for RobustConfig {
    fn default() -> Self {
        Self {
            glitch_z: 10.0,
            glitch_floor_fraction: 0.1,
            score_z: 8.0,
            gain_tolerance: 0.015,
            length_z: 8.0,
            inflation_knee: 1.5,
            demoted_variance_floor: 0.25,
        }
    }
}

/// Clean-capture reference levels, measured once on a known-good trace
/// (e.g. a profiling capture). Without a calibration the gain screen and
/// the noise-driven variance inflation stay disabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Robust noise σ̂ of a clean capture ([`robust_noise_sigma`]).
    pub reference_noise_sigma: f64,
    /// Median of the per-burst median levels of a clean capture.
    pub reference_burst_level: f64,
}

/// Measures a [`Calibration`] from a known-clean capture.
///
/// # Errors
///
/// Propagates segmentation failures.
pub fn calibrate(samples: &[f64], config: &AttackConfig) -> Result<Calibration, SegmentError> {
    let bursts = refined_bursts_into(samples, &config.segment, &mut SegmentScratch::new())?;
    let levels: Vec<f64> = bursts
        .iter()
        .map(|&(s, e)| median(&samples[s..e.max(s + 1).min(samples.len())]))
        .collect();
    Ok(Calibration {
        reference_noise_sigma: robust_noise_sigma(samples),
        reference_burst_level: median(&levels),
    })
}

/// The bounded retry schedule: rung 0 is the production configuration
/// (bit-identity), later rungs progressively widen the burst-merge gap
/// (heals split bursts), lower the detection threshold and minimum burst
/// length (recovers attenuated bursts), and vary the smoothing width. The
/// merge gap stays below the ~96-sample ladder region so two *real* bursts
/// are never fused.
pub fn relaxation_schedule(base: &SegmentConfig) -> Vec<SegmentConfig> {
    let mut schedule = vec![*base];
    schedule.push(SegmentConfig {
        merge_gap: base.merge_gap.max(40),
        threshold_fraction: base.threshold_fraction * 0.9,
        ..*base
    });
    schedule.push(SegmentConfig {
        merge_gap: base.merge_gap.max(56),
        threshold_fraction: base.threshold_fraction * 0.8,
        min_burst_len: base.min_burst_len.min(16),
        smooth_window: base.smooth_window.max(24),
    });
    schedule.push(SegmentConfig {
        merge_gap: base.merge_gap.max(72),
        threshold_fraction: base.threshold_fraction * 1.1,
        min_burst_len: base.min_burst_len.min(12),
        smooth_window: (base.smooth_window / 2).max(1),
    });
    schedule
}

/// Why a window was marked untrustworthy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Suspicion {
    /// A sample in the window failed the glitch/clip z-screen.
    pub glitch: bool,
    /// The burst feeding this window deviates from the calibrated gain.
    pub gain: bool,
    /// The raw sign-template fit score is a low outlier (misalignment).
    pub poor_fit: bool,
    /// The burst length is a robust outlier.
    pub length: bool,
    /// The window came out of burst healing (merge/split repair) or
    /// padding — its very extent is guesswork.
    pub healed: bool,
}

impl Suspicion {
    /// Any soft screen fired (window content is questionable).
    pub fn soft(&self) -> bool {
        self.glitch || self.gain || self.poor_fit || self.length
    }

    /// The window cannot be trusted at all.
    pub fn hard(&self) -> bool {
        self.healed
    }

    /// Nothing fired.
    pub fn clean(&self) -> bool {
        !self.soft() && !self.hard()
    }
}

/// Which classification rail produced a coefficient's decision.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Rail {
    /// The pooled-Gaussian template rail (the default, and the only rail
    /// on clean captures).
    #[default]
    Lda,
    /// The learned logistic-regression rail won the per-burst arbitration.
    Learned,
}

/// One coefficient's robust outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustCoefficient {
    /// The winning rail's estimate (`None` when no usable window existed).
    pub estimate: Option<CoefficientEstimate>,
    /// Derated confidence in `[0, 1]`: the posterior top probability times
    /// the noise derating, zeroed for hard-suspect windows. Monotonically
    /// non-increasing in the injected noise level by construction on the
    /// template rail; the learned rail reports its calibrated confidence
    /// instead.
    pub confidence: f64,
    /// Which sanity screens fired.
    pub suspicion: Suspicion,
    /// The hint-ladder decision.
    pub decision: HintDecision,
    /// Which rail the decision came from.
    pub rail: Rail,
}

/// Pipeline observability: what the driver had to do to get a result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diagnostics {
    /// Index of the relaxation rung that produced the segmentation.
    pub relaxation_rung: usize,
    /// Bursts fused by healing (over-count repair).
    pub healed_merges: usize,
    /// Bursts split by healing (under-count repair).
    pub healed_splits: usize,
    /// Coefficients with no window at all (padded as unrecoverable).
    pub missing_windows: usize,
    /// The trace's robust noise estimate.
    pub noise_sigma: f64,
    /// The variance inflation applied to every posterior (1.0 = clean).
    pub variance_inflation: f64,
    /// Noise-derived lower bound on every posterior variance before hint
    /// classification (0.0 = clean; → prior variance as noise grows).
    pub noise_variance_floor: f64,
    /// Windows with at least one soft suspicion.
    pub suspect_windows: usize,
    /// Two-rail arbitration observability.
    pub rail: RailDiagnostics,
}

/// How the per-burst classifier arbitration went (all zeros/false for a
/// template-only attacker or a clean capture).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RailDiagnostics {
    /// The attacker carried a trained learned rail, so arbitration was on
    /// (a failed/NaN training run leaves this false — the recorded
    /// LDA-only fallback).
    pub attached: bool,
    /// Windows where degradation armed the arbiter and both rails scored.
    pub armed_windows: usize,
    /// Armed windows the learned rail won on calibrated margin.
    pub learned_wins: usize,
    /// Armed windows the template rail kept.
    pub lda_wins: usize,
    /// Learned-rail scoring failures (window fell back to the template
    /// rail).
    pub learned_errors: usize,
}

/// The robust single-trace result.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustAttackResult {
    /// One outcome per expected coefficient, in trace order.
    pub coefficients: Vec<RobustCoefficient>,
    /// What the driver did.
    pub diagnostics: Diagnostics,
}

impl RobustAttackResult {
    /// `(value, confidence)` pairs for
    /// [`recover_adaptive`](crate::recover::recover_adaptive): unrecoverable
    /// coefficients get value 0 at confidence 0, so the adaptive solver
    /// shrinks past them.
    pub fn estimates(&self) -> Vec<(i64, f64)> {
        self.coefficients
            .iter()
            .map(|c| match &c.estimate {
                Some(e) => (e.predicted, c.confidence),
                None => (0, 0.0),
            })
            .collect()
    }

    /// The decisions counted by rung.
    pub fn decision_counts(&self) -> HintSummary {
        HintSummary::of(self.coefficients.iter().map(|c| &c.decision))
    }
}

/// A window produced by robust segmentation.
struct SegmentedWindow {
    /// Where the ladder window starts in the trace (`None` when no full
    /// window fits after the burst).
    start: Option<usize>,
    burst: (usize, usize),
    healed: bool,
}

/// The per-window screening stage of [`RobustAttack::attack_trace`].
type ScreenStage<'a> =
    fn(&RobustAttack<'a>, &[f64], &[SegmentedWindow], &[Option<f64>]) -> Vec<Suspicion>;

/// The robust pipeline driver: wraps a [`TrainedAttack`] with retrying
/// segmentation, sanity screens and the hint-degradation ladder.
#[derive(Debug, Clone)]
pub struct RobustAttack<'a> {
    attack: &'a TrainedAttack,
    config: RobustConfig,
    calibration: Option<Calibration>,
}

impl<'a> RobustAttack<'a> {
    /// Wraps a trained attacker with default robustness knobs and no
    /// calibration (gain screen and noise inflation disabled).
    pub fn new(attack: &'a TrainedAttack) -> Self {
        Self {
            attack,
            config: RobustConfig::default(),
            calibration: None,
        }
    }

    /// Sets the clean-capture calibration, enabling the gain screen and
    /// the noise-driven variance inflation.
    pub fn with_calibration(mut self, calibration: Calibration) -> Self {
        self.calibration = Some(calibration);
        self
    }

    /// Overrides the robustness knobs.
    pub fn with_config(mut self, config: RobustConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs the robust pipeline on one trace, expecting `n` coefficients.
    /// Always returns a structurally valid result (one entry per expected
    /// coefficient) unless the trace is degenerate beyond segmentation at
    /// every relaxation rung.
    ///
    /// # Errors
    ///
    /// Fails only when every relaxation rung fails to segment (e.g. empty
    /// or non-finite trace) or template classification fails internally.
    pub fn attack_trace(
        &self,
        samples: &[f64],
        n: usize,
        policy: &HintPolicy,
    ) -> Result<RobustAttackResult, AttackError> {
        self.attack_trace_with(samples, n, policy, robust_noise_sigma, Self::screen)
    }

    /// [`attack_trace`](Self::attack_trace) with the noise estimate and the
    /// screening stage passed in, so tests can run the same driver over
    /// reference stages.
    fn attack_trace_with(
        &self,
        samples: &[f64],
        n: usize,
        policy: &HintPolicy,
        noise_sigma: fn(&[f64]) -> f64,
        screen: ScreenStage<'a>,
    ) -> Result<RobustAttackResult, AttackError> {
        let mut diagnostics = Diagnostics {
            variance_inflation: 1.0,
            noise_sigma: noise_sigma(samples),
            ..Diagnostics::default()
        };
        let segmented = self.segment_with_retry(samples, n, &mut diagnostics)?;

        // Noise-driven variance inflation: exactly 1.0 while the trace is
        // no noisier than the calibrated clean reference (the knee keeps
        // run-to-run jitter from perturbing the clean path), quadratic in
        // the excess beyond it.
        //
        // The confidence derate is deliberately much steeper
        // (exp(-4·excess³)): a template's top probability is bounded below
        // by 1/classes ≈ 0.034, so as long as the derate loses more than
        // that factor per noise doubling, per-coefficient confidence is
        // monotonically non-increasing in injected noise *whatever* the
        // posterior does — noise can flip an ambiguous posterior into a
        // confidently wrong one, and the derate must dominate that. Below
        // the knee region the cubic keeps the derate ≈ 1, so clean and
        // mildly degraded captures keep usable confidences.
        //
        // The noise variance *floor* guards the hint ladder the same way:
        // a template posterior on an over-noisy capture can be confidently
        // wrong — tiny variance, wrong mode — so its variance understates
        // the real uncertainty and would integrate as a strong false hint.
        // The floor is exactly 0.0 up to the knee (bit-identity) and rises
        // toward the prior beyond it, so hints weaken smoothly toward
        // "no information" as the capture degrades.
        let (derate, noise_floor) = if let Some(cal) = self.calibration {
            let reference = cal.reference_noise_sigma.max(1e-12);
            let ratio = diagnostics.noise_sigma / reference;
            if ratio > self.config.inflation_knee {
                diagnostics.variance_inflation = ratio * ratio;
            }
            let excess = (ratio - self.config.inflation_knee).max(0.0);
            (
                (-4.0 * ((ratio - 1.0).max(0.0)).powi(3)).exp(),
                policy.prior_variance * (1.0 - (-4.0 * excess.powi(3)).exp()),
            )
        } else {
            (1.0, 0.0)
        };
        diagnostics.noise_variance_floor = noise_floor;

        // One classification per window, fanned out like the plain
        // pipeline: the template-rail estimate and the raw sign fit score
        // the fit screen reads come from the same sign-template pass.
        let ladder = self.attack.config().ladder_window;
        let window = |sw: &SegmentedWindow| sw.start.map(|s| &samples[s..s + ladder]);
        let (estimates, fit_scores): (Vec<Option<CoefficientEstimate>>, Vec<Option<f64>>) =
            reveal_par::par_map_index_modeled(
                segmented.len(),
                &ATTACK_WINDOW_COST,
                ladder as u64,
                |i| {
                    window(&segmented[i]).map_or((None, None), |w| {
                        let (estimate, fit) = self.attack.attack_window_scored(w);
                        (estimate.ok(), fit)
                    })
                },
            )
            .into_iter()
            .unzip();

        let suspicions = screen(self, samples, &segmented, &fit_scores);
        diagnostics.suspect_windows = suspicions.iter().filter(|s| s.soft()).count();

        // Per-burst rail arbitration arms only on degraded evidence: a
        // trace-level degradation signal (the same ones that arm variance
        // inflation and healing) or a window's own soft suspicion. On a
        // clean capture nothing below fires, the learned rail is never
        // consulted, and the template path runs verbatim — that is how
        // arbitration coexists with the zero-fault bit-identity contract.
        let learned_rail = self.attack.learned_rail();
        diagnostics.rail.attached = learned_rail.is_some();
        let trace_degraded = diagnostics.variance_inflation > 1.0
            || diagnostics.noise_variance_floor > 0.0
            || diagnostics.relaxation_rung > 0
            || diagnostics.healed_merges + diagnostics.healed_splits > 0
            || diagnostics.missing_windows > 0;

        // The learned rail scores the armed windows only, in a second
        // fan-out after the screens decided which windows those are.
        let mut learned: Vec<Option<CoefficientEstimate>> = vec![None; segmented.len()];
        if let Some(rail) = learned_rail {
            let armed: Vec<(usize, &[f64])> = segmented
                .iter()
                .zip(&suspicions)
                .enumerate()
                .filter(|(_, (_, s))| !s.hard() && (trace_degraded || s.soft()))
                .filter_map(|(i, (sw, _))| Some((i, window(sw)?)))
                .collect();
            diagnostics.rail.armed_windows = armed.len();
            let scored = reveal_par::par_map_index_modeled(
                armed.len(),
                &ATTACK_WINDOW_COST,
                ladder as u64,
                |a| rail.attack_window(armed[a].1),
            );
            for (&(i, _), result) in armed.iter().zip(scored) {
                match result {
                    Ok(estimate) => learned[i] = Some(estimate),
                    Err(_) => diagnostics.rail.learned_errors += 1,
                }
            }
        }

        let effective = policy.with_variance_inflation(diagnostics.variance_inflation);
        let mut coefficients = Vec::with_capacity(n);
        for ((lda, learned), suspicion) in estimates.into_iter().zip(learned).zip(suspicions) {
            let learned_scored = learned.is_some();
            let coefficient = self.gate(
                lda,
                learned,
                suspicion,
                &effective,
                policy,
                derate,
                noise_floor,
            );
            if learned_scored {
                match coefficient.rail {
                    Rail::Learned => diagnostics.rail.learned_wins += 1,
                    Rail::Lda => diagnostics.rail.lda_wins += 1,
                }
            }
            coefficients.push(coefficient);
        }
        Ok(RobustAttackResult {
            coefficients,
            diagnostics,
        })
    }

    /// Stage 1: segmentation with bounded retry and healing.
    fn segment_with_retry(
        &self,
        samples: &[f64],
        n: usize,
        diagnostics: &mut Diagnostics,
    ) -> Result<Vec<SegmentedWindow>, AttackError> {
        let config = self.attack.config();
        let schedule = relaxation_schedule(&config.segment);
        let mut scratch = SegmentScratch::new();
        let mut best: Option<(usize, Vec<(usize, usize)>)> = None;
        let mut last_error = None;
        for (rung, cfg) in schedule.iter().enumerate() {
            let bursts = match refined_bursts_into(samples, cfg, &mut scratch) {
                Ok(b) => b,
                Err(e) => {
                    last_error = Some(e);
                    continue;
                }
            };
            // Mirror `extract_ladder_windows`: only bursts whose ladder
            // window fits count as coefficients (drops the epilogue burst).
            let usable: Vec<(usize, usize)> = bursts
                .into_iter()
                .filter(|&burst| full_window_start(samples.len(), burst, config).is_some())
                .collect();
            if usable.len() == n {
                diagnostics.relaxation_rung = rung;
                return Ok(usable
                    .into_iter()
                    .map(|burst| SegmentedWindow {
                        start: Some(burst.1),
                        burst,
                        healed: false,
                    })
                    .collect());
            }
            let better = match &best {
                Some((count, _)) => {
                    usable.len().abs_diff(n) < count.abs_diff(n)
                        || (usable.len().abs_diff(n) == count.abs_diff(n) && usable.len() > *count)
                }
                None => true,
            };
            if better {
                diagnostics.relaxation_rung = rung;
                best = Some((usable.len(), usable));
            }
        }
        let Some((_, bursts)) = best else {
            return Err(AttackError::Segment(
                last_error.unwrap_or(SegmentError::NoPeaksFound),
            ));
        };
        self.heal(samples, bursts, n, diagnostics)
    }

    /// Repairs a burst-count mismatch left over after every relaxation
    /// rung: merge the closest adjacent pair while over-count, split the
    /// longest burst while under-count, pad with unrecoverable windows if
    /// splitting runs out of oversized bursts.
    fn heal(
        &self,
        samples: &[f64],
        bursts: Vec<(usize, usize)>,
        n: usize,
        diagnostics: &mut Diagnostics,
    ) -> Result<Vec<SegmentedWindow>, AttackError> {
        let mut healed: Vec<((usize, usize), bool)> =
            bursts.into_iter().map(|b| (b, false)).collect();

        while healed.len() > n && healed.len() >= 2 {
            // Merge the adjacent pair with the smallest gap: split bursts
            // sit a notch apart, real bursts a full ladder apart.
            let mut best_pair = 0;
            let mut best_gap = usize::MAX;
            for i in 0..healed.len() - 1 {
                let gap = healed[i + 1].0 .0.saturating_sub(healed[i].0 .1);
                if gap < best_gap {
                    best_gap = gap;
                    best_pair = i;
                }
            }
            let (second, _) = healed.remove(best_pair + 1);
            healed[best_pair] = ((healed[best_pair].0 .0, second.1), true);
            diagnostics.healed_merges += 1;
        }

        while healed.len() < n {
            let lengths: Vec<f64> = healed.iter().map(|((s, e), _)| (e - s) as f64).collect();
            let median_len = median(&lengths);
            let Some((idx, _)) = healed
                .iter()
                .enumerate()
                .filter(|(_, ((s, e), _))| (e - s) as f64 >= 1.5 * median_len)
                .max_by_key(|(_, ((s, e), _))| e - s)
            else {
                break; // Nothing left to split; pad below.
            };
            let ((s, e), _) = healed[idx];
            let cut = s + median_len as usize;
            if cut <= s || cut >= e {
                break;
            }
            healed[idx] = ((s, cut), true);
            healed.insert(idx + 1, ((cut, e), true));
            diagnostics.healed_splits += 1;
        }

        // Every burst here fits its ladder window (the retry filter kept only
        // fitting ends; a merge keeps the later end, a split cuts before it),
        // so only the padding below leaves a window without a start.
        let mut windows: Vec<SegmentedWindow> = healed
            .into_iter()
            .map(|(burst, was_healed)| SegmentedWindow {
                start: Some(burst.1),
                burst,
                healed: was_healed,
            })
            .collect();
        // Pad to exactly n: when bursts are irrecoverably missing the
        // alignment of *every* coefficient is in doubt, so mark them all.
        if windows.len() < n {
            diagnostics.missing_windows = n - windows.len();
            let end = samples.len();
            while windows.len() < n {
                windows.push(SegmentedWindow {
                    start: None,
                    burst: (end, end),
                    healed: true,
                });
            }
            for w in &mut windows {
                w.healed = true;
            }
        }
        windows.truncate(n);
        Ok(windows)
    }

    /// Stage 2: per-window sanity screens. `fit_scores` are the windows'
    /// raw sign fit scores from the classification pass.
    fn screen(
        &self,
        samples: &[f64],
        segmented: &[SegmentedWindow],
        fit_scores: &[Option<f64>],
    ) -> Vec<Suspicion> {
        let cfg = &self.config;
        let ladder = self.attack.config().ladder_window;
        let mut suspicions: Vec<Suspicion> = segmented
            .iter()
            .map(|sw| Suspicion {
                healed: sw.healed,
                ..Suspicion::default()
            })
            .collect();

        let (lo, hi) = finite_min_max(samples);
        let range = (hi - lo).max(1e-12);

        // The glitch, gain and fit screens select in place on this one
        // buffer, refilled per window and per burst, where a bound cannot
        // decide the screen.
        let mut buf: Vec<f64> = Vec::new();

        // Glitch screen: any sample in a window that is a massive robust
        // outlier against the window's own population.
        let floor = cfg.glitch_floor_fraction * range;
        for (sw, suspicion) in segmented.iter().zip(&mut suspicions) {
            let Some(start) = sw.start else { continue };
            let window = &samples[start..start + ladder];
            if span_clears_glitch(window, cfg.glitch_z, floor) {
                continue;
            }
            buf.clear();
            buf.extend_from_slice(window);
            let (_, mad) = mad_in_place(&mut buf);
            let scale = (mad * MAD_TO_SIGMA).max(floor);
            // `buf` now holds each sample's |x − median|.
            suspicion.glitch = buf.iter().any(|&d| d > cfg.glitch_z * scale);
        }

        // Gain screen: the dist burst preceding each window is
        // value-independent, so its median level is a local gain probe.
        if let Some(cal) = self.calibration {
            let reference = cal.reference_burst_level;
            if reference.abs() > 1e-12 {
                let tolerance = cfg.gain_tolerance;
                let bounds = gain_bounds(reference, tolerance);
                for (sw, suspicion) in segmented.iter().zip(&mut suspicions) {
                    let (s, e) = sw.burst;
                    if sw.start.is_none() || e <= s || e > samples.len() {
                        continue;
                    }
                    suspicion.gain =
                        gain_flagged(&samples[s..e], reference, tolerance, bounds, &mut buf);
                }
            }
        }

        // Burst-length screen: merged/split leftovers are gross outliers;
        // the sampler's genuine time variance stays within the MAD band.
        let lengths: Vec<f64> = segmented
            .iter()
            .map(|sw| (sw.burst.1.saturating_sub(sw.burst.0)) as f64)
            .collect();
        for (flag, suspicion) in mad_outlier_flags(&lengths, cfg.length_z, 4.0)
            .into_iter()
            .zip(&mut suspicions)
        {
            suspicion.length |= flag;
        }

        // Fit screen: raw sign-template log-likelihoods. Scores of healthy
        // windows concentrate; a misaligned/clipped window collapses
        // against every class at once, which the softmax hides but the raw
        // score exposes.
        buf.clear();
        buf.extend(fit_scores.iter().flatten());
        if buf.len() >= 4 {
            let (med, mad) = mad_in_place(&mut buf);
            let spread = mad * MAD_TO_SIGMA;
            let threshold = med - cfg.score_z * spread.max(1.0);
            for (score, suspicion) in fit_scores.iter().zip(&mut suspicions) {
                if let Some(s) = score {
                    suspicion.poor_fit = *s < threshold;
                }
            }
        }
        suspicions
    }

    /// Stage 3: the degradation ladder for one coefficient, with per-burst
    /// rail arbitration. The template leg runs exactly as it always has
    /// (inflated variance, noise floor, suspicion demotion); when the
    /// learned rail also scored the window, its *calibrated* posterior is
    /// classified against the caller's uninflated policy — the calibration
    /// already priced the noise in, that is what the augmented training and
    /// temperature scaling are for — but capped at an approximate hint
    /// (arbitration only arms on degraded evidence, and a degraded window
    /// must never claim a perfect hint). The rail with the better
    /// calibrated margin (top-probability confidence, after the same
    /// suspicion halving) wins the burst.
    #[allow(clippy::too_many_arguments)]
    fn gate(
        &self,
        estimate: Option<CoefficientEstimate>,
        learned: Option<CoefficientEstimate>,
        suspicion: Suspicion,
        policy: &HintPolicy,
        base_policy: &HintPolicy,
        derate: f64,
        noise_floor: f64,
    ) -> RobustCoefficient {
        let Some(estimate) = estimate else {
            return RobustCoefficient {
                estimate: None,
                confidence: 0.0,
                suspicion,
                decision: HintDecision::Skipped,
                rail: Rail::Lda,
            };
        };
        if suspicion.hard() {
            return RobustCoefficient {
                estimate: Some(estimate),
                confidence: 0.0,
                suspicion,
                decision: HintDecision::Skipped,
                rail: Rail::Lda,
            };
        }
        let posterior = Posterior::new(estimate.probabilities.clone()).ok();
        let variance = match &posterior {
            Some(p) => p.variance(),
            None => f64::INFINITY,
        };
        // Degenerate single-class posteriors (the sign-zero shortcut) have
        // variance exactly 0, which multiplicative inflation cannot touch
        // (0 × k = 0) — yet on a noisy capture a zero-sign call is as
        // fallible as any other. The additive term pushes such posteriors
        // past the perfect threshold whenever inflation is active, and is
        // exactly 0.0 on clean captures (inflation 1.0), preserving
        // bit-identity.
        let variance = variance
            + (policy.variance_inflation - 1.0).max(0.0) * policy.perfect_variance_threshold;
        // Noise floor (0.0 on clean captures): a sharp posterior measured
        // through heavy noise is not actually sharp evidence.
        let variance = variance.max(noise_floor);
        let mut decision = policy.decide(estimate.predicted, variance);
        let floor = self.config.demoted_variance_floor;
        let mut confidence = estimate.confidence() * derate;
        if suspicion.soft() {
            confidence *= 0.5;
            // A suspect window never yields a perfect hint: demote to an
            // approximate hint whose variance is floored at the demotion
            // level (still conservative, still informative).
            if let HintDecision::Perfect { value } = decision {
                decision = at_most_approximate(policy, value, variance.max(floor));
            }
        }

        // The learned leg: calibrated posterior variance, floored at the
        // demotion level and never promoted past an approximate hint.
        if let Some(learned_estimate) = learned {
            let learned_variance = Posterior::new(learned_estimate.probabilities.clone())
                .ok()
                .map_or(f64::INFINITY, |p| p.variance());
            let learned_decision = at_most_approximate(
                base_policy,
                learned_estimate.predicted,
                learned_variance.max(floor),
            );
            let mut learned_confidence = learned_estimate.confidence();
            if suspicion.soft() {
                learned_confidence *= 0.5;
            }
            // Switching rails must never weaken the hint: the learned
            // decision has to dominate the template one — a higher ladder
            // rung, or the same approximate rung at no worse ε². In the
            // transition band where LDA is degraded-but-usable this keeps
            // its sharper hints; once inflation has pushed LDA to skipped,
            // any learned approximate dominates. Per-window dominance makes
            // the arbitrated hint set at least as strong as LDA-only's, so
            // the resulting bikz can only improve.
            let dominates = matches!(
                learned_decision.cmp_strength(&decision),
                Some(Ordering::Greater | Ordering::Equal)
            );
            if learned_confidence > confidence && dominates {
                return RobustCoefficient {
                    estimate: Some(learned_estimate),
                    confidence: learned_confidence,
                    suspicion,
                    decision: learned_decision,
                    rail: Rail::Learned,
                };
            }
        }

        RobustCoefficient {
            estimate: Some(estimate),
            confidence,
            suspicion,
            decision,
            rail: Rail::Lda,
        }
    }
}

/// `policy`'s rung for `variance`, capped at an approximate hint: a perfect
/// rung becomes an approximate hint at `variance` itself, with
/// ε² = vσ² / max(σ² − v, 10⁻⁹). The rung is decided on `policy`'s
/// inflated variance, the ε² on the uninflated one.
fn at_most_approximate(policy: &HintPolicy, value: i64, variance: f64) -> HintDecision {
    match policy.decide(value, variance) {
        HintDecision::Skipped => HintDecision::Skipped,
        HintDecision::Perfect { .. } | HintDecision::Approximate { .. } => {
            let prior = policy.prior_variance;
            HintDecision::Approximate {
                value,
                eps_squared: variance * prior / (prior - variance).max(1e-9),
            }
        }
    }
}

/// Whether a window's span alone proves the glitch screen cannot flag it:
/// `glitch_z ≥ 0` and `max − min ≤ glitch_z · floor`. Exact: the screen's
/// threshold `glitch_z · max(MAD · 1.4826, floor)` is at least
/// `glitch_z · floor`, and no `|x − median|` exceeds `max − min`, because
/// the median lies in `[min, max]` and rounded subtraction is monotone.
/// (An even-length median whose half-sum overflows is `±∞`; then every
/// deviation and the MAD are `∞`, and nothing flags either.)
fn span_clears_glitch(window: &[f64], glitch_z: f64, floor: f64) -> bool {
    glitch_z >= 0.0 && {
        let (lo, hi) = finite_min_max(window);
        hi - lo <= glitch_z * floor
    }
}

/// Largest magnitude at which the half-sum of two values cannot overflow:
/// the median of values inside `[lo, hi] ⊆ [−HALF_MAX, HALF_MAX]` stays
/// inside `[lo, hi]`.
const HALF_MAX: f64 = f64::MAX / 2.0;

/// The exact level interval `[lo, hi]` the gain screen passes: for every
/// finite `level`, `lo <= level && level <= hi` is exactly
/// `!((level / reference - 1.0).abs() > tolerance)`. For a finite positive
/// `reference` that rounded deviation is monotone in `level`, so each bound
/// is one [`last_not_exceeding`] walk from its rounded estimate. `None`
/// (every burst selects its median) unless `reference` and `tolerance` are
/// finite and positive, both walks settle, and both bounds lie within
/// `±HALF_MAX`.
fn gain_bounds(reference: f64, tolerance: f64) -> Option<(f64, f64)> {
    let finite_positive = |v: f64| v.is_finite() && v > 0.0;
    if !finite_positive(reference) || !finite_positive(tolerance) {
        return None;
    }
    let deviation = |level: f64| level / reference - 1.0;
    let hi = last_not_exceeding(reference * (1.0 + tolerance), |l| deviation(l) > tolerance)?;
    let lo = -last_not_exceeding(-(reference * (1.0 - tolerance)), |l| {
        deviation(-l) < -tolerance
    })?;
    (-HALF_MAX <= lo && hi <= HALF_MAX).then_some((lo, hi))
}

/// The gain screen's verdict on one burst:
/// `(median / reference - 1.0).abs() > tolerance`. With [`gain_bounds`], one
/// counting pass places the burst's central order statistics against
/// `[lo, hi]`; when they lie on one side, the median (one of them, or for
/// an even length their half-sum) lies there too. Only a central pair that
/// straddles a bound selects the median. The burst is finite: the screens
/// run only on traces that segmentation accepted.
fn gain_flagged(
    burst: &[f64],
    reference: f64,
    tolerance: f64,
    bounds: Option<(f64, f64)>,
    buf: &mut Vec<f64>,
) -> bool {
    if let Some((lo, hi)) = bounds {
        let (mut below, mut above) = (0, 0);
        for &x in burst {
            below += usize::from(x < lo);
            above += usize::from(x > hi);
        }
        // The side of `[lo, hi]` the order statistic of a rank lies on:
        // 0 below, 1 inside, 2 above.
        let side =
            |rank: usize| usize::from(rank >= below) + usize::from(rank + above >= burst.len());
        let mid = burst.len() / 2;
        let first = if burst.len() % 2 == 1 { mid } else { mid - 1 };
        if side(first) == side(mid) {
            return side(mid) != 1;
        }
    }
    buf.clear();
    buf.extend_from_slice(burst);
    let level = median_in_place(buf);
    (level / reference - 1.0).abs() > tolerance
}

/// Builds the security report from robust decisions, mirroring
/// [`report_full_attack`](crate::report::report_full_attack): the decisions
/// are folded in coefficient order.
///
/// # Errors
///
/// Fails when coefficients outnumber the instance's error coordinates or
/// hint integration fails.
pub fn report_robust(
    result: &RobustAttackResult,
    params: &LweParameters,
) -> Result<AttackReport, ReportError> {
    report_decisions(result.coefficients.iter().map(|c| c.decision), params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use proptest::prelude::{prop_assert_eq, ProptestConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use reveal_chaos::{ChaosPlan, Fault};
    use reveal_rv32::power::PowerModelConfig;
    use reveal_trace::segment::{find_bursts, refine_burst_ends};

    const Q: u64 = 3329;

    fn trained(n: usize, seed: u64) -> (Device, TrainedAttack) {
        let device =
            Device::new(n, &[Q], PowerModelConfig::default().with_noise_sigma(0.05)).unwrap();
        let attack =
            TrainedAttack::profile_seeded(&device, 30, &AttackConfig::default(), seed).unwrap();
        (device, attack)
    }

    #[test]
    fn schedule_starts_at_base_and_relaxes() {
        let base = SegmentConfig::default();
        let schedule = relaxation_schedule(&base);
        assert_eq!(schedule[0], base);
        assert!(schedule.len() >= 3);
        assert!(schedule
            .iter()
            .skip(1)
            .all(|c| c.merge_gap > base.merge_gap));
        assert!(schedule.iter().all(|c| c.merge_gap < 96));
    }

    /// The segmentation oracle: the materialized two-stage composition.
    fn oracle_bursts(
        samples: &[f64],
        cfg: &SegmentConfig,
    ) -> Result<Vec<(usize, usize)>, SegmentError> {
        find_bursts(samples, cfg).map(|bursts| refine_burst_ends(samples, &bursts, cfg))
    }

    #[test]
    fn fused_segmenter_matches_two_stage_on_every_rung() {
        // The retry loop segments through the fused three-pass segmenter;
        // every rung (rungs 2 and 3 change the smoothing width to 24 and 8)
        // must reproduce the oracle's two-stage composition, errors included.
        let synthetic = |bursts: &[(usize, usize)], len: usize, floor: f64| {
            let mut t = vec![floor; len];
            for &(s, e) in bursts {
                t[s..e].fill(4.0);
            }
            t
        };
        let mut traces: Vec<Vec<f64>> = (0..6usize)
            .map(|k| {
                synthetic(
                    &[(80 + k, 160 + k), (400, 480), (800, 870)],
                    1200,
                    1.0 + k as f64 * 0.01,
                )
            })
            .collect();
        // Bursts touching both trace ends, a chattering burst, a trace too
        // short for the diff-domain selection, and the error paths.
        traces.push(synthetic(&[(0, 90), (500, 580), (1110, 1200)], 1200, 1.0));
        traces.push(synthetic(&[(100, 140), (150, 200), (400, 460)], 600, 1.0));
        traces.push(synthetic(&[(30, 80)], 150, 1.0));
        traces.push(vec![1.0; 500]);
        traces.push(Vec::new());
        let mut glitched = synthetic(&[(100, 180)], 400, 1.0);
        glitched[33] = f64::NAN;
        traces.push(glitched);
        // One n = 64 device capture, clean and after the standard chaos
        // sweep at intensity 0.5.
        let device =
            Device::new(64, &[Q], PowerModelConfig::default().with_noise_sigma(0.05)).unwrap();
        let capture = device
            .capture_fresh(&mut StdRng::seed_from_u64(64))
            .unwrap();
        let samples = &capture.run.capture.samples;
        let chaotic = reveal_chaos::ChaosPlan::standard_sweep(5, 0.5)
            .inject(samples, &capture.run.coefficient_windows)
            .samples;
        traces.push(samples.clone());
        traces.push(chaotic);

        let mut scratch = SegmentScratch::new();
        let schedule = relaxation_schedule(&SegmentConfig::default());
        for (rung, cfg) in schedule.iter().enumerate() {
            for (t, samples) in traces.iter().enumerate() {
                assert_eq!(
                    refined_bursts_into(samples, cfg, &mut scratch),
                    oracle_bursts(samples, cfg),
                    "rung {rung}, trace {t}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        #[test]
        fn prop_fused_segmenter_matches_the_oracle_at_every_length(
            period in 80usize..200,
            burst in 20usize..70,
            offset in 0usize..200,
            floor in 0usize..3,
            noise in 0usize..3,
            seed in 0u64..1_000,
        ) {
            // Planted bursts over a floor of -0.0, 0.0 or 1.0, with no, weak
            // or strong noise, cut to every length from 1 to 600: this
            // crosses the fused path's short-trace switch (at 160, 320 and
            // 480 samples for smoothing widths 8, 16 and 24) on every rung,
            // and covers widths 0 and 1, which smooth nothing.
            let floor = [-0.0, 0.0, 1.0][floor];
            let noise = [0.0, 0.05, 0.3][noise];
            let trace: Vec<f64> = (0..600)
                .map(|i| {
                    let level = if (i + offset) % period < burst { 4.0 } else { floor };
                    let u = (reveal_par::derive_seed(seed, i as u64) % 1000) as f64 / 1000.0;
                    level + noise * (u - 0.5)
                })
                .collect();
            let base = SegmentConfig::default();
            let mut configs = relaxation_schedule(&base);
            configs.extend([0, 1].map(|w| SegmentConfig { smooth_window: w, ..base }));
            let mut scratch = SegmentScratch::new();
            for cfg in &configs {
                for len in 1..=trace.len() {
                    let samples = &trace[..len];
                    prop_assert_eq!(
                        refined_bursts_into(samples, cfg, &mut scratch),
                        oracle_bursts(samples, cfg),
                        "width {}, length {}",
                        cfg.smooth_window,
                        len
                    );
                }
            }
        }
    }

    #[test]
    fn glitch_screen_agrees_with_mad_outlier_flags() {
        // The screen decides a window from its span where it can, else
        // reads each sample's deviation from the buffer its MAD selection
        // leaves behind; its verdicts must equal the plain MAD outlier
        // flags at every threshold and floor, including the ones that let
        // it fire.
        let (device, attack) = trained(16, 0x6117C4);
        let capture = device
            .capture_fresh(&mut StdRng::seed_from_u64(12))
            .unwrap();
        let plan = reveal_chaos::ChaosPlan {
            seed: 3,
            faults: vec![reveal_chaos::Fault::GlitchSpikes {
                rate: 0.002,
                magnitude: 1.5,
            }],
        };
        let samples = plan
            .inject(
                &capture.run.capture.samples,
                &capture.run.coefficient_windows,
            )
            .samples;
        let starts = crate::profile::ladder_window_starts(&samples, attack.config()).unwrap();
        assert_eq!(starts.len(), 16);
        let ladder = attack.config().ladder_window;
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (mut fired, mut span_decided, mut selected) = (0, 0, 0);
        for glitch_z in [-1.0, 0.0, 2.0, 10.0, f64::INFINITY] {
            for fraction in [-0.1, 0.0, 0.01, 0.1] {
                let config = RobustConfig {
                    glitch_z,
                    glitch_floor_fraction: fraction,
                    ..RobustConfig::default()
                };
                let result = RobustAttack::new(&attack)
                    .with_config(config)
                    .attack_trace(&samples, 16, &HintPolicy::seal_paper())
                    .unwrap();
                assert_eq!(result.diagnostics.relaxation_rung, 0);
                let floor = fraction * (hi - lo);
                for (c, &start) in result.coefficients.iter().zip(&starts) {
                    let window = &samples[start..start + ladder];
                    let expected = mad_outlier_flags(window, glitch_z, floor).contains(&true);
                    assert_eq!(
                        c.suspicion.glitch, expected,
                        "z {glitch_z}, fraction {fraction}"
                    );
                    fired += usize::from(expected);
                    if span_clears_glitch(window, glitch_z, floor) {
                        span_decided += 1;
                    } else {
                        selected += 1;
                    }
                }
            }
        }
        assert!(fired > 0, "no window exercised the full screen");
        assert!(
            span_decided > 0 && selected > 0,
            "{span_decided} / {selected}"
        );
        // A flat window near f64::MAX: its median's half-sum overflows, and
        // the infinite MAD keeps it unflagged, as its span says.
        let huge = vec![0.75 * f64::MAX; ladder];
        assert!(span_clears_glitch(&huge, 10.0, 1.0));
        assert!(!mad_outlier_flags(&huge, 10.0, 1.0).contains(&true));
    }

    #[test]
    fn default_glitch_screen_never_fires_but_a_lower_floor_does() {
        // At the defaults the glitch threshold, glitch_z · 0.1 · range, is
        // the trace's whole dynamic range: no sample deviates from its
        // window median by more (up to one rounding ulp), so the default
        // screen cannot flag even a spiked window. A floor of 1% of the
        // range lets it fire. Lowering the default moves the committed
        // BENCH_chaos and BENCH_classifier artifacts.
        let (device, attack) = trained(16, 0x6117C4);
        let mut rng = StdRng::seed_from_u64(21);
        let policy = HintPolicy::seal_paper();
        let lowered = RobustConfig {
            glitch_floor_fraction: 0.01,
            ..RobustConfig::default()
        };
        let (mut at_default, mut at_lowered) = (0, 0);
        for seed in 0..3 {
            let capture = device.capture_fresh(&mut rng).unwrap();
            let spikes = reveal_chaos::ChaosPlan {
                seed,
                faults: vec![reveal_chaos::Fault::GlitchSpikes {
                    rate: 0.002,
                    magnitude: 1.5,
                }],
            };
            let sweeps = [0.25, 0.5, 1.0].map(|i| reveal_chaos::ChaosPlan::standard_sweep(seed, i));
            for plan in sweeps.into_iter().chain([spikes]) {
                let samples = plan
                    .inject(
                        &capture.run.capture.samples,
                        &capture.run.coefficient_windows,
                    )
                    .samples;
                let flags = |config: RobustConfig| {
                    RobustAttack::new(&attack)
                        .with_config(config)
                        .attack_trace(&samples, 16, &policy)
                        .map_or(0, |r| {
                            r.coefficients.iter().filter(|c| c.suspicion.glitch).count()
                        })
                };
                at_default += flags(RobustConfig::default());
                at_lowered += flags(lowered.clone());
            }
        }
        assert_eq!(at_default, 0);
        assert!(at_lowered > 0);
    }

    #[test]
    fn gain_counts_agree_with_the_median_decision() {
        // (reference, tolerance): ordinary gains, a tolerance below one ulp
        // of 1, subnormal and huge references, and tolerances at and past
        // 1.
        let valid = [
            (1.0, 0.015),
            (2.0, 0.015),
            (0.7, 1e-17),
            (3.0, 0.5),
            (1.5, 1.0),
            (0.25, 3.0),
            (1e-300, 0.015),
            (5e-324, 0.2),
            (1e300, 0.015),
            (1e-300, 1e300),
            (4.0, 1e300),
            (1e308, 0.015),
            (1e300, 1e300),
        ];
        let invalid = [
            (0.0, 0.015),
            (-0.0, 0.015),
            (-1.0, 0.015),
            (f64::NAN, 0.015),
            (f64::INFINITY, 0.015),
            (1.0, 0.0),
            (1.0, -0.0),
            (1.0, -1.0),
            (1.0, f64::INFINITY),
            (1.0, f64::NAN),
        ];
        let mut buf = Vec::new();
        for (case, &(reference, tolerance)) in valid.iter().chain(&invalid).enumerate() {
            let bounds = gain_bounds(reference, tolerance);
            let verdict = |level: f64| (level / reference - 1.0).abs() > tolerance;
            let mut palette = vec![reference, 0.5 * reference, 2.0 * reference, 1.0, -1.0, 0.0];
            if let Some((lo, hi)) = bounds {
                // The bounds are exact: the verdict flips one ulp outside.
                let edges = [
                    lo,
                    hi,
                    lo.next_down(),
                    lo.next_up(),
                    hi.next_down(),
                    hi.next_up(),
                ];
                for level in edges {
                    assert_eq!(verdict(level), !(lo <= level && level <= hi), "case {case}");
                }
                palette.extend(edges);
            }
            palette.retain(|v| v.is_finite());
            for len in 1..=300usize {
                let burst: Vec<f64> = (0..len)
                    .map(|i| {
                        let h = reveal_par::derive_seed(case as u64 * 1000 + len as u64, i as u64);
                        palette[h as usize % palette.len()]
                    })
                    .collect();
                let expected = verdict(median(&burst));
                let got = gain_flagged(&burst, reference, tolerance, bounds, &mut buf);
                assert_eq!(got, expected, "case {case}, len {len}");
            }
            if case >= valid.len() {
                assert_eq!(bounds, None, "case {case}");
            }
        }
        // The production knobs count. A walk that cannot settle (tolerance
        // 1 puts the lower bound's estimate at 0, far more ulps from the
        // boundary than the walk takes) and bounds past f64::MAX / 2 leave
        // every burst to its median.
        assert!(gain_bounds(1.0, 0.015).is_some() && gain_bounds(2.0, 0.015).is_some());
        for (reference, tolerance) in [(1.5, 1.0), (1e308, 0.015), (1e300, 1e300)] {
            assert_eq!(
                gain_bounds(reference, tolerance),
                None,
                "{reference} {tolerance}"
            );
        }
    }

    /// The stages before the exact fast paths, kept verbatim as the oracles
    /// of [`prop_attack_trace_matches_the_reference_stages`].
    mod reference {
        use super::*;

        /// The noise estimate over the materialized differences.
        pub fn noise_sigma(samples: &[f64]) -> f64 {
            if samples.len() < 2 {
                return 0.0;
            }
            let mut diffs: Vec<f64> = samples.windows(2).map(|w| w[1] - w[0]).collect();
            mad_in_place(&mut diffs).1 * MAD_TO_SIGMA / std::f64::consts::SQRT_2
        }

        /// The screens with a selection per window and per burst.
        pub fn screen(
            robust: &RobustAttack<'_>,
            samples: &[f64],
            segmented: &[SegmentedWindow],
            fit_scores: &[Option<f64>],
        ) -> Vec<Suspicion> {
            let cfg = &robust.config;
            let ladder = robust.attack.config().ladder_window;
            let mut suspicions: Vec<Suspicion> = segmented
                .iter()
                .map(|sw| Suspicion {
                    healed: sw.healed,
                    ..Suspicion::default()
                })
                .collect();

            let finite = samples.iter().copied().filter(|s| s.is_finite());
            let lo = finite.clone().fold(f64::INFINITY, f64::min);
            let hi = finite.fold(f64::NEG_INFINITY, f64::max);
            let range = (hi - lo).max(1e-12);

            let mut buf: Vec<f64> = Vec::new();

            let floor = cfg.glitch_floor_fraction * range;
            for (sw, suspicion) in segmented.iter().zip(&mut suspicions) {
                let Some(start) = sw.start else { continue };
                buf.clear();
                buf.extend_from_slice(&samples[start..start + ladder]);
                let (_, mad) = mad_in_place(&mut buf);
                let scale = (mad * MAD_TO_SIGMA).max(floor);
                suspicion.glitch = buf.iter().any(|&d| d > cfg.glitch_z * scale);
            }

            if let Some(cal) = robust.calibration {
                let reference = cal.reference_burst_level;
                if reference.abs() > 1e-12 {
                    for (sw, suspicion) in segmented.iter().zip(&mut suspicions) {
                        let (s, e) = sw.burst;
                        if sw.start.is_none() || e <= s || e > samples.len() {
                            continue;
                        }
                        buf.clear();
                        buf.extend_from_slice(&samples[s..e]);
                        let level = median_in_place(&mut buf);
                        suspicion.gain = (level / reference - 1.0).abs() > cfg.gain_tolerance;
                    }
                }
            }

            let lengths: Vec<f64> = segmented
                .iter()
                .map(|sw| (sw.burst.1.saturating_sub(sw.burst.0)) as f64)
                .collect();
            for (flag, suspicion) in mad_outlier_flags(&lengths, cfg.length_z, 4.0)
                .into_iter()
                .zip(&mut suspicions)
            {
                suspicion.length |= flag;
            }

            buf.clear();
            buf.extend(fit_scores.iter().flatten());
            if buf.len() >= 4 {
                let (med, mad) = mad_in_place(&mut buf);
                let spread = mad * MAD_TO_SIGMA;
                let threshold = med - cfg.score_z * spread.max(1.0);
                for (score, suspicion) in fit_scores.iter().zip(&mut suspicions) {
                    if let Some(s) = score {
                        suspicion.poor_fit = *s < threshold;
                    }
                }
            }
            suspicions
        }
    }

    /// An n = 16 attacker, three of its captures and a measured calibration,
    /// shared by every case of the differential property.
    fn differential_fixture() -> &'static DifferentialFixture {
        static FIXTURE: std::sync::OnceLock<DifferentialFixture> = std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| {
            let (device, attack) = trained(16, 0xD1FF);
            let mut rng = StdRng::seed_from_u64(0xD1FF);
            let mut captures: Vec<_> = (0..4)
                .map(|_| {
                    let run = device.capture_fresh(&mut rng).unwrap().run;
                    (run.capture.samples, run.coefficient_windows)
                })
                .collect();
            let (clean, _) = captures.pop().unwrap();
            let calibration = calibrate(&clean, attack.config()).unwrap();
            (attack, captures, calibration)
        })
    }

    type DifferentialFixture = (
        TrainedAttack,
        Vec<(Vec<f64>, Vec<(usize, usize)>)>,
        Calibration,
    );

    /// Knob and calibration values no sane caller sets.
    const HOSTILE: [f64; 9] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        -1.0,
        1e300,
        1e-300,
        1.0,
    ];

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_attack_trace_matches_the_reference_stages(
            capture in 0usize..3,
            degradation in 0usize..6,
            cut in 0usize..4,
            poison in 0usize..4,
            at in 0.0f64..1.0,
            scale in 0usize..5,
            knobs in proptest::collection::vec(0usize..16, 5),
            calibration in 0usize..4,
            level in 0usize..9,
            n in 0usize..8,
        ) {
            let (attack, captures, measured) = differential_fixture();
            let (clean, windows) = &captures[capture];
            // Degrade: a chaos sweep, spikes or noise on their own, then a
            // truncation, a poisoned sample and a scale.
            let spikes = Fault::GlitchSpikes { rate: 0.004, magnitude: 2.0 };
            let plan = match degradation {
                0 => ChaosPlan { seed: 0, faults: Vec::new() },
                1..=3 => ChaosPlan::standard_sweep(capture as u64, 0.25 * degradation as f64),
                4 => ChaosPlan { seed: 9, faults: vec![spikes] },
                _ => ChaosPlan::noise_only(9, 0.2),
            };
            let mut samples = plan.inject(clean, windows).samples;
            samples.truncate(samples.len() * (4 - cut) / 4);
            if poison > 0 && !samples.is_empty() {
                let i = ((samples.len() - 1) as f64 * at) as usize;
                samples[i] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][poison - 1];
            }
            let factor = [1.0, 1e-300, 1e300, -1.0, 3.0][scale];
            for x in &mut samples {
                *x *= factor;
            }
            // Each knob keeps its default or takes a hostile value.
            let knob = |i: usize, default: f64| {
                HOSTILE.get(knobs[i]).copied().unwrap_or(default)
            };
            let defaults = RobustConfig::default();
            let config = RobustConfig {
                glitch_z: knob(0, defaults.glitch_z),
                glitch_floor_fraction: knob(1, defaults.glitch_floor_fraction),
                score_z: knob(2, defaults.score_z),
                gain_tolerance: knob(3, defaults.gain_tolerance),
                length_z: knob(4, defaults.length_z),
                ..defaults
            };
            let mut robust = RobustAttack::new(attack).with_config(config);
            robust = match calibration {
                0 => robust,
                1 => robust.with_calibration(*measured),
                2 => robust.with_calibration(Calibration {
                    reference_burst_level: HOSTILE[level],
                    ..*measured
                }),
                _ => robust.with_calibration(Calibration {
                    reference_noise_sigma: HOSTILE[level],
                    reference_burst_level: measured.reference_burst_level * factor,
                }),
            };
            let n = [16, 16, 16, 0, 1, 8, 17, 23][n];
            let policy = HintPolicy::seal_paper();
            let fast = robust.attack_trace(&samples, n, &policy);
            let oracle = robust.attack_trace_with(
                &samples,
                n,
                &policy,
                reference::noise_sigma,
                reference::screen,
            );
            // Debug output spells every float, NaN included.
            prop_assert_eq!(format!("{fast:?}"), format!("{oracle:?}"));
        }
    }

    #[test]
    fn clean_trace_produces_clean_outcome() {
        let (device, attack) = trained(16, 0xA11CE);
        let mut rng = StdRng::seed_from_u64(3);
        let profiling_capture = device.capture_fresh(&mut rng).unwrap();
        let calibration =
            calibrate(&profiling_capture.run.capture.samples, attack.config()).unwrap();
        let capture = device.capture_fresh(&mut rng).unwrap();
        let robust = RobustAttack::new(&attack).with_calibration(calibration);
        let result = robust
            .attack_trace(&capture.run.capture.samples, 16, &HintPolicy::seal_paper())
            .unwrap();
        assert_eq!(result.coefficients.len(), 16);
        assert_eq!(result.diagnostics.relaxation_rung, 0);
        assert_eq!(result.diagnostics.healed_merges, 0);
        assert_eq!(result.diagnostics.healed_splits, 0);
        assert_eq!(result.diagnostics.variance_inflation, 1.0);
        assert!(result.coefficients.iter().all(|c| c.suspicion.clean()));
        // Plain pipeline agreement on the clean trace.
        let plain = attack.attack_trace(&capture.run.capture.samples).unwrap();
        for (r, p) in result.coefficients.iter().zip(&plain.coefficients) {
            assert_eq!(r.estimate.as_ref().unwrap(), p);
        }
    }

    #[test]
    fn garbage_trace_fails_typed_not_panic() {
        let (_, attack) = trained(16, 0xBEE);
        let robust = RobustAttack::new(&attack);
        let err = robust.attack_trace(&[], 16, &HintPolicy::seal_paper());
        assert!(matches!(err, Err(AttackError::Segment(_))));
        let flat = vec![1.0; 5000];
        let err = robust.attack_trace(&flat, 16, &HintPolicy::seal_paper());
        assert!(matches!(err, Err(AttackError::Segment(_))));
        // The noise estimate runs before segmentation rejects a non-finite
        // trace; it must not panic on the NaNs.
        let nan: Vec<f64> = (0..5000)
            .map(|i| {
                if i % 7 == 3 {
                    f64::NAN
                } else {
                    f64::from(i % 11)
                }
            })
            .collect();
        let err = robust.attack_trace(&nan, 16, &HintPolicy::seal_paper());
        assert_eq!(
            err,
            Err(AttackError::Segment(SegmentError::NonFiniteSample(3)))
        );
    }

    fn trained_two_rail(n: usize, seed: u64) -> (Device, TrainedAttack) {
        let device =
            Device::new(n, &[Q], PowerModelConfig::default().with_noise_sigma(0.05)).unwrap();
        let learned = crate::LearnedConfig::default();
        let (attack, err) = TrainedAttack::profile_seeded_two_rail(
            &device,
            30,
            &AttackConfig::default(),
            seed,
            &learned,
        )
        .unwrap();
        assert!(err.is_none(), "learned rail must train: {err:?}");
        (device, attack)
    }

    #[test]
    fn clean_capture_never_consults_the_learned_rail() {
        let (device, attack) = trained_two_rail(16, 0xA11CE);
        let mut rng = StdRng::seed_from_u64(3);
        let cal_capture = device.capture_fresh(&mut rng).unwrap();
        let calibration = calibrate(&cal_capture.run.capture.samples, attack.config()).unwrap();
        let capture = device.capture_fresh(&mut rng).unwrap();

        let lda_only = attack.clone().without_learned_rail();
        let reference = RobustAttack::new(&lda_only)
            .with_calibration(calibration)
            .attack_trace(&capture.run.capture.samples, 16, &HintPolicy::seal_paper())
            .unwrap();
        let arbitrated = RobustAttack::new(&attack)
            .with_calibration(calibration)
            .attack_trace(&capture.run.capture.samples, 16, &HintPolicy::seal_paper())
            .unwrap();

        // On a clean capture arbitration never arms, so the outcome is the
        // template rail's, bit for bit.
        assert!(arbitrated.diagnostics.rail.attached);
        if arbitrated.coefficients.iter().all(|c| c.suspicion.clean()) {
            assert_eq!(arbitrated.diagnostics.rail.armed_windows, 0);
        }
        for (a, r) in arbitrated.coefficients.iter().zip(&reference.coefficients) {
            if a.suspicion.clean() {
                assert_eq!(a.rail, Rail::Lda);
                assert_eq!(a.decision, r.decision);
                assert_eq!(a.confidence.to_bits(), r.confidence.to_bits());
            }
        }
    }

    #[test]
    fn arbitration_keeps_hints_on_noisy_captures() {
        let (device, attack) = trained_two_rail(16, 0x5EED);
        let mut rng = StdRng::seed_from_u64(9);
        let cal_capture = device.capture_fresh(&mut rng).unwrap();
        let calibration = calibrate(&cal_capture.run.capture.samples, attack.config()).unwrap();
        let capture = device.capture_fresh(&mut rng).unwrap();

        // Inject ~3x the calibrated noise (in quadrature), well past the
        // inflation knee: the template rail's floor skips everything.
        let sigma = calibration.reference_noise_sigma * 3.0;
        let mut noise_rng = StdRng::seed_from_u64(77);
        let noisy: Vec<f64> = capture
            .run
            .capture
            .samples
            .iter()
            .map(|s| {
                let u1: f64 = (1.0 - noise_rng.gen::<f64>()).max(1e-300);
                let u2: f64 = noise_rng.gen();
                s + sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            })
            .collect();

        let policy = HintPolicy::seal_paper();
        let lda_only = attack.clone().without_learned_rail();
        let reference = RobustAttack::new(&lda_only)
            .with_calibration(calibration)
            .attack_trace(&noisy, 16, &policy)
            .unwrap();
        let arbitrated = RobustAttack::new(&attack)
            .with_calibration(calibration)
            .attack_trace(&noisy, 16, &policy)
            .unwrap();

        assert!(arbitrated.diagnostics.variance_inflation > 1.0);
        assert!(arbitrated.diagnostics.rail.armed_windows > 0);
        assert!(arbitrated.diagnostics.rail.learned_wins > 0);
        // The learned rail never claims a perfect hint.
        assert!(arbitrated
            .coefficients
            .iter()
            .filter(|c| c.rail == Rail::Learned)
            .all(|c| !matches!(c.decision, HintDecision::Perfect { .. })));
        // Graceful degradation: strictly more usable hints than LDA-only.
        let lda = reference.decision_counts();
        let arb = arbitrated.decision_counts();
        assert!(
            arb.approximate > lda.approximate && arb.skipped < lda.skipped,
            "arbitrated {arb:?}, lda-only {lda:?}"
        );
    }

    #[test]
    fn disabled_arbitration_stays_on_the_template_rail() {
        // Arbitration is disabled by dropping the learned rail.
        let (device, attack) = trained_two_rail(16, 0xD15AB);
        let mut rng = StdRng::seed_from_u64(4);
        let capture = device.capture_fresh(&mut rng).unwrap();
        let lda_only = attack.without_learned_rail();
        let result = RobustAttack::new(&lda_only)
            .attack_trace(&capture.run.capture.samples, 16, &HintPolicy::seal_paper())
            .unwrap();
        assert!(!result.diagnostics.rail.attached);
        assert_eq!(result.diagnostics.rail.armed_windows, 0);
        assert!(result.coefficients.iter().all(|c| c.rail == Rail::Lda));
    }

    #[test]
    fn failed_training_degrades_to_lda_only_with_typed_error() {
        let device =
            Device::new(16, &[Q], PowerModelConfig::default().with_noise_sigma(0.05)).unwrap();
        let hot = crate::LearnedConfig {
            learning_rate: 1e12,
            ..crate::LearnedConfig::default()
        };
        let (attack, err) = TrainedAttack::profile_seeded_two_rail(
            &device,
            30,
            &AttackConfig::default(),
            0xBAD,
            &hot,
        )
        .unwrap();
        assert!(err.is_some(), "hot learning rate must fail training");
        assert!(attack.learned_rail().is_none());
        // The degraded attacker still attacks, LDA-only, and records it.
        let mut rng = StdRng::seed_from_u64(5);
        let capture = device.capture_fresh(&mut rng).unwrap();
        let result = RobustAttack::new(&attack)
            .attack_trace(&capture.run.capture.samples, 16, &HintPolicy::seal_paper())
            .unwrap();
        assert!(!result.diagnostics.rail.attached);
    }

    #[test]
    fn flat_padding_yields_valid_partial_result() {
        // Two bursts where sixteen are expected: the driver must heal what
        // it can and pad the rest as unrecoverable, not crash.
        let (_, attack) = trained(16, 0xF00D);
        let mut t = vec![1.0; 3000];
        for s in [100usize, 900] {
            for i in s..s + 200 {
                t[i] = 4.0;
            }
        }
        let result = RobustAttack::new(&attack)
            .attack_trace(&t, 16, &HintPolicy::seal_paper())
            .unwrap();
        assert_eq!(result.coefficients.len(), 16);
        assert!(result.diagnostics.missing_windows > 0);
        // Padded coefficients carry no confidence and are skipped.
        assert!(result
            .coefficients
            .iter()
            .all(|c| c.decision == HintDecision::Skipped));
        assert_eq!(result.estimates().len(), 16);
    }
}
