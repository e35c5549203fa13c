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
//! 2. **Screen** — each ladder window passes sample-level (glitch/clip
//!    spikes via MAD z-scores), gain-level (burst-median vs a calibrated
//!    clean reference) and fit-level (raw sign-template log-likelihood vs
//!    the per-trace population) sanity checks; failures mark the window
//!    *suspect* without aborting anything.
//! 3. **Gate** — per-coefficient posteriors are classified onto the
//!    perfect / approximate / skipped ladder by the *shared*
//!    [`HintPolicy::classify_variance`] decision, with the posterior
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
use crate::profile::{AttackError, CoefficientEstimate, TrainedAttack, ATTACK_WINDOW_COST};
use crate::report::{AttackReport, ReportError};
use reveal_hints::{DbddInstance, HintClass, HintPolicy, HintSummary, LweParameters, Posterior};
use reveal_trace::sanity::{
    mad_in_place, mad_outlier_flags, median, median_in_place, robust_noise_sigma, MAD_TO_SIGMA,
};
use reveal_trace::segment::{refined_bursts_into, SegmentConfig, SegmentError, SegmentScratch};

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
    /// Enables per-burst rail arbitration when the attacker carries a
    /// learned rail ([`TrainedAttack::learned_rail`]). Arbitration arms
    /// only on *degraded* evidence (noise inflation, relaxed segmentation,
    /// healing, or a soft-suspect window), so a clean capture never
    /// consults the learned rail and stays bit-identical to the plain
    /// pipeline whether this is on or off.
    pub arbitration: bool,
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
            arbitration: true,
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

/// The degradation-ladder decision for one coefficient.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HintDecision {
    /// Exact value, integrated via `integrate_perfect_hint`.
    Perfect { value: i64 },
    /// Approximate value, integrated via `integrate_approximate_hint`.
    Approximate { value: i64, eps_squared: f64 },
    /// Unrecoverable: nothing is integrated for this coordinate.
    Skipped,
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
    /// The attacker carried a trained learned rail.
    pub attached: bool,
    /// Arbitration was enabled *and* a rail was attached (a failed/NaN
    /// training run leaves this false — the recorded LDA-only fallback).
    pub arbitrated: bool,
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
    /// `(value, confidence)` pairs for [`recover_adaptive`]
    /// (crate::recover::recover_adaptive): unrecoverable coefficients get
    /// value 0 at confidence 0, so the adaptive solver shrinks past them.
    pub fn estimates(&self) -> Vec<(i64, f64)> {
        self.coefficients
            .iter()
            .map(|c| match &c.estimate {
                Some(e) => (e.predicted, c.confidence),
                None => (0, 0.0),
            })
            .collect()
    }

    /// Counts of (perfect, approximate, skipped) decisions.
    pub fn decision_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for c in &self.coefficients {
            match c.decision {
                HintDecision::Perfect { .. } => counts.0 += 1,
                HintDecision::Approximate { .. } => counts.1 += 1,
                HintDecision::Skipped => counts.2 += 1,
            }
        }
        counts
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
        let mut diagnostics = Diagnostics {
            variance_inflation: 1.0,
            noise_sigma: robust_noise_sigma(samples),
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
            reveal_par::par_map_modeled(&segmented, &ATTACK_WINDOW_COST, ladder as u64, |sw| {
                window(sw).map_or((None, None), |w| {
                    let (estimate, fit) = self.attack.attack_window_scored(w);
                    (estimate.ok(), fit)
                })
            })
            .into_iter()
            .unzip();

        let suspicions = self.screen(samples, &segmented, &fit_scores);
        diagnostics.suspect_windows = suspicions.iter().filter(|s| s.soft()).count();

        // Per-burst rail arbitration arms only on degraded evidence: a
        // trace-level degradation signal (the same ones that arm variance
        // inflation and healing) or a window's own soft suspicion. On a
        // clean capture nothing below fires, the learned rail is never
        // consulted, and the template path runs verbatim — that is how
        // arbitration coexists with the zero-fault bit-identity contract.
        diagnostics.rail.attached = self.attack.learned_rail().is_some();
        let learned_rail = if self.config.arbitration {
            self.attack.learned_rail()
        } else {
            None
        };
        diagnostics.rail.arbitrated = learned_rail.is_some();
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
            let scored = reveal_par::par_map_modeled(
                &armed,
                &ATTACK_WINDOW_COST,
                ladder as u64,
                |&(_, w)| rail.attack_window(w),
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
        let ladder = self.attack.config().ladder_window;
        let schedule = relaxation_schedule(&self.attack.config().segment);
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
                .filter(|&(_, end)| end + ladder <= samples.len())
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
        let ladder = self.attack.config().ladder_window;
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

        let mut windows: Vec<SegmentedWindow> = healed
            .into_iter()
            .map(|(burst, was_healed)| {
                let start = (burst.1 + ladder <= samples.len()).then_some(burst.1);
                let missing = start.is_none();
                SegmentedWindow {
                    start,
                    burst,
                    healed: was_healed || missing,
                }
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

        let finite = samples.iter().copied().filter(|s| s.is_finite());
        let lo = finite.clone().fold(f64::INFINITY, f64::min);
        let hi = finite.fold(f64::NEG_INFINITY, f64::max);
        let range = (hi - lo).max(1e-12);

        // The glitch, gain and fit screens select in place on this one
        // buffer, refilled per window and per burst.
        let mut buf: Vec<f64> = Vec::new();

        // Glitch screen: any sample in a window that is a massive robust
        // outlier against the window's own population.
        let floor = cfg.glitch_floor_fraction * range;
        for (sw, suspicion) in segmented.iter().zip(&mut suspicions) {
            let Some(start) = sw.start else { continue };
            buf.clear();
            buf.extend_from_slice(&samples[start..start + ladder]);
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
        let mut decision = match policy.classify_variance(variance) {
            HintClass::Perfect => HintDecision::Perfect {
                value: estimate.predicted,
            },
            HintClass::Approximate { eps_squared } => HintDecision::Approximate {
                value: estimate.predicted,
                eps_squared,
            },
            HintClass::Skipped => HintDecision::Skipped,
        };
        let mut confidence = estimate.confidence() * derate;
        if suspicion.soft() {
            confidence *= 0.5;
            // A suspect window never yields a perfect hint: demote to an
            // approximate hint whose variance is floored at the demotion
            // level (still conservative, still informative).
            if let HintDecision::Perfect { value } = decision {
                let floored = variance.max(self.config.demoted_variance_floor);
                decision = match policy.classify_variance(floored) {
                    HintClass::Perfect | HintClass::Approximate { .. } => {
                        let prior = policy.prior_variance;
                        HintDecision::Approximate {
                            value,
                            eps_squared: floored * prior / (prior - floored).max(1e-9),
                        }
                    }
                    HintClass::Skipped => HintDecision::Skipped,
                };
            }
        }

        // The learned leg: calibrated posterior variance, floored at the
        // demotion level and never promoted past an approximate hint.
        if let Some(learned_estimate) = learned {
            let learned_variance = Posterior::new(learned_estimate.probabilities.clone())
                .ok()
                .map_or(f64::INFINITY, |p| p.variance());
            let floored = learned_variance.max(self.config.demoted_variance_floor);
            let learned_decision = match base_policy.classify_variance(floored) {
                HintClass::Perfect | HintClass::Approximate { .. } => {
                    let prior = base_policy.prior_variance;
                    HintDecision::Approximate {
                        value: learned_estimate.predicted,
                        eps_squared: floored * prior / (prior - floored).max(1e-9),
                    }
                }
                HintClass::Skipped => HintDecision::Skipped,
            };
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
            let ladder_rank = |d: &HintDecision| match d {
                HintDecision::Perfect { .. } => 2u8,
                HintDecision::Approximate { .. } => 1,
                HintDecision::Skipped => 0,
            };
            let dominates = match (&learned_decision, &decision) {
                (
                    HintDecision::Approximate {
                        eps_squared: le, ..
                    },
                    HintDecision::Approximate {
                        eps_squared: de, ..
                    },
                ) => le <= de,
                (l, d) => ladder_rank(l) >= ladder_rank(d),
            };
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

/// Integrates one ladder decision into `instance` at `coord`, updating the
/// running summary: perfect hints via `integrate_perfect_hint`, approximate
/// ones via `integrate_approximate_hint` with the gated ε², skipped ones
/// only counted. This is the single integration point shared by
/// [`report_robust`] and `reveal-serve`'s incremental per-key accumulator,
/// so a served stream folds decisions through exactly the same arithmetic
/// (and in the same order) as the one-shot report — bit-identity between
/// the two paths is by construction, not by parallel maintenance.
///
/// # Errors
///
/// Propagates hint-integration failures (out-of-range or already-eliminated
/// coordinate, non-positive ε²).
pub fn integrate_decision(
    instance: &mut DbddInstance,
    coord: usize,
    decision: &HintDecision,
    summary: &mut HintSummary,
) -> Result<(), reveal_hints::HintError> {
    match decision {
        HintDecision::Perfect { .. } => {
            instance.integrate_perfect_hint(coord)?;
            summary.perfect += 1;
        }
        HintDecision::Approximate { eps_squared, .. } => {
            instance.integrate_approximate_hint(coord, *eps_squared)?;
            summary.approximate += 1;
        }
        HintDecision::Skipped => summary.skipped += 1,
    }
    Ok(())
}

/// Builds the security report from robust decisions, mirroring
/// [`report_full_attack`](crate::report::report_full_attack): coordinates
/// are integrated in ascending order via [`integrate_decision`].
///
/// # Errors
///
/// Fails when coefficients outnumber the instance's error coordinates or
/// hint integration fails.
pub fn report_robust(
    result: &RobustAttackResult,
    params: &LweParameters,
) -> Result<AttackReport, ReportError> {
    if result.coefficients.len() > params.m {
        return Err(ReportError::TooManyCoefficients {
            estimates: result.coefficients.len(),
            coords: params.m,
        });
    }
    let baseline = DbddInstance::from_lwe(params).estimate();
    let mut hinted = DbddInstance::from_lwe(params);
    let mut hints = HintSummary::default();
    for (coord, coefficient) in result.coefficients.iter().enumerate() {
        integrate_decision(&mut hinted, coord, &coefficient.decision, &mut hints)?;
    }
    Ok(AttackReport {
        baseline,
        with_hints: hinted.estimate(),
        hints,
        coefficients: result.coefficients.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use reveal_rv32::power::PowerModelConfig;

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

    #[test]
    fn fused_segmenter_matches_two_stage_on_every_rung() {
        // The retry loop segments through the fused three-pass segmenter;
        // every rung (rungs 2 and 3 change the smoothing width to 24 and 8)
        // must reproduce the two-stage composition, errors included.
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
                let two_stage = reveal_trace::segment::find_bursts(samples, cfg)
                    .map(|b| reveal_trace::segment::refine_burst_ends(samples, &b, cfg));
                assert_eq!(
                    refined_bursts_into(samples, cfg, &mut scratch),
                    two_stage,
                    "rung {rung}, trace {t}"
                );
            }
        }
    }

    #[test]
    fn glitch_screen_agrees_with_mad_outlier_flags() {
        // The screen reads each sample's deviation from the buffer its MAD
        // selection leaves behind; its verdicts must equal the plain MAD
        // outlier flags, at the default floor and at lower ones that let
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
        let mut fired = 0;
        for fraction in [0.0, 0.01, 0.1] {
            let config = RobustConfig {
                glitch_floor_fraction: fraction,
                ..RobustConfig::default()
            };
            let result = RobustAttack::new(&attack)
                .with_config(config.clone())
                .attack_trace(&samples, 16, &HintPolicy::seal_paper())
                .unwrap();
            assert_eq!(result.diagnostics.relaxation_rung, 0);
            for (c, &start) in result.coefficients.iter().zip(&starts) {
                let window = &samples[start..start + ladder];
                let expected = mad_outlier_flags(window, config.glitch_z, fraction * (hi - lo))
                    .contains(&true);
                assert_eq!(c.suspicion.glitch, expected, "fraction {fraction}");
                fired += usize::from(expected);
            }
        }
        assert!(fired > 0, "no window exercised the full screen");
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
        assert!(arbitrated.diagnostics.rail.arbitrated);
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
        let (_, ref_approx, ref_skipped) = reference.decision_counts();
        let (_, arb_approx, arb_skipped) = arbitrated.decision_counts();
        assert!(
            arb_approx > ref_approx && arb_skipped < ref_skipped,
            "arbitrated approx {arb_approx} (lda {ref_approx}), skipped {arb_skipped} (lda {ref_skipped})"
        );
    }

    #[test]
    fn disabled_arbitration_stays_on_the_template_rail() {
        let (device, attack) = trained_two_rail(16, 0xD15AB);
        let mut rng = StdRng::seed_from_u64(4);
        let capture = device.capture_fresh(&mut rng).unwrap();
        let config = RobustConfig {
            arbitration: false,
            ..RobustConfig::default()
        };
        let result = RobustAttack::new(&attack)
            .with_config(config)
            .attack_trace(&capture.run.capture.samples, 16, &HintPolicy::seal_paper())
            .unwrap();
        assert!(result.diagnostics.rail.attached);
        assert!(!result.diagnostics.rail.arbitrated);
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
        assert!(!result.diagnostics.rail.arbitrated);
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
