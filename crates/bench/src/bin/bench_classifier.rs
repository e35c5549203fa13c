// Generator binaries must fail with a message naming the broken stage,
// not a bare unwrap panic; tests keep their unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! **Two-rail classifier benchmark**: the learned logistic-regression rail
//! and per-burst arbitration against the pooled-LDA templates, measuring
//! the two contracts the rail ships under:
//!
//! 1. **Zero-fault bit-identity** — with the learned rail attached and
//!    arbitration enabled, a clean standard-scale capture produces the
//!    one-shot pipeline's report bit for bit (`f64::to_bits` equality,
//!    bikz 242.02 at standard scale): arbitration only arms on degradation
//!    signals, so a clean trace never consults the learned rail. This
//!    phase disables the per-window suspicion screens (their ~0.3%
//!    clean-capture false-positive rate would conservatively demote a few
//!    hints) so the measurement isolates the claim under test: *attaching
//!    the rail* adds zero numerical perturbation.
//! 2. **Graceful degradation** — a desync / low-SNR sweep where the
//!    arbitrated attacker must extract strictly more security than the
//!    LDA-only driver once measured noise reaches twice the calibrated
//!    reference (the regime where multiplicative variance inflation has
//!    pushed every template posterior past the skip threshold), while
//!    never claiming a wrong perfect hint on a corrupted coefficient
//!    (the learned rail caps its decisions at approximate).
//!
//! Emits `BENCH_classifier.json` (schema `reveal-bench-classifier/v1`)
//! under `target/reveal/`; a committed copy lives in `docs/results/`. The
//! artifact's `zero_fault` and `sweep` sections are REVEAL_THREADS
//! invariant — CI diffs them across thread counts.
//!
//! Run with `cargo run --release -p reveal-bench --bin bench_classifier`
//! (honours `REVEAL_QUICK` / `REVEAL_FULL` and `REVEAL_THREADS`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use reveal_attack::{
    calibrate, report_full_attack, report_robust, AttackConfig, HintDecision, LearnedConfig, Rail,
    RobustAttack, RobustAttackResult, RobustConfig, TrainedAttack,
};
use reveal_bench::{paper_device, write_artifact, Scale};
use reveal_chaos::ChaosPlan;
use reveal_hints::{HintPolicy, LweParameters};

/// The seed of every pinned artifact: at standard scale the zero-fault
/// report reproduces the pinned with-hints bikz (242.02) bit for bit, the
/// value the repository benchmark (`perfbench/`) checks on every run.
const MASTER_SEED: u64 = 0x5EA1_BE9C;
/// Chaos-plan seed for the degradation sweep.
const SWEEP_SEED: u64 = 53;
/// Target *measured* noise ratios (total noise over calibrated reference).
/// Injected quadrature sigma is `ref · √(r² − 1)` so the driver's own
/// measurement lands near `r · ref`.
const NOISE_RATIOS: [f64; 3] = [1.5, 2.0, 3.0];
/// Desync-sweep intensities ([`ChaosPlan::desync_sweep`]).
const DESYNC_INTENSITIES: [f64; 3] = [0.35, 0.7, 1.0];
/// The contract threshold: at measured ratios at or above this, the
/// arbitrated driver must beat LDA-only strictly.
const RATIO_THRESHOLD: f64 = 2.0;

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Quick => "quick",
        Scale::Standard => "standard",
        Scale::Full => "full",
    }
}

/// Disables the per-window suspicion screens (every z threshold and
/// tolerance to ∞) for the bit-identity phase; calibration, inflation, and
/// the hint ladder stay live.
fn disable_screens(robust: &mut RobustConfig) {
    robust.glitch_z = f64::INFINITY;
    robust.score_z = f64::INFINITY;
    robust.length_z = f64::INFINITY;
    robust.gain_tolerance = f64::INFINITY;
}

/// What one rail configuration extracted from one corrupted capture.
struct RailOutcome {
    bikz: f64,
    perfect: usize,
    approximate: usize,
    skipped: usize,
    wrong_perfect_on_corrupted: usize,
    value_accuracy: f64,
    learned_decisions: usize,
    armed_windows: usize,
    learned_wins: usize,
    lda_wins: usize,
    learned_errors: usize,
    measured_ratio: f64,
}

fn outcome(
    result: &RobustAttackResult,
    params: &LweParameters,
    truth: &[i64],
    corrupted: &dyn Fn(usize) -> bool,
    reference_sigma: f64,
) -> RailOutcome {
    let (perfect, approximate, skipped) = result.decision_counts();
    let wrong_perfect_on_corrupted = result
        .coefficients
        .iter()
        .enumerate()
        .filter(|(i, c)| {
            corrupted(*i)
                && matches!(c.decision, HintDecision::Perfect { value } if value != truth[*i])
        })
        .count();
    let (mut decided, mut correct) = (0usize, 0usize);
    for (i, c) in result.coefficients.iter().enumerate() {
        let claimed = match c.decision {
            HintDecision::Perfect { value } | HintDecision::Approximate { value, .. } => value,
            HintDecision::Skipped => continue,
        };
        decided += 1;
        if claimed == truth[i] {
            correct += 1;
        }
    }
    let report = report_robust(result, params).expect("security report");
    RailOutcome {
        bikz: report.with_hints.bikz,
        perfect,
        approximate,
        skipped,
        wrong_perfect_on_corrupted,
        value_accuracy: if decided == 0 {
            1.0
        } else {
            correct as f64 / decided as f64
        },
        learned_decisions: result
            .coefficients
            .iter()
            .filter(|c| c.rail == Rail::Learned)
            .count(),
        armed_windows: result.diagnostics.rail.armed_windows,
        learned_wins: result.diagnostics.rail.learned_wins,
        lda_wins: result.diagnostics.rail.lda_wins,
        learned_errors: result.diagnostics.rail.learned_errors,
        measured_ratio: result.diagnostics.noise_sigma / reference_sigma.max(1e-12),
    }
}

fn outcome_json(o: &RailOutcome) -> String {
    format!(
        "{{\"bikz\": {:.2}, \"perfect\": {}, \"approximate\": {}, \"skipped\": {}, \
         \"wrong_perfect_on_corrupted\": {}, \"value_accuracy\": {:.4}, \
         \"learned_decisions\": {}, \"armed_windows\": {}, \"learned_wins\": {}, \
         \"lda_wins\": {}, \"learned_errors\": {}}}",
        o.bikz,
        o.perfect,
        o.approximate,
        o.skipped,
        o.wrong_perfect_on_corrupted,
        o.value_accuracy,
        o.learned_decisions,
        o.armed_windows,
        o.learned_wins,
        o.lda_wins,
        o.learned_errors,
    )
}

/// One degradation row: the same corrupted capture through both drivers.
struct SweepRow {
    kind: &'static str,
    level: f64,
    injected_sigma: f64,
    corrupted: usize,
    lda: RailOutcome,
    arbitrated: RailOutcome,
}

#[allow(clippy::too_many_lines)]
fn main() {
    let scale = Scale::from_env();
    let (profile_runs, _attack_runs, degree) = scale.attack_workload();
    let threads = reveal_par::max_threads();
    let device = paper_device(degree, 0.05);
    let config = AttackConfig::default();
    let policy = HintPolicy::seal_paper();
    let params = LweParameters::seal_128_paper();

    println!(
        "classifier bench: scale={} n={degree} profile_runs={profile_runs} threads={threads}",
        scale_name(scale)
    );

    // Calibration first: the learned rail's noise augmentation is phrased
    // in multiples of the calibrated reference sigma.
    let mut cal_rng = StdRng::seed_from_u64(MASTER_SEED ^ 2);
    let clean = device
        .capture_fresh(&mut cal_rng)
        .expect("calibration capture");
    let calibration = calibrate(&clean.run.capture.samples, &config).expect("calibration");
    let reference_sigma = calibration.reference_noise_sigma;

    let augment_sigmas: Vec<f64> = [1.0, 2.0, 3.0]
        .iter()
        .map(|r| r * reference_sigma)
        .collect();
    let learned_config = LearnedConfig {
        augment_sigmas: augment_sigmas.clone(),
        ..LearnedConfig::default()
    };
    let (attack, train_error) = TrainedAttack::profile_seeded_two_rail(
        &device,
        profile_runs,
        &config,
        MASTER_SEED,
        &learned_config,
    )
    .expect("profiling succeeds at nominal settings");
    let rail = attack.learned_rail();
    assert!(
        rail.is_some() && train_error.is_none(),
        "learned rail must train at nominal settings: {train_error:?}"
    );
    let (t_sign, t_pos, t_neg) = rail.expect("rail attached").temperatures();
    println!(
        "  learned rail trained: temperatures sign {t_sign:.3} / pos {t_pos:.3} / neg {t_neg:.3}"
    );

    // The victim capture: first fresh capture from the `MASTER_SEED ^ 1`
    // stream, so the one-shot report is the pinned number.
    let mut rng = StdRng::seed_from_u64(MASTER_SEED ^ 1);
    let victim = device.capture_fresh(&mut rng).expect("victim capture");

    // Phase 1: zero-fault bit-identity with the rail attached.
    let one_shot = attack
        .attack_trace_expecting(&victim.run.capture.samples, degree)
        .expect("one-shot attack");
    let one_shot_report = report_full_attack(&one_shot, &params, &policy).expect("report");
    let mut clean_robust_cfg = RobustConfig::default();
    disable_screens(&mut clean_robust_cfg);
    let arbitrated_clean = RobustAttack::new(&attack)
        .with_config(clean_robust_cfg.clone())
        .with_calibration(calibration)
        .attack_trace(&victim.run.capture.samples, degree, &policy)
        .expect("arbitrated clean attack");
    let arbitrated_clean_report =
        report_robust(&arbitrated_clean, &params).expect("arbitrated clean report");
    let lda_only_cfg = RobustConfig {
        arbitration: false,
        ..clean_robust_cfg
    };
    let lda_clean = RobustAttack::new(&attack)
        .with_config(lda_only_cfg)
        .with_calibration(calibration)
        .attack_trace(&victim.run.capture.samples, degree, &policy)
        .expect("lda-only clean attack");
    let lda_clean_report = report_robust(&lda_clean, &params).expect("lda clean report");
    let bit_identity = arbitrated_clean_report.with_hints.bikz.to_bits()
        == one_shot_report.with_hints.bikz.to_bits()
        && lda_clean_report.with_hints.bikz.to_bits() == one_shot_report.with_hints.bikz.to_bits()
        && arbitrated_clean.diagnostics.rail.armed_windows == 0
        && arbitrated_clean
            .coefficients
            .iter()
            .all(|c| c.rail == Rail::Lda);
    println!(
        "  zero-fault: one-shot bikz {:.2}, arbitrated {:.2} (armed {}), bit-identity {}",
        one_shot_report.with_hints.bikz,
        arbitrated_clean_report.with_hints.bikz,
        arbitrated_clean.diagnostics.rail.armed_windows,
        bit_identity
    );

    // Phase 2: the degradation sweep, full screens on (the driver as
    // deployed), LDA-only vs arbitrated on identical corrupted captures.
    let lda_sweep = RobustAttack::new(&attack)
        .with_config(RobustConfig {
            arbitration: false,
            ..RobustConfig::default()
        })
        .with_calibration(calibration);
    let arb_sweep = RobustAttack::new(&attack).with_calibration(calibration);

    let plans: Vec<(&'static str, f64, ChaosPlan)> = NOISE_RATIOS
        .iter()
        .map(|&r| {
            let sigma = reference_sigma * (r * r - 1.0).max(0.0).sqrt();
            ("noise", r, ChaosPlan::noise_only(SWEEP_SEED, sigma))
        })
        .chain(
            DESYNC_INTENSITIES
                .iter()
                .map(|&i| ("desync", i, ChaosPlan::desync_sweep(SWEEP_SEED, i))),
        )
        .collect();

    let mut rows: Vec<SweepRow> = Vec::new();
    for (kind, level, plan) in plans {
        let injected = plan.inject(&victim.run.capture.samples, &victim.run.coefficient_windows);
        let corrupted = |i: usize| injected.log.is_corrupted(i);
        let lda_result = lda_sweep
            .attack_trace(&injected.samples, degree, &policy)
            .expect("lda-only sweep attack");
        let arb_result = arb_sweep
            .attack_trace(&injected.samples, degree, &policy)
            .expect("arbitrated sweep attack");
        let lda = outcome(
            &lda_result,
            &params,
            &victim.values,
            &corrupted,
            reference_sigma,
        );
        let arbitrated = outcome(
            &arb_result,
            &params,
            &victim.values,
            &corrupted,
            reference_sigma,
        );
        println!(
            "  {kind} {level:.2}: measured ratio {:.2} | lda bikz {:.2} (P {} A {} S {}) | \
             arbitrated bikz {:.2} (P {} A {} S {}, learned {} of {} armed)",
            arbitrated.measured_ratio,
            lda.bikz,
            lda.perfect,
            lda.approximate,
            lda.skipped,
            arbitrated.bikz,
            arbitrated.perfect,
            arbitrated.approximate,
            arbitrated.skipped,
            arbitrated.learned_decisions,
            arbitrated.armed_windows,
        );
        rows.push(SweepRow {
            kind,
            level,
            injected_sigma: injected.log.injected_noise_sigma,
            corrupted: injected.log.corrupted.len(),
            lda,
            arbitrated,
        });
    }

    // The contracts the artifact certifies.
    let threshold_rows: Vec<&SweepRow> = rows
        .iter()
        .filter(|r| r.kind == "noise" && r.arbitrated.measured_ratio >= RATIO_THRESHOLD)
        .collect();
    let arbitration_beats_lda = !threshold_rows.is_empty()
        && threshold_rows
            .iter()
            .all(|r| r.arbitrated.bikz < r.lda.bikz);
    let no_false_perfect = rows.iter().all(|r| {
        r.lda.wrong_perfect_on_corrupted == 0 && r.arbitrated.wrong_perfect_on_corrupted == 0
    });
    // Per-window dominance (the gate only switches rails when the learned
    // hint is at least as strong) makes this hold by construction; the
    // epsilon absorbs only float noise in the estimator fold.
    let never_worse = rows.iter().all(|r| r.arbitrated.bikz <= r.lda.bikz + 1e-9);
    println!(
        "  contracts: bit_identity={bit_identity} arbitration_beats_lda={arbitration_beats_lda} \
         no_false_perfect={no_false_perfect} never_worse={never_worse}"
    );

    let row_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"kind\": \"{}\", \"level\": {:.2}, \"injected_sigma\": {:.4}, \
                 \"measured_ratio\": {:.3}, \"corrupted\": {}, \"lda\": {}, \"arbitrated\": {}}}",
                r.kind,
                r.level,
                r.injected_sigma,
                r.arbitrated.measured_ratio,
                r.corrupted,
                outcome_json(&r.lda),
                outcome_json(&r.arbitrated),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"reveal-bench-classifier/v1\",\n  \"scale\": \"{}\",\n  \
         \"ring_degree\": {},\n  \"profile_runs\": {},\n  \"master_seed\": {},\n  \
         \"sweep_seed\": {},\n  \"learned\": {{\"trained\": true, \"error\": null, \
         \"temperatures\": {{\"sign\": {:.4}, \"pos\": {:.4}, \"neg\": {:.4}}}, \
         \"augment_ratios\": [1.0, 2.0, 3.0]}},\n  \
         \"zero_fault\": {{\"screens_disabled\": true, \"one_shot_bikz\": {:.2}, \
         \"one_shot_bits\": \"{:016x}\", \"arbitrated_bikz\": {:.2}, \
         \"arbitrated_bits\": \"{:016x}\", \"lda_only_bits\": \"{:016x}\", \
         \"armed_windows\": {}, \"bit_identity\": {}}},\n  \
         \"contracts\": {{\"ratio_threshold\": {:.1}, \"arbitration_beats_lda\": {}, \
         \"no_false_perfect\": {}, \"never_worse\": {}}},\n  \"sweep\": [\n{}\n  ]\n}}\n",
        scale_name(scale),
        degree,
        profile_runs,
        MASTER_SEED,
        SWEEP_SEED,
        t_sign,
        t_pos,
        t_neg,
        one_shot_report.with_hints.bikz,
        one_shot_report.with_hints.bikz.to_bits(),
        arbitrated_clean_report.with_hints.bikz,
        arbitrated_clean_report.with_hints.bikz.to_bits(),
        lda_clean_report.with_hints.bikz.to_bits(),
        arbitrated_clean.diagnostics.rail.armed_windows,
        bit_identity,
        RATIO_THRESHOLD,
        arbitration_beats_lda,
        no_false_perfect,
        never_worse,
        row_json.join(",\n"),
    );
    write_artifact("BENCH_classifier.json", &json);

    assert!(
        bit_identity,
        "attaching the learned rail must not perturb a zero-fault run"
    );
    assert!(
        arbitration_beats_lda,
        "arbitration must extract strictly more than LDA-only at ≥{RATIO_THRESHOLD}× noise"
    );
    assert!(
        no_false_perfect,
        "no corrupted coefficient may be claimed as a wrong perfect hint"
    );
    assert!(
        never_worse,
        "arbitration must never be materially worse than LDA-only"
    );
}
