// Generator binaries must fail with a message naming the broken stage,
// not a bare unwrap panic; tests keep their unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! **Chaos robustness sweep**: runs the robust attack driver against
//! `reveal-chaos` fault plans of increasing intensity and records how the
//! hint ladder degrades — perfect hints must fall, approximate/skipped
//! hints must rise, mean confidence must fall, and no coefficient,
//! corrupted or not, may ever be claimed as a *wrong* perfect hint.
//!
//! Emits `BENCH_chaos.json` under `target/reveal/` (schema
//! `reveal-bench-chaos/v2`); a committed copy lives in `docs/results/`.
//!
//! Run with `cargo run --release -p reveal-bench --bin bench_chaos`
//! (honours `REVEAL_QUICK` / `REVEAL_FULL` and `REVEAL_THREADS`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use reveal_attack::{
    calibrate, report_robust, AttackConfig, HintDecision, RobustAttack, TrainedAttack,
};
use reveal_bench::{paper_device, write_artifact, Scale};
use reveal_chaos::ChaosPlan;
use reveal_hints::{HintPolicy, HintSummary, LweParameters};

const MASTER_SEED: u64 = 0xC4A0_5BE9;
const CHAOS_SEED: u64 = 41;
// Dense steps through the knee region (~0.1–0.25, where the noise floor
// ramps from zero toward the prior) plus the coarse high-intensity tail.
const INTENSITIES: [f64; 8] = [0.0, 0.1, 0.15, 0.2, 0.25, 0.5, 0.75, 1.0];

/// One intensity step's measurements.
struct SweepRow {
    intensity: f64,
    corrupted: usize,
    perfect: usize,
    approximate: usize,
    skipped: usize,
    wrong_perfect: usize,
    mean_confidence: f64,
    noise_sigma: f64,
    variance_inflation: f64,
    /// The rung number, or `null` when no rung fit.
    relaxation_rung: String,
    with_hints_bikz: f64,
}

fn main() {
    let scale = Scale::from_env();
    let (profile_runs, degree) = match scale {
        Scale::Quick => (20, 32),
        Scale::Standard => (40, 64),
        Scale::Full => (80, 128),
    };

    let device = paper_device(degree, 0.05);
    let attack =
        TrainedAttack::profile_seeded(&device, profile_runs, &AttackConfig::default(), MASTER_SEED)
            .expect("profiling succeeds at nominal settings");

    let mut rng = StdRng::seed_from_u64(MASTER_SEED ^ 1);
    let clean = device.capture_fresh(&mut rng).expect("calibration capture");
    let calibration = calibrate(&clean.run.capture.samples, attack.config()).expect("calibration");
    let victim = device.capture_fresh(&mut rng).expect("victim capture");
    let robust = RobustAttack::new(&attack).with_calibration(calibration);
    let policy = HintPolicy::seal_paper();
    let params = LweParameters::seal_128_paper();

    println!(
        "chaos sweep: n={degree} profile_runs={profile_runs} \
         intensities={INTENSITIES:?} seed={CHAOS_SEED}"
    );

    let mut rows = Vec::new();
    for intensity in INTENSITIES {
        let plan = ChaosPlan::standard_sweep(CHAOS_SEED, intensity);
        let injected = plan.inject(&victim.run.capture.samples, &victim.run.coefficient_windows);
        let result = robust
            .attack_trace(&injected.samples, degree, &policy)
            .expect("the robust driver must yield a structured result at every intensity");
        assert_eq!(result.coefficients.len(), degree);

        let HintSummary {
            perfect,
            approximate,
            skipped,
        } = result.decision_counts();
        // Every coefficient counts: a window tied to the wrong coefficient
        // lands its hint on an uncorrupted one.
        let wrong_perfect = result
            .coefficients
            .iter()
            .zip(&victim.values)
            .filter(|(c, &truth)| {
                matches!(c.decision, HintDecision::Perfect { value } if value != truth)
            })
            .count();
        let mean_confidence = result
            .coefficients
            .iter()
            .map(|c| c.confidence)
            .sum::<f64>()
            / degree as f64;
        let report = report_robust(&result, &params).expect("security report");
        let relaxation_rung = result
            .diagnostics
            .relaxation_rung
            .map_or_else(|| "null".to_string(), |rung| rung.to_string());

        println!(
            "  intensity {intensity:.2}: corrupted {:>3}  perfect {perfect:>3}  \
             approx {approximate:>3}  skipped {skipped:>3}  mean_conf {mean_confidence:.3}  \
             bikz {:.1}  rung {relaxation_rung}",
            injected.log.corrupted.len(),
            report.with_hints.bikz,
        );

        rows.push(SweepRow {
            intensity,
            corrupted: injected.log.corrupted.len(),
            perfect,
            approximate,
            skipped,
            wrong_perfect,
            mean_confidence,
            noise_sigma: result.diagnostics.noise_sigma,
            variance_inflation: result.diagnostics.variance_inflation,
            relaxation_rung,
            with_hints_bikz: report.with_hints.bikz,
        });
    }

    // The degradation contracts the artifact certifies.
    let no_false_perfect = rows.iter().all(|r| r.wrong_perfect == 0);
    let monotone_perfect = rows.windows(2).all(|w| w[1].perfect <= w[0].perfect);
    let monotone_confidence = rows
        .windows(2)
        .all(|w| w[1].mean_confidence <= w[0].mean_confidence + 1e-9);
    // Weaker hints mean a higher residual security estimate; the small
    // slack absorbs sub-knee reshuffling between hint classes.
    let monotone_bikz = rows
        .windows(2)
        .all(|w| w[1].with_hints_bikz >= w[0].with_hints_bikz - 0.05);
    println!(
        "  contracts: no_false_perfect={no_false_perfect} \
         monotone_perfect={monotone_perfect} monotone_confidence={monotone_confidence} \
         monotone_bikz={monotone_bikz}"
    );

    let row_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"intensity\": {:.2}, \"corrupted\": {}, \"perfect\": {}, \
                 \"approximate\": {}, \"skipped\": {}, \"wrong_perfect\": {}, \
                 \"mean_confidence\": {:.4}, \"noise_sigma\": {:.4}, \
                 \"variance_inflation\": {:.3}, \"relaxation_rung\": {}, \
                 \"with_hints_bikz\": {:.2}}}",
                r.intensity,
                r.corrupted,
                r.perfect,
                r.approximate,
                r.skipped,
                r.wrong_perfect,
                r.mean_confidence,
                r.noise_sigma,
                r.variance_inflation,
                r.relaxation_rung,
                r.with_hints_bikz,
            )
        })
        .collect();
    let baseline = reveal_hints::DbddInstance::from_lwe(&params).estimate();
    let json = format!(
        "{{\n  \"schema\": \"reveal-bench-chaos/v2\",\n  \"scale\": \"{}\",\n  \
         \"ring_degree\": {},\n  \"profile_runs\": {},\n  \"chaos_seed\": {},\n  \
         \"baseline_bikz\": {:.2},\n  \"no_false_perfect\": {},\n  \
         \"monotone_perfect\": {},\n  \"monotone_confidence\": {},\n  \
         \"monotone_bikz\": {},\n  \"sweep\": [\n{}\n  ]\n}}\n",
        match scale {
            Scale::Quick => "quick",
            Scale::Standard => "standard",
            Scale::Full => "full",
        },
        degree,
        profile_runs,
        CHAOS_SEED,
        baseline.bikz,
        no_false_perfect,
        monotone_perfect,
        monotone_confidence,
        monotone_bikz,
        row_json.join(",\n"),
    );
    write_artifact("BENCH_chaos.json", &json);

    assert!(
        no_false_perfect,
        "a coefficient was claimed as a wrong perfect hint"
    );
    assert!(
        monotone_perfect,
        "perfect-hint count must not rise with intensity"
    );
    assert!(
        monotone_confidence,
        "mean confidence must not rise with intensity"
    );
    assert!(
        monotone_bikz,
        "residual security must not fall as corruption rises"
    );
}
