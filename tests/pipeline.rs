//! Cross-crate pipeline integration: segmentation → sign → value → hints,
//! exercised jointly (experiments E2–E5 of DESIGN.md at test scale).

use rand::rngs::StdRng;
use rand::SeedableRng;
use reveal_attack::{
    extract_ladder_windows, report_full_attack, report_sign_only, AttackConfig, Device,
    TrainedAttack,
};
use reveal_hints::{HintPolicy, LweParameters};
use reveal_lint::{analyze_kernel, Rule};
use reveal_rv32::power::PowerModelConfig;
use reveal_rv32::{KernelVariant, SamplerKernel};
use reveal_template::ConfusionMatrix;
use reveal_trace::segment::find_bursts;

const Q: u64 = 132120577;

/// Compares detected windows with ground truth: the fraction of true windows
/// whose detected counterpart starts within `tolerance` samples.
fn window_alignment_score(
    detected: &[(usize, usize)],
    truth: &[(usize, usize)],
    tolerance: usize,
) -> f64 {
    if truth.is_empty() {
        return 0.0;
    }
    let mut hits = 0usize;
    for &(ts, _) in truth {
        if detected.iter().any(|&(ds, _)| ds.abs_diff(ts) <= tolerance) {
            hits += 1;
        }
    }
    hits as f64 / truth.len() as f64
}

#[test]
fn alignment_score() {
    let truth = [(100, 200), (300, 400)];
    assert_eq!(
        window_alignment_score(&[(102, 200), (299, 400)], &truth, 5),
        1.0
    );
    assert_eq!(window_alignment_score(&[(102, 200)], &truth, 5), 0.5);
    assert_eq!(window_alignment_score(&[], &truth, 5), 0.0);
    assert_eq!(window_alignment_score(&[(0, 1)], &[], 5), 0.0);
}

#[test]
fn segmentation_matches_ground_truth_windows() {
    // Fig. 3(a): the distribution-call peaks locate every coefficient.
    let device = Device::new(64, &[Q], PowerModelConfig::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..3 {
        let cap = device.capture_fresh(&mut rng).unwrap();
        let config = AttackConfig::default();
        let bursts = find_bursts(&cap.run.capture.samples, &config.segment).unwrap();
        // One burst per coefficient plus the epilogue burst.
        assert_eq!(bursts.len(), 64 + 1);
        let score = window_alignment_score(&bursts, &cap.run.coefficient_windows, 24);
        assert!(score > 0.95, "alignment score {score}");
        let windows = extract_ladder_windows(&cap.run.capture.samples, &config).unwrap();
        assert_eq!(windows.len(), 64);
    }
}

#[test]
fn confusion_matrix_reproduces_table_i_structure() {
    // Build a small-scale Table I and check its structural properties.
    let device = Device::new(64, &[Q], PowerModelConfig::default().with_noise_sigma(0.05)).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let attack = TrainedAttack::profile(&device, 30, &AttackConfig::default(), &mut rng).unwrap();
    let mut cm = ConfusionMatrix::new();
    for _ in 0..12 {
        let cap = device.capture_fresh(&mut rng).unwrap();
        let Ok(result) = attack.attack_trace_expecting(&cap.run.capture.samples, 64) else {
            continue;
        };
        for (est, &truth) in result.coefficients.iter().zip(&cap.values) {
            cm.record(truth, est.predicted);
        }
    }
    assert!(cm.total() > 500, "need data, got {}", cm.total());
    // Paper properties: 100% on the zero column, perfect sign separation,
    // negatives stronger than positives on the diagonal.
    assert!(
        cm.column_percentage(0, 0) >= 99.0,
        "zero column {}",
        cm.column_percentage(0, 0)
    );
    assert!(
        cm.sign_accuracy() > 0.99,
        "sign accuracy {}",
        cm.sign_accuracy()
    );
    let neg_diag: f64 = (1..=7).map(|v| cm.column_percentage(-v, -v)).sum::<f64>() / 7.0;
    let pos_diag: f64 = (1..=7).map(|v| cm.column_percentage(v, v)).sum::<f64>() / 7.0;
    assert!(
        neg_diag > pos_diag + 15.0,
        "Table I asymmetry: neg {neg_diag:.1}% vs pos {pos_diag:.1}%"
    );
    // No cross-sign mass (the render should show clean quadrants).
    for actual in 1..=7i64 {
        for predicted in -7..=-1i64 {
            assert_eq!(cm.count(actual, predicted), 0);
        }
    }
}

#[test]
fn hint_reports_order_correctly() {
    // Full hints < sign-only hints < baseline, on the same attack output.
    let device = Device::new(64, &[Q], PowerModelConfig::default().with_noise_sigma(0.05)).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let attack = TrainedAttack::profile(&device, 24, &AttackConfig::default(), &mut rng).unwrap();
    let cap = device.capture_fresh(&mut rng).unwrap();
    let result = attack
        .attack_trace_expecting(&cap.run.capture.samples, 64)
        .unwrap();
    // Report against the full-scale instance (64 hints on the paper's
    // n = 1024 set): a toy 64-dimension instance is trivially LLL-solvable
    // and would saturate every estimate at the β = 2 floor.
    let params = LweParameters::seal_128_paper();
    let policy = HintPolicy::seal_paper();
    let full = report_full_attack(&result, &params, &policy).unwrap();
    let sign_only = report_sign_only(&result, &params, &policy, 3.19, 14).unwrap();
    assert!(full.with_hints.bikz <= sign_only.with_hints.bikz);
    assert!(sign_only.with_hints.bikz < full.baseline.bikz);
    assert_eq!(full.baseline.bikz, sign_only.baseline.bikz);
}

#[test]
fn lint_gate_agrees_with_the_dynamic_attack() {
    // The static analyzer's verdict must match what the rest of this suite
    // demonstrates dynamically: the kernel the attack succeeds against is
    // flagged (secret-dependent branches at the sign ladder), and the
    // branchless rewrite — the paper's recommended fix — comes back clean.
    let vulnerable = SamplerKernel::with_variant(64, &[Q], KernelVariant::Vulnerable).unwrap();
    let report = analyze_kernel(&vulnerable);
    assert!(
        report.findings_for(Rule::L1SecretBranch).count() >= 2,
        "lint gate must flag the Fig. 2 ladder:\n{}",
        report.render_human()
    );
    assert!(!report.is_constant_time());

    let branchless = SamplerKernel::with_variant(64, &[Q], KernelVariant::Branchless).unwrap();
    let report = analyze_kernel(&branchless);
    assert!(
        report.is_constant_time(),
        "the fixed sampler must pass the lint gate:\n{}",
        report.render_human()
    );
}

#[test]
fn time_variance_defeats_fixed_stride_segmentation() {
    // §III-C: "the adversary cannot simply locate just one iteration and
    // then shift the sampling window for a fixed amount of time". Verify the
    // premise: window lengths genuinely vary within one trace.
    let device = Device::new(64, &[Q], PowerModelConfig::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let cap = device.capture_fresh(&mut rng).unwrap();
    let lengths: Vec<usize> = cap
        .run
        .coefficient_windows
        .iter()
        .map(|&(s, e)| e - s)
        .collect();
    let min = *lengths.iter().min().unwrap();
    let max = *lengths.iter().max().unwrap();
    assert!(
        max > min + 50,
        "sampler should be time-variant: min {min}, max {max}"
    );
}
