//! Fault-injection end-to-end suite: the robust driver must be a bit-exact
//! superset of the plain pipeline on clean captures, degrade *gracefully*
//! (never panic, never over-claim) on chaos-corrupted captures, and keep
//! the lattice finisher working under moderate corruption.
//!
//! Mirrors the constants of `par_determinism.rs` so the bit-identity claim
//! composes with the thread-count-invariance claim: robust(clean) ==
//! plain == plain-at-any-thread-count.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::SeedableRng;
use reveal_attack::{
    calibrate, report_full_attack, report_robust, AttackConfig, Calibration, Device, HintDecision,
    RobustAttack, TrainedAttack,
};
use reveal_chaos::{ChaosPlan, Fault};
use reveal_hints::{HintPolicy, LweParameters};
use reveal_rv32::power::PowerModelConfig;

const DEGREE: usize = 32;
const MODULUS: u64 = 3329;
const PROFILE_RUNS: usize = 40;
const MASTER_SEED: u64 = 0xC0FF_EE00_5EED;
const VICTIM_SEED: u64 = 77;
const CALIBRATION_SEED: u64 = 0x0CA1;

struct Shared {
    device: Device,
    attack: TrainedAttack,
    calibration: Calibration,
}

/// Profiling is the expensive part; run it once for the whole suite.
fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| {
        let device = Device::new(
            DEGREE,
            &[MODULUS],
            PowerModelConfig::default().with_noise_sigma(0.05),
        )
        .unwrap();
        let attack = TrainedAttack::profile_seeded(
            &device,
            PROFILE_RUNS,
            &AttackConfig::default(),
            MASTER_SEED,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(CALIBRATION_SEED);
        let clean = device.capture_fresh(&mut rng).unwrap();
        let calibration = calibrate(&clean.run.capture.samples, attack.config()).unwrap();
        Shared {
            device,
            attack,
            calibration,
        }
    })
}

fn robust(shared: &Shared) -> RobustAttack<'_> {
    RobustAttack::new(&shared.attack).with_calibration(shared.calibration)
}

#[test]
fn zero_faults_is_bit_identical_to_plain_pipeline() {
    let sh = shared();
    let mut victim_rng = StdRng::seed_from_u64(VICTIM_SEED);
    let capture = sh.device.capture_fresh(&mut victim_rng).unwrap();
    let samples = &capture.run.capture.samples;

    // A clean plan must not touch a single sample.
    let injected = ChaosPlan::clean(9).inject(samples, &capture.run.coefficient_windows);
    assert_eq!(
        &injected.samples, samples,
        "clean plan must be the identity"
    );
    assert!(injected.log.corrupted.is_empty());

    let plain = sh.attack.attack_trace_expecting(samples, DEGREE).unwrap();
    let plain_report = report_full_attack(
        &plain,
        &LweParameters::seal_128_paper(),
        &HintPolicy::seal_paper(),
    )
    .unwrap();

    let result = robust(sh)
        .attack_trace(&injected.samples, DEGREE, &HintPolicy::seal_paper())
        .unwrap();
    assert_eq!(result.coefficients.len(), DEGREE);
    assert_eq!(result.diagnostics.relaxation_rung, Some(0));
    assert_eq!(result.diagnostics.variance_inflation, 1.0);
    for (i, (r, p)) in result
        .coefficients
        .iter()
        .zip(&plain.coefficients)
        .enumerate()
    {
        assert!(r.suspicion.clean(), "coefficient {i} wrongly suspect");
        assert_eq!(
            r.estimate.as_ref(),
            Some(p),
            "coefficient {i} estimate diverges from the plain pipeline"
        );
    }

    let robust_report = report_robust(&result, &LweParameters::seal_128_paper()).unwrap();
    assert_eq!(robust_report.hints, plain_report.hints);
    assert_eq!(
        robust_report.with_hints.bikz.to_bits(),
        plain_report.with_hints.bikz.to_bits(),
        "zero-fault bikz must be bit-identical"
    );
    assert_eq!(
        robust_report.baseline.bikz.to_bits(),
        plain_report.baseline.bikz.to_bits(),
    );
}

#[test]
fn high_intensity_degrades_hints_without_false_perfects() {
    let sh = shared();
    let policy = HintPolicy::seal_paper();
    let mut victim_rng = StdRng::seed_from_u64(VICTIM_SEED);
    let capture = sh.device.capture_fresh(&mut victim_rng).unwrap();
    let samples = &capture.run.capture.samples;

    let clean_result = robust(sh).attack_trace(samples, DEGREE, &policy).unwrap();
    let clean_perfect = clean_result.decision_counts().perfect;

    for intensity in [0.5, 1.0] {
        let plan = ChaosPlan::standard_sweep(41, intensity);
        let injected = plan.inject(samples, &capture.run.coefficient_windows);
        let result = robust(sh)
            .attack_trace(&injected.samples, DEGREE, &policy)
            .expect("high-intensity chaos must still yield a structured result");
        assert_eq!(
            result.coefficients.len(),
            DEGREE,
            "partial result stays full-length"
        );

        let hints = result.decision_counts();
        assert!(
            hints.perfect < clean_perfect && hints.approximate + hints.skipped > 0,
            "intensity {intensity}: expected degradation, got {hints:?} \
             (clean had {clean_perfect} perfect)"
        );

        // The headline safety property: a corrupted coefficient may be
        // approximate, skipped, or (if the estimate survived) even right —
        // but it must never be a *wrong* perfect hint.
        for (i, coefficient) in result.coefficients.iter().enumerate() {
            if let HintDecision::Perfect { value } = coefficient.decision {
                if injected.log.is_corrupted(i) {
                    assert_eq!(
                        value, capture.values[i],
                        "intensity {intensity}: corrupted coefficient {i} \
                         claimed a wrong perfect hint"
                    );
                }
            }
        }

        // The report must still build (valid partial security estimate).
        let report = report_robust(&result, &LweParameters::seal_128_paper()).unwrap();
        assert!(report.with_hints.bikz >= 0.0);
    }
}

#[test]
fn segmentation_never_ties_a_window_to_the_wrong_coefficient() {
    // A merged or split burst changes the burst count, and every window
    // after it then sits one coefficient off. A window tied to the wrong
    // coefficient claims a confidently wrong perfect hint on an uncorrupted
    // coefficient, so no coefficient, corrupted or not, may claim one.
    // The relaxed rungs fuse short notches: some traces must align at rung
    // 1 and some at rung 2.
    let sh = shared();
    let policy = HintPolicy::seal_paper();
    let cases = [
        (Fault::BurstMerge { pairs: 1 }, false),
        (Fault::BurstMerge { pairs: 2 }, false),
        (
            Fault::BurstSplit {
                count: 1,
                notch_len: 40,
            },
            false,
        ),
        (
            Fault::BurstSplit {
                count: 2,
                notch_len: 40,
            },
            false,
        ),
        (
            Fault::BurstSplit {
                count: 1,
                notch_len: 24,
            },
            true,
        ),
        (
            Fault::BurstSplit {
                count: 3,
                notch_len: 24,
            },
            true,
        ),
    ];
    for (fault, relaxed_rungs_align) in cases {
        let mut wrong_perfect = 0;
        let mut rungs = Vec::new();
        for k in 0..40u64 {
            let capture = sh
                .device
                .capture_fresh(&mut StdRng::seed_from_u64(1000 + k))
                .unwrap();
            let plan = ChaosPlan {
                seed: k,
                faults: vec![fault.clone()],
            };
            let injected = plan.inject(
                &capture.run.capture.samples,
                &capture.run.coefficient_windows,
            );
            let result = robust(sh)
                .attack_trace(&injected.samples, DEGREE, &policy)
                .unwrap();
            wrong_perfect += result
                .coefficients
                .iter()
                .zip(&capture.values)
                .filter(|(c, &truth)| {
                    matches!(c.decision, HintDecision::Perfect { value } if value != truth)
                })
                .count();
            rungs.push(result.diagnostics.relaxation_rung);
        }
        assert_eq!(wrong_perfect, 0, "{fault:?}: wrong perfect hints");
        if relaxed_rungs_align {
            assert!(
                rungs.contains(&Some(1)) && rungs.contains(&Some(2)),
                "{fault:?}: rungs {rungs:?}"
            );
        }
    }
}

#[test]
fn standard_sweep_never_panics_at_any_intensity() {
    let sh = shared();
    let policy = HintPolicy::seal_paper();
    let mut rng = StdRng::seed_from_u64(0xF457);
    let capture = sh.device.capture_fresh(&mut rng).unwrap();
    for intensity in [0.0, 0.25, 0.5, 0.75, 1.0] {
        for seed in 0..3u64 {
            let plan = ChaosPlan::standard_sweep(seed, intensity);
            let injected = plan.inject(
                &capture.run.capture.samples,
                &capture.run.coefficient_windows,
            );
            // Ok or typed Err are both acceptable; only a panic fails.
            let _ = robust(sh).attack_trace(&injected.samples, DEGREE, &policy);
        }
    }
}

#[test]
fn confidence_is_monotone_in_injected_noise() {
    // `noise_only` derives its unit noise vector from the seed alone, so a
    // σ-doubling ladder scales the *same* perturbation — confidence must
    // then be non-increasing per coefficient, not just on average.
    let sh = shared();
    let policy = HintPolicy::seal_paper();
    let mut rng = StdRng::seed_from_u64(VICTIM_SEED);
    let capture = sh.device.capture_fresh(&mut rng).unwrap();
    let samples = &capture.run.capture.samples;

    let mut previous: Option<Vec<f64>> = None;
    for sigma in [0.0, 0.1, 0.2, 0.4] {
        let injected =
            ChaosPlan::noise_only(7, sigma).inject(samples, &capture.run.coefficient_windows);
        let result = robust(sh)
            .attack_trace(&injected.samples, DEGREE, &policy)
            .unwrap();
        let confidences: Vec<f64> = result.coefficients.iter().map(|c| c.confidence).collect();
        if let Some(prev) = &previous {
            for (i, (now, before)) in confidences.iter().zip(prev).enumerate() {
                assert!(
                    *now <= *before + 1e-9,
                    "coefficient {i}: confidence rose from {before} to {now} at σ={sigma}"
                );
            }
        }
        previous = Some(confidences);
    }
}

#[test]
fn adaptive_finisher_survives_moderate_chaos() {
    use reveal_bfv::{
        BfvContext, EncryptionParameters, Encryptor, KeyGenerator, NullProbe, Plaintext,
    };
    use reveal_math::Modulus;

    let parms = EncryptionParameters::new(
        DEGREE,
        vec![Modulus::new(MODULUS).unwrap()],
        Modulus::new(16).unwrap(),
    )
    .unwrap();
    let ctx = BfvContext::new(parms).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let keygen = KeyGenerator::new(&ctx);
    let sk = keygen.secret_key(&mut rng);
    let pk = keygen.public_key(&sk, &mut rng);
    let enc = Encryptor::new(&ctx, &pk);
    let message: Vec<u64> = (0..DEGREE as u64).map(|i| (7 * i + 2) % 16).collect();
    let plain = Plaintext::new(&ctx, &message);
    let (ct, wit) = enc.encrypt_observed(&plain, &mut rng, &mut NullProbe, &mut NullProbe);

    // Single-trace *value* recovery needs the low-noise bench conditions of
    // `end_to_end.rs` (at σ=0.05 even clean captures mispredict a few
    // values); the robustness claim here is about the *faults* layered on
    // top of that working baseline.
    let device = Device::new(
        DEGREE,
        &[MODULUS],
        PowerModelConfig::default().with_noise_sigma(0.02),
    )
    .unwrap();
    let attack =
        TrainedAttack::profile_seeded(&device, 60, &AttackConfig::default(), 1000).unwrap();
    let mut cal_rng = StdRng::seed_from_u64(CALIBRATION_SEED);
    let clean = device.capture_fresh(&mut cal_rng).unwrap();
    let calibration = calibrate(&clean.run.capture.samples, attack.config()).unwrap();

    // Glitch spikes corrupt a handful of windows, and only the relaxed
    // rung 1 aligns this trace. No screen flags a window here: the
    // adaptive finisher trusts only coefficients above its confidence
    // threshold and solves around the rest with BKZ, so a corrupted
    // relation must not reach its linear system.
    let capture = device.capture_chosen(&wit.e2, &mut rng).unwrap();
    let plan = ChaosPlan {
        seed: 5,
        faults: vec![
            reveal_chaos::Fault::GaussianNoise { sigma: 0.01 },
            reveal_chaos::Fault::GlitchSpikes {
                rate: 0.0015,
                magnitude: 1.5,
            },
        ],
    };
    let injected = plan.inject(
        &capture.run.capture.samples,
        &capture.run.coefficient_windows,
    );
    assert!(
        !injected.log.corrupted.is_empty(),
        "the plan must actually corrupt some coefficients"
    );
    let result = RobustAttack::new(&attack)
        .with_calibration(calibration)
        .attack_trace(&injected.samples, DEGREE, &HintPolicy::seal_paper())
        .unwrap();

    let (recovered, u, trusted) =
        reveal_attack::recover_adaptive(&ctx, &pk, &ct, &result.estimates(), 0.85)
            .expect("adaptive finisher must succeed under mild chaos");
    assert_eq!(u, wit.u);
    assert_eq!(recovered.coeffs(), plain.coeffs(), "plaintext recovery");
    assert!(
        trusted > 0,
        "some coefficients stay trusted under mild chaos"
    );
}

#[cfg(test)]
mod chaos_properties {
    use super::*;
    use proptest::prelude::*;

    /// Decodes an arbitrary u64 into one fault: the low 3 bits pick the
    /// kind, the rest parameterize it. Every kind and a wide parameter
    /// range are reachable, which is what the never-panic sweep needs.
    fn decode_fault(code: u64) -> Fault {
        let kind = code & 7;
        let a = ((code >> 3) & 0xFFFF) as f64 / 65536.0; // [0, 1)
        let b = ((code >> 19) & 0xFFFF) as f64 / 65536.0; // [0, 1)
        match kind {
            0 => Fault::ClockJitter {
                drop_rate: a * 0.01,
                dup_rate: b * 0.01,
            },
            1 => Fault::AmplitudeDrift {
                per_kilosample: a * 0.05,
            },
            2 => Fault::GainWander {
                amplitude: a * 0.2,
                period: 100 + (b * 2900.0) as usize,
            },
            3 => Fault::GlitchSpikes {
                rate: a * 0.01,
                magnitude: b * 3.0,
            },
            4 => Fault::Clipping {
                lower_fraction: a * 0.1,
                upper_fraction: 0.6 + b * 0.4,
            },
            5 => Fault::BurstMerge {
                pairs: 1 + (a * 2.0) as usize,
            },
            6 => Fault::BurstSplit {
                count: 1 + (a * 2.0) as usize,
                notch_len: 8 + (b * 56.0) as usize,
            },
            _ => Fault::GaussianNoise { sigma: a * 0.8 },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Any composition of faults at any seed yields Ok or a typed
        /// error — the pipeline must never panic on corrupted input.
        #[test]
        fn arbitrary_fault_compositions_never_panic(
            codes in proptest::collection::vec(0u64..u64::MAX, 0..4),
            seed in 0u64..32,
        ) {
            let sh = shared();
            let mut rng = StdRng::seed_from_u64(0xBAD5EED);
            let capture = sh.device.capture_fresh(&mut rng).unwrap();
            let plan = ChaosPlan {
                seed,
                faults: codes.into_iter().map(decode_fault).collect(),
            };
            let injected = plan.inject(
                &capture.run.capture.samples,
                &capture.run.coefficient_windows,
            );
            let _ = robust(sh).attack_trace(
                &injected.samples,
                DEGREE,
                &HintPolicy::seal_paper(),
            );
        }

        /// Doubling the injected noise (same unit perturbation, scaled)
        /// never raises any coefficient's confidence, at any seed.
        #[test]
        fn noise_doubling_never_raises_confidence(seed in 0u64..6) {
            let sh = shared();
            let mut rng = StdRng::seed_from_u64(0x5151 ^ seed);
            let capture = sh.device.capture_fresh(&mut rng).unwrap();
            let samples = &capture.run.capture.samples;
            let windows = &capture.run.coefficient_windows;
            let policy = HintPolicy::seal_paper();
            let low = robust(sh)
                .attack_trace(
                    &ChaosPlan::noise_only(seed, 0.15).inject(samples, windows).samples,
                    DEGREE,
                    &policy,
                )
                .unwrap();
            let high = robust(sh)
                .attack_trace(
                    &ChaosPlan::noise_only(seed, 0.30).inject(samples, windows).samples,
                    DEGREE,
                    &policy,
                )
                .unwrap();
            for (i, (l, h)) in low.coefficients.iter().zip(&high.coefficients).enumerate() {
                prop_assert!(
                    h.confidence <= l.confidence + 1e-9,
                    "coefficient {} rose from {} to {}", i, l.confidence, h.confidence
                );
            }
        }
    }
}
