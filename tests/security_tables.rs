//! Paper-scale security-table integration (Tables III/IV shapes at the real
//! SEAL-128 parameters — estimator only, no trace simulation needed).

use reveal_attack::rounded_gaussian_prior;
use reveal_hints::{fold_decisions, DbddInstance, HintPolicy, LweParameters, Posterior};

#[test]
fn table_iii_shape_at_full_scale() {
    let params = LweParameters::seal_128_paper();
    let baseline = DbddInstance::from_lwe(&params).estimate();
    // Paper: 382.25 bikz ≈ 2^128.
    assert!(
        (baseline.bikz - 382.25).abs() < 12.0,
        "baseline {:.2}",
        baseline.bikz
    );

    let mut hinted = DbddInstance::from_lwe(&params);
    for i in 0..1024 {
        hinted.integrate_perfect_hint(i).unwrap();
    }
    let with_hints = hinted.estimate();
    // Paper: 12.2 bikz ≈ 2^4.4 — a complete break.
    assert!(with_hints.bikz < 40.0, "with hints {:.2}", with_hints.bikz);
    assert!(
        baseline.bikz / with_hints.bikz > 10.0,
        "hints must collapse security by an order of magnitude"
    );
}

#[test]
fn table_iv_sign_only_at_full_scale() {
    let params = LweParameters::seal_128_paper();
    let policy = HintPolicy::seal_paper();
    let prior = rounded_gaussian_prior(3.19, 41);

    // Sample 1024 coefficients from the prior deterministically (inverse
    // CDF over a low-discrepancy sequence), then apply sign-only knowledge.
    let mut posteriors = Vec::with_capacity(1024);
    for k in 0..1024 {
        let target = (k as f64 + 0.5) / 1024.0;
        let mut acc = 0.0;
        let mut value = 0i64;
        for &(v, p) in &prior {
            acc += p;
            if acc >= target {
                value = v;
                break;
            }
        }
        let posterior = if value == 0 {
            Posterior::certain(0)
        } else {
            let restricted: Vec<(i64, f64)> = prior
                .iter()
                .filter(|(v, _)| v.signum() == value.signum())
                .copied()
                .collect();
            Posterior::new(restricted).unwrap()
        };
        posteriors.push(posterior);
    }
    let decisions = posteriors
        .iter()
        .map(|p| policy.decide(p.mode(), p.variance()));
    let (estimate, summary) = fold_decisions(&params, decisions).unwrap();
    let baseline = DbddInstance::from_lwe(&params).estimate();

    // Zero coefficients became perfect hints (≈ 12.5% of 1024).
    assert!(
        (100..=160).contains(&summary.perfect),
        "perfect hints {}",
        summary.perfect
    );
    // Paper Table IV: 382.25 → 253.29 bikz; we require the same regime:
    // clearly reduced, clearly not broken ("signs alone cannot recover").
    assert!(
        estimate.bikz < baseline.bikz - 40.0,
        "sign hints must reduce: {:.2} vs {:.2}",
        estimate.bikz,
        baseline.bikz
    );
    assert!(
        estimate.bits > 50.0,
        "sign hints alone must not break the scheme: {:.1} bits",
        estimate.bits
    );
}

#[test]
fn table_iv_guesses_row() {
    // "Attack with hints & guesses": one extra perfect hint (the guessed
    // coefficient) shaves a fraction of a bikz — 253.29 → 252.83 in the
    // paper.
    let params = LweParameters::seal_128_paper();
    let sigma = 3.2f64;
    let half_normal_var = sigma * sigma * (1.0 - 2.0 / std::f64::consts::PI);
    let build = |guesses: usize| {
        let mut inst = DbddInstance::from_lwe(&params);
        for i in 0..1024 {
            if i % 8 == 0 {
                inst.integrate_perfect_hint(i).unwrap();
            } else {
                let current = sigma * sigma;
                let eps = half_normal_var * current / (current - half_normal_var);
                inst.integrate_approximate_hint(i, eps).unwrap();
            }
        }
        // The guessed coefficients become perfect hints on top.
        let mut g = 0;
        let mut i = 1;
        while g < guesses {
            if i % 8 != 0 {
                inst.integrate_perfect_hint(i).unwrap();
                g += 1;
            }
            i += 1;
        }
        inst.estimate().bikz
    };
    let without_guess = build(0);
    let with_guess = build(1);
    let delta = without_guess - with_guess;
    assert!(delta > 0.0, "a guess must help");
    assert!(
        delta < 5.0,
        "one guess is worth well under 5 bikz, got {delta:.2}"
    );
}
