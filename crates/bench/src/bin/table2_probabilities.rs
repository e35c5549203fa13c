// Generator binaries must fail with a message naming the broken stage,
// not a bare unwrap panic; tests keep their unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! **Table II** generator: guessing probabilities derived from selected
//! measurements — the per-secret softmax rows (with "centered" mean and
//! "variance" columns) that the LWE-with-hints framework consumes as
//! perfect/approximate hints.
//!
//! Run with `cargo run --release -p reveal-bench --bin table2_probabilities`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use reveal_bench::{paper_device, train_attacker, Scale};
use reveal_hints::{HintDecision, HintPolicy, Posterior};
use std::collections::BTreeMap;

fn main() {
    let scale = Scale::from_env();
    let (profile_runs, attack_runs, n) = scale.attack_workload();
    println!("Table II: guessing probabilities from selected measurements ({scale:?}, n = {n})\n");
    let device = paper_device(n, 0.05);
    let attack = train_attacker(&device, profile_runs, 2);

    // Collect one representative posterior per secret value: like the
    // framework, we select measurements for the generated secrets and read
    // off the probability tables.
    let mut rng = StdRng::seed_from_u64(4242);
    let mut per_secret: BTreeMap<i64, Vec<Posterior>> = BTreeMap::new();
    for _ in 0..attack_runs {
        let capture = device.capture_fresh(&mut rng).expect("capture");
        let Ok(result) = attack.attack_trace_expecting(&capture.run.capture.samples, n) else {
            continue;
        };
        for (est, &truth) in result.coefficients.iter().zip(&capture.values) {
            if let Ok(p) = Posterior::new(est.probabilities.clone()) {
                per_secret.entry(truth).or_default().push(p);
            }
        }
    }

    // Average the probability tables per secret over the -2..=2 view
    // (the paper's "more frequently observed" interval).
    println!(
        "{:>7} | {:>9} {:>9} {:>9} {:>9} {:>9} | {:>9} {:>10}",
        "secret", "-2", "-1", "0", "1", "2", "centered", "variance"
    );
    println!("{}", "-".repeat(88));
    for secret in [0i64, 1, -1, 2, -2] {
        let Some(list) = per_secret.get(&secret) else {
            continue;
        };
        let avg_prob = |v: i64| -> f64 {
            list.iter()
                .map(|p| {
                    p.entries()
                        .iter()
                        .find(|(val, _)| *val == v)
                        .map(|(_, pr)| *pr)
                        .unwrap_or(0.0)
                })
                .sum::<f64>()
                / list.len() as f64
        };
        let centered: f64 = list.iter().map(Posterior::mean).sum::<f64>() / list.len() as f64;
        let variance: f64 = list.iter().map(Posterior::variance).sum::<f64>() / list.len() as f64;
        let fmt = |p: f64| -> String {
            if p > 1.0 - 1e-9 {
                "≈1".into()
            } else if p < 1e-12 {
                "0".into()
            } else if p < 1e-3 {
                format!("{p:.1e}")
            } else {
                format!("{p:.4}")
            }
        };
        println!(
            "{:>7} | {:>9} {:>9} {:>9} {:>9} {:>9} | {:>9.3} {:>10.3e}",
            secret,
            fmt(avg_prob(-2)),
            fmt(avg_prob(-1)),
            fmt(avg_prob(0)),
            fmt(avg_prob(1)),
            fmt(avg_prob(2)),
            centered,
            variance
        );
    }

    // The paper's observations: correct guesses sit at probability ≈ 1 for
    // the well-separated secrets (0, negatives), so the framework selects
    // them as perfect hints.
    let zeros = per_secret.get(&0).map(Vec::as_slice).unwrap_or(&[]);
    let policy = HintPolicy::seal_paper();
    let perfect_zero = zeros
        .iter()
        .filter(|p| {
            matches!(
                policy.decide(p.mode(), p.variance()),
                HintDecision::Perfect { .. }
            )
        })
        .count();
    println!(
        "\nzero-secret posteriors flagged perfect: {perfect_zero}/{} (paper: all)",
        zeros.len()
    );
    let neg1 = per_secret.get(&-1).map(Vec::as_slice).unwrap_or(&[]);
    let confident_neg = neg1
        .iter()
        .filter(|p| p.mode() == -1 && p.confidence() > 0.9)
        .count();
    println!(
        "secret -1 classified -1 with confidence > 0.9: {confident_neg}/{}",
        neg1.len()
    );
}
