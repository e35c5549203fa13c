// Generator binaries must fail with a message naming the broken stage,
// not a bare unwrap panic; tests keep their unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! **Table III** generator: cost of the primal attack with and without the
//! single-trace hints for the SEAL-128 parameter set (q = 132120577,
//! n = 1024, σ = 3.2). This is the paper's headline: 382.25 bikz (≈ 2^128)
//! without hints, 12.2 bikz (≈ 2^4.4) with them — a complete break.
//!
//! Methodology mirrors \[31\] exactly: the attack stage yields per-secret
//! probability tables; the framework then "generates n secret values and
//! selects measurements for those values uniformly at random" and integrates
//! their probability tables into the DBDD instance. The reported bikz is the
//! average over randomized trials (hence fractional, like the paper's 12.2).
//!
//! Run with `cargo run --release -p reveal-bench --bin table3_hints_cost`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reveal_attack::rounded_gaussian_prior;
use reveal_bench::{paper_device, train_attacker, Scale, PAPER_N};
use reveal_hints::{
    fold_decisions, DbddInstance, HintDecision, HintPolicy, LweParameters, Posterior,
};
use std::collections::BTreeMap;

/// Collects measured posteriors bucketed by the true secret value.
fn measure_posteriors(scale: Scale, seed: u64) -> BTreeMap<i64, Vec<Posterior>> {
    let (profile_runs, attack_runs, n) = scale.attack_workload();
    let device = paper_device(n, 0.05);
    let attack = train_attacker(&device, profile_runs, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xACE);
    let mut buckets: BTreeMap<i64, Vec<Posterior>> = BTreeMap::new();
    for _ in 0..attack_runs {
        let capture = device.capture_fresh(&mut rng).expect("capture");
        let Ok(result) = attack.attack_trace_expecting(&capture.run.capture.samples, n) else {
            continue;
        };
        for (est, &truth) in result.coefficients.iter().zip(&capture.values) {
            if let Ok(p) = Posterior::new(est.probabilities.clone()) {
                buckets.entry(truth).or_default().push(p);
            }
        }
    }
    buckets
}

fn main() {
    let scale = Scale::from_env();
    let params = LweParameters::seal_128_paper();
    let baseline = DbddInstance::from_lwe(&params).estimate();
    let policy = HintPolicy::seal_paper();

    println!("Table III: cost of attack with/without hints, SEAL-128 ({scale:?})\n");
    println!("collecting measured probability tables from single-trace attacks …");
    let buckets = measure_posteriors(scale, 3);
    let measured: usize = buckets.values().map(Vec::len).sum();
    println!(
        "{measured} measurements across {} secret values",
        buckets.len()
    );

    // Framework trials: fresh secrets, random measurement selection.
    let prior = rounded_gaussian_prior(3.19, 41);
    let trials = match scale {
        Scale::Quick => 3,
        Scale::Standard => 8,
        Scale::Full => 20,
    };
    let mut rng = StdRng::seed_from_u64(31337);
    let mut bikz_trials = Vec::new();
    let mut perfect_total = 0usize;
    let mut approx_total = 0usize;
    for _ in 0..trials {
        let mut decisions = Vec::with_capacity(PAPER_N);
        for _ in 0..PAPER_N {
            // Generate a secret value from the sampler's distribution.
            let u: f64 = rng.gen();
            let mut acc = 0.0;
            let mut secret = 0i64;
            for &(v, p) in &prior {
                acc += p;
                if acc >= u {
                    secret = v;
                    break;
                }
            }
            // Select a measurement for that value uniformly at random.
            let posterior = match buckets.get(&secret) {
                Some(list) if !list.is_empty() => list[rng.gen_range(0..list.len())].clone(),
                // Values never observed in the attack runs (|v| > 14-ish)
                // would in practice be classified by their sign/extreme
                // templates; treat them as the prior restricted to the sign.
                _ => {
                    let restricted: Vec<(i64, f64)> = prior
                        .iter()
                        .filter(|(v, _)| v.signum() == secret.signum())
                        .copied()
                        .collect();
                    Posterior::new(restricted).expect("valid prior slice")
                }
            };
            decisions.push(policy.decide(posterior.mode(), posterior.variance()));
        }
        let (estimate, summary) = fold_decisions(&params, decisions).expect("hints");
        perfect_total += summary.perfect;
        approx_total += summary.approximate;
        bikz_trials.push(estimate.bikz);
    }
    let with_hints = bikz_trials.iter().sum::<f64>() / bikz_trials.len() as f64;
    let with_hints_bits = reveal_hints::bikz_to_bits(with_hints);

    // Third row: Table-II-grade hints. The paper's framework input (its
    // Table II) reports per-coefficient probabilities "very close to 1" for
    // every secret, i.e. every coefficient enters as a perfect hint — that
    // is what produces the 12.2-bikz complete break. Our simulated bench is
    // more conservative for positive coefficients (their Hamming weights
    // collide; see Table I in both the paper and our reproduction), so we
    // report both.
    let (table_ii_grade, _) =
        fold_decisions(&params, [HintDecision::Perfect { value: 0 }; PAPER_N]).expect("fresh");

    println!("\n+--------------------------------------------+-----------+");
    println!("|                                            |  SEAL-128 |");
    println!("+--------------------------------------------+-----------+");
    println!(
        "| Attack without hints (bikz)                | {:>9.2} |",
        baseline.bikz
    );
    println!(
        "| Attack with measured hints (bikz)          | {:>9.2} |",
        with_hints
    );
    println!(
        "| Attack with Table-II-grade hints (bikz)    | {:>9.2} |",
        table_ii_grade.bikz
    );
    println!("+--------------------------------------------+-----------+");
    println!("\npaper reference:  382.25 without hints, 12.2 with hints");
    println!(
        "security level:   2^{:.1} -> 2^{:.1} (measured) / 2^{:.1} (Table-II-grade; paper: 2^4.4)",
        baseline.bits, with_hints_bits, table_ii_grade.bits
    );
    println!(
        "hints per trial (avg): {:.0} perfect, {:.0} approximate of {PAPER_N} coefficients",
        perfect_total as f64 / trials as f64,
        approx_total as f64 / trials as f64
    );
    println!(
        "\nnote: the paper's Table II assigns probability ≈1 to every selected\n         measurement, turning all coefficients into perfect hints (-> 12.2 bikz);\n         our leakage model keeps the positive-branch Hamming-weight collisions\n         its own Table I exhibits, so the measured row is more conservative."
    );

    assert!(
        (baseline.bikz - 382.25).abs() < 12.0,
        "no-hint baseline {:.2} must sit near the paper's 382.25",
        baseline.bikz
    );
    assert!(
        table_ii_grade.bikz < 40.0,
        "Table-II-grade hints must be a complete break, got {:.2}",
        table_ii_grade.bikz
    );
    assert!(
        with_hints < baseline.bikz - 80.0,
        "measured hints must collapse a large part of the security margin"
    );
}
