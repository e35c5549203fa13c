//! Standalone use of the LWE-with-hints estimator: how much security do
//! SEAL-style parameter sets lose as side-channel hints of varying quality
//! accumulate? Reproduces the Table III / Table IV methodology across ring
//! degrees.
//!
//! Run with `cargo run --release --example security_estimator`.

use reveal_hints::{
    bikz_to_bits, fold_decisions, DbddInstance, HintDecision, HintPolicy, LweParameters, Posterior,
};

fn estimate_with_confidence(params: &LweParameters, confidence: f64, sigma: f64) -> f64 {
    let decision = if confidence >= 1.0 {
        HintDecision::Perfect { value: 1 }
    } else {
        let policy = HintPolicy {
            prior_variance: sigma * sigma,
            ..HintPolicy::seal_paper()
        };
        // A two-candidate posterior at the given confidence for every
        // coefficient (adjacent values, the common confusion).
        let posterior =
            Posterior::new(vec![(1, confidence), (2, 1.0 - confidence)]).expect("valid posterior");
        policy.decide(posterior.mode(), posterior.variance())
    };
    let decisions = std::iter::repeat_n(decision, params.m);
    let (estimate, _) = fold_decisions(params, decisions).expect("hints apply");
    estimate.bikz
}

fn main() {
    println!("LWE-with-hints security estimates for SEAL-style rings (σ = 3.2)\n");
    println!(
        "{:>6} {:>12} | {:>14} | {:>10} {:>10} {:>10} {:>10}",
        "n", "q", "no hints", "conf=0.7", "conf=0.9", "conf=0.99", "perfect"
    );
    println!("{}", "-".repeat(86));
    // (n, q): the paper's set plus larger NTT-friendly q at higher degrees
    // (illustrative single-prime settings).
    let sets: [(usize, f64); 4] = [
        (1024, 132120577.0),
        (2048, 1.8014398509481984e16),                 // ~2^54
        (4096, 6.489103637461917e32f64.min(f64::MAX)), // ~2^109 (as float)
        (8192, 4.211e65),                              // ~2^218
    ];
    for (n, q) in sets {
        let params = LweParameters::seal_like(n, q, 3.2);
        let base = DbddInstance::from_lwe(&params).estimate();
        let c70 = estimate_with_confidence(&params, 0.7, 3.2);
        let c90 = estimate_with_confidence(&params, 0.9, 3.2);
        let c99 = estimate_with_confidence(&params, 0.99, 3.2);
        let perfect = estimate_with_confidence(&params, 1.0, 3.2);
        println!(
            "{:>6} {:>12.4e} | {:>7.2} bikz  | {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            n, q, base.bikz, c70, c90, c99, perfect
        );
        println!(
            "{:>6} {:>12} | {:>7.1} bits  | {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            "",
            "",
            base.bits,
            bikz_to_bits(c70),
            bikz_to_bits(c90),
            bikz_to_bits(c99),
            bikz_to_bits(perfect)
        );
    }
    println!(
        "\nReading: the paper's SEAL-128 row drops from ≈380 bikz (2^128) to \
         single digits once every coefficient is hinted — a complete break."
    );
}
