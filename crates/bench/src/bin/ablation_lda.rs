// Generator binaries must fail with a message naming the broken stage,
// not a bare unwrap panic; tests keep their unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! **Ablation A5**: POI templates versus Fisher-LDA templates on the same
//! ladder windows — the dimensionality-reduction alternative to the paper's
//! SOSD point picking (\[36\] discusses the trade-off).
//!
//! Run with `cargo run --release -p reveal-bench --bin ablation_lda`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use reveal_attack::{extract_ladder_windows, AttackConfig, Device};
use reveal_bench::{write_artifact, Scale, PAPER_Q};
use reveal_rv32::power::PowerModelConfig;
use reveal_template::{LdaProjection, TemplateSet};
use reveal_trace::{select_pois, PoiMethod, Trace, TraceSet};

/// Gathers labelled ladder windows from chosen-value captures.
fn gather(
    device: &Device,
    runs: usize,
    config: &AttackConfig,
    rng: &mut StdRng,
) -> Vec<(i64, Vec<f64>)> {
    let n = device.degree();
    let labels: Vec<i64> = (-14..=14).collect();
    let mut out = Vec::new();
    for run in 0..runs {
        let mut values: Vec<i64> = (0..n)
            .map(|i| labels[(i + run * n) % labels.len()])
            .collect();
        values.shuffle(rng);
        let Ok(cap) = device.capture_chosen(&values, rng) else {
            continue;
        };
        let Ok(windows) = extract_ladder_windows(&cap.run.capture.samples, config) else {
            continue;
        };
        if windows.len() != n {
            continue;
        }
        for (w, &v) in windows.into_iter().zip(&values) {
            out.push((v, w));
        }
    }
    out
}

fn accuracy_poi(train: &[(i64, Vec<f64>)], test: &[(i64, Vec<f64>)], pois: usize) -> f64 {
    let mut set = TraceSet::new();
    for (l, w) in train {
        set.push(Trace::labelled(w.clone(), *l));
    }
    let Ok(poi_idx) = select_pois(&set, PoiMethod::Sosd, pois, 2) else {
        return 0.0;
    };
    let Ok(templates) = TemplateSet::fit_trace_set(&set, &poi_idx, 1e-6) else {
        return 0.0;
    };
    let hits = test
        .iter()
        .filter(|(l, w)| {
            let obs: Vec<f64> = poi_idx.iter().map(|&i| w[i]).collect();
            templates.classify(&obs).map(|s| s.best_label()) == Ok(*l)
        })
        .count();
    hits as f64 / test.len().max(1) as f64
}

fn accuracy_lda(train: &[(i64, Vec<f64>)], test: &[(i64, Vec<f64>)], components: usize) -> f64 {
    let Ok(lda) = LdaProjection::fit(train, components, 1e-3) else {
        return 0.0;
    };
    let projected: Vec<(i64, Vec<f64>)> = train.iter().map(|(l, w)| (*l, lda.project(w))).collect();
    let Ok(templates) = TemplateSet::fit(&projected, 1e-9) else {
        return 0.0;
    };
    let hits = test
        .iter()
        .filter(|(l, w)| templates.classify(&lda.project(w)).map(|s| s.best_label()) == Ok(*l))
        .count();
    hits as f64 / test.len().max(1) as f64
}

fn main() {
    let scale = Scale::from_env();
    let (profile_runs, attack_runs, _) = scale.attack_workload();
    let n = 64;
    let device = Device::new(
        n,
        &[PAPER_Q],
        PowerModelConfig::default().with_noise_sigma(0.05),
    )
    .expect("device");
    let config = AttackConfig::default();
    let mut rng = StdRng::seed_from_u64(616);
    println!("Ablation: SOSD-POI templates vs Fisher-LDA templates ({scale:?}, n = {n})\n");

    let train = gather(&device, profile_runs, &config, &mut rng);
    let test = gather(&device, attack_runs.max(6), &config, &mut rng);
    println!(
        "{} training windows, {} test windows",
        train.len(),
        test.len()
    );

    println!("\n{:>22} {:>12}", "feature extraction", "value_acc");
    println!("{}", "-".repeat(38));
    let mut csv = String::from("features,value_acc\n");
    for pois in [6usize, 10, 16] {
        let acc = accuracy_poi(&train, &test, pois);
        println!("{:>22} {:>11.1}%", format!("SOSD-{pois} POIs"), 100.0 * acc);
        csv.push_str(&format!("sosd_{pois},{acc:.4}\n"));
    }
    for comps in [4usize, 8, 16] {
        let acc = accuracy_lda(&train, &test, comps);
        println!(
            "{:>22} {:>11.1}%",
            format!("LDA-{comps} comps"),
            100.0 * acc
        );
        csv.push_str(&format!("lda_{comps},{acc:.4}\n"));
    }
    write_artifact("ablation_lda.csv", &csv);
    println!(
        "\nreading: LDA condenses the whole {}-sample window into a handful of \
         discriminant directions and is competitive with hand-picked POIs — at \
         the cost of estimating a {}×{} scatter (the 'curse of dimensionality' \
         trade-off of [36]).",
        config.ladder_window, config.ladder_window, config.ladder_window
    );
}
