//! Point-of-interest (POI) selection for template attacks.
//!
//! The paper uses the sum-of-squared-differences (SOSD) method \[30\] to find
//! the samples with the highest inter-class leakage; SOST (the
//! variance-normalized variant) and plain inter-class variance are provided
//! for the ablation experiments.

use crate::trace::TraceSet;
use std::fmt;

/// The selection statistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoiMethod {
    /// Sum of squared differences of class means (the paper's choice).
    Sosd,
    /// SOSD normalized by the summed class variances (a T-test statistic).
    Sost,
    /// Variance of the class means.
    MeanVariance,
}

/// Errors from POI selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoiError {
    /// Fewer than two classes in the profiling set.
    NotEnoughClasses(usize),
    /// The profiling set was empty.
    EmptySet,
    /// The statistic is NaN or infinite at `sample` (a non-finite sample
    /// in a labelled trace, or an overflow).
    NonFinite { sample: usize },
}

impl fmt::Display for PoiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoiError::NotEnoughClasses(n) => {
                write!(f, "POI selection needs at least 2 classes, got {n}")
            }
            PoiError::EmptySet => write!(f, "POI selection on an empty trace set"),
            PoiError::NonFinite { sample } => {
                write!(f, "POI statistic is not finite at sample {sample}")
            }
        }
    }
}

impl std::error::Error for PoiError {}

/// Computes the per-sample selection statistic over a labelled trace set.
///
/// One pass over the set sums each labelled trace into its label's row of
/// a flat `labels × len` buffer; dividing a row by its count gives the
/// label's mean with [`TraceSet::mean`]'s arithmetic (the label's traces
/// summed in set order from 0.0), so the statistic is bit-identical to
/// one computed from per-label subsets. Only [`PoiMethod::Sost`] reads the
/// variances, in a second pass.
///
/// # Errors
///
/// Fails when the set is empty, has fewer than two labels, or the
/// statistic is not finite somewhere.
pub fn leakage_statistic(set: &TraceSet, method: PoiMethod) -> Result<Vec<f64>, PoiError> {
    if set.is_empty() {
        return Err(PoiError::EmptySet);
    }
    let labels = set.labels();
    if labels.len() < 2 {
        return Err(PoiError::NotEnoughClasses(labels.len()));
    }
    let len = set.trace_len();
    let class_of = |label: i64| {
        let (Ok(class) | Err(class)) = labels.binary_search(&label);
        class
    };
    let labelled = || {
        set.iter()
            .filter_map(|t| t.label().map(|l| (class_of(l), t.samples())))
    };
    let mut counts = vec![0usize; labels.len()];
    let mut means = vec![0.0; labels.len() * len];
    for (class, samples) in labelled() {
        counts[class] += 1;
        for (m, s) in means[class * len..][..len].iter_mut().zip(samples) {
            *m += s;
        }
    }
    divide_rows(&mut means, len, &counts);
    let means: Vec<&[f64]> = means.chunks_exact(len.max(1)).collect();

    let mut stat = vec![0.0; len];
    match method {
        PoiMethod::Sosd => {
            for (i, a) in means.iter().enumerate() {
                for b in &means[i + 1..] {
                    for ((s, x), y) in stat.iter_mut().zip(*a).zip(*b) {
                        let d = x - y;
                        *s += d * d;
                    }
                }
            }
        }
        PoiMethod::Sost => {
            let mut vars = vec![0.0; labels.len() * len];
            for (class, samples) in labelled() {
                let row = vars[class * len..][..len].iter_mut();
                for ((v, s), m) in row.zip(samples).zip(means[class]) {
                    let d = s - m;
                    *v += d * d;
                }
            }
            divide_rows(&mut vars, len, &counts);
            let vars: Vec<&[f64]> = vars.chunks_exact(len.max(1)).collect();
            for i in 0..means.len() {
                for j in i + 1..means.len() {
                    for (t, s) in stat.iter_mut().enumerate() {
                        let d = means[i][t] - means[j][t];
                        let v = vars[i][t] + vars[j][t];
                        *s += d * d / v.max(1e-12);
                    }
                }
            }
        }
        PoiMethod::MeanVariance => {
            let k = means.len() as f64;
            for (t, s) in stat.iter_mut().enumerate() {
                let grand = means.iter().map(|m| m[t]).sum::<f64>() / k;
                *s = means.iter().map(|m| (m[t] - grand).powi(2)).sum::<f64>() / k;
            }
        }
    }
    match stat.iter().position(|s| !s.is_finite()) {
        Some(sample) => Err(PoiError::NonFinite { sample }),
        None => Ok(stat),
    }
}

/// Divides each `len`-sample row of `rows` by its class's trace count.
fn divide_rows(rows: &mut [f64], len: usize, counts: &[usize]) {
    for (row, &count) in rows.chunks_exact_mut(len.max(1)).zip(counts) {
        let n = count as f64;
        for x in row {
            *x /= n;
        }
    }
}

/// Selects up to `count` POIs: the highest-statistic samples subject to a
/// minimum spacing (to avoid redundant neighbours), returned in ascending
/// index order.
///
/// # Errors
///
/// Propagates statistic-computation failures.
pub fn select_pois(
    set: &TraceSet,
    method: PoiMethod,
    count: usize,
    min_spacing: usize,
) -> Result<Vec<usize>, PoiError> {
    let stat = leakage_statistic(set, method)?;
    Ok(select_pois_from_statistic(&stat, count, min_spacing))
}

/// Greedy top-k selection with spacing on a precomputed statistic.
///
/// Candidates are ranked by [`f64::total_cmp`], highest first, ties in
/// index order; a NaN entry cannot break the sort (a positive NaN ranks
/// above `+∞`, a negative one below `-∞`).
pub fn select_pois_from_statistic(stat: &[f64], count: usize, min_spacing: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..stat.len()).collect();
    order.sort_by(|&a, &b| stat[b].total_cmp(&stat[a]));
    let mut chosen: Vec<usize> = Vec::with_capacity(count);
    for idx in order {
        if chosen.len() >= count {
            break;
        }
        if chosen
            .iter()
            .all(|&c| c.abs_diff(idx) >= min_spacing.max(1))
        {
            chosen.push(idx);
        }
    }
    chosen.sort_unstable();
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reference statistic: each label's subset cloned out with
    /// [`TraceSet::with_label`], then [`TraceSet::mean`] and
    /// [`TraceSet::variance`] per label.
    fn leakage_statistic_reference(set: &TraceSet, method: PoiMethod) -> Vec<f64> {
        let len = set.trace_len();
        let class_stats: Vec<(Vec<f64>, Vec<f64>)> = set
            .labels()
            .iter()
            .map(|&l| {
                let sub = set.with_label(l);
                (sub.mean(), sub.variance())
            })
            .collect();
        let mut stat = vec![0.0; len];
        match method {
            PoiMethod::Sosd => {
                for i in 0..class_stats.len() {
                    for j in i + 1..class_stats.len() {
                        for t in 0..len {
                            let d = class_stats[i].0[t] - class_stats[j].0[t];
                            stat[t] += d * d;
                        }
                    }
                }
            }
            PoiMethod::Sost => {
                for i in 0..class_stats.len() {
                    for j in i + 1..class_stats.len() {
                        for t in 0..len {
                            let d = class_stats[i].0[t] - class_stats[j].0[t];
                            let v = class_stats[i].1[t] + class_stats[j].1[t];
                            stat[t] += d * d / v.max(1e-12);
                        }
                    }
                }
            }
            PoiMethod::MeanVariance => {
                let k = class_stats.len() as f64;
                for t in 0..len {
                    let grand = class_stats.iter().map(|(m, _)| m[t]).sum::<f64>() / k;
                    stat[t] = class_stats
                        .iter()
                        .map(|(m, _)| (m[t] - grand).powi(2))
                        .sum::<f64>()
                        / k;
                }
            }
        }
        stat
    }

    /// The reference ranking: a stable sort by `partial_cmp`.
    fn select_pois_reference(stat: &[f64], count: usize, min_spacing: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..stat.len()).collect();
        order.sort_by(|&a, &b| {
            stat[b]
                .partial_cmp(&stat[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut chosen: Vec<usize> = Vec::new();
        for idx in order {
            if chosen.len() < count
                && chosen
                    .iter()
                    .all(|&c| c.abs_diff(idx) >= min_spacing.max(1))
            {
                chosen.push(idx);
            }
        }
        chosen.sort_unstable();
        chosen
    }

    /// `traces` traces of `len` samples over magnitudes 1e-3..1e3, each
    /// labelled with one of `labels` labels (unlabelled with probability
    /// `unlabelled`), in random order.
    fn random_set(seed: u64, traces: usize, len: usize, labels: i64, unlabelled: f64) -> TraceSet {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..traces)
            .map(|_| {
                let samples = (0..len)
                    .map(|_| {
                        let scale = 10f64.powi(rng.gen_range(-3..4));
                        (rng.gen::<f64>() - 0.5) * scale
                    })
                    .collect();
                if rng.gen_bool(unlabelled) {
                    Trace::new(samples)
                } else {
                    Trace::labelled(samples, rng.gen_range(0..labels) * 3 - 7)
                }
            })
            .collect()
    }

    /// Two classes that differ only at samples 5 and 20.
    fn two_class_set() -> TraceSet {
        let mut set = TraceSet::new();
        for rep in 0..20 {
            let jitter = (rep as f64) * 1e-3;
            let mut a = vec![1.0 + jitter; 32];
            let mut b = vec![1.0 - jitter; 32];
            a[5] = 4.0;
            b[5] = 0.0;
            a[20] = 3.0;
            b[20] = 1.0;
            set.push(Trace::labelled(a, 0));
            set.push(Trace::labelled(b, 1));
        }
        set
    }

    #[test]
    fn sosd_peaks_at_discriminating_samples() {
        let set = two_class_set();
        let stat = leakage_statistic(&set, PoiMethod::Sosd).unwrap();
        let max_idx = stat
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(max_idx, 5);
        assert!(stat[20] > stat[0] * 100.0);
    }

    #[test]
    fn all_methods_find_the_pois() {
        let set = two_class_set();
        for method in [PoiMethod::Sosd, PoiMethod::Sost, PoiMethod::MeanVariance] {
            let pois = select_pois(&set, method, 2, 3).unwrap();
            assert_eq!(pois, vec![5, 20], "method {method:?}");
        }
    }

    #[test]
    fn spacing_is_respected() {
        // A single wide peak: spacing forces picks apart.
        let mut stat = vec![0.0; 50];
        for (i, s) in stat.iter_mut().enumerate().take(30).skip(10) {
            *s = 100.0 - (i as f64 - 20.0).abs();
        }
        let pois = select_pois_from_statistic(&stat, 3, 5);
        assert_eq!(pois.len(), 3);
        for w in pois.windows(2) {
            assert!(w[1] - w[0] >= 5);
        }
        assert!(pois.contains(&20));
    }

    #[test]
    fn requesting_more_pois_than_available() {
        let stat = vec![1.0, 2.0, 3.0];
        let pois = select_pois_from_statistic(&stat, 10, 1);
        assert_eq!(pois, vec![0, 1, 2]);
    }

    #[test]
    fn errors_on_degenerate_sets() {
        assert_eq!(
            leakage_statistic(&TraceSet::new(), PoiMethod::Sosd),
            Err(PoiError::EmptySet)
        );
        let mut one_class = TraceSet::new();
        one_class.push(Trace::labelled(vec![1.0; 4], 7));
        assert_eq!(
            leakage_statistic(&one_class, PoiMethod::Sosd),
            Err(PoiError::NotEnoughClasses(1))
        );
        let mut unlabelled = TraceSet::new();
        unlabelled.push(Trace::new(vec![1.0; 4]));
        assert_eq!(
            leakage_statistic(&unlabelled, PoiMethod::Sosd),
            Err(PoiError::NotEnoughClasses(0))
        );
    }

    /// 60 windows of 3 classes; window 17 has a NaN at sample 9.
    fn set_with_one_nan() -> TraceSet {
        let mut traces = random_set(60, 60, 24, 3, 0.0).traces().to_vec();
        traces[17].samples_mut()[9] = f64::NAN;
        traces.into_iter().collect()
    }

    #[test]
    fn non_finite_sample_is_a_typed_error() {
        let set = set_with_one_nan();
        for method in [PoiMethod::Sosd, PoiMethod::Sost, PoiMethod::MeanVariance] {
            assert_eq!(
                select_pois(&set, method, 10, 2),
                Err(PoiError::NonFinite { sample: 9 }),
                "method {method:?}"
            );
        }
    }

    #[test]
    fn nan_statistic_entries_do_not_break_the_ranking() {
        let mut rng = StdRng::seed_from_u64(20);
        for _ in 0..200 {
            let stat: Vec<f64> = (0..100)
                .map(|_| match rng.gen_range(0..10) {
                    0 => f64::NAN,
                    1 => -f64::NAN,
                    _ => rng.gen::<f64>() * 5.0,
                })
                .collect();
            let pois = select_pois_from_statistic(&stat, 10, 2);
            assert_eq!(pois.len(), 10);
            assert!(pois.windows(2).all(|w| w[1] - w[0] >= 2), "{pois:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn prop_statistic_matches_per_label_reference_bit_for_bit(
            seed in any::<u64>(),
            traces in 1usize..48,
            len in 1usize..=40,
            labels in 1i64..=6,
            unlabelled in 0.0f64..0.3,
        ) {
            let set = random_set(seed, traces, len, labels, unlabelled);
            for method in [PoiMethod::Sosd, PoiMethod::Sost, PoiMethod::MeanVariance] {
                let distinct = set.labels().len();
                match leakage_statistic(&set, method) {
                    Ok(stat) => {
                        let reference = leakage_statistic_reference(&set, method);
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        prop_assert_eq!(bits(&stat), bits(&reference), "method {:?}", method);
                    }
                    Err(e) => prop_assert_eq!(e, PoiError::NotEnoughClasses(distinct)),
                }
            }
        }

        #[test]
        fn prop_ranking_matches_partial_cmp_reference(
            stat in proptest::collection::vec(0u8..6, 1..60),
            count in 0usize..12,
            min_spacing in 0usize..4,
        ) {
            // Few distinct values, so ties are common.
            let stat: Vec<f64> = stat.iter().map(|&v| f64::from(v) * 0.25).collect();
            prop_assert_eq!(
                select_pois_from_statistic(&stat, count, min_spacing),
                select_pois_reference(&stat, count, min_spacing)
            );
        }
    }

    #[test]
    fn sost_downweights_noisy_samples() {
        // Sample 3: big mean gap but huge variance. Sample 7: smaller gap,
        // tiny variance. SOST must rank 7 above 3.
        let mut set = TraceSet::new();
        for rep in 0..40 {
            let noise = if rep % 2 == 0 { 3.0 } else { -3.0 };
            let mut a = vec![0.0; 10];
            let mut b = vec![0.0; 10];
            a[3] = 2.0 + noise;
            b[3] = -2.0 + noise;
            a[7] = 0.5 + 0.01 * noise;
            b[7] = -0.5 + 0.01 * noise;
            set.push(Trace::labelled(a, 0));
            set.push(Trace::labelled(b, 1));
        }
        let sost = leakage_statistic(&set, PoiMethod::Sost).unwrap();
        assert!(sost[7] > sost[3], "sost[7]={} sost[3]={}", sost[7], sost[3]);
    }
}
