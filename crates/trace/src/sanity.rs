//! Robust sanity statistics for degraded acquisitions: finiteness checks,
//! median / median-absolute-deviation (MAD) statistics and a robust
//! per-trace noise estimate.
//!
//! These are the building blocks of the robust attack driver
//! (`reveal-attack`'s `robust` module): fit scores are screened with MAD
//! statistics, burst gains with medians, and the noise estimate feeds the
//! confidence derating that gates the hint-degradation ladder. MAD is used
//! instead of mean/σ throughout because a single glitch spike or a
//! misaligned window would drag a moment-based screen past its own
//! outliers.
//!
//! Every order statistic is a linear-time selection, not a sort.
//! [`median_in_place`] and [`mad_in_place`] are the in-place primitives: a
//! caller screening many bursts refills one buffer instead of allocating
//! per burst. [`robust_noise_sigma`] selects both of its medians with the
//! bracket selection of [`crate::order`], over differences computed on the
//! fly. The robust driver runs the burst selections only where an exact
//! bound cannot decide its screen.

use crate::order::bracketed_median;
use crate::segment::SegmentError;
use std::cmp::Ordering;

/// The consistency constant making MAD estimate σ for Gaussian data.
pub const MAD_TO_SIGMA: f64 = 1.4826;

/// Rejects empty or NaN/infinity-containing traces with a typed error.
///
/// # Errors
///
/// [`SegmentError::EmptyTrace`] on empty input,
/// [`SegmentError::NonFiniteSample`] (with the first offending index) on
/// NaN or infinite samples.
pub fn check_finite(samples: &[f64]) -> Result<(), SegmentError> {
    if samples.is_empty() {
        return Err(SegmentError::EmptyTrace);
    }
    match samples.iter().position(|s| !s.is_finite()) {
        Some(i) => Err(SegmentError::NonFiniteSample(i)),
        None => Ok(()),
    }
}

/// The order every statistic here selects by: numeric order through
/// `partial_cmp` (so `-0.0 == 0.0`), with NaN ranked above every number.
/// On finite inputs this is exactly the order the statistics have always
/// used; the NaN rank only makes it total, so a non-finite trace (whose
/// statistics the callers discard) cannot trip the selection's order checks.
fn numeric_order(a: &f64, b: &f64) -> Ordering {
    a.partial_cmp(b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// The median of `buf` by linear-time selection (0.0 for an empty slice),
/// reordering `buf` in place. Even lengths average the two central order
/// statistics; the lower one is the largest element of the selection's
/// left partition.
pub fn median_in_place(buf: &mut [f64]) -> f64 {
    if buf.is_empty() {
        return 0.0;
    }
    let mid = buf.len() / 2;
    let odd = buf.len() % 2 == 1;
    let (left, upper, _) = buf.select_nth_unstable_by(mid, numeric_order);
    let upper = *upper;
    if odd {
        upper
    } else {
        let lower = left.iter().copied().max_by(numeric_order).unwrap_or(upper);
        0.5 * (lower + upper)
    }
}

/// The median and the median absolute deviation of `buf`, by two
/// selections: select the median, overwrite `buf` with every element's
/// absolute deviation from it, select again. On return `buf` holds those
/// deviations in unspecified order. Both are 0.0 for an empty slice.
pub fn mad_in_place(buf: &mut [f64]) -> (f64, f64) {
    let med = median_in_place(buf);
    for x in buf.iter_mut() {
        *x = (*x - med).abs();
    }
    (med, median_in_place(buf))
}

/// The median of a slice (0.0 for an empty slice). Even lengths average the
/// two central order statistics.
pub fn median(xs: &[f64]) -> f64 {
    median_in_place(&mut xs.to_vec())
}

/// Robust estimate of the white-noise σ riding on a trace: the MAD of the
/// first differences, scaled to σ (differencing doubles the noise variance
/// and suppresses the slow signal component, so glitches and bursts barely
/// move it).
///
/// Both medians are bracketed selections over differences computed on the
/// fly ([`crate::order`]): no trace-length buffer, no full-domain
/// selection. On finite samples the estimate is bit-identical to
/// [`mad_in_place`] over the materialized differences; a trace with NaN or
/// infinite samples gets an unspecified estimate, never a panic.
pub fn robust_noise_sigma(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let len = samples.len() - 1;
    let diff = |j: usize| samples[j + 1] - samples[j];
    let (mut sample, mut inside) = (Vec::new(), Vec::new());
    let med = bracketed_median(len, diff, &mut sample, &mut inside);
    let mad = bracketed_median(len, |j| (diff(j) - med).abs(), &mut sample, &mut inside);
    mad * MAD_TO_SIGMA / std::f64::consts::SQRT_2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::tests::PALETTE;
    use crate::order::{sample_keys, sample_position, RankRun, SAMPLE};
    use proptest::prelude::*;

    /// The sort-based statistics the selection-based ones replaced, kept as
    /// the oracle they must match.
    mod oracle {
        use super::MAD_TO_SIGMA;

        fn sorted(xs: &[f64]) -> Vec<f64> {
            let mut sorted = xs.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            sorted
        }

        pub fn median(xs: &[f64]) -> f64 {
            if xs.is_empty() {
                return 0.0;
            }
            let sorted = sorted(xs);
            let mid = sorted.len() / 2;
            if sorted.len() % 2 == 1 {
                sorted[mid]
            } else {
                0.5 * (sorted[mid - 1] + sorted[mid])
            }
        }

        pub fn median_abs_deviation(xs: &[f64]) -> f64 {
            if xs.is_empty() {
                return 0.0;
            }
            let med = median(xs);
            let deviations: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
            median(&deviations)
        }

        pub fn robust_noise_sigma(samples: &[f64]) -> f64 {
            if samples.len() < 2 {
                return 0.0;
            }
            let diffs: Vec<f64> = samples.windows(2).map(|w| w[1] - w[0]).collect();
            median_abs_deviation(&diffs) * MAD_TO_SIGMA / std::f64::consts::SQRT_2
        }
    }

    /// Decodes one drawn code into a finite sample: three codes in four are
    /// small integers in `-4..=4` (duplicates, plateaus, zeros), the rest
    /// spread fractions; all times one of `SCALES`, down to the 1e-300 scale
    /// and through a negative scale that turns zeros into `-0.0`.
    fn finite_sample(code: u32, scale: f64) -> f64 {
        let value = if code.is_multiple_of(4) {
            f64::from(code >> 2) / 1e6 - 500.0
        } else {
            f64::from(code % 9) - 4.0
        };
        value * scale
    }

    const SCALES: [f64; 4] = [1.0, 1e-300, 3.5e7, -0.125];

    proptest! {
        #[test]
        fn prop_selection_statistics_match_sorted_oracle(
            codes in proptest::collection::vec(0u32..u32::MAX, 1..301),
            scale in 0usize..4,
        ) {
            let xs: Vec<f64> = codes.iter().map(|&c| finite_sample(c, SCALES[scale])).collect();
            prop_assert_eq!(median(&xs), oracle::median(&xs));
            prop_assert_eq!(
                mad_in_place(&mut xs.clone()),
                (oracle::median(&xs), oracle::median_abs_deviation(&xs))
            );
            prop_assert_eq!(
                robust_noise_sigma(&xs).to_bits(),
                oracle::robust_noise_sigma(&xs).to_bits()
            );
            // Odd and even lengths on every draw: drop the first sample.
            let tail = &xs[1..];
            prop_assert_eq!(median(tail), oracle::median(tail));
            prop_assert_eq!(
                robust_noise_sigma(tail).to_bits(),
                oracle::robust_noise_sigma(tail).to_bits()
            );
        }
    }

    /// The estimate before bracket selection: one MAD selection over the
    /// materialized differences.
    fn materialized_noise_sigma(samples: &[f64]) -> f64 {
        let mut diffs: Vec<f64> = samples.windows(2).map(|w| w[1] - w[0]).collect();
        mad_in_place(&mut diffs).1 * MAD_TO_SIGMA / std::f64::consts::SQRT_2
    }

    #[test]
    fn noise_sigma_matches_oracles_above_the_pivot_sample() {
        // Difference domains just above and a few times the pivot sample,
        // at both parities: both medians select through hashed positions.
        for len in [SAMPLE + 1, SAMPLE + 2, 9_999, 20_000] {
            let hash = |i: usize| reveal_par::derive_seed(11, i as u64);
            let noise = |i: usize| (hash(i) % 10_000) as f64 * 1e-3;
            let cases: Vec<Vec<f64>> = vec![
                vec![1.5; len],
                (0..len).map(|i| PALETTE[i % PALETTE.len()]).collect(),
                (0..len)
                    .map(|i| PALETTE[hash(i) as usize % PALETTE.len()])
                    .collect(),
                (0..len).map(noise).collect(),
                (0..len).map(|i| noise(i) * 1e-310).collect(),
                (0..len)
                    .map(|i| {
                        if i % 4 == 0 {
                            -0.0
                        } else {
                            (hash(i) % 5) as f64
                        }
                    })
                    .collect(),
                (0..len).map(|i| i as f64 * 0.5 + noise(i)).collect(),
            ];
            for (c, samples) in cases.iter().enumerate() {
                let got = robust_noise_sigma(samples).to_bits();
                let sorted = oracle::robust_noise_sigma(samples).to_bits();
                assert_eq!(got, sorted, "len {len}, case {c}");
                assert_eq!(got, materialized_noise_sigma(samples).to_bits());
            }
            // Differences overflowing to ±∞ and deviations to NaN: past the
            // sort oracle, still the materialized selection's bits.
            let extreme: Vec<f64> = (0..len)
                .map(|i| [f64::MAX, -f64::MAX, 0.0][hash(i) as usize % 3])
                .collect();
            assert_eq!(
                robust_noise_sigma(&extreme).to_bits(),
                materialized_noise_sigma(&extreme).to_bits()
            );
        }
    }

    #[test]
    fn missed_median_bracket_falls_back_exactly() {
        // Every pivot-sample position of the difference domain holds a
        // difference far above the rest, so the sampled median lies far
        // above the true one and the median bracket misses.
        let len = 3 * SAMPLE;
        let mut diffs: Vec<f64> = (0..len).map(|j| (j % 97) as f64).collect();
        for i in 0..SAMPLE {
            diffs[sample_position(i, len)] = 1e6 + i as f64;
        }
        let (mut sample, mut inside) = (Vec::new(), Vec::new());
        sample_keys(len, |j| diffs[j], &mut sample);
        let mut run = RankRun::new(len / 2 - 1, len / 2, len, &sample, &mut inside);
        for &d in &diffs {
            run.offer(d);
        }
        assert!(!run.hit(), "the planted sample must make the bracket miss");
        // Integer prefix sums, so the trace's differences are exactly `diffs`.
        let samples: Vec<f64> = std::iter::once(0.0)
            .chain(diffs.iter().scan(0.0, |acc, &d| {
                *acc += d;
                Some(*acc)
            }))
            .collect();
        assert_eq!(
            robust_noise_sigma(&samples).to_bits(),
            oracle::robust_noise_sigma(&samples).to_bits()
        );
    }

    #[test]
    fn in_place_primitives_leave_deviations_behind() {
        let mut buf = vec![4.0, -1.0, 10.0, 3.0];
        assert_eq!(median_in_place(&mut buf), 3.5);
        let mut buf = vec![4.0, -1.0, 10.0, 3.0, 3.0];
        let (med, mad) = mad_in_place(&mut buf);
        assert_eq!((med, mad), (3.0, 1.0));
        buf.sort_by(f64::total_cmp);
        assert_eq!(buf, vec![0.0, 0.0, 1.0, 4.0, 7.0]);
        assert_eq!(mad_in_place(&mut []), (0.0, 0.0));
    }

    #[test]
    fn statistics_of_non_finite_input_do_not_panic() {
        // The robust driver estimates the noise before segmentation rejects
        // a non-finite trace; the estimate is discarded, but must not panic.
        let mut trace: Vec<f64> = (0..500).map(|i| f64::from(i % 7)).collect();
        for i in (0..500).step_by(3) {
            trace[i] = if i % 2 == 0 { f64::NAN } else { f64::INFINITY };
        }
        let _ = robust_noise_sigma(&trace);
        let _ = median(&trace);
        let _ = mad_in_place(&mut trace.clone());
    }

    #[test]
    fn check_finite_catches_degenerate_inputs() {
        assert_eq!(check_finite(&[]), Err(SegmentError::EmptyTrace));
        assert_eq!(
            check_finite(&[1.0, f64::NAN]),
            Err(SegmentError::NonFiniteSample(1))
        );
        assert_eq!(
            check_finite(&[f64::INFINITY]),
            Err(SegmentError::NonFiniteSample(0))
        );
        assert_eq!(check_finite(&[0.0, -1.0]), Ok(()));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        let xs = [10.0, 10.1, 9.9, 10.0, 1000.0];
        let (med, mad) = mad_in_place(&mut xs.to_vec());
        assert_eq!(med, 10.0);
        assert!(mad < 0.2);
    }

    #[test]
    fn noise_sigma_tracks_injected_noise() {
        // Deterministic pseudo-noise on a slow ramp: the estimate must see
        // the fast component, not the ramp.
        let noisy: Vec<f64> = (0..4000u64)
            .map(|i| {
                let slow = i as f64 * 0.001;
                // splitmix64-style finalizer: adjacent indices decorrelate.
                let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let fast = (z % 1000) as f64 / 1000.0 - 0.5;
                slow + fast * 0.4
            })
            .collect();
        let sigma = robust_noise_sigma(&noisy);
        // Uniform(-0.2, 0.2) has σ ≈ 0.115.
        assert!(sigma > 0.05 && sigma < 0.25, "sigma {sigma}");
        assert_eq!(robust_noise_sigma(&[1.0]), 0.0);
        // Scaling the noise scales the estimate.
        let double: Vec<f64> = noisy.iter().map(|x| x * 2.0).collect();
        assert!(robust_noise_sigma(&double) > 1.5 * sigma);
    }
}
