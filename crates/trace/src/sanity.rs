//! Robust sanity statistics for degraded acquisitions: finiteness checks,
//! median / median-absolute-deviation (MAD) outlier detection, and a robust
//! per-trace noise estimate.
//!
//! These are the building blocks of the self-healing attack driver
//! (`reveal-attack`'s `robust` module): burst lengths and ladder-window
//! levels are screened with MAD outlier flags, and the noise estimate feeds
//! the confidence derating that gates the hint-degradation ladder. MAD is
//! used instead of mean/σ throughout because a single glitch spike or a
//! merged burst would drag a moment-based screen past its own outliers.
//!
//! Every order statistic is a linear-time selection, not a sort.
//! [`median_in_place`] and [`mad_in_place`] are the in-place primitives
//! underneath: a caller screening many windows refills one buffer instead
//! of allocating per window.

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

/// The `p`-th percentile (`0.0 ≤ p ≤ 100.0`, clamped; a NaN `p` is treated
/// as the median request) of a slice by linear interpolation between order
/// statistics (0.0 for an empty slice). `percentile(xs, 50.0)` agrees with
/// [`median`] for every length; the `p = 0` / `p = 100` extremes return
/// the exact minimum / maximum order statistic with no interpolation
/// arithmetic in between.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    // A NaN p would poison the rank arithmetic below (NaN survives clamp);
    // the least surprising robust reading of "no particular percentile" is
    // the median.
    let p = if p.is_nan() {
        50.0
    } else {
        p.clamp(0.0, 100.0)
    };
    let mut buf = xs.to_vec();
    let last = buf.len() - 1;
    // p = 0 and p = 100 put the rank exactly on 0 and `last`.
    let rank = (p / 100.0) * last as f64;
    let lo = rank.floor() as usize;
    let w = rank - lo as f64;
    let (_, lower, right) = buf.select_nth_unstable_by(lo, numeric_order);
    let lower = *lower;
    if w == 0.0 {
        return lower;
    }
    // A fractional rank sits below `last`, so the next order statistic is
    // the smallest element of the right partition.
    let upper = right.iter().copied().min_by(numeric_order).unwrap_or(lower);
    lower * (1.0 - w) + upper * w
}

/// The median absolute deviation from the median (0.0 for an empty slice).
pub fn median_abs_deviation(xs: &[f64]) -> f64 {
    mad_in_place(&mut xs.to_vec()).1
}

/// Flags entries whose robust z-score `|x − median| / (MAD·1.4826)` exceeds
/// `k`. The MAD is floored at `scale_floor` so an (almost) constant
/// population does not flag every harmless wiggle.
pub fn mad_outlier_flags(xs: &[f64], k: f64, scale_floor: f64) -> Vec<bool> {
    let (med, mad) = mad_in_place(&mut xs.to_vec());
    let scale = (mad * MAD_TO_SIGMA).max(scale_floor);
    xs.iter().map(|x| (x - med).abs() > k * scale).collect()
}

/// Robust estimate of the white-noise σ riding on a trace: the MAD of the
/// first differences, scaled to σ (differencing doubles the noise variance
/// and suppresses the slow signal component, so glitches and bursts barely
/// move it).
pub fn robust_noise_sigma(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let mut diffs: Vec<f64> = samples.windows(2).map(|w| w[1] - w[0]).collect();
    mad_in_place(&mut diffs).1 * MAD_TO_SIGMA / std::f64::consts::SQRT_2
}

#[cfg(test)]
mod tests {
    use super::*;
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

        pub fn percentile(xs: &[f64], p: f64) -> f64 {
            if xs.is_empty() {
                return 0.0;
            }
            let p = if p.is_nan() {
                50.0
            } else {
                p.clamp(0.0, 100.0)
            };
            let sorted = sorted(xs);
            let last = sorted.len() - 1;
            if last == 0 || p == 0.0 {
                return sorted[0];
            }
            if p == 100.0 {
                return sorted[last];
            }
            let rank = (p / 100.0) * last as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            if lo == hi {
                sorted[lo]
            } else {
                let w = rank - lo as f64;
                sorted[lo] * (1.0 - w) + sorted[hi] * w
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

        pub fn mad_outlier_flags(xs: &[f64], k: f64, scale_floor: f64) -> Vec<bool> {
            let med = median(xs);
            let scale = (median_abs_deviation(xs) * MAD_TO_SIGMA).max(scale_floor);
            xs.iter().map(|x| (x - med).abs() > k * scale).collect()
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
            p in 0.0f64..100.0,
            k in 0.5f64..8.0,
        ) {
            let xs: Vec<f64> = codes.iter().map(|&c| finite_sample(c, SCALES[scale])).collect();
            prop_assert_eq!(median(&xs), oracle::median(&xs));
            prop_assert_eq!(median_abs_deviation(&xs), oracle::median_abs_deviation(&xs));
            for p in [0.0, p, 50.0, 100.0] {
                prop_assert_eq!(percentile(&xs, p), oracle::percentile(&xs, p), "p {}", p);
            }
            for floor in [0.0, 1e-9] {
                prop_assert_eq!(
                    mad_outlier_flags(&xs, k, floor),
                    oracle::mad_outlier_flags(&xs, k, floor)
                );
            }
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
        let _ = percentile(&trace, 30.0);
        let _ = mad_outlier_flags(&trace, 6.0, 1e-9);
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
    fn percentile_interpolates_and_matches_median() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 50.0), median(&xs));
        // rank 0.25·3 = 0.75 → 1.0 + 0.75·(2.0 − 1.0).
        assert_eq!(percentile(&xs, 25.0), 1.75);
        // Out-of-range p clamps instead of panicking.
        assert_eq!(percentile(&xs, -5.0), 1.0);
        assert_eq!(percentile(&xs, 400.0), 4.0);
        let odd = [9.0, 5.0, 1.0];
        assert_eq!(percentile(&odd, 50.0), median(&odd));
    }

    #[test]
    fn percentile_edge_cases_are_explicit() {
        // Empty slice: the documented 0.0 sentinel, at every p.
        assert_eq!(percentile(&[], 0.0), 0.0);
        assert_eq!(percentile(&[], 100.0), 0.0);
        assert_eq!(percentile(&[], f64::NAN), 0.0);
        // Single element: that element, at every p including the extremes.
        for p in [0.0, 13.7, 50.0, 100.0, -3.0, 250.0, f64::NAN] {
            assert_eq!(percentile(&[42.5], p), 42.5);
        }
        // p = 0 / p = 100 are the exact order-statistic extremes.
        let xs = [2.0, -7.5, 11.0, 0.25];
        assert_eq!(percentile(&xs, 0.0), -7.5);
        assert_eq!(percentile(&xs, 100.0), 11.0);
        // NaN p degrades to the median instead of poisoning the rank.
        assert_eq!(percentile(&xs, f64::NAN), median(&xs));
        // Infinite p clamps like any out-of-range value.
        assert_eq!(percentile(&xs, f64::INFINITY), 11.0);
        assert_eq!(percentile(&xs, f64::NEG_INFINITY), -7.5);
        // Two elements interpolate linearly across the whole range.
        assert_eq!(percentile(&[10.0, 20.0], 25.0), 12.5);
        assert_eq!(percentile(&[10.0, 20.0], 75.0), 17.5);
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        let xs = [10.0, 10.1, 9.9, 10.0, 1000.0];
        assert!(median_abs_deviation(&xs) < 0.2);
        let flags = mad_outlier_flags(&xs, 6.0, 1e-9);
        assert_eq!(flags, vec![false, false, false, false, true]);
    }

    #[test]
    fn mad_floor_suppresses_constant_population_noise() {
        let xs = [5.0, 5.0 + 1e-12, 5.0 - 1e-12, 5.0];
        let flags = mad_outlier_flags(&xs, 6.0, 0.01);
        assert!(flags.iter().all(|f| !f));
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
