//! Trace segmentation: locating each coefficient's sampling window inside a
//! full encryption trace.
//!
//! §III-C of the paper: the distribution-function calls produce
//! "distinguishable and visible peaks" in the power trace, one per outer-loop
//! iteration, and those peaks are the start/end indicators for each
//! coefficient window. Because the distribution call is time-variant, a fixed
//! stride cannot work — the windows must be found from the trace itself.
//!
//! The detector smooths the trace with a moving average, thresholds it
//! between its robust low and high levels, merges the resulting bursts, and
//! refines each burst's end on the raw trace; a coefficient's ladder window
//! starts at its burst's refined end.
//!
//! Two implementations return the same bursts: [`refined_bursts_into`], the
//! fused three-pass fast path every production caller runs, and the
//! materialized, sort-based oracle `refine_burst_ends(find_bursts(..))` it
//! is tested against.

use crate::order::{last_not_exceeding, sample_keys, total_order_key, RankRun};
use std::fmt;

/// Configuration of the peak-based segmenter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentConfig {
    /// Moving-average smoothing width in samples.
    pub smooth_window: usize,
    /// Threshold position between the robust low and high levels of the
    /// smoothed trace (0 = low level, 1 = high level). A mid-level
    /// threshold keeps working whatever fraction of the trace the bursts
    /// occupy — a mean+kσ rule does not.
    pub threshold_fraction: f64,
    /// Minimum burst length (samples) to count as a distribution-call peak.
    pub min_burst_len: usize,
    /// Bursts closer than this many samples are merged into one.
    pub merge_gap: usize,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        Self {
            smooth_window: 16,
            threshold_fraction: 0.55,
            min_burst_len: 24,
            merge_gap: 16,
        }
    }
}

/// Errors from segmentation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// The trace was empty.
    EmptyTrace,
    /// No burst exceeded the threshold.
    NoPeaksFound,
    /// The trace contains a NaN or infinite sample (acquisition glitch or a
    /// corrupted capture file); index of the first offender.
    NonFiniteSample(usize),
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::EmptyTrace => write!(f, "cannot segment an empty trace"),
            SegmentError::NoPeaksFound => write!(f, "no distribution-call peaks found"),
            SegmentError::NonFiniteSample(i) => {
                write!(f, "non-finite sample at index {i}")
            }
        }
    }
}

impl std::error::Error for SegmentError {}

/// Reusable buffers for the segmentation fast path: the prefix-sum vector,
/// the sorted pivot-sample keys, and the four bracket gathers of the
/// order-statistic selection. One scratch per worker keeps a capture
/// campaign's segmentation free of large per-call allocations.
#[derive(Debug, Clone, Default)]
pub struct SegmentScratch {
    prefix: Vec<f64>,
    sample: Vec<u64>,
    inside: [Vec<f64>; 4],
}

impl SegmentScratch {
    /// An empty scratch (buffers grow on first use and are then reused).
    pub fn new() -> Self {
        Self::default()
    }
}

/// The 5th and 95th percentile ranks of `len` items.
pub(crate) fn percentile_ranks(len: usize) -> (usize, usize) {
    ((len - 1) * 5 / 100, (len - 1) * 95 / 100)
}

/// The oracle's percentile computation — a full sort per trace.
fn percentiles_5_95_sorted(scratch: &mut [f64]) -> (f64, f64) {
    scratch.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let (lo_rank, hi_rank) = percentile_ranks(scratch.len());
    (scratch[lo_rank], scratch[hi_rank])
}

/// Moving-average smoothing (centered, edge-clamped).
///
/// # Errors
///
/// Fails on an empty trace or on NaN/infinite samples — a single NaN would
/// otherwise silently poison every averaged output around it.
pub fn smooth(samples: &[f64], window: usize) -> Result<Vec<f64>, SegmentError> {
    crate::sanity::check_finite(samples)?;
    if window <= 1 {
        return Ok(samples.to_vec());
    }
    let half = window / 2;
    let n = samples.len();
    // Prefix sums for O(n) averaging.
    let mut prefix = Vec::with_capacity(n + 1);
    let mut acc = 0.0;
    prefix.push(0.0);
    for &s in samples {
        acc += s;
        prefix.push(acc);
    }
    Ok((0..n)
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            (prefix[hi] - prefix[lo]) / (hi - lo) as f64
        })
        .collect())
}

/// The combined rank-`rank` smoothed value out of the interior candidate
/// run plus the clamped-window edge values — exactly what sorting the
/// materialized smoothed trace and indexing at `rank` would return.
///
/// `cand_diffs` holds the interior windowed *sums* at interior ranks
/// `rank - edges ..= rank`, ascending; `edge_vals` the sorted edge values.
/// There are only `edges` edge elements, so the combined rank-`rank`
/// element must be one of these candidates: every interior element of rank
/// below the run is `<=` the first candidate, and every edge value strictly
/// below the first candidate sits among them — together they fill exactly
/// the combined ranks below `(rank - edges) + e_low`. What remains is the
/// `q`-th smallest of the merge of the remaining edges and the candidates.
fn combined_statistic(cand_diffs: &[f64], denom: f64, edge_vals: &[f64], edges: usize) -> f64 {
    let candidates: Vec<f64> = cand_diffs.iter().map(|&d| d / denom).collect();
    let e_low = edge_vals.iter().filter(|&&v| v < candidates[0]).count();
    let q = edges - e_low;
    let mut a = e_low;
    let mut b = 0usize;
    let take_edge = |a: usize, b: usize| {
        a < edge_vals.len() && (b >= candidates.len() || edge_vals[a] <= candidates[b])
    };
    for _ in 0..q {
        if take_edge(a, b) {
            a += 1;
        } else {
            b += 1;
        }
    }
    if take_edge(a, b) {
        edge_vals[a]
    } else {
        candidates[b]
    }
}

/// Finds the high-power bursts (distribution-call peaks) on the
/// materialized smoothed trace, with sort-based percentiles: the oracle
/// [`refined_bursts_into`] is checked against, together with
/// [`refine_burst_ends`].
///
/// # Errors
///
/// Fails on empty, non-finite, or burst-free (e.g. all-constant) traces.
pub fn find_bursts(
    samples: &[f64],
    config: &SegmentConfig,
) -> Result<Vec<(usize, usize)>, SegmentError> {
    let smoothed = smooth(samples, config.smooth_window)?;
    // Robust low/high levels: 5th and 95th percentiles of the smoothed trace.
    let (lo, hi) = percentiles_5_95_sorted(&mut smoothed.clone());
    if hi - lo < 1e-12 {
        return Err(SegmentError::NoPeaksFound);
    }
    let threshold = lo + config.threshold_fraction * (hi - lo);
    bursts_from_flags(smoothed.iter().map(|&s| s > threshold), config)
}

/// Refines burst boundaries to cycle accuracy using the *raw* trace: the
/// moving-average edges of [`find_bursts`] jitter by a few samples with the
/// noise, which smears sample-exact leakage across template dimensions. A
/// burst's true end is the last run of `run_len` consecutive raw samples
/// above a high threshold (single data-dependent spikes outside the burst
/// cannot form such a run). The raw-trace percentiles come from a full
/// sort: this is the second half of the oracle.
pub fn refine_burst_ends(
    samples: &[f64],
    bursts: &[(usize, usize)],
    config: &SegmentConfig,
) -> Vec<(usize, usize)> {
    if samples.is_empty() {
        return bursts.to_vec();
    }
    let (lo, hi) = percentiles_5_95_sorted(&mut samples.to_vec());
    refine_with_levels(samples, bursts, config, lo, hi)
}

/// [`find_bursts`] followed by [`refine_burst_ends`], with every full-trace
/// pass shared between the two stages: the production segmenter. Returns
/// exactly what the two-stage composition returns.
///
/// # Errors
///
/// Same as [`find_bursts`].
pub fn refined_bursts_into(
    samples: &[f64],
    config: &SegmentConfig,
    scratch: &mut SegmentScratch,
) -> Result<Vec<(usize, usize)>, SegmentError> {
    if !diff_domain_fits(samples.len(), config.smooth_window) {
        // Real captures are thousands of samples long and never get here.
        return Ok(refine_burst_ends(
            samples,
            &find_bursts(samples, config)?,
            config,
        ));
    }
    let (bursts, (lo, hi)) = bursts_and_raw_levels(samples, config, scratch)?;
    Ok(refine_with_levels(samples, &bursts, config, lo, hi))
}

/// Whether a trace of `n` samples is long enough for the diff-domain rank
/// argument of [`bursts_and_raw_levels`] under `smooth_window`: it needs
/// smoothing, and both percentile ranks `edges` deep inside the interior
/// run with candidate runs that do not straddle each other. That takes
/// more than 160, 320 and 480 samples at widths 8, 16 and 24.
fn diff_domain_fits(n: usize, smooth_window: usize) -> bool {
    if n == 0 || smooth_window <= 1 {
        return false;
    }
    let (lo_rank, hi_rank) = percentile_ranks(n);
    let edges = 2 * (smooth_window / 2);
    n > edges && lo_rank >= edges && hi_rank + edges < n && hi_rank >= lo_rank + edges
}

/// Bursts plus the raw-trace `(5th, 95th)` percentile levels.
type BurstsAndLevels = (Vec<(usize, usize)>, (f64, f64));

/// The bursts of [`find_bursts`] together with the raw-trace 5th/95th
/// percentiles [`refine_burst_ends`] thresholds at, in three passes over
/// the trace, all in the diff domain (the smoothed trace is never
/// materialized and no per-element division happens):
///
/// 1. prefix sums, with the finiteness check fused in;
/// 2. after sorting one pivot sample per domain (windowed sums and raw
///    samples), one counting pass over both domains brackets the two
///    percentile candidate runs of the windowed sums and the two raw
///    percentile ranks ([`RankRun`]);
/// 3. after selecting inside the small brackets, the threshold scan against
///    an ulp-exact boundary ([`last_not_exceeding`]).
///
/// The diff-to-value map is monotone and the boundary is exact, so every
/// burst index is identical to [`find_bursts`]'s. The caller has checked
/// [`diff_domain_fits`].
fn bursts_and_raw_levels(
    samples: &[f64],
    config: &SegmentConfig,
    scratch: &mut SegmentScratch,
) -> Result<BurstsAndLevels, SegmentError> {
    let n = samples.len();
    let (lo_rank, hi_rank) = percentile_ranks(n);
    let half = config.smooth_window / 2;
    let edges = 2 * half;
    let interior = n - edges;
    let denom = (edges + 1) as f64;

    let SegmentScratch {
        prefix,
        sample,
        inside: [g0, g1, g2, g3],
    } = scratch;
    // Pass 1: prefix sums, finiteness check fused in (indexed writes into
    // the resized buffer keep the running sum the only loop-carried chain).
    prefix.resize(n + 1, 0.0);
    prefix[0] = 0.0;
    let mut acc = 0.0;
    for (i, (&s, p)) in samples.iter().zip(&mut prefix[1..]).enumerate() {
        if !s.is_finite() {
            return Err(SegmentError::NonFiniteSample(i));
        }
        acc += s;
        *p = acc;
    }
    let prefix: &[f64] = prefix;
    // Clamped-window head/tail smoothed values — identical expressions to
    // [`smooth`], and only `edges` of them in total.
    let head: Vec<f64> = (0..half)
        .map(|i| (prefix[i + half + 1] - prefix[0]) / (i + half + 1) as f64)
        .collect();
    let tail: Vec<f64> = (n - half..n)
        .map(|i| {
            let lo = i - half;
            (prefix[n] - prefix[lo]) / (n - lo) as f64
        })
        .collect();
    let mut edge_vals: Vec<f64> = head.iter().chain(&tail).copied().collect();
    edge_vals.sort_unstable_by_key(|&v| total_order_key(v));

    // The interior smoothed value at `j + half` is `diff(j) / denom`.
    let diff = |j: usize| prefix[j + edges + 1] - prefix[j];
    let raw = |i: usize| samples[i];
    sample_keys(interior, diff, sample);
    let mut lo_cands = RankRun::new(lo_rank - edges, lo_rank, interior, sample, g0);
    let mut hi_cands = RankRun::new(hi_rank - edges, hi_rank, interior, sample, g1);
    sample_keys(n, raw, sample);
    let mut raw_lo = RankRun::new(lo_rank, lo_rank, n, sample, g2);
    let mut raw_hi = RankRun::new(hi_rank, hi_rank, n, sample, g3);
    // Pass 2: count and gather all four brackets.
    for (i, &s) in samples.iter().enumerate() {
        raw_lo.offer(s);
        raw_hi.offer(s);
        if i < interior {
            let d = diff(i);
            lo_cands.offer(d);
            hi_cands.offer(d);
        }
    }
    lo_cands.settle(interior, diff);
    hi_cands.settle(interior, diff);
    raw_lo.settle(n, raw);
    raw_hi.settle(n, raw);
    let raw_levels = (raw_lo.select()[0], raw_hi.select()[0]);
    let lo = combined_statistic(lo_cands.select(), denom, &edge_vals, edges);
    let hi = combined_statistic(hi_cands.select(), denom, &edge_vals, edges);
    if hi - lo < 1e-12 {
        return Err(SegmentError::NoPeaksFound);
    }
    let threshold = lo + config.threshold_fraction * (hi - lo);
    // IEEE division by a positive constant is monotone, so `d > boundary`
    // is exactly `d / denom > threshold` without the division; a walk that
    // does not settle keeps the division.
    let boundary = last_not_exceeding(threshold * denom, |d| d / denom > threshold);
    let above = |d: f64| match boundary {
        Some(b) => d > b,
        None => d / denom > threshold,
    };
    // Pass 3: the division-free threshold scan.
    let flags = head
        .iter()
        .map(|&v| v > threshold)
        .chain((0..interior).map(|j| above(diff(j))))
        .chain(tail.iter().map(|&v| v > threshold));
    Ok((bursts_from_flags(flags, config)?, raw_levels))
}

/// Turns a per-sample above-threshold flag stream into merged,
/// minimum-length bursts — the back half shared by the materialized-trace
/// and diff-domain front ends.
fn bursts_from_flags(
    flags: impl Iterator<Item = bool>,
    config: &SegmentConfig,
) -> Result<Vec<(usize, usize)>, SegmentError> {
    // Raw above-threshold runs.
    let mut bursts: Vec<(usize, usize)> = Vec::new();
    let mut start: Option<usize> = None;
    let mut len = 0usize;
    for (i, above) in flags.enumerate() {
        len = i + 1;
        if above {
            if start.is_none() {
                start = Some(i);
            }
        } else if let Some(b) = start.take() {
            bursts.push((b, i));
        }
    }
    if let Some(b) = start {
        bursts.push((b, len));
    }

    // Merge nearby bursts.
    let mut merged: Vec<(usize, usize)> = Vec::new();
    for (s, e) in bursts {
        if let Some(last) = merged.last_mut() {
            if s <= last.1 + config.merge_gap {
                last.1 = e;
                continue;
            }
        }
        merged.push((s, e));
    }
    merged.retain(|(s, e)| e - s >= config.min_burst_len);
    if merged.is_empty() {
        return Err(SegmentError::NoPeaksFound);
    }
    Ok(merged)
}

/// The per-burst end-refinement scan shared by the fused path and the
/// oracle (only the `lo`/`hi` level computation differs).
fn refine_with_levels(
    samples: &[f64],
    bursts: &[(usize, usize)],
    config: &SegmentConfig,
    lo: f64,
    hi: f64,
) -> Vec<(usize, usize)> {
    const RUN_LEN: usize = 6;
    const HIGH_FRACTION: f64 = 0.7;
    let threshold = lo + HIGH_FRACTION * (hi - lo);
    let span = config.smooth_window.max(4);
    bursts
        .iter()
        .map(|&(s, e)| {
            let win_lo = e.saturating_sub(span);
            let win_hi = (e + span).min(samples.len());
            let mut refined = None;
            let mut run = 0usize;
            for i in win_lo..win_hi {
                if samples[i] > threshold {
                    run += 1;
                    if run >= RUN_LEN {
                        refined = Some(i + 1);
                    }
                } else {
                    run = 0;
                }
            }
            (s, refined.unwrap_or(e))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn synthetic_trace(bursts: &[(usize, usize)], len: usize, floor: f64, peak: f64) -> Vec<f64> {
        let mut t = vec![floor; len];
        for &(s, e) in bursts {
            for v in t.iter_mut().take(e).skip(s) {
                *v = peak;
            }
        }
        t
    }

    /// The oracle composition the fused path must reproduce.
    fn oracle(
        samples: &[f64],
        config: &SegmentConfig,
    ) -> Result<Vec<(usize, usize)>, SegmentError> {
        find_bursts(samples, config).map(|bursts| refine_burst_ends(samples, &bursts, config))
    }

    #[test]
    fn smoothing_reduces_variance() {
        let noisy: Vec<f64> = (0..1000)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let s = smooth(&noisy, 16).unwrap();
        let var = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64
        };
        assert!(var(&s) < var(&noisy) / 10.0);
        assert_eq!(s.len(), noisy.len());
    }

    #[test]
    fn smooth_degenerate_inputs() {
        assert_eq!(smooth(&[], 8), Err(SegmentError::EmptyTrace));
        assert_eq!(smooth(&[5.0], 8), Ok(vec![5.0]));
        assert_eq!(smooth(&[1.0, 2.0], 1), Ok(vec![1.0, 2.0]));
        assert_eq!(
            smooth(&[1.0, f64::NAN, 2.0], 4),
            Err(SegmentError::NonFiniteSample(1))
        );
        assert_eq!(
            smooth(&[1.0, 2.0, f64::INFINITY], 1),
            Err(SegmentError::NonFiniteSample(2))
        );
    }

    #[test]
    fn finds_three_clean_bursts() {
        let truth = [(100, 180), (400, 470), (700, 790)];
        let t = synthetic_trace(&truth, 1000, 1.0, 4.0);
        let bursts = find_bursts(&t, &SegmentConfig::default()).unwrap();
        assert_eq!(bursts.len(), 3);
        for (found, expected) in bursts.iter().zip(&truth) {
            assert!(
                found.0.abs_diff(expected.0) <= 16,
                "{found:?} vs {expected:?}"
            );
        }
    }

    #[test]
    fn merges_chattering_bursts() {
        // One burst with a short dropout in the middle.
        let mut t = synthetic_trace(&[(100, 140), (150, 200)], 600, 1.0, 4.0);
        // A clearly separate second burst.
        for v in t.iter_mut().take(460).skip(400) {
            *v = 4.0;
        }
        let bursts = find_bursts(&t, &SegmentConfig::default()).unwrap();
        assert_eq!(bursts.len(), 2, "dropout should be merged: {bursts:?}");
    }

    #[test]
    fn rejects_flat_and_empty() {
        assert_eq!(
            find_bursts(&[], &SegmentConfig::default()),
            Err(SegmentError::EmptyTrace)
        );
        let flat = vec![1.0; 500];
        assert_eq!(
            find_bursts(&flat, &SegmentConfig::default()),
            Err(SegmentError::NoPeaksFound)
        );
    }

    #[test]
    fn rejects_non_finite_traces() {
        let mut t = synthetic_trace(&[(100, 180)], 400, 1.0, 4.0);
        t[250] = f64::NAN;
        assert_eq!(
            find_bursts(&t, &SegmentConfig::default()),
            Err(SegmentError::NonFiniteSample(250))
        );
        t[250] = f64::NEG_INFINITY;
        assert_eq!(
            refined_bursts_into(&t, &SegmentConfig::default(), &mut SegmentScratch::new()),
            Err(SegmentError::NonFiniteSample(250))
        );
    }

    #[test]
    fn selection_percentiles_match_sorted_reference() {
        // Noisy trace with duplicates and plateaus: the fused path's bracket
        // selections must reproduce the sort-based percentiles exactly, so
        // its bursts are the oracle's.
        let traces: Vec<Vec<f64>> = (0..8)
            .map(|k| {
                (0..3000)
                    .map(|i| {
                        let burst = if (i / 200) % 3 == 0 { 3.0 } else { 1.0 };
                        burst + 0.1 * (((i * 13 + k * 7) % 17) as f64)
                    })
                    .collect()
            })
            .collect();
        let config = SegmentConfig::default();
        let mut scratch = SegmentScratch::new();
        for t in &traces {
            let reference = oracle(t, &config);
            assert!(reference.is_ok());
            assert_eq!(refined_bursts_into(t, &config, &mut scratch), reference);
        }
    }

    #[test]
    fn scratch_segmentation_matches_reference_and_reuses_buffers() {
        let mut scratch = SegmentScratch::new();
        let config = SegmentConfig::default();
        for k in 0..6usize {
            let t = synthetic_trace(
                &[(80 + k, 160 + k), (400, 480), (800, 870)],
                1200,
                1.0 + k as f64 * 0.01,
                4.0,
            );
            assert_eq!(
                refined_bursts_into(&t, &config, &mut scratch),
                oracle(&t, &config),
                "trace {k}"
            );
        }
        // A noisy trace several pivot samples long: both domains select
        // through hashed sample positions.
        let mut long = synthetic_trace(
            &(0..40)
                .map(|b| (300 + 500 * b, 380 + 500 * b))
                .collect::<Vec<_>>(),
            20_000,
            1.0,
            4.0,
        );
        for (i, v) in long.iter_mut().enumerate() {
            *v += (reveal_par::derive_seed(3, i as u64) % 1000) as f64 * 2e-4;
        }
        let reference = oracle(&long, &config).unwrap();
        assert_eq!(reference.len(), 40);
        assert_eq!(
            refined_bursts_into(&long, &config, &mut scratch).unwrap(),
            reference
        );
        // Bursts touching the trace boundaries put extreme values into the
        // clamped-window head/tail, exercising the edge-merge of the
        // diff-domain percentile selection.
        let boundary = synthetic_trace(&[(0, 90), (500, 580), (1110, 1200)], 1200, 1.0, 4.0);
        assert_eq!(
            refined_bursts_into(&boundary, &config, &mut scratch),
            oracle(&boundary, &config)
        );
        // Short traces take the oracle's own result.
        let short = synthetic_trace(&[(30, 80)], 150, 1.0, 4.0);
        assert_eq!(
            refined_bursts_into(&short, &config, &mut scratch),
            oracle(&short, &config)
        );
        // Error paths through the scratch front end.
        assert_eq!(
            refined_bursts_into(&[], &config, &mut scratch),
            Err(SegmentError::EmptyTrace)
        );
        let mut bad = synthetic_trace(&[(100, 180)], 400, 1.0, 4.0);
        bad[33] = f64::NAN;
        assert_eq!(
            refined_bursts_into(&bad, &config, &mut scratch),
            Err(SegmentError::NonFiniteSample(33))
        );
    }

    proptest! {
        #[test]
        fn prop_segmentation_recovers_planted_bursts(
            gaps in proptest::collection::vec(120usize..400, 2..8),
            burst_len in 40usize..100,
        ) {
            // Plant bursts separated by the given gaps.
            let mut truth = Vec::new();
            let mut pos = 60usize;
            for g in &gaps {
                truth.push((pos, pos + burst_len));
                pos += burst_len + g;
            }
            let len = pos + 100;
            let t = synthetic_trace(&truth, len, 1.0, 5.0);
            let bursts =
                refined_bursts_into(&t, &SegmentConfig::default(), &mut SegmentScratch::new())
                    .unwrap();
            prop_assert_eq!(bursts.len(), truth.len());
            for (found, planted) in bursts.iter().zip(&truth) {
                prop_assert!(found.0.abs_diff(planted.0) <= 20);
            }
        }
    }
}
