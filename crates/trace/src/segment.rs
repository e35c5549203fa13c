//! Trace segmentation: locating each coefficient's sampling window inside a
//! full encryption trace.
//!
//! §III-C of the paper: the distribution-function calls produce
//! "distinguishable and visible peaks" in the power trace, one per outer-loop
//! iteration, and those peaks are the start/end indicators for each
//! coefficient window. Because the distribution call is time-variant, a fixed
//! stride cannot work — the windows must be found from the trace itself.
//!
//! The detector smooths the trace with a moving average, thresholds it at
//! `μ + k·σ`, merges the resulting bursts, and emits one window per burst
//! (from the start of a burst to the start of the next).

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

/// Monotone total-order key of an `f64`: `a < b` numerically implies
/// `key(a) < key(b)` (IEEE-754 sign-magnitude flipped into two's
/// complement). `-0.0` orders just below `+0.0`; the two are numerically
/// interchangeable in every downstream use here, so the selections keep the
/// exact order-statistic semantics of the comparison-based references.
#[inline]
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Items in the pivot sample of a selection domain: enough that a sampled
/// percentile lands within a few dozen sample ranks of the true one, few
/// enough to sort in tens of microseconds.
const SAMPLE: usize = 4096;

/// Bracket margin in sample ranks, `√SAMPLE`. The sampled rank of the 5th
/// percentile has a standard deviation of `√(SAMPLE · 0.05 · 0.95) ≈ 14`
/// ranks, so a bracket misses only on a ~4.6σ deviation.
const MARGIN: usize = 64;

/// The 5th and 95th percentile ranks of `len` items.
fn percentile_ranks(len: usize) -> (usize, usize) {
    ((len - 1) * 5 / 100, (len - 1) * 95 / 100)
}

/// Position of pivot sample `i` in a domain of `len` items: a SplitMix64
/// hash of the index scaled onto `0..len`. Positions depend on nothing but
/// `(i, len)`, so every selection is reproducible without generator state.
fn sample_position(i: usize, len: usize) -> usize {
    let h = reveal_par::derive_seed(0, i as u64);
    ((u128::from(h) * len as u128) >> 64) as usize
}

/// Fills `keys` with the sorted total-order keys of a domain's pivot
/// sample: every item when the domain has at most [`SAMPLE`] items, else
/// [`SAMPLE`] items at [`sample_position`]s.
fn sample_keys(len: usize, item: impl Fn(usize) -> f64, keys: &mut Vec<u64>) {
    keys.clear();
    if len <= SAMPLE {
        keys.extend((0..len).map(|j| total_order_key(item(j))));
    } else {
        keys.extend((0..SAMPLE).map(|i| total_order_key(item(sample_position(i, len)))));
    }
    keys.sort_unstable();
}

/// An exact rank run `first..=last` (0-based, ascending) of a domain of
/// `len` items, bracketed by two total-order keys read off the domain's
/// sorted pivot sample `MARGIN` sample ranks outside the run's estimated
/// position. A counting pass ([`offer`](Self::offer) per item) counts the
/// items below the bracket and gathers the ones inside it. When the run
/// lies inside the bracket ([`hit`](Self::hit)), the run is the gathered
/// set's ranks `first - below ..= last - below`: exactly the values a full
/// sort of the domain puts at ranks `first..=last`. Equal keys are equal
/// bit patterns, so ties cannot change the answer.
struct RankRun<'a> {
    first: usize,
    last: usize,
    low: u64,
    high: u64,
    below: usize,
    inside: &'a mut Vec<f64>,
}

impl<'a> RankRun<'a> {
    fn new(
        first: usize,
        last: usize,
        len: usize,
        sample: &[u64],
        inside: &'a mut Vec<f64>,
    ) -> Self {
        // Estimated sample rank of domain rank `r` (exact when the sample
        // is the whole domain).
        let scaled = |r: usize| (r as u128 * sample.len() as u128 / len as u128) as usize;
        let low = scaled(first).checked_sub(MARGIN).map_or(0, |i| sample[i]);
        let high = sample
            .get(scaled(last) + MARGIN)
            .copied()
            .unwrap_or(u64::MAX);
        inside.clear();
        Self {
            first,
            last,
            low,
            high,
            below: 0,
            inside,
        }
    }

    #[inline]
    fn offer(&mut self, x: f64) {
        let k = total_order_key(x);
        self.below += usize::from(k < self.low);
        if (self.low..=self.high).contains(&k) {
            self.inside.push(x);
        }
    }

    /// Whether the bracket holds the whole run.
    fn hit(&self) -> bool {
        self.below <= self.first && self.below + self.inside.len() > self.last
    }

    /// The exact fallback for a missed bracket: one more pass over the
    /// domain with the bracket opened to every key, so the selection below
    /// runs over all `len` items.
    fn settle(&mut self, len: usize, item: impl Fn(usize) -> f64) {
        if self.hit() {
            return;
        }
        self.low = 0;
        self.high = u64::MAX;
        self.below = 0;
        self.inside.clear();
        for j in 0..len {
            self.offer(item(j));
        }
    }

    /// The run's values in ascending total order (after [`settle`](Self::settle)).
    fn select(self) -> &'a [f64] {
        let lo = self.first - self.below;
        let hi = self.last - self.below;
        let g = self.inside.as_mut_slice();
        g.select_nth_unstable_by_key(hi, |&d| total_order_key(d));
        if lo < hi {
            g[..hi].select_nth_unstable_by_key(lo, |&d| total_order_key(d));
            g[lo..hi].sort_unstable_by_key(|&d| total_order_key(d));
        }
        &g[lo..=hi]
    }
}

/// The exact order statistics at `ranks` (each below `values.len()`) of a
/// non-empty slice: one shared sample, one counting pass for both brackets.
fn order_statistics(values: &[f64], ranks: [usize; 2], scratch: &mut SegmentScratch) -> [f64; 2] {
    let len = values.len();
    let item = |j: usize| values[j];
    let SegmentScratch {
        sample,
        inside: [g0, g1, ..],
        ..
    } = scratch;
    sample_keys(len, item, sample);
    let mut a = RankRun::new(ranks[0], ranks[0], len, sample, g0);
    let mut b = RankRun::new(ranks[1], ranks[1], len, sample, g1);
    for &v in values {
        a.offer(v);
        b.offer(v);
    }
    a.settle(len, item);
    b.settle(len, item);
    [a.select()[0], b.select()[0]]
}

/// The 5th and 95th percentile values of a non-empty slice.
fn percentiles(values: &[f64], scratch: &mut SegmentScratch) -> (f64, f64) {
    let (lo_rank, hi_rank) = percentile_ranks(values.len());
    let [lo, hi] = order_statistics(values, [lo_rank, hi_rank], scratch);
    (lo, hi)
}

/// The pre-fast-path percentile computation — a full sort per trace — kept
/// verbatim as the oracle of the equivalence tests and the benchmark
/// baseline.
fn percentiles_5_95_sorted(scratch: &mut [f64]) -> (f64, f64) {
    scratch.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    (
        scratch[(scratch.len() - 1) * 5 / 100],
        scratch[(scratch.len() - 1) * 95 / 100],
    )
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

/// The next representable `f64` toward `+∞` (finite, non-NaN input).
#[inline]
fn next_toward_pos_inf(x: f64) -> f64 {
    if x == 0.0 {
        return f64::from_bits(1); // smallest positive subnormal; covers -0.0
    }
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        f64::from_bits(bits + 1)
    } else {
        f64::from_bits(bits - 1)
    }
}

/// The next representable `f64` toward `-∞` (finite, non-NaN input).
#[inline]
fn next_toward_neg_inf(x: f64) -> f64 {
    -next_toward_pos_inf(-x)
}

/// The largest finite `d` with `d / denom <= threshold`, found by walking
/// ulps from `threshold * denom` (a step or two at most — the product is
/// already within rounding error of the exact boundary). IEEE division by a
/// positive constant is monotone non-decreasing, so `sum > boundary` is
/// *exactly* `sum / denom > threshold` — without performing the division.
fn diff_boundary(threshold: f64, denom: f64) -> f64 {
    let mut d = threshold * denom;
    while d / denom > threshold {
        d = next_toward_neg_inf(d);
    }
    loop {
        let up = next_toward_pos_inf(d);
        if up.is_finite() && up / denom <= threshold {
            d = up;
        } else {
            return d;
        }
    }
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

/// Finds the high-power bursts (distribution-call peaks).
///
/// # Errors
///
/// Fails on empty, non-finite, or burst-free (e.g. all-constant) traces.
pub fn find_bursts(
    samples: &[f64],
    config: &SegmentConfig,
) -> Result<Vec<(usize, usize)>, SegmentError> {
    find_bursts_into(samples, config, &mut SegmentScratch::new())
}

/// [`find_bursts`] with caller-provided scratch buffers: the selection and
/// scans of [`refined_bursts_into`], without the end refinement.
///
/// # Errors
///
/// Same as [`find_bursts`].
pub fn find_bursts_into(
    samples: &[f64],
    config: &SegmentConfig,
    scratch: &mut SegmentScratch,
) -> Result<Vec<(usize, usize)>, SegmentError> {
    bursts_and_raw_levels(samples, config, scratch).map(|(bursts, _)| bursts)
}

/// [`find_bursts`] followed by [`refine_burst_ends`], with every full-trace
/// pass shared between the two stages. Returns exactly what the two-stage
/// composition returns.
///
/// # Errors
///
/// Same as [`find_bursts`].
pub fn refined_bursts_into(
    samples: &[f64],
    config: &SegmentConfig,
    scratch: &mut SegmentScratch,
) -> Result<Vec<(usize, usize)>, SegmentError> {
    let (bursts, (lo, hi)) = bursts_and_raw_levels(samples, config, scratch)?;
    Ok(refine_with_levels(samples, &bursts, config, lo, hi))
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
///    an ulp-exact boundary ([`diff_boundary`]).
///
/// The diff-to-value map is monotone and the boundary is exact, so every
/// burst index is identical to [`find_bursts_reference`]'s.
fn bursts_and_raw_levels(
    samples: &[f64],
    config: &SegmentConfig,
    scratch: &mut SegmentScratch,
) -> Result<BurstsAndLevels, SegmentError> {
    let n = samples.len();
    if n == 0 {
        return Err(SegmentError::EmptyTrace);
    }
    let (lo_rank, hi_rank) = percentile_ranks(n);
    let half = config.smooth_window / 2;
    let edges = 2 * half;
    if config.smooth_window <= 1
        || n <= edges
        || lo_rank < edges
        || hi_rank + edges >= n
        || hi_rank < lo_rank + edges
    {
        // No smoothing, or a trace too short for the diff-domain rank
        // argument (both percentile ranks must sit `edges` deep inside the
        // interior run, and their candidate runs must not straddle each
        // other): such traces are cheap to smooth outright.
        let smoothed = smooth(samples, config.smooth_window)?;
        let (lo, hi) = percentiles(&smoothed, scratch);
        let bursts = threshold_bursts(&smoothed, lo, hi, config)?;
        return Ok((bursts, percentiles(samples, scratch)));
    }
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
    let boundary = diff_boundary(threshold, denom);
    // Pass 3: the division-free threshold scan.
    let flags = head
        .iter()
        .map(|&v| v > threshold)
        .chain((0..interior).map(|j| diff(j) > boundary))
        .chain(tail.iter().map(|&v| v > threshold));
    Ok((bursts_from_flags(flags, config)?, raw_levels))
}

/// [`find_bursts`] with the pre-fast-path sort-based percentile pass, kept
/// as the test oracle and benchmark baseline. Identical results.
///
/// # Errors
///
/// Same as [`find_bursts`].
pub fn find_bursts_reference(
    samples: &[f64],
    config: &SegmentConfig,
) -> Result<Vec<(usize, usize)>, SegmentError> {
    let smoothed = smooth(samples, config.smooth_window)?;
    // Robust low/high levels: 5th and 95th percentiles of the smoothed trace.
    let (lo, hi) = percentiles_5_95_sorted(&mut smoothed.clone());
    threshold_bursts(&smoothed, lo, hi, config)
}

/// The threshold / merge / minimum-length back half shared by the
/// materialized-trace front ends (the levels `lo`/`hi` are what differ
/// between them, never this scan).
fn threshold_bursts(
    smoothed: &[f64],
    lo: f64,
    hi: f64,
    config: &SegmentConfig,
) -> Result<Vec<(usize, usize)>, SegmentError> {
    if hi - lo < 1e-12 {
        return Err(SegmentError::NoPeaksFound);
    }
    let threshold = lo + config.threshold_fraction * (hi - lo);
    bursts_from_flags(smoothed.iter().map(|&s| s > threshold), config)
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

/// Refines burst boundaries to cycle accuracy using the *raw* trace: the
/// moving-average edges of [`find_bursts`] jitter by a few samples with the
/// noise, which smears sample-exact leakage across template dimensions. A
/// burst's true end is the last run of `run_len` consecutive raw samples
/// above a high threshold (single data-dependent spikes outside the burst
/// cannot form such a run).
pub fn refine_burst_ends(
    samples: &[f64],
    bursts: &[(usize, usize)],
    config: &SegmentConfig,
) -> Vec<(usize, usize)> {
    refine_burst_ends_into(samples, bursts, config, &mut SegmentScratch::new())
}

/// [`refine_burst_ends`] with caller-provided scratch: the raw-trace
/// percentiles come from a read-only bracket selection instead of a
/// full-trace copy and sort. Identical results.
pub fn refine_burst_ends_into(
    samples: &[f64],
    bursts: &[(usize, usize)],
    config: &SegmentConfig,
    scratch: &mut SegmentScratch,
) -> Vec<(usize, usize)> {
    if samples.is_empty() {
        return bursts.to_vec();
    }
    let (lo, hi) = percentiles(samples, scratch);
    refine_with_levels(samples, bursts, config, lo, hi)
}

/// [`refine_burst_ends`] with the pre-fast-path sort-based percentile pass,
/// kept as the test oracle and benchmark baseline. Identical results.
pub fn refine_burst_ends_reference(
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

/// The per-burst end-refinement scan shared by the scratch-based and
/// reference front ends (only the `lo`/`hi` level computation differs).
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

/// Segments a full trace into per-coefficient windows: each window runs from
/// the start of one distribution-call burst to the start of the next (the
/// last window extends to the end of the trace).
///
/// # Errors
///
/// Propagates burst-detection failures.
///
/// # Examples
///
/// ```
/// use reveal_trace::segment::{segment_windows, SegmentConfig};
/// // Three synthetic bursts of height 3 over a noise floor of 1.
/// let mut samples = vec![1.0; 600];
/// for start in [50usize, 250, 450] {
///     for i in start..start + 60 {
///         samples[i] = 3.0;
///     }
/// }
/// let windows = segment_windows(&samples, &SegmentConfig::default())?;
/// assert_eq!(windows.len(), 3);
/// # Ok::<(), reveal_trace::segment::SegmentError>(())
/// ```
pub fn segment_windows(
    samples: &[f64],
    config: &SegmentConfig,
) -> Result<Vec<(usize, usize)>, SegmentError> {
    let bursts = find_bursts(samples, config)?;
    let mut windows = Vec::with_capacity(bursts.len());
    for (i, &(s, _)) in bursts.iter().enumerate() {
        let end = if i + 1 < bursts.len() {
            bursts[i + 1].0
        } else {
            samples.len()
        };
        windows.push((s, end));
    }
    Ok(windows)
}

/// Compares detected windows with ground truth: the fraction of true windows
/// whose detected counterpart starts within `tolerance` samples.
pub fn window_alignment_score(
    detected: &[(usize, usize)],
    truth: &[(usize, usize)],
    tolerance: usize,
) -> f64 {
    if truth.is_empty() {
        return 0.0;
    }
    let mut hits = 0usize;
    for &(ts, _) in truth {
        if detected.iter().any(|&(ds, _)| ds.abs_diff(ts) <= tolerance) {
            hits += 1;
        }
    }
    hits as f64 / truth.len() as f64
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
    fn windows_tile_from_burst_starts() {
        let truth = [(100, 180), (400, 470), (700, 790)];
        let t = synthetic_trace(&truth, 1000, 1.0, 4.0);
        let windows = segment_windows(&t, &SegmentConfig::default()).unwrap();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].1, windows[1].0);
        assert_eq!(windows[1].1, windows[2].0);
        assert_eq!(windows[2].1, 1000);
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
            segment_windows(&t, &SegmentConfig::default()),
            Err(SegmentError::NonFiniteSample(250))
        );
    }

    #[test]
    fn selection_percentiles_match_sorted_reference() {
        // Noisy trace with duplicates and plateaus: the linear-time selection
        // must reproduce the sort-based order statistics exactly.
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
            assert_eq!(
                percentiles(t, &mut scratch),
                percentiles_5_95_sorted(&mut t.clone())
            );
            let fast = find_bursts(t, &config).unwrap();
            let reference = find_bursts_reference(t, &config).unwrap();
            assert_eq!(fast, reference);
            assert_eq!(
                refine_burst_ends(t, &fast, &config),
                refine_burst_ends_reference(t, &reference, &config)
            );
        }
        // Degenerate lengths.
        for len in 1..6 {
            let v: Vec<f64> = (0..len).map(|i| (i * 37 % 5) as f64).collect();
            assert_eq!(
                percentiles(&v, &mut scratch),
                percentiles_5_95_sorted(&mut v.clone())
            );
        }
    }

    /// The sorted oracle of the bracket selection: values at `ranks` after a
    /// full sort in IEEE total order (the order the selection's keys encode,
    /// `-0.0` below `+0.0`), compared by bit pattern.
    fn assert_matches_sorted_oracle(values: &[f64], ranks: [usize; 2]) {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let got = order_statistics(values, ranks, &mut SegmentScratch::new());
        for (g, &r) in got.iter().zip(&ranks) {
            assert_eq!(
                g.to_bits(),
                sorted[r].to_bits(),
                "rank {r} of {} items",
                values.len()
            );
        }
    }

    /// Ties, both zeros, subnormals and extremes: the values a heavy-tie
    /// case draws from.
    const PALETTE: [f64; 10] = [
        -0.0, 0.0, 5e-324, -5e-324, 2.2e-308, -1.0, 1.0, 2.5, 1e300, -1e300,
    ];

    #[test]
    fn bracket_order_statistics_match_sorted_oracle_on_shaped_inputs() {
        // Below, just above and well above the pivot-sample size, plus one
        // paper-scale trace (n = 1024 captures run ~243k samples).
        for len in [300usize, SAMPLE + 1, 3 * SAMPLE + 7, 243_000] {
            let noise = |i: usize| (reveal_par::derive_seed(7, i as u64) % 10_000) as f64 * 1e-3;
            let (lo_rank, hi_rank) = percentile_ranks(len);
            let cases: Vec<Vec<f64>> = vec![
                vec![1.5; len],
                (0..len)
                    .map(|i| if i % 3 == 0 { 4.0 } else { 1.0 })
                    .collect(),
                (0..len).map(|i| i as f64).collect(),
                (0..len).rev().map(|i| i as f64 * -0.25).collect(),
                // 40% of the items tie at the value straddling the 5th
                // percentile rank; the rest are distinct around it.
                (0..len)
                    .map(|i| if i % 5 < 2 { 2.0 } else { noise(i) * 4.0 - 1.0 })
                    .collect(),
                (0..len).map(|i| PALETTE[i % PALETTE.len()]).collect(),
                (0..len).map(|i| noise(i) * 1e-310).collect(),
            ];
            for values in &cases {
                assert_matches_sorted_oracle(values, [lo_rank, hi_rank]);
                assert_matches_sorted_oracle(values, [0, len - 1]);
                assert_matches_sorted_oracle(values, [len / 2, len / 2]);
            }
        }
    }

    #[test]
    fn missed_bracket_falls_back_to_exact_selection() {
        // Every pivot-sample position holds a value above the rest of the
        // trace, so the sampled 5th percentile lies far above the true one
        // and the bracket cannot hold the rank.
        let len = 3 * SAMPLE;
        let mut values: Vec<f64> = (0..len).map(|i| (i % 97) as f64).collect();
        for i in 0..SAMPLE {
            values[sample_position(i, len)] = 1e6 + i as f64;
        }
        let (lo_rank, hi_rank) = percentile_ranks(len);
        let item = |j: usize| values[j];
        let mut sample = Vec::new();
        let mut inside = Vec::new();
        sample_keys(len, item, &mut sample);
        let mut run = RankRun::new(lo_rank, lo_rank, len, &sample, &mut inside);
        for &v in &values {
            run.offer(v);
        }
        assert!(!run.hit(), "the planted sample must make the bracket miss");
        run.settle(len, item);
        assert!(run.hit());
        assert_eq!(run.inside.len(), len, "the fallback gathers every item");
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(run.select()[0].to_bits(), sorted[lo_rank].to_bits());
        assert_matches_sorted_oracle(&values, [lo_rank, hi_rank]);
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
            let fast = find_bursts_into(&t, &config, &mut scratch).unwrap();
            let reference = find_bursts_reference(&t, &config).unwrap();
            assert_eq!(fast, reference, "trace {k}");
            let refined_ref = refine_burst_ends_reference(&t, &reference, &config);
            assert_eq!(
                refine_burst_ends_into(&t, &fast, &config, &mut scratch),
                refined_ref,
                "trace {k}"
            );
            // The fused single-entry pipeline returns the same composition.
            assert_eq!(
                refined_bursts_into(&t, &config, &mut scratch).unwrap(),
                refined_ref,
                "fused trace {k}"
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
        let reference = find_bursts_reference(&long, &config).unwrap();
        assert_eq!(reference.len(), 40);
        assert_eq!(
            refined_bursts_into(&long, &config, &mut scratch).unwrap(),
            refine_burst_ends_reference(&long, &reference, &config)
        );
        // Bursts touching the trace boundaries put extreme values into the
        // clamped-window head/tail, exercising the edge-merge of the
        // diff-domain percentile selection.
        let boundary = synthetic_trace(&[(0, 90), (500, 580), (1110, 1200)], 1200, 1.0, 4.0);
        assert_eq!(
            find_bursts_into(&boundary, &config, &mut scratch).unwrap(),
            find_bursts_reference(&boundary, &config).unwrap()
        );
        assert_eq!(
            refined_bursts_into(&boundary, &config, &mut scratch).unwrap(),
            refine_burst_ends_reference(
                &boundary,
                &find_bursts_reference(&boundary, &config).unwrap(),
                &config
            )
        );
        // Short traces fall back to materialized smoothing; results still
        // match the reference exactly.
        let short = synthetic_trace(&[(30, 80)], 150, 1.0, 4.0);
        assert_eq!(
            find_bursts_into(&short, &config, &mut scratch).unwrap(),
            find_bursts_reference(&short, &config).unwrap()
        );
        assert_eq!(
            refined_bursts_into(&short, &config, &mut scratch).unwrap(),
            refine_burst_ends_reference(
                &short,
                &find_bursts_reference(&short, &config).unwrap(),
                &config
            )
        );
        // Error paths through the scratch front end.
        assert_eq!(
            find_bursts_into(&[], &config, &mut scratch),
            Err(SegmentError::EmptyTrace)
        );
        let mut bad = synthetic_trace(&[(100, 180)], 400, 1.0, 4.0);
        bad[33] = f64::NAN;
        assert_eq!(
            find_bursts_into(&bad, &config, &mut scratch),
            Err(SegmentError::NonFiniteSample(33))
        );
    }

    #[test]
    fn alignment_score() {
        let truth = [(100, 200), (300, 400)];
        assert_eq!(
            window_alignment_score(&[(102, 200), (299, 400)], &truth, 5),
            1.0
        );
        assert_eq!(window_alignment_score(&[(102, 200)], &truth, 5), 0.5);
        assert_eq!(window_alignment_score(&[], &truth, 5), 0.0);
        assert_eq!(window_alignment_score(&[(0, 1)], &[], 5), 0.0);
    }

    proptest! {
        #[test]
        fn prop_bracket_order_statistics_match_sorted_oracle(
            picks in proptest::collection::vec(0usize..PALETTE.len(), 1..300),
            continuous in proptest::collection::vec(-1e3f64..1e3, 1..300),
            r0 in 0usize..300,
            r1 in 0usize..300,
        ) {
            // Heavy ties drawn from the palette, and distinct values.
            let tied: Vec<f64> = picks.iter().map(|&k| PALETTE[k]).collect();
            for values in [&tied, &continuous] {
                let len = values.len();
                let (lo_rank, hi_rank) = percentile_ranks(len);
                assert_matches_sorted_oracle(values, [lo_rank, hi_rank]);
                assert_matches_sorted_oracle(values, [r0 % len, r1 % len]);
            }
        }

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
            let windows = segment_windows(&t, &SegmentConfig::default()).unwrap();
            prop_assert_eq!(windows.len(), truth.len());
            prop_assert!(window_alignment_score(&windows, &truth, 20) == 1.0);
        }
    }
}
