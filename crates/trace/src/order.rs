//! Exact primitives over the order of `f64`: the IEEE total-order key, the
//! sampled-pivot bracket selection built on it, and the ulp walk to the
//! boundary of a monotone rounded predicate.
//!
//! The segmenter's percentiles and [`robust_noise_sigma`]'s medians select
//! through `RankRun`; the segmenter's division-free threshold and the
//! robust driver's gain screen both find their boundaries with
//! [`last_not_exceeding`].
//!
//! [`robust_noise_sigma`]: crate::sanity::robust_noise_sigma

/// Monotone total-order key of an `f64`: `a < b` numerically implies
/// `key(a) < key(b)` (IEEE-754 sign-magnitude flipped into two's
/// complement). `-0.0` orders just below `+0.0`; the two are numerically
/// interchangeable in every downstream use here, so the selections keep the
/// exact order-statistic semantics of the comparison-based references.
#[inline]
pub(crate) fn total_order_key(x: f64) -> u64 {
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
pub(crate) const SAMPLE: usize = 4096;

/// Smallest bracket margin in sample ranks, `√SAMPLE`.
const MARGIN: usize = 64;

/// Bracket margin in sample ranks for domain rank `rank` of `len` items:
/// 4.6 standard deviations of the rank's position in the pivot sample,
/// `√(SAMPLE · p · (1 − p))` at `p = rank / len`, and at least [`MARGIN`].
/// That is 64 ranks at the 5th percentile (σ ≈ 14) and 147 at the median
/// (σ = 32), where a fixed 64 would miss about one bracket in twenty.
fn margin(rank: usize, len: usize) -> usize {
    let p = rank as f64 / len as f64;
    let sigma = (SAMPLE as f64 * p * (1.0 - p)).sqrt();
    ((4.6 * sigma) as usize).max(MARGIN)
}

/// Position of pivot sample `i` in a domain of `len` items: a SplitMix64
/// hash of the index scaled onto `0..len`. Positions depend on nothing but
/// `(i, len)`, so every selection is reproducible without generator state.
pub(crate) fn sample_position(i: usize, len: usize) -> usize {
    let h = reveal_par::derive_seed(0, i as u64);
    ((u128::from(h) * len as u128) >> 64) as usize
}

/// Fills `keys` with the sorted total-order keys of a domain's pivot
/// sample: every item when the domain has at most [`SAMPLE`] items, else
/// [`SAMPLE`] items at [`sample_position`]s.
pub(crate) fn sample_keys(len: usize, item: impl Fn(usize) -> f64, keys: &mut Vec<u64>) {
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
/// sorted pivot sample a [`margin`] of sample ranks outside the run's
/// estimated position. A counting pass ([`offer`](Self::offer) per item)
/// counts the items below the bracket and gathers the ones inside it. When
/// the run lies inside the bracket ([`hit`](Self::hit)), the run is the
/// gathered set's ranks `first - below ..= last - below`: exactly the
/// values a full sort of the domain puts at ranks `first..=last`. Equal
/// keys are equal bit patterns, so ties cannot change the answer.
pub(crate) struct RankRun<'a> {
    first: usize,
    last: usize,
    low: u64,
    /// `high - low` of the inclusive key bracket `low..=high`.
    width: u64,
    below: usize,
    pub(crate) inside: &'a mut Vec<f64>,
}

impl<'a> RankRun<'a> {
    pub(crate) fn new(
        first: usize,
        last: usize,
        len: usize,
        sample: &[u64],
        inside: &'a mut Vec<f64>,
    ) -> Self {
        // Estimated sample rank of domain rank `r` (exact when the sample
        // is the whole domain).
        let scaled = |r: usize| (r as u128 * sample.len() as u128 / len as u128) as usize;
        let margin = margin(first, len);
        let low = scaled(first).checked_sub(margin).map_or(0, |i| sample[i]);
        let high = sample
            .get(scaled(last) + margin)
            .copied()
            .unwrap_or(u64::MAX);
        inside.clear();
        Self {
            first,
            last,
            low,
            width: high - low,
            below: 0,
            inside,
        }
    }

    /// Counts `x` if it lies below the bracket, gathers it if inside. One
    /// unsigned compare tests membership: keys below `low` wrap around to
    /// above `width`.
    #[inline]
    pub(crate) fn offer(&mut self, x: f64) {
        let k = total_order_key(x);
        self.below += usize::from(k < self.low);
        if k.wrapping_sub(self.low) <= self.width {
            self.inside.push(x);
        }
    }

    /// Whether the bracket holds the whole run.
    pub(crate) fn hit(&self) -> bool {
        self.below <= self.first && self.below + self.inside.len() > self.last
    }

    /// The exact fallback for a missed bracket: one more pass over the
    /// domain with the bracket opened to every key, so the selection below
    /// runs over all `len` items.
    pub(crate) fn settle(&mut self, len: usize, item: impl Fn(usize) -> f64) {
        if self.hit() {
            return;
        }
        self.low = 0;
        self.width = u64::MAX;
        self.below = 0;
        self.inside.clear();
        for j in 0..len {
            self.offer(item(j));
        }
    }

    /// The run's values in ascending total order (after [`settle`](Self::settle)).
    pub(crate) fn select(self) -> &'a [f64] {
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

/// The median of the `len > 0` items `item(0..len)` by one bracketed
/// selection, with the values `median_in_place` returns on finite input:
/// the central order statistic, or for even `len` the average of the two.
pub(crate) fn bracketed_median(
    len: usize,
    item: impl Fn(usize) -> f64,
    sample: &mut Vec<u64>,
    inside: &mut Vec<f64>,
) -> f64 {
    let mid = len / 2;
    let first = if len % 2 == 1 { mid } else { mid - 1 };
    sample_keys(len, &item, sample);
    let mut run = RankRun::new(first, mid, len, sample, inside);
    for j in 0..len {
        run.offer(item(j));
    }
    run.settle(len, item);
    match run.select() {
        [lower, upper] => 0.5 * (lower + upper),
        run => run[0],
    }
}

/// Ulp steps [`last_not_exceeding`] takes before giving up.
const WALK_LIMIT: usize = 64;

/// The largest finite `x` at which the monotone (false, then true)
/// predicate `exceeds` is false, walked one ulp at a time from `start`:
/// down while `exceeds(x)`, then up while the next finite value does not
/// exceed. When `start` is the rounded estimate of the exact boundary the
/// walk takes a step or two; `None` when it has not settled within
/// `WALK_LIMIT` (64) steps. A non-finite `start` the predicate accepts is
/// returned as is, so a threshold of `±∞` or NaN keeps its meaning.
///
/// A rounded expression that is monotone in `x` turns into a plain compare
/// this way: with `b = last_not_exceeding(..)`, `x > b` is exactly
/// `exceeds(x)` for every finite `x`.
pub fn last_not_exceeding(start: f64, exceeds: impl Fn(f64) -> bool) -> Option<f64> {
    let mut x = start;
    for _ in 0..WALK_LIMIT {
        if exceeds(x) {
            x = x.next_down();
            continue;
        }
        let up = x.next_up();
        if !up.is_finite() || exceeds(up) {
            return Some(x);
        }
        x = up;
    }
    None
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::segment::percentile_ranks;
    use proptest::prelude::*;

    /// Ties, both zeros, subnormals and extremes: the values a heavy-tie
    /// test case draws from.
    pub(crate) const PALETTE: [f64; 10] = [
        -0.0, 0.0, 5e-324, -5e-324, 2.2e-308, -1.0, 1.0, 2.5, 1e300, -1e300,
    ];

    /// Two single-rank runs over one shared pivot sample and one counting
    /// pass, the way the segmenter selects its raw-trace percentiles.
    fn two_ranks(values: &[f64], ranks: [usize; 2]) -> [f64; 2] {
        let len = values.len();
        let item = |j: usize| values[j];
        let (mut sample, mut g0, mut g1) = (Vec::new(), Vec::new(), Vec::new());
        sample_keys(len, item, &mut sample);
        let mut a = RankRun::new(ranks[0], ranks[0], len, &sample, &mut g0);
        let mut b = RankRun::new(ranks[1], ranks[1], len, &sample, &mut g1);
        for &v in values {
            a.offer(v);
            b.offer(v);
        }
        a.settle(len, item);
        b.settle(len, item);
        [a.select()[0], b.select()[0]]
    }

    /// The sorted oracle of the bracket selection: values at `ranks` after a
    /// full sort in IEEE total order (the order the selection's keys encode,
    /// `-0.0` below `+0.0`), compared by bit pattern.
    fn assert_matches_sorted_oracle(values: &[f64], ranks: [usize; 2]) {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        for (g, &r) in two_ranks(values, ranks).iter().zip(&ranks) {
            assert_eq!(
                g.to_bits(),
                sorted[r].to_bits(),
                "rank {r} of {} items",
                values.len()
            );
        }
    }

    #[test]
    fn bracket_selection_matches_sorted_oracle_on_shaped_inputs() {
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
    fn ulp_walk_lands_on_the_exact_boundary() {
        for denom in [3.0, 17.0, 25.0] {
            for threshold in [
                0.0,
                -0.0,
                1.0,
                -1.0,
                0.1,
                2.675,
                1e-310,
                -1e-310,
                5e-324,
                1e300,
                -1e300,
                f64::MAX,
            ] {
                let exceeds = |d: f64| d / denom > threshold;
                let b = last_not_exceeding(threshold * denom, exceeds).unwrap();
                assert!(!exceeds(b), "{threshold} / {denom}");
                let up = b.next_up();
                assert!(!up.is_finite() || exceeds(up), "{threshold} / {denom}");
            }
            // Non-finite thresholds keep their meaning under `d > b`.
            let walk = |t: f64| last_not_exceeding(t * denom, |d| d / denom > t).unwrap();
            assert_eq!(walk(f64::INFINITY), f64::INFINITY);
            assert_eq!(walk(f64::NEG_INFINITY), f64::NEG_INFINITY);
            assert!(walk(f64::NAN).is_nan());
        }
        // A start far from the boundary does not settle.
        assert_eq!(last_not_exceeding(1.0, |x| x > 2.0), None);
        assert_eq!(last_not_exceeding(1.0, |x| x > 1.0), Some(1.0));
    }

    proptest! {
        #[test]
        fn prop_bracket_selection_matches_sorted_oracle(
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
    }
}
