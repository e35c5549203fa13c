//! Streaming statistics and covariance estimation for template building.

/// Welford's online mean/variance accumulator.
///
/// # Examples
///
/// ```
/// use reveal_trace::stats::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by `n`).
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by `n - 1`; 0 for fewer than 2 samples).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Standard deviation from the population variance.
    pub fn population_std(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Merges another accumulator (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
    }
}

/// Largest dimension whose [`Covariance::push`] keeps its work vector on
/// the stack.
const STACK_DIM: usize = 32;

/// A dense symmetric covariance estimate over `d` dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct Covariance {
    dim: usize,
    count: u64,
    mean: Vec<f64>,
    /// Upper-triangular co-moment accumulation, row-major full matrix for
    /// simplicity.
    comoment: Vec<f64>,
}

impl Covariance {
    /// Creates an accumulator of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            count: 0,
            mean: vec![0.0; dim],
            comoment: vec![0.0; dim * dim],
        }
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds one observation vector.
    ///
    /// The deviation from the old mean lives on the stack up to 32
    /// dimensions (one heap buffer per call above that).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim`.
    pub fn push(&mut self, x: &[f64]) {
        assert_eq!(x.len(), self.dim, "dimension mismatch");
        self.count += 1;
        let n = self.count as f64;
        let mut stack = [0.0; STACK_DIM];
        let mut heap = Vec::new();
        let delta = if self.dim <= STACK_DIM {
            &mut stack[..self.dim]
        } else {
            heap.resize(self.dim, 0.0);
            heap.as_mut_slice()
        };
        for ((d, m), xi) in delta.iter_mut().zip(&mut self.mean).zip(x) {
            *d = xi - *m;
            *m += *d / n;
        }
        let rows = self.comoment.chunks_exact_mut(self.dim.max(1));
        for ((row, xi), m) in rows.zip(x).zip(&self.mean) {
            let d2_i = xi - m;
            for (c, d) in row.iter_mut().zip(&*delta) {
                *c += d * d2_i;
            }
        }
    }

    /// The mean vector.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The sample covariance matrix (row-major), dividing by `n - 1`.
    ///
    /// Returns the zero matrix for fewer than 2 observations.
    pub fn sample_covariance(&self) -> Vec<f64> {
        if self.count < 2 {
            return vec![0.0; self.dim * self.dim];
        }
        let denom = (self.count - 1) as f64;
        self.comoment.iter().map(|c| c / denom).collect()
    }
}

/// Pearson correlation between two equal-length slices (0 when degenerate).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn pearson_correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "correlation inputs must match in length");
    let n = a.len() as f64;
    if a.is_empty() {
        return 0.0;
    }
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn running_stats_basics() {
        let mut s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.population_variance(), 0.0);
        s.push(1.0);
        assert_eq!(s.mean(), 1.0);
        assert_eq!(s.sample_variance(), 0.0);
        s.push(3.0);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.sample_variance(), 2.0);
        assert_eq!(s.population_variance(), 1.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let mut all = RunningStats::new();
        for &x in &data {
            all.push(x);
        }
        let mut left = RunningStats::new();
        let mut right = RunningStats::new();
        for &x in &data[..37] {
            left.push(x);
        }
        for &x in &data[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-10);
        assert!((left.population_variance() - all.population_variance()).abs() < 1e-10);
    }

    #[test]
    fn covariance_matches_manual() {
        // Two perfectly correlated dimensions.
        let mut c = Covariance::new(2);
        for i in 0..10 {
            let x = i as f64;
            c.push(&[x, 2.0 * x + 1.0]);
        }
        let cov = c.sample_covariance();
        // var(x) over 0..9 with n-1: 9.166..
        let var_x = cov[0];
        assert!((var_x - 55.0 / 6.0).abs() < 1e-9);
        assert!(
            (cov[1] - 2.0 * var_x).abs() < 1e-9,
            "cov(x, 2x+1) = 2 var(x)"
        );
        assert!((cov[3] - 4.0 * var_x).abs() < 1e-9);
        assert_eq!(cov[1], cov[2], "symmetric");
        assert!((c.mean()[0] - 4.5).abs() < 1e-12);
    }

    /// The reference push: a fresh `delta` vector and indexed loops.
    fn push_reference(c: &mut Covariance, x: &[f64]) {
        assert_eq!(x.len(), c.dim, "dimension mismatch");
        c.count += 1;
        let n = c.count as f64;
        let mut delta = vec![0.0; c.dim];
        for i in 0..c.dim {
            delta[i] = x[i] - c.mean[i];
            c.mean[i] += delta[i] / n;
        }
        for i in 0..c.dim {
            let d2_i = x[i] - c.mean[i];
            for j in 0..c.dim {
                c.comoment[i * c.dim + j] += delta[j] * d2_i;
            }
        }
    }

    #[test]
    fn push_matches_indexed_reference_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Both sides of the stack limit, and the empty dimension.
        for dim in 0..=40 {
            let mut fast = Covariance::new(dim);
            let mut slow = Covariance::new(dim);
            for obs in 0..dim + 7 {
                let x: Vec<f64> = (0..dim)
                    .map(|i| {
                        ((obs * 31 + i * 17) as f64 * 0.37).sin() * 10f64.powi((i % 5) as i32 - 2)
                    })
                    .collect();
                fast.push(&x);
                push_reference(&mut slow, &x);
                assert_eq!(fast.count(), slow.count());
                assert_eq!(bits(fast.mean()), bits(slow.mean()), "dim {dim} obs {obs}");
                assert_eq!(
                    bits(&fast.comoment),
                    bits(&slow.comoment),
                    "dim {dim} obs {obs}"
                );
            }
        }
    }

    #[test]
    fn correlation_known_values() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let up = [2.0, 4.0, 6.0, 8.0];
        let down = [4.0, 3.0, 2.0, 1.0];
        let flat = [5.0, 5.0, 5.0, 5.0];
        assert!((pearson_correlation(&a, &up) - 1.0).abs() < 1e-12);
        assert!((pearson_correlation(&a, &down) + 1.0).abs() < 1e-12);
        assert_eq!(pearson_correlation(&a, &flat), 0.0);
    }

    proptest! {
        #[test]
        fn prop_welford_matches_two_pass(data in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut s = RunningStats::new();
            for &x in &data {
                s.push(x);
            }
            let n = data.len() as f64;
            let mean = data.iter().sum::<f64>() / n;
            let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
            prop_assert!((s.population_variance() - var).abs() < 1e-4 * (1.0 + var));
        }

        #[test]
        fn prop_correlation_bounded(
            a in proptest::collection::vec(-100.0f64..100.0, 3..50),
            b in proptest::collection::vec(-100.0f64..100.0, 3..50),
        ) {
            let len = a.len().min(b.len());
            let r = pearson_correlation(&a[..len], &b[..len]);
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }
    }
}
