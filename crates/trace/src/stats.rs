//! Streaming (Welford) covariance estimation: the template fit's pooled
//! covariance and the TVLA t-test's per-sample moments.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
