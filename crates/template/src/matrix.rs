//! Small dense symmetric-positive-definite matrix routines (Cholesky based)
//! for multivariate Gaussian templates.
//!
//! The contiguous inner products and row updates go through the
//! [`reveal_par::simd`] kernels: lane-structured, autovectorizable, and
//! deterministic (the lane recurrence is part of the kernel definition, so
//! results are identical across thread counts and machines). Strided
//! accesses (the backward substitution, the Jacobi rotations) stay scalar —
//! gathering a column defeats packed loads anyway.

use reveal_par::simd;
use std::fmt;

/// Errors from matrix factorization.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixError {
    /// The matrix is not (numerically) positive definite.
    NotPositiveDefinite { pivot: usize, value: f64 },
    /// Dimension mismatch between operands.
    DimensionMismatch { expected: usize, got: usize },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::NotPositiveDefinite { pivot, value } => {
                write!(
                    f,
                    "matrix not positive definite at pivot {pivot} (value {value})"
                )
            }
            MatrixError::DimensionMismatch { expected, got } => {
                write!(f, "expected dimension {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for MatrixError {}

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite matrix,
/// retaining `L` (lower triangular) for solves and log-determinants.
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    dim: usize,
    /// Row-major lower-triangular factor (upper part unused).
    l: Vec<f64>,
}

impl Cholesky {
    /// Factorizes a row-major symmetric matrix.
    ///
    /// # Errors
    ///
    /// Fails when a pivot is non-positive (matrix not positive definite).
    pub fn new(matrix: &[f64], dim: usize) -> Result<Self, MatrixError> {
        assert_eq!(matrix.len(), dim * dim, "matrix must be dim x dim");
        let mut l = vec![0.0; dim * dim];
        for i in 0..dim {
            for j in 0..=i {
                // Rows i and j of L are contiguous prefixes — a dot kernel.
                let sum = matrix[i * dim + j]
                    - simd::dot(&l[i * dim..i * dim + j], &l[j * dim..j * dim + j]);
                if i == j {
                    if sum <= 0.0 {
                        return Err(MatrixError::NotPositiveDefinite {
                            pivot: i,
                            value: sum,
                        });
                    }
                    l[i * dim + j] = sum.sqrt();
                } else {
                    l[i * dim + j] = sum / l[j * dim + j];
                }
            }
        }
        Ok(Self { dim, l })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The row-major lower-triangular factor `L` (upper part zero).
    pub(crate) fn lower(&self) -> &[f64] {
        &self.l
    }

    /// `ln(det A) = 2 · Σ ln L_ii`.
    pub fn log_determinant(&self) -> f64 {
        (0..self.dim)
            .map(|i| self.l[i * self.dim + i].ln())
            .sum::<f64>()
            * 2.0
    }

    /// Solves `A·x = b`: the forward half `L·y = b`, then the backward
    /// half `Lᵀ·x = y`.
    ///
    /// # Errors
    ///
    /// Fails on dimension mismatch.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, MatrixError> {
        if b.len() != self.dim {
            return Err(MatrixError::DimensionMismatch {
                expected: self.dim,
                got: b.len(),
            });
        }
        Ok(self.solve_upper(&self.solve_lower(b)))
    }

    /// Solves `L·y = b` by forward substitution. Row i of L and the solved
    /// prefix of y are both contiguous, so the inner product vectorizes.
    ///
    /// # Panics
    ///
    /// Panics if `b` is shorter than the dimension.
    pub(crate) fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.dim];
        for i in 0..self.dim {
            let sum = b[i] - simd::dot(&self.l[i * self.dim..i * self.dim + i], &y[..i]);
            y[i] = sum / self.l[i * self.dim + i];
        }
        y
    }

    /// Solves `Lᵀ·x = y` by backward substitution.
    ///
    /// # Panics
    ///
    /// Panics if `y` is shorter than the dimension.
    pub(crate) fn solve_upper(&self, y: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.dim];
        for i in (0..self.dim).rev() {
            let mut sum = y[i];
            for k in i + 1..self.dim {
                sum -= self.l[k * self.dim + i] * x[k];
            }
            x[i] = sum / self.l[i * self.dim + i];
        }
        x
    }

    /// The Mahalanobis quadratic form `(x−μ)ᵀ A⁻¹ (x−μ)`.
    ///
    /// # Errors
    ///
    /// Fails on dimension mismatch.
    pub fn mahalanobis_squared(&self, x: &[f64], mean: &[f64]) -> Result<f64, MatrixError> {
        if x.len() != self.dim || mean.len() != self.dim {
            return Err(MatrixError::DimensionMismatch {
                expected: self.dim,
                got: x.len(),
            });
        }
        let diff: Vec<f64> = x.iter().zip(mean).map(|(a, b)| a - b).collect();
        let solved = self.solve(&diff)?;
        Ok(simd::dot(&diff, &solved))
    }
}

/// Eigen-decomposition of a symmetric matrix by the cyclic Jacobi method:
/// returns `(eigenvalues, eigenvectors)` with eigenvectors as rows, sorted
/// by descending eigenvalue.
///
/// # Panics
///
/// Panics if `matrix.len() != dim * dim`.
pub fn symmetric_eigen(matrix: &[f64], dim: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
    assert_eq!(matrix.len(), dim * dim, "matrix must be dim x dim");
    let mut a = matrix.to_vec();
    // v starts as identity; accumulates the rotations (columns = eigenvectors).
    let mut v = vec![0.0; dim * dim];
    for i in 0..dim {
        v[i * dim + i] = 1.0;
    }
    let idx = |r: usize, c: usize| r * dim + c;
    for _sweep in 0..100 {
        // Largest off-diagonal magnitude decides convergence.
        let mut off = 0.0f64;
        for p in 0..dim {
            for q in p + 1..dim {
                off = off.max(a[idx(p, q)].abs());
            }
        }
        if off < 1e-12 {
            break;
        }
        for p in 0..dim {
            for q in p + 1..dim {
                let apq = a[idx(p, q)];
                if apq.abs() < 1e-14 {
                    continue;
                }
                let app = a[idx(p, p)];
                let aqq = a[idx(q, q)];
                let theta = 0.5 * (aqq - app) / apq;
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Rotate rows/columns p and q of A.
                for k in 0..dim {
                    let akp = a[idx(k, p)];
                    let akq = a[idx(k, q)];
                    a[idx(k, p)] = c * akp - s * akq;
                    a[idx(k, q)] = s * akp + c * akq;
                }
                for k in 0..dim {
                    let apk = a[idx(p, k)];
                    let aqk = a[idx(q, k)];
                    a[idx(p, k)] = c * apk - s * aqk;
                    a[idx(q, k)] = s * apk + c * aqk;
                }
                // Accumulate rotation into V.
                for k in 0..dim {
                    let vkp = v[idx(k, p)];
                    let vkq = v[idx(k, q)];
                    v[idx(k, p)] = c * vkp - s * vkq;
                    v[idx(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    let mut pairs: Vec<(f64, Vec<f64>)> = (0..dim)
        .map(|i| {
            let value = a[idx(i, i)];
            let vector: Vec<f64> = (0..dim).map(|k| v[idx(k, i)]).collect();
            (value, vector)
        })
        .collect();
    pairs.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap_or(std::cmp::Ordering::Equal));
    let values = pairs.iter().map(|(e, _)| *e).collect();
    let vectors = pairs.into_iter().map(|(_, v)| v).collect();
    (values, vectors)
}

/// Adds `lambda` to the diagonal of a row-major square matrix (ridge
/// regularization for nearly singular covariance estimates).
pub fn regularize(matrix: &mut [f64], dim: usize, lambda: f64) {
    for i in 0..dim {
        matrix[i * dim + i] += lambda;
    }
}

/// Cost model for one output row of a `dim × dim` product (units: `dim²`
/// multiply-adds): small matrices (the common POI-sized fits) stay serial
/// instead of paying thread handoff for microseconds of work, large LDA
/// fits fan out with measured claim sizes.
static MATMUL_ROW_COST: reveal_par::CostModel =
    reveal_par::CostModel::new("matrix.matmul.row", 1.0);

/// Dense square matrix product `C = A·B` (row-major), in the cache-friendly
/// **i-k-j** loop order: the inner loop walks row `k` of `B` and row `i` of
/// `C` contiguously, so wide-window LDA fits stop thrashing the cache the
/// way the textbook i-j-k order (which strides down a column of `B`) does.
/// Rows of `C` are independent and are computed in parallel via `reveal-par`,
/// each row bit-identical regardless of thread count.
///
/// # Panics
///
/// Panics if either operand is not `dim × dim`.
pub fn mat_mul(a: &[f64], b: &[f64], dim: usize) -> Vec<f64> {
    assert_eq!(a.len(), dim * dim, "left operand must be dim x dim");
    assert_eq!(b.len(), dim * dim, "right operand must be dim x dim");
    let units = (dim * dim) as u64;
    let rows = reveal_par::par_map_index_modeled(dim, &MATMUL_ROW_COST, units, |i| {
        let mut row = vec![0.0; dim];
        for k in 0..dim {
            let aik = a[i * dim + k];
            if aik == 0.0 {
                continue; // triangular operands skip half the work
            }
            // axpy is element-wise — bit-identical to the plain loop.
            simd::axpy(aik, &b[k * dim..(k + 1) * dim], &mut row);
        }
        row
    });
    let mut out = Vec::with_capacity(dim * dim);
    for row in rows {
        out.extend(row);
    }
    out
}

/// Dense square product with the right operand transposed, `C = A·Bᵀ`
/// (row-major). Transposing the right operand turns every inner product into
/// a scan of two contiguous rows — the other standard fix for the i-j-k
/// stride problem, used where the transposed operand is already at hand.
///
/// # Panics
///
/// Panics if either operand is not `dim × dim`.
pub fn mat_mul_transpose_right(a: &[f64], b: &[f64], dim: usize) -> Vec<f64> {
    assert_eq!(a.len(), dim * dim, "left operand must be dim x dim");
    assert_eq!(b.len(), dim * dim, "right operand must be dim x dim");
    let units = (dim * dim) as u64;
    let rows = reveal_par::par_map_index_modeled(dim, &MATMUL_ROW_COST, units, |i| {
        let a_row = &a[i * dim..(i + 1) * dim];
        (0..dim)
            .map(|j| simd::dot(a_row, &b[j * dim..(j + 1) * dim]))
            .collect::<Vec<f64>>()
    });
    let mut out = Vec::with_capacity(dim * dim);
    for row in rows {
        out.extend(row);
    }
    out
}

/// Multiplies a row-major square matrix by a vector.
pub fn mat_vec(matrix: &[f64], dim: usize, v: &[f64]) -> Vec<f64> {
    assert_eq!(v.len(), dim);
    (0..dim)
        .map(|i| simd::dot(&matrix[i * dim..(i + 1) * dim], v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn factorizes_identity() {
        let eye = vec![1.0, 0.0, 0.0, 1.0];
        let ch = Cholesky::new(&eye, 2).unwrap();
        assert_eq!(ch.log_determinant(), 0.0);
        assert_eq!(ch.solve(&[3.0, 4.0]).unwrap(), vec![3.0, 4.0]);
    }

    #[test]
    fn known_factorization() {
        // A = [[4, 2], [2, 3]] → L = [[2, 0], [1, sqrt(2)]].
        let a = vec![4.0, 2.0, 2.0, 3.0];
        let ch = Cholesky::new(&a, 2).unwrap();
        assert!((ch.log_determinant() - (8.0f64).ln()).abs() < 1e-12);
        // Solve A x = [8, 7] → x = [ (8*3-7*2)/8, (4*7-2*8)/8 ] = [1.25, 1.5].
        let x = ch.solve(&[8.0, 7.0]).unwrap();
        assert!((x[0] - 1.25).abs() < 1e-12);
        assert!((x[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let a = vec![1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::new(&a, 2),
            Err(MatrixError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn mahalanobis_identity_is_euclidean() {
        let eye = vec![1.0, 0.0, 0.0, 1.0];
        let ch = Cholesky::new(&eye, 2).unwrap();
        let d2 = ch.mahalanobis_squared(&[3.0, 4.0], &[0.0, 0.0]).unwrap();
        assert!((d2 - 25.0).abs() < 1e-12);
    }

    #[test]
    fn regularization_fixes_singularity() {
        let mut singular = vec![1.0, 1.0, 1.0, 1.0];
        assert!(Cholesky::new(&singular, 2).is_err());
        regularize(&mut singular, 2, 1e-6);
        assert!(Cholesky::new(&singular, 2).is_ok());
    }

    #[test]
    fn dimension_mismatch_reported() {
        let ch = Cholesky::new(&[1.0], 1).unwrap();
        assert!(matches!(
            ch.solve(&[1.0, 2.0]),
            Err(MatrixError::DimensionMismatch {
                expected: 1,
                got: 2
            })
        ));
    }

    #[test]
    fn eigen_diagonal_matrix() {
        let m = vec![3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0];
        let (values, vectors) = symmetric_eigen(&m, 3);
        assert!((values[0] - 3.0).abs() < 1e-10);
        assert!((values[1] - 2.0).abs() < 1e-10);
        assert!((values[2] - 1.0).abs() < 1e-10);
        // Dominant eigenvector is e0.
        assert!(vectors[0][0].abs() > 0.999);
    }

    #[test]
    fn eigen_known_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let m = vec![2.0, 1.0, 1.0, 2.0];
        let (values, vectors) = symmetric_eigen(&m, 2);
        assert!((values[0] - 3.0).abs() < 1e-10);
        assert!((values[1] - 1.0).abs() < 1e-10);
        // Eigenvector for 3 is (1,1)/√2 up to sign.
        let v = &vectors[0];
        assert!((v[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
        assert!((v[0] - v[1]).abs() < 1e-9 || (v[0] + v[1]).abs() < 1e-9);
        assert!((v[0] * v[1]).signum() > 0.0);
    }

    #[test]
    fn eigen_reconstructs_matrix() {
        // A = Σ λ_i v_i v_iᵀ.
        let m = vec![4.0, 1.0, 0.5, 1.0, 3.0, 0.2, 0.5, 0.2, 1.0];
        let (values, vectors) = symmetric_eigen(&m, 3);
        for r in 0..3 {
            for c in 0..3 {
                let mut acc = 0.0;
                for i in 0..3 {
                    acc += values[i] * vectors[i][r] * vectors[i][c];
                }
                assert!((acc - m[r * 3 + c]).abs() < 1e-9, "({r},{c})");
            }
        }
        // Eigenvectors are orthonormal.
        for i in 0..3 {
            for j in 0..3 {
                let dot: f64 = vectors[i].iter().zip(&vectors[j]).map(|(a, b)| a * b).sum();
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expected).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn mat_mul_known_product() {
        // [[1,2],[3,4]] · [[5,6],[7,8]] = [[19,22],[43,50]].
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        assert_eq!(mat_mul(&a, &b, 2), vec![19.0, 22.0, 43.0, 50.0]);
        // A·Bᵀ with Bᵀ = [[5,7],[6,8]] → [[17,23],[39,53]].
        assert_eq!(
            mat_mul_transpose_right(&a, &b, 2),
            vec![17.0, 23.0, 39.0, 53.0]
        );
    }

    #[test]
    fn mat_mul_matches_naive_and_threads() {
        // Pseudo-random 17×17 operands; ikj must agree with the naive ijk
        // order exactly (each c_ij is the same left-to-right sum over k).
        let dim = 17;
        let fill = |seed: u64| -> Vec<f64> {
            (0..dim * dim)
                .map(|i| {
                    let h = (i as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(seed)
                        .rotate_left(21);
                    (h % 2000) as f64 / 1000.0 - 1.0
                })
                .collect()
        };
        let a = fill(1);
        let b = fill(2);
        let mut naive = vec![0.0; dim * dim];
        for i in 0..dim {
            for j in 0..dim {
                let mut acc = 0.0;
                for k in 0..dim {
                    acc += a[i * dim + k] * b[k * dim + j];
                }
                naive[i * dim + j] = acc;
            }
        }
        for threads in [1, 4] {
            let fast = reveal_par::with_threads(threads, || mat_mul(&a, &b, dim));
            for (got, want) in fast.iter().zip(&naive) {
                assert!((got - want).abs() < 1e-12);
            }
        }
        // A·Bᵀ equals A·(Bᵀ) computed naively.
        let mut bt = vec![0.0; dim * dim];
        for r in 0..dim {
            for c in 0..dim {
                bt[r * dim + c] = b[c * dim + r];
            }
        }
        let via_transpose = mat_mul_transpose_right(&a, &b, dim);
        let reference = mat_mul(&a, &bt, dim);
        for (got, want) in via_transpose.iter().zip(&reference) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    proptest! {
        #[test]
        fn prop_solve_inverts(
            diag in proptest::collection::vec(0.5f64..10.0, 1..6),
            b_seed in proptest::collection::vec(-10.0f64..10.0, 6),
        ) {
            // Build SPD matrix A = D + 0.1 * ones-outer (still SPD for our diag range).
            let dim = diag.len();
            let mut a = vec![0.1; dim * dim];
            for i in 0..dim {
                a[i * dim + i] += diag[i];
            }
            let ch = Cholesky::new(&a, dim).unwrap();
            let b = &b_seed[..dim];
            let x = ch.solve(b).unwrap();
            let back = mat_vec(&a, dim, &x);
            for (got, want) in back.iter().zip(b) {
                prop_assert!((got - want).abs() < 1e-8, "{got} vs {want}");
            }
        }

        #[test]
        fn prop_mahalanobis_nonnegative(
            diag in proptest::collection::vec(0.5f64..10.0, 2..6),
            x in proptest::collection::vec(-10.0f64..10.0, 6),
        ) {
            let dim = diag.len();
            let mut a = vec![0.0; dim * dim];
            for i in 0..dim {
                a[i * dim + i] = diag[i];
            }
            let ch = Cholesky::new(&a, dim).unwrap();
            let mean = vec![0.0; dim];
            let d2 = ch.mahalanobis_squared(&x[..dim], &mean).unwrap();
            prop_assert!(d2 >= 0.0);
        }
    }
}
