//! Fisher linear discriminant analysis: supervised dimensionality reduction
//! for template attacks — the standard answer to the "curse of
//! dimensionality" the paper cites (\[36\]): instead of picking individual POI
//! samples, project whole windows onto the few directions that maximize
//! between-class over within-class scatter.

use crate::matrix::{
    mat_mul, mat_mul_transpose_right, regularize, symmetric_eigen, Cholesky, MatrixError,
};
use reveal_par::simd;
use reveal_trace::TraceSet;
use std::collections::BTreeMap;
use std::fmt;

/// Errors from LDA fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum LdaError {
    /// Fewer than two classes.
    NotEnoughClasses(usize),
    /// No observations at all.
    Empty,
    /// Requested more components than available (`min(classes−1, dim)`).
    TooManyComponents { requested: usize, available: usize },
    /// The within-class scatter could not be factorized.
    Matrix(MatrixError),
}

impl fmt::Display for LdaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LdaError::NotEnoughClasses(n) => write!(f, "LDA needs >= 2 classes, got {n}"),
            LdaError::Empty => write!(f, "LDA fit on empty data"),
            LdaError::TooManyComponents {
                requested,
                available,
            } => {
                write!(
                    f,
                    "requested {requested} components, only {available} available"
                )
            }
            LdaError::Matrix(e) => write!(f, "scatter factorization failed: {e}"),
        }
    }
}

impl std::error::Error for LdaError {}

impl From<MatrixError> for LdaError {
    fn from(e: MatrixError) -> Self {
        LdaError::Matrix(e)
    }
}

/// Observations per parallel partial-scatter chunk. Fixed (never derived
/// from the thread count) so the merge order — hence every bit of the fitted
/// projection — is identical for any `REVEAL_THREADS`.
const SCATTER_CHUNK: usize = 64;

/// Cost model for one column of the `L⁻¹` forward substitution (units:
/// `dim²` multiply-adds; a column is ~half that, folded into the prior).
static LINV_COLUMN_COST: reveal_par::CostModel = reveal_par::CostModel::new("lda.linv.column", 0.5);

/// Cost model for one chunk of the within-class scatter (units: `dim²`
/// multiply-adds per observation, times [`SCATTER_CHUNK`]).
static SCATTER_CHUNK_COST: reveal_par::CostModel =
    reveal_par::CostModel::new("lda.scatter.chunk", 1.0);

/// Cost model for projecting one observation (units: `components · dim`
/// multiply-adds).
static PROJECT_COST: reveal_par::CostModel = reveal_par::CostModel::new("lda.project", 1.0);

/// A fitted LDA projection (rows of `matrix` are the discriminant
/// directions in input space).
#[derive(Debug, Clone, PartialEq)]
pub struct LdaProjection {
    dim: usize,
    components: Vec<Vec<f64>>,
}

impl LdaProjection {
    /// Fits LDA from `(label, observation)` pairs, keeping `components`
    /// discriminant directions.
    ///
    /// # Errors
    ///
    /// Fails with fewer than two classes, more components than
    /// `min(classes − 1, dim)`, or singular scatter (use `ridge`).
    pub fn fit(
        observations: &[(i64, Vec<f64>)],
        components: usize,
        ridge: f64,
    ) -> Result<Self, LdaError> {
        let dim = observations
            .first()
            .map(|(_, v)| v.len())
            .ok_or(LdaError::Empty)?;
        let mut by_class: BTreeMap<i64, Vec<&Vec<f64>>> = BTreeMap::new();
        for (label, v) in observations {
            by_class.entry(*label).or_default().push(v);
        }
        let class_count = by_class.len();
        if class_count < 2 {
            return Err(LdaError::NotEnoughClasses(class_count));
        }
        let available = (class_count - 1).min(dim);
        if components == 0 || components > available {
            return Err(LdaError::TooManyComponents {
                requested: components,
                available,
            });
        }
        let total = observations.len() as f64;
        // Grand mean and class means.
        let mut grand = vec![0.0; dim];
        for (_, v) in observations {
            for (g, x) in grand.iter_mut().zip(v) {
                *g += x;
            }
        }
        for g in &mut grand {
            *g /= total;
        }
        let mut class_means: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
        for (&label, rows) in &by_class {
            let mut mean = vec![0.0; dim];
            for v in rows {
                for (m, x) in mean.iter_mut().zip(v.iter()) {
                    *m += x;
                }
            }
            for m in &mut mean {
                *m /= rows.len() as f64;
            }
            class_means.insert(label, mean);
        }
        // Within-class scatter S_w: each observation's outer product is
        // independent, so chunks of observations accumulate partial scatters
        // in parallel and merge in chunk order. Chunk boundaries are fixed
        // (not thread-dependent), so the sum — and every result downstream —
        // is bit-identical for any `REVEAL_THREADS`.
        let chunks = observations.len().div_ceil(SCATTER_CHUNK);
        let chunk_units = (SCATTER_CHUNK * dim * dim) as u64;
        let partial_scatters =
            reveal_par::par_map_index_modeled(chunks, &SCATTER_CHUNK_COST, chunk_units, |c| {
                let chunk = &observations
                    [c * SCATTER_CHUNK..((c + 1) * SCATTER_CHUNK).min(observations.len())];
                let mut local = vec![0.0; dim * dim];
                let mut diff = vec![0.0; dim];
                for (label, v) in chunk {
                    let mean = &class_means[label];
                    // The centered observation is shared by every row of the
                    // outer product: computing it once removes dim² redundant
                    // subtractions (the old inner loop re-centered per row)
                    // and turns each row update into an axpy — bit-identical,
                    // same per-slot values and order.
                    for ((d, x), m) in diff.iter_mut().zip(v.iter()).zip(mean) {
                        *d = x - m;
                    }
                    for r in 0..dim {
                        simd::axpy(diff[r], &diff, &mut local[r * dim..(r + 1) * dim]);
                    }
                }
                local
            });
        let mut sw = vec![0.0; dim * dim];
        for partial in partial_scatters {
            for (acc, x) in sw.iter_mut().zip(&partial) {
                *acc += x;
            }
        }
        let mut sb = vec![0.0; dim * dim];
        for (&label, rows) in &by_class {
            let mean = &class_means[&label];
            let w = rows.len() as f64;
            for r in 0..dim {
                let dr = mean[r] - grand[r];
                for c in 0..dim {
                    sb[r * dim + c] += w * dr * (mean[c] - grand[c]);
                }
            }
        }
        regularize(&mut sw, dim, ridge.max(1e-12));
        // Solve the generalized eigenproblem S_b w = λ S_w w by whitening:
        // S_w = L Lᵀ, then eigen-decompose M = L⁻¹ S_b L⁻ᵀ (symmetric) and
        // back-transform the eigenvectors with w = L⁻ᵀ u.
        let factor = Cholesky::new(&sw, dim)?;
        // Invert L once (column-wise forward substitution, parallel over
        // columns), then form M with the two cache-friendly products: B =
        // L⁻¹·S_b walks rows contiguously in i-k-j order, and B·L⁻ᵀ scans
        // two contiguous rows per inner product instead of striding columns.
        // One column is a ~dim²/2 forward substitution; the cost model keeps
        // small systems serial rather than paying per-call thread spawns.
        let units = (dim * dim) as u64;
        let linv_columns = reveal_par::par_map_index_modeled(dim, &LINV_COLUMN_COST, units, |j| {
            let mut unit = vec![0.0; dim];
            unit[j] = 1.0;
            factor.solve_lower(&unit)
        });
        let mut linv = vec![0.0; dim * dim];
        for (j, column) in linv_columns.iter().enumerate() {
            for r in j..dim {
                linv[r * dim + j] = column[r];
            }
        }
        let b = mat_mul(&linv, &sb, dim);
        let m = mat_mul_transpose_right(&b, &linv, dim);
        let mut m = m;
        // Symmetrize against numerical drift, then eigen-decompose.
        for r in 0..dim {
            for c in r + 1..dim {
                let avg = 0.5 * (m[r * dim + c] + m[c * dim + r]);
                m[r * dim + c] = avg;
                m[c * dim + r] = avg;
            }
        }
        let (_values, vectors) = symmetric_eigen(&m, dim);
        // Back-transform: w = L⁻ᵀ u (backward substitution).
        let components_vec: Vec<Vec<f64>> = vectors
            .into_iter()
            .take(components)
            .map(|u| factor.solve_upper(&u))
            .collect();
        Ok(Self {
            dim,
            components: components_vec,
        })
    }

    /// Fits from a labelled [`TraceSet`].
    ///
    /// # Errors
    ///
    /// Same as [`LdaProjection::fit`].
    pub fn fit_trace_set(set: &TraceSet, components: usize, ridge: f64) -> Result<Self, LdaError> {
        let observations: Vec<(i64, Vec<f64>)> = set
            .iter()
            .filter_map(|t| t.label().map(|l| (l, t.samples().to_vec())))
            .collect();
        Self::fit(&observations, components, ridge)
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.dim
    }

    /// Number of discriminant components.
    pub fn components(&self) -> usize {
        self.components.len()
    }

    /// Projects a batch of observations, parallel over observations; output
    /// order matches input order.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn project_batch<S: AsRef<[f64]> + Sync>(&self, observations: &[S]) -> Vec<Vec<f64>> {
        // A projection is a handful of dot products; the cost model demands
        // a real batch per worker before fanning out.
        let units = (self.components.len() * self.dim) as u64;
        reveal_par::par_map_index_modeled(observations.len(), &PROJECT_COST, units, |i| {
            self.project(observations[i].as_ref())
        })
    }

    /// Projects an observation onto the discriminant directions.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn project(&self, observation: &[f64]) -> Vec<f64> {
        assert_eq!(observation.len(), self.dim, "dimension mismatch");
        self.components
            .iter()
            .map(|w| simd::dot(w, observation))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered(label: i64, center: &[f64], count: usize, spread: f64) -> Vec<(i64, Vec<f64>)> {
        (0..count as u64)
            .map(|i| {
                let v = center
                    .iter()
                    .enumerate()
                    .map(|(d, &c)| {
                        let h = i
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add((d as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
                            .rotate_left(17);
                        c + spread * ((h % 1000) as f64 / 1000.0 - 0.5)
                    })
                    .collect();
                (label, v)
            })
            .collect()
    }

    #[test]
    fn separates_two_classes_along_their_axis() {
        // Classes differ along dimension 0 only; LDA's single component must
        // align with e0 (up to sign) and separate projections cleanly.
        let mut data = clustered(0, &[0.0, 5.0, -1.0], 60, 0.5);
        data.extend(clustered(1, &[3.0, 5.0, -1.0], 60, 0.5));
        let lda = LdaProjection::fit(&data, 1, 1e-6).unwrap();
        assert_eq!(lda.components(), 1);
        let p0: Vec<f64> = data
            .iter()
            .filter(|(l, _)| *l == 0)
            .map(|(_, v)| lda.project(v)[0])
            .collect();
        let p1: Vec<f64> = data
            .iter()
            .filter(|(l, _)| *l == 1)
            .map(|(_, v)| lda.project(v)[0])
            .collect();
        let m0 = p0.iter().sum::<f64>() / p0.len() as f64;
        let m1 = p1.iter().sum::<f64>() / p1.len() as f64;
        let sd = |p: &[f64], m: f64| {
            (p.iter().map(|x| (x - m).powi(2)).sum::<f64>() / p.len() as f64).sqrt()
        };
        let separation = (m1 - m0).abs() / (sd(&p0, m0) + sd(&p1, m1)).max(1e-9);
        assert!(separation > 3.0, "separation {separation}");
    }

    #[test]
    fn three_classes_two_components() {
        let mut data = clustered(0, &[0.0, 0.0, 1.0, 1.0], 50, 0.4);
        data.extend(clustered(1, &[4.0, 0.0, 1.0, 1.0], 50, 0.4));
        data.extend(clustered(2, &[0.0, 4.0, 1.0, 1.0], 50, 0.4));
        let lda = LdaProjection::fit(&data, 2, 1e-6).unwrap();
        // Nearest-class-mean classification in LDA space is near perfect.
        let mut means: std::collections::BTreeMap<i64, Vec<f64>> = Default::default();
        let mut counts: std::collections::BTreeMap<i64, usize> = Default::default();
        for (l, v) in &data {
            let p = lda.project(v);
            let e = means.entry(*l).or_insert_with(|| vec![0.0; 2]);
            for (a, b) in e.iter_mut().zip(&p) {
                *a += b;
            }
            *counts.entry(*l).or_insert(0) += 1;
        }
        for (l, m) in means.iter_mut() {
            for x in m.iter_mut() {
                *x /= counts[l] as f64;
            }
        }
        let mut hits = 0;
        for (l, v) in &data {
            let p = lda.project(v);
            let best = means
                .iter()
                .min_by(|a, b| {
                    let da: f64 = a.1.iter().zip(&p).map(|(x, y)| (x - y).powi(2)).sum();
                    let db: f64 = b.1.iter().zip(&p).map(|(x, y)| (x - y).powi(2)).sum();
                    da.partial_cmp(&db).unwrap()
                })
                .map(|(l, _)| *l)
                .unwrap();
            hits += (best == *l) as usize;
        }
        assert!(hits as f64 / data.len() as f64 > 0.97);
    }

    #[test]
    fn fit_is_bit_identical_across_thread_counts() {
        let mut data = clustered(0, &[0.0, 3.0, -1.0, 0.5], 90, 0.6);
        data.extend(clustered(1, &[2.5, 3.0, -1.0, 0.5], 90, 0.6));
        data.extend(clustered(2, &[0.0, 0.0, 2.0, 0.5], 90, 0.6));
        let reference = reveal_par::with_threads(1, || LdaProjection::fit(&data, 2, 1e-6).unwrap());
        for threads in [2, 4, 8] {
            let fitted =
                reveal_par::with_threads(threads, || LdaProjection::fit(&data, 2, 1e-6).unwrap());
            assert_eq!(fitted, reference, "threads {threads}");
        }
        // Batch projection equals the serial loop, in order.
        let observations: Vec<Vec<f64>> = data.iter().map(|(_, v)| v.clone()).collect();
        let serial: Vec<Vec<f64>> = observations.iter().map(|o| reference.project(o)).collect();
        let batch = reveal_par::with_threads(4, || reference.project_batch(&observations));
        assert_eq!(batch, serial);
    }

    #[test]
    fn error_paths() {
        assert!(matches!(
            LdaProjection::fit(&[], 1, 1e-6),
            Err(LdaError::Empty)
        ));
        let one_class = clustered(0, &[0.0, 0.0], 10, 0.1);
        assert!(matches!(
            LdaProjection::fit(&one_class, 1, 1e-6),
            Err(LdaError::NotEnoughClasses(1))
        ));
        let mut two = clustered(0, &[0.0, 0.0], 10, 0.1);
        two.extend(clustered(1, &[1.0, 0.0], 10, 0.1));
        assert!(matches!(
            LdaProjection::fit(&two, 2, 1e-6),
            Err(LdaError::TooManyComponents {
                requested: 2,
                available: 1
            })
        ));
    }

    #[test]
    fn projection_is_linear() {
        let mut data = clustered(0, &[0.0, 1.0], 30, 0.3);
        data.extend(clustered(1, &[2.0, -1.0], 30, 0.3));
        let lda = LdaProjection::fit(&data, 1, 1e-6).unwrap();
        let a = [1.0, 2.0];
        let b = [-0.5, 0.7];
        let sum = [a[0] + b[0], a[1] + b[1]];
        let pa = lda.project(&a)[0];
        let pb = lda.project(&b)[0];
        let ps = lda.project(&sum)[0];
        assert!((ps - (pa + pb)).abs() < 1e-9);
    }
}
