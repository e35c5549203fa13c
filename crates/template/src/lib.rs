#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
// Indexed loops are the clearest notation for the dense numeric kernels
// in this workspace (convolutions, scatter matrices, lattice bases).
#![allow(clippy::needless_range_loop)]

//! # reveal-template
//!
//! The template-attack engine of the RevEAL reproduction: multivariate
//! Gaussian templates (Chari et al.) with a pooled covariance,
//! Cholesky-based likelihood evaluation, per-class probability score tables
//! with the value/negation fusion the paper uses to prune false positives,
//! and Table-I-style confusion matrices.
//!
//! ## Example
//!
//! ```
//! use reveal_template::TemplateSet;
//!
//! // Profile two candidate secrets whose POI means differ.
//! let mut observations = Vec::new();
//! for i in 0..30 {
//!     let j = i as f64 * 0.01;
//!     observations.push((2i64, vec![2.0 + j, 0.5 - j]));
//!     observations.push((3i64, vec![3.0 - j, 1.5 + j]));
//! }
//! let templates = TemplateSet::fit(&observations, 1e-9)?;
//!
//! // Attack: classify a single observed POI vector.
//! let scores = templates.classify(&[2.9, 1.4])?;
//! assert_eq!(scores.best_label(), 3);
//! # Ok::<(), reveal_template::TemplateError>(())
//! ```

pub mod confusion;
pub mod lda;
pub mod learned;
pub mod matrix;
pub mod scores;
pub mod template;

pub use confusion::ConfusionMatrix;
pub use lda::{LdaError, LdaProjection};
pub use learned::{LearnedClassifier, LearnedConfig, LearnedError};
pub use matrix::{Cholesky, MatrixError};
pub use scores::ScoreTable;
pub use template::{TemplateError, TemplateSet};
