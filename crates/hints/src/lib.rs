#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
// Indexed loops are the clearest notation for the dense numeric kernels
// in this workspace (convolutions, scatter matrices, lattice bases).
#![allow(clippy::needless_range_loop)]

//! # reveal-hints
//!
//! The "LWE with side information" security estimator (Dachman-Soled, Ducas,
//! Gong, Rossi — CRYPTO 2020) in the lightweight (DBDD-lite) formulation the
//! RevEAL paper uses to quantify its attack: embed the SEAL LWE instance
//! into a Distorted BDD problem, integrate the side-channel information as
//! perfect / approximate / modular / short-vector hints, and report the
//! required BKZ block size ("bikz") plus the equivalent bit security
//! (1 bit ≈ 2.99 bikz, footnote 3).
//!
//! ## Example: Table III in four lines
//!
//! ```
//! use reveal_hints::{DbddInstance, LweParameters};
//!
//! let baseline = DbddInstance::from_lwe(&LweParameters::seal_128_paper());
//! let without_hints = baseline.estimate();
//! let mut hinted = baseline.clone();
//! for i in 0..1024 {
//!     hinted.integrate_perfect_hint(i)?; // single-trace recovery of e2
//! }
//! let with_hints = hinted.estimate();
//! assert!(without_hints.bikz > 300.0);
//! assert!(with_hints.bikz < 40.0);
//! # Ok::<(), reveal_hints::HintError>(())
//! ```

pub mod dbdd;
pub mod delta;
pub mod posterior;

pub use dbdd::{
    bikz_to_bits, DbddInstance, HintError, LweParameters, SecurityEstimate, BIKZ_PER_BIT,
};
pub use delta::{delta_bkz, ln_delta_bkz, solve_beta, success_margin};
pub use posterior::{
    fold_decisions, FoldError, HintDecision, HintPolicy, HintSummary, Posterior, PosteriorError,
};
