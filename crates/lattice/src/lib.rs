#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
// Indexed loops are the clearest notation for the dense numeric kernels
// in this workspace (convolutions, scatter matrices, lattice bases).
#![allow(clippy::needless_range_loop)]

//! # reveal-lattice
//!
//! Lattice-reduction tooling for the RevEAL reproduction: floating-point
//! Gram–Schmidt, LLL (plus the MLLL generating-set variant), exact
//! Schnorr–Euchner SVP enumeration, BKZ with sliding-block enumeration, and
//! the Kannan embedding/solver that finishes the attack on
//! reduced-dimension LWE instances.
//!
//! The *estimation* counterpart (predicting the BKZ block size a full-size
//! instance would need — the paper's "bikz") lives in `reveal-hints`; this
//! crate actually reduces bases.
//!
//! ## Example: solving a small LWE instance
//!
//! ```
//! use reveal_lattice::embedding::{random_instance, solve_lwe, SolverConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let (instance, secret, _error) = random_instance(6, 12, 3329, 2, &mut rng);
//! let solution = solve_lwe(&instance, &SolverConfig::default())?;
//! assert_eq!(solution.secret, secret);
//! # Ok::<(), reveal_lattice::embedding::SolveError>(())
//! ```

pub mod bkz;
pub mod embedding;
pub mod enumeration;
pub mod gsa;
pub mod gso;
pub mod lll;

pub use bkz::{bkz_reduce, BkzParams, BkzStats};
pub use embedding::{solve_lwe, LweInstance, LweSolution, SolveError, SolverConfig};
pub use enumeration::{enumerate_shortest, shortest_vector, EnumerationResult};
pub use gsa::{gsa_profile, measured_profile, profile_rmsd};
pub use gso::Gso;
pub use lll::{is_lll_reduced, lll_reduce, mlll_reduce, LllParams};
