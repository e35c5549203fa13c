#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
// Indexed loops are the clearest notation for the dense numeric kernels
// in this workspace (convolutions, scatter matrices, lattice bases).
#![allow(clippy::needless_range_loop)]

//! # reveal-math
//!
//! Number-theoretic building blocks for the RevEAL reproduction: modular
//! arithmetic with Barrett reduction, negacyclic number-theoretic transforms,
//! dense polynomials over `Z_q[x]/(x^n + 1)`, residue-number-system (RNS)
//! polynomial chains in SEAL's memory layout, NTT-friendly prime generation,
//! and a small big-integer type for CRT composition.
//!
//! Everything is written from scratch on top of `std` (plus `rand` for the
//! stochastic pieces elsewhere in the workspace) so the numerics stay
//! auditable.
//!
//! ## Example
//!
//! ```
//! use reveal_math::{Modulus, PolyContext};
//!
//! // The SEAL-128 (n = 1024) coefficient modulus from the RevEAL paper.
//! let q = Modulus::new(132120577)?;
//! let ctx = PolyContext::new(1024, q)?;
//!
//! let mut e = vec![0i64; 1024];
//! e[0] = -3; // a Gaussian noise coefficient, as sampled by SEAL
//! let noise = ctx.polynomial_from_signed(&e);
//! assert_eq!(noise.coeffs()[0], q.value() - 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod arith;
pub mod bigint;
pub mod modulus;
pub mod ntt;
pub mod poly;
pub mod primes;
pub mod rns;

pub use bigint::BigUint;
pub use modulus::{Modulus, ModulusError};
pub use ntt::{NttError, NttTables};
pub use poly::{PolyContext, Polynomial};
pub use rns::{RnsBasis, RnsError, RnsPolynomial};
