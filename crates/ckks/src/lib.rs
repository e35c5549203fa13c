#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
// Indexed loops are the clearest notation for the dense numeric kernels
// in this workspace (convolutions, scatter matrices, lattice bases).
#![allow(clippy::needless_range_loop)]

//! # reveal-ckks
//!
//! CKKS (approximate-arithmetic homomorphic encryption) built on the same
//! substrates as the BFV implementation — and, crucially, on the **same
//! vulnerable Gaussian sampler**: Microsoft SEAL used one noise-writing
//! routine for both schemes, so the RevEAL single-trace attack applies to
//! CKKS encryptions unchanged. This crate exists to demonstrate that the
//! paper's finding is scheme-agnostic.
//!
//! Provided: the canonical-embedding encoder (complex slots ↔ integer
//! polynomials), key generation, encryption with probe observation,
//! decryption, levelled addition/multiplication and RNS rescaling.
//!
//! ## Example
//!
//! ```
//! use reveal_ckks::{encrypt, decrypt, keygen, CkksContext, Complex};
//! use reveal_math::primes::ntt_primes;
//! use rand::SeedableRng;
//!
//! let n = 32;
//! let q0 = ntt_primes(50, 2 * n as u64, 1)?.remove(0);
//! let q1 = ntt_primes(30, 2 * n as u64, 1)?.remove(0);
//! let ctx = CkksContext::new(n, vec![q0, q1], 1u64 << 30)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let (sk, pk) = keygen(&ctx, &mut rng);
//!
//! let slots: Vec<Complex> = (0..16).map(|i| Complex::from(i as f64 * 0.5)).collect();
//! let ct = encrypt(&ctx, &pk, &slots, &mut rng)?;
//! let back = decrypt(&ctx, &sk, &ct)?;
//! assert!((back[3].re - 1.5).abs() < 1e-3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod complex;
pub mod encoder;
pub mod scheme;

pub use complex::Complex;
pub use encoder::{CkksEncoder, EncodeError};
pub use scheme::{
    add, decrypt, encrypt, encrypt_observed, keygen, multiply, rescale, CkksCiphertext,
    CkksContext, CkksError, CkksPublicKey, CkksSecretKey, CkksWitness,
};
