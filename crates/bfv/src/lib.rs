#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
// Indexed loops are the clearest notation for the dense numeric kernels
// in this workspace (convolutions, scatter matrices, lattice bases).
#![allow(clippy::needless_range_loop)]

//! # reveal-bfv
//!
//! A from-scratch implementation of the Brakerski/Fan-Vercauteren (BFV)
//! homomorphic encryption scheme in the style of Microsoft SEAL **v3.2** —
//! the version the RevEAL paper attacks. The crate deliberately reproduces
//! the *vulnerable* Gaussian sampler of that release
//! ([`sampler::set_poly_coeffs_normal`], Fig. 2 of the paper): an
//! `if (noise > 0) / else if (noise < 0) / else` ladder whose control flow and
//! operand values leak through power side channels.
//!
//! ## What's here
//!
//! - [`EncryptionParameters`] / [`BfvContext`]: parameter validation and
//!   precomputation, including the paper's SEAL-128 set
//!   (`n = 1024, q = 132120577, t = 256, σ = 3.19`).
//! - [`KeyGenerator`], [`Encryptor`], [`Decryptor`], [`Evaluator`]: the four
//!   HE functions of Fig. 1 (KeyGen / Encrypt / Decrypt / Evaluate).
//! - [`sampler`]: `ClippedNormalDistribution`, the vulnerable
//!   `set_poly_coeffs_normal`, ternary and uniform samplers, and the
//!   [`sampler::SamplerProbe`] observation interface that the leakage
//!   simulators attach to.
//! - [`IntegerEncoder`] / [`BatchEncoder`]: plaintext encoders.
//!
//! ## Quick example
//!
//! ```
//! use reveal_bfv::{BfvContext, EncryptionParameters, Encryptor, Decryptor,
//!                  KeyGenerator, Plaintext};
//! use rand::SeedableRng;
//!
//! let ctx = BfvContext::new(EncryptionParameters::seal_128_paper()?)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let keygen = KeyGenerator::new(&ctx);
//! let sk = keygen.secret_key(&mut rng);
//! let pk = keygen.public_key(&sk, &mut rng);
//!
//! let ct = Encryptor::new(&ctx, &pk).encrypt(&Plaintext::constant(&ctx, 42), &mut rng);
//! let m = Decryptor::new(&ctx, &sk).decrypt(&ct);
//! assert_eq!(m.coeffs()[0], 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod context;
pub mod decryptor;
pub mod encoder;
pub mod encryptor;
pub mod evaluator;
pub mod keys;
pub mod params;
pub mod sampler;
pub mod serialization;

pub use context::{BfvContext, Ciphertext, Plaintext};
pub use decryptor::Decryptor;
pub use encoder::{BatchEncoder, EncodeError, IntegerEncoder};
pub use encryptor::{EncryptionWitness, Encryptor};
pub use evaluator::{EvaluateError, Evaluator};
pub use keys::{KeyGenerator, PublicKey, RelinKeys, SecretKey};
pub use params::{
    EncryptionParameters, ParameterError, SecurityLevel, DEFAULT_NOISE_MAX_DEVIATION,
    DEFAULT_NOISE_STANDARD_DEVIATION,
};
pub use sampler::{
    set_poly_coeffs_normal, ClippedNormalDistribution, NullProbe, RecordingProbe, SamplerEvent,
    SamplerProbe, SignBranch,
};
pub use serialization::{
    load_ciphertext, load_plaintext, load_public_key, load_secret_key, save_ciphertext,
    save_plaintext, save_public_key, save_secret_key, SerializeError,
};
