//! Encryption parameters in the style of SEAL v3.2's `EncryptionParameters`.

use reveal_math::primes::{ntt_primes, PrimeError};
use reveal_math::{Modulus, ModulusError, RnsBasis, RnsError};
use std::fmt;

/// Default noise standard deviation used by SEAL: `3.19 ≈ 8 / sqrt(2π)`.
pub const DEFAULT_NOISE_STANDARD_DEVIATION: f64 = 3.19;

/// Default clipping bound on the noise distribution.
///
/// The RevEAL paper states "each sampled coefficient is between -41 and 41"
/// for σ = 3.19, so the maximum deviation is 41.
pub const DEFAULT_NOISE_MAX_DEVIATION: f64 = 41.0;

/// Errors produced when validating [`EncryptionParameters`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParameterError {
    /// `poly_modulus_degree` is not a supported power of two.
    BadDegree(usize),
    /// The coefficient modulus chain is invalid.
    Rns(RnsError),
    /// A modulus could not be constructed.
    Modulus(ModulusError),
    /// Prime generation failed.
    Prime(PrimeError),
    /// The plain modulus is too large relative to the coefficient modulus.
    PlainModulusTooLarge { t: u64, q_bits: u32 },
}

impl fmt::Display for ParameterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParameterError::BadDegree(n) => {
                write!(
                    f,
                    "poly_modulus_degree {n} must be a power of two in [8, 32768]"
                )
            }
            ParameterError::Rns(e) => write!(f, "coefficient modulus chain invalid: {e}"),
            ParameterError::Modulus(e) => write!(f, "modulus invalid: {e}"),
            ParameterError::Prime(e) => write!(f, "prime generation failed: {e}"),
            ParameterError::PlainModulusTooLarge { t, q_bits } => {
                write!(
                    f,
                    "plain modulus {t} too large for a {q_bits}-bit coefficient modulus"
                )
            }
        }
    }
}

impl std::error::Error for ParameterError {}

impl From<RnsError> for ParameterError {
    fn from(e: RnsError) -> Self {
        ParameterError::Rns(e)
    }
}

impl From<ModulusError> for ParameterError {
    fn from(e: ModulusError) -> Self {
        ParameterError::Modulus(e)
    }
}

impl From<PrimeError> for ParameterError {
    fn from(e: PrimeError) -> Self {
        ParameterError::Prime(e)
    }
}

/// Security level presets matching SEAL's default tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SecurityLevel {
    /// 128-bit classical security (the paper's target).
    Tc128,
    /// 192-bit classical security.
    Tc192,
    /// 256-bit classical security.
    Tc256,
}

impl SecurityLevel {
    /// Total coefficient-modulus bit budget for a given degree, following the
    /// homomorphic-encryption-standard tables SEAL ships.
    pub fn max_coeff_modulus_bits(self, degree: usize) -> u32 {
        let table: &[(usize, u32, u32, u32)] = &[
            (1024, 27, 19, 14),
            (2048, 54, 37, 29),
            (4096, 109, 75, 58),
            (8192, 218, 152, 118),
            (16384, 438, 300, 237),
            (32768, 881, 600, 476),
        ];
        for &(n, b128, b192, b256) in table {
            if n == degree {
                return match self {
                    SecurityLevel::Tc128 => b128,
                    SecurityLevel::Tc192 => b192,
                    SecurityLevel::Tc256 => b256,
                };
            }
        }
        0
    }
}

/// The full parameter set of a BFV context.
///
/// # Examples
///
/// ```
/// use reveal_bfv::EncryptionParameters;
/// let parms = EncryptionParameters::seal_128_paper()?;
/// assert_eq!(parms.poly_modulus_degree(), 1024);
/// assert_eq!(parms.coeff_modulus()[0].value(), 132120577);
/// # Ok::<(), reveal_bfv::ParameterError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EncryptionParameters {
    poly_modulus_degree: usize,
    coeff_modulus: Vec<Modulus>,
    plain_modulus: Modulus,
    noise_standard_deviation: f64,
    noise_max_deviation: f64,
}

impl EncryptionParameters {
    /// Creates a parameter set from explicit values.
    ///
    /// # Errors
    ///
    /// Returns an error when the degree is not a power of two in
    /// `[8, 32768]`, the moduli are invalid, or `t` is not smaller than every
    /// coefficient modulus prime.
    pub fn new(
        poly_modulus_degree: usize,
        coeff_modulus: Vec<Modulus>,
        plain_modulus: Modulus,
    ) -> Result<Self, ParameterError> {
        if !poly_modulus_degree.is_power_of_two() || !(8..=32768).contains(&poly_modulus_degree) {
            return Err(ParameterError::BadDegree(poly_modulus_degree));
        }
        let q_bits: u32 = coeff_modulus.iter().map(|m| m.bit_count()).sum();
        if let Some(min) = coeff_modulus.iter().map(|m| m.value()).min() {
            if plain_modulus.value() >= min {
                return Err(ParameterError::PlainModulusTooLarge {
                    t: plain_modulus.value(),
                    q_bits,
                });
            }
        }
        // Validates coprimality and NTT support as a side effect.
        RnsBasis::new(poly_modulus_degree, coeff_modulus.clone())?;
        Ok(Self {
            poly_modulus_degree,
            coeff_modulus,
            plain_modulus,
            noise_standard_deviation: DEFAULT_NOISE_STANDARD_DEVIATION,
            noise_max_deviation: DEFAULT_NOISE_MAX_DEVIATION,
        })
    }

    /// The exact parameter set the RevEAL paper attacks: SEAL-128 with
    /// `n = 1024`, `q = 132120577`, `t = 256`, `σ = 3.19`.
    pub fn seal_128_paper() -> Result<Self, ParameterError> {
        Self::new(1024, vec![Modulus::new(132120577)?], Modulus::new(256)?)
    }

    /// SEAL-style defaults for a given degree and security level:
    /// NTT-friendly primes filling the standard bit budget.
    ///
    /// # Errors
    ///
    /// Fails for degrees without a standard budget or when prime generation
    /// fails.
    pub fn with_default_moduli(
        degree: usize,
        level: SecurityLevel,
        plain_modulus: u64,
    ) -> Result<Self, ParameterError> {
        let budget = level.max_coeff_modulus_bits(degree);
        if budget == 0 {
            return Err(ParameterError::BadDegree(degree));
        }
        // Split the budget into primes of at most 50 bits (SEAL favours many
        // medium primes over one huge prime).
        let mut sizes = Vec::new();
        let mut remaining = budget;
        while remaining > 0 {
            let take = remaining.min(50).max(20.min(remaining));
            sizes.push(take);
            remaining -= take;
        }
        // Merge a trailing sliver into its neighbour to keep primes >= 20 bits.
        if let [.., previous, last] = sizes.as_mut_slice() {
            if *last < 20 {
                *previous -= 20 - *last;
                *last = 20;
            }
        }
        let mut coeff_modulus = Vec::new();
        let mut used: Vec<u64> = Vec::new();
        for &bits in &sizes {
            // Request enough primes at this size to skip duplicates.
            let need = sizes.iter().filter(|&&b| b == bits).count();
            let candidates = ntt_primes(bits, 2 * degree as u64, need + coeff_modulus.len())?;
            for c in candidates {
                if !used.contains(&c.value()) {
                    used.push(c.value());
                    coeff_modulus.push(c);
                    break;
                }
            }
        }
        Self::new(degree, coeff_modulus, Modulus::new(plain_modulus)?)
    }

    /// Polynomial modulus degree `n`.
    #[inline]
    pub fn poly_modulus_degree(&self) -> usize {
        self.poly_modulus_degree
    }

    /// The coefficient modulus chain `q_1, …, q_k`.
    #[inline]
    pub fn coeff_modulus(&self) -> &[Modulus] {
        &self.coeff_modulus
    }

    /// The plaintext modulus `t`.
    #[inline]
    pub fn plain_modulus(&self) -> &Modulus {
        &self.plain_modulus
    }

    /// Gaussian noise standard deviation σ.
    #[inline]
    pub fn noise_standard_deviation(&self) -> f64 {
        self.noise_standard_deviation
    }

    /// Clipping bound of the noise distribution.
    #[inline]
    pub fn noise_max_deviation(&self) -> f64 {
        self.noise_max_deviation
    }

    /// Overrides the noise parameters (used by ablation experiments).
    pub fn set_noise_parameters(&mut self, standard_deviation: f64, max_deviation: f64) {
        assert!(standard_deviation > 0.0 && max_deviation >= standard_deviation);
        self.noise_standard_deviation = standard_deviation;
        self.noise_max_deviation = max_deviation;
    }

    /// Builds the RNS basis for the coefficient modulus chain.
    pub fn rns_basis(&self) -> Result<RnsBasis, ParameterError> {
        Ok(RnsBasis::new(
            self.poly_modulus_degree,
            self.coeff_modulus.clone(),
        )?)
    }

    /// Total bit count of the coefficient modulus.
    pub fn coeff_modulus_bit_count(&self) -> u32 {
        self.coeff_modulus.iter().map(|m| m.bit_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters() {
        let p = EncryptionParameters::seal_128_paper().unwrap();
        assert_eq!(p.poly_modulus_degree(), 1024);
        assert_eq!(p.coeff_modulus().len(), 1);
        assert_eq!(p.coeff_modulus()[0].value(), 132120577);
        assert_eq!(p.plain_modulus().value(), 256);
        assert!((p.noise_standard_deviation() - 3.19).abs() < 1e-12);
        assert!((p.noise_max_deviation() - 41.0).abs() < 1e-12);
        assert_eq!(p.coeff_modulus_bit_count(), 27);
    }

    #[test]
    fn default_moduli_respect_budget() {
        for degree in [2048usize, 4096, 8192] {
            let p = EncryptionParameters::with_default_moduli(degree, SecurityLevel::Tc128, 256)
                .unwrap();
            let budget = SecurityLevel::Tc128.max_coeff_modulus_bits(degree);
            assert!(p.coeff_modulus_bit_count() <= budget);
            assert!(p.coeff_modulus_bit_count() >= budget - 4);
            // Every prime must be NTT friendly for this degree.
            for m in p.coeff_modulus() {
                assert_eq!((m.value() - 1) % (2 * degree as u64), 0);
            }
        }
    }

    #[test]
    fn rejects_bad_degree() {
        let q = Modulus::new(132120577).unwrap();
        let t = Modulus::new(256).unwrap();
        assert!(matches!(
            EncryptionParameters::new(1000, vec![q], t),
            Err(ParameterError::BadDegree(1000))
        ));
        assert!(matches!(
            EncryptionParameters::new(4, vec![q], t),
            Err(ParameterError::BadDegree(4))
        ));
    }

    #[test]
    fn rejects_oversized_plain_modulus() {
        let q = Modulus::new(132120577).unwrap();
        let t = Modulus::new(132120577).unwrap();
        assert!(matches!(
            EncryptionParameters::new(1024, vec![q], t),
            Err(ParameterError::PlainModulusTooLarge { .. })
        ));
    }

    #[test]
    fn security_table_lookup() {
        assert_eq!(SecurityLevel::Tc128.max_coeff_modulus_bits(1024), 27);
        assert_eq!(SecurityLevel::Tc192.max_coeff_modulus_bits(8192), 152);
        assert_eq!(SecurityLevel::Tc256.max_coeff_modulus_bits(32768), 476);
        assert_eq!(SecurityLevel::Tc128.max_coeff_modulus_bits(1000), 0);
    }

    #[test]
    fn noise_override() {
        let mut p = EncryptionParameters::seal_128_paper().unwrap();
        p.set_noise_parameters(1.0, 6.0);
        assert_eq!(p.noise_standard_deviation(), 1.0);
        assert_eq!(p.noise_max_deviation(), 6.0);
    }
}
