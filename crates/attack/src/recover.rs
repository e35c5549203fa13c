//! Message recovery: turning recovered error polynomials into the plaintext
//! via Eqs. (2)–(3) of the paper, with a lattice fallback when only part of
//! `e2` was recovered.

use reveal_bfv::{BfvContext, Ciphertext, Plaintext, PublicKey};
use reveal_lattice::{solve_lwe, LweInstance, SolveError, SolverConfig};
use reveal_math::RnsPolynomial;
use std::fmt;

/// Errors from message recovery.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoverError {
    /// `p1` is not invertible in the ring (vanishing NTT evaluation).
    P1NotInvertible,
    /// Recovered errors are inconsistent with the ciphertext (Δ does not
    /// divide `c0 − p0·u − e1`, or a coefficient exceeds the plaintext
    /// space).
    InconsistentErrors { coefficient: usize },
    /// Wrong input lengths.
    LengthMismatch { expected: usize, got: usize },
    /// The residual lattice problem could not be solved.
    Lattice(SolveError),
    /// Residual solving needs a single ≤ 62-bit modulus.
    UnsupportedParameters,
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::P1NotInvertible => write!(f, "p1 is not invertible in R_q"),
            RecoverError::InconsistentErrors { coefficient } => {
                write!(
                    f,
                    "errors inconsistent with ciphertext at coefficient {coefficient}"
                )
            }
            RecoverError::LengthMismatch { expected, got } => {
                write!(f, "expected {expected} coefficients, got {got}")
            }
            RecoverError::Lattice(e) => write!(f, "residual lattice solve failed: {e}"),
            RecoverError::UnsupportedParameters => {
                write!(
                    f,
                    "residual solving requires a single small coefficient modulus"
                )
            }
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<SolveError> for RecoverError {
    fn from(e: SolveError) -> Self {
        RecoverError::Lattice(e)
    }
}

/// Recovers `u = (c1 − e2) / p1` (Eq. 2). The ground truth of the attack:
/// with `e2` fully recovered this is exact.
///
/// # Errors
///
/// Fails when lengths mismatch or `p1` is not invertible.
pub fn recover_u(
    ctx: &BfvContext,
    pk: &PublicKey,
    ct: &Ciphertext,
    e2: &[i64],
) -> Result<RnsPolynomial, RecoverError> {
    let n = ctx.degree();
    if e2.len() != n {
        return Err(RecoverError::LengthMismatch {
            expected: n,
            got: e2.len(),
        });
    }
    let e2_rns = ctx.basis().from_signed(e2);
    let numerator = ct.c1().sub(&e2_rns);
    let mut residues = Vec::with_capacity(ctx.basis().len());
    for (num, p1) in numerator.residues().iter().zip(pk.p1().residues()) {
        let inv = p1.inverse().ok_or(RecoverError::P1NotInvertible)?;
        residues.push(num.mul(&inv));
    }
    Ok(ctx.basis().from_residues(residues))
}

/// Recovers the plaintext from fully recovered `e1`, `e2` (Eq. 3):
/// `m = (c0 − p0·u − e1) / Δ` with `u` from [`recover_u`].
///
/// # Errors
///
/// Fails when the errors are inconsistent with the ciphertext — i.e. the
/// attack recovered at least one coefficient wrongly.
pub fn recover_message(
    ctx: &BfvContext,
    pk: &PublicKey,
    ct: &Ciphertext,
    e1: &[i64],
    e2: &[i64],
) -> Result<Plaintext, RecoverError> {
    let n = ctx.degree();
    if e1.len() != n {
        return Err(RecoverError::LengthMismatch {
            expected: n,
            got: e1.len(),
        });
    }
    let u = recover_u(ctx, pk, ct, e2)?;
    let e1_rns = ctx.basis().from_signed(e1);
    let delta_m = ct.c0().sub(&pk.p0().mul(&u)).sub(&e1_rns);
    // Each composed coefficient must be exactly Δ·m_i with m_i < t.
    let delta = ctx.delta().clone();
    let t = ctx.parms().plain_modulus().value();
    let mut coeffs = Vec::with_capacity(n);
    for i in 0..n {
        let x = delta_m.compose_coefficient(i);
        let (quot, rem) = x.divmod(&delta);
        if !rem.is_zero() {
            return Err(RecoverError::InconsistentErrors { coefficient: i });
        }
        match quot.to_u64() {
            Some(m) if m < t => coeffs.push(m),
            _ => return Err(RecoverError::InconsistentErrors { coefficient: i }),
        }
    }
    Ok(Plaintext::new(ctx, &coeffs))
}

/// Builds the residual LWE instance when only a subset of `e2` is known:
/// the rows of the negacyclic matrix of `p1` at the known indices give exact
/// linear relations `c1_i − e2_i = (p1 ⊛ u)_i (mod q)`, and the ternary `u`
/// is the short solution.
///
/// `known` maps coefficient index → recovered `e2` value.
///
/// # Errors
///
/// Fails for multi-prime or oversized moduli (the residual solver is a toy
/// finisher for reduced-dimension experiments).
pub fn residual_instance(
    ctx: &BfvContext,
    pk: &PublicKey,
    ct: &Ciphertext,
    known: &[(usize, i64)],
) -> Result<LweInstance, RecoverError> {
    p1_relations(ctx, pk, ct.c1().residues()[0].coeffs(), known)
}

/// Exact relations `(p1 ⊛ x)_i = rhs_i − k_i (mod q)` for the `known`
/// `(i, k_i)` pairs, against the short secret `x`: `u` with `rhs = c1`
/// (message recovery), `s` with `rhs = −p0` (key recovery; `p1` is key
/// generation's `a`).
///
/// # Errors
///
/// Fails for multi-prime or oversized moduli.
fn p1_relations(
    ctx: &BfvContext,
    pk: &PublicKey,
    rhs: &[u64],
    known: &[(usize, i64)],
) -> Result<LweInstance, RecoverError> {
    let q = single_modulus(ctx)?;
    let n = ctx.degree();
    let p1 = pk.p1().residues()[0].coeffs();
    let mut a = Vec::with_capacity(known.len());
    let mut b = Vec::with_capacity(known.len());
    for &(i, k) in known {
        // Row i of the negacyclic convolution matrix of p1:
        // (p1 ⊛ x)_i = Σ_{j<=i} p1[i-j]·x_j − Σ_{j>i} p1[n+i-j]·x_j.
        let row: Vec<i64> = (0..n)
            .map(|j| {
                if j <= i {
                    p1[i - j] as i64
                } else {
                    (q - p1[n + i - j] as i64) % q
                }
            })
            .collect();
        a.push(row);
        b.push((rhs[i] as i64 - k).rem_euclid(q));
    }
    Ok(LweInstance { q, a, b })
}

/// The single coefficient modulus residual solving supports, as `i64`.
fn single_modulus(ctx: &BfvContext) -> Result<i64, RecoverError> {
    match ctx.parms().coeff_modulus() {
        [q] => i64::try_from(q.value()).map_err(|_| RecoverError::UnsupportedParameters),
        _ => Err(RecoverError::UnsupportedParameters),
    }
}

/// The finishers' solver settings: every relation is exact and the secret
/// is ternary.
fn exact_relations() -> SolverConfig {
    SolverConfig {
        error_bound: 0,
        secret_bound: 1,
        ..SolverConfig::default()
    }
}

/// The trusted-set schedule both adaptive finishers run: the coordinates
/// whose estimate reaches `min_confidence`, most confident first, become
/// exact relations `(p1 ⊛ x)_i = rhs_i − value_i` ([`p1_relations`]) and
/// the ternary `x` is solved for. A failed solve, or a solution `accept`
/// rejects, drops another tenth of the set and retries: six rounds at
/// most, never trusting fewer than a third of the coordinates. Returns
/// what `accept` made of the first accepted solution and how many
/// coordinates were trusted.
fn solve_trusted<T>(
    ctx: &BfvContext,
    pk: &PublicKey,
    rhs: &[u64],
    estimates: &[(i64, f64)],
    min_confidence: f64,
    mut accept: impl FnMut(Vec<i64>) -> Result<T, RecoverError>,
) -> Result<(T, usize), RecoverError> {
    let n = estimates.len();
    // Coordinates ordered by descending confidence, filtered by the floor.
    let mut order: Vec<usize> = (0..n)
        .filter(|&i| estimates[i].1 >= min_confidence)
        .collect();
    order.sort_by(|&a, &b| {
        estimates[b]
            .1
            .partial_cmp(&estimates[a].1)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let config = exact_relations();
    let mut last_err = RecoverError::Lattice(SolveError::NoCandidateFound);
    for shrink in 0..6 {
        let keep = order.len().saturating_sub(shrink * order.len() / 10);
        if keep < n / 3 {
            break;
        }
        let known: Vec<(usize, i64)> = order[..keep].iter().map(|&i| (i, estimates[i].0)).collect();
        match solve_lwe(&p1_relations(ctx, pk, rhs, &known)?, &config) {
            Ok(solution) => match accept(solution.secret) {
                Ok(found) => return Ok((found, keep)),
                Err(e) => last_err = e,
            },
            Err(e) => last_err = RecoverError::Lattice(e),
        }
    }
    Err(last_err)
}

/// Finishes the attack with the BKZ solver when only part of `e2` is known:
/// recovers `u`, re-derives the full `e2`, and returns the message. The
/// remaining coefficients of `e1` must be supplied (they come from the same
/// trace).
///
/// # Errors
///
/// Fails when the lattice solver cannot find the ternary `u` (too few known
/// coefficients) or the final recovery is inconsistent.
pub fn recover_message_partial(
    ctx: &BfvContext,
    pk: &PublicKey,
    ct: &Ciphertext,
    e1: &[i64],
    known_e2: &[(usize, i64)],
) -> Result<(Plaintext, Vec<i64>), RecoverError> {
    let instance = residual_instance(ctx, pk, ct, known_e2)?;
    let solution = solve_lwe(&instance, &exact_relations())?;
    // Re-derive the full e2 = c1 − p1·u.
    let u = ctx.basis().from_signed(&solution.secret);
    let e2_poly = ct.c1().sub(&pk.p1().mul(&u));
    let e2: Vec<i64> = e2_poly.residues()[0].to_signed();
    let plain = recover_message(ctx, pk, ct, e1, &e2)?;
    Ok((plain, e2))
}

/// Recovers the plaintext from `u` alone: `c0 − p0·u = Δ·m + e1`, and the
/// small `e1` is eliminated by rounding — `m_i = ⌊t·(c0 − p0·u)_i / q⌉ mod t`
/// — so recovering `e2` (hence `u`) suffices for full message recovery.
pub fn recover_message_from_u(
    ctx: &BfvContext,
    pk: &PublicKey,
    ct: &Ciphertext,
    u: &RnsPolynomial,
) -> Plaintext {
    let w = ct.c0().sub(&pk.p0().mul(u));
    let q = ctx.basis().product().clone();
    let t = ctx.parms().plain_modulus().value();
    let n = ctx.degree();
    let mut coeffs = Vec::with_capacity(n);
    for i in 0..n {
        let x = w.compose_coefficient(i);
        let rounded = x.mul_div_round(t, &q);
        coeffs.push(rounded.rem_u64(t));
    }
    Plaintext::new(ctx, &coeffs)
}

/// Finishes a *single-trace* attack adaptively: sort the attack's
/// per-coefficient `(value, confidence)` estimates of `e2`, treat the most
/// confident ones as exact, and lattice-solve for the ternary `u`; when the
/// solve fails (a confident estimate was wrong), shrink the known set and
/// retry. Returns the message, the recovered `u`, and how many coefficients
/// were ultimately trusted.
///
/// # Errors
///
/// Fails when no trusted subset yields a consistent ternary solution.
pub fn recover_adaptive(
    ctx: &BfvContext,
    pk: &PublicKey,
    ct: &Ciphertext,
    e2_estimates: &[(i64, f64)],
    min_confidence: f64,
) -> Result<(Plaintext, Vec<i64>, usize), RecoverError> {
    let n = ctx.degree();
    if e2_estimates.len() != n {
        return Err(RecoverError::LengthMismatch {
            expected: n,
            got: e2_estimates.len(),
        });
    }
    let rhs = ct.c1().residues()[0].coeffs();
    let ((plain, u), trusted) = solve_trusted(ctx, pk, rhs, e2_estimates, min_confidence, |u| {
        let u_rns = ctx.basis().from_signed(&u);
        Ok((recover_message_from_u(ctx, pk, ct, &u_rns), u))
    })?;
    Ok((plain, u, trusted))
}

/// Recovers the **secret key** from the public key and the key-generation
/// noise `e`: `pk = (-(a·s + e), a)` gives `s = a⁻¹·(−p0 − e)`.
///
/// Key generation samples `e` through the *same* vulnerable routine the
/// encryption uses, so a single trace of `KeyGen` (instead of `Encrypt`)
/// hands the adversary the long-term secret key rather than one message —
/// the natural extension the paper's §I alludes to.
///
/// # Errors
///
/// Fails when `a` is not invertible, lengths mismatch, or the recovered key
/// is not ternary (i.e. the `e` estimates were wrong).
pub fn recover_secret_key(
    ctx: &BfvContext,
    pk: &PublicKey,
    e: &[i64],
) -> Result<Vec<i64>, RecoverError> {
    let n = ctx.degree();
    if e.len() != n {
        return Err(RecoverError::LengthMismatch {
            expected: n,
            got: e.len(),
        });
    }
    let e_rns = ctx.basis().from_signed(e);
    // -p0 - e = a·s.
    let as_poly = pk.p0().neg().sub(&e_rns);
    let mut residues = Vec::with_capacity(ctx.basis().len());
    for (num, a) in as_poly.residues().iter().zip(pk.p1().residues()) {
        let inv = a.inverse().ok_or(RecoverError::P1NotInvertible)?;
        residues.push(num.mul(&inv));
    }
    let s = ctx.basis().from_residues(residues);
    let s_signed: Vec<i64> = s.residues()[0].to_signed();
    if s_signed.iter().any(|&x| !(-1..=1).contains(&x)) {
        return Err(RecoverError::InconsistentErrors { coefficient: 0 });
    }
    Ok(s_signed)
}

/// Adaptive secret-key recovery from single-trace estimates of the keygen
/// noise `e`: confident coefficients become exact relations
/// `(a ⊛ s)_i = (−p0 − e)_i (mod q)` and the ternary `s` is found by the
/// progressive lattice solver, shrinking the trusted set on failure —
/// the keygen analogue of [`recover_adaptive`].
///
/// # Errors
///
/// Fails when no trusted subset yields a consistent ternary key.
pub fn recover_secret_key_adaptive(
    ctx: &BfvContext,
    pk: &PublicKey,
    e_estimates: &[(i64, f64)],
    min_confidence: f64,
) -> Result<(Vec<i64>, usize), RecoverError> {
    let n = ctx.degree();
    if e_estimates.len() != n {
        return Err(RecoverError::LengthMismatch {
            expected: n,
            got: e_estimates.len(),
        });
    }
    // Unlike message recovery, reject unsupported moduli before solving.
    single_modulus(ctx)?;
    let neg_p0 = pk.p0().neg();
    let rhs = neg_p0.residues()[0].coeffs();
    solve_trusted(ctx, pk, rhs, e_estimates, min_confidence, |s| {
        // Verify against the full key relation.
        let s_rns = ctx.basis().from_signed(&s);
        let e_full = neg_p0.sub(&pk.p1().mul(&s_rns)).residues()[0].to_signed();
        if e_full.iter().all(|&x| x.abs() <= 48) {
            Ok(s)
        } else {
            Err(RecoverError::InconsistentErrors { coefficient: 0 })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use reveal_bfv::{EncryptionParameters, Encryptor, KeyGenerator};
    use reveal_math::Modulus;

    fn setup(n: usize, q: u64, t: u64, seed: u64) -> (BfvContext, PublicKey, Encryptor, StdRng) {
        let parms =
            EncryptionParameters::new(n, vec![Modulus::new(q).unwrap()], Modulus::new(t).unwrap())
                .unwrap();
        let ctx = BfvContext::new(parms).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let keygen = KeyGenerator::new(&ctx);
        let sk = keygen.secret_key(&mut rng);
        let pk = keygen.public_key(&sk, &mut rng);
        let enc = Encryptor::new(&ctx, &pk);
        (ctx, pk, enc, rng)
    }

    #[test]
    fn full_recovery_from_true_errors() {
        let (ctx, pk, enc, mut rng) = setup(1024, 132120577, 256, 1);
        let t = 256u64;
        let coeffs: Vec<u64> = (0..1024).map(|_| rng.gen_range(0..t)).collect();
        let plain = Plaintext::new(&ctx, &coeffs);
        let (ct, wit) = enc.encrypt_observed(
            &plain,
            &mut rng,
            &mut reveal_bfv::NullProbe,
            &mut reveal_bfv::NullProbe,
        );
        let recovered = recover_message(&ctx, &pk, &ct, &wit.e1, &wit.e2).unwrap();
        assert_eq!(recovered.coeffs(), plain.coeffs());
    }

    #[test]
    fn recovered_u_matches_witness() {
        let (ctx, pk, enc, mut rng) = setup(64, 12289, 16, 2);
        let plain = Plaintext::constant(&ctx, 3);
        let (ct, wit) = enc.encrypt_observed(
            &plain,
            &mut rng,
            &mut reveal_bfv::NullProbe,
            &mut reveal_bfv::NullProbe,
        );
        let u = recover_u(&ctx, &pk, &ct, &wit.e2).unwrap();
        assert_eq!(u.residues()[0].to_signed(), wit.u);
    }

    #[test]
    fn wrong_errors_detected() {
        let (ctx, pk, enc, mut rng) = setup(64, 12289, 16, 3);
        let plain = Plaintext::constant(&ctx, 5);
        let (ct, wit) = enc.encrypt_observed(
            &plain,
            &mut rng,
            &mut reveal_bfv::NullProbe,
            &mut reveal_bfv::NullProbe,
        );
        let mut bad_e2 = wit.e2.clone();
        bad_e2[7] += 1;
        assert!(matches!(
            recover_message(&ctx, &pk, &ct, &wit.e1, &bad_e2),
            Err(RecoverError::InconsistentErrors { .. })
        ));
    }

    #[test]
    fn length_mismatch_detected() {
        let (ctx, pk, enc, mut rng) = setup(64, 12289, 16, 4);
        let (ct, wit) = enc.encrypt_observed(
            &Plaintext::constant(&ctx, 1),
            &mut rng,
            &mut reveal_bfv::NullProbe,
            &mut reveal_bfv::NullProbe,
        );
        assert!(matches!(
            recover_message(&ctx, &pk, &ct, &wit.e1[..10], &wit.e2),
            Err(RecoverError::LengthMismatch { .. })
        ));
        assert!(matches!(
            recover_u(&ctx, &pk, &ct, &[0; 3]),
            Err(RecoverError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn partial_recovery_via_lattice() {
        // Toy ring degree so BKZ can finish: n = 16, all but 2 coefficients
        // of e2 known.
        let (ctx, pk, enc, mut rng) = setup(16, 3329, 4, 5);
        let mut coeffs = vec![0u64; 16];
        coeffs[0] = 3;
        coeffs[5] = 2;
        let plain = Plaintext::new(&ctx, &coeffs);
        let (ct, wit) = enc.encrypt_observed(
            &plain,
            &mut rng,
            &mut reveal_bfv::NullProbe,
            &mut reveal_bfv::NullProbe,
        );
        let known: Vec<(usize, i64)> = (0..14).map(|i| (i, wit.e2[i])).collect();
        let (recovered, e2) = recover_message_partial(&ctx, &pk, &ct, &wit.e1, &known).unwrap();
        assert_eq!(recovered.coeffs(), plain.coeffs());
        assert_eq!(e2, wit.e2);
    }

    #[test]
    fn message_from_u_alone() {
        // e1 is eliminated by rounding; u suffices.
        let (ctx, pk, enc, mut rng) = setup(64, 12289, 16, 7);
        let mut coeffs = vec![0u64; 64];
        coeffs[0] = 9;
        coeffs[63] = 15;
        let plain = Plaintext::new(&ctx, &coeffs);
        let (ct, wit) = enc.encrypt_observed(
            &plain,
            &mut rng,
            &mut reveal_bfv::NullProbe,
            &mut reveal_bfv::NullProbe,
        );
        let u = ctx.basis().from_signed(&wit.u);
        let recovered = recover_message_from_u(&ctx, &pk, &ct, &u);
        assert_eq!(recovered.coeffs(), plain.coeffs());
    }

    #[test]
    fn adaptive_recovery_tolerates_wrong_low_confidence_estimates() {
        let (ctx, pk, enc, mut rng) = setup(16, 3329, 4, 8);
        let plain = Plaintext::constant(&ctx, 2);
        let (ct, wit) = enc.encrypt_observed(
            &plain,
            &mut rng,
            &mut reveal_bfv::NullProbe,
            &mut reveal_bfv::NullProbe,
        );
        // Build estimates: 12 correct at high confidence, 4 *wrong* at low
        // confidence (below the floor) — the adaptive finisher must succeed
        // from the trusted subset.
        let estimates: Vec<(i64, f64)> = wit
            .e2
            .iter()
            .enumerate()
            .map(|(i, &v)| if i < 12 { (v, 0.999) } else { (v + 3, 0.2) })
            .collect();
        let (recovered, u, trusted) = recover_adaptive(&ctx, &pk, &ct, &estimates, 0.9).unwrap();
        assert_eq!(recovered.coeffs(), plain.coeffs());
        assert_eq!(u, wit.u);
        assert_eq!(trusted, 12);
    }

    #[test]
    fn adaptive_recovery_shrinks_past_confident_mistakes() {
        let (ctx, pk, enc, mut rng) = setup(16, 3329, 4, 9);
        let plain = Plaintext::constant(&ctx, 1);
        let (ct, wit) = enc.encrypt_observed(
            &plain,
            &mut rng,
            &mut reveal_bfv::NullProbe,
            &mut reveal_bfv::NullProbe,
        );
        // 15 correct estimates; one wrong one whose confidence is *lowest
        // among the trusted* — a shrink round must discard it.
        let mut estimates: Vec<(i64, f64)> = wit.e2.iter().map(|&v| (v, 0.99)).collect();
        estimates[5] = (wit.e2[5] + 2, 0.91);
        let (recovered, u, trusted) = recover_adaptive(&ctx, &pk, &ct, &estimates, 0.9).unwrap();
        assert_eq!(recovered.coeffs(), plain.coeffs());
        assert_eq!(u, wit.u);
        assert!(trusted < 16, "the wrong estimate must have been dropped");
    }

    #[test]
    fn adaptive_recovery_fails_without_enough_confidence() {
        let (ctx, pk, enc, mut rng) = setup(16, 3329, 4, 10);
        let (ct, wit) = enc.encrypt_observed(
            &Plaintext::constant(&ctx, 3),
            &mut rng,
            &mut reveal_bfv::NullProbe,
            &mut reveal_bfv::NullProbe,
        );
        let estimates: Vec<(i64, f64)> = wit.e2.iter().map(|&v| (v, 0.1)).collect();
        assert!(recover_adaptive(&ctx, &pk, &ct, &estimates, 0.9).is_err());
    }

    #[test]
    fn secret_key_from_keygen_noise() {
        // pk = (-(a s + e), a): knowing e recovers s exactly.
        let (ctx, pk, _enc, mut rng) = setup(64, 12289, 16, 11);
        // Reconstruct the keygen noise from the key relation (ground truth).
        let keygen = KeyGenerator::new(&ctx);
        let sk2 = keygen.secret_key(&mut rng);
        let pk2 = keygen.public_key(&sk2, &mut rng);
        let neg_e = pk2.p0().add(&pk2.p1().mul(sk2.as_rns()));
        let e: Vec<i64> = neg_e.residues()[0]
            .to_signed()
            .iter()
            .map(|&x| -x)
            .collect();
        let recovered = recover_secret_key(&ctx, &pk2, &e).unwrap();
        assert_eq!(recovered, sk2.coefficients());
        let _ = pk;
    }

    #[test]
    fn secret_key_recovery_detects_wrong_noise() {
        let (ctx, _pk, _enc, mut rng) = setup(64, 12289, 16, 12);
        let keygen = KeyGenerator::new(&ctx);
        let sk = keygen.secret_key(&mut rng);
        let pk = keygen.public_key(&sk, &mut rng);
        let mut e = vec![0i64; 64];
        e[0] = 40; // almost surely wrong
        assert!(recover_secret_key(&ctx, &pk, &e).is_err());
    }

    #[test]
    fn residual_instance_is_consistent() {
        let (ctx, pk, enc, mut rng) = setup(16, 3329, 4, 6);
        let (ct, wit) = enc.encrypt_observed(
            &Plaintext::constant(&ctx, 1),
            &mut rng,
            &mut reveal_bfv::NullProbe,
            &mut reveal_bfv::NullProbe,
        );
        let known: Vec<(usize, i64)> = (0..16).map(|i| (i, wit.e2[i])).collect();
        let inst = residual_instance(&ctx, &pk, &ct, &known).unwrap();
        // The true u must satisfy every relation exactly.
        assert_eq!(inst.error_for_secret(&wit.u), vec![0i64; 16]);
    }
}
