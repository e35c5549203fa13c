//! SEAL-style binary serialization for keys, plaintexts and ciphertexts.
//!
//! A compact little-endian format with a magic/version header and a
//! parameter echo, so loading validates that the object matches the
//! receiving context (SEAL's `parms_id` check, simplified).

use crate::context::{BfvContext, Ciphertext, Plaintext};
use crate::keys::{PublicKey, SecretKey};
use reveal_math::RnsPolynomial;
use std::fmt;

/// Magic bytes opening every serialized object.
pub const MAGIC: &[u8; 5] = b"RVEAL";
/// Format version.
pub const VERSION: u8 = 1;

/// Object tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Tag {
    Plaintext = 1,
    Ciphertext = 2,
    SecretKey = 3,
    PublicKey = 4,
}

/// Errors from (de)serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerializeError {
    /// The buffer did not start with the expected magic/version.
    BadHeader,
    /// The object tag did not match the requested type.
    WrongTag { expected: u8, got: u8 },
    /// The parameter echo did not match the receiving context.
    ParameterMismatch,
    /// The buffer ended early or carried trailing garbage.
    Truncated,
    /// A value failed validation (e.g. unreduced residue).
    InvalidValue,
}

impl fmt::Display for SerializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerializeError::BadHeader => write!(f, "bad magic or version"),
            SerializeError::WrongTag { expected, got } => {
                write!(f, "expected object tag {expected}, got {got}")
            }
            SerializeError::ParameterMismatch => {
                write!(f, "object was produced under different parameters")
            }
            SerializeError::Truncated => write!(f, "buffer truncated or has trailing bytes"),
            SerializeError::InvalidValue => write!(f, "a deserialized value failed validation"),
        }
    }
}

impl std::error::Error for SerializeError {}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new(tag: Tag, ctx: &BfvContext) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(MAGIC);
        buf.push(VERSION);
        buf.push(tag as u8);
        let mut w = Self { buf };
        // Parameter echo.
        w.u64(ctx.degree() as u64);
        w.u64(ctx.parms().coeff_modulus().len() as u64);
        for m in ctx.parms().coeff_modulus() {
            w.u64(m.value());
        }
        w.u64(ctx.parms().plain_modulus().value());
        w
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i8(&mut self, v: i8) {
        self.buf.push(v as u8);
    }

    fn poly(&mut self, p: &RnsPolynomial) {
        for r in p.residues() {
            for &c in r.coeffs() {
                self.u64(c);
            }
        }
    }

    fn finish(self) -> Vec<u8> {
        self.buf
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], tag: Tag, ctx: &BfvContext) -> Result<Self, SerializeError> {
        let mut r = Self { buf, pos: 0 };
        let magic = r.bytes(5)?;
        if magic != MAGIC || r.u8()? != VERSION {
            return Err(SerializeError::BadHeader);
        }
        let got = r.u8()?;
        if got != tag as u8 {
            return Err(SerializeError::WrongTag {
                expected: tag as u8,
                got,
            });
        }
        // Parameter echo.
        let n = r.u64()?;
        let k = r.u64()?;
        if n != ctx.degree() as u64 || k != ctx.parms().coeff_modulus().len() as u64 {
            return Err(SerializeError::ParameterMismatch);
        }
        for m in ctx.parms().coeff_modulus() {
            if r.u64()? != m.value() {
                return Err(SerializeError::ParameterMismatch);
            }
        }
        if r.u64()? != ctx.parms().plain_modulus().value() {
            return Err(SerializeError::ParameterMismatch);
        }
        Ok(r)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], SerializeError> {
        if self.pos + n > self.buf.len() {
            return Err(SerializeError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, SerializeError> {
        Ok(self.bytes(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, SerializeError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn i8(&mut self) -> Result<i8, SerializeError> {
        Ok(self.u8()? as i8)
    }

    fn poly(&mut self, ctx: &BfvContext) -> Result<RnsPolynomial, SerializeError> {
        let n = ctx.degree();
        let k = ctx.parms().coeff_modulus().len();
        let mut flat = Vec::with_capacity(n * k);
        for j in 0..k {
            let q = ctx.parms().coeff_modulus()[j].value();
            for _ in 0..n {
                let c = self.u64()?;
                if c >= q {
                    return Err(SerializeError::InvalidValue);
                }
                flat.push(c);
            }
        }
        Ok(RnsPolynomial::from_flat(ctx.basis(), &flat))
    }

    fn done(&self) -> Result<(), SerializeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SerializeError::Truncated)
        }
    }
}

/// Serializes a plaintext.
pub fn save_plaintext(ctx: &BfvContext, p: &Plaintext) -> Vec<u8> {
    let mut w = Writer::new(Tag::Plaintext, ctx);
    for &c in p.coeffs() {
        w.u64(c);
    }
    w.finish()
}

/// Deserializes a plaintext.
///
/// # Errors
///
/// Fails on header/parameter mismatch, truncation, or unreduced values.
pub fn load_plaintext(ctx: &BfvContext, bytes: &[u8]) -> Result<Plaintext, SerializeError> {
    let mut r = Reader::new(bytes, Tag::Plaintext, ctx)?;
    let t = ctx.parms().plain_modulus().value();
    let mut coeffs = Vec::with_capacity(ctx.degree());
    for _ in 0..ctx.degree() {
        let c = r.u64()?;
        if c >= t {
            return Err(SerializeError::InvalidValue);
        }
        coeffs.push(c);
    }
    r.done()?;
    Ok(Plaintext::new(ctx, &coeffs))
}

/// Serializes a ciphertext (any size).
pub fn save_ciphertext(ctx: &BfvContext, ct: &Ciphertext) -> Vec<u8> {
    let mut w = Writer::new(Tag::Ciphertext, ctx);
    w.u64(ct.size() as u64);
    for part in ct.parts() {
        w.poly(part);
    }
    w.finish()
}

/// Deserializes a ciphertext.
///
/// # Errors
///
/// Same classes as [`load_plaintext`].
pub fn load_ciphertext(ctx: &BfvContext, bytes: &[u8]) -> Result<Ciphertext, SerializeError> {
    let mut r = Reader::new(bytes, Tag::Ciphertext, ctx)?;
    let size = r.u64()? as usize;
    if !(2..=8).contains(&size) {
        return Err(SerializeError::InvalidValue);
    }
    let mut parts = Vec::with_capacity(size);
    for _ in 0..size {
        parts.push(r.poly(ctx)?);
    }
    r.done()?;
    Ok(Ciphertext::from_parts(parts))
}

/// Serializes a secret key (compactly, as ternary signs).
pub fn save_secret_key(ctx: &BfvContext, sk: &SecretKey) -> Vec<u8> {
    let mut w = Writer::new(Tag::SecretKey, ctx);
    for &c in sk.coefficients() {
        w.i8(c as i8);
    }
    w.finish()
}

/// Deserializes a secret key.
///
/// # Errors
///
/// Fails on non-ternary coefficients or the usual format errors.
pub fn load_secret_key(ctx: &BfvContext, bytes: &[u8]) -> Result<SecretKey, SerializeError> {
    let mut r = Reader::new(bytes, Tag::SecretKey, ctx)?;
    let mut s_signed = Vec::with_capacity(ctx.degree());
    for _ in 0..ctx.degree() {
        let v = r.i8()? as i64;
        if !(-1..=1).contains(&v) {
            return Err(SerializeError::InvalidValue);
        }
        s_signed.push(v);
    }
    r.done()?;
    Ok(SecretKey::from_coefficients(ctx, s_signed))
}

/// Serializes a public key.
pub fn save_public_key(ctx: &BfvContext, pk: &PublicKey) -> Vec<u8> {
    let mut w = Writer::new(Tag::PublicKey, ctx);
    w.poly(pk.p0());
    w.poly(pk.p1());
    w.finish()
}

/// Deserializes a public key.
///
/// # Errors
///
/// Same classes as [`load_plaintext`].
pub fn load_public_key(ctx: &BfvContext, bytes: &[u8]) -> Result<PublicKey, SerializeError> {
    let mut r = Reader::new(bytes, Tag::PublicKey, ctx)?;
    let p0 = r.poly(ctx)?;
    let p1 = r.poly(ctx)?;
    r.done()?;
    Ok(PublicKey::from_parts(p0, p1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::EncryptionParameters;
    use crate::{Decryptor, Encryptor, KeyGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (BfvContext, SecretKey, PublicKey, StdRng) {
        let ctx = BfvContext::new(EncryptionParameters::seal_128_paper().unwrap()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let keygen = KeyGenerator::new(&ctx);
        let sk = keygen.secret_key(&mut rng);
        let pk = keygen.public_key(&sk, &mut rng);
        (ctx, sk, pk, rng)
    }

    #[test]
    fn plaintext_roundtrip() {
        let (ctx, _, _, _) = setup();
        let mut coeffs = vec![0u64; 1024];
        coeffs[0] = 255;
        coeffs[777] = 128;
        let p = Plaintext::new(&ctx, &coeffs);
        let bytes = save_plaintext(&ctx, &p);
        assert_eq!(load_plaintext(&ctx, &bytes).unwrap().coeffs(), p.coeffs());
    }

    #[test]
    fn ciphertext_roundtrip_decrypts() {
        let (ctx, sk, pk, mut rng) = setup();
        let enc = Encryptor::new(&ctx, &pk);
        let dec = Decryptor::new(&ctx, &sk);
        let ct = enc.encrypt(&Plaintext::constant(&ctx, 99), &mut rng);
        let bytes = save_ciphertext(&ctx, &ct);
        let back = load_ciphertext(&ctx, &bytes).unwrap();
        assert_eq!(dec.decrypt(&back).coeffs()[0], 99);
    }

    #[test]
    fn key_roundtrips_preserve_function() {
        let (ctx, sk, pk, mut rng) = setup();
        let sk2 = load_secret_key(&ctx, &save_secret_key(&ctx, &sk)).unwrap();
        let pk2 = load_public_key(&ctx, &save_public_key(&ctx, &pk)).unwrap();
        assert_eq!(sk2.coefficients(), sk.coefficients());
        // Encrypt with the loaded pk, decrypt with the loaded sk.
        let enc = Encryptor::new(&ctx, &pk2);
        let dec = Decryptor::new(&ctx, &sk2);
        let ct = enc.encrypt(&Plaintext::constant(&ctx, 42), &mut rng);
        assert_eq!(dec.decrypt(&ct).coeffs()[0], 42);
    }

    #[test]
    fn header_and_tag_validation() {
        let (ctx, sk, _, _) = setup();
        let mut bytes = save_secret_key(&ctx, &sk);
        // Wrong type requested.
        assert!(matches!(
            load_public_key(&ctx, &bytes),
            Err(SerializeError::WrongTag { .. })
        ));
        // Corrupt magic.
        bytes[0] = b'X';
        assert_eq!(
            load_secret_key(&ctx, &bytes),
            Err(SerializeError::BadHeader)
        );
    }

    #[test]
    fn parameter_mismatch_detected() {
        use reveal_math::Modulus;
        let (ctx, _, pk, _) = setup();
        let other = BfvContext::new(
            EncryptionParameters::new(
                1024,
                vec![Modulus::new(132120577).unwrap()],
                Modulus::new(128).unwrap(),
            )
            .unwrap(),
        )
        .unwrap();
        let bytes = save_public_key(&ctx, &pk);
        assert_eq!(
            load_public_key(&other, &bytes),
            Err(SerializeError::ParameterMismatch)
        );
    }

    #[test]
    fn truncation_and_garbage_detected() {
        let (ctx, _, pk, _) = setup();
        let bytes = save_public_key(&ctx, &pk);
        assert_eq!(
            load_public_key(&ctx, &bytes[..bytes.len() - 1]),
            Err(SerializeError::Truncated)
        );
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(
            load_public_key(&ctx, &longer),
            Err(SerializeError::Truncated)
        );
    }

    #[test]
    fn unreduced_values_rejected() {
        let (ctx, _, pk, _) = setup();
        let mut bytes = save_public_key(&ctx, &pk);
        // Overwrite the first residue with q (unreduced). Header = 5 + 1 + 1
        // + 8 (n) + 8 (k) + 8 (q) + 8 (t) = 39 bytes.
        let q = 132120577u64;
        bytes[39..47].copy_from_slice(&q.to_le_bytes());
        assert_eq!(
            load_public_key(&ctx, &bytes),
            Err(SerializeError::InvalidValue)
        );
    }

    #[test]
    fn non_ternary_secret_rejected() {
        let (ctx, sk, _, _) = setup();
        let mut bytes = save_secret_key(&ctx, &sk);
        let header = 39usize;
        bytes[header] = 7;
        assert_eq!(
            load_secret_key(&ctx, &bytes),
            Err(SerializeError::InvalidValue)
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        /// The paper context and one valid encoding of each object kind.
        fn fixtures() -> &'static (BfvContext, [Vec<u8>; 4]) {
            static FIXTURES: OnceLock<(BfvContext, [Vec<u8>; 4])> = OnceLock::new();
            FIXTURES.get_or_init(|| {
                let (ctx, sk, pk, mut rng) = setup();
                let plain = Plaintext::constant(&ctx, 7);
                let ct = Encryptor::new(&ctx, &pk).encrypt(&plain, &mut rng);
                let blobs = [
                    save_plaintext(&ctx, &plain),
                    save_ciphertext(&ctx, &ct),
                    save_secret_key(&ctx, &sk),
                    save_public_key(&ctx, &pk),
                ];
                (ctx, blobs)
            })
        }

        /// Applies the edit `bits` encodes: flip one bit, truncate, or
        /// append up to 16 bytes.
        fn mutate(bytes: &mut Vec<u8>, bits: u64) {
            let at = (bits >> 8) as usize;
            match bits % 3 {
                0 if !bytes.is_empty() => {
                    let len = bytes.len();
                    bytes[at / 8 % len] ^= 1 << (at % 8);
                }
                1 => bytes.truncate(at % (bytes.len() + 1)),
                _ => bytes.extend((0..=at % 16).map(|i| (bits >> (i % 8 * 8)) as u8)),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Every loader, fed any edited encoding of any object, either
            /// fails typed or returns an object that saves back to exactly
            /// those bytes (the format is canonical).
            #[test]
            fn edited_encodings_load_typed_or_round_trip(
                object in 0usize..4,
                script in proptest::collection::vec(any::<u64>(), 1..4),
            ) {
                let (ctx, blobs) = fixtures();
                let mut bytes = blobs[object].clone();
                for bits in script {
                    mutate(&mut bytes, bits);
                }
                if let Ok(p) = load_plaintext(ctx, &bytes) {
                    prop_assert!(save_plaintext(ctx, &p) == bytes);
                }
                if let Ok(ct) = load_ciphertext(ctx, &bytes) {
                    prop_assert!(save_ciphertext(ctx, &ct) == bytes);
                }
                if let Ok(sk) = load_secret_key(ctx, &bytes) {
                    prop_assert!(save_secret_key(ctx, &sk) == bytes);
                }
                if let Ok(pk) = load_public_key(ctx, &bytes) {
                    prop_assert!(save_public_key(ctx, &pk) == bytes);
                }
            }
        }
    }
}
