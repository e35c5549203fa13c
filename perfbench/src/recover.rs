//! `recover-n32`: end-to-end message recovery at n = 32, q = 3329, t = 16
//! (experiment E9). Each op is BFV `encrypt_observed` → capture of the
//! encryption's `e2` sampling → single-trace attack → `recover_adaptive`
//! (the BKZ finisher) → plaintext check.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reveal_attack::{collect_profiling, recover_adaptive, AttackConfig, Device, TrainedAttack};
use reveal_bfv::{
    BfvContext, Ciphertext, EncryptionParameters, Encryptor, KeyGenerator, NullProbe, Plaintext,
    PublicKey,
};
use reveal_math::Modulus;

use crate::common::{device, err, fit, seconds_since, timed, EndToEnd, Outcome, Res};
use crate::profile;
use crate::spans::Tracer;

const N: usize = 32;
const Q: u64 = 3329;
const T: u64 = 16;
const NOISE_SIGMA: f64 = 0.02;
const PROFILE_RUNS: usize = 60;
/// The attacker's own profiling seed (the E9 generator's).
const ATTACKER_SEED: u64 = 555;
/// Coefficients below this posterior confidence are never trusted.
const MIN_CONFIDENCE: f64 = 0.85;
/// Set-ups per run; `setup_s` and `fit_s` report their median.
const SETUPS: usize = 5;

/// The victim's BFV keys and the attacker's device.
pub struct Victim {
    ctx: BfvContext,
    pk: PublicKey,
    pub device: Device,
}

/// Builds the victim's context and keys from `seed` and the n = 32 device.
pub fn victim(seed: u64) -> Res<Victim> {
    let parms = EncryptionParameters::new(
        N,
        vec![Modulus::new(Q).map_err(err("q"))?],
        Modulus::new(T).map_err(err("t"))?,
    )
    .map_err(err("parameters"))?;
    let ctx = BfvContext::new(parms).map_err(err("context"))?;
    let mut rng = StdRng::seed_from_u64(reveal_par::derive_seed(seed, 0));
    let keygen = KeyGenerator::new(&ctx);
    let sk = keygen.secret_key(&mut rng);
    let pk = keygen.public_key(&sk, &mut rng);
    Ok(Victim {
        ctx,
        pk,
        device: device(N, &[Q], NOISE_SIGMA)?,
    })
}

/// One recovery: what the attacker ends with, for correctness and
/// bit-identity checks.
#[derive(PartialEq)]
pub struct Recovered {
    pub plaintext: Vec<u64>,
    pub secret_u: Vec<i64>,
    pub trusted: usize,
    pub correct: bool,
}

/// The victim's side of one op: a random message and its encryption.
fn encrypt(victim: &Victim, rng: &mut StdRng) -> (Plaintext, Ciphertext, Vec<i64>) {
    let message: Vec<u64> = (0..N).map(|_| rng.gen_range(0..T)).collect();
    let plain = Plaintext::new(&victim.ctx, &message);
    let encryptor = Encryptor::new(&victim.ctx, &victim.pk);
    let (ct, witness) = encryptor.encrypt_observed(&plain, rng, &mut NullProbe, &mut NullProbe);
    (plain, ct, witness.e2)
}

/// The BKZ finisher on the attack's estimates of `e2`.
fn finish(
    victim: &Victim,
    ct: &Ciphertext,
    coefficients: &[reveal_attack::CoefficientEstimate],
) -> Res<(Plaintext, Vec<i64>, usize)> {
    let estimates: Vec<(i64, f64)> = coefficients
        .iter()
        .map(|c| (c.predicted, c.confidence()))
        .collect();
    recover_adaptive(&victim.ctx, &victim.pk, ct, &estimates, MIN_CONFIDENCE)
        .map_err(err("recover"))
}

fn recovered(plain: &Plaintext, got: (Plaintext, Vec<i64>, usize)) -> Recovered {
    let (recovered, secret_u, trusted) = got;
    Recovered {
        correct: recovered.coeffs() == plain.coeffs(),
        plaintext: recovered.coeffs().to_vec(),
        secret_u,
        trusted,
    }
}

/// One whole op, untraced.
fn op(victim: &Victim, attack: &TrainedAttack, rng: &mut StdRng) -> Res<Recovered> {
    let (plain, ct, e2) = encrypt(victim, rng);
    let capture = victim
        .device
        .capture_chosen(&e2, rng)
        .map_err(err("capture"))?;
    let result = attack
        .attack_trace_expecting(&capture.run.capture.samples, N)
        .map_err(err("attack"))?;
    Ok(recovered(
        &plain,
        finish(victim, &ct, &result.coefficients)?,
    ))
}

fn op_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(reveal_par::derive_seed(seed, 1))
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut e2e = EndToEnd::default();
    let config = AttackConfig::default();
    let mut kept = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let victim = victim(seed)?;
        let data = collect_profiling(&victim.device, PROFILE_RUNS, &config, ATTACKER_SEED)
            .map_err(err("profiling"))?;
        let (attack, fit_s) = timed(|| fit(data));
        let attack = attack?;
        e2e.setup_s.push(start.elapsed().as_secs_f64());
        e2e.fit_s.push(fit_s);
        kept = Some((victim, attack));
    }
    let (victim, attack) = kept.ok_or("no set-up ran")?;
    let mut rng = op_rng(seed);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        out.attempted += 1;
        let (result, secs) = timed(|| op(&victim, &attack, &mut rng));
        let correct = matches!(result, Ok(Recovered { correct: true, .. }));
        e2e.complete(seconds_since(start), u64::from(correct), secs);
        if correct {
            e2e.latencies_ms.push(secs * 1e3);
        } else {
            out.failed += 1;
        }
    }
    e2e.finish(&mut out)?;
    Ok(out)
}

/// Traced phase: the n = 32 attacker's campaign through the profiling
/// phase, then `ops` recoveries untraced and again inside spans
/// (`recover.op` = `bfv.encrypt` + `rv32.capture` + `attack.trace` +
/// `lattice.recover`). Both passes must recover the same plaintexts.
/// Returns the untraced per-op times.
pub fn phase(seed: u64, ops: usize, tr: &mut Tracer) -> Res<Vec<f64>> {
    let victim = victim(seed)?;
    let (attack, _) = profile::phase(&victim.device, PROFILE_RUNS, ATTACKER_SEED, tr)?;

    let mut rng = op_rng(seed);
    let mut reference = Vec::with_capacity(ops);
    let mut untraced_ms = Vec::with_capacity(ops);
    for _ in 0..ops {
        let (result, secs) = timed(|| op(&victim, &attack, &mut rng));
        reference.push(result?);
        untraced_ms.push(secs * 1e3);
    }

    let mut rng = op_rng(seed);
    for want in &reference {
        let got = tr.span("recover.op", |tr| {
            let (plain, ct, e2) = tr.span("bfv.encrypt", |_| encrypt(&victim, &mut rng));
            let capture = tr.span("rv32.capture", |_| {
                victim.device.capture_chosen(&e2, &mut rng)
            });
            let capture = capture.map_err(err("capture"))?;
            let result = tr.span("attack.trace", |_| {
                attack.attack_trace_expecting(&capture.run.capture.samples, N)
            });
            let result = result.map_err(err("attack"))?;
            let got = tr.span("lattice.recover", |_| {
                finish(&victim, &ct, &result.coefficients)
            })?;
            Ok::<_, String>(recovered(&plain, got))
        })?;
        if &got != want || !got.correct {
            return Err("traced recovery differs from the untraced one".to_string());
        }
        tr.count("lattice.trusted", got.trusted as f64);
        tr.count("lattice.recovered", 1.0);
    }
    Ok(untraced_ms)
}
