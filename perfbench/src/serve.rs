//! `serve-n1024`: paper-scale captures framed and pushed through
//! `reveal_serve::Supervisor` with periodic checkpoints on. One generator
//! thread runs a closed loop for three victims: each victim sends its next
//! trace only after the `VictimUpdate` for its previous one arrived.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use reveal_attack::{calibrate, Calibration, Capture, RobustAttack, RobustAttackResult};
use reveal_hints::{HintPolicy, LweParameters};
use reveal_serve::{frame_stream, KeyId, ServeConfig, ShardedAccumulator, Snapshot, Supervisor};

use crate::attack::victim_rng;
use crate::common::{
    check_pinned_bikz, err, paper_attacker, refit_s, seconds_since, timed, Attacker, EndToEnd,
    Outcome, Res, DEFAULT_SEED, PAPER_N,
};
use crate::spans::Tracer;

/// Service set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 3;
/// Fits per set-up, and refits of the last campaign after the timed
/// phase: `fit_s` samples from both ends of the run (refitting during the
/// timed phase would compete with the service).
const FITS_PER_SETUP: usize = 3;
const FITS_AFTER: usize = 6;
const VICTIMS: usize = 3;
/// Wire frame size; a paper-scale trace becomes a few frames.
const FRAME_LEN: usize = 8192;
/// Distinct victim captures per run, cycled through by the victims.
const POOL: usize = 24;
/// Checkpoint after every this many scored traces.
const CHECKPOINT_EVERY: u64 = 8;
/// Generator poll interval while every victim waits for its update.
const POLL: Duration = Duration::from_micros(200);

/// Everything a service needs besides its attacker.
struct Service {
    attacker: Attacker,
    config: ServeConfig,
}

fn checkpoint_path() -> PathBuf {
    PathBuf::from(".bench_build/perfbench").join(format!("serve-{}.ckpt", std::process::id()))
}

/// Calibrates the attacker on a clean capture and configures the service
/// with periodic checkpoints.
fn service(attacker: Attacker) -> Res<Service> {
    let mut rng = StdRng::seed_from_u64(DEFAULT_SEED ^ 2);
    let clean = attacker
        .device
        .capture_fresh(&mut rng)
        .map_err(err("calibration capture"))?;
    let calibration: Calibration = calibrate(&clean.run.capture.samples, attacker.attack.config())
        .map_err(err("calibrate"))?;
    let mut config = ServeConfig::new(
        LweParameters::seal_128_paper(),
        PAPER_N,
        HintPolicy::seal_paper(),
    );
    config.calibration = Some(calibration);
    config.reassembly.max_buffered_samples = 1 << 26;
    config.reassembly.stream_deadline = Duration::from_secs(30);
    let path = checkpoint_path();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(err("checkpoint directory"))?;
    }
    config.checkpoint_every = CHECKPOINT_EVERY;
    config.checkpoint_path = Some(path);
    Ok(Service { attacker, config })
}

/// The victim capture pool of `seed`.
fn pool(attacker: &Attacker, seed: u64) -> Res<Vec<Capture>> {
    let mut rng = victim_rng(seed);
    (0..POOL)
        .map(|_| attacker.device.capture_fresh(&mut rng))
        .collect::<Result<_, _>>()
        .map_err(err("capture"))
}

/// What one closed-loop session observed.
struct Served {
    /// `(key, trace_seq, pool index)` in submission order.
    order: Vec<(KeyId, u64, usize)>,
    latencies_ms: Vec<f64>,
    /// Seconds into the session at which each scored trace's update arrived.
    completed_at: Vec<f64>,
    scored: u64,
    failed: u64,
    snapshot: String,
    queue_high_water: [u64; 3],
    checkpoints_written: u64,
    retries: u64,
}

/// Runs the closed loop on a started supervisor until `deadline` passes
/// or `max_traces` were submitted, waits for the traces in flight, and
/// shuts the service down.
fn closed_loop(
    sup: Supervisor,
    pool: &[Capture],
    deadline: Instant,
    max_traces: usize,
) -> Res<Served> {
    let handle = sup.handle();
    let mut in_flight: [Option<(u64, Instant)>; VICTIMS] = [None; VICTIMS];
    let mut next_seq = [0u64; VICTIMS];
    let mut order = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut completed_at = Vec::new();
    let (mut scored, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    loop {
        for victim in 0..VICTIMS {
            if in_flight[victim].is_some()
                || order.len() >= max_traces
                || Instant::now() >= deadline
            {
                continue;
            }
            let key = victim as KeyId + 1;
            let index = order.len() % pool.len();
            let seq = next_seq[victim];
            let frames = frame_stream(key, seq, &pool[index].run.capture.samples, FRAME_LEN);
            let sent = Instant::now();
            for frame in frames {
                handle.submit(frame).map_err(err("submit"))?;
            }
            in_flight[victim] = Some((seq, sent));
            next_seq[victim] += 1;
            order.push((key, seq, index));
        }
        if in_flight.iter().all(Option::is_none) {
            break;
        }
        let updates = sup.drain_updates();
        if updates.is_empty() {
            std::thread::sleep(POLL);
            continue;
        }
        for update in updates {
            let victim = (update.key as usize).wrapping_sub(1);
            let Some(Some((seq, sent))) = in_flight.get(victim).copied() else {
                return Err(format!("update for unknown victim {}", update.key));
            };
            if update.trace_seq != seq {
                return Err(format!(
                    "victim {} got update {} for trace {seq}",
                    update.key, update.trace_seq
                ));
            }
            in_flight[victim] = None;
            if update.failed.is_some() {
                failed += 1;
            } else {
                scored += 1;
                latencies_ms.push(seconds_since(sent) * 1e3);
                completed_at.push(seconds_since(start));
            }
        }
    }
    let snapshot = sup.snapshot().encode();
    let summary = sup.shutdown();
    let m = &summary.metrics;
    Ok(Served {
        order,
        latencies_ms,
        completed_at,
        scored,
        failed,
        snapshot,
        queue_high_water: [
            m.ingest_queue.high_water as u64,
            m.work_queue.high_water as u64,
            m.result_queue.high_water as u64,
        ],
        checkpoints_written: m.checkpoints_written,
        retries: m.retries,
    })
}

fn robust_attack(service: &Service, capture: &Capture) -> Res<RobustAttackResult> {
    let mut robust =
        RobustAttack::new(&service.attacker.attack).with_config(service.config.robust.clone());
    if let Some(calibration) = service.config.calibration {
        robust = robust.with_calibration(calibration);
    }
    robust
        .attack_trace(
            &capture.run.capture.samples,
            PAPER_N,
            &service.config.policy,
        )
        .map_err(err("robust attack"))
}

fn accumulator(config: &ServeConfig) -> ShardedAccumulator {
    ShardedAccumulator::new(
        config.params,
        config.coefficients,
        config.shards,
        config.quarantine_threshold,
    )
}

/// Folds the one-shot robust results in the served order and checks the
/// service's snapshot against it.
fn check_fold(service: &Service, served: &Served, robust: &[RobustAttackResult]) -> Res<bool> {
    let mut acc = accumulator(&service.config);
    for &(key, seq, index) in &served.order {
        acc.apply_success(key, seq, &robust[index])
            .map_err(err("reference fold"))?;
    }
    let reference = Snapshot::capture(&acc, service.config.quarantine_threshold).encode();
    Ok(reference == served.snapshot)
}

fn remove_checkpoint(service: &Service) {
    if let Some(path) = &service.config.checkpoint_path {
        // Best effort: a missing file just means no checkpoint was due.
        let _ = std::fs::remove_file(path);
    }
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut e2e = EndToEnd::default();
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some((_, sup, _)) = kept.take() {
            Supervisor::shutdown(sup);
        }
        let (attacker, attacker_s, fit_s, data) = paper_attacker(DEFAULT_SEED)?;
        e2e.fit_s.push(fit_s);
        for _ in 1..FITS_PER_SETUP {
            e2e.fit_s.push(refit_s(&data)?);
        }
        let (started, start_s) = timed(|| {
            let service = service(attacker)?;
            let sup = Supervisor::start(service.attacker.attack.clone(), service.config.clone());
            Ok::<_, String>((service, sup))
        });
        let (service, sup) = started?;
        e2e.setup_s.push(attacker_s + start_s);
        kept = Some((service, sup, data));
    }
    let (service, sup, campaign) = kept.ok_or("no set-up ran")?;
    if let Err(problem) = check_pinned_bikz(&service.attacker) {
        out.problems.push(problem);
    }
    let pool = pool(&service.attacker, seed)?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let served = closed_loop(sup, &pool, deadline, usize::MAX)?;
    remove_checkpoint(&service);
    for _ in 0..FITS_AFTER {
        e2e.fit_s.push(refit_s(&campaign)?);
    }
    out.attempted = served.order.len() as u64;
    out.failed = served.failed;
    out.check(served.checkpoints_written > 0, || {
        "no checkpoint written".into()
    });
    if served.failed == 0 {
        let robust: Vec<RobustAttackResult> = pool
            .iter()
            .map(|c| robust_attack(&service, c))
            .collect::<Res<_>>()?;
        out.check(check_fold(&service, &served, &robust)?, || {
            "served snapshot differs from the one-shot robust fold".into()
        });
    }
    // The service is busy for the whole session: each trace accounts for
    // the wall time since the previous update.
    let mut last = 0.0;
    for &at in &served.completed_at {
        e2e.complete(at, 1, at - last);
        last = at;
    }
    e2e.latencies_ms = served.latencies_ms;
    e2e.finish(&mut out)?;
    Ok(out)
}

/// Traced phase: the standard attacker from the profiling phase serves
/// `ops` traces in the closed loop; every pool capture is also analysed
/// one-shot, untraced and inside `attack.robust_trace` spans, and the
/// results folded inside `hints.fold` spans. The served snapshot must equal
/// that fold. Returns the untraced per-analysis times.
pub fn phase(attacker: Attacker, seed: u64, ops: usize, tr: &mut Tracer) -> Res<Vec<f64>> {
    let service = service(attacker)?;
    let pool = pool(&service.attacker, seed)?;
    let used = &pool[..ops.min(POOL)];

    let mut reference = Vec::with_capacity(used.len());
    let mut untraced_ms = Vec::with_capacity(used.len());
    for capture in used {
        let (result, secs) = timed(|| robust_attack(&service, capture));
        reference.push(result?);
        untraced_ms.push(secs * 1e3);
    }
    let mut robust = Vec::with_capacity(used.len());
    for (capture, want) in used.iter().zip(&reference) {
        let result = tr.span("attack.robust_trace", |_| robust_attack(&service, capture))?;
        if &result != want {
            return Err("traced robust attack differs from the untraced one".to_string());
        }
        robust.push(result);
    }

    let sup = Supervisor::start(service.attacker.attack.clone(), service.config.clone());
    let far = Instant::now() + Duration::from_secs(3600);
    let served = closed_loop(sup, used, far, ops)?;
    remove_checkpoint(&service);
    if served.failed > 0 {
        return Err(format!("{} served traces failed", served.failed));
    }
    let mut acc = accumulator(&service.config);
    for &(key, seq, index) in &served.order {
        tr.span("hints.fold", |_| {
            acc.apply_success(key, seq, &robust[index])
        })
        .map_err(err("fold"))?;
    }
    let reference = Snapshot::capture(&acc, service.config.quarantine_threshold).encode();
    if reference != served.snapshot {
        return Err("served snapshot differs from the one-shot robust fold".to_string());
    }
    for latency in &served.latencies_ms {
        tr.sample("serve.latency_ms", *latency);
    }
    tr.set(
        "serve.queue_high_water.ingest",
        served.queue_high_water[0] as f64,
    );
    tr.set(
        "serve.queue_high_water.work",
        served.queue_high_water[1] as f64,
    );
    tr.set(
        "serve.queue_high_water.result",
        served.queue_high_water[2] as f64,
    );
    tr.set(
        "serve.checkpoints_written",
        served.checkpoints_written as f64,
    );
    tr.set("serve.retries", served.retries as f64);
    tr.count("serve.traces", served.scored as f64);
    Ok(untraced_ms)
}
