//! End-to-end service tests for `reveal-serve`.
//!
//! The claims under test, in order of importance:
//!
//! 1. **Bit-identity**: a zero-fault served stream reproduces the one-shot
//!    pipeline's hints and bikz bit-for-bit (`f64::to_bits` equality), at
//!    any worker count (`reveal_par::with_threads` at start).
//! 2. **Crash recovery**: killing the supervisor mid-stream and resuming
//!    from the periodic checkpoint converges to the same final state as an
//!    uninterrupted run — compared as encoded snapshots, i.e. bit-exact.
//! 3. **Isolation**: a poisoned victim stream is quarantined after the
//!    configured failure run and never stalls or corrupts other victims.
//! 4. **Liveness under chaos**: random frame-fault schedules (truncation,
//!    duplication, reordering, disconnects) at any intensity never
//!    deadlock the service, every submitted trace gets exactly one update,
//!    traces in flight stay within the queue bound plus the worker count,
//!    and benign schedules (no data loss) still produce the clean answer.
//! 5. **Hostile input**: far-ahead sequence numbers, unanalysable traces
//!    and crafted checkpoints cost one typed failure each, never a stall or
//!    an abort.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use reveal_attack::{
    calibrate, report_full_attack, AttackConfig, Calibration, Device, RobustAttack, TrainedAttack,
};
use reveal_chaos::{FrameChunk, FramePlan};
use reveal_hints::{HintPolicy, LweParameters};
use reveal_rv32::power::PowerModelConfig;
use reveal_serve::accumulator::ShardedAccumulator;
use reveal_serve::{
    frame_stream, CheckpointError, KeyId, ServeConfig, ServeError, Snapshot, Supervisor,
    TraceFrame, VictimStatus,
};

const DEGREE: usize = 32;
const MODULUS: u64 = 3329;
const PROFILE_RUNS: usize = 40;
const MASTER_SEED: u64 = 0xC0FF_EE00_5EED;
const CALIBRATION_SEED: u64 = 0x0CA1;
const FRAME_LEN: usize = 512;

struct Shared {
    device: Device,
    attack: TrainedAttack,
    calibration: Calibration,
}

/// Profiling is the expensive part; run it once for the whole suite.
fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| {
        let device = Device::new(
            DEGREE,
            &[MODULUS],
            PowerModelConfig::default().with_noise_sigma(0.05),
        )
        .unwrap();
        let attack = TrainedAttack::profile_seeded(
            &device,
            PROFILE_RUNS,
            &AttackConfig::default(),
            MASTER_SEED,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(CALIBRATION_SEED);
        let clean = device.capture_fresh(&mut rng).unwrap();
        let calibration = calibrate(&clean.run.capture.samples, attack.config()).unwrap();
        Shared {
            device,
            attack,
            calibration,
        }
    })
}

fn capture(seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    shared()
        .device
        .capture_fresh(&mut rng)
        .unwrap()
        .run
        .capture
        .samples
        .clone()
}

fn config() -> ServeConfig {
    let mut c = ServeConfig::new(
        LweParameters::seal_128_paper(),
        DEGREE,
        HintPolicy::seal_paper(),
    );
    c.calibration = Some(shared().calibration);
    c
}

/// The per-victim trace sets most tests serve: victim 10 gets one trace,
/// victim 11 gets two.
fn standard_traces() -> Vec<(KeyId, Vec<Vec<f64>>)> {
    vec![
        (10, vec![capture(77)]),
        (11, vec![capture(78), capture(79)]),
    ]
}

/// Folds the same traces through the robust pipeline + accumulator
/// directly — the ground truth a served run must match bit-for-bit.
fn reference_snapshot(traces: &[(KeyId, Vec<Vec<f64>>)], cfg: &ServeConfig) -> Snapshot {
    let sh = shared();
    let robust = RobustAttack::new(&sh.attack).with_calibration(sh.calibration);
    let mut acc = ShardedAccumulator::new(
        cfg.params,
        cfg.coefficients,
        cfg.shards,
        cfg.quarantine_threshold,
    );
    for (key, ts) in traces {
        for (seq, samples) in ts.iter().enumerate() {
            let result = robust
                .attack_trace(samples, DEGREE, &cfg.policy)
                .expect("clean capture analyzes");
            acc.apply_success(*key, seq as u64, &result).unwrap();
        }
    }
    Snapshot::capture(&acc, cfg.quarantine_threshold)
}

fn submit_all(sup: &Supervisor, traces: &[(KeyId, Vec<Vec<f64>>)]) {
    let handle = sup.handle();
    for (key, ts) in traces {
        for (seq, samples) in ts.iter().enumerate() {
            for frame in frame_stream(*key, seq as u64, samples, FRAME_LEN) {
                handle.submit(frame).expect("submit while running");
            }
        }
    }
}

fn await_updates(
    sup: &Supervisor,
    want: usize,
    timeout: Duration,
) -> Vec<reveal_serve::VictimUpdate> {
    let start = Instant::now();
    let mut got = Vec::new();
    loop {
        got.extend(sup.drain_updates());
        if got.len() >= want {
            return got;
        }
        assert!(
            start.elapsed() < timeout,
            "timed out waiting for {want} updates, got {}",
            got.len()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Runs `f` on a helper thread and fails the test if it neither finishes
/// nor panics within `timeout` — the deadlock detector for shutdown paths.
fn with_watchdog<F>(label: &str, timeout: Duration, f: F)
where
    F: FnOnce() + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(timeout) {
        Ok(()) => worker.join().expect("scenario thread"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The scenario panicked; propagate its message.
            worker.join().expect("scenario thread panicked");
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{label}: watchdog timeout after {timeout:?} — service deadlocked");
        }
    }
}

#[test]
fn zero_fault_stream_matches_one_shot_pipeline_bit_identically() {
    let sh = shared();
    let traces = standard_traces();
    let cfg = config();
    let reference = reference_snapshot(&traces, &cfg).encode();

    // The one-shot *plain* pipeline report for the single-trace victim —
    // the service's clean path must reproduce it exactly (robust clean
    // path == plain pipeline, and the service fold == report_robust).
    let plain = sh
        .attack
        .attack_trace_expecting(&traces[0].1[0], DEGREE)
        .unwrap();
    let plain_report = report_full_attack(&plain, &cfg.params, &cfg.policy).unwrap();

    let mut per_worker_snapshots = Vec::new();
    for workers in [1usize, 4] {
        let sup =
            reveal_par::with_threads(workers, || Supervisor::start(sh.attack.clone(), config()));
        submit_all(&sup, &traces);
        let updates = await_updates(&sup, 3, Duration::from_secs(60));
        let snapshot = sup.snapshot().encode();
        let summary = sup.shutdown();

        assert_eq!(summary.metrics.traces_analyzed, 3);
        assert_eq!(summary.metrics.traces_failed, 0);
        assert_eq!(summary.metrics.retries, 0, "clean traces never retry");
        assert_eq!(summary.latencies_ms.len(), 3);

        let first = updates
            .iter()
            .find(|u| u.key == 10 && u.trace_seq == 0)
            .expect("update for victim 10");
        assert!(first.failed.is_none());
        assert_eq!(
            first.bikz.to_bits(),
            plain_report.with_hints.bikz.to_bits(),
            "served zero-fault bikz must be bit-identical to the one-shot pipeline"
        );
        assert_eq!(
            (first.perfect, first.approximate, first.skipped),
            (
                plain_report.hints.perfect,
                plain_report.hints.approximate,
                plain_report.hints.skipped
            ),
        );

        assert_eq!(
            snapshot, reference,
            "workers={workers}: served hint store diverged from the one-shot fold"
        );
        per_worker_snapshots.push(snapshot);
    }
    assert_eq!(
        per_worker_snapshots[0], per_worker_snapshots[1],
        "worker count must not change the answer"
    );
}

#[test]
fn crash_mid_stream_then_restore_is_bit_identical() {
    let sh = shared();
    let traces = vec![(7u64, vec![capture(101), capture(102), capture(103)])];
    let ckpt = std::env::temp_dir().join(format!(
        "reveal-serve-e2e-{}-crash.ckpt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&ckpt);

    let base = {
        let mut c = config();
        c.checkpoint_every = 1;
        c.checkpoint_path = Some(ckpt.clone());
        c
    };
    let reference = reference_snapshot(&traces, &base).encode();

    // Phase 1: serve the first two traces on one worker, wait until at
    // least trace 0 is scored (so a periodic checkpoint exists), then crash.
    let sup = reveal_par::with_threads(1, || Supervisor::start(sh.attack.clone(), base.clone()));
    let handle = sup.handle();
    for (seq, samples) in traces[0].1.iter().take(2).enumerate() {
        for frame in frame_stream(7, seq as u64, samples, FRAME_LEN) {
            handle.submit(frame).unwrap();
        }
    }
    let _ = await_updates(&sup, 1, Duration::from_secs(60));
    sup.kill();

    let snapshot = Snapshot::load(&ckpt).expect("periodic checkpoint exists after crash");
    let restored = snapshot
        .victims
        .iter()
        .find(|(k, _)| *k == 7)
        .expect("victim 7 in checkpoint");
    assert!(restored.1.traces_processed >= 1);

    // Phase 2: resume from the checkpoint and replay the full stream
    // (already-scored traces are ignored as replays), plus the trace the
    // crash interrupted.
    let sup = reveal_par::with_threads(1, || {
        Supervisor::resume(sh.attack.clone(), base.clone(), &snapshot)
    })
    .unwrap();
    submit_all(&sup, &traces);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let done = sup
            .snapshot()
            .victims
            .iter()
            .any(|(k, v)| *k == 7 && v.traces_processed == 3);
        if done {
            break;
        }
        assert!(Instant::now() < deadline, "resume did not catch up");
        std::thread::sleep(Duration::from_millis(10));
    }
    let final_snapshot = sup.snapshot().encode();
    let summary = sup.shutdown();
    assert_eq!(summary.metrics.traces_failed, 0);

    assert_eq!(
        final_snapshot, reference,
        "kill + checkpoint restore must converge to the uninterrupted answer"
    );
    // The graceful shutdown also wrote a final checkpoint matching it.
    assert_eq!(Snapshot::load(&ckpt).unwrap().encode(), reference);
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn poisoned_victim_is_quarantined_without_stalling_others() {
    let sh = shared();
    let clean_key: KeyId = 1;
    let poison_key: KeyId = 2;
    let clean_traces = vec![(clean_key, vec![capture(55), capture(56)])];

    let mut cfg = config();
    cfg.quarantine_threshold = 2;
    let reference = reference_snapshot(&clean_traces, &cfg);

    let sup = reveal_par::with_threads(1, || Supervisor::start(sh.attack.clone(), cfg));
    let handle = sup.handle();

    // Two poisoned single-frame traces: NaN payloads fail admission, which
    // scores as typed per-trace failures and trips the quarantine ladder.
    for seq in 0..2u64 {
        handle
            .submit(TraceFrame {
                key: poison_key,
                trace_seq: seq,
                frame_seq: 0,
                last: true,
                samples: vec![f64::NAN; 16],
            })
            .unwrap();
    }
    // First clean trace in parallel with the poisoning.
    for frame in frame_stream(clean_key, 0, &clean_traces[0].1[0], FRAME_LEN) {
        handle.submit(frame).unwrap();
    }

    // Wait for the quarantine to land, then demonstrate enforcement.
    let deadline = Instant::now() + Duration::from_secs(60);
    while sup.metrics().quarantined_keys != 1 {
        assert!(Instant::now() < deadline, "quarantine never landed");
        std::thread::sleep(Duration::from_millis(10));
    }
    handle
        .submit(TraceFrame {
            key: poison_key,
            trace_seq: 2,
            frame_seq: 0,
            last: true,
            samples: vec![0.0; 16],
        })
        .unwrap();
    // The clean victim keeps flowing after the quarantine.
    for frame in frame_stream(clean_key, 1, &clean_traces[0].1[1], FRAME_LEN) {
        handle.submit(frame).unwrap();
    }

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let done = sup
            .snapshot()
            .victims
            .iter()
            .any(|(k, v)| *k == clean_key && v.traces_processed == 2);
        if done {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "clean victim stalled behind the poisoned one"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let snapshot = sup.snapshot();
    let updates = sup.drain_updates();
    let summary = sup.shutdown();

    // The poisoned key is quarantined, with its post-quarantine frame
    // dropped at ingress (never scored).
    let poisoned = snapshot
        .victims
        .iter()
        .find(|(k, _)| *k == poison_key)
        .expect("poisoned victim tracked");
    assert!(matches!(poisoned.1.status, VictimStatus::Quarantined(_)));
    assert_eq!(poisoned.1.traces_failed, 2);
    assert!(summary.metrics.frames_quarantined >= 1);
    assert!(summary.metrics.frames_rejected >= 2);
    assert!(
        !updates
            .iter()
            .chain(&summary.updates)
            .any(|u| u.key == poison_key && u.trace_seq == 2),
        "a quarantined victim's traces must not be scored"
    );

    // The clean victim's state is bit-identical to a run where the
    // poisoned victim never existed.
    let served_clean = snapshot
        .victims
        .iter()
        .find(|(k, _)| *k == clean_key)
        .expect("clean victim tracked");
    let reference_clean = reference
        .victims
        .iter()
        .find(|(k, _)| *k == clean_key)
        .expect("clean victim in reference");
    assert_eq!(served_clean.1.decisions, reference_clean.1.decisions);
    assert_eq!(
        served_clean.1.last_estimate.map(|e| e.bikz.to_bits()),
        reference_clean.1.last_estimate.map(|e| e.bikz.to_bits()),
    );
}

/// The clean reference for [`standard_traces`] under the chaos-scenario
/// config (4 shards), computed once.
fn chaos_reference() -> &'static str {
    static REF: OnceLock<String> = OnceLock::new();
    REF.get_or_init(|| {
        let mut c = config();
        c.shards = 4;
        reference_snapshot(&standard_traces(), &c).encode()
    })
}

/// One full chaos scenario: frame the standard traces, scramble every
/// stream with `FramePlan::standard_sweep(seed, intensity)`, serve them
/// at the given worker count, shut down, and assert the liveness and
/// accounting invariants. Benign schedules (no data loss) must
/// additionally produce the bit-exact clean answer.
fn chaos_scenario(seed: u64, intensity: f64, workers: usize) {
    let sh = shared();
    let traces = standard_traces();
    let reference = chaos_reference();

    let mut cfg = config();
    cfg.shards = 4;
    cfg.gap_limit = 4;
    cfg.reassembly.stream_deadline = Duration::from_millis(200);
    let sup = reveal_par::with_threads(workers, || Supervisor::start(sh.attack.clone(), cfg));
    let handle = sup.handle();

    let plan = FramePlan::standard_sweep(seed, intensity);
    let mut any_data_lost = false;
    let mut submitted = BTreeSet::new();
    let mut stream_id = 0u64;
    for (key, ts) in &traces {
        for (seq, samples) in ts.iter().enumerate() {
            let chunks: Vec<FrameChunk> = frame_stream(*key, seq as u64, samples, 256)
                .into_iter()
                .map(|f| FrameChunk {
                    seq: f.frame_seq,
                    last: f.last,
                    samples: f.samples,
                })
                .collect();
            let scrambled = plan.scramble(stream_id, chunks);
            stream_id += 1;
            any_data_lost |= scrambled.log.data_lost;
            for chunk in scrambled.frames {
                submitted.insert((*key, seq as u64));
                handle
                    .submit(TraceFrame {
                        key: *key,
                        trace_seq: seq as u64,
                        frame_seq: chunk.seq,
                        last: chunk.last,
                        samples: chunk.samples,
                    })
                    .expect("submit while running");
            }
        }
    }

    // Benign streams must all analyze before the drain; lossy ones need
    // only terminate — the shutdown drain handles their residue.
    if !any_data_lost {
        let deadline = Instant::now() + Duration::from_secs(60);
        while sup.metrics().traces_analyzed < 3 {
            assert!(Instant::now() < deadline, "benign streams stalled");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let snapshot = sup.snapshot().encode();
    let summary = sup.shutdown();

    let m = &summary.metrics;
    let mut updates: BTreeMap<(KeyId, u64), usize> = BTreeMap::new();
    for u in &summary.updates {
        *updates.entry((u.key, u.trace_seq)).or_default() += 1;
    }
    for pair in &submitted {
        assert_eq!(
            updates.get(pair),
            Some(&1),
            "trace {pair:?} must produce exactly one update"
        );
    }
    let q = &m.work_queue;
    assert!(
        q.high_water <= q.capacity + workers,
        "{} traces in flight against a queue of {} and {workers} workers",
        q.high_water,
        q.capacity
    );
    assert_eq!(q.depth, 0, "traces still in flight at shutdown");

    if !any_data_lost {
        // Duplication and reordering are absorbed exactly.
        assert_eq!(
            snapshot, reference,
            "benign fault schedule changed the answer"
        );
        assert_eq!(m.traces_analyzed, 3);
    }
}

#[test]
fn frame_faults_and_shutdown_never_deadlock_and_queues_stay_bounded() {
    // A deterministic sweep over fault schedules and worker counts; each
    // scenario runs under a watchdog so a deadlocked shutdown fails fast
    // instead of hanging CI.
    for (case, (seed, intensity, workers)) in
        [(3u64, 0.0, 1usize), (4, 0.3, 4), (5, 0.7, 2), (6, 1.0, 4)]
            .into_iter()
            .enumerate()
    {
        with_watchdog(
            &format!("case {case} (seed={seed}, intensity={intensity})"),
            Duration::from_secs(120),
            move || chaos_scenario(seed, intensity, workers),
        );
    }
}

/// A single-frame trace of 16 zero samples: it reassembles, but the robust
/// attack finds no operation to segment.
fn unanalysable(key: KeyId, trace_seq: u64) -> TraceFrame {
    TraceFrame {
        key,
        trace_seq,
        frame_seq: 0,
        last: true,
        samples: vec![0.0; 16],
    }
}

#[test]
fn an_unanalysable_trace_is_analysed_once() {
    let sup = Supervisor::start(shared().attack.clone(), config());
    sup.handle().submit(unanalysable(3, 0)).unwrap();
    let summary = sup.shutdown();
    let m = &summary.metrics;
    assert_eq!((m.traces_completed, m.traces_failed, m.retries), (1, 1, 0));
    assert!(
        matches!(
            summary.updates.as_slice(),
            [u] if matches!(u.failed, Some(ServeError::Analysis(_)))
        ),
        "one analysis failure expected, got {:?}",
        summary.updates
    );
}

#[test]
fn far_ahead_trace_seq_abandons_its_gap_in_one_step() {
    for seq in [1_000_000_000_000, u64::MAX - 1] {
        let attack = shared().attack.clone();
        let cfg = config();
        with_watchdog(
            &format!("trace_seq {seq}"),
            Duration::from_secs(5),
            move || {
                let sup = Supervisor::start(attack, cfg);
                sup.handle().submit(unanalysable(1, seq)).unwrap();
                let summary = sup.shutdown();
                let gaps: Vec<u64> = summary
                    .updates
                    .iter()
                    .filter(|u| u.failed == Some(ServeError::GapAbandoned))
                    .map(|u| u.trace_seq)
                    .collect();
                assert_eq!(gaps, [seq - 1], "one update abandons the whole gap");
                assert_eq!(summary.metrics.traces_failed, 2);
            },
        );
    }
}

#[test]
fn far_outcomes_pending_for_one_key_do_not_stall_another() {
    let attack = shared().attack.clone();
    let cfg = config();
    let clean = capture(57);
    with_watchdog(
        "65 far outcomes pending",
        Duration::from_secs(60),
        move || {
            // One worker analyses in submission order, so all 65 far
            // outcomes reach the fold before the clean trace's: the 65th
            // overflows the default gap limit of 64.
            let sup = reveal_par::with_threads(1, || Supervisor::start(attack, cfg));
            let handle = sup.handle();
            let far = 1_000_000_000_000;
            for seq in far..far + 65 {
                handle.submit(unanalysable(1, seq)).unwrap();
            }
            for frame in frame_stream(2, 0, &clean, FRAME_LEN) {
                handle.submit(frame).unwrap();
            }
            let deadline = Instant::now() + Duration::from_secs(50);
            let update = loop {
                if let Some(u) = sup.drain_updates().into_iter().find(|u| u.key == 2) {
                    break u;
                }
                assert!(
                    Instant::now() < deadline,
                    "victim 2 stalled behind victim 1"
                );
                std::thread::sleep(Duration::from_millis(10));
            };
            assert!(update.failed.is_none());
            sup.shutdown();
        },
    );
}

#[test]
fn crafted_checkpoint_shard_count_fails_resume_typed() {
    let sh = shared();
    let cfg = config();
    let text = reference_snapshot(&[], &cfg).encode();
    let shards = format!(" shards {} ", cfg.shards);
    assert!(text.contains(&shards));
    // Once past `usize`'s capacity limit, once large enough that sizing the
    // restored store would abort the process.
    for huge in ["18446744073709551615", "100000000000"] {
        let crafted = Snapshot::decode(&text.replace(&shards, &format!(" shards {huge} ")))
            .expect("a crafted shard count still decodes");
        let resumed = Supervisor::resume(sh.attack.clone(), cfg.clone(), &crafted);
        assert!(matches!(
            resumed.err(),
            Some(ServeError::Checkpoint(CheckpointError::ParamsMismatch(_)))
        ));
    }
}

mod serve_properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Any random fault schedule at any intensity and worker count
        /// shuts down cleanly: no deadlock (watchdog), one update per
        /// trace, no panic — and benign schedules keep the exact answer.
        #[test]
        fn random_fault_schedules_shut_down_cleanly(
            seed in 0u64..1024,
            intensity in 0.0f64..1.0,
            workers in 1usize..5,
        ) {
            with_watchdog(
                &format!("proptest seed={seed} intensity={intensity}"),
                Duration::from_secs(120),
                move || chaos_scenario(seed, intensity, workers),
            );
        }
    }
}
