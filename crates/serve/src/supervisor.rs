//! The serving fold: one locked fold, driven by each submit on the
//! caller's thread, feeding a pool of analysis workers.
//!
//! ## Topology
//!
//! ```text
//!  clients ──IngestHandle::submit──▶ fold (locked, on the caller's thread)
//!                                      │  quarantine check / validate / reassemble / expire
//!                                      ▼  lock released
//!                              [trace queue] ── reveal_par::max_threads() workers
//!                                      │  robust attack, no lock held
//!                                      ▼
//!                              fold (locked): per-key reorder, accumulate,
//!                              checkpoint, publish
//! ```
//!
//! Everything but the analysis happens under one `Mutex`. A submit that
//! completes a trace sends it to the pool only after releasing the lock: a
//! worker waiting for the lock to admit its result would otherwise never
//! free a queue slot. A blocking send on the full queue is the service's
//! backpressure.
//!
//! Per-key fold order is the determinism contract: a per-key reorder
//! buffer re-serializes outcomes by `trace_seq` before they touch the
//! accumulator, so the worker count changes only *when* outcomes arrive,
//! never what they fold to. A zero-fault stream therefore emits
//! bit-identical estimates at any `REVEAL_THREADS`.
//!
//! The pool stays because analysis dominates: the robust driver costs about
//! four one-shot attacks per trace, and a fold that analysed inline on the
//! submitting thread served `serve-n1024` at 59.5 traces/s against 104.0
//! with the pool, on a 2-vCPU host (docs/serve.md).
//!
//! ## Shutdown vs kill
//!
//! [`Supervisor::shutdown`] is the graceful path: close the queue, let the
//! workers drain it, flush incomplete streams and reorder buffers as typed
//! failures, write a final checkpoint, and report. [`Supervisor::kill`]
//! models a crash: the workers discard their results and nothing is
//! flushed or checkpointed, so a restore sees whatever the last *periodic*
//! checkpoint persisted — exactly what a real crash leaves behind. Dropping
//! a `Supervisor` kills it, so no worker outlives it.

use crate::accumulator::{ShardedAccumulator, VictimStatus, VictimUpdate};
use crate::checkpoint::Snapshot;
use crate::frame::{KeyId, TraceFrame};
use crate::reassembly::{ExpiredStream, Inserted, Reassembly, ReassemblyConfig};
use crate::ServeError;
use reveal_attack::{Calibration, RobustAttack, RobustAttackResult, RobustConfig, TrainedAttack};
use reveal_hints::{HintPolicy, LweParameters};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Completed traces the queue holds per analysis worker.
const QUEUE_PER_WORKER: usize = 2;

/// Service configuration. Construct with [`ServeConfig::new`] and override
/// fields as needed; every bound has a conservative default. The worker
/// count is [`reveal_par::max_threads`] at start.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// LWE parameters the hint store estimates against.
    pub params: LweParameters,
    /// Coefficients per victim trace.
    pub coefficients: usize,
    /// Hint classification policy.
    pub policy: HintPolicy,
    /// Robust-pipeline knobs (defaults preserve bit-identity on clean
    /// captures).
    pub robust: RobustConfig,
    /// Clean-capture calibration, if one was measured.
    pub calibration: Option<Calibration>,
    /// Hint-store shard count.
    pub shards: usize,
    /// Update buffer capacity; the oldest update is dropped (and counted)
    /// past this.
    pub update_capacity: usize,
    /// Reassembly limits (stream deadline, memory budget, frame bound).
    pub reassembly: ReassemblyConfig,
    /// Per-frame payload bound for admission control.
    pub max_frame_samples: usize,
    /// Consecutive failed traces before a victim key is quarantined.
    pub quarantine_threshold: u32,
    /// Checkpoint after every N scored traces; 0 disables periodic
    /// checkpoints.
    pub checkpoint_every: u64,
    /// Where checkpoints are written (atomic tmp+rename). `None` disables
    /// all checkpointing.
    pub checkpoint_path: Option<PathBuf>,
    /// Reorder-buffer depth per key before a missing `trace_seq` is
    /// abandoned as [`ServeError::GapAbandoned`].
    pub gap_limit: usize,
}

impl ServeConfig {
    /// A configuration with conservative defaults for everything but the
    /// problem shape.
    pub fn new(params: LweParameters, coefficients: usize, policy: HintPolicy) -> Self {
        Self {
            params,
            coefficients,
            policy,
            robust: RobustConfig::default(),
            calibration: None,
            shards: 8,
            update_capacity: 1024,
            reassembly: ReassemblyConfig::default(),
            max_frame_samples: 1 << 20,
            quarantine_threshold: 3,
            checkpoint_every: 0,
            checkpoint_path: None,
            gap_limit: 64,
        }
    }
}

/// Occupancy of a queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueMetrics {
    /// Items the queue itself holds at most.
    pub capacity: usize,
    /// Items counted now.
    pub depth: usize,
    /// Most items counted at once.
    pub high_water: usize,
}

/// A point-in-time view of the service counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeMetrics {
    /// Frames submitted while the service ran.
    pub frames_received: u64,
    /// Frames rejected by admission validation.
    pub frames_rejected: u64,
    /// Frames dropped because their key is quarantined.
    pub frames_quarantined: u64,
    /// Incomplete streams expired by deadline or shutdown flush.
    pub streams_expired: u64,
    /// Traces that completed reassembly.
    pub traces_completed: u64,
    /// Traces scored as successes.
    pub traces_analyzed: u64,
    /// Traces scored as typed failures (an abandoned gap counts once).
    pub traces_failed: u64,
    /// Always 0: each trace is analysed exactly once. The robust driver is
    /// a pure function of its inputs and walks its relaxation schedule
    /// itself, so a retry could only repeat the same error.
    pub retries: u64,
    /// Updates dropped because the update buffer was full.
    pub updates_dropped: u64,
    /// Checkpoints written (periodic and final).
    pub checkpoints_written: u64,
    /// Checkpoint writes that failed (service keeps running).
    pub checkpoint_failures: u64,
    /// Always zero: frames are ingested on the submitting thread, with no
    /// queue in between.
    pub ingest_queue: QueueMetrics,
    /// The trace queue: `capacity` is its bound, `depth` and `high_water`
    /// count traces in flight (queued or under analysis), so they can
    /// exceed `capacity` by up to the worker count.
    pub work_queue: QueueMetrics,
    /// Always zero: workers fold their results under the lock, with no
    /// queue in between.
    pub result_queue: QueueMetrics,
    /// Victim keys tracked.
    pub victims: usize,
    /// Victim keys currently quarantined.
    pub quarantined_keys: usize,
}

/// The terminal report from a graceful [`Supervisor::shutdown`].
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Final counters.
    pub metrics: ServeMetrics,
    /// Updates that had not been drained before shutdown.
    pub updates: Vec<VictimUpdate>,
    /// Per-trace end-to-end latencies in milliseconds (reassembly
    /// completion → scored), in scoring order.
    pub latencies_ms: Vec<f64>,
}

/// A completed trace queued for analysis.
struct TraceJob {
    key: KeyId,
    trace_seq: u64,
    samples: Vec<f64>,
    completed_at: Instant,
}

/// One trace's terminal outcome, en route to the accumulator.
struct Outcome {
    key: KeyId,
    trace_seq: u64,
    result: Result<RobustAttackResult, ServeError>,
    completed_at: Option<Instant>,
}

impl Outcome {
    fn failure(key: KeyId, trace_seq: u64, error: ServeError) -> Self {
        Self {
            key,
            trace_seq,
            result: Err(error),
            completed_at: None,
        }
    }
}

#[derive(Default)]
struct Counters {
    frames_received: u64,
    frames_rejected: u64,
    frames_quarantined: u64,
    streams_expired: u64,
    traces_completed: u64,
    traces_analyzed: u64,
    traces_failed: u64,
    updates_dropped: u64,
    checkpoints_written: u64,
    checkpoint_failures: u64,
    /// Traces the queue accepted.
    queued: u64,
    /// Analysed traces whose outcome reached the fold.
    analysed: u64,
    /// Most traces in flight at once.
    in_flight_high_water: usize,
}

/// All service state but the analysis, under one lock.
struct Fold {
    config: ServeConfig,
    reassembly: Reassembly,
    quarantined: BTreeSet<KeyId>,
    accumulator: ShardedAccumulator,
    /// Per-key reorder buffers, keyed by `trace_seq`.
    pending: BTreeMap<KeyId, BTreeMap<u64, Outcome>>,
    updates: VecDeque<VictimUpdate>,
    latencies_ms: Vec<f64>,
    counters: Counters,
    /// Outcomes folded, driving the checkpoint cadence.
    scored: u64,
    /// The queue's sending side; `None` once the service closed.
    queue: Option<SyncSender<TraceJob>>,
    queue_capacity: usize,
    /// Set by a kill: results still arriving are discarded.
    killed: bool,
}

/// Poison-proof lock: a panicking holder (which the crate forbids anyway)
/// must not cascade into every other thread.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Fold {
    /// Ingests one frame: quarantine check, validation, reassembly, then
    /// expiry. Returns the completed trace, if any, with a sender to queue
    /// it on once the lock is released.
    fn ingest(
        &mut self,
        frame: TraceFrame,
    ) -> Result<Option<(TraceJob, SyncSender<TraceJob>)>, ServeError> {
        if self.queue.is_none() {
            return Err(ServeError::Closed);
        }
        self.counters.frames_received += 1;
        let now = Instant::now();
        let (key, trace_seq) = (frame.key, frame.trace_seq);
        let mut job = None;
        if self.quarantined.contains(&key) {
            self.counters.frames_quarantined += 1;
            self.reassembly.drop_key(key);
        } else if let Err(e) = frame.validate(self.config.max_frame_samples) {
            self.counters.frames_rejected += 1;
            self.admit(Outcome::failure(key, trace_seq, ServeError::Frame(e)));
        } else {
            match self.reassembly.insert(frame, now) {
                Ok(Inserted::Complete(trace)) => {
                    self.counters.traces_completed += 1;
                    job = Some(TraceJob {
                        key: trace.key,
                        trace_seq: trace.trace_seq,
                        samples: trace.samples,
                        completed_at: now,
                    });
                }
                Ok(Inserted::Pending | Inserted::Duplicate) => {}
                Err(e) => self.admit(Outcome::failure(key, trace_seq, e.into())),
            }
        }
        self.expire(now);
        Ok(job.and_then(|job| self.queue.clone().map(|queue| (job, queue))))
    }

    /// Counts a trace the queue accepted.
    fn queued(&mut self) {
        self.counters.queued += 1;
        let in_flight = self.in_flight();
        let high_water = &mut self.counters.in_flight_high_water;
        *high_water = (*high_water).max(in_flight);
    }

    /// Traces in flight: queued or under analysis. A worker can fold a
    /// result before its submit counts it as queued, so this saturates.
    fn in_flight(&self) -> usize {
        self.counters.queued.saturating_sub(self.counters.analysed) as usize
    }

    /// Admits a worker's analysis of `job`, unless the service was killed.
    fn analysed(&mut self, job: TraceJob, result: Result<RobustAttackResult, ServeError>) {
        if self.killed {
            return;
        }
        self.counters.analysed += 1;
        self.admit(Outcome {
            key: job.key,
            trace_seq: job.trace_seq,
            result,
            completed_at: Some(job.completed_at),
        });
    }

    /// Fails every stream that made no progress within its deadline.
    fn expire(&mut self, now: Instant) {
        for stream in self.reassembly.expire(now) {
            self.stream_failed(stream);
        }
    }

    fn stream_failed(&mut self, stream: ExpiredStream) {
        self.counters.streams_expired += 1;
        self.admit(Outcome::failure(
            stream.key,
            stream.trace_seq,
            ServeError::StreamTimeout {
                waited_ms: stream.waited_ms,
                frames_seen: stream.frames_seen,
            },
        ));
    }

    /// Buffers an outcome and folds everything now in order.
    fn admit(&mut self, outcome: Outcome) {
        let key = outcome.key;
        if outcome.trace_seq < self.accumulator.next_trace_seq(key) {
            return; // replay of an already-scored trace
        }
        self.pending
            .entry(key)
            .or_default()
            .entry(outcome.trace_seq)
            .or_insert(outcome);
        self.drain_key(key, false);
    }

    /// Folds buffered outcomes for `key` in `trace_seq` order. A missing
    /// sequence number stalls the key until `force` (shutdown flush) or
    /// until the reorder buffer exceeds the gap limit. Then the whole gap is
    /// abandoned in one step: one [`ServeError::GapAbandoned`] failure, at
    /// the gap's last sequence number, moves the key to its smallest
    /// pending `trace_seq`.
    fn drain_key(&mut self, key: KeyId, force: bool) {
        loop {
            let expected = self.accumulator.next_trace_seq(key);
            let Some(map) = self.pending.get_mut(&key) else {
                return;
            };
            // Discard anything the accumulator has already moved past.
            map.retain(|&seq, _| seq >= expected);
            let backlog = map.len();
            let Some(first) = map.first_entry() else {
                self.pending.remove(&key);
                return;
            };
            let outcome = if *first.key() == expected {
                first.remove()
            } else if force || backlog > self.config.gap_limit {
                Outcome::failure(key, *first.key() - 1, ServeError::GapAbandoned)
            } else {
                return;
            };
            self.apply(outcome);
        }
    }

    /// Applies one outcome to the accumulator and publishes its update. The
    /// order — fold, checkpoint, then publish — guarantees that any update
    /// a client has observed is covered by a checkpoint at least as new.
    fn apply(&mut self, outcome: Outcome) {
        let Outcome {
            key,
            trace_seq,
            result,
            completed_at,
        } = outcome;
        let acc = &mut self.accumulator;
        let update = match result {
            Ok(result) => acc
                .apply_success(key, trace_seq, &result)
                .unwrap_or_else(|e| acc.apply_failure(key, trace_seq, e)),
            Err(e) => acc.apply_failure(key, trace_seq, e),
        };
        if update.failed.is_some() {
            self.counters.traces_failed += 1;
        } else {
            self.counters.traces_analyzed += 1;
        }
        if let Some(completed_at) = completed_at {
            self.latencies_ms
                .push(completed_at.elapsed().as_secs_f64() * 1e3);
        }
        if update.quarantined {
            self.quarantined.insert(update.key);
        }
        self.scored += 1;
        if self.config.checkpoint_every > 0
            && self.scored.is_multiple_of(self.config.checkpoint_every)
        {
            self.write_checkpoint();
        }
        if self.updates.len() >= self.config.update_capacity {
            self.updates.pop_front();
            self.counters.updates_dropped += 1;
        }
        self.updates.push_back(update);
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot::capture(&self.accumulator, self.config.quarantine_threshold)
    }

    fn write_checkpoint(&mut self) {
        let Some(path) = self.config.checkpoint_path.as_deref() else {
            return;
        };
        // Checkpointing is best-effort: a failed write costs recovery
        // freshness, never liveness.
        match self.snapshot().write_atomic(path) {
            Ok(()) => self.counters.checkpoints_written += 1,
            Err(_) => self.counters.checkpoint_failures += 1,
        }
    }

    /// Shutdown flush: every incomplete stream and every buffered outcome is
    /// folded, gaps abandoned, in (key, seq) order; then the final
    /// checkpoint.
    fn flush(&mut self) {
        for stream in self.reassembly.drain_all() {
            self.stream_failed(stream);
        }
        let keys: Vec<KeyId> = self.pending.keys().copied().collect();
        for key in keys {
            self.drain_key(key, true);
        }
        self.write_checkpoint();
    }

    fn metrics(&self) -> ServeMetrics {
        let c = &self.counters;
        ServeMetrics {
            frames_received: c.frames_received,
            frames_rejected: c.frames_rejected,
            frames_quarantined: c.frames_quarantined,
            streams_expired: c.streams_expired,
            traces_completed: c.traces_completed,
            traces_analyzed: c.traces_analyzed,
            traces_failed: c.traces_failed,
            retries: 0,
            updates_dropped: c.updates_dropped,
            checkpoints_written: c.checkpoints_written,
            checkpoint_failures: c.checkpoint_failures,
            ingest_queue: QueueMetrics::default(),
            work_queue: QueueMetrics {
                capacity: self.queue_capacity,
                depth: self.in_flight(),
                high_water: c.in_flight_high_water,
            },
            result_queue: QueueMetrics::default(),
            victims: self.accumulator.victims(),
            quarantined_keys: self.quarantined.len(),
        }
    }
}

/// A cloneable client-side submit handle.
#[derive(Clone)]
pub struct IngestHandle {
    fold: Arc<Mutex<Fold>>,
}

impl IngestHandle {
    /// Submits one frame. The frame is ingested on the calling thread; if
    /// it completes a trace, the call blocks while the analysis queue is
    /// full. A frame that fails validation or reassembly still returns
    /// `Ok`: it becomes a typed failure outcome of its trace.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] after shutdown or kill.
    pub fn submit(&self, frame: TraceFrame) -> Result<(), ServeError> {
        let Some((job, queue)) = lock(&self.fold).ingest(frame)? else {
            return Ok(());
        };
        queue.send(job).map_err(|_| ServeError::Closed)?;
        // `queue` lives until the count is in: the workers, and so a
        // shutdown, wait for every sender to go.
        lock(&self.fold).queued();
        Ok(())
    }
}

/// The running service.
pub struct Supervisor {
    fold: Arc<Mutex<Fold>>,
    workers: Vec<JoinHandle<()>>,
}

impl Supervisor {
    /// Starts the service with an empty hint store and
    /// [`reveal_par::max_threads`] analysis workers.
    pub fn start(trained: TrainedAttack, config: ServeConfig) -> Self {
        let accumulator = ShardedAccumulator::new(
            config.params,
            config.coefficients,
            config.shards,
            config.quarantine_threshold,
        );
        Self::launch(trained, config, accumulator)
    }

    /// Resumes the service from a checkpoint snapshot; quarantined keys in
    /// the snapshot stay quarantined.
    ///
    /// # Errors
    ///
    /// [`ServeError::Checkpoint`] when the snapshot's parameters, coefficient
    /// count or shard count do not match `config`; nothing is allocated
    /// from the snapshot before that check.
    pub fn resume(
        trained: TrainedAttack,
        config: ServeConfig,
        snapshot: &Snapshot,
    ) -> Result<Self, ServeError> {
        snapshot.check_compatible(&config.params, config.coefficients, config.shards)?;
        Ok(Self::launch(trained, config, snapshot.restore()))
    }

    fn launch(
        trained: TrainedAttack,
        config: ServeConfig,
        accumulator: ShardedAccumulator,
    ) -> Self {
        let worker_count = reveal_par::max_threads();
        let queue_capacity = QUEUE_PER_WORKER * worker_count;
        let (queue, jobs) = sync_channel(queue_capacity);
        let quarantined = accumulator
            .iter()
            .filter(|(_, v)| matches!(v.status, VictimStatus::Quarantined(_)))
            .map(|(k, _)| k)
            .collect();
        let fold = Arc::new(Mutex::new(Fold {
            reassembly: Reassembly::new(config.reassembly),
            quarantined,
            accumulator,
            pending: BTreeMap::new(),
            updates: VecDeque::new(),
            latencies_ms: Vec::new(),
            counters: Counters::default(),
            scored: 0,
            queue: Some(queue),
            queue_capacity,
            killed: false,
            config,
        }));
        let trained = Arc::new(trained);
        // Workers share one receiver: each trace goes to exactly one of
        // them, whichever takes the lock for the next recv.
        let jobs = Arc::new(Mutex::new(jobs));
        let workers = (0..worker_count)
            .map(|i| {
                let fold = Arc::clone(&fold);
                let trained = Arc::clone(&trained);
                let jobs = Arc::clone(&jobs);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || analyse(&fold, &trained, &jobs))
                    .expect("spawn worker thread")
            })
            .collect();
        Self { fold, workers }
    }

    /// A cloneable submit handle for clients.
    pub fn handle(&self) -> IngestHandle {
        IngestHandle {
            fold: Arc::clone(&self.fold),
        }
    }

    /// Expires stalled streams, then drains all pending incremental
    /// updates, in scoring order.
    pub fn drain_updates(&self) -> Vec<VictimUpdate> {
        let mut fold = lock(&self.fold);
        fold.expire(Instant::now());
        fold.updates.drain(..).collect()
    }

    /// A live snapshot of the hint store (for ad-hoc checkpointing or
    /// inspection while the service runs).
    pub fn snapshot(&self) -> Snapshot {
        lock(&self.fold).snapshot()
    }

    /// Current counters.
    pub fn metrics(&self) -> ServeMetrics {
        lock(&self.fold).metrics()
    }

    /// Graceful shutdown: close the queue, let the workers drain it, fold
    /// incomplete streams and gaps as typed failures, write a final
    /// checkpoint, and report.
    ///
    /// # Panics
    ///
    /// Resumes the panic of an analysis worker that panicked.
    pub fn shutdown(mut self) -> ServeSummary {
        if let Err(panic) = self.close(false) {
            std::panic::resume_unwind(panic);
        }
        let mut fold = lock(&self.fold);
        fold.flush();
        ServeSummary {
            metrics: fold.metrics(),
            updates: fold.updates.drain(..).collect(),
            latencies_ms: std::mem::take(&mut fold.latencies_ms),
        }
    }

    /// Crash the service: discard the results of traces still queued or
    /// under analysis and skip the final checkpoint. Whatever the last
    /// *periodic* checkpoint persisted is what a restore sees — crash
    /// semantics.
    ///
    /// # Panics
    ///
    /// Resumes the panic of an analysis worker that panicked.
    pub fn kill(mut self) {
        if let Err(panic) = self.close(true) {
            std::panic::resume_unwind(panic);
        }
    }

    /// Closes the queue, so later submits fail, and joins the workers once
    /// they drained it. Returns the first worker panic, if any.
    fn close(&mut self, kill: bool) -> std::thread::Result<()> {
        {
            let mut fold = lock(&self.fold);
            fold.killed |= kill;
            fold.queue = None;
        }
        let mut joined = Ok(());
        for worker in self.workers.drain(..) {
            let result = worker.join();
            if joined.is_ok() {
                joined = result;
            }
        }
        joined
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        // A drop must not panic; shutdown and kill report worker panics.
        let _ = self.close(true);
    }
}

/// One analysis worker: analyse each queued trace with no lock held, then
/// fold its outcome. Exits once the queue is closed and empty.
fn analyse(fold: &Mutex<Fold>, trained: &TrainedAttack, jobs: &Mutex<Receiver<TraceJob>>) {
    let config = lock(fold).config.clone();
    let mut robust = RobustAttack::new(trained).with_config(config.robust);
    if let Some(calibration) = config.calibration {
        robust = robust.with_calibration(calibration);
    }
    loop {
        // A statement of its own, so the receiver lock is released before
        // the analysis.
        let job = lock(jobs).recv();
        let Ok(job) = job else {
            return;
        };
        let result = robust
            .attack_trace(&job.samples, config.coefficients, &config.policy)
            .map_err(ServeError::Analysis);
        lock(fold).analysed(job, result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The fold is exercised end-to-end (with real trained attacks) in
    // `tests/serve.rs`; the unit test here covers the config defaults.

    #[test]
    fn defaults_are_bounded_and_sane() {
        let c = ServeConfig::new(
            LweParameters::seal_like(16, 3329.0, 2.0),
            16,
            HintPolicy::seal_paper(),
        );
        assert!(c.update_capacity > 0 && c.gap_limit > 0 && c.max_frame_samples > 0);
        assert!(c.quarantine_threshold > 0);
        assert!(c.checkpoint_path.is_none() && c.checkpoint_every == 0);
    }
}
