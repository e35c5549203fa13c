#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! # reveal-serve
//!
//! The RevEAL attack as a long-running service: it accepts streams of raw
//! trace frames from many simulated victims, reassembles them, pushes each
//! completed trace through the robust segment→classify→score pipeline
//! against a persistent fitted-template store, and emits incremental hint
//! sets + bikz updates per victim key. This is the paper's hint fold
//! (§IV) in streaming form: each trace is analysed on its own, and its
//! coefficients are folded into the victim's DBDD instance as perfect or
//! approximate hints.
//!
//! - **One locked fold, one analysis pool.** Each submit ingests its frame
//!   on the caller's thread under one lock (validate, reassemble, expire);
//!   completed traces go over one bounded queue to
//!   [`reveal_par::max_threads`] analysis workers, which fold their results
//!   under the same lock ([`supervisor`]). The queue, the reassembly
//!   budget, the gap limit and the update buffer bound what is in flight.
//! - **Typed failure, never panic.** Every way a stream can go wrong is a
//!   [`ServeError`] variant; a failed trace becomes a failure *outcome*
//!   that flows through the same fold as a success.
//! - **Degradation ladder.** Per coefficient: perfect → approximate →
//!   skipped, gated by the existing confidence machinery; per victim:
//!   repeated failures quarantine the key, so one poisoned stream can
//!   never stall or corrupt the others.
//! - **Checkpoint / restore.** The per-key accumulator state snapshots to a
//!   bit-exact text format ([`checkpoint`]); killing the supervisor
//!   mid-stream and restoring resumes bit-identically.
//!
//! ## Bit-identity contract
//!
//! A zero-fault served stream reproduces the one-shot pipeline exactly:
//! the fold passes each victim's merged [`reveal_hints::HintDecision`]s
//! through [`reveal_hints::fold_decisions`] — the same fold, in the same
//! coordinate order, as [`reveal_attack::report_robust`] and
//! `report_full_attack` — so the emitted bikz matches `report_full_attack`
//! bit-for-bit (`f64::to_bits` equality), at any worker count, across a
//! kill + restore.

pub mod accumulator;
pub mod checkpoint;
pub mod frame;
pub mod reassembly;
pub mod supervisor;

pub use accumulator::{
    QuarantineReason, ShardedAccumulator, VictimState, VictimStatus, VictimUpdate,
};
pub use checkpoint::{CheckpointError, Snapshot};
pub use frame::{frame_stream, FrameError, KeyId, TraceFrame};
pub use reassembly::{CompletedTrace, ExpiredStream, Reassembly, ReassemblyError};
pub use supervisor::{
    IngestHandle, QueueMetrics, ServeConfig, ServeMetrics, ServeSummary, Supervisor,
};

use reveal_attack::AttackError;
use std::fmt;

/// Every way the service can fail a frame, a trace, or an operation —
/// typed, recoverable, and attributable to one victim stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A frame failed admission validation.
    Frame(FrameError),
    /// Reassembly rejected a frame or dropped a stream.
    Reassembly(ReassemblyError),
    /// A stream stalled past the reassembly deadline (mid-stream
    /// disconnect): frames stopped arriving before the trace completed.
    StreamTimeout {
        /// Milliseconds waited since the last frame made progress.
        waited_ms: u64,
        /// Frames that had arrived before the stall.
        frames_seen: u32,
    },
    /// The robust attack could not analyse the trace.
    Analysis(AttackError),
    /// The fold abandoned trace sequence numbers that never produced an
    /// outcome; one failure covers a whole gap.
    GapAbandoned,
    /// A frame was submitted after shutdown or kill.
    Closed,
    /// Checkpoint encode/decode/IO failure.
    Checkpoint(CheckpointError),
    /// The accumulator rejected a result (coefficient-count mismatch or
    /// hint-integration failure) — indicates a configuration error.
    Accumulator(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Frame(e) => write!(f, "frame rejected: {e}"),
            ServeError::Reassembly(e) => write!(f, "reassembly: {e}"),
            ServeError::StreamTimeout {
                waited_ms,
                frames_seen,
            } => write!(
                f,
                "stream stalled for {waited_ms} ms after {frames_seen} frames"
            ),
            ServeError::Analysis(e) => write!(f, "analysis failed: {e}"),
            ServeError::GapAbandoned => write!(f, "trace never produced an outcome"),
            ServeError::Closed => write!(f, "service closed"),
            ServeError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            ServeError::Accumulator(msg) => write!(f, "accumulator: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        ServeError::Frame(e)
    }
}

impl From<ReassemblyError> for ServeError {
    fn from(e: ReassemblyError) -> Self {
        ServeError::Reassembly(e)
    }
}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}
