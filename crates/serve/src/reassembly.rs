//! Frame reassembly: turning a lossy, reordered, duplicated arrival
//! sequence back into complete traces, under a hard memory budget.
//!
//! Duplicates are dropped (first payload wins — arrival is serialized
//! by the serving fold's lock, so this is deterministic), out-of-order
//! frames are held in a per-stream ordered map, and a stream completes
//! when its terminal frame and every predecessor are present. Two things
//! bound memory: a global buffered-sample budget (exceeding it drops the
//! offending stream with a typed error) and a per-stream frame-count
//! bound. Stalled streams — the signature of a mid-stream disconnect —
//! are expired by deadline and surfaced as typed failures, so a client
//! that dies mid-trace costs one timeout, not a leak.

use crate::frame::{KeyId, TraceFrame};
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// Reassembly limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReassemblyConfig {
    /// A stream making no progress for this long is expired.
    pub stream_deadline: Duration,
    /// Global cap on buffered samples across all incomplete streams.
    pub max_buffered_samples: usize,
    /// Per-stream cap on frame count (`frame_seq` must stay below this).
    pub max_frames_per_stream: u32,
}

impl Default for ReassemblyConfig {
    fn default() -> Self {
        Self {
            stream_deadline: Duration::from_secs(5),
            max_buffered_samples: 1 << 22,
            max_frames_per_stream: 4096,
        }
    }
}

/// Typed reassembly rejections. Each drops the offending stream so the
/// condition cannot recur on the next frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReassemblyError {
    /// Admitting the frame would exceed the global sample budget.
    BudgetExceeded {
        /// Samples buffered across all streams before this frame.
        buffered: usize,
        /// The configured budget.
        budget: usize,
    },
    /// The frame's sequence number is past the per-stream bound, or a
    /// frame lies past the stream's terminal frame.
    BadSequence {
        /// The offending frame sequence number.
        frame_seq: u32,
        /// The bound it violated.
        bound: u32,
    },
}

impl fmt::Display for ReassemblyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReassemblyError::BudgetExceeded { buffered, budget } => {
                write!(f, "{buffered} samples buffered against a {budget} budget")
            }
            ReassemblyError::BadSequence { frame_seq, bound } => {
                write!(f, "frame_seq {frame_seq} violates bound {bound}")
            }
        }
    }
}

impl std::error::Error for ReassemblyError {}

/// A fully reassembled trace, ready for analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedTrace {
    /// The victim key.
    pub key: KeyId,
    /// The per-victim trace number.
    pub trace_seq: u64,
    /// The reassembled samples, in frame order.
    pub samples: Vec<f64>,
    /// Frames the stream arrived in.
    pub frames: u32,
    /// Duplicate frames that were dropped.
    pub duplicates: u64,
}

/// An incomplete stream that was expired (deadline) or flushed (shutdown).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpiredStream {
    /// The victim key.
    pub key: KeyId,
    /// The per-victim trace number.
    pub trace_seq: u64,
    /// Milliseconds since the stream last made progress.
    pub waited_ms: u64,
    /// Frames that had arrived.
    pub frames_seen: u32,
}

/// What [`Reassembly::insert`] did with a frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Inserted {
    /// The stream completed; here is the trace.
    Complete(CompletedTrace),
    /// The frame was buffered; the stream is still incomplete.
    Pending,
    /// The frame's sequence number was already present; dropped.
    Duplicate,
}

struct StreamBuf {
    chunks: BTreeMap<u32, Vec<f64>>,
    last_seq: Option<u32>,
    samples: usize,
    duplicates: u64,
    last_progress: Instant,
}

/// The reassembly buffer. Single-owner (the serving fold).
pub struct Reassembly {
    streams: BTreeMap<(KeyId, u64), StreamBuf>,
    buffered_samples: usize,
    config: ReassemblyConfig,
}

impl Reassembly {
    /// An empty buffer with the given limits.
    pub fn new(config: ReassemblyConfig) -> Self {
        Self {
            streams: BTreeMap::new(),
            buffered_samples: 0,
            config,
        }
    }

    /// Incomplete streams currently buffered.
    pub fn streams(&self) -> usize {
        self.streams.len()
    }

    /// Samples currently buffered across all incomplete streams. Never
    /// exceeds the configured budget.
    pub fn buffered_samples(&self) -> usize {
        self.buffered_samples
    }

    /// Admits one validated frame.
    ///
    /// # Errors
    ///
    /// On [`ReassemblyError`] the offending stream has been dropped and
    /// its buffered samples released; the caller should fail the trace.
    pub fn insert(&mut self, frame: TraceFrame, now: Instant) -> Result<Inserted, ReassemblyError> {
        let id = (frame.key, frame.trace_seq);
        if frame.frame_seq >= self.config.max_frames_per_stream {
            self.drop_stream(&id);
            return Err(ReassemblyError::BadSequence {
                frame_seq: frame.frame_seq,
                bound: self.config.max_frames_per_stream,
            });
        }
        let entry = self.streams.entry(id).or_insert_with(|| StreamBuf {
            chunks: BTreeMap::new(),
            last_seq: None,
            samples: 0,
            duplicates: 0,
            last_progress: now,
        });
        // A frame past a previously declared terminal frame is a protocol
        // violation: the stream is unrecoverable.
        if let Some(last) = entry.last_seq {
            if frame.frame_seq > last || (frame.last && frame.frame_seq != last) {
                let bound = last;
                self.drop_stream(&id);
                return Err(ReassemblyError::BadSequence {
                    frame_seq: frame.frame_seq,
                    bound,
                });
            }
        }
        // Likewise a terminal frame behind a frame already buffered.
        let beyond = entry.chunks.last_key_value().map_or(0, |(&seq, _)| seq);
        if frame.last && beyond > frame.frame_seq {
            self.drop_stream(&id);
            return Err(ReassemblyError::BadSequence {
                frame_seq: beyond,
                bound: frame.frame_seq,
            });
        }
        if entry.chunks.contains_key(&frame.frame_seq) {
            entry.duplicates += 1;
            entry.last_progress = now;
            return Ok(Inserted::Duplicate);
        }
        if self.buffered_samples + frame.samples.len() > self.config.max_buffered_samples {
            let buffered = self.buffered_samples;
            self.drop_stream(&id);
            return Err(ReassemblyError::BudgetExceeded {
                buffered,
                budget: self.config.max_buffered_samples,
            });
        }
        let entry = self
            .streams
            .get_mut(&id)
            .expect("stream entry inserted above");
        if frame.last {
            entry.last_seq = Some(frame.frame_seq);
        }
        entry.samples += frame.samples.len();
        self.buffered_samples += frame.samples.len();
        entry.chunks.insert(frame.frame_seq, frame.samples);
        entry.last_progress = now;

        let complete = entry
            .last_seq
            .is_some_and(|last| entry.chunks.len() as u32 == last + 1);
        if complete {
            let buf = self.streams.remove(&id).expect("stream present");
            self.buffered_samples -= buf.samples;
            let frames = buf.chunks.len() as u32;
            let mut samples = Vec::with_capacity(buf.samples);
            for chunk in buf.chunks.into_values() {
                samples.extend_from_slice(&chunk);
            }
            return Ok(Inserted::Complete(CompletedTrace {
                key: id.0,
                trace_seq: id.1,
                samples,
                frames,
                duplicates: buf.duplicates,
            }));
        }
        Ok(Inserted::Pending)
    }

    /// Expires streams that have made no progress within the deadline —
    /// the mid-stream-disconnect detector.
    pub fn expire(&mut self, now: Instant) -> Vec<ExpiredStream> {
        let deadline = self.config.stream_deadline;
        let stale: Vec<(KeyId, u64)> = self
            .streams
            .iter()
            .filter(|(_, buf)| now.duration_since(buf.last_progress) >= deadline)
            .map(|(id, _)| *id)
            .collect();
        stale
            .into_iter()
            .map(|id| {
                let buf = self.streams.remove(&id).expect("stale stream present");
                self.buffered_samples -= buf.samples;
                ExpiredStream {
                    key: id.0,
                    trace_seq: id.1,
                    waited_ms: now.duration_since(buf.last_progress).as_millis() as u64,
                    frames_seen: buf.chunks.len() as u32,
                }
            })
            .collect()
    }

    /// Flushes every incomplete stream (shutdown): each becomes an expired
    /// entry so the fold records a typed failure rather than a gap.
    pub fn drain_all(&mut self) -> Vec<ExpiredStream> {
        let ids: Vec<(KeyId, u64)> = self.streams.keys().copied().collect();
        ids.into_iter()
            .map(|id| {
                let buf = self.streams.remove(&id).expect("stream present");
                self.buffered_samples -= buf.samples;
                ExpiredStream {
                    key: id.0,
                    trace_seq: id.1,
                    waited_ms: 0,
                    frames_seen: buf.chunks.len() as u32,
                }
            })
            .collect()
    }

    /// Drops every buffered stream for `key` (quarantine enforcement),
    /// returning how many streams were discarded.
    pub fn drop_key(&mut self, key: KeyId) -> usize {
        let ids: Vec<(KeyId, u64)> = self
            .streams
            .keys()
            .filter(|(k, _)| *k == key)
            .copied()
            .collect();
        let count = ids.len();
        for id in ids {
            self.drop_stream(&id);
        }
        count
    }

    fn drop_stream(&mut self, id: &(KeyId, u64)) {
        if let Some(buf) = self.streams.remove(id) {
            self.buffered_samples -= buf.samples;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::frame_stream;

    fn cfg() -> ReassemblyConfig {
        ReassemblyConfig {
            stream_deadline: Duration::from_millis(50),
            max_buffered_samples: 10_000,
            max_frames_per_stream: 64,
        }
    }

    #[test]
    fn in_order_stream_completes_bit_identically() {
        let samples: Vec<f64> = (0..1500).map(|i| f64::from(i) * 0.125).collect();
        let mut r = Reassembly::new(cfg());
        let now = Instant::now();
        let mut out = None;
        for frame in frame_stream(9, 2, &samples, 512) {
            match r.insert(frame, now).unwrap() {
                Inserted::Complete(t) => out = Some(t),
                Inserted::Pending => {}
                Inserted::Duplicate => panic!("no duplicates sent"),
            }
        }
        let t = out.expect("completed");
        assert_eq!((t.key, t.trace_seq, t.frames), (9, 2, 3));
        assert!(t
            .samples
            .iter()
            .zip(&samples)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(r.buffered_samples(), 0);
        assert_eq!(r.streams(), 0);
    }

    #[test]
    fn out_of_order_and_duplicates_recover() {
        let samples: Vec<f64> = (0..900).map(f64::from).collect();
        let frames = frame_stream(1, 0, &samples, 300);
        let mut r = Reassembly::new(cfg());
        let now = Instant::now();
        assert_eq!(r.insert(frames[2].clone(), now).unwrap(), Inserted::Pending);
        assert_eq!(r.insert(frames[0].clone(), now).unwrap(), Inserted::Pending);
        assert_eq!(
            r.insert(frames[0].clone(), now).unwrap(),
            Inserted::Duplicate
        );
        match r.insert(frames[1].clone(), now).unwrap() {
            Inserted::Complete(t) => {
                assert_eq!(t.samples, samples);
                assert_eq!(t.duplicates, 1);
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn budget_is_enforced_and_released() {
        let mut r = Reassembly::new(ReassemblyConfig {
            max_buffered_samples: 1000,
            ..cfg()
        });
        let now = Instant::now();
        // Incomplete stream holding 900 samples.
        let frames = frame_stream(1, 0, &vec![0.0; 1800], 900);
        r.insert(frames[0].clone(), now).unwrap();
        assert_eq!(r.buffered_samples(), 900);
        // A second stream pushing past the budget is rejected and dropped.
        let big = frame_stream(2, 0, &vec![0.0; 400], 200);
        assert!(matches!(
            r.insert(big[0].clone(), now),
            Err(ReassemblyError::BudgetExceeded { .. })
        ));
        assert_eq!(r.buffered_samples(), 900);
        assert_eq!(r.streams(), 1);
    }

    #[test]
    fn stalled_stream_expires() {
        let mut r = Reassembly::new(cfg());
        let t0 = Instant::now();
        let frames = frame_stream(5, 7, &vec![1.0; 600], 200);
        r.insert(frames[0].clone(), t0).unwrap();
        assert!(r.expire(t0).is_empty());
        let expired = r.expire(t0 + Duration::from_millis(60));
        assert_eq!(expired.len(), 1);
        assert_eq!((expired[0].key, expired[0].trace_seq), (5, 7));
        assert_eq!(expired[0].frames_seen, 1);
        assert_eq!(r.buffered_samples(), 0);
    }

    #[test]
    fn sequence_violations_drop_the_stream() {
        let mut r = Reassembly::new(cfg());
        let now = Instant::now();
        let mut frames = frame_stream(3, 0, &vec![1.0; 600], 200);
        // Deliver the terminal frame, then a frame past it.
        r.insert(frames[2].clone(), now).unwrap();
        frames[1].frame_seq = 9;
        assert!(matches!(
            r.insert(frames[1].clone(), now),
            Err(ReassemblyError::BadSequence { frame_seq: 9, .. })
        ));
        assert_eq!(r.streams(), 0);
    }

    #[test]
    fn terminal_frame_behind_a_buffered_frame_drops_the_stream() {
        let frame = |frame_seq: u32, last: bool| TraceFrame {
            key: 1,
            trace_seq: 0,
            frame_seq,
            last,
            samples: vec![f64::from(frame_seq); 4],
        };
        let mut r = Reassembly::new(cfg());
        let now = Instant::now();
        assert_eq!(r.insert(frame(0, false), now).unwrap(), Inserted::Pending);
        assert_eq!(r.insert(frame(5, false), now).unwrap(), Inserted::Pending);
        // Frame 1 never came and frame 5 lies past the terminal frame 2:
        // completing here would splice frame 5 in where frame 1 belongs.
        assert_eq!(
            r.insert(frame(2, true), now),
            Err(ReassemblyError::BadSequence {
                frame_seq: 5,
                bound: 2
            })
        );
        assert_eq!((r.streams(), r.buffered_samples()), (0, 0));
    }

    #[test]
    fn drop_key_discards_all_streams_for_that_key() {
        let mut r = Reassembly::new(cfg());
        let now = Instant::now();
        for trace in 0..3u64 {
            let frames = frame_stream(8, trace, &vec![1.0; 400], 200);
            r.insert(frames[0].clone(), now).unwrap();
        }
        let frames = frame_stream(9, 0, &vec![1.0; 400], 200);
        r.insert(frames[0].clone(), now).unwrap();
        assert_eq!(r.drop_key(8), 3);
        assert_eq!(r.streams(), 1);
        assert_eq!(r.buffered_samples(), 200);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Budget and frame bound small enough that random arrivals hit
        /// both.
        const BUDGET: usize = 64;
        const MAX_FRAMES: u32 = 8;

        /// What one open stream should hold.
        #[derive(Default)]
        struct Expected {
            /// The first-arrived payload of each frame.
            frames: BTreeMap<u32, Vec<f64>>,
            /// The terminal frame, once one arrived.
            terminal: Option<u32>,
        }

        /// Decodes one random arrival: key 0–2, trace 0–2, frame 0–9 (past
        /// the frame bound included), a random terminal flag and 0–32
        /// samples, each holding the frame's sequence number.
        fn arrival(bits: u64) -> TraceFrame {
            let frame_seq = ((bits / 9) % 10) as u32;
            TraceFrame {
                key: bits % 3,
                trace_seq: (bits / 3) % 3,
                frame_seq,
                last: (bits / 90) % 2 == 1,
                samples: vec![f64::from(frame_seq); ((bits / 180) % 33) as usize],
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Random arrivals never panic, keep the sample count exact and
            /// within budget, and complete only traces made of exactly
            /// frames `0..=last`, each with its first-arrived payload.
            #[test]
            fn random_arrivals_keep_the_budget_and_complete_exactly(
                arrivals in proptest::collection::vec(any::<u64>(), 0..200),
            ) {
                let mut r = Reassembly::new(ReassemblyConfig {
                    stream_deadline: Duration::from_secs(60),
                    max_buffered_samples: BUDGET,
                    max_frames_per_stream: MAX_FRAMES,
                });
                let now = Instant::now();
                let mut model: BTreeMap<(KeyId, u64), Expected> = BTreeMap::new();
                for bits in arrivals {
                    let frame = arrival(bits);
                    let id = (frame.key, frame.trace_seq);
                    let (frame_seq, last) = (frame.frame_seq, frame.last);
                    let samples = frame.samples.clone();
                    match r.insert(frame, now) {
                        Ok(Inserted::Pending) => {
                            let stream = model.entry(id).or_default();
                            stream.frames.insert(frame_seq, samples);
                            if last {
                                stream.terminal = Some(frame_seq);
                            }
                        }
                        Ok(Inserted::Duplicate) => {
                            let held = model.get(&id).map(|s| &s.frames);
                            prop_assert!(held.is_some_and(|f| f.contains_key(&frame_seq)));
                        }
                        Ok(Inserted::Complete(trace)) => {
                            let Expected { mut frames, terminal } =
                                model.remove(&id).unwrap_or_default();
                            frames.insert(frame_seq, samples);
                            let terminal = if last { Some(frame_seq) } else { terminal };
                            prop_assert_eq!(terminal, Some(trace.frames - 1));
                            prop_assert!(frames.keys().copied().eq(0..trace.frames));
                            let expected: Vec<f64> = frames.into_values().flatten().collect();
                            prop_assert_eq!(trace.samples, expected);
                        }
                        Err(_) => {
                            model.remove(&id);
                        }
                    }
                    let buffered: usize = r
                        .streams
                        .values()
                        .flat_map(|s| s.chunks.values())
                        .map(Vec::len)
                        .sum();
                    prop_assert_eq!(r.buffered_samples(), buffered);
                    prop_assert!(buffered <= BUDGET);
                    let modelled: usize =
                        model.values().flat_map(|s| s.frames.values()).map(Vec::len).sum();
                    prop_assert_eq!(modelled, buffered);
                }
            }
        }
    }
}
