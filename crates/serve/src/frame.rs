//! The wire format: a trace chopped into sequence-numbered frames,
//! addressed to one victim key.
//!
//! Framing is deliberately minimal — enough structure for a reassembler to
//! dedup, reorder, and detect completion, and for admission control to
//! reject garbage before it costs anything downstream. Payloads are moved,
//! never copied, from ingest to analysis.

use std::fmt;

/// A victim key identifier. Sharding is `key % shards`.
pub type KeyId = u64;

/// One frame of one victim trace stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFrame {
    /// The victim key this trace belongs to.
    pub key: KeyId,
    /// Per-victim monotone trace number (0-based). The fold consumes
    /// outcomes in this order.
    pub trace_seq: u64,
    /// Position of this frame within the trace (0-based).
    pub frame_seq: u32,
    /// Whether this is the final frame of the trace.
    pub last: bool,
    /// The payload samples.
    pub samples: Vec<f64>,
}

/// Admission-control rejections, attributable to one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrameError {
    /// A payload sample was NaN or infinite.
    NonFinite {
        /// Index of the first offending sample within the payload.
        index: usize,
    },
    /// The payload exceeds the configured per-frame bound.
    Oversized {
        /// Payload length.
        len: usize,
        /// The configured maximum.
        max: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::NonFinite { index } => {
                write!(f, "non-finite sample at payload index {index}")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "payload of {len} samples exceeds the {max}-sample bound")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl TraceFrame {
    /// Admission check: payload bounded and finite. Runs before any
    /// buffering so a poisoned frame costs O(len) and nothing downstream.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] or [`FrameError::NonFinite`].
    pub fn validate(&self, max_samples: usize) -> Result<(), FrameError> {
        if self.samples.len() > max_samples {
            return Err(FrameError::Oversized {
                len: self.samples.len(),
                max: max_samples,
            });
        }
        if let Some(index) = self.samples.iter().position(|s| !s.is_finite()) {
            return Err(FrameError::NonFinite { index });
        }
        Ok(())
    }
}

/// Splits a capture into wire frames of `frame_len` samples for `key`'s
/// trace number `trace_seq` (the final frame carries the remainder and is
/// marked `last`; `frame_len` is floored at 1; an empty capture yields one
/// empty terminal frame so the stream still completes).
pub fn frame_stream(
    key: KeyId,
    trace_seq: u64,
    samples: &[f64],
    frame_len: usize,
) -> Vec<TraceFrame> {
    let frame_len = frame_len.max(1);
    if samples.is_empty() {
        return vec![TraceFrame {
            key,
            trace_seq,
            frame_seq: 0,
            last: true,
            samples: Vec::new(),
        }];
    }
    let count = samples.len().div_ceil(frame_len);
    (0..count)
        .map(|i| {
            let start = i * frame_len;
            let end = (start + frame_len).min(samples.len());
            TraceFrame {
                key,
                trace_seq,
                frame_seq: i as u32,
                last: i + 1 == count,
                samples: samples[start..end].to_vec(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn frame_stream_round_trips() {
        let samples: Vec<f64> = (0..1000).map(|i| f64::from(i) * 0.5).collect();
        let frames = frame_stream(7, 3, &samples, 256);
        assert_eq!(frames.len(), 4);
        assert!(frames.iter().all(|f| f.key == 7 && f.trace_seq == 3));
        assert!(frames[3].last && !frames[0].last);
        let rebuilt: Vec<f64> = frames.iter().flat_map(|f| f.samples.clone()).collect();
        assert_eq!(rebuilt, samples);
    }

    #[test]
    fn empty_trace_still_terminates() {
        let frames = frame_stream(1, 0, &[], 64);
        assert_eq!(frames.len(), 1);
        assert!(frames[0].last && frames[0].samples.is_empty());
    }

    #[test]
    fn validate_rejects_garbage() {
        let mut frame = frame_stream(1, 0, &[1.0, 2.0, f64::NAN], 8).remove(0);
        assert_eq!(frame.validate(8), Err(FrameError::NonFinite { index: 2 }));
        frame.samples = vec![0.0; 9];
        assert_eq!(
            frame.validate(8),
            Err(FrameError::Oversized { len: 9, max: 8 })
        );
        frame.samples = vec![0.0; 8];
        assert_eq!(frame.validate(8), Ok(()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `validate` never panics on any payload, and its verdict is
        /// exact: `Oversized` iff the payload exceeds the bound, otherwise
        /// `NonFinite` at the first NaN or infinity, otherwise `Ok`.
        #[test]
        fn validate_verdict_is_exact_and_never_panics(
            max in 0usize..64,
            offset in 0usize..9,
            poison in proptest::collection::vec(any::<u64>(), 0..4),
        ) {
            // Lengths from four below the bound to four above it.
            let len = (max + offset).saturating_sub(4);
            // Finite extremes and subnormals, so only the poison offends.
            let finite = [f64::MAX, -f64::MAX, f64::MIN_POSITIVE / 4.0, -0.0, 1.5];
            let mut samples: Vec<f64> = (0..len).map(|i| finite[i % finite.len()]).collect();
            let mut first = None;
            if len > 0 {
                for p in &poison {
                    let at = (p % len as u64) as usize;
                    samples[at] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(p >> 32) as usize % 3];
                    first = Some(first.map_or(at, |f: usize| f.min(at)));
                }
            }
            let expected = if len > max {
                Err(FrameError::Oversized { len, max })
            } else if let Some(index) = first {
                Err(FrameError::NonFinite { index })
            } else {
                Ok(())
            };
            let frame = TraceFrame { key: 1, trace_seq: 0, frame_seq: 0, last: true, samples };
            prop_assert_eq!(frame.validate(max), expected);
        }
    }
}
