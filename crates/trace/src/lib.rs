#![forbid(unsafe_code)]
// The capture→segment→score hot path must degrade with typed errors, never
// panic on a glitched acquisition; tests keep their unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
// Indexed loops are the clearest notation for the dense numeric kernels
// in this workspace (convolutions, scatter matrices, lattice bases).
#![allow(clippy::needless_range_loop)]

//! # reveal-trace
//!
//! Side-channel trace processing for the RevEAL reproduction: trace and
//! trace-set containers, streaming statistics, the peak-based segmentation of
//! §III-C (locating each coefficient's sampling window from the
//! distribution-call peaks), SOSD/SOST point-of-interest selection, and
//! CSV/ASCII export used by the figure generators.
//!
//! ## Example: segmenting a synthetic trace
//!
//! ```
//! use reveal_trace::segment::{refined_bursts_into, SegmentConfig, SegmentScratch};
//!
//! let mut samples = vec![1.0; 400];
//! for start in [40usize, 200] {
//!     for i in start..start + 50 {
//!         samples[i] = 4.0; // a distribution-call burst
//!     }
//! }
//! let mut scratch = SegmentScratch::new();
//! let bursts = refined_bursts_into(&samples, &SegmentConfig::default(), &mut scratch)?;
//! // Each burst's end is refined to the sample; a ladder window starts there.
//! let ends: Vec<usize> = bursts.iter().map(|&(_, end)| end).collect();
//! assert_eq!(ends, [90, 250]);
//! # Ok::<(), reveal_trace::segment::SegmentError>(())
//! ```

pub mod cpa;
pub mod export;
pub mod order;
pub mod poi;
pub mod sanity;
pub mod segment;
pub mod stats;
pub mod trace;
pub mod tvla;

pub use cpa::{cpa_rank, distinguishing_margin, CpaError, CpaScore};
pub use poi::{select_pois, PoiError, PoiMethod};
pub use sanity::{check_finite, mad_outlier_flags, median, robust_noise_sigma};
pub use segment::{SegmentConfig, SegmentError};
pub use stats::Covariance;
pub use trace::{Trace, TraceSet};
pub use tvla::{welch_t_test, TvlaError, TvlaResult, TVLA_THRESHOLD};
