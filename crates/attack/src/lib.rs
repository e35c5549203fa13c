#![forbid(unsafe_code)]
// The capture→segment→score→recover hot path must degrade with typed
// errors, never panic on a glitched acquisition; tests keep their unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
// Indexed loops are the clearest notation for the dense numeric kernels
// in this workspace (convolutions, scatter matrices, lattice bases).
#![allow(clippy::needless_range_loop)]

//! # reveal-attack
//!
//! The RevEAL single-trace attack pipeline — the paper's primary
//! contribution, end to end:
//!
//! 1. **Capture** ([`device`]): SEAL's Gaussian sampler running on the
//!    simulated PicoRV32 target, in profiling (chosen values) and attack
//!    (fresh secrets, single trace) modes.
//! 2. **Segmentation** ([`profile::extract_ladder_windows`]): locate each
//!    coefficient's sampling window from the distribution-call peaks
//!    (Fig. 3a) — no fixed stride works because the sampler is
//!    time-variant.
//! 3. **Sign recovery** (vulnerability 1): template-classify the
//!    `if/else-if/else` control-flow patterns (Fig. 3b) — positive,
//!    negative, or zero.
//! 4. **Value recovery** (vulnerabilities 2 + 3): Gaussian templates on
//!    SOSD-selected points of interest; for negative coefficients the
//!    negation-region and store-region scores are *fused* to prune
//!    Hamming-weight false positives.
//! 5. **Security accounting** ([`report`]): posteriors become perfect /
//!    approximate hints for the LWE-with-hints estimator, reproducing the
//!    bikz numbers of Tables III and IV.
//! 6. **Message recovery** ([`recover`]): Eqs. (2)–(3) algebra once the
//!    errors are known, with a BKZ finisher for partially recovered traces.
//! 7. **Defense** ([`defense`]): the shuffling countermeasure of §V-A and
//!    its evaluation.

pub mod config;
pub mod defense;
pub mod device;
pub mod profile;
pub mod recover;
pub mod report;
pub mod robust;

pub use config::AttackConfig;
pub use defense::{evaluate_against_shuffling, DefenseEvaluation, ShuffledDevice};
pub use device::{burst_iterations, Capture, Device};
pub use profile::{
    collect_profiling, collect_profiling_baseline, extract_ladder_windows,
    extract_ladder_windows_into, extract_ladder_windows_reference, ladder_window_starts,
    AttackError, CoefficientEstimate, ExploitedPcs, LearnedRail, ProfilingData, SingleTraceAttack,
    TrainedAttack,
};
pub use recover::{
    recover_adaptive, recover_message, recover_message_from_u, recover_message_partial,
    recover_secret_key, recover_secret_key_adaptive, recover_u, residual_instance, RecoverError,
};
pub use report::{
    report_full_attack, report_posteriors, report_sign_only, rounded_gaussian_prior, AttackReport,
    ReportError,
};
pub use robust::{
    calibrate, relaxation_schedule, report_robust, Calibration, Diagnostics, Rail, RailDiagnostics,
    RobustAttack, RobustAttackResult, RobustCoefficient, RobustConfig, Suspicion,
};
// `RobustCoefficient::decision` is a ladder decision.
pub use reveal_hints::HintDecision;
// The learned rail's knobs and typed failures, so two-rail consumers need
// only this crate.
pub use reveal_template::{LearnedConfig, LearnedError};
