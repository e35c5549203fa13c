#![forbid(unsafe_code)]
#![deny(clippy::pedantic)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
// A value-set analysis is one big structural case split: the match arms on
// (lattice element × lattice element) are clearer spelled out than folded,
// and scores/masks convert between integer widths deliberately.
#![allow(
    clippy::match_same_arms,
    clippy::module_name_repetitions,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss,
    clippy::too_many_lines,
    clippy::missing_panics_doc,
    clippy::missing_errors_doc,
    clippy::must_use_candidate,
    clippy::format_push_string
)]

//! # reveal-lint
//!
//! A quantitative static leakage certifier for the RV32 sampler kernels:
//! the "could we have caught Fig. 2 before taping out?" companion to the
//! dynamic side-channel attack the rest of the workspace mounts.
//!
//! Three layers:
//!
//! 1. **Value-set analysis** ([`vsa`]) — every register carries a small
//!    concrete set or a strided signed interval. A worklist fixpoint with
//!    delayed widening (to program-constant thresholds), branch-edge
//!    refinement, and a bounded descending/narrowing phase terminates on
//!    every kernel. Indirect `jalr` targets are resolved from the solved
//!    value sets and fed back into the CFG, so the shuffled variant's
//!    dispatch analyzes with **zero** "not analyzed" caveats.
//! 2. **Bit-level taint** ([`taint`]) — per-bit masks seeded at the
//!    declared secret loads; the *effective* taint at any site is
//!    `mask & value.varying_bits()`, so bits the VSA proves constant
//!    cannot leak. Four verdict rules are checked ([`report`]):
//!
//!    | rule | severity | fires on |
//!    |------|----------|----------|
//!    | L1   | error    | secret-dependent branch / indirect jump |
//!    | L2   | error    | secret-dependent load/store address |
//!    | L3   | warning  | secret operand to `mul`/`div`-class instructions |
//!    | L4   | info     | secret value stored to memory |
//!
//! 3. **Leakage map** ([`leakage`]) — per-PC upper bounds on
//!    secret-dependent power variance under the *same* HW/HD model the
//!    trace renderer uses ([`reveal_rv32::PowerModelConfig`]), ranked into
//!    a JSON artifact. The crate's integration tests cross-validate the
//!    ranking against the dynamic CPA/template attack: every PC the
//!    attack exploits must be covered by the static top sites, and sites
//!    the certifier calls quiet must stay quiet.
//!
//! Reports render as human text, JSON, or SARIF 2.1.0. See `docs/lint.md`
//! for the abstract domains, the widening rule, and the leakage-map
//! schema.
//!
//! ## Example
//!
//! ```
//! use reveal_lint::{analyze_kernel, Rule};
//! use reveal_rv32::SamplerKernel;
//!
//! let kernel = SamplerKernel::new(8, &[132120577])?;
//! let report = analyze_kernel(&kernel);
//! // SEAL v3.2's sign ladder branches on the sampled noise.
//! assert!(report.findings_for(Rule::L1SecretBranch).count() >= 1);
//! assert!(!report.is_constant_time());
//! # Ok::<(), reveal_rv32::KernelError>(())
//! ```

pub mod analysis;
pub mod leakage;
pub mod report;
pub mod taint;
pub mod vsa;

pub use analysis::{analyze_kernel, analyzer_for_kernel, Analyzer};
pub use leakage::{leakage_map_for_kernel, LeakageMap, LeakageSite};
pub use report::{Finding, Report, Rule, Severity};
pub use taint::{RegVal, State, Taint};
pub use vsa::Value;
