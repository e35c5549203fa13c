//! Per-key sharded hint accumulation: merging each victim's stream of
//! robust attack results into one monotone hint set and an incremental
//! bikz estimate, with a per-victim degradation ladder ending in
//! quarantine.
//!
//! ## Bit-identity by construction
//!
//! The service folds a victim's merged [`HintDecision`]s through
//! [`reveal_hints::fold_decisions`] in ascending coordinate order —
//! exactly what [`reveal_attack::report_robust`] does — so after a single
//! zero-fault trace the emitted estimate equals the one-shot report
//! bit-for-bit. Across traces, decisions only *upgrade* along
//! [`HintDecision::cmp_strength`] (skipped → approximate → perfect;
//! approximate keeps the smallest ε²), and the merge is a left fold over
//! trace order, so an interrupted-and-restored run reproduces an
//! uninterrupted one exactly.
//!
//! ## Sharding
//!
//! Victims are partitioned into `key % shards` ordered maps. The service
//! folds under one lock (per-key fold order is the determinism contract),
//! so shards are a data-layout choice: they give checkpoints a stable
//! iteration order and bound any per-shard scan.

use crate::{KeyId, ServeError};
use reveal_attack::{HintDecision, Rail, RobustAttackResult};
use reveal_hints::{fold_decisions, DbddInstance, HintSummary, LweParameters, SecurityEstimate};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// Why a victim key was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The stream failed this many consecutive traces.
    ConsecutiveFailures(u32),
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineReason::ConsecutiveFailures(n) => {
                write!(f, "{n} consecutive failed traces")
            }
        }
    }
}

/// The bottom rung of the service-level degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimStatus {
    /// Healthy: traces are analyzed and hints accumulate.
    Active,
    /// Poisoned: frames are dropped at ingress, state is frozen.
    Quarantined(QuarantineReason),
}

/// One victim's accumulated state.
#[derive(Debug, Clone, PartialEq)]
pub struct VictimState {
    /// Best decision seen per coordinate (the monotone merge).
    pub decisions: Vec<HintDecision>,
    /// Trace sequence numbers consumed (success or failure); the next
    /// expected `trace_seq`.
    pub traces_processed: u64,
    /// Traces that ended in a typed failure.
    pub traces_failed: u64,
    /// Failure run length driving the quarantine rung.
    pub consecutive_failures: u32,
    /// Active or quarantined.
    pub status: VictimStatus,
    /// The estimate after the last successful fold.
    pub last_estimate: Option<SecurityEstimate>,
    /// Hint counts from the last fold.
    pub summary: HintSummary,
    /// Cumulative coefficient decisions scored by the template (LDA) rail
    /// across this victim's successful traces.
    pub lda_coefficients: u64,
    /// Cumulative coefficient decisions won by the learned rail under
    /// per-burst arbitration.
    pub learned_coefficients: u64,
}

impl VictimState {
    fn new(coefficients: usize) -> Self {
        Self {
            decisions: vec![HintDecision::Skipped; coefficients],
            traces_processed: 0,
            traces_failed: 0,
            consecutive_failures: 0,
            status: VictimStatus::Active,
            last_estimate: None,
            summary: HintSummary::default(),
            lda_coefficients: 0,
            learned_coefficients: 0,
        }
    }
}

/// One incremental result emission, per consumed trace.
#[derive(Debug, Clone, PartialEq)]
pub struct VictimUpdate {
    /// The victim key.
    pub key: KeyId,
    /// The trace this update reflects.
    pub trace_seq: u64,
    /// Current bikz estimate for this key (baseline if nothing succeeded
    /// yet).
    pub bikz: f64,
    /// Equivalent bit security.
    pub bits: f64,
    /// Coordinates currently held as perfect hints.
    pub perfect: usize,
    /// Coordinates currently held as approximate hints.
    pub approximate: usize,
    /// Coordinates currently skipped.
    pub skipped: usize,
    /// Whether this trace failed (the update repeats the previous
    /// estimate).
    pub failed: Option<ServeError>,
    /// Whether this update quarantined the key.
    pub quarantined: bool,
    /// Coefficients of this trace scored by the template (LDA) rail
    /// (0 for failed traces).
    pub lda_coefficients: u64,
    /// Coefficients of this trace won by the learned rail (0 for failed
    /// traces).
    pub learned_coefficients: u64,
}

/// The monotone per-coordinate merge: only a strictly stronger decision
/// replaces the incumbent; equal and unordered ones (a NaN ε²) keep it, so
/// the merge is deterministic and order-stable.
fn merge_decision(current: &HintDecision, incoming: &HintDecision) -> HintDecision {
    if incoming.cmp_strength(current) == Some(Ordering::Greater) {
        *incoming
    } else {
        *current
    }
}

/// The per-key sharded hint store.
pub struct ShardedAccumulator {
    shards: Vec<BTreeMap<KeyId, VictimState>>,
    params: LweParameters,
    baseline: SecurityEstimate,
    coefficients: usize,
    quarantine_threshold: u32,
}

impl ShardedAccumulator {
    /// An empty store for `coefficients`-coordinate victims under `params`.
    pub fn new(
        params: LweParameters,
        coefficients: usize,
        shards: usize,
        quarantine_threshold: u32,
    ) -> Self {
        let baseline = DbddInstance::from_lwe(&params).estimate();
        Self {
            shards: (0..shards.max(1)).map(|_| BTreeMap::new()).collect(),
            params,
            baseline,
            coefficients,
            quarantine_threshold: quarantine_threshold.max(1),
        }
    }

    /// The LWE parameters this store estimates against.
    pub fn params(&self) -> &LweParameters {
        &self.params
    }

    /// Expected coefficients per victim.
    pub fn coefficients(&self) -> usize {
        self.coefficients
    }

    /// The no-hints baseline estimate.
    pub fn baseline(&self) -> SecurityEstimate {
        self.baseline
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Victims tracked across all shards.
    pub fn victims(&self) -> usize {
        self.shards.iter().map(BTreeMap::len).sum()
    }

    fn shard_of(&self, key: KeyId) -> usize {
        (key % self.shards.len() as u64) as usize
    }

    /// Read access to one victim's state.
    pub fn victim(&self, key: KeyId) -> Option<&VictimState> {
        self.shards[self.shard_of(key)].get(&key)
    }

    /// The next trace sequence number expected for `key` (0 for unseen
    /// victims).
    pub fn next_trace_seq(&self, key: KeyId) -> u64 {
        self.victim(key).map_or(0, |v| v.traces_processed)
    }

    /// Iterates victims in (shard, key) order — the checkpoint order.
    pub fn iter(&self) -> impl Iterator<Item = (KeyId, &VictimState)> {
        self.shards
            .iter()
            .flat_map(|shard| shard.iter().map(|(k, v)| (*k, v)))
    }

    /// Installs a restored victim state (checkpoint restore path).
    pub fn restore_victim(&mut self, key: KeyId, state: VictimState) {
        let shard = self.shard_of(key);
        self.shards[shard].insert(key, state);
    }

    fn entry(&mut self, key: KeyId) -> &mut VictimState {
        let shard = self.shard_of(key);
        let coefficients = self.coefficients;
        self.shards[shard]
            .entry(key)
            .or_insert_with(|| VictimState::new(coefficients))
    }

    /// Consumes a successful analysis of `key`'s trace `trace_seq`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Accumulator`] on coefficient-count mismatch or hint
    /// integration failure (configuration errors, not data faults).
    pub fn apply_success(
        &mut self,
        key: KeyId,
        trace_seq: u64,
        result: &RobustAttackResult,
    ) -> Result<VictimUpdate, ServeError> {
        if result.coefficients.len() != self.coefficients {
            return Err(ServeError::Accumulator(format!(
                "result has {} coefficients, store expects {}",
                result.coefficients.len(),
                self.coefficients
            )));
        }
        let merged: Vec<HintDecision> = {
            let state = self.entry(key);
            state
                .decisions
                .iter()
                .zip(result.coefficients.iter())
                .map(|(current, c)| merge_decision(current, &c.decision))
                .collect()
        };
        let lda = result
            .coefficients
            .iter()
            .filter(|c| c.rail == Rail::Lda)
            .count() as u64;
        let learned = result.coefficients.len() as u64 - lda;
        let (estimate, summary) = fold_decisions(&self.params, merged.iter().copied())
            .map_err(|e| ServeError::Accumulator(e.to_string()))?;
        let state = self.entry(key);
        state.decisions = merged;
        state.traces_processed = state.traces_processed.max(trace_seq.saturating_add(1));
        state.consecutive_failures = 0;
        state.last_estimate = Some(estimate);
        state.summary = summary;
        state.lda_coefficients += lda;
        state.learned_coefficients += learned;
        Ok(VictimUpdate {
            key,
            trace_seq,
            bikz: estimate.bikz,
            bits: estimate.bits,
            perfect: summary.perfect,
            approximate: summary.approximate,
            skipped: summary.skipped,
            failed: None,
            quarantined: false,
            lda_coefficients: lda,
            learned_coefficients: learned,
        })
    }

    /// Consumes a failed trace: the estimate is repeated, the failure run
    /// length advances, and the key is quarantined at the threshold.
    pub fn apply_failure(&mut self, key: KeyId, trace_seq: u64, error: ServeError) -> VictimUpdate {
        let threshold = self.quarantine_threshold;
        let baseline = self.baseline;
        let state = self.entry(key);
        state.traces_processed = state.traces_processed.max(trace_seq.saturating_add(1));
        state.traces_failed += 1;
        state.consecutive_failures += 1;
        let mut newly_quarantined = false;
        if state.consecutive_failures >= threshold && matches!(state.status, VictimStatus::Active) {
            state.status = VictimStatus::Quarantined(QuarantineReason::ConsecutiveFailures(
                state.consecutive_failures,
            ));
            newly_quarantined = true;
        }
        let estimate = state.last_estimate.unwrap_or(baseline);
        let summary = state.summary;
        VictimUpdate {
            key,
            trace_seq,
            bikz: estimate.bikz,
            bits: estimate.bits,
            perfect: summary.perfect,
            approximate: summary.approximate,
            skipped: summary.skipped,
            failed: Some(error),
            quarantined: newly_quarantined,
            lda_coefficients: 0,
            learned_coefficients: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> LweParameters {
        LweParameters::seal_like(32, 3329.0, 2.0)
    }

    fn result_with(decisions: Vec<HintDecision>) -> RobustAttackResult {
        RobustAttackResult {
            coefficients: decisions
                .into_iter()
                .map(|decision| reveal_attack::RobustCoefficient {
                    estimate: None,
                    confidence: 0.0,
                    suspicion: reveal_attack::Suspicion::default(),
                    decision,
                    rail: Rail::Lda,
                })
                .collect(),
            diagnostics: reveal_attack::Diagnostics::default(),
        }
    }

    #[test]
    fn merge_is_monotone_and_deterministic() {
        let p = HintDecision::Perfect { value: 3 };
        let a1 = HintDecision::Approximate {
            value: 2,
            eps_squared: 0.5,
        };
        let a2 = HintDecision::Approximate {
            value: 1,
            eps_squared: 0.25,
        };
        let s = HintDecision::Skipped;
        assert_eq!(merge_decision(&s, &a1), a1);
        assert_eq!(merge_decision(&a1, &s), a1);
        assert_eq!(merge_decision(&a1, &a2), a2);
        assert_eq!(merge_decision(&a2, &a1), a2);
        assert_eq!(merge_decision(&a2, &p), p);
        assert_eq!(merge_decision(&p, &a2), p);
        // A NaN ε² (a crafted checkpoint can restore one) is unordered
        // against any other approximate hint: the incumbent stays, on
        // either side, while the rungs still order it.
        let nan = HintDecision::Approximate {
            value: 0,
            eps_squared: f64::NAN,
        };
        let kept = |d: HintDecision| matches!(d, HintDecision::Approximate { eps_squared, .. } if eps_squared.is_nan());
        assert!(kept(merge_decision(&nan, &a2)));
        assert_eq!(merge_decision(&a2, &nan), a2);
        assert_eq!(merge_decision(&nan, &p), p);
        assert!(kept(merge_decision(&nan, &s)));
    }

    #[test]
    fn single_trace_matches_report_robust_bitwise() {
        let decisions: Vec<HintDecision> = (0..32)
            .map(|i| match i % 3 {
                0 => HintDecision::Perfect { value: 1 },
                1 => HintDecision::Approximate {
                    value: -1,
                    eps_squared: 0.75,
                },
                _ => HintDecision::Skipped,
            })
            .collect();
        let result = result_with(decisions);
        let report = reveal_attack::report_robust(&result, &params()).unwrap();
        let mut acc = ShardedAccumulator::new(params(), 32, 4, 3);
        let update = acc.apply_success(42, 0, &result).unwrap();
        assert_eq!(update.bikz.to_bits(), report.with_hints.bikz.to_bits());
        assert_eq!(
            (update.perfect, update.approximate, update.skipped),
            (
                report.hints.perfect,
                report.hints.approximate,
                report.hints.skipped
            )
        );
    }

    #[test]
    fn hints_accumulate_monotonically_across_traces() {
        // Large enough that the estimate does not floor at the minimum
        // block size (tiny instances saturate at bikz = 2).
        let big = LweParameters::seal_like(256, 132120577.0, 3.2);
        let mut acc = ShardedAccumulator::new(big, 256, 4, 3);
        let weak = result_with(
            (0..256)
                .map(|i| {
                    if i < 128 {
                        HintDecision::Approximate {
                            value: 0,
                            eps_squared: 1.0,
                        }
                    } else {
                        HintDecision::Skipped
                    }
                })
                .collect(),
        );
        let strong = result_with(
            (0..256)
                .map(|i| {
                    if i < 128 {
                        HintDecision::Perfect { value: 0 }
                    } else {
                        HintDecision::Skipped
                    }
                })
                .collect(),
        );
        let u1 = acc.apply_success(7, 0, &weak).unwrap();
        let u2 = acc.apply_success(7, 1, &strong).unwrap();
        let u3 = acc.apply_success(7, 2, &weak).unwrap();
        assert!(u2.bikz < u1.bikz, "stronger hints lower bikz");
        // A later weaker trace cannot undo the perfect hints.
        assert_eq!(u3.bikz.to_bits(), u2.bikz.to_bits());
        assert_eq!(acc.victim(7).unwrap().traces_processed, 3);
    }

    #[test]
    fn failures_ladder_into_quarantine_and_freeze_estimates() {
        let mut acc = ShardedAccumulator::new(params(), 32, 4, 2);
        let good = result_with(vec![HintDecision::Perfect { value: 0 }; 32]);
        let u0 = acc.apply_success(5, 0, &good).unwrap();
        let f1 = acc.apply_failure(5, 1, ServeError::GapAbandoned);
        assert!(!f1.quarantined);
        assert_eq!(f1.bikz.to_bits(), u0.bikz.to_bits());
        let f2 = acc.apply_failure(5, 2, ServeError::GapAbandoned);
        assert!(f2.quarantined);
        assert!(matches!(
            acc.victim(5).unwrap().status,
            VictimStatus::Quarantined(QuarantineReason::ConsecutiveFailures(2))
        ));
        // A third failure does not re-announce quarantine.
        let f3 = acc.apply_failure(5, 3, ServeError::GapAbandoned);
        assert!(!f3.quarantined);
        assert_eq!(acc.victim(5).unwrap().traces_failed, 3);
    }

    #[test]
    fn success_resets_the_failure_run() {
        let mut acc = ShardedAccumulator::new(params(), 32, 4, 3);
        let good = result_with(vec![HintDecision::Skipped; 32]);
        acc.apply_failure(1, 0, ServeError::GapAbandoned);
        acc.apply_failure(1, 1, ServeError::GapAbandoned);
        acc.apply_success(1, 2, &good).unwrap();
        assert_eq!(acc.victim(1).unwrap().consecutive_failures, 0);
        acc.apply_failure(1, 3, ServeError::GapAbandoned);
        assert!(matches!(
            acc.victim(1).unwrap().status,
            VictimStatus::Active
        ));
    }

    #[test]
    fn sharding_partitions_keys_deterministically() {
        let mut acc = ShardedAccumulator::new(params(), 32, 4, 3);
        let good = result_with(vec![HintDecision::Skipped; 32]);
        for key in 0..16u64 {
            acc.apply_success(key, 0, &good).unwrap();
        }
        assert_eq!(acc.victims(), 16);
        let keys: Vec<KeyId> = acc.iter().map(|(k, _)| k).collect();
        // Shard-major order: shard 0 holds 0,4,8,12 then shard 1 holds 1,5,9,13 …
        assert_eq!(keys[..4], [0, 4, 8, 12]);
        assert_eq!(acc.next_trace_seq(3), 1);
        assert_eq!(acc.next_trace_seq(99), 0);
    }

    #[test]
    fn rail_counts_accumulate_per_victim() {
        let mut acc = ShardedAccumulator::new(params(), 32, 4, 3);
        let mut result = result_with(vec![HintDecision::Skipped; 32]);
        for c in result.coefficients.iter_mut().take(5) {
            c.rail = Rail::Learned;
        }
        let u0 = acc.apply_success(9, 0, &result).unwrap();
        assert_eq!((u0.lda_coefficients, u0.learned_coefficients), (27, 5));
        let u1 = acc.apply_success(9, 1, &result).unwrap();
        assert_eq!((u1.lda_coefficients, u1.learned_coefficients), (27, 5));
        let state = acc.victim(9).unwrap();
        assert_eq!(
            (state.lda_coefficients, state.learned_coefficients),
            (54, 10)
        );
        // Failures contribute no rail counts.
        let f = acc.apply_failure(9, 2, ServeError::GapAbandoned);
        assert_eq!((f.lda_coefficients, f.learned_coefficients), (0, 0));
        assert_eq!(acc.victim(9).unwrap().lda_coefficients, 54);
    }

    #[test]
    fn coefficient_mismatch_is_a_typed_error() {
        let mut acc = ShardedAccumulator::new(params(), 32, 4, 3);
        let bad = result_with(vec![HintDecision::Skipped; 8]);
        assert!(matches!(
            acc.apply_success(0, 0, &bad),
            Err(ServeError::Accumulator(_))
        ));
    }
}
