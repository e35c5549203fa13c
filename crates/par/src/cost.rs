//! Measured cost model for sizing parallel work.
//!
//! A static minimum-work heuristic (a magic number such as "64k
//! multiply-adds per worker") encodes a guess about how many nanoseconds one
//! work unit costs. A guess cannot distinguish a laptop from
//! a CI container, and it cannot see that a warm cache made the work 3×
//! cheaper than last time. A [`CostModel`] instead *observes*: every modeled
//! parallel call is timed, the per-unit cost feeds an exponential moving
//! average, and the next call's worker count and claim granularity are sized
//! from the measurement.
//!
//! The estimate is of *serial* work: [`CostModel::record`] books a call that
//! ran `workers` workers for `elapsed` wall time as `elapsed × workers` of
//! work, divided over its units. Booking the wall time alone would make a
//! w-worker call look w× cheaper than it was, and the next plan, sized from
//! that total, would drop workers a serial call would then add back.
//!
//! ## What the model decides — and what it cannot affect
//!
//! A [`Plan`] fixes two scheduling knobs:
//!
//! - **workers**: enough that each worker's share of the estimated total
//!   work amortizes one measured thread-spawn (see [`spawn_cost_ns`]), capped
//!   by [`max_threads`](crate::max_threads) *and* by the machine's
//!   [`hardware_threads`] — a requested thread count above the hardware
//!   (benchmarks pinning "parallel = 2" on a 1-core runner) must not spawn
//!   workers that can only time-slice each other. Batches too small to pay
//!   for a single spawn stay on the calling thread.
//! - **claim chunk**: how many indices a worker claims per atomic
//!   `fetch_add`. Cheap items are claimed in blocks (so the cursor is not
//!   hammered once per microsecond of work), expensive items one at a time
//!   (so stragglers balance).
//!
//! Both knobs change *scheduling only*. Both map primitives place results
//! by index, so the output is bit-identical whatever the
//! measurements say — a noisy timer can cost speed, never correctness.
//!
//! ## Observability
//!
//! Models register themselves on first use; [`snapshots`] returns every
//! registered model's measured cost and last plan; the repository
//! benchmark's traced run (`perfbench/`) reports the planned worker count
//! of the pipeline's parallel call sites (`par.workers.<site>`).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A worker's share of the estimated work must cover this many thread
/// spawns before the plan adds that worker: spawning costs the spawn itself
/// plus scheduling jitter and result reassembly, so demanding an order of
/// magnitude of headroom keeps the parallel path from losing to serial on
/// small batches (the committed 0.89× regression this crate's cost model
/// exists to prevent).
const SPAWN_AMORTIZATION: f64 = 10.0;

/// Target nanoseconds of work per cursor claim: large enough that the
/// atomic `fetch_add` and loop overhead vanish, small enough that a worker
/// never holds more than a sliver of the tail when others idle.
const CLAIM_TARGET_NS: f64 = 20_000.0;

/// Weight of the newest observation in the per-unit EWMA. 0.5 adapts within
/// a couple of calls but one wildly descheduled run cannot wreck the model.
const EWMA_ALPHA: f64 = 0.5;

/// Hardware threads actually available to this process, sampled once.
///
/// Plans never exceed this, no matter what `REVEAL_THREADS` or
/// [`with_threads`](crate::with_threads) request: the modeled workloads are
/// compute-bound, so workers beyond the hardware merely time-slice one
/// another and pay the context-switch tax — the committed 0.936×
/// `attack_traces` "speedup" came from exactly that, a benchmark forcing two
/// workers onto a single-core runner.
pub fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

/// The measured cost of spawning one scoped worker thread, sampled once per
/// process on first use (median-of-3 spawn/join rounds). Everything the
/// planner compares against work estimates flows from this number, so it is
/// measured on the machine at hand rather than assumed.
pub fn spawn_cost_ns() -> f64 {
    static SPAWN_NS: OnceLock<f64> = OnceLock::new();
    *SPAWN_NS.get_or_init(|| {
        let mut rounds = [0.0f64; 3];
        for slot in &mut rounds {
            const PROBE_THREADS: usize = 4;
            let start = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..PROBE_THREADS {
                    scope.spawn(|| {});
                }
            });
            *slot = start.elapsed().as_secs_f64() * 1e9 / PROBE_THREADS as f64;
        }
        rounds.sort_by(f64::total_cmp);
        // Floor: even if the probe got lucky, a spawn is never free.
        rounds[1].max(1_000.0)
    })
}

/// Claim granularity for a plan of `workers` over `count` items costing
/// `per_item_ns` each: serial plans claim everything at once; parallel plans
/// claim ~[`CLAIM_TARGET_NS`] of work per cursor `fetch_add`, but never so
/// coarsely that a worker cannot get at least 4 claims (load balance on
/// tails). Pure, so the sizing arithmetic is testable on any machine
/// regardless of how many hardware threads the test runner has.
fn claim_chunk_for(per_item_ns: f64, count: usize, workers: usize) -> usize {
    if workers <= 1 {
        count.max(1)
    } else {
        let by_cost = (CLAIM_TARGET_NS / per_item_ns.max(1e-3)).floor() as usize;
        let by_balance = count / (workers * 4);
        by_cost.clamp(1, by_balance.max(1))
    }
}

/// The scheduling decision for one modeled call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Worker threads to run (1 = serial on the calling thread).
    pub workers: usize,
    /// Indices claimed per cursor `fetch_add`.
    pub claim_chunk: usize,
}

/// A per-call-site cost model: an EWMA of observed nanoseconds per work
/// unit, plus the prior used until the first measurement lands.
///
/// Declare one `static` per call site and pass it to one of the two map
/// primitives ([`par_map_index_modeled`](crate::par_map_index_modeled),
/// [`par_map_index_with_scratch`](crate::par_map_index_with_scratch)); the
/// `'static` lifetime is what lets the model register itself for
/// [`snapshots`].
#[derive(Debug)]
pub struct CostModel {
    name: &'static str,
    prior_ns_per_unit: f64,
    /// Bits of the measured EWMA (f64); 0 = no measurement yet.
    measured_bits: AtomicU64,
    /// Last plan issued, for the bench's honest-topology report.
    last_workers: AtomicUsize,
    last_claim_chunk: AtomicUsize,
    last_count: AtomicUsize,
    calls: AtomicUsize,
}

/// A read-only view of one model's state, for benchmark artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct CostSnapshot {
    /// The call-site name the model was declared with.
    pub name: &'static str,
    /// The prior assumed before any measurement.
    pub prior_ns_per_unit: f64,
    /// The measured EWMA, if at least one call completed.
    pub measured_ns_per_unit: Option<f64>,
    /// Workers of the most recent plan (0 if never planned).
    pub last_workers: usize,
    /// Claim chunk of the most recent plan (0 if never planned).
    pub last_claim_chunk: usize,
    /// Item count of the most recent call (0 if never planned).
    pub last_count: usize,
    /// Number of modeled calls observed.
    pub calls: usize,
}

static REGISTRY: Mutex<Vec<&'static CostModel>> = Mutex::new(Vec::new());

impl CostModel {
    /// A model named after its call site, with the nanoseconds one work unit
    /// is assumed to cost until the first real measurement replaces the
    /// guess.
    pub const fn new(name: &'static str, prior_ns_per_unit: f64) -> Self {
        Self {
            name,
            prior_ns_per_unit,
            measured_bits: AtomicU64::new(0),
            last_workers: AtomicUsize::new(0),
            last_claim_chunk: AtomicUsize::new(0),
            last_count: AtomicUsize::new(0),
            calls: AtomicUsize::new(0),
        }
    }

    /// The current nanoseconds-per-unit estimate (measured, else prior).
    pub fn ns_per_unit(&self) -> f64 {
        let bits = self.measured_bits.load(Ordering::Relaxed);
        if bits == 0 {
            self.prior_ns_per_unit
        } else {
            f64::from_bits(bits)
        }
    }

    /// Sizes a call of `count` items, each costing `units_per_item` work
    /// units: workers amortize the measured spawn cost, claims target
    /// `CLAIM_TARGET_NS` of work. Deterministic in its *effect* on output
    /// (none — results are placed by index); the plan itself varies with the
    /// machine and with what the model has observed, which is the point.
    pub fn plan(&'static self, count: usize, units_per_item: u64) -> Plan {
        self.register();
        let threads = crate::max_threads()
            .min(hardware_threads())
            .min(count)
            .max(1);
        let per_item_ns = self.ns_per_unit() * units_per_item.max(1) as f64;
        let total_ns = per_item_ns * count as f64;
        let spawn_budget = SPAWN_AMORTIZATION * spawn_cost_ns();
        // Each of w workers gets total/w of work; demand total/w ≥ budget.
        let affordable = (total_ns / spawn_budget).floor() as usize;
        let workers = threads.min(affordable).max(1);
        let claim_chunk = claim_chunk_for(per_item_ns, count, workers);
        let plan = Plan {
            workers,
            claim_chunk,
        };
        self.last_workers.store(plan.workers, Ordering::Relaxed);
        self.last_claim_chunk
            .store(plan.claim_chunk, Ordering::Relaxed);
        self.last_count.store(count, Ordering::Relaxed);
        plan
    }

    /// Feeds one observed call back into the EWMA: `count` items of
    /// `units_per_item` units that took `elapsed` wall time on `workers`
    /// workers, booked as `elapsed × workers` of serial work.
    pub fn record(&self, count: usize, units_per_item: u64, workers: usize, elapsed: Duration) {
        let units = count as f64 * units_per_item.max(1) as f64;
        if units <= 0.0 {
            return;
        }
        let observed = elapsed.as_secs_f64() * 1e9 * workers.max(1) as f64 / units;
        if !observed.is_finite() || observed <= 0.0 {
            return;
        }
        let bits = self.measured_bits.load(Ordering::Relaxed);
        let blended = if bits == 0 {
            observed
        } else {
            EWMA_ALPHA * observed + (1.0 - EWMA_ALPHA) * f64::from_bits(bits)
        };
        // A racing writer loses one observation; the model only steers
        // scheduling, so that is acceptable.
        self.measured_bits
            .store(blended.to_bits(), Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// This model's current state.
    pub fn snapshot(&self) -> CostSnapshot {
        let bits = self.measured_bits.load(Ordering::Relaxed);
        CostSnapshot {
            name: self.name,
            prior_ns_per_unit: self.prior_ns_per_unit,
            measured_ns_per_unit: (bits != 0).then(|| f64::from_bits(bits)),
            last_workers: self.last_workers.load(Ordering::Relaxed),
            last_claim_chunk: self.last_claim_chunk.load(Ordering::Relaxed),
            last_count: self.last_count.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
        }
    }

    fn register(&'static self) {
        let mut registry = REGISTRY
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !registry.iter().any(|m| std::ptr::eq(*m, self)) {
            registry.push(self);
        }
    }
}

/// Snapshots of every cost model that has planned at least one call this
/// process, in registration order.
pub fn snapshots() -> Vec<CostSnapshot> {
    let registry = REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    registry.iter().map(|m| m.snapshot()).collect()
}

#[cfg(test)]
mod tests {
    // Exact comparison is the point: an unmeasured model must return its
    // prior unchanged, not approximately.
    #![allow(clippy::float_cmp)]

    use super::*;
    use crate::with_threads;

    static TEST_MODEL: CostModel = CostModel::new("cost.test", 100.0);
    static CHEAP_MODEL: CostModel = CostModel::new("cost.cheap", 1.0);

    #[test]
    fn unmeasured_model_uses_prior() {
        static FRESH: CostModel = CostModel::new("cost.fresh", 42.0);
        assert_eq!(FRESH.ns_per_unit(), 42.0);
        assert_eq!(FRESH.snapshot().measured_ns_per_unit, None);
    }

    #[test]
    fn tiny_batches_stay_serial() {
        // 4 items × 1 unit × 1ns prior can never pay for a spawn.
        let plan = with_threads(8, || CHEAP_MODEL.plan(4, 1));
        assert_eq!(plan.workers, 1);
    }

    #[test]
    fn huge_batches_fan_out_and_chunk() {
        // 1e6 items at ~100ns each = 100ms of work: far beyond any spawn
        // budget, so the plan uses every thread the *hardware* has, up to
        // the requested 4. On a single-core runner that is 1 — the requested
        // count must not leak through (that oversubscription was the 0.936×
        // attack_traces regression).
        let expected = 4.min(hardware_threads());
        let plan = with_threads(4, || TEST_MODEL.plan(1_000_000, 1));
        assert_eq!(plan.workers, expected);
        if expected > 1 {
            assert!(plan.claim_chunk > 1, "chunk {}", plan.claim_chunk);
            // Expensive items claim singly: 1 item ≥ the 20µs claim target.
            let plan = with_threads(4, || TEST_MODEL.plan(1_000, 1_000_000));
            assert_eq!(plan.claim_chunk, 1);
        } else {
            // Serial plans claim the whole range in one go.
            assert_eq!(plan.claim_chunk, 1_000_000);
        }
    }

    #[test]
    fn plans_never_oversubscribe_hardware() {
        // Even an absurd requested thread count caps at the machine.
        let plan = with_threads(64, || TEST_MODEL.plan(10_000_000, 1));
        assert!(
            plan.workers <= hardware_threads(),
            "plan spawned {} workers on {} hardware threads",
            plan.workers,
            hardware_threads()
        );
    }

    #[test]
    fn claim_chunks_size_from_cost_and_balance() {
        // Serial: one claim covering everything.
        assert_eq!(claim_chunk_for(100.0, 1_000, 1), 1_000);
        assert_eq!(claim_chunk_for(100.0, 0, 1), 1);
        // 100ns items, 20µs target → 200-item claims; balance cap allows it.
        assert_eq!(claim_chunk_for(100.0, 1_000_000, 4), 200);
        // Expensive items (1ms each) claim singly.
        assert_eq!(claim_chunk_for(1e6, 1_000, 4), 1);
        // Balance cap: claims shrink so each of 4 workers gets ≥4 claims.
        assert_eq!(claim_chunk_for(1.0, 64, 4), 4);
    }

    #[test]
    fn record_feeds_the_estimate() {
        static LEARNED: CostModel = CostModel::new("cost.learned", 1.0);
        LEARNED.record(1_000, 1, 1, Duration::from_millis(1));
        // 1ms / 1000 units = 1µs per unit.
        assert!((LEARNED.ns_per_unit() - 1_000.0).abs() < 1.0);
        // Second observation blends.
        LEARNED.record(1_000, 1, 1, Duration::from_millis(3));
        assert!((LEARNED.ns_per_unit() - 2_000.0).abs() < 1.0);
        assert_eq!(LEARNED.snapshot().calls, 2);
    }

    #[test]
    fn parallel_calls_book_their_serial_cost() {
        static PAIRED: CostModel = CostModel::new("cost.paired", 1.0);
        // 1ms of wall time on 2 workers is 2ms of work: 2µs per unit.
        PAIRED.record(1_000, 1, 2, Duration::from_millis(1));
        assert!((PAIRED.ns_per_unit() - 2_000.0).abs() < 1.0);
    }

    #[test]
    fn plan_record_plan_keeps_its_workers_at_the_boundary() {
        static BOUNDARY: CostModel = CostModel::new("cost.boundary", 1.0);
        // Serial work of 2.2 spawn budgets affords two workers; a 2-worker
        // call of it takes 0.7 of the serial time (an imperfect speed-up).
        // Booked as wall time, that call would read as 0.7 × 2.2 budgets and
        // the next plan would fall back to one worker.
        let count = 1_000;
        let serial = 2.2 * SPAWN_AMORTIZATION * spawn_cost_ns();
        BOUNDARY.record(count, 1, 1, Duration::from_secs_f64(serial * 1e-9));
        let first = with_threads(2, || BOUNDARY.plan(count, 1));
        assert_eq!(first.workers, 2.min(hardware_threads()));
        let wall = if first.workers > 1 {
            0.7 * serial
        } else {
            serial
        };
        BOUNDARY.record(
            count,
            1,
            first.workers,
            Duration::from_secs_f64(wall * 1e-9),
        );
        let second = with_threads(2, || BOUNDARY.plan(count, 1));
        assert_eq!(second.workers, first.workers);
    }

    #[test]
    fn plans_never_exceed_thread_cap_or_count() {
        for threads in [1, 2, 8] {
            for count in [0usize, 1, 7, 4096] {
                let plan = with_threads(threads, || TEST_MODEL.plan(count, 64));
                assert!(plan.workers >= 1 && plan.workers <= threads.max(1));
                assert!(plan.workers <= count.max(1));
                assert!(plan.claim_chunk >= 1);
            }
        }
    }

    #[test]
    fn spawn_cost_is_positive_and_cached() {
        let a = spawn_cost_ns();
        let b = spawn_cost_ns();
        assert!(a >= 1_000.0);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn registry_lists_used_models() {
        let _ = with_threads(2, || TEST_MODEL.plan(10, 1));
        let names: Vec<&str> = snapshots().iter().map(|s| s.name).collect();
        assert!(names.contains(&"cost.test"));
        // Registration is idempotent.
        let _ = with_threads(2, || TEST_MODEL.plan(10, 1));
        let again: Vec<&str> = snapshots().iter().map(|s| s.name).collect();
        assert_eq!(
            again.iter().filter(|n| **n == "cost.test").count(),
            1,
            "{again:?}"
        );
    }
}
