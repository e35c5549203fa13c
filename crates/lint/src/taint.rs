//! The abstract machine state: VSA values ([`crate::vsa::Value`]) paired
//! with bit-level taint masks.
//!
//! [`Taint`] refines the old boolean lattice into a per-bit mask: bit `i`
//! of `mask` is set when bit `i` of the value may depend on a secret. The
//! lowest-PC source is kept as the diagnostic anchor. The *effective*
//! taint at a use site is `mask & value.varying_bits()` — a bit the VSA
//! proves constant cannot leak, however it was computed. This is what lets
//! the certifier score the negative ladder arm (magnitude bits only,
//! `0x1F`) lower than the pre-branch sign test (full mask).
//!
//! Memory is a map from *address intervals* to stored (value, taint)
//! summaries. Stores through interval-shaped pointers land on their whole
//! range; loads join every overlapping region. This is coarser than a
//! byte-accurate heap but sound under the interval churn of widening, and
//! precise enough to keep the kernels' disjoint buffers (`q` table, poly
//! output, share buffers) from aliasing.

use std::collections::BTreeMap;

use reveal_rv32::Reg;

use crate::vsa::Value;

/// Per-bit secret influence plus a representative origin PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Taint {
    /// Bit `i` set ⇒ bit `i` of the value may depend on a secret.
    pub mask: u32,
    /// Lowest PC of a contributing secret source (diagnostic anchor).
    origin: Option<u32>,
}

impl Taint {
    /// An untainted value.
    pub const CLEAN: Taint = Taint {
        mask: 0,
        origin: None,
    };

    /// A value read directly by the secret source at `pc`: every bit
    /// suspect.
    pub fn source(pc: u32) -> Taint {
        Taint {
            mask: u32::MAX,
            origin: Some(pc),
        }
    }

    /// A taint with the same origin but a different mask; clean when the
    /// mask is empty.
    #[must_use]
    pub fn with_mask(self, mask: u32) -> Taint {
        if mask == 0 {
            Taint::CLEAN
        } else {
            Taint { mask, ..self }
        }
    }

    /// Least upper bound: union of masks, lowest origin.
    #[must_use]
    pub fn join(self, other: Taint) -> Taint {
        let origin = match (self.origin, other.origin) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) | (None, Some(a)) => Some(a),
            (None, None) => None,
        };
        let mask = self.mask | other.mask;
        if mask == 0 {
            Taint::CLEAN
        } else {
            Taint { mask, origin }
        }
    }

    /// Whether any bit carries secret influence.
    pub fn is_tainted(self) -> bool {
        self.mask != 0
    }

    /// PC of the representative secret source, if tainted.
    pub fn origin(self) -> Option<u32> {
        if self.mask == 0 {
            None
        } else {
            self.origin
        }
    }

    /// Carry-spread: arithmetic (`add`/`sub`/`mul`) propagates a tainted
    /// bit into every bit above it.
    #[must_use]
    pub fn spread_up(self) -> Taint {
        if self.mask == 0 {
            return Taint::CLEAN;
        }
        self.with_mask(u32::MAX << self.mask.trailing_zeros())
    }
}

/// One register's abstract state: a VSA value and its taint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegVal {
    /// Value-set lattice element.
    pub val: Value,
    /// Bit-taint lattice element.
    pub taint: Taint,
}

impl RegVal {
    /// Unknown and clean — the entry state of every register.
    pub fn top_clean() -> RegVal {
        RegVal {
            val: Value::Top,
            taint: Taint::CLEAN,
        }
    }

    /// A known-constant, clean register.
    pub fn constant(word: u32) -> RegVal {
        RegVal {
            val: Value::constant(word),
            taint: Taint::CLEAN,
        }
    }

    /// The taint that actually matters at a use site: declared mask
    /// intersected with the bits the value can vary in.
    pub fn effective_taint(&self) -> Taint {
        self.taint
            .with_mask(self.taint.mask & self.val.varying_bits())
    }
}

/// A stored-memory summary over one address interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemRegion {
    /// Join of every value stored into the interval.
    pub val: Value,
    /// Join of every taint stored into the interval.
    pub taint: Taint,
}

/// The abstract machine state at one program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    /// Per-register state; index = register number. `x0` is pinned to
    /// constant 0 / clean by [`State::set_reg`].
    pub regs: Vec<RegVal>,
    /// Stored-memory summaries keyed by unsigned address interval
    /// `(lo, hi)` (inclusive). Disjoint keys don't alias; overlapping keys
    /// are joined on load. Updates are weak.
    pub mem: BTreeMap<(u32, u32), MemRegion>,
    /// Join of every store whose address the VSA lost entirely; folds into
    /// every load.
    pub unknown_store: Taint,
}

impl State {
    /// The state at program entry: registers unknown-but-clean, memory
    /// untouched.
    pub fn entry() -> State {
        let mut regs = vec![RegVal::top_clean(); 32];
        regs[0] = RegVal::constant(0);
        State {
            regs,
            mem: BTreeMap::new(),
            unknown_store: Taint::CLEAN,
        }
    }

    /// Reads a register (always constant 0 / clean for `x0`).
    pub fn reg(&self, r: Reg) -> &RegVal {
        &self.regs[r.0 as usize]
    }

    /// Writes a register; writes to `x0` are discarded.
    pub fn set_reg(&mut self, r: Reg, v: RegVal) {
        if r != Reg::ZERO {
            self.regs[r.0 as usize] = v;
        }
    }

    /// The unsigned address interval a memory access through `base` +
    /// `offset` covering `width` bytes may touch; `None` when the VSA has
    /// no bound on the pointer.
    pub fn addr_interval(base: &Value, offset: i32, width: u32) -> Option<(u32, u32)> {
        let (lo, hi) = base.hull()?;
        let lo = (lo as u32).wrapping_add(offset as u32);
        let hi = (hi as u32).wrapping_add(offset as u32) + (width - 1);
        // A hull that wraps the unsigned space (e.g. a sign-crossing
        // interval) covers everything — treat as unknown.
        if lo > hi {
            return None;
        }
        Some((lo, hi))
    }

    /// What a load from `range` observes: the join of every overlapping
    /// region plus the unknown-store summary. Untouched memory reads as
    /// top/clean (inputs are modeled via explicit load bounds, not here).
    pub fn load(&self, range: Option<(u32, u32)>) -> (Value, Taint) {
        let mut taint = self.unknown_store;
        let mut val: Option<Value> = None;
        let mut overlapping = 0usize;
        if let Some((lo, hi)) = range {
            for (&(rlo, rhi), region) in &self.mem {
                if rlo <= hi && lo <= rhi {
                    taint = taint.join(region.taint);
                    val = Some(match val {
                        Some(v) => v.join(&region.val),
                        None => region.val.clone(),
                    });
                    overlapping += 1;
                }
            }
            // The load may also read bytes no store covered (top), or
            // multiple regions; only a load fully inside a single
            // region keeps that region's value.
            if overlapping == 1 {
                let only = self
                    .mem
                    .iter()
                    .find(|(&(rlo, rhi), _)| rlo <= hi && lo <= rhi)
                    .map(|(&k, _)| k)
                    .expect("exactly one region overlaps the load");
                if !(only.0 <= lo && hi <= only.1) {
                    val = None;
                }
            } else if overlapping > 1 {
                val = None;
            }
        } else {
            for region in self.mem.values() {
                taint = taint.join(region.taint);
            }
            val = None;
        }
        (val.unwrap_or(Value::Top), taint)
    }

    /// Records a store of (`val`, `taint`) to `range` (weak update; `None`
    /// = unknown address, poisons everything).
    pub fn store(&mut self, range: Option<(u32, u32)>, val: &Value, taint: Taint) {
        match range {
            Some(key) => {
                let entry = self.mem.entry(key).or_insert(MemRegion {
                    val: val.clone(),
                    taint,
                });
                entry.val = entry.val.join(val);
                entry.taint = entry.taint.join(taint);
            }
            None => self.unknown_store = self.unknown_store.join(taint),
        }
    }

    /// Joins `other` into `self`; returns whether anything changed.
    pub fn join_from(&mut self, other: &State) -> bool {
        self.merge_from(other, None)
    }

    /// Widening join: like [`State::join_from`] but register values use
    /// [`Value::widen`], accelerating loop-carried growth to a fixpoint.
    pub fn widen_from(&mut self, other: &State, thresholds: &[i64]) -> bool {
        self.merge_from(other, Some(thresholds))
    }

    fn merge_from(&mut self, other: &State, widen: Option<&[i64]>) -> bool {
        let mut changed = false;
        for i in 0..32 {
            let new_val = if let Some(thresholds) = widen {
                self.regs[i].val.widen(&other.regs[i].val, thresholds)
            } else {
                self.regs[i].val.join(&other.regs[i].val)
            };
            let new_taint = self.regs[i].taint.join(other.regs[i].taint);
            if new_val != self.regs[i].val || new_taint != self.regs[i].taint {
                self.regs[i] = RegVal {
                    val: new_val,
                    taint: new_taint,
                };
                changed = true;
            }
        }
        for (&key, region) in &other.mem {
            if let Some(existing) = self.mem.get_mut(&key) {
                let val = existing.val.join(&region.val);
                let taint = existing.taint.join(region.taint);
                if val != existing.val || taint != existing.taint {
                    existing.val = val;
                    existing.taint = taint;
                    changed = true;
                }
            } else {
                self.mem.insert(key, region.clone());
                changed = true;
            }
        }
        let joined = self.unknown_store.join(other.unknown_store);
        if joined != self.unknown_store {
            self.unknown_store = joined;
            changed = true;
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vsa::Value;

    #[test]
    fn taint_join_unions_masks_and_keeps_lowest_origin() {
        let a = Taint::source(8).with_mask(0x0F);
        let b = Taint::source(4).with_mask(0xF0);
        let ab = a.join(b);
        assert_eq!(ab.mask, 0xFF);
        assert_eq!(ab.origin(), Some(4));
        assert!(!Taint::CLEAN.join(Taint::CLEAN).is_tainted());
    }

    #[test]
    fn with_mask_zero_is_clean() {
        let t = Taint::source(16).with_mask(0);
        assert!(!t.is_tainted());
        assert_eq!(t.origin(), None);
    }

    #[test]
    fn spread_up_models_carries() {
        let t = Taint::source(0).with_mask(0b100);
        assert_eq!(t.spread_up().mask, u32::MAX << 2);
        assert!(!Taint::CLEAN.spread_up().is_tainted());
    }

    #[test]
    fn effective_taint_is_cut_by_the_value() {
        // Fully tainted bits, but the VSA knows the value is one of {0, 1}:
        // only bit 0 can actually leak.
        let rv = RegVal {
            val: Value::interval(0, 1, 1),
            taint: Taint::source(0),
        };
        assert_eq!(rv.effective_taint().mask, 0b1);
        // A proven constant cannot leak at all.
        let konst = RegVal {
            val: Value::constant(42),
            taint: Taint::source(0),
        };
        assert!(!konst.effective_taint().is_tainted());
    }

    #[test]
    fn disjoint_regions_do_not_alias() {
        let mut s = State::entry();
        s.store(
            Some((0x3000, 0x3003)),
            &Value::constant(1),
            Taint::source(0),
        );
        let (_, clean) = s.load(Some((0x4000, 0x4003)));
        assert!(!clean.is_tainted());
        let (_, hot) = s.load(Some((0x3000, 0x3003)));
        assert!(hot.is_tainted());
    }

    #[test]
    fn overlapping_regions_join_on_load() {
        let mut s = State::entry();
        s.store(
            Some((0x2000, 0x20FF)),
            &Value::constant(5),
            Taint::source(8),
        );
        // A load through an interval pointer that clips the region edge.
        let (val, taint) = s.load(Some((0x20F0, 0x2103)));
        assert!(taint.is_tainted());
        // Partially-covered load can see uninitialized bytes: value is top.
        assert_eq!(val, Value::Top);
        // Fully-inside load keeps the stored value.
        let (val, _) = s.load(Some((0x2004, 0x2007)));
        assert_eq!(val, Value::constant(5));
    }

    #[test]
    fn unknown_store_poisons_every_load() {
        let mut s = State::entry();
        s.store(None, &Value::Top, Taint::source(16));
        assert!(s.load(Some((0x1000, 0x1003))).1.is_tainted());
        assert!(s.load(None).1.is_tainted());
    }

    #[test]
    fn x0_stays_pinned() {
        let mut s = State::entry();
        s.set_reg(
            Reg::ZERO,
            RegVal {
                val: Value::Top,
                taint: Taint::source(0),
            },
        );
        assert_eq!(s.reg(Reg::ZERO).val, Value::constant(0));
        assert!(!s.reg(Reg::ZERO).taint.is_tainted());
    }

    #[test]
    fn widen_from_converges_on_loop_growth() {
        let mut head = State::entry();
        head.set_reg(Reg(5), RegVal::constant(0));
        // Simulate iterations feeding back t0+4 each trip.
        let mut trips = 0;
        loop {
            let mut body = head.clone();
            let cur = body.reg(Reg(5)).val.clone();
            body.set_reg(
                Reg(5),
                RegVal {
                    val: crate::vsa::eval_binop(reveal_rv32::AluOp::Add, &cur, &Value::constant(4)),
                    taint: Taint::CLEAN,
                },
            );
            if !head.widen_from(&body, &[]) {
                break;
            }
            trips += 1;
            assert!(trips < 32, "widening must converge quickly");
        }
        // Unbounded growth converges: the set enumerates, the hull widens
        // to the extreme, and the post-widening overflow collapses to Top.
        match &head.reg(Reg(5)).val {
            Value::Top => {}
            other => panic!("expected Top after widened overflow, got {other:?}"),
        }
    }

    #[test]
    fn addr_interval_handles_widths_and_wraps() {
        let p = Value::interval(0x1000, 0x10FC, 4);
        assert_eq!(State::addr_interval(&p, 0, 4), Some((0x1000, 0x10FF)));
        assert_eq!(State::addr_interval(&p, 8, 1), Some((0x1008, 0x1104)));
        // Sign-crossing hull wraps unsigned space: unknown.
        let wild = Value::interval(-4, 4, 1);
        assert_eq!(State::addr_interval(&wild, 0, 4), None);
        assert_eq!(State::addr_interval(&Value::Top, 0, 4), None);
    }
}
