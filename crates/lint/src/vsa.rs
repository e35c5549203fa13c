//! Value-set analysis domain: small concrete sets and strided intervals.
//!
//! Every abstract value is one of three shapes, ordered by precision:
//!
//! - [`Value::Set`]: at most [`MAX_SET`] concrete 32-bit words — exact, the
//!   shape `li`/`lui` constants and small loop counters live in;
//! - [`Value::Interval`]: a strided interval `{lo, lo+stride, …, hi}` over
//!   the *signed* (sign-extended) reading of the word, the Reps-style hull
//!   a set collapses to when it outgrows [`MAX_SET`];
//! - [`Value::Top`]: any word.
//!
//! Joins take the set union while it stays small, otherwise the interval
//! hull with a gcd stride. [`Value::widen`] accelerates growing bounds to
//! the type extremes so fixpoints terminate; the analysis recovers precision
//! afterwards through branch-condition refinement ([`Value::clamp_signed`],
//! [`Value::remove`]), the classic widen-then-narrow split.
//!
//! The signed reading keeps the sampled noise (`[-21, 21]`) a compact
//! interval across its sign flip; high MMIO addresses such as `0xF000_0000`
//! stay exact because constants travel as singleton *sets* of raw words and
//! never round-trip through the signed hull.

use std::fmt;

/// Maximum cardinality a concrete set may reach before collapsing to its
/// interval hull.
pub const MAX_SET: usize = 8;

/// Least signed value of a 32-bit word.
const I32_LO: i64 = i32::MIN as i64;
/// Greatest signed value of a 32-bit word.
const I32_HI: i64 = i32::MAX as i64;

/// Sign-extended reading of a word — the canonical ordering the interval
/// shape uses.
#[inline]
pub fn signed(word: u32) -> i64 {
    i64::from(word as i32)
}

/// An element of the value-set lattice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// At most [`MAX_SET`] concrete words, sorted by unsigned value, deduped.
    Set(Vec<u32>),
    /// `{lo, lo + stride, …, hi}` under the signed reading; `lo < hi` and
    /// `stride ≥ 1` always (singletons normalize to `Set`).
    Interval {
        /// Least member (signed reading).
        lo: i64,
        /// Greatest member (signed reading).
        hi: i64,
        /// Distance between consecutive members.
        stride: u64,
    },
    /// Any 32-bit word.
    Top,
}

impl Value {
    /// The singleton holding exactly `word`.
    pub fn constant(word: u32) -> Value {
        Value::Set(vec![word])
    }

    /// An interval `[lo, hi]` with the given stride, normalized: empty →
    /// panic (callers use [`Value::clamp_signed`] for possibly-empty meets),
    /// singleton → `Set`, out-of-range bounds → `Top`.
    pub fn interval(lo: i64, hi: i64, stride: u64) -> Value {
        assert!(lo <= hi, "interval [{lo}, {hi}] is empty");
        if lo < I32_LO || hi > I32_HI {
            return Value::Top;
        }
        if lo == hi {
            return Value::constant(lo as u32);
        }
        let stride = stride.max(1);
        // Align hi down to the stride lattice anchored at lo.
        let span = (hi - lo) as u64;
        let hi = lo + (span - span % stride) as i64;
        if lo == hi {
            return Value::constant(lo as u32);
        }
        Value::Interval { lo, hi, stride }
    }

    /// The signed hull `[lo, hi]`, or `None` for `Top`.
    pub fn hull(&self) -> Option<(i64, i64)> {
        match self {
            Value::Set(vs) => {
                let mut lo = i64::MAX;
                let mut hi = i64::MIN;
                for &v in vs {
                    lo = lo.min(signed(v));
                    hi = hi.max(signed(v));
                }
                Some((lo, hi))
            }
            Value::Interval { lo, hi, .. } => Some((*lo, *hi)),
            Value::Top => None,
        }
    }

    /// Every concrete word, when the value is finite and has at most
    /// `limit` members. The workhorse of indirect-target resolution.
    pub fn concrete(&self, limit: usize) -> Option<Vec<u32>> {
        match self {
            Value::Set(vs) if vs.len() <= limit => Some(vs.clone()),
            Value::Interval { lo, hi, stride } => {
                let count = ((hi - lo) as u64 / stride) + 1;
                if count as usize > limit {
                    return None;
                }
                Some(
                    (0..count)
                        .map(|k| (lo + (k * stride) as i64) as u32)
                        .collect(),
                )
            }
            _ => None,
        }
    }

    /// Whether `word` may be a member (over-approximate: `true` unless the
    /// shape can prove otherwise).
    pub fn may_contain(&self, word: u32) -> bool {
        match self {
            Value::Set(vs) => vs.contains(&word),
            Value::Interval { lo, hi, stride } => {
                let v = signed(word);
                v >= *lo && v <= *hi && ((v - lo) as u64).is_multiple_of(*stride)
            }
            Value::Top => true,
        }
    }

    /// The bits that can differ between members: `OR ^ AND` for sets, the
    /// low bits below the hull's highest differing bit for intervals (full
    /// mask when the hull crosses a sign flip), everything for `Top`.
    ///
    /// Taint masks are intersected with this, so a value the VSA proves
    /// constant cannot leak no matter where its bits came from.
    pub fn varying_bits(&self) -> u32 {
        match self {
            Value::Set(vs) => {
                let ones = vs.iter().fold(0u32, |acc, &v| acc | v);
                let all = vs.iter().fold(u32::MAX, |acc, &v| acc & v);
                ones ^ all
            }
            Value::Interval { lo, hi, .. } => {
                if *lo < 0 && *hi >= 0 {
                    return u32::MAX;
                }
                let x = (*lo as u32) ^ (*hi as u32);
                if x == 0 {
                    0
                } else {
                    u32::MAX >> x.leading_zeros()
                }
            }
            Value::Top => u32::MAX,
        }
    }

    /// Least upper bound.
    #[must_use]
    pub fn join(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Top, _) | (_, Value::Top) => Value::Top,
            (Value::Set(a), Value::Set(b)) => {
                let mut union = a.clone();
                for &v in b {
                    if !union.contains(&v) {
                        union.push(v);
                    }
                }
                if union.len() <= MAX_SET {
                    union.sort_unstable();
                    Value::Set(union)
                } else {
                    hull_join(self, other)
                }
            }
            _ => hull_join(self, other),
        }
    }

    /// Widening: like join, but bounds that grew since `self` (the previous
    /// state) accelerate straight to the type extremes. Guarantees
    /// termination: after widening each bound changes at most once more and
    /// the stride only shrinks along a divisor chain.
    #[must_use]
    pub fn widen(&self, next: &Value, thresholds: &[i64]) -> Value {
        let joined = self.join(next);
        if joined == *self {
            return joined;
        }
        let (Some((prev_lo, prev_hi)), Some((lo, hi))) = (self.hull(), joined.hull()) else {
            return Value::Top;
        };
        // Growing sets below the cardinality cap are still exact — let them
        // accumulate; the cap bounds that chain.
        if matches!(joined, Value::Set(_)) {
            return joined;
        }
        // Widening with thresholds: a growing bound jumps to the nearest
        // program constant past it before giving up and going to the i32
        // extreme. Loop bounds are program constants, so counters settle at
        // e.g. `[0, n]` instead of `[0, i32::MAX]` — which matters because
        // an extreme bound makes the next increment wrap to `Top` and every
        // address computed from it unresolvable.
        let lo = if lo < prev_lo {
            thresholds
                .iter()
                .rev()
                .copied()
                .find(|&t| t <= lo)
                .unwrap_or(I32_LO)
        } else {
            lo
        };
        let hi = if hi > prev_hi {
            thresholds
                .iter()
                .copied()
                .find(|&t| t >= hi)
                .unwrap_or(I32_HI)
        } else {
            hi
        };
        let stride = match joined {
            Value::Interval { stride, .. } => stride,
            _ => 1,
        };
        Value::interval(lo, hi, stride)
    }

    /// Meet with the signed constraint `lo_bound ≤ v ≤ hi_bound`; `None`
    /// when the meet is empty (the refining edge is infeasible).
    pub fn clamp_signed(&self, lo_bound: i64, hi_bound: i64) -> Option<Value> {
        if lo_bound > hi_bound {
            return None;
        }
        match self {
            Value::Set(vs) => {
                let kept: Vec<u32> = vs
                    .iter()
                    .copied()
                    .filter(|&v| signed(v) >= lo_bound && signed(v) <= hi_bound)
                    .collect();
                if kept.is_empty() {
                    None
                } else {
                    Some(Value::Set(kept))
                }
            }
            Value::Interval { lo, hi, stride } => {
                let mut new_lo = (*lo).max(lo_bound);
                let mut new_hi = (*hi).min(hi_bound);
                if new_lo > new_hi {
                    return None;
                }
                // Snap to the stride lattice anchored at the original lo.
                let stride_i = *stride as i64;
                let up = (new_lo - lo).rem_euclid(stride_i);
                if up != 0 {
                    new_lo += stride_i - up;
                }
                new_hi -= (new_hi - lo).rem_euclid(stride_i);
                if new_lo > new_hi {
                    return None;
                }
                Some(Value::interval(new_lo, new_hi, *stride))
            }
            Value::Top => Some(Value::interval(
                lo_bound.max(I32_LO),
                hi_bound.min(I32_HI),
                1,
            )),
        }
    }

    /// Meet with `v ≠ word`: drops the member from sets, trims matching
    /// interval endpoints. `None` when the value was exactly `word`.
    pub fn remove(&self, word: u32) -> Option<Value> {
        match self {
            Value::Set(vs) => {
                let kept: Vec<u32> = vs.iter().copied().filter(|&v| v != word).collect();
                if kept.is_empty() {
                    None
                } else {
                    Some(Value::Set(kept))
                }
            }
            Value::Interval { lo, hi, stride } => {
                let w = signed(word);
                if w == *lo {
                    Some(Value::interval(lo + *stride as i64, *hi, *stride))
                } else if w == *hi {
                    Some(Value::interval(*lo, hi - *stride as i64, *stride))
                } else {
                    Some(self.clone())
                }
            }
            Value::Top => Some(Value::Top),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Set(vs) => {
                write!(f, "{{")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v:#x}")?;
                }
                write!(f, "}}")
            }
            Value::Interval { lo, hi, stride } => write!(f, "[{lo}, {hi}]/{stride}"),
            Value::Top => write!(f, "⊤"),
        }
    }
}

/// Interval hull of two finite values with a gcd stride.
fn hull_join(a: &Value, b: &Value) -> Value {
    let (Some((alo, ahi)), Some((blo, bhi))) = (a.hull(), b.hull()) else {
        return Value::Top;
    };
    let lo = alo.min(blo);
    let hi = ahi.max(bhi);
    let stride = gcd(gcd(stride_of(a), stride_of(b)), (blo - alo).unsigned_abs());
    Value::interval(lo, hi, stride.max(1))
}

/// The stride a value contributes to a hull: interval strides survive,
/// sets contribute the gcd of member gaps.
fn stride_of(v: &Value) -> u64 {
    match v {
        Value::Interval { stride, .. } => *stride,
        Value::Set(vs) if vs.len() >= 2 => {
            let mut signed_vs: Vec<i64> = vs.iter().map(|&v| signed(v)).collect();
            signed_vs.sort_unstable();
            signed_vs
                .windows(2)
                .fold(0, |acc, w| gcd(acc, (w[1] - w[0]).unsigned_abs()))
        }
        _ => 0,
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Evaluates a binary ALU operation over the domain.
#[must_use]
pub fn eval_binop(op: reveal_rv32::AluOp, a: &Value, b: &Value) -> Value {
    use reveal_rv32::AluOp;
    // Exact cartesian evaluation while both sides are small sets.
    if let (Value::Set(xs), Value::Set(ys)) = (a, b) {
        if xs.len() * ys.len() <= MAX_SET * MAX_SET {
            let mut out: Vec<u32> = Vec::with_capacity(xs.len() * ys.len());
            for &x in xs {
                for &y in ys {
                    let v = eval_concrete(op, x, y);
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
            out.sort_unstable();
            if out.len() <= MAX_SET {
                return Value::Set(out);
            }
            let non_empty = "a set wider than MAX_SET is non-empty";
            let lo = out.iter().map(|&v| signed(v)).min().expect(non_empty);
            let hi = out.iter().map(|&v| signed(v)).max().expect(non_empty);
            let stride = stride_of(&Value::Set(out));
            return Value::interval(lo, hi, stride.max(1));
        }
    }
    let single = |v: &Value| -> Option<u32> {
        match v {
            Value::Set(vs) if vs.len() == 1 => Some(vs[0]),
            _ => None,
        }
    };
    match op {
        AluOp::Add => interval_add(a, b),
        AluOp::Sub => interval_sub(a, b),
        AluOp::And => {
            // `x & c` with `c ≥ 0` lands in `[0, c]` whatever `x` is.
            let c = single(a).or_else(|| single(b));
            match c {
                Some(c) if (c as i32) >= 0 => Value::interval(0, i64::from(c), 1),
                _ => match (a.hull(), b.hull()) {
                    // Both non-negative: the result cannot exceed either.
                    (Some((alo, ahi)), Some((blo, bhi))) if alo >= 0 && blo >= 0 => {
                        Value::interval(0, ahi.min(bhi), 1)
                    }
                    _ => Value::Top,
                },
            }
        }
        AluOp::Or | AluOp::Xor => match (a.hull(), b.hull()) {
            // Non-negative operands: or/xor stays below the next power of
            // two above both hulls.
            (Some((alo, ahi)), Some((blo, bhi))) if alo >= 0 && blo >= 0 => {
                let bound = next_pow2_minus_1(ahi.max(bhi));
                Value::interval(0, bound, 1)
            }
            _ => Value::Top,
        },
        AluOp::Sll => match single(b) {
            Some(k) => shift_left(a, k & 31),
            None => Value::Top,
        },
        AluOp::Srl => match (single(b), a.hull()) {
            (Some(k), Some((lo, _))) if lo >= 0 => shift_right_signed(a, k & 31),
            (Some(k), _) if k & 31 != 0 => {
                // A nonzero logical shift of any word is non-negative.
                Value::interval(0, (1i64 << (32 - (k & 31))) - 1, 1)
            }
            _ => Value::Top,
        },
        AluOp::Sra => match single(b) {
            Some(k) => shift_right_signed(a, k & 31),
            None => Value::Top,
        },
        AluOp::Slt | AluOp::Sltu => Value::interval(0, 1, 1),
    }
}

/// Evaluates an M-extension operation over the domain.
#[must_use]
pub fn eval_muldiv(op: reveal_rv32::MulOp, a: &Value, b: &Value) -> Value {
    if let (Value::Set(xs), Value::Set(ys)) = (a, b) {
        if xs.len() * ys.len() <= MAX_SET {
            let mut out: Vec<u32> = Vec::new();
            for &x in xs {
                for &y in ys {
                    let v = eval_muldiv_concrete(op, x, y);
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
            out.sort_unstable();
            return Value::Set(out);
        }
    }
    match op {
        // Non-negative bounded multiply keeps an interval when it fits.
        reveal_rv32::MulOp::Mul => match (a.hull(), b.hull()) {
            (Some((alo, ahi)), Some((blo, bhi))) if alo >= 0 && blo >= 0 && ahi * bhi <= I32_HI => {
                Value::interval(alo * blo, ahi * bhi, 1)
            }
            _ => Value::Top,
        },
        _ => Value::Top,
    }
}

fn eval_concrete(op: reveal_rv32::AluOp, a: u32, b: u32) -> u32 {
    use reveal_rv32::AluOp;
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Slt => u32::from((a as i32) < (b as i32)),
        AluOp::Sltu => u32::from(a < b),
        AluOp::Xor => a ^ b,
        AluOp::Or => a | b,
        AluOp::And => a & b,
        AluOp::Sll => a.wrapping_shl(b & 31),
        AluOp::Srl => a.wrapping_shr(b & 31),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
    }
}

fn eval_muldiv_concrete(op: reveal_rv32::MulOp, x: u32, y: u32) -> u32 {
    use reveal_rv32::MulOp;
    match op {
        MulOp::Mul => x.wrapping_mul(y),
        MulOp::Mulh => ((i64::from(x as i32) * i64::from(y as i32)) >> 32) as u32,
        MulOp::Mulhsu => ((i64::from(x as i32) * i64::from(y)) >> 32) as u32,
        MulOp::Mulhu => ((u64::from(x) * u64::from(y)) >> 32) as u32,
        MulOp::Div if y != 0 => (x as i32).wrapping_div(y as i32) as u32,
        MulOp::Divu if y != 0 => x / y,
        MulOp::Rem if y != 0 => (x as i32).wrapping_rem(y as i32) as u32,
        MulOp::Remu if y != 0 => x % y,
        // RISC-V defines division by zero (all-ones / dividend); model it.
        MulOp::Div | MulOp::Divu => u32::MAX,
        MulOp::Rem | MulOp::Remu => x,
    }
}

fn interval_add(a: &Value, b: &Value) -> Value {
    let (Some((alo, ahi)), Some((blo, bhi))) = (a.hull(), b.hull()) else {
        return Value::Top;
    };
    let lo = alo + blo;
    let hi = ahi + bhi;
    if lo < I32_LO || hi > I32_HI {
        return Value::Top;
    }
    Value::interval(lo, hi, gcd(stride_of(a), stride_of(b)).max(1))
}

fn interval_sub(a: &Value, b: &Value) -> Value {
    let (Some((alo, ahi)), Some((blo, bhi))) = (a.hull(), b.hull()) else {
        return Value::Top;
    };
    let lo = alo - bhi;
    let hi = ahi - blo;
    if lo < I32_LO || hi > I32_HI {
        return Value::Top;
    }
    Value::interval(lo, hi, gcd(stride_of(a), stride_of(b)).max(1))
}

fn shift_left(a: &Value, k: u32) -> Value {
    let Some((lo, hi)) = a.hull() else {
        return Value::Top;
    };
    let new_lo = lo << k;
    let new_hi = hi << k;
    if new_lo < I32_LO || new_hi > I32_HI {
        return Value::Top;
    }
    Value::interval(new_lo, new_hi, (stride_of(a).max(1)) << k)
}

fn shift_right_signed(a: &Value, k: u32) -> Value {
    let Some((lo, hi)) = a.hull() else {
        return Value::Top;
    };
    Value::interval(lo >> k, hi >> k, 1)
}

fn next_pow2_minus_1(v: i64) -> i64 {
    let mut bound: i64 = 1;
    while bound - 1 < v && bound < (1i64 << 32) {
        bound <<= 1;
    }
    bound - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use reveal_rv32::AluOp;

    #[test]
    fn constants_stay_exact_sets() {
        let mmio = Value::constant(0xF000_0000);
        assert_eq!(mmio.concrete(8), Some(vec![0xF000_0000]));
        assert_eq!(mmio.varying_bits(), 0);
        let off = eval_binop(AluOp::Add, &mmio, &Value::constant(8));
        assert_eq!(off, Value::constant(0xF000_0008));
    }

    #[test]
    fn join_unions_until_cap_then_hulls() {
        let mut v = Value::constant(0);
        for i in 1..(MAX_SET as u32) {
            v = v.join(&Value::constant(4 * i));
        }
        assert!(matches!(&v, Value::Set(vs) if vs.len() == MAX_SET));
        let overflowed = v.join(&Value::constant(4 * MAX_SET as u32));
        match overflowed {
            Value::Interval { lo, hi, stride } => {
                assert_eq!((lo, hi, stride), (0, 4 * MAX_SET as i64, 4));
            }
            other => panic!("expected hull, got {other:?}"),
        }
    }

    #[test]
    fn widen_accelerates_growing_bounds() {
        let prev = Value::interval(0, 100, 1);
        let grown = Value::interval(0, 200, 1);
        let widened = prev.widen(&grown, &[]);
        assert_eq!(widened.hull(), Some((0, I32_HI)), "hi grew → extreme");
        // Stable state widens to itself.
        assert_eq!(widened.widen(&widened, &[]), widened);
    }

    #[test]
    fn widen_jumps_to_the_nearest_threshold_first() {
        let prev = Value::interval(0, 8, 1);
        let grown = Value::interval(0, 12, 1);
        let thresholds = [0, 57, 1024];
        let widened = prev.widen(&grown, &thresholds);
        assert_eq!(widened.hull(), Some((0, 57)), "hi snaps to threshold 57");
        // A bound past every threshold still escapes to the extreme.
        let grown = Value::interval(-5, 2048, 1);
        let widened = Value::interval(0, 57, 1).widen(&grown, &thresholds);
        assert_eq!(widened.hull(), Some((I32_LO, I32_HI)));
    }

    #[test]
    fn clamp_narrows_after_widening() {
        let wide = Value::interval(0, I32_HI, 1);
        let narrowed = wide.clamp_signed(0, 7).unwrap();
        assert_eq!(narrowed.hull(), Some((0, 7)));
        assert!(wide.clamp_signed(-5, -1).is_none(), "empty meet");
    }

    #[test]
    fn clamp_respects_stride_lattice() {
        let v = Value::interval(0, 40, 4);
        let clamped = v.clamp_signed(3, 17).unwrap();
        assert_eq!(clamped.hull(), Some((4, 16)));
        assert!(clamped.may_contain(8));
        assert!(!clamped.may_contain(6));
    }

    #[test]
    fn varying_bits_tracks_sign_and_magnitude() {
        // The noise value after clipping: sign flip ⇒ every bit can differ.
        let noise = Value::interval(-21, 21, 1);
        assert_eq!(noise.varying_bits(), u32::MAX);
        // Refined to the negative arm and negated: only low bits differ.
        let mag = Value::interval(1, 21, 1);
        assert_eq!(mag.varying_bits(), 0x1F);
        // A q-relative residue keeps its high bits fixed (the hull spans
        // the carry out of bit 21, so everything below it may flip, but
        // bits 22+ are provably constant).
        let q = 132_120_577i64;
        let residue = Value::interval(q - 21, q - 1, 1);
        assert_eq!(residue.varying_bits() & 0xFFC0_0000, 0);
    }

    #[test]
    fn sub_flips_a_bounded_interval() {
        // `sub t2, zero, t2` with t2 ∈ [-21, -1]: exact negation.
        let neg = Value::interval(-21, -1, 1);
        let negated = eval_binop(AluOp::Sub, &Value::constant(0), &neg);
        assert_eq!(negated.hull(), Some((1, 21)));
    }

    #[test]
    fn and_with_mask_bounds_the_result() {
        let top = Value::Top;
        let masked = eval_binop(AluOp::And, &top, &Value::constant(0xFF));
        assert_eq!(masked.hull(), Some((0, 255)));
    }

    #[test]
    fn shifts_scale_strides() {
        let idx = Value::interval(0, 7, 1);
        let scaled = eval_binop(AluOp::Sll, &idx, &Value::constant(2));
        match scaled {
            Value::Interval { lo, hi, stride } => assert_eq!((lo, hi, stride), (0, 28, 4)),
            other => panic!("expected strided interval, got {other:?}"),
        }
        let back = eval_binop(AluOp::Sra, &scaled, &Value::constant(2));
        assert_eq!(back.hull(), Some((0, 7)));
    }

    #[test]
    fn concrete_enumerates_small_intervals() {
        let v = Value::interval(0x100, 0x10C, 4);
        assert_eq!(v.concrete(8), Some(vec![0x100, 0x104, 0x108, 0x10C]));
        assert_eq!(v.concrete(2), None);
        assert_eq!(Value::Top.concrete(8), None);
    }

    #[test]
    fn remove_trims_endpoints() {
        let v = Value::interval(0, 8, 1);
        let trimmed = v.remove(8).unwrap();
        assert_eq!(trimmed.hull(), Some((0, 7)));
        assert_eq!(Value::constant(3).remove(3), None);
    }

    #[test]
    fn division_by_zero_is_defined_not_top() {
        let q = eval_muldiv(
            reveal_rv32::MulOp::Divu,
            &Value::constant(7),
            &Value::constant(0),
        );
        assert_eq!(q, Value::constant(u32::MAX));
    }

    #[test]
    fn join_is_commutative_and_idempotent_on_samples() {
        let samples = [
            Value::constant(0),
            Value::constant(0xF000_0000),
            Value::interval(0, 100, 4),
            Value::interval(-21, 21, 1),
            Value::Top,
            Value::Set(vec![1, 5, 9]),
        ];
        for a in &samples {
            assert_eq!(a.join(a), *a, "idempotent: {a}");
            for b in &samples {
                let ab = a.join(b);
                let ba = b.join(a);
                assert_eq!(ab, ba, "commutative: {a} vs {b}");
                // The join is an upper bound of both.
                if let (Some((lo, hi)), Some((alo, ahi))) = (ab.hull(), a.hull()) {
                    assert!(lo <= alo && hi >= ahi);
                }
            }
        }
    }
}
