//! Collection strategies (`vec`).

use crate::strategy::Strategy;
use crate::test_runner::Gen;
use std::ops::{Range, RangeInclusive};

/// The permitted lengths of a generated collection: `[lo, hi)`.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            lo: *r.start(),
            hi: r.end() + 1,
        }
    }
}

/// Generates `Vec`s whose elements come from `element` and whose lengths
/// fall in `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, gen: &mut Gen) -> Vec<S::Value> {
        let span = (self.size.hi - self.size.lo) as u64;
        let len = self.size.lo
            + if span <= 1 {
                0
            } else {
                gen.below_u64(span) as usize
            };
        (0..len).map(|_| self.element.generate(gen)).collect()
    }
}
