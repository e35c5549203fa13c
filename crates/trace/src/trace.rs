//! Power-trace containers and basic transformations.

use std::fmt;

/// A single power trace: a sequence of samples with an optional label
/// (the known secret during profiling, `None` during the attack).
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    samples: Vec<f64>,
    label: Option<i64>,
}

impl Trace {
    /// Creates an unlabelled trace.
    pub fn new(samples: Vec<f64>) -> Self {
        Self {
            samples,
            label: None,
        }
    }

    /// Creates a labelled trace (profiling data).
    pub fn labelled(samples: Vec<f64>, label: i64) -> Self {
        Self {
            samples,
            label: Some(label),
        }
    }

    /// The samples.
    #[inline]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Mutable samples.
    #[inline]
    pub fn samples_mut(&mut self) -> &mut [f64] {
        &mut self.samples
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The profiling label, if any.
    #[inline]
    pub fn label(&self) -> Option<i64> {
        self.label
    }

    /// Linearly resamples to `target_len` samples (used to normalize
    /// variable-duration segments before template matching).
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or `target_len == 0`.
    pub fn resample(&self, target_len: usize) -> Trace {
        Trace {
            samples: resample_linear(&self.samples, target_len),
            label: self.label,
        }
    }

    /// Extracts the values at the given sample indices (POI projection).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn project(&self, indices: &[usize]) -> Vec<f64> {
        indices.iter().map(|&i| self.samples[i]).collect()
    }
}

/// Linear-interpolation resampling of a sample vector.
///
/// # Panics
///
/// Panics if either length is zero.
pub fn resample_linear(samples: &[f64], target_len: usize) -> Vec<f64> {
    assert!(!samples.is_empty(), "cannot resample an empty trace");
    assert!(target_len > 0, "target length must be positive");
    if samples.len() == 1 {
        return vec![samples[0]; target_len];
    }
    if target_len == 1 {
        return vec![samples[0]];
    }
    let scale = (samples.len() - 1) as f64 / (target_len - 1) as f64;
    (0..target_len)
        .map(|i| {
            let x = i as f64 * scale;
            let lo = x.floor() as usize;
            let hi = (lo + 1).min(samples.len() - 1);
            let frac = x - lo as f64;
            samples[lo] * (1.0 - frac) + samples[hi] * frac
        })
        .collect()
}

/// A collection of equal-length traces (after windowing/resampling), the
/// unit templates are trained on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSet {
    traces: Vec<Trace>,
}

impl TraceSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace length differs from the existing traces.
    pub fn push(&mut self, trace: Trace) {
        if let Some(first) = self.traces.first() {
            assert_eq!(first.len(), trace.len(), "trace length mismatch in set");
        }
        self.traces.push(trace);
    }

    /// Number of traces.
    #[inline]
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Sample count per trace (0 for an empty set).
    pub fn trace_len(&self) -> usize {
        self.traces.first().map(Trace::len).unwrap_or(0)
    }

    /// Iterates over the traces.
    pub fn iter(&self) -> std::slice::Iter<'_, Trace> {
        self.traces.iter()
    }

    /// The traces as a slice.
    pub fn traces(&self) -> &[Trace] {
        &self.traces
    }

    /// The distinct labels present, sorted.
    pub fn labels(&self) -> Vec<i64> {
        let mut labels: Vec<i64> = self.traces.iter().filter_map(Trace::label).collect();
        labels.sort_unstable();
        labels.dedup();
        labels
    }

    /// Returns the subset of traces with a given label.
    pub fn with_label(&self, label: i64) -> TraceSet {
        TraceSet {
            traces: self
                .traces
                .iter()
                .filter(|t| t.label() == Some(label))
                .cloned()
                .collect(),
        }
    }

    /// Per-sample mean across the set.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    pub fn mean(&self) -> Vec<f64> {
        assert!(!self.is_empty(), "mean of empty trace set");
        let len = self.trace_len();
        let mut mean = vec![0.0; len];
        for t in &self.traces {
            for (m, s) in mean.iter_mut().zip(t.samples()) {
                *m += s;
            }
        }
        let n = self.traces.len() as f64;
        for m in &mut mean {
            *m /= n;
        }
        mean
    }

    /// Per-sample variance across the set (population).
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    pub fn variance(&self) -> Vec<f64> {
        let mean = self.mean();
        let len = self.trace_len();
        let mut var = vec![0.0; len];
        for t in &self.traces {
            for ((v, s), m) in var.iter_mut().zip(t.samples()).zip(&mean) {
                let d = s - m;
                *v += d * d;
            }
        }
        let n = self.traces.len() as f64;
        for v in &mut var {
            *v /= n;
        }
        var
    }
}

impl FromIterator<Trace> for TraceSet {
    fn from_iter<I: IntoIterator<Item = Trace>>(iter: I) -> Self {
        let mut set = TraceSet::new();
        for t in iter {
            set.push(t);
        }
        set
    }
}

impl Extend<Trace> for TraceSet {
    fn extend<I: IntoIterator<Item = Trace>>(&mut self, iter: I) {
        for t in iter {
            self.push(t);
        }
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Trace({} samples{})",
            self.samples.len(),
            match self.label {
                Some(l) => format!(", label {l}"),
                None => String::new(),
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_windowing() {
        let t = Trace::labelled(vec![1.0, 2.0, 3.0, 4.0], -3);
        assert_eq!(t.len(), 4);
        assert_eq!(t.label(), Some(-3));
        assert_eq!(&t.samples()[1..3], &[2.0, 3.0]);
        assert_eq!(t.resample(2).label(), Some(-3));
        assert!(Trace::new(vec![]).is_empty());
    }

    #[test]
    fn resample_identity_and_interpolation() {
        let t = Trace::new(vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(t.resample(4).samples(), t.samples());
        let up = t.resample(7);
        assert_eq!(up.len(), 7);
        assert!((up.samples()[1] - 0.5).abs() < 1e-12);
        let down = t.resample(2);
        assert_eq!(down.samples(), &[0.0, 3.0]);
    }

    #[test]
    fn project_extracts_pois() {
        let t = Trace::new(vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(t.project(&[3, 0]), vec![40.0, 10.0]);
    }

    #[test]
    fn set_mean_variance_and_labels() {
        let mut set = TraceSet::new();
        set.push(Trace::labelled(vec![1.0, 0.0], 1));
        set.push(Trace::labelled(vec![3.0, 0.0], 1));
        set.push(Trace::labelled(vec![5.0, 6.0], -1));
        assert_eq!(set.mean(), vec![3.0, 2.0]);
        assert_eq!(set.labels(), vec![-1, 1]);
        assert_eq!(set.with_label(1).len(), 2);
        let var = set.variance();
        assert!((var[0] - 8.0 / 3.0).abs() < 1e-12);
        assert!((var[1] - 8.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_rejects_mixed_lengths() {
        let mut set = TraceSet::new();
        set.push(Trace::new(vec![1.0]));
        set.push(Trace::new(vec![1.0, 2.0]));
    }

    proptest! {
        #[test]
        fn prop_resample_preserves_endpoints(
            samples in proptest::collection::vec(-100.0f64..100.0, 2..50),
            target in 2usize..100,
        ) {
            let t = Trace::new(samples.clone());
            let r = t.resample(target);
            prop_assert!((r.samples()[0] - samples[0]).abs() < 1e-9);
            prop_assert!((r.samples()[target - 1] - samples[samples.len() - 1]).abs() < 1e-9);
        }

        #[test]
        fn prop_resample_within_bounds(
            samples in proptest::collection::vec(-100.0f64..100.0, 2..50),
            target in 1usize..100,
        ) {
            let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let r = resample_linear(&samples, target);
            prop_assert!(r.iter().all(|&v| v >= lo - 1e-9 && v <= hi + 1e-9));
        }
    }
}
