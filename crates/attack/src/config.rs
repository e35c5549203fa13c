//! Attack configuration knobs shared by the profiling and attack stages.

use reveal_trace::{PoiMethod, SegmentConfig};

/// Tunables of the single-trace attack pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackConfig {
    /// Length (samples) of the sign-ladder feature window that starts where
    /// a distribution-call burst ends.
    pub ladder_window: usize,
    /// Number of points of interest per template set.
    pub poi_count: usize,
    /// Minimum spacing between selected POIs.
    pub poi_min_spacing: usize,
    /// POI selection statistic (the paper uses SOSD).
    pub poi_method: PoiMethod,
    /// Ridge regularization added to covariance diagonals.
    pub ridge: f64,
    /// Fraction of the ladder window treated as the *negation region* for
    /// negative coefficients (the rest is the store region); the two
    /// per-region templates are fused, implementing the paper's combination
    /// of vulnerabilities 2 and 3.
    pub early_fraction: f64,
    /// Burst-detection parameters for trace segmentation.
    pub segment: SegmentConfig,
    /// Templates are built for coefficient values in `[-value_range,
    /// value_range]` (the paper observed |v| ≤ 14 over 220 000 draws).
    pub value_range: i64,
}

impl Default for AttackConfig {
    fn default() -> Self {
        Self {
            ladder_window: 96,
            poi_count: 10,
            poi_min_spacing: 2,
            poi_method: PoiMethod::Sosd,
            ridge: 1e-6,
            early_fraction: 0.45,
            segment: SegmentConfig::default(),
            value_range: 14,
        }
    }
}

impl AttackConfig {
    /// The label set the value templates cover, ascending.
    pub fn value_labels(&self) -> Vec<i64> {
        (-self.value_range..=self.value_range).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = AttackConfig::default();
        assert!(c.ladder_window > 0);
        assert!(c.poi_count > 1);
        assert!(c.early_fraction > 0.0 && c.early_fraction < 1.0);
        assert_eq!(c.value_labels().len(), 29);
        assert_eq!(c.value_labels()[0], -14);
        assert_eq!(*c.value_labels().last().unwrap(), 14);
    }
}
