//! The geometric series assumption (GSA): predicting the Gram–Schmidt
//! profile of a BKZ-β-reduced basis — the model underneath every security
//! estimate in this workspace, validated here against actual reductions.

use crate::gso::Gso;
use reveal_hints::delta_bkz;

/// Predicts the GSA log-profile `ln ‖b*_i‖` of a β-reduced basis of the
/// given dimension and log-volume: a straight line with slope `−2 ln δ(β)`
/// (`reveal_hints::delta_bkz`, the δ model of every security estimate)
/// through the volume constraint `Σ ln ‖b*_i‖ = ln vol`.
pub fn gsa_profile(dim: usize, ln_volume: f64, beta: f64) -> Vec<f64> {
    let slope = -2.0 * delta_bkz(beta).ln();
    // ln b*_i = a + slope·i with Σ = ln vol ⇒ a = (ln vol − slope·Σi)/dim.
    let sum_i = (dim * (dim - 1) / 2) as f64;
    let a = (ln_volume - slope * sum_i) / dim as f64;
    (0..dim).map(|i| a + slope * i as f64).collect()
}

/// The measured log-profile of an integer basis.
pub fn measured_profile(basis: &[Vec<i64>]) -> Vec<f64> {
    let gso = Gso::new(basis.to_vec());
    gso.b_star_sq
        .iter()
        .map(|&b| 0.5 * b.max(f64::MIN_POSITIVE).ln())
        .collect()
}

/// Root-mean-square deviation between a predicted and a measured profile.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn profile_rmsd(predicted: &[f64], measured: &[f64]) -> f64 {
    assert_eq!(predicted.len(), measured.len());
    let n = predicted.len().max(1) as f64;
    (predicted
        .iter()
        .zip(measured)
        .map(|(p, m)| (p - m).powi(2))
        .sum::<f64>()
        / n)
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bkz::{bkz_reduce, BkzParams};
    use crate::lll::{lll_reduce, LllParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn qary_basis(n: usize, q: i64, seed: u64) -> Vec<Vec<i64>> {
        // A q-ary lattice basis: [[q I, 0], [A, I]] with random A — the shape
        // security estimates are about.
        let half = n / 2;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut basis = vec![vec![0i64; n]; n];
        for i in 0..half {
            basis[i][i] = q;
        }
        for i in half..n {
            for j in 0..half {
                basis[i][j] = rng.gen_range(0..q);
            }
            basis[i][i] = 1;
        }
        basis
    }

    #[test]
    fn gsa_profile_preserves_volume() {
        let ln_vol = 123.4;
        for beta in [2.0, 20.0, 60.0] {
            let p = gsa_profile(30, ln_vol, beta);
            let total: f64 = p.iter().sum();
            assert!((total - ln_vol).abs() < 1e-9, "beta {beta}");
        }
    }

    #[test]
    fn gsa_slope_flattens_with_beta() {
        let p_weak = gsa_profile(40, 100.0, 2.0);
        let p_strong = gsa_profile(40, 100.0, 38.0);
        let slope = |p: &[f64]| p[1] - p[0];
        assert!(
            slope(&p_strong) > slope(&p_weak),
            "stronger reduction = flatter profile"
        );
        assert!(slope(&p_weak) < 0.0);
    }

    #[test]
    fn lll_profile_matches_gsa_prediction() {
        let q = 12289i64;
        let n = 24;
        let mut basis = qary_basis(n, q, 7);
        lll_reduce(&mut basis, &LllParams::default());
        let measured = measured_profile(&basis);
        let ln_vol: f64 = measured.iter().sum();
        let predicted = gsa_profile(n, ln_vol, 2.0);
        let rmsd = profile_rmsd(&predicted, &measured);
        // The GSA is an idealization; ~1 nat RMSD on a 24-dim q-ary basis is
        // the expected agreement (head/tail deviate).
        assert!(rmsd < 1.5, "LLL profile deviates from GSA by {rmsd}");
        // And the measured slope must be close to the predicted one.
        let mid_slope_measured = (measured[n - 5] - measured[4]) / (n - 9) as f64;
        let mid_slope_predicted = -2.0 * delta_bkz(2.0).ln();
        assert!(
            (mid_slope_measured - mid_slope_predicted).abs() < 0.05,
            "slope {mid_slope_measured} vs {mid_slope_predicted}"
        );
    }

    #[test]
    fn bkz_flattens_the_measured_profile() {
        let q = 12289i64;
        let n = 20;
        let mut lll_basis = qary_basis(n, q, 9);
        lll_reduce(&mut lll_basis, &LllParams::default());
        let mut bkz_basis = qary_basis(n, q, 9);
        bkz_reduce(&mut bkz_basis, &BkzParams::with_block_size(10));
        let slope = |b: &[Vec<i64>]| {
            let p = measured_profile(b);
            (p[n - 3] - p[2]) / (n - 5) as f64
        };
        assert!(
            slope(&bkz_basis) >= slope(&lll_basis) - 1e-9,
            "BKZ must not steepen the profile"
        );
    }
}
