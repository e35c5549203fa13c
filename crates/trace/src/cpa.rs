//! Correlation power analysis (CPA) — the classic *multi-trace* attack, as
//! a baseline. The paper's core observation (§II-B) is that CPA-style
//! accumulation cannot touch SEAL's encryption: the sampled coefficients are
//! fresh for every encryption, so there is no fixed secret for correlations
//! to accumulate against — which is exactly why the attack must work from a
//! single trace.

use reveal_par::simd;
use std::fmt;

/// Errors from CPA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpaError {
    /// No traces were supplied.
    NoTraces,
    /// Trace lengths disagree.
    RaggedTraces,
    /// A hypothesis row length disagrees with the trace count.
    HypothesisMismatch { expected: usize, got: usize },
    /// No candidates were supplied.
    NoCandidates,
}

impl fmt::Display for CpaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpaError::NoTraces => write!(f, "CPA needs at least one trace"),
            CpaError::RaggedTraces => write!(f, "traces must have equal length"),
            CpaError::HypothesisMismatch { expected, got } => {
                write!(f, "hypothesis has {got} entries for {expected} traces")
            }
            CpaError::NoCandidates => write!(f, "CPA needs at least one candidate"),
        }
    }
}

impl std::error::Error for CpaError {}

/// The CPA score of one candidate: its peak absolute correlation and where
/// it occurred.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpaScore {
    /// Candidate index (into the hypothesis list).
    pub candidate: usize,
    /// Peak `|ρ|` over all samples.
    pub peak_correlation: f64,
    /// Sample index of the peak.
    pub peak_sample: usize,
}

/// One sample column with its correlation statistics precomputed: every
/// candidate shares the same column means and variances, so they are hoisted
/// out of the per-candidate sweep.
struct CpaColumn {
    values: Vec<f64>,
    mean: f64,
    var: f64,
}

/// Cost model for gathering + summarizing one column (units: traces).
static COLUMN_COST: reveal_par::CostModel = reveal_par::CostModel::new("cpa.column.gather", 10.0);

/// Cost model for one candidate's correlation sweep (units: `len · traces`
/// multiply-adds).
static CANDIDATE_COST: reveal_par::CostModel =
    reveal_par::CostModel::new("cpa.candidate.sweep", 2.0);

/// Runs CPA: for every candidate `c`, correlates its per-trace leakage
/// hypothesis `hypotheses[c]` against every sample column of `traces`, and
/// scores the candidate by its peak absolute correlation.
///
/// Returns the scores sorted best-first.
///
/// # Errors
///
/// Fails on empty/ragged inputs.
pub fn cpa_rank(traces: &[Vec<f64>], hypotheses: &[Vec<f64>]) -> Result<Vec<CpaScore>, CpaError> {
    if traces.is_empty() {
        return Err(CpaError::NoTraces);
    }
    if hypotheses.is_empty() {
        return Err(CpaError::NoCandidates);
    }
    let len = traces[0].len();
    if traces.iter().any(|t| t.len() != len) {
        return Err(CpaError::RaggedTraces);
    }
    for h in hypotheses {
        if h.len() != traces.len() {
            return Err(CpaError::HypothesisMismatch {
                expected: traces.len(),
                got: h.len(),
            });
        }
    }
    // Column-major view of the traces for per-sample correlation; the
    // transpose is parallel over sample columns (each column is independent).
    // Each column's mean and centered variance are hoisted here, once,
    // instead of once per candidate.
    let columns: Vec<CpaColumn> =
        reveal_par::par_map_index_modeled(len, &COLUMN_COST, traces.len() as u64, |s| {
            let values: Vec<f64> = traces.iter().map(|t| t[s]).collect();
            let mean = simd::sum(&values) / values.len() as f64;
            let var = simd::centered_dot(&values, mean, &values, mean);
            CpaColumn { values, mean, var }
        });
    // One candidate's correlation sweep is independent of every other's, so
    // candidates fan out across threads; scores come back in candidate order
    // and the later sort is stable, keeping the ranking deterministic. A
    // candidate costs `len · traces.len()` covariance multiply-adds, which
    // is what the cost model sizes workers and claims from.
    let units = (len * traces.len()) as u64;
    let mut scores: Vec<CpaScore> =
        reveal_par::par_map_index_modeled(hypotheses.len(), &CANDIDATE_COST, units, |candidate| {
            let hyp = &hypotheses[candidate];
            let mh = simd::sum(hyp) / hyp.len() as f64;
            let vh = simd::centered_dot(hyp, mh, hyp, mh);
            let mut peak = 0.0f64;
            let mut peak_sample = 0usize;
            if vh > 0.0 {
                let sh = vh.sqrt();
                for (s, col) in columns.iter().enumerate() {
                    if col.var == 0.0 {
                        // A constant column correlates with nothing (ρ = 0).
                        continue;
                    }
                    let cov = simd::centered_dot(&col.values, col.mean, hyp, mh);
                    let r = (cov / (col.var.sqrt() * sh)).abs();
                    if r > peak {
                        peak = r;
                        peak_sample = s;
                    }
                }
            }
            CpaScore {
                candidate,
                peak_correlation: peak,
                peak_sample,
            }
        });
    scores.sort_by(|a, b| {
        b.peak_correlation
            .partial_cmp(&a.peak_correlation)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(scores)
}

/// The margin between the best and second-best candidate — a CPA attack is
/// considered successful when the correct candidate's peak clearly separates
/// from the rest.
pub fn distinguishing_margin(scores: &[CpaScore]) -> f64 {
    match scores {
        [] => 0.0,
        [_] => f64::INFINITY,
        [a, b, ..] => a.peak_correlation - b.peak_correlation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic device: leakage = hw(secret ^ input) at sample 7.
    fn synth_traces(secret: u8, inputs: &[u8], noise: f64) -> Vec<Vec<f64>> {
        inputs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let mut t = vec![1.0; 16];
                let hw = (secret ^ x).count_ones() as f64;
                t[7] += 0.3 * hw;
                // Deterministic pseudo-noise.
                for (s, v) in t.iter_mut().enumerate() {
                    *v += noise * ((i * 31 + s * 17) as f64).sin();
                }
                t
            })
            .collect()
    }

    fn hypotheses_for(inputs: &[u8]) -> Vec<Vec<f64>> {
        (0u16..256)
            .map(|cand| {
                inputs
                    .iter()
                    .map(|&x| ((cand as u8) ^ x).count_ones() as f64)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn recovers_fixed_secret_from_many_traces() {
        let secret = 0xA7u8;
        let inputs: Vec<u8> = (0..200u32).map(|i| (i * 37 + 11) as u8).collect();
        let traces = synth_traces(secret, &inputs, 0.2);
        let scores = cpa_rank(&traces, &hypotheses_for(&inputs)).unwrap();
        // Under |ρ| the complement key is the classic HW ghost peak: the top
        // two candidates are the secret and its bitwise complement.
        let top2 = [scores[0].candidate, scores[1].candidate];
        assert!(top2.contains(&(secret as usize)), "top2 {top2:?}");
        assert!(top2.contains(&(!secret as usize)), "top2 {top2:?}");
        assert_eq!(scores[0].peak_sample, 7);
        // Clear separation from the third candidate.
        assert!(scores[1].peak_correlation - scores[2].peak_correlation > 0.1);
    }

    #[test]
    fn fails_when_secret_changes_every_trace() {
        // The RevEAL situation: a fresh secret per trace — correlations
        // cannot accumulate, no candidate distinguishes.
        let inputs: Vec<u8> = (0..200u32).map(|i| (i * 37 + 11) as u8).collect();
        let traces: Vec<Vec<f64>> = inputs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let fresh_secret = (i * 73 + 5) as u8; // changes per trace
                synth_traces(fresh_secret, &[x], 0.2).remove(0)
            })
            .collect();
        let scores = cpa_rank(&traces, &hypotheses_for(&inputs)).unwrap();
        // Peak correlations stay at the noise floor and the margin vanishes.
        assert!(
            scores[0].peak_correlation < 0.35,
            "no candidate should stand out, got {}",
            scores[0].peak_correlation
        );
        assert!(distinguishing_margin(&scores) < 0.05);
    }

    #[test]
    fn more_traces_sharpen_the_distinguisher() {
        let secret = 0x3Cu8;
        let margin_at = |count: usize| {
            let inputs: Vec<u8> = (0..count as u32).map(|i| (i * 53 + 7) as u8).collect();
            let traces = synth_traces(secret, &inputs, 1.0);
            let scores = cpa_rank(&traces, &hypotheses_for(&inputs)).unwrap();
            (scores[0].candidate, scores[0].peak_correlation)
        };
        let (_, weak) = margin_at(24);
        let (best_many, strong) = margin_at(400);
        assert_eq!(best_many, secret as usize);
        // Correlation estimates concentrate with more traces; the spurious
        // peak level drops, the true peak stays.
        assert!(strong > 0.2);
        let _ = weak; // small-sample case may or may not succeed — by design
    }

    #[test]
    fn parallel_ranking_is_thread_count_invariant() {
        let secret = 0x5Au8;
        let inputs: Vec<u8> = (0..120u32).map(|i| (i * 29 + 3) as u8).collect();
        let traces = synth_traces(secret, &inputs, 0.4);
        let hyps = hypotheses_for(&inputs);
        let reference = reveal_par::with_threads(1, || cpa_rank(&traces, &hyps).unwrap());
        for threads in [2, 4, 8] {
            let ranked = reveal_par::with_threads(threads, || cpa_rank(&traces, &hyps).unwrap());
            assert_eq!(ranked, reference, "threads {threads}");
        }
    }

    #[test]
    fn error_paths() {
        assert_eq!(cpa_rank(&[], &[vec![]]), Err(CpaError::NoTraces));
        assert_eq!(cpa_rank(&[vec![1.0]], &[]), Err(CpaError::NoCandidates));
        assert_eq!(
            cpa_rank(&[vec![1.0], vec![1.0, 2.0]], &[vec![0.0, 1.0]]),
            Err(CpaError::RaggedTraces)
        );
        assert_eq!(
            cpa_rank(&[vec![1.0], vec![2.0]], &[vec![0.0]]),
            Err(CpaError::HypothesisMismatch {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn margin_edge_cases() {
        assert_eq!(distinguishing_margin(&[]), 0.0);
        let one = [CpaScore {
            candidate: 0,
            peak_correlation: 0.5,
            peak_sample: 1,
        }];
        assert_eq!(distinguishing_margin(&one), f64::INFINITY);
    }
}
