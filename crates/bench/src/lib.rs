// Generator binaries must fail with a message naming the broken stage,
// not a bare unwrap panic; tests keep their unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![forbid(unsafe_code)]

//! # reveal-bench
//!
//! Shared harness code for the table/figure generator binaries. Every table
//! and figure of the paper has a dedicated binary (see `src/bin/`). Timing
//! lives in the repository benchmark (`perfbench/`), not here.
//!
//! Scale control: generators default to a *paper-shaped but tractable*
//! workload and honour two environment variables:
//!
//! - `REVEAL_QUICK=1` — shrink everything for smoke runs;
//! - `REVEAL_FULL=1` — the paper's full scale (220 000 profiling windows,
//!   25 000 attack windows).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reveal_attack::{AttackConfig, Device, TrainedAttack};
use reveal_rv32::power::PowerModelConfig;

/// The paper's coefficient modulus.
pub const PAPER_Q: u64 = 132120577;
/// The paper's ring degree.
pub const PAPER_N: usize = 1024;

/// Workload scale of a generator run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test scale (CI friendly).
    Quick,
    /// Default: paper-shaped, minutes not hours.
    Standard,
    /// The paper's full trace counts.
    Full,
}

impl Scale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Self {
        if std::env::var_os("REVEAL_FULL").is_some() {
            Scale::Full
        } else if std::env::var_os("REVEAL_QUICK").is_some() {
            Scale::Quick
        } else {
            Scale::Standard
        }
    }

    /// `(profiling_runs, attack_runs, ring_degree)` for attack experiments.
    ///
    /// One run of degree `n` yields `n` labelled windows, so Standard at
    /// n = 1024 gives ≈ 60k profiling windows; Full reproduces the paper's
    /// 220 000 / 25 000 split.
    pub fn attack_workload(self) -> (usize, usize, usize) {
        match self {
            Scale::Quick => (16, 4, 64),
            Scale::Standard => (60, 12, PAPER_N),
            Scale::Full => (215, 25, PAPER_N),
        }
    }
}

/// The paper's device at a given ring degree and noise level.
///
/// # Panics
///
/// Panics when the kernel cannot be built (programming error).
pub fn paper_device(n: usize, noise_sigma: f64) -> Device {
    Device::new(
        n,
        &[PAPER_Q],
        PowerModelConfig::default().with_noise_sigma(noise_sigma),
    )
    .expect("paper device is well-formed")
}

/// Profiles a fresh attacker at the given scale.
///
/// # Panics
///
/// Panics when profiling fails (programming error at nominal settings).
pub fn train_attacker(device: &Device, runs: usize, seed: u64) -> TrainedAttack {
    let mut rng = StdRng::seed_from_u64(seed);
    TrainedAttack::profile(device, runs, &AttackConfig::default(), &mut rng)
        .expect("profiling succeeds at nominal settings")
}

/// Draws one secret from a `(value, probability)` prior by inverse CDF:
/// the first value whose cumulative mass reaches one uniform draw (0 when
/// rounding leaves the total mass short of it).
pub fn draw_from_prior<R: Rng + ?Sized>(prior: &[(i64, f64)], rng: &mut R) -> i64 {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for &(v, p) in prior {
        acc += p;
        if acc >= u {
            return v;
        }
    }
    0
}

/// Writes a generator artefact under `target/reveal/` and reports the path.
///
/// # Panics
///
/// Panics on I/O errors (generator binaries want loud failures).
pub fn write_artifact(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("target").join("reveal");
    std::fs::create_dir_all(&dir).expect("create artefact directory");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write artefact");
    println!("[artifact] {}", path.display());
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let (pq, aq, _) = Scale::Quick.attack_workload();
        let (ps, as_, _) = Scale::Standard.attack_workload();
        let (pf, af, _) = Scale::Full.attack_workload();
        assert!(pq < ps && ps < pf);
        assert!(aq < as_ && as_ < af);
        // Full reproduces the paper's 220k/25k windows.
        assert_eq!(pf * PAPER_N, 220_160);
        assert_eq!(af * PAPER_N, 25_600);
    }

    #[test]
    fn device_and_training_smoke() {
        let device = paper_device(16, 0.05);
        let attack = train_attacker(&device, 10, 1);
        assert!(attack.profiling_windows() > 0);
    }
}
