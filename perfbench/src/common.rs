//! Shared set-up, checks and statistics for every workload.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use reveal_attack::{
    collect_profiling, report_full_attack, AttackConfig, Device, ProfilingData, TrainedAttack,
};
use reveal_hints::{HintPolicy, LweParameters};
use reveal_rv32::power::PowerModelConfig;

/// The seed every committed artifact of the repository was produced with.
pub const DEFAULT_SEED: u64 = 0x5EA1_BE9C;
/// The paper's coefficient modulus and ring degree.
pub const PAPER_Q: u64 = 132_120_577;
pub const PAPER_N: usize = 1024;
/// Device noise of the paper-scale workloads.
pub const NOISE_SIGMA: f64 = 0.05;
/// Profiling runs of one standard attacker campaign (≈ 61k windows).
pub const PROFILE_RUNS: usize = 60;
/// `f64::to_bits` of the baseline / with-hints bikz that a standard
/// attacker reports on the first capture of `StdRng(DEFAULT_SEED ^ 1)`
/// (386.06 / 242.02).
pub const PINNED_BIKZ_BITS: (u64, u64) = (0x4078_20fa_ad6e_c430, 0x406e_40a3_57f8_98a0);

pub type Res<T> = Result<T, String>;

/// Maps any displayable error into the benchmark's error string.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

pub fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `body` and returns its result with its wall time in seconds.
pub fn timed<R>(body: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = body();
    (out, seconds_since(start))
}

/// The paper's device at degree `n` with power noise `sigma`.
pub fn device(n: usize, moduli: &[u64], sigma: f64) -> Res<Device> {
    Device::new(
        n,
        moduli,
        PowerModelConfig::default().with_noise_sigma(sigma),
    )
    .map_err(err("device"))
}

/// The same device with the power noise switched off.
pub fn noiseless(device: &Device) -> Device {
    let mut quiet = device.clone();
    quiet.set_power_config(device.power_config().with_noise_sigma(0.0));
    quiet
}

/// A trained attacker and the device it profiled.
pub struct Attacker {
    pub device: Device,
    pub attack: TrainedAttack,
}

/// Builds the paper-scale attacker from a standard campaign seeded with
/// `master`: returns it with the set-up time (device, campaign and fit),
/// the fit time, and the campaign for later refits.
pub fn paper_attacker(master: u64) -> Res<(Attacker, f64, f64, ProfilingData)> {
    let start = Instant::now();
    let device = device(PAPER_N, &[PAPER_Q], NOISE_SIGMA)?;
    let data = collect_profiling(&device, PROFILE_RUNS, &AttackConfig::default(), master)
        .map_err(err("profiling"))?;
    let (attack, fit_s) = timed(|| fit(data.clone()));
    let setup_s = seconds_since(start);
    Ok((
        Attacker {
            device,
            attack: attack?,
        },
        setup_s,
        fit_s,
        data,
    ))
}

/// `TrainedAttack::fit` on a profiling campaign.
pub fn fit(data: ProfilingData) -> Res<TrainedAttack> {
    TrainedAttack::fit(
        AttackConfig::default(),
        data.sign_set,
        data.pos_set,
        data.neg_set,
        data.total_windows,
    )
    .map_err(err("fit"))
}

/// Times one more fit of `data` (the copy it consumes is not timed).
pub fn refit_s(data: &ProfilingData) -> Res<f64> {
    let copy = data.clone();
    let (attack, secs) = timed(|| fit(copy));
    attack?;
    Ok(secs)
}

/// Checks that a standard attacker (profiled with [`DEFAULT_SEED`])
/// reproduces the pinned bikz bit patterns on the pinned capture.
pub fn check_pinned_bikz(attacker: &Attacker) -> Res<()> {
    let mut rng = StdRng::seed_from_u64(DEFAULT_SEED ^ 1);
    let capture = attacker
        .device
        .capture_fresh(&mut rng)
        .map_err(err("pinned capture"))?;
    let result = attacker
        .attack
        .attack_trace_expecting(&capture.run.capture.samples, PAPER_N)
        .map_err(err("pinned attack"))?;
    let report = report_full_attack(
        &result,
        &LweParameters::seal_128_paper(),
        &HintPolicy::seal_paper(),
    )
    .map_err(err("pinned report"))?;
    let got = (
        report.baseline.bikz.to_bits(),
        report.with_hints.bikz.to_bits(),
    );
    if got == PINNED_BIKZ_BITS {
        Ok(())
    } else {
        Err(format!(
            "pinned bikz moved: got {:.2} / {:.2} (bits {:#x} / {:#x})",
            report.baseline.bikz, report.with_hints.bikz, got.0, got.1
        ))
    }
}

/// Linear-interpolated quantile `q` ∈ [0, 1] of `values` (NaN if empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err("read status"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// CPUs this process may run on (what `nproc` prints).
pub fn nproc() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|list| {
                    list.trim()
                        .split(',')
                        .map(|part| match part.split_once('-') {
                            Some((a, b)) => {
                                let a: usize = a.trim().parse().unwrap_or(0);
                                let b: usize = b.trim().parse().unwrap_or(a);
                                b.saturating_sub(a) + 1
                            }
                            None => 1,
                        })
                        .sum()
                })
        })
        .unwrap_or(1)
}

/// Named metrics in insertion order, each with its unit.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// What one run reports: ops attempted and failed, correctness problems,
/// and its metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// Records a correctness problem unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

/// Width of the windows the timed phase is cut into for `throughput_tps`.
const WINDOW_S: f64 = 0.25;

/// The timings an untraced run collects; turned into the end-to-end
/// metrics by [`EndToEnd::finish`].
#[derive(Default)]
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub fit_s: Vec<f64>,
    pub latencies_ms: Vec<f64>,
    /// Per `WINDOW_S` window of the timed phase: ops completed in it and
    /// the seconds spent on them.
    windows: Vec<(u64, f64)>,
}

impl EndToEnd {
    /// Records `ops` ops completed `at` seconds into the timed phase after
    /// `busy_s` seconds of work.
    pub fn complete(&mut self, at: f64, ops: u64, busy_s: f64) {
        let window = (at / WINDOW_S) as usize;
        if self.windows.len() <= window {
            self.windows.resize(window + 1, (0, 0.0));
        }
        self.windows[window].0 += ops;
        self.windows[window].1 += busy_s;
    }

    /// Reports the medians. Throughput is the median over windows, so a
    /// few seconds of CPU stolen from a shared host move it little.
    pub fn finish(self, out: &mut Outcome) -> Res<()> {
        let rates: Vec<f64> = self
            .windows
            .iter()
            .filter(|(_, busy)| *busy > 0.0)
            .map(|&(ops, busy)| ops as f64 / busy)
            .collect();
        let m = &mut out.metrics;
        m.put("setup_s", median(&self.setup_s), "s");
        m.put("fit_s", median(&self.fit_s), "s");
        m.put("throughput_tps", median(&rates), "1/s");
        m.put("latency_ms_p50", median(&self.latencies_ms), "ms");
        m.put("peak_rss_mb", peak_rss_mb()?, "MiB");
        eprintln!(
            "end-to-end: {} ops in {} windows, {} latency samples (p90 {:.3} ms), {} set-ups, {} fits",
            self.windows.iter().map(|w| w.0).sum::<u64>(),
            rates.len(),
            self.latencies_ms.len(),
            quantile(&self.latencies_ms, 0.9),
            self.setup_s.len(),
            self.fit_s.len()
        );
        Ok(())
    }
}

/// CPU time the hypervisor stole from this machine so far, in seconds
/// (`/proc/stat`, 100 ticks per second); a diagnostic for noisy runs.
pub fn stolen_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|cpu| cpu.split_whitespace().nth(8))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}
