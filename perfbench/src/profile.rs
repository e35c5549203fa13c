//! `profile-n1024`: chosen-value profiling at n = 1024, σ = 0.05 on the
//! pinned Marsaglia noise stream, through `collect_profiling`, with a
//! `TrainedAttack::fit` after every full campaign.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use reveal_attack::{
    collect_profiling, extract_ladder_windows_into, AttackConfig, Device, ProfilingData,
    TrainedAttack,
};
use reveal_rv32::kernel::SamplerScratch;
use reveal_trace::segment::SegmentScratch;
use reveal_trace::{Trace, TraceSet};

use crate::common::{
    check_pinned_bikz, device, err, noiseless, paper_attacker, seconds_since, timed, EndToEnd,
    Outcome, Res, DEFAULT_SEED, NOISE_SIGMA, PAPER_N, PAPER_Q, PROFILE_RUNS,
};
use crate::spans::Tracer;

/// Device builds per run; `setup_s` reports their median.
const SETUPS: usize = 20;
/// Profiling runs per `collect_profiling` call: small enough for a run to
/// hold well over 100 calls, so `latency_ms_p90` has ten samples beyond it.
const BATCH_RUNS: usize = 10;

/// The labelled window sets of one campaign, grown batch by batch.
struct Campaign {
    sign: TraceSet,
    pos: TraceSet,
    neg: TraceSet,
    windows: usize,
}

impl Campaign {
    fn new() -> Self {
        Self {
            sign: TraceSet::new(),
            pos: TraceSet::new(),
            neg: TraceSet::new(),
            windows: 0,
        }
    }

    fn extend(&mut self, data: &ProfilingData) {
        for (set, into) in [
            (&data.sign_set, &mut self.sign),
            (&data.pos_set, &mut self.pos),
            (&data.neg_set, &mut self.neg),
        ] {
            for trace in set.iter() {
                into.push(trace.clone());
            }
        }
        self.windows += data.total_windows;
    }

    /// Adds one run's windows exactly as `collect_profiling` does.
    fn push_run(&mut self, values: &[i64], windows: Vec<Vec<f64>>) {
        for (w, &v) in windows.into_iter().zip(values) {
            self.windows += 1;
            self.sign.push(Trace::labelled(w.clone(), v.signum()));
            if v > 0 {
                self.pos.push(Trace::labelled(w, v));
            } else if v < 0 {
                self.neg.push(Trace::labelled(w, v));
            }
        }
    }

    fn fit(self, config: &AttackConfig) -> Res<TrainedAttack> {
        TrainedAttack::fit(config.clone(), self.sign, self.pos, self.neg, self.windows)
            .map_err(err("fit"))
    }
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut e2e = EndToEnd::default();
    let mut built = None;
    for _ in 0..SETUPS {
        let (dev, secs) = timed(|| device(PAPER_N, &[PAPER_Q], NOISE_SIGMA));
        e2e.setup_s.push(secs);
        built = Some(dev?);
    }
    let device = built.ok_or("no set-up ran")?;
    if seed == DEFAULT_SEED {
        // The default seed's first full campaign is the standard attacker.
        let (attacker, ..) = paper_attacker(DEFAULT_SEED)?;
        if let Err(problem) = check_pinned_bikz(&attacker) {
            out.problems.push(problem);
        }
    }
    let config = AttackConfig::default();
    let mut campaign = Campaign::new();
    let mut batches = 0usize;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline || e2e.fit_s.is_empty() {
        let master = reveal_par::derive_seed(seed, batches as u64);
        let (data, secs) = timed(|| collect_profiling(&device, BATCH_RUNS, &config, master));
        let data = data.map_err(err("profiling"))?;
        batches += 1;
        let traces = data.total_windows / PAPER_N;
        out.check(data.total_windows % PAPER_N == 0, || {
            format!("{} windows is not whole traces", data.total_windows)
        });
        out.attempted += BATCH_RUNS as u64;
        out.failed += (BATCH_RUNS - traces.min(BATCH_RUNS)) as u64;
        e2e.complete(seconds_since(start), traces as u64, secs);
        e2e.latencies_ms.push(secs * 1e3 / BATCH_RUNS as f64);
        campaign.extend(&data);
        if batches.is_multiple_of(PROFILE_RUNS / BATCH_RUNS) {
            let full = std::mem::replace(&mut campaign, Campaign::new());
            let (fitted, fit_s) = timed(|| full.fit(&config));
            let attack = fitted?;
            out.check(attack.profiling_windows() > 0, || "empty attacker".into());
            e2e.fit_s.push(fit_s);
        }
    }
    e2e.finish(&mut out)?;
    Ok(out)
}

/// Run `run` of a campaign seeded with `master`: its generator and its
/// balanced, shuffled chosen values, derived as `collect_profiling` does.
fn chosen_values(n: usize, labels: &[i64], master: u64, run: usize) -> (StdRng, Vec<i64>) {
    let mut rng = StdRng::seed_from_u64(reveal_par::derive_seed(master, run as u64));
    let mut values: Vec<i64> = (0..n)
        .map(|i| labels[(i + run * n) % labels.len()])
        .collect();
    values.shuffle(&mut rng);
    (rng, values)
}

/// Traced phase: one campaign of `runs` through `collect_profiling`
/// (untraced reference), then the same runs decomposed into spans —
/// `profile.op` = `rv32.capture` + `trace.segment` + `profile.accumulate`,
/// plus the same capture
/// on a noiseless device (`rv32.noiseless`) — and a traced
/// `template.fit`. The decomposed window sets must equal the reference
/// bit for bit. Returns the fitted attacker and the untraced per-run time.
pub fn phase(
    device: &Device,
    runs: usize,
    master: u64,
    tr: &mut Tracer,
) -> Res<(TrainedAttack, Vec<f64>)> {
    let config = AttackConfig::default();
    let (reference, secs) = timed(|| collect_profiling(device, runs, &config, master));
    let reference = reference.map_err(err("profiling"))?;

    let n = device.degree();
    let labels = config.value_labels();
    let quiet = noiseless(device);
    let mut scratch = SamplerScratch::samples_only();
    let mut quiet_scratch = SamplerScratch::samples_only();
    let mut segment = SegmentScratch::new();
    let mut campaign = Campaign::new();
    for run in 0..runs {
        let (mut rng, values) = chosen_values(n, &labels, master, run);
        let (samples, windows) = tr.span("profile.op", |tr| {
            let capture = tr.span("rv32.capture", |_| {
                device.capture_chosen_into(&values, &mut rng, &mut scratch)
            });
            let capture = capture.map_err(err("capture"))?;
            let windows = tr.span("trace.segment", |_| {
                extract_ladder_windows_into(&capture.run.capture.samples, &config, &mut segment)
            });
            let windows = windows.map_err(err("segment"))?;
            let count = windows.len();
            if count == n {
                tr.span("profile.accumulate", |_| {
                    campaign.push_run(&values, windows)
                });
            }
            Ok::<_, String>((capture.run.capture.samples.len(), count))
        })?;
        let (mut quiet_rng, _) = chosen_values(n, &labels, master, run);
        let quiet_capture = tr.span("rv32.noiseless", |_| {
            quiet.capture_chosen_into(&values, &mut quiet_rng, &mut quiet_scratch)
        });
        quiet_capture.map_err(err("noiseless capture"))?;
        tr.count("rv32.samples", samples as f64);
        if device.power_config().noise_sigma > 0.0 {
            tr.count("rv32.normals_drawn", samples as f64);
        }
        tr.count("trace.windows", windows as f64);
        if windows != n {
            tr.count("trace.segment_failed", 1.0);
        }
    }
    tr.count("rv32.memo_hits", scratch.memo_hits() as f64);
    tr.count("rv32.memo_misses", scratch.memo_misses() as f64);
    tr.count(
        "rv32.block_dispatch_hits",
        scratch.block_stats().dispatch_hits as f64,
    );

    if campaign.windows != reference.total_windows
        || campaign.sign != reference.sign_set
        || campaign.pos != reference.pos_set
        || campaign.neg != reference.neg_set
    {
        return Err("traced profiling differs from collect_profiling".to_string());
    }
    let attack = tr.span("template.fit", |_| campaign.fit(&config))?;
    Ok((attack, vec![secs * 1e3 / runs as f64]))
}
