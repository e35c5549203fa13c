//! `attack-n1024`: the paper's single-trace attack (Table III). Each op is
//! `attack_trace_expecting` followed by `report_full_attack` on a fresh
//! victim capture; the captures themselves are not timed.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use reveal_attack::{
    extract_ladder_windows_into, report_full_attack, AttackReport, Capture, ProfilingData,
    SingleTraceAttack, TrainedAttack,
};
use reveal_hints::{HintPolicy, LweParameters};
use reveal_trace::segment::SegmentScratch;

use crate::common::{
    check_pinned_bikz, err, paper_attacker, refit_s, seconds_since, timed, Attacker, EndToEnd,
    Outcome, Res, DEFAULT_SEED, PAPER_N,
};
use crate::spans::Tracer;

/// Attacker set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 3;
/// The timed phase refits the attacker's campaign after every this many
/// ops, so `fit_s` samples spread over the whole run.
const REFIT_EVERY: u64 = 256;
/// Lowest acceptable sign accuracy over a run's captures (clean
/// paper-scale captures classify essentially every sign correctly).
const MIN_SIGN_ACCURACY: f64 = 0.99;

/// Builds `SETUPS` standard attackers, keeping the last with its campaign.
fn setup(e2e: &mut EndToEnd) -> Res<(Attacker, ProfilingData)> {
    let mut kept = None;
    for _ in 0..SETUPS {
        let (attacker, setup_s, fit_s, data) = paper_attacker(DEFAULT_SEED)?;
        e2e.setup_s.push(setup_s);
        e2e.fit_s.push(fit_s);
        kept = Some((attacker, data));
    }
    kept.ok_or_else(|| "no set-up ran".to_string())
}

/// The victim capture stream of `seed`.
pub fn victim_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(reveal_par::derive_seed(seed, 1))
}

/// One op: the single-trace attack and its security report.
pub fn attack_op(
    attack: &TrainedAttack,
    samples: &[f64],
) -> Res<(SingleTraceAttack, AttackReport)> {
    let result = attack
        .attack_trace_expecting(samples, PAPER_N)
        .map_err(err("attack"))?;
    let report = report_full_attack(
        &result,
        &LweParameters::seal_128_paper(),
        &HintPolicy::seal_paper(),
    )
    .map_err(err("report"))?;
    Ok((result, report))
}

fn report_is_sane(report: &AttackReport) -> bool {
    report.with_hints.bikz.is_finite() && report.with_hints.bikz < report.baseline.bikz
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut e2e = EndToEnd::default();
    let (attacker, campaign) = setup(&mut e2e)?;
    if let Err(problem) = check_pinned_bikz(&attacker) {
        out.problems.push(problem);
    }
    let mut rng = victim_rng(seed);
    let (mut signs_right, mut signs_total) = (0.0, 0usize);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let capture = attacker
            .device
            .capture_fresh(&mut rng)
            .map_err(err("capture"))?;
        out.attempted += 1;
        let (op, secs) = timed(|| attack_op(&attacker.attack, &capture.run.capture.samples));
        match op {
            Ok((result, report)) => {
                signs_right += result.sign_accuracy(&capture.values) * PAPER_N as f64;
                signs_total += PAPER_N;
                out.check(report_is_sane(&report), || {
                    format!("implausible bikz {:?}", report.with_hints.bikz)
                });
                e2e.latencies_ms.push(secs * 1e3);
                e2e.complete(seconds_since(start), 1, secs);
            }
            Err(_) => {
                out.failed += 1;
                e2e.complete(seconds_since(start), 0, secs);
            }
        }
        if out.attempted % REFIT_EVERY == 0 {
            e2e.fit_s.push(refit_s(&campaign)?);
        }
    }
    let accuracy = signs_right / signs_total.max(1) as f64;
    out.check(accuracy >= MIN_SIGN_ACCURACY, || {
        format!("sign accuracy {accuracy:.4} below {MIN_SIGN_ACCURACY}")
    });
    e2e.finish(&mut out)?;
    Ok(out)
}

/// Traced phase: `ops` captures of `seed` attacked once through the public
/// call (untraced, for reference outputs and per-op time), then again
/// inside spans (`attack.op` = `attack.trace` + `hints.report`), then
/// decomposed into `trace.segment` and `template.classify`. Returns the
/// untraced per-op times.
pub fn phase(attacker: &Attacker, seed: u64, ops: usize, tr: &mut Tracer) -> Res<Vec<f64>> {
    let attack = &attacker.attack;
    let mut rng = victim_rng(seed);
    let captures: Vec<Capture> = (0..ops)
        .map(|_| attacker.device.capture_fresh(&mut rng))
        .collect::<Result<_, _>>()
        .map_err(err("capture"))?;

    let mut reference = Vec::with_capacity(ops);
    let mut untraced_ms = Vec::with_capacity(ops);
    for capture in &captures {
        let (op, secs) = timed(|| attack_op(attack, &capture.run.capture.samples));
        reference.push(op?);
        untraced_ms.push(secs * 1e3);
    }

    let mut segment = SegmentScratch::new();
    for (capture, (want, want_report)) in captures.iter().zip(&reference) {
        let samples = &capture.run.capture.samples;
        let (result, report) = tr.span("attack.op", |tr| {
            let result = tr.span("attack.trace", |_| {
                attack.attack_trace_expecting(samples, PAPER_N)
            });
            let result = result.map_err(err("traced attack"))?;
            let report = tr.span("hints.report", |_| {
                report_full_attack(
                    &result,
                    &LweParameters::seal_128_paper(),
                    &HintPolicy::seal_paper(),
                )
            });
            Ok::<_, String>((result, report.map_err(err("traced report"))?))
        })?;
        let windows = tr.span("trace.segment", |_| {
            extract_ladder_windows_into(samples, attack.config(), &mut segment)
        });
        let windows = windows.map_err(err("segment"))?;
        let coefficients = tr.span("template.classify", |_| {
            windows
                .iter()
                .map(|w| attack.attack_window(w))
                .collect::<Result<Vec<_>, _>>()
        });
        let decomposed = SingleTraceAttack {
            coefficients: coefficients.map_err(err("classify"))?,
        };
        if &result != want
            || decomposed != result
            || report.with_hints.bikz.to_bits() != want_report.with_hints.bikz.to_bits()
            || report.baseline.bikz.to_bits() != want_report.baseline.bikz.to_bits()
        {
            return Err("traced attack differs from the untraced one".to_string());
        }
        let last = |name| tr.durations_ms(name).last().copied().unwrap_or(0.0);
        let glue = last("attack.trace") - last("trace.segment") - last("template.classify");
        tr.sample("attack.glue_ms", glue);
        tr.count("trace.windows", windows.len() as f64);
        tr.count("hints.perfect", report.hints.perfect as f64);
        tr.count("hints.approximate", report.hints.approximate as f64);
        tr.count("hints.skipped", report.hints.skipped as f64);
    }
    Ok(untraced_ms)
}
