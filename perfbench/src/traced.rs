//! The traced run: per-layer numbers from spans around the public calls of
//! each crate, on one serial worker, with allocation counting on.
//!
//! Every traced run walks all four phases — profiling, attack, serve and
//! recover — so every layer metric exists for every workload. The
//! workload's own phase runs its full op count into the *main* tracer; the
//! other phases run one op (one per victim for serve) into the *tour*
//! tracer. Each metric comes from the main tracer when the workload reaches
//! that layer, and from the tour otherwise. Each phase also runs its ops
//! untraced first and requires the traced (and decomposed) outputs to be
//! bit-identical to the untraced ones.

use crate::common::{
    check_pinned_bikz, device, mean, median, nproc, paper_attacker, Attacker, Outcome, Res,
    DEFAULT_SEED, NOISE_SIGMA, PAPER_N, PAPER_Q, PROFILE_RUNS,
};
use crate::spans::{Span, Tracer};
use crate::{alloc, attack, profile, recover, serve, Workload};

/// Ops of the workload's own phase in a traced run.
const ATTACK_OPS: usize = 16;
const SERVE_OPS: usize = 12;
const RECOVER_OPS: usize = 3;
/// Minimum share of an op span its layer spans must cover.
const MIN_SPAN_COVERAGE: f64 = 0.95;
/// Cost-model sites whose planned worker counts are reported.
const PAR_SITES: [&str; 2] = ["attack.profile.run", "attack.window.classify"];

struct Phases {
    main: Tracer,
    tour: Tracer,
    /// Untraced per-op times of the workload's own phase, and the span
    /// name of its op.
    untraced_op_ms: Vec<f64>,
    op_span: &'static str,
}

fn run_phases(workload: Workload, seed: u64) -> Res<Phases> {
    let mut main = Tracer::new();
    let mut tour = Tracer::new();
    let mut untraced_op_ms = Vec::new();

    // The paper-scale campaign: the profiled workload's own ops, the
    // attacker's set-up for attack and serve, a tour stop for recover.
    let device = device(PAPER_N, &[PAPER_Q], NOISE_SIGMA)?;
    let own = matches!(
        workload,
        Workload::Profile | Workload::Attack | Workload::Serve
    );
    let master = if workload == Workload::Profile {
        seed
    } else {
        DEFAULT_SEED
    };
    let (trained, ms) = profile::phase(
        &device,
        PROFILE_RUNS,
        master,
        if own { &mut main } else { &mut tour },
    )?;
    if workload == Workload::Profile {
        untraced_op_ms = ms;
    }
    let attacker = Attacker {
        device,
        attack: trained,
    };

    let own = workload == Workload::Attack;
    let ops = if own { ATTACK_OPS } else { 1 };
    let ms = attack::phase(
        &attacker,
        seed,
        ops,
        if own { &mut main } else { &mut tour },
    )?;
    if own {
        untraced_op_ms = ms;
    }

    let own = workload == Workload::Serve;
    let ops = if own { SERVE_OPS } else { 3 };
    let ms = serve::phase(attacker, seed, ops, if own { &mut main } else { &mut tour })?;
    if own {
        untraced_op_ms = ms;
    }

    let own = workload == Workload::Recover;
    let ops = if own { RECOVER_OPS } else { 1 };
    let ms = recover::phase(seed, ops, if own { &mut main } else { &mut tour })?;
    if own {
        untraced_op_ms = ms;
    }

    let op_span = match workload {
        Workload::Profile => "profile.op",
        Workload::Attack => "attack.op",
        Workload::Serve => "attack.robust_trace",
        Workload::Recover => "recover.op",
    };
    Ok(Phases {
        main,
        tour,
        untraced_op_ms,
        op_span,
    })
}

impl Phases {
    /// The tracer holding spans named `span` (main first).
    fn with_span(&self, span: &str) -> Option<&Tracer> {
        [&self.main, &self.tour]
            .into_iter()
            .find(|t| t.named(span).next().is_some())
    }

    fn span_median(&self, span: &str, of: impl Fn(&Span) -> f64) -> f64 {
        self.with_span(span).map_or(f64::NAN, |t| {
            median(&t.named(span).map(of).collect::<Vec<_>>())
        })
    }

    fn ms(&self, span: &str) -> f64 {
        self.span_median(span, Span::ms)
    }

    fn counter(&self, name: &str) -> f64 {
        self.main
            .counter(name)
            .or_else(|| self.tour.counter(name))
            .unwrap_or(0.0)
    }

    fn sample_median(&self, name: &str) -> f64 {
        let main = self.main.samples(name);
        median(if main.is_empty() {
            self.tour.samples(name)
        } else {
            main
        })
    }
}

/// The traced run of `workload`.
pub fn run(workload: Workload, seed: u64) -> Res<Outcome> {
    let mut out = Outcome::default();
    // Planner probe at the default thread count: the standard attacker's
    // campaign and one attack, untraced; also the pinned-bikz gate.
    let (attacker, ..) = paper_attacker(DEFAULT_SEED)?;
    if let Err(problem) = check_pinned_bikz(&attacker) {
        out.problems.push(problem);
    }
    drop(attacker);
    let planned = reveal_par::cost_snapshots();

    alloc::set_counting(true);
    let phases = reveal_par::with_threads(1, || run_phases(workload, seed));
    alloc::set_counting(false);
    let phases = phases?;

    let dump = phases.main.to_jsonl("main") + &phases.tour.to_jsonl("tour");
    let path = std::path::Path::new(".bench_build/perfbench")
        .join(format!("trace-{}-{seed}.jsonl", workload.name()));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("trace directory: {e}"))?;
    }
    std::fs::write(&path, dump).map_err(|e| format!("write trace: {e}"))?;
    eprintln!("spans written to {}", path.display());

    // Each decomposed op's layer spans must cover the op span.
    let mut coverage_min = f64::INFINITY;
    for tracer in [&phases.main, &phases.tour] {
        for op in ["profile.op", "attack.op", "recover.op"] {
            for share in tracer.child_coverage(op) {
                coverage_min = coverage_min.min(share);
            }
        }
    }
    out.check(coverage_min >= MIN_SPAN_COVERAGE, || {
        format!("layer spans cover only {coverage_min:.3} of an op span")
    });
    let main_ops = phases.main.named(phases.op_span).count();
    out.attempted = main_ops as u64;

    let p = &phases;
    let m = &mut out.metrics;
    let allocs = |span: &str| p.span_median(span, |s| s.allocs as f64);
    let alloc_bytes = |span: &str| p.span_median(span, |s| s.alloc_bytes as f64);

    m.put("rv32.capture_ms", p.ms("rv32.capture"), "ms");
    m.put("rv32.noiseless_ms", p.ms("rv32.noiseless"), "ms");
    m.put(
        "rv32.noise_ms",
        p.ms("rv32.capture") - p.ms("rv32.noiseless"),
        "ms",
    );
    m.put("rv32.capture.allocs", allocs("rv32.capture"), "count");
    m.put(
        "rv32.capture.alloc_bytes",
        alloc_bytes("rv32.capture"),
        "bytes",
    );
    m.put("rv32.samples", p.counter("rv32.samples"), "count");
    m.put(
        "rv32.normals_drawn",
        p.counter("rv32.normals_drawn"),
        "count",
    );
    let (hits, misses) = (p.counter("rv32.memo_hits"), p.counter("rv32.memo_misses"));
    m.put(
        "rv32.memo_hit_rate",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    m.put(
        "rv32.block_dispatch_hits",
        p.counter("rv32.block_dispatch_hits"),
        "count",
    );

    m.put("trace.segment_ms", p.ms("trace.segment"), "ms");
    m.put("trace.segment.allocs", allocs("trace.segment"), "count");
    m.put(
        "trace.segment.alloc_bytes",
        alloc_bytes("trace.segment"),
        "bytes",
    );
    m.put("trace.windows", p.counter("trace.windows"), "count");
    m.put(
        "trace.segment_failed",
        p.counter("trace.segment_failed"),
        "count",
    );

    m.put("template.fit_ms", p.ms("template.fit"), "ms");
    m.put("template.fit.allocs", allocs("template.fit"), "count");
    m.put(
        "template.fit.alloc_bytes",
        alloc_bytes("template.fit"),
        "bytes",
    );
    m.put(
        "template.classify_us_per_window",
        p.ms("template.classify") * 1e3 / PAPER_N as f64,
        "us",
    );
    m.put(
        "template.classify.allocs",
        allocs("template.classify"),
        "count",
    );

    m.put("attack.trace_ms", p.ms("attack.trace"), "ms");
    m.put("attack.trace.allocs", allocs("attack.trace"), "count");
    m.put(
        "attack.trace.alloc_bytes",
        alloc_bytes("attack.trace"),
        "bytes",
    );
    m.put("attack.glue_ms", p.sample_median("attack.glue_ms"), "ms");
    m.put("attack.robust_trace_ms", p.ms("attack.robust_trace"), "ms");
    m.put(
        "attack.robust_trace.allocs",
        allocs("attack.robust_trace"),
        "count",
    );

    m.put("hints.report_ms", p.ms("hints.report"), "ms");
    m.put("hints.report.allocs", allocs("hints.report"), "count");
    m.put("hints.fold_ms", p.ms("hints.fold"), "ms");
    m.put("hints.perfect", p.counter("hints.perfect"), "count");
    m.put("hints.approximate", p.counter("hints.approximate"), "count");
    m.put("hints.skipped", p.counter("hints.skipped"), "count");

    m.put("lattice.recover_ms", p.ms("lattice.recover"), "ms");
    m.put("lattice.recover.allocs", allocs("lattice.recover"), "count");
    m.put("lattice.trusted", p.counter("lattice.trusted"), "count");
    m.put("bfv.encrypt_ms", p.ms("bfv.encrypt"), "ms");
    m.put("bfv.encrypt.allocs", allocs("bfv.encrypt"), "count");

    let served = p.sample_median("serve.latency_ms");
    m.put("serve.latency_ms", served, "ms");
    m.put(
        "serve.overhead_ms",
        served - p.ms("attack.robust_trace") - p.ms("hints.fold"),
        "ms",
    );
    for queue in ["ingest", "work", "result"] {
        let name = format!("serve.queue_high_water.{queue}");
        m.put(name.clone(), p.counter(&name), "count");
    }
    m.put(
        "serve.checkpoints_written",
        p.counter("serve.checkpoints_written"),
        "count",
    );
    m.put("serve.retries", p.counter("serve.retries"), "count");

    m.put("par.spawn_cost_ns", reveal_par::spawn_cost_ns(), "ns");
    for site in PAR_SITES {
        let workers = planned
            .iter()
            .find(|s| s.name == site)
            .map_or(0, |s| s.last_workers);
        m.put(format!("par.workers.{site}"), workers as f64, "count");
    }

    m.put("machine.nproc", nproc() as f64, "count");
    m.put(
        "machine.available_parallelism",
        std::thread::available_parallelism().map_or(1, |p| p.get()) as f64,
        "count",
    );
    m.put("machine.threads", reveal_par::max_threads() as f64, "count");

    // Means, not medians: the untraced profiling reference is one
    // campaign-wide time.
    let traced = mean(&phases.main.durations_ms(phases.op_span));
    let untraced = mean(&phases.untraced_op_ms);
    m.put(
        "tracing.overhead_pct",
        (traced / untraced - 1.0) * 100.0,
        "%",
    );
    m.put("tracing.span_coverage_min", coverage_min, "ratio");
    Ok(out)
}
