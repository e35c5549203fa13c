//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <profile-n1024|attack-n1024|recover-n32|serve-n1024> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics at the library's default
//! thread count; `--trace 1` makes the traced run that yields the per-layer
//! metrics (see `traced.rs`). Either way every output is checked, and the
//! last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is 0 only when every check held,
//! 1 on a failed check or error, 2 on bad arguments.

mod alloc;
mod attack;
mod common;
mod profile;
mod recover;
mod serve;
mod spans;
mod traced;

use std::process::ExitCode;

use common::{Outcome, Res};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Profile,
    Attack,
    Recover,
    Serve,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Profile,
        Workload::Attack,
        Workload::Recover,
        Workload::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Profile => "profile-n1024",
            Workload::Attack => "attack-n1024",
            Workload::Recover => "recover-n32",
            Workload::Serve => "serve-n1024",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Res<Args> {
    let mut workload = None;
    let mut seed = common::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The result line: one JSON object with every metric at full precision.
fn result_json(out: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; such a metric already failed a check.
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench {} seed={} seconds={} trace={} | nproc={} available_parallelism={} \
         threads={} spawn_cost_ns={:.0}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        common::nproc(),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        reveal_par::max_threads(),
        reveal_par::spawn_cost_ns()
    );
    let stolen_at_start = common::stolen_s();
    let result = if args.trace {
        traced::run(args.workload, args.seed)
    } else {
        match args.workload {
            Workload::Profile => profile::run(args.seed, args.seconds),
            Workload::Attack => attack::run(args.seed, args.seconds),
            Workload::Recover => recover::run(args.seed, args.seconds),
            Workload::Serve => serve::run(args.seed, args.seconds),
        }
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for (name, value, _) in &out.metrics.0 {
        if !value.is_finite() {
            out.problems.push(format!("metric {name} is {value}"));
        }
    }
    eprintln!(
        "cpu time stolen by the hypervisor during the run: {:.2} s",
        common::stolen_s() - stolen_at_start
    );
    for problem in &out.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let correct = out.problems.is_empty();
    println!("{}", result_json(&out, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
