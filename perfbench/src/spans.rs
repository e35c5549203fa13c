//! In-memory span recorder for the traced run. Spans wrap calls into the
//! workspace crates' public functions from the outside: each records its
//! name, parent, start, end, and the allocations the counting allocator saw
//! while it was open. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Spans and exact work counters of one traced phase.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            // Reserved up front so recording a span does not itself
            // allocate inside the span it measures.
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(16),
            counters: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `body` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, body: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let (allocs0, bytes0) = alloc::totals();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.open.push(id);
        let out = body(self);
        let end_ns = self.now_ns();
        let (allocs1, bytes1) = alloc::totals();
        self.open.pop();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.allocs = allocs1 - allocs0;
        span.alloc_bytes = bytes1 - bytes0;
        out
    }

    /// Adds `value` to the exact work counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counters.entry(name).or_insert(0.0) += value;
    }

    /// Sets the work counter `name` (for values that are not sums).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.counters.insert(name, value);
    }

    /// Records one observation of a quantity measured outside any span.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters.get(name).copied()
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Per-span durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::ms).collect()
    }

    /// For every span named `name`: the share of its duration its direct
    /// children cover.
    pub fn child_coverage(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(id, op)| {
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(id))
                    .map(Span::ms)
                    .sum();
                children / op.ms().max(1e-9)
            })
            .collect()
    }

    /// The spans and counters as JSON lines, one object per span, then one
    /// object holding every counter.
    pub fn to_jsonl(&self, phase: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"phase\": \"{phase}\", \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"allocs\": {}, \"alloc_bytes\": {}}}",
                s.name, s.start_ns, s.end_ns, s.allocs, s.alloc_bytes
            );
        }
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let _ = writeln!(
            out,
            "{{\"phase\": \"{phase}\", \"counters\": {{{}}}}}",
            counters.join(", ")
        );
        out
    }
}
