//! Spans recorded around calls into each layer's public functions.
//!
//! Spans live in memory until the process writes them out at exit. Each
//! span records its name, start and end (seconds since the tracer was
//! created), the span that was open when it started, and the iteration it
//! belongs to. A disabled tracer only calls the wrapped function.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json;

/// One closed span.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub iter: u64,
}

/// Records nested spans on one thread.
pub struct Tracer {
    on: Cell<bool>,
    epoch: Instant,
    iter: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on: Cell::new(on),
            epoch: Instant::now(),
            iter: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on.get()
    }

    /// Turns recording on or off; loops use this to alternate traced and
    /// untraced iterations in one process.
    pub fn set_enabled(&self, on: bool) {
        self.on.set(on);
    }

    /// Tags the spans recorded from now on with iteration `iter`.
    pub fn set_iteration(&self, iter: u64) {
        self.iter.set(iter);
    }

    /// Runs `f` inside a span named `name` when recording.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on.get() {
            return f();
        }
        let start = self.epoch.elapsed().as_secs_f64();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start,
                end: start,
                parent: self.open.borrow().last().copied(),
                iter: self.iter.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Self time (duration minus the part covered by child spans) summed
    /// per span name, per iteration.
    pub fn self_times(&self) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
        let spans = self.spans.borrow();
        let mut child = vec![0.0f64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            *out.entry(s.iter).or_default().entry(s.name).or_default() +=
                (s.end - s.start - child[i]).max(0.0);
        }
        out
    }

    /// Writes every span as a JSON array.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.borrow();
        let rows: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"start\": {}, \"end\": {}, \"parent\": {}, \"iter\": {}}}",
                    json::string(s.name),
                    json::number(s.start),
                    json::number(s.end),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.iter
                )
            })
            .collect();
        std::fs::write(path, format!("[\n{}\n]\n", rows.join(",\n")))
    }
}

/// What recording one span around an empty call costs on this host, in
/// seconds (median of several batches).
pub fn span_cost_s() -> f64 {
    const SPANS: usize = 10_000;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let tr = Tracer::new(true);
            let start = Instant::now();
            for _ in 0..SPANS {
                tr.span("bench.cost", || std::hint::black_box(0u64));
            }
            start.elapsed().as_secs_f64() / SPANS as f64
        })
        .collect();
    crate::median(&batches)
}

/// Per-layer self time as the median over traced iterations, keyed
/// `<span>_s`, plus the share of traced wall the layers (every span not
/// named `bench.*`) account for.
pub fn layer_metrics(tracer: &Tracer, traced_walls: &[f64], values: &mut BTreeMap<String, f64>) {
    let per_iter = tracer.self_times();
    let mut names: Vec<&'static str> = per_iter.values().flat_map(|m| m.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    let mut layer_total = 0.0;
    for name in names {
        let samples: Vec<f64> = per_iter
            .values()
            .map(|m| m.get(name).copied().unwrap_or(0.0))
            .collect();
        if !name.starts_with("bench.") {
            layer_total += samples.iter().sum::<f64>();
        }
        values.insert(format!("{name}_s"), crate::median(&samples));
    }
    let wall: f64 = traced_walls.iter().sum();
    if wall > 0.0 {
        values.insert("bench.layer_share".into(), layer_total / wall);
    }
}
