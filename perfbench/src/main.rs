//! `perfbench`: the measured side of the repository's benchmark.
//!
//! `run.py` (next to this package) builds this binary, drives it once per
//! workload and aggregates what it prints. Each subcommand does one kind
//! of work, checks its outputs, and prints one JSON object on stdout:
//!
//! ```text
//! perfbench prepare                      # suite build + compiler front end
//! perfbench paper --cache DIR --expect docs/results.txt
//! perfbench guest-exec --seed N --seconds S
//! perfbench profile-generations --seed N --seconds S --db DIR
//! ```
//!
//! Every subcommand takes `--trace` (record spans around each layer call)
//! and `--spans PATH` (write those spans as JSON). Exit status is 0 when
//! every output check passed, 1 when one failed, 2 on a usage error.

mod calib;
mod guest;
mod paper;
mod prepare;
mod profgen;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// What one subcommand measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (runs, jobs, appends, output comparisons).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// One line per failure, for the log.
    pub errors: Vec<String>,
    /// Repeated measurements, one value per sample.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Single values: per-layer metrics and counts.
    pub values: BTreeMap<String, f64>,
}

impl Report {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(message);
        }
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Scales the timings to the reference host speed the probes imply
    /// (see `calib`); the measured wall times stay as `raw_wall_s`.
    pub fn normalize(&mut self, probes: &[f64]) {
        let slowdown = calib::slowdown(probes);
        if let Some(raw) = self.samples.remove("wall_s") {
            self.samples
                .insert("wall_s", raw.iter().map(|w| w / slowdown).collect());
            self.samples.insert("raw_wall_s", raw);
        }
        for v in self.samples.get_mut("guest_mips").into_iter().flatten() {
            *v *= slowdown;
        }
        if let Some(v) = self.values.get_mut("guest_mips") {
            *v *= slowdown;
        }
        self.set("bench.host_slowdown", slowdown);
    }

    fn to_json(&self) -> String {
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(k, v)| {
                let vs: Vec<String> = v.iter().map(|&x| json::number(x)).collect();
                format!("{}: [{}]", json::string(k), vs.join(", "))
            })
            .collect();
        let values: Vec<String> = self
            .values
            .iter()
            .map(|(k, &v)| format!("{}: {}", json::string(k), json::number(v)))
            .collect();
        let errors: Vec<String> = self.errors.iter().map(|e| json::string(e)).collect();
        format!(
            "{{\"attempted\": {}, \"failed\": {}, \"errors\": [{}], \"samples\": {{{}}}, \"values\": {{{}}}}}",
            self.attempted,
            self.failed,
            errors.join(", "),
            samples.join(", "),
            values.join(", ")
        )
    }
}

/// Minimal JSON emitters (the workspace carries no serializer).
pub mod json {
    pub fn string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    pub fn number(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process (`VmHWM` in `/proc/self/status`)
/// in MiB, since it started or since the last [`reset_peak_rss`]. 0 if
/// unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak [`peak_rss_mb`] reads to the memory resident now, so a
/// loop can report its own peak without its set-up's.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak resident set (/proc/self/clear_refs): {e}"))
}

/// SplitMix64: the benchmark's only source of seeded choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_f15c_4e92_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Parsed command line shared by every subcommand.
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans: Option<PathBuf>,
    pub cache: Option<PathBuf>,
    pub db: Option<PathBuf>,
    pub expect: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        seconds: 1.0,
        trace: false,
        spans: None,
        cache: None,
        db: None,
        expect: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds expects a number")?
            }
            "--trace" => a.trace = true,
            "--spans" => a.spans = Some(PathBuf::from(value()?)),
            "--cache" => a.cache = Some(PathBuf::from(value()?)),
            "--db" => a.db = Some(PathBuf::from(value()?)),
            "--expect" => a.expect = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: perfbench <prepare|paper|guest-exec|profile-generations> [FLAGS]");
        return ExitCode::from(2);
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = trace::Tracer::new(args.trace);
    let result = match cmd.as_str() {
        "prepare" => Ok(prepare::run(&tracer)),
        "paper" => paper::run(&args, &tracer),
        "guest-exec" => guest::run(&args, &tracer),
        "profile-generations" => profgen::run(&args, &tracer),
        other => Err(format!("unknown subcommand '{other}'")),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Loops that reset the peak after their set-up report their own.
    if !report.values.contains_key("peak_rss_mb") {
        report.set("peak_rss_mb", peak_rss_mb());
    }
    if let Some(path) = &args.spans {
        if let Err(e) = tracer.write(path) {
            eprintln!("perfbench: writing {} failed: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", report.to_json());
    for e in &report.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
