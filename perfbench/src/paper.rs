//! One pass of everything `repro` computes with its default options, in
//! this process, over a private run cache: 15 programs prepared, every
//! harness job, the traced-run tables, and every section rendered.
//!
//! The rendered sections are compared byte for byte with the committed
//! `docs/results.txt`, up to its hand-written flat-backend section.

use std::fmt::Write;
use std::time::Instant;

use mfbench::{
    collect, combination_table, configure_harness, coverage_table, crossmode_table,
    distribution_table, dyn_table, dynamic_table, fig1_chart, fig2_chart, fig2_rows, fig3_chart,
    fig3_rows, harness, heuristic_table, inlining_table, percent_correct_table,
    percent_taken_table, selects_table, table1, table2, table3,
};
use mfharness::{CacheSource, DiskCache, HarnessOptions};
use mfwork::Group;

use crate::trace::{self, layer_metrics, Tracer};
use crate::{calib, Args, Report};

const WIDTH: usize = 60;

/// Harness workers: one per core of the two-core reference host.
const JOBS: usize = 2;

/// Host-speed probes before and after the pass. The pass keeps both cores
/// busy, so the host is only probed while it is quiet.
const PROBES: usize = 10;

/// The title of the first section `docs/results.txt` carries that
/// `repro` does not print (it was written by hand).
const HAND_WRITTEN_TITLE: &str = "Extension: flat-backend speedup vs branch predictability";

fn section(out: &mut String, title: &str) {
    let _ = writeln!(
        out,
        "\n==== {title} {}",
        "=".repeat(68usize.saturating_sub(title.len()))
    );
}

/// The part of an expected-results file the pass must reproduce.
fn expected_prefix(text: &str) -> &str {
    let end = text
        .lines()
        .find(|l| l.starts_with("==== ") && l.contains(HAND_WRITTEN_TITLE))
        .and_then(|l| text.find(l))
        .unwrap_or(text.len());
    text[..end].trim_end()
}

/// Renders every default `repro` section in print order.
fn render(tr: &Tracer) -> String {
    let tables = |f: &dyn Fn() -> mfreport::Table| tr.span("bpredict.tables", f);
    let traced = |f: &dyn Fn() -> mfreport::Table| tr.span("bpredict.traced_tables", f);
    let show = |out: &mut String, t: mfreport::Table| {
        let text = tr.span("mfreport.render", || t.render());
        out.push_str(&text);
    };
    let chart = |out: &mut String, c: mfreport::BarChart| {
        let text = tr.span("mfreport.render", || c.render(WIDTH));
        out.push_str(&text);
    };
    let mut out = String::new();
    section(&mut out, "Table 2: programs and datasets");
    show(&mut out, tables(&table2));
    let s = tr.span("mfbench.collect", collect);

    section(
        &mut out,
        "Table 1: dynamic dead code the compiler's DCE would remove",
    );
    show(&mut out, tables(&|| table1(&s)));
    section(&mut out, "Figure 1a/1b: instrs per break, no prediction");
    chart(
        &mut out,
        tr.span("bpredict.tables", || fig1_chart(&s, Group::FortranFp)),
    );
    out.push('\n');
    chart(
        &mut out,
        tr.span("bpredict.tables", || fig1_chart(&s, Group::CInteger)),
    );

    section(
        &mut out,
        "Figure 2a/2b: instrs per break, predicted (self vs sum-of-others)",
    );
    chart(
        &mut out,
        tr.span("bpredict.tables", || fig2_chart(&s, true)),
    );
    out.push('\n');
    chart(
        &mut out,
        tr.span("bpredict.tables", || fig2_chart(&s, false)),
    );
    let recovered: Vec<f64> = tr.span("bpredict.tables", || {
        fig2_rows(&s, false)
            .iter()
            .filter(|r| r.self_ipb > 0.0)
            .map(|r| r.others_ipb / r.self_ipb)
            .collect()
    });
    if !recovered.is_empty() {
        let mean = recovered.iter().sum::<f64>() / recovered.len() as f64;
        let _ = writeln!(
            out,
            "\n(sum-of-others recovers on average {:.0}% of the self-prediction bound)",
            mean * 100.0
        );
    }

    section(
        &mut out,
        "Table 3: instrs/break (FORTRAN programs, little dataset variability)",
    );
    show(&mut out, tables(&|| table3(&s)));
    section(
        &mut out,
        "Figure 3a/3b: best/worst single-dataset predictor, % of self",
    );
    chart(
        &mut out,
        tr.span("bpredict.tables", || fig3_chart(&s, true)),
    );
    out.push('\n');
    chart(
        &mut out,
        tr.span("bpredict.tables", || fig3_chart(&s, false)),
    );
    let worst = tr.span("bpredict.tables", || {
        fig3_rows(&s, false)
            .into_iter()
            .min_by(|a, b| a.worst.1.total_cmp(&b.worst.1))
    });
    if let Some(w) = worst {
        let _ = writeln!(
            out,
            "\n(most dramatic worst case: {} predicted by {} at {:.0}% of self)",
            w.label,
            w.worst.0,
            w.worst.1 * 100.0
        );
    }

    section(
        &mut out,
        "The misleading measure: % branches correct vs instrs/break",
    );
    show(&mut out, tables(&|| percent_correct_table(&s)));
    section(&mut out, "Informal: percent-taken as a program constant");
    show(&mut out, tables(&|| percent_taken_table(&s)));
    section(
        &mut out,
        "Informal: scaled vs unscaled vs polling combination",
    );
    show(&mut out, tables(&|| combination_table(&s)));
    section(&mut out, "Informal: loop heuristic vs profile feedback");
    show(&mut out, tables(&|| heuristic_table(&s)));
    section(
        &mut out,
        "Informal: select instructions as a fraction of all instructions",
    );
    show(&mut out, tables(&|| selects_table(&s)));
    section(
        &mut out,
        "Informal: compress and uncompress do not predict each other",
    );
    if let Some(t) = tr.span("bpredict.tables", || crossmode_table(&s)) {
        show(&mut out, t);
    }
    section(
        &mut out,
        "Informal: does poor cross-prediction come from coverage or flips?",
    );
    show(&mut out, tables(&|| coverage_table(&s)));
    section(
        &mut out,
        "Extension: static profile feedback vs 1-bit/2-bit hardware schemes",
    );
    show(&mut out, traced(&dynamic_table));
    section(
        &mut out,
        "Extension: inlining removes direct call/return breaks",
    );
    show(&mut out, traced(&inlining_table));
    section(
        &mut out,
        "Run lengths between mispredicted branches are not evenly spaced",
    );
    show(&mut out, traced(&distribution_table));
    section(
        &mut out,
        "Extension: online dynamic-predictor zoo (instrs per mispredict)",
    );
    show(&mut out, tables(&|| dyn_table(&s)));
    out.push_str("(higher is better; dynamic predictors observe every outcome online,\n");
    out.push_str(" profile feedback sees only a prior run's aggregate counts)\n");
    out
}

pub fn run(args: &Args, tr: &Tracer) -> Result<Report, String> {
    let cache = args.cache.clone().ok_or("paper needs --cache DIR")?;
    let expect_path = args.expect.as_deref().ok_or("paper needs --expect FILE")?;
    let expected_text = std::fs::read_to_string(expect_path)
        .map_err(|e| format!("reading {}: {e}", expect_path.display()))?;

    let mut probes = vec![calib::probe(PROBES)];
    let start = Instant::now();
    configure_harness(HarnessOptions {
        jobs: Some(JOBS),
        disk_cache: DiskCache::Dir(cache),
        ..HarnessOptions::default()
    });
    let rendered = tr.span("bench.iteration", || {
        let mut text = render(tr);
        section(&mut text, "Harness: scheduler and cache summary");
        let summary = harness().report().summary_table();
        text.push_str(&tr.span("mfreport.render", || summary.render()));
        text
    });
    let wall = start.elapsed().as_secs_f64();
    probes.push(calib::probe(PROBES));

    let mut report = Report::default();
    report.sample("wall_s", wall);
    check_output(&rendered, &expected_text, &mut report);
    harness_metrics(&mut report);
    if tr.enabled() {
        layer_metrics(tr, &[wall], &mut report.values);
        // One pass per process is too few to price the tracing as traced
        // minus untraced wall; it is the spans recorded times what one
        // span costs here.
        report.set(
            "bench.trace_overhead_s",
            tr.span_count() as f64 * trace::span_cost_s(),
        );
    }
    report.normalize(&probes);
    Ok(report)
}

/// The rendered sections against the expected prefix; the harness
/// summary (timings) that follows them is not compared.
fn check_output(rendered: &str, expected: &str, report: &mut Report) {
    report.attempted += 1;
    let got = rendered
        .find("\n==== Harness")
        .map_or(rendered, |i| &rendered[..i])
        .trim_end();
    let want = expected_prefix(expected);
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        report.fail(format!(
            "rendered sections differ from the expected results at line {}: got {:?}, want {:?}",
            line + 1,
            got.lines().nth(line).unwrap_or("<end>"),
            want.lines().nth(line).unwrap_or("<end>")
        ));
    }
}

/// Harness-level metrics from its run records, plus the zoo-attached
/// jobs: every plain `program/dataset` job of the first batch (the
/// suite collection) carries the full predictor zoo.
fn harness_metrics(report: &mut Report) {
    let h = harness().report();
    let computed = |r: &&mfharness::RunRecord| r.source == CacheSource::Computed;
    report.attempted += h.jobs_submitted;
    let rb = &h.robustness;
    for label in &rb.quarantined {
        report.fail(format!("harness job {label} panicked and was quarantined"));
    }
    if rb.cache_store_failures + rb.cache_corrupt_misses > 0 {
        report.fail(format!(
            "run cache: {} store failures, {} corrupt entries",
            rb.cache_store_failures, rb.cache_corrupt_misses
        ));
    }
    report.set("mfharness.jobs_submitted", h.jobs_submitted as f64);
    report.set("mfharness.jobs_computed", h.computed() as f64);
    report.set("mfharness.mem_hits", h.cache.mem_hits as f64);
    report.set("mfharness.disk_hits", h.cache.disk_hits as f64);
    report.set("mfharness.hit_ratio", h.hit_rate());
    report.set("mfharness.busy_s", h.busy.as_secs_f64());
    report.set("mfharness.pool_wall_s", h.wall.as_secs_f64());
    report.set("mfharness.utilization", h.utilization());
    report.set("mfharness.io_retries", rb.io_retries as f64);
    report.set(
        "mfharness.cache_store_failures",
        rb.cache_store_failures as f64,
    );
    report.set(
        "mfharness.cache_corrupt_misses",
        rb.cache_corrupt_misses as f64,
    );
    let critical = h
        .records
        .iter()
        .filter(computed)
        .map(|r| r.wall.as_secs_f64())
        .fold(0.0, f64::max);
    report.set("mfharness.critical_job_s", critical);
    report.set("guest_mips", h.guest_instrs_per_sec() / 1e6);

    let first_batch: usize = mfwork::suite().iter().map(|w| w.datasets.len() + 1).sum();
    let zoo: Vec<_> = h
        .records
        .iter()
        .take(first_batch)
        .filter(|r| !r.label.contains(':'))
        .filter(computed)
        .collect();
    let zoo_s: f64 = zoo.iter().map(|r| r.wall.as_secs_f64()).sum();
    let zoo_instrs: u64 = zoo.iter().map(|r| r.guest_instrs).sum();
    report.set("mfdyn.zoo_jobs", zoo.len() as f64);
    report.set("mfdyn.zoo_job_s", zoo_s);
    report.set(
        "mfdyn.zoo_mips",
        if zoo_s > 0.0 {
            zoo_instrs as f64 / zoo_s / 1e6
        } else {
            0.0
        },
    );
}
