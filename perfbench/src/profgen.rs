//! The persistence cycle `repro --profile-db` runs, repeated on a fresh
//! database with the service's default options. Each generation:
//!
//! 1. opens the service,
//! 2. reads the prior totals and fingerprints,
//! 3. assesses version skew against them (`mfbench::suite_skew`),
//! 4. records its runs (`mfbench::record_suite_svc`),
//! 5. compacts.
//!
//! A generation records a seeded subset of the suite runs, which are
//! collected once during set-up (flat backend, no observer, two threads;
//! `li/9queens` is left out: its record is no larger than `li/8queens`',
//! and its execution would dominate set-up). A collection run that fails
//! counts as a failed operation and is left out of the generations. The
//! totals each generation reads must equal the sums recorded so far.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bpredict::experiment::DatasetRun;
use bpredict::Predictor;
use mfbench::{record_suite_svc, suite_skew, SuiteRuns, WorkloadRuns};
use mffault::{RealVfs, Vfs};
use mfprofsvc::{MergedTotals, ProfileService, ServiceOptions};
use trace_vm::{Backend, Vm, VmConfig};

use crate::trace::{layer_metrics, Tracer};
use crate::{calib, median, peak_rss_mb, reset_peak_rss, Args, Report, Rng};

/// Collects every suite run (except `li/9queens`) on two threads; a run
/// that fails is reported to `report` and left out, and so is a workload
/// none of whose runs succeeded. Returns the runs and the guest
/// instructions per busy second.
fn collect_runs(report: &mut Report) -> (SuiteRuns, f64) {
    let suite = mfwork::suite();
    let programs: Vec<trace_ir::Program> = suite
        .iter()
        .map(|w| w.compile().expect("bundled workload compiles"))
        .collect();
    let work: Vec<(usize, usize)> = suite
        .iter()
        .enumerate()
        .flat_map(|(w, x)| {
            x.datasets
                .iter()
                .enumerate()
                .filter(move |(_, d)| !(x.name == "li" && d.name == "9queens"))
                .map(move |(d, _)| (w, d))
        })
        .collect();
    let next = AtomicUsize::new(0);
    type Done = Vec<(usize, usize, Result<trace_vm::Run, String>)>;
    let (done, busy): (Vec<Done>, Vec<f64>) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let start = Instant::now();
                    let mut done = Vec::new();
                    while let Some(&(w, d)) = work.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let x = &suite[w];
                        let config = VmConfig {
                            backend: Backend::Flat,
                            ..x.vm_config()
                        };
                        let run = Vm::with_config(&programs[w], config)
                            .run(&x.datasets[d].inputs)
                            .map_err(|e| format!("{}/{}: {e}", x.name, x.datasets[d].name));
                        done.push((w, d, run));
                    }
                    (done, start.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("collection worker"))
            .unzip()
    });
    let mut runs: Vec<Vec<(usize, DatasetRun)>> = vec![Vec::new(); suite.len()];
    let mut instrs = 0u64;
    for (w, d, run) in done.into_iter().flatten() {
        report.attempted += 1;
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                report.fail(format!("collecting the suite runs: {e}"));
                continue;
            }
        };
        instrs += run.stats.total_instrs;
        runs[w].push((
            d,
            DatasetRun::new(suite[w].datasets[d].name.clone(), run.stats),
        ));
    }
    let workloads = suite
        .iter()
        .zip(&programs)
        .zip(runs)
        .filter(|(_, runs)| !runs.is_empty())
        .map(|((w, program), mut runs)| {
            runs.sort_by_key(|(d, _)| *d);
            let runs: Vec<DatasetRun> = runs.into_iter().map(|(_, r)| r).collect();
            let btfn = Predictor::static_heuristic(program);
            // Fields the persistence cycle never reads keep neutral values.
            WorkloadRuns {
                name: w.name.to_string(),
                group: w.group,
                base_instrs_first: runs[0].stats.total_instrs,
                opt_instrs_first: runs[0].stats.total_instrs,
                select_ratio: runs[0].stats.select_ratio(),
                runs,
                heuristic: Predictor::heuristic(program),
                proof: btfn.clone(),
                ml: btfn.clone(),
                btfn,
                zoo: Vec::new(),
            }
        })
        .collect();
    let busy: f64 = busy.iter().sum();
    (SuiteRuns { workloads }, instrs as f64 / busy / 1e6)
}

/// Each run joins generation `g` with probability 1/2 (at least one run).
fn subset(all: &SuiteRuns, rng: &mut Rng) -> SuiteRuns {
    let mut workloads: Vec<WorkloadRuns> = all
        .workloads
        .iter()
        .filter_map(|w| {
            let runs: Vec<DatasetRun> = w
                .runs
                .iter()
                .filter(|_| rng.next_u64() & 1 == 1)
                .cloned()
                .collect();
            (!runs.is_empty()).then(|| WorkloadRuns { runs, ..w.clone() })
        })
        .collect();
    if workloads.is_empty() {
        workloads.push(all.workloads[0].clone());
    }
    SuiteRuns { workloads }
}

/// The totals a database must hold after recording `s` on top of `sums`.
fn add_expected(sums: &mut BTreeMap<String, BTreeMap<u32, (u64, u64)>>, s: &SuiteRuns) {
    for w in &s.workloads {
        for r in &w.runs {
            let slot = sums.entry(format!("{}/{}", w.name, r.dataset)).or_default();
            for (id, e, t) in r.stats.branches.iter() {
                let c = slot.entry(id.0).or_default();
                c.0 += e;
                c.1 += t;
            }
        }
    }
}

fn as_totals(sums: &BTreeMap<String, BTreeMap<u32, (u64, u64)>>) -> MergedTotals {
    sums.iter()
        .map(|(ds, m)| {
            (
                ds.clone(),
                m.iter().map(|(&id, &(e, t))| (id, e, t)).collect(),
            )
        })
        .collect()
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |rd| {
        rd.flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

fn open(db: &Path) -> Result<ProfileService, String> {
    let vfs: Arc<dyn Vfs> = Arc::new(RealVfs);
    ProfileService::open(vfs, db, ServiceOptions::default()).map_err(|e| e.to_string())
}

pub fn run(args: &Args, tr: &Tracer) -> Result<Report, String> {
    let db = args
        .db
        .clone()
        .ok_or("profile-generations needs --db DIR")?;
    let mut report = Report::default();
    // The collection uses both cores, so the host is probed around it.
    let mut collect_probes = vec![calib::probe(5)];
    let (all, mips) = collect_runs(&mut report);
    collect_probes.push(calib::probe(5));
    if all.workloads.is_empty() {
        return Ok(report);
    }
    reset_peak_rss()?;

    let trace = tr.enabled();
    let mut rng = Rng::new(args.seed);
    let mut expected: BTreeMap<String, BTreeMap<u32, (u64, u64)>> = BTreeMap::new();
    let mut traced_walls = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut reuse = Vec::new();
    let mut group_commits = Vec::new();
    let (mut committed_total, mut degraded_total) = (0u64, 0u64);
    let loop_start = Instant::now();
    let mut g = 0u64;
    let mut probes = Vec::new();
    while g < 2 || loop_start.elapsed().as_secs_f64() < args.seconds {
        let runs = subset(&all, &mut rng);
        let recorded: usize = runs.workloads.iter().map(|w| w.runs.len()).sum();
        let traced = trace && g % 2 == 1;
        tr.set_enabled(traced);
        tr.set_iteration(g);
        probes.push(calib::probe(3));
        let start = Instant::now();
        let step = tr.span("bench.iteration", || -> Result<_, String> {
            let svc = tr.span("mfprofsvc.open", || open(&db))?;
            let (prior, fps) = tr.span("mfprofsvc.read_prior", || {
                (svc.merged_totals(), svc.merged_fingerprints_by_dataset())
            });
            let (prior, fps) = (
                prior.map_err(|e| e.to_string())?,
                fps.map_err(|e| e.to_string())?,
            );
            let skew = if prior.is_empty() {
                None
            } else {
                Some(tr.span("mfstale.skew", || suite_skew(&prior, &fps, &runs)))
            };
            let acks = tr.span("mfprofsvc.record", || record_suite_svc(&svc, &runs));
            let compacted = tr.span("mfprofsvc.compact", || svc.compact());
            let counters = svc.counters();
            let persistent = svc.is_persistent();
            tr.span("mfprofsvc.close", || drop(svc));
            Ok((prior, skew, acks, compacted, counters, persistent))
        });
        let wall = start.elapsed().as_secs_f64();

        report.attempted += 1 + recorded as u64;
        let (prior, skew, acks, compacted, counters, persistent) = match step {
            Ok(s) => s,
            Err(e) => {
                report.fail(format!("generation {g}: {e}"));
                break;
            }
        };
        if prior != as_totals(&expected) {
            report.fail(format!(
                "generation {g}: merged totals differ from the sums recorded before it"
            ));
        }
        match skew {
            Some(Ok(s)) => reuse.push(s.total.reuse_fraction()),
            Some(Err(e)) => report.fail(format!("generation {g}: skew assessment: {e}")),
            None => {}
        }
        match acks {
            Ok((committed, degraded)) => {
                committed_total += committed as u64;
                degraded_total += degraded as u64;
                if committed != recorded {
                    report.fail(format!(
                        "generation {g}: {committed} of {recorded} appends committed ({degraded} degraded)"
                    ));
                }
            }
            Err(e) => report.fail(format!("generation {g}: record: {e}")),
        }
        if let Err(e) = compacted {
            report.fail(format!("generation {g}: compact: {e}"));
        }
        if !persistent {
            report.fail(format!("generation {g}: database is not persistent"));
        }
        add_expected(&mut expected, &runs);
        group_commits.push(counters.group_commits as f64);
        if traced {
            traced_walls.push(wall);
        } else {
            untraced_walls.push(wall);
            report.sample("wall_s", wall);
        }
        g += 1;
    }
    tr.set_enabled(trace);
    // The generations' own peak: the collection is not in it.
    report.set("peak_rss_mb", peak_rss_mb());

    // The database as a later process sees it.
    report.attempted += 1;
    match open(&db).and_then(|svc| svc.merged_totals().map_err(|e| e.to_string())) {
        Ok(totals) if totals == as_totals(&expected) => {}
        Ok(_) => report.fail("reopened database: totals differ from the sums recorded".into()),
        Err(e) => report.fail(format!("reopening the database: {e}")),
    }
    report.set("mfprofsvc.group_commits", median(&group_commits));
    report.set("mfprofsvc.db_bytes", dir_bytes(&db) as f64);
    report.set("mfprofdb.committed_appends", committed_total as f64);
    report.set("mfprofdb.degraded_appends", degraded_total as f64);
    report.set("mfstale.reuse_fraction", median(&reuse));
    if trace {
        layer_metrics(tr, &traced_walls, &mut report.values);
        report.set(
            "bench.trace_overhead_s",
            median(&traced_walls) - median(&untraced_walls),
        );
    }
    report.normalize(&probes);
    report.set("guest_mips", mips * calib::slowdown(&collect_probes));
    Ok(report)
}
