//! Guest execution alone: one thread flattens every program `repro`
//! builds and runs it on the flat backend with no observer, on the
//! paper's datasets plus seeded inputs from `mfwork`'s generators.
//! `li/9queens` is left out; it alone would be most of the time.
//!
//! Every iteration must repeat the first run for run, and after the timed
//! loop the reference interpreter runs every input once (two threads):
//! the first iteration's output, result and counters must equal it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use mfwork::{compress, mfcom};
use trace_ir::Program;
use trace_vm::{Backend, FlatProgram, Input, Run, Vm, VmConfig};

use crate::trace::{layer_metrics, Tracer};
use crate::{calib, median, peak_rss_mb, reset_peak_rss, Args, Report, Rng};

/// The pairs `repro`'s inlining table runs through the `mfopt` inliner.
const INLINED: &[(&str, &str)] = &[
    ("doduc", "tiny"),
    ("gcc", "loop_mod"),
    ("li", "kittyv"),
    ("mfcom", "c_metric"),
    ("spiff", "case1"),
];

/// One compiled program and the inputs it runs on.
struct Target {
    workload: &'static str,
    program: Program,
    config: VmConfig,
    inputs: Vec<(String, Vec<Input>)>,
}

fn pack_text(text: &str, mode: i64) -> Vec<Input> {
    let bytes: Vec<i64> = text.bytes().map(i64::from).collect();
    let n = bytes.len() as i64;
    vec![Input::Ints(bytes), Input::Int(n), Input::Int(mode)]
}

fn pack_ints(ints: Vec<i64>, mode: i64) -> Vec<Input> {
    let n = ints.len() as i64;
    vec![Input::Ints(ints), Input::Int(n), Input::Int(mode)]
}

/// Seeded inputs beside the paper's datasets, sized like them.
/// `uncompress` (the same guest as `compress`, switched to decompress)
/// gets what `program` compresses the seeded `compress` inputs to.
fn seeded_inputs(workload: &str, seed: u64, program: &Program) -> Vec<(String, Vec<Input>)> {
    if workload == "uncompress" {
        return seeded_inputs("compress", seed, program)
            .into_iter()
            .map(|(name, inputs)| {
                let codes = Vm::new(program)
                    .run(&inputs)
                    .expect("compress guest runs")
                    .output_ints();
                (name, pack_ints(codes, 1))
            })
            .collect();
    }
    let mut rng = Rng::new(seed);
    let mut s = || rng.next_u64() % 1_000_000;
    match workload {
        "mfcom" => vec![
            (
                "seeded_c".into(),
                vec![
                    Input::from_text(&mfcom::gen_c_metric(s(), 900)),
                    Input::Int(0),
                ],
            ),
            (
                "seeded_fortran".into(),
                vec![
                    Input::from_text(&mfcom::gen_fortran_metric(s(), 1000)),
                    Input::Int(1),
                ],
            ),
        ],
        "compress" => vec![
            (
                "seeded_csrc".into(),
                pack_text(&compress::gen_c_source(s(), 40), 0),
            ),
            (
                "seeded_binary".into(),
                pack_ints(compress::gen_binary(s(), 14_000), 0),
            ),
            (
                "seeded_text".into(),
                pack_text(&compress::gen_long_text(s(), 6_000), 0),
            ),
        ],
        _ => Vec::new(),
    }
}

fn targets(seed: u64) -> Vec<Target> {
    let mut out = Vec::new();
    for w in mfwork::suite() {
        let config = VmConfig {
            backend: Backend::Flat,
            ..w.vm_config()
        };
        let program = w.compile().expect("bundled workload compiles");
        let mut inputs: Vec<(String, Vec<Input>)> = w
            .datasets
            .iter()
            .filter(|d| !(w.name == "li" && d.name == "9queens"))
            .map(|d| (d.name.clone(), d.inputs.clone()))
            .collect();
        inputs.extend(seeded_inputs(w.name, seed, &program));
        let first = &w.datasets[0];
        out.push(Target {
            workload: w.name,
            program: w.compile_optimized().expect("bundled workload optimizes"),
            config,
            inputs: vec![(first.name.clone(), first.inputs.clone())],
        });
        for &(_, dataset) in INLINED.iter().filter(|(p, _)| *p == w.name) {
            let d = w.dataset(dataset).expect("inlining pair names a dataset");
            let mut inlined = program.clone();
            mfopt::Inliner::default().run(&mut inlined);
            out.push(Target {
                workload: w.name,
                program: inlined,
                config,
                inputs: vec![(d.name.clone(), d.inputs.clone())],
            });
        }
        out.push(Target {
            workload: w.name,
            program,
            config,
            inputs,
        });
    }
    out
}

/// Reference-interpreter runs of every (target, input), on two threads.
fn reference_runs(targets: &[Target]) -> Vec<Vec<Result<Run, String>>> {
    let work: Vec<(usize, usize)> = targets
        .iter()
        .enumerate()
        .flat_map(|(t, x)| (0..x.inputs.len()).map(move |i| (t, i)))
        .collect();
    let next = AtomicUsize::new(0);
    let mut out: Vec<Vec<Result<Run, String>>> = targets
        .iter()
        .map(|x| x.inputs.iter().map(|_| Err("not run".into())).collect())
        .collect();
    type Done = Vec<(usize, usize, Result<Run, String>)>;
    let done: Vec<Done> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some(&(t, i)) = work.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let x = &targets[t];
                        let config = VmConfig {
                            backend: Backend::Reference,
                            ..x.config
                        };
                        let run = Vm::with_config(&x.program, config)
                            .run(&x.inputs[i].1)
                            .map_err(|e| e.to_string());
                        done.push((t, i, run));
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("reference worker panicked"))
            .collect()
    });
    for (t, i, run) in done.into_iter().flatten() {
        out[t][i] = run;
    }
    out
}

/// Every flat run of one iteration, indexed like `Target::inputs`.
type Runs = Vec<Vec<Result<Run, String>>>;

pub fn run(args: &Args, tr: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let targets = targets(args.seed);
    reset_peak_rss()?;

    let trace = tr.enabled();
    let loop_start = Instant::now();
    let mut traced_walls = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut per_program: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
    let mut counts: Option<(u64, u64)> = None;
    let mut first: Option<Runs> = None;
    let mut probes = Vec::new();
    let mut iter = 0u64;
    // At least two iterations; trace runs alternate untraced and traced
    // iterations so the difference prices the tracing.
    while iter < 2 || loop_start.elapsed().as_secs_f64() < args.seconds {
        let traced = trace && iter % 2 == 1;
        tr.set_enabled(traced);
        tr.set_iteration(iter);
        let (mut instrs, mut ops) = (0u64, 0u64);
        let mut runs: Runs = Vec::with_capacity(targets.len());
        let mut wall = 0.0;
        tr.span("bench.iteration", || {
            for x in &targets {
                // Probes interleave with the programs, off the clock.
                probes.push(calib::probe(1));
                let start = Instant::now();
                let flat = tr.span("trace-vm.flatten", || {
                    FlatProgram::compile_with(&x.program, None, x.config.trace)
                });
                ops += flat.op_count() as u64;
                let mut out = Vec::with_capacity(x.inputs.len());
                for (_, inputs) in &x.inputs {
                    let t0 = Instant::now();
                    let run = tr.span("trace-vm.exec", || flat.run(x.config, inputs));
                    let secs = t0.elapsed().as_secs_f64();
                    if let Ok(r) = &run {
                        instrs += r.stats.total_instrs;
                        let slot = per_program.entry(x.workload).or_default();
                        slot.0 += r.stats.total_instrs;
                        slot.1 += secs;
                    }
                    out.push(run.map_err(|e| e.to_string()));
                }
                runs.push(out);
                wall += start.elapsed().as_secs_f64();
            }
        });

        // Every iteration must repeat the first exactly; the first is
        // checked against the reference interpreter after the loop.
        report.attempted += runs.iter().map(Vec::len).sum::<usize>() as u64;
        match &first {
            None => first = Some(runs),
            Some(want) => check_runs(
                &targets,
                &runs,
                want,
                &format!("iteration {iter}"),
                &mut report,
            ),
        }
        if *counts.get_or_insert((instrs, ops)) != (instrs, ops) {
            report.fail(format!(
                "iteration {iter}: guest instructions/flat ops {instrs}/{ops} differ from {counts:?}"
            ));
        }
        if traced {
            traced_walls.push(wall);
        } else {
            untraced_walls.push(wall);
            report.sample("wall_s", wall);
            report.sample("guest_mips", instrs as f64 / wall / 1e6);
        }
        iter += 1;
    }
    tr.set_enabled(trace);
    // The loop's own peak: set-up and the reference runs below are not in it.
    report.set("peak_rss_mb", peak_rss_mb());

    let refs = reference_runs(&targets);
    if let Some(first) = &first {
        check_runs(&targets, first, &refs, "reference", &mut report);
    }

    let (instrs, ops) = counts.unwrap_or_default();
    report.set("trace-vm.guest_instrs", instrs as f64);
    report.set("trace-vm.flat_ops", ops as f64);
    for (name, (instrs, secs)) in per_program {
        let mips = if secs > 0.0 {
            instrs as f64 / secs / 1e6
        } else {
            0.0
        };
        report.set(format!("trace-vm.mips.{name}"), mips);
    }
    if trace {
        layer_metrics(tr, &traced_walls, &mut report.values);
        report.set(
            "bench.trace_overhead_s",
            median(&traced_walls) - median(&untraced_walls),
        );
    }
    report.normalize(&probes);
    Ok(report)
}

/// Fails every run of `got` that is not exactly the run `want` holds
/// for the same program and input (output, result and every counter).
fn check_runs(targets: &[Target], got: &Runs, want: &Runs, against: &str, report: &mut Report) {
    for ((x, got), want) in targets.iter().zip(got).zip(want) {
        for (((name, _), got), want) in x.inputs.iter().zip(got).zip(want) {
            match (got, want) {
                (Ok(g), Ok(w)) if g == w => {}
                (Ok(_), Ok(_)) => report.fail(format!(
                    "{}/{name}: flat run differs from the {against} run",
                    x.workload
                )),
                (Err(e), _) => report.fail(format!("{}/{name}: flat run failed: {e}", x.workload)),
                (Ok(_), Err(e)) => {
                    report.fail(format!("{}/{name}: {against} run failed: {e}", x.workload))
                }
            }
        }
    }
}
