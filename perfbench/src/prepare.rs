//! The set-up step every workload repeats: build the suite (programs and
//! datasets) and run the compiler front end over every program — lower,
//! optimize, analyze — as `mfbench::collect` does before it submits a
//! single run.

use std::time::Instant;

use crate::trace::{layer_metrics, Tracer};
use crate::Report;

/// IR instructions of `program`, terminators included.
pub fn ir_instrs(program: &trace_ir::Program) -> usize {
    program
        .functions
        .iter()
        .flat_map(|f| &f.blocks)
        .map(|b| b.instrs.len() + 1)
        .sum()
}

pub fn run(tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let mut probes = vec![crate::calib::probe(5)];
    let start = Instant::now();
    let (mut instrs, mut removed, mut proven) = (0usize, 0usize, 0usize);
    tracer.span("bench.prepare", || {
        let suite = tracer.span("mfwork.suite_build", mfwork::suite);
        for w in &suite {
            report.attempted += 1;
            let program = match tracer.span("mflang.compile", || mflang::compile(&w.source)) {
                Ok(p) => p,
                Err(e) => {
                    report.fail(format!("{}: compile error: {e}", w.name));
                    continue;
                }
            };
            let before = ir_instrs(&program);
            instrs += before;
            let mut optimized = program.clone();
            tracer.span("mfopt.optimize", || {
                mfopt::Pipeline::standard().run(&mut optimized)
            });
            removed += before.saturating_sub(ir_instrs(&optimized));
            let proofs = tracer.span("mfpredict.analyze", || mfpredict::analyze(&program));
            proven += proofs.proven_directions().count();
        }
    });
    let wall = start.elapsed().as_secs_f64();
    probes.push(crate::calib::probe(5));
    report.sample("wall_s", wall);
    report.set("mflang.ir_instrs", instrs as f64);
    report.set("mfopt.ir_instrs_removed", removed as f64);
    report.set("mfpredict.proven_sites", proven as f64);
    if tracer.enabled() {
        layer_metrics(tracer, &[wall], &mut report.values);
    }
    report.normalize(&probes);
    report
}
