//! `paper_repro`: what `specrun-lab run --all` does, in process.
//!
//! Unit: one full-scale pass over every registry scenario, with the merged
//! report rendered and every artifact written through `FsSink`.

use std::path::PathBuf;

use specrun_lab::registry::registry;
use specrun_lab::{FsSink, LabReport, RunContext, Scenario};

use crate::span::{open, open_labelled, timed, Tracer};
use crate::stats::fnv1a;
use crate::{Bench, Rep, THREADS};

/// The campaign context plus the artifact directory it writes into.
pub struct PaperRepro {
    ctx: RunContext,
    scenarios: Vec<Scenario>,
    dir: PathBuf,
}

/// A full-scale context seeded with `seed`, writing artifacts under `dir`.
pub fn setup(seed: u64, dir: PathBuf) -> PaperRepro {
    std::fs::create_dir_all(&dir).expect("the artifact directory can be created");
    PaperRepro {
        ctx: RunContext { quick: false, threads: THREADS, seed },
        scenarios: registry(),
        dir,
    }
}

impl Bench for PaperRepro {
    fn run(&self, tracer: Option<&Tracer>) -> Rep {
        let pass = open(tracer, "lab.repro_pass", 0, None);
        let mut report = LabReport::default();
        for (i, scenario) in self.scenarios.iter().enumerate() {
            let span = open_labelled(tracer, "lab.scenario", scenario.name, i as u64, pass.id());
            let run = scenario.try_execute(&self.ctx);
            drop(span);
            report.runs.push(run.into());
        }
        let rendered =
            timed(tracer, "lab.report_render", 0, pass.id(), || report.to_json().render());
        let written = timed(tracer, "lab.sink_write", 0, pass.id(), || {
            report.write_artifacts_with(&self.dir, &FsSink)
        });
        let failed = !report.passed() || written.is_err();
        Rep {
            units: 1,
            failed: u64::from(failed),
            counters: vec![
                ("units", 1),
                ("lab.scenarios", report.runs.len() as u64),
                ("lab.invariants", report.invariant_count() as u64),
            ],
            digest: fnv1a(rendered.as_bytes()),
        }
    }
}
