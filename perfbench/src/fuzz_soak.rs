//! `fuzz_soak`: a full-scale fuzz campaign, every plan run twice.
//!
//! Unit: one plan. Untraced, the campaign runs through
//! `specrun_lab::fuzz::campaign`; traced, it is recomposed from
//! `Plan::generate`, a fresh `Session` build, `try_run_plan` (twice) and
//! `violations_for` on the same trial harness, so each call gets its span.

use specrun::{config_for, layout_for, try_run_plan, Session};
use specrun_lab::fuzz::{self, FuzzOptions, PlanEval};
use specrun_workloads::harness::try_parallel_map;
use specrun_workloads::plan::Plan;

use crate::span::{open, timed, Tracer};
use crate::stats::{fnv1a, fnv1a_fold, FNV_OFFSET};
use crate::{Bench, Rep, THREADS};

/// The generated campaign.
pub struct FuzzSoak {
    opts: FuzzOptions,
}

/// A full-scale campaign of `plans` plans whose seed is drawn from `seed`.
/// Every plan is generated here once, the way the campaign will, and must
/// be well formed.
pub fn setup(seed: u64, plans: u64) -> FuzzSoak {
    let opts =
        FuzzOptions { plans, seed, threads: THREADS, quick: false, ..FuzzOptions::default() };
    for index in 0..plans {
        let plan = Plan::generate(seed, index, false);
        assert!(plan.layout.is_valid(), "plan {index} of campaign {seed:#x} is malformed");
    }
    FuzzSoak { opts }
}

/// One plan's traced evaluation.
struct PlanRun {
    passed: bool,
    cycles: u64,
    committed: u64,
    digest: u64,
}

impl FuzzSoak {
    fn traced(&self, tracer: &Tracer) -> Rep {
        let t = Some(tracer);
        let campaign = open(t, "lab.fuzz_campaign", 0, None);
        let root = campaign.id();
        let plans: Vec<Plan> = (0..self.opts.plans)
            .map(|i| {
                timed(t, "workloads.plan_generate", i, root, || {
                    Plan::generate(self.opts.seed, i, false)
                })
            })
            .collect();
        let harness = open(t, "workloads.harness", 0, root);
        let fan_out = harness.id();
        let runs = try_parallel_map(&plans, THREADS, |_, plan| {
            let unit = plan.index;
            let span = open(t, "lab.fuzz_plan", unit, fan_out);
            let session = timed(t, "core.session_build", unit, span.id(), || {
                Session::builder().config(config_for(plan)).layout(layout_for(plan)).build()
            });
            drop(session);
            let first = timed(t, "core.plan_run", unit, span.id(), || try_run_plan(plan));
            let second = timed(t, "core.plan_run", unit, span.id(), || try_run_plan(plan));
            let (Ok(first), Ok(second)) = (first, second) else {
                return PlanRun { passed: false, cycles: 0, committed: 0, digest: 0 };
            };
            let cycles = first.stats.cycles + second.stats.cycles;
            let committed = first.stats.committed + second.stats.committed;
            let digest = fnv1a(
                format!(
                    "{:016x}/{}/{:?}",
                    first.arch_fingerprint, first.stats.cycles, first.leaked
                )
                .as_bytes(),
            );
            let eval = PlanEval { first, second };
            let violations = timed(t, "lab.fuzz_check", unit, span.id(), || {
                fuzz::violations_for(plan, &eval, None)
            });
            PlanRun { passed: violations.is_empty(), cycles, committed, digest }
        });
        drop(harness);
        drop(campaign);
        let mut rep =
            Rep { units: self.opts.plans, failed: 0, counters: Vec::new(), digest: FNV_OFFSET };
        let (mut cycles, mut committed) = (0, 0);
        for run in runs {
            match run {
                Ok(run) => {
                    rep.failed += u64::from(!run.passed);
                    cycles += run.cycles;
                    committed += run.committed;
                    rep.digest = fnv1a_fold(rep.digest, &run.digest.to_le_bytes());
                }
                Err(_) => rep.failed += 1,
            }
        }
        rep.counters = vec![
            ("units", self.opts.plans),
            ("cpu.sim_cycles", cycles),
            ("cpu.committed", committed),
        ];
        rep
    }
}

impl Bench for FuzzSoak {
    fn run(&self, tracer: Option<&Tracer>) -> Rep {
        if let Some(t) = tracer {
            return self.traced(t);
        }
        let result = fuzz::campaign(&self.opts);
        let clean = result.passed() && result.panics == 0 && result.run_errors == 0;
        let failed = result.failures.len() as u64 + result.skipped_plans;
        Rep {
            units: self.opts.plans,
            failed: if clean { 0 } else { failed.max(1) },
            counters: vec![("units", self.opts.plans)],
            digest: fnv1a(result.report.as_bytes()),
        }
    }
}
