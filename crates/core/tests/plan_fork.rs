//! Fork fidelity across the fuzz plan grammar: an attack unit run on a
//! clone of a prologue advanced to the victim's first secret read must be
//! indistinguishable from the same unit run on the unadvanced prologue —
//! the property the campaign pool's forks rest on, checked here over
//! every gadget, policy, layout and knob the plan generator draws rather
//! than only the paper matrix.

use std::collections::BTreeSet;

use specrun::attack::{check_halted, Attack, PocOutcome};
use specrun::session::{leak_trace_for, Session};
use specrun::{config_for, layout_for, poc_config_for};
use specrun_cpu::probe::{CountingObserver, LeakTraceObserver};
use specrun_cpu::{CpuStats, RunExit};
use specrun_workloads::harness::RunError;
use specrun_workloads::plan::Plan;

/// Everything one unit leaves behind that a fork could disturb.
#[derive(Debug, PartialEq)]
struct UnitRun {
    health: Result<(), RunError>,
    outcome: PocOutcome,
    stats: CpuStats,
    observers: (CountingObserver, LeakTraceObserver),
    first_non_halt: Option<RunExit>,
}

/// Runs `plan`'s attack with the ground-truth observers attached: the
/// prologue, then — `forked` — the victim advanced to its first secret
/// read and the unit run on a clone, or the unit run in place.
fn run_unit(plan: &Plan, forked: bool) -> UnitRun {
    let layout = layout_for(plan);
    let config = config_for(plan);
    let tracer = leak_trace_for(&layout, &config);
    let mut session = Session::builder()
        .config(config)
        .layout(layout)
        .observer((CountingObserver::default(), tracer))
        .build();
    for w in &plan.warm {
        session.warm(w.addr, w.len);
    }
    let cfg = poc_config_for(plan);
    let mut attack = Attack::prologue(&mut session, plan.victim.gadget, &cfg);
    let mut session = if forked {
        attack.run_to_first_secret_read(&mut session);
        session.clone()
    } else {
        session
    };
    let outcome = attack.unit(&mut session, cfg.secret);
    UnitRun {
        health: check_halted(&session, cfg.max_cycles, || format!("plan {}", plan.index)),
        outcome,
        stats: *session.stats(),
        observers: session.observer().clone(),
        first_non_halt: session.first_non_halt(),
    }
}

/// A victim budget that runs out after the first secret read of most
/// plans, so the fork's share of the budget is checked too.
const STARVED_BUDGET: u64 = 5_000;

#[test]
fn forked_units_equal_fresh_units_across_the_plan_grammar() {
    let mut gadgets = BTreeSet::new();
    let mut policies = BTreeSet::new();
    let mut overruns = 0;
    for index in 0..64 {
        let plan = Plan::generate(0xC0FFEE, index, true);
        gadgets.insert(plan.victim.gadget.label());
        policies.insert(plan.policy.label());
        let mut starved = plan.clone();
        starved.victim.max_cycles = STARVED_BUDGET;
        for (plan, what) in [(&plan, "plan"), (&starved, "starved plan")] {
            let fresh = run_unit(plan, false);
            let forked = run_unit(plan, true);
            assert_eq!(forked, fresh, "{what} {index}: the fork must be exact");
            overruns += usize::from(fresh.first_non_halt == Some(RunExit::CycleLimit));
        }
    }
    assert_eq!(gadgets.len(), 3, "every gadget is covered: {gadgets:?}");
    assert_eq!(policies.len(), 7, "every policy is covered: {policies:?}");
    assert!(overruns > 0, "some starved plans must overrun their budget");
}
