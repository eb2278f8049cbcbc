//! Fast-forward and event-scheduler equivalence: for every workload kernel
//! and every machine variant, the fast-forwarding simulator must be
//! *bit-identical* to the naive one-cycle-at-a-time loop — same cycle
//! count, same retired instructions, same full statistics block, same
//! architectural registers — and the event-driven scheduler must reach the
//! same decisions as the retired scan-based one (`sched_check`). A run
//! split at any cycle by `Core::run_to` must equal the unsplit run.

use proptest::prelude::*;
use specrun::attack::{build_pht_program, run_poc, GadgetKind, PocConfig};
use specrun::session::Session;
use specrun_cpu::{Core, CpuConfig, CpuStats, RunExit};
use specrun_isa::IntReg;
use specrun_workloads::{kernels, suite_with_iters, Workload};

/// Runs `w` to completion and returns (stats, architectural registers).
fn run(w: &Workload, cfg: CpuConfig) -> (CpuStats, Vec<u64>) {
    let mut core = Core::new(cfg);
    for (addr, bytes) in &w.setup {
        core.mem_mut().write_bytes(*addr, bytes);
    }
    core.load_program(&w.program);
    let exit = core.run(100_000_000);
    assert_eq!(exit, RunExit::Halted, "{} must halt", w.name);
    let regs = (1..32).map(|i| core.read_int_reg(IntReg::new(i).unwrap())).collect();
    (*core.stats(), regs)
}

fn workloads() -> Vec<Workload> {
    let mut ws = suite_with_iters(150);
    ws.push(kernels::pointer_chase(60));
    ws
}

#[test]
fn fast_forward_matches_naive_loop_exactly() {
    for w in workloads() {
        for (machine, base) in [
            ("no_runahead", CpuConfig::no_runahead()),
            ("runahead", CpuConfig::default()),
            ("secure", CpuConfig::secure_runahead()),
        ] {
            let mut ff = base.clone();
            ff.fast_forward = true;
            let mut naive = base;
            naive.fast_forward = false;
            let (ff_stats, ff_regs) = run(&w, ff);
            let (naive_stats, naive_regs) = run(&w, naive);
            assert_eq!(ff_stats, naive_stats, "stats diverge on {}/{machine}", w.name);
            assert_eq!(
                ff_regs, naive_regs,
                "architectural registers diverge on {}/{machine}",
                w.name
            );
        }
    }
}

/// The self-checking mode: every jump is re-validated by stepping a cloned
/// core through the skipped window. Any unsound skip panics inside run().
#[test]
fn ff_check_mode_validates_every_jump() {
    for w in [kernels::pointer_chase(40), kernels::mcf(60)] {
        for base in [CpuConfig::no_runahead(), CpuConfig::default()] {
            let mut cfg = base;
            cfg.ff_check = true;
            let (stats, _) = run(&w, cfg);
            assert!(stats.cycles > 0);
        }
    }
}

/// The event-scheduler self-check: the retired scan-based logic runs in
/// parallel every cycle (writeback due-sets recomputed by a full ROB scan,
/// the issue-ready queue audited against every waiting entry's operands)
/// and any divergence panics inside run(). The checked run must also be
/// bit-identical — stats and architectural state — to the unchecked one.
#[test]
fn sched_check_validates_event_scheduler() {
    let mut ws = suite_with_iters(60);
    ws.push(kernels::pointer_chase(30));
    for w in ws {
        for (machine, base) in [
            ("no_runahead", CpuConfig::no_runahead()),
            ("runahead", CpuConfig::default()),
            ("secure", CpuConfig::secure_runahead()),
        ] {
            let mut checked = base.clone();
            checked.sched_check = true;
            let (checked_stats, checked_regs) = run(&w, checked);
            let (plain_stats, plain_regs) = run(&w, base);
            assert_eq!(
                checked_stats, plain_stats,
                "sched_check changes stats on {}/{machine}",
                w.name
            );
            assert_eq!(
                checked_regs, plain_regs,
                "sched_check changes architectural state on {}/{machine}",
                w.name
            );
        }
    }
}

/// Extended fast-forward (jumps with instructions in flight) must be
/// invisible to the end-to-end SpectrePHT-in-runahead proof of concept:
/// same leaked byte, same probe-relevant statistics, with and without it.
#[test]
fn fast_forward_is_invisible_to_the_attack_poc() {
    let mut outcomes = Vec::new();
    for ff in [true, false] {
        let cfg = CpuConfig { fast_forward: ff, ..CpuConfig::default() };
        let mut session = Session::builder().config(cfg).build();
        let out = run_poc(&mut session, GadgetKind::Pht, &PocConfig::default());
        outcomes.push((out.leaked, out.expected, *session.core().stats()));
    }
    assert_eq!(outcomes[0], outcomes[1], "fast-forward changed the PoC outcome");
    assert_eq!(outcomes[0].0, Some(86), "the runahead machine must leak the secret");
}

/// The predecode layer must be semantically invisible: a `predecode_check`
/// run — which re-derives every fetched micro-op's `UopMeta` from the
/// `Inst` enum with the retired per-site derivations and panics on any
/// divergence — over the end-to-end SpectrePHT-in-runahead proof of
/// concept leaks the same byte with bit-identical statistics.
#[test]
fn predecode_check_is_invisible_to_the_attack_poc() {
    let mut outcomes = Vec::new();
    for check in [true, false] {
        let cfg = CpuConfig { predecode_check: check, ..CpuConfig::default() };
        let mut session = Session::builder().config(cfg).build();
        let out = run_poc(&mut session, GadgetKind::Pht, &PocConfig::default());
        outcomes.push((out.leaked, out.expected, *session.core().stats()));
    }
    assert_eq!(outcomes[0], outcomes[1], "predecode_check changed the PoC outcome");
    assert_eq!(outcomes[0].0, Some(86), "the runahead machine must leak the secret");
}

/// `predecode_check` over the workload kernels, on every machine variant:
/// the audit must pass (no panic) and stats and architectural state stay
/// bit-identical to the unchecked run.
#[test]
fn predecode_check_validates_kernels() {
    for w in [kernels::mcf(60), kernels::pointer_chase(30)] {
        for (machine, base) in [
            ("no_runahead", CpuConfig::no_runahead()),
            ("runahead", CpuConfig::default()),
            ("secure", CpuConfig::secure_runahead()),
        ] {
            let mut checked = base.clone();
            checked.predecode_check = true;
            let (checked_stats, checked_regs) = run(&w, checked);
            let (plain_stats, plain_regs) = run(&w, base);
            assert_eq!(
                checked_stats, plain_stats,
                "predecode_check changes stats on {}/{machine}",
                w.name
            );
            assert_eq!(
                checked_regs, plain_regs,
                "predecode_check changes architectural state on {}/{machine}",
                w.name
            );
        }
    }
}

/// Machines loaded and ready to run — the Fig. 9 PoC on the runahead
/// machine and two kernels — each with the byte addresses whose cache
/// residency its result is read from (the PoC's probe lines, the kernels'
/// data).
fn split_subjects(fast_forward: bool) -> Vec<(&'static str, Core, Vec<u64>)> {
    let cfg = CpuConfig { fast_forward, ..CpuConfig::default() };
    let poc = PocConfig::default();
    let mut session = Session::builder().config(cfg.clone()).build();
    session.plant(&poc.layout, poc.secret);
    let program = build_pht_program(&poc);
    session.warm_text(&program);
    session.load(&program);
    let probes = (0..poc.layout.probe_entries).map(|v| poc.layout.probe_addr(v)).collect();
    let mut subjects = vec![("pht_poc", session.core().clone(), probes)];
    for w in [kernels::mcf(60), kernels::pointer_chase(30)] {
        let mut core = Core::new(cfg.clone());
        for (addr, bytes) in &w.setup {
            core.mem_mut().write_bytes(*addr, bytes);
        }
        core.load_program(&w.program);
        let data = w
            .setup
            .iter()
            .flat_map(|(addr, bytes)| (*addr..*addr + bytes.len() as u64).step_by(64))
            .collect();
        subjects.push((w.name, core, data));
    }
    subjects
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `run_to(k)` then `run(rest)` is one `run`: same statistics, same
    /// architectural state, same cache residency, whether the split lands
    /// in a busy stretch or a fast-forwarded one.
    #[test]
    fn run_to_then_run_equals_one_run(
        fast_forward in any::<bool>(),
        which in 0usize..3,
        permille in 0u64..1000,
    ) {
        let (name, machine, addrs) = split_subjects(fast_forward).swap_remove(which);
        let budget = 100_000_000;
        let start = machine.cycle();
        let mut whole = machine.clone();
        prop_assert_eq!(whole.run(budget), RunExit::Halted, "{} must halt", name);
        let stop = start + (whole.cycle() - start) * permille / 1000;
        let mut split = machine;
        prop_assert_eq!(split.run_to(stop), RunExit::CycleLimit);
        prop_assert_eq!(split.cycle(), stop, "run_to stops exactly at its cycle");
        prop_assert_eq!(split.run(budget - (stop - start)), RunExit::Halted);
        prop_assert_eq!(split.stats(), whole.stats(), "{} split at {}", name, stop);
        prop_assert_eq!(split.arch_fingerprint(), whole.arch_fingerprint());
        let residency = |core: &Core| -> Vec<_> {
            addrs.iter().map(|&a| core.mem().residency(a)).collect()
        };
        prop_assert_eq!(residency(&split), residency(&whole), "{} split at {}", name, stop);
    }
}
