//! The Fig. 7 IPC harness: run each kernel on the no-runahead and runahead
//! machines and compare.

use specrun_cpu::probe::{NoopObserver, PipelineObserver};
use specrun_cpu::{Core, CpuConfig, RunExit};

use crate::harness::RunError;
use crate::kernels::Workload;

/// Default iteration count giving runs of roughly 10⁵ cycles per kernel.
pub const DEFAULT_ITERS: u32 = 1500;

/// IPC of one kernel on one machine configuration.
#[derive(Debug, Clone, Copy)]
pub struct IpcResult {
    /// Committed instructions.
    pub committed: u64,
    /// Cycles to completion.
    pub cycles: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Runahead episodes entered.
    pub runahead_entries: u64,
}

/// Runs a workload to completion on a fresh core with `config`.
///
/// # Panics
///
/// Panics if the kernel does not halt within the cycle budget. Campaign
/// paths that must survive a pathological kernel use [`try_run_workload`].
pub fn run_workload(workload: &Workload, config: CpuConfig, max_cycles: u64) -> IpcResult {
    run_workload_timed(workload, config, max_cycles).0
}

/// Fallible [`run_workload`]: a kernel that exhausts its cycle budget (or
/// wedges) comes back as a structured [`RunError`] instead of a panic.
pub fn try_run_workload(
    workload: &Workload,
    config: CpuConfig,
    max_cycles: u64,
) -> Result<IpcResult, RunError> {
    try_run_workload_observed(workload, config, max_cycles, NoopObserver).map(|(r, _, _)| r)
}

/// [`run_workload`], additionally returning the wall-clock seconds spent in
/// the simulation loop alone — setup (core construction, cache allocation,
/// program load) is excluded, so derived cycles-per-second rates are
/// iteration-count-independent. Used by the `bench_step` throughput anchor.
///
/// # Panics
///
/// Panics if the kernel does not halt within the cycle budget.
pub fn run_workload_timed(
    workload: &Workload,
    config: CpuConfig,
    max_cycles: u64,
) -> (IpcResult, f64) {
    let (result, secs, _) = run_workload_observed(workload, config, max_cycles, NoopObserver);
    (result, secs)
}

/// The observer-carrying kernel runner every other entry point reduces to:
/// runs `workload` to completion on a fresh [`Core`] with `observer`
/// attached, returning the IPC result, the wall-clock seconds spent in the
/// simulation loop alone, and the observer with whatever it saw. With
/// [`NoopObserver`] this is exactly [`run_workload_timed`] — the observer
/// is statically inert.
///
/// # Panics
///
/// Panics if the kernel does not halt within the cycle budget. Campaign
/// paths use [`try_run_workload_observed`] and degrade gracefully.
pub fn run_workload_observed<O: PipelineObserver>(
    workload: &Workload,
    config: CpuConfig,
    max_cycles: u64,
    observer: O,
) -> (IpcResult, f64, O) {
    try_run_workload_observed(workload, config, max_cycles, observer)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`run_workload_observed`]: the root runner every other entry
/// point reduces to. A kernel that exhausts its cycle budget or wedges is
/// returned as a [`RunError`] carrying the kernel name and the stats at
/// the point the core gave up — a campaign records it as a failed entry
/// and moves on.
pub fn try_run_workload_observed<O: PipelineObserver>(
    workload: &Workload,
    config: CpuConfig,
    max_cycles: u64,
    observer: O,
) -> Result<(IpcResult, f64, O), RunError> {
    let mut core = Core::with_observer(config, observer);
    for (addr, bytes) in &workload.setup {
        core.mem_mut().write_bytes(*addr, bytes);
    }
    core.load_program(&workload.program);
    let start = std::time::Instant::now();
    let exit = core.run(max_cycles);
    let secs = start.elapsed().as_secs_f64();
    match exit {
        RunExit::Halted => {}
        RunExit::CycleLimit => {
            return Err(RunError::CycleBudgetExceeded {
                what: workload.name.to_string(),
                budget: max_cycles,
                committed: core.stats().committed,
            });
        }
        RunExit::Wedged => {
            return Err(RunError::NoHalt {
                what: workload.name.to_string(),
                detail: format!("core wedged (stats: {})", core.stats()),
            });
        }
        RunExit::Cancelled => {
            return Err(RunError::Cancelled {
                what: workload.name.to_string(),
                committed: core.stats().committed,
            });
        }
    }
    let stats = core.stats();
    let result = IpcResult {
        committed: stats.committed,
        cycles: stats.cycles,
        ipc: stats.ipc(),
        runahead_entries: stats.runahead_entries,
    };
    Ok((result, secs, core.into_observer()))
}

/// One Fig. 7 bar pair: a kernel's IPC without and with runahead.
#[derive(Debug, Clone)]
pub struct IpcComparison {
    /// Kernel name.
    pub name: &'static str,
    /// No-runahead machine IPC.
    pub baseline: IpcResult,
    /// Runahead machine IPC.
    pub runahead: IpcResult,
}

impl IpcComparison {
    /// Runahead speedup over the baseline.
    pub fn speedup(&self) -> f64 {
        self.runahead.ipc / self.baseline.ipc
    }

    /// IPC normalized to the baseline (the paper's y-axis).
    pub fn normalized_ipc(&self) -> (f64, f64) {
        (1.0, self.speedup())
    }
}

/// Runs one kernel on both machines.
pub fn compare(workload: &Workload, max_cycles: u64) -> IpcComparison {
    IpcComparison {
        name: workload.name,
        baseline: run_workload(workload, CpuConfig::no_runahead(), max_cycles),
        runahead: run_workload(workload, CpuConfig::default(), max_cycles),
    }
}

/// Runs every workload on both machines with all runs fanned out over
/// `threads` workers (`0` = all host cores) — the parallel Fig. 7 harness.
/// Results are identical to calling [`compare`] per workload, in order.
pub fn compare_parallel(
    workloads: &[Workload],
    max_cycles: u64,
    threads: usize,
) -> Vec<IpcComparison> {
    // Flatten to one job per (workload, machine) so uneven kernels still
    // fill every worker.
    let jobs: Vec<(usize, CpuConfig)> = workloads
        .iter()
        .enumerate()
        .flat_map(|(i, _)| [(i, CpuConfig::no_runahead()), (i, CpuConfig::default())])
        .collect();
    let mut results = crate::harness::parallel_map(&jobs, threads, |_, (wi, cfg)| {
        run_workload(&workloads[*wi], cfg.clone(), max_cycles)
    })
    .into_iter();
    workloads
        .iter()
        .map(|w| {
            let baseline = results.next().expect("two results per workload");
            let runahead = results.next().expect("two results per workload");
            IpcComparison { name: w.name, baseline, runahead }
        })
        .collect()
}

/// Geometric-mean speedup across comparisons (the paper's "average
/// performance improvement of 11%").
pub fn geomean_speedup(results: &[IpcComparison]) -> f64 {
    if results.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = results.iter().map(|c| c.speedup().ln()).sum();
    (log_sum / results.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;

    #[test]
    fn lbm_halts_and_reports_ipc() {
        let w = kernels::lbm(200);
        let r = run_workload(&w, CpuConfig::no_runahead(), 2_000_000);
        assert!(r.ipc > 0.0);
        assert!(r.committed > 1000);
    }

    #[test]
    fn runahead_helps_a_stream() {
        let w = kernels::lbm(400);
        let c = compare(&w, 4_000_000);
        assert!(c.runahead.runahead_entries > 0, "stream must trigger runahead");
        assert!(
            c.speedup() > 1.0,
            "runahead should speed up lbm: {:.3} vs {:.3}",
            c.baseline.ipc,
            c.runahead.ipc
        );
    }

    #[test]
    fn geomean_of_identities_is_one() {
        assert!((geomean_speedup(&[]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exhausted_budget_is_a_structured_error_not_a_panic() {
        use crate::harness::RunError;
        let w = kernels::lbm(200);
        let err = try_run_workload(&w, CpuConfig::no_runahead(), 50)
            .expect_err("50 cycles cannot finish lbm");
        match err {
            RunError::CycleBudgetExceeded { what, budget, .. } => {
                assert_eq!(what, w.name);
                assert_eq!(budget, 50);
            }
            other => panic!("expected CycleBudgetExceeded, got {other:?}"),
        }
        // The panicking wrapper raises the same rendering, so catch_unwind
        // call sites see an identical message.
        let caught = std::panic::catch_unwind(|| run_workload(&w, CpuConfig::no_runahead(), 50))
            .expect_err("wrapper must panic");
        let message = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("cycle budget exceeded"), "{message}");
    }

    #[test]
    fn parallel_compare_matches_serial() {
        let ws = vec![kernels::lbm(80), kernels::wrf(80)];
        let par = compare_parallel(&ws, 5_000_000, 4);
        for (p, w) in par.iter().zip(&ws) {
            let s = compare(w, 5_000_000);
            assert_eq!(p.name, s.name);
            assert_eq!(p.baseline.cycles, s.baseline.cycles);
            assert_eq!(p.runahead.cycles, s.runahead.cycles);
        }
    }
}
