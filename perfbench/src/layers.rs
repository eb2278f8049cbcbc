//! Per-layer metrics of the traced run, computed from its spans and from
//! the work counters its repetitions returned, plus the direct kernel
//! probe of the cycle-level core.

use specrun_cpu::CpuConfig;
use specrun_workloads::ipc::run_workload_timed;
use specrun_workloads::kernels::{self, Workload};

use crate::span::{Span, Tracer};
use crate::stats::{median, tail};
use crate::{Kind, Rep, THREADS};

/// One named figure with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit label.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Collects metrics plus the notes (sample counts) printed beside them.
#[derive(Debug, Default)]
pub struct Sheet {
    /// The metrics, in insertion order.
    pub metrics: Vec<Metric>,
    /// One human-readable line per note.
    pub notes: Vec<String>,
}

impl Sheet {
    /// Adds a metric.
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.into(), unit, value });
    }
}

fn secs(spans: &[Span]) -> Vec<f64> {
    spans.iter().map(|s| s.duration() as f64 * 1e-9).collect()
}

fn total_secs(spans: &[Span]) -> f64 {
    secs(spans).iter().sum()
}

/// Median of a span's durations, in seconds times `scale`.
fn median_of(tracer: &Tracer, name: &str, scale: f64) -> f64 {
    median(&secs(&tracer.named(name))) * scale
}

/// Median and tail of a span's durations in ms, as `<prefix>_p50` and
/// `<prefix>_tail`.
fn p50_and_tail(tracer: &Tracer, sheet: &mut Sheet, name: &str, prefix: &str) {
    let ms: Vec<f64> = secs(&tracer.named(name)).iter().map(|s| s * 1e3).collect();
    sheet.put(format!("{prefix}_p50"), "ms", median(&ms));
    let (value, note) = match tail(&ms) {
        Some(t) => {
            (t.value, format!("{prefix}_tail is p{} of {} samples", t.percentile, t.samples))
        }
        None => {
            let max = ms.iter().copied().fold(f64::MIN, f64::max);
            (
                max,
                format!(
                    "{prefix}_tail is the max of {} samples (too few for a percentile)",
                    ms.len()
                ),
            )
        }
    };
    sheet.put(format!("{prefix}_tail"), "ms", value);
    sheet.notes.push(note);
}

/// Per executor run (`root` span): how its children shared the workers.
/// Returns (slowest child s, slowest / mean, idle share of the workers).
fn fan_out(tracer: &Tracer, root: &str, child: &str) -> Vec<(f64, f64, f64)> {
    let children = tracer.named(child);
    tracer
        .named(root)
        .iter()
        .map(|r| {
            let busy: Vec<f64> = secs(
                &children.iter().filter(|c| c.parent == Some(r.id)).cloned().collect::<Vec<_>>(),
            );
            let max = busy.iter().copied().fold(0.0, f64::max);
            let sum: f64 = busy.iter().sum();
            let mean = sum / busy.len().max(1) as f64;
            let wall = r.duration() as f64 * 1e-9;
            (max, max / mean, 1.0 - sum / (THREADS as f64 * wall))
        })
        .collect()
}

fn counter(rep: &Rep, name: &str) -> u64 {
    rep.counters.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v)
}

fn sum_counter(reps: &[&Rep], name: &str) -> f64 {
    reps.iter().map(|r| counter(r, name) as f64).sum()
}

/// Every span-derived layer metric, from `traced`: each traced repetition
/// with the workload that produced it.
pub fn from_spans(tracer: &Tracer, traced: &[(Kind, Rep)], sheet: &mut Sheet) {
    let of =
        |kind: Kind| traced.iter().filter(|(k, _)| *k == kind).map(|(_, r)| r).collect::<Vec<_>>();

    // pool_matrix: fork, snapshot preparation, units, shard fan-out.
    sheet.put("mem.fork_us_p50", "us", median_of(tracer, "mem.fork", 1e6));
    sheet.put("core.prepare_ms", "ms", median_of(tracer, "core.prepare", 1e3));
    p50_and_tail(tracer, sheet, "core.unit", "core.unit_ms");
    let shards = fan_out(tracer, "workloads.pool_campaign", "workloads.shard");
    sheet.put(
        "workloads.shard_s_max",
        "s",
        median(&shards.iter().map(|s| s.0).collect::<Vec<_>>()),
    );
    sheet.put(
        "workloads.shard_imbalance",
        "ratio",
        median(&shards.iter().map(|s| s.1).collect::<Vec<_>>()),
    );
    sheet.put(
        "workloads.pool_idle_frac",
        "frac",
        median(&shards.iter().map(|s| s.2).collect::<Vec<_>>()),
    );

    // fuzz_soak: generation, session build, plan runs, invariant checks.
    let fuzz = of(Kind::FuzzSoak);
    sheet.put(
        "workloads.plan_generate_us",
        "us",
        median_of(tracer, "workloads.plan_generate", 1e6),
    );
    sheet.put("core.session_build_us", "us", median_of(tracer, "core.session_build", 1e6));
    p50_and_tail(tracer, sheet, "core.plan_run", "core.plan_run_ms");
    sheet.put("lab.fuzz_check_us", "us", median_of(tracer, "lab.fuzz_check", 1e6));
    let harness = fan_out(tracer, "workloads.harness", "lab.fuzz_plan");
    sheet.put(
        "workloads.harness_idle_frac",
        "frac",
        median(&harness.iter().map(|s| s.2).collect::<Vec<_>>()),
    );
    sheet.put("cpu.sim_cycles", "count", counter(fuzz[0], "cpu.sim_cycles") as f64);
    sheet.put("cpu.committed", "count", counter(fuzz[0], "cpu.committed") as f64);
    let run_secs = total_secs(&tracer.named("core.plan_run"));
    sheet.put(
        "cpu.mcycles_per_s",
        "Mcycles/s",
        sum_counter(&fuzz, "cpu.sim_cycles") / run_secs / 1e6,
    );

    // paper_repro: each scenario, the merged report, the artifact writes.
    let scenarios = tracer.named("lab.scenario");
    let mut names: Vec<&str> = scenarios.iter().map(|s| s.label).collect();
    names.dedup();
    for name in names {
        let per: Vec<f64> =
            secs(&scenarios.iter().filter(|s| s.label == name).cloned().collect::<Vec<_>>());
        sheet.put(format!("lab.scenario_s.{name}"), "s", median(&per));
    }
    sheet.put("lab.report_render_ms", "ms", median_of(tracer, "lab.report_render", 1e3));
    sheet.put("lab.sink_write_ms", "ms", median_of(tracer, "lab.sink_write", 1e3));

    // trace_forensics: the codec, the file round trip, replay and diff.
    let trace = of(Kind::TraceForensics);
    let events = sum_counter(&trace, "trace.events");
    let bytes = sum_counter(&trace, "trace.bytes");
    sheet.put("trace.events", "count", counter(trace[0], "trace.events") as f64);
    sheet.put(
        "trace.bytes_per_event",
        "bytes/event",
        counter(trace[0], "trace.bytes") as f64 / counter(trace[0], "trace.events") as f64,
    );
    let rate = |name: &str, amount: f64| amount / total_secs(&tracer.named(name)) / 1e6;
    sheet.put("trace.encode_mb_per_s", "MB/s", rate("trace.encode", bytes));
    sheet.put("trace.decode_mb_per_s", "MB/s", rate("trace.decode", bytes));
    sheet.put("trace.replay_mevents_per_s", "Mevents/s", rate("trace.replay", events));
    sheet.put("trace.diff_mevents_per_s", "Mevents/s", rate("trace.diff", events));
    sheet.put("trace.file_write_ms", "ms", median_of(tracer, "trace.file_write", 1e3));
    sheet.put("trace.file_read_ms", "ms", median_of(tracer, "trace.file_read", 1e3));
}

/// Kernel iterations of the direct core probe.
const PROBE_ITERS: u32 = 1200;
/// Repetitions per probe; the median rate is reported.
const PROBE_REPEATS: usize = 3;

/// Naive-stepping and fast-forward simulation rates of the two kernels
/// the perf gate tracks, timed through `ipc::run_workload_timed` (the
/// simulation loop only). Cycle counts must agree between the modes.
pub fn kernel_probe(sheet: &mut Sheet) -> bool {
    let mcf = kernels::mcf(PROBE_ITERS / 2);
    let chase = kernels::pointer_chase(PROBE_ITERS);
    let cases: [(&str, &Workload); 2] =
        [("mcf_runahead", &mcf), ("pointer_chase_runahead", &chase)];
    let mut agree = true;
    for (label, kernel) in cases {
        let mut cycles = [0u64; 2];
        for (slot, (mode, fast_forward)) in [("naive", false), ("ff", true)].into_iter().enumerate()
        {
            let cfg = CpuConfig { fast_forward, ..CpuConfig::default() };
            let rates: Vec<f64> = (0..PROBE_REPEATS)
                .map(|_| {
                    let (result, secs) = run_workload_timed(kernel, cfg.clone(), 500_000_000);
                    cycles[slot] = result.cycles;
                    result.cycles as f64 / secs / 1e6
                })
                .collect();
            sheet.put(format!("cpu.{mode}_mcycles_per_s.{label}"), "Mcycles/s", median(&rates));
        }
        agree &= cycles[0] == cycles[1];
    }
    agree
}
