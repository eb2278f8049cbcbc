//! The repository benchmark: one seeded, single-process program over four
//! campaign workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pool_matrix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics (set-up time,
//! throughput, CPU per unit, peak memory); with `--trace 1` the per-layer
//! metrics of a traced run. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. See
//! `perfbench/README.md` for the workloads (and which two `BENCHMARK.json`
//! gates), the seeds and the layer map.

mod fuzz_soak;
mod host;
mod layers;
mod paper_repro;
mod pool_matrix;
mod span;
mod stats;
mod trace_forensics;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use specrun_workloads::rng::SplitMix64;

use layers::Sheet;
use span::Tracer;
use stats::median;

/// Worker threads of every fan-out (the host has two cores).
pub const THREADS: usize = 2;
/// Set-ups per run; the median is reported. A set-up generates the
/// inputs and runs one untimed warm-up repetition, so caches fill and lazy
/// state is built before the timed section, and `setup_s` weighs enough to
/// be measured steadily.
const SETUP_REPS: usize = 3;
/// Repetitions measured at least, however long they take.
const MIN_REPS: usize = 3;
/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Paper-matrix fork campaign.
    PoolMatrix,
    /// Full-scale fuzz campaign.
    FuzzSoak,
    /// Every registry scenario plus artifacts.
    PaperRepro,
    /// Offline trace codec, replay and diff.
    TraceForensics,
}

impl Kind {
    const ALL: [Kind; 4] =
        [Kind::PoolMatrix, Kind::FuzzSoak, Kind::PaperRepro, Kind::TraceForensics];

    fn name(self) -> &'static str {
        match self {
            Kind::PoolMatrix => "pool_matrix",
            Kind::FuzzSoak => "fuzz_soak",
            Kind::PaperRepro => "paper_repro",
            Kind::TraceForensics => "trace_forensics",
        }
    }

    /// The workload's own seed, so two workloads given one seed still
    /// draw unrelated inputs.
    fn seed(self, seed: u64) -> u64 {
        SplitMix64::new(seed ^ stats::fnv1a(self.name().as_bytes())).next_u64()
    }

    /// Generates the workload's inputs. `probe` selects the small size the
    /// traced run uses for the layers of the other workloads.
    fn setup(self, seed: u64, probe: bool, scratch: &Path) -> Box<dyn Bench> {
        let seed = self.seed(seed);
        match self {
            Kind::PoolMatrix => Box::new(pool_matrix::setup(seed, if probe { 8 } else { 128 })),
            Kind::FuzzSoak => Box::new(fuzz_soak::setup(seed, if probe { 96 } else { 384 })),
            Kind::PaperRepro => Box::new(paper_repro::setup(seed, scratch.join("artifacts"))),
            Kind::TraceForensics => Box::new(trace_forensics::setup(
                seed,
                if probe { 6 } else { 96 },
                scratch.join("traces"),
            )),
        }
    }

    /// Whether the traced repetition renders the same report as the
    /// untraced one. The recomposed fuzz campaign cannot render the
    /// campaign report (its renderer is private), so it digests the plan
    /// outcomes instead.
    fn same_digest_traced(self) -> bool {
        self != Kind::FuzzSoak
    }
}

/// What one repetition of a workload produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rep {
    /// Units attempted.
    pub units: u64,
    /// Units that errored, panicked or failed their output check.
    pub failed: u64,
    /// Exact work counters, which every repetition of a seed must repeat.
    pub counters: Vec<(&'static str, u64)>,
    /// FNV-1a of the rendered report (or outcome stream).
    pub digest: u64,
}

/// A workload with its inputs generated.
pub trait Bench {
    /// Runs one repetition, recording spans when `tracer` is given.
    fn run(&self, tracer: Option<&Tracer>) -> Rep;
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: specrun-perfbench --workload <pool_matrix|fuzz_soak|paper_repro|trace_forensics> \
     [--seed N] [--seconds N] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { kind: Kind::PoolMatrix, seed: DEFAULT_SEED, seconds: 10, trace: false };
    let mut kind = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    parsed.kind = kind.ok_or("--workload is required")?;
    Ok(parsed)
}

/// One timed repetition.
struct Timed {
    wall: f64,
    cpu: f64,
    rep: Rep,
}

/// Holds the first repetition of each mode and flags any later one whose
/// units, counters or digest differ.
#[derive(Default)]
struct Guard {
    untraced: Option<Rep>,
    traced: Option<Rep>,
    broken: Vec<String>,
}

impl Guard {
    fn check(&mut self, kind: Kind, traced: bool, rep: &Rep) {
        let slot = if traced { &mut self.traced } else { &mut self.untraced };
        let first = slot.get_or_insert_with(|| rep.clone());
        if (first.units, &first.counters, first.digest) != (rep.units, &rep.counters, rep.digest) {
            self.broken.push(format!(
                "{} repetition differs: {:?} {:#018x} vs first {:?} {:#018x}",
                kind.name(),
                rep.counters,
                rep.digest,
                first.counters,
                first.digest
            ));
        }
        if let (Some(a), Some(b)) = (&self.untraced, &self.traced) {
            if kind.same_digest_traced() && a.digest != b.digest && self.broken.is_empty() {
                self.broken.push(format!(
                    "{} traced digest {:#018x} differs from untraced {:#018x}",
                    kind.name(),
                    b.digest,
                    a.digest
                ));
            }
        }
    }
}

/// Repeats `bench` until `budget` has passed (and at least [`MIN_REPS`]
/// times).
fn measure(
    kind: Kind,
    bench: &dyn Bench,
    tracer: Option<&Tracer>,
    budget: Duration,
    guard: &mut Guard,
) -> Vec<Timed> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPS || start.elapsed() < budget {
        let cpu = host::cpu_seconds();
        let t = Instant::now();
        let rep = bench.run(tracer);
        let wall = t.elapsed().as_secs_f64();
        let cpu = host::cpu_seconds() - cpu;
        guard.check(kind, tracer.is_some(), &rep);
        out.push(Timed { wall, cpu, rep });
    }
    out
}

fn units_per_s(reps: &[Timed]) -> f64 {
    median(&reps.iter().map(|r| r.rep.units as f64 / r.wall).collect::<Vec<_>>())
}

/// Sets the workload up `times` times, appending each set-up's duration
/// to `setups` and its warm-up repetition to `warm`; returns the last.
fn set_up(
    args: &Args,
    times: usize,
    scratch: &Path,
    setups: &mut Vec<f64>,
    warm: &mut Vec<Rep>,
) -> Box<dyn Bench> {
    let mut bench = None;
    for _ in 0..times {
        drop(bench.take());
        let t = Instant::now();
        let fresh = args.kind.setup(args.seed, false, scratch);
        warm.push(fresh.run(None));
        setups.push(t.elapsed().as_secs_f64());
        bench = Some(fresh);
    }
    bench.expect("at least one set-up ran")
}

/// The whole run; returns the sheet and (attempted, failed, problems).
fn run(args: &Args, scratch: &Path, out_dir: &Path) -> (Sheet, u64, u64, Vec<String>) {
    let kind = args.kind;
    let mut sheet = Sheet::default();
    let mut setups = Vec::new();
    let mut all: Vec<Rep> = Vec::new();
    // setup_s is not reported by the traced run, so it sets up once.
    let times = if args.trace { 1 } else { SETUP_REPS };
    let bench = set_up(args, times, scratch, &mut setups, &mut all);
    let mut guard = Guard::default();
    for warm in &all {
        guard.check(kind, false, warm);
    }
    let mut ref_ms = vec![host::ref_loop_ms()];
    let budget = Duration::from_secs(args.seconds);

    if !args.trace {
        let reps = measure(kind, bench.as_ref(), None, budget, &mut guard);
        let cpu_ms: Vec<f64> = reps.iter().map(|r| r.cpu * 1e3 / r.rep.units as f64).collect();
        sheet.put("setup_s", "s", median(&setups));
        sheet.put("units_per_s", "1/s", units_per_s(&reps));
        sheet.put("cpu_ms_per_unit", "ms", median(&cpu_ms));
        sheet.put("peak_rss_mb", "MB", host::peak_rss_mb());
        sheet.notes.push(format!("set-ups {}, timed repetitions {}", setups.len(), reps.len()));
        all.extend(reps.into_iter().map(|r| r.rep));
    } else {
        let tracer = Tracer::default();
        let untraced = measure(kind, bench.as_ref(), None, budget / 2, &mut guard);
        let traced = measure(kind, bench.as_ref(), Some(&tracer), budget / 2, &mut guard);
        ref_ms.push(host::ref_loop_ms());
        let overhead = units_per_s(&traced) / units_per_s(&untraced);
        let mut traced_reps: Vec<(Kind, Rep)> =
            traced.iter().map(|r| (kind, r.rep.clone())).collect();
        // The other workloads' layers, from one small traced repetition each.
        for other in Kind::ALL.into_iter().filter(|&k| k != kind) {
            let probe = other.setup(args.seed, true, scratch);
            traced_reps.push((other, probe.run(Some(&tracer))));
        }
        layers::from_spans(&tracer, &traced_reps, &mut sheet);
        if !layers::kernel_probe(&mut sheet) {
            guard.broken.push("kernel probe: naive and fast-forward cycle counts differ".into());
        }
        sheet.put("bench.trace_overhead", "ratio", overhead);
        sheet.notes.push(format!(
            "repetitions untraced {} traced {}, spans {}",
            untraced.len(),
            traced.len(),
            tracer.spans().len()
        ));
        let spans_path = out_dir.join(format!("spans-{}.tsv", kind.name()));
        match tracer.write_tsv(&spans_path) {
            Ok(()) => sheet.notes.push(format!("spans written to {}", spans_path.display())),
            Err(e) => guard.broken.push(format!("cannot write {}: {e}", spans_path.display())),
        }
        all.extend(untraced.into_iter().chain(traced).map(|r| r.rep));
        all.extend(traced_reps.into_iter().filter(|(k, _)| *k != kind).map(|(_, r)| r));
    }
    ref_ms.push(host::ref_loop_ms());
    if args.trace {
        sheet.put("host.ref_loop_ms", "ms", median(&ref_ms));
    }
    sheet.notes.push(format!("host.ref_loop_ms {:.3}", median(&ref_ms)));
    if let Some(first) = &guard.untraced.as_ref().or(guard.traced.as_ref()) {
        for (name, value) in &first.counters {
            sheet.notes.push(format!("counter {name} {value}"));
        }
        sheet.notes.push(format!("report digest {:#018x}", first.digest));
    }
    let attempted: u64 = all.iter().map(|r| r.units).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    (sheet, attempted, failed, guard.broken)
}

fn json_result(correct: bool, attempted: u64, failed: u64, sheet: &Sheet) -> String {
    let metrics: Vec<String> = sheet
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Everything the run writes stays under the working directory.
    let out_dir = PathBuf::from(".perfbench_out");
    let scratch = out_dir.join(format!("{}-{}", args.kind.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("error: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads={THREADS} host_cores={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let (sheet, attempted, failed, problems) = run(&args, &scratch, &out_dir);
    // Scratch holds only regenerated artifacts and trace logs.
    let _ = std::fs::remove_dir_all(&scratch);
    for note in &sheet.notes {
        println!("{note}");
    }
    for m in &sheet.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "failed_frac = {} ({failed} of {attempted} units)",
        failed as f64 / attempted.max(1) as f64
    );
    for p in &problems {
        println!("DETERMINISM: {p}");
    }
    let finite = sheet.metrics.iter().all(|m| m.value.is_finite());
    let correct = failed == 0 && problems.is_empty() && finite;
    println!("{}", json_result(correct, attempted, failed, &sheet));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(cycles: u64, digest: u64) -> Rep {
        Rep { units: 4, failed: 0, counters: vec![("cpu.sim_cycles", cycles)], digest }
    }

    #[test]
    fn guard_flags_a_repetition_that_differs() {
        let mut guard = Guard::default();
        guard.check(Kind::PoolMatrix, false, &rep(10, 1));
        guard.check(Kind::PoolMatrix, false, &rep(10, 1));
        assert!(guard.broken.is_empty());
        guard.check(Kind::PoolMatrix, false, &rep(11, 1));
        assert_eq!(guard.broken.len(), 1, "a counter changed");
        let mut guard = Guard::default();
        guard.check(Kind::PoolMatrix, false, &rep(10, 1));
        guard.check(Kind::PoolMatrix, true, &rep(10, 2));
        assert_eq!(guard.broken.len(), 1, "traced pool reports must render the same bytes");
        let mut guard = Guard::default();
        guard.check(Kind::FuzzSoak, false, &rep(10, 1));
        guard.check(Kind::FuzzSoak, true, &rep(12, 2));
        assert!(guard.broken.is_empty(), "fuzz digests its traced outcomes differently");
    }

    #[test]
    fn result_line_has_the_documented_shape() {
        let mut sheet = Sheet::default();
        sheet.put("setup_s", "s", 0.5);
        sheet.put("units_per_s", "1/s", 1.25e-5);
        assert_eq!(
            json_result(true, 3, 0, &sheet),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"units_per_s\": {\"value\": 1.25e-5, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload fuzz_soak --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.kind, a.seed, a.seconds, a.trace), (Kind::FuzzSoak, 7, 3, true));
        assert!(parse_args(&argv("--seed 7")).is_err(), "workload is required");
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload fuzz_soak --trace 2")).is_err());
    }
}
