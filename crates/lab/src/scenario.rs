//! The declarative scenario model: every paper figure, table, variant
//! matrix and defense experiment is a [`Scenario`] value in the registry
//! instead of a standalone binary.
//!
//! A scenario bundles a name, the paper reference it reproduces, and a run
//! function that — given a [`RunContext`] — produces a [`ScenarioRun`]:
//! named metrics (via the [`MetricSource`] extraction traits), the
//! configuration digests and seeds that make the run auditable, the
//! human-readable table `specrun-lab run` prints, and a list of
//! **paper-claim invariants** ("secure runahead leakage = 0", "runahead
//! speedup > 1 on mcf") whose pass/fail the CI reproduction gate enforces.

use specrun_cpu::CpuConfig;
use specrun_mem::fnv1a;
use specrun_workloads::metrics::MetricSet;
use specrun_workloads::supervisor::panic_message;

pub use specrun_workloads::metrics::MetricSource;

use crate::json::Json;

/// How a scenario should be executed.
#[derive(Debug, Clone)]
pub struct RunContext {
    /// Reduced-scale mode for CI: smaller kernels and fewer trials, same
    /// invariants. Quick runs are deterministic and byte-stable just like
    /// full runs — only the scale differs.
    pub quick: bool,
    /// Worker threads for parallel fan-out (`0` = all host cores). Results
    /// are thread-count-invariant by construction.
    pub threads: usize,
    /// Base seed for randomized trials (sweeps).
    pub seed: u64,
}

impl RunContext {
    /// Full-fidelity context (the paper's scale).
    pub fn full() -> RunContext {
        RunContext { quick: false, threads: 0, seed: DEFAULT_SEED }
    }

    /// Quick context (the CI reproduction gate's scale).
    pub fn quick() -> RunContext {
        RunContext { quick: true, ..RunContext::full() }
    }

    /// Picks `full` or `quick` depending on the mode.
    pub fn sized(&self, full: u32, quick: u32) -> u32 {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// The mode label recorded in artifacts.
    pub fn mode(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }
}

/// Default base seed for scenario randomness (sweeps); the same value the
/// pre-registry binaries used, so artifacts are comparable across the
/// restructure.
pub const DEFAULT_SEED: u64 = 0xf199;

/// One checked paper claim.
#[derive(Debug, Clone)]
pub struct Invariant {
    /// Short machine-readable identifier, e.g. `secure_runahead_blocks`.
    pub name: String,
    /// The paper claim being checked, as a sentence.
    pub claim: String,
    /// What the run actually observed (for the failure report).
    pub observed: String,
    /// Whether the claim held.
    pub passed: bool,
}

/// The result of executing one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Registry name (`fig7`, `table1`, …).
    pub name: String,
    /// Human-readable title.
    pub title: String,
    /// Paper reference (`Fig. 7`, `§6`, …).
    pub paper_ref: String,
    /// Mode label (`quick` / `full`).
    pub mode: String,
    /// Base seed the run used.
    pub seed: u64,
    /// Free-form string annotations (scale parameters, mostly).
    pub notes: Vec<(String, String)>,
    /// Flattened numeric results.
    pub metrics: MetricSet,
    /// FNV-1a digests of every machine configuration the run simulated,
    /// labelled. A digest change flags that an artifact diff stems from a
    /// config change, not a simulator change.
    pub config_digests: Vec<(String, u64)>,
    /// Checked paper claims.
    pub invariants: Vec<Invariant>,
    /// The human-readable report (what `specrun-lab run` prints).
    pub lines: Vec<String>,
    /// Structured execution failure, when the scenario did not complete:
    /// the panic (or budget-exhaustion) message captured by
    /// [`Scenario::try_execute`]. A run with an error never passes.
    pub error: Option<String>,
}

impl ScenarioRun {
    /// Starts an empty run record for `scenario` under `ctx`.
    pub fn new(scenario: &Scenario, ctx: &RunContext) -> ScenarioRun {
        ScenarioRun {
            name: scenario.name.to_string(),
            title: scenario.title.to_string(),
            paper_ref: scenario.paper_ref.to_string(),
            mode: ctx.mode().to_string(),
            seed: ctx.seed,
            notes: Vec::new(),
            metrics: MetricSet::new(),
            config_digests: Vec::new(),
            invariants: Vec::new(),
            lines: Vec::new(),
            error: None,
        }
    }

    /// Adds a string annotation.
    pub fn note(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.notes.push((key.into(), value.into()));
    }

    /// Records a machine configuration digest under `label`.
    pub fn digest(&mut self, label: impl Into<String>, config: &CpuConfig) {
        self.config_digests.push((label.into(), config_digest(config)));
    }

    /// Records one paper-claim check.
    pub fn check(
        &mut self,
        name: impl Into<String>,
        claim: impl Into<String>,
        passed: bool,
        observed: impl std::fmt::Display,
    ) {
        self.invariants.push(Invariant {
            name: name.into(),
            claim: claim.into(),
            observed: observed.to_string(),
            passed,
        });
    }

    /// Appends a line to the human-readable report.
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Whether the scenario completed and every invariant held.
    pub fn passed(&self) -> bool {
        self.error.is_none() && self.invariants.iter().all(|i| i.passed)
    }

    /// The invariants that failed.
    pub fn failures(&self) -> Vec<&Invariant> {
        self.invariants.iter().filter(|i| !i.passed).collect()
    }

    /// Serializes the run as the per-scenario artifact object.
    ///
    /// Everything in here is deterministic for a fixed seed: metrics come
    /// from the simulator (thread-invariant), digests from the configs,
    /// and no wall-clock quantity is recorded — so re-running a scenario
    /// yields a byte-identical artifact.
    pub fn to_json(&self) -> Json {
        let notes = self.notes.iter().map(|(k, v)| (k.clone(), Json::str(v.clone()))).collect();
        let digests = self
            .config_digests
            .iter()
            .map(|(label, d)| (label.clone(), Json::str(format!("{d:016x}"))))
            .collect();
        let metrics =
            self.metrics.entries().iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect();
        let invariants = self
            .invariants
            .iter()
            .map(|i| {
                Json::obj(vec![
                    ("name".into(), Json::str(i.name.clone())),
                    ("claim".into(), Json::str(i.claim.clone())),
                    ("observed".into(), Json::str(i.observed.clone())),
                    ("passed".into(), Json::Bool(i.passed)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("scenario".into(), Json::str(self.name.clone())),
            ("title".into(), Json::str(self.title.clone())),
            ("paper_ref".into(), Json::str(self.paper_ref.clone())),
            ("mode".into(), Json::str(self.mode.clone())),
            // As a string: a u64 seed above 2^53 would be silently rounded
            // through an f64 JSON number, recording a seed that does not
            // reproduce the run.
            ("seed".into(), Json::str(self.seed.to_string())),
            ("passed".into(), Json::Bool(self.passed())),
            ("error".into(), self.error.as_ref().map_or(Json::Null, Json::str)),
            ("notes".into(), Json::Obj(notes)),
            ("config_digests".into(), Json::Obj(digests)),
            ("metrics".into(), Json::Obj(metrics)),
            ("invariants".into(), Json::Arr(invariants)),
        ])
    }
}

/// One registered experiment.
#[derive(Clone)]
pub struct Scenario {
    /// Registry name (`fig7`, `defense`, …).
    pub name: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Paper reference.
    pub paper_ref: &'static str,
    /// Executes the experiment.
    pub run: fn(&RunContext) -> ScenarioRun,
}

impl Scenario {
    /// Runs the scenario under `ctx`. Panics propagate; campaign code
    /// uses [`Scenario::try_execute`] instead.
    pub fn execute(&self, ctx: &RunContext) -> ScenarioRun {
        (self.run)(ctx)
    }

    /// Runs the scenario, containing failure: a panicking scenario (a
    /// budget-exhaustion `run_workload` deep inside a sweep, an assert in
    /// the simulator) comes back as a [`ScenarioRun`] with
    /// [`ScenarioRun::error`] set — a reported failed entry in the merged
    /// report instead of a dead campaign.
    pub fn try_execute(&self, ctx: &RunContext) -> ScenarioRun {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (self.run)(ctx))) {
            Ok(run) => run,
            Err(payload) => {
                let mut run = ScenarioRun::new(self, ctx);
                run.error = Some(panic_message(payload));
                run
            }
        }
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("paper_ref", &self.paper_ref)
            .finish()
    }
}

/// FNV-1a 64-bit digest of a machine configuration's `Debug` rendering.
///
/// `CpuConfig` derives `Debug` over every field, so any config change —
/// cache geometry, runahead policy, defense knobs — changes the digest.
pub fn config_digest(config: &CpuConfig) -> u64 {
    fnv1a(format!("{config:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(ctx: &RunContext) -> ScenarioRun {
        let scenario =
            Scenario { name: "dummy", title: "A dummy scenario", paper_ref: "Fig. 0", run: dummy };
        let mut run = ScenarioRun::new(&scenario, ctx);
        run.metrics.push("x", 1.0);
        run.check("holds", "x equals one", true, "1");
        run
    }

    #[test]
    fn run_serializes_and_passes() {
        let run = dummy(&RunContext::quick());
        assert!(run.passed());
        let json = run.to_json().render();
        assert!(json.contains("\"scenario\": \"dummy\""));
        assert!(json.contains("\"mode\": \"quick\""));
        assert!(json.contains("\"x\": 1"));
        assert!(json.contains("\"passed\": true"));
    }

    #[test]
    fn failed_invariant_flips_passed() {
        let mut run = dummy(&RunContext::full());
        run.check("fails", "two equals three", false, "2 != 3");
        assert!(!run.passed());
        assert_eq!(run.failures().len(), 1);
        assert_eq!(run.failures()[0].name, "fails");
        assert!(run.to_json().render().contains("\"passed\": false"));
    }

    #[test]
    fn config_digest_tracks_config_changes() {
        let a = config_digest(&CpuConfig::default());
        assert_eq!(a, config_digest(&CpuConfig::default()), "digest is deterministic");
        assert_ne!(a, config_digest(&CpuConfig::no_runahead()));
        assert_ne!(a, config_digest(&CpuConfig::secure_runahead()));
    }

    #[test]
    fn a_panicking_scenario_becomes_a_failed_run() {
        fn explode(_: &RunContext) -> ScenarioRun {
            panic!("cycle budget exceeded: deep inside a sweep");
        }
        let s = Scenario { name: "boom", title: "t", paper_ref: "r", run: explode };
        let run = s.try_execute(&RunContext::quick());
        assert!(!run.passed(), "a run with an error never passes");
        assert_eq!(run.error.as_deref(), Some("cycle budget exceeded: deep inside a sweep"));
        let json = run.to_json().render();
        assert!(json.contains("\"passed\": false"));
        assert!(json.contains("\"error\": \"cycle budget exceeded: deep inside a sweep\""));
    }

    #[test]
    fn a_clean_scenario_records_no_error() {
        let run = dummy(&RunContext::quick());
        assert_eq!(run.error, None);
        assert!(run.to_json().render().contains("\"error\": null"));
    }

    #[test]
    fn sized_picks_by_mode() {
        assert_eq!(RunContext::full().sized(100, 10), 100);
        assert_eq!(RunContext::quick().sized(100, 10), 10);
    }
}
