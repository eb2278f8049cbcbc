//! `trace_forensics`: the offline half of `trace replay` / `trace diff`.
//!
//! Unit: one runahead/secure trace pair. Set-up records both sides of
//! each seed-drawn plan with `try_run_plan_recorded`; the timed section
//! only encodes, writes, reads, decodes, replays and diffs, so the trace
//! codec does all the work and the simulator none.

use std::path::{Path, PathBuf};

use specrun::try_run_plan_recorded;
use specrun_cpu::probe::CountingObserver;
use specrun_trace::{decode_events, encode_events, first_divergence, replay, PipelineEvent};
use specrun_workloads::plan::{GadgetKind, Plan, PlanPolicy};

use crate::span::{open, timed, Tracer};
use crate::stats::{fnv1a_fold, FNV_OFFSET};
use crate::{Bench, Rep};

/// One recorded run: its event stream and the live observer totals.
struct Recorded {
    events: Vec<PipelineEvent>,
    counts: CountingObserver,
}

/// The recorded pairs plus the directory the logs go through.
pub struct TraceForensics {
    pairs: Vec<[Recorded; 2]>,
    dir: PathBuf,
}

fn record(plan: &Plan, policy: PlanPolicy) -> Recorded {
    let plan = Plan { policy, ..plan.clone() };
    let (outcome, events) = try_run_plan_recorded(&plan)
        .unwrap_or_else(|e| panic!("plan {} under {policy:?} must complete: {e}", plan.index));
    Recorded { events, counts: outcome.counts }
}

/// Gadgets the pairs cycle through. A PHT trace is two to five times as
/// long as a BTB or RSB one, so an even mix keeps the work of a seed's
/// pairs from swinging with how many PHT plans the seed happened to draw.
const GADGETS: [GadgetKind; 3] = [GadgetKind::Pht, GadgetKind::Btb, GadgetKind::Rsb];

/// Records `pairs` seed-drawn full-scale plans, with gadgets taken in turn
/// from [`GADGETS`], each forced to `Runahead` and to `Secure`; logs go
/// under `dir`.
pub fn setup(seed: u64, pairs: u64, dir: PathBuf) -> TraceForensics {
    std::fs::create_dir_all(&dir).expect("the trace directory can be created");
    let pairs = (0..pairs)
        .map(|i| {
            let mut plan = Plan::generate(seed, i, false);
            plan.victim.gadget = GADGETS[i as usize % GADGETS.len()];
            [record(&plan, PlanPolicy::Runahead), record(&plan, PlanPolicy::Secure)]
        })
        .collect();
    TraceForensics { pairs, dir }
}

impl TraceForensics {
    /// One side of a pair through the offline path: encode, write, read,
    /// decode, replay. Returns the log and the decoded events, or `None`
    /// if a step failed or the round trip did not reproduce the recording.
    fn round_trip(
        &self,
        tracer: Option<&Tracer>,
        unit: u64,
        parent: Option<u32>,
        path: &Path,
        recorded: &Recorded,
    ) -> Option<(Vec<u8>, Vec<PipelineEvent>)> {
        let log = timed(tracer, "trace.encode", unit, parent, || encode_events(&recorded.events));
        // A plain write, not the fsync'd atomic `FsTraceSink`: fsync latency
        // on a shared virtual disk swung a pair's time by up to 2x between
        // runs, and the disk is not what this workload measures.
        let written =
            timed(tracer, "trace.file_write", unit, parent, || std::fs::write(path, &log));
        let read = timed(tracer, "trace.file_read", unit, parent, || std::fs::read(path));
        written.ok()?;
        let bytes = read.ok()?;
        let trace = timed(tracer, "trace.decode", unit, parent, || decode_events(&bytes)).ok()?;
        if trace.torn_tail || trace.events != recorded.events {
            return None;
        }
        let counts = timed(tracer, "trace.replay", unit, parent, || {
            let mut counts = CountingObserver::default();
            replay(&trace.events, &mut counts);
            counts
        });
        (counts == recorded.counts).then_some((log, trace.events))
    }
}

impl Bench for TraceForensics {
    fn run(&self, tracer: Option<&Tracer>) -> Rep {
        let mut rep = Rep {
            units: self.pairs.len() as u64,
            failed: 0,
            counters: Vec::new(),
            digest: FNV_OFFSET,
        };
        let mut bytes = 0;
        for (i, pair) in self.pairs.iter().enumerate() {
            let unit = i as u64;
            let span = open(tracer, "trace.pair", unit, None);
            let [a, b] = [0, 1].map(|side| {
                let path = self.dir.join(format!("pair{i}-{side}.trace"));
                self.round_trip(tracer, unit, span.id(), &path, &pair[side])
            });
            let (Some((log_a, a)), Some((log_b, b))) = (a, b) else {
                rep.failed += 1;
                continue;
            };
            let divergence =
                timed(tracer, "trace.diff", unit, span.id(), || first_divergence(&a, &b));
            let verdict = divergence.map_or_else(|| "identical".to_string(), |d| d.describe());
            for part in [&log_a, &log_b, verdict.as_bytes()] {
                rep.digest = fnv1a_fold(rep.digest, part);
            }
            bytes += (log_a.len() + log_b.len()) as u64;
        }
        let events = self.pairs.iter().flatten().map(|r| r.events.len() as u64).sum();
        rep.counters = vec![("units", rep.units), ("trace.events", events), ("trace.bytes", bytes)];
        rep
    }
}
