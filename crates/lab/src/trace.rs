//! `specrun-lab trace` — record, replay and diff pipeline-event logs.
//!
//! The forensic loop the trace subsystem closes:
//!
//! * **record** runs the fixed-geometry Fig. 11 PHT PoC (the `leak_trace`
//!   shape: slide > ROB, secret 127) on a chosen machine policy with the
//!   ground-truth observers attached, and streams every pipeline event
//!   into a delta-encoded binary log (`specrun_trace` format) written
//!   through the [`crate::sink::ArtifactSink`] atomic protocol;
//! * **replay** re-drives fresh observers from the log alone — no
//!   simulator — and derives the same metrics the live run derived. The
//!   geometry is pinned (quick = full on `leak_trace`), so a replay needs
//!   no metadata beside the log; the CI `trace-repro` job byte-compares
//!   the two metric files;
//! * **diff** aligns two logs by behavioural content (cycles and taint
//!   annotations stripped) and prints the first divergent event with
//!   commit/runahead-episode anchors — "where does the secure machine
//!   first behave differently from the attacked one".
//!
//! Exit codes follow the lab convention: 0 success (diff: identical),
//! 1 divergence found, 2 usage/IO/corrupt-log errors.

use std::path::{Path, PathBuf};

use specrun::attack::{run_pht_poc, PocConfig};
use specrun::session::{leak_trace_for, Policy, Session};
use specrun_cpu::probe::{CountingObserver, LeakTraceObserver};
use specrun_cpu::CpuConfig;
use specrun_trace::{
    encode_events, first_divergence, read_trace_file, stream_stats, PipelineEvent, TraceSink as _,
};

use crate::json::Json;
use crate::registry::FIG11_SLIDE;
use crate::sink::{ArtifactSink, ArtifactTraceSink, FsSink};

/// A parsed `specrun-lab trace` invocation.
#[derive(Debug, PartialEq)]
pub(crate) enum TraceCommand {
    /// `trace record --out PATH`: run the PoC live and write the log.
    Record {
        /// Where the binary log goes.
        out: PathBuf,
        /// The machine under test.
        policy: Policy,
        /// Optional metrics-JSON path (observer-derived values only).
        metrics: Option<PathBuf>,
    },
    /// `trace replay LOG`: re-derive the analysis from the log alone.
    Replay {
        /// The log to replay.
        path: PathBuf,
        /// Optional metrics-JSON path — byte-identical to the live one.
        metrics: Option<PathBuf>,
    },
    /// `trace diff A B`: first behavioural divergence between two logs.
    Diff {
        /// The first log (conventionally the attacked machine).
        a: PathBuf,
        /// The second log (conventionally the defended machine).
        b: PathBuf,
    },
}

fn parse_policy(v: &str) -> Result<Policy, String> {
    match v {
        "runahead" => Ok(Policy::Runahead),
        "secure" => Ok(Policy::Secure),
        "no_runahead" => Ok(Policy::NoRunahead),
        other => Err(format!("unknown policy {other} (expected runahead, secure or no_runahead)")),
    }
}

fn policy_label(policy: Policy) -> &'static str {
    match policy {
        Policy::Runahead => "runahead",
        Policy::Secure => "secure",
        Policy::NoRunahead => "no_runahead",
        // The remaining policies are not reachable from the CLI parser.
        _ => "custom",
    }
}

pub(crate) fn parse_trace_args(args: &[String]) -> Result<TraceCommand, String> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("record") => {
            let mut out = None;
            let mut policy = Policy::Runahead;
            let mut metrics = None;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a path")?)),
                    "--policy" => {
                        policy = parse_policy(it.next().ok_or("--policy needs a name")?)?;
                    }
                    "--metrics" => {
                        metrics = Some(PathBuf::from(it.next().ok_or("--metrics needs a path")?));
                    }
                    other => return Err(format!("unknown trace record option {other}")),
                }
            }
            let out = out.ok_or("trace record needs --out PATH")?;
            Ok(TraceCommand::Record { out, policy, metrics })
        }
        Some("replay") => {
            let mut path = None;
            let mut metrics = None;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--metrics" => {
                        metrics = Some(PathBuf::from(it.next().ok_or("--metrics needs a path")?));
                    }
                    flag if flag.starts_with('-') => {
                        return Err(format!("unknown trace replay option {flag}"));
                    }
                    p if path.is_none() => path = Some(PathBuf::from(p)),
                    extra => return Err(format!("unexpected trace replay argument {extra}")),
                }
            }
            let path = path.ok_or("trace replay needs a log file")?;
            Ok(TraceCommand::Replay { path, metrics })
        }
        Some("diff") => {
            let positional: Vec<&String> = it.collect();
            match positional.as_slice() {
                [a, b] if !a.starts_with('-') && !b.starts_with('-') => {
                    Ok(TraceCommand::Diff { a: PathBuf::from(a), b: PathBuf::from(b) })
                }
                _ => Err("trace diff needs exactly two log files".into()),
            }
        }
        Some(other) => {
            Err(format!("unknown trace subcommand {other} (expected record, replay or diff)"))
        }
        None => Err("trace needs a subcommand: record, replay or diff".into()),
    }
}

/// The pinned PoC every trace command assumes: the `leak_trace` scenario
/// shape. Because the geometry is a constant of the binary, `replay` can
/// rebuild the exact observers the live run used from the log alone.
fn poc() -> PocConfig {
    PocConfig::fig11(FIG11_SLIDE)
}

fn fresh_tracer(cfg: &PocConfig) -> LeakTraceObserver {
    leak_trace_for(&cfg.layout, &CpuConfig::default())
}

/// The observer-derived metric document. Every value is a pure function
/// of the event stream (plus the pinned geometry), so a live `record` and
/// a detached `replay` of its log produce byte-identical files — the CI
/// byte-compare that proves the log is lossless.
fn metrics_json(events: usize, counts: &CountingObserver, tracer: &LeakTraceObserver) -> Json {
    let num = |v: u64| Json::Num(v as f64);
    let fields = [
        ("events", num(events as u64)),
        ("runahead_enters", num(counts.runahead_enters)),
        ("runahead_exits", num(counts.runahead_exits)),
        ("squash_events", num(counts.squash_events)),
        ("squashed_total", num(counts.squashed_total)),
        ("commits", num(counts.commits)),
        ("branches_resolved", num(counts.branches_resolved)),
        ("mispredicts", num(counts.mispredicts)),
        ("transient_loads", num(counts.transient_loads)),
        ("tainted_loads", num(counts.tainted_loads)),
        ("fills", num(counts.fills)),
        ("transient_fills", num(counts.transient_fills)),
        ("flushes", num(counts.flushes)),
        ("transient_secret_fills", num(tracer.transient_secret_fills())),
        ("secret_reads", num(tracer.secret_reads())),
        ("ground_truth_byte", tracer.ground_truth_byte(&[0]).map_or(Json::Null, |b| num(b as u64))),
        ("fills_per_entry", Json::Arr(tracer.fills_per_entry().iter().map(|&f| num(f)).collect())),
    ];
    Json::obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn write_metrics(
    path: Option<&Path>,
    events: usize,
    counts: &CountingObserver,
    tracer: &LeakTraceObserver,
) -> Result<(), String> {
    let Some(path) = path else { return Ok(()) };
    let doc = metrics_json(events, counts, tracer).render();
    FsSink.write_atomic(path, &doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn record(out: &Path, policy: Policy, metrics: Option<&Path>) -> Result<i32, String> {
    let cfg = poc();
    let mut session = Session::builder()
        .policy(policy)
        .observer((CountingObserver::default(), fresh_tracer(&cfg)))
        .trace(out)
        .build();
    let outcome = run_pht_poc(&mut session, &cfg);
    let events = session.recorded_events().to_vec();
    let bytes = encode_events(&events);
    ArtifactTraceSink(&FsSink)
        .write_trace(out, &bytes)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    let (counts, tracer) = session.observer().0.clone();
    println!(
        "recorded {} event(s) ({} bytes) from the {} machine to {}",
        events.len(),
        bytes.len(),
        policy_label(policy),
        out.display()
    );
    println!(
        "timing leaked {:?}; ground truth {:?}; transient secret fills {}",
        outcome.leaked,
        tracer.ground_truth_byte(&[0]),
        tracer.transient_secret_fills()
    );
    write_metrics(metrics, events.len(), &counts, &tracer)?;
    Ok(0)
}

fn load_events(path: &Path) -> Result<Vec<PipelineEvent>, String> {
    let decoded =
        read_trace_file(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if decoded.torn_tail {
        eprintln!(
            "warning: {} has a torn tail (no trailer): {} byte(s) after the last complete \
             block were dropped",
            path.display(),
            decoded.dropped_bytes
        );
    }
    Ok(decoded.events)
}

fn replay_log(path: &Path, metrics: Option<&Path>) -> Result<i32, String> {
    let events = load_events(path)?;
    let cfg = poc();
    let mut observers = (CountingObserver::default(), fresh_tracer(&cfg));
    specrun_trace::replay(&events, &mut observers);
    let (counts, tracer) = observers;
    println!("replayed {} event(s) from {} (no simulator)", events.len(), path.display());
    println!(
        "ground truth {:?}; transient secret fills {}; commits {}",
        tracer.ground_truth_byte(&[0]),
        tracer.transient_secret_fills(),
        counts.commits
    );
    write_metrics(metrics, events.len(), &counts, &tracer)?;
    Ok(0)
}

fn diff_logs(path_a: &Path, path_b: &Path) -> Result<i32, String> {
    let a = load_events(path_a)?;
    let b = load_events(path_b)?;
    for (path, events) in [(path_a, &a), (path_b, &b)] {
        let s = stream_stats(events);
        println!(
            "{}: {} event(s), {} commit(s), {} runahead episode(s), {} transient fill(s)",
            path.display(),
            s.events,
            s.commits,
            s.runahead_enters,
            s.transient_fills
        );
    }
    match first_divergence(&a, &b) {
        None => {
            println!("traces are behaviourally identical");
            Ok(0)
        }
        Some(d) => {
            println!("{}", d.describe());
            Ok(1)
        }
    }
}

/// Executes `specrun-lab trace …`. `Err` is reserved for usage errors
/// (the caller prints the synopsis); operational failures — unreadable
/// or corrupt logs, IO — report themselves here and exit 2 without the
/// usage dump.
pub fn trace_command(args: &[String]) -> Result<i32, String> {
    let run = match parse_trace_args(args)? {
        TraceCommand::Record { out, policy, metrics } => record(&out, policy, metrics.as_deref()),
        TraceCommand::Replay { path, metrics } => replay_log(&path, metrics.as_deref()),
        TraceCommand::Diff { a, b } => diff_logs(&a, &b),
    };
    Ok(run.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        2
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("trace_{}_{}", name, std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parses_trace_commands() {
        assert_eq!(
            parse_trace_args(&strings(&["record", "--out", "t.bin"])).unwrap(),
            TraceCommand::Record {
                out: PathBuf::from("t.bin"),
                policy: Policy::Runahead,
                metrics: None,
            }
        );
        assert_eq!(
            parse_trace_args(&strings(&[
                "record",
                "--out",
                "t.bin",
                "--policy",
                "secure",
                "--metrics",
                "m.json",
            ]))
            .unwrap(),
            TraceCommand::Record {
                out: PathBuf::from("t.bin"),
                policy: Policy::Secure,
                metrics: Some(PathBuf::from("m.json")),
            }
        );
        assert_eq!(
            parse_trace_args(&strings(&["replay", "t.bin", "--metrics", "m.json"])).unwrap(),
            TraceCommand::Replay {
                path: PathBuf::from("t.bin"),
                metrics: Some(PathBuf::from("m.json")),
            }
        );
        assert_eq!(
            parse_trace_args(&strings(&["diff", "a.bin", "b.bin"])).unwrap(),
            TraceCommand::Diff { a: PathBuf::from("a.bin"), b: PathBuf::from("b.bin") }
        );
    }

    #[test]
    fn rejects_bad_trace_usage() {
        assert!(parse_trace_args(&strings(&[])).is_err(), "no subcommand");
        assert!(parse_trace_args(&strings(&["bogus"])).is_err(), "unknown subcommand");
        assert!(parse_trace_args(&strings(&["record"])).is_err(), "record needs --out");
        assert!(parse_trace_args(&strings(&["record", "--policy", "x"])).is_err(), "bad policy");
        assert!(parse_trace_args(&strings(&["replay"])).is_err(), "replay needs a log");
        assert!(parse_trace_args(&strings(&["replay", "a", "b"])).is_err(), "one log only");
        assert!(parse_trace_args(&strings(&["diff", "a"])).is_err(), "diff needs two logs");
        assert!(parse_trace_args(&strings(&["diff", "a", "b", "c"])).is_err(), "exactly two");
        // Operational failures are not usage errors: they self-report and
        // exit 2 without triggering the caller's usage dump.
        assert_eq!(trace_command(&strings(&["replay", "/nonexistent/trace.bin"])), Ok(2));
    }

    #[test]
    fn record_replay_metrics_are_byte_identical() {
        let dir = scratch("roundtrip");
        let log = dir.join("t.bin");
        let live = dir.join("live.json");
        let detached = dir.join("replay.json");
        let args = strings(&[
            "record",
            "--out",
            log.to_str().unwrap(),
            "--metrics",
            live.to_str().unwrap(),
        ]);
        assert_eq!(trace_command(&args).unwrap(), 0);
        let args =
            strings(&["replay", log.to_str().unwrap(), "--metrics", detached.to_str().unwrap()]);
        assert_eq!(trace_command(&args).unwrap(), 0);
        let live_bytes = std::fs::read(&live).unwrap();
        assert_eq!(live_bytes, std::fs::read(&detached).unwrap(), "replay loses information");
        let text = String::from_utf8(live_bytes).unwrap();
        assert!(text.contains("\"ground_truth_byte\": 127"), "leak survives the round trip");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn diff_pinpoints_the_suppressed_secret_fill() {
        let dir = scratch("diff");
        let attacked = dir.join("runahead.bin");
        let secured = dir.join("secure.bin");
        for (path, policy) in [(&attacked, "runahead"), (&secured, "secure")] {
            let args = strings(&["record", "--out", path.to_str().unwrap(), "--policy", policy]);
            assert_eq!(trace_command(&args).unwrap(), 0);
        }
        let diff = strings(&["diff", attacked.to_str().unwrap(), secured.to_str().unwrap()]);
        assert_eq!(trace_command(&diff).unwrap(), 1, "the machines must diverge");
        let same = strings(&["diff", attacked.to_str().unwrap(), attacked.to_str().unwrap()]);
        assert_eq!(trace_command(&same).unwrap(), 0, "a trace never diverges from itself");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_logs_replay_and_flipped_lengths_exit_2() {
        let dir = scratch("damage");
        let log = dir.join("t.bin");
        let args = strings(&["record", "--out", log.to_str().unwrap()]);
        assert_eq!(trace_command(&args).unwrap(), 0);
        let bytes = std::fs::read(&log).unwrap();
        let replay = |name: &str, damaged: &[u8]| {
            let path = dir.join(name);
            std::fs::write(&path, damaged).unwrap();
            trace_command(&strings(&["replay", path.to_str().unwrap()])).unwrap()
        };
        assert_eq!(replay("torn.bin", &bytes[..bytes.len() - 7]), 0, "a torn tail replays");
        // Byte 18 is the high byte of the first block's length varint; its
        // continuation bit makes the block overrun the log.
        let mut flipped = bytes.clone();
        flipped[18] ^= 0x80;
        assert_eq!(replay("len.bin", &flipped), 2, "a complete log's bad length is corrupt");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
