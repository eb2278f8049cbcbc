//! The append-only campaign journal behind `--resume`.
//!
//! A journal is a line-oriented file beside the campaign's report
//! artifact. The first line identifies the campaign (magic + a header
//! string derived from everything that determines the campaign's bytes:
//! seed, size, mode, inversion); each subsequent line records one
//! completed unit of work as `e <key> <payload> <digest>`, where the
//! digest is the FNV-1a hash of `<key> <payload>` — placed *last* so a
//! line torn by a crash loses its digest and parses as garbage rather
//! than as a plausible entry.
//!
//! Tolerance is asymmetric by design:
//!
//! * a **torn final line** (truncated or garbage) is expected — appends
//!   are not fsynced — and is silently dropped on load;
//! * a **digest mismatch** on a structurally complete entry, or garbage
//!   anywhere before the final line, means the journal was corrupted or
//!   hand-edited and is a **hard error**: resuming from it could silently
//!   produce a report that disagrees with an uninterrupted run;
//! * a **header mismatch** (different seed/size/mode) is likewise a hard
//!   error — the journal describes some other campaign.
//!
//! Journals are deleted when a campaign completes, so `--resume` after a
//! clean finish is simply a fresh run — same bytes either way.

use std::io;
use std::path::{Path, PathBuf};

use specrun_mem::fnv1a;

use crate::sink::ArtifactSink;

/// First token pair of every journal; bump the version when the entry
/// format changes so stale journals hard-fail instead of misparse.
pub const JOURNAL_MAGIC: &str = "specrun-journal v1";

/// Why a journal could not be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The header names a different campaign (seed/size/mode drift).
    HeaderMismatch {
        /// The header line found on disk.
        found: String,
        /// The header line this campaign expected.
        expected: String,
    },
    /// A non-final line is not a valid entry.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// A structurally complete entry whose digest does not match its body.
    DigestMismatch {
        /// 1-based line number.
        line: usize,
    },
    /// The journal file could not be read.
    Io(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::HeaderMismatch { found, expected } => write!(
                f,
                "journal belongs to a different campaign (found {found:?}, expected {expected:?})"
            ),
            JournalError::Corrupt { line, reason } => {
                write!(f, "journal line {line} is corrupt: {reason}")
            }
            JournalError::DigestMismatch { line } => {
                write!(f, "journal line {line} fails its digest check (corrupted entry)")
            }
            JournalError::Io(e) => write!(f, "cannot read journal: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// Everything a journal recorded, in append order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalState {
    /// `(key, payload)` per entry, in append order.
    pub entries: Vec<(String, String)>,
    /// Whether a torn final line was dropped.
    pub torn_tail: bool,
}

/// Renders one entry line (`e <key> <payload> <digest>`). Exposed so the
/// chaos harness and tests can craft journals byte-for-byte.
pub fn entry_line(key: &str, payload: &str) -> String {
    debug_assert!(!key.contains(' '), "journal keys are space-free");
    let body = if payload.is_empty() { key.to_string() } else { format!("{key} {payload}") };
    format!("e {body} {:016x}", fnv1a(body.as_bytes()))
}

fn parse_entry(line: &str) -> Result<(String, String), String> {
    let body_digest = line.strip_prefix("e ").ok_or("missing entry prefix")?;
    let (body, digest_hex) = body_digest.rsplit_once(' ').ok_or("missing digest field")?;
    if digest_hex.len() != 16 || !digest_hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err("digest is not 16 hex digits".to_string());
    }
    let digest = u64::from_str_radix(digest_hex, 16).map_err(|e| e.to_string())?;
    if fnv1a(body.as_bytes()) != digest {
        return Err(DIGEST_MISMATCH.to_string());
    }
    match body.split_once(' ') {
        Some((key, payload)) => Ok((key.to_string(), payload.to_string())),
        None => Ok((body.to_string(), String::new())),
    }
}

const DIGEST_MISMATCH: &str = "digest mismatch";

/// Loads a journal. `Ok(None)` means no journal exists (fresh start);
/// `Ok(Some(state))` carries every intact entry. See the module docs for
/// which corruptions are tolerated and which are hard errors.
pub fn load(path: &Path, expected_header: &str) -> Result<Option<JournalState>, JournalError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(JournalError::Io(format!("{}: {e}", path.display()))),
    };
    let lines: Vec<&str> = text.lines().collect();
    let Some((&first, rest)) = lines.split_first() else {
        return Ok(None); // empty file: the header append itself was lost
    };
    let expected = format!("{JOURNAL_MAGIC} {expected_header}");
    if first != expected {
        // A torn header (the only line, cut short) degrades to a fresh
        // start; anything else is a different campaign's journal.
        if rest.is_empty() && !first.is_empty() && expected.starts_with(first) {
            return Ok(None);
        }
        return Err(JournalError::HeaderMismatch { found: first.to_string(), expected });
    }
    let mut state = JournalState::default();
    for (i, line) in rest.iter().enumerate() {
        let line_no = i + 2; // 1-based, after the header
        let last = i + 1 == rest.len();
        match parse_entry(line) {
            Ok(entry) => state.entries.push(entry),
            Err(reason) if reason == DIGEST_MISMATCH => {
                return Err(JournalError::DigestMismatch { line: line_no });
            }
            Err(_) if last => {
                state.torn_tail = true; // the expected torn-append case
            }
            Err(reason) => return Err(JournalError::Corrupt { line: line_no, reason }),
        }
    }
    Ok(Some(state))
}

/// An open journal: a sink plus the path appends go to.
pub struct Journal<'a> {
    sink: &'a dyn ArtifactSink,
    path: PathBuf,
}

impl<'a> Journal<'a> {
    /// Binds a journal at `path` writing through `sink`.
    pub fn new(sink: &'a dyn ArtifactSink, path: PathBuf) -> Journal<'a> {
        Journal { sink, path }
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Opens the journal of the campaign `header` names. With `resume`,
    /// an existing journal's entries are returned for the caller to skip;
    /// otherwise, or when there is none, a fresh journal is begun and no
    /// entries are returned. The error is a complete message, with a hint
    /// when a journal refuses to resume.
    pub fn open(&self, header: &str, resume: bool) -> Result<Vec<(String, String)>, String> {
        if resume {
            match load(&self.path, header) {
                Ok(Some(state)) => return Ok(state.entries),
                Ok(None) => {}
                Err(e) => {
                    return Err(format!(
                        "cannot resume from {}: {e}\n\
                         hint: delete the journal (or drop --resume) to start fresh",
                        self.path.display()
                    ));
                }
            }
        }
        self.begin(header)
            .map_err(|e| format!("cannot start journal {}: {e}", self.path.display()))?;
        Ok(Vec::new())
    }

    /// Starts a fresh journal: removes any stale file and writes the
    /// header line.
    fn begin(&self, header: &str) -> io::Result<()> {
        self.sink.remove(&self.path)?;
        self.sink.append_line(&self.path, &format!("{JOURNAL_MAGIC} {header}"))
    }

    /// Durably records one completed unit of work.
    pub fn append(&self, key: &str, payload: &str) -> io::Result<()> {
        self.sink.append_line(&self.path, &entry_line(key, payload))
    }

    /// Deletes the journal — the campaign completed, so a later `--resume`
    /// is just a fresh run.
    pub fn finish(&self) -> io::Result<()> {
        self.sink.remove(&self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::FsSink;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("journal_{}_{}", name, std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trips_entries_in_order() {
        let dir = scratch("rt");
        let j = Journal::new(&FsSink, dir.join("j"));
        j.begin("fuzz seed=1 plans=4").unwrap();
        j.append("plan:0", "ok 1234").unwrap();
        j.append("plan:1", "fail determinism").unwrap();
        j.append("plan:2", "").unwrap();
        let state = load(j.path(), "fuzz seed=1 plans=4").unwrap().unwrap();
        assert!(!state.torn_tail);
        assert_eq!(
            state.entries,
            vec![
                ("plan:0".to_string(), "ok 1234".to_string()),
                ("plan:1".to_string(), "fail determinism".to_string()),
                ("plan:2".to_string(), String::new()),
            ]
        );
        j.finish().unwrap();
        assert!(load(j.path(), "fuzz seed=1 plans=4").unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_is_a_fresh_start() {
        let dir = scratch("missing");
        assert_eq!(load(&dir.join("nope"), "h").unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_mismatch_is_a_hard_error() {
        let dir = scratch("header");
        let j = Journal::new(&FsSink, dir.join("j"));
        j.begin("fuzz seed=1 plans=4").unwrap();
        let err = load(j.path(), "fuzz seed=2 plans=4").unwrap_err();
        assert!(matches!(err, JournalError::HeaderMismatch { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_header_degrades_to_fresh_start() {
        let dir = scratch("tornheader");
        let path = dir.join("j");
        std::fs::write(&path, format!("{JOURNAL_MAGIC} fuzz se")).unwrap();
        assert_eq!(load(&path, "fuzz seed=1").unwrap(), None, "header prefix = torn write");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_is_dropped() {
        let dir = scratch("torn");
        let j = Journal::new(&FsSink, dir.join("j"));
        j.begin("h").unwrap();
        j.append("plan:0", "ok").unwrap();
        // Simulate a crash mid-append: the second entry lost its tail.
        let full = entry_line("plan:1", "ok");
        let torn = &full[..full.len() - 7];
        std::fs::OpenOptions::new()
            .append(true)
            .open(j.path())
            .and_then(|mut f| std::io::Write::write_all(&mut f, torn.as_bytes()))
            .unwrap();
        let state = load(j.path(), "h").unwrap().unwrap();
        assert!(state.torn_tail, "the torn line is noticed");
        assert_eq!(state.entries.len(), 1, "…and dropped");
        // Garbage trailing line: same treatment.
        let j2 = Journal::new(&FsSink, dir.join("j2"));
        j2.begin("h").unwrap();
        j2.append("plan:0", "ok").unwrap();
        FsSink.append_line(j2.path(), "complete garbage").unwrap();
        let state = load(j2.path(), "h").unwrap().unwrap();
        assert!(state.torn_tail);
        assert_eq!(state.entries.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_before_the_final_line_is_a_hard_error() {
        let dir = scratch("mid");
        let j = Journal::new(&FsSink, dir.join("j"));
        j.begin("h").unwrap();
        FsSink.append_line(j.path(), "garbage in the middle").unwrap();
        j.append("plan:1", "ok").unwrap();
        let err = load(j.path(), "h").unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { line: 2, .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn digest_mismatch_is_a_hard_error_even_on_the_final_line() {
        let dir = scratch("digest");
        let j = Journal::new(&FsSink, dir.join("j"));
        j.begin("h").unwrap();
        // A structurally complete entry whose payload was altered after
        // the digest was computed.
        let line = entry_line("plan:0", "ok 1111").replace("ok 1111", "ok 2222");
        FsSink.append_line(j.path(), &line).unwrap();
        let err = load(j.path(), "h").unwrap_err();
        assert_eq!(err, JournalError::DigestMismatch { line: 2 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_line_digest_covers_key_and_payload() {
        let a = entry_line("k", "p");
        let b = entry_line("k", "q");
        assert_ne!(a, b);
        assert!(a.starts_with("e k p "));
        let (_, digest) = a.rsplit_once(' ').unwrap();
        assert_eq!(digest.len(), 16);
    }
}
