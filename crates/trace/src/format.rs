//! The trace-log wire format: a compact, append-only binary encoding of
//! [`PipelineEvent`] streams.
//!
//! Layout:
//!
//! ```text
//! magic            "specrun-trace v2\n"                          (17 bytes)
//! block*           varint(payload_len) ‖ payload ‖ fnv1a64(payload) LE
//! trailer          0x00 ‖ events u64 LE ‖ fnv1a64(0x00 ‖ events) LE  (17 bytes)
//! ```
//!
//! Each block's payload holds 1 to [`BLOCK_EVENTS`] events, one after
//! another:
//!
//! ```text
//! event            tag u8 ‖ varint(zigzag(cycle − prev_cycle)) ‖ fields
//! ```
//!
//! Cycle numbers are delta-encoded against the previous event *across the
//! whole stream* (zigzag so an arbitrary — even non-monotonic — event
//! sequence round-trips); PCs, addresses and line indices are plain
//! varints; booleans pack into flag bytes; [`HitLevel`] gets a stable
//! 2-bit encoding. A payload is never empty, so a zero length byte cannot
//! start a block: it marks the trailer, which the encoder writes last,
//! when the stream is closed. The trailer is self-checking (its own digest
//! covers the marker and the event count), which gives decoding two
//! modes:
//!
//! * **complete** — the file ends in a valid trailer. Every byte between
//!   the magic and the trailer must frame into digest-valid blocks, and
//!   the blocks must hold exactly the trailer's event count. Anything
//!   else — a flipped length prefix that overruns the trailer, a lost
//!   block — is a hard [`TraceError`], never a silently shortened trace;
//! * **torn** — no valid trailer (a crash mid-append, or a file cut at
//!   any point, block boundaries included). Every complete block still
//!   decodes; the unfinished remainder is dropped and counted in
//!   [`DecodedTrace::dropped_bytes`], and [`DecodedTrace::torn_tail`]
//!   says it happened.
//!
//! In both modes a complete block whose payload fails its digest is a hard
//! [`TraceError::DigestMismatch`].

use std::fmt;
use std::io::{self, Write};
use std::path::Path;

use specrun_cpu::probe::PipelineEvent;
use specrun_mem::{fnv1a, Fnv1a, HitLevel};

/// First bytes of every trace log; a version bump changes this string.
pub const TRACE_MAGIC: &[u8] = b"specrun-trace v2\n";

/// Events per framed block. Fixed (never host-dependent), so encoding the
/// same event stream always produces byte-identical logs.
pub const BLOCK_EVENTS: usize = 1024;

const TAG_RUNAHEAD_ENTER: u8 = 1;
const TAG_RUNAHEAD_EXIT: u8 = 2;
const TAG_SQUASH: u8 = 3;
const TAG_COMMIT: u8 = 4;
const TAG_BRANCH_RESOLVED: u8 = 5;
const TAG_TRANSIENT_LOAD: u8 = 6;
const TAG_CACHE_FILL: u8 = 7;
const TAG_FLUSH: u8 = 8;

/// Largest encoded event: tag, cycle delta, two full-width varint fields
/// and a flag byte. A block's payload never outgrows
/// `BLOCK_EVENTS * MAX_EVENT_BYTES`.
const MAX_EVENT_BYTES: usize = 1 + 10 + 10 + 10 + 1;

/// Smallest encoded event: tag, cycle delta and one single-byte field.
/// `input length / MIN_EVENT_BYTES` bounds the events any input can hold.
const MIN_EVENT_BYTES: usize = 3;

/// Block digest length.
const DIGEST_BYTES: usize = 8;

/// The trailer's first byte; a block length is never zero.
const TRAILER_MARKER: u8 = 0;

/// Marker, event count and digest.
const TRAILER_BYTES: usize = 1 + 8 + DIGEST_BYTES;

/// Emits the varint (LEB128) bytes of `v`, low seven bits first.
#[inline(always)]
fn varint(mut v: u64, mut emit: impl FnMut(u8)) {
    while v >= 0x80 {
        emit(v as u8 | 0x80);
        v >>= 7;
    }
    emit(v as u8);
}

fn put_varint(out: &mut Vec<u8>, v: u64) {
    varint(v, |b| out.push(b));
}

/// One block's payload under construction. Each byte is folded into the
/// block digest as it is appended, so no second pass digests the
/// payload; the payload buffer is reused from block to block.
struct BlockEncoder {
    payload: Vec<u8>,
    digest: Fnv1a,
}

impl BlockEncoder {
    fn new() -> BlockEncoder {
        BlockEncoder {
            payload: Vec::with_capacity(BLOCK_EVENTS * MAX_EVENT_BYTES),
            digest: Fnv1a::new(),
        }
    }

    #[inline(always)]
    fn byte(&mut self, b: u8) {
        self.payload.push(b);
        self.digest.write(&[b]);
    }

    #[inline(always)]
    fn varint(&mut self, v: u64) {
        varint(v, |b| self.byte(b));
    }

    fn event(&mut self, event: &PipelineEvent, prev_cycle: &mut u64) {
        let cycle = event.cycle();
        let delta = zigzag(cycle.wrapping_sub(*prev_cycle) as i64);
        *prev_cycle = cycle;
        let (tag, field) = match *event {
            PipelineEvent::RunaheadEnter { stall_pc, .. } => (TAG_RUNAHEAD_ENTER, stall_pc),
            PipelineEvent::RunaheadExit { window, .. } => (TAG_RUNAHEAD_EXIT, window),
            PipelineEvent::Squash { squashed, .. } => (TAG_SQUASH, squashed),
            PipelineEvent::Commit { pc, .. } => (TAG_COMMIT, pc),
            PipelineEvent::BranchResolved { pc, .. } => (TAG_BRANCH_RESOLVED, pc),
            PipelineEvent::TransientLoad { pc, .. } => (TAG_TRANSIENT_LOAD, pc),
            PipelineEvent::CacheFill { line, .. } => (TAG_CACHE_FILL, line),
            PipelineEvent::Flush { line, .. } => (TAG_FLUSH, line),
        };
        self.byte(tag);
        self.varint(delta);
        self.varint(field);
        match *event {
            PipelineEvent::BranchResolved { taken, mispredicted, .. } => {
                self.byte(taken as u8 | (mispredicted as u8) << 1);
            }
            PipelineEvent::TransientLoad { addr, tainted, .. } => {
                self.varint(addr);
                self.byte(tainted as u8);
            }
            PipelineEvent::CacheFill { level, transient, .. } => {
                self.byte(level_code(level) | (transient as u8) << 2);
            }
            _ => {}
        }
    }

    /// Appends the framed block to `out` and starts the next one.
    fn finish_block(&mut self, out: &mut Vec<u8>) {
        put_varint(out, self.payload.len() as u64);
        out.extend_from_slice(&self.payload);
        out.extend_from_slice(&self.digest.finish().to_le_bytes());
        self.payload.clear();
        self.digest = Fnv1a::new();
    }
}

/// A cursor over decoder input that folds every byte it reads into a
/// running digest, so a block is parsed and digested in one pass.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    digest: Fnv1a,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0, digest: Fnv1a::new() }
    }

    #[inline(always)]
    fn byte(&mut self) -> Option<u8> {
        let &b = self.bytes.get(self.pos)?;
        self.pos += 1;
        self.digest.write(&[b]);
        Some(b)
    }

    #[inline(always)]
    fn varint(&mut self) -> Option<u64> {
        // Most cycle deltas fit one byte: skip the loop for them.
        let first = self.byte()?;
        if first < 0x80 {
            return Some(u64::from(first));
        }
        let mut value = u64::from(first & 0x7f);
        for shift in 1..10 {
            let byte = self.byte()?;
            if shift == 9 && byte > 1 {
                return None; // an 11th significant bit cannot fit a u64
            }
            value |= u64::from(byte & 0x7f) << (shift * 7);
            if byte & 0x80 == 0 {
                return Some(value);
            }
        }
        None
    }
}

fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn level_code(level: HitLevel) -> u8 {
    match level {
        HitLevel::L1 => 0,
        HitLevel::L2 => 1,
        HitLevel::L3 => 2,
        HitLevel::Mem => 3,
    }
}

fn level_from(code: u8) -> Option<HitLevel> {
    match code {
        0 => Some(HitLevel::L1),
        1 => Some(HitLevel::L2),
        2 => Some(HitLevel::L3),
        3 => Some(HitLevel::Mem),
        _ => None,
    }
}

#[inline(always)]
fn get_event(r: &mut Reader<'_>, prev_cycle: &mut u64) -> Result<PipelineEvent, &'static str> {
    let tag = r.byte().ok_or("event truncated at tag")?;
    let delta = r.varint().ok_or("bad cycle delta varint")?;
    let cycle = prev_cycle.wrapping_add(unzigzag(delta) as u64);
    *prev_cycle = cycle;
    // Every event kind carries one varint field right after the delta.
    let bad_field = match tag {
        TAG_RUNAHEAD_ENTER => "bad stall_pc",
        TAG_RUNAHEAD_EXIT => "bad window",
        TAG_SQUASH => "bad squashed",
        TAG_COMMIT | TAG_BRANCH_RESOLVED | TAG_TRANSIENT_LOAD => "bad pc",
        TAG_CACHE_FILL | TAG_FLUSH => "bad line",
        _ => return Err("unknown event tag"),
    };
    let field = r.varint().ok_or(bad_field)?;
    match tag {
        TAG_RUNAHEAD_ENTER => Ok(PipelineEvent::RunaheadEnter { cycle, stall_pc: field }),
        TAG_RUNAHEAD_EXIT => Ok(PipelineEvent::RunaheadExit { cycle, window: field }),
        TAG_SQUASH => Ok(PipelineEvent::Squash { cycle, squashed: field }),
        TAG_COMMIT => Ok(PipelineEvent::Commit { cycle, pc: field }),
        TAG_BRANCH_RESOLVED => {
            let flags = r.byte().ok_or("branch flags truncated")?;
            if flags > 3 {
                return Err("unknown branch flag bits");
            }
            Ok(PipelineEvent::BranchResolved {
                cycle,
                pc: field,
                taken: flags & 1 != 0,
                mispredicted: flags & 2 != 0,
            })
        }
        TAG_TRANSIENT_LOAD => {
            let addr = r.varint().ok_or("bad addr")?;
            let flags = r.byte().ok_or("load flags truncated")?;
            if flags > 1 {
                return Err("unknown load flag bits");
            }
            Ok(PipelineEvent::TransientLoad { cycle, pc: field, addr, tainted: flags != 0 })
        }
        TAG_CACHE_FILL => {
            let flags = r.byte().ok_or("fill flags truncated")?;
            if flags > 7 {
                return Err("unknown fill flag bits");
            }
            let level = level_from(flags & 3).ok_or("bad hit level")?;
            Ok(PipelineEvent::CacheFill { cycle, level, line: field, transient: flags & 4 != 0 })
        }
        _ => Ok(PipelineEvent::Flush { cycle, line: field }),
    }
}

/// The event count of a valid trailer at the end of `body`, if there is
/// one.
fn read_trailer(body: &[u8]) -> Option<u64> {
    let at = body.len().checked_sub(TRAILER_BYTES)?;
    let (head, digest) = body[at..].split_at(9);
    let valid = head[0] == TRAILER_MARKER && fnv1a(head).to_le_bytes() == digest;
    valid.then(|| u64::from_le_bytes(head[1..].try_into().expect("eight bytes")))
}

/// Encodes `events` into a complete trace log (magic, framed blocks and
/// trailer). The encoding is a pure function of the event sequence: same
/// events, same bytes, on every host.
pub fn encode_events(events: &[PipelineEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(TRACE_MAGIC.len() + events.len() * 4 + TRAILER_BYTES);
    out.extend_from_slice(TRACE_MAGIC);
    let mut block = BlockEncoder::new();
    let mut prev_cycle = 0u64;
    for chunk in events.chunks(BLOCK_EVENTS) {
        for event in chunk {
            block.event(event, &mut prev_cycle);
        }
        block.finish_block(&mut out);
    }
    let mut head = [TRAILER_MARKER; 9];
    head[1..].copy_from_slice(&(events.len() as u64).to_le_bytes());
    out.extend_from_slice(&head);
    out.extend_from_slice(&fnv1a(&head).to_le_bytes());
    out
}

/// A decoding failure that is *not* a torn tail: the log is corrupt and
/// must be treated as unreadable (`specrun-lab` maps these to exit 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file does not start with [`TRACE_MAGIC`].
    Header,
    /// A complete block's payload does not match its recorded digest:
    /// mid-file corruption. This wins over [`TraceError::Corrupt`] when
    /// the payload also fails to parse.
    DigestMismatch {
        /// Zero-based index of the corrupt block.
        block: usize,
    },
    /// A digest-valid block's payload failed to parse (impossible from
    /// this encoder; a crafted or version-skewed log).
    Corrupt {
        /// Zero-based index of the unparseable block.
        block: usize,
        /// What failed.
        reason: &'static str,
    },
    /// The log ends in a valid trailer, but the bytes before it do not
    /// frame into whole blocks: a damaged length prefix.
    Framing {
        /// Zero-based index of the block whose length prefix is bad.
        block: usize,
    },
    /// The log ends in a valid trailer, but its blocks hold a different
    /// number of events than the trailer records.
    EventCount {
        /// Events the trailer records.
        recorded: u64,
        /// Events the blocks hold.
        decoded: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Header => write!(f, "not a specrun trace (bad magic)"),
            TraceError::DigestMismatch { block } => {
                write!(f, "trace corrupt: digest mismatch in block {block}")
            }
            TraceError::Corrupt { block, reason } => {
                write!(f, "trace corrupt: block {block}: {reason}")
            }
            TraceError::Framing { block } => {
                write!(f, "trace corrupt: block {block} does not frame before the trailer")
            }
            TraceError::EventCount { recorded, decoded } => write!(
                f,
                "trace corrupt: trailer records {recorded} event(s), blocks hold {decoded}"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// A successfully decoded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedTrace {
    /// The recorded event stream, in emission order.
    pub events: Vec<PipelineEvent>,
    /// Whether the log lacks a valid trailer (crash mid-append, or a file
    /// cut short). The events above are the intact prefix.
    pub torn_tail: bool,
    /// Bytes after the last complete block of a torn log, dropped
    /// unread; always 0 for a complete log.
    pub dropped_bytes: usize,
    /// Complete blocks decoded.
    pub blocks: usize,
}

/// Parses one block's payload onto `events` and checks it against its
/// recorded digest in the same pass. A payload that both fails to parse
/// and fails its digest reports the digest.
fn decode_block(
    payload: &[u8],
    recorded: u64,
    block: usize,
    events: &mut Vec<PipelineEvent>,
    prev_cycle: &mut u64,
) -> Result<(), TraceError> {
    let mut r = Reader::new(payload);
    let mut parsed = Ok(());
    while r.pos < payload.len() {
        match get_event(&mut r, prev_cycle) {
            Ok(event) => events.push(event),
            Err(reason) => {
                r.digest.write(&payload[r.pos..]);
                parsed = Err(TraceError::Corrupt { block, reason });
                break;
            }
        }
    }
    if r.digest.finish() != recorded {
        return Err(TraceError::DigestMismatch { block });
    }
    parsed
}

/// Decodes a trace log produced by [`encode_events`].
///
/// A log without a valid trailer is torn: the blocks before the first
/// unfinished one are returned with [`DecodedTrace::torn_tail`] set and
/// the rest counted in [`DecodedTrace::dropped_bytes`]. Anything else
/// wrong with the body is a hard [`TraceError`]. See the module docs.
pub fn decode_events(bytes: &[u8]) -> Result<DecodedTrace, TraceError> {
    let body = bytes.strip_prefix(TRACE_MAGIC).ok_or(TraceError::Header)?;
    let trailer = read_trailer(body);
    let section = match trailer {
        Some(_) => &body[..body.len() - TRAILER_BYTES],
        None => body,
    };
    // Sized from the input alone, never from a count read out of it: no
    // input can hold more events than this, so the vector never regrows.
    let mut events = Vec::with_capacity(section.len() / MIN_EVENT_BYTES);
    let mut prev_cycle = 0u64;
    let mut blocks = 0usize;
    let mut frame = Reader::new(section);
    while frame.pos < section.len() {
        let start = frame.pos;
        let framed = frame.varint().filter(|&len| {
            let room = (section.len() - frame.pos).saturating_sub(DIGEST_BYTES);
            len != 0 && len <= room as u64
        });
        let Some(len) = framed else {
            if trailer.is_some() {
                return Err(TraceError::Framing { block: blocks });
            }
            // The block (or the trailer) never finished being written:
            // drop it, keep the prefix.
            let dropped_bytes = section.len() - start;
            return Ok(DecodedTrace { events, torn_tail: true, dropped_bytes, blocks });
        };
        let (payload, rest) = section[frame.pos..].split_at(len as usize);
        let recorded = u64::from_le_bytes(rest[..DIGEST_BYTES].try_into().expect("eight bytes"));
        frame.pos += len as usize + DIGEST_BYTES;
        decode_block(payload, recorded, blocks, &mut events, &mut prev_cycle)?;
        blocks += 1;
    }
    if let Some(recorded) = trailer {
        if recorded != events.len() as u64 {
            return Err(TraceError::EventCount { recorded, decoded: events.len() as u64 });
        }
    }
    Ok(DecodedTrace { events, torn_tail: trailer.is_none(), dropped_bytes: 0, blocks })
}

/// Destination for an encoded trace log. `specrun-lab` adapts its
/// `ArtifactSink` onto this (so chaos fault injection covers trace writes
/// too); [`FsTraceSink`] is the plain filesystem implementation with the
/// same atomic discipline.
pub trait TraceSink {
    /// Writes `bytes` to `path` atomically (no torn files on crash —
    /// old-or-new, never a hybrid).
    fn write_trace(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
}

/// Filesystem [`TraceSink`]: temp file + fsync + rename, matching the
/// artifact-sink discipline.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsTraceSink;

impl TraceSink for FsTraceSink {
    fn write_trace(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }
}

/// Encodes `events` and writes the log to `path` through [`FsTraceSink`].
pub fn write_trace_file(path: &Path, events: &[PipelineEvent]) -> io::Result<()> {
    FsTraceSink.write_trace(path, &encode_events(events))
}

/// Reading a trace file can fail two ways: the file itself (I/O) or its
/// contents ([`TraceError`]).
#[derive(Debug)]
pub enum TraceFileError {
    /// The file could not be read.
    Io(io::Error),
    /// The file's contents are not a valid trace.
    Decode(TraceError),
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "cannot read trace: {e}"),
            TraceFileError::Decode(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TraceFileError {}

/// Reads and decodes the trace log at `path`.
pub fn read_trace_file(path: &Path) -> Result<DecodedTrace, TraceFileError> {
    let bytes = std::fs::read(path).map_err(TraceFileError::Io)?;
    decode_events(&bytes).map_err(TraceFileError::Decode)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<PipelineEvent> {
        vec![
            PipelineEvent::Commit { cycle: 3, pc: 0x1000 },
            PipelineEvent::RunaheadEnter { cycle: 10, stall_pc: 0x1008 },
            PipelineEvent::TransientLoad { cycle: 12, pc: 0x1010, addr: 0xb_0000, tainted: true },
            PipelineEvent::CacheFill { cycle: 12, level: HitLevel::Mem, line: 77, transient: true },
            PipelineEvent::BranchResolved {
                cycle: 13,
                pc: 0x1018,
                taken: true,
                mispredicted: true,
            },
            PipelineEvent::Squash { cycle: 400, squashed: 9 },
            PipelineEvent::RunaheadExit { cycle: 400, window: 120 },
            PipelineEvent::Flush { cycle: 401, line: 77 },
            PipelineEvent::CacheFill { cycle: 402, level: HitLevel::L2, line: 5, transient: false },
        ]
    }

    /// A fixed, seeded stream of every event kind, long enough to span
    /// several blocks, with field values from one byte up to the full u64
    /// range and cycles that mostly advance but sometimes step back.
    fn seeded_stream(len: usize) -> Vec<PipelineEvent> {
        let mut state = 0x005e_ed0f_7ace_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut cycle = 0u64;
        (0..len)
            .map(|_| {
                let r = next();
                cycle = match r % 16 {
                    0 => cycle.wrapping_sub(r >> 60),
                    1 => cycle.wrapping_add(r >> 20),
                    _ => cycle + (r >> 8) % 24,
                };
                let field = next() >> (next() % 64);
                let flag = |bit: u32| r >> (40 + bit) & 1 != 0;
                match (r >> 4) % 8 {
                    0 => PipelineEvent::RunaheadEnter { cycle, stall_pc: field },
                    1 => PipelineEvent::RunaheadExit { cycle, window: field },
                    2 => PipelineEvent::Squash { cycle, squashed: field },
                    3 => PipelineEvent::Commit { cycle, pc: field },
                    4 => PipelineEvent::BranchResolved {
                        cycle,
                        pc: field,
                        taken: flag(0),
                        mispredicted: flag(1),
                    },
                    5 => PipelineEvent::TransientLoad {
                        cycle,
                        pc: field,
                        addr: next() >> (next() % 64),
                        tainted: flag(2),
                    },
                    6 => PipelineEvent::CacheFill {
                        cycle,
                        level: [HitLevel::L1, HitLevel::L2, HitLevel::L3, HitLevel::Mem]
                            [(r >> 50) as usize % 4],
                        line: field,
                        transient: flag(3),
                    },
                    _ => PipelineEvent::Flush { cycle, line: field },
                }
            })
            .collect()
    }

    /// Reads the varint at `*pos` and moves past it.
    fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
        let mut r = Reader::new(&bytes[*pos..]);
        let value = r.varint();
        *pos += r.pos;
        value
    }

    /// The bytes between the magic and the trailer.
    fn block_section(log: &[u8]) -> &[u8] {
        &log[TRACE_MAGIC.len()..log.len() - TRAILER_BYTES]
    }

    /// A complete block of `payload` (no trailer follows it).
    fn block(payload: &[u8], digest: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        put_varint(&mut bytes, payload.len() as u64);
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&digest.to_le_bytes());
        bytes
    }

    #[test]
    fn round_trips_every_event_kind() {
        let events = sample_events();
        let decoded = decode_events(&encode_events(&events)).unwrap();
        assert_eq!(decoded.events, events);
        assert!(!decoded.torn_tail);
        assert_eq!(decoded.dropped_bytes, 0);
        assert_eq!(decoded.blocks, 1);
    }

    #[test]
    fn block_bytes_match_the_v1_encoder() {
        // Values the v1 encoder produced for this stream's blocks (the v2
        // bump changed only the magic and added the trailer).
        let events = seeded_stream(BLOCK_EVENTS * 3 + 321);
        let log = encode_events(&events);
        let section = block_section(&log);
        assert_eq!(section.len(), 28_486);
        assert_eq!(fnv1a(section), 0xb1cb_ba4d_850d_8ef3);
        let decoded = decode_events(&log).unwrap();
        assert_eq!(decoded.events, events);
        assert_eq!(decoded.blocks, 4);
    }

    #[test]
    fn empty_log_round_trips() {
        let bytes = encode_events(&[]);
        assert_eq!(bytes.len(), TRACE_MAGIC.len() + TRAILER_BYTES);
        assert!(bytes.starts_with(TRACE_MAGIC));
        let decoded = decode_events(&bytes).unwrap();
        assert!(decoded.events.is_empty());
        assert!(!decoded.torn_tail);
        assert_eq!(decoded.blocks, 0);
        // Only the magic: never closed, so torn, with nothing dropped.
        let decoded = decode_events(TRACE_MAGIC).unwrap();
        assert!(decoded.torn_tail);
        assert_eq!(decoded.dropped_bytes, 0);
    }

    #[test]
    fn encoding_is_deterministic_and_compact() {
        let events = sample_events();
        let a = encode_events(&events);
        let b = encode_events(&events);
        assert_eq!(a, b);
        // Delta + varint encoding: well under the 40-byte in-memory size.
        assert!(block_section(&a).len() < events.len() * 12, "{} bytes", a.len());
    }

    #[test]
    fn multi_block_streams_carry_cycle_deltas_across_blocks() {
        let events: Vec<PipelineEvent> = (0..BLOCK_EVENTS as u64 * 2 + 37)
            .map(|i| PipelineEvent::Commit { cycle: i * 3 + 1_000_000, pc: 0x1000 + i * 8 })
            .collect();
        let decoded = decode_events(&encode_events(&events)).unwrap();
        assert_eq!(decoded.events, events);
        assert_eq!(decoded.blocks, 3);
    }

    #[test]
    fn torn_tail_is_tolerated_at_every_truncation_point() {
        let events = sample_events();
        let full = encode_events(&events);
        let block_end = full.len() - TRAILER_BYTES;
        for cut in TRACE_MAGIC.len()..full.len() {
            let decoded = decode_events(&full[..cut]).expect("torn tail is not an error");
            assert!(decoded.torn_tail, "cut at {cut} must read as torn");
            if cut < block_end {
                assert!(decoded.events.is_empty(), "the only block is incomplete");
                assert_eq!(decoded.dropped_bytes, cut - TRACE_MAGIC.len());
            } else {
                assert_eq!(decoded.events, events, "cut inside the trailer keeps every block");
                assert_eq!(decoded.dropped_bytes, cut - block_end);
            }
        }
        // Torn *second* block: the first block's events survive.
        let many: Vec<PipelineEvent> = (0..BLOCK_EVENTS as u64 + 10)
            .map(|i| PipelineEvent::Commit { cycle: i, pc: i })
            .collect();
        let bytes = encode_events(&many);
        let decoded = decode_events(&bytes[..bytes.len() - TRAILER_BYTES - 3]).unwrap();
        assert!(decoded.torn_tail);
        assert_eq!(decoded.blocks, 1);
        assert_eq!(decoded.events, many[..BLOCK_EVENTS]);
    }

    #[test]
    fn log_cut_at_a_block_boundary_reads_as_torn() {
        let events = seeded_stream(BLOCK_EVENTS * 2 + 5);
        let full = encode_events(&events);
        // Find the end of the first block by re-framing it.
        let mut pos = TRACE_MAGIC.len();
        let len = get_varint(&full, &mut pos).unwrap() as usize;
        let first_end = pos + len + DIGEST_BYTES;
        for cut in [first_end, full.len() - TRAILER_BYTES] {
            let decoded = decode_events(&full[..cut]).unwrap();
            assert!(decoded.torn_tail, "a log without its trailer is torn (cut at {cut})");
            assert_eq!(decoded.dropped_bytes, 0);
        }
        assert_eq!(decode_events(&full[..first_end]).unwrap().events, events[..BLOCK_EVENTS]);
    }

    #[test]
    fn every_single_bit_flip_decodes_identically_or_is_a_hard_error() {
        // A small multi-block log holding every event kind.
        let events: Vec<PipelineEvent> = sample_events()
            .iter()
            .cycle()
            .take(BLOCK_EVENTS + 40)
            .enumerate()
            .map(|(i, e)| {
                let mut e = *e;
                match &mut e {
                    PipelineEvent::Commit { cycle, .. }
                    | PipelineEvent::CacheFill { cycle, .. }
                    | PipelineEvent::Squash { cycle, .. }
                    | PipelineEvent::RunaheadEnter { cycle, .. }
                    | PipelineEvent::RunaheadExit { cycle, .. }
                    | PipelineEvent::BranchResolved { cycle, .. }
                    | PipelineEvent::TransientLoad { cycle, .. }
                    | PipelineEvent::Flush { cycle, .. } => *cycle += i as u64 / 9 * 400,
                }
                e
            })
            .collect();
        let log = encode_events(&events);
        let trailer_at = log.len() - TRAILER_BYTES;
        let mut hard = 0usize;
        for byte in 0..log.len() {
            for bit in 0..8 {
                let mut flipped = log.clone();
                flipped[byte] ^= 1 << bit;
                match decode_events(&flipped) {
                    Err(_) => hard += 1,
                    Ok(decoded) => {
                        assert!(
                            byte >= trailer_at,
                            "flip of bit {bit} in byte {byte} decoded as {} event(s), torn {}",
                            decoded.events.len(),
                            decoded.torn_tail
                        );
                        assert_eq!(decoded.events, events, "flip of bit {bit} in byte {byte}");
                    }
                }
            }
        }
        assert!(hard >= trailer_at * 8, "every flip before the trailer is a hard error");
    }

    #[test]
    fn flipped_length_prefix_is_a_hard_error_not_a_torn_tail() {
        // Growing the first block's length past the trailer used to read
        // as a torn tail holding zero events.
        let events = seeded_stream(BLOCK_EVENTS + 50);
        let mut log = encode_events(&events);
        let at = TRACE_MAGIC.len() + 1; // the high byte of a two-byte varint
        let bit = (0..7).rev().map(|b| 1u8 << b).find(|&b| log[at] & b == 0).unwrap();
        log[at] ^= bit;
        let mut pos = TRACE_MAGIC.len();
        let grown = get_varint(&log, &mut pos).unwrap() as usize;
        assert!(pos + grown > log.len(), "the flip must overrun the log");
        assert_eq!(decode_events(&log), Err(TraceError::Framing { block: 0 }));
    }

    #[test]
    fn lost_block_is_an_event_count_error() {
        let events = seeded_stream(BLOCK_EVENTS + 50);
        let log = encode_events(&events);
        let mut pos = TRACE_MAGIC.len();
        let len = get_varint(&log, &mut pos).unwrap() as usize;
        let mut cut = TRACE_MAGIC.to_vec();
        cut.extend_from_slice(&log[pos + len + DIGEST_BYTES..]);
        assert_eq!(
            decode_events(&cut),
            Err(TraceError::EventCount { recorded: events.len() as u64, decoded: 50 })
        );
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let events = sample_events();
        let mut bytes = encode_events(&events);
        let payload_mid = TRACE_MAGIC.len() + 6; // inside the first payload
        bytes[payload_mid] ^= 0x40;
        assert_eq!(decode_events(&bytes), Err(TraceError::DigestMismatch { block: 0 }));
    }

    #[test]
    fn corrupting_the_final_complete_block_is_still_hard() {
        // Unlike a torn tail, a *complete* final block with a bad digest is
        // corruption, exactly as the journal treats its final line.
        let events = sample_events();
        let mut bytes = encode_events(&events);
        let last = bytes.len() - TRAILER_BYTES - 1;
        bytes[last] ^= 0xff; // flip the block digest itself
        assert_eq!(decode_events(&bytes), Err(TraceError::DigestMismatch { block: 0 }));
        // Also without the trailer, as a torn log.
        let torn = &bytes[..bytes.len() - TRAILER_BYTES];
        assert_eq!(decode_events(torn), Err(TraceError::DigestMismatch { block: 0 }));
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert_eq!(decode_events(b"not a trace at all"), Err(TraceError::Header));
        assert_eq!(decode_events(&[]), Err(TraceError::Header));
        // A v1 log is not a v2 log.
        assert_eq!(decode_events(b"specrun-trace v1\n"), Err(TraceError::Header));
    }

    #[test]
    fn unknown_tag_with_valid_digest_is_corrupt() {
        let payload = [99u8, 0u8]; // tag 99, delta 0
        let mut bytes = TRACE_MAGIC.to_vec();
        bytes.extend_from_slice(&block(&payload, fnv1a(&payload)));
        assert_eq!(
            decode_events(&bytes),
            Err(TraceError::Corrupt { block: 0, reason: "unknown event tag" })
        );
    }

    #[test]
    fn unparseable_block_with_a_bad_digest_reports_the_digest() {
        // The payload fails to parse *and* fails its digest: the digest
        // decides, as it did when the two were separate passes.
        let good = [TAG_COMMIT, 2, 0x10];
        let payload = [TAG_COMMIT, 2, 0x10, 99, 0, 7, 7];
        for digest in [fnv1a(&good), fnv1a(&payload) ^ 1] {
            let mut bytes = TRACE_MAGIC.to_vec();
            bytes.extend_from_slice(&block(&payload, digest));
            assert_eq!(decode_events(&bytes), Err(TraceError::DigestMismatch { block: 0 }));
        }
        // A payload cut mid-event, same precedence.
        let cut = [TAG_BRANCH_RESOLVED, 2];
        let mut bytes = TRACE_MAGIC.to_vec();
        bytes.extend_from_slice(&block(&cut, fnv1a(&cut)));
        assert_eq!(decode_events(&bytes), Err(TraceError::Corrupt { block: 0, reason: "bad pc" }));
        let mut bytes = TRACE_MAGIC.to_vec();
        bytes.extend_from_slice(&block(&cut, fnv1a(&cut) ^ 1));
        assert_eq!(decode_events(&bytes), Err(TraceError::DigestMismatch { block: 0 }));
    }

    #[test]
    fn varint_round_trips_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
        for d in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }

    #[test]
    fn widest_events_fit_the_stack_buffer() {
        let events = [
            PipelineEvent::TransientLoad {
                cycle: u64::MAX / 2,
                pc: u64::MAX,
                addr: u64::MAX,
                tainted: true,
            },
            PipelineEvent::BranchResolved {
                cycle: 0,
                pc: u64::MAX,
                taken: true,
                mispredicted: true,
            },
        ];
        let decoded = decode_events(&encode_events(&events)).unwrap();
        assert_eq!(decoded.events, events);
    }

    #[test]
    fn non_monotonic_cycles_round_trip() {
        let events = vec![
            PipelineEvent::Commit { cycle: u64::MAX, pc: 1 },
            PipelineEvent::Commit { cycle: 0, pc: 2 },
            PipelineEvent::Commit { cycle: 5, pc: 3 },
            PipelineEvent::Commit { cycle: 2, pc: 4 },
        ];
        assert_eq!(decode_events(&encode_events(&events)).unwrap().events, events);
    }

    #[test]
    fn fs_sink_writes_atomically_named_file() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("specrun_trace_fmt_{}.trace", std::process::id()));
        let events = sample_events();
        write_trace_file(&path, &events).unwrap();
        let decoded = read_trace_file(&path).unwrap();
        assert_eq!(decoded.events, events);
        assert!(!path.with_extension("trace.tmp").exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn read_trace_file_distinguishes_io_from_decode() {
        let missing = Path::new("/nonexistent/specrun.trace");
        assert!(matches!(read_trace_file(missing), Err(TraceFileError::Io(_))));
        let dir = std::env::temp_dir();
        let path = dir.join(format!("specrun_trace_bad_{}.trace", std::process::id()));
        std::fs::write(&path, b"garbage").unwrap();
        assert!(matches!(read_trace_file(&path), Err(TraceFileError::Decode(TraceError::Header))));
        let _ = std::fs::remove_file(&path);
    }
}
