//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer's public function, made from the
//! benchmark's own code: its name (plus an optional label such as a
//! scenario name), start and end, the span that caused it, and the id
//! shared by every span of one campaign unit. Spans stay in memory until
//! the run ends and are written out once. With no [`Tracer`] every helper
//! here is inert and reads no clock, which is how the untraced run
//! measures the same code paths.

use std::collections::HashMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within its tracer.
    pub id: u32,
    /// The span that caused this one, if any.
    pub parent: Option<u32>,
    /// Layer call, e.g. `core.prepare`.
    pub name: &'static str,
    /// Refines `name` where one call covers many inputs (scenario names).
    pub label: &'static str,
    /// Shared by every span of one campaign unit (shard, plan, pass, pair).
    pub unit: u64,
    /// Start, in ns.
    pub start: u64,
    /// End, in ns.
    pub end: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer { origin: Instant::now(), next_id: AtomicU32::new(0), spans: Mutex::default() }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every span closed so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }

    /// Spans named `name`, in closing order.
    pub fn named(&self, name: &str) -> Vec<Span> {
        let spans = self.spans.lock().expect("a span recorder panicked");
        spans.iter().filter(|s| s.name == name).cloned().collect()
    }

    /// Writes every span with its self time as tab-separated lines.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let spans = self.spans();
        let self_ns = self_times(&spans);
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tlabel\tunit\tstart_ns\tend_ns\tself_ns")?;
        for (span, own) in spans.iter().zip(self_ns) {
            let parent = span.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{own}",
                span.id, span.name, span.label, span.unit, span.start, span.end
            )?;
        }
        out.flush()
    }
}

/// An open span; closes when dropped. Inert without a tracer.
#[must_use = "a span measures until it is dropped"]
pub struct Open<'a> {
    tracer: Option<&'a Tracer>,
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    label: &'static str,
    unit: u64,
    start: u64,
}

/// Opens a span under `parent` for campaign unit `unit`.
pub fn open<'a>(
    tracer: Option<&'a Tracer>,
    name: &'static str,
    unit: u64,
    parent: Option<u32>,
) -> Open<'a> {
    open_labelled(tracer, name, "", unit, parent)
}

/// [`open`] with a label refining the name.
pub fn open_labelled<'a>(
    tracer: Option<&'a Tracer>,
    name: &'static str,
    label: &'static str,
    unit: u64,
    parent: Option<u32>,
) -> Open<'a> {
    let (id, start) = match tracer {
        Some(t) => (t.next_id.fetch_add(1, Ordering::Relaxed), t.now()),
        None => (0, 0),
    };
    Open { tracer, id, parent, name, label, unit, start }
}

impl Open<'_> {
    /// This span's id, to parent child spans (`None` when untraced).
    pub fn id(&self) -> Option<u32> {
        self.tracer.map(|_| self.id)
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let Some(tracer) = self.tracer else { return };
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            label: self.label,
            unit: self.unit,
            start: self.start,
            end: tracer.now(),
        };
        // A poisoned recorder only means another span's thread panicked;
        // the list itself is always whole, so keep recording.
        tracer.spans.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

/// Runs `f` inside a span.
pub fn timed<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    unit: u64,
    parent: Option<u32>,
    f: impl FnOnce() -> R,
) -> R {
    let _span = open(tracer, name, unit, parent);
    f()
}

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the part of its interval that its children cover (children clipped to
/// the parent; overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                .filter(|&(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span { id, parent, name: "t", label: "", unit: 0, start, end }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [span(0, None, 0, 100), span(1, Some(0), 10, 30), span(2, Some(0), 50, 90)];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = [
            span(0, None, 100, 200),
            // Children on two threads overlap between 140 and 150.
            span(1, Some(0), 120, 150),
            span(2, Some(0), 140, 170),
            // Starts before and ends after the parent: clipped to it.
            span(3, Some(0), 190, 260),
            span(4, Some(0), 50, 105),
        ];
        // Covered: [100,105) + [120,170) + [190,200) = 5 + 50 + 10.
        assert_eq!(self_times(&spans)[0], 35);
    }

    #[test]
    fn grandchildren_belong_to_their_own_parent() {
        let spans = [span(0, None, 0, 100), span(1, Some(0), 0, 60), span(2, Some(1), 0, 50)];
        assert_eq!(self_times(&spans), vec![40, 10, 50]);
    }

    #[test]
    fn spans_record_parents_and_inert_tracing_reads_nothing() {
        let tracer = Tracer::default();
        let parent = open(Some(&tracer), "outer", 7, None);
        let inner = timed(Some(&tracer), "inner", 7, parent.id(), || 3);
        assert_eq!(inner, 3);
        drop(parent);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert!(spans[1].start <= spans[0].start && spans[0].end <= spans[1].end);
        assert_eq!(open(None, "untraced", 0, None).id(), None);
    }
}
