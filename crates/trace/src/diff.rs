//! Trace forensics: aligning two recorded runs of the *same program* on
//! *different machine configurations* and naming the first event where
//! their pipelines part ways.
//!
//! Two traces of the same plan share an architectural spine — the commit
//! sequence — because runahead (and every §6 defense) is architecturally
//! invisible. But the global interleaving of the streams is *not* shared:
//! a config that changes a cache latency shifts when a branch resolves
//! relative to a nearby commit, and an element-wise walk would blame that
//! timing skew long before the real behavioural difference. Alignment is
//! therefore **per event kind**: each stream is split into eight lanes
//! (one per [`PipelineEvent`] variant), and lanes are compared
//! independently. Within a lane, order tracks program order — latency
//! changes reorder events *between* kinds, not within one — so the first
//! lane mismatch is a genuine behavioural difference, e.g. the transient
//! secret fill the defended machine suppresses. The reported divergence
//! is the lane mismatch whose position (commit anchor, then stream index)
//! is earliest.
//!
//! Comparison is over *normalized* events: cycle numbers are stripped
//! (configs differ in latency, which is timing, not behaviour) and so is
//! the `tainted` annotation on transient loads (the defended machine
//! labels the same load the vulnerable machine performs — the behavioural
//! difference is what the load goes on to *fill*, and that is its own
//! event). Everything else — PCs, addresses, lines, fill levels, window
//! and squash magnitudes — counts as behaviour.

use specrun_cpu::probe::PipelineEvent;
use specrun_mem::HitLevel;

/// A [`PipelineEvent`] with config-dependent annotations removed — the
/// unit of comparison for [`first_divergence`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NormEvent {
    RunaheadEnter { stall_pc: u64 },
    RunaheadExit { window: u64 },
    Squash { squashed: u64 },
    Commit { pc: u64 },
    BranchResolved { pc: u64, taken: bool, mispredicted: bool },
    TransientLoad { pc: u64, addr: u64 },
    CacheFill { level: HitLevel, line: u64, transient: bool },
    Flush { line: u64 },
}

fn normalize(event: &PipelineEvent) -> NormEvent {
    match *event {
        PipelineEvent::RunaheadEnter { stall_pc, .. } => NormEvent::RunaheadEnter { stall_pc },
        PipelineEvent::RunaheadExit { window, .. } => NormEvent::RunaheadExit { window },
        PipelineEvent::Squash { squashed, .. } => NormEvent::Squash { squashed },
        PipelineEvent::Commit { pc, .. } => NormEvent::Commit { pc },
        PipelineEvent::BranchResolved { pc, taken, mispredicted, .. } => {
            NormEvent::BranchResolved { pc, taken, mispredicted }
        }
        PipelineEvent::TransientLoad { pc, addr, .. } => NormEvent::TransientLoad { pc, addr },
        PipelineEvent::CacheFill { level, line, transient, .. } => {
            NormEvent::CacheFill { level, line, transient }
        }
        PipelineEvent::Flush { line, .. } => NormEvent::Flush { line },
    }
}

/// Lane index of an event: one lane per [`PipelineEvent`] variant.
fn lane_of(event: &PipelineEvent) -> usize {
    match event {
        PipelineEvent::RunaheadEnter { .. } => 0,
        PipelineEvent::RunaheadExit { .. } => 1,
        PipelineEvent::Squash { .. } => 2,
        PipelineEvent::Commit { .. } => 3,
        PipelineEvent::BranchResolved { .. } => 4,
        PipelineEvent::TransientLoad { .. } => 5,
        PipelineEvent::CacheFill { .. } => 6,
        PipelineEvent::Flush { .. } => 7,
    }
}

const LANES: usize = 8;

/// Counts that summarize one trace — printed beside a diff so the
/// divergence has scale.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Total events.
    pub events: u64,
    /// Architectural commits.
    pub commits: u64,
    /// Runahead episodes entered.
    pub runahead_enters: u64,
    /// Transient cache fills (the covert-channel events).
    pub transient_fills: u64,
}

/// Summarizes `events`.
pub fn stream_stats(events: &[PipelineEvent]) -> StreamStats {
    let mut s = StreamStats { events: events.len() as u64, ..StreamStats::default() };
    for e in events {
        match e {
            PipelineEvent::Commit { .. } => s.commits += 1,
            PipelineEvent::RunaheadEnter { .. } => s.runahead_enters += 1,
            PipelineEvent::CacheFill { transient: true, .. } => s.transient_fills += 1,
            _ => {}
        }
    }
    s
}

/// Where an event sits in its stream: the anchors a divergence report
/// carries.
#[derive(Debug, Clone, Copy, Default)]
struct Anchors {
    index: usize,
    commit_anchor: u64,
    anchor_pc: Option<u64>,
    runahead_episode: u64,
    transient_fills_before: u64,
}

/// One stream split into per-kind lanes of stream indices.
///
/// # Panics
///
/// If the stream holds more than `u32::MAX` events.
fn lanes(events: &[PipelineEvent]) -> [Vec<u32>; LANES] {
    assert!(u32::try_from(events.len()).is_ok(), "a trace holds at most u32::MAX events");
    let mut lanes: [Vec<u32>; LANES] = Default::default();
    for (index, event) in events.iter().enumerate() {
        lanes[lane_of(event)].push(index as u32);
    }
    lanes
}

/// A lane's first mismatch: its position in the lane, and the event that
/// anchors it — trace A's, unless A's lane is exhausted there.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    lane: usize,
    position: usize,
    on_a: bool,
    /// `at.index` is the anchoring event's stream index; the other
    /// anchors are filled in by [`anchor`].
    at: Anchors,
}

/// Fills in the anchors of `candidates` (all from `events`, ascending by
/// stream index) with one prefix scan that stops at the last of them.
fn anchor(events: &[PipelineEvent], candidates: &mut [Candidate]) {
    let mut pending = candidates.iter_mut().peekable();
    let mut at = Anchors::default();
    for (index, event) in events.iter().enumerate() {
        if pending.peek().is_none() {
            break;
        }
        // A divergence *inside* episode N reads as "at the Nth
        // RunaheadEnter", so the episode counter bumps before the enter
        // event itself is anchored.
        if matches!(event, PipelineEvent::RunaheadEnter { .. }) {
            at.runahead_episode += 1;
        }
        at.index = index;
        if let Some(candidate) = pending.next_if(|c| c.at.index == index) {
            candidate.at = at;
        }
        match *event {
            PipelineEvent::Commit { pc, .. } => {
                at.commit_anchor += 1;
                at.anchor_pc = Some(pc);
            }
            PipelineEvent::CacheFill { transient: true, .. } => at.transient_fills_before += 1,
            _ => {}
        }
    }
}

/// The first point where two traces disagree, with the context needed to
/// read it: where in the program (commit anchor), where in the attack
/// (runahead episode), and what each side did there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Stream index of the divergent event in the trace that has it
    /// (trace A, unless A's lane is exhausted — then trace B).
    pub index: usize,
    /// Architectural commits before the divergent event: it happens after
    /// the `commit_anchor`-th commit.
    pub commit_anchor: u64,
    /// PC of the last commit before the divergence, if any committed.
    pub anchor_pc: Option<u64>,
    /// Runahead episodes entered up to and including the divergence
    /// point. A divergence inside episode *N* reads as "at the Nth
    /// RunaheadEnter".
    pub runahead_episode: u64,
    /// Transient fills before the divergence in the stream that carries
    /// the divergent event.
    pub transient_fills_before: u64,
    /// Trace A's event at the divergence; `None` if A has no matching
    /// event in this lane.
    pub a: Option<PipelineEvent>,
    /// Trace B's event at the divergence; `None` if B has no matching
    /// event in this lane.
    pub b: Option<PipelineEvent>,
}

impl Divergence {
    /// Renders the one-line forensic verdict, e.g.
    ///
    /// ```text
    /// first divergence at event 350 (after commit #315 @ 0x4038, runahead episode #1, 0 transient fills before): a = CacheFill { cycle: 1893, level: Mem, line: 0x403f8, transient: true }, b = <no matching event>
    /// ```
    ///
    /// Deterministic (no wall-clock content), so artifact text carrying it
    /// stays byte-stable.
    pub fn describe(&self) -> String {
        let anchor = match self.anchor_pc {
            Some(pc) => format!("after commit #{} @ {pc:#x}", self.commit_anchor),
            None => "before the first commit".to_string(),
        };
        let side = |e: &Option<PipelineEvent>| match e {
            Some(PipelineEvent::CacheFill { cycle, level, line, transient }) => format!(
                "CacheFill {{ cycle: {cycle}, level: {level:?}, line: {line:#x}, \
                 transient: {transient} }}"
            ),
            Some(event) => format!("{event:?}"),
            None => "<no matching event>".to_string(),
        };
        format!(
            "first divergence at event {} ({anchor}, runahead episode #{}, \
             {} transient fills before): a = {}, b = {}",
            self.index,
            self.runahead_episode,
            self.transient_fills_before,
            side(&self.a),
            side(&self.b),
        )
    }
}

/// Finds the first behavioural divergence between two traces, or `None`
/// when every lane matches (streams that differ only in cross-kind
/// interleaving, cycle timings or taint annotations are behaviourally
/// identical). See the module docs for the alignment model.
///
/// # Panics
///
/// If either stream holds more than `u32::MAX` events.
pub fn first_divergence(a: &[PipelineEvent], b: &[PipelineEvent]) -> Option<Divergence> {
    let la = lanes(a);
    let lb = lanes(b);
    let mut candidates: Vec<Candidate> = (0..LANES)
        .filter_map(|lane| {
            let (xa, xb) = (&la[lane], &lb[lane]);
            let common = xa.len().min(xb.len());
            let position = (0..common)
                .find(|&i| normalize(&a[xa[i] as usize]) != normalize(&b[xb[i] as usize]))
                .or_else(|| (xa.len() != xb.len()).then_some(common))?;
            let on_a = position < xa.len();
            let index = if on_a { xa[position] } else { xb[position] } as usize;
            Some(Candidate { lane, position, on_a, at: Anchors { index, ..Anchors::default() } })
        })
        .collect();
    candidates.sort_unstable_by_key(|c| (!c.on_a, c.at.index));
    let split = candidates.iter().filter(|c| c.on_a).count();
    let (on_a, on_b) = candidates.split_at_mut(split);
    anchor(a, on_a);
    anchor(b, on_b);
    // Earliest by (commit anchor, stream index); on a tie, the lower lane.
    let best = candidates.iter().min_by_key(|c| (c.at.commit_anchor, c.at.index, c.lane))?;
    let at = best.at;
    Some(Divergence {
        index: at.index,
        commit_anchor: at.commit_anchor,
        anchor_pc: at.anchor_pc,
        runahead_episode: at.runahead_episode,
        transient_fills_before: at.transient_fills_before,
        a: la[best.lane].get(best.position).map(|&k| a[k as usize]),
        b: lb[best.lane].get(best.position).map(|&k| b[k as usize]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The tuple-lane algorithm `first_divergence` replaced, kept as the
    /// reference its index-lane form must agree with: every lane element
    /// carries its normalized form, its event and its anchors, all built
    /// in one pass over the whole stream.
    mod reference {
        use super::super::*;

        /// One stream split into per-kind lanes, each element keeping its
        /// normalized form, its original event and its stream anchors.
        fn lanes(events: &[PipelineEvent]) -> [Vec<(NormEvent, PipelineEvent, Anchors)>; LANES] {
            let mut lanes: [Vec<(NormEvent, PipelineEvent, Anchors)>; LANES] = Default::default();
            let mut at = Anchors {
                index: 0,
                commit_anchor: 0,
                anchor_pc: None,
                runahead_episode: 0,
                transient_fills_before: 0,
            };
            for (index, event) in events.iter().enumerate() {
                // A divergence *inside* episode N reads as "at the Nth
                // RunaheadEnter", so the episode counter bumps before filing the
                // enter event itself.
                if matches!(event, PipelineEvent::RunaheadEnter { .. }) {
                    at.runahead_episode += 1;
                }
                at.index = index;
                lanes[lane_of(event)].push((normalize(event), *event, at));
                match *event {
                    PipelineEvent::Commit { pc, .. } => {
                        at.commit_anchor += 1;
                        at.anchor_pc = Some(pc);
                    }
                    PipelineEvent::CacheFill { transient: true, .. } => {
                        at.transient_fills_before += 1
                    }
                    _ => {}
                }
            }
            lanes
        }

        pub(super) fn first_divergence(
            a: &[PipelineEvent],
            b: &[PipelineEvent],
        ) -> Option<Divergence> {
            let la = lanes(a);
            let lb = lanes(b);
            let mut best: Option<Divergence> = None;
            let mut best_key = (u64::MAX, usize::MAX);
            for lane in 0..LANES {
                let (xa, xb) = (&la[lane], &lb[lane]);
                let common = xa.len().min(xb.len());
                let mismatch = (0..common)
                    .find(|&i| xa[i].0 != xb[i].0)
                    .or_else(|| (xa.len() != xb.len()).then_some(common));
                let Some(i) = mismatch else { continue };
                // Anchor on whichever side actually has the event there.
                let at = if i < xa.len() { xa[i].2 } else { xb[i].2 };
                let key = (at.commit_anchor, at.index);
                if key < best_key {
                    best_key = key;
                    best = Some(Divergence {
                        index: at.index,
                        commit_anchor: at.commit_anchor,
                        anchor_pc: at.anchor_pc,
                        runahead_episode: at.runahead_episode,
                        transient_fills_before: at.transient_fills_before,
                        a: xa.get(i).map(|e| e.1),
                        b: xb.get(i).map(|e| e.1),
                    });
                }
            }
            best
        }
    }

    /// A small-alphabet event, so two random streams share many events.
    fn event() -> impl Strategy<Value = PipelineEvent> {
        (0u8..8, 0u64..4, 0u8..8, 0u64..64).prop_map(|(kind, field, flags, cycle)| {
            let flag = |bit: u8| flags >> bit & 1 != 0;
            match kind {
                0 => PipelineEvent::RunaheadEnter { cycle, stall_pc: field },
                1 => PipelineEvent::RunaheadExit { cycle, window: field },
                2 => PipelineEvent::Squash { cycle, squashed: field },
                3 => PipelineEvent::Commit { cycle, pc: 0x1000 + field },
                4 => PipelineEvent::BranchResolved {
                    cycle,
                    pc: field,
                    taken: flag(0),
                    mispredicted: flag(1),
                },
                5 => PipelineEvent::TransientLoad { cycle, pc: field, addr: 64, tainted: flag(0) },
                6 => PipelineEvent::CacheFill {
                    cycle,
                    level: if flag(1) { HitLevel::Mem } else { HitLevel::L2 },
                    line: field,
                    transient: flag(0),
                },
                _ => PipelineEvent::Flush { cycle, line: field },
            }
        })
    }

    /// Derives a second stream from `base` by `edits`: timing-only and
    /// taint-only changes, interleaving skew, prefix cuts, and real
    /// behavioural edits (delete, replace, insert).
    fn mutate(
        base: &[PipelineEvent],
        edits: &[(u8, u64)],
        fresh: PipelineEvent,
    ) -> Vec<PipelineEvent> {
        let mut out = base.to_vec();
        for &(edit, r) in edits {
            let at = if out.is_empty() { 0 } else { r as usize % out.len() };
            match edit {
                0 => {
                    for (i, e) in out.iter_mut().enumerate() {
                        *e = with_cycle(*e, r.wrapping_mul(i as u64 + 1) % 1000);
                    }
                }
                1 => {
                    if let Some(PipelineEvent::TransientLoad { tainted, .. }) = out.get_mut(at) {
                        *tainted = !*tainted;
                    }
                }
                2 if at + 1 < out.len() => out.swap(at, at + 1),
                3 => out.truncate(r as usize % (out.len() + 1)),
                4 if !out.is_empty() => {
                    out.remove(at);
                }
                5 if !out.is_empty() => out[at] = fresh,
                _ => out.insert(at, fresh),
            }
        }
        out
    }

    fn with_cycle(event: PipelineEvent, c: u64) -> PipelineEvent {
        match event {
            PipelineEvent::RunaheadEnter { stall_pc, .. } => {
                PipelineEvent::RunaheadEnter { cycle: c, stall_pc }
            }
            PipelineEvent::RunaheadExit { window, .. } => {
                PipelineEvent::RunaheadExit { cycle: c, window }
            }
            PipelineEvent::Squash { squashed, .. } => PipelineEvent::Squash { cycle: c, squashed },
            PipelineEvent::Commit { pc, .. } => PipelineEvent::Commit { cycle: c, pc },
            PipelineEvent::BranchResolved { pc, taken, mispredicted, .. } => {
                PipelineEvent::BranchResolved { cycle: c, pc, taken, mispredicted }
            }
            PipelineEvent::TransientLoad { pc, addr, tainted, .. } => {
                PipelineEvent::TransientLoad { cycle: c, pc, addr, tainted }
            }
            PipelineEvent::CacheFill { level, line, transient, .. } => {
                PipelineEvent::CacheFill { cycle: c, level, line, transient }
            }
            PipelineEvent::Flush { line, .. } => PipelineEvent::Flush { cycle: c, line },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The index-lane diff reports exactly what the tuple-lane
        /// reference reports, on unrelated streams and on streams one
        /// edit list apart.
        #[test]
        fn index_lanes_match_the_tuple_lane_reference(
            base in proptest::collection::vec(event(), 0..48),
            other in proptest::collection::vec(event(), 0..48),
            edits in proptest::collection::vec((0u8..7, any::<u64>()), 0..5),
            fresh in event(),
            shape in 0u8..3,
        ) {
            let derived = mutate(&base, &edits, fresh);
            let (a, b) = match shape {
                0 => (&base, &derived),
                1 => (&derived, &base),
                _ => (&base, &other),
            };
            prop_assert_eq!(first_divergence(a, b), reference::first_divergence(a, b));
        }
    }

    fn commit(cycle: u64, pc: u64) -> PipelineEvent {
        PipelineEvent::Commit { cycle, pc }
    }

    fn branch(cycle: u64, pc: u64) -> PipelineEvent {
        PipelineEvent::BranchResolved { cycle, pc, taken: true, mispredicted: false }
    }

    #[test]
    fn identical_traces_have_no_divergence() {
        let a = vec![commit(1, 0x1000), commit(2, 0x1008)];
        assert_eq!(first_divergence(&a, &a.clone()), None);
    }

    #[test]
    fn timing_differences_alone_are_not_divergence() {
        let a = vec![commit(1, 0x1000), commit(2, 0x1008)];
        let b = vec![commit(5, 0x1000), commit(9, 0x1008)];
        assert_eq!(first_divergence(&a, &b), None, "cycles are config timing, not behaviour");
    }

    #[test]
    fn taint_annotation_alone_is_not_divergence() {
        let a = vec![PipelineEvent::TransientLoad { cycle: 3, pc: 1, addr: 64, tainted: false }];
        let b = vec![PipelineEvent::TransientLoad { cycle: 9, pc: 1, addr: 64, tainted: true }];
        assert_eq!(first_divergence(&a, &b), None);
    }

    #[test]
    fn interleaving_skew_alone_is_not_divergence() {
        // A latency change shifts when the branch resolves relative to the
        // commit; the per-lane alignment must not call that behavioural.
        let a = vec![commit(1, 0x1000), branch(2, 0x1008), commit(3, 0x1010)];
        let b = vec![commit(1, 0x1000), commit(2, 0x1010), branch(3, 0x1008)];
        assert_eq!(first_divergence(&a, &b), None);
    }

    #[test]
    fn missing_fill_is_pinpointed_through_interleaving_skew() {
        let prefix = vec![
            commit(1, 0x1000),
            commit(2, 0x1008),
            PipelineEvent::RunaheadEnter { cycle: 10, stall_pc: 0x1010 },
            PipelineEvent::TransientLoad { cycle: 12, pc: 0x1020, addr: 0xb_0000, tainted: false },
        ];
        let fill =
            PipelineEvent::CacheFill { cycle: 13, level: HitLevel::Mem, line: 7, transient: true };
        let exit = PipelineEvent::RunaheadExit { cycle: 40, window: 12 };
        let mut a = prefix.clone();
        a.push(fill);
        a.push(exit);
        let mut b = prefix;
        b.push(exit); // the defended machine suppressed the fill
        let d = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(d.index, 4, "the fill's position in trace a");
        assert_eq!(d.commit_anchor, 2);
        assert_eq!(d.anchor_pc, Some(0x1008));
        assert_eq!(d.runahead_episode, 1);
        assert_eq!(d.transient_fills_before, 0);
        assert_eq!(d.a, Some(fill));
        assert_eq!(d.b, None, "trace b has no fill to match");
        let line = d.describe();
        assert!(line.contains("after commit #2 @ 0x1008"), "{line}");
        assert!(line.contains("runahead episode #1"), "{line}");
        assert!(line.contains("transient: true"), "{line}");
        assert!(line.contains("<no matching event>"), "{line}");
    }

    #[test]
    fn earliest_lane_divergence_wins() {
        // Both the commit lane and the flush lane diverge; the flush does
        // so first in stream position and must be the one reported.
        let a =
            vec![commit(1, 0x1000), PipelineEvent::Flush { cycle: 2, line: 7 }, commit(3, 0x1008)];
        let b =
            vec![commit(1, 0x1000), PipelineEvent::Flush { cycle: 2, line: 9 }, commit(3, 0x2000)];
        let d = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(d.index, 1);
        assert_eq!(d.a, Some(PipelineEvent::Flush { cycle: 2, line: 7 }));
        assert_eq!(d.b, Some(PipelineEvent::Flush { cycle: 2, line: 9 }));
    }

    #[test]
    fn prefix_traces_diverge_at_the_tail() {
        let a = vec![commit(1, 0x1000), commit(2, 0x1008)];
        let b = vec![commit(1, 0x1000)];
        let d = first_divergence(&a, &b).expect("length mismatch diverges");
        assert_eq!(d.index, 1);
        assert_eq!(d.a, Some(commit(2, 0x1008)));
        assert_eq!(d.b, None);
        assert!(d.describe().contains("<no matching event>"));
    }

    #[test]
    fn stream_stats_count_the_forensic_signals() {
        let events = vec![
            commit(1, 0x1000),
            PipelineEvent::RunaheadEnter { cycle: 2, stall_pc: 0x1008 },
            PipelineEvent::CacheFill { cycle: 3, level: HitLevel::Mem, line: 1, transient: true },
            PipelineEvent::CacheFill { cycle: 4, level: HitLevel::L2, line: 2, transient: false },
        ];
        let s = stream_stats(&events);
        assert_eq!(
            s,
            StreamStats { events: 4, commits: 1, runahead_enters: 1, transient_fills: 1 }
        );
    }
}
