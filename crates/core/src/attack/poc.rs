//! The end-to-end SPECRUN proof of concept (paper Fig. 8 / Fig. 9) and
//! the one driver every attack runs through.
//!
//! An attack has the Spectre phases: train, flush, victim, probe. The
//! secret matters only from the victim's first read of it, so the driver
//! splits there. [`Attack::prologue`] runs every secret-independent step
//! once; [`Attack::unit`] writes one secret, resumes the victim and
//! probes. [`run_poc`] is the two back to back — the figures, the sweep,
//! the defense checks and the fuzz plans — and the campaign pool
//! ([`crate::pool`]) forks one prologue per shard, advanced with
//! [`Attack::run_to_first_secret_read`], into one unit per secret.

use std::sync::Arc;

use specrun_cpu::probe::PipelineObserver;
use specrun_cpu::RunExit;
use specrun_isa::{DecodedProgram, ProgramBuilder};
use specrun_workloads::harness::RunError;
use specrun_workloads::plan::GadgetKind;

use crate::attack::covert::{ProbeTimings, DEFAULT_THRESHOLD};
use crate::attack::gadget;
use crate::attack::layout::AttackLayout;
use crate::attack::variants::{build_btb_trainer, build_btb_victim, build_rsb_victim};
use crate::session::Session;

/// Configuration of a SPECRUN proof-of-concept run.
#[derive(Debug, Clone)]
pub struct PocConfig {
    /// Memory layout of the attack structures.
    pub layout: AttackLayout,
    /// The secret byte planted at [`AttackLayout::secret_addr`].
    pub secret: u8,
    /// Training iterations for the PHT (paper step ①).
    pub training_rounds: u32,
    /// Nops inserted between the bounds check and the secret access
    /// (0 reproduces Fig. 9; > ROB size reproduces Fig. 11).
    pub nop_slide: usize,
    /// Filler between the victim call and the probe — the paper's Fig. 8
    /// line 16, `<some_operations> // waiting for the victim's execution`.
    /// It both supplies the instructions that fill the ROB (triggering
    /// runahead) and keeps the runahead episode from running into the probe
    /// loop and prefetching probe entries.
    pub attack_filler: usize,
    /// Hit/miss threshold for the covert-channel analyzer.
    pub threshold: u64,
    /// Cycle budget for the whole attack program.
    pub max_cycles: u64,
}

impl Default for PocConfig {
    fn default() -> PocConfig {
        PocConfig {
            layout: AttackLayout::default(),
            secret: 86, // the byte the paper leaks in Fig. 9
            training_rounds: 24,
            nop_slide: 0,
            attack_filler: 1200,
            threshold: DEFAULT_THRESHOLD,
            max_cycles: 3_000_000,
        }
    }
}

impl PocConfig {
    /// The Fig. 11 configuration: secret 127 behind a nop slide longer than
    /// the ROB.
    pub fn fig11(nop_slide: usize) -> PocConfig {
        PocConfig { secret: 127, nop_slide, ..PocConfig::default() }
    }
}

/// Outcome of one proof-of-concept run. A unit on a run-ahead session and
/// the same unit on a fresh one must compare equal — `PartialEq` is the
/// fork-fidelity invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PocOutcome {
    /// The probe-timing series (Fig. 9 / Fig. 11 material).
    pub timings: ProbeTimings,
    /// Byte recovered through the covert channel, if any.
    pub leaked: Option<u8>,
    /// The secret that was planted.
    pub expected: u8,
    /// Runahead episodes the attack caused.
    pub runahead_entries: u64,
    /// INV-source branches that never resolved (the SPECRUN signature).
    pub inv_branches: u64,
    /// Architectural-state fingerprint after the attack's last program.
    pub arch_fingerprint: u64,
}

impl PocOutcome {
    /// Whether the covert channel recovered the planted secret.
    pub fn success(&self) -> bool {
        self.leaked == Some(self.expected)
    }
}

/// Builds the single-binary Fig. 8 attack program: train → flush probe →
/// flush `D` → victim call with malicious `x` → probe. It encodes geometry
/// and scale, never the secret.
pub fn build_pht_program(cfg: &PocConfig) -> specrun_isa::Program {
    let mut b = ProgramBuilder::new(0x1000);
    gadget::define_symbols(&mut b, &cfg.layout);
    gadget::emit_training_loop(&mut b, cfg.training_rounds);
    gadget::emit_probe_flush(&mut b, &cfg.layout);
    gadget::emit_attack_call(&mut b, &cfg.layout);
    b.nops(cfg.attack_filler); // Fig. 8 line 16: wait for the victim
    gadget::emit_probe_loop(&mut b, &cfg.layout);
    b.halt();
    gadget::emit_victim_function(&mut b, &cfg.layout, cfg.nop_slide);
    b.build().expect("PoC program is closed")
}

/// BTB training runs in an attack prologue (the §4.4 variant's fixed
/// warm-up, not the PHT `training_rounds` axis).
const BTB_TRAINING_RUNS: u32 = 4;
/// Cycle budget for one BTB trainer run (its normal exit is Wedged).
const BTB_TRAINER_BUDGET: u64 = 100_000;

/// One attack, set up on a session by [`Attack::prologue`]: what a unit
/// needs besides the session. None of it depends on the secret.
#[derive(Debug, Clone)]
pub struct Attack {
    /// The attacker's probe program, run after the victim (BTB/RSB); the
    /// PHT attack is one program that probes itself.
    probe: Option<Arc<DecodedProgram>>,
    secret_addr: u64,
    threshold: u64,
    max_cycles: u64,
    /// Cycles of the victim's budget already simulated on the session.
    used: u64,
}

impl Attack {
    /// Runs every secret-independent step of a `gadget` attack on
    /// `session` and leaves its victim loaded, not yet run: programs built
    /// and predecoded once, the BTB trained (4 congruent trainer runs) and
    /// text warmed, the data planted around a placeholder secret 0, the
    /// gadget's pre-step (BTB: the jump-table slot written, warmed and
    /// flushed; RSB: `D = 0`, warmed), stats reset. The programs encode
    /// geometry and scale, never the secret, so `cfg.secret` is unused.
    pub fn prologue<O: PipelineObserver>(
        session: &mut Session<O>,
        gadget: GadgetKind,
        cfg: &PocConfig,
    ) -> Attack {
        let layout = cfg.layout;
        let victim = match gadget {
            GadgetKind::Pht => build_pht_program(cfg),
            GadgetKind::Btb => build_btb_victim(&layout, cfg.nop_slide),
            GadgetKind::Rsb => build_rsb_victim(&layout, cfg.nop_slide),
        };
        // D+64: the BTB victim's jump-table slot, holding the benign target.
        let slot_addr = layout.bound_addr + 64;
        if gadget == GadgetKind::Btb {
            let benign = victim.symbol("benign").expect("BTB victim has a benign label");
            session.write_value(slot_addr, 8, benign);
            session.warm(slot_addr, 8);
            // ① Train the BTB from the attacker's own (congruent) address
            // space.
            let trainer = Arc::new(DecodedProgram::new(build_btb_trainer(&victim)));
            for _ in 0..BTB_TRAINING_RUNS {
                session.run_predecoded(trainer.clone(), BTB_TRAINER_BUDGET);
            }
            // The trainer's normal exit is Wedged: it architecturally jumps
            // to the gadget address, which exists only in the victim's
            // image. Discharge it so the health check sees victim and probe
            // only.
            session.acknowledge_non_halt();
        }
        // Attacker and victim code are steady-state warm (the training loop
        // has executed the whole flow repeatedly in a real attack).
        session.warm_text(&victim);
        session.plant(&layout, 0);
        match gadget {
            GadgetKind::Pht => {}
            // ② Evict the victim's jump-table slot, so the victim enters
            // runahead and fetches down the trained BTB path.
            GadgetKind::Btb => session.flush(slot_addr),
            // D holds 0 so that architecturally F = benign.
            GadgetKind::Rsb => {
                session.write_value(layout.bound_addr, 8, 0);
                session.warm(layout.bound_addr, 8);
            }
        }
        session.reset_stats();
        session.load_predecoded(Arc::new(DecodedProgram::new(victim)));
        let probe = (gadget != GadgetKind::Pht)
            .then(|| Arc::new(DecodedProgram::new(gadget::build_probe_program(&layout))));
        Attack {
            probe,
            secret_addr: layout.secret_addr,
            threshold: cfg.threshold,
            max_cycles: cfg.max_cycles,
            used: 0,
        }
    }

    /// Simulates the loaded victim up to one cycle before its first read of
    /// the secret byte (or to its halt, if it halts without one), charging
    /// the cycles to the victim's budget. Until that read the secret cannot
    /// influence the machine, so a [`Attack::unit`] on the advanced session
    /// — or on any clone of it — runs exactly as on the unadvanced one.
    ///
    /// A discovery run on a throwaway clone, with a read watch on the
    /// byte, finds the cycle; [`Core::run_to`] then stops one cycle short
    /// of it, with fills and the pipeline in flight exactly as
    /// cycle-by-cycle stepping would leave them. A victim that neither
    /// reads the secret nor halts within its budget is not run at all. The
    /// gadget programs store only to the probe results buffer and the
    /// stack, which a valid layout keeps off the secret byte, so no
    /// simulated write is skipped over either.
    ///
    /// [`Core::run_to`]: specrun_cpu::Core::run_to
    pub fn run_to_first_secret_read<O: PipelineObserver + Clone>(
        &mut self,
        session: &mut Session<O>,
    ) {
        let start = session.core().cycle();
        let mut discovery = session.clone();
        let core = discovery.core_mut();
        core.mem_mut().watch_reads(self.secret_addr, self.secret_addr + 1);
        core.run_to(start.saturating_add(self.max_cycles - self.used));
        let stop = match core.mem().first_watched_read() {
            Some(read) => read - 1,
            None if core.is_halted() => core.cycle(),
            None => return,
        };
        session.core_mut().run_to(stop);
        self.used += session.core().cycle() - start;
    }

    /// Runs the secret-dependent rest of the attack on `session` (the
    /// prologue's, or a fork of it): writes `secret` (a host write: no
    /// timing, no cache state), resumes the victim with what is left of
    /// its budget, reads the signature counters, runs the probe program
    /// where the gadget has one, and reads the verdict back.
    pub fn unit<O: PipelineObserver>(&self, session: &mut Session<O>, secret: u8) -> PocOutcome {
        session.write_bytes(self.secret_addr, &[secret]);
        session.run(self.max_cycles - self.used);
        let stats = session.stats();
        let (runahead_entries, inv_branches) =
            (stats.runahead_entries, stats.inv_unresolved_branches);
        if let Some(probe) = &self.probe {
            // ④ The attacker probes from her own process.
            session.run_predecoded(probe.clone(), self.max_cycles);
        }
        let timings = session.probe_timings();
        // Training touches array1[0] = 0, so probe entry 0 is excluded.
        let leaked = timings.leaked_byte(self.threshold, &[0]);
        PocOutcome {
            timings,
            leaked,
            expected: secret,
            runahead_entries,
            inv_branches,
            arch_fingerprint: session.core().arch_fingerprint(),
        }
    }

    /// The cycle budget the victim and the probe run on.
    pub fn max_cycles(&self) -> u64 {
        self.max_cycles
    }
}

/// Runs a `gadget` proof of concept on `session`: [`Attack::prologue`],
/// then one [`Attack::unit`] with `cfg.secret`.
///
/// The session's machine decides the outcome: a runahead machine leaks,
/// the no-runahead machine (given a `nop_slide` > ROB) and the §6 defenses
/// do not.
pub fn run_poc<O: PipelineObserver>(
    session: &mut Session<O>,
    gadget: GadgetKind,
    cfg: &PocConfig,
) -> PocOutcome {
    Attack::prologue(session, gadget, cfg).unit(session, cfg.secret)
}

/// The session's end-of-attack health check: `Ok` when every run halted,
/// else its first non-halting exit as a [`RunError`] naming `what`. The
/// victim and probe run on `max_cycles` — the victim's only split between
/// a run-ahead session and its units — so that is the budget an overrun
/// reports.
pub fn check_halted<O: PipelineObserver>(
    session: &Session<O>,
    max_cycles: u64,
    what: impl Fn() -> String,
) -> Result<(), RunError> {
    let committed = session.stats().committed;
    match session.first_non_halt() {
        None => Ok(()),
        Some(RunExit::CycleLimit) => {
            Err(RunError::CycleBudgetExceeded { what: what(), budget: max_cycles, committed })
        }
        Some(RunExit::Cancelled) => Err(RunError::Cancelled { what: what(), committed }),
        Some(exit) => Err(RunError::NoHalt {
            what: what(),
            detail: format!("a program exited with {exit:?}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_builds_and_contains_victim() {
        let cfg = PocConfig::default();
        let p = build_pht_program(&cfg);
        assert!(p.symbol("victim_function").is_some());
        assert!(p.len() > 30, "static length {}", p.len());
    }

    #[test]
    fn planting_places_secret_and_bound() {
        let cfg = PocConfig { secret: 0xab, ..PocConfig::default() };
        let mut s = crate::session::Session::builder().policy(crate::Policy::NoRunahead).build();
        s.plant(&cfg.layout, cfg.secret);
        assert_eq!(s.read_value(cfg.layout.bound_addr, 8), cfg.layout.bound_value);
        assert_eq!(s.read_bytes(cfg.layout.secret_addr, 1), vec![0xab]);
        assert_ne!(s.residency(cfg.layout.secret_addr), specrun_mem::HitLevel::Mem);
        assert_eq!(s.residency(cfg.layout.probe_addr(7)), specrun_mem::HitLevel::Mem);
    }
}
