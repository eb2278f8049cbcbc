//! The `CampaignSpec → Session` fork bridge: one warmed snapshot per
//! shard, one copy-on-write fork per secret.
//!
//! The campaign grammar ([`CampaignSpec`], [`ShardSpec`], the streaming
//! [`ShardStats`]) lives in `specrun-workloads` as pure data; this module
//! owns the session side, mirroring how [`crate::plan`] pairs with the
//! fuzz plan grammar. Per shard it builds **one** [`ShardSnapshot`]: the
//! machine configured (policy, then knobs), the campaign's warm-up
//! applied, the gadget's programs built and predecoded once into
//! `Arc<DecodedProgram>`s, every secret-independent attack step — text
//! warming, BTB predictor training, planting the attack data around a
//! placeholder secret, the gadget's pre-step, loading the victim — already
//! executed, and the victim already *simulated* up to one cycle before
//! its first load of the secret byte.
//!
//! That last step is what makes the snapshot worth sharing: the secret
//! can influence the machine only through a simulated read of its byte,
//! so every cycle before the first such read is identical for every
//! secret. [`ShardSnapshot::prepare`] finds that cycle with a discovery
//! run on a throwaway clone (a [`MemHierarchy`] read watch on the secret
//! byte), then stops the snapshot one cycle short of it with
//! [`Core::run_to`], which leaves fills and the pipeline in flight exactly
//! as cycle-by-cycle stepping would. A unit then forks the snapshot,
//! writes its secret (a host write: no timing, no cache state), and
//! resumes with what is left of the cycle budget. A victim that halts
//! without reading the secret is run to its halt; one that neither reads
//! nor halts is not run ahead at all. The gadget programs store only to
//! the probe results buffer and the stack, which a valid layout keeps off
//! the secret byte, so no simulated write is skipped over either.
//!
//! Forks are cheap: cloning a [`Session`] clones the machine, whose
//! backing store shares its pages `Arc`-per-page and unshares only what
//! the fork writes (see `specrun_mem::BackingStore`), and whose program
//! slots share the snapshot's predecode.
//!
//! [`run_unit_fresh`] is the control: the same unit on a snapshot built
//! from scratch *without* the simulated prefix, and consumed in place,
//! never cloned. Fork and fresh runs must agree **bit for bit** (leak
//! verdict, signature counters, architectural fingerprint, errors) — the
//! property the tests below pin and the `pool-repro` CI gate re-checks
//! end to end against pinned report digests.
//!
//! [`MemHierarchy`]: specrun_mem::MemHierarchy
//! [`Core::run_to`]: specrun_cpu::Core::run_to

use std::sync::Arc;

use specrun_cpu::{CancelToken, CpuConfig, RunExit};
use specrun_isa::DecodedProgram;
use specrun_workloads::clock::WallClock;
use specrun_workloads::harness::RunError;
use specrun_workloads::plan::GadgetKind;
use specrun_workloads::pool::{CampaignSpec, PoolReport, SessionPool, ShardSpec, ShardStats};
use specrun_workloads::supervisor::UnitCtx;

use crate::attack::covert::DEFAULT_THRESHOLD;
use crate::attack::gadget;
use crate::attack::poc::{build_pht_program, PocConfig};
use crate::attack::variants::{build_btb_trainer, build_btb_victim, build_rsb_victim};
use crate::attack::AttackLayout;
use crate::session::{Policy, Session};

/// BTB training runs performed while preparing a BTB shard's snapshot
/// (the §4.4 variant's fixed warm-up, not the PHT `training_rounds` axis).
const BTB_TRAINING_RUNS: u32 = 4;
/// Cycle budget for one BTB trainer run (its normal exit is Wedged).
const BTB_TRAINER_BUDGET: u64 = 100_000;

/// The machine configuration one shard describes: Table 1, then the
/// shard's policy, then the campaign's knobs — the same composition order
/// as [`crate::plan::config_for`], so defense-only knobs stay gated on
/// the policy having armed the defense.
pub fn shard_config(spec: &CampaignSpec, shard: &ShardSpec) -> CpuConfig {
    let mut cfg = CpuConfig::default();
    Policy::from(shard.policy).apply(&mut cfg);
    spec.knobs.apply(&mut cfg);
    cfg
}

/// The attack layout a campaign describes (shared by every shard).
pub fn campaign_layout(spec: &CampaignSpec) -> AttackLayout {
    let l = &spec.layout;
    AttackLayout {
        bound_addr: l.bound_addr,
        bound_value: l.bound_value,
        array1_base: l.array1_base,
        secret_addr: l.secret_addr,
        probe_base: l.probe_base,
        probe_stride: l.probe_stride,
        probe_entries: l.probe_entries,
        results_base: l.results_base,
    }
}

/// What a unit does after the fork, besides simulating: everything in a
/// snapshot but the machine. None of it depends on the secret.
#[derive(Debug, Clone)]
struct UnitSteps {
    /// The attacker's probe program, run after the victim (BTB/RSB); the
    /// PHT attack is one program that probes itself.
    probe: Option<Arc<DecodedProgram>>,
    secret_addr: u64,
    max_cycles: u64,
    /// Cycles of the victim's budget the snapshot has already simulated.
    used: u64,
    label: String,
}

/// One shard's warmed parent machine, stopped just before the victim's
/// first read of the secret, plus what a unit does after it.
///
/// Everything secret-independent has already happened here; a unit is
/// [`ShardSnapshot::run_forked`] — clone, write the secret, resume, read
/// back.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    session: Session,
    unit: UnitSteps,
}

impl ShardSnapshot {
    /// Builds and warms the shard's parent machine — configuration
    /// composed, campaign warm-up applied, programs built and predecoded,
    /// attacker/victim text warmed, (for BTB) the predictor trained, the
    /// unit prologue run on a placeholder secret — and simulates the
    /// victim up to one cycle before its first read of the secret byte.
    pub fn prepare(spec: &CampaignSpec, shard: &ShardSpec) -> ShardSnapshot {
        ShardSnapshot::build(spec, shard, true)
    }

    fn build(spec: &CampaignSpec, shard: &ShardSpec, run_ahead: bool) -> ShardSnapshot {
        let layout = campaign_layout(spec);
        let mut session =
            Session::builder().config(shard_config(spec, shard)).layout(layout).build();
        for w in &spec.warm {
            session.warm(w.addr, w.len);
        }
        let (victim, probe) = match shard.gadget {
            GadgetKind::Pht => {
                let cfg = PocConfig {
                    layout,
                    // The program encodes geometry and scale, never the
                    // secret — that is what makes one predecode per shard
                    // sound. The placeholder is unused.
                    secret: 0,
                    training_rounds: spec.training_rounds,
                    nop_slide: shard.nop_slide as usize,
                    attack_filler: spec.attack_filler as usize,
                    threshold: DEFAULT_THRESHOLD,
                    max_cycles: spec.max_cycles,
                };
                let program = build_pht_program(&cfg);
                session.warm_text(&program);
                session.plant(&layout, 0);
                (program, None)
            }
            GadgetKind::Btb => {
                let victim = build_btb_victim(&layout, shard.nop_slide as usize);
                let benign = victim.symbol("benign").expect("BTB victim has a benign label");
                let slot_addr = layout.bound_addr + 64;
                session.write_value(slot_addr, 8, benign);
                session.warm(slot_addr, 8);
                // Train the BTB once for the whole shard: the predictor
                // state is part of the snapshot every fork inherits.
                let trainer = Arc::new(DecodedProgram::new(build_btb_trainer(&victim)));
                for _ in 0..BTB_TRAINING_RUNS {
                    session.run_predecoded(trainer.clone(), BTB_TRAINER_BUDGET);
                }
                // The trainer's normal exit is Wedged (it jumps to an
                // address that exists only in the victim's image);
                // discharge it so unit health checks see units only.
                session.acknowledge_non_halt();
                session.warm_text(&victim);
                session.plant(&layout, 0);
                // Evict the victim's jump-table slot, so the victim enters
                // runahead and fetches down the trained BTB path.
                session.flush(slot_addr);
                (victim, Some(gadget::build_probe_program(&layout)))
            }
            GadgetKind::Rsb => {
                let victim = build_rsb_victim(&layout, shard.nop_slide as usize);
                session.warm_text(&victim);
                session.plant(&layout, 0);
                // D holds 0 so that architecturally F = benign.
                session.write_value(layout.bound_addr, 8, 0);
                session.warm(layout.bound_addr, 8);
                (victim, Some(gadget::build_probe_program(&layout)))
            }
        };
        session.reset_stats();
        session.load_predecoded(Arc::new(DecodedProgram::new(victim)));
        let used = if run_ahead {
            run_to_first_secret_read(&mut session, layout.secret_addr, spec.max_cycles)
        } else {
            0
        };
        ShardSnapshot {
            session,
            unit: UnitSteps {
                probe: probe.map(|p| Arc::new(DecodedProgram::new(p))),
                secret_addr: layout.secret_addr,
                max_cycles: spec.max_cycles,
                used,
                label: shard.label(),
            },
        }
    }

    /// The warmed parent session (read-only; forks clone it).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Runs one unit on a copy-on-write fork of the snapshot.
    pub fn run_forked(
        &self,
        secret: u8,
        token: Option<CancelToken>,
    ) -> Result<UnitResult, RunError> {
        self.unit.run(self.session.clone(), secret, token)
    }

    /// Runs one unit on the snapshot's own session, moved out of the
    /// snapshot rather than cloned — the never-forked path
    /// [`run_unit_fresh`] takes.
    pub fn run_consuming(
        self,
        secret: u8,
        token: Option<CancelToken>,
    ) -> Result<UnitResult, RunError> {
        self.unit.run(self.session, secret, token)
    }
}

/// Simulates the loaded victim up to one cycle before its first read of
/// the byte at `secret_addr` (or to its halt, if it halts without one)
/// and returns the cycles spent. A discovery run on a throwaway clone,
/// with a read watch on the byte, finds that cycle; a victim that neither
/// reads the secret nor halts within `budget` is not run at all.
fn run_to_first_secret_read(session: &mut Session, secret_addr: u64, budget: u64) -> u64 {
    let start = session.core().cycle();
    let mut discovery = session.clone();
    let core = discovery.core_mut();
    core.mem_mut().watch_reads(secret_addr, secret_addr + 1);
    core.run_to(start.saturating_add(budget));
    let stop = match core.mem().first_watched_read() {
        Some(read) => read - 1,
        None if core.is_halted() => core.cycle(),
        None => return 0,
    };
    session.core_mut().run_to(stop);
    session.core().cycle() - start
}

impl UnitSteps {
    /// One unit on `session` (a fork, or the consumed snapshot): write the
    /// secret, resume the victim with the rest of its budget, run the
    /// probe where the gadget has one, read the verdict back.
    fn run(
        &self,
        mut session: Session,
        secret: u8,
        token: Option<CancelToken>,
    ) -> Result<UnitResult, RunError> {
        session.machine_mut().set_cancel_token(token);
        session.write_bytes(self.secret_addr, &[secret]);
        session.run(self.max_cycles - self.used);
        let stats = session.stats();
        let (runahead_entries, inv_branches) =
            (stats.runahead_entries, stats.inv_unresolved_branches);
        if let Some(probe) = &self.probe {
            session.run_predecoded(probe.clone(), self.max_cycles);
        }
        let leaked = session.probe_timings().leaked_byte(DEFAULT_THRESHOLD, &[0]);
        let committed = session.stats().committed;
        let what = || format!("pool shard {} secret {secret}", self.label);
        match session.first_non_halt() {
            None => {}
            // Every program ran on the spec's budget; the victim's was
            // only split between the snapshot and the unit.
            Some((RunExit::CycleLimit, _)) => {
                return Err(RunError::CycleBudgetExceeded {
                    what: what(),
                    budget: self.max_cycles,
                    committed,
                });
            }
            Some((RunExit::Cancelled, _)) => {
                return Err(RunError::Cancelled { what: what(), committed });
            }
            Some((exit, _)) => {
                return Err(RunError::NoHalt {
                    what: what(),
                    detail: format!("a program exited with {exit:?}"),
                });
            }
        }
        Ok(UnitResult {
            leaked,
            expected: secret,
            runahead_entries,
            inv_branches,
            arch_fingerprint: session.machine().core().arch_fingerprint(),
        })
    }
}

/// Everything one unit (one forked session, one secret) produced. Fork
/// and fresh runs of the same unit must compare equal — `PartialEq` *is*
/// the fork-fidelity invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitResult {
    /// Byte the covert channel recovered, if any.
    pub leaked: Option<u8>,
    /// The planted secret.
    pub expected: u8,
    /// Runahead episodes the victim caused.
    pub runahead_entries: u64,
    /// Unresolved INV-source branches (the SPECRUN signature).
    pub inv_branches: u64,
    /// Architectural-state fingerprint after the unit's last program.
    pub arch_fingerprint: u64,
}

/// The shard runner [`SessionPool::run_with`] expects: prepares the
/// shard's snapshot once, forks a session per secret, folds every unit
/// into a streaming [`ShardStats`].
pub fn run_shard(
    spec: &CampaignSpec,
    shard: &ShardSpec,
    ctx: &UnitCtx,
) -> Result<ShardStats, RunError> {
    let snapshot = ShardSnapshot::prepare(spec, shard);
    let mut stats = ShardStats::default();
    for &secret in &spec.secrets {
        let unit = snapshot.run_forked(secret, Some(ctx.token.clone()))?;
        stats.record(
            unit.leaked,
            unit.expected,
            unit.runahead_entries,
            unit.inv_branches,
            unit.arch_fingerprint,
        );
    }
    Ok(stats)
}

/// Runs one unit on a fresh, never-forked snapshot that has not run the
/// victim ahead — the control the fork path is measured and verified
/// against.
pub fn run_unit_fresh(
    spec: &CampaignSpec,
    shard: &ShardSpec,
    secret: u8,
) -> Result<UnitResult, RunError> {
    ShardSnapshot::build(spec, shard, false).run_consuming(secret, None)
}

/// Runs a whole campaign with fork-based pooling under passive
/// supervision: `spec.shards` fanned out over `threads` workers, one
/// snapshot per shard, one fork per secret.
pub fn run_campaign(spec: &CampaignSpec, threads: usize) -> PoolReport {
    SessionPool::new(threads).run_with(spec, &WallClock::new(), run_shard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use specrun_workloads::plan::PlanPolicy;
    use specrun_workloads::pool::ShardStatus;

    /// A cut-down campaign that still exercises every per-unit path.
    fn small_spec(shards: Vec<ShardSpec>) -> CampaignSpec {
        CampaignSpec { secrets: vec![86, 201], shards, ..CampaignSpec::paper_matrix() }
    }

    fn shard(gadget: GadgetKind, policy: PlanPolicy, nop_slide: u32) -> ShardSpec {
        ShardSpec { gadget, policy, nop_slide }
    }

    #[test]
    fn fork_equals_fresh_bit_for_bit_across_gadgets() {
        // Every paper-matrix shard plus the no-slide BTB and RSB variants,
        // with secrets at both ends of the byte range: the snapshot's
        // simulated prefix must be invisible.
        let spec = CampaignSpec::paper_matrix();
        let extra = [
            shard(GadgetKind::Btb, PlanPolicy::Runahead, 0),
            shard(GadgetKind::Rsb, PlanPolicy::Runahead, 0),
        ];
        for cell in spec.shards.iter().chain(&extra) {
            let snapshot = ShardSnapshot::prepare(&spec, cell);
            for secret in [1, 86, 127, 200, 201, 255] {
                let forked = snapshot.run_forked(secret, None).expect("forked unit runs");
                let fresh = run_unit_fresh(&spec, cell, secret).expect("fresh unit runs");
                assert_eq!(forked, fresh, "{} secret {secret}: fork must be exact", cell.label());
            }
        }
    }

    #[test]
    fn forked_errors_equal_fresh_errors_at_every_budget() {
        // Budgets that run out before, around and after the first secret
        // read: the unit's share of the budget must end where one whole
        // run would, and the error must name the spec's budget.
        for budget in [40, 1000, 5000, 20_000, 50_000] {
            let spec = CampaignSpec { max_cycles: budget, ..CampaignSpec::paper_matrix() };
            for cell in &spec.shards {
                let forked = ShardSnapshot::prepare(&spec, cell).run_forked(86, None);
                let fresh = run_unit_fresh(&spec, cell, 86);
                assert_eq!(forked, fresh, "{} budget {budget}", cell.label());
                if let Err(RunError::CycleBudgetExceeded { budget: reported, .. }) = forked {
                    assert_eq!(reported, budget, "{}", cell.label());
                }
            }
        }
    }

    #[test]
    fn snapshot_stops_one_cycle_before_the_first_secret_read() {
        let spec = CampaignSpec::paper_matrix();
        for cell in &spec.shards {
            let snapshot = ShardSnapshot::prepare(&spec, cell);
            let secret_addr = snapshot.unit.secret_addr;
            let mut next = snapshot.session().clone();
            let core = next.core_mut();
            if core.is_halted() {
                // A victim that never reads the secret ran to its halt.
                assert!(snapshot.unit.used > 0, "{}", cell.label());
                continue;
            }
            core.mem_mut().watch_reads(secret_addr, secret_addr + 1);
            let at = core.cycle() + 1;
            core.run_to(at);
            assert_eq!(core.mem().first_watched_read(), Some(at), "{}", cell.label());
        }
    }

    #[test]
    fn forked_units_leak_on_runahead_and_not_under_defenses() {
        let spec = small_spec(vec![]);
        let leak = shard(GadgetKind::Pht, PlanPolicy::Runahead, 0);
        let snapshot = ShardSnapshot::prepare(&spec, &leak);
        for &secret in &spec.secrets {
            let unit = snapshot.run_forked(secret, None).unwrap();
            assert_eq!(unit.leaked, Some(secret), "runahead machine leaks each fork's secret");
            assert!(unit.runahead_entries > 0);
        }
        // Fig. 11 shape: with the slide past the ROB only the runahead
        // channel can reach the gadget, which is what the defense blocks.
        let secure =
            ShardSnapshot::prepare(&spec, &shard(GadgetKind::Pht, PlanPolicy::Secure, 300));
        let unit = secure.run_forked(86, None).unwrap();
        assert_eq!(unit.leaked, None, "SL cache blocks the channel");
    }

    #[test]
    fn sibling_forks_see_their_own_secrets_only() {
        let spec = small_spec(vec![]);
        let snapshot =
            ShardSnapshot::prepare(&spec, &shard(GadgetKind::Pht, PlanPolicy::Runahead, 0));
        let layout = *snapshot.session().layout();
        let mut a = snapshot.session().clone();
        let mut b = snapshot.session().clone();
        a.plant(&layout, 0x11);
        b.plant(&layout, 0x22);
        assert_eq!(a.read_bytes(layout.secret_addr, 1), vec![0x11]);
        assert_eq!(b.read_bytes(layout.secret_addr, 1), vec![0x22]);
        assert_eq!(
            snapshot.session().read_bytes(layout.secret_addr, 1),
            vec![0],
            "the parent snapshot never held a secret"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// COW fidelity, memory-only: whatever a fork writes, parent and
        /// sibling reads are unaffected, and untouched addresses read
        /// through to the shared (parent) value.
        #[test]
        fn forked_session_writes_never_bleed(
            offset in 0u64..0x4000,
            parent_byte in any::<u8>(),
            fork_a_byte in any::<u8>(),
            fork_b_byte in any::<u8>(),
        ) {
            let base = specrun_workloads::plan::WARM_SCRATCH_BASE;
            let addr = base + offset;
            let spec = small_spec(vec![]);
            let cell = shard(GadgetKind::Pht, PlanPolicy::Runahead, 0);
            let mut snapshot = ShardSnapshot::prepare(&spec, &cell);
            snapshot.session.write_bytes(addr, &[parent_byte]);
            let mut a = snapshot.session().clone();
            let mut b = snapshot.session().clone();
            a.write_bytes(addr, &[fork_a_byte]);
            b.write_bytes(addr + 0x4000, &[fork_b_byte]);
            prop_assert_eq!(a.read_bytes(addr, 1), vec![fork_a_byte]);
            prop_assert_eq!(b.read_bytes(addr, 1), vec![parent_byte],
                "sibling must not see fork A's write");
            prop_assert_eq!(b.read_bytes(addr + 0x4000, 1), vec![fork_b_byte]);
            prop_assert_eq!(snapshot.session().read_bytes(addr, 1), vec![parent_byte],
                "parent must not see fork A's write");
            prop_assert_eq!(snapshot.session().read_bytes(addr + 0x4000, 1), vec![0u8],
                "parent must not see fork B's write");
            prop_assert_eq!(a.read_bytes(addr + 0x4000, 1), vec![0u8],
                "fork A must not see fork B's write");
        }
    }

    #[test]
    fn run_campaign_aggregates_mixed_policies() {
        let spec = small_spec(vec![
            shard(GadgetKind::Pht, PlanPolicy::Runahead, 0),
            shard(GadgetKind::Pht, PlanPolicy::Secure, 300),
        ]);
        let report = run_campaign(&spec, 2);
        assert!(report.all_done(), "{:?}", report.shards);
        assert_eq!(report.total_units(), 4);
        assert_eq!(report.shards[0].stats.leaks, 2, "runahead shard leaks every secret");
        assert_eq!(report.shards[1].stats.leaks, 0, "secure shard leaks nothing");
        assert!(matches!(report.shards[0].status, ShardStatus::Done { attempts: 1 }));
    }

    #[test]
    fn campaign_report_is_thread_count_invariant() {
        let spec = small_spec(vec![
            shard(GadgetKind::Pht, PlanPolicy::Runahead, 0),
            shard(GadgetKind::Rsb, PlanPolicy::Runahead, 0),
        ]);
        let one = run_campaign(&spec, 1);
        let four = run_campaign(&spec, 4);
        assert_eq!(one, four, "shard fingerprints must not depend on scheduling");
    }

    #[test]
    fn starved_budget_surfaces_as_structured_error() {
        let mut spec = small_spec(vec![]);
        spec.max_cycles = 40;
        let cell = shard(GadgetKind::Pht, PlanPolicy::Runahead, 0);
        match run_unit_fresh(&spec, &cell, 86) {
            Err(RunError::CycleBudgetExceeded { what, budget, .. }) => {
                assert!(what.contains("pht_runahead"), "{what}");
                assert_eq!(budget, 40);
            }
            other => panic!("expected CycleBudgetExceeded, got {other:?}"),
        }
    }
}
