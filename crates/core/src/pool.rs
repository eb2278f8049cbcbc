//! The `CampaignSpec → Session` fork bridge: one warmed snapshot per
//! shard, one copy-on-write fork per secret.
//!
//! The campaign grammar ([`CampaignSpec`], [`ShardSpec`], the streaming
//! [`ShardStats`]) lives in `specrun-workloads` as pure data; this module
//! owns the session side, mirroring how [`crate::plan`] pairs with the
//! fuzz plan grammar. Per shard it builds **one** [`ShardSnapshot`]: the
//! machine composed like a plan's ([`crate::plan::machine_config`]), the
//! campaign's warm-up applied, the attack's [`Attack::prologue`] run, and
//! the victim advanced with [`Attack::run_to_first_secret_read`]. A unit
//! forks the snapshot and runs [`Attack::unit`] with its secret — the
//! same prologue and unit [`run_poc`](crate::attack::run_poc) runs for
//! the figures and the fuzz plans, split at the secret's first read.
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
//! property the tests below pin and the pinned report digests in
//! `specrun-lab`'s `pool_digests` tests re-check end to end.

use specrun_cpu::CancelToken;
use specrun_workloads::clock::WallClock;
use specrun_workloads::harness::RunError;
use specrun_workloads::pool::{CampaignSpec, PoolReport, SessionPool, ShardSpec, ShardStats};
use specrun_workloads::supervisor::UnitCtx;

use crate::attack::covert::DEFAULT_THRESHOLD;
use crate::attack::{check_halted, Attack, AttackLayout, PocConfig, PocOutcome};
use crate::plan::machine_config;
use crate::session::Session;

/// One shard's warmed parent machine, stopped just before the victim's
/// first read of the secret, plus the attack a unit finishes on a fork.
///
/// Everything secret-independent has already happened here; a unit is
/// [`ShardSnapshot::run_forked`] — clone, write the secret, resume, probe.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    session: Session,
    attack: Attack,
    label: String,
}

impl ShardSnapshot {
    /// Builds and warms the shard's parent machine — configuration
    /// composed, campaign warm-up applied, the attack prologue run on a
    /// placeholder secret — and simulates the victim up to one cycle
    /// before its first read of the secret byte.
    pub fn prepare(spec: &CampaignSpec, shard: &ShardSpec) -> ShardSnapshot {
        ShardSnapshot::build(spec, shard, true)
    }

    fn build(spec: &CampaignSpec, shard: &ShardSpec, run_ahead: bool) -> ShardSnapshot {
        let cfg = PocConfig {
            layout: AttackLayout::from(&spec.layout),
            secret: 0,
            training_rounds: spec.training_rounds,
            nop_slide: shard.nop_slide as usize,
            attack_filler: spec.attack_filler as usize,
            threshold: DEFAULT_THRESHOLD,
            max_cycles: spec.max_cycles,
        };
        let mut session = Session::builder()
            .config(machine_config(shard.policy, &spec.knobs))
            .layout(cfg.layout)
            .build();
        for w in &spec.warm {
            session.warm(w.addr, w.len);
        }
        let mut attack = Attack::prologue(&mut session, shard.gadget, &cfg);
        if run_ahead {
            attack.run_to_first_secret_read(&mut session);
        }
        ShardSnapshot { session, attack, label: shard.label() }
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
    ) -> Result<PocOutcome, RunError> {
        run_unit(&self.attack, &self.label, self.session.clone(), secret, token)
    }
}

/// One unit on `session` (a fork, or a consumed snapshot): the attack's
/// [`Attack::unit`] under the supervisor's token, then its health check.
fn run_unit(
    attack: &Attack,
    label: &str,
    mut session: Session,
    secret: u8,
    token: Option<CancelToken>,
) -> Result<PocOutcome, RunError> {
    session.machine_mut().set_cancel_token(token);
    let outcome = attack.unit(&mut session, secret);
    check_halted(&session, attack.max_cycles(), || format!("pool shard {label} secret {secret}"))?;
    Ok(outcome)
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
) -> Result<PocOutcome, RunError> {
    let ShardSnapshot { session, attack, label } = ShardSnapshot::build(spec, shard, false);
    run_unit(&attack, &label, session, secret, None)
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
    use specrun_workloads::plan::{GadgetKind, PlanPolicy};
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
            let secret_addr = snapshot.session().layout().secret_addr;
            let mut next = snapshot.session().clone();
            let core = next.core_mut();
            if core.is_halted() {
                // A victim that never reads the secret ran to its halt.
                let unadvanced = ShardSnapshot::build(&spec, cell, false);
                assert!(core.cycle() > unadvanced.session().core().cycle(), "{}", cell.label());
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
