//! `pool_matrix`: the paper matrix as one copy-on-write fork campaign.
//!
//! Unit: one forked session. Untraced, the campaign runs through
//! `specrun::run_campaign`; traced, the same shard runner is recomposed
//! from `ShardSnapshot::prepare` and `run_forked` on the same
//! `SessionPool`, so each call gets its span. Both render the report with
//! `specrun_lab::report_json`, and the two digests must agree.

use specrun::ShardSnapshot;
use specrun_workloads::clock::WallClock;
use specrun_workloads::plan::{GadgetKind, PlanPolicy};
use specrun_workloads::pool::{
    CampaignSpec, PoolReport, SessionPool, ShardOutcome, ShardSpec, ShardStats, ShardStatus,
};
use specrun_workloads::rng::SplitMix64;

use crate::span::{open, timed, Tracer};
use crate::stats::fnv1a;
use crate::{Bench, Rep, THREADS};

/// The generated campaign.
pub struct PoolMatrix {
    spec: CampaignSpec,
}

/// The paper matrix with its secrets axis replaced by `secrets` distinct
/// nonzero bytes drawn from `seed`. The spec then takes the path
/// `specrun-lab pool run` reads it by: rendered, parsed back, compared.
pub fn setup(seed: u64, secrets: usize) -> PoolMatrix {
    let mut rng = SplitMix64::new(seed);
    let mut bytes: Vec<u8> = (1..=255).collect();
    rng.shuffle(&mut bytes);
    bytes.truncate(secrets);
    let spec =
        CampaignSpec { seed: rng.next_u64(), secrets: bytes, ..CampaignSpec::paper_matrix() };
    let parsed = specrun_lab::parse_spec(&spec.to_json(0)).expect("a generated spec parses");
    assert_eq!(parsed, spec, "the spec document round-trips");
    PoolMatrix { spec: parsed }
}

/// The leak rate the paper's verdicts demand of a shard: the vulnerable
/// runahead shards and the BTB gadget on the SL-cache machine (§6 does not
/// cover it) leak every secret; past the ROB, no-runahead and both PHT
/// defenses leak none.
pub fn expected_leak_rate(shard: &ShardSpec) -> f64 {
    let defended =
        matches!(shard.policy, PlanPolicy::NoRunahead | PlanPolicy::Secure | PlanPolicy::SkipInv);
    if shard.gadget == GadgetKind::Pht && defended {
        0.0
    } else {
        1.0
    }
}

/// Units that failed their output check: every unit of a shard that did
/// not finish, recovered a wrong byte, or missed its expected leak rate.
pub fn failed_units(
    spec: &CampaignSpec,
    report: &PoolReport,
    expected: impl Fn(&ShardSpec) -> f64,
) -> u64 {
    let per_shard = spec.secrets.len() as u64;
    let bad = |s: &ShardOutcome| {
        !matches!(s.status, ShardStatus::Done { .. })
            || s.stats.units != per_shard
            || s.stats.wrong != 0
            || s.stats.leak_rate() != expected(&s.spec)
    };
    let failed: u64 = report.shards.iter().filter(|s| bad(s)).count() as u64 * per_shard;
    if report.breaker_tripped || report.shards.len() != spec.shards.len() {
        spec.unit_count()
    } else {
        failed
    }
}

impl PoolMatrix {
    fn traced(&self, tracer: &Tracer) -> PoolReport {
        let campaign = open(Some(tracer), "workloads.pool_campaign", 0, None);
        let parent = campaign.id();
        let index_of = |shard: &ShardSpec| {
            self.spec.shards.iter().position(|s| s == shard).expect("the pool runs spec shards")
                as u64
        };
        SessionPool::new(THREADS).run_with(&self.spec, &WallClock::new(), |spec, shard, ctx| {
            let unit = index_of(shard);
            let span = open(Some(tracer), "workloads.shard", unit, parent);
            let snapshot = timed(Some(tracer), "core.prepare", unit, span.id(), || {
                ShardSnapshot::prepare(spec, shard)
            });
            let mut stats = ShardStats::default();
            for &secret in &spec.secrets {
                // The clone run_forked performs, timed on its own.
                let fork =
                    timed(Some(tracer), "mem.fork", unit, span.id(), || snapshot.session().clone());
                drop(fork);
                let result = timed(Some(tracer), "core.unit", unit, span.id(), || {
                    snapshot.run_forked(secret, Some(ctx.token.clone()))
                })?;
                stats.record(
                    result.leaked,
                    result.expected,
                    result.runahead_entries,
                    result.inv_branches,
                    result.arch_fingerprint,
                );
            }
            Ok(stats)
        })
    }
}

impl Bench for PoolMatrix {
    fn run(&self, tracer: Option<&Tracer>) -> Rep {
        let report = match tracer {
            None => specrun::run_campaign(&self.spec, THREADS),
            Some(t) => self.traced(t),
        };
        let rendered = specrun_lab::report_json(&self.spec, &report).render();
        Rep {
            units: self.spec.unit_count(),
            failed: failed_units(&self.spec, &report, expected_leak_rate),
            counters: vec![("units", report.total_units())],
            digest: fnv1a(rendered.as_bytes()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(spec: &CampaignSpec, leaks: impl Fn(&ShardSpec) -> u64) -> PoolReport {
        let n = spec.secrets.len() as u64;
        PoolReport {
            shards: spec
                .shards
                .iter()
                .map(|s| ShardOutcome {
                    spec: *s,
                    stats: ShardStats {
                        units: n,
                        leaks: leaks(s),
                        silent: n - leaks(s),
                        ..Default::default()
                    },
                    status: ShardStatus::Done { attempts: 1 },
                })
                .collect(),
            breaker_tripped: false,
        }
    }

    #[test]
    fn paper_verdicts_pass_and_a_wrong_verdict_fails() {
        let spec = setup(1, 4).spec;
        let n = spec.secrets.len() as u64;
        let good = report(&spec, |s| (expected_leak_rate(s) * n as f64) as u64);
        assert_eq!(failed_units(&spec, &good, expected_leak_rate), 0);
        // The secure PHT shard leaking once is a wrong verdict.
        let leaky = report(&spec, |s| {
            let base = (expected_leak_rate(s) * n as f64) as u64;
            if s.policy == PlanPolicy::Secure && s.gadget == GadgetKind::Pht {
                1
            } else {
                base
            }
        });
        assert_eq!(failed_units(&spec, &leaky, expected_leak_rate), n);
        // A checker expecting the wrong verdict flags the honest report.
        assert!(failed_units(&spec, &good, |_| 1.0) > 0);
    }

    #[test]
    fn secrets_are_distinct_nonzero_and_seeded() {
        let a = setup(5, 64).spec;
        assert_eq!(a.secrets, setup(5, 64).spec.secrets);
        assert_ne!(a.secrets, setup(6, 64).spec.secrets);
        let mut sorted = a.secrets.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64);
        assert!(!sorted.contains(&0));
    }
}
