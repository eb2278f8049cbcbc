//! Pinned `POOL_report.json` bytes. Pool runs are deterministic, so a
//! double run can never catch a change that alters every run alike — a
//! snapshot that runs the victim one cycle too far, say. These digests
//! (FNV-1a of the rendered report) were taken from the pool runner before
//! snapshots simulated the victim ahead; any change to what a unit
//! computes must show up here as a digest change.

use specrun_lab::{parse_spec, report_json};
use specrun_workloads::plan::{GadgetKind, PlanPolicy};
use specrun_workloads::pool::{CampaignSpec, ShardSpec};

fn report_digest(spec: &CampaignSpec, threads: usize) -> u64 {
    // The path `specrun-lab pool run` takes: spec text in, report out.
    let spec = parse_spec(&spec.to_json(0)).expect("the spec decodes");
    let report = specrun::run_campaign(&spec, threads);
    assert!(report.all_done(), "{:?}", report.shards);
    specrun_mem::fnv1a(report_json(&spec, &report).render().as_bytes())
}

#[test]
fn paper_matrix_report_keeps_its_bytes() {
    let spec = CampaignSpec::paper_matrix();
    assert_eq!(report_digest(&spec, 1), 0xf977_482a_f148_5856);
}

#[test]
fn every_secret_matrix_report_keeps_its_bytes() {
    let spec = CampaignSpec { secrets: (1..=255).collect(), ..CampaignSpec::paper_matrix() };
    assert_eq!(report_digest(&spec, 2), 0xf305_40af_eacb_9123);
}

#[test]
fn no_slide_matrix_report_keeps_its_bytes() {
    // Every gadget under every policy with no slide — the shards the
    // paper matrix leaves out (BTB and RSB there use the long slide only).
    let policies = [
        PlanPolicy::Runahead,
        PlanPolicy::NoRunahead,
        PlanPolicy::HeadMissTrigger,
        PlanPolicy::Precise,
        PlanPolicy::Vector,
        PlanPolicy::Secure,
        PlanPolicy::SkipInv,
    ];
    let shards = [GadgetKind::Pht, GadgetKind::Btb, GadgetKind::Rsb]
        .into_iter()
        .flat_map(|gadget| {
            policies.into_iter().map(move |policy| ShardSpec { gadget, policy, nop_slide: 0 })
        })
        .collect();
    let spec = CampaignSpec {
        secrets: vec![1, 86, 127, 200, 201, 255],
        shards,
        ..CampaignSpec::paper_matrix()
    };
    assert_eq!(report_digest(&spec, 2), 0xd5af_a877_41c1_e439);
}
