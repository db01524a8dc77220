//! Sharded campaigns must be a pure function of the campaign parameters:
//! the worker count changes wall-clock only, never a verdict, a coverage
//! number, or a counter.

use sctc_campaign::{run_campaign, CampaignSpec, FlowKind};
use sctc_temporal::Verdict;
use testkit::Checker;

#[test]
fn derived_campaign_jobs1_vs_jobs8_bitidentical() {
    let spec = CampaignSpec::derived(120, 20080310).with_chunk(10);
    let serial = run_campaign(&spec.clone().with_jobs(1));
    let parallel = run_campaign(&spec.with_jobs(8));
    assert_eq!(serial.jobs, 1);
    assert_eq!(parallel.jobs, 8);
    assert_eq!(serial.fingerprint(), parallel.fingerprint());
    assert_eq!(serial.test_cases, 120);
    assert!(serial.overall_coverage > 0.0);
}

#[test]
fn microprocessor_campaign_is_deterministic_across_jobs() {
    let mut spec = CampaignSpec::micro(6, 7).with_chunk(2).with_jobs(1);
    spec.ops = vec![eee::Op::Read];
    let serial = run_campaign(&spec);
    let parallel = run_campaign(&spec.clone().with_jobs(3));
    assert_eq!(spec.flow, FlowKind::Microprocessor);
    assert_eq!(serial.fingerprint(), parallel.fingerprint());
    assert_eq!(serial.shards.len(), 3);
    assert!(serial.anomalies.is_empty(), "{:?}", serial.anomalies);
}

#[test]
fn violating_shards_dominate_the_merged_verdict() {
    // TB-1: no operation can respond within one statement step, so every
    // shard's monitor reports False and the campaign verdict must be False.
    let spec = CampaignSpec::derived(40, 99)
        .with_op(eee::Op::Read)
        .with_bound(Some(1))
        .with_chunk(10)
        .with_jobs(4);
    let report = run_campaign(&spec);
    let read = &report.properties[0];
    assert_eq!(read.verdict, Verdict::False);
    assert!(!read.violating_shards.is_empty());
    assert!(!report.violations.is_empty());
    // Decided in at least the violating shards.
    assert!(read.decided_shards >= read.violating_shards.len() as u64);
}

#[test]
fn healthy_campaign_reports_no_violations() {
    let report = run_campaign(&CampaignSpec::derived(80, 3).with_chunk(16).with_jobs(4));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.anomalies.is_empty(), "{:?}", report.anomalies);
    // Response properties under G are never finitely validated, so they
    // stay pending when no shard violates.
    for p in &report.properties {
        assert_eq!(p.verdict, Verdict::Pending, "{}", p.name);
    }
    assert_eq!(report.test_cases, 80);
    assert!(report.synthesis_wall <= report.shard_wall_sum);
}

#[test]
fn prop_campaign_merge_is_independent_of_worker_count() {
    Checker::new("campaign_jobs_independence").cases(6).run(
        |src| {
            (
                src.u64_in(10, 48),
                src.u64_in(3, 16),
                src.u64_in(0, u64::MAX),
                src.u64_in(2, 8),
            )
        },
        |&(cases, chunk, seed, jobs)| {
            let spec = CampaignSpec::derived(cases, seed).with_chunk(chunk);
            let serial = run_campaign(&spec.clone().with_jobs(1));
            let parallel = run_campaign(&spec.with_jobs(jobs as usize));
            assert_eq!(serial.fingerprint(), parallel.fingerprint());
        },
    );
}

#[test]
fn change_driven_sampling_skips_clean_atoms_at_any_worker_count() {
    // The change-driven pipeline finds the same result per shard at any
    // worker count, and re-reads strictly fewer atoms than a per-sample
    // evaluation of every binding would.
    let spec = CampaignSpec::derived(60, 20080310).with_chunk(10);
    let pool = run_campaign(&spec.clone().with_jobs(4));
    let solo = run_campaign(&spec.clone().with_jobs(1));
    assert_eq!(pool.fingerprint(), solo.fingerprint());
    assert!(pool.monitoring.atoms_evaluated < pool.monitoring.atoms_total);
}

#[test]
fn violating_campaign_is_jobs_independent() {
    // TB-1 forces violations: False verdicts and their shard attribution
    // must not depend on the worker count.
    let spec = CampaignSpec::derived(30, 99)
        .with_op(eee::Op::Read)
        .with_bound(Some(1))
        .with_chunk(10);
    let pool = run_campaign(&spec.clone().with_jobs(2));
    let solo = run_campaign(&spec.with_jobs(1));
    assert_eq!(pool.fingerprint(), solo.fingerprint());
    assert_eq!(
        pool.verdict_of(&eee::Op::Read.to_string()),
        Some(Verdict::False)
    );
}
