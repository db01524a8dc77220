//! Reducing per-shard outcomes into one campaign report.

use std::fmt::Write as _;
use std::time::Duration;

use eee::{ExperimentOutcome, Op};
use sctc_core::{MonitorCounters, SpanStats};
use sctc_sim::KernelStats;
use sctc_temporal::{CacheStats, SynthesisStats, Verdict};
use stimuli::ReturnCoverage;

use crate::shard::ShardSpec;

/// FNV-1a over a byte string: the 64-bit fingerprint function shared by
/// the fault-matrix, SMC and server layers. Deterministic across platforms
/// and runs; used wherever two reports must be compared by value.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One shard's contribution to a campaign.
#[derive(Clone, Debug)]
pub struct ShardOutcome {
    /// The shard that was run.
    pub spec: ShardSpec,
    /// The flow outcome of that shard.
    pub outcome: ExperimentOutcome,
    /// Wall-clock time of the whole shard (flow construction, property
    /// registration and run).
    pub wall: Duration,
}

/// Throughput of one shard, kept in the merged report.
#[derive(Copy, Clone, Debug)]
pub struct ShardStats {
    /// Shard position in the plan.
    pub index: u64,
    /// Planned case budget.
    pub cases: u64,
    /// Test cases actually completed.
    pub test_cases: u64,
    /// Shard wall-clock.
    pub wall: Duration,
    /// Completed cases per second of shard wall-clock.
    pub cases_per_sec: f64,
}

/// One property's verdict merged over every shard: 3-valued conjunction,
/// so a single violating shard makes the campaign verdict `False`, and the
/// campaign is `True` only when every shard proved it.
#[derive(Clone, Debug)]
pub struct MergedProperty {
    /// Property name.
    pub name: String,
    /// Kleene conjunction of the per-shard verdicts.
    pub verdict: Verdict,
    /// Shards whose monitor reported `False` (plan order).
    pub violating_shards: Vec<u64>,
    /// Number of shards with a decided verdict.
    pub decided_shards: u64,
    /// AR-automaton statistics (identical in every shard — the automaton
    /// is shared through the synthesis cache).
    pub synthesis: Option<SynthesisStats>,
}

/// The merged result of a sharded verification campaign.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Worker threads used.
    pub jobs: usize,
    /// Planned case budget of the campaign.
    pub total_cases: u64,
    /// Test cases actually completed (summed over shards).
    pub test_cases: u64,
    /// Campaign wall-clock (the parallel fan-out, as observed by the
    /// caller).
    pub wall: Duration,
    /// Sum of the individual shard walls (≈ CPU time; `shard_wall_sum /
    /// wall` approximates the parallel efficiency × jobs).
    pub shard_wall_sum: Duration,
    /// Summed property-registration wall (near zero after the first shard
    /// warms the synthesis cache).
    pub synthesis_wall: Duration,
    /// Checker samples (summed).
    pub samples: u64,
    /// Simulated ticks (summed).
    pub sim_ticks: u64,
    /// Scheduler statistics (summed over the independent shard kernels).
    pub kernel: KernelStats,
    /// Per-property merged verdicts.
    pub properties: Vec<MergedProperty>,
    /// Merged return-code coverage.
    pub coverage: ReturnCoverage,
    /// Per-operation coverage percentages from the merged collector.
    pub coverage_percent: Vec<(Op, f64)>,
    /// Mean coverage over all operations, in percent.
    pub overall_coverage: f64,
    /// `shard N: property` for every per-shard violation (plan order).
    pub violations: Vec<String>,
    /// `shard N: message` for every trap/CPU fault (plan order).
    pub anomalies: Vec<String>,
    /// Synthesis-cache activity during the campaign (delta on the global
    /// cache).
    pub cache: CacheStats,
    /// Per-shard throughput.
    pub shards: Vec<ShardStats>,
    /// Change-driven monitoring counters (summed over shards). Excluded
    /// from [`CampaignReport::fingerprint`]: they measure avoided work,
    /// an implementation detail of the pipeline, not a finding.
    pub monitoring: MonitorCounters,
    /// Span-profiler timings merged over the shards (empty unless the
    /// campaign ran with profiling enabled), plus the reducer's own
    /// `shard-merge` span. Excluded from [`CampaignReport::fingerprint`]
    /// like every other wall-clock figure.
    pub spans: SpanStats,
}

/// Everything in a [`CampaignReport`] that must not depend on the worker
/// count: verdicts, counters and coverage, but no walls, throughput or
/// monitoring-work counters. Two campaigns with equal fingerprints found
/// exactly the same things.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CampaignFingerprint {
    /// Completed test cases.
    pub test_cases: u64,
    /// Checker samples (summed over shards).
    pub samples: u64,
    /// Simulated ticks (summed over shards).
    pub sim_ticks: u64,
    /// Kernel process resumes (summed over shards).
    pub resumes: u64,
    /// `(name, verdict, violating shards, decided shards)` per property.
    pub properties: Vec<(String, Verdict, Vec<u64>, u64)>,
    /// Exact bit patterns of the per-op coverage percentages.
    pub coverage_bits: Vec<u64>,
    /// Exact bit pattern of the overall coverage percentage.
    pub overall_bits: u64,
    /// Per-shard violation lines.
    pub violations: Vec<String>,
    /// Per-shard anomaly lines.
    pub anomalies: Vec<String>,
    /// `(index, completed cases)` per shard, plan order.
    pub shard_cases: Vec<(u64, u64)>,
}

fn cases_per_sec(cases: u64, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs <= 0.0 {
        0.0
    } else {
        cases as f64 / secs
    }
}

impl CampaignReport {
    /// Reduces per-shard outcomes (in plan order) into one report.
    pub fn merge(
        jobs: usize,
        total_cases: u64,
        shards: Vec<ShardOutcome>,
        wall: Duration,
        cache: CacheStats,
    ) -> Self {
        let merge_t0 = std::time::Instant::now();
        let mut report = CampaignReport {
            jobs,
            total_cases,
            test_cases: 0,
            wall,
            shard_wall_sum: Duration::ZERO,
            synthesis_wall: Duration::ZERO,
            samples: 0,
            sim_ticks: 0,
            kernel: KernelStats::default(),
            properties: Vec::new(),
            coverage: ReturnCoverage::new(),
            coverage_percent: Vec::new(),
            overall_coverage: 0.0,
            violations: Vec::new(),
            anomalies: Vec::new(),
            cache,
            shards: Vec::with_capacity(shards.len()),
            monitoring: MonitorCounters::default(),
            spans: SpanStats::new(),
        };
        for shard in &shards {
            let run = &shard.outcome.report;
            report.test_cases += run.test_cases;
            report.shard_wall_sum += shard.wall;
            report.synthesis_wall += run.synthesis_wall;
            report.samples += run.samples;
            report.sim_ticks += run.sim_ticks;
            report.kernel.merge(&run.kernel);
            report.monitoring.merge(&run.monitoring);
            report.spans.merge(&run.spans);
            report.coverage.merge(&shard.outcome.coverage_table);
            report.shards.push(ShardStats {
                index: shard.spec.index,
                cases: shard.spec.cases,
                test_cases: run.test_cases,
                wall: shard.wall,
                cases_per_sec: cases_per_sec(run.test_cases, shard.wall),
            });
            for violated in &shard.outcome.violations {
                report
                    .violations
                    .push(format!("shard {}: {violated}", shard.spec.index));
            }
            for anomaly in &shard.outcome.anomalies {
                report
                    .anomalies
                    .push(format!("shard {}: {anomaly}", shard.spec.index));
            }
            for property in &run.properties {
                let merged = match report
                    .properties
                    .iter_mut()
                    .find(|m| m.name == property.name)
                {
                    Some(existing) => existing,
                    None => {
                        report.properties.push(MergedProperty {
                            name: property.name.clone(),
                            verdict: Verdict::True,
                            violating_shards: Vec::new(),
                            decided_shards: 0,
                            synthesis: property.synthesis,
                        });
                        report.properties.last_mut().expect("just pushed")
                    }
                };
                merged.verdict = merged.verdict.and(property.verdict);
                if property.verdict.is_decided() {
                    merged.decided_shards += 1;
                }
                if property.verdict == Verdict::False {
                    merged.violating_shards.push(shard.spec.index);
                }
            }
        }
        report.coverage_percent = Op::ALL
            .into_iter()
            .map(|op| {
                // A key can be missing when no shard declared it (e.g. an
                // empty shard list): report it as uncovered, don't panic.
                let pct = report.coverage.percent_of(&op.to_string()).unwrap_or(0.0);
                (op, pct)
            })
            .collect();
        report.overall_coverage = report.coverage.overall_percent();
        if !report.spans.is_empty() {
            // Only meaningful when the shards profiled; otherwise keep the
            // stats empty so disabled observability stays invisible.
            report.spans.record("shard-merge", merge_t0.elapsed());
        }
        report
    }

    /// Campaign throughput: completed cases per second of campaign wall.
    pub fn cases_per_sec(&self) -> f64 {
        cases_per_sec(self.test_cases, self.wall)
    }

    /// Extracts the worker-count-independent result of the campaign. Used
    /// by the determinism tests and the served-digest comparisons.
    pub fn fingerprint(&self) -> CampaignFingerprint {
        CampaignFingerprint {
            test_cases: self.test_cases,
            samples: self.samples,
            sim_ticks: self.sim_ticks,
            resumes: self.kernel.resumes,
            properties: self
                .properties
                .iter()
                .map(|p| {
                    (
                        p.name.clone(),
                        p.verdict,
                        p.violating_shards.clone(),
                        p.decided_shards,
                    )
                })
                .collect(),
            coverage_bits: self
                .coverage_percent
                .iter()
                .map(|(_, pct)| pct.to_bits())
                .collect(),
            overall_bits: self.overall_coverage.to_bits(),
            violations: self.violations.clone(),
            anomalies: self.anomalies.clone(),
            shard_cases: self
                .shards
                .iter()
                .map(|s| (s.index, s.test_cases))
                .collect(),
        }
    }

    /// The merged verdict of one property, if registered.
    pub fn verdict_of(&self, name: &str) -> Option<Verdict> {
        self.properties
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.verdict)
    }

    /// Renders the report as an aligned text table (the form the `repro`
    /// binary prints).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>9} {:>10} {:>12} {:>12}",
            "property", "verdict", "decided", "violating", "AR states"
        );
        for p in &self.properties {
            let states = p
                .synthesis
                .map(|s| s.states.to_string())
                .unwrap_or_else(|| "-".to_owned());
            let _ = writeln!(
                out,
                "{:<12} {:>9} {:>7}/{:<2} {:>12} {:>12}",
                p.name,
                p.verdict.to_string(),
                p.decided_shards,
                self.shards.len(),
                p.violating_shards.len(),
                states
            );
        }
        let _ = writeln!(
            out,
            "shards: {} (jobs {})   cases: {}/{}   coverage: {:.1}%",
            self.shards.len(),
            self.jobs,
            self.test_cases,
            self.total_cases,
            self.overall_coverage
        );
        let _ = writeln!(
            out,
            "wall: {:.3}s   shard-wall sum: {:.3}s   synthesis: {:.3}s   {:.0} cases/s",
            self.wall.as_secs_f64(),
            self.shard_wall_sum.as_secs_f64(),
            self.synthesis_wall.as_secs_f64(),
            self.cases_per_sec()
        );
        let _ = writeln!(
            out,
            "synthesis cache: {} hits / {} misses ({:.0}% hit rate), {} entries",
            self.cache.hits,
            self.cache.misses,
            100.0 * self.cache.hit_rate(),
            self.cache.entries
        );
        if !self.spans.is_empty() {
            let _ = writeln!(out, "\nspan profile (merged over shards):");
            let _ = write!(out, "{}", self.spans);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::fnv1a64;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
