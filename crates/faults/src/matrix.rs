//! The detection/recovery matrix: what each injected fault did to the
//! system, reduced across shards into one deterministic report.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use eee::Op;
use sctc_core::{MonitorCounters, SpanStats};
use sctc_temporal::Verdict;

/// The observed consequence of one planned fault.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultRecord {
    /// Global index of the test case the fault was scheduled on.
    pub case_index: u64,
    /// Operation running when the fault was injected (for power losses:
    /// the operation the cut actually interrupted).
    pub op: Op,
    /// Fault class (matrix row key), from `FaultEvent::class`.
    pub class: &'static str,
    /// Fault parameters, from `FaultEvent::detail`.
    pub detail: String,
    /// Whether the fault actually took effect (a scheduled power loss
    /// whose device-cycle target is never reached stays unfired).
    pub fired: bool,
    /// The faulted case deviated from the fault-free reference prediction.
    pub detected: bool,
    /// Deviations on later cases attributed to this (persistent) fault.
    pub late_detections: u32,
    /// Power losses only: did the recovery sequence bring the emulation
    /// back to ready?
    pub recovered: Option<bool>,
    /// Recovery operations executed (startup retries + read-back).
    pub recovery_ops: u32,
    /// Committed records still served correctly after recovery.
    pub survived: u32,
    /// Committed records lost or corrupted after recovery — including a
    /// torn write that gets served.
    pub corrupted: u32,
}

/// Per-shard result that [`DetectionMatrix::merge`] reduces.
#[derive(Clone, Debug)]
pub struct ShardMatrix {
    /// Global index of the shard's first case (records are shard-local
    /// until merge rebases them).
    pub start_case: u64,
    /// Test cases the shard completed (planned + recovery cases).
    pub test_cases: u64,
    /// Fault records with shard-local case indices.
    pub records: Vec<FaultRecord>,
    /// Per-property verdicts of the shard's run.
    pub properties: Vec<(String, Verdict)>,
    /// Change-driven monitoring counters of the shard's run.
    pub monitoring: MonitorCounters,
    /// Span-profiler timings of the shard's run (empty unless the campaign
    /// profiled).
    pub spans: SpanStats,
}

/// The merged fault-campaign result: every fault record in plan order plus
/// the Kleene-conjoined property verdicts.
#[derive(Clone, Debug)]
pub struct DetectionMatrix {
    /// Which flow produced the matrix (`"derived"` / `"micro"`).
    pub flow: String,
    /// Planned case budget of the campaign.
    pub total_cases: u64,
    /// Test cases completed across all shards (planned + recovery).
    pub test_cases: u64,
    /// All fault records, global case order.
    pub records: Vec<FaultRecord>,
    /// Property verdicts, 3-valued conjunction over shards.
    pub properties: Vec<(String, Verdict)>,
    /// Monitoring counters summed over shards. Deliberately **outside**
    /// [`DetectionMatrix::canonical`] (and thus the fingerprint): counters
    /// measure avoided work, an implementation detail of the pipeline,
    /// while the detected faults are the finding.
    pub monitoring: MonitorCounters,
    /// Span-profiler timings merged over shards plus the reducer's own
    /// `shard-merge` span. Like the counters, deliberately **outside**
    /// [`DetectionMatrix::canonical`] and the fingerprint: wall-clock
    /// figures vary run to run while the detected faults must not.
    pub spans: SpanStats,
}

impl DetectionMatrix {
    /// Reduces shard results (in plan order) into one matrix.
    pub fn merge(flow: &str, total_cases: u64, shards: Vec<ShardMatrix>) -> Self {
        let merge_t0 = std::time::Instant::now();
        let mut matrix = DetectionMatrix {
            flow: flow.to_owned(),
            total_cases,
            test_cases: 0,
            records: Vec::new(),
            properties: Vec::new(),
            monitoring: MonitorCounters::default(),
            spans: SpanStats::new(),
        };
        for shard in shards {
            matrix.test_cases += shard.test_cases;
            matrix.monitoring.merge(&shard.monitoring);
            matrix.spans.merge(&shard.spans);
            for mut record in shard.records {
                record.case_index += shard.start_case;
                matrix.records.push(record);
            }
            for (name, verdict) in shard.properties {
                match matrix.properties.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, merged)) => *merged = merged.and(verdict),
                    None => matrix.properties.push((name, verdict)),
                }
            }
        }
        if !matrix.spans.is_empty() {
            // Only when the shards profiled; an unprofiled campaign keeps
            // the stats empty so disabled observability stays invisible.
            matrix.spans.record("shard-merge", merge_t0.elapsed());
        }
        matrix
    }

    /// The merged verdict of one property, if registered.
    pub fn verdict_of(&self, name: &str) -> Option<Verdict> {
        self.properties
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// A canonical line-per-record rendering; two matrices are
    /// interchangeable iff their canonical forms are byte-identical.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "matrix flow={} cases={} ran={}",
            self.flow, self.total_cases, self.test_cases
        );
        for r in &self.records {
            let recovered = match r.recovered {
                None => "-",
                Some(true) => "yes",
                Some(false) => "no",
            };
            let _ = writeln!(
                out,
                "case {} {} [{}] fired={} detected={} late={} recovered={} rec_ops={} survived={} corrupted={} ({})",
                r.case_index,
                r.class,
                r.op,
                r.fired,
                r.detected,
                r.late_detections,
                recovered,
                r.recovery_ops,
                r.survived,
                r.corrupted,
                r.detail
            );
        }
        for (name, verdict) in &self.properties {
            let _ = writeln!(out, "property {name} = {verdict}");
        }
        out
    }

    /// FNV-1a over the canonical rendering: the campaign's determinism
    /// contract is "same (plan, seed, chunk) ⇒ same fingerprint for any
    /// worker count".
    pub fn fingerprint(&self) -> u64 {
        sctc_campaign::fnv1a64(self.canonical().as_bytes())
    }

    /// Renders the fault-class × operation detection grid plus the
    /// power-loss recovery summary.
    pub fn to_table(&self) -> String {
        let mut cells: BTreeMap<&'static str, BTreeMap<Op, (u32, u32)>> = BTreeMap::new();
        for r in &self.records {
            let (detected, total) = cells.entry(r.class).or_default().entry(r.op).or_default();
            *total += 1;
            if r.detected || r.late_detections > 0 {
                *detected += 1;
            }
        }
        let mut out = String::new();
        let _ = write!(out, "{:<12}", "fault");
        for op in Op::ALL {
            let _ = write!(out, " {:>9}", op.to_string());
        }
        out.push('\n');
        for (class, row) in &cells {
            let _ = write!(out, "{class:<12}");
            for op in Op::ALL {
                match row.get(&op) {
                    Some((d, t)) => {
                        let _ = write!(out, " {:>9}", format!("{d}/{t}"));
                    }
                    None => {
                        let _ = write!(out, " {:>9}", "-");
                    }
                }
            }
            out.push('\n');
        }
        let cuts: Vec<&FaultRecord> = self
            .records
            .iter()
            .filter(|r| r.class == "power-loss" && r.fired)
            .collect();
        let recovered = cuts.iter().filter(|r| r.recovered == Some(true)).count();
        let survived: u32 = cuts.iter().map(|r| r.survived).sum();
        let corrupted: u32 = cuts.iter().map(|r| r.corrupted).sum();
        let _ = writeln!(
            out,
            "power losses: {} fired, {} recovered; records survived {} / corrupted {}",
            cuts.len(),
            recovered,
            survived,
            corrupted
        );
        for (name, verdict) in &self.properties {
            let _ = writeln!(out, "property {name:<10} {verdict}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(case_index: u64, class: &'static str, detected: bool) -> FaultRecord {
        FaultRecord {
            case_index,
            op: Op::Write,
            class,
            detail: String::new(),
            fired: true,
            detected,
            late_detections: 0,
            recovered: None,
            recovery_ops: 0,
            survived: 0,
            corrupted: 0,
        }
    }

    #[test]
    fn merge_rebases_case_indices_and_conjoins_verdicts() {
        let matrix = DetectionMatrix::merge(
            "derived",
            20,
            vec![
                ShardMatrix {
                    start_case: 0,
                    test_cases: 10,
                    records: vec![record(3, "bit-flip", true)],
                    properties: vec![("intact".into(), Verdict::Pending)],
                    monitoring: MonitorCounters::default(),
                    spans: SpanStats::new(),
                },
                ShardMatrix {
                    start_case: 10,
                    test_cases: 12,
                    records: vec![record(1, "power-loss", false)],
                    properties: vec![("intact".into(), Verdict::False)],
                    monitoring: MonitorCounters::default(),
                    spans: SpanStats::new(),
                },
            ],
        );
        assert_eq!(matrix.test_cases, 22);
        assert_eq!(matrix.records[0].case_index, 3);
        assert_eq!(matrix.records[1].case_index, 11);
        assert_eq!(matrix.verdict_of("intact"), Some(Verdict::False));
        assert_eq!(matrix.verdict_of("missing"), None);
    }

    #[test]
    fn fingerprint_tracks_canonical_content() {
        let a = DetectionMatrix::merge(
            "derived",
            5,
            vec![ShardMatrix {
                start_case: 0,
                test_cases: 5,
                records: vec![record(2, "transient", true)],
                properties: vec![],
                monitoring: MonitorCounters::default(),
                spans: SpanStats::new(),
            }],
        );
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.records[0].detected = false;
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Counters never feed the fingerprint: they measure avoided work,
        // not what was detected.
        let mut c = a.clone();
        c.monitoring.atoms_evaluated = 12345;
        assert_eq!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn table_renders_grid_and_power_loss_summary() {
        let mut cut = record(4, "power-loss", true);
        cut.recovered = Some(true);
        cut.survived = 3;
        let matrix = DetectionMatrix::merge(
            "micro",
            10,
            vec![ShardMatrix {
                start_case: 0,
                test_cases: 10,
                records: vec![record(1, "bit-flip", true), cut],
                properties: vec![("recovery".into(), Verdict::Pending)],
                monitoring: MonitorCounters::default(),
                spans: SpanStats::new(),
            }],
        );
        let table = matrix.to_table();
        assert!(table.contains("bit-flip"));
        assert!(table.contains("1/1"));
        assert!(table.contains("1 fired, 1 recovered"));
        assert!(table.contains("recovery"));
    }
}
