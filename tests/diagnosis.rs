//! Diagnosis-layer integration: counterexample witnesses and property
//! waveforms, end to end.
//!
//! * A shrinking property test drives random bounded formulas over random
//!   dirty/clean traces through the checker with witness capture on, and
//!   asserts every captured witness **replays**: re-driving a fresh
//!   AR-automaton with the recorded valuation runs reproduces the verdict
//!   at the exact deciding sample. The observed trace, replayed one sample
//!   at a time through a fresh `TableMonitor` and through the progression
//!   `Monitor`, must reach the same verdict at the same sample.
//! * The fixed torn-write acceptance scenario must yield, on both flows, a
//!   witness whose provenance names the deciding write and a VCD whose
//!   `intact` verdict channel goes low at the deciding sample.
//! * A differential check: both flows produce identical property-timeline
//!   channel *value sequences* for the same stimulus (timestamps differ —
//!   the flows use different timing references — values must not).

use std::collections::BTreeMap;
use std::rc::Rc;

use esw_verify::c::{lower, parse as parse_c, share_interp, Interp, SharedInterp};
use esw_verify::campaign::FlowKind;
use esw_verify::faults::scenario::{run_scenario_observed, torn_write_ir, ScenarioObs};
use esw_verify::faults::intact_property;
use esw_verify::sctc::{esw, PropertyResult, Proposition, Sctc, VcdValue, Witness, WitnessConfig};
use esw_verify::temporal::{Formula, Monitor, TableMonitor, TraceMonitor, Verdict};
use testkit::{Checker, Source};

const NPROPS: usize = 3;
const MAX_BOUND: u64 = 16;
const MAX_DEPTH: u32 = 4;
/// Horizon of a depth-4 formula with bounds ≤ 16 plus slack, as in the
/// monitor-equivalence test.
const TRACE_LEN: usize = 72;

/// Random fully bounded formulas over `p0..p2`, depth ≤ `depth`.
fn gen_formula(src: &mut Source<'_>, depth: u32) -> Formula {
    if depth == 0 || src.chance(25) {
        return match src.weighted_idx(&[1, 1, 4]) {
            0 => Formula::True,
            1 => Formula::False,
            _ => Formula::prop(&format!("p{}", src.usize_in(0, NPROPS - 1))),
        };
    }
    match src.usize_in(0, 6) {
        0 => Formula::not(gen_formula(src, depth - 1)),
        1 => {
            let a = gen_formula(src, depth - 1);
            let b = gen_formula(src, depth - 1);
            Formula::and(a, b)
        }
        2 => {
            let a = gen_formula(src, depth - 1);
            let b = gen_formula(src, depth - 1);
            Formula::implies(a, b)
        }
        3 => Formula::next(gen_formula(src, depth - 1)),
        4 => {
            let b = src.u64_in(0, MAX_BOUND);
            Formula::finally(Some(b), gen_formula(src, depth - 1))
        }
        5 => {
            let b = src.u64_in(0, MAX_BOUND);
            Formula::globally(Some(b), gen_formula(src, depth - 1))
        }
        _ => {
            let b = src.u64_in(0, MAX_BOUND);
            let lhs = gen_formula(src, depth - 1);
            let rhs = gen_formula(src, depth - 1);
            Formula::until(Some(b), lhs, rhs)
        }
    }
}

/// A dirty/clean trace script: `Some(v)` writes valuation `v` into the
/// model before sampling, `None` samples the unchanged model (clean
/// samples exercise the stutter-compressed witness runs).
fn gen_trace(src: &mut Source<'_>) -> Vec<Option<u64>> {
    (0..TRACE_LEN)
        .map(|_| {
            if src.chance(40) {
                Some(src.u64_in(0, (1 << NPROPS) - 1))
            } else {
                None
            }
        })
        .collect()
}

fn fresh_model() -> SharedInterp {
    let src = "int g0 = 0; int g1 = 0; int g2 = 0; int main() { return 0; }";
    let ir = Rc::new(lower(&parse_c(src).expect("model parses")).expect("model lowers"));
    share_interp(Interp::with_virtual_memory(ir))
}

fn bind_props(interp: &SharedInterp) -> Vec<Box<dyn Proposition>> {
    (0..NPROPS)
        .map(|i| esw::global_nonzero(&format!("p{i}"), interp.clone(), &format!("g{i}")))
        .collect()
}

/// Projects a trace valuation (bit `k` = `p<k>`) onto a monitor's
/// proposition table.
fn project(props: &[String], valuation: u64) -> u64 {
    props.iter().enumerate().fold(0, |acc, (bit, name)| {
        let k: usize = name[1..].parse().expect("p<i> names");
        acc | (valuation >> k & 1) << bit
    })
}

/// Drives `script` through a fresh checker with witness capture on and
/// returns the observed valuation trace, the final results and the
/// captured witnesses. `read_every_sample` queries the verdict after every
/// sample (which flushes deferred stutter runs at once) instead of only at
/// the end.
fn observe(
    f: &Formula,
    script: &[Option<u64>],
    read_every_sample: bool,
) -> (Vec<u64>, Vec<PropertyResult>, Vec<Witness>) {
    let model = fresh_model();
    let mut sctc = Sctc::new();
    sctc.enable_witnesses(WitnessConfig {
        window: 256,
        capture_true: true,
    });
    sctc.add_property("prop", f, bind_props(&model))
        .expect("generated formula binds");
    let mut valuation = 0u64;
    let mut trace = Vec::with_capacity(script.len());
    for step in script {
        if let Some(v) = *step {
            valuation = v;
            let mut interp = model.borrow_mut();
            for bit in 0..NPROPS {
                interp.set_global_by_name(&format!("g{bit}"), i32::from(v & (1 << bit) != 0));
            }
        }
        trace.push(valuation);
        sctc.sample();
        if read_every_sample {
            sctc.results();
        }
    }
    let results = sctc.results();
    (trace, results, sctc.take_witnesses())
}

/// Replaying a witness against a fresh AR-automaton must reproduce the
/// captured verdict at the captured sample index; so must replaying the
/// whole observed trace one sample at a time through a fresh
/// `TableMonitor` and through the progression `Monitor`.
#[test]
fn captured_witnesses_replay_to_the_same_decision() {
    Checker::new("captured_witnesses_replay_to_the_same_decision")
        .cases(80)
        .run(
            |src| (gen_formula(src, MAX_DEPTH), gen_trace(src)),
            |(f, script)| {
                let (trace, results, witnesses) = observe(f, script, false);

                let mut table = TableMonitor::new(f).expect("synthesizable");
                let mut progression = Monitor::new(f).expect("interns");
                let references: [&mut dyn TraceMonitor; 2] = [&mut table, &mut progression];
                for (name, monitor) in ["TableMonitor", "Monitor"].into_iter().zip(references) {
                    // Like the checker, stop stepping once decided: a
                    // formula decided before the first sample keeps
                    // `decided_at == None`.
                    for &v in &trace {
                        if monitor.verdict().is_decided() {
                            break;
                        }
                        monitor.step(project(monitor.props(), v));
                    }
                    assert_eq!(
                        monitor.verdict(),
                        results[0].verdict,
                        "{name} replay verdict diverges for {f}"
                    );
                    assert_eq!(
                        monitor.decided_at(),
                        results[0].decided_at,
                        "{name} replay decision sample diverges for {f}"
                    );
                }

                if !results[0].verdict.is_decided() {
                    assert!(
                        witnesses.is_empty(),
                        "witness for an undecided property of {f}"
                    );
                    return;
                }
                let [witness]: [Witness; 1] = witnesses.try_into().unwrap_or_else(|w: Vec<_>| {
                    panic!("expected one witness for {f}, got {}", w.len())
                });
                assert!(
                    witness.complete,
                    "a 256-run window must retain a {TRACE_LEN}-sample trace"
                );
                assert_eq!(witness.verdict, results[0].verdict, "for {f}");
                assert_eq!(witness.decided_at, results[0].decided_at, "for {f}");
                let mut fresh = TableMonitor::new(f).expect("synthesizable");
                let replay = witness.replay_with(&mut fresh);
                assert_eq!(
                    replay.verdict, witness.verdict,
                    "replayed verdict diverges for {f}"
                );
                assert_eq!(
                    replay.decided_at, witness.decided_at,
                    "replayed decision sample diverges for {f}"
                );
            },
        );
}

/// A verdict that first surfaces when a deferred stutter run is flushed
/// must not drag the samples recorded after the decision into the
/// witness: reading the verdict once at the end or after every sample
/// yields the same witness, and a complete witness covers exactly the
/// samples up to the deciding one.
#[test]
fn witness_ends_at_the_deciding_sample_however_the_verdict_is_read() {
    let check = |f: &Formula, script: &[Option<u64>]| {
        let (_, once, lazy) = observe(f, script, false);
        let (_, every, eager) = observe(f, script, true);
        let decision = |r: &[PropertyResult]| (r[0].verdict, r[0].decided_at);
        assert_eq!(
            decision(&once),
            decision(&every),
            "verdict depends on read cadence for {f}"
        );
        assert_eq!(lazy, eager, "witness depends on read cadence for {f}");
        for w in &lazy {
            if let (true, Some(d)) = (w.complete, w.decided_at) {
                assert_eq!(
                    w.total_samples(),
                    d,
                    "witness overruns its decision for {f}"
                );
            }
        }
    };
    // `F[<=5] p0` with p0 never true decides false at sample 6, inside
    // the stutter run that follows the first sample.
    let f = Formula::finally(Some(5), Formula::prop("p0"));
    let (_, results, witnesses) = observe(&f, &[None; 20], false);
    assert_eq!(results[0].decided_at, Some(6));
    assert_eq!(witnesses[0].total_samples(), 6);
    assert!(witnesses[0].to_report().contains("samples 1..=6"));
    check(&f, &[None; 20]);

    Checker::new("witness_ends_at_the_deciding_sample_however_the_verdict_is_read")
        .cases(80)
        .run(
            |src| (gen_formula(src, MAX_DEPTH), gen_trace(src)),
            |(f, script)| check(f, script),
        );
}

/// The per-property VCD channels (verdict + atoms) as a comparable map of
/// value sequences, timestamps stripped.
fn channel_values(report: &esw_verify::sctc::RunReport) -> BTreeMap<(String, String), Vec<VcdValue>> {
    let doc = report.vcd.as_ref().expect("vcd enabled");
    let mut map = BTreeMap::new();
    for (scope, name) in doc.wires() {
        map.insert(
            (scope.to_owned(), name.to_owned()),
            doc.value_sequence(scope, name),
        );
    }
    map
}

fn torn_write_observed(flow: FlowKind, recovery_bound: u64) -> (Witness, esw_verify::sctc::RunReport) {
    let (_, report) = run_scenario_observed(
        flow,
        torn_write_ir(),
        recovery_bound,
        ScenarioObs {
            witnesses: Some(WitnessConfig::default()),
            vcd: true,
            ..ScenarioObs::default()
        },
    );
    let witness = report
        .witnesses
        .iter()
        .find(|w| w.property == "intact")
        .expect("`G intact` violation must yield a witness")
        .clone();
    (witness, report)
}

/// Fixed acceptance scenario: on both flows the torn write produces a
/// False `intact` witness that names the deciding write, replays to the
/// same sample, and shows up as a falling verdict channel in the VCD.
#[test]
fn torn_write_witness_names_the_deciding_write_on_both_flows() {
    // Both flows must resolve the deciding write *symbolically*: the
    // derived flow labels the interpreter global, the microprocessor flow
    // resolves the RAM address through the compiled image's symbol map —
    // the raw `mem[0x...]` spelling is only the no-symbol fallback and
    // must not appear here.
    for (flow, bound, marker) in [
        (FlowKind::Derived, 5_000, "global `eee_read_value` write"),
        (FlowKind::Microprocessor, 200_000, "eee_read_value write"),
    ] {
        let (witness, report) = torn_write_observed(flow, bound);
        assert_eq!(witness.verdict, Verdict::False, "{flow:?}");
        let decided_at = witness.decided_at.expect("False is decided");

        // The dirty-set provenance points at the write that flipped the
        // atom: an interpreter global on the derived flow, a memory-word
        // watch on the microprocessor flow.
        assert!(
            witness
                .provenance
                .iter()
                .any(|p| p.atom == "intact" && !p.value && p.source.contains(marker)),
            "{flow:?}: provenance {:?} does not name the deciding write",
            witness.provenance
        );

        // Replay reproduces False at the same deciding sample.
        let mut fresh = TableMonitor::new(&intact_property()).expect("synthesizable");
        let replay = witness.replay_with(&mut fresh);
        assert_eq!(replay.verdict, Verdict::False, "{flow:?}");
        assert_eq!(replay.decided_at, Some(decided_at), "{flow:?}");

        // The VCD verdict channel latches False exactly at the decision.
        let doc = report.vcd.as_ref().expect("vcd enabled");
        assert_eq!(
            doc.changes_for("intact", "verdict").last(),
            Some(&(decided_at, VcdValue::V0)),
            "{flow:?}: verdict channel must fall at the deciding sample"
        );
    }
}

/// Differential: for the same stimulus, both flows must produce identical
/// property-timeline channel value sequences. The deciding *timestamps*
/// differ (clock ticks vs statement ticks) — the observed value histories
/// must not.
#[test]
fn vcd_property_timelines_agree_across_flows() {
    let mut harness = testkit::DiffHarness::new()
        .substrate("derived", |bounds: &[u64]| {
            bounds
                .iter()
                .map(|&b| channel_values(&torn_write_observed(FlowKind::Derived, b).1))
                .collect::<Vec<_>>()
        })
        .substrate("micro", |_bounds: &[u64]| {
            // The micro flow needs a deeper recovery bound for the same
            // stimulus; the property-timeline values must still agree.
            [200_000u64]
                .iter()
                .map(|&b| channel_values(&torn_write_observed(FlowKind::Microprocessor, b).1))
                .collect::<Vec<_>>()
        });
    if let Err(d) = harness.check(&[5_000u64]) {
        panic!("property timelines diverged between flows:\n{d}");
    }
}
