//! Equivalence property test for the change-driven pipeline.
//!
//! Random bounded formulas (depth ≤ 4, bounds ≤ 16) are checked over random
//! dirty/clean traces driven through *real model writes* — minic interpreter
//! globals with registered write-path watches — so the checker exercises
//! its whole stack: atom interning, dirty tracking, and stutter
//! compression. The recorded valuation trace is then replayed one sample
//! at a time through a fresh [`TableMonitor`] and through the progression
//! [`Monitor`]; both must agree with the [`Sctc`] result on the verdict
//! **and** on the sample index the verdict was reached at, and the verdict
//! must match an independent brute-force reading of the bounded-FLTL trace
//! semantics.
//!
//! The testkit harness shrinks any diverging (formula, trace) pair.

use std::rc::Rc;

use minic::{lower, parse as parse_c, share_interp, Interp, SharedInterp};
use sctc_core::{esw, PropertyResult, Proposition, Sctc};
use sctc_temporal::{Formula, Monitor, TableMonitor, TraceMonitor, Verdict};
use testkit::{Checker, Source};

const NPROPS: usize = 3;
const MAX_BOUND: u64 = 16;
const MAX_DEPTH: u32 = 4;
/// Horizon of a depth-4 formula with bounds ≤ 16 is at most 4 * (16 + 1);
/// a couple of spare samples guarantee every generated formula decides.
const TRACE_LEN: usize = 72;

/// Independent finite-trace semantics: does `f` hold at `trace[pos..]`?
/// `trace[i]` is a bitmask where bit `k` means `p<k>` holds at sample `i`.
fn holds(f: &Formula, trace: &[u64], pos: usize) -> bool {
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Prop(name) => {
            let idx: usize = name[1..].parse().expect("p<i> names");
            trace[pos] & (1 << idx) != 0
        }
        Formula::Not(g) => !holds(g, trace, pos),
        Formula::And(a, b) => holds(a, trace, pos) && holds(b, trace, pos),
        Formula::Or(a, b) => holds(a, trace, pos) || holds(b, trace, pos),
        Formula::Implies(a, b) => !holds(a, trace, pos) || holds(b, trace, pos),
        Formula::Next(g) => holds(g, trace, pos + 1),
        Formula::Finally(b, g) => {
            let b = b.expect("bounded").0 as usize;
            (pos..=pos + b).any(|i| holds(g, trace, i))
        }
        Formula::Globally(b, g) => {
            let b = b.expect("bounded").0 as usize;
            (pos..=pos + b).all(|i| holds(g, trace, i))
        }
        Formula::Until(b, lhs, rhs) => {
            let b = b.expect("bounded").0 as usize;
            (pos..=pos + b).any(|i| holds(rhs, trace, i) && (pos..i).all(|j| holds(lhs, trace, j)))
        }
        Formula::Release(b, lhs, rhs) => {
            let b = b.expect("bounded").0 as usize;
            (pos..=pos + b).all(|i| holds(rhs, trace, i) || (pos..i).any(|j| holds(lhs, trace, j)))
        }
    }
}

/// Random fully bounded formulas over `p0..p2`, depth ≤ `depth`.
fn gen_formula(src: &mut Source<'_>, depth: u32) -> Formula {
    if depth == 0 || src.chance(25) {
        return match src.weighted_idx(&[1, 1, 4]) {
            0 => Formula::True,
            1 => Formula::False,
            _ => Formula::prop(&format!("p{}", src.usize_in(0, NPROPS - 1))),
        };
    }
    match src.usize_in(0, 8) {
        0 => Formula::not(gen_formula(src, depth - 1)),
        1 => {
            let a = gen_formula(src, depth - 1);
            let b = gen_formula(src, depth - 1);
            Formula::and(a, b)
        }
        2 => {
            let a = gen_formula(src, depth - 1);
            let b = gen_formula(src, depth - 1);
            Formula::or(a, b)
        }
        3 => {
            let a = gen_formula(src, depth - 1);
            let b = gen_formula(src, depth - 1);
            Formula::implies(a, b)
        }
        4 => Formula::next(gen_formula(src, depth - 1)),
        5 => {
            let b = src.u64_in(0, MAX_BOUND);
            Formula::finally(Some(b), gen_formula(src, depth - 1))
        }
        6 => {
            let b = src.u64_in(0, MAX_BOUND);
            Formula::globally(Some(b), gen_formula(src, depth - 1))
        }
        7 => {
            let b = src.u64_in(0, MAX_BOUND);
            let lhs = gen_formula(src, depth - 1);
            let rhs = gen_formula(src, depth - 1);
            Formula::until(Some(b), lhs, rhs)
        }
        _ => {
            let b = src.u64_in(0, MAX_BOUND);
            let lhs = gen_formula(src, depth - 1);
            let rhs = gen_formula(src, depth - 1);
            Formula::release(Some(b), lhs, rhs)
        }
    }
}

/// A dirty/clean trace script: `Some(v)` writes valuation `v` into the
/// model before sampling (a dirty sample), `None` samples the unchanged
/// model (a clean sample the change-driven engine may compress).
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

/// Replays a recorded valuation trace one sample at a time through a fresh
/// [`TableMonitor`] and through the progression [`Monitor`], and asserts
/// that both reach `result`'s verdict at `result`'s sample index. Like the
/// checker, a replay stops stepping once decided, so a formula decided
/// before the first sample keeps `decided_at == None`.
fn assert_replays_match(f: &Formula, trace: &[u64], result: &PropertyResult) {
    let mut table = TableMonitor::new(f).expect("generated formula synthesizes");
    let mut progression = Monitor::new(f).expect("generated formula interns");
    let references: [&mut dyn TraceMonitor; 2] = [&mut table, &mut progression];
    for (name, monitor) in ["TableMonitor", "Monitor"].into_iter().zip(references) {
        for &v in trace {
            if monitor.verdict().is_decided() {
                break;
            }
            monitor.step(project(monitor.props(), v));
        }
        assert_eq!(
            monitor.verdict(),
            result.verdict,
            "{name} replay verdict diverges for {f}"
        );
        assert_eq!(
            monitor.decided_at(),
            result.decided_at,
            "{name} replay decision sample diverges for {f}"
        );
    }
}

/// Writes valuation `v` into the model's globals `g0..`.
fn write_valuation(model: &SharedInterp, v: u64, nprops: usize) {
    let mut interp = model.borrow_mut();
    for bit in 0..nprops {
        let value = i32::from(v & (1 << bit) != 0);
        interp.set_global_by_name(&format!("g{bit}"), value);
    }
}

/// Drives `sctc` through a dirty/clean script over `model`, returning the
/// valuation each sample observed.
fn run_script(sctc: &mut Sctc, model: &SharedInterp, script: &[Option<u64>]) -> Vec<u64> {
    let mut valuation = 0u64;
    let mut trace = Vec::with_capacity(script.len());
    for step in script {
        if let Some(v) = *step {
            valuation = v;
            write_valuation(model, v, NPROPS);
        }
        trace.push(valuation);
        sctc.sample();
    }
    trace
}

#[test]
fn engines_agree_with_brute_force_on_dirty_clean_traces() {
    Checker::new("engines_agree_with_brute_force_on_dirty_clean_traces")
        .cases(120)
        .run(
            |src| (gen_formula(src, MAX_DEPTH), gen_trace(src)),
            |(f, script)| {
                let model = fresh_model();
                let mut sctc = Sctc::new();
                sctc.add_property("prop", f, bind_props(&model))
                    .expect("generated formula binds");
                // Replay the script, recording the valuation each sample
                // actually observed for the references.
                let trace = run_script(&mut sctc, &model, script);

                let expected = holds(f, &trace, 0);
                let result = &sctc.results()[0];
                assert!(
                    result.verdict.is_decided(),
                    "bounded formula undecided after {TRACE_LEN} samples: {f}"
                );
                assert_eq!(
                    result.verdict == Verdict::True,
                    expected,
                    "change-driven verdict disagrees with brute-force semantics for {f}"
                );
                assert_replays_match(f, &trace, result);
                // Counter sanity: the checker never reads more atoms than
                // the per-sample bookkeeping says exist.
                let counters = sctc.counters();
                assert!(counters.atoms_evaluated <= counters.atoms_total);
            },
        );
}

#[test]
fn telemetry_on_and_off_runs_are_bit_identical() {
    // The trace plane's zero-cost discipline: flipping event emission on
    // or off must never reach a verdict, a sample count, or a fingerprint.
    // Three real stacks — change-driven campaign, fault injection, SMC
    // sampling — each run twice around the global telemetry switch.
    use esw_verify::faults::{run_fault_campaign, FaultCampaignSpec};
    use esw_verify::smc::{run_smc_campaign, SmcSpec};
    use sctc_campaign::{run_campaign, CampaignSpec, FlowKind};
    use sctc_obs::trace;

    let spec = CampaignSpec::derived(60, 2008).with_jobs(2);
    let faults = FaultCampaignSpec::derived(40, 2008)
        .with_chunk(8)
        .with_fault_percent(50)
        .with_jobs(2);
    let smc = SmcSpec::planted_torn(FlowKind::Derived, 200, 2008)
        .with_max_samples(60)
        .with_jobs(2);

    trace::set_enabled(false);
    let campaign_off = run_campaign(&spec);
    let faults_off = run_fault_campaign(&faults);
    let smc_off = run_smc_campaign(&smc);

    trace::set_enabled(true);
    let campaign_on = run_campaign(&spec);
    let faults_on = run_fault_campaign(&faults);
    let smc_on = run_smc_campaign(&smc);

    assert_eq!(
        campaign_off.fingerprint(),
        campaign_on.fingerprint(),
        "campaign fingerprint moved with the telemetry switch"
    );
    assert_eq!(
        faults_off.matrix.fingerprint(),
        faults_on.matrix.fingerprint(),
        "fault matrix fingerprint moved with the telemetry switch"
    );
    assert_eq!(smc_off.verdict, smc_on.verdict, "SMC verdict");
    assert_eq!(smc_off.samples, smc_on.samples, "SMC sample count");
    assert_eq!(
        smc_off.fingerprint(),
        smc_on.fingerprint(),
        "SMC fingerprint moved with the telemetry switch"
    );
}

#[test]
fn reused_checkers_stay_equivalent_across_reset() {
    // `Sctc::reset` reuse: one checker serves two cases in a row (with a
    // reset and a model rewind between), and the second case must produce
    // exactly the result the first did — no pending stutter run may leak
    // across the reset — and both must match the per-sample replays.
    Checker::new("reused_checkers_stay_equivalent_across_reset")
        .cases(40)
        .run(
            |src| (gen_formula(src, MAX_DEPTH), gen_trace(src)),
            |(f, script)| {
                let model = fresh_model();
                let mut sctc = Sctc::new();
                sctc.add_property("prop", f, bind_props(&model))
                    .expect("generated formula binds");

                let first_trace = run_script(&mut sctc, &model, script);
                let first = sctc.results().remove(0);
                // Rewind: checker reset, model back to all-zero globals.
                sctc.reset();
                write_valuation(&model, 0, NPROPS);
                let second_trace = run_script(&mut sctc, &model, script);
                let second = sctc.results().remove(0);
                assert_eq!(
                    (first.verdict, first.decided_at),
                    (second.verdict, second.decided_at),
                    "a reset checker must replay case results bit-identically for {f}"
                );
                assert_eq!(first_trace, second_trace);
                assert_replays_match(f, &second_trace, &second);
            },
        );
}

#[test]
fn wide_formula_matches_the_per_sample_replays() {
    // 7 atoms → 128 transition columns: the widest valuations the checker
    // projects in this suite. The change-driven result must match both
    // per-sample replays over real model writes that toggle the high-bit
    // atoms.
    let nprops = 7usize;
    let src = (0..nprops)
        .map(|i| format!("int g{i} = 0; "))
        .collect::<String>()
        + "int main() { return 0; }";
    let ir = Rc::new(lower(&parse_c(&src).expect("model parses")).expect("model lowers"));
    let text = "G (p0 -> F[<=6] (p1 | p2 | p3 | p4 | p5 | p6))";
    let f = sctc_temporal::parse(text).expect("wide formula parses");

    let model = share_interp(Interp::with_virtual_memory(ir));
    let props: Vec<Box<dyn Proposition>> = (0..nprops)
        .map(|i| esw::global_nonzero(&format!("p{i}"), model.clone(), &format!("g{i}")))
        .collect();
    let mut sctc = Sctc::new();
    sctc.add_property("wide", &f, props).unwrap();

    // A deterministic script mixing dirty writes (some touching only the
    // high valuation bits 64..128) with clean stutter stretches.
    let mut lcg = 0x2008_0310_u64;
    let mut valuation = 0u64;
    let mut trace = Vec::new();
    for step in 0..400u32 {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        if step % 3 == 0 {
            valuation = (lcg >> 33) & 0x7f;
            write_valuation(&model, valuation, nprops);
        }
        trace.push(valuation);
        sctc.sample();
    }
    assert_replays_match(&f, &trace, &sctc.results()[0]);
}
