//! `micro-faults`: Approach 1 fault campaign on the clocked CPU
//! (`FaultCampaignSpec::micro`), one worker. It monitors
//! `G (reset -> F[<=200000] initialized)` and `G intact` under power cuts
//! and flash faults against the healthy EEPROM emulation.
//!
//! The workload runs by hand only; `BENCHMARK.json` does not list it,
//! because on a shared 2-core host its times spread from run to run by
//! more than a regression bound (see NOTES.md). Its `cpu` and `faults`
//! rows are measured on every traced `derived-campaign` run by
//! [`probe`].

use std::time::Instant;

use faults::scenario::{healthy_ir, run_scenario_observed, ScenarioObs};
use faults::{run_fault_campaign, DetectionMatrix, FaultCampaignSpec};
use sctc_campaign::{default_chunk, FlowKind};
use sctc_temporal::Verdict;

use crate::batch::{self, JobResult};
use crate::metrics::{Layers, Outcome};
use crate::spans::Recorder;
use crate::stats::mix;
use crate::Args;

/// Planned cases per job of the timed phase.
const JOB_CASES: u64 = 100;

/// Cold one-case set-ups per run, this process's first call included;
/// `setup_s` is their median.
const SETUP_RUNS: usize = 7;

fn spec(cases: u64, seed: u64, profile: bool) -> FaultCampaignSpec {
    FaultCampaignSpec::micro(cases, seed)
        .with_jobs(1)
        .with_profile(profile)
}

/// The healthy program must survive every fault: every case runs and
/// neither property is ever violated. Recovery itself may fail after a
/// cut (the matrix records it, and the fingerprint pins it); that is a
/// finding of the campaign, not a failure of the run.
fn matrix_problems(matrix: &DetectionMatrix, cases: u64) -> Vec<String> {
    let mut problems = Vec::new();
    if matrix.test_cases < cases {
        problems.push(format!("{} of {cases} cases ran", matrix.test_cases));
    }
    if matrix.properties.len() != 2 {
        problems.push(format!("{} properties reported", matrix.properties.len()));
    }
    for (name, verdict) in &matrix.properties {
        if *verdict == Verdict::False {
            problems.push(format!("{name} violated by the healthy program"));
        }
    }
    problems
}

/// The cold set-up: a one-case run of the workload's own spec.
pub fn one_case(seed: u64) -> Vec<String> {
    matrix_problems(&run_fault_campaign(&spec(1, seed, false)).matrix, 1)
}

/// Adds the monitoring counters and span times of a matrix to the
/// layers: the `core`, `campaign` and `sim` rows.
fn add_matrix_layers(matrix: &DetectionMatrix, cases: u64, layers: &mut Layers) {
    let span = |path: &str| matrix.spans.get(path);
    layers.add(
        "core.samples",
        span("simulate/sample").map_or(0, |e| e.count) as f64,
    );
    let m = &matrix.monitoring;
    layers.add("core.atoms_evaluated", m.atoms_evaluated as f64);
    layers.add("core.atoms_total", m.atoms_total as f64);
    layers.add("core.steps_compressed", m.steps_compressed as f64);
    layers.add("core.dirty_wakeups", m.dirty_wakeups as f64);
    layers.add(
        "campaign.shards",
        cases.div_ceil(default_chunk(cases)) as f64,
    );
    batch::add_span_layers(
        |path| span(path).map_or(0.0, |e| e.wall.as_secs_f64()),
        layers,
    );
}

/// Adds the clocked-CPU and fault-session counters of a matrix to the
/// layers: the `cpu` and `faults` rows.
fn add_fault_layers(matrix: &DetectionMatrix, layers: &mut Layers) {
    // The micro flow samples its checker once per clock cycle, so the
    // sample count is the number of monitored CPU cycles.
    let cycles = matrix.spans.get("simulate/sample").map_or(0, |e| e.count);
    layers.add("cpu.cycles", cycles as f64);
    layers.add("faults.test_cases", matrix.test_cases as f64);
    layers.add("faults.records", matrix.records.len() as f64);
    let fired = matrix.records.iter().filter(|r| r.fired);
    layers.add("faults.fired", fired.clone().count() as f64);
    layers.add(
        "faults.power_losses",
        fired.filter(|r| r.class == "power-loss").count() as f64,
    );
}

/// `cpu.mcycles_per_s`: monitored cycles per second of campaign wall.
fn set_cycle_rate(layers: &mut Layers, wall_s: f64) {
    layers.set(
        "cpu.mcycles_per_s",
        crate::stats::ratio(layers.get("cpu.cycles"), wall_s) / 1e6,
    );
}

/// Fault campaigns the probe runs.
const PROBE_JOBS: u64 = 4;

/// The Approach 1 probe of a traced `derived-campaign` run: a fixed
/// number of profiled fault campaigns of this workload's spec, of which
/// only the `cpu` and `faults` rows are kept, since no listed workload
/// reports them otherwise. It runs after the caller
/// has read the synthesis cache, so its cold `F[<=200000]` synthesis
/// stays out of the caller's `temporal` rows; a one-case campaign pays
/// that synthesis before the profiled ones, as in the workload's own
/// set-up.
pub fn probe(seed: u64, rec: &mut Recorder, layers: &mut Layers) -> Vec<String> {
    let mut problems = rec.span("faults.run_fault_campaign.probe_setup", 0, 0, || {
        one_case(seed)
    });
    let mut wall = 0.0;
    for k in 0..PROBE_JOBS {
        let report = rec.span("faults.run_fault_campaign.probe", 0, k, || {
            run_fault_campaign(&spec(JOB_CASES, mix(seed, k), true))
        });
        add_fault_layers(&report.matrix, layers);
        wall += report.wall.as_secs_f64();
        problems.extend(matrix_problems(&report.matrix, JOB_CASES));
    }
    set_cycle_rate(layers, wall);
    problems
}

/// The measuring process.
pub fn run(args: &Args, started: Instant) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = Recorder::new(args.trace, started, 1);
    let cache_before = batch::cache_stats();

    let problems = rec.span("faults.run_fault_campaign.setup", 0, 0, || {
        one_case(args.seed)
    });
    out.setup_s.push(started.elapsed().as_secs_f64());
    out.check("cold set-up", problems);
    batch::cold_setups(args, &mut out, SETUP_RUNS / 2);
    if args.trace {
        batch::probe_minic(&mut rec, &mut out.layers);
    }

    let mut traced_wall = 0.0;
    batch::timed_phase(
        args,
        &mut out,
        &mut rec,
        "faults.run_fault_campaign",
        |_, seed, traced, layers| {
            let report = run_fault_campaign(&spec(JOB_CASES, seed, traced));
            if traced {
                add_matrix_layers(&report.matrix, JOB_CASES, layers);
                add_fault_layers(&report.matrix, layers);
                traced_wall += report.wall.as_secs_f64();
            }
            JobResult {
                cases: report.matrix.test_cases,
                problems: matrix_problems(&report.matrix, JOB_CASES),
                fingerprint: report.matrix.fingerprint(),
            }
        },
    );
    batch::cold_setups(args, &mut out, SETUP_RUNS - 1 - SETUP_RUNS / 2);

    if args.trace {
        batch::add_cache_layers(&cache_before, &mut out.layers);
        // The fault matrix does not report automaton sizes; a healthy
        // power-loss scenario registers the same recovery property (a
        // cache hit by now) and its run report does.
        let (_, report) = rec.span("faults.run_scenario_observed", 0, 0, || {
            run_scenario_observed(
                FlowKind::Microprocessor,
                healthy_ir(),
                spec(1, args.seed, false).recovery_bound,
                ScenarioObs::default(),
            )
        });
        let states: usize = report
            .properties
            .iter()
            .filter_map(|p| p.synthesis.map(|s| s.states))
            .sum();
        out.layers.add("temporal.automaton_states", states as f64);
        set_cycle_rate(&mut out.layers, traced_wall);
        out.layers.derive_ratios();
        out.spans = rec.take();
    }
    out.peak_rss_mb = crate::stats::peak_rss_mb();
    out
}
