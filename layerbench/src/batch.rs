//! The closed-loop timed phase shared by the batch workloads, and the
//! per-layer probes every traced run makes.

use std::fmt::Debug;
use std::time::{Duration, Instant};

use sctc_temporal::{CacheStats, SynthesisCache};

use crate::metrics::{Layers, Outcome};
use crate::spans::Recorder;
use crate::stats::{median, mix};
use crate::{setup_child, Args};

/// Distinct job inputs per run. Job `k` runs input `k % POOL`, so every
/// input repeats and each repeat must reproduce its first fingerprint.
pub const POOL: u64 = 32;

/// Calls of each front-end probe in a traced run.
const PROBE_CALLS: usize = 5;

/// What one job returns to the loop.
pub struct JobResult<F> {
    /// Test cases the job verified.
    pub cases: u64,
    /// The job's deterministic fingerprint.
    pub fingerprint: F,
    /// Failed checks.
    pub problems: Vec<String>,
}

/// Runs jobs back to back, one caller, for `args.seconds`. `job` gets the
/// input's index in the pool, its seed, whether this job is traced, and
/// the per-layer sums to add to when it is. A traced run traces exactly
/// the second pass over the pool, so its counters cover a fixed amount
/// of work; it runs at least three passes, and the gap between the
/// median walls of the traced pass and the untraced ones is
/// `obs.trace_overhead_frac`.
pub fn timed_phase<F, J>(args: &Args, out: &mut Outcome, rec: &mut Recorder, span: &str, mut job: J)
where
    F: PartialEq + Debug,
    J: FnMut(u64, u64, bool, &mut Layers) -> JobResult<F>,
{
    let mut first: Vec<Option<F>> = (0..POOL).map(|_| None).collect();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let mut k = 0u64;
    loop {
        let member = (k % POOL) as usize;
        let is_traced = args.trace && k / POOL == 1;
        let seed = mix(args.seed, member as u64);
        let opened = rec.open();
        let result = job(member as u64, seed, is_traced, &mut out.layers);
        let wall = opened.1.elapsed().as_secs_f64();
        rec.close(opened, 0, k + 1, span);
        let mut problems = result.problems;
        match &first[member] {
            None => first[member] = Some(result.fingerprint),
            Some(expected) if *expected != result.fingerprint => problems.push(format!(
                "fingerprint {:?} differs from the first run of this input, {expected:?}",
                result.fingerprint
            )),
            Some(_) => {}
        }
        out.check(&format!("job {k} (seed {seed})"), problems);
        out.cases += result.cases as f64;
        out.job_ms.push(wall * 1e3);
        if is_traced {
            traced.push(wall);
        } else {
            plain.push(wall);
        }
        k += 1;
        if t0.elapsed() >= budget && (!args.trace || k >= 3 * POOL) {
            break;
        }
    }
    out.timed_s = t0.elapsed().as_secs_f64();
    if args.trace {
        out.layers.set(
            "obs.trace_overhead_frac",
            median(&traced) / median(&plain) - 1.0,
        );
    }
}

/// Makes `count` cold set-ups in fresh child processes and adds them to
/// `out.setup_s`; a traced run makes none. Untraced runs call this once
/// before and once after their timed phase, so `setup_s` samples the
/// host at both ends of the run rather than at one moment.
pub fn cold_setups(args: &Args, out: &mut Outcome, count: usize) {
    if args.trace {
        return;
    }
    for _ in 0..count {
        match setup_child(args) {
            Ok((setup, problems)) => {
                out.setup_s.push(setup);
                out.check("cold set-up child", problems);
            }
            Err(e) => out.check("cold set-up child", vec![e]),
        }
    }
}

/// Times the mini-C front end and code generator on the EEE program:
/// `minic.frontend_s` / `minic.codegen_s` are medians of a few calls.
pub fn probe_minic(rec: &mut Recorder, layers: &mut Layers) {
    let mut frontend = Vec::new();
    let mut codegen = Vec::new();
    for call in 0..PROBE_CALLS {
        let t0 = Instant::now();
        let ir = rec.span("minic.frontend", 0, call as u64, eee::build_ir);
        frontend.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let compiled = rec.span("minic.codegen", 0, call as u64, || {
            minic::codegen::compile(&ir, minic::codegen::CodegenOptions::default())
        });
        codegen.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(compiled.is_ok());
    }
    layers.add("minic.frontend_s", median(&frontend));
    layers.add("minic.codegen_s", median(&codegen));
}

/// A snapshot of the process-wide synthesis-cache counters (read only).
pub fn cache_stats() -> CacheStats {
    SynthesisCache::global().stats()
}

/// Adds the synthesis-cache activity since `before` to the layers.
pub fn add_cache_layers(before: &CacheStats, layers: &mut Layers) {
    let delta = cache_stats().since(before);
    layers.add("temporal.synthesis_s", delta.synthesis_wall.as_secs_f64());
    layers.add("temporal.cache_hits", delta.hits as f64);
    layers.add("temporal.cache_misses", delta.misses as f64);
}

/// Exclusive `simulate`, `sample` and `automaton-step` times (each span
/// minus its child) and the merge time, read from a flow's span table
/// through `wall(path)` in seconds (`0` when the path is absent).
pub fn add_span_layers(wall: impl Fn(&str) -> f64, layers: &mut Layers) {
    let simulate = wall("simulate");
    let sample = wall("simulate/sample");
    let step = wall("simulate/sample/automaton-step");
    layers.add("sim.simulate_s", simulate - sample);
    layers.add("core.sample_s", sample - step);
    layers.add("core.step_s", step);
    layers.add("campaign.merge_s", wall("shard-merge"));
}
