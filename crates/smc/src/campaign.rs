//! Statistical campaigns: seeded Bernoulli samples from real flow runs,
//! folded in canonical order into a sequential (or fixed-sample)
//! hypothesis test, with early stopping wired into the shard scheduler.
//!
//! ## Determinism under early stopping
//!
//! Every sample is a pure function of `(spec, index)`: its fault plan and
//! request stream derive from salted SplitMix64 seeds, never from worker
//! state. Workers complete samples out of order, so the coordinator
//! buffers arrivals and folds **only the contiguous canonical prefix**
//! into the test statistic. The decision point `D` is therefore a pure
//! function of the canonical outcome sequence — identical for any
//! `--jobs`. Speculative samples past `D` (the raced tail the scheduler
//! let through before the stop flag flipped) are discarded; they are
//! counted (`issued`, `discarded`) but kept outside the report
//! fingerprint, because *how many* slip through legitimately varies with
//! the worker count.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use faults::scenario::{healthy_ir, run_scenario_observed, ScenarioObs};
use faults::{
    run_fault_unit, DetectionMatrix, EswProgram, FaultPlan, FaultUnitSpec, ShardMatrix,
};
use sctc_campaign::{resolve_jobs, run_shards_until, shard_plan, FlowKind};
use sctc_core::trace;
use sctc_temporal::Verdict;
use stimuli::{derive_seed_salted, Stimulus};

use crate::report::{query_chernoff_bound, SmcReport, SmcVerdict};
use crate::sprt::{SmcDecision, SmcQuery, Sprt};

/// Salt of the per-sample fault-plan stream.
const SMC_PLAN_SALT: u64 = 0x5AC5_0001;
/// Salt of the per-sample request-stimulus stream.
const SMC_REQ_SALT: u64 = 0x5AC5_0002;
/// Salt of the planted-failure coin.
const SMC_PLANT_SALT: u64 = 0x5AC5_0003;
/// Salt of the pool-member pick.
const SMC_POOL_SALT: u64 = 0x5AC5_0004;

/// Where a campaign's Bernoulli outcomes come from. One sample = one full
/// flow run; success = the sample's `G intact` verdict is not `False`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SmcWorkload {
    /// Random fault sessions: sample `i` runs `cases_per_sample`
    /// constrained-random cases under an independently randomized
    /// [`FaultPlan`] (salted by `i`).
    Faults {
        /// The ESW build under test.
        program: EswProgram,
        /// Per-case fault probability, in percent.
        fault_percent: u32,
        /// Random test cases per sample.
        cases_per_sample: u64,
        /// When `Some(k)`, samples draw uniformly from a fixed pool of
        /// `k` plans instead of an unbounded family — the pool is small
        /// enough to run exhaustively, so the true success rate is
        /// computable exactly ([`pool_exhaustive`]) and the campaign's
        /// estimate can be cross-checked against ground truth.
        pool: Option<u64>,
    },
    /// The planted-rate workload: sample `i` flips a seeded coin and runs
    /// the fixed power-cut scenario against either the healthy ESW
    /// (recovers intact — success) or the torn-write mutant (serves a
    /// torn record — failure). The true success probability is exactly
    /// `1 - fail_per_mille / 1000`, which makes the planted rate the
    /// statistical oracle for end-to-end campaign tests.
    PlantedTorn {
        /// Probability of planting the torn mutant, in per-mille.
        fail_per_mille: u32,
    },
}

impl SmcWorkload {
    /// Canonical label (feeds the report fingerprint).
    pub fn label(&self) -> String {
        match self {
            SmcWorkload::Faults {
                program,
                fault_percent,
                cases_per_sample,
                pool,
            } => {
                let program = match program {
                    EswProgram::Healthy => "healthy",
                    EswProgram::TornWrite => "torn-write",
                };
                let pool = pool.map_or("-".to_owned(), |k| k.to_string());
                format!(
                    "faults program={program} pct={fault_percent} cases={cases_per_sample} pool={pool}"
                )
            }
            SmcWorkload::PlantedTorn { fail_per_mille } => {
                format!("planted-torn fail={fail_per_mille}/1000")
            }
        }
    }

    /// Case-index stride between samples in the merged breakdown matrix
    /// (keeps record indices globally unique).
    fn stride(&self) -> u64 {
        match self {
            SmcWorkload::Faults {
                cases_per_sample, ..
            } => (*cases_per_sample).max(1),
            // The scenario script is 7 requests plus recovery probes.
            SmcWorkload::PlantedTorn { .. } => 16,
        }
    }
}

/// How the campaign turns outcomes into a verdict.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SmcMethod {
    /// Wald's sequential test with early stopping (the default): stops at
    /// the first sample whose log-likelihood ratio crosses a threshold.
    Sprt,
    /// Okamoto/Chernoff fixed-sample estimation: always spends the full
    /// `ln(2/alpha) / (2 delta^2)` budget, then compares `p_hat` against
    /// `theta`. The baseline the SPRT's sample savings are measured
    /// against.
    FixedChernoff,
}

impl SmcMethod {
    fn label(self) -> &'static str {
        match self {
            SmcMethod::Sprt => "sprt",
            SmcMethod::FixedChernoff => "chernoff",
        }
    }
}

/// Specification of one statistical model-checking campaign.
#[derive(Copy, Clone, Debug)]
pub struct SmcSpec {
    /// The flow producing the samples.
    pub flow: FlowKind,
    /// The sample source.
    pub workload: SmcWorkload,
    /// The hypothesis-test query `P(G intact) >= theta?`.
    pub query: SmcQuery,
    /// The estimation method.
    pub method: SmcMethod,
    /// Campaign seed; every per-sample stream derives from it.
    pub seed: u64,
    /// Worker threads (`0` = all available cores).
    pub jobs: usize,
    /// Sample budget cap (`0` = the query's Chernoff bound). An SPRT that
    /// has not decided within the budget reports `Undecided`.
    pub max_samples: u64,
    /// Sample bound of the recovery property.
    pub recovery_bound: u64,
    /// Simulation-tick budget per sample.
    pub max_ticks: u64,
    /// Enables the span profiler in every sample.
    pub profile: bool,
}

impl SmcSpec {
    /// The planted-rate campaign: `P(G intact) >= 0.95 ± 0.025?` against
    /// a torn-write mutant planted at `fail_per_mille`, errors
    /// `alpha = beta = 0.05`.
    pub fn planted_torn(flow: FlowKind, fail_per_mille: u32, seed: u64) -> Self {
        SmcSpec {
            flow,
            workload: SmcWorkload::PlantedTorn { fail_per_mille },
            query: SmcQuery::new(0.95, 0.025),
            method: SmcMethod::Sprt,
            seed,
            jobs: 0,
            max_samples: 0,
            recovery_bound: default_recovery_bound(flow),
            max_ticks: u64::MAX / 2,
            profile: false,
        }
    }

    /// A random-fault-session campaign over the healthy ESW.
    pub fn faults(flow: FlowKind, cases_per_sample: u64, seed: u64) -> Self {
        SmcSpec {
            workload: SmcWorkload::Faults {
                program: EswProgram::Healthy,
                fault_percent: 35,
                cases_per_sample,
                pool: None,
            },
            query: SmcQuery::new(0.9, 0.05),
            ..SmcSpec::planted_torn(flow, 0, seed)
        }
    }

    /// Sets the query.
    pub fn with_query(mut self, query: SmcQuery) -> Self {
        self.query = query;
        self
    }

    /// Sets the estimation method.
    pub fn with_method(mut self, method: SmcMethod) -> Self {
        self.method = method;
        self
    }

    /// Sets the worker count (`0` = all available cores).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Caps the sample budget (`0` = the query's Chernoff bound).
    pub fn with_max_samples(mut self, max_samples: u64) -> Self {
        self.max_samples = max_samples;
        self
    }

    /// Swaps the ESW build of a [`SmcWorkload::Faults`] workload.
    ///
    /// # Panics
    ///
    /// Panics on a planted-rate workload (its program choice *is* the
    /// planted coin).
    pub fn with_program(mut self, program: EswProgram) -> Self {
        match &mut self.workload {
            SmcWorkload::Faults { program: p, .. } => *p = program,
            SmcWorkload::PlantedTorn { .. } => {
                panic!("planted-torn workload picks its program per sample")
            }
        }
        self
    }

    /// Sets the per-case fault probability of a [`SmcWorkload::Faults`]
    /// workload, in percent.
    ///
    /// # Panics
    ///
    /// Panics on a planted-rate workload (its fault schedule is the fixed
    /// scripted cut).
    pub fn with_fault_percent(mut self, percent: u32) -> Self {
        match &mut self.workload {
            SmcWorkload::Faults { fault_percent, .. } => *fault_percent = percent,
            SmcWorkload::PlantedTorn { .. } => {
                panic!("planted-torn workload runs a fixed scripted cut")
            }
        }
        self
    }

    /// Restricts a [`SmcWorkload::Faults`] workload to a fixed pool of
    /// `k` plans (see [`pool_exhaustive`]).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or on a planted-rate workload.
    pub fn with_pool(mut self, k: u64) -> Self {
        assert!(k > 0, "pool must have at least one member");
        match &mut self.workload {
            SmcWorkload::Faults { pool, .. } => *pool = Some(k),
            SmcWorkload::PlantedTorn { .. } => {
                panic!("planted-torn workload has no plan pool")
            }
        }
        self
    }

    /// Enables (or disables) the span profiler in every sample.
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// The effective sample budget.
    pub fn sample_budget(&self) -> u64 {
        if self.max_samples > 0 {
            self.max_samples
        } else {
            query_chernoff_bound(&self.query)
        }
    }
}

fn default_recovery_bound(flow: FlowKind) -> u64 {
    match flow {
        FlowKind::Derived => 5_000,
        FlowKind::Microprocessor => 200_000,
    }
}

fn flow_name(flow: FlowKind) -> &'static str {
    match flow {
        FlowKind::Derived => "derived",
        FlowKind::Microprocessor => "micro",
    }
}

/// Grades one sample: success iff the sample's `G intact` verdict is not
/// `False` (a still-`Pending` universal property counts as holding, the
/// same reading the detection matrix uses).
pub fn sample_success(matrix: &ShardMatrix) -> bool {
    matrix
        .properties
        .iter()
        .find(|(name, _)| name == "intact")
        .map(|(_, verdict)| *verdict != Verdict::False)
        .expect("every sample binds the intact property")
}

/// Runs sample `index` of the campaign — a pure function of
/// `(spec, index)`, callable from any worker thread.
pub fn run_sample(spec: &SmcSpec, index: u64) -> ShardMatrix {
    match spec.workload {
        SmcWorkload::Faults {
            program,
            fault_percent,
            cases_per_sample,
            pool,
        } => {
            // In pool mode the whole sample is keyed by the *member*, so
            // exhaustive member runs reproduce exactly what sampling sees.
            let key = match pool {
                Some(k) => {
                    let mut pick =
                        Stimulus::new(derive_seed_salted(spec.seed, SMC_POOL_SALT, index));
                    pick.int_in(0, (k - 1) as i32) as u64
                }
                None => index,
            };
            run_faults_member(spec, program, fault_percent, cases_per_sample, key)
        }
        SmcWorkload::PlantedTorn { fail_per_mille } => {
            let mut coin = Stimulus::new(derive_seed_salted(spec.seed, SMC_PLANT_SALT, index));
            let planted = coin.int_in(0, 999) < fail_per_mille as i32;
            let ir = if planted {
                faults::scenario::torn_write_ir()
            } else {
                healthy_ir()
            };
            let obs = ScenarioObs {
                profile: spec.profile,
                ..ScenarioObs::default()
            };
            let (outcome, report) =
                run_scenario_observed(spec.flow, ir, spec.recovery_bound, obs);
            ShardMatrix {
                start_case: 0,
                test_cases: report.test_cases,
                records: outcome.records,
                properties: outcome.properties,
                monitoring: report.monitoring,
                spans: report.spans,
            }
        }
    }
}

fn run_faults_member(
    spec: &SmcSpec,
    program: EswProgram,
    fault_percent: u32,
    cases_per_sample: u64,
    key: u64,
) -> ShardMatrix {
    let plan = FaultPlan::randomized(spec.seed, SMC_PLAN_SALT, key, cases_per_sample, fault_percent);
    let unit = FaultUnitSpec {
        flow: spec.flow,
        program,
        request_seed: derive_seed_salted(spec.seed, SMC_REQ_SALT, key),
        cases: cases_per_sample,
        recovery_bound: spec.recovery_bound,
        max_ticks: spec.max_ticks,
        profile: spec.profile,
    };
    run_fault_unit(&unit, &plan)
}

/// Runs every member of a pool workload once and returns the per-member
/// success bits — the exact ground truth the sampled estimate converges
/// to (`p = successes / k`).
///
/// # Panics
///
/// Panics unless the spec's workload is [`SmcWorkload::Faults`] with a
/// pool.
pub fn pool_exhaustive(spec: &SmcSpec) -> Vec<bool> {
    let SmcWorkload::Faults {
        program,
        fault_percent,
        cases_per_sample,
        pool: Some(k),
    } = spec.workload
    else {
        panic!("ground truth needs a pooled faults workload")
    };
    (0..k)
        .map(|member| {
            sample_success(&run_faults_member(
                spec,
                program,
                fault_percent,
                cases_per_sample,
                member,
            ))
        })
        .collect()
}

/// The canonical-order fold: buffers out-of-order arrivals and advances
/// the test statistic only along the contiguous index prefix.
struct Fold {
    sprt: Option<Sprt>,
    next: u64,
    pending: BTreeMap<u64, ShardMatrix>,
    accepted: Vec<ShardMatrix>,
    successes: u64,
    decision: Option<SmcDecision>,
}

impl Fold {
    fn new(spec: &SmcSpec) -> Self {
        Fold {
            sprt: match spec.method {
                SmcMethod::Sprt => Some(Sprt::new(spec.query)),
                SmcMethod::FixedChernoff => None,
            },
            next: 0,
            pending: BTreeMap::new(),
            accepted: Vec::new(),
            successes: 0,
            decision: None,
        }
    }

    /// Offers a completed sample; folds as far as the contiguous prefix
    /// allows. Returns `true` once a decision exists.
    fn offer(&mut self, index: u64, matrix: ShardMatrix) -> bool {
        self.pending.insert(index, matrix);
        while self.decision.is_none() {
            let Some(matrix) = self.pending.remove(&self.next) else {
                break;
            };
            self.next += 1;
            let success = sample_success(&matrix);
            if success {
                self.successes += 1;
            }
            self.accepted.push(matrix);
            if let Some(sprt) = &mut self.sprt {
                self.decision = sprt.observe(success);
            }
        }
        self.decision.is_some()
    }
}

/// Runs a statistical campaign: issues seeded samples to the worker pool,
/// folds outcomes in canonical order, stops issuing the moment the
/// sequential test decides, and reduces the accepted prefix into an
/// [`SmcReport`] whose fingerprint is independent of `jobs`.
pub fn run_smc_campaign(spec: &SmcSpec) -> SmcReport {
    let jobs = resolve_jobs(spec.jobs);
    let budget = spec.sample_budget();
    let plan = shard_plan(budget, 1, spec.seed);
    let stop = AtomicBool::new(false);
    let fold = Mutex::new(Fold::new(spec));
    let trace_ctx = trace::current();
    let t0 = Instant::now();
    let slots = run_shards_until(
        &plan,
        jobs,
        |shard| {
            let _trace = trace::adopt(trace_ctx);
            let matrix = run_sample(spec, shard.index);
            let mut guard = fold.lock().expect("fold lock");
            let before = guard.next;
            let decided = guard.offer(shard.index, matrix);
            let (folded, successes) = (guard.next, guard.successes);
            drop(guard);
            // Telemetry: `folded` only moves forward under the fold lock,
            // and the progress bus is itself monotone, so streamed sample
            // counts never regress even when workers race here.
            if folded > before {
                trace::emit(
                    "sprt.advance",
                    &[("folded", folded), ("successes", successes)],
                );
                trace::progress(folded, budget);
            }
            if decided {
                stop.store(true, Ordering::Relaxed);
            }
        },
        || stop.load(Ordering::Relaxed),
    );
    let wall = t0.elapsed();
    let issued = slots.iter().filter(|slot| slot.is_some()).count() as u64;
    let fold = fold.into_inner().expect("fold lock");

    let samples = fold.accepted.len() as u64;
    let verdict = match (spec.method, fold.decision) {
        (_, Some(SmcDecision::Holds)) => SmcVerdict::Holds,
        (_, Some(SmcDecision::Fails)) => SmcVerdict::Fails,
        (SmcMethod::Sprt, None) => SmcVerdict::Undecided,
        (SmcMethod::FixedChernoff, None) => {
            if samples > 0 && fold.successes as f64 / samples as f64 >= spec.query.theta {
                SmcVerdict::Holds
            } else {
                SmcVerdict::Fails
            }
        }
    };

    let stride = spec.workload.stride();
    let mut shards = fold.accepted;
    for (i, shard) in shards.iter_mut().enumerate() {
        shard.start_case = i as u64 * stride;
    }
    let matrix = DetectionMatrix::merge(flow_name(spec.flow), samples * stride, shards);

    SmcReport {
        flow: flow_name(spec.flow).to_owned(),
        workload: spec.workload.label(),
        query: spec.query,
        method: spec.method.label().to_owned(),
        verdict,
        samples,
        successes: fold.successes,
        chernoff_bound: query_chernoff_bound(&spec.query),
        matrix,
        jobs,
        issued,
        discarded: issued - samples,
        wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_pure_functions_of_spec_and_index() {
        let spec = SmcSpec::faults(FlowKind::Derived, 4, 11);
        let a = run_sample(&spec, 5);
        let b = run_sample(&spec, 5);
        assert_eq!(a.records, b.records);
        assert_eq!(a.properties, b.properties);
        assert_eq!(a.test_cases, b.test_cases);
    }

    #[test]
    fn planted_coin_rate_tracks_the_per_mille_knob() {
        let spec = SmcSpec::planted_torn(FlowKind::Derived, 250, 42);
        let SmcWorkload::PlantedTorn { fail_per_mille } = spec.workload else {
            unreachable!()
        };
        let mut planted = 0u32;
        let n = 4_000;
        for index in 0..n {
            let mut coin =
                Stimulus::new(derive_seed_salted(spec.seed, SMC_PLANT_SALT, index));
            if coin.int_in(0, 999) < fail_per_mille as i32 {
                planted += 1;
            }
        }
        let rate = f64::from(planted) / f64::from(n as u32);
        assert!(
            (rate - 0.25).abs() < 0.03,
            "planted rate {rate} strays from 0.25"
        );
    }

    #[test]
    fn fold_accepts_only_the_canonical_prefix() {
        let spec = SmcSpec::planted_torn(FlowKind::Derived, 0, 1).with_max_samples(8);
        // All-success samples against theta=0.95: Holds after ~115 samples
        // — no decision within 3, so the fold just orders them.
        let mut fold = Fold::new(&spec);
        let s2 = run_sample(&spec, 2);
        let s0 = run_sample(&spec, 0);
        let s1 = run_sample(&spec, 1);
        assert!(!fold.offer(2, s2));
        assert_eq!(fold.accepted.len(), 0, "gap at 0 blocks the fold");
        assert!(!fold.offer(0, s0));
        assert_eq!(fold.accepted.len(), 1);
        assert!(!fold.offer(1, s1));
        assert_eq!(fold.accepted.len(), 3, "prefix drains once contiguous");
        assert_eq!(fold.successes, 3);
    }
}
