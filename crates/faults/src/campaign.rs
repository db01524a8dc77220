//! Sharded fault campaigns over both verification flows.
//!
//! Reuses the campaign crate's deterministic shard planning and worker
//! pool: the global [`FaultPlan`] is generated once from the campaign seed
//! and sliced per shard, so the merged [`DetectionMatrix`] — fingerprint
//! included — is a pure function of `(flow, cases, chunk, seed, percent)`
//! and bit-identical for any `--jobs` value.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use eee::{build_ir, share_flash, DataFlash, FlashMemory, FlashMmio, FlashReadWindow};
use eee::{FLASH_READ_BASE, FLASH_READ_LEN, FLASH_REG_BASE, FLASH_REG_LEN};
use minic::codegen::{compile, CodegenOptions};
use minic::{Interp, SharedInterp};
use sctc_campaign::{default_chunk, resolve_jobs, run_shards, shard_plan, FlowKind, ShardSpec};
use sctc_core::{esw, sym, trace, DerivedModelFlow, MicroprocessorFlow, Proposition};
use sctc_cpu::SharedSoc;
use sctc_temporal::{parse, Formula};

use crate::matrix::{DetectionMatrix, ShardMatrix};
use crate::plan::FaultPlan;
use crate::session::{FaultInterpDriver, FaultSession, FaultSocDriver};

/// Specification of one fault-injection campaign.
#[derive(Clone, Debug)]
pub struct FaultCampaignSpec {
    /// The flow to run.
    pub flow: FlowKind,
    /// Total planned test cases (recovery cases come on top).
    pub cases: u64,
    /// Campaign seed: shard request seeds and the fault plan derive from
    /// it.
    pub seed: u64,
    /// Worker threads (`0` = all available cores).
    pub jobs: usize,
    /// Cases per shard (`0` = [`default_chunk`]).
    pub chunk: u64,
    /// Per-case fault probability, in percent.
    pub fault_percent: u32,
    /// Sample bound of the recovery property `G (reset -> F[<=b]
    /// initialized)` — statements for the derived flow, clock cycles for
    /// the microprocessor flow.
    pub recovery_bound: u64,
    /// Simulation-tick budget per shard.
    pub max_ticks: u64,
    /// Enables the span profiler in every shard; timings are merged into
    /// [`DetectionMatrix::spans`], outside the fingerprint.
    pub profile: bool,
}

impl FaultCampaignSpec {
    /// A derived-flow fault campaign: statement-granular sampling, 35% of
    /// the cases faulted.
    pub fn derived(cases: u64, seed: u64) -> Self {
        FaultCampaignSpec {
            flow: FlowKind::Derived,
            cases,
            seed,
            jobs: 0,
            chunk: 0,
            fault_percent: 35,
            recovery_bound: 5_000,
            max_ticks: u64::MAX / 2,
            profile: false,
        }
    }

    /// A microprocessor-flow fault campaign; the recovery bound is in
    /// clock cycles, so it is far larger than the derived one.
    pub fn micro(cases: u64, seed: u64) -> Self {
        FaultCampaignSpec {
            flow: FlowKind::Microprocessor,
            recovery_bound: 200_000,
            ..FaultCampaignSpec::derived(cases, seed)
        }
    }

    /// Sets the worker count (`0` = all available cores).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the shard chunk size (`0` = [`default_chunk`]).
    pub fn with_chunk(mut self, chunk: u64) -> Self {
        self.chunk = chunk;
        self
    }

    /// Sets the per-case fault probability in percent.
    pub fn with_fault_percent(mut self, percent: u32) -> Self {
        self.fault_percent = percent;
        self
    }

    /// Enables (or disables) the span profiler in every shard.
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }
}

/// Result of a fault campaign.
#[derive(Clone, Debug)]
pub struct FaultCampaignReport {
    /// Worker threads used.
    pub jobs: usize,
    /// Campaign wall-clock.
    pub wall: Duration,
    /// The merged detection/recovery matrix.
    pub matrix: DetectionMatrix,
}

/// The recovery property: every reset is followed by a re-initialized
/// emulation within `bound` samples.
pub fn recovery_property(bound: u64) -> Formula {
    parse(&format!("G (reset -> F[<={bound}] initialized)"))
        .expect("recovery property template parses")
}

/// The torn-write property: the served read value is never the erased
/// marker, i.e. no half-programmed record is ever handed to the
/// application.
pub fn intact_property() -> Formula {
    parse("G intact").expect("intact property template parses")
}

/// Binds `reset`/`initialized`/`intact` against the derived model.
pub fn bind_recovery_derived(interp: &SharedInterp) -> [Vec<Box<dyn Proposition>>; 2] {
    [
        vec![
            esw::global_nonzero("reset", interp.clone(), "tb_reset"),
            esw::global_nonzero("initialized", interp.clone(), "eee_ready"),
        ],
        vec![esw::global_ne(
            "intact",
            interp.clone(),
            "eee_read_value",
            -1,
        )],
    ]
}

/// Binds `reset`/`initialized`/`intact` against the microprocessor model.
/// The observed globals — `tb_reset`, `eee_ready`, `eee_read_value` — are
/// resolved by name through the memory's attached symbol map; the resolved
/// atoms (and all campaign fingerprints) match the former address-based
/// binding exactly.
pub fn bind_recovery_micro(soc: &SharedSoc) -> [Vec<Box<dyn Proposition>>; 2] {
    [
        vec![
            sym::word_nonzero("reset", soc.clone(), "tb_reset"),
            sym::word_nonzero("initialized", soc.clone(), "eee_ready"),
        ],
        vec![sym::word_ne(
            "intact",
            soc.clone(),
            "eee_read_value",
            (-1i32) as u32,
        )],
    ]
}

fn flow_name(flow: FlowKind) -> &'static str {
    match flow {
        FlowKind::Derived => "derived",
        FlowKind::Microprocessor => "micro",
    }
}

/// Runs a fault campaign: plans shards and the fault schedule up front,
/// fans the shards out over the worker pool, merges the matrices.
pub fn run_fault_campaign(spec: &FaultCampaignSpec) -> FaultCampaignReport {
    let jobs = resolve_jobs(spec.jobs);
    let chunk = if spec.chunk > 0 {
        spec.chunk
    } else {
        default_chunk(spec.cases)
    };
    let plan = shard_plan(spec.cases, chunk, spec.seed);
    let fault_plan = FaultPlan::generate(spec.seed, spec.cases, spec.fault_percent);
    let trace_ctx = trace::current();
    let shards_done = AtomicU64::new(0);
    let total_shards = plan.len() as u64;
    let t0 = Instant::now();
    let outcomes = run_shards(&plan, jobs, |shard| {
        let _trace = trace::adopt(trace_ctx);
        trace::emit(
            "shard.dispatch",
            &[("shard", shard.index), ("cases", shard.cases)],
        );
        let local = fault_plan.for_shard(shard.start_case, shard.cases);
        let matrix = run_fault_shard(spec, shard, &local);
        let done = shards_done.fetch_add(1, Ordering::Relaxed) + 1;
        trace::emit("shard.done", &[("shard", shard.index), ("cases", shard.cases)]);
        trace::progress(done, total_shards);
        matrix
    });
    FaultCampaignReport {
        jobs,
        wall: t0.elapsed(),
        matrix: DetectionMatrix::merge(flow_name(spec.flow), spec.cases, outcomes),
    }
}

fn run_fault_shard(
    spec: &FaultCampaignSpec,
    shard: &ShardSpec,
    local_plan: &FaultPlan,
) -> ShardMatrix {
    let unit = FaultUnitSpec {
        flow: spec.flow,
        program: EswProgram::Healthy,
        request_seed: shard.seed,
        cases: shard.cases,
        recovery_bound: spec.recovery_bound,
        max_ticks: spec.max_ticks,
        profile: spec.profile,
    };
    let mut matrix = run_fault_unit(&unit, local_plan);
    matrix.start_case = shard.start_case;
    matrix
}

/// Which ESW build a fault unit exercises.
///
/// The torn-write mutant ([`crate::scenario::torn_write_ir`]) programs the
/// record tag before the value, so a power loss between the two flash
/// programs leaves a *visible* record with an erased value — the planted
/// bug that statistical campaigns quantify (`P(G intact)` drops below 1
/// exactly as often as a random cut lands in that window).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum EswProgram {
    /// The in-tree, correct EEPROM emulation.
    #[default]
    Healthy,
    /// The tag-before-value mutant that can serve torn writes.
    TornWrite,
}

impl EswProgram {
    fn ir(self) -> std::rc::Rc<minic::ir::IrProgram> {
        match self {
            EswProgram::Healthy => build_ir(),
            EswProgram::TornWrite => crate::scenario::torn_write_ir(),
        }
    }
}

/// One self-contained fault-session run: a campaign shard, or one sample
/// of a statistical campaign. `Send`-safe by construction (the `!Send`
/// flow is built inside [`run_fault_unit`]), so worker threads can build
/// units freely.
#[derive(Copy, Clone, Debug)]
pub struct FaultUnitSpec {
    /// The flow to run.
    pub flow: FlowKind,
    /// The ESW build under test.
    pub program: EswProgram,
    /// Seed of the request stimulus stream.
    pub request_seed: u64,
    /// Planned test cases (recovery cases come on top).
    pub cases: u64,
    /// Sample bound of the recovery property.
    pub recovery_bound: u64,
    /// Simulation-tick budget.
    pub max_ticks: u64,
    /// Enables the span profiler.
    pub profile: bool,
}

/// Runs one fault-session unit against `plan` and reduces it to a
/// [`ShardMatrix`] (with `start_case = 0`; campaign callers rebase it).
/// This is the shared execution path of the sharded fault campaign and
/// the SMC sampler — both produce matrices through the exact same flow
/// construction, property binding, and record plumbing.
pub fn run_fault_unit(unit: &FaultUnitSpec, plan: &FaultPlan) -> ShardMatrix {
    match unit.flow {
        FlowKind::Derived => run_derived_unit(unit, plan),
        FlowKind::Microprocessor => run_micro_unit(unit, plan),
    }
}

fn run_derived_unit(unit: &FaultUnitSpec, plan: &FaultPlan) -> ShardMatrix {
    let flash = share_flash(DataFlash::new());
    let interp = Interp::new(unit.program.ir(), Box::new(FlashMemory::new(flash.clone())));
    let mut flow = DerivedModelFlow::new(interp);
    if unit.profile {
        let _ = flow.enable_profiler();
    }
    let handle = flow.interp();
    let [recovery_props, intact_props] = bind_recovery_derived(&handle);
    flow.add_property(
        "recovery",
        &recovery_property(unit.recovery_bound),
        recovery_props,
    )
    .expect("recovery property binds by construction");
    flow.add_property("intact", &intact_property(), intact_props)
        .expect("intact property binds by construction");
    let session = FaultSession::from_plan(unit.request_seed, unit.cases, plan, flash);
    let records = session.records_handle();
    let report = flow
        .run(Box::new(FaultInterpDriver::new(session)), unit.max_ticks)
        .expect("derived fault unit runs without scheduler errors");
    ShardMatrix {
        start_case: 0,
        test_cases: report.test_cases,
        records: records.take(),
        properties: report
            .properties
            .iter()
            .map(|p| (p.name.clone(), p.verdict))
            .collect(),
        monitoring: report.monitoring,
        spans: report.spans,
    }
}

fn run_micro_unit(unit: &FaultUnitSpec, plan: &FaultPlan) -> ShardMatrix {
    let ir = unit.program.ir();
    let compiled = compile(&ir, CodegenOptions::default()).expect("EEE program compiles");
    let addrs = eee::driver::MailboxAddrs::from_compiled(&compiled);
    // The driver still pokes these mailbox words by raw address.
    let tb_reset = compiled.global_addr("tb_reset");
    let eee_read_value = compiled.global_addr("eee_read_value");
    let flash = share_flash(DataFlash::new());

    let mut flow = MicroprocessorFlow::new(compiled, 0x0004_0000, 10);
    if unit.profile {
        let _ = flow.enable_profiler();
    }
    flow.set_flag_global("flag");
    {
        let soc = flow.soc();
        let mut soc = soc.borrow_mut();
        soc.mem.map_device(
            FLASH_REG_BASE,
            FLASH_REG_LEN,
            Box::new(FlashMmio::new(flash.clone())),
        );
        soc.mem.map_device(
            FLASH_READ_BASE,
            FLASH_READ_LEN,
            Box::new(FlashReadWindow::new(flash.clone())),
        );
    }
    let soc = flow.soc();
    let [recovery_props, intact_props] = bind_recovery_micro(&soc);
    flow.add_property(
        "recovery",
        &recovery_property(unit.recovery_bound),
        recovery_props,
    )
    .expect("recovery property binds by construction");
    flow.add_property("intact", &intact_property(), intact_props)
        .expect("intact property binds by construction");
    let session = FaultSession::from_plan(unit.request_seed, unit.cases, plan, flash);
    let records = session.records_handle();
    let driver = FaultSocDriver::new(session, addrs, tb_reset, eee_read_value);
    let report = flow
        .run(Box::new(driver), unit.max_ticks)
        .expect("microprocessor fault unit runs without scheduler errors");
    ShardMatrix {
        start_case: 0,
        test_cases: report.test_cases,
        records: records.take(),
        properties: report
            .properties
            .iter()
            .map(|p| (p.name.clone(), p.verdict))
            .collect(),
        monitoring: report.monitoring,
        spans: report.spans,
    }
}
