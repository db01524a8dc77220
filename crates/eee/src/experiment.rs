//! Assembled end-to-end experiments over the case study — the building
//! blocks of the paper's Fig. 8 table.

use std::cell::RefCell;
use std::rc::Rc;

use minic::codegen::{compile, CodegenOptions};
use minic::Interp;
use sctc_core::{DerivedModelFlow, MicroprocessorFlow, RunReport};
use sctc_cpu::IsaKind;
use sctc_temporal::Verdict;

use crate::driver::{coverage_for_ops, EeeInterpDriver, EeePlan, EeeSocDriver, MailboxAddrs};
use crate::flash::{
    share_flash, DataFlash, FlashMemory, FlashMmio, FlashReadWindow, FLASH_READ_BASE,
    FLASH_READ_LEN, FLASH_REG_BASE, FLASH_REG_LEN,
};
use crate::ops::Op;
use crate::properties::{bind_derived, bind_micro, response_property};
use crate::source::build_ir;

/// Configuration of one experiment run.
#[derive(Copy, Clone, Debug)]
pub struct ExperimentConfig {
    /// Random seed of the constrained-random testbench.
    pub seed: u64,
    /// Number of test cases (paper: up to 10^5 / 10^6; scale down locally).
    pub cases: u64,
    /// Time bound of the properties (`None` = pure LTL, "No-TB").
    pub bound: Option<u64>,
    /// Flash-fault injection probability per case, in percent.
    pub fault_percent: u32,
    /// Instruction encoding of the microprocessor flow (ignored by the
    /// derived flow). Verdicts and coverage are encoding-independent; only
    /// cycle counts differ.
    pub isa: IsaKind,
    /// Simulation-tick budget (statements or clock ticks).
    pub max_ticks: u64,
    /// Enables the span profiler on the flow: phase timings land in
    /// [`RunReport::spans`], outside all fingerprints.
    pub profile: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            seed: 20080310, // DATE'08 session date, for flavour
            cases: 100,
            bound: Some(1000),
            fault_percent: 10,
            isa: IsaKind::Word32,
            max_ticks: u64::MAX / 2,
            profile: false,
        }
    }
}

/// Outcome of one experiment run.
#[derive(Clone, Debug)]
pub struct ExperimentOutcome {
    /// The flow's run report (verdicts, times, kernel stats).
    pub report: RunReport,
    /// Return-code coverage per operation, in percent.
    pub coverage: Vec<(Op, f64)>,
    /// The full coverage collector (which distinct return codes were seen);
    /// campaign runners merge these across shards, which percentages alone
    /// cannot express.
    pub coverage_table: stimuli::ReturnCoverage,
    /// Mean coverage over all operations.
    pub overall_coverage: f64,
    /// Properties whose monitor reported a violation (must stay empty —
    /// the paper observed no false negatives/positives).
    pub violations: Vec<String>,
    /// Interpreter traps / CPU faults (must stay empty).
    pub anomalies: Vec<String>,
}

impl ExperimentOutcome {
    fn collect(
        report: RunReport,
        coverage: &crate::driver::SharedCoverage,
        anomalies: Vec<String>,
    ) -> Self {
        let cov = coverage.borrow();
        let per_op: Vec<(Op, f64)> = Op::ALL
            .into_iter()
            .map(|op| (op, cov.percent(&op.to_string())))
            .collect();
        let overall = cov.overall_percent();
        let violations = report
            .properties
            .iter()
            .filter(|p| p.verdict == Verdict::False)
            .map(|p| p.name.clone())
            .collect();
        ExperimentOutcome {
            report,
            coverage: per_op,
            coverage_table: cov.clone(),
            overall_coverage: overall,
            violations,
            anomalies,
        }
    }

    /// Coverage of a single operation in percent.
    ///
    /// # Panics
    ///
    /// Panics if the operation is missing from the table (cannot happen for
    /// outcomes produced by this module).
    pub fn coverage_of(&self, op: Op) -> f64 {
        self.coverage
            .iter()
            .find(|(o, _)| *o == op)
            .map(|(_, c)| *c)
            .expect("all operations are covered by construction")
    }
}

/// Runs the case study under the **derived-model flow** (approach 2) with
/// the full property set.
pub fn run_derived(config: ExperimentConfig) -> ExperimentOutcome {
    run_derived_with_ops(config, &Op::ALL)
}

/// Derived-model flow with a single property (per-property timing, as the
/// paper's Fig. 8 reports).
pub fn run_derived_single(op: Op, config: ExperimentConfig) -> ExperimentOutcome {
    run_derived_with_ops(config, &[op])
}

/// Derived-model flow with an explicit property subset.
pub fn run_derived_with_ops(config: ExperimentConfig, ops: &[Op]) -> ExperimentOutcome {
    let flash = share_flash(DataFlash::new());
    let interp = Interp::new(build_ir(), Box::new(FlashMemory::new(flash.clone())));
    let mut flow = DerivedModelFlow::new(interp);
    if config.profile {
        let _ = flow.enable_profiler();
    }
    let handle = flow.interp();
    for &op in ops {
        flow.add_property(
            &op.to_string(),
            &response_property(op, config.bound),
            bind_derived(op, &handle),
        )
        .expect("EEE properties bind by construction");
    }
    let coverage = coverage_for_ops();
    let traps = Rc::new(RefCell::new(Vec::new()));
    let driver = EeeInterpDriver::new(
        EeePlan::new(config.seed, config.cases).with_fault_percent(config.fault_percent),
        flash,
        coverage.clone(),
        traps.clone(),
    );
    let report = flow
        .run(Box::new(driver), config.max_ticks)
        .expect("derived flow runs without scheduler errors");
    let anomalies = traps.borrow().clone();
    ExperimentOutcome::collect(report, &coverage, anomalies)
}

/// Runs the case study under the **microprocessor flow** (approach 1) with
/// the full property set.
pub fn run_micro(config: ExperimentConfig) -> ExperimentOutcome {
    run_micro_with_ops(config, &Op::ALL)
}

/// Microprocessor flow with a single property.
pub fn run_micro_single(op: Op, config: ExperimentConfig) -> ExperimentOutcome {
    run_micro_with_ops(config, &[op])
}

/// Microprocessor flow with an explicit property subset.
pub fn run_micro_with_ops(config: ExperimentConfig, ops: &[Op]) -> ExperimentOutcome {
    let ir = build_ir();
    let compiled = compile(
        &ir,
        CodegenOptions {
            isa: config.isa,
            ..CodegenOptions::default()
        },
    )
    .expect("EEE program compiles");
    let addrs = MailboxAddrs::from_compiled(&compiled);
    let flash = share_flash(DataFlash::new());

    let mut flow = MicroprocessorFlow::new(compiled, 0x0004_0000, 10);
    if config.profile {
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
    for &op in ops {
        let props = bind_micro(op, &soc, flow.compiled());
        flow.add_property(&op.to_string(), &response_property(op, config.bound), props)
            .expect("EEE properties bind by construction");
    }
    let coverage = coverage_for_ops();
    let faults = Rc::new(RefCell::new(Vec::new()));
    let driver = EeeSocDriver::new(
        EeePlan::new(config.seed, config.cases).with_fault_percent(config.fault_percent),
        flash,
        coverage.clone(),
        addrs,
        faults.clone(),
    );
    let report = flow
        .run(Box::new(driver), config.max_ticks)
        .expect("microprocessor flow runs without scheduler errors");
    let anomalies = faults.borrow().clone();
    ExperimentOutcome::collect(report, &coverage, anomalies)
}
