//! The two end-to-end verification flows of the paper.
//!
//! * [`MicroprocessorFlow`] — approach 1: the embedded software (compiled
//!   mini-C) runs on the [`sctc_cpu`] core; the ESW monitor observes its
//!   variables in memory using the processor clock as timing reference.
//! * [`DerivedModelFlow`] — approach 2: the derived software model (the
//!   statement-stepped interpreter) runs directly in the kernel; the checker
//!   triggers on the program-counter event, one statement per time step.
//!
//! Both flows run a sequence of test cases supplied by a driver and report a
//! [`RunReport`] with per-property verdicts, simulation/wall times and
//! scheduler statistics.

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;
use std::time::Instant;

use minic::codegen::CompiledProgram;
use minic::{share_interp, DerivedEsw, DerivedEswHandles, ExecState, Interp, SharedInterp};
use sctc_cpu::{share, Cpu, SharedSoc, Soc};
use sctc_obs::{SharedProfiler, SpanProfiler, SpanStats, VcdDoc, Witness, WitnessConfig};
use sctc_sim::{
    Activation, Duration, KernelStats, Notify, Process, ProcessContext, RunError, SimTime,
    Simulation,
};
use sctc_temporal::Formula;

use crate::checker::{share_sctc, MonitorCounters, PropertyResult, Sctc, SctcError, SctcProcess};
use crate::esw_monitor::EswMonitor;
use crate::proposition::Proposition;

/// Outcome of one flow run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Per-property verdicts.
    pub properties: Vec<PropertyResult>,
    /// Final simulation time in ticks.
    pub sim_ticks: u64,
    /// Wall-clock time of the run itself. AR-automaton synthesis happens at
    /// property registration, **before** the run starts, and is excluded —
    /// it is measured separately as `synthesis_wall`. Use
    /// [`RunReport::total_wall`] for the paper's V.T. (run + synthesis).
    pub wall: std::time::Duration,
    /// Wall-clock time spent registering properties (dominated by
    /// AR-automaton synthesis; near zero on synthesis-cache hits).
    pub synthesis_wall: std::time::Duration,
    /// Scheduler statistics.
    pub kernel: KernelStats,
    /// Checker samples taken.
    pub samples: u64,
    /// Test cases completed.
    pub test_cases: u64,
    /// How the simulation ended.
    pub stopped_early: bool,
    /// Change-driven monitoring work counters (see
    /// [`MonitorCounters`]); zero when no property is registered.
    pub monitoring: MonitorCounters,
    /// Hierarchical span-profiler aggregates; empty unless the flow's
    /// profiler was enabled. Outside every fingerprint, like
    /// `monitoring`.
    pub spans: SpanStats,
    /// Counterexample witnesses captured during the run; empty unless
    /// witness extraction was enabled.
    pub witnesses: Vec<Witness>,
    /// Property-timeline waveform; `None` unless VCD capture was enabled.
    pub vcd: Option<VcdDoc>,
}

impl RunReport {
    /// Total verification time: run wall-clock plus registration-time
    /// AR-automaton synthesis (the paper's V.T. column).
    pub fn total_wall(&self) -> std::time::Duration {
        self.wall + self.synthesis_wall
    }
}

/// Test-case driver for the microprocessor flow.
///
/// The harness restarts the processor (fresh register state, same memory and
/// devices) for every case, modelling back-to-back operation requests against
/// persistent hardware state.
pub trait SocDriver {
    /// Called when a case finished (the core halted); observe outputs.
    fn case_finished(&mut self, soc: &mut Soc);

    /// Prepare the next case (poke inputs into memory / devices). Return
    /// `false` to end the run.
    fn next_case(&mut self, soc: &mut Soc) -> bool;

    /// Polled after every clock cycle: return `true` to cut power now.
    /// The harness then restores RAM to its pristine boot image, resets the
    /// CPU to the reset vector and clears any CPU fault — devices keep
    /// their state, so non-volatile hardware (e.g. flash) persists. The
    /// interrupted case is **not** counted and `case_finished` is not
    /// called for it. Must be cheap; the default never cuts.
    fn power_cut(&mut self, soc: &Soc) -> bool {
        let _ = soc;
        false
    }

    /// Called after a power cut, once RAM and CPU have been reinitialised
    /// and before the next case is requested. Use it to model the
    /// testbench's view of the reset (e.g. raise a reset observation flag).
    fn power_restored(&mut self, soc: &mut Soc) {
        let _ = soc;
    }
}

/// Test-case driver for the derived-model flow.
pub trait InterpDriver {
    /// Called when a case finished; observe outputs (e.g. return value).
    fn case_finished(&mut self, interp: &mut Interp);

    /// Prepare and **start** the next activation (`start_call`/`start_main`,
    /// set globals, inject faults). Return `false` to end the run.
    fn next_case(&mut self, interp: &mut Interp) -> bool;

    /// Whether the flow should spawn a power guard polling
    /// [`InterpDriver::power_cut`] after every statement. The default is
    /// `false`, which keeps fault-free runs free of per-statement overhead.
    fn wants_power_hook(&self) -> bool {
        false
    }

    /// Polled after every executed statement (when
    /// [`InterpDriver::wants_power_hook`] is `true`): return `true` to cut
    /// power now. The flow then resets the interpreter — globals back to
    /// their initialisers, the call stack discarded — while the memory
    /// model (and with it any non-volatile device behind it) is left
    /// untouched. The interrupted case is **not** counted and
    /// `case_finished` is not called for it.
    fn power_cut(&mut self, interp: &Interp) -> bool {
        let _ = interp;
        false
    }

    /// Called right after a power cut reset the interpreter, before the
    /// next case is requested.
    fn power_restored(&mut self, interp: &mut Interp) {
        let _ = interp;
    }
}

/// Approach 1: verification on the microprocessor model.
///
/// See the crate docs for an end-to-end example.
pub struct MicroprocessorFlow {
    sim: Simulation,
    soc: SharedSoc,
    clock: sctc_sim::Clock,
    sctc: crate::checker::SharedSctc,
    compiled: CompiledProgram,
    synthesis_wall: std::time::Duration,
    max_cycles_per_case: u64,
    flag_addr: Option<u32>,
    profiler: Option<SharedProfiler>,
}

impl MicroprocessorFlow {
    /// Builds the flow: memory image, SoC, clock.
    pub fn new(compiled: CompiledProgram, ram_bytes: u32, clock_period: u64) -> Self {
        let mem = compiled.build_memory(ram_bytes);
        let mut soc = Soc::new(mem);
        // The core must fetch in the encoding the program was serialised
        // with; resets inside the harness preserve it (`Soc::reset_cpu`).
        soc.cpu = Cpu::with_isa(0, compiled.isa());
        let soc = share(soc);
        let mut sim = Simulation::new();
        let clock = sim.create_clock("clk", Duration::from_ticks(clock_period));
        MicroprocessorFlow {
            sim,
            soc,
            clock,
            sctc: share_sctc(Sctc::new()),
            compiled,
            synthesis_wall: std::time::Duration::ZERO,
            max_cycles_per_case: 1_000_000,
            flag_addr: None,
            profiler: None,
        }
    }

    /// Enables the hierarchical span profiler (simulate / sample /
    /// automaton-step / synthesis); aggregates land in
    /// [`RunReport::spans`]. Returns the handle for external spans.
    pub fn enable_profiler(&mut self) -> SharedProfiler {
        let profiler = SpanProfiler::shared();
        self.sctc.borrow_mut().set_profiler(profiler.clone());
        self.profiler = Some(profiler.clone());
        profiler
    }

    /// Enables counterexample-witness extraction; witnesses land in
    /// [`RunReport::witnesses`]. Call before registering properties.
    pub fn enable_witnesses(&mut self, cfg: WitnessConfig) {
        self.sctc.borrow_mut().enable_witnesses(cfg);
    }

    /// Enables property-timeline VCD capture; the waveform lands in
    /// [`RunReport::vcd`]. Call before registering properties.
    pub fn enable_vcd(&mut self) {
        self.sctc.borrow_mut().enable_vcd();
    }

    /// Uses an explicit software `flag` global for the initialisation
    /// handshake (paper Fig. 3). By default the reserved `__fname` word is
    /// used: it becomes non-zero as soon as the software enters `main`.
    pub fn set_flag_global(&mut self, name: &str) {
        self.flag_addr = Some(self.compiled.global_addr(name));
    }

    /// Limits the instructions executed per test case (runaway guard).
    pub fn set_max_cycles_per_case(&mut self, cycles: u64) {
        self.max_cycles_per_case = cycles;
    }

    /// Returns the shared SoC (to map devices or inspect memory).
    pub fn soc(&self) -> SharedSoc {
        self.soc.clone()
    }

    /// Returns the compiled program's symbol information.
    pub fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }

    /// Registers a property over memory propositions.
    ///
    /// # Errors
    ///
    /// See [`SctcError`].
    pub fn add_property(
        &mut self,
        name: &str,
        formula: &Formula,
        props: Vec<Box<dyn Proposition>>,
    ) -> Result<(), SctcError> {
        let _span = SpanProfiler::maybe_enter(&self.profiler, "synthesis");
        let t0 = Instant::now();
        let result = self.sctc.borrow_mut().add_property(name, formula, props);
        self.synthesis_wall += t0.elapsed();
        result
    }

    /// Runs test cases until the driver declines or `max_ticks` elapse.
    ///
    /// # Errors
    ///
    /// Propagates kernel scheduling errors.
    pub fn run(
        mut self,
        driver: Box<dyn SocDriver>,
        max_ticks: u64,
    ) -> Result<RunReport, RunError> {
        let wall0 = Instant::now();
        let cases = Rc::new(Cell::new(0u64));

        // Harness: executes instructions on the clock and rotates test
        // cases on halt. Spawned before the monitor so the monitor samples
        // post-execution state within the same cycle.
        struct Harness {
            soc: SharedSoc,
            driver: Box<dyn SocDriver>,
            cases: Rc<Cell<u64>>,
            budget: u64,
            cycles_in_case: u64,
            primed: bool,
            pristine_ram: Vec<u8>,
        }
        impl Process for Harness {
            fn resume(&mut self, ctx: &mut ProcessContext<'_>) -> Activation {
                let mut soc = self.soc.borrow_mut();
                if !self.primed {
                    self.primed = true;
                    if !self.driver.next_case(&mut soc) {
                        ctx.stop();
                        return Activation::Terminate;
                    }
                }
                let halted = soc.cpu.is_halted() || soc.fault.is_some();
                if halted || self.cycles_in_case >= self.budget {
                    self.cases.set(self.cases.get() + 1);
                    self.driver.case_finished(&mut soc);
                    if self.driver.next_case(&mut soc) {
                        soc.reset_cpu();
                        self.cycles_in_case = 0;
                    } else {
                        ctx.stop();
                        return Activation::Terminate;
                    }
                }
                soc.cycle();
                self.cycles_in_case += 1;
                if self.driver.power_cut(&soc) {
                    // Power loss: RAM contents vanish (back to the boot
                    // image), the CPU restarts at the reset vector; mapped
                    // devices keep their state. The interrupted case is not
                    // counted and does not see `case_finished`.
                    soc.mem.restore_ram(&self.pristine_ram);
                    soc.reset_cpu();
                    self.cycles_in_case = 0;
                    self.driver.power_restored(&mut soc);
                    if !self.driver.next_case(&mut soc) {
                        ctx.stop();
                        return Activation::Terminate;
                    }
                }
                Activation::WaitStatic
            }
        }
        let pristine_ram = self.soc.borrow().mem.snapshot_ram();
        self.sim.spawn_deferred(
            "harness",
            Box::new(Harness {
                soc: self.soc.clone(),
                driver,
                cases: cases.clone(),
                budget: self.max_cycles_per_case,
                cycles_in_case: 0,
                primed: false,
                pristine_ram,
            }),
            vec![self.clock.posedge()],
        );
        let flag_addr = self.flag_addr.unwrap_or(self.compiled.fname_addr);
        EswMonitor::spawn(
            &mut self.sim,
            self.clock.posedge(),
            self.soc.clone(),
            self.sctc.clone(),
            flag_addr,
        );

        let outcome = {
            let _span = SpanProfiler::maybe_enter(&self.profiler, "simulate");
            self.sim.run_until(SimTime::from_ticks(max_ticks))?
        };
        let stopped_early = outcome == sctc_sim::RunOutcome::TimeLimit;
        let (properties, samples, monitoring, witnesses, vcd) = {
            let mut sctc = self.sctc.borrow_mut();
            sctc.flush_spans();
            let properties = sctc.results();
            let witnesses = sctc.take_witnesses();
            let vcd = sctc.take_vcd();
            (properties, sctc.samples(), sctc.counters(), witnesses, vcd)
        };
        Ok(RunReport {
            properties,
            sim_ticks: self.sim.now().ticks(),
            wall: wall0.elapsed(),
            synthesis_wall: self.synthesis_wall,
            kernel: self.sim.stats(),
            samples,
            test_cases: cases.get(),
            stopped_early,
            monitoring,
            spans: self
                .profiler
                .as_ref()
                .map(SpanProfiler::snapshot)
                .unwrap_or_default(),
            witnesses,
            vcd,
        })
    }
}

impl fmt::Debug for MicroprocessorFlow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MicroprocessorFlow")
            .field("properties", &self.sctc.borrow().property_count())
            .finish()
    }
}

/// Approach 2: verification on the derived software model.
pub struct DerivedModelFlow {
    sim: Simulation,
    interp: SharedInterp,
    handles: DerivedEswHandles,
    sctc: crate::checker::SharedSctc,
    synthesis_wall: std::time::Duration,
    profiler: Option<SharedProfiler>,
}

impl DerivedModelFlow {
    /// Builds the flow around an interpreter (program + memory model).
    pub fn new(interp: Interp) -> Self {
        let interp = share_interp(interp);
        let mut sim = Simulation::new();
        let handles = DerivedEsw::spawn(&mut sim, interp.clone());
        DerivedModelFlow {
            sim,
            interp,
            handles,
            sctc: share_sctc(Sctc::new()),
            synthesis_wall: std::time::Duration::ZERO,
            profiler: None,
        }
    }

    /// Enables the hierarchical span profiler (simulate / sample /
    /// automaton-step / synthesis); aggregates land in
    /// [`RunReport::spans`]. Returns the handle for external spans.
    pub fn enable_profiler(&mut self) -> SharedProfiler {
        let profiler = SpanProfiler::shared();
        self.sctc.borrow_mut().set_profiler(profiler.clone());
        self.profiler = Some(profiler.clone());
        profiler
    }

    /// Enables counterexample-witness extraction; witnesses land in
    /// [`RunReport::witnesses`]. Call before registering properties.
    pub fn enable_witnesses(&mut self, cfg: WitnessConfig) {
        self.sctc.borrow_mut().enable_witnesses(cfg);
    }

    /// Enables property-timeline VCD capture; the waveform lands in
    /// [`RunReport::vcd`]. Call before registering properties.
    pub fn enable_vcd(&mut self) {
        self.sctc.borrow_mut().enable_vcd();
    }

    /// Returns the shared interpreter handle (to bind propositions).
    pub fn interp(&self) -> SharedInterp {
        self.interp.clone()
    }

    /// Registers a property over interpreter propositions.
    ///
    /// # Errors
    ///
    /// See [`SctcError`].
    pub fn add_property(
        &mut self,
        name: &str,
        formula: &Formula,
        props: Vec<Box<dyn Proposition>>,
    ) -> Result<(), SctcError> {
        let _span = SpanProfiler::maybe_enter(&self.profiler, "synthesis");
        let t0 = Instant::now();
        let result = self.sctc.borrow_mut().add_property(name, formula, props);
        self.synthesis_wall += t0.elapsed();
        result
    }

    /// Runs test cases until the driver declines or `max_ticks` (statement
    /// steps) elapse.
    ///
    /// # Errors
    ///
    /// Propagates kernel scheduling errors.
    pub fn run(
        mut self,
        driver: Box<dyn InterpDriver>,
        max_ticks: u64,
    ) -> Result<RunReport, RunError> {
        let wall0 = Instant::now();
        let cases = Rc::new(Cell::new(0u64));

        // The checker samples on every program-counter event.
        SctcProcess::spawn(&mut self.sim, self.handles.pc_event, self.sctc.clone());

        // The driver is shared between the case-rotation process and (when
        // requested) the power guard; both run in the single-threaded
        // kernel, so their borrows never overlap.
        let wants_power_hook = driver.wants_power_hook();
        let driver = Rc::new(std::cell::RefCell::new(driver));

        if wants_power_hook {
            // Power guard: polled after every statement, *after* the
            // checker sampled the pre-cut state (spawn order on the shared
            // pc event is resume order within the delta).
            struct PowerGuard {
                interp: SharedInterp,
                driver: Rc<std::cell::RefCell<Box<dyn InterpDriver>>>,
            }
            impl Process for PowerGuard {
                fn resume(&mut self, _ctx: &mut ProcessContext<'_>) -> Activation {
                    let mut interp = self.interp.borrow_mut();
                    let mut driver = self.driver.borrow_mut();
                    if interp.state().is_running() && driver.power_cut(&interp) {
                        // Power loss: volatile software state vanishes
                        // (globals back to initialisers, call stack gone);
                        // the memory model — and the flash behind it —
                        // persists. The derived ESW process notices the
                        // idle interpreter and reports done; the case
                        // rotation then skips the uncounted torn case.
                        interp.reset();
                        driver.power_restored(&mut interp);
                    }
                    Activation::WaitStatic
                }
            }
            self.sim.spawn_deferred(
                "power_guard",
                Box::new(PowerGuard {
                    interp: self.interp.clone(),
                    driver: driver.clone(),
                }),
                vec![self.handles.pc_event],
            );
        }

        // The driver process reacts to done events.
        struct Driver {
            interp: SharedInterp,
            handles: DerivedEswHandles,
            driver: Rc<std::cell::RefCell<Box<dyn InterpDriver>>>,
            cases: Rc<Cell<u64>>,
            started: bool,
        }
        impl Process for Driver {
            fn resume(&mut self, ctx: &mut ProcessContext<'_>) -> Activation {
                if !self.started {
                    // Wait for the model's initial ready notification.
                    self.started = true;
                    return Activation::WaitEvent(self.handles.done_event);
                }
                let mut interp = self.interp.borrow_mut();
                let mut driver = self.driver.borrow_mut();
                if !matches!(interp.state(), ExecState::Idle) {
                    self.cases.set(self.cases.get() + 1);
                    driver.case_finished(&mut interp);
                }
                if driver.next_case(&mut interp) {
                    debug_assert!(
                        interp.state().is_running(),
                        "driver must start an activation in next_case"
                    );
                    ctx.notify(self.handles.resume_event, Notify::Delta);
                    Activation::WaitEvent(self.handles.done_event)
                } else {
                    ctx.stop();
                    Activation::Terminate
                }
            }
        }
        self.sim.spawn(
            "driver",
            Box::new(Driver {
                interp: self.interp.clone(),
                handles: self.handles,
                driver,
                cases: cases.clone(),
                started: false,
            }),
        );

        let outcome = {
            let _span = SpanProfiler::maybe_enter(&self.profiler, "simulate");
            self.sim.run_until(SimTime::from_ticks(max_ticks))?
        };
        let stopped_early = outcome == sctc_sim::RunOutcome::TimeLimit;
        let (properties, samples, monitoring, witnesses, vcd) = {
            let mut sctc = self.sctc.borrow_mut();
            sctc.flush_spans();
            let properties = sctc.results();
            let witnesses = sctc.take_witnesses();
            let vcd = sctc.take_vcd();
            (properties, sctc.samples(), sctc.counters(), witnesses, vcd)
        };
        Ok(RunReport {
            properties,
            sim_ticks: self.sim.now().ticks(),
            wall: wall0.elapsed(),
            synthesis_wall: self.synthesis_wall,
            kernel: self.sim.stats(),
            samples,
            test_cases: cases.get(),
            stopped_early,
            monitoring,
            spans: self
                .profiler
                .as_ref()
                .map(SpanProfiler::snapshot)
                .unwrap_or_default(),
            witnesses,
            vcd,
        })
    }
}

impl fmt::Debug for DerivedModelFlow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DerivedModelFlow")
            .field("properties", &self.sctc.borrow().property_count())
            .finish()
    }
}

/// A driver that runs `main` once and stops — the simplest verification
/// session for either flow.
#[derive(Debug, Default)]
pub struct SingleRun {
    done: bool,
}

impl SingleRun {
    /// Creates the driver.
    pub fn new() -> Self {
        SingleRun::default()
    }
}

impl SocDriver for SingleRun {
    fn case_finished(&mut self, _soc: &mut Soc) {}

    fn next_case(&mut self, _soc: &mut Soc) -> bool {
        !std::mem::replace(&mut self.done, true)
    }
}

impl InterpDriver for SingleRun {
    fn case_finished(&mut self, _interp: &mut Interp) {}

    fn next_case(&mut self, interp: &mut Interp) -> bool {
        if std::mem::replace(&mut self.done, true) {
            return false;
        }
        interp.start_main().expect("program has a main function");
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proposition::{esw, mem};
    use minic::codegen::{compile, CodegenOptions};
    use minic::{lower, parse as cparse};
    use sctc_temporal::{parse, Verdict};
    use std::rc::Rc;

    /// A program whose `status` global walks 0 → 1 → 2.
    const PROGRAM: &str = "
        int status = 0;
        int work = 0;
        void phase(int s) { status = s; }
        int main() {
            phase(1);
            int i = 0;
            while (i < 10) { work = work + i; i = i + 1; }
            phase(2);
            return work;
        }
    ";

    fn property() -> Formula {
        parse("F (one & F two)").unwrap()
    }

    #[test]
    fn derived_flow_verifies_phase_sequence() {
        let ir = Rc::new(lower(&cparse(PROGRAM).unwrap()).unwrap());
        let interp = Interp::with_virtual_memory(ir);
        let mut flow = DerivedModelFlow::new(interp);
        let h = flow.interp();
        flow.add_property(
            "phases",
            &property(),
            vec![
                esw::global_eq("one", h.clone(), "status", 1),
                esw::global_eq("two", h.clone(), "status", 2),
            ],
        )
        .unwrap();
        let report = flow.run(Box::new(SingleRun::new()), 1_000_000).unwrap();
        assert_eq!(report.properties[0].verdict, Verdict::True);
        assert_eq!(report.test_cases, 1);
        assert!(report.samples > 10);
        assert!(!report.stopped_early);
    }

    #[test]
    fn microprocessor_flow_verifies_phase_sequence() {
        let ir = lower(&cparse(PROGRAM).unwrap()).unwrap();
        let compiled = compile(&ir, CodegenOptions::default()).unwrap();
        let mut flow = MicroprocessorFlow::new(compiled, 0x40000, 10);
        let soc = flow.soc();
        let status = flow.compiled().global_addr("status");
        flow.add_property(
            "phases",
            &property(),
            vec![
                mem::word_eq("one", soc.clone(), status, 1),
                mem::word_eq("two", soc.clone(), status, 2),
            ],
        )
        .unwrap();
        let report = flow.run(Box::new(SingleRun::new()), 100_000_000).unwrap();
        assert_eq!(report.properties[0].verdict, Verdict::True);
        assert_eq!(report.test_cases, 1);
    }

    #[test]
    fn derived_flow_detects_violation() {
        // status never reaches 2 within 3 statements of reaching 1.
        let ir = Rc::new(lower(&cparse(PROGRAM).unwrap()).unwrap());
        let mut flow = DerivedModelFlow::new(Interp::with_virtual_memory(ir));
        let h = flow.interp();
        flow.add_property(
            "too_fast",
            &parse("G (one -> F[<=3] two)").unwrap(),
            vec![
                esw::global_eq("one", h.clone(), "status", 1),
                esw::global_eq("two", h.clone(), "status", 2),
            ],
        )
        .unwrap();
        let report = flow.run(Box::new(SingleRun::new()), 1_000_000).unwrap();
        assert_eq!(report.properties[0].verdict, Verdict::False);
        assert!(report.properties[0].decided_at.is_some());
    }

    #[test]
    fn both_flows_agree_on_verdicts() {
        let bounded = parse("F[<=100000] two").unwrap();
        // Derived.
        let ir = Rc::new(lower(&cparse(PROGRAM).unwrap()).unwrap());
        let mut dflow = DerivedModelFlow::new(Interp::with_virtual_memory(ir.clone()));
        let h = dflow.interp();
        dflow
            .add_property(
                "t",
                &bounded,
                vec![esw::global_eq("two", h.clone(), "status", 2)],
            )
            .unwrap();
        let dreport = dflow.run(Box::new(SingleRun::new()), 10_000_000).unwrap();
        // Microprocessor.
        let compiled = compile(&ir, CodegenOptions::default()).unwrap();
        let mut mflow = MicroprocessorFlow::new(compiled, 0x40000, 10);
        let soc = mflow.soc();
        let status = mflow.compiled().global_addr("status");
        mflow
            .add_property(
                "t",
                &bounded,
                vec![mem::word_eq("two", soc.clone(), status, 2)],
            )
            .unwrap();
        let mreport = mflow.run(Box::new(SingleRun::new()), 100_000_000).unwrap();
        assert_eq!(dreport.properties[0].verdict, mreport.properties[0].verdict);
        assert_eq!(dreport.properties[0].verdict, Verdict::True);
        // The derived model needs far fewer trigger steps than the clocked
        // processor needs cycles — the paper's speedup source.
        assert!(dreport.samples < mreport.sim_ticks);
    }

    #[test]
    fn run_wall_excludes_registration_synthesis() {
        // A large-bound property whose synthesis dwarfs the (tiny) run: the
        // run wall must not absorb the registration-time synthesis cost.
        // The bound is chosen unique in the test suite so the first
        // registration is a guaranteed cache miss.
        let ir = Rc::new(lower(&cparse(PROGRAM).unwrap()).unwrap());
        let mut flow = DerivedModelFlow::new(Interp::with_virtual_memory(ir));
        let h = flow.interp();
        flow.add_property(
            "slow_synthesis",
            &parse("G (one -> F[<=29989] two)").unwrap(),
            vec![
                esw::global_eq("one", h.clone(), "status", 1),
                esw::global_eq("two", h.clone(), "status", 2),
            ],
        )
        .unwrap();
        let report = flow.run(Box::new(SingleRun::new()), 1_000_000).unwrap();
        assert!(
            report.synthesis_wall > report.wall,
            "synthesis ({:?}) must be accounted outside the run wall ({:?})",
            report.synthesis_wall,
            report.wall
        );
        assert_eq!(report.total_wall(), report.wall + report.synthesis_wall);
    }

    #[test]
    fn multi_case_driver_counts_cases() {
        struct ThreeRuns {
            remaining: u32,
        }
        impl InterpDriver for ThreeRuns {
            fn case_finished(&mut self, interp: &mut Interp) {
                assert!(matches!(interp.state(), ExecState::Finished(Some(_))));
            }
            fn next_case(&mut self, interp: &mut Interp) -> bool {
                if self.remaining == 0 {
                    return false;
                }
                self.remaining -= 1;
                interp.start_main().unwrap();
                true
            }
        }
        let ir = Rc::new(lower(&cparse(PROGRAM).unwrap()).unwrap());
        let flow = DerivedModelFlow::new(Interp::with_virtual_memory(ir));
        let report = flow
            .run(Box::new(ThreeRuns { remaining: 3 }), 10_000_000)
            .unwrap();
        assert_eq!(report.test_cases, 3);
    }

    #[test]
    fn derived_power_cut_restarts_without_counting_the_case() {
        // Launch three activations; cut power at the first statement of the
        // second one. The torn case must not be counted, globals must be
        // back at their initialisers when the cut is observed.
        struct CutOnce {
            launched: u32,
            cut_done: bool,
            restores: Rc<Cell<u32>>,
        }
        impl InterpDriver for CutOnce {
            fn case_finished(&mut self, interp: &mut Interp) {
                assert!(matches!(interp.state(), ExecState::Finished(Some(_))));
            }
            fn next_case(&mut self, interp: &mut Interp) -> bool {
                if self.launched >= 3 {
                    return false;
                }
                self.launched += 1;
                interp.start_main().unwrap();
                true
            }
            fn wants_power_hook(&self) -> bool {
                true
            }
            fn power_cut(&mut self, _interp: &Interp) -> bool {
                self.launched == 2 && !self.cut_done
            }
            fn power_restored(&mut self, interp: &mut Interp) {
                self.cut_done = true;
                // Volatile software state is back at the initialisers.
                assert_eq!(interp.global_by_name("status"), 0);
                assert_eq!(interp.global_by_name("work"), 0);
                self.restores.set(self.restores.get() + 1);
            }
        }
        let restores = Rc::new(Cell::new(0));
        let ir = Rc::new(lower(&cparse(PROGRAM).unwrap()).unwrap());
        let flow = DerivedModelFlow::new(Interp::with_virtual_memory(ir));
        let report = flow
            .run(
                Box::new(CutOnce {
                    launched: 0,
                    cut_done: false,
                    restores: restores.clone(),
                }),
                10_000_000,
            )
            .unwrap();
        assert_eq!(restores.get(), 1);
        // Cases 1 and 3 complete; the torn case 2 is not counted.
        assert_eq!(report.test_cases, 2);
    }

    #[test]
    fn micro_power_cut_restores_pristine_ram_and_does_not_count_the_case() {
        struct CutOnce {
            launched: u32,
            cut_done: bool,
            polls: u64,
            status_addr: u32,
            restores: Rc<Cell<u32>>,
        }
        impl SocDriver for CutOnce {
            fn case_finished(&mut self, soc: &mut Soc) {
                assert!(soc.cpu.is_halted());
            }
            fn next_case(&mut self, _soc: &mut Soc) -> bool {
                if self.launched >= 2 {
                    return false;
                }
                self.launched += 1;
                true
            }
            fn power_cut(&mut self, soc: &Soc) -> bool {
                if self.cut_done {
                    return false;
                }
                self.polls += 1;
                // Wait until the software visibly progressed, then cut.
                self.polls > 10 && soc.mem.peek_u32(self.status_addr).unwrap() != 0
            }
            fn power_restored(&mut self, soc: &mut Soc) {
                self.cut_done = true;
                // RAM is back at the boot image: status global re-zeroed.
                assert_eq!(soc.mem.peek_u32(self.status_addr).unwrap(), 0);
                self.restores.set(self.restores.get() + 1);
            }
        }
        let ir = lower(&cparse(PROGRAM).unwrap()).unwrap();
        let compiled = compile(&ir, CodegenOptions::default()).unwrap();
        let restores = Rc::new(Cell::new(0));
        let flow = MicroprocessorFlow::new(compiled, 0x40000, 10);
        let status_addr = flow.compiled().global_addr("status");
        let report = flow
            .run(
                Box::new(CutOnce {
                    launched: 0,
                    cut_done: false,
                    polls: 0,
                    status_addr,
                    restores: restores.clone(),
                }),
                100_000_000,
            )
            .unwrap();
        assert_eq!(restores.get(), 1);
        // The torn first case is not counted; its restart completes.
        assert_eq!(report.test_cases, 1);
    }
}
