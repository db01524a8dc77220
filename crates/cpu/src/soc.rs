//! SoC integration: the processor as a simulation process.
//!
//! [`Soc`] bundles core and memory; [`CpuProcess`] drives one instruction per
//! clock posedge inside an [`sctc_sim::Simulation`]. The SoC is shared
//! (`Rc<RefCell<_>>`) so that checker components — the ESW monitor of the
//! paper's first approach — can observe memory between cycles.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use sctc_sim::{Activation, Clock, Notify, Process, ProcessContext, Simulation};

use crate::core::{Cpu, CpuError, StepOutcome};
use crate::memory::Memory;

/// Processor core plus memory system.
pub struct Soc {
    /// The processor core.
    pub cpu: Cpu,
    /// RAM and memory-mapped devices.
    pub mem: Memory,
    /// First execution error, if any (the core stops on errors).
    pub fault: Option<CpuError>,
}

impl Soc {
    /// Creates a SoC with a reset PC of 0.
    pub fn new(mem: Memory) -> Self {
        Soc {
            cpu: Cpu::new(0),
            mem,
            fault: None,
        }
    }

    /// Creates a SoC with an explicit reset PC.
    pub fn with_reset_pc(mem: Memory, reset_pc: u32) -> Self {
        Soc {
            cpu: Cpu::new(reset_pc),
            mem,
            fault: None,
        }
    }

    /// Restarts the core at the reset vector, preserving its configured
    /// instruction encoding, and clears any fault. Memory and devices are untouched — this models the
    /// test harness pulsing the CPU reset line between cases.
    pub fn reset_cpu(&mut self) {
        self.cpu = Cpu::with_isa(0, self.cpu.isa());
        self.fault = None;
    }

    /// Executes one instruction and ticks the devices.
    pub fn cycle(&mut self) -> StepOutcome {
        if self.fault.is_some() {
            return StepOutcome::Halted;
        }
        self.mem.tick_devices();
        match self.cpu.step(&mut self.mem) {
            Ok(outcome) => outcome,
            Err(e) => {
                self.fault = Some(e);
                StepOutcome::Halted
            }
        }
    }
}

impl fmt::Debug for Soc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Soc")
            .field("pc", &self.cpu.pc())
            .field("halted", &self.cpu.is_halted())
            .field("fault", &self.fault)
            .finish()
    }
}

/// A shared handle to a [`Soc`], usable from several simulation processes.
pub type SharedSoc = Rc<RefCell<Soc>>;

/// Wraps a [`Soc`] for sharing.
pub fn share(soc: Soc) -> SharedSoc {
    Rc::new(RefCell::new(soc))
}

/// Simulation process executing one instruction per clock posedge.
///
/// Terminates (leaving the shared SoC accessible) when the core halts or
/// faults.
///
/// # Examples
///
/// ```
/// use sctc_cpu::{assemble, share, CpuProcess, Memory, Soc};
/// use sctc_sim::{Duration, Simulation};
///
/// let prog = assemble("li r1, 3\nhalt")?;
/// let mut mem = Memory::new(1024);
/// mem.load_image(prog.origin, &prog.words);
/// let soc = share(Soc::new(mem));
///
/// let mut sim = Simulation::new();
/// let clk = sim.create_clock("clk", Duration::from_ticks(10));
/// CpuProcess::spawn(&mut sim, &clk, soc.clone());
/// sim.run_to_completion().unwrap();
///
/// assert!(soc.borrow().cpu.is_halted());
/// # Ok::<(), sctc_cpu::AsmError>(())
/// ```
pub struct CpuProcess {
    soc: SharedSoc,
    seen_halt: bool,
}

impl CpuProcess {
    /// Spawns the processor process, statically sensitive to the clock's
    /// posedge.
    pub fn spawn(sim: &mut Simulation, clock: &Clock, soc: SharedSoc) -> sctc_sim::ProcessId {
        sim.spawn_deferred(
            "cpu",
            Box::new(CpuProcess {
                soc,
                seen_halt: false,
            }),
            vec![clock.posedge()],
        )
    }

    /// Spawns the processor process and additionally notifies
    /// `retired_event` (delta) after every executed instruction — the hook
    /// the ESW monitor uses to sample memory once per cycle.
    pub fn spawn_with_retired_event(
        sim: &mut Simulation,
        clock: &Clock,
        soc: SharedSoc,
        retired_event: sctc_sim::Event,
    ) -> sctc_sim::ProcessId {
        struct WithEvent {
            soc: SharedSoc,
            event: sctc_sim::Event,
            seen_halt: bool,
        }
        impl Process for WithEvent {
            fn resume(&mut self, ctx: &mut ProcessContext<'_>) -> Activation {
                // Stop only one clock edge after halt so that processes
                // sensitive to the retired event still observe the final
                // architectural state.
                if self.seen_halt {
                    ctx.stop();
                    return Activation::Terminate;
                }
                let outcome = self.soc.borrow_mut().cycle();
                ctx.notify(self.event, Notify::Delta);
                if let StepOutcome::Halted = outcome {
                    self.seen_halt = true;
                }
                Activation::WaitStatic
            }
        }
        sim.spawn_deferred(
            "cpu",
            Box::new(WithEvent {
                soc,
                event: retired_event,
                seen_halt: false,
            }),
            vec![clock.posedge()],
        )
    }
}

impl Process for CpuProcess {
    fn resume(&mut self, ctx: &mut ProcessContext<'_>) -> Activation {
        // Like `sc_stop()` in a SystemC testbench: the free-running clock
        // would otherwise keep the simulation alive forever. Stopping one
        // clock edge after the halt lets clock-sensitive observers sample
        // the final state.
        if self.seen_halt {
            ctx.stop();
            return Activation::Terminate;
        }
        if let StepOutcome::Halted = self.soc.borrow_mut().cycle() {
            self.seen_halt = true;
        }
        Activation::WaitStatic
    }
}

impl fmt::Debug for CpuProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CpuProcess").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use sctc_sim::Duration;

    fn boot(source: &str) -> (Simulation, SharedSoc, Clock) {
        let prog = assemble(source).unwrap();
        let mut mem = Memory::new(65536);
        mem.load_image(prog.origin, &prog.words);
        let soc = share(Soc::with_reset_pc(mem, prog.origin));
        let mut sim = Simulation::new();
        let clk = sim.create_clock("clk", Duration::from_ticks(10));
        CpuProcess::spawn(&mut sim, &clk, soc.clone());
        (sim, soc, clk)
    }

    #[test]
    fn one_instruction_per_clock_cycle() {
        let (mut sim, soc, _clk) = boot("nop\nnop\nnop\nhalt");
        sim.run_to_completion().unwrap();
        assert!(soc.borrow().cpu.is_halted());
        assert_eq!(soc.borrow().cpu.retired(), 4);
        // Four posedges execute (t = 0, 10, 20, 30); the stop lands one
        // edge later at t = 40.
        assert_eq!(sim.now().ticks(), 40);
    }

    #[test]
    fn memory_is_observable_between_cycles() {
        let (mut sim, soc, _clk) = boot(
            "
            li r1, 0x200
            li r2, 42
            sw r2, 0(r1)
            halt
        ",
        );
        sim.run_to_completion().unwrap();
        assert_eq!(soc.borrow().mem.peek_u32(0x200).unwrap(), 42);
    }

    #[test]
    fn retired_event_fires_per_instruction() {
        let prog = assemble("nop\nnop\nhalt").unwrap();
        let mut mem = Memory::new(4096);
        mem.load_image(prog.origin, &prog.words);
        let soc = share(Soc::new(mem));
        let mut sim = Simulation::new();
        let clk = sim.create_clock("clk", Duration::from_ticks(10));
        let retired = sim.create_event("retired");
        CpuProcess::spawn_with_retired_event(&mut sim, &clk, soc, retired);
        sim.run_to_completion().unwrap();
        assert_eq!(sim.event_fire_count(retired), 3);
    }

    #[test]
    fn fault_stops_the_process() {
        // Jump into unmapped memory.
        let (mut sim, soc, _clk) = boot("li r1, 0x7ffffffc\njalr r0, 0(r1)");
        sim.run_to_completion().unwrap();
        assert!(soc.borrow().fault.is_some());
    }
}
