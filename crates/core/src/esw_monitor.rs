//! The ESW monitor module of the first approach (paper Fig. 2 and Fig. 3).
//!
//! The monitor wraps SCTC inside the microprocessor design. It is clocked by
//! the processor clock and implements the handshake protocol with the
//! embedded software: before arming the temporal monitors it polls the
//! software's `flag` variable in memory until the ESW reports itself
//! initialised (`while !initialized: initialized = readFromMemory(flag)`),
//! then samples the properties on every clock edge.

use std::fmt;

use sctc_cpu::SharedSoc;
use sctc_sim::{Activation, Event, Process, ProcessContext, ProcessId, Simulation};

use crate::checker::SharedSctc;

/// The approach-1 monitor process.
pub struct EswMonitor {
    soc: SharedSoc,
    sctc: SharedSctc,
    flag_addr: u32,
    initialized: bool,
    polls: u64,
}

impl EswMonitor {
    /// Spawns the monitor, statically sensitive to `trigger` (the processor
    /// clock's posedge). `flag_addr` is the memory address of the software's
    /// initialisation flag.
    ///
    /// Spawn the monitor **after** the processor process so that within a
    /// cycle it observes post-execution state.
    pub fn spawn(
        sim: &mut Simulation,
        trigger: Event,
        soc: SharedSoc,
        sctc: SharedSctc,
        flag_addr: u32,
    ) -> ProcessId {
        sim.spawn_deferred(
            "esw_monitor",
            Box::new(EswMonitor {
                soc,
                sctc,
                flag_addr,
                initialized: false,
                polls: 0,
            }),
            vec![trigger],
        )
    }
}

impl Process for EswMonitor {
    fn resume(&mut self, _ctx: &mut ProcessContext<'_>) -> Activation {
        if !self.initialized {
            self.polls += 1;
            let flag = self.soc.borrow().mem.peek_u32(self.flag_addr).unwrap_or(0);
            if flag == 0 {
                return Activation::WaitStatic;
            }
            // ESW initialised: the propositions are registered and the
            // temporal property monitors instantiated (they were bound at
            // construction); monitoring starts with this very cycle.
            self.initialized = true;
        }
        self.sctc.borrow_mut().sample();
        Activation::WaitStatic
    }
}

impl fmt::Debug for EswMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EswMonitor")
            .field("initialized", &self.initialized)
            .field("polls", &self.polls)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{share_sctc, Sctc};
    use crate::proposition::mem;
    use sctc_cpu::{assemble, share, CpuProcess, Memory, Soc};
    use sctc_sim::Duration;
    use sctc_temporal::{parse, Verdict};

    /// ESW: set a result variable, then raise the init flag, then count.
    /// flag at 0x100, result at 0x104.
    const PROGRAM: &str = "
        li r1, 0x100
        ; a few idle cycles before initialisation
        nop
        nop
        li r2, 1
        sw r2, 0(r1)      ; flag = 1
        li r3, 0
    loop:
        addi r3, r3, 1
        sw r3, 4(r1)      ; result = r3
        li r4, 5
        blt r3, r4, loop
        halt
    ";

    #[test]
    fn handshake_delays_monitoring_until_flag() {
        let prog = assemble(PROGRAM).unwrap();
        let mut ram = Memory::new(65536);
        ram.load_image(prog.origin, &prog.words);
        let soc = share(Soc::new(ram));

        let mut sctc = Sctc::new();
        // Within 40 cycles after monitoring starts, result reaches 5.
        sctc.add_property(
            "result_reaches_5",
            &parse("F[<=40] result_is_5").unwrap(),
            vec![mem::word_eq("result_is_5", soc.clone(), 0x104, 5)],
        )
        .unwrap();
        let sctc = share_sctc(sctc);

        let mut sim = sctc_sim::Simulation::new();
        let clk = sim.create_clock("clk", Duration::from_ticks(10));
        CpuProcess::spawn(&mut sim, &clk, soc.clone());
        EswMonitor::spawn(&mut sim, clk.posedge(), soc.clone(), sctc.clone(), 0x100);
        sim.run_to_completion().unwrap();

        let results = sctc.borrow_mut().results();
        assert_eq!(results[0].verdict, Verdict::True);
        // Samples start only after the flag was raised: fewer samples than
        // clock edges.
        let samples = sctc.borrow().samples();
        assert!(samples > 0);
        assert!(samples < sim.event_fire_count(clk.posedge()));
    }

    #[test]
    fn missing_flag_keeps_monitor_pending() {
        // Program never raises the flag.
        let prog = assemble("li r3, 5\nsw r3, 4(r1)\nhalt").unwrap();
        let mut ram = Memory::new(65536);
        ram.load_image(prog.origin, &prog.words);
        let soc = share(Soc::new(ram));
        let mut sctc = Sctc::new();
        sctc.add_property(
            "anything",
            &parse("F[<=10] p").unwrap(),
            vec![mem::word_eq("p", soc.clone(), 0x104, 5)],
        )
        .unwrap();
        let sctc = share_sctc(sctc);
        let mut sim = sctc_sim::Simulation::new();
        let clk = sim.create_clock("clk", Duration::from_ticks(10));
        CpuProcess::spawn(&mut sim, &clk, soc.clone());
        EswMonitor::spawn(&mut sim, clk.posedge(), soc, sctc.clone(), 0x100);
        sim.run_to_completion().unwrap();
        assert_eq!(sctc.borrow().samples(), 0);
        assert_eq!(sctc.borrow_mut().results()[0].verdict, Verdict::Pending);
    }
}
