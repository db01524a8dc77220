//! Approach 1 from the bottom up: hand-written firmware on the
//! microprocessor model, observed by the ESW monitor through raw memory —
//! including the paper's Fig. 3 initialisation handshake.
//!
//! Instead of the high-level `MicroprocessorFlow`, this example wires the
//! pieces manually: assembler firmware, clocked SoC, SCTC with memory-word
//! propositions, the handshake on the software's `flag` variable.
//!
//! ```text
//! cargo run --example microprocessor_monitoring
//! ```

use esw_verify::cpu::{assemble, share, CpuProcess, Memory, Soc};
use esw_verify::sctc::{mem, share_sctc, EswMonitor, Sctc};
use esw_verify::sim::{Duration, Simulation};
use esw_verify::temporal::{parse, Verdict};

/// A blinker controller: after initialisation it toggles a lamp register
/// and reports progress through a blink counter.
/// Memory map: 0x100 flag, 0x104 lamp, 0x108 blink counter.
const FIRMWARE: &str = "
    li   r1, 0x100
    ; --- initialisation phase (monitor must wait for the flag) ---
    li   r5, 0
    sw   r5, 4(r1)      ; lamp off
    sw   r5, 8(r1)      ; counter = 0
    li   r2, 1
    sw   r2, 0(r1)      ; flag = 1: initialised (handshake)
    ; --- blink 6 times ---
    li   r3, 6
loop:
    lw   r4, 4(r1)
    xori r4, r4, 1      ; toggle lamp
    sw   r4, 4(r1)
    lw   r5, 8(r1)
    addi r5, r5, 1
    sw   r5, 8(r1)
    addi r3, r3, -1
    bne  r3, zero, loop
    halt
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = assemble(FIRMWARE)?;
    let mut ram = Memory::new(64 * 1024);
    ram.load_image(program.origin, &program.words);
    let soc = share(Soc::new(ram));

    // Properties over raw memory words, with the processor clock as the
    // timing reference (cycle counts, not statement counts).
    let mut sctc = Sctc::new();
    sctc.add_property(
        "lamp_eventually_on",
        &parse("F[<=40] lamp_on")?,
        vec![mem::word_eq("lamp_on", soc.clone(), 0x104, 1)],
    )?;
    sctc.add_property(
        "six_blinks",
        &parse("F[<=200] done_blinking")?,
        vec![mem::word_eq("done_blinking", soc.clone(), 0x108, 6)],
    )?;
    let sctc = share_sctc(sctc);

    let mut sim = Simulation::new();
    let clock = sim.create_clock("cpu_clk", Duration::from_ticks(10));
    CpuProcess::spawn(&mut sim, &clock, soc.clone());
    // The monitor polls the flag at 0x100 before arming (paper Fig. 3).
    EswMonitor::spawn(&mut sim, clock.posedge(), soc.clone(), sctc.clone(), 0x100);

    sim.run_to_completion()?;

    println!(
        "executed {} instructions over {} ticks; checker sampled {} cycles",
        soc.borrow().cpu.retired(),
        sim.now().ticks(),
        sctc.borrow().samples()
    );
    for result in sctc.borrow_mut().results() {
        println!(
            "property {:<20} -> {:<8} (cycle {:?})",
            result.name, result.verdict, result.decided_at
        );
        assert_eq!(result.verdict, Verdict::True);
    }
    Ok(())
}
