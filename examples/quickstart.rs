//! Quickstart: verify a temporal property of a small embedded program on
//! the derived-model flow (the paper's second approach).
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::rc::Rc;

use esw_verify::prelude::*;

/// A tiny engine-start controller: cranks until the engine reports
/// running, with a retry limit.
const CONTROLLER: &str = "
    int ignition = 0;     // input: driver turns the key
    int crank_count = 0;
    int engine_running = 0;
    int status = 0;        // 0 idle, 1 cranking, 2 running, 3 fault

    void crank() {
        crank_count = crank_count + 1;
        // The engine catches on the third attempt in this scenario.
        if (crank_count >= 3) { engine_running = 1; }
    }

    int main() {
        if (ignition == 0) { return 0; }
        status = 1;
        int attempts = 0;
        while (engine_running == 0) {
            if (attempts >= 10) { status = 3; return 3; }
            crank();
            attempts = attempts + 1;
        }
        status = 2;
        return 2;
    }
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ir = Rc::new(c::lower(&c::parse(CONTROLLER)?)?);
    let mut flow = DerivedModelFlow::new(Interp::with_virtual_memory(Rc::clone(&ir)));
    let h = flow.interp();

    // Whenever cranking starts, the controller reaches a final status
    // (running or fault) within 200 statements.
    flow.add_property(
        "cranking_terminates",
        &temporal::parse("G (cranking -> F[<=200] settled)")?,
        vec![
            esw::global_eq("cranking", h.clone(), "status", 1),
            esw::global_in("settled", h.clone(), "status", vec![2, 3]),
        ],
    )?;
    // The engine never runs without the ignition being on.
    flow.add_property(
        "no_ghost_start",
        &temporal::parse("G (running -> key_on)")?,
        vec![
            esw::global_eq("running", h.clone(), "status", 2),
            esw::global_eq("key_on", h.clone(), "ignition", 1),
        ],
    )?;

    // Drive one scenario: key turned.
    h.borrow_mut().set_global_by_name("ignition", 1);
    let report = flow.run(Box::new(SingleRun::new()), 100_000)?;

    println!("simulated {} statement steps", report.sim_ticks);
    for p in &report.properties {
        println!(
            "property {:<22} -> {:<8} (decided at sample {:?})",
            p.name, p.verdict, p.decided_at
        );
        assert_ne!(p.verdict, Verdict::False, "no property may be violated");
    }
    println!("verification time: {:?}", report.wall);
    Ok(())
}
