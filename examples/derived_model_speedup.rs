//! The paper's headline performance claim (Section 4.3): deriving a
//! simulation model from the C program is dramatically faster than running
//! it on the microprocessor model — "we achieved a speedup of up to 900".
//!
//! This example runs the *same* property over the *same* constrained-random
//! workload under both flows and reports the measured ratio. Absolute
//! numbers depend on the machine; approach 2 must win by a wide margin.
//!
//! ```text
//! cargo run --release --example derived_model_speedup
//! ```

use esw_verify::case_study::{run_derived_single, run_micro_single, ExperimentConfig, Op};
use esw_verify::cpu::IsaKind;

fn main() {
    let config = ExperimentConfig {
        seed: 99,
        cases: 15,
        bound: None,
        fault_percent: 10,
        isa: IsaKind::Word32,
        max_ticks: u64::MAX / 2,
        profile: false,
    };

    println!("running approach 1 (microprocessor model)...");
    let micro = run_micro_single(Op::Read, config);
    println!(
        "  {:?} wall, {} processor ticks, {} checker samples",
        micro.report.wall, micro.report.sim_ticks, micro.report.samples
    );

    println!("running approach 2 (derived model)...");
    let derived = run_derived_single(Op::Read, config);
    println!(
        "  {:?} wall, {} statement ticks, {} checker samples",
        derived.report.wall, derived.report.sim_ticks, derived.report.samples
    );

    let factor = micro.report.wall.as_secs_f64() / derived.report.wall.as_secs_f64().max(1e-9);
    let tick_factor = micro.report.sim_ticks as f64 / derived.report.sim_ticks.max(1) as f64;
    println!("\nwall-clock speedup of approach 2: {factor:.1}x");
    println!("timing-reference ratio (cycles per statement): {tick_factor:.1}x");
    println!("(paper: up to 900x on the full-size case study)");
    assert!(
        factor > 1.0,
        "the derived model must outperform the microprocessor model"
    );
}
