//! The paper's case study end to end: EEPROM-emulation software verified
//! under **both** flows with constrained-random stimuli, fault injection
//! and return-value coverage — a miniature of the Fig. 8 experiment.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example eeprom_verification
//! ```

use esw_verify::case_study::{run_derived, run_micro, ExperimentConfig, Op};
use esw_verify::cpu::IsaKind;

fn main() {
    let base = ExperimentConfig {
        seed: 42,
        cases: 60,
        bound: Some(1000),
        fault_percent: 10,
        isa: IsaKind::Word32,
        max_ticks: u64::MAX / 2,
        profile: false,
    };

    println!("== Approach 2: derived software model (statement timing) ==");
    let derived = run_derived(base);
    print_outcome(&derived);

    println!("\n== Approach 1: microprocessor model (clock timing) ==");
    let micro = run_micro(ExperimentConfig {
        cases: 10,   // each case costs thousands of clocked instructions
        bound: None, // statement-level bounds are impractical in cycles
        ..base
    });
    print_outcome(&micro);

    println!(
        "\nwall time: derived {:?} vs microprocessor {:?}",
        derived.report.wall, micro.report.wall
    );
    assert!(
        derived.violations.is_empty() && micro.violations.is_empty(),
        "the EEPROM emulation satisfies its response properties"
    );
}

fn print_outcome(outcome: &esw_verify::case_study::ExperimentOutcome) {
    println!(
        "test cases: {}   samples: {}   sim ticks: {}",
        outcome.report.test_cases, outcome.report.samples, outcome.report.sim_ticks
    );
    println!("{:<10} {:>10} {:>10}", "operation", "C.(%)", "verdict");
    for (op, coverage) in &outcome.coverage {
        let verdict = outcome
            .report
            .properties
            .iter()
            .find(|p| p.name == op.to_string())
            .map(|p| p.verdict.to_string())
            .unwrap_or_else(|| "-".to_owned());
        println!("{:<10} {:>10.1} {:>10}", op.to_string(), coverage, verdict);
    }
    println!("overall coverage: {:.1}%", outcome.overall_coverage);
    if !outcome.anomalies.is_empty() {
        println!("anomalies: {:?}", outcome.anomalies);
    }
    let _ = Op::ALL; // (table order documented in eee::Op::ALL)
}
