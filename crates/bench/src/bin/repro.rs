//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--fig7] [--fig8] [--speedup] [--tb-sweep] [--campaign] [--faults]
//!       [--smc] [--witness-demo] [--serve-bench]
//!       [--telemetry-bench] [--all]
//!       [--jobs N] [--micro-cases N] [--derived-cases N] [--seed S]
//!       [--budget SECS] [--json PATH|--json=false] [--faults-json PATH]
//!       [--smc-json PATH] [--server-json PATH]
//!       [--obs-json PATH] [--telemetry-json PATH] [--trace-json PATH]
//!       [--vcd PATH] [--profile]
//! ```
//!
//! With no table flags, `--all` is assumed. Numbers are scaled-down local
//! measurements; compare shapes against the paper (see EXPERIMENTS.md).
//! The simulation-based sections run as sharded campaigns over `--jobs`
//! worker threads (default: all cores); the worker count changes
//! wall-clock only, never a verdict or a coverage number. `--campaign`
//! additionally writes the machine-readable `BENCH_campaign.json`;
//! `--faults` runs the fault-injection campaigns of both flows, enforces
//! that the serial and parallel detection matrices are fingerprint-
//! identical, and writes `BENCH_faults.json`. `--smc` runs the
//! statistical model-checking campaigns (Wald's SPRT over a planted
//! failure rate), enforces that serial and parallel report fingerprints
//! are identical *and* that the sequential test undercuts the
//! fixed-sample Chernoff budget, and writes `BENCH_smc.json`.
//! `--witness-demo` runs the torn-write
//! power-loss scenario with the diagnosis layer on under both flows,
//! prints the counterexample witnesses, validates the VCD round-trip and
//! the witness replay, measures the span profiler's overhead, and writes
//! `BENCH_obs.json` (plus the waveform to `--vcd PATH`). `--serve-bench`
//! spawns the verification service over loopback, hammers it with
//! closed-loop clients drawing a small repeat-heavy job pool, verifies
//! every served digest against the same job run in-process, enforces that
//! cache hits are at least 10x faster than cold runs, and writes
//! `BENCH_server.json`. `--telemetry-bench` times the standard derived
//! campaign with the trace plane disabled and enabled (min-of-10,
//! alternating order), enforces that every on/off fingerprint pair is
//! bit-identical, **fails the run if the enabled overhead exceeds 3%**,
//! and writes `BENCH_telemetry.json` plus the flight-recorder log as
//! chrome://tracing-loadable `trace.json`. `--json=false`
//! suppresses every JSON artifact and leaves only the readable tables.

use std::time::Duration;

use sctc_bench::{
    campaign_bench, faults_bench, fig7, fig8, obs_bench, render_campaign_bench_json,
    render_chrome_trace, render_faults_bench_json, render_obs_json, render_server_bench_json,
    render_smc_bench_json, render_telemetry_json, secs, serve_bench, smc_bench, speedup, tb_sweep,
    telemetry_bench, witness_demo, Scale,
};
use sctc_campaign::resolve_jobs;

struct Args {
    fig7: bool,
    fig8: bool,
    speedup: bool,
    tb_sweep: bool,
    campaign: bool,
    faults: bool,
    smc: bool,
    witness: bool,
    serve: bool,
    telemetry: bool,
    profile: bool,
    write_json: bool,
    json_path: String,
    faults_json_path: String,
    smc_json_path: String,
    server_json_path: String,
    obs_json_path: String,
    telemetry_json_path: String,
    trace_json_path: String,
    vcd_path: Option<String>,
    scale: Scale,
}

fn parse_args() -> Args {
    let mut args = Args {
        fig7: false,
        fig8: false,
        speedup: false,
        tb_sweep: false,
        campaign: false,
        faults: false,
        smc: false,
        witness: false,
        serve: false,
        telemetry: false,
        profile: false,
        write_json: true,
        json_path: "BENCH_campaign.json".to_owned(),
        faults_json_path: "BENCH_faults.json".to_owned(),
        smc_json_path: "BENCH_smc.json".to_owned(),
        server_json_path: "BENCH_server.json".to_owned(),
        obs_json_path: "BENCH_obs.json".to_owned(),
        telemetry_json_path: "BENCH_telemetry.json".to_owned(),
        trace_json_path: "trace.json".to_owned(),
        vcd_path: None,
        scale: Scale::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut next_u64 = |name: &str| -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} expects a number"))
        };
        match arg.as_str() {
            "--fig7" => args.fig7 = true,
            "--fig8" => args.fig8 = true,
            "--speedup" => args.speedup = true,
            "--tb-sweep" => args.tb_sweep = true,
            "--campaign" => args.campaign = true,
            "--faults" => args.faults = true,
            "--smc" => args.smc = true,
            "--witness-demo" => args.witness = true,
            "--serve-bench" => args.serve = true,
            "--telemetry-bench" => args.telemetry = true,
            "--profile" => args.profile = true,
            "--all" => {
                args.fig7 = true;
                args.fig8 = true;
                args.speedup = true;
                args.tb_sweep = true;
                args.campaign = true;
                args.faults = true;
                args.smc = true;
                args.witness = true;
                args.serve = true;
                args.telemetry = true;
            }
            "--jobs" => args.scale.jobs = next_u64("--jobs") as usize,
            "--micro-cases" => args.scale.micro_cases = next_u64("--micro-cases"),
            "--derived-cases" => args.scale.derived_cases = next_u64("--derived-cases"),
            "--seed" => args.scale.seed = next_u64("--seed"),
            "--budget" => args.scale.checker_budget = Duration::from_secs(next_u64("--budget")),
            "--json=false" => args.write_json = false,
            "--json=true" => args.write_json = true,
            "--json" => {
                args.json_path = it.next().expect("--json expects a path");
            }
            "--faults-json" => {
                args.faults_json_path = it.next().expect("--faults-json expects a path");
            }
            "--smc-json" => {
                args.smc_json_path = it.next().expect("--smc-json expects a path");
            }
            "--server-json" => {
                args.server_json_path = it.next().expect("--server-json expects a path");
            }
            "--obs-json" => {
                args.obs_json_path = it.next().expect("--obs-json expects a path");
            }
            "--telemetry-json" => {
                args.telemetry_json_path = it.next().expect("--telemetry-json expects a path");
            }
            "--trace-json" => {
                args.trace_json_path = it.next().expect("--trace-json expects a path");
            }
            "--vcd" => {
                args.vcd_path = Some(it.next().expect("--vcd expects a path"));
            }
            "--help" | "-h" => {
                println!(
                    "repro [--fig7] [--fig8] [--speedup] [--tb-sweep] [--campaign] [--faults]\n      \
                     [--smc] [--witness-demo] [--serve-bench]\n      \
                     [--telemetry-bench] [--all] [--jobs N]\n      \
                     [--micro-cases N] [--derived-cases N] [--seed S] [--budget SECS]\n      \
                     [--json PATH|--json=false] [--faults-json PATH] [--smc-json PATH]\n      \
                     [--server-json PATH] [--obs-json PATH]\n      \
                     [--telemetry-json PATH] [--trace-json PATH]\n      \
                     [--vcd PATH] [--profile]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }
    if !(args.fig7
        || args.fig8
        || args.speedup
        || args.tb_sweep
        || args.campaign
        || args.faults
        || args.smc
        || args.witness
        || args.serve
        || args.telemetry)
    {
        args.fig7 = true;
        args.fig8 = true;
        args.speedup = true;
        args.tb_sweep = true;
        args.campaign = true;
        args.faults = true;
        args.smc = true;
        args.witness = true;
        args.serve = true;
        args.telemetry = true;
    }
    args
}

fn main() {
    let args = parse_args();
    let jobs = resolve_jobs(args.scale.jobs);
    println!("Reproduction of \"Verification of Temporal Properties in Automotive");
    println!("Embedded Software\" (DATE 2008) — scaled local measurements.");
    println!(
        "campaign workers: {jobs} (host parallelism {})\n",
        resolve_jobs(0)
    );

    if args.fig7 {
        println!("== Fig. 7: BLAST- and CBMC-baseline results ==");
        println!(
            "{:<10} {:>12} {:<14} {:>12} {:<20}",
            "Property", "BLAST V.T.(s)", "Result", "CBMC V.T.(s)", "Result"
        );
        for row in fig7(args.scale) {
            println!(
                "{:<10} {:>12} {:<14} {:>12} {:<20}",
                row.op.to_string(),
                secs(row.blast_time),
                row.blast_result,
                secs(row.cbmc_time),
                row.cbmc_result
            );
        }
        println!(
            "(paper: every BLAST run aborted with an exception; every CBMC run\n\
             exceeded 5 h unwinding loops at bound 20)\n"
        );
    }

    if args.fig8 {
        println!("== Fig. 8: 1st and 2nd approach results ==");
        println!(
            "(scaled: {} cases for approach 1, {} for approach 2 TB-1000;\n\
             paper used 100,000 and 1,000,000; sharded over {jobs} workers)",
            args.scale.micro_cases, args.scale.derived_cases
        );
        for column in fig8(args.scale) {
            println!("\n-- {} --", column.label);
            println!(
                "{:<10} {:>10} {:>12} {:>8} {:>8} {:>10} {:>6} {:>10}",
                "Property", "V.T.(s)", "synth(s)", "T.C.", "C.(%)", "verdict", "viol", "cases/s"
            );
            for cell in &column.cells {
                println!(
                    "{:<10} {:>10} {:>12} {:>8} {:>8.1} {:>10} {:>6} {:>10.0}",
                    cell.op.to_string(),
                    secs(cell.vt),
                    secs(cell.synthesis),
                    cell.tc,
                    cell.coverage,
                    cell.verdict,
                    cell.violations,
                    cell.cases_per_sec
                );
            }
        }
        println!();
    }

    if args.speedup {
        println!("== Speedup: approach 2 vs approach 1 (Section 4.3) ==");
        let s = speedup(args.scale.micro_cases, args.scale.seed, args.scale.jobs);
        println!(
            "approach 1: {} s over {} processor ticks",
            secs(s.micro),
            s.micro_ticks
        );
        println!(
            "approach 2: {} s over {} statements",
            secs(s.derived),
            s.derived_ticks
        );
        println!(
            "speedup: {:.1}x  (paper: up to 900x; shape check — approach 2 must win)\n",
            s.factor
        );
    }

    if args.tb_sweep {
        println!("== Time-bound sweep (Section 4.3 trends) ==");
        println!(
            "{:>10} {:>10} {:>14} {:>12} {:>10} {:>10} {:>8}",
            "bound", "AR states", "AR gen (s)", "coverage(%)", "run (s)", "synth(s)", "hit%"
        );
        for row in tb_sweep(args.scale.derived_cases, args.scale.seed, args.scale.jobs) {
            println!(
                "{:>10} {:>10} {:>14} {:>12.1} {:>10} {:>10} {:>8.0}",
                row.bound
                    .map(|b| b.to_string())
                    .unwrap_or_else(|| "none".to_owned()),
                row.synthesis.states,
                format!("{:.4}", row.synthesis.generation_time.as_secs_f64()),
                row.coverage,
                secs(row.wall),
                secs(row.synthesis_wall),
                100.0 * row.cache_hit_rate
            );
        }
        println!(
            "(paper: larger bounds cost AR generation time; coverage grows with\n\
             the number of test cases a configuration runs; registration-time\n\
             synthesis is reported separately, summed over shards)\n"
        );
    }

    if args.campaign {
        println!("== Parallel campaigns: jobs=1 vs jobs={jobs} ==");
        let rows = campaign_bench(args.scale);
        println!(
            "{:<8} {:<9} {:>5} {:>8} {:>9} {:>10} {:>10} {:>10} {:>6} {:>8}",
            "flow",
            "config",
            "jobs",
            "cases",
            "wall(s)",
            "synth(s)",
            "cases/s",
            "hit rate",
            "viol",
            "C.(%)"
        );
        for row in &rows {
            println!(
                "{:<8} {:<9} {:>5} {:>8} {:>9} {:>10} {:>10.0} {:>9.0}% {:>6} {:>8.1}",
                row.flow,
                row.config,
                row.jobs,
                row.test_cases,
                secs(row.wall),
                secs(row.synthesis_wall),
                row.cases_per_sec,
                100.0 * row.cache_hit_rate,
                row.violations,
                row.coverage
            );
        }
        for (serial, parallel) in rows.iter().filter(|r| r.jobs == 1).filter_map(|s| {
            rows.iter()
                .find(|p| p.jobs != 1 && p.flow == s.flow && p.config == s.config)
                .map(|p| (s, p))
        }) {
            println!(
                "{} {}: {:.2}x speedup at jobs={} (identical verdicts/coverage by construction)",
                serial.flow,
                serial.config,
                serial.wall.as_secs_f64() / parallel.wall.as_secs_f64().max(1e-9),
                parallel.jobs
            );
        }
        if args.write_json {
            let doc = render_campaign_bench_json(&rows);
            match std::fs::write(&args.json_path, &doc) {
                Ok(()) => println!("wrote {}", args.json_path),
                Err(e) => eprintln!("could not write {}: {e}", args.json_path),
            }
        }
    }

    if args.faults {
        println!("== Fault injection & recovery: jobs=1 vs jobs={jobs} ==");
        let rows = faults_bench(args.scale);
        println!(
            "{:<8} {:>5} {:>8} {:>9} {:>7} {:>6} {:>5} {:>5} {:>5} {:>5} {:>10} {:>8}",
            "flow",
            "jobs",
            "cases",
            "wall(s)",
            "planned",
            "fired",
            "det",
            "cuts",
            "rec",
            "corr",
            "recovery",
            "intact"
        );
        for row in &rows {
            println!(
                "{:<8} {:>5} {:>8} {:>9} {:>7} {:>6} {:>5} {:>5} {:>5} {:>5} {:>10} {:>8}",
                row.flow,
                row.jobs,
                row.test_cases,
                secs(row.wall),
                row.planned,
                row.fired,
                row.detected,
                row.power_losses,
                row.recovered,
                row.corrupted,
                row.recovery_verdict,
                row.intact_verdict
            );
        }
        // Worker-count independence is a hard guarantee, not a hope:
        // refuse to write benchmark artifacts from a broken merge.
        let mut broken = false;
        for serial in rows.iter().filter(|r| r.jobs == 1) {
            for parallel in rows.iter().filter(|p| p.jobs != 1 && p.flow == serial.flow) {
                if serial.fingerprint != parallel.fingerprint {
                    eprintln!(
                        "FAIL: {} fault matrix diverges between jobs=1 ({}) and jobs={} ({})",
                        serial.flow, serial.fingerprint, parallel.jobs, parallel.fingerprint
                    );
                    broken = true;
                } else {
                    println!(
                        "{}: matrix fingerprint {} identical at jobs=1 and jobs={}",
                        serial.flow, serial.fingerprint, parallel.jobs
                    );
                }
            }
        }
        if broken {
            std::process::exit(1);
        }
        println!("\n-- derived-flow detection matrix (jobs={jobs}) --");
        let report = faults::run_fault_campaign(
            &faults::FaultCampaignSpec::derived(args.scale.derived_cases, args.scale.seed)
                .with_jobs(args.scale.jobs),
        );
        println!("{}", report.matrix.to_table());
        if args.write_json {
            let doc = render_faults_bench_json(&rows);
            match std::fs::write(&args.faults_json_path, &doc) {
                Ok(()) => println!("wrote {}", args.faults_json_path),
                Err(e) => eprintln!("could not write {}: {e}", args.faults_json_path),
            }
        }
    }

    if args.smc {
        println!("== Statistical model checking: SPRT vs Chernoff budget, jobs=1 vs jobs={jobs} ==");
        let rows = smc_bench(args.scale);
        println!(
            "{:<16} {:>6} {:>5} {:>10} {:>8} {:>8} {:>7} {:>8} {:>7} {:>6} {:>9}",
            "query",
            "theta",
            "jobs",
            "verdict",
            "samples",
            "chernoff",
            "p_hat",
            "issued",
            "disc",
            "wall",
            "saved"
        );
        for row in &rows {
            println!(
                "{:<16} {:>6.3} {:>5} {:>10} {:>8} {:>8} {:>7.4} {:>8} {:>7} {:>6} {:>9}",
                row.label,
                row.theta,
                row.jobs,
                row.verdict,
                row.samples,
                row.chernoff_bound,
                row.p_hat,
                row.issued,
                row.discarded,
                secs(row.wall),
                row.chernoff_bound.saturating_sub(row.samples)
            );
        }
        // Two hard guarantees gate the artifact: the report must be
        // worker-count independent, and the sequential test must actually
        // beat the fixed-sample budget it exists to undercut.
        let mut broken = false;
        for serial in rows.iter().filter(|r| r.jobs == 1) {
            for parallel in rows.iter().filter(|p| p.jobs != 1 && p.label == serial.label) {
                if serial.fingerprint != parallel.fingerprint {
                    eprintln!(
                        "FAIL: {} report diverges between jobs=1 ({}) and jobs={} ({})",
                        serial.label, serial.fingerprint, parallel.jobs, parallel.fingerprint
                    );
                    broken = true;
                } else {
                    println!(
                        "{}: report fingerprint {} identical at jobs=1 and jobs={}",
                        serial.label, serial.fingerprint, parallel.jobs
                    );
                }
            }
        }
        for row in rows.iter().filter(|r| r.method == "sprt") {
            if row.verdict == "undecided" {
                eprintln!(
                    "FAIL: {} left undecided after {} samples (budget {})",
                    row.label, row.samples, row.chernoff_bound
                );
                broken = true;
            }
            if row.samples >= row.chernoff_bound {
                eprintln!(
                    "FAIL: {} spent {} samples, no better than the Chernoff bound {}",
                    row.label, row.samples, row.chernoff_bound
                );
                broken = true;
            }
        }
        if broken {
            std::process::exit(1);
        }
        if let Some(row) = rows.first() {
            println!(
                "\nearly stopping: {} decided \"{}\" in {} samples vs a {}-sample fixed budget",
                row.label, row.verdict, row.samples, row.chernoff_bound
            );
        }
        println!("\n-- fails-direction report (jobs={jobs}) --");
        let report = sctc_smc::run_smc_campaign(
            &sctc_smc::SmcSpec::planted_torn(
                sctc_campaign::FlowKind::Derived,
                100,
                args.scale.seed,
            )
            .with_query(sctc_smc::SmcQuery::new(0.95, 0.025))
            .with_jobs(args.scale.jobs),
        );
        println!("{}", report.to_table());
        if args.write_json {
            let doc = render_smc_bench_json(&rows);
            match std::fs::write(&args.smc_json_path, &doc) {
                Ok(()) => println!("wrote {}", args.smc_json_path),
                Err(e) => eprintln!("could not write {}: {e}", args.smc_json_path),
            }
        }
    }

    if args.witness {
        println!("== Diagnosis layer: witnesses, VCD, profiler ==");
        let demos = witness_demo(args.profile);
        let mut failed = false;
        for demo in &demos {
            println!(
                "-- {} flow: intact violated={} decided@{} replay={} vcd={} provenance={} --",
                demo.flow,
                demo.violated,
                demo.decided_at,
                demo.replay_ok,
                demo.vcd_ok,
                demo.provenance_ok
            );
            print!("{}", demo.witness_report);
            println!("monitoring counters:");
            print!("{}", demo.report.monitoring);
            if !demo.report.spans.is_empty() {
                println!("span profile:");
                print!("{}", demo.report.spans);
            }
            println!();
            if !demo.ok() {
                eprintln!("FAIL: {} flow diagnosis checks did not all pass", demo.flow);
                failed = true;
            }
        }
        if let Some(path) = &args.vcd_path {
            // The derived flow's waveform is the canonical artifact; the
            // microprocessor flow's document was validated in memory.
            let text = demos
                .iter()
                .find(|d| d.flow == "derived")
                .map(|d| d.vcd_text.clone())
                .unwrap_or_default();
            match std::fs::write(path, &text) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => eprintln!("could not write {path}: {e}"),
            }
        }
        let obs = obs_bench(args.scale);
        println!(
            "profiler overhead: plain {} s, profiled {} s ({:+.2}% on {} cases; disabled = 0 by construction)",
            secs(obs.plain_wall),
            secs(obs.profiled_wall),
            obs.overhead_percent,
            obs.cases
        );
        if !obs.spans.is_empty() {
            println!("span profile (merged over shards):");
            print!("{}", obs.spans);
        }
        println!("metrics registry snapshot:");
        print!("{}", obs.metrics);
        if args.write_json {
            let doc = render_obs_json(&obs, &demos);
            match std::fs::write(&args.obs_json_path, &doc) {
                Ok(()) => println!("wrote {}", args.obs_json_path),
                Err(e) => eprintln!("could not write {}: {e}", args.obs_json_path),
            }
        }
        if failed {
            std::process::exit(1);
        }
    }

    if args.serve {
        println!("== Verification service: sustained load over loopback ==");
        let report = serve_bench(args.scale);
        println!(
            "{} clients x {} jobs over {} distinct specs: {:.1} jobs/s in {} s",
            report.clients,
            report.jobs_done / report.clients.max(1) as u64,
            report.distinct_jobs,
            report.jobs_per_sec,
            secs(report.wall)
        );
        println!(
            "served: {} cold, {} hit, {} coalesced (hit rate {:.1}%)",
            report.colds,
            report.hits,
            report.coalesced,
            report.hit_rate * 100.0
        );
        println!(
            "latency: p50 {:.0} us, p99 {:.0} us; cold median {:.0} us, hit median {:.0} us ({:.1}x)",
            report.p50.as_secs_f64() * 1e6,
            report.p99.as_secs_f64() * 1e6,
            report.cold_median.as_secs_f64() * 1e6,
            report.hit_median.as_secs_f64() * 1e6,
            report.speedup
        );
        println!("server counters:");
        for (name, value) in &report.stats {
            println!("  {name} = {value}");
        }
        let mut broken = false;
        if report.divergences > 0 {
            eprintln!(
                "FAIL: {} served digests diverged from in-process runs",
                report.divergences
            );
            broken = true;
        }
        if report.hits == 0 {
            eprintln!("FAIL: repeat-heavy workload produced no cache hits");
            broken = true;
        }
        if report.speedup < 10.0 {
            eprintln!(
                "FAIL: cache-hit latency must be >= 10x lower than cold (got {:.1}x)",
                report.speedup
            );
            broken = true;
        }
        if broken {
            std::process::exit(1);
        }
        println!(
            "(all {} served digests match their in-process runs; cache hits are {:.1}x faster than cold)",
            report.jobs_done, report.speedup
        );
        if args.write_json {
            let doc = render_server_bench_json(&report);
            match std::fs::write(&args.server_json_path, &doc) {
                Ok(()) => println!("wrote {}", args.server_json_path),
                Err(e) => eprintln!("could not write {}: {e}", args.server_json_path),
            }
        }
    }

    if args.telemetry {
        println!("== Telemetry overhead: trace plane off vs on ==");
        let report = telemetry_bench(args.scale);
        println!(
            "{} cases: off {} s, on {} s ({:+.2}% overhead, min-of-10 alternating)",
            report.cases,
            secs(report.off_wall),
            secs(report.on_wall),
            report.overhead_percent
        );
        println!(
            "{} events recorded on the last enabled run; all on/off fingerprints bit-identical",
            report.events.len()
        );
        if args.write_json {
            let doc = render_telemetry_json(&report);
            match std::fs::write(&args.telemetry_json_path, &doc) {
                Ok(()) => println!("wrote {}", args.telemetry_json_path),
                Err(e) => eprintln!("could not write {}: {e}", args.telemetry_json_path),
            }
            let doc = render_chrome_trace(&report.events);
            match std::fs::write(&args.trace_json_path, &doc) {
                Ok(()) => println!("wrote {} (load in chrome://tracing)", args.trace_json_path),
                Err(e) => eprintln!("could not write {}: {e}", args.trace_json_path),
            }
        }
        if report.overhead_percent > 3.0 {
            eprintln!(
                "FAIL: telemetry overhead must stay <= 3% (got {:.2}%)",
                report.overhead_percent
            );
            std::process::exit(1);
        }
    }
}
