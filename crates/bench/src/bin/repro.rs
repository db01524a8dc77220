//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--fig7] [--fig8] [--speedup] [--tb-sweep] [--campaign] [--faults]
//!       [--smc] [--witness-demo] [--serve-bench]
//!       [--telemetry-bench] [--all]
//!       [--jobs N] [--micro-cases N] [--derived-cases N] [--seed S]
//!       [--budget SECS] [--out DIR] [--json=false] [--profile]
//! ```
//!
//! With no table flags, `--all` is assumed. Numbers are scaled-down local
//! measurements; compare shapes against the paper (see EXPERIMENTS.md).
//! The simulation-based sections run as sharded campaigns over `--jobs`
//! worker threads (default: all cores); the worker count changes
//! wall-clock only, never a verdict or a coverage number.
//!
//! Six sections are measured and gated, and each writes its artifact
//! into `--out DIR` (default `.`):
//!
//! | section | artifact | gates |
//! |---|---|---|
//! | `--campaign` | `BENCH_campaign.json` | campaign fingerprints equal at jobs=1 and jobs=N |
//! | `--faults` | `BENCH_faults.json` | detection-matrix fingerprints equal at jobs=1 and jobs=N |
//! | `--smc` | `BENCH_smc.json` | report fingerprints equal at jobs=1 and jobs=N; the SPRT decides, below the Chernoff budget |
//! | `--witness-demo` | `BENCH_obs.json`, `out.vcd` | witness replay, VCD round-trip and provenance on both flows; profiling changes no fingerprint |
//! | `--serve-bench` | `BENCH_server.json` | every served digest equals its in-process run; cache hits ≥ 10× faster than cold |
//! | `--telemetry-bench` | `BENCH_telemetry.json`, `trace.json` | on/off fingerprints bit-identical; trace-plane overhead ≤ 3% (min-of-10) |
//!
//! `--witness-demo` runs the torn-write power-loss scenario with the
//! diagnosis layer on under both flows, prints the counterexample
//! witnesses, and measures the span profiler's overhead; `out.vcd` is the
//! derived flow's waveform. `--serve-bench` spawns the verification
//! service over loopback and hammers it with closed-loop clients drawing
//! a small repeat-heavy job pool. `--telemetry-bench` times the standard
//! derived campaign with the trace plane disabled and enabled; `trace.json`
//! is the flight-recorder log in chrome://tracing format.
//!
//! A section that fails a gate writes no artifact; `repro` prints every
//! failure at the end and exits with status 1, as it does when an
//! artifact cannot be written. `--json=false` writes no files at all and
//! leaves only the readable tables.

use std::path::PathBuf;
use std::time::Duration;

use sctc_bench::json::Value;
use sctc_bench::{
    campaign_bench, chrome_trace, faults_bench, fig7, fig8, obs_bench, secs, serve_bench,
    smc_bench, speedup, tb_sweep, telemetry_bench, witness_demo, Scale,
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
    out: Output,
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
        out: Output {
            dir: Some(PathBuf::from(".")),
        },
        scale: Scale::default(),
    };
    let mut write_json = true;
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
            "--json=false" => write_json = false,
            "--json=true" => write_json = true,
            "--out" => {
                args.out.dir = Some(PathBuf::from(it.next().expect("--out expects a directory")));
            }
            "--help" | "-h" => {
                println!(
                    "repro [--fig7] [--fig8] [--speedup] [--tb-sweep] [--campaign] [--faults]\n      \
                     [--smc] [--witness-demo] [--serve-bench]\n      \
                     [--telemetry-bench] [--all] [--jobs N]\n      \
                     [--micro-cases N] [--derived-cases N] [--seed S] [--budget SECS]\n      \
                     [--out DIR] [--json=false] [--profile]\n\n\
                     Artifacts go into --out DIR (default .): BENCH_campaign.json,\n\
                     BENCH_faults.json, BENCH_smc.json, BENCH_obs.json + out.vcd,\n\
                     BENCH_server.json, BENCH_telemetry.json + trace.json.\n\
                     --json=false writes no files."
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }
    if !write_json {
        args.out.dir = None;
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
    let out = &args.out;
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

    let mut failures = Vec::new();

    if args.campaign {
        println!("== Parallel campaigns: jobs=1 vs jobs={jobs} ==");
        let section = campaign_bench(args.scale);
        let rows = rows(&section.doc, "rows");
        print_table(
            rows,
            &[
                "flow",
                "config",
                "jobs",
                "test_cases",
                "wall_s",
                "synthesis_wall_s",
                "cases_per_sec",
                "cache_hit_rate",
                "violations",
                "coverage_percent",
                "fingerprint",
            ],
        );
        for serial in rows.iter().filter(|r| r["jobs"].as_f64() == Some(1.0)) {
            let same = |p: &&Value| p["flow"] == serial["flow"] && p["config"] == serial["config"];
            for parallel in rows
                .iter()
                .filter(same)
                .filter(|p| p["jobs"] != serial["jobs"])
            {
                println!(
                    "{} {}: {:.2}x speedup at jobs={}",
                    cell(&serial["flow"]),
                    cell(&serial["config"]),
                    num(&serial["wall_s"]) / num(&parallel["wall_s"]).max(1e-9),
                    cell(&parallel["jobs"])
                );
            }
        }
        if gate(section.failures, &mut failures) {
            println!("campaign fingerprints identical at jobs=1 and jobs={jobs}");
            out.emit("BENCH_campaign.json", &section.doc);
        }
    }

    if args.faults {
        println!("== Fault injection & recovery: jobs=1 vs jobs={jobs} ==");
        let section = faults_bench(args.scale);
        print_table(
            rows(&section.doc, "rows"),
            &[
                "flow",
                "jobs",
                "test_cases",
                "wall_s",
                "faults_planned",
                "faults_fired",
                "faults_detected",
                "power_losses",
                "recovered",
                "records_corrupted",
                "recovery_verdict",
                "intact_verdict",
                "matrix_fingerprint",
            ],
        );
        println!("\n-- derived-flow detection matrix (jobs={jobs}) --");
        let report = faults::run_fault_campaign(
            &faults::FaultCampaignSpec::derived(args.scale.derived_cases, args.scale.seed)
                .with_jobs(args.scale.jobs),
        );
        println!("{}", report.matrix.to_table());
        if gate(section.failures, &mut failures) {
            println!("matrix fingerprints identical at jobs=1 and jobs={jobs}");
            out.emit("BENCH_faults.json", &section.doc);
        }
    }

    if args.smc {
        println!(
            "== Statistical model checking: SPRT vs Chernoff budget, jobs=1 vs jobs={jobs} =="
        );
        let section = smc_bench(args.scale);
        let rows = rows(&section.doc, "rows");
        print_table(
            rows,
            &[
                "label",
                "theta",
                "jobs",
                "verdict",
                "samples",
                "chernoff_bound",
                "p_hat",
                "issued",
                "discarded",
                "wall_s",
                "samples_saved",
                "report_fingerprint",
            ],
        );
        if let Some(row) = rows.first() {
            println!(
                "\nearly stopping: {} decided \"{}\" in {} samples vs a {}-sample fixed budget",
                cell(&row["label"]),
                cell(&row["verdict"]),
                cell(&row["samples"]),
                cell(&row["chernoff_bound"])
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
        if gate(section.failures, &mut failures) {
            println!("report fingerprints identical at jobs=1 and jobs={jobs}");
            out.emit("BENCH_smc.json", &section.doc);
        }
    }

    if args.witness {
        println!("== Diagnosis layer: witnesses, VCD, profiler ==");
        let demos = witness_demo(args.profile);
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
        }
        let section = obs_bench(args.scale, &demos);
        let doc = &section.doc;
        let overhead = &doc["profiler_overhead"];
        println!(
            "profiler overhead: plain {:.3} s, profiled {:.3} s ({:+.2}% on {} cases; disabled = 0 by construction)",
            num(&overhead["plain_wall_s"]),
            num(&overhead["profiled_wall_s"]),
            num(&overhead["overhead_percent"]),
            cell(&overhead["cases"])
        );
        let spans = rows(doc, "spans");
        if !spans.is_empty() {
            println!("span profile (merged over shards):");
            print_table(spans, &["path", "count", "wall_s"]);
        }
        println!("metrics registry snapshot:");
        print_table(rows(doc, "metrics"), &["name", "type", "value"]);
        if gate(section.failures, &mut failures) {
            // The derived flow's waveform is the canonical artifact; the
            // microprocessor flow's document was validated in memory.
            if let Some(demo) = demos.iter().find(|d| d.flow == "derived") {
                out.write("out.vcd", &demo.vcd_text);
            }
            out.emit("BENCH_obs.json", doc);
        }
    }

    if args.serve {
        println!("== Verification service: sustained load over loopback ==");
        let section = serve_bench(args.scale);
        let doc = &section.doc;
        println!(
            "{} clients x {:.0} jobs over {} distinct specs: {:.1} jobs/s in {:.3} s",
            cell(&doc["clients"]),
            num(&doc["jobs_done"]) / num(&doc["clients"]).max(1.0),
            cell(&doc["distinct_jobs"]),
            num(&doc["jobs_per_sec"]),
            num(&doc["wall_s"])
        );
        println!(
            "served: {} cold, {} hit, {} coalesced (hit rate {:.1}%)",
            cell(&doc["colds"]),
            cell(&doc["hits"]),
            cell(&doc["coalesced"]),
            num(&doc["hit_rate"]) * 100.0
        );
        println!(
            "latency: p50 {:.0} us, p99 {:.0} us; cold median {:.0} us, hit median {:.0} us ({:.1}x)",
            num(&doc["p50_us"]),
            num(&doc["p99_us"]),
            num(&doc["cold_median_us"]),
            num(&doc["hit_median_us"]),
            num(&doc["hit_speedup"])
        );
        println!("server counters:");
        if let Value::Object(stats) = &doc["server_stats"] {
            for (name, value) in stats {
                println!("  {name} = {}", cell(value));
            }
        }
        if gate(section.failures, &mut failures) {
            println!(
                "(all {} served digests match their in-process runs; cache hits are {:.1}x faster than cold)",
                cell(&doc["jobs_done"]),
                num(&doc["hit_speedup"])
            );
            out.emit("BENCH_server.json", doc);
        }
    }

    if args.telemetry {
        println!("== Telemetry overhead: trace plane off vs on ==");
        let (section, events) = telemetry_bench(args.scale);
        let doc = &section.doc;
        println!(
            "{} cases: off {:.3} s, on {:.3} s ({:+.2}% overhead, min-of-10 alternating)",
            cell(&doc["cases"]),
            num(&doc["off_wall_s"]),
            num(&doc["on_wall_s"]),
            num(&doc["overhead_percent"])
        );
        println!(
            "{} events recorded on the last enabled run",
            cell(&doc["events_recorded"])
        );
        if gate(section.failures, &mut failures) {
            println!("all on/off fingerprints bit-identical");
            out.emit("BENCH_telemetry.json", doc);
            out.emit("trace.json", &chrome_trace(&events));
            println!("(load trace.json in chrome://tracing)");
        }
    }

    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
}

/// Where artifacts go: the `--out` directory, or nowhere under
/// `--json=false`.
struct Output {
    dir: Option<PathBuf>,
}

impl Output {
    /// Writes one JSON artifact.
    fn emit(&self, name: &str, doc: &Value) {
        self.write(name, &doc.render());
    }

    /// Writes one artifact file, creating the directory if needed; a
    /// failed write ends the run with exit status 1.
    fn write(&self, name: &str, text: &str) {
        let Some(dir) = &self.dir else { return };
        let path = dir.join(name);
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
            eprintln!("could not write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("wrote {}", path.display());
    }
}

/// Collects a section's gate failures into `failures`; `true` when the
/// section passed. A failing section writes no artifacts.
fn gate(section_failures: Vec<String>, failures: &mut Vec<String>) -> bool {
    let passed = section_failures.is_empty();
    failures.extend(section_failures);
    passed
}

/// The array under `key`, or no rows.
fn rows<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc[key].as_array().unwrap_or(&[])
}

/// A number field, `NaN` when missing.
fn num(value: &Value) -> f64 {
    value.as_f64().unwrap_or(f64::NAN)
}

/// One table cell: integral numbers without a fraction, others to three
/// decimals, `-` for null.
fn cell(value: &Value) -> String {
    match value {
        Value::Null => "-".to_owned(),
        Value::Bool(b) => b.to_string(),
        Value::Number(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => format!("{}", *n as i64),
        Value::Number(n) => format!("{n:.3}"),
        Value::String(s) => s.clone(),
        other => other.render().trim_end().to_owned(),
    }
}

/// Prints `rows` as a table of the `keys` columns: the first column
/// left-aligned, the rest right-aligned, each as wide as its widest cell.
fn print_table(rows: &[Value], keys: &[&str]) {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| keys.iter().map(|key| cell(&row[key])).collect())
        .collect();
    let widths: Vec<usize> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| {
            cells
                .iter()
                .map(|row| row[i].chars().count())
                .fold(key.len(), usize::max)
        })
        .collect();
    let print_line = |texts: &mut dyn Iterator<Item = &str>| {
        let line: Vec<String> = texts
            .zip(&widths)
            .enumerate()
            .map(|(i, (text, &width))| {
                if i == 0 {
                    format!("{text:<width$}")
                } else {
                    format!("{text:>width$}")
                }
            })
            .collect();
        println!("{}", line.join("  ").trim_end());
    };
    print_line(&mut keys.iter().copied());
    for row in &cells {
        print_line(&mut row.iter().map(String::as_str));
    }
}
