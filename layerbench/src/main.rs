//! `layerbench` — the layered end-to-end benchmark.
//!
//! ```text
//! layerbench --workload <derived-campaign|micro-faults|served-mix>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs in a fresh process and drives the program only
//! through its public entry points with the stock spec constructors and
//! the default monitoring engine. With `--trace 0` the last stdout line
//! carries the end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics of a traced run, and the benchmark's spans are
//! written to `layerbench/out/<workload>-<seed>.trace.json`. See
//! `NOTES.md` for what each workload isolates. `BENCHMARK.json` lists
//! `derived-campaign` and `served-mix`; `micro-faults` runs by hand.

mod batch;
mod derived;
mod json;
mod metrics;
mod micro;
mod served;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use json::{obj, Value};
use metrics::Outcome;

/// The seed the pinned verdicts and the notes refer to.
pub const DEFAULT_SEED: u64 = 20_080_310;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    DerivedCampaign,
    MicroFaults,
    ServedMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DerivedCampaign,
        Workload::MicroFaults,
        Workload::ServedMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DerivedCampaign => "derived-campaign",
            Workload::MicroFaults => "micro-faults",
            Workload::ServedMix => "served-mix",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What this process is: the measuring process, or one of the fresh
/// child processes it starts for cold set-ups and served rounds.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Role {
    Main,
    Setup,
    Round(u64),
}

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    role: Role,
}

fn usage() -> ! {
    eprintln!(
        "usage: layerbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: Workload::DerivedCampaign,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        role: Role::Main,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--role" => {
                args.role = match value.as_str() {
                    "setup" => Role::Setup,
                    round => match round.strip_prefix("round:").map(str::parse) {
                        Some(Ok(index)) => Role::Round(index),
                        _ => usage(),
                    },
                }
            }
            _ => usage(),
        }
    }
    args.workload = workload.unwrap_or_else(|| usage());
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        usage();
    }
    args
}

/// Starts this binary again as a fresh child process in `role` and
/// returns the JSON object on the last line of its stdout. The child is
/// always waited for.
pub fn run_child(args: &Args, role: &str) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--role", role])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start {role} child: {e}"))?;
    if !output.status.success() {
        return Err(format!("{role} child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    json::parse(line).map_err(|e| format!("{role} child printed no result ({e})"))
}

/// Reads `setup_s` and the failures from a set-up child's result.
pub fn setup_child(args: &Args) -> Result<(f64, Vec<String>), String> {
    let result = run_child(args, "setup")?;
    let setup = result
        .get("setup_s")
        .and_then(Value::as_f64)
        .ok_or("setup child result lacks setup_s")?;
    Ok((setup, metrics::string_list(result.get("failures"))))
}

/// Where the traced run writes its chrome trace.
pub fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-{}.trace.json", args.workload.name(), args.seed))
}

fn main() {
    let started = Instant::now();
    let args = parse_args();
    match args.role {
        Role::Setup => {
            let failures = match args.workload {
                Workload::DerivedCampaign => derived::one_case(args.seed),
                Workload::MicroFaults => micro::one_case(args.seed),
                Workload::ServedMix => usage(),
            };
            let result = obj([
                ("setup_s", Value::Num(started.elapsed().as_secs_f64())),
                (
                    "failures",
                    Value::Arr(failures.into_iter().map(Value::Str).collect()),
                ),
            ]);
            println!("{}", result.render());
        }
        Role::Round(index) => println!("{}", served::round(&args, index).render()),
        Role::Main => {
            let outcome: Outcome = match args.workload {
                Workload::DerivedCampaign => derived::run(&args, started),
                Workload::MicroFaults => micro::run(&args, started),
                Workload::ServedMix => served::run(&args),
            };
            for failure in &outcome.failures {
                eprintln!("FAILED: {failure}");
            }
            if args.trace {
                let path = trace_path(&args);
                if let Err(e) = spans::write_chrome_trace(&path, &outcome.spans) {
                    eprintln!("cannot write {}: {e}", path.display());
                    std::process::exit(1);
                }
                eprintln!("chrome trace: {}", path.display());
            }
            println!("{}", outcome.result_line(args.trace).render());
        }
    }
}
