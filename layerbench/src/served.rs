//! `served-mix`: a loopback verification server, started cold, under two
//! closed-loop client connections.
//!
//! The run is a series of rounds. Each round is a fresh child process:
//! it spawns the server, both clients draw with replacement from a pool
//! of distinct jobs (derived campaigns, derived fault campaigns,
//! planted-SMC queries and the two observed power-loss scenarios) until
//! they have made four submissions per pool entry, and only then — with
//! the load over and the server shut down — it recomputes every distinct
//! job in process with `run_job` and compares digests. Draws repeat, so
//! the result cache sees inserts, coalesced joins and hits side by side.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

use faults::EswProgram;
use sctc_server::job::run_job;
use sctc_server::{
    spawn, Client, JobDigest, JobOptions, JobOutcome, JobSpec, Served, ServerConfig,
};

use crate::batch;
use crate::json::{obj, Value};
use crate::metrics::{string_list, Layers, Outcome, PER_LAYER};
use crate::spans::{Recorder, Span};
use crate::stats::{median, mix, ratio};
use crate::{run_child, Args};

/// Closed-loop client connections.
const CLIENTS: u64 = 2;
/// Submissions per client and round: four per pool entry across both
/// clients, so the distinct jobs are about a quarter of the submissions.
const SUBMISSIONS_PER_CLIENT: u64 = 56;
/// A run makes at least this many submissions, so at least ten lie
/// beyond its 95th percentile.
const MIN_SUBMISSIONS: usize = 200;

/// Cold set-ups (`spawn` calls) sampled per round.
const SETUP_SAMPLES: usize = 20;

// The pool: 28 distinct jobs. Cold campaigns dominate the slowest fifth
// of the cold computes, where the 95th percentile of all submissions
// falls; the two SMC queries vary most with the seed and stay few.
const CAMPAIGN_JOBS: u64 = 16;
const CAMPAIGN_CASES: u64 = 200;
const FAULTS_JOBS: u64 = 8;
const FAULTS_CASES: u64 = 100;
const SMC_JOBS: u64 = 2;

/// Planted failure rates of the SMC queries, per mille. Both lie far
/// outside the query's indifference region around 0.95, so the correct
/// answer is known: 0‰ holds, 300‰ fails.
const SMC_RATES: [u32; 2] = [0, 300];

/// One distinct job of the pool and, for SMC queries, the answer its
/// planted rate dictates.
struct Entry {
    spec: JobSpec,
    smc_answer: Option<&'static str>,
}

/// The distinct jobs of a run; every round draws from the same pool.
fn pool(seed: u64) -> Vec<Entry> {
    let plain = |spec| Entry {
        spec,
        smc_answer: None,
    };
    let mut pool = Vec::new();
    for i in 0..CAMPAIGN_JOBS {
        pool.push(plain(JobSpec::small_campaign(
            CAMPAIGN_CASES,
            mix(seed, 100 + i),
        )));
    }
    for i in 0..FAULTS_JOBS {
        pool.push(plain(JobSpec::small_faults(
            FAULTS_CASES,
            mix(seed, 200 + i),
        )));
    }
    for i in 0..SMC_JOBS {
        let rate = SMC_RATES[(i % 2) as usize];
        pool.push(Entry {
            spec: JobSpec::planted_smc(rate, mix(seed, 300 + i)),
            smc_answer: Some(if rate == 0 { "Holds" } else { "Fails" }),
        });
    }
    pool.push(plain(JobSpec::observed_scenario(EswProgram::Healthy)));
    pool.push(plain(JobSpec::observed_scenario(EswProgram::TornWrite)));
    pool
}

/// Test cases a finished job stands for: campaign cases, fault-campaign
/// cases, accepted SMC samples, one scenario.
fn cases_of(spec: &JobSpec, digest: &JobDigest) -> u64 {
    match (spec, digest) {
        (_, JobDigest::Campaign(fp)) => fp.test_cases,
        (JobSpec::Faults(job), JobDigest::Faults { .. }) => job.cases,
        (_, JobDigest::Smc { samples, .. }) => *samples,
        _ => 1,
    }
}

/// Known answers of the pool's jobs, checked on the in-process digests.
fn pinned_problems(entry: &Entry, digest: &JobDigest) -> Vec<String> {
    use sctc_temporal::Verdict;
    let mut problems = Vec::new();
    match (&entry.spec, digest) {
        (JobSpec::Campaign(job), JobDigest::Campaign(fp)) => {
            if fp.test_cases != job.cases {
                problems.push(format!("{} of {} cases ran", fp.test_cases, job.cases));
            }
            problems.extend(fp.anomalies.iter().map(|a| format!("anomaly {a}")));
        }
        (JobSpec::Smc(_), JobDigest::Smc { verdict, .. }) => {
            let answer = format!("{verdict:?}");
            if Some(answer.as_str()) != entry.smc_answer {
                problems.push(format!(
                    "SPRT answered {answer}, the planted rate says {:?}",
                    entry.smc_answer
                ));
            }
        }
        (JobSpec::Scenario(job), JobDigest::Scenario { properties, .. }) => {
            let violated = |name: Option<&str>| {
                properties
                    .iter()
                    .any(|(n, v)| *v == Verdict::False && name.is_none_or(|name| n == name))
            };
            match job.program {
                EswProgram::Healthy if violated(None) => {
                    problems.push(format!("healthy scenario violated: {properties:?}"))
                }
                EswProgram::TornWrite if !violated(Some("intact")) => {
                    problems.push(format!("torn write not detected: {properties:?}"))
                }
                _ => {}
            }
        }
        (JobSpec::Faults(_), JobDigest::Faults { .. }) => {}
        _ => problems.push("digest kind does not match the job kind".to_owned()),
    }
    problems
}

/// `issued N, discarded M` from a served SMC report table.
fn smc_issue_counts(table: &str) -> Option<(u64, u64)> {
    let number_after = |key: &str| -> Option<u64> {
        let rest = &table[table.find(key)? + key.len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().ok()
    };
    Some((number_after("issued ")?, number_after("discarded ")?))
}

/// One submission as a client saw it.
struct Sample {
    pick: usize,
    latency_ms: f64,
    served: Option<Served>,
    digest: Option<JobDigest>,
    table: String,
    error: Option<String>,
}

/// One client connection's closed loop.
fn client_loop(
    mut client: Client,
    pool: &[Entry],
    seed: u64,
    rec: &mut Recorder,
    job_base: u64,
) -> (Vec<Sample>, Instant, Instant) {
    let begun = Instant::now();
    let mut samples = Vec::new();
    for i in 0..SUBMISSIONS_PER_CLIENT {
        let pick = (mix(seed, i) % pool.len() as u64) as usize;
        let t0 = Instant::now();
        let outcome = rec.span("server.submit", 0, job_base + i, || {
            client.submit(&pool[pick].spec, &JobOptions::default())
        });
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut sample = Sample {
            pick,
            latency_ms,
            served: None,
            digest: None,
            table: String::new(),
            error: None,
        };
        match outcome {
            Ok(JobOutcome::Done {
                served,
                digest,
                table,
                ..
            }) => {
                sample.served = Some(served);
                sample.digest = Some(digest);
                sample.table = table;
            }
            Ok(JobOutcome::TimedOut { deadline_ms, .. }) => {
                sample.error = Some(format!("timed out after {deadline_ms} ms"))
            }
            Ok(JobOutcome::Rejected { code, message }) => {
                sample.error = Some(format!("refused ({code}): {message}"))
            }
            Err(e) => sample.error = Some(format!("client error: {e}")),
        }
        samples.push(sample);
    }
    (samples, begun, Instant::now())
}

fn number_array(values: impl IntoIterator<Item = f64>) -> Value {
    Value::Arr(values.into_iter().map(Value::Num).collect())
}

/// One round, in its own fresh process. Returns the round's result
/// object for the measuring process.
pub fn round(args: &Args, index: u64) -> Value {
    let traced = args.trace && index == 1;
    let epoch = Instant::now();
    let mut rec = Recorder::new(traced, epoch, 0);
    let cache_before = batch::cache_stats();
    let pool = pool(args.seed);
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Set-up: `spawn` returns once the listener accepts.
    let t0 = Instant::now();
    let spawned = rec.span("server.spawn", 0, 0, || spawn(ServerConfig::default()));
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    let (mut server, first) = match spawned.map(|s| (Client::connect(s.addr()), s)) {
        Ok((Ok(client), server)) => (server, client),
        Ok((Err(e), _)) => return round_error(format!("connect: {e}")),
        Err(e) => return round_error(format!("spawn: {e}")),
    };
    let second = match Client::connect(server.addr()) {
        Ok(client) => client,
        Err(e) => return round_error(format!("connect: {e}")),
    };

    let barrier = Arc::new(Barrier::new(CLIENTS as usize));
    let pool_ref = &pool;
    let (results, mut spans): (Vec<_>, Vec<Span>) = thread::scope(|scope| {
        let handles: Vec<_> = [first, second]
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let barrier = barrier.clone();
                let seed = mix(mix(args.seed, index), 1 + c as u64);
                scope.spawn(move || {
                    let mut rec = Recorder::new(traced, epoch, 1 + c as u64);
                    barrier.wait();
                    let result = client_loop(client, pool_ref, seed, &mut rec, (c as u64) << 20);
                    (result, rec.take())
                })
            })
            .collect();
        let mut results = Vec::new();
        let mut spans = Vec::new();
        for handle in handles {
            let (result, client_spans) = handle.join().expect("client thread panicked");
            results.push(result);
            spans.extend(client_spans);
        }
        (results, spans)
    });
    let start = results.iter().map(|r| r.1).min().expect("two clients");
    let end = results.iter().map(|r| r.2).max().expect("two clients");
    let load_s = end.duration_since(start).as_secs_f64();
    let samples: Vec<Sample> = results.into_iter().flat_map(|r| r.0).collect();

    let stat = |pairs: &[(String, u64)], key: &str| {
        pairs.iter().find(|(k, _)| k == key).map_or(0, |(_, v)| *v) as f64
    };
    let server_stats = server.stats();
    let mut layers = Layers::default();
    batch::add_cache_layers(&cache_before, &mut layers);
    rec.span("server.shutdown", 0, 0, || server.shutdown());

    // The load is over: now compute the expected digests in process.
    let mut expected: Vec<Option<JobDigest>> = (0..pool.len()).map(|_| None).collect();
    for sample in &samples {
        if expected[sample.pick].is_none() {
            let entry = &pool[sample.pick];
            let digest = rec.span("server.run_job", 0, sample.pick as u64, || {
                run_job(&entry.spec, &JobOptions::default()).digest
            });
            let problems = pinned_problems(entry, &digest);
            attempted += 1;
            if !problems.is_empty() {
                failed += 1;
                failures.extend(
                    problems
                        .into_iter()
                        .map(|p| format!("pool job {}: {p}", sample.pick)),
                );
            }
            expected[sample.pick] = Some(digest);
        }
    }

    // More cold set-ups, now that the load cannot be disturbed.
    while setup_s.len() < SETUP_SAMPLES {
        let t0 = Instant::now();
        let spawned = rec.span("server.spawn", 0, setup_s.len() as u64, || {
            spawn(ServerConfig::default())
        });
        setup_s.push(t0.elapsed().as_secs_f64());
        match spawned {
            Ok(mut idle) => rec.span("server.shutdown", 0, 0, || idle.shutdown()),
            Err(e) => return round_error(format!("spawn: {e}")),
        }
    }

    let mut cases = 0u64;
    let (mut hit_us, mut cold_ms) = (Vec::new(), Vec::new());
    for (i, sample) in samples.iter().enumerate() {
        attempted += 1;
        let problem = match (&sample.error, &sample.digest) {
            (Some(error), _) => Some(error.clone()),
            (None, Some(digest)) if Some(digest) != expected[sample.pick].as_ref() => {
                Some(format!("served digest differs from run_job: {digest:?}"))
            }
            _ => None,
        };
        if let Some(problem) = problem {
            failed += 1;
            failures.push(format!(
                "submission {i} (pool job {}): {problem}",
                sample.pick
            ));
            continue;
        }
        if let Some(digest) = &sample.digest {
            cases += cases_of(&pool[sample.pick].spec, digest);
        }
        match sample.served {
            Some(Served::Hit) => hit_us.push(sample.latency_ms * 1e3),
            Some(Served::Cold) => {
                cold_ms.push(sample.latency_ms);
                if let Some(JobDigest::Smc { samples, .. }) = &sample.digest {
                    let (issued, discarded) =
                        smc_issue_counts(&sample.table).unwrap_or((*samples, 0));
                    layers.add("smc.samples", *samples as f64);
                    layers.add("smc.issued", issued as f64);
                    layers.add("smc.discarded", discarded as f64);
                }
            }
            _ => {}
        }
    }
    layers.add("server.cache_hits", stat(&server_stats, "cache.hits"));
    layers.add("server.cache_misses", stat(&server_stats, "cache.misses"));
    layers.add("server.coalesced", stat(&server_stats, "cache.coalesced"));

    spans.extend(rec.take());
    let layer_values = PER_LAYER
        .iter()
        .map(|(name, _)| (*name, Value::Num(layers.get(name))));
    obj([
        ("traced", Value::Bool(traced)),
        ("setup_s", number_array(setup_s)),
        ("load_s", Value::Num(load_s)),
        (
            "latencies_ms",
            number_array(samples.iter().map(|s| s.latency_ms)),
        ),
        ("hit_us", number_array(hit_us)),
        ("cold_ms", number_array(cold_ms)),
        ("cases", Value::Num(cases as f64)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        (
            "failures",
            Value::Arr(failures.into_iter().map(Value::Str).collect()),
        ),
        ("peak_rss_mb", Value::Num(crate::stats::peak_rss_mb())),
        ("layers", obj(layer_values)),
        (
            "spans",
            Value::Arr(spans.iter().map(Span::to_json).collect()),
        ),
    ])
}

fn round_error(message: String) -> Value {
    obj([
        ("attempted", Value::Num(1.0)),
        ("failed", Value::Num(1.0)),
        ("failures", Value::Arr(vec![Value::Str(message)])),
    ])
}

fn numbers(value: Option<&Value>) -> Vec<f64> {
    value
        .and_then(Value::as_array)
        .map(|items| items.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// The measuring process: runs rounds until the time is spent and at
/// least [`MIN_SUBMISSIONS`] submissions were made. A traced run traces
/// round 1 only, so its counters cover one round's fixed draw sequence,
/// and runs at least three untraced rounds around it for the overhead.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut rec = Recorder::new(args.trace, epoch, 0);
    let mut peaks = Vec::new();
    let (mut hit_us, mut cold_ms) = (Vec::new(), Vec::new());
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut traced_submissions = 0.0;
    let mut index = 0u64;
    loop {
        let opened = rec.open();
        let result = run_child(args, &format!("round:{index}"));
        rec.close(opened, 0, index, "server.round");
        let result = match result {
            Ok(result) => result,
            Err(e) => {
                out.check(&format!("round {index}"), vec![e]);
                break;
            }
        };
        let num = |key: &str| result.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        out.attempted += num("attempted") as u64;
        out.failed += num("failed") as u64;
        out.failures.extend(
            string_list(result.get("failures"))
                .into_iter()
                .map(|f| format!("round {index}: {f}")),
        );
        if result.get("setup_s").is_none() {
            break;
        }
        let latencies = numbers(result.get("latencies_ms"));
        let per_submission = ratio(num("load_s"), latencies.len() as f64);
        if result.get("traced") == Some(&Value::Bool(true)) {
            traced.push(per_submission);
            traced_submissions += latencies.len() as f64;
            hit_us.extend(numbers(result.get("hit_us")));
            cold_ms.extend(numbers(result.get("cold_ms")));
            for (name, value) in result
                .get("layers")
                .and_then(Value::as_object)
                .unwrap_or(&[])
            {
                if let (Some((known, _)), Some(v)) =
                    (PER_LAYER.iter().find(|(n, _)| n == name), value.as_f64())
                {
                    out.layers.add(known, v);
                }
            }
            let pid = index + 1;
            out.spans.extend(
                result
                    .get("spans")
                    .and_then(Value::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(Span::from_json)
                    .map(|s| Span { pid, ..s }),
            );
        } else {
            plain.push(per_submission);
        }
        out.setup_s.extend(numbers(result.get("setup_s")));
        out.timed_s += num("load_s");
        out.cases += num("cases");
        out.job_ms.extend(latencies);
        peaks.push(num("peak_rss_mb"));
        index += 1;
        let spent = epoch.elapsed().as_secs_f64() >= args.seconds;
        if spent && out.job_ms.len() >= MIN_SUBMISSIONS && (!args.trace || index >= 3) {
            break;
        }
    }
    out.peak_rss_mb = median(&peaks);
    if args.trace {
        let hits = out.layers.get("server.cache_hits");
        out.layers
            .set("server.hit_rate", ratio(hits, traced_submissions));
        out.layers.set("server.hit_p50_us", median(&hit_us));
        out.layers.set("server.cold_p50_ms", median(&cold_ms));
        out.layers.set(
            "obs.trace_overhead_frac",
            median(&traced) / median(&plain) - 1.0,
        );
        out.layers.derive_ratios();
        out.spans.extend(rec.take());
    }
    out
}
