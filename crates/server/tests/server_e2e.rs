//! End-to-end service tests: every job kind round-trips the protocol with
//! a fingerprint identical to the same job run in-process, deadlines
//! produce typed timeouts, and shutdown drains in-flight work.

use std::time::Duration;

use faults::EswProgram;
use sctc_obs::trace;
use sctc_server::job::run_job;
use sctc_server::protocol::ERR_SHUTTING_DOWN;
use sctc_server::{
    spawn, Client, JobOptions, JobOutcome, JobSpec, ServerConfig, Served, TelemetryValue,
};

fn local_server() -> sctc_server::ServerHandle {
    spawn(ServerConfig::default()).expect("bind loopback server")
}

/// Serializes the tests that flip or depend on the process-global
/// telemetry switch — a test that disables emission mid-flight would
/// otherwise race the flight-recorder assertions.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn stat(pairs: &[(String, u64)], name: &str) -> u64 {
    pairs
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

#[test]
fn campaign_jobs_round_trip_fingerprint_identical_cold_and_warm() {
    let mut server = local_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let spec = JobSpec::small_campaign(60, 20080310);
    let expected = run_job(&spec, &JobOptions::default());

    for pass in 0..2 {
        let outcome = client.submit(&spec, &JobOptions::default()).unwrap();
        let JobOutcome::Done { served, digest, table, .. } = outcome else {
            panic!("campaign job must finish: {outcome:?}");
        };
        assert_eq!(digest, expected.digest, "pass {pass}");
        // Tables carry wall-clock text, so only their shape is stable.
        assert!(!table.is_empty(), "pass {pass}");
        assert_eq!(
            served,
            if pass == 0 { Served::Cold } else { Served::Hit },
            "pass {pass}"
        );
    }
    server.shutdown();
}

#[test]
fn smc_jobs_round_trip_fingerprint_intact() {
    let mut server = local_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let spec = JobSpec::planted_smc(20, 42);
    let expected = run_job(&spec, &JobOptions::default());

    let outcome = client.submit(&spec, &JobOptions::default()).unwrap();
    let JobOutcome::Done { served, digest, .. } = outcome else {
        panic!("smc job must finish: {outcome:?}");
    };
    assert_eq!(served, Served::Cold);
    assert_eq!(digest, expected.digest);

    // The repeat is a whole-report cache hit, fingerprint intact.
    let outcome = client.submit(&spec, &JobOptions::default()).unwrap();
    let JobOutcome::Done { served, digest, .. } = outcome else {
        panic!("repeat smc job must finish: {outcome:?}");
    };
    assert_eq!(served, Served::Hit);
    assert_eq!(digest, expected.digest);
    server.shutdown();
}

#[test]
fn faults_jobs_round_trip() {
    let mut server = local_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let spec = JobSpec::small_faults(30, 7);
    let expected = run_job(&spec, &JobOptions::default());
    let outcome = client.submit(&spec, &JobOptions::default()).unwrap();
    let JobOutcome::Done { digest, .. } = outcome else {
        panic!("faults job must finish: {outcome:?}");
    };
    assert_eq!(digest, expected.digest);
    server.shutdown();
}

#[test]
fn scenario_jobs_stream_witnesses_and_vcd() {
    let mut server = local_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let spec = JobSpec::observed_scenario(EswProgram::TornWrite);
    let expected = run_job(&spec, &JobOptions::default());

    let outcome = client.submit(&spec, &JobOptions::default()).unwrap();
    let JobOutcome::Done { digest, witnesses, vcd, .. } = outcome else {
        panic!("scenario job must finish: {outcome:?}");
    };
    assert_eq!(digest, expected.digest);
    assert_eq!(witnesses, expected.witnesses);
    assert!(!witnesses.is_empty(), "torn-write scenario captures witnesses");
    let vcd = vcd.expect("vcd requested");
    assert_eq!(Some(&vcd), expected.vcd.as_ref());
    // The streamed VCD is a valid document.
    sctc_core::VcdDoc::parse(&vcd).expect("streamed vcd parses");
    server.shutdown();
}

#[test]
fn deadline_returns_typed_timeout_and_the_connection_survives() {
    let mut server = local_server();
    let mut client = Client::connect(server.addr()).unwrap();

    // A job far too large for a 1 ms deadline on any host.
    let slow = JobSpec::small_campaign(4_000, 555);
    let outcome = client
        .submit(
            &slow,
            &JobOptions {
                deadline_ms: 1,
                jobs: 1,
            },
        )
        .unwrap();
    let JobOutcome::TimedOut { deadline_ms, .. } = outcome else {
        panic!("1 ms deadline must time out: {outcome:?}");
    };
    assert_eq!(deadline_ms, 1);

    // The connection is still healthy: a quick job on the same socket.
    let quick = JobSpec::small_campaign(10, 556);
    let outcome = client.submit(&quick, &JobOptions::default()).unwrap();
    assert!(matches!(outcome, JobOutcome::Done { .. }));

    // The timed-out job kept running server-side; once finished it is a
    // cache entry, so an undeadlined retry completes (usually as a hit).
    let outcome = client.submit(&slow, &JobOptions::default()).unwrap();
    let JobOutcome::Done { digest, .. } = outcome else {
        panic!("retry must finish: {outcome:?}");
    };
    let expected = run_job(&slow, &JobOptions::default());
    assert_eq!(digest, expected.digest);
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_jobs_and_refuses_new_ones() {
    let mut server = local_server();
    let addr = server.addr();

    let submitter = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client
            .submit(
                &JobSpec::small_campaign(3_000, 777),
                &JobOptions::default(),
            )
            .unwrap()
    });

    // Wait until the slow job is demonstrably in flight, then shut down.
    let mut control = Client::connect(addr).unwrap();
    loop {
        let pairs = control.stats().unwrap();
        if stat(&pairs, "cache.misses") >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let draining = control.shutdown().unwrap();
    assert!(draining >= 1, "the slow job was in flight");

    // Drain semantics: the in-flight job completes normally.
    let outcome = submitter.join().unwrap();
    assert!(
        matches!(outcome, JobOutcome::Done { .. }),
        "in-flight job survives the drain: {outcome:?}"
    );

    // New jobs on surviving connections are refused with a typed error.
    // (The handler may instead close the drained connection; both are
    // clean shutdown behaviours.)
    let mut late = Client::connect(addr);
    if let Ok(client) = late.as_mut() {
        client.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        match client.submit(&JobSpec::small_campaign(5, 1), &JobOptions::default()) {
            Ok(JobOutcome::Rejected { code, .. }) => assert_eq!(code, ERR_SHUTTING_DOWN),
            Ok(other) => panic!("draining server must refuse new jobs: {other:?}"),
            Err(_) => {} // connection torn down — also a clean refusal
        }
    }
    server.shutdown();
}

#[test]
fn served_smc_jobs_stream_progress_frames_with_the_job_trace_id() {
    let _serial = serial();
    trace::set_enabled(true);
    let mut server = local_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let spec = JobSpec::planted_smc(200, 42);
    let outcome = client.submit(&spec, &JobOptions::default()).unwrap();
    let JobOutcome::Done { trace_id, progress, .. } = outcome else {
        panic!("smc job must finish: {outcome:?}");
    };
    assert_ne!(trace_id, 0, "a served job is assigned a non-zero trace id");
    assert!(
        !progress.is_empty(),
        "a served job streams at least one Progress frame before Done"
    );
    let mut last = 0u64;
    for frame in &progress {
        assert!(
            frame.done >= last,
            "sample counts go backwards: {} after {last}",
            frame.done
        );
        assert!(frame.done <= frame.total, "done exceeds total: {frame:?}");
        last = frame.done;
    }
    server.shutdown();
}

#[test]
fn deadline_exceeded_jobs_leave_a_flight_recorder_dump() {
    let _serial = serial();
    trace::set_enabled(true);
    let mut server = local_server();
    let mut client = Client::connect(server.addr()).unwrap();

    let slow = JobSpec::small_campaign(4_000, 9559);
    let outcome = client
        .submit(
            &slow,
            &JobOptions {
                deadline_ms: 1,
                jobs: 1,
            },
        )
        .unwrap();
    let JobOutcome::TimedOut { trace_id, .. } = outcome else {
        panic!("1 ms deadline must time out: {outcome:?}");
    };
    assert_ne!(trace_id, 0, "timed-out jobs still carry their trace id");
    // The server is in-process, so its flight recorder is ours to read:
    // the dump names the last stage the job completed before deadlining.
    assert!(
        trace::last_stage(trace_id).is_some(),
        "a deadlined job records the last stage it completed"
    );
    assert!(
        !trace::dump(trace_id).is_empty(),
        "a deadlined job leaves a non-empty flight-recorder dump"
    );
    server.shutdown();
}

#[test]
fn telemetry_request_returns_counters_and_exposition_text() {
    let mut server = local_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let spec = JobSpec::small_campaign(20, 2718);
    let outcome = client.submit(&spec, &JobOptions::default()).unwrap();
    assert!(matches!(outcome, JobOutcome::Done { .. }));

    let (metrics, text) = client.telemetry().unwrap();
    let jobs = metrics
        .iter()
        .find(|(name, _)| name == "server.jobs")
        .expect("snapshot carries the server.jobs counter");
    assert!(
        matches!(jobs.1, TelemetryValue::Counter(n) if n >= 1),
        "server.jobs counts the served job: {:?}",
        jobs.1
    );
    assert!(
        metrics.iter().any(|(name, value)| {
            name.starts_with("server.job_wall_us")
                && matches!(value, TelemetryValue::Histogram { count, p50, p99, .. }
                    if *count >= 1 && *p50 > 0.0 && *p99 >= *p50)
        }),
        "wall-clock histogram carries quantiles"
    );
    assert!(
        text.contains("server_jobs") && text.contains("# TYPE"),
        "text exposition is populated"
    );
    server.shutdown();
}

#[test]
fn served_digests_match_in_process_runs_regardless_of_the_telemetry_switch() {
    let _serial = serial();
    // Baseline with the trace plane dark, wire-served run with it lit:
    // telemetry must never reach a digest.
    trace::set_enabled(false);
    let spec = JobSpec::small_faults(30, 77);
    let expected = run_job(&spec, &JobOptions::default());
    trace::set_enabled(true);

    let mut server = local_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let outcome = client.submit(&spec, &JobOptions::default()).unwrap();
    let JobOutcome::Done { digest, .. } = outcome else {
        panic!("faults job must finish: {outcome:?}");
    };
    assert_eq!(digest, expected.digest);
    server.shutdown();
}

#[test]
fn stats_surface_server_and_cache_counters() {
    let mut server = local_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let spec = JobSpec::small_campaign(20, 31415);
    for _ in 0..3 {
        let outcome = client.submit(&spec, &JobOptions::default()).unwrap();
        assert!(matches!(outcome, JobOutcome::Done { .. }));
    }
    let pairs = client.stats().unwrap();
    assert_eq!(stat(&pairs, "server.jobs"), 3);
    assert_eq!(stat(&pairs, "server.jobs.campaign"), 3);
    assert_eq!(stat(&pairs, "server.served.cold"), 1);
    assert_eq!(stat(&pairs, "server.served.hit"), 2);
    assert_eq!(stat(&pairs, "cache.misses"), 1);
    assert_eq!(stat(&pairs, "cache.hits"), 2);
    assert!(stat(&pairs, "cache.bytes") > 0);
    assert_eq!(stat(&pairs, "cache.entries"), 1);
    server.shutdown();
}
