//! End-to-end checks on the flight-recorder consumers: the Chrome
//! trace-event exporter, the `trace-report` analysis (reconciled against
//! the simulator's own per-job accounting), the JSONL spill file, and the
//! `sia-cli` argument validation around all of them.

use std::path::Path;
use std::process::Command;

use serde_json::Value;
use sia::cluster::ClusterSpec;
use sia::core::SiaPolicy;
use sia::models::ProfilingMode;
use sia::sim::{SimConfig, SimResult, Simulator};
use sia::telemetry::{AllocReason, FlightRecorder, FlightTrace, TraceEvent};
use sia::workloads::{Trace, TraceConfig, TraceKind};

/// A small fixed-seed workload that completes well inside the horizon, run
/// with oracle profiling so no profiling GPU-seconds are charged outside
/// the recorded allocation intervals.
fn small_run(spill: Option<&Path>) -> SimResult {
    let mut trace = Trace::generate(&TraceConfig::new(TraceKind::Philly, 7).with_max_gpus_cap(16));
    trace.jobs.truncate(16);
    for j in &mut trace.jobs {
        j.work_target *= 0.05;
    }
    let cfg = SimConfig {
        seed: 7,
        profiling_mode: ProfilingMode::Oracle,
        trace_spill: spill.map(Into::into),
        ..SimConfig::default()
    };
    let mut policy = SiaPolicy::default();
    Simulator::new(ClusterSpec::heterogeneous_64(), &trace, cfg).run(&mut policy)
}

#[test]
fn chrome_export_is_wellformed_on_a_real_run() {
    let result = small_run(None);
    let doc = result.trace.chrome_trace();
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Value::as_str),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let n_types = result.trace.gpu_types().len();
    let (mut slices, mut instants, mut counters, mut metas) = (0u64, 0u64, 0u64, 0u64);
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).expect("ph present");
        assert!(
            ["M", "X", "i", "C"].contains(&ph),
            "unexpected phase {ph:?}"
        );
        assert!(
            e.get("ts").and_then(Value::as_f64).expect("ts present") >= 0.0,
            "timestamps are non-negative microseconds"
        );
        assert!(e.get("pid").and_then(Value::as_u64).is_some(), "pid");
        assert!(e.get("tid").and_then(Value::as_u64).is_some(), "tid");
        match ph {
            "X" => {
                slices += 1;
                assert!(e.get("dur").and_then(Value::as_f64).unwrap() >= 0.0);
                let pid = e.get("pid").and_then(Value::as_u64).unwrap() as usize;
                assert!(
                    (1..=n_types).contains(&pid),
                    "allocation slices live on GPU-type pids, got {pid}"
                );
            }
            "i" => {
                instants += 1;
                assert!(
                    e.get("s").and_then(Value::as_str).is_some(),
                    "instants carry a scope"
                );
            }
            "C" => counters += 1,
            _ => metas += 1,
        }
    }
    assert!(slices > 0, "a real run must produce allocation slices");
    assert!(instants > 0, "lifecycle instants missing");
    assert!(counters > 0, "occupancy counters missing");
    assert!(
        metas > n_types as u64,
        "one process_name per GPU type plus the cluster lane"
    );
}

#[test]
fn trace_report_reconciles_with_sim_result() {
    let result = small_run(None);
    assert_eq!(result.unfinished, 0, "workload must complete");
    assert_eq!(result.trace.dropped, 0, "ring must not have overflowed");
    let report = result.trace.report();

    assert_eq!(report.jobs.len(), result.records.len());
    assert_eq!(
        report.rounds as usize,
        result.rounds.len(),
        "one RoundScheduled record per executed round"
    );

    for stats in &report.jobs {
        let rec = result
            .records
            .iter()
            .find(|r| r.id.0 == stats.job)
            .expect("trace job exists in SimResult");
        assert_eq!(stats.name, rec.name, "job {} name", stats.job);
        assert_eq!(stats.submitted, rec.submit_time.max(0.0));
        assert_eq!(stats.first_start, rec.first_start);
        assert_eq!(stats.completed, rec.finish_time);
        assert_eq!(stats.restarts, u64::from(rec.restarts));
        assert_eq!(stats.failures, u64::from(rec.failures));
        // With oracle profiling the engine charges GPU time only while the
        // job holds an allocation, which is exactly what the trace records;
        // the two accountings differ only by float summation order.
        let (a, b) = (stats.gpu_seconds(), rec.gpu_seconds);
        assert!(
            (a - b).abs() <= 1e-6 * b.max(1.0),
            "job {} gpu-seconds: trace {a} vs engine {b}",
            stats.job
        );
    }

    // The occupancy series at each round instant must equal the round log's
    // own per-type allocation totals.
    let n_types = report.gpu_types.len();
    for round in &result.rounds {
        let mut expect = vec![0usize; n_types];
        for (_, ty, gpus) in &round.allocations {
            expect[ty.0] += gpus;
        }
        let sample = report
            .occupancy
            .iter()
            .find(|s| s.t == round.time)
            .unwrap_or_else(|| panic!("no occupancy sample at round t={}", round.time));
        assert_eq!(
            sample.gpus_by_type, expect,
            "occupancy at t={} disagrees with RoundLog",
            round.time
        );
        assert_eq!(sample.contention, round.contention);
    }
}

#[test]
fn spill_file_round_trips_the_in_memory_stream() {
    let path =
        std::env::temp_dir().join(format!("sia-trace-spill-rt-{}.jsonl", std::process::id()));
    let result = small_run(Some(&path));
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let parsed = FlightTrace::parse_jsonl(&text).expect("spill parses");
    assert_eq!(result.trace.dropped, 0);
    assert_eq!(
        parsed.records, result.trace.records,
        "spill file must reproduce the in-memory stream exactly"
    );
}

/// A minimal but complete JSONL stream for exercising `trace-report`.
fn tiny_stream() -> String {
    let mut rec = FlightRecorder::new(64);
    rec.record(
        0.0,
        TraceEvent::Meta {
            gpu_types: vec!["t4".into(), "a100".into()],
            round_duration: 60.0,
        },
    );
    rec.record(
        0.0,
        TraceEvent::JobSubmitted {
            job: 0,
            name: "j0".into(),
            model: "resnet18".into(),
        },
    );
    rec.record(0.0, TraceEvent::JobAdmitted { job: 0 });
    rec.record(
        0.0,
        TraceEvent::RoundScheduled {
            contention: 1,
            policy_runtime: 0.001,
        },
    );
    rec.record(
        0.0,
        TraceEvent::AllocationChanged {
            job: 0,
            gpu_type: Some(1),
            gpus: 2,
            reason: AllocReason::Started,
            restart: false,
        },
    );
    rec.record(90.0, TraceEvent::JobCompleted { job: 0 });
    rec.record(
        90.0,
        TraceEvent::AllocationChanged {
            job: 0,
            gpu_type: None,
            gpus: 0,
            reason: AllocReason::Completed,
            restart: false,
        },
    );
    rec.into_stream().to_jsonl()
}

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sia-cli"))
}

#[test]
fn cli_rejects_unknown_trace_format() {
    let out = cli()
        .args(["--trace-out", "/dev/null", "--trace-format", "bogus"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown trace format"),
        "stderr was: {stderr}"
    );
}

#[test]
fn cli_rejects_trace_format_without_trace_out() {
    let out = cli().args(["--trace-format", "chrome"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--trace-format requires --trace-out"),
        "stderr was: {stderr}"
    );
}

#[test]
fn cli_trace_report_rejects_missing_file() {
    let out = cli()
        .args(["trace-report", "/nonexistent/trace.jsonl"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    let out = cli().arg("trace-report").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "missing FILE operand");

    let out = cli()
        .args(["trace-report", "f.jsonl", "--bogus"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown flag");
}

#[test]
fn cli_trace_report_analyses_a_stream() {
    let path = std::env::temp_dir().join(format!("sia-trace-cli-rt-{}.jsonl", std::process::id()));
    std::fs::write(&path, tiny_stream()).unwrap();

    let out = cli()
        .args(["trace-report", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rounds"), "stdout was: {stdout}");
    assert!(stdout.contains("j0"), "per-job table row missing: {stdout}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("parsed"),
        "progress lines go to stderr"
    );

    // --quiet suppresses the progress output entirely.
    let out = cli()
        .args(["trace-report", path.to_str().unwrap(), "--quiet"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(
        out.stderr.is_empty(),
        "--quiet must silence progress output, got: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // --json emits one machine-readable document.
    let out = cli()
        .args(["trace-report", path.to_str().unwrap(), "--json", "--quiet"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let doc: Value = serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(doc.get("rounds").and_then(Value::as_u64), Some(1));
    let jobs = doc.get("jobs").and_then(Value::as_array).unwrap();
    assert_eq!(jobs.len(), 1);
    let j = &jobs[0];
    assert_eq!(j.get("jct_s").and_then(Value::as_f64), Some(90.0));
    assert_eq!(j.get("queue_delay_s").and_then(Value::as_f64), Some(0.0));
    assert_eq!(
        j.get("gpu_seconds_by_type")
            .and_then(Value::as_array)
            .and_then(|a| a[1].as_f64()),
        Some(180.0)
    );
}

#[test]
fn cli_rejects_malformed_dynamics_script() {
    let path = std::env::temp_dir().join(format!("sia-dyn-bad-{}.jsonl", std::process::id()));
    std::fs::write(&path, "{\"t\": 100.0, \"ev\": \"explode\"}\n").unwrap();
    let out = cli()
        .args(["--dynamics", path.to_str().unwrap()])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(2), "malformed script must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 1"), "stderr was: {stderr}");
}

#[test]
fn cli_rejects_dynamics_script_with_unknown_gpu_type() {
    let path = std::env::temp_dir().join(format!("sia-dyn-unk-{}.jsonl", std::process::id()));
    std::fs::write(
        &path,
        "{\"t\": 100.0, \"ev\": \"remove\", \"gpu_type\": \"tpu9000\", \"nodes\": 1}\n",
    )
    .unwrap();
    let out = cli()
        .args(["--dynamics", path.to_str().unwrap()])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(2), "unknown GPU type must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown GPU type"), "stderr was: {stderr}");
}

#[test]
fn cli_rejects_missing_dynamics_file() {
    let out = cli()
        .args(["--dynamics", "/nonexistent/dynamics.jsonl"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn trace_report_surfaces_capacity_timeline_from_dynamics_run() {
    use sia::dynamics::{CapacityEvent, DynamicsScript};

    let spill = std::env::temp_dir().join(format!("sia-dyn-spill-{}.jsonl", std::process::id()));
    let mut trace = Trace::generate(&TraceConfig::new(TraceKind::Philly, 7).with_max_gpus_cap(16));
    trace.jobs.truncate(16);
    let script = DynamicsScript::new()
        .at(
            400.0,
            CapacityEvent::Remove {
                gpu_type: "a100".to_string(),
                num_nodes: 2,
            },
        )
        .at(
            2500.0,
            CapacityEvent::Add {
                gpu_type: "a100".to_string(),
                num_nodes: 2,
                gpus_per_node: 8,
            },
        );
    let cfg = SimConfig {
        seed: 7,
        profiling_mode: ProfilingMode::Oracle,
        trace_spill: Some(spill.clone()),
        dynamics: Some(script),
        ..SimConfig::default()
    };
    let mut policy = SiaPolicy::default();
    Simulator::new(ClusterSpec::heterogeneous_64(), &trace, cfg).run(&mut policy);

    let out = cli()
        .args(["trace-report", spill.to_str().unwrap(), "--quiet"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("capacity timeline:"),
        "human report must show the capacity section: {stdout}"
    );

    let out = cli()
        .args(["trace-report", spill.to_str().unwrap(), "--json", "--quiet"])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&spill);
    assert_eq!(out.status.code(), Some(0));
    let doc: Value = serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    let timeline = doc
        .get("capacity_timeline")
        .and_then(Value::as_array)
        .expect("capacity_timeline array");
    let kinds: Vec<&str> = timeline
        .iter()
        .filter_map(|e| e.get("kind").and_then(Value::as_str))
        .collect();
    assert!(
        kinds.contains(&"killed"),
        "abrupt removal missing from timeline, got {kinds:?}"
    );
    assert!(
        kinds.contains(&"added"),
        "capacity add missing from timeline, got {kinds:?}"
    );
    for e in timeline {
        assert_eq!(e.get("gpu_type").and_then(Value::as_str), Some("a100"));
        assert!(e.get("t_s").and_then(Value::as_f64).unwrap() >= 0.0);
    }
}
