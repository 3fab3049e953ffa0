//! End-to-end tests for the `sia-serve` daemon and its CLI surface:
//! replay parity with the batch run, snapshot/kill/restore losslessness
//! through the real binary, hostile input (deep JSON nesting, a zero
//! pinned batch, an over-long line, a non-UTF-8 line, jobs no GPU type
//! can hold), the drain log, the `trace-to-stream` converter, and the
//! mutually-exclusive-flag exit codes.

use std::io::Write;
use std::process::{Command, Stdio};

use serde_json::Value;
use sia::cluster::ClusterSpec;
use sia::core::SiaPolicy;
use sia::sim::{SimConfig, Simulator};
use sia::workloads::{
    trace_to_stream_jsonl, Adaptivity, StreamOptions, Trace, TraceConfig, TraceKind,
};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sia-cli"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sia_serve_e2e_{}_{name}", std::process::id()))
}

fn small_trace(n: usize) -> Trace {
    let mut trace = Trace::generate(&TraceConfig::new(TraceKind::Philly, 5).with_max_gpus_cap(16));
    trace.jobs.truncate(n);
    for j in &mut trace.jobs {
        j.work_target *= 0.1;
    }
    trace
}

/// Runs `sia-cli serve` with `lines` on stdin and returns (status, stdout).
fn serve_with_input(args: &[&str], lines: &str) -> (std::process::ExitStatus, String) {
    let out = serve_output(args, lines);
    (out.status, String::from_utf8_lossy(&out.stdout).to_string())
}

/// Runs `sia-cli serve` with `lines` on stdin and returns its full output.
fn serve_output(args: &[&str], lines: impl AsRef<[u8]>) -> std::process::Output {
    let mut child = cli()
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sia-cli serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(lines.as_ref())
        .expect("write stream");
    child.wait_with_output().expect("serve run")
}

/// The stdout JSONL values of a serve run.
fn values(stdout: &[u8]) -> Vec<Value> {
    String::from_utf8_lossy(stdout)
        .lines()
        .map(|l| serde_json::from_str(l).expect("stdout is JSONL"))
        .collect()
}

/// The response carrying request id `id`.
fn response<'a>(values: &'a [Value], id: &str) -> &'a Value {
    values
        .iter()
        .find(|v| v.get("id").and_then(Value::as_str) == Some(id))
        .unwrap_or_else(|| panic!("no response for {id}"))
}

#[test]
fn serve_replay_reproduces_the_batch_trace() {
    let trace = small_trace(10);
    // Ground truth: the batch run over the identical trace, cluster, seed
    // and config the daemon uses.
    let batch = Simulator::new(
        ClusterSpec::heterogeneous_64(),
        &trace,
        SimConfig {
            seed: 1,
            ..SimConfig::default()
        },
    )
    .run(&mut SiaPolicy::default());

    let stream = trace_to_stream_jsonl(&trace, &StreamOptions::default());
    let trace_out = tmp("parity_trace.jsonl");
    let audit_out = tmp("parity_audit.jsonl");
    let (status, stdout) = serve_with_input(
        &[
            "--seed",
            "1",
            "--quiet",
            "--trace-out",
            trace_out.to_str().unwrap(),
            "--trace-format",
            "jsonl",
            "--audit-out",
            audit_out.to_str().unwrap(),
        ],
        &stream,
    );
    assert!(status.success(), "serve failed: {stdout}");
    // Every submission was admitted and completed, tagged with its origin
    // request id.
    for job in &trace.jobs {
        let id = format!("\"id\":\"sub-{}\"", job.id);
        assert!(stdout.contains(&id), "no response tagged {id}");
    }
    assert!(stdout.contains("\"event\":\"shutdown\""));

    let daemon_trace = std::fs::read_to_string(&trace_out).unwrap();
    assert_eq!(
        batch.trace.canonical_jsonl(),
        daemon_trace,
        "daemon flight trace must be byte-identical to the batch engine's"
    );
    let daemon_audit = std::fs::read_to_string(&audit_out).unwrap();
    for line in daemon_audit.lines().take(1) {
        assert!(line.contains("\"ev\":\"meta\""), "audit header missing");
    }
    // The daemon audit additionally carries admission records, so compare
    // only that the batch audit's rounds/decisions are a subsequence.
    let batch_rounds = batch
        .audit
        .canonical_jsonl()
        .lines()
        .filter(|l| l.contains("\"ev\":\"round\""))
        .count();
    let daemon_rounds = daemon_audit
        .lines()
        .filter(|l| l.contains("\"ev\":\"round\""))
        .count();
    assert_eq!(batch_rounds, daemon_rounds);
    std::fs::remove_file(&trace_out).ok();
    std::fs::remove_file(&audit_out).ok();
}

#[test]
fn serve_snapshot_kill_restore_is_lossless_through_the_cli() {
    let trace = small_trace(8);
    let stream = trace_to_stream_jsonl(&trace, &StreamOptions::default());
    let lines: Vec<&str> = stream.lines().collect();
    let cut = 4;

    // Uninterrupted run.
    let full_trace = tmp("full_trace.jsonl");
    let (status, _) = serve_with_input(
        &[
            "--seed",
            "7",
            "--quiet",
            "--trace-out",
            full_trace.to_str().unwrap(),
            "--trace-format",
            "jsonl",
        ],
        &stream,
    );
    assert!(status.success());

    // Interrupted run: first half, then a snapshot, then EOF (the kill).
    let snap = tmp("mid.snap");
    let cut_at = serde_json::from_str::<Value>(lines[cut - 1])
        .unwrap()
        .get("at")
        .and_then(Value::as_f64)
        .unwrap();
    let mut first_half = lines[..cut].join("\n");
    first_half.push_str(&format!(
        "\n{{\"id\":\"snap\",\"cmd\":\"snapshot\",\"at\":{},\"path\":{:?}}}\n",
        cut_at,
        snap.to_str().unwrap()
    ));
    let (status, stdout) = serve_with_input(&["--seed", "7", "--quiet"], &first_half);
    assert!(status.success());
    assert!(
        stdout.contains("\"event\":\"snapshot\""),
        "snapshot not acknowledged: {stdout}"
    );

    // Restored run finishes the stream; its trace must be byte-identical
    // to the uninterrupted one.
    let resumed_trace = tmp("resumed_trace.jsonl");
    let rest = lines[cut..].join("\n");
    let (status, _) = serve_with_input(
        &[
            "--restore",
            snap.to_str().unwrap(),
            "--quiet",
            "--trace-out",
            resumed_trace.to_str().unwrap(),
            "--trace-format",
            "jsonl",
        ],
        &rest,
    );
    assert!(status.success());
    assert_eq!(
        std::fs::read_to_string(&full_trace).unwrap(),
        std::fs::read_to_string(&resumed_trace).unwrap(),
        "snapshot/kill/restore must not perturb the flight trace"
    );

    // A corrupted snapshot is refused up front with exit 2.
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&snap, &bytes).unwrap();
    let out = cli()
        .args(["serve", "--restore", snap.to_str().unwrap()])
        .stdin(Stdio::null())
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot restore"));

    std::fs::remove_file(&full_trace).ok();
    std::fs::remove_file(&resumed_trace).ok();
    std::fs::remove_file(&snap).ok();
}

#[test]
fn serve_answers_deeply_nested_json_with_one_error() {
    // Far deeper than the parser's nesting cap: the line must be answered
    // like any other malformed request, not overflow the stack.
    let input = format!(
        "{}\n{{\"id\":\"q\",\"cmd\":\"query\"}}\n{{\"id\":\"bye\",\"cmd\":\"shutdown\"}}\n",
        "[".repeat(200_000)
    );
    let out = serve_output(&["--quiet"], &input);
    assert_eq!(out.status.code(), Some(0));
    let values = values(&out.stdout);
    let errors: Vec<&Value> = values
        .iter()
        .filter(|v| v.get("ok") == Some(&Value::Bool(false)))
        .collect();
    assert_eq!(errors.len(), 1, "{values:?}");
    assert_eq!(
        errors[0].get("event").and_then(Value::as_str),
        Some("error")
    );
    assert_eq!(response(&values, "q").get("ok"), Some(&Value::Bool(true)));
    assert_eq!(
        response(&values, "bye")
            .get("event")
            .and_then(Value::as_str),
        Some("shutdown")
    );
}

/// Asserts a serve run exited 0, answered its `q` query and its `bye`
/// shutdown, and gave exactly one `ok:false` answer, which it returns.
fn one_error_and_served_on(out: &std::process::Output) -> Value {
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let values = values(&out.stdout);
    let errors: Vec<&Value> = values
        .iter()
        .filter(|v| v.get("ok") == Some(&Value::Bool(false)))
        .collect();
    assert_eq!(errors.len(), 1, "{values:?}");
    assert_eq!(response(&values, "q").get("ok"), Some(&Value::Bool(true)));
    assert_eq!(
        response(&values, "bye")
            .get("event")
            .and_then(Value::as_str),
        Some("shutdown")
    );
    errors[0].clone()
}

/// The typed reason of a refused request line.
fn reason(v: &Value) -> &str {
    v.get("reason").and_then(Value::as_str).unwrap_or_default()
}

#[test]
fn serve_rejects_a_zero_batch_submit_instead_of_dying() {
    // Admitted, this job panics the next round ("invalid batch limits").
    let mut trace = small_trace(1);
    trace.jobs[0].adaptivity = Adaptivity::StrongScaling { batch_size: 0.0 };
    let mut stream = trace_to_stream_jsonl(
        &trace,
        &StreamOptions {
            shutdown: false,
            ..StreamOptions::default()
        },
    );
    stream.push_str(
        "{\"id\":\"q\",\"cmd\":\"query\",\"at\":400}\n{\"id\":\"bye\",\"cmd\":\"shutdown\"}\n",
    );
    let audit_out = tmp("zero_batch_audit.jsonl");
    let out = serve_output(
        &["--quiet", "--audit-out", audit_out.to_str().unwrap()],
        &stream,
    );
    let rejected = one_error_and_served_on(&out);
    assert_eq!(
        rejected.get("event").and_then(Value::as_str),
        Some("rejected")
    );
    assert!(reason(&rejected).starts_with("invalid-spec"), "{rejected}");
    let audit = std::fs::read_to_string(&audit_out).unwrap();
    std::fs::remove_file(&audit_out).ok();
    let admissions: Vec<&str> = audit
        .lines()
        .filter(|l| l.contains("\"ev\":\"admission\""))
        .collect();
    assert_eq!(admissions.len(), 1, "{audit}");
    assert!(admissions[0].contains("\"reason\":\"invalid-spec\""));
}

#[test]
fn serve_refuses_an_over_long_line_and_reads_on() {
    let mut input = b"{\"id\":\"q\",\"cmd\":\"query\"}\n".to_vec();
    input.resize(input.len() + sia::serve::MAX_LINE_BYTES + 1, b'x');
    input.extend_from_slice(b"\n{\"id\":\"bye\",\"cmd\":\"shutdown\"}\n");
    let error = one_error_and_served_on(&serve_output(&["--quiet"], input));
    assert_eq!(error.get("event").and_then(Value::as_str), Some("error"));
    assert!(reason(&error).starts_with("line-too-long"), "{error}");
}

#[test]
fn serve_refuses_a_non_utf8_line_and_reads_on() {
    let input =
        b"{\"id\":\"q\",\"cmd\":\"query\"}\n\xff\xfe\n{\"id\":\"bye\",\"cmd\":\"shutdown\"}\n";
    let error = one_error_and_served_on(&serve_output(&["--quiet"], input));
    assert_eq!(error.get("event").and_then(Value::as_str), Some("error"));
    assert!(reason(&error).starts_with("bad-utf8"), "{error}");
}

#[test]
fn serve_rejects_jobs_no_gpu_type_can_hold() {
    // hetero64's largest GPU types (t4, rtx) have 24 GPUs each.
    let mut trace = small_trace(2);
    trace.jobs[0].min_gpus = 24;
    trace.jobs[0].max_gpus = 24;
    trace.jobs[1].min_gpus = 50_000;
    trace.jobs[1].max_gpus = 50_000;
    let mut stream = trace_to_stream_jsonl(
        &trace,
        &StreamOptions {
            shutdown: false,
            ..StreamOptions::default()
        },
    );
    let fits = trace.jobs[0].id.0;
    stream.push_str(&format!(
        "{{\"id\":\"c\",\"cmd\":\"cancel\",\"job\":{fits}}}\n{{\"id\":\"bye\",\"cmd\":\"shutdown\"}}\n"
    ));
    let audit_out = tmp("unschedulable_audit.jsonl");
    let out = serve_output(
        &["--quiet", "--audit-out", audit_out.to_str().unwrap()],
        &stream,
    );
    assert_eq!(out.status.code(), Some(0));
    let values = values(&out.stdout);
    let admitted = response(&values, &format!("sub-{}", trace.jobs[0].id));
    assert_eq!(
        admitted.get("event").and_then(Value::as_str),
        Some("admitted")
    );
    let rejected = response(&values, &format!("sub-{}", trace.jobs[1].id));
    assert_eq!(
        rejected.get("event").and_then(Value::as_str),
        Some("rejected")
    );
    assert_eq!(
        rejected.get("stage").and_then(Value::as_str),
        Some("schema")
    );
    let reason = rejected.get("reason").and_then(Value::as_str).unwrap();
    assert!(reason.starts_with("unschedulable"), "{reason}");
    // Nothing unschedulable is left behind for the drain to wait on.
    let bye = response(&values, "bye");
    assert_eq!(bye.get("unfinished").and_then(Value::as_u64), Some(0));

    let audit = std::fs::read_to_string(&audit_out).unwrap();
    let rejection = audit
        .lines()
        .find(|l| l.contains("\"ev\":\"admission\"") && l.contains("unschedulable"))
        .expect("typed rejection in the audit stream");
    assert!(rejection.contains(&format!("\"job\":{}", trace.jobs[1].id.0)));
    std::fs::remove_file(&audit_out).ok();
}

#[test]
fn serve_logs_the_drain_instant_it_reports() {
    let trace = small_trace(3);
    let stream = trace_to_stream_jsonl(&trace, &StreamOptions::default());
    let out = serve_output(&["--seed", "2"], &stream);
    assert_eq!(out.status.code(), Some(0));
    let values = values(&out.stdout);
    let now = values
        .iter()
        .find(|v| v.get("event").and_then(Value::as_str) == Some("shutdown"))
        .and_then(|v| v.get("now"))
        .and_then(Value::as_f64)
        .expect("shutdown response carries now");
    assert!(now > 0.0);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let logged: f64 = stderr
        .lines()
        .find_map(|l| l.split("drained at t=").nth(1))
        .and_then(|rest| rest.split('s').next())
        .and_then(|t| t.parse().ok())
        .unwrap_or_else(|| panic!("no drain line in: {stderr}"));
    assert_eq!(logged, now);
}

#[test]
fn serve_wallclock_pacing_drains_and_exits() {
    let trace = small_trace(3);
    let stream = trace_to_stream_jsonl(&trace, &StreamOptions::default());
    // Fast virtual clock so the drain completes in well under a second of
    // wall time.
    let (status, stdout) = serve_with_input(
        &["--pacing", "wallclock", "--speed", "1000000", "--quiet"],
        &stream,
    );
    assert!(status.success());
    assert!(stdout.contains("\"event\":\"shutdown\""), "got: {stdout}");
}

#[test]
fn cli_exclusive_flags_exit_two_with_one_line_messages() {
    // --trace-out now requires an explicit --trace-format.
    let out = cli()
        .args(["--trace-out", "/tmp/t.jsonl"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "one-line message, got: {stderr}");
    assert!(stderr.contains("--trace-out requires an explicit --trace-format"));

    // serve refuses capacity dynamics outright.
    let out = cli()
        .args(["serve", "--dynamics", "script.jsonl"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "one-line message, got: {stderr}");
    assert!(stderr.contains("incompatible"));

    // serve --trace-out also demands the explicit format...
    let out = cli()
        .args(["serve", "--trace-out", "/tmp/t.jsonl"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    // ...and only jsonl is a valid one for the daemon.
    let out = cli()
        .args([
            "serve",
            "--trace-out",
            "/tmp/t.jsonl",
            "--trace-format",
            "chrome",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("jsonl"));

    // trace-to-stream: FILE and --trace generation are mutually exclusive.
    let out = cli()
        .args(["trace-to-stream", "trace.json", "--trace", "philly"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));
}

#[test]
fn cli_trace_to_stream_converts_files_and_generates() {
    // File conversion round-trip.
    let trace = small_trace(6);
    let trace_file = tmp("trace.json");
    std::fs::write(&trace_file, trace.to_json()).unwrap();
    let stream_file = tmp("stream.jsonl");
    let out = cli()
        .args([
            "trace-to-stream",
            trace_file.to_str().unwrap(),
            "--tenant",
            "acme",
            "--gpu-hours-per-gpu",
            "2",
            "--out",
            stream_file.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = std::fs::read_to_string(&stream_file).unwrap();
    let lines: Vec<Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(lines.len(), trace.jobs.len() + 1);
    assert_eq!(lines[0].get("tenant").and_then(Value::as_str), Some("acme"));
    assert_eq!(
        lines[0].get("gpu_hours").and_then(Value::as_f64),
        Some(2.0 * trace.jobs[0].max_gpus as f64)
    );
    assert_eq!(
        lines.last().unwrap().get("cmd").and_then(Value::as_str),
        Some("shutdown")
    );

    // Generation mode writes straight to stdout.
    let out = cli()
        .args(["trace-to-stream", "--trace", "philly", "--jobs", "4"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 5);

    std::fs::remove_file(&trace_file).ok();
    std::fs::remove_file(&stream_file).ok();
}
