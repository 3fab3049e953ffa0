//! Command-line driver for the Sia simulator.
//!
//! ```text
//! sia-cli [--cluster hetero64|heteroN|homog64|physical44] [--trace philly|helios|newtrace|physical]
//!         [--policy sia|pollux|gavel|shockwave|themis]
//!         [--seed N] [--rate JOBS_PER_HOUR] [--dynamics FILE]
//!         [--profiling oracle|bootstrap|noprof] [--json]
//!         [--telemetry-out PATH] [--trace-out PATH] [--trace-format jsonl|chrome]
//!         [--audit-out PATH] [--quiet]
//! sia-cli trace-report FILE [--audit FILE] [--json] [--quiet]
//! sia-cli audit FILE [--json] [--quiet]
//! sia-cli serve [--cluster ...] [--policy ...] [--seed N]
//!         [--pacing replay|wallclock] [--speed X] [--socket PATH]
//!         [--restore FILE] [--default-quota H] [--quota TENANT=H]
//!         [--max-pending N] [--trace-out PATH --trace-format jsonl]
//!         [--audit-out PATH] [--stats-socket PATH] [--stats-tcp ADDR]
//!         [--heartbeat SECS] [--round-deadline SECS]
//!         [--log-level error|warn|info|debug] [--quiet]
//! sia-cli top FILE | sia-cli top --connect ENDPOINT
//!         [--interval SECS] [--iterations N]
//! sia-cli trace-to-stream [FILE] [--trace KIND] [--seed N] [--rate R]
//!         [--jobs N] [--tenant NAME] [--gpu-hours-per-gpu H]
//!         [--no-shutdown] [--out PATH]
//! sia-cli fleet SPEC.jsonl [--out DIR] [--workers N]
//!         [--progress PATH] [--json] [--quiet]
//! ```
//!
//! Runs one simulation and prints the summary (or JSON with `--json`).
//! `--dynamics FILE` loads a capacity-dynamics script (JSONL, one
//! add/remove/drain/degrade/restore event per line — see `sia-dynamics`)
//! and replays it against the cluster as simulated time passes; a script
//! that fails to parse or references unknown GPU types exits with status 2.
//! `--telemetry-out PATH` streams span/counter events as JSONL to PATH;
//! `--trace-out PATH` writes the simulated-time flight-recorder stream —
//! per-job lifecycle events — and requires an explicit `--trace-format`:
//! `jsonl`, or `chrome` (a Chrome trace-event document loadable in
//! Perfetto).
//! `--audit-out PATH` writes the decision-quality audit stream — per-round
//! solver gap/effort records plus per-job decision provenance — as JSONL.
//! `--quiet` suppresses the human-readable summary.
//!
//! `sia-cli trace-report FILE` analyses a recorded JSONL stream: per-job
//! queueing delay, restart count/overhead, allocation churn,
//! time-on-each-GPU-type and the cluster occupancy series. `--audit FILE`
//! adds a one-line solver-health summary from a recorded audit stream.
//!
//! `sia-cli audit FILE` analyses a recorded audit stream: proven optimality
//! gap percentiles, worst-gap rounds, warm-start hit rate and the per-job
//! regret table.
//!
//! `sia-cli serve` runs the scheduling daemon: JSONL commands (`submit`,
//! `cancel`, `query`, `snapshot`, `shutdown`, `metrics`, `health`) on
//! stdin or a Unix socket, JSONL responses and lifecycle events on
//! stdout. `--restore FILE` resumes from a snapshot written by the
//! `snapshot` command; with `--pacing wallclock` virtual time tracks the
//! wall clock at `--speed` virtual seconds per second. `serve` is
//! incompatible with `--dynamics`. Observability: `--stats-socket PATH` /
//! `--stats-tcp ADDR` expose read-only `GET /metrics` (Prometheus text
//! exposition) and `GET /healthz` endpoints on a side thread;
//! `--heartbeat SECS` emits a periodic `{"ev":"heartbeat",...}` JSONL
//! self-report (virtual seconds under replay pacing, wall seconds under
//! wallclock); `--round-deadline SECS` arms the stall watchdog that flips
//! `/healthz` to 503 when a scheduling round overruns; `--log-level`
//! selects the stderr verbosity (leveled, timestamped lines).
//!
//! `sia-cli top` renders a one-screen summary of a daemon's metrics:
//! from a scraped exposition FILE (render once), or live over
//! `--connect ENDPOINT` (a `--stats-socket` path or `--stats-tcp`
//! host:port), refreshing every `--interval` seconds until interrupted
//! (or `--iterations N` refreshes).
//!
//! `sia-cli trace-to-stream` converts a static trace file (or a generated
//! trace) into a serve-mode JSONL submission script.
//!
//! `sia-cli fleet` expands a JSONL fleet spec (one scenario group per line;
//! see `sia-fleet`) into the cross product of policy × trace × cluster ×
//! dynamics × seed range, executes the runs concurrently (work stealing
//! across `--workers` threads, or the `SIA_WORKERS` env override), and
//! writes one canonical `FLEET_*.json` per scenario cell into `--out DIR`
//! with mean/median/p95 and 95% confidence intervals per metric. The
//! canonical files are byte-identical for any worker count; wall-clock
//! lives only in the `--progress PATH` JSONL heartbeat and the stdout
//! summary. Spec errors, an unparseable `SIA_WORKERS`, and unwritable
//! outputs are one-line exit-2 usage errors; a fleet whose runs all
//! executed exits 0 even when some runs failed (their reproduction
//! coordinates are listed in the per-cell `failed` manifests) — exit 1 is
//! reserved for fleets that could not write their reports.

use sia::baselines::{GavelPolicy, PolluxPolicy, ShockwavePolicy, ThemisPolicy};
use sia::cluster::ClusterSpec;
use sia::core::SiaPolicy;
use sia::metrics::{ftf_ratios, summarize, unfair_fraction, worst_ftf};
use sia::models::ProfilingMode;
use sia::sim::{Scheduler, SimConfig, Simulator};
use sia::telemetry::{AuditEvent, AuditReport, Canonical, Stream, TraceEvent};
use sia::workloads::{Trace, TraceConfig, TraceKind};

/// Options that take a value.
const VALUE_OPTS: &[&str] = &[
    "--cluster",
    "--trace",
    "--policy",
    "--seed",
    "--rate",
    "--dynamics",
    "--profiling",
    "--telemetry-out",
    "--trace-out",
    "--trace-format",
    "--audit-out",
];
/// Boolean flags.
const FLAG_OPTS: &[&str] = &["--json", "--quiet", "--help", "-h"];

/// Command-line arguments, collected once at startup.
struct Args {
    argv: Vec<String>,
}

impl Args {
    /// Value of `--name VALUE`, if present.
    fn opt(&self, name: &str) -> Option<&str> {
        self.argv
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.argv.get(i + 1))
            .map(String::as_str)
    }

    /// Whether boolean flag `name` is present.
    fn flag(&self, name: &str) -> bool {
        self.argv.iter().any(|a| a == name)
    }

    /// Rejects unrecognized `--options` (values of value-options are skipped).
    fn check_unknown(&self) -> Result<(), String> {
        let mut i = 0;
        while i < self.argv.len() {
            let a = self.argv[i].as_str();
            if VALUE_OPTS.contains(&a) {
                if i + 1 >= self.argv.len() {
                    return Err(format!("option {a} requires a value"));
                }
                i += 2;
            } else if FLAG_OPTS.contains(&a) {
                i += 1;
            } else {
                return Err(format!("unknown argument {a}"));
            }
        }
        Ok(())
    }
}

/// Parses a `--cluster` value into a [`ClusterSpec`].
fn parse_cluster(name: &str) -> Result<ClusterSpec, String> {
    match name {
        "hetero64" => Ok(ClusterSpec::heterogeneous_64()),
        "homog64" => Ok(ClusterSpec::homogeneous_64()),
        "physical44" => Ok(ClusterSpec::physical_44()),
        // Fig9-style scaled heterogeneous clusters: heteroN for any
        // multiple of 64 (hetero128 ... hetero2048).
        other => other
            .strip_prefix("hetero")
            .and_then(|n| n.parse::<usize>().ok())
            .filter(|n| *n > 0 && n % 64 == 0)
            .map(|n| ClusterSpec::heterogeneous_scaled(n / 64))
            .ok_or_else(|| format!("unknown cluster {other}")),
    }
}

/// Parses a `--policy` value into a scheduler.
fn parse_policy(name: &str) -> Result<Box<dyn Scheduler>, String> {
    match name {
        "sia" => Ok(Box::new(SiaPolicy::default())),
        "pollux" => Ok(Box::new(PolluxPolicy::default())),
        "gavel" => Ok(Box::new(GavelPolicy::default())),
        "shockwave" => Ok(Box::new(ShockwavePolicy::default())),
        "themis" => Ok(Box::new(ThemisPolicy::default())),
        other => Err(format!("unknown policy {other}")),
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // Subcommand dispatch: `sia-cli trace-report FILE [--json] [--quiet]`.
    if raw.first().map(String::as_str) == Some("trace-report") {
        trace_report(&raw[1..]);
    }
    // `sia-cli audit FILE [--json] [--quiet]`.
    if raw.first().map(String::as_str) == Some("audit") {
        audit_report(&raw[1..]);
    }
    // `sia-cli serve ...`: the long-running scheduling daemon.
    if raw.first().map(String::as_str) == Some("serve") {
        run_serve(&raw[1..]);
    }
    // `sia-cli trace-to-stream ...`: static trace -> JSONL submissions.
    if raw.first().map(String::as_str) == Some("trace-to-stream") {
        trace_to_stream_cmd(&raw[1..]);
    }
    // `sia-cli top ...`: one-screen live metrics summary.
    if raw.first().map(String::as_str) == Some("top") {
        top_cmd(&raw[1..]);
    }
    // `sia-cli fleet ...`: Monte Carlo scenario-fleet runner.
    if raw.first().map(String::as_str) == Some("fleet") {
        fleet_cmd(&raw[1..]);
    }

    let args = Args { argv: raw };
    if args.flag("--help") || args.flag("-h") {
        println!(
            "usage: sia-cli [--cluster hetero64|heteroN|homog64|physical44] \
             [--trace philly|helios|newtrace|physical] \
             [--policy sia|pollux|gavel|shockwave|themis] [--seed N] \
             [--rate JOBS/HR] [--dynamics FILE] \
             [--profiling oracle|bootstrap|noprof] [--json] \
             [--telemetry-out PATH] [--trace-out PATH] \
             [--trace-format jsonl|chrome] [--audit-out PATH] [--quiet]\n\
             \x20      sia-cli trace-report FILE [--audit FILE] [--json] [--quiet]\n\
             \x20      sia-cli audit FILE [--json] [--quiet]\n\
             \x20      sia-cli serve [--cluster C] [--policy P] [--seed N] \
             [--pacing replay|wallclock] [--speed X] [--socket PATH] \
             [--restore FILE] [--default-quota H] [--quota TENANT=H] \
             [--max-pending N] [--trace-out PATH --trace-format jsonl] \
             [--audit-out PATH] [--stats-socket PATH] [--stats-tcp ADDR] \
             [--heartbeat SECS] [--round-deadline SECS] \
             [--log-level error|warn|info|debug] [--quiet]\n\
             \x20      sia-cli top FILE | sia-cli top --connect ENDPOINT \
             [--interval SECS] [--iterations N]\n\
             \x20      sia-cli trace-to-stream [FILE] [--trace KIND] [--seed N] \
             [--rate R] [--jobs N] [--tenant NAME] [--gpu-hours-per-gpu H] \
             [--no-shutdown] [--out PATH]\n\
             \x20      sia-cli fleet SPEC.jsonl [--out DIR] [--workers N] \
             [--progress PATH] [--json] [--quiet]"
        );
        return;
    }
    if let Err(e) = args.check_unknown() {
        eprintln!("{e} (see --help)");
        std::process::exit(2);
    }

    if let Some(path) = args.opt("--telemetry-out") {
        if let Err(e) = sia::telemetry::init_jsonl(path) {
            eprintln!("cannot open telemetry sink {path}: {e}");
            std::process::exit(2);
        }
    }
    let quiet = args.flag("--quiet");

    let cluster = match parse_cluster(args.opt("--cluster").unwrap_or("hetero64")) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let kind = match args.opt("--trace").unwrap_or("philly") {
        "philly" => TraceKind::Philly,
        "helios" => TraceKind::Helios,
        "newtrace" => TraceKind::NewTrace,
        "physical" => TraceKind::Physical,
        other => {
            eprintln!("unknown trace {other}");
            std::process::exit(2);
        }
    };
    let seed: u64 = args.opt("--seed").and_then(|s| s.parse().ok()).unwrap_or(1);
    let policy_name = args.opt("--policy").unwrap_or("sia").to_string();
    let rigid = matches!(policy_name.as_str(), "gavel" | "shockwave" | "themis");
    let mut tcfg = TraceConfig::new(kind, seed).with_max_gpus_cap(16);
    if rigid {
        tcfg = tcfg.with_adaptivity_mix(0.0, 1.0);
    }
    if let Some(rate) = args.opt("--rate").and_then(|s| s.parse().ok()) {
        tcfg = tcfg.with_rate(rate);
    }
    let trace = Trace::generate(&tcfg);

    // Load and validate the capacity-dynamics script before anything runs:
    // malformed input is an exit-2 usage error, not a mid-run panic.
    let dynamics = args.opt("--dynamics").map(|path| {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read dynamics script {path}: {e}");
                std::process::exit(2);
            }
        };
        let script = match sia::dynamics::DynamicsScript::parse_jsonl(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(2);
            }
        };
        if let Err(e) = script.validate(&cluster) {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        }
        script
    });

    let trace_out = args.opt("--trace-out");
    let trace_chrome = match args.opt("--trace-format").unwrap_or("jsonl") {
        "jsonl" => false,
        "chrome" => true,
        other => {
            eprintln!("unknown trace format {other} (expected jsonl or chrome)");
            std::process::exit(2);
        }
    };
    if args.opt("--trace-format").is_some() && trace_out.is_none() {
        eprintln!("--trace-format requires --trace-out (see --help)");
        std::process::exit(2);
    }
    if trace_out.is_some() && args.opt("--trace-format").is_none() {
        eprintln!("--trace-out requires an explicit --trace-format (jsonl or chrome; see --help)");
        std::process::exit(2);
    }
    if let Some(path) = trace_out {
        // Fail fast on an unwritable path rather than discovering it after
        // the run (jsonl spills open inside the engine; chrome exports
        // write after the run).
        if let Err(e) = std::fs::File::create(path) {
            eprintln!("cannot open trace output {path}: {e}");
            std::process::exit(2);
        }
    }
    let audit_out = args.opt("--audit-out");
    if let Some(path) = audit_out {
        // Same fail-fast contract as --trace-out.
        if let Err(e) = std::fs::File::create(path) {
            eprintln!("cannot open audit output {path}: {e}");
            std::process::exit(2);
        }
    }

    let profiling = match args.opt("--profiling").unwrap_or("bootstrap") {
        "oracle" => ProfilingMode::Oracle,
        "bootstrap" => ProfilingMode::Bootstrap,
        "noprof" => ProfilingMode::NoProf,
        other => {
            eprintln!("unknown profiling mode {other}");
            std::process::exit(2);
        }
    };

    let mut sched: Box<dyn Scheduler> = match parse_policy(&policy_name) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    let mut cfg = SimConfig {
        seed,
        profiling_mode: profiling,
        dynamics,
        ..SimConfig::default()
    };
    if let (Some(path), false) = (trace_out, trace_chrome) {
        cfg.trace_spill = Some(path.into());
    }
    if let Some(path) = audit_out {
        cfg.audit_spill = Some(path.into());
    }
    let sim = Simulator::new(cluster.clone(), &trace, cfg);
    let result = sim.run(sched.as_mut());

    if let Some(path) = trace_out {
        if trace_chrome {
            if result.trace.dropped > 0 {
                eprintln!(
                    "warning: {} trace records evicted from the ring; chrome export is partial",
                    result.trace.dropped
                );
            }
            if let Err(e) = std::fs::write(path, result.trace.chrome_trace().to_string()) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            }
        }
        if !args.flag("--quiet") {
            eprintln!(
                "trace written to {path} ({} format)",
                if trace_chrome { "chrome" } else { "jsonl" }
            );
        }
    }
    if let Some(path) = audit_out {
        if !args.flag("--quiet") {
            eprintln!("audit stream written to {path} (jsonl format)");
        }
    }
    let s = summarize(&result);
    let ratios = ftf_ratios(&result, &cluster);

    if args.flag("--json") {
        println!(
            "{{\"policy\":\"{}\",\"jobs\":{},\"unfinished\":{},\"avg_jct_hours\":{:.4},\
             \"p99_jct_hours\":{:.4},\"makespan_hours\":{:.4},\"gpu_hours_per_job\":{:.4},\
             \"avg_restarts\":{:.3},\"worst_ftf\":{:.3},\"unfair_fraction\":{:.4},\
             \"median_policy_runtime_s\":{:.6}}}",
            s.scheduler,
            result.records.len(),
            s.unfinished,
            s.avg_jct_hours,
            s.p99_jct_hours,
            s.makespan_hours,
            s.gpu_hours_per_job,
            s.avg_restarts,
            worst_ftf(&ratios),
            unfair_fraction(&ratios),
            s.median_policy_runtime,
        );
    } else if !quiet {
        println!("policy          : {}", s.scheduler);
        println!(
            "jobs            : {} submitted, {} unfinished",
            result.records.len(),
            s.unfinished
        );
        println!("avg JCT         : {:.2} h", s.avg_jct_hours);
        println!("p99 JCT         : {:.2} h", s.p99_jct_hours);
        println!("makespan        : {:.2} h", s.makespan_hours);
        println!("GPU-hours/job   : {:.2}", s.gpu_hours_per_job);
        println!("restarts/job    : {:.2}", s.avg_restarts);
        println!("worst FTF rho   : {:.2}", worst_ftf(&ratios));
        println!("unfair fraction : {:.1}%", unfair_fraction(&ratios) * 100.0);
        println!(
            "policy runtime  : {:.1} ms median/round",
            s.median_policy_runtime * 1e3
        );
        if let Some(ph) = sia::metrics::summarize_phases(&result) {
            println!(
                "solver phases   : refit {:.2} ms, goodput {:.2} ms, build {:.2} ms, \
                 solve {:.2} ms, placement {:.2} ms (mean/round over {} rounds)",
                ph.mean_refit_s * 1e3,
                ph.mean_goodput_s * 1e3,
                ph.mean_build_s * 1e3,
                ph.mean_solve_s * 1e3,
                ph.mean_placement_s * 1e3,
                ph.rounds,
            );
        }
    }

    sia::telemetry::shutdown();
}

/// Reads and parses a recorded JSONL stream. An unreadable or malformed
/// file is a usage error: one line on stderr, exit 2.
fn read_stream<E: Canonical>(path: &str) -> Stream<E> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    Stream::parse_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    })
}

/// `sia-cli trace-report FILE [--audit FILE] [--json] [--quiet]`: analyse
/// a recorded flight-recorder JSONL stream. Never returns.
fn trace_report(argv: &[String]) -> ! {
    const USAGE: &str = "usage: sia-cli trace-report FILE [--audit FILE] [--json] [--quiet]";
    let mut file: Option<&str> = None;
    let mut audit_file: Option<&str> = None;
    let mut json = false;
    let mut quiet = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--json" => json = true,
            "--quiet" => quiet = true,
            "--audit" => {
                let Some(v) = argv.get(i + 1) else {
                    eprintln!("--audit requires a value\n{USAGE}");
                    std::process::exit(2);
                };
                audit_file = Some(v);
                i += 1;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if !other.starts_with('-') && file.is_none() => file = Some(other),
            other => {
                eprintln!("unknown argument {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let Some(file) = file else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    // Solver-health sidebar: load the audit stream up-front so a bad path
    // is a usage error, not a post-report surprise.
    let audit_summary: Option<AuditReport> =
        audit_file.map(|path| read_stream::<AuditEvent>(path).report());
    if !quiet {
        eprintln!("reading {file} ...");
    }
    let trace = read_stream::<TraceEvent>(file);
    if !quiet {
        eprintln!("parsed {} records", trace.records.len());
    }
    let report = trace.report();

    if json {
        let jobs: Vec<serde_json::Value> = report
            .jobs
            .iter()
            .map(|j| {
                let opt = |v: Option<f64>| match v {
                    Some(x) => serde_json::json!(x),
                    None => serde_json::Value::Null,
                };
                serde_json::json!({
                    "job": j.job,
                    "name": j.name.as_str(),
                    "model": j.model.as_str(),
                    "submitted_s": j.submitted,
                    "queue_delay_s": opt(j.queue_delay()),
                    "jct_s": opt(j.jct()),
                    "restarts": j.restarts,
                    "restart_overhead_s": j.restart_overhead_s,
                    "alloc_changes": j.alloc_changes,
                    "failures": j.failures,
                    "seconds_by_type": j.seconds_by_type.clone(),
                    "gpu_seconds_by_type": j.gpu_seconds_by_type.clone(),
                })
            })
            .collect();
        let occupancy: Vec<serde_json::Value> = report
            .gpu_types
            .iter()
            .enumerate()
            .map(|(i, name)| {
                serde_json::json!({
                    "gpu_type": name.as_str(),
                    "mean_gpus": report.mean_occupancy()[i],
                    "peak_gpus": report.peak_occupancy()[i],
                })
            })
            .collect();
        let capacity: Vec<serde_json::Value> = report
            .capacity_events
            .iter()
            .map(|c| {
                serde_json::json!({
                    "t_s": c.t,
                    "kind": c.kind,
                    "gpu_type": report
                        .gpu_types
                        .get(c.gpu_type)
                        .map(|s| s.as_str())
                        .unwrap_or("?"),
                    "nodes": c.nodes as u64,
                    "gpus": c.gpus as u64,
                    "delta_gpus": c.delta_gpus,
                    "factor": c.factor,
                })
            })
            .collect();
        let solver_health = match &audit_summary {
            Some(a) => serde_json::json!({
                "rounds": a.rounds,
                "median_rel_gap": a.median_rel_gap,
                "max_rel_gap": a.max_rel_gap,
                "warm_hit_rate": a.warm_hit_rate(),
                "fallback_rounds": a.fallback_rounds,
            }),
            None => serde_json::Value::Null,
        };
        let doc = serde_json::json!({
            "records": trace.records.len() as u64,
            "dropped": trace.dropped,
            "rounds": report.rounds,
            "round_s": report.round_duration,
            "end_time_s": report.end_time,
            "policy_runtime_total_s": report.total_policy_runtime_s,
            "occupancy": occupancy,
            "capacity_timeline": capacity,
            "jobs": jobs,
            "solver_health": solver_health,
        });
        println!("{doc}");
        std::process::exit(0);
    }

    println!(
        "rounds          : {} x {:.0} s, window {:.2} h",
        report.rounds,
        report.round_duration,
        report.end_time / 3600.0
    );
    println!(
        "policy runtime  : {:.3} s total",
        report.total_policy_runtime_s
    );
    if let Some(a) = &audit_summary {
        println!(
            "solver health   : median gap {:.2e}, max gap {:.2e} (rel, {} rounds), \
             warm-start hit rate {:.0}%, {} fallback round(s)",
            a.median_rel_gap,
            a.max_rel_gap,
            a.rounds,
            a.warm_hit_rate() * 100.0,
            a.fallback_rounds,
        );
    }
    let mean = report.mean_occupancy();
    let peak = report.peak_occupancy();
    for (i, name) in report.gpu_types.iter().enumerate() {
        println!(
            "occupancy {:<6}: mean {:6.2} GPUs, peak {:3} GPUs",
            name, mean[i], peak[i]
        );
    }
    if !report.capacity_events.is_empty() {
        println!("capacity timeline:");
        for c in &report.capacity_events {
            let name = report
                .gpu_types
                .get(c.gpu_type)
                .map(|s| s.as_str())
                .unwrap_or("?");
            let delta = if c.delta_gpus != 0 {
                format!(", {:+} GPUs", c.delta_gpus)
            } else if (c.factor - 1.0).abs() > f64::EPSILON {
                format!(", x{:.2} throughput", c.factor)
            } else {
                String::new()
            };
            println!(
                "  t={:>8.0}s {:<13} {:<6} {} node(s){}",
                c.t, c.kind, name, c.nodes, delta
            );
        }
    }
    if trace.dropped > 0 {
        println!(
            "note            : {} records were evicted from the recording ring; figures are partial",
            trace.dropped
        );
    }
    println!(
        "{:>5} {:<14} {:<12} {:>10} {:>9} {:>8} {:>11} {:>6} {:>6} {:>9}",
        "job",
        "name",
        "model",
        "queue(min)",
        "jct(h)",
        "restarts",
        "rst-ovh(m)",
        "churn",
        "fails",
        "gpu-h"
    );
    for j in &report.jobs {
        let fmt_opt = |v: Option<f64>, scale: f64| match v {
            Some(x) => format!("{:.2}", x / scale),
            None => "-".to_string(),
        };
        println!(
            "{:>5} {:<14} {:<12} {:>10} {:>9} {:>8} {:>11.2} {:>6} {:>6} {:>9.2}",
            j.job,
            j.name,
            j.model,
            fmt_opt(j.queue_delay(), 60.0),
            fmt_opt(j.jct(), 3600.0),
            j.restarts,
            j.restart_overhead_s / 60.0,
            j.alloc_changes,
            j.failures,
            j.gpu_seconds() / 3600.0,
        );
    }
    std::process::exit(0);
}

/// `sia-cli audit FILE [--json] [--quiet]`: analyse a recorded decision
/// audit JSONL stream. Never returns.
fn audit_report(argv: &[String]) -> ! {
    const USAGE: &str = "usage: sia-cli audit FILE [--json] [--quiet]";
    let mut file: Option<&str> = None;
    let mut json = false;
    let mut quiet = false;
    for arg in argv {
        match arg.as_str() {
            "--json" => json = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if !other.starts_with('-') && file.is_none() => file = Some(other),
            other => {
                eprintln!("unknown argument {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let Some(file) = file else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    if !quiet {
        eprintln!("reading {file} ...");
    }
    let stream = read_stream::<AuditEvent>(file);
    if !quiet {
        eprintln!("parsed {} records", stream.records.len());
    }
    let report = stream.report();

    if json {
        let worst: Vec<serde_json::Value> = report
            .worst_rounds
            .iter()
            .map(|w| {
                serde_json::json!({
                    "round": w.round,
                    "t_s": w.t,
                    "abs_gap": w.abs_gap,
                    "rel_gap": w.rel_gap,
                })
            })
            .collect();
        let jobs: Vec<serde_json::Value> = report
            .jobs
            .iter()
            .map(|j| {
                serde_json::json!({
                    "job": j.job,
                    "decisions": j.decisions,
                    "total_regret": j.total_regret,
                    "max_regret": j.max_regret,
                    "fallback_decisions": j.fallback_decisions,
                })
            })
            .collect();
        let doc = serde_json::json!({
            "scheduler": report.scheduler.as_str(),
            "gap_tolerance": report.gap_tolerance,
            "rounds": report.rounds,
            "solved_rounds": report.solved_rounds,
            "proven_rounds": report.proven_rounds,
            "fallback_rounds": report.fallback_rounds,
            "warm_seeded_rounds": report.warm_seeded_rounds,
            "warm_hit_rate": report.warm_hit_rate(),
            "median_abs_gap": report.median_abs_gap,
            "max_abs_gap": report.max_abs_gap,
            "median_rel_gap": report.median_rel_gap,
            "p90_rel_gap": report.p90_rel_gap,
            "max_rel_gap": report.max_rel_gap,
            "worst_rounds": worst,
            "total_nodes": report.total_nodes,
            "total_pruned": report.total_pruned,
            "sharded_rounds": report.sharded_rounds,
            "mean_shards": report.mean_shards,
            "budget_exhausted_rounds": report.budget_exhausted_rounds,
            "total_lagrangian_iters": report.total_lagrangian_iters,
            "last_lagrangian_gap": report.last_lagrangian_gap,
            "decisions": report.decisions,
            "total_regret": report.total_regret,
            "jobs": jobs,
            "dropped": report.dropped,
        });
        println!("{doc}");
        std::process::exit(0);
    }

    println!("scheduler       : {}", report.scheduler);
    println!("gap tolerance   : {:.2e}", report.gap_tolerance);
    println!(
        "rounds          : {} audited, {} solved, {} proven optimal, {} fallback",
        report.rounds, report.solved_rounds, report.proven_rounds, report.fallback_rounds
    );
    println!(
        "warm starts     : {} of {} rounds seeded ({:.0}% hit rate)",
        report.warm_seeded_rounds,
        report.rounds,
        report.warm_hit_rate() * 100.0
    );
    println!(
        "abs gap         : median {:.3e}, max {:.3e}",
        report.median_abs_gap, report.max_abs_gap
    );
    println!(
        "rel gap         : median {:.3e}, p90 {:.3e}, max {:.3e}",
        report.median_rel_gap, report.p90_rel_gap, report.max_rel_gap
    );
    println!(
        "search effort   : {} B&B nodes explored, {} pruned",
        report.total_nodes, report.total_pruned
    );
    if report.sharded_rounds > 0 {
        println!(
            "decomposition   : {} sharded round(s), {:.1} shards mean, {} budget-exhausted",
            report.sharded_rounds, report.mean_shards, report.budget_exhausted_rounds
        );
        println!(
            "lagrangian      : {} pricing iterations total, last duality gap {:.3e}",
            report.total_lagrangian_iters, report.last_lagrangian_gap
        );
    } else if report.budget_exhausted_rounds > 0 {
        println!(
            "time budget     : {} round(s) returned the anytime incumbent at budget expiry",
            report.budget_exhausted_rounds
        );
    }
    if !report.worst_rounds.is_empty() {
        println!("worst-gap rounds:");
        for w in &report.worst_rounds {
            println!(
                "  round {:>5} t={:>8.0}s  abs {:.3e}  rel {:.3e}",
                w.round, w.t, w.abs_gap, w.rel_gap
            );
        }
    }
    println!(
        "decisions       : {} recorded, total regret {:.4}",
        report.decisions, report.total_regret
    );
    if !report.jobs.is_empty() {
        println!(
            "{:>5} {:>9} {:>13} {:>11} {:>9}",
            "job", "decisions", "total-regret", "max-regret", "fallback"
        );
        for j in &report.jobs {
            println!(
                "{:>5} {:>9} {:>13.4} {:>11.4} {:>9}",
                j.job, j.decisions, j.total_regret, j.max_regret, j.fallback_decisions
            );
        }
    }
    if report.dropped > 0 {
        println!(
            "note            : {} records were evicted from the recording ring; figures are partial",
            report.dropped
        );
    }
    std::process::exit(0);
}

/// Pops the value of `--name VALUE` at position `i` in `argv`, exiting 2
/// with the usage string when it is missing.
fn take_value(argv: &[String], i: &mut usize, name: &str, usage: &str) -> String {
    match argv.get(*i + 1) {
        Some(v) => {
            *i += 1;
            v.clone()
        }
        None => {
            eprintln!("option {name} requires a value\n{usage}");
            std::process::exit(2);
        }
    }
}

/// `sia-cli serve ...`: run the long-running scheduling daemon. Never
/// returns.
fn run_serve(argv: &[String]) -> ! {
    const USAGE: &str = "usage: sia-cli serve [--cluster C] [--policy P] [--seed N] \
         [--pacing replay|wallclock] [--speed X] [--socket PATH] [--restore FILE] \
         [--default-quota H] [--quota TENANT=H] [--max-pending N] \
         [--trace-out PATH --trace-format jsonl] [--audit-out PATH] \
         [--stats-socket PATH] [--stats-tcp ADDR] [--heartbeat SECS] \
         [--round-deadline SECS] [--log-level error|warn|info|debug] [--quiet]";
    use sia::serve::{
        serve_replay, serve_wallclock, LogLevel, Logger, Pacing, ServeOptions, Server,
    };

    let mut cluster_name = "hetero64".to_string();
    let mut policy_name = "sia".to_string();
    let mut seed: u64 = 1;
    let mut pacing = Pacing::Replay;
    let mut speed: f64 = 60.0;
    let mut socket: Option<String> = None;
    let mut restore: Option<String> = None;
    let mut opts = ServeOptions::default();
    let mut trace_out: Option<String> = None;
    let mut trace_format: Option<String> = None;
    let mut audit_out: Option<String> = None;
    let mut stats_socket: Option<String> = None;
    let mut stats_tcp: Option<String> = None;
    let mut log_level = LogLevel::Info;
    let mut quiet = false;

    let fail = |msg: &str| -> ! {
        eprintln!("{msg}\n{USAGE}");
        std::process::exit(2);
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--cluster" => cluster_name = take_value(argv, &mut i, "--cluster", USAGE),
            "--policy" => policy_name = take_value(argv, &mut i, "--policy", USAGE),
            "--seed" => {
                seed = match take_value(argv, &mut i, "--seed", USAGE).parse() {
                    Ok(s) => s,
                    Err(_) => fail("--seed must be an integer"),
                }
            }
            "--pacing" => {
                pacing = match take_value(argv, &mut i, "--pacing", USAGE).as_str() {
                    "replay" => Pacing::Replay,
                    "wallclock" => Pacing::Wallclock { speed },
                    other => fail(&format!("unknown pacing {other}")),
                }
            }
            "--speed" => {
                speed = match take_value(argv, &mut i, "--speed", USAGE).parse::<f64>() {
                    Ok(s) if s > 0.0 && s.is_finite() => s,
                    _ => fail("--speed must be a positive number"),
                };
                if let Pacing::Wallclock { .. } = pacing {
                    pacing = Pacing::Wallclock { speed };
                }
            }
            "--socket" => socket = Some(take_value(argv, &mut i, "--socket", USAGE)),
            "--restore" => restore = Some(take_value(argv, &mut i, "--restore", USAGE)),
            "--default-quota" => {
                opts.default_quota =
                    match take_value(argv, &mut i, "--default-quota", USAGE).parse::<f64>() {
                        Ok(q) if q >= 0.0 && q.is_finite() => Some(q),
                        _ => fail("--default-quota must be a non-negative number"),
                    }
            }
            "--quota" => {
                let v = take_value(argv, &mut i, "--quota", USAGE);
                let Some((tenant, hours)) = v.split_once('=') else {
                    fail("--quota expects TENANT=GPU_HOURS");
                };
                match hours.parse::<f64>() {
                    Ok(h) if h >= 0.0 && h.is_finite() => opts.quotas.push((tenant.to_string(), h)),
                    _ => fail("--quota expects TENANT=GPU_HOURS"),
                }
            }
            "--max-pending" => {
                opts.max_pending = match take_value(argv, &mut i, "--max-pending", USAGE).parse() {
                    Ok(n) => Some(n),
                    Err(_) => fail("--max-pending must be an integer"),
                }
            }
            "--trace-out" => trace_out = Some(take_value(argv, &mut i, "--trace-out", USAGE)),
            "--trace-format" => {
                trace_format = Some(take_value(argv, &mut i, "--trace-format", USAGE))
            }
            "--audit-out" => audit_out = Some(take_value(argv, &mut i, "--audit-out", USAGE)),
            "--stats-socket" => {
                stats_socket = Some(take_value(argv, &mut i, "--stats-socket", USAGE))
            }
            "--stats-tcp" => stats_tcp = Some(take_value(argv, &mut i, "--stats-tcp", USAGE)),
            "--heartbeat" => {
                opts.heartbeat_s =
                    match take_value(argv, &mut i, "--heartbeat", USAGE).parse::<f64>() {
                        Ok(h) if h > 0.0 && h.is_finite() => Some(h),
                        _ => fail("--heartbeat must be a positive number of seconds"),
                    }
            }
            "--round-deadline" => {
                opts.round_deadline_s =
                    match take_value(argv, &mut i, "--round-deadline", USAGE).parse::<f64>() {
                        Ok(d) if d > 0.0 && d.is_finite() => Some(d),
                        _ => fail("--round-deadline must be a positive number of seconds"),
                    }
            }
            "--log-level" => {
                log_level = match take_value(argv, &mut i, "--log-level", USAGE).parse::<LogLevel>()
                {
                    Ok(l) => l,
                    Err(e) => fail(&e),
                }
            }
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--dynamics" => {
                eprintln!(
                    "serve is incompatible with --dynamics (capacity scripts are batch-only)"
                );
                std::process::exit(2);
            }
            other => fail(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    // The serve trace stream is canonical JSONL only, and the format must
    // be spelled out so scripts never depend on an implicit default.
    match (&trace_out, trace_format.as_deref()) {
        (None, None) | (Some(_), Some("jsonl")) => {}
        (None, Some(_)) => fail("--trace-format requires --trace-out"),
        (Some(_), None) => fail("--trace-out requires an explicit --trace-format jsonl"),
        (Some(_), Some(other)) => fail(&format!("serve only writes jsonl traces (got {other})")),
    }

    let sched = match parse_policy(&policy_name) {
        Ok(s) => s,
        Err(e) => fail(&e),
    };
    let mut server = match &restore {
        Some(path) => {
            let payload = match sia::serve::read_snapshot(path) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("cannot restore from {path}: {e}");
                    std::process::exit(2);
                }
            };
            match Server::restore(&payload, sched, &opts) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot restore from {path}: {e}");
                    std::process::exit(2);
                }
            }
        }
        None => {
            let cluster = match parse_cluster(&cluster_name) {
                Ok(c) => c,
                Err(e) => fail(&e),
            };
            let cfg = SimConfig {
                seed,
                ..SimConfig::default()
            };
            Server::new(cluster, cfg, sched, &opts)
        }
    };

    let logger = Logger::new(log_level);
    if !quiet {
        logger.info(format!(
            "serve: {} on {}, {} pacing{}",
            policy_name,
            cluster_name,
            if matches!(pacing, Pacing::Replay) {
                "replay"
            } else {
                "wallclock"
            },
            restore
                .as_deref()
                .map(|p| format!(", restored from {p}"))
                .unwrap_or_default()
        ));
    }

    // Read-only stats listeners serve /metrics and /healthz from a side
    // thread off the shared Observe handle; they never touch the server.
    let mut stats_handles = Vec::new();
    if let Some(addr) = &stats_tcp {
        match sia::serve::spawn_tcp(addr, server.observe()) {
            Ok(h) => {
                logger.info(format!("stats listener on http://{}/metrics", h.endpoint));
                stats_handles.push(h);
            }
            Err(e) => {
                logger.error(format!("cannot bind stats listener {addr}: {e}"));
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = &stats_socket {
        #[cfg(unix)]
        match sia::serve::spawn_unix(std::path::Path::new(path), server.observe()) {
            Ok(h) => {
                logger.info(format!("stats listener on {}", h.endpoint));
                stats_handles.push(h);
            }
            Err(e) => {
                logger.error(format!("cannot bind stats socket {path}: {e}"));
                std::process::exit(2);
            }
        }
        #[cfg(not(unix))]
        {
            logger.error(format!("--stats-socket {path} is only supported on Unix"));
            std::process::exit(2);
        }
    }

    let served = match &socket {
        Some(path) => {
            #[cfg(unix)]
            {
                sia::serve::server::serve_unix(&mut server, std::path::Path::new(path), pacing)
            }
            #[cfg(not(unix))]
            {
                eprintln!("--socket {path} is only supported on Unix");
                std::process::exit(2);
            }
        }
        None => {
            let input = std::io::BufReader::new(std::io::stdin());
            let mut out = std::io::stdout();
            match pacing {
                Pacing::Replay => serve_replay(&mut server, input, &mut out),
                Pacing::Wallclock { speed } => serve_wallclock(&mut server, input, &mut out, speed),
            }
        }
    };
    // Orderly listener teardown first: removes Unix socket files (process
    // exit below skips destructors).
    for h in stats_handles {
        h.stop();
    }
    // Satellite contract: a daemon that evicted trace/audit records says
    // so once at shutdown, whatever else happened.
    let (trace_dropped, audit_dropped) = server.ring_drops();
    if trace_dropped > 0 || audit_dropped > 0 {
        logger.warn(format!(
            "recording rings evicted records ({trace_dropped} trace, {audit_dropped} audit); \
             exported streams are partial"
        ));
    }
    let clean = match served {
        Ok(c) => c,
        Err(e) => {
            logger.error(format!("serve: io error: {e}"));
            std::process::exit(1);
        }
    };
    if !clean {
        if !quiet {
            logger.warn(
                "serve: stream ended without shutdown; run not finalized \
                 (state survives only through snapshots)",
            );
        }
        std::process::exit(0);
    }
    let drained_at = server.now();
    let result = server.into_result();
    if let Some(path) = &trace_out {
        if let Err(e) = std::fs::write(path, result.trace.canonical_jsonl()) {
            logger.error(format!("cannot write {path}: {e}"));
            std::process::exit(1);
        }
    }
    if let Some(path) = &audit_out {
        if let Err(e) = std::fs::write(path, result.audit.canonical_jsonl()) {
            logger.error(format!("cannot write {path}: {e}"));
            std::process::exit(1);
        }
    }
    if !quiet {
        let s = summarize(&result);
        logger.info(format!(
            "serve: drained at t={drained_at}s — {} jobs, {} unfinished, avg JCT {:.2} h",
            result.records.len(),
            s.unfinished,
            s.avg_jct_hours
        ));
    }
    std::process::exit(0);
}

/// `sia-cli trace-to-stream [FILE] ...`: convert a static trace file (or a
/// freshly generated trace) into a serve-mode JSONL submission script.
/// Never returns.
fn trace_to_stream_cmd(argv: &[String]) -> ! {
    const USAGE: &str =
        "usage: sia-cli trace-to-stream [FILE] [--trace philly|helios|newtrace|physical] \
         [--seed N] [--rate JOBS/HR] [--jobs N] [--tenant NAME] \
         [--gpu-hours-per-gpu H] [--no-shutdown] [--out PATH]";
    use sia::workloads::{trace_to_stream_jsonl, StreamOptions};

    let fail = |msg: &str| -> ! {
        eprintln!("{msg}\n{USAGE}");
        std::process::exit(2);
    };
    let mut file: Option<String> = None;
    let mut kind: Option<String> = None;
    let mut seed: u64 = 1;
    let mut rate: Option<f64> = None;
    let mut jobs: Option<usize> = None;
    let mut out_path: Option<String> = None;
    let mut stream_opts = StreamOptions::default();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--trace" => kind = Some(take_value(argv, &mut i, "--trace", USAGE)),
            "--seed" => {
                seed = match take_value(argv, &mut i, "--seed", USAGE).parse() {
                    Ok(s) => s,
                    Err(_) => fail("--seed must be an integer"),
                }
            }
            "--rate" => {
                rate = match take_value(argv, &mut i, "--rate", USAGE).parse::<f64>() {
                    Ok(r) if r > 0.0 && r.is_finite() => Some(r),
                    _ => fail("--rate must be a positive number"),
                }
            }
            "--jobs" => {
                jobs = match take_value(argv, &mut i, "--jobs", USAGE).parse() {
                    Ok(n) => Some(n),
                    Err(_) => fail("--jobs must be an integer"),
                }
            }
            "--tenant" => stream_opts.tenant = take_value(argv, &mut i, "--tenant", USAGE),
            "--gpu-hours-per-gpu" => {
                stream_opts.gpu_hours_per_gpu =
                    match take_value(argv, &mut i, "--gpu-hours-per-gpu", USAGE).parse::<f64>() {
                        Ok(h) if h >= 0.0 && h.is_finite() => h,
                        _ => fail("--gpu-hours-per-gpu must be a non-negative number"),
                    }
            }
            "--no-shutdown" => stream_opts.shutdown = false,
            "--out" => out_path = Some(take_value(argv, &mut i, "--out", USAGE)),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_string()),
            other => fail(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    if file.is_some() && kind.is_some() {
        fail("FILE and --trace are mutually exclusive (convert a file or generate a trace)");
    }
    let mut trace = match &file {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(2);
                }
            };
            match Trace::from_json(&text) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{path}: not a trace file: {e}");
                    std::process::exit(2);
                }
            }
        }
        None => {
            let kind = match kind.as_deref().unwrap_or("philly") {
                "philly" => TraceKind::Philly,
                "helios" => TraceKind::Helios,
                "newtrace" => TraceKind::NewTrace,
                "physical" => TraceKind::Physical,
                other => fail(&format!("unknown trace {other}")),
            };
            let mut tcfg = TraceConfig::new(kind, seed).with_max_gpus_cap(16);
            if let Some(r) = rate {
                tcfg = tcfg.with_rate(r);
            }
            Trace::generate(&tcfg)
        }
    };
    if let Some(n) = jobs {
        trace.jobs.truncate(n);
    }
    let text = trace_to_stream_jsonl(&trace, &stream_opts);
    match &out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {} request(s) to {path}", text.lines().count());
        }
        None => print!("{text}"),
    }
    std::process::exit(0);
}

/// `sia-cli fleet SPEC.jsonl ...`: expand a fleet spec into its scenario
/// cross product, execute every run (work stealing across workers), and
/// write one canonical `FLEET_*.json` per scenario cell. Never returns.
fn fleet_cmd(argv: &[String]) -> ! {
    const USAGE: &str = "usage: sia-cli fleet SPEC.jsonl [--out DIR] [--workers N] \
         [--progress PATH] [--json] [--quiet]";
    use sia::fleet::{run_fleet, write_fleet_json, FleetOptions, FleetSpec};

    let fail = |msg: &str| -> ! {
        eprintln!("{msg}\n{USAGE}");
        std::process::exit(2);
    };
    let mut spec_path: Option<String> = None;
    let mut out_dir = "results/fleet".to_string();
    let mut workers: usize = 0;
    let mut progress: Option<String> = None;
    let mut json = false;
    let mut quiet = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--out" => out_dir = take_value(argv, &mut i, "--out", USAGE),
            "--workers" => {
                workers = match take_value(argv, &mut i, "--workers", USAGE).parse() {
                    Ok(n) if n > 0 => n,
                    _ => fail("--workers must be a positive integer"),
                }
            }
            "--progress" => progress = Some(take_value(argv, &mut i, "--progress", USAGE)),
            "--json" => json = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if !other.starts_with('-') && spec_path.is_none() => {
                spec_path = Some(other.to_string())
            }
            other => fail(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    // Validate the SIA_WORKERS override up front: library code ignores a
    // malformed value, the CLI turns it into a usage error.
    if let Err(e) = sia::core::pool::env_workers() {
        fail(&e);
    }
    let Some(spec_path) = spec_path else {
        fail("fleet needs a SPEC.jsonl path");
    };
    let spec = match FleetSpec::load(&spec_path) {
        Ok(s) => s,
        Err(e) => fail(&e),
    };

    let opts = FleetOptions {
        workers,
        progress: progress.as_ref().map(std::path::PathBuf::from),
    };
    if !quiet {
        eprintln!(
            "fleet {}: {} cells, {} runs",
            spec.name,
            spec.cells().len(),
            spec.total_runs()
        );
    }
    let report = match run_fleet(&spec, &opts) {
        Ok(r) => r,
        Err(e) => fail(&e),
    };
    let paths = match write_fleet_json(&report, std::path::Path::new(&out_dir)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };

    if json {
        let cells: Vec<serde_json::Value> = report
            .cells
            .iter()
            .zip(&paths)
            .map(|(c, p)| {
                let jct = c
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == "avg_jct_hours")
                    .map(|(_, s)| *s)
                    .unwrap_or_default();
                serde_json::json!({
                    "cell": c.cell.slug(),
                    "runs": c.completed,
                    "failed": c.failed.len() as u64,
                    "avg_jct_hours": jct.mean,
                    "avg_jct_ci95": [jct.ci95.0, jct.ci95.1],
                    "wall_s": c.wall_s,
                    "path": p.display().to_string(),
                })
            })
            .collect();
        let doc = serde_json::json!({
            "fleet": report.fleet.as_str(),
            "total_runs": report.total_runs,
            "total_failed": report.total_failed,
            "workers": report.workers as u64,
            "wall_s": report.wall_s,
            "cells": cells,
        });
        println!("{doc}");
    } else if !quiet {
        for c in &report.cells {
            let jct = c
                .metrics
                .iter()
                .find(|(n, _)| *n == "avg_jct_hours")
                .map(|(_, s)| *s)
                .unwrap_or_default();
            println!(
                "cell {:<44} {:>3} runs ({} failed)  avgJCT {:.2} h [{:.2}, {:.2}]  wall {:.1}s",
                c.cell.slug(),
                c.completed,
                c.failed.len(),
                jct.mean,
                jct.ci95.0,
                jct.ci95.1,
                c.wall_s,
            );
            for f in &c.failed {
                println!("  failed run {} seed {}: {}", f.run_id, f.seed, f.error);
            }
        }
        println!(
            "fleet {}: {} runs ({} failed) across {} cells in {:.1} s with {} workers; \
             {} report(s) in {}",
            report.fleet,
            report.total_runs,
            report.total_failed,
            report.cells.len(),
            report.wall_s,
            report.workers,
            paths.len(),
            out_dir,
        );
    }
    std::process::exit(0);
}

/// `sia-cli top FILE | --connect ENDPOINT`: a one-screen summary of a
/// daemon's Prometheus exposition — from a scraped file (render once) or
/// live from a stats listener (refresh until interrupted). Never returns.
fn top_cmd(argv: &[String]) -> ! {
    const USAGE: &str = "usage: sia-cli top FILE | sia-cli top --connect ENDPOINT \
         [--interval SECS] [--iterations N]";
    let fail = |msg: &str| -> ! {
        eprintln!("{msg}\n{USAGE}");
        std::process::exit(2);
    };
    let mut file: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut interval: f64 = 2.0;
    let mut iterations: Option<u64> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--connect" => connect = Some(take_value(argv, &mut i, "--connect", USAGE)),
            "--interval" => {
                interval = match take_value(argv, &mut i, "--interval", USAGE).parse::<f64>() {
                    Ok(s) if s > 0.0 && s.is_finite() => s,
                    _ => fail("--interval must be a positive number of seconds"),
                }
            }
            "--iterations" => {
                iterations = match take_value(argv, &mut i, "--iterations", USAGE).parse() {
                    Ok(n) if n > 0 => Some(n),
                    _ => fail("--iterations must be a positive integer"),
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_string()),
            other => fail(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    if file.is_some() == connect.is_some() {
        fail("top needs exactly one source: a scraped FILE or --connect ENDPOINT");
    }

    if let Some(path) = &file {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            }
        };
        match render_top(&text) {
            Ok(screen) => {
                print!("{screen}");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(2);
            }
        }
    }

    let endpoint = connect.unwrap();
    let mut done: u64 = 0;
    loop {
        let text = match scrape_metrics(&endpoint) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot scrape {endpoint}: {e}");
                std::process::exit(1);
            }
        };
        let screen = match render_top(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{endpoint}: {e}");
                std::process::exit(1);
            }
        };
        // Clear screen, cursor home, then the fresh frame.
        print!("\x1b[2J\x1b[H{screen}");
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        done += 1;
        if iterations.is_some_and(|k| done >= k) {
            std::process::exit(0);
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(interval));
    }
}

/// Fetches `GET /metrics` from a stats listener endpoint: a Unix socket
/// path (contains `/`) or a TCP `host:port`.
fn scrape_metrics(endpoint: &str) -> Result<String, String> {
    use std::io::{Read as _, Write as _};
    let mut raw = String::new();
    if endpoint.contains('/') {
        #[cfg(unix)]
        {
            let mut conn = std::os::unix::net::UnixStream::connect(endpoint)
                .map_err(|e| format!("connect: {e}"))?;
            write!(conn, "GET /metrics HTTP/1.0\r\n\r\n").map_err(|e| format!("write: {e}"))?;
            conn.read_to_string(&mut raw)
                .map_err(|e| format!("read: {e}"))?;
        }
        #[cfg(not(unix))]
        return Err("Unix socket endpoints are only supported on Unix".to_string());
    } else {
        let mut conn =
            std::net::TcpStream::connect(endpoint).map_err(|e| format!("connect: {e}"))?;
        write!(conn, "GET /metrics HTTP/1.0\r\n\r\n").map_err(|e| format!("write: {e}"))?;
        conn.read_to_string(&mut raw)
            .map_err(|e| format!("read: {e}"))?;
    }
    let status = raw.lines().next().unwrap_or_default();
    if !status.contains("200") {
        return Err(format!("unexpected response: {status}"));
    }
    // Body starts after the blank line ending the response head.
    let body = raw
        .split_once("\r\n\r\n")
        .or_else(|| raw.split_once("\n\n"))
        .map(|(_, b)| b)
        .ok_or("malformed HTTP response (no body)")?;
    Ok(body.to_string())
}

/// Renders one `top` frame from Prometheus exposition text.
fn render_top(exposition: &str) -> Result<String, String> {
    use sia::telemetry::registry::{bucket_counts, bucket_quantile, parse_exposition, Sample};
    let samples = parse_exposition(exposition)?;

    let gauge = |name: &str| -> Option<f64> {
        samples
            .iter()
            .find(|s| s.name == name)
            .map(|s: &Sample| s.value)
    };
    let sum_of = |name: &str| -> f64 {
        samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    };
    // All `(label value, metric value)` pairs of one family, keyed by one
    // label, in exposition (sorted) order.
    let by_label = |name: &str, label: &str| -> Vec<(String, f64)> {
        samples
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| {
                s.labels
                    .iter()
                    .find(|(k, _)| k == label)
                    .map(|(_, v)| (v.clone(), s.value))
            })
            .collect()
    };
    let fmt_ms = |s: f64| format!("{:.1}ms", s * 1e3);

    let mut out = String::new();
    let stalled = gauge("sia_serve_stalled").unwrap_or(0.0) > 0.5;
    out.push_str(&format!(
        "sia-serve  up {:.0}s  virtual t={:.0}s  rounds {:.0}{}\n",
        gauge("sia_serve_uptime_seconds").unwrap_or(0.0),
        gauge("sia_serve_virtual_time_seconds").unwrap_or(0.0),
        sum_of("sia_engine_rounds_total"),
        if stalled { "  [STALLED]" } else { "" },
    ));

    let job_of = |state: &str| -> f64 {
        by_label("sia_serve_jobs_total", "state")
            .iter()
            .find(|(s, _)| s == state)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    out.push_str(&format!(
        "jobs     : {:.0} active, {:.0} pending | {:.0} submitted, {:.0} admitted, \
         {:.0} rejected, {:.0} cancelled\n",
        gauge("sia_serve_active_jobs").unwrap_or(0.0),
        gauge("sia_serve_pending_jobs").unwrap_or(0.0),
        job_of("submitted"),
        job_of("admitted"),
        job_of("rejected"),
        job_of("cancelled"),
    ));

    let cumulative = bucket_counts(&samples, "sia_serve_request_latency_seconds");
    let quantiles = if cumulative.last().map(|(_, n)| *n).unwrap_or(0.0) > 0.0 {
        let q = |p: f64| {
            bucket_quantile(&cumulative, p)
                .map(fmt_ms)
                .unwrap_or_else(|| "-".to_string())
        };
        format!(" | latency p50 {} p95 {} p99 {}", q(0.50), q(0.95), q(0.99))
    } else {
        String::new()
    };
    out.push_str(&format!(
        "requests : {:.0} handled{}\n",
        sum_of("sia_serve_requests_total"),
        quantiles,
    ));

    let rejections = by_label("sia_serve_rejections_total", "reason");
    if !rejections.is_empty() {
        let detail: Vec<String> = rejections
            .iter()
            .map(|(reason, n)| format!("{reason} {n:.0}"))
            .collect();
        out.push_str(&format!("rejects  : {}\n", detail.join(", ")));
    }

    if let Some(solve) = gauge("sia_solver_last_solve_seconds") {
        let gap = gauge("sia_solver_last_rel_gap")
            .map(|g| format!("{g:.1e}"))
            .unwrap_or_else(|| "-".to_string());
        let warm = gauge("sia_solver_warm_start_hit_ratio")
            .map(|w| format!("{:.0}%", w * 100.0))
            .unwrap_or_else(|| "-".to_string());
        out.push_str(&format!(
            "solver   : last solve {} gap {} | warm-hit {} | fallback rounds {:.0} | \
             B&B nodes {:.0} ({:.0} pruned)\n",
            fmt_ms(solve),
            gap,
            warm,
            gauge("sia_solver_fallback_rounds").unwrap_or(0.0),
            gauge("sia_solver_last_bb_nodes").unwrap_or(0.0),
            gauge("sia_solver_last_bb_nodes_pruned").unwrap_or(0.0),
        ));
    }

    let committed = by_label("sia_tenant_committed_gpu_hours", "tenant");
    if !committed.is_empty() {
        let quota_of = |tenant: &str| -> Option<f64> {
            by_label("sia_tenant_quota_gpu_hours", "tenant")
                .iter()
                .find(|(t, _)| t == tenant)
                .map(|(_, v)| *v)
        };
        let pending_of = |tenant: &str| -> f64 {
            by_label("sia_tenant_pending_jobs", "tenant")
                .iter()
                .find(|(t, _)| t == tenant)
                .map(|(_, v)| *v)
                .unwrap_or(0.0)
        };
        out.push_str("tenants  :");
        for (tenant, used) in &committed {
            let quota = quota_of(tenant)
                .map(|q| format!("/{q:.1}"))
                .unwrap_or_default();
            out.push_str(&format!(
                " {tenant} {used:.1}{quota} GPU-h ({:.0} pending)",
                pending_of(tenant)
            ));
        }
        out.push('\n');
    }

    let ring_of = |ring: &str| -> f64 {
        by_label("sia_ring_dropped_records", "ring")
            .iter()
            .find(|(r, _)| r == ring)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    out.push_str(&format!(
        "rings    : {:.0} trace / {:.0} audit dropped | scrapes {:.0} | heartbeats {:.0}\n",
        ring_of("trace"),
        ring_of("audit"),
        sum_of("sia_serve_scrapes_total"),
        sum_of("sia_serve_heartbeats_total"),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::render_top;

    #[test]
    fn top_renders_a_scraped_exposition() {
        let exposition = "\
# HELP sia_serve_uptime_seconds x
# TYPE sia_serve_uptime_seconds gauge
sia_serve_uptime_seconds 12
# HELP sia_serve_virtual_time_seconds x
# TYPE sia_serve_virtual_time_seconds gauge
sia_serve_virtual_time_seconds 345
# HELP sia_serve_active_jobs x
# TYPE sia_serve_active_jobs gauge
sia_serve_active_jobs 3
# HELP sia_serve_pending_jobs x
# TYPE sia_serve_pending_jobs gauge
sia_serve_pending_jobs 2
# HELP sia_serve_jobs_total x
# TYPE sia_serve_jobs_total counter
sia_serve_jobs_total{state=\"admitted\"} 8
sia_serve_jobs_total{state=\"rejected\"} 1
sia_serve_jobs_total{state=\"submitted\"} 9
# HELP sia_serve_requests_total x
# TYPE sia_serve_requests_total counter
sia_serve_requests_total{cmd=\"query\"} 5
sia_serve_requests_total{cmd=\"submit\"} 9
# HELP sia_serve_request_latency_seconds x
# TYPE sia_serve_request_latency_seconds histogram
sia_serve_request_latency_seconds_bucket{le=\"0.001\"} 10
sia_serve_request_latency_seconds_bucket{le=\"0.01\"} 14
sia_serve_request_latency_seconds_bucket{le=\"+Inf\"} 14
sia_serve_request_latency_seconds_sum 0.05
sia_serve_request_latency_seconds_count 14
# HELP sia_serve_rejections_total x
# TYPE sia_serve_rejections_total counter
sia_serve_rejections_total{stage=\"quota\",reason=\"queue-full\"} 1
# HELP sia_tenant_committed_gpu_hours x
# TYPE sia_tenant_committed_gpu_hours gauge
sia_tenant_committed_gpu_hours{tenant=\"acme\"} 4.5
# HELP sia_tenant_quota_gpu_hours x
# TYPE sia_tenant_quota_gpu_hours gauge
sia_tenant_quota_gpu_hours{tenant=\"acme\"} 10
# HELP sia_ring_dropped_records x
# TYPE sia_ring_dropped_records gauge
sia_ring_dropped_records{ring=\"audit\"} 0
sia_ring_dropped_records{ring=\"trace\"} 7
";
        let screen = render_top(exposition).unwrap();
        assert!(screen.contains("up 12s"), "{screen}");
        assert!(screen.contains("virtual t=345s"), "{screen}");
        assert!(screen.contains("3 active, 2 pending"), "{screen}");
        assert!(screen.contains("9 submitted, 8 admitted"), "{screen}");
        assert!(screen.contains("14 handled"), "{screen}");
        assert!(screen.contains("p50"), "{screen}");
        assert!(screen.contains("queue-full 1"), "{screen}");
        assert!(screen.contains("acme 4.5/10.0 GPU-h"), "{screen}");
        assert!(screen.contains("7 trace / 0 audit dropped"), "{screen}");
        assert!(!screen.contains("[STALLED]"), "{screen}");
    }

    #[test]
    fn top_flags_a_stalled_daemon_and_rejects_garbage() {
        let exposition = "\
# HELP sia_serve_stalled x
# TYPE sia_serve_stalled gauge
sia_serve_stalled 1
";
        let screen = render_top(exposition).unwrap();
        assert!(screen.contains("[STALLED]"), "{screen}");
        assert!(render_top("not an exposition{{{").is_err());
    }
}
