//! The repository's benchmark: four workloads through the public APIs of
//! `sia-sim`, `sia-serve` and `sia-fleet`, their end-to-end metrics, and a
//! separate traced run that splits each workload's time by layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Every
//! line before it is the human-readable report. The process exits nonzero
//! when an output check fails. See `README.md` for the workloads, the
//! metric → layer → workload map and the pitfalls.

mod batch;
mod fleet;
mod probe;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use spans::{layer_table, SpanLog};
use stats::{median, percentile, Digest};

/// Where runs leave their spans, snapshots and fleet heartbeats,
/// relative to the directory the benchmark runs from.
pub const OUT_DIR: &str = ".perfbench";

/// Seeds whose runs set the bounds in `BENCHMARK.json`.
const BOUND_SEEDS: &str = "1-10";
/// Held out from bound-setting: a later claim must also hold on it.
const HELD_OUT_SEED: u64 = 4242;

/// Before each repetition the run sets its input up at least this many
/// times and, for cheap set-ups, for at least this long, up to the cap;
/// `setup_s` is the median of all of them. Spreading the samples over the
/// run keeps a set-up of a few microseconds from reading whatever state
/// the host happened to be in during one short window.
const SETUP_MIN: usize = 3;
const SETUP_MIN_S: f64 = 0.025;
const SETUP_MAX: usize = 10_000;

pub type Layers = BTreeMap<&'static str, f64>;

/// One measured repetition of a workload.
pub struct Rep {
    /// Host seconds of the measured calls.
    pub wall_s: f64,
    /// Work completed: simulated job-hours, requests or runs.
    pub work: f64,
    /// Simulated job-hours, where the workload simulates jobs itself.
    pub job_hours: Option<f64>,
    /// Host seconds of each unit operation (round, request or run).
    pub ops_s: Vec<f64>,
    /// Host seconds of each `Scheduler::schedule` call seen.
    pub rounds_s: Vec<f64>,
    /// Average job completion time, simulated hours.
    pub avg_jct_h: f64,
    /// Operations attempted, and those answered not-ok.
    pub attempted: u64,
    pub not_ok: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    pub failures: Vec<String>,
    /// Digest of the canonical decision streams.
    pub digest: u64,
    pub layers: Layers,
    /// Accounting checks of a traced repetition.
    pub closures: Vec<Check>,
    pub spans: Option<SpanLog>,
    /// Request latencies by command (serve).
    pub per_cmd: Vec<(&'static str, Vec<f64>)>,
}

/// A workload: inputs made from a seed, the system built over them, and
/// one measured repetition.
pub trait Workload {
    type Input;
    type Armed;
    /// Makes the inputs (trace, command stream or fleet spec).
    fn make(&self, seed: u64) -> Self::Input;
    /// Host seconds `make` spent in `Trace::generate`.
    fn generate_s(&self, _input: &Self::Input) -> f64 {
        0.0
    }
    /// Builds the system under test (`Simulator`, `Server` or `FleetSpec`).
    fn arm(&self, input: &Self::Input) -> Self::Armed;
    /// Runs it once; `traced` records spans.
    fn run(&self, input: &Self::Input, armed: Self::Armed, traced: bool) -> Rep;
}

/// A named accounting identity of the traced run.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    /// `total = Σ parts + unattributed`. Passes when the unattributed
    /// remainder is not negative (no time counted twice) and equals the
    /// self time the span tree gives for the same parent.
    pub fn closure(name: &'static str, total: f64, parts: &[f64], span_self: f64) -> Check {
        let rest = total - parts.iter().sum::<f64>();
        let tol = 1e-6 * total.abs() + 1e-9;
        Check {
            name,
            ok: rest >= -tol && (rest - span_self).abs() <= tol,
            detail: format!(
                "total {total:.6} s, unattributed {rest:.6} s ({:.2}%), span self time {span_self:.6} s",
                100.0 * rest / total.max(1e-12)
            ),
        }
    }
}

/// Per-workload constants of the report.
struct Meta {
    name: &'static str,
    /// Distinct inputs every untraced run covers, each from its own
    /// derived seed.
    inputs: usize,
    /// The middle of the unit operation's host times: the median, or the
    /// interquartile mean where the median sits between two groups of
    /// operations and jumps between them from seed to seed.
    mid: fn(&[f64]) -> Option<f64>,
    /// Tail percentile of the unit operation.
    tail_q: f64,
    work: &'static str,
    op: &'static str,
}

const META: [Meta; 4] = [
    Meta {
        name: "batch_philly64",
        inputs: 6,
        mid: stats::interquartile_mean,
        tail_q: 0.9,
        work: "simulated job-hours",
        op: "Scheduler::schedule call",
    },
    Meta {
        name: "scale_4096",
        inputs: 2,
        mid: median_of,
        tail_q: 0.9,
        work: "simulated job-hours",
        op: "Scheduler::schedule call",
    },
    Meta {
        name: "serve_mixed",
        inputs: 6,
        mid: median_of,
        tail_q: 0.99,
        work: "requests",
        op: "Server::handle call",
    },
    Meta {
        name: "fleet_elastic",
        inputs: 2,
        mid: median_of,
        tail_q: 0.75,
        work: "runs",
        op: "fleet run",
    },
];

fn median_of(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// End-to-end metrics of an untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 7] = [
    ("work_per_s", "1/s"),
    ("latency_mid_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("avg_jct_h", "h"),
    ("ok_rate", "fraction"),
];

/// Per-layer metrics of a traced run: (name, unit). Seconds are per
/// repetition; layers that only one workload runs report shares, which
/// read 0 elsewhere.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("sim.run_s", "s"),
    ("sim.execute_s", "s"),
    ("sim.apply_s", "s"),
    ("sim.unattributed_s", "s"),
    ("policy.schedule_s", "s"),
    ("policy.refit_s", "s"),
    ("policy.goodput_s", "s"),
    ("policy.build_s", "s"),
    ("solver.solve_s", "s"),
    ("policy.placement_s", "s"),
    ("policy.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "fraction"),
    ("workloads.generate_share", "fraction"),
    ("sim.rounds", "count"),
    ("sim.jobs_per_round", "count"),
    ("events.fired", "count"),
    ("sim.flight_records", "count"),
    ("sim.audit_records", "count"),
    ("policy.rows_rebuilt", "count"),
    ("policy.rows_reused", "count"),
    ("policy.row_reuse", "fraction"),
    ("policy.candidates_per_round", "count"),
    ("policy.warm_start_invalidated", "count"),
    ("solver.nodes", "count"),
    ("solver.pivots", "count"),
    ("solver.nodes_pruned", "count"),
    ("solver.warm_pivots_saved", "count"),
    ("solver.warm_seeded_share", "fraction"),
    ("solver.shards_per_round", "count"),
    ("solver.lagrangian_iters", "count"),
    ("solver.budget_exhausted_rounds", "count"),
    ("solver.median_rel_gap", "fraction"),
    ("solver.fallback_rounds", "count"),
    ("serve.requests", "count"),
    ("serve.advance_share", "fraction"),
    ("serve.round_share", "fraction"),
    ("serve.driver_self_share", "fraction"),
    ("serve.request_share", "fraction"),
    ("serve.parse_share", "fraction"),
    ("serve.metrics_share", "fraction"),
    ("serve.snapshot_share", "fraction"),
    ("serve.round_trigger_share", "fraction"),
    ("serve.not_ok", "count"),
    ("baselines.pollux_share", "fraction"),
    ("baselines.gavel_share", "fraction"),
    ("baselines.pollux_rounds", "count"),
    ("fleet.sia_share", "fraction"),
    ("fleet.pollux_share", "fraction"),
    ("fleet.gavel_share", "fraction"),
    ("fleet.busy_frac", "fraction"),
    ("fleet.runs", "count"),
    ("fleet.runs_failed", "count"),
    ("dynamics.capacity_events", "count"),
];

const USAGE: &str = "usage: perfbench --workload <batch_philly64|scale_4096|serve_mixed|fleet_elastic> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("not a whole number"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !META.iter().any(|m| m.name == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Everything a run measured.
struct Measured {
    setup_s: Vec<f64>,
    generate_s: Vec<f64>,
    /// Repetitions in run order, each with whether it was traced.
    reps: Vec<(bool, Rep)>,
    /// The leading untraced repetitions whose inputs every run with the
    /// same seed makes: decision metrics and the digest come from these.
    first_cycle: usize,
}

fn measure<W: Workload>(w: &W, meta: &Meta, args: &Args) -> Measured {
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    // Untraced: a fresh input per repetition until the time is spent, at
    // least `meta.inputs` of them. A run's cost moves with its input by
    // ±10-20%, so the more distinct inputs a run averages, the steadier it
    // is from seed to seed. Traced: alternate untraced and traced
    // repetitions of the first input, at least one pair; their wall
    // difference is the tracing overhead.
    let (unit, min_reps) = if args.trace { (2, 2) } else { (1, meta.inputs) };
    let t0 = Instant::now();
    let mut reps = Vec::new();
    loop {
        let n = reps.len();
        let (i, traced) = if args.trace {
            (0, n % 2 == 1)
        } else {
            (n, false)
        };
        let seed = stats::mix_seed(args.seed, i as u64);
        let started = Instant::now();
        let mut samples = 0;
        let (input, armed) = loop {
            let t = Instant::now();
            let input = w.make(seed);
            let armed = w.arm(&input);
            setup_s.push(t.elapsed().as_secs_f64());
            generate_s.push(w.generate_s(&input));
            samples += 1;
            let enough = samples >= SETUP_MIN && started.elapsed().as_secs_f64() >= SETUP_MIN_S;
            if enough || samples >= SETUP_MAX {
                break (input, armed);
            }
        };
        reps.push((traced, w.run(&input, armed, traced)));
        let done = reps.len();
        let elapsed = t0.elapsed().as_secs_f64();
        let next = elapsed / done as f64 * unit as f64;
        if done >= min_reps && done % unit == 0 && elapsed + next > args.seconds {
            break;
        }
    }
    Measured {
        setup_s,
        generate_s,
        reps,
        first_cycle: if args.trace { 0 } else { meta.inputs },
    }
}

/// Peak resident memory of this process, MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// nproc, CPU model, rustc version and commit.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let workers = std::env::var("SIA_WORKERS").unwrap_or_else(|_| "auto".into());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" commit={} SIA_WORKERS={workers}",
        env!("PERFBENCH_RUSTC"),
        commit().unwrap_or_else(|| "unknown".into())
    )
}

/// The checked-out commit, read from `.git` without running git.
fn commit() -> Option<String> {
    let git = Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(name))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "n/a".into(), |v| format!("{v:.6}"))
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let mut m = serde_json::Map::new();
    for (name, value, unit) in metrics {
        m.insert(
            name.to_string(),
            serde_json::json!({ "value": *value, "unit": *unit }),
        );
    }
    let v = serde_json::json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": serde_json::Value::Object(m),
    });
    serde_json::to_string(&v).expect("result serializes")
}

/// Prints the report and returns the JSON result line.
fn report(meta: &Meta, args: &Args, m: &Measured) -> (bool, String) {
    let untraced: Vec<&Rep> = m.reps.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let traced: Vec<&Rep> = m.reps.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let all: Vec<&Rep> = m.reps.iter().map(|(_, r)| r).collect();
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    let mut correct = true;

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        meta.name, args.seed, args.seconds, args.trace as u8
    );
    println!("host: {}", fingerprint());
    println!(
        "seeds: bounds set from seeds {BOUND_SEEDS}; held-out seed for claims: {HELD_OUT_SEED}"
    );
    println!(
        "repetitions: {} untraced, {} traced; work = {}; operation = {}",
        untraced.len(),
        traced.len(),
        meta.work,
        meta.op
    );

    // Output checks and the decision digest.
    for (i, (_, r)) in m.reps.iter().enumerate() {
        for f in &r.failures {
            correct = false;
            println!("CHECK FAILED (repetition {i}): {f}");
        }
    }
    let cycle: Vec<&Rep> = if m.first_cycle > 0 {
        untraced.iter().take(m.first_cycle).copied().collect()
    } else {
        untraced.iter().take(1).copied().collect()
    };
    let digest = {
        let parts: Vec<[u8; 8]> = cycle.iter().map(|r| r.digest.to_le_bytes()).collect();
        Digest::of(&parts.iter().map(|p| &p[..]).collect::<Vec<_>>())
    };
    println!("output checks: {}", if correct { "pass" } else { "FAIL" });
    println!("decision digest: {digest:016x}");

    let setup_s = median(&m.setup_s);
    let wall: f64 = untraced.iter().map(|r| r.wall_s).sum();
    let work: f64 = untraced.iter().map(|r| r.work).sum();
    let ops: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.ops_s.iter().copied())
        .collect();
    let rounds: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.rounds_s.iter().copied())
        .collect();
    let cycle_attempted: u64 = cycle.iter().map(|r| r.attempted).sum();
    let cycle_not_ok: u64 = cycle.iter().map(|r| r.not_ok).sum();
    let error_rate = stats::rate(cycle_not_ok, cycle_attempted);
    let avg_jct_h = cycle.iter().map(|r| r.avg_jct_h).sum::<f64>() / cycle.len().max(1) as f64;
    let rss = peak_rss_mb();
    let job_hours: Option<f64> = untraced.iter().map(|r| r.job_hours).sum();
    let p50 = percentile(&ops, 0.5);
    let tail = percentile(&ops, meta.tail_q);
    let by_work = |w: &str, v: Option<f64>| if meta.work == w { v } else { None };

    println!("end-to-end ({} operations):", ops.len());
    let named_rows: [(&str, Option<f64>, &str); 11] = [
        ("setup_s", Some(setup_s), "s"),
        ("job_hours_per_s", job_hours.map(|h| h / wall), "h/s"),
        (
            "round_p50_ms",
            percentile(&rounds, 0.5).map(|v| v * 1e3),
            "ms",
        ),
        (
            "round_p90_ms",
            percentile(&rounds, 0.9).map(|v| v * 1e3),
            "ms",
        ),
        ("req_per_s", by_work("requests", Some(work / wall)), "1/s"),
        (
            "req_p50_us",
            by_work("requests", p50.map(|v| v * 1e6)),
            "us",
        ),
        (
            "req_p99_us",
            by_work("requests", tail.map(|v| v * 1e6)),
            "us",
        ),
        ("runs_per_s", by_work("runs", Some(work / wall)), "1/s"),
        ("peak_rss_mb", rss, "MB"),
        ("avg_jct_h", Some(avg_jct_h), "h"),
        ("error_rate", Some(error_rate), "fraction"),
    ];
    for (name, v, unit) in named_rows {
        println!("  {name:<18} {:>16} {unit}", fmt_opt(v));
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut layers = traced_report(meta, args, &untraced, &traced, &mut correct);
        layers.insert("workloads.generate_share", median(&m.generate_s) / setup_s);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let values = [
            Some(work / wall),
            (meta.mid)(&ops).map(|v| v * 1e3),
            tail.map(|v| v * 1e3),
            Some(setup_s),
            rss,
            Some(avg_jct_h),
            Some(1.0 - error_rate),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| {
                let v = v.unwrap_or_else(|| {
                    println!("METRIC MISSING: {name} (too few samples)");
                    f64::NAN
                });
                (name, v, unit)
            })
            .collect()
    };
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            println!("METRIC NOT FINITE: {name}");
            correct = false;
        }
    }
    println!(
        "{}:",
        if args.trace {
            "per-layer"
        } else {
            "benchmark metrics"
        }
    );
    for (name, v, unit) in &metrics {
        println!("  {name:<32} {v:>16.6} {unit}");
    }
    (correct, json_line(correct, attempted, failed, &metrics))
}

/// Prints the traced run's layer table, closures and overhead; returns
/// the per-layer values (means over traced repetitions).
fn traced_report(
    meta: &Meta,
    args: &Args,
    untraced: &[&Rep],
    traced: &[&Rep],
    correct: &mut bool,
) -> Layers {
    let mut layers = Layers::new();
    for r in traced {
        for (k, v) in &r.layers {
            *layers.entry(k).or_default() += v / traced.len() as f64;
        }
    }
    let mean_wall =
        |reps: &[&Rep]| reps.iter().map(|r| r.wall_s).sum::<f64>() / reps.len().max(1) as f64;
    let overhead = mean_wall(traced) - mean_wall(untraced);
    layers.insert("trace.overhead_s", overhead);
    layers.insert(
        "trace.overhead_share",
        overhead / mean_wall(untraced).max(1e-12),
    );
    println!(
        "tracing overhead: traced {:.6} s - untraced {:.6} s = {overhead:.6} s per repetition",
        mean_wall(traced),
        mean_wall(untraced)
    );

    let Some(last) = traced.last() else {
        return layers;
    };
    if let Some(log) = &last.spans {
        println!("self time by layer, last traced repetition (* = duration measured by the program, placed by the benchmark):");
        println!(
            "  {:<22} {:>9} {:>12} {:>12} {:>8}",
            "span", "count", "total_s", "self_s", "self%"
        );
        let table = layer_table(&log.spans);
        let roots: Vec<&str> = log
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.name)
            .collect();
        let root_total: f64 = roots
            .iter()
            .map(|n| table[n].total_s)
            .sum::<f64>()
            .max(1e-12);
        for (name, row) in &table {
            println!(
                "  {:<22} {:>9} {:>12.6} {:>12.6} {:>7.2}%",
                format!("{name}{}", if row.derived { " *" } else { "" }),
                row.spans,
                row.total_s,
                row.self_s,
                100.0 * row.self_s / root_total
            );
        }
        for name in roots.iter().collect::<std::collections::BTreeSet<_>>() {
            println!(
                "  {:<22} {:>9} {:>12} {:>12.6} {:>7.2}%  (self time of {name})",
                "unattributed",
                "",
                "",
                table[name].self_s,
                100.0 * table[name].self_s / root_total
            );
        }
        let path =
            PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", meta.name, args.seed));
        match log.write_jsonl(&path) {
            Ok(()) => println!("spans: {} ({} spans)", path.display(), log.spans.len()),
            Err(e) => println!("spans: cannot write {}: {e}", path.display()),
        }
    }
    for (name, samples) in &last.per_cmd {
        println!(
            "  serve.{name}: n={} p50={} us p99={} us",
            samples.len(),
            fmt_opt(percentile(samples, 0.5).map(|v| v * 1e6)),
            fmt_opt(percentile(samples, 0.99).map(|v| v * 1e6)),
        );
    }
    println!("closure checks (last traced repetition, and any failure in the others):");
    let earlier = traced[..traced.len() - 1]
        .iter()
        .flat_map(|r| r.closures.iter().filter(|c| !c.ok));
    for c in last.closures.iter().chain(earlier) {
        *correct &= c.ok;
        println!(
            "  [{}] {}: {}",
            if c.ok { "pass" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    layers
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    let meta = META
        .iter()
        .find(|m| m.name == args.workload)
        .expect("validated");
    let measured = match meta.name {
        "batch_philly64" => measure(&batch::PHILLY64, meta, &args),
        "scale_4096" => measure(&batch::SCALE4096, meta, &args),
        "serve_mixed" => measure(&serve::SERVE, meta, &args),
        _ => measure(&fleet::FLEET, meta, &args),
    };
    let (correct, line) = report(meta, &args, &measured);
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}

/// Smoke tests read the process-wide telemetry registry around their
/// runs, so they must not overlap.
#[cfg(test)]
pub fn serial_test() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "serve_mixed",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mixed", 7, 20.0, true)
        );
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "scale_4096",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "scale_4096", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "scale_4096",
            "--seed",
            "-1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
    }

    #[test]
    fn closure_rejects_double_counting() {
        assert!(Check::closure("ok", 10.0, &[4.0, 5.0], 1.0).ok);
        // Parts exceed the total: something was counted twice.
        assert!(!Check::closure("over", 10.0, &[6.0, 5.0], -1.0).ok);
        // The span tree disagrees with the arithmetic.
        assert!(!Check::closure("spans", 10.0, &[4.0, 5.0], 2.0).ok);
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let v: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(|l| l.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(|x| x.as_str())
                            .expect("name and unit")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = v
            .get("workloads")
            .and_then(|l| l.as_array())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|n| n.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(
            workloads,
            META.iter().map(|m| m.name.to_string()).collect::<Vec<_>>()
        );
    }
}
