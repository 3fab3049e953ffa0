//! Quick cross-scheduler comparison for development sanity-checking.
//!
//! Not a paper experiment; runs a shortened heterogeneous Philly-like trace
//! through Sia, Pollux, and Gavel+TJ with one seed. The JSON payload
//! records per-policy wall-clock so CI can track the perf trajectory.
//!
//! A second scenario has a weeks-long idle gap mid-trace: the engine's
//! round timer sleeps through the empty span and wakes at the next
//! arrival, so the run logs only busy rounds.

use sia_bench::{aggregates_json, print_table, run_one, scale_work, sweep, Policy};
use sia_cluster::ClusterSpec;
use sia_sim::SimConfig;
use sia_workloads::{Trace, TraceConfig, TraceKind};

fn main() {
    let cluster = ClusterSpec::heterogeneous_64();
    let seeds = [1u64];
    let policies = [Policy::Sia, Policy::Pollux, Policy::GavelTuned];

    let cfg = SimConfig::default();
    let t0 = std::time::Instant::now();
    let mut walls = serde_json::Map::new();
    let aggs: Vec<_> = policies
        .into_iter()
        .map(|p| {
            let t = std::time::Instant::now();
            let a = sweep(p, &cluster, TraceKind::Philly, &seeds, &cfg, 16, 1.0, None);
            let wall = t.elapsed();
            eprintln!("{}: {:?}", a.label, wall);
            walls.insert(a.label.clone(), serde_json::json!(wall.as_secs_f64()));
            a
        })
        .collect();
    let total = t0.elapsed();
    print_table("quick compare (Philly-like, hetero 64)", &aggs);
    eprintln!("total: {total:?}");
    let mut payload = serde_json::Map::new();
    payload.insert(
        "total_wall_s".into(),
        serde_json::json!(total.as_secs_f64()),
    );
    payload.insert("wall_s".into(), serde_json::Value::Object(walls));
    payload.insert("summaries".into(), aggregates_json(&aggs));

    // Sparse arrivals: one late straggler after a long idle gap.
    let mut trace = Trace::generate(&TraceConfig::new(TraceKind::Philly, 1).with_max_gpus_cap(16));
    trace.jobs.truncate(12);
    scale_work(&mut trace, 0.1);
    if let Some(last) = trace.jobs.last_mut() {
        last.submit_time += 300.0 * 3600.0; // 300 h of idle cluster
    }
    println!("\n== sparse arrivals (300 h idle gap, Sia) ==");
    let cfg = SimConfig {
        seed: 1,
        ..SimConfig::default()
    };
    let t = std::time::Instant::now();
    let result = run_one(Policy::Sia, &cluster, &trace, cfg, 1);
    let wall = t.elapsed();
    let summary = sia_metrics::summarize(&result);
    println!(
        "{} logged rounds, avg JCT {:.3} h, wall {wall:?}",
        result.rounds.len(),
        summary.avg_jct_hours,
    );
    payload.insert(
        "sparse_arrivals".into(),
        serde_json::json!({
            "wall_s": wall.as_secs_f64(),
            "rounds": result.rounds.len(),
            "avg_jct_hours": summary.avg_jct_hours,
        }),
    );

    sia_bench::write_json("quick_compare", &serde_json::Value::Object(payload));
}
