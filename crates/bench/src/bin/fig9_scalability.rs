//! Figure 9: median policy runtime vs cluster size, Helios-like traces
//! scaled proportionally.
//!
//! Two sweeps:
//!
//! * **Comparison** (64 → 2048 GPUs): Sia vs Pollux vs Gavel+TJ, with the
//!   simulation wall-clock of each cell recorded in the JSON. Expected
//!   shape: Gavel fastest (tiny LP); Sia around a
//!   second at 2048 GPUs; Pollux's genetic algorithm orders of magnitude
//!   slower at scale.
//! * **Scale** (4096 → 65536 GPUs): Sia with the sharded MILP
//!   decomposition and an anytime per-round budget. The monolithic
//!   branch-and-bound is infeasible here (the dense simplex alone blows
//!   past a round), so each cell is gated instead on the anytime
//!   contract: median round runtime ≤ the round budget, and median
//!   proven relative gap ≤ 10x the solver's gap tolerance. Any gate
//!   violation makes the process exit nonzero, so CI can run this
//!   directly.
//!
//! An optional argument restricts the comparison scale factors, e.g.
//! `fig9_scalability 1,2,4,8` (any unparseable argument means `1,2,4,8`).
//! Setting `SIA_BENCH_QUICK=1` skips the comparison sweep and runs only
//! the 4096-GPU scale cell — the CI perf-smoke configuration.

use sia_bench::{run_one, write_json, Policy};
use sia_cluster::ClusterSpec;
use sia_metrics::{percentile, summarize_phases};
use sia_sim::{SimConfig, SimResult};
use sia_workloads::{Trace, TraceConfig, TraceKind};

/// Per-round anytime budget for the sharded scale sweep, seconds.
const ROUND_BUDGET_S: u32 = 15;

/// Scale factors for the sharded sweep: 4096, 16384 and 65536 GPUs.
const SCALE_FACTORS: [usize; 3] = [64, 256, 1024];

/// Median relative gap gate: 10x the sharded policy's gap tolerance.
const GAP_GATE: f64 = 10.0 * 1e-3;

/// Median policy runtime over the steady-state rounds (warm-up skipped).
fn median_runtimes(result: &SimResult) -> (f64, f64, f64) {
    let runtimes: Vec<f64> = result
        .rounds
        .iter()
        .map(|r| r.policy_runtime)
        .skip(result.rounds.len() / 3)
        .collect();
    (
        percentile(&runtimes, 0.5),
        percentile(&runtimes, 0.25),
        percentile(&runtimes, 0.75),
    )
}

fn main() {
    let quick = std::env::var("SIA_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let factors: Vec<usize> = std::env::args()
        .nth(1)
        .map(|arg| {
            let parsed: Vec<usize> = arg
                .split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect();
            if parsed.is_empty() {
                vec![1, 2, 4, 8]
            } else {
                parsed
            }
        })
        .unwrap_or_else(|| vec![1, 2, 4, 8, 16, 32]);
    let policies = [Policy::Sia, Policy::Pollux, Policy::GavelTuned];

    let mut payload = serde_json::Map::new();
    let mut series: std::collections::BTreeMap<String, Vec<(usize, f64, f64, f64)>> =
        Default::default();
    // Whole-simulation wall-clock per cell: (gpus, seconds).
    let mut wall_series: std::collections::BTreeMap<String, Vec<(usize, f64)>> = Default::default();
    // Per-phase breakdown (refit/goodput/build/solve/placement) for policies
    // that report SolverStats — shows where Sia's runtime goes as the
    // cluster grows.
    let mut phase_series: std::collections::BTreeMap<String, Vec<serde_json::Value>> =
        Default::default();

    if !quick {
        println!("== Figure 9: median policy runtime (s) vs cluster size ==");
        print!("{:<10}", "#GPUs");
        for p in policies {
            print!("{:>14}", p.label());
        }
        println!();

        for &f in &factors {
            let cluster = ClusterSpec::heterogeneous_scaled(f);
            print!("{:<10}", 64 * f);
            for p in policies {
                // Proportionally scaled load: rate x factor, short window; we
                // only need enough rounds for a stable runtime median.
                let mut tcfg = TraceConfig::new(TraceKind::Helios, 7)
                    .with_rate(20.0 * f as f64)
                    .with_max_gpus_cap(16);
                if p.needs_tuned_jobs() {
                    tcfg = tcfg.with_adaptivity_mix(0.0, 1.0);
                }
                tcfg.window_hours = 1.0;
                let trace = Trace::generate(&tcfg);
                let cfg = SimConfig {
                    seed: 7,
                    max_hours: 0.35,
                    ..SimConfig::default()
                };
                let t = std::time::Instant::now();
                let result = run_one(p, &cluster, &trace, cfg, 7);
                wall_series
                    .entry(p.label())
                    .or_default()
                    .push((64 * f, t.elapsed().as_secs_f64()));
                let (median, p25, p75) = median_runtimes(&result);
                print!("{median:>14.4}");
                series
                    .entry(p.label())
                    .or_default()
                    .push((64 * f, median, p25, p75));
                if let Some(ph) = summarize_phases(&result) {
                    phase_series
                        .entry(p.label())
                        .or_default()
                        .push(serde_json::json!({
                            "gpus": 64 * f,
                            "mean_refit_s": ph.mean_refit_s,
                            "mean_goodput_s": ph.mean_goodput_s,
                            "mean_build_s": ph.mean_build_s,
                            "mean_solve_s": ph.mean_solve_s,
                            "mean_placement_s": ph.mean_placement_s,
                            "mean_candidates": ph.mean_candidates,
                            "milp_nodes": ph.total_nodes,
                            "simplex_pivots": ph.total_pivots,
                            "fallback_rounds": ph.fallback_rounds,
                            "matrix_cache_hits": ph.total_cache_hits,
                            "matrix_cache_misses": ph.total_cache_misses,
                            "warm_seeded_rounds": ph.warm_seeded_rounds,
                            "warm_pivots_saved": ph.total_warm_pivots_saved,
                            // Gap-over-scale series (sia-audit): does the proven
                            // optimality gap widen as the MILP grows?
                            "bounded_rounds": ph.bounded_rounds,
                            "mean_best_bound": ph.mean_best_bound,
                            "median_rel_gap": ph.median_rel_gap,
                            "max_rel_gap": ph.max_rel_gap,
                            "milp_nodes_pruned": ph.total_nodes_pruned,
                            "mean_seed_objective": ph.mean_seed_objective,
                        }));
                }
            }
            println!();
        }

        println!("\n== simulation wall-clock (s) ==");
        print!("{:<10}", "#GPUs");
        for p in policies {
            print!("{:>14}", p.label());
        }
        println!();
        for (row, &f) in factors.iter().enumerate() {
            print!("{:<10}", 64 * f);
            for p in policies {
                print!("{:>14.2}", wall_series[&p.label()][row].1);
            }
            println!();
        }
    }

    // -- Scale sweep: sharded Sia with the anytime round budget. --------
    let scale_factors: &[usize] = if quick {
        &SCALE_FACTORS[..1]
    } else {
        &SCALE_FACTORS
    };
    let sharded = Policy::SiaSharded {
        round_budget_s: ROUND_BUDGET_S,
    };
    let mut scale_rows = Vec::new();
    let mut gate_failures = Vec::new();
    println!(
        "\n== scale sweep: {} with {ROUND_BUDGET_S} s round budget ==",
        sharded.label()
    );
    println!(
        "{:<10} {:>10} {:>10} {:>9} {:>8} {:>9} {:>11} {:>8}",
        "#GPUs", "median(s)", "p75(s)", "rel-gap", "shards", "budgeted", "exhausted", "wall(s)"
    );
    for &f in scale_factors {
        let cluster = ClusterSpec::heterogeneous_scaled(f);
        let mut tcfg = TraceConfig::new(TraceKind::Helios, 7)
            .with_rate(20.0 * f as f64)
            .with_max_gpus_cap(16);
        tcfg.window_hours = 1.0;
        let trace = Trace::generate(&tcfg);
        // Fewer (but still enough-for-a-median) rounds at the largest
        // scales: each round's absolute cost grows with the job count.
        let max_hours = match f {
            0..=127 => 0.35,
            128..=511 => 0.25,
            _ => 0.15,
        };
        let cfg = SimConfig {
            seed: 7,
            max_hours,
            ..SimConfig::default()
        };
        let t = std::time::Instant::now();
        let result = run_one(sharded, &cluster, &trace, cfg, 7);
        let wall = t.elapsed().as_secs_f64();
        let (median, p25, p75) = median_runtimes(&result);
        let ph = summarize_phases(&result);
        let median_rel_gap = ph.as_ref().map_or(0.0, |p| p.median_rel_gap);
        let budget_ok = median <= ROUND_BUDGET_S as f64;
        let gap_ok = median_rel_gap <= GAP_GATE;
        if !budget_ok {
            gate_failures.push(format!(
                "{} GPUs: median round runtime {median:.2} s exceeds the {ROUND_BUDGET_S} s budget",
                64 * f
            ));
        }
        if !gap_ok {
            gate_failures.push(format!(
                "{} GPUs: median rel gap {median_rel_gap:.3e} exceeds the {GAP_GATE:.1e} gate",
                64 * f
            ));
        }
        println!(
            "{:<10} {:>10.3} {:>10.3} {:>9.2e} {:>8.1} {:>8}/{:<2} {:>9} {:>8.1}",
            64 * f,
            median,
            p75,
            median_rel_gap,
            ph.as_ref().map_or(0.0, |p| p.mean_shards),
            ph.as_ref().map_or(0, |p| p.sharded_rounds),
            ph.as_ref().map_or(0, |p| p.rounds),
            ph.as_ref().map_or(0, |p| p.budget_exhausted_rounds),
            wall,
        );
        scale_rows.push(serde_json::json!({
            "gpus": 64 * f,
            "median_s": median,
            "p25_s": p25,
            "p75_s": p75,
            "round_budget_s": ROUND_BUDGET_S,
            "budget_ok": budget_ok,
            "median_rel_gap": median_rel_gap,
            "gap_gate": GAP_GATE,
            "gap_ok": gap_ok,
            "rounds": ph.as_ref().map_or(0, |p| p.rounds),
            "sharded_rounds": ph.as_ref().map_or(0, |p| p.sharded_rounds),
            "mean_shards": ph.as_ref().map_or(0.0, |p| p.mean_shards),
            "budget_exhausted_rounds": ph.as_ref().map_or(0, |p| p.budget_exhausted_rounds),
            "mean_lagrangian_iters": ph.as_ref().map_or(0.0, |p| p.mean_lagrangian_iters),
            "mean_solve_s": ph.as_ref().map_or(0.0, |p| p.mean_solve_s),
            "mean_goodput_s": ph.as_ref().map_or(0.0, |p| p.mean_goodput_s),
            "mean_candidates": ph.as_ref().map_or(0.0, |p| p.mean_candidates),
            "max_rel_gap": ph.as_ref().map_or(0.0, |p| p.max_rel_gap),
            "wall_s": wall,
            "jobs": trace.jobs.len(),
        }));
    }
    payload.insert(
        format!("{}_scale", sharded.label()),
        serde_json::Value::Array(scale_rows),
    );

    for (label, pts) in &series {
        payload.insert(
            label.clone(),
            serde_json::json!(pts
                .iter()
                .map(|&(g, med, p25, p75)| serde_json::json!({
                    "gpus": g, "median_s": med, "p25_s": p25, "p75_s": p75
                }))
                .collect::<Vec<_>>()),
        );
    }
    for (label, pts) in wall_series {
        payload.insert(
            format!("{label}_wall"),
            serde_json::json!(pts
                .iter()
                .map(|&(g, wall)| serde_json::json!({ "gpus": g, "wall_s": wall }))
                .collect::<Vec<_>>()),
        );
    }
    for (label, pts) in phase_series {
        payload.insert(format!("{label}_phases"), serde_json::Value::Array(pts));
    }
    if quick {
        // The quick cell overwrites nothing: CI writes its own artifact so
        // the committed full-sweep results stay intact.
        write_json(
            "fig9_scalability_quick",
            &serde_json::Value::Object(payload),
        );
    } else {
        write_json("fig9_scalability", &serde_json::Value::Object(payload));
    }

    if !gate_failures.is_empty() {
        eprintln!("\nscale-gate FAILURES:");
        for f in &gate_failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("\nscale gates: all cells within budget and gap tolerance");
}
