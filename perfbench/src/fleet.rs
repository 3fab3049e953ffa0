//! `fleet_elastic`: `run_fleet` over an embedded spec — Sia, Pollux and
//! Gavel+TJ on the Philly trace with node churn, 2 workers.

use std::path::PathBuf;
use std::time::Instant;

use sia_fleet::{cell_json, run_fleet, FleetOptions, FleetSpec};

use crate::probe::Telemetry;
use crate::stats::Digest;
use crate::{Check, Layers, Rep, Workload, OUT_DIR};

pub struct Fleet {
    /// Seeds per cell, starting from the workload seed.
    pub seeds: u64,
    /// Keep only this many jobs per run (smoke runs).
    pub jobs: Option<usize>,
}

pub const FLEET: Fleet = Fleet {
    seeds: 8,
    jobs: None,
};

/// Fleet worker threads. Sia's own matrix and shard pools size
/// themselves to the host on top of these.
const WORKERS: usize = 2;

fn progress_path() -> PathBuf {
    PathBuf::from(OUT_DIR).join(format!("fleet-{}.progress.jsonl", std::process::id()))
}

impl Workload for Fleet {
    type Input = String;
    type Armed = FleetSpec;

    fn make(&self, seed: u64) -> String {
        let jobs = self
            .jobs
            .map_or(String::new(), |n| format!(", \"jobs\": {n}"));
        format!(
            "{{\"group\": \"elastic\", \"policies\": [\"sia\", \"pollux\", \"gavel\"], \
             \"traces\": [\"philly\"], \"clusters\": [\"hetero64\"], \
             \"dynamics\": [\"churn:2:1800\"], \"seeds\": {{\"start\": {seed}, \"count\": {}}}, \
             \"rate\": 20.0, \"max_hours\": 4.0, \"work_scale\": 0.25{jobs}}}\n",
            self.seeds
        )
    }

    fn arm(&self, text: &String) -> FleetSpec {
        FleetSpec::parse_jsonl("fleet_elastic", text).expect("embedded fleet spec parses")
    }

    fn run(&self, _text: &String, spec: FleetSpec, traced: bool) -> Rep {
        let opts = FleetOptions {
            workers: WORKERS,
            progress: Some(progress_path()),
        };
        let before = Telemetry::read();
        let t0 = Instant::now();
        let report = run_fleet(&spec, &opts).expect("fleet runs");
        let wall_s = t0.elapsed().as_secs_f64();
        let after = Telemetry::read();

        // Per-run walls from the fleet's own progress heartbeat.
        let progress = std::fs::read_to_string(progress_path()).unwrap_or_default();
        let _ = std::fs::remove_file(progress_path());
        let run_s: Vec<f64> = progress
            .lines()
            .filter_map(|l| serde_json::from_str::<serde_json::Value>(l).ok())
            .filter_map(|v| v.get("wall_s").and_then(|w| w.as_f64()))
            .collect();

        let mut failures: Vec<String> = report
            .cells
            .iter()
            .flat_map(|c| &c.failed)
            .map(|f| {
                format!(
                    "run {} ({} seed {}) failed: {}",
                    f.run_id, f.cell, f.seed, f.error
                )
            })
            .collect();
        if run_s.len() as u64 != report.total_runs {
            failures.push(format!(
                "{} runs, {} progress heartbeats",
                report.total_runs,
                run_s.len()
            ));
        }
        let completed: u64 = report.cells.iter().map(|c| c.completed).sum();
        // Mean over runs of each run's average JCT.
        let jct_sum: f64 = report
            .cells
            .iter()
            .flat_map(|c| c.metrics.iter().filter(|(n, _)| *n == "avg_jct_hours"))
            .map(|(_, s)| s.mean * s.n as f64)
            .sum();
        let cell_texts: Vec<String> = report
            .cells
            .iter()
            .map(|c| serde_json::to_string(&cell_json(&report.fleet, c)).expect("cell serializes"))
            .collect();

        let runs_wall: f64 = report.cells.iter().map(|c| c.wall_s).sum();
        let wall_of = |policy: &str| -> f64 {
            report
                .cells
                .iter()
                .filter(|c| c.cell.policy.name() == policy)
                .map(|c| c.wall_s)
                .sum()
        };
        let secs = |name: &str| after.seconds_since(&before, name);
        let count = |name: &str| after.count_since(&before, name);
        let schedule_s = secs("policy.schedule");
        let pollux_s = secs("baseline.pollux.schedule");
        let gavel_s = secs("baseline.gavel.schedule");
        let execute_s = secs("engine.execute");
        let apply_s = secs("engine.apply");
        let phases = [
            ("policy.refit_s", secs("policy.refit")),
            ("policy.goodput_s", secs("policy.goodput")),
            (
                "policy.build_s",
                secs("policy.milp_build") + secs("policy.shard_build"),
            ),
            (
                "solver.solve_s",
                secs("policy.milp_solve") + secs("policy.shard_solve"),
            ),
            ("policy.placement_s", secs("placement.realize")),
        ];
        let phase_s: f64 = phases.iter().map(|(_, v)| v).sum();
        let share = |x: f64| x / runs_wall.max(1e-12);
        let sia_rounds = count("engine.rounds")
            - count("baseline.pollux.rounds")
            - count("baseline.gavel.rounds");

        // Seconds are worker-seconds: runs overlap on the workers.
        let mut layers = Layers::new();
        layers.insert("sim.run_s", runs_wall);
        layers.insert("sim.execute_s", execute_s);
        layers.insert("sim.apply_s", apply_s);
        layers.insert(
            "sim.unattributed_s",
            runs_wall - schedule_s - pollux_s - gavel_s - execute_s - apply_s,
        );
        layers.insert("policy.schedule_s", schedule_s);
        layers.extend(phases);
        layers.insert("policy.unattributed_s", schedule_s - phase_s);
        layers.insert("sim.rounds", count("engine.rounds"));
        layers.insert("events.fired", count("events.fired"));
        layers.insert("policy.rows_rebuilt", count("matrix.rows_rebuilt"));
        layers.insert("policy.rows_reused", count("matrix.rows_reused"));
        let (rebuilt, reused) = (count("matrix.rows_rebuilt"), count("matrix.rows_reused"));
        layers.insert("policy.row_reuse", reused / (reused + rebuilt).max(1.0));
        layers.insert(
            "policy.candidates_per_round",
            count("policy.candidates") / sia_rounds.max(1.0),
        );
        layers.insert(
            "policy.warm_start_invalidated",
            count("policy.warm_start_invalidated"),
        );
        layers.insert("solver.nodes", count("solver.milp.nodes"));
        layers.insert("solver.pivots", count("solver.simplex.pivots"));
        layers.insert("baselines.pollux_share", share(pollux_s));
        layers.insert("baselines.gavel_share", share(gavel_s));
        layers.insert("baselines.pollux_rounds", count("baseline.pollux.rounds"));
        layers.insert("fleet.sia_share", share(wall_of("sia")));
        layers.insert("fleet.pollux_share", share(wall_of("pollux")));
        layers.insert("fleet.gavel_share", share(wall_of("gavel")));
        layers.insert(
            "fleet.busy_frac",
            runs_wall / (report.workers as f64 * wall_s),
        );
        layers.insert("fleet.runs", report.total_runs as f64);
        layers.insert("fleet.runs_failed", report.total_failed as f64);
        layers.insert(
            "dynamics.capacity_events",
            count("dynamics.capacity_events"),
        );

        let mut closures = Vec::new();
        if traced {
            // No per-run spans: the fleet's runs overlap on its workers and
            // only their sums are exposed, so the fleet closes in sums.
            closures.push(Check::closure(
                "fleet: sia + pollux + gavel runs + idle = workers x wall (worker-seconds)",
                report.workers as f64 * wall_s,
                &[wall_of("sia"), wall_of("pollux"), wall_of("gavel")],
                report.workers as f64 * wall_s - runs_wall,
            ));
            closures.push(Check::closure(
                "fleet runs: schedule + pollux + gavel + execute + apply + unattributed = run walls",
                runs_wall,
                &[schedule_s, pollux_s, gavel_s, execute_s, apply_s],
                runs_wall - schedule_s - pollux_s - gavel_s - execute_s - apply_s,
            ));
            closures.push(Check::closure(
                "sia: refit + goodput + build + solve + placement + unattributed = schedule",
                schedule_s,
                &phases.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
                schedule_s - phase_s,
            ));
        }

        Rep {
            wall_s,
            work: completed as f64,
            job_hours: None,
            ops_s: run_s,
            rounds_s: Vec::new(),
            avg_jct_h: jct_sum / completed.max(1) as f64,
            attempted: report.total_runs,
            not_ok: report.total_failed,
            failed: report.total_failed,
            failures,
            digest: Digest::of(&cell_texts.iter().map(|t| t.as_bytes()).collect::<Vec<_>>()),
            layers,
            closures,
            spans: None,
            per_cmd: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fleet_elastic() {
        let _serial = crate::serial_test();
        std::fs::create_dir_all(OUT_DIR).unwrap();
        let w = Fleet {
            seeds: 1,
            jobs: Some(4),
        };
        let text = w.make(5);
        let rep = w.run(&text, w.arm(&text), true);
        assert!(rep.failures.is_empty(), "{:?}", rep.failures);
        assert_eq!(rep.attempted, 3, "one run per policy");
        assert_eq!(rep.ops_s.len(), 3);
        assert!(rep.closures.iter().all(|c| c.ok), "{:?}", rep.closures);
        let again = w.run(&text, w.arm(&text), false);
        assert_eq!(
            rep.digest, again.digest,
            "worker timing must not change the cells"
        );
    }
}
