//! `batch_philly64` and `scale_4096`: Sia through `Simulator::run`.

use std::time::Instant;

use sia_cluster::{ClusterSpec, JobId};
use sia_core::{SiaConfig, SiaPolicy};
use sia_sim::{Scheduler, SimConfig, Simulator};
use sia_workloads::{Trace, TraceConfig, TraceKind};

use crate::probe::{with_tracer, Probe, Telemetry, Timed};
use crate::spans::layer_table;
use crate::stats::{job_hours, mix_seed, Digest};
use crate::{Check, Layers, Rep, Workload};

pub struct Batch {
    kind: TraceKind,
    rate: f64,
    window_h: f64,
    cluster: fn() -> ClusterSpec,
    /// Simulated horizon, hours.
    max_hours: f64,
    /// fig9's scale configuration: sharded solve, 15-s round budget.
    sharded: bool,
    /// Keep only this many jobs (smoke runs).
    pub jobs: Option<usize>,
}

fn hetero64() -> ClusterSpec {
    ClusterSpec::heterogeneous_64()
}

fn hetero4096() -> ClusterSpec {
    ClusterSpec::heterogeneous_scaled(64)
}

/// The paper's headline setting, run to completion.
pub const PHILLY64: Batch = Batch {
    kind: TraceKind::Philly,
    rate: 20.0,
    window_h: 8.0,
    cluster: hetero64,
    max_hours: 400.0,
    sharded: false,
    jobs: None,
};

/// The Fig. 9 regime: 4096 GPUs, 10 jobs/h per 64 GPUs, stopped after
/// 102 rounds.
pub const SCALE4096: Batch = Batch {
    kind: TraceKind::Helios,
    rate: 640.0,
    window_h: 2.0,
    cluster: hetero4096,
    max_hours: 1.7,
    sharded: true,
    jobs: None,
};

/// A trace of `cfg`'s kind with exactly `rate x window` jobs, each size
/// category at its expected count, submitted at uniformly random instants
/// of the window (a Poisson process conditioned on its count). The seed
/// picks the jobs (model, duration, adaptivity) and their instants. The
/// count and the size mix, which otherwise move a run's cost and JCT by a
/// fifth or more from seed to seed, are held at their expectations.
pub fn stratified_trace(cfg: &TraceConfig) -> Trace {
    let n = (cfg.rate_jobs_per_hour * cfg.window_hours).round() as usize;
    let mix = cfg.kind.category_mix();
    // Largest-remainder quotas, so they sum to `n`.
    let exact: Vec<f64> = mix.iter().map(|(_, f)| f * n as f64).collect();
    let mut quota: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..mix.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = n - quota.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        quota[i] += 1;
    }

    // Draw jobs from ever longer traces of the same seed (each extends
    // the last) until every category's quota is filled.
    let mut window = 2.0 * cfg.window_hours;
    let mut jobs = loop {
        let pool = Trace::generate(&TraceConfig {
            window_hours: window,
            ..cfg.clone()
        });
        let mut left = quota.clone();
        let picked: Vec<_> = pool
            .jobs
            .into_iter()
            .filter(|j| match mix.iter().position(|(c, _)| *c == j.category) {
                Some(c) if left[c] > 0 => {
                    left[c] -= 1;
                    true
                }
                _ => false,
            })
            .collect();
        if picked.len() == n {
            break picked;
        }
        window *= 2.0;
        assert!(
            window <= 64.0 * cfg.window_hours,
            "the trace generator never fills the size mix {mix:?}"
        );
    };
    let window_s = cfg.window_hours * 3600.0;
    let mut times: Vec<f64> = (1..=n as u64)
        .map(|i| (mix_seed(cfg.seed, i) >> 11) as f64 / (1u64 << 53) as f64 * window_s)
        .collect();
    times.sort_by(f64::total_cmp);
    for (k, (job, t)) in jobs.iter_mut().zip(times).enumerate() {
        job.id = JobId(k as u64);
        job.name = format!("{}-{k}", job.model.name());
        job.submit_time = t;
    }
    Trace { jobs }
}

pub struct Input {
    trace: Trace,
    seed: u64,
    generate_s: f64,
}

impl Batch {
    fn policy(&self) -> SiaPolicy {
        if !self.sharded {
            return SiaPolicy::default();
        }
        let mut cfg = SiaConfig {
            round_budget: Some(15.0),
            ..SiaConfig::default()
        };
        cfg.shard.enabled = true;
        cfg.milp.gap_tolerance = 1e-3;
        SiaPolicy::new(cfg)
    }
}

impl Workload for Batch {
    type Input = Input;
    type Armed = Simulator;

    fn make(&self, seed: u64) -> Input {
        let t0 = Instant::now();
        let mut cfg = TraceConfig::new(self.kind, seed).with_rate(self.rate);
        cfg.window_hours = self.window_h;
        let mut trace = stratified_trace(&cfg);
        if let Some(n) = self.jobs {
            trace.jobs.truncate(n);
        }
        Input {
            trace,
            seed,
            generate_s: t0.elapsed().as_secs_f64(),
        }
    }

    fn generate_s(&self, input: &Input) -> f64 {
        input.generate_s
    }

    fn arm(&self, input: &Input) -> Simulator {
        let cfg = SimConfig {
            seed: input.seed,
            max_hours: self.max_hours,
            ..SimConfig::default()
        };
        Simulator::new((self.cluster)(), &input.trace, cfg)
    }

    fn run(&self, input: &Input, sim: Simulator, traced: bool) -> Rep {
        let probe = Probe::shared(traced);
        let mut sched = Timed::new(Box::new(self.policy()), probe.clone());
        let gap_tolerance = sched.gap_tolerance().unwrap_or(0.0);
        let round = sched.round_duration();
        let horizon_s = self.max_hours * 3600.0;

        let before = Telemetry::read();
        let root = with_tracer(&probe, |t| {
            let id = t.log.open("sim.run", None, None);
            t.parent = Some(id);
            id
        });
        let t0 = Instant::now();
        let result = sim.run(&mut sched);
        let wall_s = t0.elapsed().as_secs_f64();
        with_tracer(&probe, |t| {
            t.settle();
            t.log.close(root.expect("traced"));
        });
        let after = Telemetry::read();
        let p = std::mem::take(&mut *probe.borrow_mut());

        // Output checks.
        let mut failures = Vec::new();
        // The engine admits every job submitted by the last round boundary
        // it evaluates.
        let cutoff = round * (horizon_s / round).ceil();
        let submitted = input
            .trace
            .jobs
            .iter()
            .filter(|j| j.submit_time <= cutoff)
            .count();
        let unfinished = result
            .records
            .iter()
            .filter(|r| r.finish_time.is_none())
            .count();
        if result.records.len() != submitted {
            failures.push(format!(
                "{} jobs submitted, {} reported",
                submitted,
                result.records.len()
            ));
        }
        if unfinished != result.unfinished {
            failures.push(format!(
                "{unfinished} records unfinished, result says {}",
                result.unfinished
            ));
        }
        if p.stats.len() != p.round_s.len() {
            failures.push(format!(
                "{} rounds scheduled, {} reported solver stats",
                p.round_s.len(),
                p.stats.len()
            ));
        }
        let execute_s = after.seconds_since(&before, "engine.execute");
        let apply_s = after.seconds_since(&before, "engine.apply");
        let mut layers = Layers::new();
        let sums = p.layers(&mut layers);
        let schedule_s = sums.schedule_s;
        if sums.median_gap > gap_tolerance {
            failures.push(format!(
                "median relative gap {:.3e} exceeds the gap tolerance {gap_tolerance:.1e}",
                sums.median_gap
            ));
        }
        layers.insert("sim.run_s", wall_s);
        layers.insert("sim.execute_s", execute_s);
        layers.insert("sim.apply_s", apply_s);
        layers.insert(
            "sim.unattributed_s",
            wall_s - schedule_s - execute_s - apply_s,
        );
        layers.insert("events.fired", after.count_since(&before, "events.fired"));
        layers.insert("sim.flight_records", result.trace.records.len() as f64);
        layers.insert("sim.audit_records", result.audit.records.len() as f64);
        layers.insert(
            "policy.warm_start_invalidated",
            after.count_since(&before, "policy.warm_start_invalidated"),
        );

        let mut closures = Vec::new();
        let spans = p.tracer.map(|t| t.log);
        if let Some(log) = &spans {
            let table = layer_table(&log.spans);
            let row = |n: &str| table.get(n).copied().unwrap_or_default();
            closures.push(Check::closure(
                "policy: refit + goodput + build + solve + placement + unattributed = schedule",
                schedule_s,
                &sums.phases.map(|(_, v)| v),
                row("policy.schedule").self_s,
            ));
            closures.push(Check::closure(
                "sim: schedule + execute + apply + unattributed = run",
                row("sim.run").total_s,
                &[schedule_s, execute_s, apply_s],
                row("sim.run").self_s,
            ));
        }

        let job_hours = job_hours(&result.records, horizon_s);
        Rep {
            wall_s,
            work: job_hours,
            job_hours: Some(job_hours),
            ops_s: p.round_s.clone(),
            rounds_s: p.round_s,
            avg_jct_h: result.avg_jct() / 3600.0,
            attempted: p.stats.len() as u64,
            not_ok: sums.fallbacks,
            failed: failures.len() as u64,
            failures,
            digest: Digest::of(&[
                result.trace.canonical_jsonl().as_bytes(),
                result.audit.canonical_jsonl().as_bytes(),
            ]),
            layers,
            closures,
            spans,
            per_cmd: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_both_batch_workloads() {
        let _serial = crate::serial_test();
        for spec in [PHILLY64, SCALE4096] {
            let w = Batch {
                jobs: Some(6),
                max_hours: 0.5,
                ..spec
            };
            let input = w.make(3);
            let rep = w.run(&input, w.arm(&input), true);
            assert!(rep.failures.is_empty(), "{:?}", rep.failures);
            assert!(rep.attempted > 0 && rep.work > 0.0);
            assert!(rep.closures.iter().all(|c| c.ok), "{:?}", rep.closures);
            // Same inputs, same decisions.
            let again = w.run(&input, w.arm(&input), false);
            assert_eq!(rep.digest, again.digest);
            assert_eq!(rep.avg_jct_h, again.avg_jct_h);
        }
    }
}
