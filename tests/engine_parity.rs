//! Determinism of the one simulation engine.
//!
//! Batch runs and the daemon share one engine, `SimDriver`, driven two
//! ways: `Simulator::run` preloads the whole trace and runs to idle, while
//! the daemon steps the clock to each request and submits jobs one by one.
//! The `*_engines_bit_identical` tests pin that the two ways agree
//! record for record; the rerun tests pin that every configuration —
//! default and physical noise, failure injection, capacity dynamics,
//! sharded and time-budgeted solves — produces byte-identical canonical
//! streams run after run; and the snapshot test pins that a restored
//! driver resumes exactly where the original left off.

use sia::baselines::{GavelPolicy, PolluxPolicy};
use sia::cluster::ClusterSpec;
use sia::core::{SiaConfig, SiaPolicy};
use sia::sim::{Scheduler, SimConfig, SimDriver, SimResult, Simulator};
use sia::telemetry::{Canonical, TraceEvent};
use sia::workloads::{Trace, TraceConfig, TraceKind};

type Make<'a> = &'a dyn Fn() -> Box<dyn Scheduler>;

/// The quick_compare workload, shortened for debug-mode test budgets.
fn quick_trace(seed: u64) -> Trace {
    let mut t = Trace::generate(&TraceConfig::new(TraceKind::Philly, seed).with_max_gpus_cap(16));
    t.jobs.truncate(24);
    for j in &mut t.jobs {
        j.work_target *= 0.05;
    }
    t
}

/// A batch run: the trace preloaded into a driver, run to idle.
fn preloaded(make: Make, trace: &Trace, cfg: &SimConfig) -> SimResult {
    Simulator::new(ClusterSpec::heterogeneous_64(), trace, cfg.clone()).run(make().as_mut())
}

/// A daemon-style run: the clock stepped to each submission before it is
/// submitted, then a drain. Stepping stops at the horizon, where a batch
/// run stops admitting.
fn stepped(make: Make, trace: &Trace, cfg: &SimConfig) -> SimResult {
    let mut sched = make();
    let mut drv = SimDriver::new(ClusterSpec::heterogeneous_64(), cfg.clone(), sched.as_ref());
    let horizon = cfg.max_hours * 3600.0;
    for job in &trace.jobs {
        drv.step_until(job.submit_time.min(horizon), sched.as_mut());
        drv.submit(job.clone());
    }
    drv.run_to_idle(sched.as_mut());
    drv.finish(sched.as_ref())
}

/// Asserts two canonical streams are equal, naming the first differing
/// record.
fn assert_same_stream(a: &str, b: &str, what: &str) {
    assert!(!a.is_empty(), "{what}: empty stream");
    if a != b {
        for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
            assert_eq!(la, lb, "{what} diverges at record {i}");
        }
        panic!(
            "{what} diverges in length: {} vs {} records",
            a.lines().count(),
            b.lines().count()
        );
    }
}

/// Exact run identity: per-job outcomes, round-by-round decisions and the
/// canonical flight and audit streams.
fn assert_identical(a: &SimResult, b: &SimResult) {
    assert_eq!(a.records.len(), b.records.len(), "admission count");
    assert_eq!(a.unfinished, b.unfinished);
    assert_eq!(a.makespan, b.makespan, "makespan");
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.id, y.id, "record order");
        assert_eq!(x.finish_time, y.finish_time, "job {} finish", x.id);
        assert_eq!(x.first_start, y.first_start, "job {} start", x.id);
        assert_eq!(x.gpu_seconds, y.gpu_seconds, "job {} gpu-seconds", x.id);
        assert_eq!(x.restarts, y.restarts, "job {} restarts", x.id);
        assert_eq!(x.failures, y.failures, "job {} failures", x.id);
        assert_eq!(x.work_done, y.work_done, "job {} work", x.id);
    }
    assert_eq!(a.rounds.len(), b.rounds.len(), "round count");
    for (x, y) in a.rounds.iter().zip(&b.rounds) {
        assert_eq!(x.time, y.time, "round time");
        assert_eq!(x.active_jobs, y.active_jobs, "active at t={}", x.time);
        assert_eq!(x.allocations, y.allocations, "allocations at t={}", x.time);
    }
    assert_same_stream(
        &a.trace.canonical_jsonl(),
        &b.trace.canonical_jsonl(),
        "canonical trace",
    );
    assert_same_stream(
        &a.audit.canonical_jsonl(),
        &b.audit.canonical_jsonl(),
        "canonical audit",
    );
}

fn seeded(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        ..SimConfig::default()
    }
}

#[test]
fn sia_engines_bit_identical() {
    let trace = quick_trace(1);
    let make: Make = &|| Box::new(SiaPolicy::default());
    let batch = preloaded(make, &trace, &seeded(1));
    assert_eq!(batch.unfinished, 0, "workload must complete");
    assert_identical(&batch, &stepped(make, &trace, &seeded(1)));
}

#[test]
fn baselines_engines_bit_identical() {
    let trace = quick_trace(1);
    for make in [
        (&|| Box::new(PolluxPolicy::default()) as Box<dyn Scheduler>) as Make,
        &|| Box::new(GavelPolicy::default()),
    ] {
        assert_identical(
            &preloaded(make, &trace, &seeded(1)),
            &stepped(make, &trace, &seeded(1)),
        );
    }
}

#[test]
fn physical_noise_profile_bit_identical() {
    // All three noise sources active (measurement, execution, restart
    // jitter) — the widest RNG draw surface.
    let trace = quick_trace(2);
    let cfg = SimConfig::physical(9);
    let make: Make = &|| Box::new(SiaPolicy::default());
    let batch = preloaded(make, &trace, &cfg);
    assert_identical(&batch, &preloaded(make, &trace, &cfg));
    assert_identical(&batch, &stepped(make, &trace, &cfg));
}

#[test]
fn horizon_truncation_matches() {
    // Jobs left running at the horizon: both ways of driving the engine
    // must admit the same set and leave identical partial progress.
    let mut trace = quick_trace(3);
    for j in &mut trace.jobs {
        j.work_target *= 400.0;
    }
    let cfg = SimConfig {
        seed: 3,
        max_hours: 0.5,
        ..SimConfig::default()
    };
    let make: Make = &|| Box::new(SiaPolicy::default());
    let batch = preloaded(make, &trace, &cfg);
    assert!(batch.unfinished > 0, "horizon must truncate the workload");
    assert!(
        batch.records.len() < trace.jobs.len(),
        "some submissions must fall past the horizon"
    );
    assert_identical(&batch, &stepped(make, &trace, &cfg));
}

#[test]
fn same_seed_reruns_are_byte_identical() {
    // Two runs of the identical configuration must produce byte-identical
    // canonical streams, and the same raw record sequence: only the
    // wall-clock policy_runtime field may differ.
    let trace = quick_trace(5);
    for make in [
        (&|| Box::new(SiaPolicy::default()) as Box<dyn Scheduler>) as Make,
        &|| Box::new(PolluxPolicy::default()),
        &|| Box::new(GavelPolicy::default()),
    ] {
        let (a, b) = (
            preloaded(make, &trace, &seeded(5)),
            preloaded(make, &trace, &seeded(5)),
        );
        assert_identical(&a, &b);
        assert_eq!(a.trace.records.len(), b.trace.records.len());
        for (ra, rb) in a.trace.records.iter().zip(&b.trace.records) {
            assert_eq!(ra.t, rb.t, "raw emission timestamps diverge");
            assert_eq!(ra.seq, rb.seq);
            assert_eq!(ra.ev.kind(), rb.ev.kind());
            assert_eq!(ra.ev.job(), rb.ev.job());
        }
    }
}

/// Sia with the sharded MILP decomposition and an anytime round budget.
fn sharded_sia(workers: usize) -> Box<dyn Scheduler> {
    let mut cfg = SiaConfig {
        round_budget: Some(5.0),
        workers,
        ..SiaConfig::default()
    };
    cfg.shard.enabled = true;
    // Small shards force a real multi-shard decomposition even on the
    // 24-job quick trace; escalation off keeps the decomposed path hot.
    cfg.shard.max_shard_groups = 4;
    cfg.shard.escalation_vars = 0;
    Box::new(SiaPolicy::new(cfg))
}

#[test]
fn sharded_engines_bit_identical() {
    let trace = quick_trace(1);
    let make: Make = &|| sharded_sia(1);
    assert_identical(
        &preloaded(make, &trace, &seeded(1)),
        &stepped(make, &trace, &seeded(1)),
    );
}

#[test]
fn sharded_worker_counts_are_byte_identical() {
    // Shards are solved on the deterministic worker pool and merged in
    // plan order, so the worker count must never leak into the streams:
    // 1 worker, 2 workers and auto all produce byte-identical canonical
    // streams with the time budget active.
    let trace = quick_trace(6);
    let base = preloaded(&|| sharded_sia(1), &trace, &seeded(6));
    assert!(
        base.rounds
            .iter()
            .filter_map(|r| r.solver_stats)
            .any(|s| s.shards > 1),
        "workload never took the multi-shard path"
    );
    for workers in [2, 0] {
        let other = preloaded(&|| sharded_sia(workers), &trace, &seeded(6));
        assert_identical(&base, &other);
    }
}

#[test]
fn monolithic_time_budget_is_deterministic() {
    // `round_budget` on the monolithic path becomes a deterministic node
    // budget (not a wall-clock check), so same-seed reruns with the budget
    // active stay byte-identical even when the budget truncates the search.
    let trace = quick_trace(7);
    let make: Make = &|| {
        Box::new(SiaPolicy::new(SiaConfig {
            // Tight enough to clip branch-and-bound on this trace.
            round_budget: Some(1e-4),
            ..SiaConfig::default()
        }))
    };
    assert_identical(
        &preloaded(make, &trace, &seeded(7)),
        &preloaded(make, &trace, &seeded(7)),
    );
}

#[test]
fn failure_injection_reruns_are_byte_identical() {
    // Failures are exact-time events on their own RNG stream: reruns and
    // request-by-request stepping reproduce every failure instant.
    let trace = quick_trace(4);
    let cfg = SimConfig {
        seed: 4,
        failure_rate_per_gpu_hour: 1.0,
        ..SimConfig::default()
    };
    let make: Make = &|| Box::new(SiaPolicy::default());
    let batch = preloaded(make, &trace, &cfg);
    let failures: u32 = batch.records.iter().map(|j| j.failures).sum();
    assert!(failures > 0, "no failure was injected");
    assert!(batch.trace.canonical_jsonl().contains("\"ev\":\"failed\""));
    assert_identical(&batch, &preloaded(make, &trace, &cfg));
    assert_identical(&batch, &stepped(make, &trace, &cfg));
}

/// A fixed capacity-dynamics script exercising every event kind inside the
/// first simulated hour: an abrupt a100 kill, a t4 straggler window, a
/// graceful rtx drain, and elastic re-growth.
fn fixed_dynamics() -> sia::dynamics::DynamicsScript {
    use sia::dynamics::CapacityEvent;
    sia::dynamics::DynamicsScript::new()
        .at(
            400.0,
            CapacityEvent::Remove {
                gpu_type: "a100".to_string(),
                num_nodes: 2,
            },
        )
        .at(
            700.0,
            CapacityEvent::Degrade {
                gpu_type: "t4".to_string(),
                num_nodes: 2,
                factor: 0.5,
            },
        )
        .at(
            1500.0,
            CapacityEvent::Drain {
                gpu_type: "rtx".to_string(),
                num_nodes: 3,
                grace: 300.0,
            },
        )
        .at(
            2500.0,
            CapacityEvent::Add {
                gpu_type: "a100".to_string(),
                num_nodes: 2,
                gpus_per_node: 8,
            },
        )
        .at(
            3000.0,
            CapacityEvent::Restore {
                gpu_type: "t4".to_string(),
                num_nodes: 2,
            },
        )
}

fn with_dynamics(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        dynamics: Some(fixed_dynamics()),
        ..SimConfig::default()
    }
}

#[test]
fn dynamics_engines_bit_identical() {
    let trace = quick_trace(6);
    for make in [
        (&|| Box::new(SiaPolicy::default()) as Box<dyn Scheduler>) as Make,
        &|| Box::new(GavelPolicy::default()),
    ] {
        let batch = preloaded(make, &trace, &with_dynamics(6));
        assert_identical(&batch, &stepped(make, &trace, &with_dynamics(6)));
        // The script must actually bite: capacity records present, and at
        // least one job lost its placement to a capacity change.
        let canon = batch.trace.canonical_jsonl();
        for kind in [
            "capacity_removed",
            "capacity_added",
            "drain_started",
            "degraded",
        ] {
            assert!(
                canon.contains(kind),
                "canonical trace records no {kind} event"
            );
        }
        assert!(
            canon.contains("capacity-lost"),
            "no job was evicted by the capacity script"
        );
    }
}

#[test]
fn dynamics_same_seed_reruns_are_byte_identical() {
    let trace = quick_trace(6);
    let make: Make = &|| Box::new(SiaPolicy::default());
    assert_identical(
        &preloaded(make, &trace, &with_dynamics(6)),
        &preloaded(make, &trace, &with_dynamics(6)),
    );
}

#[test]
fn empty_dynamics_script_matches_dynamics_none() {
    // Guard for the dynamics=None bit-identity contract: threading an empty
    // script through the runtime must not perturb a single RNG draw,
    // version bump, or trace byte relative to running with no dynamics.
    let trace = quick_trace(7);
    let make: Make = &|| Box::new(SiaPolicy::default());
    let without = preloaded(make, &trace, &seeded(7));
    let with = preloaded(
        make,
        &trace,
        &SimConfig {
            dynamics: Some(sia::dynamics::DynamicsScript::new()),
            ..seeded(7)
        },
    );
    assert_identical(&without, &with);
}

#[test]
fn snapshot_restore_resumes_with_a_restart_and_a_completion_in_flight() {
    let trace = quick_trace(8);
    let cfg = SimConfig::physical(8);
    let make: Make = &|| Box::new(SiaPolicy::default());
    let base = preloaded(make, &trace, &cfg);

    // Cut at the first boundary where one job is still paying a checkpoint
    // restore that started before it, and another job completes in the
    // round right after it.
    let round = 60.0;
    let records = &base.trace.records;
    let restoring = |cut: f64| {
        records.iter().any(|fin| {
            let TraceEvent::RestartFinished { job } = fin.ev else {
                return false;
            };
            let started = records
                .iter()
                .filter(|r| r.t <= fin.t)
                .filter(|r| matches!(r.ev, TraceEvent::RestartStarted { job: j, .. } if j == job))
                .map(|r| r.t)
                .fold(f64::NEG_INFINITY, f64::max);
            started < cut && fin.t > cut
        })
    };
    let completing = |cut: f64| {
        base.records
            .iter()
            .any(|r| r.finish_time.is_some_and(|t| t > cut && t <= cut + round))
    };
    let cut = (1..)
        .map(|k| k as f64 * round)
        .take_while(|&t| t < base.makespan)
        .find(|&t| restoring(t) && completing(t))
        .expect("no cut point with a restore and a completion in flight");

    let mut sched = make();
    let mut drv = SimDriver::new(ClusterSpec::heterogeneous_64(), cfg.clone(), sched.as_ref());
    let (before, after): (Vec<_>, Vec<_>) = trace.jobs.iter().partition(|j| j.submit_time <= cut);
    for job in before {
        drv.step_until(job.submit_time, sched.as_mut());
        drv.submit(job.clone());
    }
    drv.step_until(cut, sched.as_mut());
    let payload = serde_json::to_string(&drv.snapshot(sched.as_ref()).unwrap()).unwrap();
    drop(drv);

    let mut sched = make();
    let mut resumed = SimDriver::restore(&serde_json::from_str(&payload).unwrap(), sched.as_mut())
        .expect("snapshot restores");
    assert_eq!(resumed.now(), cut);
    for job in after {
        resumed.step_until(job.submit_time, sched.as_mut());
        resumed.submit(job.clone());
    }
    resumed.run_to_idle(sched.as_mut());
    let result = resumed.finish(sched.as_ref());
    assert_same_stream(
        &base.trace.canonical_jsonl(),
        &result.trace.canonical_jsonl(),
        "resumed canonical trace",
    );
    assert_same_stream(
        &base.audit.canonical_jsonl(),
        &result.audit.canonical_jsonl(),
        "resumed canonical audit",
    );
    assert_eq!(base.makespan, result.makespan);
}
