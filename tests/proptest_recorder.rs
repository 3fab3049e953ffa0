//! Property tests for the one recorder behind the flight trace and the
//! audit stream: random event sequences of both types, at ring capacities
//! 0–8, recorded with a JSONL spill attached. For every sequence the ring
//! holds the spill's last `min(n, capacity)` lines in order, `dropped` is
//! `n − len`, `seq` has no gaps, and a recorder rebuilt from its exported
//! state records the same next event into an equal stream.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use sia::telemetry::{AllocReason, AuditEvent, Canonical, Recorder, TraceEvent};

const REASONS: [AllocReason; 9] = [
    AllocReason::Started,
    AllocReason::ScaledUp,
    AllocReason::ScaledDown,
    AllocReason::Migrated,
    AllocReason::Preempted,
    AllocReason::Completed,
    AllocReason::IlpInfeasibleFallback,
    AllocReason::CapacityLost,
    AllocReason::Cancelled,
];

/// Every flight-recorder event kind, with varied fields.
fn arb_trace_event() -> impl Strategy<Value = TraceEvent> {
    (0usize..14, 0u64..64, 0.0f64..1e4, 0usize..16).prop_map(|(kind, job, x, n)| match kind {
        0 => TraceEvent::Meta {
            gpu_types: (0..n % 4).map(|i| format!("gpu{i}")).collect(),
            round_duration: x,
        },
        1 => TraceEvent::JobSubmitted {
            job,
            name: format!("job-{job}"),
            model: "resnet18".into(),
        },
        2 => TraceEvent::JobAdmitted { job },
        3 => TraceEvent::AllocationChanged {
            job,
            gpu_type: (n > 0).then_some(n % 3),
            gpus: n,
            reason: REASONS[n % REASONS.len()],
            restart: n % 2 == 1,
        },
        4 => TraceEvent::RestartStarted {
            job,
            checkpoint_cost: x,
        },
        5 => TraceEvent::RestartFinished { job },
        6 => TraceEvent::JobFailed {
            job,
            count: n as u64 + 1,
        },
        7 => TraceEvent::JobCompleted { job },
        8 => TraceEvent::JobCancelled { job },
        9 => TraceEvent::RoundScheduled {
            contention: n,
            policy_runtime: x / 1e4,
        },
        10 => TraceEvent::CapacityAdded {
            gpu_type: n % 3,
            nodes: n,
            gpus: 4 * n,
        },
        11 => TraceEvent::CapacityRemoved {
            gpu_type: n % 3,
            nodes: n,
            gpus: 4 * n,
            graceful: n % 2 == 0,
        },
        12 => TraceEvent::DrainStarted {
            gpu_type: n % 3,
            nodes: n,
            gpus: 4 * n,
        },
        _ => TraceEvent::NodeDegraded {
            gpu_type: n % 3,
            nodes: n,
            factor: x / 1e4,
        },
    })
}

/// Every audit event kind, with varied fields (optional ones both set and
/// unset).
fn arb_audit_event() -> impl Strategy<Value = AuditEvent> {
    (0usize..4, 0u64..64, 0.0f64..100.0, 0usize..16).prop_map(|(kind, job, x, n)| match kind {
        0 => AuditEvent::Meta {
            scheduler: "sia".into(),
            round_duration: 60.0,
            gap_tolerance: x / 1e9,
        },
        1 => AuditEvent::Round {
            round: job,
            contention: n,
            objective: (n % 2 == 0).then_some(x),
            best_bound: (n % 3 != 0).then_some(x + 1.0),
            lp_objective: Some(x + 2.0),
            outcome: "optimal".into(),
            nodes: n,
            pruned: n / 2,
            first_incumbent_node: (n % 2 == 1).then_some(job),
            first_incumbent_s: (n % 4 != 0).then_some(x / 1e3),
            seed_objective: (n % 5 == 0).then_some(x),
            warm_pivots_saved: n,
            solve_s: x / 1e3,
            shards: n as u64,
            budget_exhausted: n % 2 == 0,
            lagrangian_iters: n as u64,
            lagrangian_gap: x,
            lagrangian_norm: x / 2.0,
        },
        2 => AuditEvent::Decision {
            round: job,
            job,
            gpu_type: (n > 0).then_some(n % 3),
            gpus: n,
            reason: REASONS[n % REASONS.len()],
            chosen_value: x / 100.0,
            best_value: x / 50.0,
        },
        _ => AuditEvent::Admission {
            job,
            tenant: format!("tenant-{n}"),
            accepted: n % 2 == 0,
            reason: "accepted".into(),
            charge_gpu_hours: x,
        },
    })
}

/// Records `events` (n ≥ 1) into a ring of `capacity` with a spill
/// attached, cutting a snapshot before the last event, and checks the four
/// recorder properties.
fn check_recorder<E: Canonical>(capacity: usize, events: &[(f64, E)]) {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let spill = std::env::temp_dir().join(format!(
        "sia_proptest_recorder_{}_{}.jsonl",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let (last, head) = events.split_last().expect("at least one event");
    let mut rec = Recorder::new(capacity);
    rec.attach_spill(&spill).unwrap();
    for (t, ev) in head {
        rec.record(*t, ev.clone());
    }
    let mut back = Recorder::<E>::from_state(&rec.export_state()).unwrap();
    rec.record(last.0, last.1.clone());
    back.record(last.0, last.1.clone());
    let n = events.len();
    let len = rec.len();
    assert_eq!(rec.dropped(), (n - len) as u64);
    let stream = rec.into_stream();
    let text = std::fs::read_to_string(&spill).unwrap();
    std::fs::remove_file(&spill).ok();

    // The spill has every record; the ring its last min(n, capacity).
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), n);
    assert_eq!(len, n.min(capacity));
    let kept: String = lines[n - len..].iter().map(|l| format!("{l}\n")).collect();
    assert_eq!(stream.to_jsonl(), kept);
    assert_eq!(stream.dropped, (n - len) as u64);

    // seq numbers every emitted record, gap-free.
    let seqs: Vec<u64> = stream.records.iter().map(|r| r.seq).collect();
    assert_eq!(seqs, ((n - len) as u64..n as u64).collect::<Vec<_>>());

    // A restored recorder continues exactly where the exported one stopped.
    assert_eq!(back.into_stream(), stream);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flight_recorder_ring_spill_and_state(
        capacity in 0usize..=8,
        events in proptest::collection::vec((0.0f64..1e5, arb_trace_event()), 1..=40),
    ) {
        check_recorder(capacity, &events);
    }

    #[test]
    fn audit_recorder_ring_spill_and_state(
        capacity in 0usize..=8,
        events in proptest::collection::vec((0.0f64..1e5, arb_audit_event()), 1..=40),
    ) {
        check_recorder(capacity, &events);
    }
}
