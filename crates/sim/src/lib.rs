//! Discrete-time DL-cluster simulator.
//!
//! The paper runs its broad evaluations on the (validated) discrete-time
//! simulator released with Pollux, extended with heterogeneous GPU types and
//! model-specific checkpoint-restore delays. This crate is a from-scratch
//! Rust equivalent:
//!
//! * round-based scheduling: every `round_duration` seconds the active
//!   [`Scheduler`] observes the visible job state ([`JobView`]) and returns
//!   complete placements; between rounds jobs progress at the goodput of
//!   their *true* (hidden) performance model;
//! * one engine, [`SimDriver`], on the `sia-events` kernel: completions,
//!   failures, restore completions and capacity changes are exact-time
//!   events, the scheduling round is a timer that sleeps through idle
//!   spans, and submissions wait in a queue until the next boundary. Batch
//!   runs ([`Simulator::run`]) preload the trace into a driver; the
//!   `sia-serve` daemon steps one request by request;
//! * Adaptive Executors pick the goodput-optimal batch size and gradient
//!   accumulation for whatever resources a job holds, and report noisy
//!   throughput/gradient statistics that refine the job's
//!   [`sia_models::JobEstimator`];
//! * checkpoint-restore preemption: every placement change costs the job
//!   its model-specific restart delay (25–250 s band);
//! * profiling modes (§5.7): `Oracle`, `Bootstrap` (Sia's default) and
//!   `NoProf` control how much each job's estimator knows up front;
//! * optional execution/measurement noise reproduces "physical cluster"
//!   conditions (Figure 4).

#![forbid(unsafe_code)]

pub mod driver;
pub mod engine;
pub mod result;
pub mod scheduler;

pub use driver::{
    CancelOutcome, JobStatus, RoundHealth, RoundOutcome, RoundWatch, SimDriver, SnapshotRefusal,
    SNAPSHOT_STATE_VERSION,
};
pub use engine::{SimConfig, Simulator};
pub use result::{DecisionInfo, JobRecord, RoundLog, SimResult, SolveOutcome, SolverStats};
pub use scheduler::{AllocationMap, JobView, Scheduler};
