//! The simulated-time flight recorder's events.
//!
//! Where the rest of `sia-telemetry` answers *where does the scheduler's
//! host wall-clock go*, this module answers *what happened to job J inside
//! the simulation, and why*: a typed per-job lifecycle event stream stamped
//! with **simulated** time.
//!
//! Two pieces on top of the generic [`Recorder`] and [`Stream`]:
//!
//! - [`TraceEvent`] — the event enum. [`FlightRecorder`] and
//!   [`FlightTrace`] are the recorder and stream over it; the trace also
//!   exports to the Chrome trace-event format (loadable in Perfetto /
//!   `chrome://tracing`).
//! - [`TraceReport`] — the derived per-job attribution view: queueing
//!   delay, restart count/overhead, allocation churn, time on each GPU
//!   type, and the cluster occupancy time series. This is the engine room
//!   of `sia-cli trace-report`.
//!
//! ## Stream schema (one JSON object per line)
//!
//! Every record carries the [`crate::recorder`] envelope — `t` (simulated
//! seconds), `seq` (per-run emission sequence) and `ev` (the kind).
//! Kind-specific fields:
//!
//! ```json
//! {"ev":"meta","gpu_types":["rtx","a100","t4"],"round_s":60.0,"t":0.0,"seq":0}
//! {"ev":"submitted","job":3,"name":"philly-3","model":"resnet50","t":41.0,"seq":7}
//! {"ev":"admitted","job":3,"t":41.0,"seq":8}
//! {"ev":"alloc","job":3,"gpu_type":1,"gpus":4,"reason":"scaled-up","restart":true,"t":120.0,"seq":19}
//! {"ev":"restart_started","job":3,"cost_s":42.5,"t":120.0,"seq":20}
//! {"ev":"restart_finished","job":3,"t":162.5,"seq":21}
//! {"ev":"failed","job":3,"count":1,"t":507.3,"seq":30}
//! {"ev":"completed","job":3,"t":841.9,"seq":44}
//! {"ev":"round","contention":5,"policy_runtime_s":0.0031,"t":120.0,"seq":18}
//! ```
//!
//! `alloc` records describe the *new* allocation (`gpu_type` is `null` and
//! `gpus` is 0 when the job lost its resources); `reason` is one of the
//! [`AllocReason`] labels and `restart` flags whether the change preempted
//! a running job (i.e. counts toward the job's restart total).
//!
//! `round.policy_runtime_s` is host wall-clock, the stream's only such
//! field; the canonical form ([`Stream::canonical_jsonl`]) zeroes it.

use std::collections::BTreeMap;

use serde_json::{json, Value};

use crate::recorder::{Canonical, Record, Recorder, Stream};

/// One recorded flight-recorder event.
pub type FlightRecord = Record<TraceEvent>;
/// The per-run flight recorder: bounded ring plus optional JSONL spill.
pub type FlightRecorder = Recorder<TraceEvent>;
/// A recorded flight-recorder stream (the in-memory ring contents).
pub type FlightTrace = Stream<TraceEvent>;

/// Why an allocation changed. Stable labels appear in the JSONL stream and
/// in `trace-report` output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocReason {
    /// A queued job received its first resources (or resources after a
    /// preemption gap).
    Started,
    /// Same GPU type, more GPUs.
    ScaledUp,
    /// Same GPU type, fewer GPUs.
    ScaledDown,
    /// Different GPU type, or a same-size move across nodes.
    Migrated,
    /// A running job lost all resources to a scheduling decision.
    Preempted,
    /// The job finished and released its resources.
    Completed,
    /// The change was decided by a fallback heuristic after the exact ILP
    /// exhausted its limits (`SolveOutcome::{Lagrangian,Greedy}Fallback`).
    IlpInfeasibleFallback,
    /// The job's nodes left the cluster (abrupt kill or expired drain
    /// grace window): the engine evicted it, not a scheduling decision.
    CapacityLost,
    /// A client cancelled the job (serve mode): the release was requested,
    /// not decided by the scheduler or caused by completion.
    Cancelled,
}

impl AllocReason {
    /// Stable lowercase label used in the JSONL stream.
    pub fn label(self) -> &'static str {
        match self {
            AllocReason::Started => "started",
            AllocReason::ScaledUp => "scaled-up",
            AllocReason::ScaledDown => "scaled-down",
            AllocReason::Migrated => "migrated",
            AllocReason::Preempted => "preempted",
            AllocReason::Completed => "completed",
            AllocReason::IlpInfeasibleFallback => "ilp-infeasible-fallback",
            AllocReason::CapacityLost => "capacity-lost",
            AllocReason::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`AllocReason::label`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "started" => AllocReason::Started,
            "scaled-up" => AllocReason::ScaledUp,
            "scaled-down" => AllocReason::ScaledDown,
            "migrated" => AllocReason::Migrated,
            "preempted" => AllocReason::Preempted,
            "completed" => AllocReason::Completed,
            "ilp-infeasible-fallback" => AllocReason::IlpInfeasibleFallback,
            "capacity-lost" => AllocReason::CapacityLost,
            "cancelled" => AllocReason::Cancelled,
            _ => return None,
        })
    }
}

/// A typed flight-recorder event. Job ids are the raw `JobId` values;
/// GPU types are indices into the [`TraceEvent::Meta`] name table (the
/// recorder sits below `sia-cluster` in the crate graph, so it speaks plain
/// integers).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Run header: GPU type name table and the scheduling-round duration.
    /// Always the first record of a stream.
    Meta {
        /// GPU type names, indexed by `gpu_type` fields.
        gpu_types: Vec<String>,
        /// Scheduling round duration, seconds.
        round_duration: f64,
    },
    /// A job entered the system (stamped with its submission instant).
    JobSubmitted {
        /// Job id.
        job: u64,
        /// Job name.
        name: String,
        /// Model name.
        model: String,
    },
    /// The engine admitted the job (built its estimator, charged profiling).
    JobAdmitted {
        /// Job id.
        job: u64,
    },
    /// The job's allocation changed; fields describe the new allocation.
    AllocationChanged {
        /// Job id.
        job: u64,
        /// New GPU type index (`None` when the job now holds nothing).
        gpu_type: Option<usize>,
        /// New GPU count (0 when the job now holds nothing).
        gpus: usize,
        /// Why the allocation changed.
        reason: AllocReason,
        /// Whether the change preempted a running job (counts as a restart).
        restart: bool,
    },
    /// The job began paying checkpoint-restore time.
    RestartStarted {
        /// Job id.
        job: u64,
        /// Seconds of restore time added by this event.
        checkpoint_cost: f64,
    },
    /// The job finished its checkpoint-restore and resumed useful work.
    RestartFinished {
        /// Job id.
        job: u64,
    },
    /// Injected worker failure(s) rolled the job back to its checkpoint.
    JobFailed {
        /// Job id.
        job: u64,
        /// Number of failures observed at this instant (the round engine
        /// draws a per-round Poisson count; the event engine always 1).
        count: u64,
    },
    /// The job completed its work target.
    JobCompleted {
        /// Job id.
        job: u64,
    },
    /// A client cancelled the job before it completed (serve mode).
    JobCancelled {
        /// Job id.
        job: u64,
    },
    /// A scheduling round ran (only rounds with at least one active job).
    RoundScheduled {
        /// Jobs wanting resources this round.
        contention: usize,
        /// Host wall-clock seconds the policy + apply took (the only
        /// non-deterministic field in the stream; canonicalization zeroes
        /// it).
        policy_runtime: f64,
    },
    /// Fresh nodes joined the cluster (capacity grew).
    CapacityAdded {
        /// GPU type index (meta name table).
        gpu_type: usize,
        /// Number of nodes added.
        nodes: usize,
        /// Total GPUs added.
        gpus: usize,
    },
    /// Nodes left the cluster (capacity shrank). Stamped with the scripted
    /// event time even when eviction is enforced at the next round boundary.
    CapacityRemoved {
        /// GPU type index (meta name table).
        gpu_type: usize,
        /// Number of nodes removed.
        nodes: usize,
        /// Total GPUs removed.
        gpus: usize,
        /// True when the removal completed a drain (evicted jobs keep their
        /// progress); false for an abrupt kill (progress rolls back to the
        /// last checkpoint).
        graceful: bool,
    },
    /// Nodes stopped accepting new placements ahead of a graceful removal.
    DrainStarted {
        /// GPU type index (meta name table).
        gpu_type: usize,
        /// Number of nodes draining.
        nodes: usize,
        /// Total GPUs on the draining nodes.
        gpus: usize,
    },
    /// Per-node straggler multiplier changed (`factor == 1.0` restores
    /// full speed).
    NodeDegraded {
        /// GPU type index (meta name table).
        gpu_type: usize,
        /// Number of nodes affected.
        nodes: usize,
        /// Throughput multiplier now in effect on those nodes.
        factor: f64,
    },
}

impl Canonical for TraceEvent {
    fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Meta { .. } => "meta",
            TraceEvent::JobSubmitted { .. } => "submitted",
            TraceEvent::JobAdmitted { .. } => "admitted",
            TraceEvent::AllocationChanged { .. } => "alloc",
            TraceEvent::RestartStarted { .. } => "restart_started",
            TraceEvent::RestartFinished { .. } => "restart_finished",
            TraceEvent::JobFailed { .. } => "failed",
            TraceEvent::JobCompleted { .. } => "completed",
            TraceEvent::JobCancelled { .. } => "cancelled",
            TraceEvent::RoundScheduled { .. } => "round",
            TraceEvent::CapacityAdded { .. } => "capacity_added",
            TraceEvent::CapacityRemoved { .. } => "capacity_removed",
            TraceEvent::DrainStarted { .. } => "drain_started",
            TraceEvent::NodeDegraded { .. } => "degraded",
        }
    }

    fn job(&self) -> Option<u64> {
        match *self {
            TraceEvent::JobSubmitted { job, .. }
            | TraceEvent::JobAdmitted { job }
            | TraceEvent::AllocationChanged { job, .. }
            | TraceEvent::RestartStarted { job, .. }
            | TraceEvent::RestartFinished { job }
            | TraceEvent::JobFailed { job, .. }
            | TraceEvent::JobCompleted { job }
            | TraceEvent::JobCancelled { job } => Some(job),
            TraceEvent::Meta { .. }
            | TraceEvent::RoundScheduled { .. }
            | TraceEvent::CapacityAdded { .. }
            | TraceEvent::CapacityRemoved { .. }
            | TraceEvent::DrainStarted { .. }
            | TraceEvent::NodeDegraded { .. } => None,
        }
    }

    /// Canonical same-timestamp ordering class (mirrors the event engine's
    /// same-timestamp priorities: completions before admissions before the
    /// round, with the round's own decisions last).
    fn rank(&self) -> u8 {
        match self {
            TraceEvent::Meta { .. } => 0,
            TraceEvent::JobCompleted { .. } => 1,
            TraceEvent::JobFailed { .. } => 2,
            TraceEvent::JobSubmitted { .. } => 3,
            TraceEvent::JobAdmitted { .. } => 4,
            TraceEvent::RestartFinished { .. } => 5,
            TraceEvent::RoundScheduled { .. } => 6,
            TraceEvent::AllocationChanged { .. } => 7,
            TraceEvent::RestartStarted { .. } => 8,
            // Capacity events sort after job records at the same instant;
            // both engines record them at the scripted event time, so any
            // fixed relative order keeps the canonical streams identical.
            TraceEvent::CapacityAdded { .. } => 9,
            TraceEvent::CapacityRemoved { .. } => 10,
            TraceEvent::DrainStarted { .. } => 11,
            TraceEvent::NodeDegraded { .. } => 12,
            // Cancellations are client requests delivered at a round
            // boundary; sorting them after everything else at the same
            // instant keeps pre-existing streams untouched.
            TraceEvent::JobCancelled { .. } => 13,
        }
    }

    fn payload(&self) -> Value {
        match self {
            TraceEvent::Meta {
                gpu_types,
                round_duration,
            } => json!({
                "gpu_types": gpu_types.iter().map(|s| json!(s)).collect::<Vec<_>>(),
                "round_s": *round_duration,
            }),
            TraceEvent::JobSubmitted { job, name, model } => json!({
                "job": *job, "name": name, "model": model,
            }),
            TraceEvent::JobAdmitted { job } => json!({ "job": *job }),
            TraceEvent::AllocationChanged {
                job,
                gpu_type,
                gpus,
                reason,
                restart,
            } => json!({
                "job": *job,
                "gpu_type": match gpu_type { Some(t) => json!(*t as u64), None => Value::Null },
                "gpus": *gpus as u64,
                "reason": reason.label(),
                "restart": *restart,
            }),
            TraceEvent::RestartStarted {
                job,
                checkpoint_cost,
            } => json!({ "job": *job, "cost_s": *checkpoint_cost }),
            TraceEvent::RestartFinished { job } => json!({ "job": *job }),
            TraceEvent::JobFailed { job, count } => json!({ "job": *job, "count": *count }),
            TraceEvent::JobCompleted { job } => json!({ "job": *job }),
            TraceEvent::JobCancelled { job } => json!({ "job": *job }),
            TraceEvent::RoundScheduled {
                contention,
                policy_runtime,
            } => json!({
                "contention": *contention as u64,
                "policy_runtime_s": *policy_runtime,
            }),
            TraceEvent::CapacityAdded {
                gpu_type,
                nodes,
                gpus,
            } => json!({
                "gpu_type": *gpu_type as u64,
                "nodes": *nodes as u64,
                "gpus": *gpus as u64,
            }),
            TraceEvent::CapacityRemoved {
                gpu_type,
                nodes,
                gpus,
                graceful,
            } => json!({
                "gpu_type": *gpu_type as u64,
                "nodes": *nodes as u64,
                "gpus": *gpus as u64,
                "graceful": *graceful,
            }),
            TraceEvent::DrainStarted {
                gpu_type,
                nodes,
                gpus,
            } => json!({
                "gpu_type": *gpu_type as u64,
                "nodes": *nodes as u64,
                "gpus": *gpus as u64,
            }),
            TraceEvent::NodeDegraded {
                gpu_type,
                nodes,
                factor,
            } => json!({
                "gpu_type": *gpu_type as u64,
                "nodes": *nodes as u64,
                "factor": *factor,
            }),
        }
    }

    fn from_payload(kind: &str, v: &Value) -> Result<Self, String> {
        let job = |field: &str| -> Result<u64, String> {
            v.get(field)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{kind} record missing \"{field}\""))
        };
        Ok(match kind {
            "meta" => TraceEvent::Meta {
                gpu_types: v
                    .get("gpu_types")
                    .and_then(Value::as_array)
                    .ok_or("meta record missing \"gpu_types\"")?
                    .iter()
                    .map(|s| s.as_str().unwrap_or("?").to_string())
                    .collect(),
                round_duration: v.get("round_s").and_then(Value::as_f64).unwrap_or(60.0),
            },
            "submitted" => TraceEvent::JobSubmitted {
                job: job("job")?,
                name: v
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
                model: v
                    .get("model")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
            },
            "admitted" => TraceEvent::JobAdmitted { job: job("job")? },
            "alloc" => TraceEvent::AllocationChanged {
                job: job("job")?,
                gpu_type: v
                    .get("gpu_type")
                    .and_then(Value::as_u64)
                    .map(|t| t as usize),
                gpus: job("gpus")? as usize,
                reason: v
                    .get("reason")
                    .and_then(Value::as_str)
                    .and_then(AllocReason::parse)
                    .ok_or("alloc record has unknown \"reason\"")?,
                restart: v.get("restart").and_then(Value::as_bool).unwrap_or(false),
            },
            "restart_started" => TraceEvent::RestartStarted {
                job: job("job")?,
                checkpoint_cost: v.get("cost_s").and_then(Value::as_f64).unwrap_or(0.0),
            },
            "restart_finished" => TraceEvent::RestartFinished { job: job("job")? },
            "failed" => TraceEvent::JobFailed {
                job: job("job")?,
                count: v.get("count").and_then(Value::as_u64).unwrap_or(1),
            },
            "completed" => TraceEvent::JobCompleted { job: job("job")? },
            "cancelled" => TraceEvent::JobCancelled { job: job("job")? },
            "round" => TraceEvent::RoundScheduled {
                contention: job("contention")? as usize,
                policy_runtime: v
                    .get("policy_runtime_s")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0),
            },
            "capacity_added" => TraceEvent::CapacityAdded {
                gpu_type: job("gpu_type")? as usize,
                nodes: job("nodes")? as usize,
                gpus: job("gpus")? as usize,
            },
            "capacity_removed" => TraceEvent::CapacityRemoved {
                gpu_type: job("gpu_type")? as usize,
                nodes: job("nodes")? as usize,
                gpus: job("gpus")? as usize,
                graceful: v.get("graceful").and_then(Value::as_bool).unwrap_or(false),
            },
            "drain_started" => TraceEvent::DrainStarted {
                gpu_type: job("gpu_type")? as usize,
                nodes: job("nodes")? as usize,
                gpus: job("gpus")? as usize,
            },
            "degraded" => TraceEvent::NodeDegraded {
                gpu_type: job("gpu_type")? as usize,
                nodes: job("nodes")? as usize,
                factor: v.get("factor").and_then(Value::as_f64).unwrap_or(1.0),
            },
            other => return Err(format!("unknown record kind {other:?}")),
        })
    }

    fn zero_wall_clock(&mut self) {
        if let TraceEvent::RoundScheduled { policy_runtime, .. } = self {
            *policy_runtime = 0.0;
        }
    }
}

impl Stream<TraceEvent> {
    /// GPU type name table from the meta record (empty if absent).
    pub fn gpu_types(&self) -> Vec<String> {
        for r in &self.records {
            if let TraceEvent::Meta { gpu_types, .. } = &r.ev {
                return gpu_types.clone();
            }
        }
        Vec::new()
    }

    /// Scheduling-round duration from the meta record.
    pub fn round_duration(&self) -> Option<f64> {
        for r in &self.records {
            if let TraceEvent::Meta { round_duration, .. } = &r.ev {
                return Some(*round_duration);
            }
        }
        None
    }

    /// Exports the stream as a Chrome trace-event JSON document (loadable
    /// in Perfetto / `chrome://tracing`).
    ///
    /// Layout: one *process* (pid) per GPU type (pid 0 is the cluster-wide
    /// lifecycle lane), one *thread* (tid) per job. Allocation intervals
    /// are complete (`"X"`) slices on the GPU type that hosts them; job
    /// lifecycle marks (submitted / completed / failed) are instant (`"i"`)
    /// events on pid 0; per-type occupancy is a counter (`"C"`) series.
    /// Timestamps are microseconds of simulated time.
    pub fn chrome_trace(&self) -> Value {
        let types = self.gpu_types();
        let mut events: Vec<Value> = Vec::new();
        let us = |t: f64| t * 1e6;

        events.push(json!({
            "name": "process_name", "ph": "M", "ts": 0.0, "pid": 0u64, "tid": 0u64,
            "args": {"name": "cluster"},
        }));
        for (i, name) in types.iter().enumerate() {
            events.push(json!({
                "name": "process_name", "ph": "M", "ts": 0.0,
                "pid": (i + 1) as u64, "tid": 0u64,
                "args": {"name": format!("gpu:{name}")},
            }));
        }

        // Open allocation per job: (type index, gpus, since, reason label).
        let mut open: BTreeMap<u64, (usize, usize, f64, &'static str)> = BTreeMap::new();
        // Net capacity change per type (GPUs), relative to the initial
        // cluster (the stream does not carry absolute capacity).
        let mut cap_delta: Vec<i64> = vec![0; types.len().max(1)];
        // (pid, tid) pairs already given a thread_name metadata event.
        let mut named: std::collections::BTreeSet<(u64, u64)> = std::collections::BTreeSet::new();
        let mut job_names: BTreeMap<u64, String> = BTreeMap::new();
        let mut end_time = 0.0_f64;

        let name_thread = |events: &mut Vec<Value>,
                           named: &mut std::collections::BTreeSet<(u64, u64)>,
                           job_names: &BTreeMap<u64, String>,
                           pid: u64,
                           job: u64| {
            if named.insert((pid, job)) {
                let label = job_names
                    .get(&job)
                    .cloned()
                    .unwrap_or_else(|| format!("job-{job}"));
                events.push(json!({
                    "name": "thread_name", "ph": "M", "ts": 0.0, "pid": pid, "tid": job,
                    "args": {"name": label},
                }));
            }
        };
        let close_slice =
            |events: &mut Vec<Value>,
             t: f64,
             job: u64,
             (ty, gpus, since, reason): (usize, usize, f64, &'static str)| {
                let type_name = types.get(ty).map(String::as_str).unwrap_or("?");
                events.push(json!({
                    "name": format!("{gpus}x {type_name}"),
                    "cat": "alloc", "ph": "X",
                    "ts": us(since), "dur": us((t - since).max(0.0)),
                    "pid": (ty + 1) as u64, "tid": job,
                    "args": {"gpus": gpus as u64, "reason": reason},
                }));
            };

        for r in &self.records {
            end_time = end_time.max(r.t);
            match &r.ev {
                TraceEvent::Meta { .. } => {}
                TraceEvent::JobSubmitted { job, name, model } => {
                    job_names.insert(*job, format!("{name} ({model})"));
                    name_thread(&mut events, &mut named, &job_names, 0, *job);
                    events.push(json!({
                        "name": "submitted", "cat": "lifecycle", "ph": "i", "s": "t",
                        "ts": us(r.t), "pid": 0u64, "tid": *job,
                    }));
                }
                TraceEvent::JobAdmitted { .. } => {}
                TraceEvent::AllocationChanged {
                    job,
                    gpu_type,
                    gpus,
                    reason,
                    ..
                } => {
                    if let Some(o) = open.remove(job) {
                        close_slice(&mut events, r.t, *job, o);
                    }
                    if let (Some(ty), true) = (*gpu_type, *gpus > 0) {
                        name_thread(&mut events, &mut named, &job_names, (ty + 1) as u64, *job);
                        open.insert(*job, (ty, *gpus, r.t, reason.label()));
                    }
                }
                TraceEvent::RestartStarted { .. } | TraceEvent::RestartFinished { .. } => {}
                TraceEvent::JobFailed { job, count } => {
                    events.push(json!({
                        "name": format!("failed x{count}"), "cat": "lifecycle", "ph": "i",
                        "s": "t", "ts": us(r.t), "pid": 0u64, "tid": *job,
                    }));
                }
                TraceEvent::JobCompleted { job } => {
                    events.push(json!({
                        "name": "completed", "cat": "lifecycle", "ph": "i", "s": "t",
                        "ts": us(r.t), "pid": 0u64, "tid": *job,
                    }));
                }
                TraceEvent::JobCancelled { job } => {
                    events.push(json!({
                        "name": "cancelled", "cat": "lifecycle", "ph": "i", "s": "t",
                        "ts": us(r.t), "pid": 0u64, "tid": *job,
                    }));
                }
                TraceEvent::RoundScheduled { contention, .. } => {
                    let mut per_type = vec![0u64; types.len().max(1)];
                    for (ty, gpus, _, _) in open.values() {
                        if let Some(slot) = per_type.get_mut(*ty) {
                            *slot += *gpus as u64;
                        }
                    }
                    for (ty, total) in per_type.iter().enumerate() {
                        events.push(json!({
                            "name": "occupancy", "ph": "C", "ts": us(r.t),
                            "pid": (ty + 1) as u64, "tid": 0u64,
                            "args": {"gpus": *total},
                        }));
                    }
                    events.push(json!({
                        "name": "contention", "ph": "C", "ts": us(r.t),
                        "pid": 0u64, "tid": 0u64,
                        "args": {"jobs": *contention as u64},
                    }));
                }
                TraceEvent::CapacityAdded {
                    gpu_type,
                    nodes,
                    gpus,
                } => {
                    events.push(json!({
                        "name": format!("capacity +{gpus} ({nodes} nodes)"),
                        "cat": "capacity", "ph": "i", "s": "p",
                        "ts": us(r.t), "pid": (*gpu_type + 1) as u64, "tid": 0u64,
                    }));
                    if let Some(d) = cap_delta.get_mut(*gpu_type) {
                        *d += *gpus as i64;
                        events.push(json!({
                            "name": "capacity_delta", "ph": "C", "ts": us(r.t),
                            "pid": (*gpu_type + 1) as u64, "tid": 0u64,
                            "args": {"gpus": *d},
                        }));
                    }
                }
                TraceEvent::CapacityRemoved {
                    gpu_type,
                    nodes,
                    gpus,
                    graceful,
                } => {
                    let how = if *graceful { "drained" } else { "killed" };
                    events.push(json!({
                        "name": format!("capacity -{gpus} ({nodes} nodes {how})"),
                        "cat": "capacity", "ph": "i", "s": "p",
                        "ts": us(r.t), "pid": (*gpu_type + 1) as u64, "tid": 0u64,
                    }));
                    if let Some(d) = cap_delta.get_mut(*gpu_type) {
                        *d -= *gpus as i64;
                        events.push(json!({
                            "name": "capacity_delta", "ph": "C", "ts": us(r.t),
                            "pid": (*gpu_type + 1) as u64, "tid": 0u64,
                            "args": {"gpus": *d},
                        }));
                    }
                }
                TraceEvent::DrainStarted {
                    gpu_type,
                    nodes,
                    gpus,
                } => {
                    events.push(json!({
                        "name": format!("drain started ({nodes} nodes, {gpus} GPUs)"),
                        "cat": "capacity", "ph": "i", "s": "p",
                        "ts": us(r.t), "pid": (*gpu_type + 1) as u64, "tid": 0u64,
                    }));
                }
                TraceEvent::NodeDegraded {
                    gpu_type,
                    nodes,
                    factor,
                } => {
                    events.push(json!({
                        "name": format!("degraded x{factor} ({nodes} nodes)"),
                        "cat": "capacity", "ph": "i", "s": "p",
                        "ts": us(r.t), "pid": (*gpu_type + 1) as u64, "tid": 0u64,
                    }));
                }
            }
        }
        // Close any slice left open at the horizon at the last known time
        // plus one round (the engine charges the full final round).
        let close_at = end_time + self.round_duration().unwrap_or(0.0);
        for (job, o) in std::mem::take(&mut open) {
            close_slice(&mut events, close_at, job, o);
        }

        json!({ "traceEvents": events, "displayTimeUnit": "ms" })
    }

    /// Derives the per-job attribution report from the stream.
    pub fn report(&self) -> TraceReport {
        let gpu_types = self.gpu_types();
        let round_duration = self.round_duration().unwrap_or(60.0);
        let n_types = gpu_types.len();
        let mut jobs: BTreeMap<u64, JobTraceStats> = BTreeMap::new();
        // Open allocation per job: (type index, gpus, since).
        let mut open: BTreeMap<u64, (usize, usize, f64)> = BTreeMap::new();
        let mut occupancy = Vec::new();
        let mut capacity_events: Vec<CapacitySample> = Vec::new();
        let mut rounds = 0u64;
        let mut total_policy_runtime_s = 0.0;
        let mut last_round_t = f64::NEG_INFINITY;
        let mut end_time = 0.0_f64;

        let blank = |job: u64, n_types: usize| JobTraceStats {
            job,
            name: String::new(),
            model: String::new(),
            submitted: 0.0,
            first_start: None,
            completed: None,
            cancelled: None,
            restarts: 0,
            restart_overhead_s: 0.0,
            alloc_changes: 0,
            failures: 0,
            seconds_by_type: vec![0.0; n_types],
            gpu_seconds_by_type: vec![0.0; n_types],
        };
        let close = |stats: &mut JobTraceStats, (ty, gpus, since): (usize, usize, f64), t: f64| {
            let dt = (t - since).max(0.0);
            if ty >= stats.seconds_by_type.len() {
                stats.seconds_by_type.resize(ty + 1, 0.0);
                stats.gpu_seconds_by_type.resize(ty + 1, 0.0);
            }
            stats.seconds_by_type[ty] += dt;
            stats.gpu_seconds_by_type[ty] += dt * gpus as f64;
        };

        for r in &self.records {
            end_time = end_time.max(r.t);
            match &r.ev {
                TraceEvent::Meta { .. } => {}
                TraceEvent::JobSubmitted { job, name, model } => {
                    let s = jobs.entry(*job).or_insert_with(|| blank(*job, n_types));
                    s.name = name.clone();
                    s.model = model.clone();
                    s.submitted = r.t;
                }
                TraceEvent::JobAdmitted { .. } => {}
                TraceEvent::AllocationChanged {
                    job,
                    gpu_type,
                    gpus,
                    reason,
                    restart,
                } => {
                    let s = jobs.entry(*job).or_insert_with(|| blank(*job, n_types));
                    if let Some(o) = open.remove(job) {
                        close(s, o, r.t);
                    }
                    if *restart {
                        s.restarts += 1;
                    }
                    if !matches!(*reason, AllocReason::Completed | AllocReason::Cancelled) {
                        s.alloc_changes += 1;
                    }
                    if let (Some(ty), true) = (*gpu_type, *gpus > 0) {
                        if s.first_start.is_none() {
                            s.first_start = Some(r.t);
                        }
                        open.insert(*job, (ty, *gpus, r.t));
                    }
                }
                TraceEvent::RestartStarted {
                    job,
                    checkpoint_cost,
                } => {
                    let s = jobs.entry(*job).or_insert_with(|| blank(*job, n_types));
                    s.restart_overhead_s += checkpoint_cost;
                }
                TraceEvent::RestartFinished { .. } => {}
                TraceEvent::JobFailed { job, count } => {
                    let s = jobs.entry(*job).or_insert_with(|| blank(*job, n_types));
                    s.failures += count;
                }
                TraceEvent::JobCompleted { job } => {
                    let s = jobs.entry(*job).or_insert_with(|| blank(*job, n_types));
                    s.completed = Some(r.t);
                }
                TraceEvent::JobCancelled { job } => {
                    let s = jobs.entry(*job).or_insert_with(|| blank(*job, n_types));
                    s.cancelled = Some(r.t);
                }
                TraceEvent::RoundScheduled {
                    contention: _,
                    policy_runtime,
                } => {
                    rounds += 1;
                    total_policy_runtime_s += policy_runtime;
                    last_round_t = r.t;
                }
                TraceEvent::CapacityAdded {
                    gpu_type,
                    nodes,
                    gpus,
                } => capacity_events.push(CapacitySample {
                    t: r.t,
                    kind: "added",
                    gpu_type: *gpu_type,
                    nodes: *nodes,
                    gpus: *gpus,
                    delta_gpus: *gpus as i64,
                    factor: 1.0,
                }),
                TraceEvent::CapacityRemoved {
                    gpu_type,
                    nodes,
                    gpus,
                    graceful,
                } => capacity_events.push(CapacitySample {
                    t: r.t,
                    kind: if *graceful { "drained" } else { "killed" },
                    gpu_type: *gpu_type,
                    nodes: *nodes,
                    gpus: *gpus,
                    delta_gpus: -(*gpus as i64),
                    factor: 1.0,
                }),
                TraceEvent::DrainStarted {
                    gpu_type,
                    nodes,
                    gpus,
                } => capacity_events.push(CapacitySample {
                    t: r.t,
                    kind: "drain_started",
                    gpu_type: *gpu_type,
                    nodes: *nodes,
                    gpus: *gpus,
                    delta_gpus: 0,
                    factor: 1.0,
                }),
                TraceEvent::NodeDegraded {
                    gpu_type,
                    nodes,
                    factor,
                } => capacity_events.push(CapacitySample {
                    t: r.t,
                    kind: if *factor == 1.0 {
                        "restored"
                    } else {
                        "degraded"
                    },
                    gpu_type: *gpu_type,
                    nodes: *nodes,
                    gpus: 0,
                    delta_gpus: 0,
                    factor: *factor,
                }),
            }
            // Occupancy is sampled *after* each round's allocation records
            // land, i.e. at the next record boundary past the round; doing
            // it here (after every record) keeps the last sample per round
            // timestamp, which is the post-apply state.
            if let TraceEvent::AllocationChanged { .. } | TraceEvent::RoundScheduled { .. } = r.ev {
                let mut per_type = vec![0usize; n_types.max(1)];
                for (ty, gpus, _) in open.values() {
                    if let Some(slot) = per_type.get_mut(*ty) {
                        *slot += *gpus;
                    }
                }
                match occupancy.last_mut() {
                    Some(OccupancySample {
                        t, gpus_by_type, ..
                    }) if *t == r.t => {
                        *gpus_by_type = per_type;
                    }
                    _ => occupancy.push(OccupancySample {
                        t: r.t,
                        gpus_by_type: per_type,
                        contention: 0,
                    }),
                }
            }
            if let TraceEvent::RoundScheduled { contention, .. } = r.ev {
                if let Some(last) = occupancy.last_mut() {
                    if last.t == r.t {
                        last.contention = contention;
                    }
                }
            }
        }

        // Jobs still holding GPUs at the end of the stream ran through the
        // final executed round; the engine charges that whole round.
        let horizon_end = if last_round_t.is_finite() {
            end_time.max(last_round_t + round_duration)
        } else {
            end_time
        };
        for (job, o) in std::mem::take(&mut open) {
            if let Some(s) = jobs.get_mut(&job) {
                close(s, o, horizon_end);
            }
        }

        TraceReport {
            gpu_types,
            round_duration,
            jobs: jobs.into_values().collect(),
            rounds,
            total_policy_runtime_s,
            occupancy,
            capacity_events,
            end_time: horizon_end,
            dropped: self.dropped,
        }
    }
}

/// Per-job attribution derived from a flight-recorder stream.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTraceStats {
    /// Job id.
    pub job: u64,
    /// Job name (from the submitted record).
    pub name: String,
    /// Model name.
    pub model: String,
    /// Submission time, simulated seconds.
    pub submitted: f64,
    /// First instant the job held resources.
    pub first_start: Option<f64>,
    /// Completion instant, if the job finished within the trace.
    pub completed: Option<f64>,
    /// Cancellation instant, if a client cancelled the job (serve mode).
    pub cancelled: Option<f64>,
    /// Restarts (allocation changes that preempted a running job).
    pub restarts: u64,
    /// Total checkpoint-restore seconds charged (includes the initial
    /// cold-start restore and failure-recovery restores).
    pub restart_overhead_s: f64,
    /// Allocation changes excluding the completion release (churn).
    pub alloc_changes: u64,
    /// Injected worker failures recovered from.
    pub failures: u64,
    /// Seconds spent holding each GPU type (indexed like the meta table).
    pub seconds_by_type: Vec<f64>,
    /// GPU-seconds consumed on each GPU type.
    pub gpu_seconds_by_type: Vec<f64>,
}

impl JobTraceStats {
    /// Queueing delay before first start (`None` if the job never started).
    pub fn queue_delay(&self) -> Option<f64> {
        self.first_start.map(|s| s - self.submitted)
    }

    /// Job completion time (`None` if unfinished).
    pub fn jct(&self) -> Option<f64> {
        self.completed.map(|c| c - self.submitted)
    }

    /// Total GPU-seconds across all types.
    pub fn gpu_seconds(&self) -> f64 {
        self.gpu_seconds_by_type.iter().sum()
    }
}

/// One capacity-timeline entry of a [`TraceReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct CapacitySample {
    /// Scripted event time, simulated seconds.
    pub t: f64,
    /// What happened: `added`, `killed`, `drained`, `drain_started`,
    /// `degraded` or `restored`.
    pub kind: &'static str,
    /// GPU type index (meta name table).
    pub gpu_type: usize,
    /// Nodes affected.
    pub nodes: usize,
    /// GPUs on the affected nodes (0 for degradation events).
    pub gpus: usize,
    /// Signed change to placeable capacity, GPUs (0 for drain-start and
    /// degradation events).
    pub delta_gpus: i64,
    /// Straggler multiplier now in effect (1.0 unless degraded).
    pub factor: f64,
}

/// Cluster allocation state at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancySample {
    /// Simulated time, seconds.
    pub t: f64,
    /// GPUs allocated per type (indexed like the meta table).
    pub gpus_by_type: Vec<usize>,
    /// Jobs wanting resources at this instant (0 for non-round samples).
    pub contention: usize,
}

/// The derived analysis view over one flight-recorder stream.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// GPU type names.
    pub gpu_types: Vec<String>,
    /// Scheduling-round duration, seconds.
    pub round_duration: f64,
    /// Per-job stats, sorted by job id.
    pub jobs: Vec<JobTraceStats>,
    /// Scheduling rounds observed.
    pub rounds: u64,
    /// Total host wall-clock spent in policy + apply across rounds.
    pub total_policy_runtime_s: f64,
    /// Cluster occupancy time series (one sample per allocation change or
    /// scheduling round).
    pub occupancy: Vec<OccupancySample>,
    /// Capacity timeline: every capacity event in the stream, in record
    /// order (empty unless the run had cluster dynamics).
    pub capacity_events: Vec<CapacitySample>,
    /// End of the accounted window, simulated seconds.
    pub end_time: f64,
    /// Ring-buffer drops in the source trace (the report is partial if
    /// nonzero and the stream didn't come from a spill file).
    pub dropped: u64,
}

impl TraceReport {
    /// Mean GPUs held per type over `[0, end_time]`, by trapezoid-free
    /// step integration of the occupancy series.
    pub fn mean_occupancy(&self) -> Vec<f64> {
        let n = self.gpu_types.len().max(1);
        let mut area = vec![0.0_f64; n];
        if self.end_time <= 0.0 {
            return area;
        }
        for w in self.occupancy.windows(2) {
            let dt = (w[1].t - w[0].t).max(0.0);
            for (i, g) in w[0].gpus_by_type.iter().enumerate() {
                if i < n {
                    area[i] += dt * *g as f64;
                }
            }
        }
        if let Some(last) = self.occupancy.last() {
            let dt = (self.end_time - last.t).max(0.0);
            for (i, g) in last.gpus_by_type.iter().enumerate() {
                if i < n {
                    area[i] += dt * *g as f64;
                }
            }
        }
        area.iter().map(|a| a / self.end_time).collect()
    }

    /// Peak GPUs held per type.
    pub fn peak_occupancy(&self) -> Vec<usize> {
        let n = self.gpu_types.len().max(1);
        let mut peak = vec![0usize; n];
        for s in &self.occupancy {
            for (i, g) in s.gpus_by_type.iter().enumerate() {
                if i < n && *g > peak[i] {
                    peak[i] = *g;
                }
            }
        }
        peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> FlightTrace {
        let mut rec = FlightRecorder::new(1024);
        rec.record(
            0.0,
            TraceEvent::Meta {
                gpu_types: vec!["rtx".into(), "a100".into()],
                round_duration: 60.0,
            },
        );
        rec.record(
            0.0,
            TraceEvent::JobSubmitted {
                job: 0,
                name: "j0".into(),
                model: "resnet18".into(),
            },
        );
        rec.record(0.0, TraceEvent::JobAdmitted { job: 0 });
        rec.record(
            0.0,
            TraceEvent::RoundScheduled {
                contention: 1,
                policy_runtime: 0.002,
            },
        );
        rec.record(
            0.0,
            TraceEvent::AllocationChanged {
                job: 0,
                gpu_type: Some(1),
                gpus: 2,
                reason: AllocReason::Started,
                restart: false,
            },
        );
        rec.record(
            0.0,
            TraceEvent::RestartStarted {
                job: 0,
                checkpoint_cost: 30.0,
            },
        );
        rec.record(30.0, TraceEvent::RestartFinished { job: 0 });
        rec.record(
            60.0,
            TraceEvent::RoundScheduled {
                contention: 1,
                policy_runtime: 0.001,
            },
        );
        rec.record(
            60.0,
            TraceEvent::AllocationChanged {
                job: 0,
                gpu_type: Some(1),
                gpus: 4,
                reason: AllocReason::ScaledUp,
                restart: true,
            },
        );
        rec.record(
            60.0,
            TraceEvent::RestartStarted {
                job: 0,
                checkpoint_cost: 30.0,
            },
        );
        rec.record(100.0, TraceEvent::JobCompleted { job: 0 });
        rec.record(
            100.0,
            TraceEvent::AllocationChanged {
                job: 0,
                gpu_type: None,
                gpus: 0,
                reason: AllocReason::Completed,
                restart: false,
            },
        );
        rec.into_stream()
    }

    #[test]
    fn jsonl_round_trips() {
        let trace = sample_trace();
        let text = trace.to_jsonl();
        let parsed = FlightTrace::parse_jsonl(&text).unwrap();
        assert_eq!(parsed.records, trace.records);
        assert_eq!(parsed.to_jsonl(), text);
    }

    #[test]
    fn canonical_is_stable_under_reordering() {
        let trace = sample_trace();
        let mut shuffled = trace.clone();
        shuffled.records.reverse();
        for (i, r) in shuffled.records.iter_mut().enumerate() {
            r.seq = i as u64; // seq is renumbered by canonicalization anyway
        }
        assert_eq!(trace.canonical_jsonl(), shuffled.canonical_jsonl());
        assert!(
            !trace.canonical_jsonl().contains("0.002"),
            "canonical form must zero the wall-clock field"
        );
    }

    #[test]
    fn report_attributes_per_job() {
        let report = sample_trace().report();
        assert_eq!(report.gpu_types, vec!["rtx".to_string(), "a100".into()]);
        assert_eq!(report.rounds, 2);
        assert!((report.total_policy_runtime_s - 0.003).abs() < 1e-12);
        assert_eq!(report.jobs.len(), 1);
        let j = &report.jobs[0];
        assert_eq!(j.queue_delay(), Some(0.0));
        assert_eq!(j.jct(), Some(100.0));
        assert_eq!(j.restarts, 1);
        assert_eq!(j.alloc_changes, 2);
        assert!((j.restart_overhead_s - 60.0).abs() < 1e-12);
        // 60 s at 2 GPUs + 40 s at 4 GPUs, all on type 1 (a100).
        assert!((j.seconds_by_type[1] - 100.0).abs() < 1e-9);
        assert!((j.gpu_seconds_by_type[1] - 280.0).abs() < 1e-9);
        assert_eq!(j.seconds_by_type[0], 0.0);
        // Occupancy peaks at 4 GPUs of type 1.
        assert_eq!(report.peak_occupancy(), vec![0, 4]);
    }

    #[test]
    fn chrome_export_shape() {
        let doc = sample_trace().chrome_trace();
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        assert!(!events.is_empty());
        let mut slices = 0;
        for e in events {
            let ph = e.get("ph").and_then(Value::as_str).expect("ph present");
            assert!(["M", "X", "i", "C"].contains(&ph), "unexpected phase {ph}");
            assert!(e.get("ts").and_then(Value::as_f64).unwrap() >= 0.0);
            assert!(e.get("pid").and_then(Value::as_u64).is_some());
            assert!(e.get("tid").and_then(Value::as_u64).is_some());
            if ph == "X" {
                slices += 1;
                assert!(e.get("dur").and_then(Value::as_f64).unwrap() >= 0.0);
                let pid = e.get("pid").and_then(Value::as_u64).unwrap();
                assert!(pid >= 1, "allocation slices live on GPU-type pids");
            }
        }
        assert_eq!(slices, 2, "two allocation intervals for the sample job");
    }

    #[test]
    fn cancelled_round_trips_and_reports() {
        let mut rec = FlightRecorder::new(64);
        rec.record(
            0.0,
            TraceEvent::Meta {
                gpu_types: vec!["t4".into()],
                round_duration: 60.0,
            },
        );
        rec.record(
            0.0,
            TraceEvent::JobSubmitted {
                job: 1,
                name: "j1".into(),
                model: "bert".into(),
            },
        );
        rec.record(
            60.0,
            TraceEvent::AllocationChanged {
                job: 1,
                gpu_type: Some(0),
                gpus: 2,
                reason: AllocReason::Started,
                restart: false,
            },
        );
        rec.record(120.0, TraceEvent::JobCancelled { job: 1 });
        rec.record(
            120.0,
            TraceEvent::AllocationChanged {
                job: 1,
                gpu_type: None,
                gpus: 0,
                reason: AllocReason::Cancelled,
                restart: false,
            },
        );
        let trace = rec.into_stream();
        let parsed = FlightTrace::parse_jsonl(&trace.to_jsonl()).unwrap();
        assert_eq!(parsed.records, trace.records);
        let report = trace.report();
        let j = &report.jobs[0];
        assert_eq!(j.cancelled, Some(120.0));
        assert_eq!(j.completed, None);
        assert_eq!(
            j.alloc_changes, 1,
            "the cancellation release is not churn, like completion"
        );
    }
}
