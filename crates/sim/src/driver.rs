//! The simulation core: one steppable driver on the `sia-events` kernel.
//!
//! [`SimDriver`] owns everything a run evolves — jobs, the submission
//! queue, the kernel (clock, pending events, failure stream), the engine RNG
//! stream, both recorders, the capacity view and the audit cursor — and
//! runs the one round body (admit → schedule → apply → execute) whenever
//! the kernel's round timer fires. A batch run ([`Simulator::run`]) is a
//! driver preloaded with the whole trace and run with
//! [`SimDriver::run_to_idle`]; the daemon submits jobs as requests arrive
//! and paces the clock with [`SimDriver::step_until`]. Both run the same
//! code, so the same submissions give the same canonical streams.
//!
//! Between round boundaries the kernel fires exact-time events:
//!
//! - `Completion` — the instant a job's remaining work hits zero,
//! - `Failure` — a worker failure, sampled as an exponential inter-arrival
//!   process per placement,
//! - `RestartDone` — the instant a job finishes paying its checkpoint
//!   restore and resumes useful work,
//! - `Dynamics` — scripted capacity changes falling due,
//! - `RoundTimer` — the scheduling round. It recurs while some job is
//!   runnable, goes dormant when none is, and is re-armed for the first
//!   boundary at or after the next pending submission (or a failure that
//!   revives a finishing job), so idle spans are skipped.
//!
//! Same-timestamp causality is encoded in event priorities: completions,
//! failures, restores and capacity changes at a boundary are all observed
//! before that boundary's round. Submissions wait in a queue sorted by
//! (submit time, submission order) and are admitted at the first round
//! boundary at or after their submit time, before the round schedules.
//!
//! ## Determinism
//!
//! All scheduler-visible noise (bootstrap profiles, restart jitter,
//! execution jitter, executor reports) is drawn from one engine stream,
//! `ChaCha8Rng::seed_from_u64(seed)`, in a fixed order: admissions, then the
//! apply loop, then the execute loop. Failures draw from the kernel's
//! separate `"failure"` stream, so turning injection on (or changing its
//! rate) never perturbs job noise trajectories. Stepping granularity is
//! invisible: a driver stepped request by request (and not past the
//! horizon, which only `run_to_idle` enforces) emits the same canonical
//! streams as one preloaded with the same submissions.
//!
//! ## Snapshots
//!
//! Without failure injection and capacity dynamics, the only kernel event
//! pending when [`SimDriver::step_until`] returns is the round timer, whose
//! boundary follows from the job state, so [`SimDriver::snapshot`] captures
//! the run as plain state. It refuses the two configurations whose state it
//! does not capture — failure injection (a second RNG stream and pending
//! failure events) and capacity dynamics (the script cursor and pending
//! capacity events) — with a typed [`SnapshotRefusal`].

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::{json, FromJson, ToJson, Value};
use sia_cluster::{ClusterSpec, ClusterView, GpuTypeId, JobId, Placement};
use sia_dynamics::{CapacityChange, DynamicsRuntime};
use sia_events::{exp_sample, EventId, EventPayload, Kernel};
use sia_models::{JobEstimator, ProfilingMode};
use sia_telemetry::{
    AllocReason, AuditEvent, AuditRecorder, Canonical, FlightRecorder, Recorder, TraceEvent,
};
use sia_workloads::JobSpec;

use crate::engine::{
    apply_allocations, assemble_result, evict_for_capacity, is_fallback, open_recorder,
    record_audit_round, record_capacity, symmetric, JobState, SimConfig, Simulator,
};
use crate::result::{DecisionInfo, RoundLog, SimResult};
use crate::scheduler::{JobView, Scheduler};

/// Snapshot payload format version understood by [`SimDriver::restore`].
pub const SNAPSHOT_STATE_VERSION: u64 = 1;

/// What one scheduling round did, for callers that translate engine
/// activity into service events.
#[derive(Debug, Clone, Default)]
pub struct RoundOutcome {
    /// Virtual time at the round boundary that was executed.
    pub time: f64,
    /// Jobs that completed during the round, with their exact finish times,
    /// in execution order.
    pub completed: Vec<(JobId, f64)>,
    /// Jobs whose placement changed this round, in apply order, with their
    /// new allocation (`None` when the job lost its GPUs).
    pub changed: Vec<(JobId, Option<(GpuTypeId, usize)>)>,
}

/// Point-in-time health of the most recent scheduled round, published
/// through [`RoundWatch`].
#[derive(Debug, Clone, Default)]
pub struct RoundHealth {
    /// Virtual time of the round boundary.
    pub time: f64,
    /// Active jobs the policy saw.
    pub active: usize,
    /// Jobs that ended the round with an allocation.
    pub allocated: usize,
    /// Wall-clock seconds the whole scheduling pass took.
    pub policy_runtime_s: f64,
    /// Wall-clock seconds inside the solver proper.
    pub solve_s: f64,
    /// Relative optimality gap, when the solver reported bounds.
    pub gap_rel: Option<f64>,
    /// Branch-and-bound nodes expanded.
    pub nodes: usize,
    /// Branch-and-bound nodes pruned.
    pub nodes_pruned: usize,
    /// Whether the round was seeded from a warm-start incumbent.
    pub warm_seeded: bool,
    /// Whether the solver fell back to the greedy path.
    pub fallback: bool,
    /// MILP shards solved this round (0 = monolithic solve).
    pub shards: usize,
    /// Whether the per-round time budget expired before optimality was
    /// proven (the anytime incumbent was published instead).
    pub budget_exhausted: bool,
    /// Lagrangian pricing iterations run this round (0 when pricing
    /// didn't run).
    pub lagrangian_iters: usize,
    /// Duality gap left by the Lagrangian pricing pass.
    pub lagrangian_gap: f64,
}

/// Cloneable, thread-safe observation hook over a driver's round loop.
///
/// A stats listener thread holds one clone while the serving thread owns
/// the driver; the watch carries only runtime health — cumulative round
/// counters, the last scheduled round's [`RoundHealth`], and an
/// in-progress marker for stall detection. It is *not* part of snapshots:
/// counters restart from zero on [`SimDriver::restore`], matching the
/// uptime of the new process.
#[derive(Clone, Default)]
pub struct RoundWatch {
    inner: Arc<WatchInner>,
}

#[derive(Default)]
struct WatchInner {
    rounds: AtomicU64,
    scheduled_rounds: AtomicU64,
    warm_seeded_rounds: AtomicU64,
    fallback_rounds: AtomicU64,
    budget_exhausted_rounds: AtomicU64,
    in_round_since: Mutex<Option<Instant>>,
    last: Mutex<Option<RoundHealth>>,
}

impl RoundWatch {
    fn begin_round(&self) {
        *self.inner.in_round_since.lock().unwrap() = Some(Instant::now());
    }

    fn end_round(&self, health: Option<RoundHealth>) {
        self.inner.rounds.fetch_add(1, Ordering::Relaxed);
        if let Some(health) = health {
            self.inner.scheduled_rounds.fetch_add(1, Ordering::Relaxed);
            if health.warm_seeded {
                self.inner
                    .warm_seeded_rounds
                    .fetch_add(1, Ordering::Relaxed);
            }
            if health.fallback {
                self.inner.fallback_rounds.fetch_add(1, Ordering::Relaxed);
            }
            if health.budget_exhausted {
                self.inner
                    .budget_exhausted_rounds
                    .fetch_add(1, Ordering::Relaxed);
            }
            *self.inner.last.lock().unwrap() = Some(health);
        }
        *self.inner.in_round_since.lock().unwrap() = None;
    }

    /// How long the current round has been executing, if one is in
    /// flight. A long-running value is the stall signal a round-deadline
    /// watchdog checks.
    pub fn in_round_for(&self) -> Option<Duration> {
        self.inner
            .in_round_since
            .lock()
            .unwrap()
            .map(|t| t.elapsed())
    }

    /// Rounds executed since this process started (or restored). Idle
    /// boundaries, where no job was active, do not count.
    pub fn rounds(&self) -> u64 {
        self.inner.rounds.load(Ordering::Relaxed)
    }

    /// Rounds in which the policy reported solver statistics.
    pub fn scheduled_rounds(&self) -> u64 {
        self.inner.scheduled_rounds.load(Ordering::Relaxed)
    }

    /// Scheduled rounds seeded from a warm-start incumbent.
    pub fn warm_seeded_rounds(&self) -> u64 {
        self.inner.warm_seeded_rounds.load(Ordering::Relaxed)
    }

    /// Scheduled rounds that took the greedy fallback path.
    pub fn fallback_rounds(&self) -> u64 {
        self.inner.fallback_rounds.load(Ordering::Relaxed)
    }

    /// Scheduled rounds whose per-round time budget expired before the
    /// solve proved optimality (anytime incumbent published instead).
    pub fn budget_exhausted_rounds(&self) -> u64 {
        self.inner.budget_exhausted_rounds.load(Ordering::Relaxed)
    }

    /// Warm-start hit rate over scheduled rounds, if any ran.
    pub fn warm_hit_ratio(&self) -> Option<f64> {
        let scheduled = self.scheduled_rounds();
        (scheduled > 0).then(|| self.warm_seeded_rounds() as f64 / scheduled as f64)
    }

    /// The most recent scheduled round's health, if any round ran.
    pub fn last(&self) -> Option<RoundHealth> {
        self.inner.last.lock().unwrap().clone()
    }
}

/// Result of a [`SimDriver::cancel`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CancelOutcome {
    /// The job was still queued; it never consumed resources.
    Pending,
    /// The job was active and has been terminated; `gpu_seconds` is what it
    /// consumed up to the cancellation instant.
    Active {
        /// GPU-seconds consumed before cancellation.
        gpu_seconds: f64,
    },
    /// The job already finished; nothing to cancel.
    Finished,
    /// No job with that id was ever submitted.
    NotFound,
}

/// Externally visible status of one submitted job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Job id.
    pub id: JobId,
    /// True while the job sits in the not-yet-admitted queue.
    pub pending: bool,
    /// True once the job completed (or was cancelled).
    pub finished: bool,
    /// Fraction of the work target completed, in `[0, 1]`.
    pub progress: f64,
    /// GPUs currently held.
    pub gpus: usize,
    /// Placement changes so far.
    pub restarts: u32,
    /// GPU-seconds consumed so far.
    pub gpu_seconds: f64,
    /// Completion instant, if any.
    pub finish_time: Option<f64>,
}

/// Why [`SimDriver::snapshot`] refused to capture a driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotRefusal {
    /// Failure injection is on: its RNG stream and pending failure events
    /// are not part of the snapshot.
    FailureInjection,
    /// A capacity-dynamics script is attached: its cursor is not part of
    /// the snapshot.
    Dynamics,
}

impl fmt::Display for SnapshotRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SnapshotRefusal::FailureInjection => "failure injection cannot be snapshotted",
            SnapshotRefusal::Dynamics => "capacity dynamics cannot be snapshotted",
        })
    }
}

impl std::error::Error for SnapshotRefusal {}

/// Kernel events; job indices refer to [`SimDriver`]'s jobs vector.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A job's remaining work reaches zero.
    Completion { job: usize },
    /// A worker failure under a job's current placement.
    Failure { job: usize },
    /// A job finishes its checkpoint-restore and resumes useful work.
    RestartDone { job: usize },
    /// One or more scripted capacity events fall due at this instant.
    Dynamics,
    /// The scheduling round.
    RoundTimer,
}

impl EventPayload for Ev {
    fn kind(&self) -> &'static str {
        match self {
            Ev::Completion { .. } => "completion",
            Ev::Failure { .. } => "failure",
            Ev::RestartDone { .. } => "restart_done",
            Ev::Dynamics => "dynamics",
            Ev::RoundTimer => "round_timer",
        }
    }

    /// Same-timestamp order: completions happen-before failures
    /// happen-before restores happen-before capacity changes happen-before
    /// the scheduling round (a capacity event exactly at a boundary is
    /// visible to — and enforced by — that boundary's round).
    fn priority(&self) -> u8 {
        match self {
            Ev::Completion { .. } => 0,
            Ev::Failure { .. } => 1,
            Ev::RestartDone { .. } => 2,
            Ev::Dynamics => 3,
            Ev::RoundTimer => 4,
        }
    }
}

/// Per-job event bookkeeping, parallel to the jobs vector.
#[derive(Default)]
struct Aux {
    /// Pending completion, if the job finishes within the current round.
    completion: Option<EventId>,
    /// GPU time already charged for the slice ending at that completion.
    completion_consumed: f64,
    /// Next pending failure under the current placement.
    failure: Option<EventId>,
}

/// The simulation engine: one cluster, one scheduler, jobs submitted over
/// time. See the module docs for the event model and its guarantees.
pub struct SimDriver {
    sim: Simulator,
    kernel: Kernel<Ev>,
    /// The engine stream (see the module docs).
    rng: ChaCha8Rng,
    jobs: Vec<JobState>,
    aux: Vec<Aux>,
    pending: VecDeque<JobSpec>,
    /// The armed round timer and its boundary; `None` while dormant.
    timer: Option<(EventId, f64)>,
    dynamics: Option<DynamicsRuntime>,
    /// Capacity changes applied since the last round; that round's
    /// evictions enforce them.
    pending_changes: Vec<CapacityChange>,
    rounds: Vec<RoundLog>,
    /// Outcomes of the rounds run since the last `step_until` /
    /// `run_to_idle` returned.
    outs: Vec<RoundOutcome>,
    /// Completions fired since the last round: (job index, finish time).
    completed: Vec<(usize, f64)>,
    now: f64,
    makespan: f64,
    audit_round: u64,
    rec: FlightRecorder,
    audit: AuditRecorder,
    view: ClusterView,
    round: f64,
    horizon: f64,
    watch: RoundWatch,
}

impl SimDriver {
    /// Creates an empty driver over `spec`. The scheduler is consulted for
    /// the round duration and the recorder meta records.
    ///
    /// # Panics
    ///
    /// Panics if the round duration is not positive, or if `cfg.dynamics`
    /// names capacity the cluster does not have.
    pub fn new(spec: ClusterSpec, cfg: SimConfig, sched: &dyn Scheduler) -> Self {
        let round = sched.round_duration();
        assert!(round > 0.0, "round duration must be positive");
        let sim = Simulator {
            spec: spec.clone(),
            trace: Vec::new(),
            cfg,
        };
        let cfg = &sim.cfg;
        let rec = open_recorder(
            cfg.trace_capacity,
            cfg.trace_spill.as_deref(),
            "trace",
            TraceEvent::Meta {
                gpu_types: spec
                    .gpu_types()
                    .map(|t| spec.kind(t).name.clone())
                    .collect(),
                round_duration: round,
            },
        );
        let audit = open_recorder(
            cfg.audit_capacity,
            cfg.audit_spill.as_deref(),
            "audit",
            AuditEvent::Meta {
                scheduler: sched.name().to_string(),
                round_duration: round,
                gap_tolerance: sched.gap_tolerance().unwrap_or(0.0),
            },
        );
        let mut driver = SimDriver::assemble(sim, ClusterView::new(spec), round, rec, audit);
        if let Some(script) = &driver.sim.cfg.dynamics {
            let rt = DynamicsRuntime::new(script, &driver.view)
                .expect("dynamics script rejected by cluster spec");
            // One kernel event per distinct op time, up to the last
            // boundary a batch run evaluates.
            let cutoff = driver.cutoff();
            let mut last = f64::NEG_INFINITY;
            for t in rt.op_times() {
                if t <= cutoff && t != last {
                    driver.kernel.schedule_at(t, Ev::Dynamics);
                    last = t;
                }
            }
            driver.dynamics = Some(rt);
        }
        driver
    }

    /// A driver at time 0 with no jobs and no pending events.
    fn assemble(
        sim: Simulator,
        view: ClusterView,
        round: f64,
        rec: FlightRecorder,
        audit: AuditRecorder,
    ) -> Self {
        let horizon = sim.cfg.max_hours * 3600.0;
        SimDriver {
            kernel: Kernel::new(sim.cfg.seed),
            rng: ChaCha8Rng::seed_from_u64(sim.cfg.seed),
            sim,
            jobs: Vec::new(),
            aux: Vec::new(),
            pending: VecDeque::new(),
            timer: None,
            dynamics: None,
            pending_changes: Vec::new(),
            rounds: Vec::new(),
            outs: Vec::new(),
            completed: Vec::new(),
            now: 0.0,
            makespan: 0.0,
            audit_round: 0,
            rec,
            audit,
            view,
            round,
            horizon,
            watch: RoundWatch::default(),
        }
    }

    /// Current virtual time, seconds: the boundary of the next round not
    /// yet run.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of admitted, unfinished jobs.
    pub fn active_count(&self) -> usize {
        self.jobs.iter().filter(|j| !j.finished()).count()
    }

    /// Number of submitted jobs not yet admitted at a round boundary.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// A clone of the round-loop observation hook, for health endpoints
    /// and stall watchdogs running on other threads.
    pub fn round_watch(&self) -> RoundWatch {
        self.watch.clone()
    }

    /// The capacity view the scheduler sees, for capacity-shaped gauges.
    pub fn cluster(&self) -> &ClusterView {
        &self.view
    }

    /// Ids of submitted jobs not yet admitted, in admission order.
    pub fn pending_ids(&self) -> Vec<JobId> {
        self.pending.iter().map(|s| s.id).collect()
    }

    /// Flight-recorder ring evictions so far (see
    /// [`sia_telemetry::Recorder::dropped`]).
    pub fn trace_dropped(&self) -> u64 {
        self.rec.dropped()
    }

    /// Audit-recorder ring evictions so far.
    pub fn audit_dropped(&self) -> u64 {
        self.audit.dropped()
    }

    /// Queues a job for admission at the first round boundary at or after
    /// its `submit_time` (and not before [`SimDriver::now`]). Submissions
    /// with equal times are admitted in submission order.
    pub fn submit(&mut self, spec: JobSpec) {
        let pos = self
            .pending
            .partition_point(|s| s.submit_time <= spec.submit_time);
        self.pending.insert(pos, spec);
        self.wake_for_pending();
    }

    /// Cancels a job. Pending jobs are silently dropped from the queue;
    /// active jobs are terminated at the current instant (their placement
    /// is released and a `cancelled` lifecycle record is emitted). Draws no
    /// RNG, so cancellations never perturb the noise stream of other jobs.
    pub fn cancel(&mut self, id: JobId) -> CancelOutcome {
        if let Some(pos) = self.pending.iter().position(|s| s.id == id) {
            self.pending.remove(pos);
            return CancelOutcome::Pending;
        }
        let Some(i) = self.jobs.iter().position(|j| j.spec.id == id) else {
            return CancelOutcome::NotFound;
        };
        let job = &mut self.jobs[i];
        if job.finished() {
            return CancelOutcome::Finished;
        }
        job.finish_time = Some(self.now);
        let held = !job.placement.is_empty();
        job.placement = Placement::empty();
        let gpu_seconds = job.gpu_seconds;
        let aux = &mut self.aux[i];
        for ev in [aux.completion.take(), aux.failure.take()]
            .into_iter()
            .flatten()
        {
            self.kernel.cancel(ev);
        }
        self.rec
            .record(self.now, TraceEvent::JobCancelled { job: id.0 });
        if held {
            self.rec.record(
                self.now,
                TraceEvent::AllocationChanged {
                    job: id.0,
                    gpu_type: None,
                    gpus: 0,
                    reason: AllocReason::Cancelled,
                    restart: false,
                },
            );
        }
        CancelOutcome::Active { gpu_seconds }
    }

    /// Emits one `admission` audit record at the current instant: the typed
    /// outcome of an admission-control decision made by a service layer in
    /// front of this driver (accepted, rejected-with-reason, or a
    /// cancellation refund with a negative charge). Pure recording — the
    /// driver itself admits everything passed to [`SimDriver::submit`].
    pub fn record_admission(
        &mut self,
        job: u64,
        tenant: &str,
        accepted: bool,
        reason: &str,
        charge_gpu_hours: f64,
    ) {
        self.audit.record(
            self.now,
            AuditEvent::Admission {
                job,
                tenant: tenant.to_string(),
                accepted,
                reason: reason.to_string(),
                charge_gpu_hours,
            },
        );
    }

    /// Status of a job by id, searching both the pending queue and the
    /// admitted set.
    pub fn job_status(&self, id: JobId) -> Option<JobStatus> {
        if let Some(spec) = self.pending.iter().find(|s| s.id == id) {
            return Some(JobStatus {
                id: spec.id,
                pending: true,
                finished: false,
                progress: 0.0,
                gpus: 0,
                restarts: 0,
                gpu_seconds: 0.0,
                finish_time: None,
            });
        }
        self.jobs
            .iter()
            .find(|j| j.spec.id == id)
            .map(|j| JobStatus {
                id: j.spec.id,
                pending: false,
                finished: j.finished(),
                progress: j.progress(),
                gpus: j.placement.total_gpus(),
                restarts: j.restarts,
                gpu_seconds: j.gpu_seconds,
                finish_time: j.finish_time,
            })
    }

    /// Advances virtual time to the first round boundary at or after `t`:
    /// runs every round due before it and applies every event ordered
    /// before that boundary's round, so a job finishing inside the last
    /// round run is reported completed by this call. The horizon is not
    /// enforced here — a daemon keeps serving past it; batch termination
    /// is [`SimDriver::run_to_idle`].
    pub fn step_until(&mut self, t: f64, sched: &mut dyn Scheduler) -> Vec<RoundOutcome> {
        if t > self.now {
            let until = self.boundary(t);
            self.fire_while(sched, |time, ev| {
                time < until || (time == until && !matches!(ev, Ev::RoundTimer))
            });
            self.now = self.now.max(until);
        }
        self.take_outcomes()
    }

    /// Runs until nothing is active or pending, or until the next round
    /// would start at or past the horizon. Jobs submitted by the first
    /// boundary at or past the horizon are still admitted there, as a
    /// batch run's last evaluated boundary always did.
    pub fn run_to_idle(&mut self, sched: &mut dyn Scheduler) -> Vec<RoundOutcome> {
        let horizon = self.horizon;
        self.fire_while(sched, |time, ev| {
            !(matches!(ev, Ev::RoundTimer) && time >= horizon)
        });
        if !self.kernel.is_empty() {
            self.now = self.now.max(self.cutoff());
            self.admit_due(self.now);
        }
        self.take_outcomes()
    }

    /// Finalizes the run into a [`SimResult`], consuming the driver. The
    /// scheduler is only consulted for its display name.
    pub fn finish(self, sched: &dyn Scheduler) -> SimResult {
        assemble_result(
            sched.name(),
            &self.jobs,
            self.rounds,
            self.makespan,
            self.rec.into_stream(),
            self.audit.into_stream(),
        )
    }

    /// The first round boundary at or after `t`.
    fn boundary(&self, t: f64) -> f64 {
        (t / self.round).ceil() * self.round
    }

    /// The first boundary at or past the horizon: the last one a batch run
    /// evaluates.
    fn cutoff(&self) -> f64 {
        self.boundary(self.horizon)
    }

    /// Arms the round timer at boundary `at`, unless it already fires at or
    /// before `at`.
    fn wake_at(&mut self, at: f64) {
        if self.timer.is_some_and(|(_, t)| t <= at) {
            return;
        }
        if let Some((id, _)) = self.timer.take() {
            self.kernel.cancel(id);
        }
        self.timer = Some((self.kernel.schedule_at(at, Ev::RoundTimer), at));
    }

    /// Makes sure a round runs by the boundary the earliest pending
    /// submission is due at.
    fn wake_for_pending(&mut self) {
        if let Some(s) = self.pending.front() {
            let t = s.submit_time.max(self.now).max(self.kernel.now());
            self.wake_at(self.boundary(t));
        }
    }

    /// Fires kernel events in order while `go` accepts the next one.
    fn fire_while(&mut self, sched: &mut dyn Scheduler, go: impl Fn(f64, &Ev) -> bool) {
        while self.kernel.peek().is_some_and(|(time, ev)| go(time, ev)) {
            let ev = self.kernel.pop().expect("peeked event");
            match ev.payload {
                Ev::Completion { job } => self.on_completion(job, ev.time),
                Ev::Failure { job } => self.on_failure(job, ev.time),
                // The restore instant itself carries no state change (the
                // slice accounting already paid for it).
                Ev::RestartDone { job } => self.rec.record(
                    ev.time,
                    TraceEvent::RestartFinished {
                        job: self.jobs[job].spec.id.0,
                    },
                ),
                Ev::Dynamics => {
                    if let Some(rt) = self.dynamics.as_mut() {
                        let changes = rt.poll(ev.time, &mut self.view);
                        record_capacity(&changes, &mut self.rec);
                        self.pending_changes.extend(changes);
                    }
                }
                Ev::RoundTimer => self.on_round_timer(ev.time, sched),
            }
        }
    }

    /// Admits every pending job submitted by `now`, in queue order,
    /// drawing their bootstrap profiles from the engine stream.
    fn admit_due(&mut self, now: f64) {
        while self.pending.front().is_some_and(|s| s.submit_time <= now) {
            let spec = self.pending.pop_front().expect("front checked");
            let state = self.sim.admit(&spec, &mut self.rng, &mut self.rec);
            self.jobs.push(state);
            self.aux.push(Aux::default());
        }
    }

    fn on_completion(&mut self, job: usize, now: f64) {
        self.aux[job].completion = None;
        if let Some(f) = self.aux[job].failure.take() {
            self.kernel.cancel(f);
        }
        let j = &mut self.jobs[job];
        j.finish_time = Some(now);
        j.placement = Placement::empty();
        self.makespan = self.makespan.max(now);
        self.rec
            .record(now, TraceEvent::JobCompleted { job: j.spec.id.0 });
        self.rec.record(
            now,
            TraceEvent::AllocationChanged {
                job: j.spec.id.0,
                gpu_type: None,
                gpus: 0,
                reason: AllocReason::Completed,
                restart: false,
            },
        );
        self.completed.push((job, now));
    }

    fn on_failure(&mut self, job: usize, now: f64) {
        self.aux[job].failure = None;
        // Failures past the horizon are never observed: a batch run's
        // rounds stop there.
        let j = &mut self.jobs[job];
        if now >= self.horizon || j.finished() || j.placement.is_empty() {
            return;
        }
        j.failures += 1;
        sia_telemetry::counter("engine.failures").incr();
        self.rec.record(
            now,
            TraceEvent::JobFailed {
                job: j.spec.id.0,
                count: 1,
            },
        );
        let gpus = j.placement.total_gpus();
        if let Some(c) = self.aux[job].completion.take() {
            // The failure pre-empts the scheduled finish: the job keeps its
            // GPUs through the end of the round instead of releasing them
            // at the completion instant.
            self.kernel.cancel(c);
            j.gpu_seconds += gpus as f64 * (self.round - self.aux[job].completion_consumed);
        }
        j.work_done = j.checkpointed_work;
        j.restart_remaining = (j.restart_remaining + j.truth.restart_delay).min(4.0 * self.round);
        // Re-arm the failure process for this placement.
        self.arm_failure(job);
        // A cancelled completion can leave a running job with no pending
        // round; revive the timer.
        self.wake_at(self.boundary(now));
    }

    /// (Re)starts the failure process of job `i`'s current placement, if
    /// injection is on and the job holds GPUs.
    fn arm_failure(&mut self, i: usize) {
        if let Some(f) = self.aux[i].failure.take() {
            self.kernel.cancel(f);
        }
        let gpus = self.jobs[i].placement.total_gpus();
        if self.sim.cfg.failure_rate_per_gpu_hour > 0.0 && gpus > 0 {
            let lambda = self.sim.cfg.failure_rate_per_gpu_hour * gpus as f64 / 3600.0;
            let gap = exp_sample(self.kernel.rng("failure"), lambda);
            if gap.is_finite() {
                self.aux[i].failure = Some(self.kernel.schedule_in(gap, Ev::Failure { job: i }));
            }
        }
    }

    /// Attaches the completions fired since the last round to that round's
    /// outcome, in the execute loop's (job index) order.
    fn flush_completions(&mut self) {
        let Some(o) = self.outs.last_mut() else {
            return;
        };
        self.completed.sort_unstable_by_key(|&(i, _)| i);
        let jobs = &self.jobs;
        o.completed
            .extend(self.completed.drain(..).map(|(i, t)| (jobs[i].spec.id, t)));
    }

    fn take_outcomes(&mut self) -> Vec<RoundOutcome> {
        self.flush_completions();
        std::mem::take(&mut self.outs)
    }

    /// The round body: admit, enforce capacity changes, schedule, apply,
    /// execute one round slice per placed job, and arm the next round.
    fn on_round_timer(&mut self, now: f64, sched: &mut dyn Scheduler) {
        let round = self.round;
        self.timer = None;
        self.flush_completions();
        self.admit_due(now);
        // Enforce capacity changes observed since the last boundary: evict
        // jobs whose nodes were removed (kills also roll back to the last
        // checkpoint) before the scheduler sees the round's job views.
        if !self.pending_changes.is_empty() {
            let evicted = evict_for_capacity(
                &self.pending_changes,
                &mut self.jobs,
                now,
                &mut self.rec,
                &mut self.audit,
                self.audit_round,
            );
            sia_telemetry::counter("engine.restarts").add(evicted);
            self.pending_changes.clear();
        }
        let active: Vec<usize> = (0..self.jobs.len())
            .filter(|&i| !self.jobs[i].finished())
            .collect();
        if active.is_empty() {
            // Dormant until the next submission is due.
            self.wake_for_pending();
            return;
        }
        self.watch.begin_round();

        // Ask the policy for placements. The timer deliberately also covers
        // the validate/apply loop, so `policy_runtime` reflects the full
        // per-round scheduling cost, not just the policy's `schedule` call.
        let round_t0 = Instant::now();
        let (alloc_map, solver_stats, decisions) = {
            let views: Vec<JobView<'_>> = active.iter().map(|&i| self.jobs[i].view(now)).collect();
            let map = {
                let _span = sia_telemetry::span("engine.schedule");
                sched.schedule(now, &views, &self.view)
            };
            (map, sched.round_stats(), sched.round_decisions())
        };
        let provenance: BTreeMap<JobId, DecisionInfo> =
            decisions.into_iter().map(|d| (d.job, d)).collect();
        record_audit_round(
            &mut self.audit,
            self.audit_round,
            now,
            active.len(),
            &solver_stats,
        );

        let contention = active.len();
        let applied = apply_allocations(
            &self.sim,
            &mut self.jobs,
            &active,
            &alloc_map,
            now,
            is_fallback(&solver_stats),
            &self.view,
            &mut self.rng,
            &mut self.rec,
            &mut self.audit,
            self.audit_round,
            &provenance,
        );
        if solver_stats.is_some() {
            self.audit_round += 1;
        }
        // The failure process is per-placement: restart it for every
        // changed job. Failures draw from their own stream, so doing this
        // after the apply loop leaves the engine stream's order intact.
        for &i in &applied.changed {
            self.arm_failure(i);
        }
        let policy_runtime = round_t0.elapsed().as_secs_f64();
        self.rec.record(
            now,
            TraceEvent::RoundScheduled {
                contention,
                policy_runtime,
            },
        );

        sia_telemetry::counter("engine.rounds").incr();
        sia_telemetry::counter("engine.restarts").add(applied.restarts);
        sia_telemetry::counter("engine.alloc_churn").add(applied.churn);
        sia_telemetry::gauge("engine.active_jobs").set(active.len() as f64);
        sia_telemetry::gauge("engine.queue_depth")
            .set((contention - applied.allocations.len()) as f64);

        let health = solver_stats.as_ref().map(|s| RoundHealth {
            time: now,
            active: active.len(),
            allocated: applied.allocations.len(),
            policy_runtime_s: policy_runtime,
            solve_s: s.solve_s,
            gap_rel: s.gap_rel(),
            nodes: s.nodes,
            nodes_pruned: s.nodes_pruned,
            warm_seeded: s.incumbent_seed.is_some(),
            fallback: is_fallback(&solver_stats),
            shards: s.shards,
            budget_exhausted: s.budget_exhausted,
            lagrangian_iters: s.lagrangian_iters,
            lagrangian_gap: s.lagrangian_gap,
        });
        let spec = self.view.spec();
        self.outs.push(RoundOutcome {
            time: now,
            completed: Vec::new(),
            changed: applied
                .changed
                .iter()
                .map(|&i| {
                    let p = &self.jobs[i].placement;
                    let alloc = (!p.is_empty()).then(|| (p.gpu_type(spec), p.total_gpus()));
                    (self.jobs[i].spec.id, alloc)
                })
                .collect(),
        });
        self.rounds.push(RoundLog {
            time: now,
            active_jobs: active.len(),
            contention,
            allocations: applied.allocations,
            policy_runtime,
            solver_stats,
        });

        // Execute one round slice per placed job. Jobs that finish within
        // the slice get an exact-time Completion event; their work is
        // committed eagerly so the executor report observes it.
        let execute_span = sia_telemetry::span("engine.execute");
        for &i in &active {
            let job = &mut self.jobs[i];
            if job.placement.is_empty() {
                continue;
            }
            let gpus = job.placement.total_gpus();
            let paid_restart = job.restart_remaining.min(round);
            job.restart_remaining -= paid_restart;
            let usable = round - paid_restart;
            let mut consumed = round; // GPU time held this round

            if usable > 0.0 {
                if let Some((goodput, point, gpu_type)) = self.sim.true_goodput(job, &self.view) {
                    let jittered =
                        goodput * (1.0 + self.sim.cfg.execution_noise * symmetric(&mut self.rng));
                    let jittered = jittered.max(0.0);
                    let needed = job.spec.work_target - job.work_done;
                    if jittered > 0.0 && needed <= jittered * usable {
                        let dt = needed / jittered;
                        consumed = paid_restart + dt;
                        job.work_done = job.spec.work_target;
                        self.aux[i].completion_consumed = consumed;
                        self.aux[i].completion = Some(
                            self.kernel
                                .schedule_at(now + paid_restart + dt, Ev::Completion { job: i }),
                        );
                    } else {
                        job.work_done += jittered * usable;
                        job.advance_checkpoint();
                    }
                    // Executor report (throttled to one per round).
                    self.sim
                        .executor_report(job, gpus, gpu_type, &point, &mut self.rng);
                }
            }
            if paid_restart > 0.0 && usable > 0.0 {
                self.kernel
                    .schedule_at(now + paid_restart, Ev::RestartDone { job: i });
            }
            job.gpu_seconds += gpus as f64 * consumed;
        }
        drop(execute_span);

        // Next round, if anything will still be runnable: jobs with a
        // pending completion finish before the next boundary and don't
        // count. Otherwise the timer waits for the next submission.
        if active
            .iter()
            .any(|&i| !self.jobs[i].finished() && self.aux[i].completion.is_none())
        {
            if now + round >= self.horizon {
                // The horizon ends the batch run here: no later round
                // observes a failure, so drop the pending ones.
                for a in &mut self.aux {
                    if let Some(f) = a.failure.take() {
                        self.kernel.cancel(f);
                    }
                }
            }
            self.wake_at(now + round);
        }
        self.wake_for_pending();
        self.now = self.now.max(now + round);
        self.watch.end_round(health);
    }

    /// Re-attaches a flight-recorder spill file (snapshots never carry open
    /// file handles; a restored daemon opts back in here).
    pub fn attach_trace_spill(&mut self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        self.rec.attach_spill(path)
    }

    /// Re-attaches an audit-recorder spill file, same contract as
    /// [`SimDriver::attach_trace_spill`].
    pub fn attach_audit_spill(&mut self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        self.audit.attach_spill(path)
    }

    /// Serializes the complete driver state — engine stream, capacity
    /// view, per-job truth-independent state (estimators included),
    /// pending queue, both recorder rings and the scheduler's durable
    /// state — into one JSON value. [`SimDriver::restore`] rebuilds a
    /// driver that emits exactly the records and RNG draws the original
    /// would have emitted next.
    ///
    /// The per-round log ([`SimResult::rounds`]) is deliberately not
    /// captured: it is reporting output, not evolution state, and a
    /// restored daemon's result only carries post-restore rounds.
    pub fn snapshot(&self, sched: &dyn Scheduler) -> Result<Value, SnapshotRefusal> {
        if self.sim.cfg.failure_rate_per_gpu_hour > 0.0 {
            return Err(SnapshotRefusal::FailureInjection);
        }
        if self.sim.cfg.dynamics.is_some() {
            return Err(SnapshotRefusal::Dynamics);
        }
        let (key, counter, buf, idx) = self.rng.export_state();
        Ok(json!({
            "version": SNAPSHOT_STATE_VERSION,
            "now": self.now,
            "makespan": self.makespan,
            "audit_round": bits(self.audit_round),
            "round_duration": self.round,
            "spec": self.sim.spec.to_json(),
            "config": config_to_json(&self.sim.cfg),
            "rng": json!({
                "key": key.to_vec(),
                "counter": bits(counter),
                "buf": buf.iter().map(|&w| bits(w)).collect::<Vec<Value>>(),
                "idx": idx,
            }),
            "cluster": self.view.to_json(),
            "jobs": self.jobs.iter().map(job_to_json).collect::<Vec<Value>>(),
            "pending": self.pending.iter().map(ToJson::to_json).collect::<Vec<Value>>(),
            "trace_recorder": self.rec.export_state(),
            "audit_recorder": self.audit.export_state(),
            "scheduler": sched.export_state().unwrap_or(Value::Null),
        }))
    }

    /// Rebuilds a driver from a [`SimDriver::snapshot`] payload, feeding
    /// the captured policy state into `sched` via
    /// [`Scheduler::import_state`]. Spill files are not re-attached (see
    /// [`SimDriver::attach_trace_spill`]). Fails on a version mismatch, a
    /// malformed payload, a payload with failure injection on, or a
    /// scheduler whose round duration disagrees with the snapshot.
    pub fn restore(payload: &Value, sched: &mut dyn Scheduler) -> Result<Self, String> {
        let version = payload
            .get("version")
            .and_then(Value::as_u64)
            .ok_or("snapshot: missing version")?;
        if version != SNAPSHOT_STATE_VERSION {
            return Err(format!(
                "snapshot: state version {version} unsupported (expected {SNAPSHOT_STATE_VERSION})"
            ));
        }
        let round = req_f64(payload, "round_duration")?;
        if round != sched.round_duration() {
            return Err(format!(
                "snapshot: round duration {round}s does not match the scheduler's {}s",
                sched.round_duration()
            ));
        }
        let spec = ClusterSpec::from_json(payload.get("spec").ok_or("snapshot: missing spec")?)
            .map_err(|e| format!("snapshot: bad spec: {e}"))?;
        let cfg = config_from_json(payload.get("config").ok_or("snapshot: missing config")?)?;
        if cfg.failure_rate_per_gpu_hour > 0.0 {
            return Err(format!("snapshot: {}", SnapshotRefusal::FailureInjection));
        }
        let view =
            ClusterView::from_json(payload.get("cluster").ok_or("snapshot: missing cluster")?)
                .map_err(|e| format!("snapshot: bad cluster view: {e}"))?;
        let rng = rng_from_json(payload.get("rng").ok_or("snapshot: missing rng")?)?;
        let jobs = payload
            .get("jobs")
            .and_then(Value::as_array)
            .ok_or("snapshot: missing jobs")?
            .iter()
            .map(|v| job_from_json(v, &spec))
            .collect::<Result<Vec<JobState>, String>>()?;
        let pending = payload
            .get("pending")
            .and_then(Value::as_array)
            .ok_or("snapshot: missing pending")?
            .iter()
            .map(|v| JobSpec::from_json(v).map_err(|e| format!("snapshot: bad pending job: {e}")))
            .collect::<Result<VecDeque<JobSpec>, String>>()?;
        let rec = recorder_from_json(payload, "trace")?;
        let audit = recorder_from_json(payload, "audit")?;
        if let Some(state) = payload.get("scheduler") {
            if !state.is_null() {
                sched.import_state(state);
            }
        }
        let sim = Simulator {
            spec,
            trace: Vec::new(),
            cfg,
        };
        let mut driver = SimDriver::assemble(sim, view, round, rec, audit);
        driver.rng = rng;
        driver.aux = jobs.iter().map(|_| Aux::default()).collect();
        driver.jobs = jobs;
        driver.pending = pending;
        driver.now = req_f64(payload, "now")?;
        driver.makespan = req_f64(payload, "makespan")?;
        driver.audit_round = req_bits(payload, "audit_round")?;
        // Re-arm the round timer where the original had it: at `now` while
        // any admitted job is unfinished (every completion before `now` has
        // fired), else for the earliest pending submission.
        if driver.active_count() > 0 {
            driver.wake_at(driver.now);
        }
        driver.wake_for_pending();
        Ok(driver)
    }
}

/// Encodes a full-range `u64` as its `i64` bit pattern (the compat JSON
/// integer is `i64`; RNG words exceed its positive range about half the
/// time).
fn bits(v: u64) -> Value {
    Value::Int(v as i64)
}

/// Decodes a [`bits`]-encoded integer.
fn unbits(v: &Value) -> Option<u64> {
    v.as_i64().map(|i| i as u64)
}

fn req_f64(v: &Value, name: &str) -> Result<f64, String> {
    v.get(name)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("snapshot: missing {name}"))
}

fn req_bits(v: &Value, name: &str) -> Result<u64, String> {
    v.get(name)
        .and_then(unbits)
        .ok_or_else(|| format!("snapshot: missing {name}"))
}

fn opt_f64(v: Option<f64>) -> Value {
    v.map(Value::Float).unwrap_or(Value::Null)
}

fn config_to_json(cfg: &SimConfig) -> Value {
    json!({
        "profiling_mode": cfg.profiling_mode.to_json(),
        "seed": bits(cfg.seed),
        "measurement_noise": cfg.measurement_noise,
        "execution_noise": cfg.execution_noise,
        "restart_jitter": cfg.restart_jitter,
        "max_hours": cfg.max_hours,
        "profiling_gpu_seconds": cfg.profiling_gpu_seconds,
        "failure_rate_per_gpu_hour": cfg.failure_rate_per_gpu_hour,
        "trace_capacity": cfg.trace_capacity,
        "audit_capacity": cfg.audit_capacity,
    })
}

fn config_from_json(v: &Value) -> Result<SimConfig, String> {
    let profiling_mode = ProfilingMode::from_json(
        v.get("profiling_mode")
            .ok_or("snapshot: missing profiling_mode")?,
    )
    .map_err(|e| format!("snapshot: bad profiling_mode: {e}"))?;
    let cap = |name: &str| -> Result<usize, String> {
        let raw = v
            .get(name)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("snapshot: missing {name}"))?;
        usize::try_from(raw).map_err(|_| format!("snapshot: {name} out of range"))
    };
    Ok(SimConfig {
        profiling_mode,
        seed: req_bits(v, "seed")?,
        measurement_noise: req_f64(v, "measurement_noise")?,
        execution_noise: req_f64(v, "execution_noise")?,
        restart_jitter: req_f64(v, "restart_jitter")?,
        max_hours: req_f64(v, "max_hours")?,
        profiling_gpu_seconds: req_f64(v, "profiling_gpu_seconds")?,
        failure_rate_per_gpu_hour: req_f64(v, "failure_rate_per_gpu_hour")?,
        trace_capacity: cap("trace_capacity")?,
        trace_spill: None,
        audit_capacity: cap("audit_capacity")?,
        audit_spill: None,
        dynamics: None,
    })
}

/// Restores the `what` recorder (`trace` or `audit`) from the payload's
/// `{what}_recorder` field.
fn recorder_from_json<E: Canonical>(payload: &Value, what: &str) -> Result<Recorder<E>, String> {
    let state = payload
        .get(&format!("{what}_recorder"))
        .ok_or_else(|| format!("snapshot: missing {what} recorder"))?;
    Recorder::from_state(state).map_err(|e| format!("snapshot: bad {what} recorder: {e}"))
}

fn rng_from_json(v: &Value) -> Result<ChaCha8Rng, String> {
    let key_raw = v
        .get("key")
        .and_then(Value::as_array)
        .ok_or("snapshot: missing rng key")?;
    if key_raw.len() != 8 {
        return Err("snapshot: rng key must have 8 words".into());
    }
    let mut key = [0u32; 8];
    for (slot, w) in key.iter_mut().zip(key_raw) {
        let raw = w.as_u64().ok_or("snapshot: bad rng key word")?;
        *slot = u32::try_from(raw).map_err(|_| "snapshot: rng key word out of range")?;
    }
    let counter = v
        .get("counter")
        .and_then(unbits)
        .ok_or("snapshot: missing rng counter")?;
    let buf_raw = v
        .get("buf")
        .and_then(Value::as_array)
        .ok_or("snapshot: missing rng buf")?;
    if buf_raw.len() != 8 {
        return Err("snapshot: rng buf must have 8 words".into());
    }
    let mut buf = [0u64; 8];
    for (slot, w) in buf.iter_mut().zip(buf_raw) {
        *slot = unbits(w).ok_or("snapshot: bad rng buf word")?;
    }
    let idx = v
        .get("idx")
        .and_then(Value::as_u64)
        .ok_or("snapshot: missing rng idx")?;
    let idx = usize::try_from(idx).map_err(|_| "snapshot: rng idx out of range")?;
    if idx > 8 {
        return Err("snapshot: rng idx out of range".into());
    }
    Ok(ChaCha8Rng::from_state(key, counter, buf, idx))
}

fn job_to_json(j: &JobState) -> Value {
    json!({
        "spec": j.spec.to_json(),
        "estimator": j.estimator.to_json(),
        "placement": j.placement.slots.clone(),
        "restart_remaining": j.restart_remaining,
        "work_done": j.work_done,
        "checkpointed_work": j.checkpointed_work,
        "restarts": j.restarts,
        "failures": j.failures,
        "first_start": opt_f64(j.first_start),
        "finish_time": opt_f64(j.finish_time),
        "gpu_seconds": j.gpu_seconds,
        "contention_sum": j.contention_sum,
        "contention_rounds": bits(j.contention_rounds),
    })
}

fn job_from_json(v: &Value, cluster: &ClusterSpec) -> Result<JobState, String> {
    let spec = JobSpec::from_json(v.get("spec").ok_or("snapshot: job missing spec")?)
        .map_err(|e| format!("snapshot: bad job spec: {e}"))?;
    let estimator = JobEstimator::from_json(
        v.get("estimator")
            .ok_or("snapshot: job missing estimator")?,
    )
    .map_err(|e| format!("snapshot: bad estimator: {e}"))?;
    let slots = v
        .get("placement")
        .and_then(Value::as_array)
        .ok_or("snapshot: job missing placement")?
        .iter()
        .map(|s| {
            let pair = s.as_array().filter(|a| a.len() == 2);
            let node = pair.and_then(|a| a[0].as_u64());
            let gpus = pair.and_then(|a| a[1].as_u64());
            match (node, gpus) {
                (Some(n), Some(g)) => Ok((n as usize, g as usize)),
                _ => Err("snapshot: bad placement slot".to_string()),
            }
        })
        .collect::<Result<Vec<(usize, usize)>, String>>()?;
    let count_u32 = |name: &str| -> Result<u32, String> {
        let raw = v
            .get(name)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("snapshot: job missing {name}"))?;
        u32::try_from(raw).map_err(|_| format!("snapshot: job {name} out of range"))
    };
    // The hidden true model is a pure function of the spec and the cluster;
    // re-deriving it keeps truths out of the on-disk payload entirely.
    let truth = spec.model.profile().true_model(cluster);
    Ok(JobState {
        truth,
        estimator,
        placement: Placement::new(slots),
        restart_remaining: req_f64(v, "restart_remaining")?,
        work_done: req_f64(v, "work_done")?,
        checkpointed_work: req_f64(v, "checkpointed_work")?,
        restarts: count_u32("restarts")?,
        failures: count_u32("failures")?,
        first_start: v.get("first_start").and_then(Value::as_f64),
        finish_time: v.get("finish_time").and_then(Value::as_f64),
        gpu_seconds: req_f64(v, "gpu_seconds")?,
        contention_sum: req_f64(v, "contention_sum")?,
        contention_rounds: req_bits(v, "contention_rounds")?,
        spec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{tiny_trace, OneGpuEach};
    use sia_workloads::Trace;

    fn new_driver(cfg: &SimConfig) -> SimDriver {
        SimDriver::new(ClusterSpec::heterogeneous_64(), cfg.clone(), &OneGpuEach)
    }

    fn batch_run(trace: &Trace, cfg: &SimConfig) -> SimResult {
        Simulator::new(ClusterSpec::heterogeneous_64(), trace, cfg.clone()).run(&mut OneGpuEach)
    }

    #[test]
    fn snapshot_restore_is_bit_identical() {
        // Full physical noise profile: the widest RNG surface the snapshot
        // must capture. Snapshot mid-run — with jobs still pending — then
        // resume through a JSON string round trip and compare against the
        // uninterrupted run.
        let trace = tiny_trace(8);
        let cfg = SimConfig::physical(11);
        let uninterrupted = batch_run(&trace, &cfg);

        for cut in [60.0, 420.0, 1380.0] {
            let mut sched = OneGpuEach;
            let mut drv = new_driver(&cfg);
            for j in &trace.jobs {
                drv.submit(j.clone());
            }
            drv.step_until(cut, &mut sched);
            let payload = serde_json::to_string(&drv.snapshot(&sched).unwrap()).unwrap();
            drop(drv);

            let parsed: Value = serde_json::from_str(&payload).unwrap();
            let mut sched2 = OneGpuEach;
            let mut resumed = SimDriver::restore(&parsed, &mut sched2).unwrap();
            resumed.run_to_idle(&mut sched2);
            let result = resumed.finish(&sched2);
            assert_eq!(
                result.trace.canonical_jsonl(),
                uninterrupted.trace.canonical_jsonl(),
                "restore at t={cut} diverged"
            );
            assert_eq!(
                result.audit.canonical_jsonl(),
                uninterrupted.audit.canonical_jsonl(),
                "audit restore at t={cut} diverged"
            );
            assert_eq!(result.makespan, uninterrupted.makespan);
        }
    }

    #[test]
    fn snapshot_refuses_state_it_cannot_capture() {
        let failing = SimConfig {
            failure_rate_per_gpu_hour: 0.5,
            ..SimConfig::default()
        };
        let err = new_driver(&failing).snapshot(&OneGpuEach).unwrap_err();
        assert_eq!(err, SnapshotRefusal::FailureInjection);
        let scripted = SimConfig {
            dynamics: Some(sia_dynamics::DynamicsScript::new()),
            ..SimConfig::default()
        };
        let err = new_driver(&scripted).snapshot(&OneGpuEach).unwrap_err();
        assert_eq!(err, SnapshotRefusal::Dynamics);

        // A payload that carries failure injection is refused on restore
        // too, rather than resumed without its failure process.
        let mut payload = new_driver(&SimConfig::default())
            .snapshot(&OneGpuEach)
            .unwrap();
        if let Some(Value::Object(cfg)) = payload.as_object_mut().unwrap().get_mut("config") {
            cfg.insert("failure_rate_per_gpu_hour".into(), Value::Float(0.5));
        }
        let err = SimDriver::restore(&payload, &mut OneGpuEach)
            .map(|_| ())
            .unwrap_err();
        assert!(err.contains("failure injection"), "got: {err}");
    }

    #[test]
    fn restore_rejects_bad_payloads() {
        let mut sched = OneGpuEach;
        let err = SimDriver::restore(&json!({"version": 99}), &mut sched)
            .map(|_| ())
            .unwrap_err();
        assert!(err.contains("version"), "got: {err}");
        let err = SimDriver::restore(&json!({}), &mut sched)
            .map(|_| ())
            .unwrap_err();
        assert!(err.contains("version"), "got: {err}");
    }

    #[test]
    fn cancel_pending_and_active_jobs() {
        let trace = tiny_trace(4);
        let mut sched = OneGpuEach;
        let mut drv = new_driver(&SimConfig::default());
        for j in &trace.jobs {
            let mut j = j.clone();
            j.submit_time = 0.0;
            drv.submit(j);
        }
        let victim = trace.jobs[1].id;
        let queued = trace.jobs[3].id;
        // Cancel one job before admission, one after it is running.
        assert_eq!(drv.cancel(queued), CancelOutcome::Pending);
        assert_eq!(drv.cancel(queued), CancelOutcome::NotFound);
        drv.step_until(120.0, &mut sched);
        match drv.cancel(victim) {
            CancelOutcome::Active { gpu_seconds } => assert!(gpu_seconds > 0.0),
            other => panic!("expected active cancel, got {other:?}"),
        }
        assert_eq!(drv.cancel(victim), CancelOutcome::Finished);
        drv.run_to_idle(&mut sched);
        let result = drv.finish(&sched);
        assert_eq!(
            result.records.len(),
            3,
            "cancelled-pending job never admitted"
        );
        let victim_rec = result.records.iter().find(|r| r.id == victim).unwrap();
        assert!(victim_rec.finish_time.is_some());
        assert!(victim_rec.work_done < victim_rec.work_target);
        let report = result.trace.report();
        let stats = report.jobs.iter().find(|j| j.job == victim.0).unwrap();
        assert!(stats.cancelled.is_some());
        assert!(stats.completed.is_none());
        // Everyone else still completes.
        for r in result.records.iter().filter(|r| r.id != victim) {
            assert!(
                r.work_done >= r.work_target * 0.999,
                "job {} unfinished",
                r.id
            );
        }
    }

    #[test]
    fn idle_stepping_does_not_perturb_parity() {
        // A daemon stepping through empty boundaries before the first
        // arrival must produce the same canonical trace as a batch run.
        let mut trace = tiny_trace(3);
        for j in &mut trace.jobs {
            j.submit_time += 600.0; // ten idle rounds up front
        }
        let cfg = SimConfig::default();
        let batch = batch_run(&trace, &cfg);
        let mut sched = OneGpuEach;
        let mut drv = new_driver(&cfg);
        // Step a while with nothing submitted at all, then inject.
        drv.step_until(300.0, &mut sched);
        for j in &trace.jobs {
            drv.submit(j.clone());
        }
        drv.run_to_idle(&mut sched);
        assert_eq!(drv.round_watch().rounds(), batch.rounds.len() as u64);
        let driven = drv.finish(&sched);
        assert_eq!(
            driven.trace.canonical_jsonl(),
            batch.trace.canonical_jsonl()
        );
    }

    #[test]
    fn step_until_lands_on_the_first_boundary_at_or_after_t() {
        let mut trace = tiny_trace(1);
        trace.jobs[0].submit_time = 100.0;
        let mut sched = OneGpuEach;
        let mut drv = new_driver(&SimConfig::default());
        drv.submit(trace.jobs[0].clone());
        let id = trace.jobs[0].id;
        // Due at 100 s: still pending at the 120 s boundary until its round
        // runs, which only happens once time moves past 120 s.
        assert!(drv.step_until(100.0, &mut sched).is_empty());
        assert_eq!(drv.now(), 120.0);
        assert!(drv.job_status(id).unwrap().pending);
        assert!(drv.step_until(120.0, &mut sched).is_empty());
        let outs = drv.step_until(121.0, &mut sched);
        assert_eq!(drv.now(), 180.0);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].time, 120.0);
        assert_eq!(outs[0].changed.len(), 1);
        assert_eq!(outs[0].changed[0].0, id);
        assert!(!drv.job_status(id).unwrap().pending);
        // A completion inside the last round run is reported by the call
        // that ran that round.
        let mut completed = Vec::new();
        while completed.is_empty() {
            let t = drv.now() + 1.0;
            let outs = drv.step_until(t, &mut sched);
            let last = outs.last().expect("the job keeps a round running");
            completed.extend(outs.iter().flat_map(|o| o.completed.clone()));
            if let Some(&(_, finish)) = completed.first() {
                assert!(last.time < finish && finish <= drv.now());
            }
        }
        assert_eq!(completed[0].0, id);
        assert!(drv.job_status(id).unwrap().finished);
        assert_eq!((drv.active_count(), drv.pending_count()), (0, 0));
    }

    #[test]
    fn step_until_applies_events_due_at_the_boundary_it_lands_on() {
        // A capacity change exactly on that boundary is ordered before the
        // boundary's round, so it is in effect when the call returns.
        let script = sia_dynamics::DynamicsScript::new().at(
            1500.0,
            sia_dynamics::CapacityEvent::Remove {
                gpu_type: "a100".to_string(),
                num_nodes: 2,
            },
        );
        let mut drv = new_driver(&SimConfig {
            dynamics: Some(script),
            ..SimConfig::default()
        });
        let a100 = drv.cluster().gpu_type_by_name("a100").unwrap();
        drv.step_until(1450.0, &mut OneGpuEach);
        assert_eq!(drv.now(), 1500.0);
        assert_eq!(drv.cluster().gpus_of_type(a100), 0);
    }

    #[test]
    fn daemon_steps_past_the_horizon_but_run_to_idle_stops_there() {
        // Two jobs from the start, one submitted between the last round
        // before the 1800 s horizon and the boundary at it, one after.
        let mut trace = tiny_trace(4);
        for (j, t) in trace.jobs.iter_mut().zip([0.0, 0.0, 1790.0, 1810.0]) {
            j.submit_time = t;
            j.work_target *= 1e6; // never finishes
        }
        let cfg = SimConfig {
            max_hours: 0.5,
            ..SimConfig::default()
        };
        let mut sched = OneGpuEach;
        let mut batch = new_driver(&cfg);
        let mut daemon = new_driver(&cfg);
        for j in &trace.jobs {
            batch.submit(j.clone());
            daemon.submit(j.clone());
        }
        batch.run_to_idle(&mut sched);
        assert_eq!(batch.now(), 1800.0);
        assert_eq!(batch.round_watch().rounds(), 30);
        // Admitted at the last boundary a batch run evaluates, never run.
        assert_eq!(batch.active_count(), 3);
        assert_eq!(batch.pending_ids(), vec![trace.jobs[3].id]);

        daemon.step_until(3600.0, &mut sched);
        assert_eq!(daemon.now(), 3600.0);
        assert_eq!(daemon.round_watch().rounds(), 60);
        assert_eq!(daemon.active_count(), 4);
        daemon.run_to_idle(&mut sched);
        assert_eq!(
            daemon.now(),
            3600.0,
            "run_to_idle past the horizon is a no-op"
        );
        assert_eq!(daemon.round_watch().rounds(), 60);
    }

    #[test]
    fn completions_are_reported_in_execution_order() {
        // Completion events fire in time order, but a round's outcome lists
        // them in the order the round executed the jobs (admission order),
        // which is the order the daemon reports them in.
        let mut trace = tiny_trace(10);
        for j in &mut trace.jobs {
            j.submit_time = 0.0;
        }
        let mut sched = OneGpuEach;
        let mut drv = new_driver(&SimConfig::default());
        for j in &trace.jobs {
            drv.submit(j.clone());
        }
        let outs = drv.run_to_idle(&mut sched);
        let position = |id: JobId| trace.jobs.iter().position(|j| j.id == id).unwrap();
        let mut out_of_time_order = false;
        for o in &outs {
            let order: Vec<usize> = o.completed.iter().map(|&(id, _)| position(id)).collect();
            assert!(order.windows(2).all(|w| w[0] < w[1]), "{order:?}");
            out_of_time_order |= o.completed.windows(2).any(|w| w[0].1 > w[1].1);
        }
        assert!(
            out_of_time_order,
            "no round completed jobs out of time order"
        );
        assert_eq!(
            outs.iter().map(|o| o.completed.len()).sum::<usize>(),
            trace.jobs.len()
        );
    }
}
