//! The daemon core: command dispatch, admission pipeline, event emission,
//! snapshot assembly, and the stdin/socket serving loops.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use serde_json::{json, Value};
use sia_cluster::{ClusterSpec, JobId};
use sia_sim::{
    CancelOutcome, RoundOutcome, Scheduler, SimConfig, SimDriver, SimResult, SnapshotRefusal,
};

use crate::observe::{self, Observe};
use crate::protocol::{parse_request, Command, RequestLine, RequestLines};
use crate::quota::{AdmissionContext, AdmissionStage, QuotaLedger, QuotaStage, SchemaStage};
use crate::snapshot::write_snapshot;

/// How the daemon advances virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// As fast as possible: each request's `at` timestamp drives the
    /// clock; all rounds due strictly before it run before the command.
    Replay,
    /// Virtual time tracks the wall clock scaled by `speed` (e.g. 60.0 =
    /// one virtual minute per wall second); request `at` fields are
    /// ignored and commands take effect at the current virtual instant.
    Wallclock {
        /// Virtual seconds per wall-clock second.
        speed: f64,
    },
}

/// Admission-control settings for a new [`Server`].
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// GPU-hour quota for tenants without an explicit entry (`None` =
    /// unlimited).
    pub default_quota: Option<f64>,
    /// Per-tenant quota overrides.
    pub quotas: Vec<(String, f64)>,
    /// Upper bound on submissions waiting for admission (`None` = no
    /// bound).
    pub max_pending: Option<usize>,
    /// Stall watchdog: a scheduling round running longer than this many
    /// wall seconds marks the daemon not-ready on `/healthz` (`None`
    /// disarms the watchdog).
    pub round_deadline_s: Option<f64>,
    /// Heartbeat interval (`None` = no heartbeats). Replay pacing reads
    /// it as virtual seconds, wallclock pacing as wall seconds.
    pub heartbeat_s: Option<f64>,
}

/// Origin bookkeeping for one admitted job.
#[derive(Debug, Clone)]
struct JobMeta {
    tenant: String,
    charge: f64,
    request: String,
}

/// Server-local request counters (deterministic, snapshot-carried — the
/// global telemetry registry mirrors them but survives across servers in
/// one process).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Stats {
    submitted: u64,
    admitted: u64,
    rejected: u64,
    cancelled: u64,
}

/// The scheduling daemon: a [`SimDriver`] plus admission control, quota
/// accounting, request-id bookkeeping and snapshot assembly. Transport
/// (stdin, socket) lives in [`serve_replay`] / [`serve_wallclock`]; the
/// core is synchronous and in-process testable via [`Server::handle`].
pub struct Server {
    driver: SimDriver,
    sched: Box<dyn Scheduler>,
    ledger: QuotaLedger,
    stages: Vec<Box<dyn AdmissionStage>>,
    meta: BTreeMap<u64, JobMeta>,
    stats: Stats,
    done: bool,
    observe: Arc<Observe>,
    hb_every: Option<f64>,
    next_hb_virtual: f64,
    last_hb_wall: Instant,
}

impl Server {
    /// Creates a daemon over a fresh driver with the default admission
    /// pipeline (schema, then quota/queue control per `opts`).
    pub fn new(
        spec: ClusterSpec,
        cfg: SimConfig,
        sched: Box<dyn Scheduler>,
        opts: &ServeOptions,
    ) -> Self {
        let driver = SimDriver::new(spec, cfg, sched.as_ref());
        let mut ledger = QuotaLedger::new(opts.default_quota);
        for (tenant, quota) in &opts.quotas {
            ledger.set_quota(tenant.clone(), *quota);
        }
        let observe = Arc::new(Observe::new(
            driver.round_watch(),
            opts.round_deadline_s,
            false,
        ));
        observe::set_cluster_gauges(driver.cluster());
        Server {
            driver,
            sched,
            ledger,
            stages: vec![
                Box::new(SchemaStage),
                Box::new(QuotaStage {
                    max_pending: opts.max_pending,
                }),
            ],
            meta: BTreeMap::new(),
            stats: Stats::default(),
            done: false,
            observe,
            hb_every: opts.heartbeat_s,
            next_hb_virtual: 0.0,
            last_hb_wall: Instant::now(),
        }
    }

    /// Rebuilds a daemon from a snapshot payload (the JSON document inside
    /// the container written by the `snapshot` command), feeding the
    /// captured policy state into `sched`. `opts` supplies the runtime
    /// `max_pending` bound; the quota ledger (balances included) comes
    /// from the snapshot.
    pub fn restore(
        payload: &Value,
        mut sched: Box<dyn Scheduler>,
        opts: &ServeOptions,
    ) -> Result<Self, String> {
        let driver = SimDriver::restore(
            payload.get("driver").ok_or("snapshot: missing driver")?,
            sched.as_mut(),
        )?;
        let serve = payload
            .get("serve")
            .ok_or("snapshot: missing serve state")?;
        let ledger =
            QuotaLedger::from_json(serve.get("ledger").ok_or("snapshot: missing ledger")?)?;
        let mut meta = BTreeMap::new();
        for (k, m) in serve
            .get("jobs")
            .and_then(Value::as_object)
            .ok_or("snapshot: missing job metadata")?
        {
            let job: u64 = k.parse().map_err(|_| "snapshot: bad job id key")?;
            let get_str = |name: &str| -> Result<String, String> {
                m.get(name)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("snapshot: job {job} missing {name}"))
            };
            meta.insert(
                job,
                JobMeta {
                    tenant: get_str("tenant")?,
                    charge: m
                        .get("charge_gpu_hours")
                        .and_then(Value::as_f64)
                        .ok_or("snapshot: job missing charge")?,
                    request: get_str("request")?,
                },
            );
        }
        let stat = |name: &str| -> u64 {
            serve
                .get("stats")
                .and_then(|s| s.get(name))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        };
        let observe = Arc::new(Observe::new(
            driver.round_watch(),
            opts.round_deadline_s,
            true,
        ));
        observe::set_cluster_gauges(driver.cluster());
        let driver_now = driver.now();
        Ok(Server {
            driver,
            sched,
            ledger,
            stages: vec![
                Box::new(SchemaStage),
                Box::new(QuotaStage {
                    max_pending: opts.max_pending,
                }),
            ],
            meta,
            stats: Stats {
                submitted: stat("submitted"),
                admitted: stat("admitted"),
                rejected: stat("rejected"),
                cancelled: stat("cancelled"),
            },
            done: false,
            observe,
            hb_every: opts.heartbeat_s,
            next_hb_virtual: driver_now,
            last_hb_wall: Instant::now(),
        })
    }

    /// Current virtual time, seconds.
    pub fn now(&self) -> f64 {
        self.driver.now()
    }

    /// The shared observability handle (metrics rendering, health
    /// verdicts) a stats listener thread serves from.
    pub fn observe(&self) -> Arc<Observe> {
        Arc::clone(&self.observe)
    }

    /// Flight/audit ring evictions so far, `(trace, audit)` — nonzero
    /// means in-memory history is partial (spill files keep fidelity).
    pub fn ring_drops(&self) -> (u64, u64) {
        (self.driver.trace_dropped(), self.driver.audit_dropped())
    }

    /// Pushes the O(1) server-owned gauges (virtual time, queue depths,
    /// ring drops) into the exposition registry, so a scrape arriving on
    /// the listener thread reads values at most one request old. Runs on
    /// every request, so it must stay constant-time — the per-tenant
    /// gauges are maintained incrementally (`observe::bump_tenant_state`
    /// on admit/cancel) and recomputed in full only at round boundaries
    /// and `metrics` requests ([`Server::push_tenant_gauges`]).
    fn push_gauges(&self) {
        observe::set_server_gauges(
            self.driver.now(),
            self.driver.active_count(),
            self.driver.pending_count(),
            self.driver.trace_dropped(),
            self.driver.audit_dropped(),
        );
    }

    /// Recomputes every per-tenant gauge from the ledger and the pending
    /// queue. O(tenants + pending) — called after scheduling rounds
    /// execute and on `metrics` requests, never on the per-submit path.
    fn push_tenant_gauges(&self) {
        let mut pending_by_tenant: BTreeMap<String, u64> = BTreeMap::new();
        for id in self.driver.pending_ids() {
            let tenant = self
                .meta
                .get(&id.0)
                .map(|m| m.tenant.clone())
                .unwrap_or_else(|| "default".to_string());
            *pending_by_tenant.entry(tenant).or_insert(0) += 1;
        }
        observe::set_tenant_gauges(&self.ledger, &pending_by_tenant);
    }

    /// Builds one `"ev":"heartbeat"` self-report: uptime, virtual time,
    /// queue depths, request counters, round/drop totals.
    pub fn heartbeat(&self) -> Value {
        observe::record_heartbeat();
        let (trace_dropped, audit_dropped) = self.ring_drops();
        json!({
            "ev": "heartbeat",
            "uptime_s": self.observe.uptime_s(),
            "now": self.driver.now(),
            "active": self.driver.active_count(),
            "pending": self.driver.pending_count(),
            "stats": {
                "submitted": self.stats.submitted,
                "admitted": self.stats.admitted,
                "rejected": self.stats.rejected,
                "cancelled": self.stats.cancelled,
            },
            "rounds": self.observe.rounds(),
            "dropped": { "trace": trace_dropped, "audit": audit_dropped },
        })
    }

    /// Replay-paced heartbeat check: emits once each time virtual time
    /// crosses the configured interval (interpreted as virtual seconds).
    pub fn maybe_heartbeat_virtual(&mut self) -> Option<Value> {
        let every = self.hb_every?;
        if self.driver.now() < self.next_hb_virtual {
            return None;
        }
        // One beat per crossing, even after a large time jump.
        self.next_hb_virtual = self.driver.now() + every;
        Some(self.heartbeat())
    }

    /// Wallclock-paced heartbeat check: emits once each time the
    /// configured interval (wall seconds) elapses.
    pub fn maybe_heartbeat_wall(&mut self) -> Option<Value> {
        let every = self.hb_every?;
        if self.last_hb_wall.elapsed().as_secs_f64() < every {
            return None;
        }
        self.last_hb_wall = Instant::now();
        Some(self.heartbeat())
    }

    /// True after a `shutdown` command completed.
    pub fn done(&self) -> bool {
        self.done
    }

    /// Re-attaches recorder spill files after a restore (snapshots never
    /// carry open file handles).
    pub fn attach_spills(
        &mut self,
        trace: Option<&std::path::Path>,
        audit: Option<&std::path::Path>,
    ) -> std::io::Result<()> {
        if let Some(p) = trace {
            self.driver.attach_trace_spill(p)?;
        }
        if let Some(p) = audit {
            self.driver.attach_audit_spill(p)?;
        }
        Ok(())
    }

    /// Finalizes the run into a [`SimResult`] (flight trace and audit
    /// stream included), consuming the server.
    pub fn into_result(self) -> SimResult {
        let Server { driver, sched, .. } = self;
        driver.finish(sched.as_ref())
    }

    /// The full daemon state as a snapshot payload (driver state plus the
    /// service layer: ledger balances, per-job origin bookkeeping,
    /// request counters), or why the driver's state cannot be captured.
    pub fn snapshot_payload(&self) -> Result<Value, SnapshotRefusal> {
        let jobs: serde_json::Map = self
            .meta
            .iter()
            .map(|(k, m)| {
                (
                    k.to_string(),
                    json!({
                        "tenant": m.tenant.clone(),
                        "charge_gpu_hours": m.charge,
                        "request": m.request.clone(),
                    }),
                )
            })
            .collect();
        Ok(json!({
            "driver": self.driver.snapshot(self.sched.as_ref())?,
            "serve": {
                "ledger": self.ledger.to_json(),
                "jobs": Value::Object(jobs),
                "stats": {
                    "submitted": self.stats.submitted,
                    "admitted": self.stats.admitted,
                    "rejected": self.stats.rejected,
                    "cancelled": self.stats.cancelled,
                },
            },
        }))
    }

    /// Advances virtual time to `t`, returning the lifecycle events of
    /// every round executed (wallclock pacing calls this between
    /// commands).
    pub fn advance_to(&mut self, t: f64) -> Vec<Value> {
        let outs = self.driver.step_until(t, self.sched.as_mut());
        if !outs.is_empty() {
            self.push_tenant_gauges();
        }
        self.events_for(&outs)
    }

    /// Handles one request line at its own `at` timestamp (replay
    /// pacing). Returns the JSONL values to write: zero or more events,
    /// then the response.
    pub fn handle(&mut self, line: &str) -> Vec<Value> {
        self.handle_at(line, None)
    }

    /// Handles one request line, overriding its `at` timestamp (wallclock
    /// pacing passes the current virtual instant).
    pub fn handle_at(&mut self, line: &str, at_override: Option<f64>) -> Vec<Value> {
        let t0 = Instant::now();
        let mut out = Vec::new();
        let req = match parse_request(line) {
            Ok(r) => r,
            Err((id, reason)) => {
                observe::record_request("invalid", t0.elapsed().as_secs_f64());
                return vec![json!({
                    "id": id.map(Value::String).unwrap_or(Value::Null),
                    "ok": false,
                    "event": "error",
                    "reason": reason,
                })];
            }
        };
        let cmd_label = req.cmd.label();

        // Observability commands are strictly read-only: they execute no
        // scheduling rounds (so a scrape can never perturb engine parity)
        // and answer immediately.
        match req.cmd {
            Command::Metrics => {
                self.push_gauges();
                self.push_tenant_gauges();
                out.push(json!({
                    "id": req.id, "ok": true, "event": "metrics",
                    "now": self.driver.now(),
                    "exposition": self.observe.render_metrics(),
                }));
                observe::record_request(cmd_label, t0.elapsed().as_secs_f64());
                return out;
            }
            Command::Health => {
                let (ready, mut body) = self.observe.health();
                if let Value::Object(map) = &mut body {
                    map.insert("id".to_string(), Value::String(req.id.clone()));
                    map.insert("ok".to_string(), Value::Bool(ready));
                    map.insert("event".to_string(), Value::String("health".to_string()));
                    map.insert("now".to_string(), Value::Float(self.driver.now()));
                }
                out.push(body);
                observe::record_request(cmd_label, t0.elapsed().as_secs_f64());
                return out;
            }
            _ => {}
        }

        let at = at_override.unwrap_or(req.at);
        let outs = self.driver.step_until(at, self.sched.as_mut());
        if !outs.is_empty() {
            self.push_tenant_gauges();
        }
        out.extend(self.events_for(&outs));

        match req.cmd {
            Command::Submit {
                tenant,
                gpu_hours,
                job,
            } => {
                self.stats.submitted += 1;
                sia_telemetry::counter("serve.submitted").incr();
                observe::record_job("submitted");
                let ctx = AdmissionContext {
                    job: &job,
                    tenant: &tenant,
                    charge_gpu_hours: gpu_hours,
                    pending: self.driver.pending_count(),
                    duplicate_id: self.meta.contains_key(&job.id.0),
                    cluster: self.driver.cluster(),
                };
                let verdict = self.stages.iter().try_for_each(|s| {
                    let stage_t0 = Instant::now();
                    let r = s.check(&ctx, &self.ledger);
                    observe::record_stage_latency(s.name(), stage_t0.elapsed().as_secs_f64());
                    r
                });
                match verdict {
                    Ok(()) => {
                        let id = job.id.0;
                        self.ledger.charge(&tenant, gpu_hours);
                        self.meta.insert(
                            id,
                            JobMeta {
                                tenant: tenant.clone(),
                                charge: gpu_hours,
                                request: req.id.clone(),
                            },
                        );
                        self.driver
                            .record_admission(id, &tenant, true, "accepted", gpu_hours);
                        self.driver.submit(*job);
                        self.stats.admitted += 1;
                        sia_telemetry::counter("serve.admitted").incr();
                        observe::record_job("admitted");
                        observe::bump_tenant_state(&self.ledger, &tenant, 1.0);
                        out.push(json!({
                            "id": req.id, "ok": true, "event": "admitted",
                            "job": id, "tenant": tenant, "charge_gpu_hours": gpu_hours,
                        }));
                    }
                    Err(rej) => {
                        self.driver
                            .record_admission(job.id.0, &tenant, false, rej.label(), 0.0);
                        self.stats.rejected += 1;
                        sia_telemetry::counter("serve.rejected").incr();
                        observe::record_job("rejected");
                        observe::record_rejection(rej.stage, rej.label());
                        out.push(json!({
                            "id": req.id, "ok": false, "event": "rejected",
                            "job": job.id.0, "stage": rej.stage, "reason": rej.reason,
                        }));
                    }
                }
            }
            Command::Cancel { job } => match self.driver.cancel(JobId(job)) {
                outcome @ (CancelOutcome::Pending | CancelOutcome::Active { .. }) => {
                    let (tenant, charge) = self
                        .meta
                        .get(&job)
                        .map(|m| (m.tenant.clone(), m.charge))
                        .unwrap_or_else(|| ("default".to_string(), 0.0));
                    self.ledger.refund(&tenant, charge);
                    self.driver
                        .record_admission(job, &tenant, true, "cancelled", -charge);
                    self.stats.cancelled += 1;
                    sia_telemetry::counter("serve.cancelled").incr();
                    observe::record_job("cancelled");
                    let was_pending = matches!(outcome, CancelOutcome::Pending);
                    observe::bump_tenant_state(
                        &self.ledger,
                        &tenant,
                        if was_pending { -1.0 } else { 0.0 },
                    );
                    let gpu_seconds = match outcome {
                        CancelOutcome::Active { gpu_seconds } => gpu_seconds,
                        _ => 0.0,
                    };
                    out.push(json!({
                        "id": req.id, "ok": true, "event": "cancelled", "job": job,
                        "refund_gpu_hours": charge, "gpu_seconds": gpu_seconds,
                    }));
                }
                CancelOutcome::Finished => out.push(json!({
                    "id": req.id, "ok": false, "job": job, "reason": "already-finished",
                })),
                CancelOutcome::NotFound => out.push(json!({
                    "id": req.id, "ok": false, "job": job, "reason": "unknown-job",
                })),
            },
            Command::Query { job: Some(job) } => match self.driver.job_status(JobId(job)) {
                Some(s) => {
                    let state = if s.pending {
                        "pending"
                    } else if s.finished {
                        "finished"
                    } else {
                        "active"
                    };
                    out.push(json!({
                        "id": req.id, "ok": true, "job": job, "state": state,
                        "progress": s.progress, "gpus": s.gpus, "restarts": s.restarts,
                        "gpu_seconds": s.gpu_seconds,
                        "finish_time": s.finish_time.map(Value::Float).unwrap_or(Value::Null),
                    }));
                }
                None => out.push(json!({
                    "id": req.id, "ok": false, "job": job, "reason": "unknown-job",
                })),
            },
            Command::Query { job: None } => out.push(json!({
                "id": req.id, "ok": true, "now": self.driver.now(),
                "active": self.driver.active_count(),
                "pending": self.driver.pending_count(),
                "submitted": self.stats.submitted, "admitted": self.stats.admitted,
                "rejected": self.stats.rejected, "cancelled": self.stats.cancelled,
            })),
            Command::Snapshot { path } => match self
                .snapshot_payload()
                .map_err(|e| e.to_string())
                .and_then(|p| write_snapshot(&path, &p).map_err(|e| e.to_string()))
            {
                Ok(()) => {
                    observe::record_snapshot();
                    out.push(json!({
                        "id": req.id, "ok": true, "event": "snapshot", "path": path,
                    }));
                }
                Err(e) => out.push(json!({
                    "id": req.id, "ok": false, "reason": format!("snapshot-failed: {e}"),
                })),
            },
            Command::Shutdown => {
                self.observe.set_draining();
                let outs = self.driver.run_to_idle(self.sched.as_mut());
                let evs = self.events_for(&outs);
                out.extend(evs);
                self.done = true;
                out.push(json!({
                    "id": req.id, "ok": true, "event": "shutdown",
                    "now": self.driver.now(), "unfinished": self.driver.active_count(),
                }));
            }
            // Answered above before any round execution.
            Command::Metrics | Command::Health => unreachable!("read-only commands return early"),
        }
        let latency_s = t0.elapsed().as_secs_f64();
        sia_telemetry::histogram("serve.request_latency_s").record(latency_s);
        sia_telemetry::gauge("serve.queue_depth").set(self.driver.pending_count() as f64);
        observe::record_request(cmd_label, latency_s);
        self.push_gauges();
        out
    }

    /// Originating request id of a job, `null` if unknown.
    fn origin(&self, job: u64) -> Value {
        self.meta
            .get(&job)
            .map(|m| Value::String(m.request.clone()))
            .unwrap_or(Value::Null)
    }

    /// Translates round outcomes into `allocated` / `preempted` /
    /// `completed` events tagged with the originating request ids.
    fn events_for(&self, outs: &[RoundOutcome]) -> Vec<Value> {
        let mut ev = Vec::new();
        for o in outs {
            for &(id, alloc) in &o.changed {
                ev.push(match alloc {
                    Some((t, gpus)) => json!({
                        "event": "allocated", "id": self.origin(id.0), "job": id.0,
                        "t": o.time, "gpu_type": t.0, "gpus": gpus,
                    }),
                    None => json!({
                        "event": "preempted", "id": self.origin(id.0), "job": id.0,
                        "t": o.time,
                    }),
                });
            }
            for &(id, t) in &o.completed {
                ev.push(json!({
                    "event": "completed", "id": self.origin(id.0), "job": id.0, "t": t,
                }));
            }
        }
        ev
    }
}

/// Writes a batch of JSONL values to `out`, one per line.
fn write_values(out: &mut impl Write, values: &[Value]) -> std::io::Result<()> {
    for v in values {
        let line = serde_json::to_string(v)
            .map_err(|e| std::io::Error::other(format!("serialize response: {e}")))?;
        writeln!(out, "{line}")?;
    }
    out.flush()
}

/// The error answering a line [`RequestLines`] refused, shaped like the
/// one for a line that is not JSON.
fn refusal(reason: &str) -> Value {
    observe::record_request("invalid", 0.0);
    json!({ "id": Value::Null, "ok": false, "event": "error", "reason": reason })
}

/// Replay-paced serving loop: reads request lines from `input` until
/// `shutdown` or EOF, writing responses/events to `out`. Returns `true`
/// on a clean shutdown, `false` on EOF without one (the "killed daemon"
/// path — no trace is finalized, state survives only via snapshots).
pub fn serve_replay<R: BufRead, W: Write>(
    server: &mut Server,
    input: R,
    out: &mut W,
) -> std::io::Result<bool> {
    for line in RequestLines::new(input) {
        let values = match line? {
            RequestLine::Text(line) if line.trim().is_empty() => continue,
            RequestLine::Text(line) => server.handle(&line),
            RequestLine::Refused(reason) => vec![refusal(&reason)],
        };
        write_values(out, &values)?;
        if let Some(hb) = server.maybe_heartbeat_virtual() {
            write_values(out, &[hb])?;
        }
        if server.done() {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Wallclock-paced serving loop: virtual time tracks the wall clock
/// scaled by `speed`; scheduling rounds fire on their own even while the
/// command stream is silent, and commands take effect at the virtual
/// instant they arrive. Same return contract as [`serve_replay`].
pub fn serve_wallclock<R, W>(
    server: &mut Server,
    input: R,
    out: &mut W,
    speed: f64,
) -> std::io::Result<bool>
where
    R: BufRead + Send + 'static,
    W: Write,
{
    assert!(speed > 0.0 && speed.is_finite(), "speed must be positive");
    let (tx, rx) = mpsc::channel::<RequestLine>();
    let reader = std::thread::spawn(move || {
        for line in RequestLines::new(input) {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let start = Instant::now();
    let result = loop {
        let target = start.elapsed().as_secs_f64() * speed;
        let events = server.advance_to(target);
        write_values(out, &events)?;
        if let Some(hb) = server.maybe_heartbeat_wall() {
            write_values(out, &[hb])?;
        }
        // Sleep until the next round boundary is due (capped to stay
        // responsive to the command stream).
        let wait_s = ((server.now() - target) / speed).clamp(0.01, 0.5);
        match rx.recv_timeout(Duration::from_secs_f64(wait_s)) {
            Ok(RequestLine::Text(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                let now = start.elapsed().as_secs_f64() * speed;
                let values = server.handle_at(&line, Some(now));
                write_values(out, &values)?;
                if server.done() {
                    break true;
                }
            }
            Ok(RequestLine::Refused(reason)) => write_values(out, &[refusal(&reason)])?,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break false,
        }
    };
    drop(rx);
    let _ = reader.join();
    Ok(result)
}

/// Serves a single connection on a Unix domain socket at `path`
/// (replacing any stale socket file), with the given pacing. Returns the
/// same clean-shutdown flag as the stream loops.
#[cfg(unix)]
pub fn serve_unix(
    server: &mut Server,
    path: &std::path::Path,
    pacing: Pacing,
) -> std::io::Result<bool> {
    use std::os::unix::net::UnixListener;
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let (stream, _) = listener.accept()?;
    let reader = std::io::BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let done = match pacing {
        Pacing::Replay => serve_replay(server, reader, &mut writer),
        Pacing::Wallclock { speed } => serve_wallclock(server, reader, &mut writer, speed),
    };
    let _ = std::fs::remove_file(path);
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::ToJson;
    use sia_core::SiaPolicy;
    use sia_workloads::{JobSpec, Trace, TraceConfig, TraceKind};

    fn jobs(n: usize) -> Vec<JobSpec> {
        let mut t = Trace::generate(&TraceConfig::new(TraceKind::Philly, 3));
        t.jobs.truncate(n);
        for j in &mut t.jobs {
            j.work_target *= 0.02;
        }
        t.jobs
    }

    fn submit_line(req: &str, job: &JobSpec, tenant: &str, gpu_hours: f64) -> String {
        serde_json::to_string(&json!({
            "id": req, "cmd": "submit", "at": job.submit_time,
            "tenant": tenant, "gpu_hours": gpu_hours, "job": job.to_json(),
        }))
        .unwrap()
    }

    fn new_server(opts: &ServeOptions) -> Server {
        Server::new(
            ClusterSpec::heterogeneous_64(),
            SimConfig::physical(13),
            Box::new(SiaPolicy::default()),
            opts,
        )
    }

    fn response_of<'a>(values: &'a [Value], req: &str) -> &'a Value {
        values
            .iter()
            .find(|v| v.get("id").and_then(Value::as_str) == Some(req))
            .unwrap_or_else(|| panic!("no response for {req} in {values:?}"))
    }

    #[test]
    fn session_lifecycle_responses_and_events() {
        let mut server = new_server(&ServeOptions::default());
        let specs = jobs(4);
        let mut all = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let values = server.handle(&submit_line(&format!("r{i}"), spec, "acme", 1.0));
            let resp = response_of(&values, &format!("r{i}"));
            assert_eq!(resp.get("ok"), Some(&Value::Bool(true)));
            assert_eq!(resp.get("event").and_then(Value::as_str), Some("admitted"));
            all.extend(values);
        }
        // Query a known job and the service stats.
        let id = specs[0].id.0;
        let values = server.handle(&format!(r#"{{"id":"q","cmd":"query","at":0,"job":{id}}}"#));
        assert_eq!(
            response_of(&values, "q").get("ok"),
            Some(&Value::Bool(true))
        );
        let values = server.handle(r#"{"id":"s","cmd":"query"}"#);
        let stats = response_of(&values, "s");
        assert_eq!(stats.get("submitted").and_then(Value::as_u64), Some(4));
        assert_eq!(stats.get("admitted").and_then(Value::as_u64), Some(4));
        // Malformed line still gets an addressable error.
        let values = server.handle(r#"{"id":"bad","cmd":"warp"}"#);
        let err = response_of(&values, "bad");
        assert_eq!(err.get("ok"), Some(&Value::Bool(false)));
        // Drain: every job completes, events carry the origin request ids.
        let values = server.handle(r#"{"id":"end","cmd":"shutdown"}"#);
        assert!(server.done());
        all.extend(values.clone());
        let completed: Vec<&str> = all
            .iter()
            .filter(|v| v.get("event").and_then(Value::as_str) == Some("completed"))
            .filter_map(|v| v.get("id").and_then(Value::as_str))
            .collect();
        assert_eq!(completed.len(), specs.len());
        for i in 0..specs.len() {
            assert!(completed.contains(&format!("r{i}").as_str()));
        }
        let fin = response_of(&values, "end");
        assert_eq!(fin.get("unfinished").and_then(Value::as_u64), Some(0));
        let result = server.into_result();
        assert_eq!(result.records.len(), specs.len());
        assert!(result.records.iter().all(|r| r.finish_time.is_some()));
    }

    #[test]
    fn snapshot_kill_restore_is_bit_identical() {
        let specs = jobs(8);
        let mut lines: Vec<String> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| submit_line(&format!("r{i}"), s, "acme", 1.0))
            .collect();
        lines.push(r#"{"id":"end","cmd":"shutdown"}"#.to_string());

        // Uninterrupted run.
        let mut base = new_server(&ServeOptions::default());
        for line in &lines {
            base.handle(line);
        }
        let base = base.into_result();

        // Interrupted: process half, snapshot, then "kill" (drop).
        let cut = 4;
        let mut first = new_server(&ServeOptions::default());
        for line in &lines[..cut] {
            first.handle(line);
        }
        let snap = std::env::temp_dir().join(format!("sia_serve_test_{}.snap", std::process::id()));
        let values = first.handle(&format!(
            r#"{{"id":"sn","cmd":"snapshot","at":{},"path":{}}}"#,
            first.now(),
            serde_json::to_string(&Value::String(snap.display().to_string())).unwrap(),
        ));
        assert_eq!(
            response_of(&values, "sn").get("ok"),
            Some(&Value::Bool(true))
        );
        drop(first);

        // Restore and finish the stream.
        let payload = crate::snapshot::read_snapshot(&snap).unwrap();
        let mut second = Server::restore(
            &payload,
            Box::new(SiaPolicy::default()),
            &ServeOptions::default(),
        )
        .unwrap();
        for line in &lines[cut..] {
            second.handle(line);
        }
        assert!(second.done());
        let resumed = second.into_result();

        assert_eq!(base.makespan, resumed.makespan);
        assert_eq!(
            base.trace.canonical_jsonl(),
            resumed.trace.canonical_jsonl()
        );
        assert_eq!(
            base.audit.canonical_jsonl(),
            resumed.audit.canonical_jsonl()
        );
        std::fs::remove_file(&snap).ok();
    }

    #[test]
    fn quota_rejections_and_refunds() {
        let opts = ServeOptions {
            default_quota: None,
            quotas: vec![("acme".to_string(), 2.0), ("broke".to_string(), 0.0)],
            max_pending: Some(8),
            ..Default::default()
        };
        let mut server = new_server(&opts);
        // Everything at t=0 with real work targets: no round runs between
        // commands, so the cancelled job is still pending when cancelled.
        let mut specs = jobs(4);
        for s in &mut specs {
            s.submit_time = 0.0;
            s.work_target *= 50.0;
        }

        // Zero-quota tenant is rejected with the typed reason.
        let values = server.handle(&submit_line("z0", &specs[0], "broke", 0.0));
        let resp = response_of(&values, "z0");
        assert_eq!(resp.get("event").and_then(Value::as_str), Some("rejected"));
        assert_eq!(resp.get("stage").and_then(Value::as_str), Some("quota"));
        assert!(resp
            .get("reason")
            .and_then(Value::as_str)
            .unwrap()
            .starts_with("zero-quota"));

        // Exactly at the boundary: admitted; one hour past: rejected.
        let values = server.handle(&submit_line("b0", &specs[0], "acme", 2.0));
        assert_eq!(
            response_of(&values, "b0")
                .get("event")
                .and_then(Value::as_str),
            Some("admitted")
        );
        let values = server.handle(&submit_line("b1", &specs[1], "acme", 1.0));
        let resp = response_of(&values, "b1");
        assert_eq!(resp.get("event").and_then(Value::as_str), Some("rejected"));
        assert!(resp
            .get("reason")
            .and_then(Value::as_str)
            .unwrap()
            .starts_with("quota-exceeded"));

        // Cancellation refunds the committed hours: the same charge fits again.
        let values = server.handle(&format!(
            r#"{{"id":"c0","cmd":"cancel","job":{}}}"#,
            specs[0].id.0
        ));
        assert_eq!(
            response_of(&values, "c0").get("ok"),
            Some(&Value::Bool(true))
        );
        let values = server.handle(&submit_line("b2", &specs[2], "acme", 2.0));
        assert_eq!(
            response_of(&values, "b2")
                .get("event")
                .and_then(Value::as_str),
            Some("admitted")
        );

        // Duplicate job id is refused by the schema stage.
        let values = server.handle(&submit_line("d0", &specs[2], "acme", 0.0));
        let resp = response_of(&values, "d0");
        assert_eq!(resp.get("stage").and_then(Value::as_str), Some("schema"));

        // All four decisions (plus the cancel) are typed audit records.
        let result = server.into_result();
        let admissions: Vec<String> = result
            .audit
            .canonical_jsonl()
            .lines()
            .filter(|l| l.contains("\"ev\":\"admission\""))
            .map(str::to_string)
            .collect();
        assert_eq!(admissions.len(), 6, "{admissions:#?}");
        assert!(admissions.iter().any(|l| l.contains("zero-quota")));
        assert!(admissions.iter().any(|l| l.contains("quota-exceeded")));
        assert!(admissions.iter().any(|l| l.contains("duplicate-id")));
        assert!(admissions.iter().any(|l| l.contains("cancelled")));
    }

    #[test]
    fn replay_loop_reports_clean_and_abrupt_exits() {
        let specs = jobs(2);
        let mut input = format!(
            "{}\n{}\n",
            submit_line("r0", &specs[0], "t", 0.0),
            submit_line("r1", &specs[1], "t", 0.0)
        );
        // EOF without shutdown: the "killed daemon" path.
        let mut server = new_server(&ServeOptions::default());
        let mut out = Vec::new();
        let clean = serve_replay(&mut server, input.as_bytes(), &mut out).unwrap();
        assert!(!clean);
        // With a shutdown line the loop reports a clean exit.
        input.push_str("{\"id\":\"end\",\"cmd\":\"shutdown\"}\n");
        let mut server = new_server(&ServeOptions::default());
        let mut out = Vec::new();
        let clean = serve_replay(&mut server, input.as_bytes(), &mut out).unwrap();
        assert!(clean);
        let text = String::from_utf8(out).unwrap();
        assert!(text.lines().count() >= 3);
        assert!(text.contains("\"event\":\"shutdown\""));
    }
}
