//! `serve_mixed`: one closed-loop client drives an in-process daemon
//! (replay pacing, hetero64, Sia) with a mixed command stream built from
//! the Philly trace.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::Instant;

use serde_json::{json, ToJson, Value};
use sia_cluster::ClusterSpec;
use sia_core::SiaPolicy;
use sia_serve::{parse_request, ServeOptions, Server};
use sia_sim::{Scheduler, SimConfig};
use sia_workloads::{TraceConfig, TraceKind};

use crate::batch::stratified_trace;
use crate::probe::{with_tracer, Probe, SharedProbe, Telemetry, Timed, Tracer};
use crate::spans::layer_table;
use crate::stats::{job_hours, Digest};
use crate::{Check, Layers, Rep, Workload, OUT_DIR};

pub struct Serve {
    /// Keep only this many jobs (smoke runs).
    pub jobs: Option<usize>,
}

pub const SERVE: Serve = Serve { jobs: None };

/// Per-job status queries: every 5 virtual minutes for the first hour.
const QUERY_EVERY_S: f64 = 300.0;
const QUERY_FOR_S: f64 = 3600.0;
/// Every 10th job is cancelled 30 minutes after submission.
const CANCEL_EVERY: usize = 10;
const CANCEL_AFTER_S: f64 = 1800.0;
/// A metrics scrape plus a service-wide query at Prometheus' default
/// cadence, and a snapshot every 2 virtual hours.
const SCRAPE_EVERY_S: f64 = 15.0;
const SNAPSHOT_EVERY_S: f64 = 7200.0;

/// Request kinds, in the order same-instant requests are sent.
const KINDS: [&str; 6] = [
    "submit", "cancel", "query", "snapshot", "metrics", "shutdown",
];

pub struct Line {
    id: String,
    kind: &'static str,
    /// Virtual time the request advances the daemon to; `None` for the
    /// read-only `metrics` and for `shutdown`, which drains.
    at: Option<f64>,
    text: String,
}

pub struct Input {
    lines: Vec<Line>,
    seed: u64,
    generate_s: f64,
}

pub struct Armed {
    server: Server,
    probe: SharedProbe,
    gap_tolerance: f64,
}

fn snapshot_path() -> PathBuf {
    PathBuf::from(OUT_DIR).join(format!("serve-{}.snap", std::process::id()))
}

impl Workload for Serve {
    type Input = Input;
    type Armed = Armed;

    fn make(&self, seed: u64) -> Input {
        let t0 = Instant::now();
        let mut trace = stratified_trace(&TraceConfig::new(TraceKind::Philly, seed));
        if let Some(n) = self.jobs {
            trace.jobs.truncate(n);
        }
        let generate_s = t0.elapsed().as_secs_f64();

        // (send time, kind rank, line); a scrape is read-only and goes out
        // after the query that advanced the daemon to the same instant.
        let mut lines: Vec<(f64, usize, Line)> = Vec::new();
        let mut push = |at: f64, kind: &'static str, id: String, body: Value| {
            let rank = KINDS.iter().position(|k| *k == kind).expect("known kind");
            let mut obj = json!({ "id": id.clone(), "cmd": kind, "at": at });
            if let (Value::Object(o), Value::Object(b)) = (&mut obj, body) {
                o.extend(b);
            }
            let text = serde_json::to_string(&obj).expect("request serializes");
            let advances = (kind != "metrics").then_some(at);
            lines.push((
                at,
                rank,
                Line {
                    id,
                    kind,
                    at: advances,
                    text,
                },
            ));
        };
        let mut end = 0.0_f64;
        for (i, job) in trace.jobs.iter().enumerate() {
            let t = job.submit_time;
            let j = job.id.0;
            push(
                t,
                "submit",
                format!("s{j}"),
                json!({ "tenant": "bench", "job": job.to_json() }),
            );
            let mut q = QUERY_EVERY_S;
            while q <= QUERY_FOR_S {
                push(t + q, "query", format!("q{j}-{q}"), json!({ "job": j }));
                q += QUERY_EVERY_S;
            }
            if i % CANCEL_EVERY == CANCEL_EVERY - 1 {
                push(
                    t + CANCEL_AFTER_S,
                    "cancel",
                    format!("c{j}"),
                    json!({ "job": j }),
                );
            }
            end = end.max(t + QUERY_FOR_S);
        }
        let mut n = 1;
        while n as f64 * SCRAPE_EVERY_S <= end {
            let t = n as f64 * SCRAPE_EVERY_S;
            push(t, "metrics", format!("m{n}"), json!({}));
            push(t, "query", format!("g{n}"), json!({}));
            n += 1;
        }
        let path = snapshot_path().display().to_string();
        let mut n = 1;
        while n as f64 * SNAPSHOT_EVERY_S <= end {
            push(
                n as f64 * SNAPSHOT_EVERY_S,
                "snapshot",
                format!("p{n}"),
                json!({ "path": path.clone() }),
            );
            n += 1;
        }
        // Stable: same-instant requests of one kind keep their push order.
        lines.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut lines: Vec<Line> = lines.into_iter().map(|(_, _, l)| l).collect();
        lines.push(Line {
            id: "end".into(),
            kind: "shutdown",
            at: None,
            text: r#"{"id":"end","cmd":"shutdown"}"#.into(),
        });
        Input {
            lines,
            seed,
            generate_s,
        }
    }

    fn generate_s(&self, input: &Input) -> f64 {
        input.generate_s
    }

    fn arm(&self, input: &Input) -> Armed {
        let probe = Probe::shared(false);
        let sched = Timed::new(Box::new(SiaPolicy::default()), probe.clone());
        let gap_tolerance = sched.gap_tolerance().unwrap_or(0.0);
        let cfg = SimConfig {
            seed: input.seed,
            ..SimConfig::default()
        };
        Armed {
            server: Server::new(
                ClusterSpec::heterogeneous_64(),
                cfg,
                Box::new(sched),
                &ServeOptions::default(),
            ),
            probe,
            gap_tolerance,
        }
    }

    fn run(&self, input: &Input, armed: Armed, traced: bool) -> Rep {
        let Armed {
            mut server,
            probe,
            gap_tolerance,
        } = armed;
        probe.borrow_mut().tracer = traced.then(Tracer::new);
        let before = Telemetry::read();
        let mut handle_s = Vec::with_capacity(input.lines.len());
        let mut per_cmd: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut client = Client::default();
        let mut triggered = 0u64;

        let session = with_tracer(&probe, |t| t.log.open("serve.session", None, None));
        for line in &input.lines {
            let rounds_before = probe.borrow().round_s.len();
            let mut values = Vec::new();
            let mut host_s = 0.0;
            if let Some(session) = session {
                // Traced: advance time first, parse the line once more on
                // its own, then handle it with time already advanced.
                let rid = Some(line.id.as_str());
                if let Some(at) = line.at {
                    let span = with_tracer(&probe, |t| {
                        let id = t.log.open("serve.advance", Some(session), rid);
                        t.parent = Some(id);
                        id
                    });
                    let t0 = Instant::now();
                    values = server.advance_to(at);
                    host_s += t0.elapsed().as_secs_f64();
                    with_tracer(&probe, |t| {
                        t.settle();
                        t.log.close(span.expect("traced"));
                    });
                }
                with_tracer(&probe, |t| {
                    let id = t.log.open("serve.parse", Some(session), rid);
                    std::hint::black_box(parse_request(&line.text).is_ok());
                    t.log.close(id);
                });
                let span = with_tracer(&probe, |t| {
                    let id = t.log.open("serve.request", Some(session), rid);
                    t.parent = Some(id);
                    id
                });
                let t0 = Instant::now();
                values.extend(server.handle(&line.text));
                host_s += t0.elapsed().as_secs_f64();
                with_tracer(&probe, |t| {
                    t.settle();
                    t.log.close(span.expect("traced"));
                });
            } else {
                let t0 = Instant::now();
                values = server.handle(&line.text);
                host_s = t0.elapsed().as_secs_f64();
            }
            handle_s.push(host_s);
            per_cmd.entry(line.kind).or_default().push(host_s);
            if probe.borrow().round_s.len() > rounds_before {
                triggered += 1;
            }
            client.check(line, &values);
        }
        with_tracer(&probe, |t| t.log.close(session.expect("traced")));
        let after = Telemetry::read();
        let _ = std::fs::remove_file(snapshot_path());

        let wall_s: f64 = handle_s.iter().sum();
        let end_s = server.now();
        let result = server.into_result();
        let p = std::mem::take(&mut *probe.borrow_mut());

        // Every admitted job is reported finished or unfinished, unless it
        // was cancelled before it was ever admitted to a round.
        let mut failures = Vec::new();
        let reported: BTreeSet<u64> = result.records.iter().map(|r| r.id.0).collect();
        let missing = client
            .admitted
            .difference(&reported)
            .filter(|j| !client.cancelled.contains(j))
            .count();
        let stray = reported.difference(&client.admitted).count();
        if missing + stray > 0 {
            failures.push(format!(
                "{missing} admitted jobs unreported, {stray} reported jobs never admitted"
            ));
        }
        let unfinished = result
            .records
            .iter()
            .filter(|r| r.finish_time.is_none())
            .count();
        if unfinished != result.unfinished {
            failures.push(format!(
                "{unfinished} records unfinished, result says {}",
                result.unfinished
            ));
        }
        let n = input.lines.len() as f64;
        let mut layers = Layers::new();
        layers.insert("serve.requests", n);
        layers.insert("serve.not_ok", client.not_ok as f64);
        layers.insert("serve.round_trigger_share", triggered as f64 / n);
        let execute_s = after.seconds_since(&before, "engine.execute");
        let apply_s = after.seconds_since(&before, "engine.apply");
        let sums = p.layers(&mut layers);
        let schedule_s = sums.schedule_s;
        if sums.median_gap > gap_tolerance {
            failures.push(format!(
                "median relative gap {:.3e} exceeds the gap tolerance {gap_tolerance:.1e}",
                sums.median_gap
            ));
        }
        let failed = client.failed + failures.len() as u64;
        failures.extend(client.failures);
        layers.insert("sim.run_s", wall_s);
        layers.insert("sim.execute_s", execute_s);
        layers.insert("sim.apply_s", apply_s);
        layers.insert(
            "sim.unattributed_s",
            wall_s - schedule_s - execute_s - apply_s,
        );
        layers.insert("sim.flight_records", result.trace.records.len() as f64);
        layers.insert("sim.audit_records", result.audit.records.len() as f64);

        let mut closures = Vec::new();
        let spans = p.tracer.map(|t| t.log);
        if let Some(log) = &spans {
            let table = layer_table(&log.spans);
            let row = |n: &str| table.get(n).copied().unwrap_or_default();
            let advance = row("serve.advance").total_s;
            let request = row("serve.request").total_s;
            let calls = advance + request;
            // Rounds run inside Server calls only, and every round ran
            // inside one.
            let in_advance: f64 = log
                .spans
                .iter()
                .filter(|s| s.name == "policy.schedule")
                .filter(|s| {
                    s.parent
                        .is_some_and(|q| log.spans[q].name == "serve.advance")
                })
                .map(|s| s.duration())
                .sum();
            let in_calls: f64 = log
                .spans
                .iter()
                .filter(|s| s.name == "policy.schedule")
                .filter(|s| {
                    s.parent.is_some_and(|q| {
                        matches!(log.spans[q].name, "serve.advance" | "serve.request")
                    })
                })
                .map(|s| s.duration())
                .sum();
            closures.push(Check {
                name: "serve: every round ran inside a Server call",
                ok: (in_calls - schedule_s).abs() <= 1e-9 * schedule_s.max(1.0),
                detail: format!("{in_calls:.6} s of {schedule_s:.6} s of rounds"),
            });
            closures.push(Check::closure(
                "serve: advance + request + parse + client = session",
                row("serve.session").total_s,
                &[advance, request, row("serve.parse").total_s],
                row("serve.session").self_s,
            ));
            closures.push(Check {
                name: "serve: advance + request = time in Server calls",
                ok: (calls - wall_s).abs() <= 1e-3 * wall_s,
                detail: format!("spans {calls:.6} s, timed Server calls {wall_s:.6} s"),
            });
            let cmd = |k: &str| -> f64 {
                log.spans
                    .iter()
                    .filter(|s| s.name == "serve.request")
                    .filter(|s| {
                        let id = s.request.as_deref().unwrap_or("");
                        match k {
                            "metrics" => id.starts_with('m'),
                            _ => id.starts_with('p'),
                        }
                    })
                    .map(|s| s.duration())
                    .sum()
            };
            let share = |x: f64| x / calls.max(1e-12);
            layers.insert("serve.advance_share", share(advance));
            layers.insert("serve.round_share", share(in_advance));
            layers.insert("serve.driver_self_share", share(advance - in_advance));
            layers.insert("serve.request_share", share(request));
            layers.insert(
                "serve.parse_share",
                row("serve.parse").total_s / request.max(1e-12),
            );
            layers.insert("serve.metrics_share", share(cmd("metrics")));
            layers.insert("serve.snapshot_share", share(cmd("snapshot")));
        }

        let job_hours = job_hours(&result.records, end_s);
        Rep {
            wall_s,
            work: n,
            job_hours: Some(job_hours),
            ops_s: handle_s,
            rounds_s: p.round_s,
            avg_jct_h: result.avg_jct() / 3600.0,
            attempted: input.lines.len() as u64,
            not_ok: client.not_ok,
            failed,
            failures,
            digest: Digest::of(&[
                result.trace.canonical_jsonl().as_bytes(),
                result.audit.canonical_jsonl().as_bytes(),
            ]),
            layers,
            closures,
            spans,
            per_cmd: per_cmd.into_iter().collect(),
        }
    }
}

/// The client's view of the responses: exactly one per request id, and
/// every not-ok answer explained.
#[derive(Default)]
struct Client {
    admitted: BTreeSet<u64>,
    completed: BTreeSet<u64>,
    cancelled: BTreeSet<u64>,
    not_ok: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Client {
    fn check(&mut self, line: &Line, values: &[Value]) {
        for v in values {
            if v.get("event").and_then(Value::as_str) == Some("completed") {
                if let Some(j) = v.get("job").and_then(Value::as_u64) {
                    self.completed.insert(j);
                }
            }
        }
        let responses: Vec<&Value> = values
            .iter()
            .filter(|v| {
                v.get("ok").is_some()
                    && v.get("id").and_then(Value::as_str) == Some(line.id.as_str())
            })
            .collect();
        let [resp] = responses[..] else {
            self.fail(format!(
                "request {} got {} responses",
                line.id,
                responses.len()
            ));
            return;
        };
        let ok = resp.get("ok").and_then(Value::as_bool) == Some(true);
        let job = resp.get("job").and_then(Value::as_u64);
        match (line.kind, ok) {
            ("submit", true) => {
                self.admitted.extend(job);
            }
            ("cancel", true) => {
                self.cancelled.extend(job);
            }
            ("cancel", false) => {
                self.not_ok += 1;
                let finished =
                    resp.get("reason").and_then(Value::as_str) == Some("already-finished");
                if !(finished && job.is_some_and(|j| self.completed.contains(&j))) {
                    self.fail(format!("cancel {} refused: {}", line.id, resp));
                }
            }
            ("metrics", true) => {
                if resp
                    .get("exposition")
                    .and_then(Value::as_str)
                    .is_none_or(str::is_empty)
                {
                    self.fail(format!("scrape {} returned no exposition", line.id));
                }
            }
            (_, true) => {}
            (_, false) => {
                self.not_ok += 1;
                self.fail(format!("request {} answered not-ok: {}", line.id, resp));
            }
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(what);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_serve_mixed() {
        let _serial = crate::serial_test();
        std::fs::create_dir_all(OUT_DIR).unwrap();
        // Enough jobs to reach the first snapshot at 2 virtual hours.
        let w = Serve { jobs: Some(30) };
        let input = w.make(3);
        let kinds: BTreeSet<&str> = input.lines.iter().map(|l| l.kind).collect();
        assert_eq!(kinds.len(), KINDS.len(), "every command kind is sent");
        // Requests go out in time order, shutdown last.
        let times: Vec<f64> = input.lines.iter().filter_map(|l| l.at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(input.lines.last().map(|l| l.kind), Some("shutdown"));
        let rep = w.run(&input, w.arm(&input), true);
        assert!(rep.failures.is_empty(), "{:?}", rep.failures);
        assert_eq!(rep.failed, 0);
        assert!(rep.closures.iter().all(|c| c.ok), "{:?}", rep.closures);
        let again = w.run(&input, w.arm(&input), false);
        assert_eq!(
            rep.digest, again.digest,
            "tracing must not change decisions"
        );
    }
}
