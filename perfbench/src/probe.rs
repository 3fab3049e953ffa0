//! What the benchmark reads from the program without instrumenting it: a
//! delegating `Scheduler` that times every `schedule` call, the policy's
//! per-round `SolverStats`, and deltas of the global telemetry registry.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use sia_cluster::ClusterView;
use sia_sim::{AllocationMap, DecisionInfo, JobView, Scheduler, SolverStats};
use sia_telemetry::Histogram;

use crate::spans::{Span, SpanLog};
use crate::stats::{is_fallback, median};
use crate::Layers;

/// Per-round observations shared between a [`Timed`] scheduler (which may
/// be owned by a `Server`) and the workload driving it.
#[derive(Default)]
pub struct Probe {
    /// Host seconds of each `schedule` call.
    pub round_s: Vec<f64>,
    /// Jobs offered to each `schedule` call.
    pub jobs: Vec<usize>,
    /// `SolverStats` of every round that reported them.
    pub stats: Vec<SolverStats>,
    /// Span bookkeeping of a traced repetition.
    pub tracer: Option<Tracer>,
}

pub type SharedProbe = Rc<RefCell<Probe>>;

/// Totals of the rounds a probe saw.
pub struct RoundSums {
    pub schedule_s: f64,
    /// The policy's phases, in the order `SiaPolicy::schedule` runs them.
    pub phases: [(&'static str, f64); 5],
    pub median_gap: f64,
    pub fallbacks: u64,
}

impl Probe {
    pub fn shared(traced: bool) -> SharedProbe {
        Rc::new(RefCell::new(Probe {
            tracer: traced.then(Tracer::new),
            ..Probe::default()
        }))
    }

    /// Inserts the per-layer values the wrapper and the policy's
    /// `SolverStats` give, and returns their totals.
    pub fn layers(&self, layers: &mut Layers) -> RoundSums {
        let sum = |f: fn(&SolverStats) -> f64| self.stats.iter().map(f).sum::<f64>();
        let count = |f: fn(&SolverStats) -> bool| self.stats.iter().filter(|s| f(s)).count();
        let rounds = self.round_s.len().max(1) as f64;
        let schedule_s: f64 = self.round_s.iter().sum();
        let phases = [
            ("policy.refit_s", sum(|s| s.refit_s)),
            ("policy.goodput_s", sum(|s| s.goodput_s)),
            ("policy.build_s", sum(|s| s.build_s)),
            ("solver.solve_s", sum(|s| s.solve_s)),
            ("policy.placement_s", sum(|s| s.placement_s)),
        ];
        let gaps: Vec<f64> = self.stats.iter().filter_map(|s| s.gap_rel()).collect();
        let median_gap = if gaps.is_empty() { 0.0 } else { median(&gaps) };
        let fallbacks = count(is_fallback);
        let (rebuilt, reused) = (sum(|s| s.cache_misses as f64), sum(|s| s.cache_hits as f64));
        layers.insert("policy.schedule_s", schedule_s);
        layers.extend(phases);
        layers.insert(
            "policy.unattributed_s",
            schedule_s - phases.iter().map(|(_, v)| v).sum::<f64>(),
        );
        layers.insert("sim.rounds", self.round_s.len() as f64);
        layers.insert(
            "sim.jobs_per_round",
            self.jobs.iter().sum::<usize>() as f64 / rounds,
        );
        layers.insert("policy.rows_rebuilt", rebuilt);
        layers.insert("policy.rows_reused", reused);
        layers.insert("policy.row_reuse", reused / (reused + rebuilt).max(1.0));
        layers.insert(
            "policy.candidates_per_round",
            sum(|s| s.candidates as f64) / rounds,
        );
        layers.insert("solver.nodes", sum(|s| s.nodes as f64));
        layers.insert("solver.pivots", sum(|s| s.pivots as f64));
        layers.insert("solver.nodes_pruned", sum(|s| s.nodes_pruned as f64));
        layers.insert(
            "solver.warm_pivots_saved",
            sum(|s| s.warm_pivots_saved as f64),
        );
        layers.insert(
            "solver.warm_seeded_share",
            count(|s| s.incumbent_seed.is_some()) as f64 / rounds,
        );
        layers.insert("solver.shards_per_round", sum(|s| s.shards as f64) / rounds);
        layers.insert(
            "solver.lagrangian_iters",
            sum(|s| s.lagrangian_iters as f64),
        );
        layers.insert(
            "solver.budget_exhausted_rounds",
            count(|s| s.budget_exhausted) as f64,
        );
        layers.insert("solver.median_rel_gap", median_gap);
        layers.insert("solver.fallback_rounds", fallbacks as f64);
        RoundSums {
            schedule_s,
            phases,
            median_gap,
            fallbacks: fallbacks as u64,
        }
    }
}

/// Runs `f` on the probe's tracer, if the repetition is traced.
pub fn with_tracer<R>(probe: &SharedProbe, f: impl FnOnce(&mut Tracer) -> R) -> Option<R> {
    probe.borrow_mut().tracer.as_mut().map(f)
}

/// The engine's apply and execute loops run after `round_decisions`
/// returns and before the next `schedule` call; their durations are the
/// growth of the engine's own `engine.apply` / `engine.execute` span
/// histograms over that window.
struct Tail {
    at: f64,
    parent: Option<usize>,
    apply0: f64,
    execute0: f64,
}

pub struct Tracer {
    pub log: SpanLog,
    /// The span the program's next rounds run under.
    pub parent: Option<usize>,
    last_schedule: Option<usize>,
    tail: Option<Tail>,
    apply: Histogram,
    execute: Histogram,
}

fn hist_sum(h: &Histogram) -> f64 {
    let s = h.summary();
    s.mean * s.count as f64
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            log: SpanLog::default(),
            parent: None,
            last_schedule: None,
            tail: None,
            apply: sia_telemetry::histogram("engine.apply"),
            execute: sia_telemetry::histogram("engine.execute"),
        }
    }

    /// Closes the last round's apply and execute spans. Call it once the
    /// program call that ran the round has returned.
    pub fn settle(&mut self) {
        let Some(tail) = self.tail.take() else { return };
        let apply = hist_sum(&self.apply) - tail.apply0;
        let execute = hist_sum(&self.execute) - tail.execute0;
        let mut at = tail.at;
        for (name, dur) in [("sim.apply", apply), ("sim.execute", execute)] {
            self.log.push(Span {
                name,
                start: at,
                end: at + dur,
                parent: tail.parent,
                request: None,
                derived: true,
            });
            at += dur;
        }
    }

    fn schedule_span(&mut self, start: f64, end: f64) {
        let id = self.log.push(Span {
            name: "policy.schedule",
            start,
            end,
            parent: self.parent,
            request: None,
            derived: false,
        });
        self.last_schedule = Some(id);
    }

    /// Lays the policy's measured phases end to end from the start of the
    /// schedule span, in the order `SiaPolicy::schedule` runs them.
    fn phases(&mut self, s: &SolverStats) {
        let Some(id) = self.last_schedule.take() else {
            return;
        };
        let mut at = self.log.spans[id].start;
        for (name, dur) in [
            ("policy.refit", s.refit_s),
            ("policy.goodput", s.goodput_s),
            ("policy.build", s.build_s),
            ("solver.solve", s.solve_s),
            ("policy.placement", s.placement_s),
        ] {
            self.log.push(Span {
                name,
                start: at,
                end: at + dur,
                parent: Some(id),
                request: None,
                derived: true,
            });
            at += dur;
        }
    }
}

/// A `Scheduler` that delegates every call and times `schedule`.
pub struct Timed {
    inner: Box<dyn Scheduler>,
    probe: SharedProbe,
}

impl Timed {
    pub fn new(inner: Box<dyn Scheduler>, probe: SharedProbe) -> Self {
        Timed { inner, probe }
    }
}

impl Scheduler for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn round_duration(&self) -> f64 {
        self.inner.round_duration()
    }

    fn schedule(&mut self, now: f64, jobs: &[JobView<'_>], cluster: &ClusterView) -> AllocationMap {
        let start = with_tracer(&self.probe, |t| {
            t.settle();
            t.log.now()
        });
        let t0 = Instant::now();
        let map = self.inner.schedule(now, jobs, cluster);
        let host_s = t0.elapsed().as_secs_f64();
        let mut p = self.probe.borrow_mut();
        p.round_s.push(host_s);
        p.jobs.push(jobs.len());
        if let (Some(t), Some(start)) = (p.tracer.as_mut(), start) {
            t.schedule_span(start, start + host_s);
        }
        map
    }

    fn round_stats(&mut self) -> Option<SolverStats> {
        let stats = self.inner.round_stats();
        if let Some(s) = stats {
            let mut p = self.probe.borrow_mut();
            p.stats.push(s);
            if let Some(t) = p.tracer.as_mut() {
                t.phases(&s);
            }
        }
        stats
    }

    fn round_decisions(&mut self) -> Vec<DecisionInfo> {
        let decisions = self.inner.round_decisions();
        with_tracer(&self.probe, |t| {
            t.tail = Some(Tail {
                at: t.log.now(),
                parent: t.parent,
                apply0: hist_sum(&t.apply),
                execute0: hist_sum(&t.execute),
            });
        });
        decisions
    }

    fn gap_tolerance(&self) -> Option<f64> {
        self.inner.gap_tolerance()
    }

    fn export_state(&self) -> Option<serde_json::Value> {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &serde_json::Value) {
        self.inner.import_state(state)
    }
}

/// Counters and span-histogram sums the program already keeps. The
/// registry is global to the process, so a run's share is the difference
/// of two readings taken around it.
pub struct Telemetry {
    counters: Vec<u64>,
    sums: Vec<f64>,
}

const COUNTERS: [&str; 11] = [
    "events.fired",
    "engine.rounds",
    "policy.warm_start_invalidated",
    "policy.candidates",
    "matrix.rows_rebuilt",
    "matrix.rows_reused",
    "solver.milp.nodes",
    "solver.simplex.pivots",
    "dynamics.capacity_events",
    "baseline.pollux.rounds",
    "baseline.gavel.rounds",
];

const HISTOGRAMS: [&str; 12] = [
    "engine.execute",
    "engine.apply",
    "policy.schedule",
    "policy.refit",
    "policy.goodput",
    "policy.milp_build",
    "policy.shard_build",
    "policy.milp_solve",
    "policy.shard_solve",
    "placement.realize",
    "baseline.pollux.schedule",
    "baseline.gavel.schedule",
];

impl Telemetry {
    pub fn read() -> Self {
        Telemetry {
            counters: COUNTERS
                .iter()
                .map(|n| sia_telemetry::counter_value(n))
                .collect(),
            sums: HISTOGRAMS
                .iter()
                .map(|n| {
                    sia_telemetry::histogram_summary(n).map_or(0.0, |s| s.mean * s.count as f64)
                })
                .collect(),
        }
    }

    /// Growth of counter `name` since `before`.
    pub fn count_since(&self, before: &Telemetry, name: &str) -> f64 {
        let i = COUNTERS
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("counter {name} is not read"));
        (self.counters[i] - before.counters[i]) as f64
    }

    /// Seconds the spans named `name` added since `before`.
    pub fn seconds_since(&self, before: &Telemetry, name: &str) -> f64 {
        let i = HISTOGRAMS
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("histogram {name} is not read"));
        self.sums[i] - before.sums[i]
    }
}
