//! Decision-quality audit stream (`sia-audit`).
//!
//! Where [`crate::trace`] answers *what happened to job J and when*, this
//! module answers *how good were the scheduler's decisions*: a per-round
//! solver-quality record — proven optimality gap, branch-and-bound effort,
//! warm-start efficacy — plus per-job decision provenance: for every
//! allocation change, what the chosen configuration was worth, what the
//! job's best alternative was worth, and the regret delta between them.
//!
//! Two pieces on top of the generic [`Recorder`] and [`Stream`]:
//!
//! - [`AuditEvent`] — the event enum. [`AuditRecorder`] and
//!   [`AuditStream`] are the recorder and stream over it, attached to
//!   every `SimResult` next to the flight trace.
//! - [`AuditReport`] — the derived view: gap percentiles, worst-gap rounds,
//!   warm-start hit rate, and the per-job regret table. This is the engine
//!   room of `sia-cli audit`.
//!
//! ## Stream schema (one JSON object per line)
//!
//! Every record carries the [`crate::recorder`] envelope — `t` (simulated
//! seconds), `seq` (per-run emission sequence) and `ev` (the kind).
//! Kind-specific fields:
//!
//! ```json
//! {"ev":"meta","scheduler":"sia","round_s":60.0,"gap_tolerance":1e-9,"t":0.0,"seq":0}
//! {"ev":"round","round":3,"contention":5,"objective":41.7,"best_bound":41.7,
//!  "lp_objective":41.9,"gap_abs":0.0,"gap_rel":0.0,"outcome":"optimal",
//!  "nodes":7,"pruned":4,"first_incumbent_node":0,"first_incumbent_s":0.0,
//!  "seed_objective":41.5,"warm_pivots_saved":120,"solve_s":0.0008,"t":180.0,"seq":9}
//! {"ev":"decision","round":3,"job":2,"gpu_type":1,"gpus":4,"reason":"scaled-up",
//!  "chosen_value":0.92,"best_value":0.95,"regret":0.03,"t":180.0,"seq":10}
//! ```
//!
//! `gap_abs`/`gap_rel`/`regret` are derived fields, re-computed from their
//! operands on parse so a hand-edited stream cannot smuggle in an
//! inconsistent gap. `reason` reuses the flight recorder's
//! [`AllocReason`] labels so the two streams cross-reference directly.
//!
//! `round.solve_s` and `round.first_incumbent_s` are host wall-clock; the
//! canonical form ([`Stream::canonical_jsonl`]) zeroes them.
//! `tests/audit_tools.rs` pins the stream's byte identity across same-seed
//! runs.

use std::collections::BTreeMap;

use serde_json::{json, Value};

use crate::recorder::{Canonical, Record, Recorder, Stream};
use crate::trace::AllocReason;

/// One recorded audit event.
pub type AuditRecord = Record<AuditEvent>;
/// The per-run audit recorder: bounded ring plus optional JSONL spill.
pub type AuditRecorder = Recorder<AuditEvent>;
/// A recorded audit stream (the in-memory ring contents).
pub type AuditStream = Stream<AuditEvent>;

/// A typed audit event. Job ids are raw `JobId` values and GPU types are
/// indices into the flight trace's meta name table (the recorder sits below
/// `sia-cluster` in the crate graph, so it speaks plain integers).
#[derive(Debug, Clone, PartialEq)]
pub enum AuditEvent {
    /// Run header: which scheduler produced the stream, its round length,
    /// and the absolute gap at which its solver may stop proving
    /// optimality. Always the first record of a stream.
    Meta {
        /// Scheduler name (e.g. `"sia"`).
        scheduler: String,
        /// Scheduling round duration, seconds.
        round_duration: f64,
        /// The solver's `gap_tolerance`: rounds whose proven absolute gap
        /// is at or below this are optimal by construction.
        gap_tolerance: f64,
    },
    /// Solver-quality record for one scheduling round. Emitted only for
    /// rounds where the policy reported solver stats (baselines that track
    /// no solve produce meta-only streams).
    Round {
        /// Round index (0-based, counting rounds that ran a solve).
        round: u64,
        /// Jobs wanting resources this round.
        contention: usize,
        /// Objective of the returned assignment, when one exists.
        objective: Option<f64>,
        /// Proven relaxation bound on the optimum (`None` on fallback
        /// paths, where no bound exists).
        best_bound: Option<f64>,
        /// Root LP relaxation objective.
        lp_objective: Option<f64>,
        /// How the solve concluded (a `SolveOutcome` label: `optimal`,
        /// `feasible`, `lagrangian_fallback`, `greedy_fallback`, `empty`).
        outcome: String,
        /// Branch-and-bound nodes explored.
        nodes: usize,
        /// Nodes discarded because their bound could not beat the
        /// incumbent.
        pruned: usize,
        /// Node index of the first incumbent (0 = warm-start seed accepted
        /// before the search began).
        first_incumbent_node: Option<u64>,
        /// Wall-clock seconds to the first incumbent (host-dependent;
        /// canonicalization zeroes it).
        first_incumbent_s: Option<f64>,
        /// Objective of the accepted warm-start seed, if any — compare
        /// against `objective` for warm-start efficacy.
        seed_objective: Option<f64>,
        /// Estimated simplex pivots avoided by parent-basis reuse.
        warm_pivots_saved: usize,
        /// Wall-clock seconds inside the MILP/heuristic solve
        /// (host-dependent; canonicalization zeroes it).
        solve_s: f64,
        /// Shards solved by the decomposed path (0 = monolithic round).
        shards: u64,
        /// A node/time budget stopped at least one solve early; the round's
        /// answer is the anytime incumbent.
        budget_exhausted: bool,
        /// Subgradient iterations of the Lagrangian pricing pass (0 when no
        /// pricing ran).
        lagrangian_iters: u64,
        /// Final absolute duality gap of the pricing pass.
        lagrangian_gap: f64,
        /// Euclidean norm of the final Lagrangian multipliers.
        lagrangian_norm: f64,
    },
    /// Decision provenance for one allocation change: what the job got,
    /// what its best alternative was worth, and why the change happened.
    Decision {
        /// Round index the decision belongs to.
        round: u64,
        /// Job id.
        job: u64,
        /// New GPU type index (`None` when the job now holds nothing).
        gpu_type: Option<usize>,
        /// New GPU count (0 when the job now holds nothing).
        gpus: usize,
        /// Why the allocation changed (flight-trace label set).
        reason: AllocReason,
        /// Value of the chosen configuration in the policy's candidate
        /// units (normalized goodput for Sia; 0.0 when unallocated).
        chosen_value: f64,
        /// Best value among all configurations offered for this job alone.
        best_value: f64,
    },
    /// Admission-control outcome for one submission or cancellation
    /// (serve mode): which tenant asked, whether the request was accepted,
    /// and the typed reason when it was not.
    Admission {
        /// Job id the request concerned.
        job: u64,
        /// Tenant that submitted the request.
        tenant: String,
        /// Whether the request passed admission control.
        accepted: bool,
        /// Typed outcome label (e.g. `accepted`, `quota-exceeded`,
        /// `queue-full`, `invalid-spec`, `cancelled`).
        reason: String,
        /// Signed GPU-hours charged against the tenant's quota (negative
        /// for a cancellation refund, 0 for rejections).
        charge_gpu_hours: f64,
    },
}

impl Canonical for AuditEvent {
    fn kind(&self) -> &'static str {
        match self {
            AuditEvent::Meta { .. } => "meta",
            AuditEvent::Round { .. } => "round",
            AuditEvent::Decision { .. } => "decision",
            AuditEvent::Admission { .. } => "admission",
        }
    }

    fn job(&self) -> Option<u64> {
        match self {
            AuditEvent::Decision { job, .. } | AuditEvent::Admission { job, .. } => Some(*job),
            AuditEvent::Meta { .. } | AuditEvent::Round { .. } => None,
        }
    }

    /// Canonical same-timestamp ordering class: header, then the round's
    /// solver record, then its decisions (by job), then admission outcomes.
    fn rank(&self) -> u8 {
        match self {
            AuditEvent::Meta { .. } => 0,
            AuditEvent::Round { .. } => 1,
            AuditEvent::Decision { .. } => 2,
            AuditEvent::Admission { .. } => 3,
        }
    }

    /// Includes the derived `gap_abs`, `gap_rel` and `regret` fields.
    fn payload(&self) -> Value {
        let opt = |x: Option<f64>| match x {
            Some(v) => json!(v),
            None => Value::Null,
        };
        match self {
            AuditEvent::Meta {
                scheduler,
                round_duration,
                gap_tolerance,
            } => json!({
                "scheduler": scheduler,
                "round_s": *round_duration,
                "gap_tolerance": *gap_tolerance,
            }),
            AuditEvent::Round {
                round,
                contention,
                objective,
                best_bound,
                lp_objective,
                outcome,
                nodes,
                pruned,
                first_incumbent_node,
                first_incumbent_s,
                seed_objective,
                warm_pivots_saved,
                solve_s,
                shards,
                budget_exhausted,
                lagrangian_iters,
                lagrangian_gap,
                lagrangian_norm,
            } => json!({
                "round": *round,
                "contention": *contention as u64,
                "objective": opt(*objective),
                "best_bound": opt(*best_bound),
                "lp_objective": opt(*lp_objective),
                "gap_abs": opt(self.gap_abs()),
                "gap_rel": opt(self.gap_rel()),
                "outcome": outcome,
                "nodes": *nodes as u64,
                "pruned": *pruned as u64,
                "first_incumbent_node": match first_incumbent_node {
                    Some(n) => json!(*n),
                    None => Value::Null,
                },
                "first_incumbent_s": opt(*first_incumbent_s),
                "seed_objective": opt(*seed_objective),
                "warm_pivots_saved": *warm_pivots_saved as u64,
                "solve_s": *solve_s,
                "shards": *shards,
                "budget_exhausted": *budget_exhausted,
                "lagrangian_iters": *lagrangian_iters,
                "lagrangian_gap": *lagrangian_gap,
                "lagrangian_norm": *lagrangian_norm,
            }),
            AuditEvent::Decision {
                round,
                job,
                gpu_type,
                gpus,
                reason,
                chosen_value,
                best_value,
            } => json!({
                "round": *round,
                "job": *job,
                "gpu_type": match gpu_type { Some(t) => json!(*t as u64), None => Value::Null },
                "gpus": *gpus as u64,
                "reason": reason.label(),
                "chosen_value": *chosen_value,
                "best_value": *best_value,
                "regret": opt(self.regret()),
            }),
            AuditEvent::Admission {
                job,
                tenant,
                accepted,
                reason,
                charge_gpu_hours,
            } => json!({
                "job": *job,
                "tenant": tenant,
                "accepted": *accepted,
                "reason": reason,
                "charge_gpu_hours": *charge_gpu_hours,
            }),
        }
    }

    /// Ignores the derived fields: they are recomputed from their operands.
    fn from_payload(kind: &str, v: &Value) -> Result<Self, String> {
        let req_u64 = |field: &str| -> Result<u64, String> {
            v.get(field)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{kind} record missing \"{field}\""))
        };
        let opt_f64 = |field: &str| v.get(field).and_then(Value::as_f64);
        Ok(match kind {
            "meta" => AuditEvent::Meta {
                scheduler: v
                    .get("scheduler")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
                round_duration: opt_f64("round_s").unwrap_or(60.0),
                gap_tolerance: opt_f64("gap_tolerance").unwrap_or(0.0),
            },
            "round" => AuditEvent::Round {
                round: req_u64("round")?,
                contention: req_u64("contention")? as usize,
                objective: opt_f64("objective"),
                best_bound: opt_f64("best_bound"),
                lp_objective: opt_f64("lp_objective"),
                outcome: v
                    .get("outcome")
                    .and_then(Value::as_str)
                    .ok_or("round record missing \"outcome\"")?
                    .to_string(),
                nodes: req_u64("nodes")? as usize,
                pruned: req_u64("pruned")? as usize,
                first_incumbent_node: v.get("first_incumbent_node").and_then(Value::as_u64),
                first_incumbent_s: opt_f64("first_incumbent_s"),
                seed_objective: opt_f64("seed_objective"),
                warm_pivots_saved: req_u64("warm_pivots_saved")? as usize,
                solve_s: opt_f64("solve_s").unwrap_or(0.0),
                // Sharding fields default to "monolithic round" so streams
                // recorded before the decomposed path still parse.
                shards: v.get("shards").and_then(Value::as_u64).unwrap_or(0),
                budget_exhausted: v
                    .get("budget_exhausted")
                    .and_then(Value::as_bool)
                    .unwrap_or(false),
                lagrangian_iters: v
                    .get("lagrangian_iters")
                    .and_then(Value::as_u64)
                    .unwrap_or(0),
                lagrangian_gap: opt_f64("lagrangian_gap").unwrap_or(0.0),
                lagrangian_norm: opt_f64("lagrangian_norm").unwrap_or(0.0),
            },
            "decision" => AuditEvent::Decision {
                round: req_u64("round")?,
                job: req_u64("job")?,
                gpu_type: v
                    .get("gpu_type")
                    .and_then(Value::as_u64)
                    .map(|t| t as usize),
                gpus: req_u64("gpus")? as usize,
                reason: v
                    .get("reason")
                    .and_then(Value::as_str)
                    .and_then(AllocReason::parse)
                    .ok_or("decision record has unknown \"reason\"")?,
                chosen_value: opt_f64("chosen_value").unwrap_or(0.0),
                best_value: opt_f64("best_value").unwrap_or(0.0),
            },
            "admission" => AuditEvent::Admission {
                job: req_u64("job")?,
                tenant: v
                    .get("tenant")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
                accepted: v
                    .get("accepted")
                    .and_then(Value::as_bool)
                    .ok_or("admission record missing \"accepted\"")?,
                reason: v
                    .get("reason")
                    .and_then(Value::as_str)
                    .ok_or("admission record missing \"reason\"")?
                    .to_string(),
                charge_gpu_hours: opt_f64("charge_gpu_hours").unwrap_or(0.0),
            },
            other => return Err(format!("unknown record kind {other:?}")),
        })
    }

    fn zero_wall_clock(&mut self) {
        if let AuditEvent::Round {
            solve_s,
            first_incumbent_s,
            ..
        } = self
        {
            *solve_s = 0.0;
            *first_incumbent_s = first_incumbent_s.map(|_| 0.0);
        }
    }
}

impl AuditEvent {
    /// Proven absolute gap of a round record: `best_bound − objective`,
    /// clamped at zero. `None` for non-round records or fallback rounds.
    pub fn gap_abs(&self) -> Option<f64> {
        match self {
            AuditEvent::Round {
                objective: Some(o),
                best_bound: Some(b),
                ..
            } => Some((b - o).max(0.0)),
            _ => None,
        }
    }

    /// Proven relative gap: `gap_abs / max(|best_bound|, 1e-12)`.
    pub fn gap_rel(&self) -> Option<f64> {
        match self {
            AuditEvent::Round {
                best_bound: Some(b),
                ..
            } => self.gap_abs().map(|g| g / b.abs().max(1e-12)),
            _ => None,
        }
    }

    /// Regret of a decision record: `best_value − chosen_value`, clamped
    /// at zero.
    pub fn regret(&self) -> Option<f64> {
        match self {
            AuditEvent::Decision {
                chosen_value,
                best_value,
                ..
            } => Some((best_value - chosen_value).max(0.0)),
            _ => None,
        }
    }
}

impl Stream<AuditEvent> {
    /// The solver's gap tolerance from the meta record, if present.
    pub fn gap_tolerance(&self) -> Option<f64> {
        for r in &self.records {
            if let AuditEvent::Meta { gap_tolerance, .. } = &r.ev {
                return Some(*gap_tolerance);
            }
        }
        None
    }

    /// Derives the analysis report from the stream.
    pub fn report(&self) -> AuditReport {
        let mut scheduler = String::new();
        let mut gap_tolerance = 0.0;
        let mut rounds = 0u64;
        let mut solved_rounds = 0u64;
        let mut proven_rounds = 0u64;
        let mut fallback_rounds = 0u64;
        let mut warm_seeded_rounds = 0u64;
        let mut total_nodes = 0u64;
        let mut total_pruned = 0u64;
        let mut sharded_rounds = 0u64;
        let mut budget_exhausted_rounds = 0u64;
        let mut total_shards = 0u64;
        let mut total_lagrangian_iters = 0u64;
        let mut last_lagrangian_gap = 0.0f64;
        let mut abs_gaps = Vec::new();
        let mut rel_gaps = Vec::new();
        let mut gapped: Vec<WorstRound> = Vec::new();
        let mut jobs: BTreeMap<u64, JobRegret> = BTreeMap::new();
        let mut decisions = 0u64;
        let mut total_regret = 0.0;
        let mut admission_requests = 0u64;
        let mut admission_rejections = 0u64;

        for r in &self.records {
            match &r.ev {
                AuditEvent::Meta {
                    scheduler: s,
                    gap_tolerance: g,
                    ..
                } => {
                    scheduler = s.clone();
                    gap_tolerance = *g;
                }
                AuditEvent::Round {
                    round,
                    outcome,
                    nodes,
                    pruned,
                    seed_objective,
                    shards,
                    budget_exhausted,
                    lagrangian_iters,
                    lagrangian_gap,
                    ..
                } => {
                    rounds += 1;
                    total_nodes += *nodes as u64;
                    total_pruned += *pruned as u64;
                    if *shards > 0 {
                        sharded_rounds += 1;
                        total_shards += *shards;
                    }
                    if *budget_exhausted {
                        budget_exhausted_rounds += 1;
                    }
                    if *lagrangian_iters > 0 {
                        total_lagrangian_iters += *lagrangian_iters;
                        last_lagrangian_gap = *lagrangian_gap;
                    }
                    if outcome == "optimal" {
                        proven_rounds += 1;
                    }
                    if outcome.ends_with("_fallback") {
                        fallback_rounds += 1;
                    }
                    if seed_objective.is_some() {
                        warm_seeded_rounds += 1;
                    }
                    if let (Some(abs), Some(rel)) = (r.ev.gap_abs(), r.ev.gap_rel()) {
                        solved_rounds += 1;
                        abs_gaps.push(abs);
                        rel_gaps.push(rel);
                        gapped.push(WorstRound {
                            round: *round,
                            t: r.t,
                            abs_gap: abs,
                            rel_gap: rel,
                        });
                    }
                }
                AuditEvent::Decision { job, reason, .. } => {
                    decisions += 1;
                    let regret = r.ev.regret().unwrap_or(0.0);
                    total_regret += regret;
                    let entry = jobs.entry(*job).or_insert_with(|| JobRegret {
                        job: *job,
                        decisions: 0,
                        total_regret: 0.0,
                        max_regret: 0.0,
                        fallback_decisions: 0,
                    });
                    entry.decisions += 1;
                    entry.total_regret += regret;
                    entry.max_regret = entry.max_regret.max(regret);
                    if *reason == AllocReason::IlpInfeasibleFallback {
                        entry.fallback_decisions += 1;
                    }
                }
                AuditEvent::Admission { accepted, .. } => {
                    admission_requests += 1;
                    if !accepted {
                        admission_rejections += 1;
                    }
                }
            }
        }

        gapped.sort_by(|a, b| b.rel_gap.total_cmp(&a.rel_gap).then(a.round.cmp(&b.round)));
        gapped.truncate(5);
        abs_gaps.sort_by(f64::total_cmp);
        rel_gaps.sort_by(f64::total_cmp);

        AuditReport {
            scheduler,
            gap_tolerance,
            rounds,
            solved_rounds,
            proven_rounds,
            fallback_rounds,
            warm_seeded_rounds,
            median_abs_gap: percentile_sorted(&abs_gaps, 0.5),
            max_abs_gap: abs_gaps.last().copied().unwrap_or(0.0),
            median_rel_gap: percentile_sorted(&rel_gaps, 0.5),
            p90_rel_gap: percentile_sorted(&rel_gaps, 0.9),
            max_rel_gap: rel_gaps.last().copied().unwrap_or(0.0),
            worst_rounds: gapped,
            total_nodes,
            total_pruned,
            sharded_rounds,
            budget_exhausted_rounds,
            mean_shards: if sharded_rounds > 0 {
                total_shards as f64 / sharded_rounds as f64
            } else {
                0.0
            },
            total_lagrangian_iters,
            last_lagrangian_gap,
            decisions,
            total_regret,
            admission_requests,
            admission_rejections,
            jobs: jobs.into_values().collect(),
            dropped: self.dropped,
        }
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice.
fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }
}

/// One entry of the worst-gap table: a round whose proven gap was largest.
#[derive(Debug, Clone, PartialEq)]
pub struct WorstRound {
    /// Round index.
    pub round: u64,
    /// Round start time, simulated seconds.
    pub t: f64,
    /// Proven absolute gap.
    pub abs_gap: f64,
    /// Proven relative gap.
    pub rel_gap: f64,
}

/// Per-job regret accumulated over a run's allocation changes.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRegret {
    /// Job id.
    pub job: u64,
    /// Decision records for this job.
    pub decisions: u64,
    /// Sum of `best_value − chosen_value` across those decisions.
    pub total_regret: f64,
    /// Largest single-decision regret.
    pub max_regret: f64,
    /// Decisions made by a fallback heuristic rather than the exact ILP.
    pub fallback_decisions: u64,
}

/// The derived analysis view over one audit stream.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Scheduler name from the meta record.
    pub scheduler: String,
    /// Solver gap tolerance from the meta record.
    pub gap_tolerance: f64,
    /// Round records observed.
    pub rounds: u64,
    /// Rounds carrying both an objective and a proven bound.
    pub solved_rounds: u64,
    /// Rounds whose solve proved optimality.
    pub proven_rounds: u64,
    /// Rounds answered by a fallback heuristic.
    pub fallback_rounds: u64,
    /// Rounds where the previous allocation seeded the incumbent.
    pub warm_seeded_rounds: u64,
    /// Median proven absolute gap over solved rounds.
    pub median_abs_gap: f64,
    /// Largest proven absolute gap.
    pub max_abs_gap: f64,
    /// Median proven relative gap over solved rounds.
    pub median_rel_gap: f64,
    /// 90th-percentile proven relative gap.
    pub p90_rel_gap: f64,
    /// Largest proven relative gap.
    pub max_rel_gap: f64,
    /// Up to five rounds with the largest relative gaps, worst first.
    pub worst_rounds: Vec<WorstRound>,
    /// Branch-and-bound nodes explored across all rounds.
    pub total_nodes: u64,
    /// Nodes pruned across all rounds.
    pub total_pruned: u64,
    /// Rounds solved by the sharded decomposition path.
    pub sharded_rounds: u64,
    /// Rounds where the per-round time budget expired before the solve
    /// proved optimality (the anytime incumbent was returned instead).
    pub budget_exhausted_rounds: u64,
    /// Mean shard count over sharded rounds (0 when none were sharded).
    pub mean_shards: f64,
    /// Lagrangian pricing iterations summed across all rounds.
    pub total_lagrangian_iters: u64,
    /// Duality gap reported by the most recent round that ran the
    /// Lagrangian pricing pass.
    pub last_lagrangian_gap: f64,
    /// Decision records observed.
    pub decisions: u64,
    /// Sum of regret across all decisions.
    pub total_regret: f64,
    /// Admission records observed (serve mode; 0 for batch runs).
    pub admission_requests: u64,
    /// Admission records that rejected the request.
    pub admission_rejections: u64,
    /// Per-job regret table, sorted by job id.
    pub jobs: Vec<JobRegret>,
    /// Ring-buffer drops in the source stream (the report is partial if
    /// nonzero and the stream didn't come from a spill file).
    pub dropped: u64,
}

impl AuditReport {
    /// Fraction of solved rounds whose warm-start seed was accepted.
    pub fn warm_hit_rate(&self) -> f64 {
        if self.rounds == 0 {
            return 0.0;
        }
        self.warm_seeded_rounds as f64 / self.rounds as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stream() -> AuditStream {
        let mut rec = AuditRecorder::new(1024);
        rec.record(
            0.0,
            AuditEvent::Meta {
                scheduler: "sia".into(),
                round_duration: 60.0,
                gap_tolerance: 1e-9,
            },
        );
        rec.record(
            0.0,
            AuditEvent::Round {
                round: 0,
                contention: 2,
                objective: Some(10.0),
                best_bound: Some(10.0),
                lp_objective: Some(10.4),
                outcome: "optimal".into(),
                nodes: 3,
                pruned: 2,
                first_incumbent_node: Some(1),
                first_incumbent_s: Some(0.0004),
                seed_objective: None,
                warm_pivots_saved: 0,
                solve_s: 0.001,
                shards: 0,
                budget_exhausted: false,
                lagrangian_iters: 0,
                lagrangian_gap: 0.0,
                lagrangian_norm: 0.0,
            },
        );
        rec.record(
            0.0,
            AuditEvent::Decision {
                round: 0,
                job: 1,
                gpu_type: Some(1),
                gpus: 4,
                reason: AllocReason::Started,
                chosen_value: 0.9,
                best_value: 0.9,
            },
        );
        rec.record(
            0.0,
            AuditEvent::Decision {
                round: 0,
                job: 0,
                gpu_type: Some(0),
                gpus: 1,
                reason: AllocReason::Started,
                chosen_value: 0.5,
                best_value: 0.8,
            },
        );
        rec.record(
            60.0,
            AuditEvent::Round {
                round: 1,
                contention: 2,
                objective: Some(11.0),
                best_bound: Some(11.5),
                lp_objective: Some(11.6),
                outcome: "feasible".into(),
                nodes: 9,
                pruned: 1,
                first_incumbent_node: Some(0),
                first_incumbent_s: Some(0.0),
                seed_objective: Some(10.0),
                warm_pivots_saved: 40,
                solve_s: 0.002,
                shards: 4,
                budget_exhausted: true,
                lagrangian_iters: 120,
                lagrangian_gap: 0.5,
                lagrangian_norm: 1.25,
            },
        );
        rec.record(
            60.0,
            AuditEvent::Decision {
                round: 1,
                job: 0,
                gpu_type: None,
                gpus: 0,
                reason: AllocReason::Preempted,
                chosen_value: 0.0,
                best_value: 0.8,
            },
        );
        rec.into_stream()
    }

    #[test]
    fn jsonl_round_trips() {
        let stream = sample_stream();
        let text = stream.to_jsonl();
        let parsed = AuditStream::parse_jsonl(&text).unwrap();
        assert_eq!(parsed.records, stream.records);
        assert_eq!(parsed.to_jsonl(), text);
    }

    #[test]
    fn canonical_is_stable_and_zeroes_wall_clock() {
        let stream = sample_stream();
        let mut shuffled = stream.clone();
        shuffled.records.reverse();
        for (i, r) in shuffled.records.iter_mut().enumerate() {
            r.seq = i as u64;
        }
        assert_eq!(stream.canonical_jsonl(), shuffled.canonical_jsonl());
        let canon = stream.canonical_jsonl();
        assert!(
            !canon.contains("0.001") && !canon.contains("0.0004"),
            "canonical form must zero solve_s and first_incumbent_s"
        );
        // Decisions at the same instant sort by job id.
        let decision_jobs: Vec<u64> = AuditStream::parse_jsonl(&canon)
            .unwrap()
            .records
            .iter()
            .filter_map(|r| r.ev.job())
            .collect();
        assert_eq!(decision_jobs, vec![0, 1, 0]);
    }

    #[test]
    fn derived_fields_are_recomputed_on_parse() {
        let stream = sample_stream();
        let mut text = String::new();
        for r in &stream.records {
            let mut v = r.to_value();
            if let Value::Object(m) = &mut v {
                // Tamper with the derived fields; parsing must ignore them.
                if m.contains_key("gap_abs") {
                    m.insert("gap_abs".into(), json!(999.0));
                }
                if m.contains_key("regret") {
                    m.insert("regret".into(), json!(999.0));
                }
            }
            text.push_str(&v.to_string());
            text.push('\n');
        }
        let parsed = AuditStream::parse_jsonl(&text).unwrap();
        assert_eq!(parsed.records, stream.records);
        assert_eq!(parsed.records[1].ev.gap_abs(), Some(0.0));
    }

    #[test]
    fn report_aggregates_gaps_and_regret() {
        let report = sample_stream().report();
        assert_eq!(report.scheduler, "sia");
        assert_eq!(report.rounds, 2);
        assert_eq!(report.solved_rounds, 2);
        assert_eq!(report.proven_rounds, 1);
        assert_eq!(report.warm_seeded_rounds, 1);
        assert!((report.warm_hit_rate() - 0.5).abs() < 1e-12);
        // Gaps: round 0 → 0.0; round 1 → 0.5 abs, 0.5/11.5 rel.
        assert!((report.max_abs_gap - 0.5).abs() < 1e-12);
        assert!((report.max_rel_gap - 0.5 / 11.5).abs() < 1e-12);
        assert!((report.median_abs_gap - 0.25).abs() < 1e-12);
        assert_eq!(report.worst_rounds[0].round, 1);
        // Regret: job 0 has 0.3 + 0.8, job 1 has 0.0.
        assert_eq!(report.decisions, 3);
        assert!((report.total_regret - 1.1).abs() < 1e-12);
        let j0 = &report.jobs[0];
        assert_eq!(j0.job, 0);
        assert_eq!(j0.decisions, 2);
        assert!((j0.total_regret - 1.1).abs() < 1e-12);
        assert!((j0.max_regret - 0.8).abs() < 1e-12);
    }

    #[test]
    fn admission_round_trips_and_reports() {
        let mut rec = AuditRecorder::new(64);
        rec.record(
            0.0,
            AuditEvent::Admission {
                job: 5,
                tenant: "acme".into(),
                accepted: true,
                reason: "accepted".into(),
                charge_gpu_hours: 12.5,
            },
        );
        rec.record(
            0.0,
            AuditEvent::Admission {
                job: 6,
                tenant: "zero".into(),
                accepted: false,
                reason: "quota-exceeded".into(),
                charge_gpu_hours: 0.0,
            },
        );
        let stream = rec.into_stream();
        let parsed = AuditStream::parse_jsonl(&stream.to_jsonl()).unwrap();
        assert_eq!(parsed.records, stream.records);
        let report = stream.report();
        assert_eq!(report.admission_requests, 2);
        assert_eq!(report.admission_rejections, 1);
    }
}
