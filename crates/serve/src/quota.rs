//! Admission control: the pluggable stage pipeline and the per-tenant
//! GPU-hour quota ledger.
//!
//! A submission passes every [`AdmissionStage`] in order before it reaches
//! the scheduler; the first failing stage rejects it with a typed reason
//! that lands in the response line and the audit stream. The built-in
//! pipeline is schema validation ([`SchemaStage`]) followed by quota and
//! queue-depth control ([`QuotaStage`]); embedders can splice in their own
//! stages.

use std::collections::BTreeMap;

use serde_json::{json, Value};
use sia_cluster::ClusterView;
use sia_workloads::{Adaptivity, JobSpec};

/// Typed rejection: which stage refused and a stable reason label
/// (`invalid-spec`, `duplicate-id`, `unschedulable`, `queue-full`,
/// `zero-quota`, `quota-exceeded`), optionally followed by `: detail`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Name of the stage that refused.
    pub stage: &'static str,
    /// Stable reason label, optionally `label: detail`.
    pub reason: String,
}

impl Rejection {
    fn new(stage: &'static str, reason: impl Into<String>) -> Self {
        Rejection {
            stage,
            reason: reason.into(),
        }
    }

    /// The reason's stable label (everything before the first `:`).
    pub fn label(&self) -> &str {
        self.reason.split(':').next().unwrap_or(&self.reason)
    }
}

/// What an admission stage gets to look at.
#[derive(Debug)]
pub struct AdmissionContext<'a> {
    /// The job being admitted.
    pub job: &'a JobSpec,
    /// Tenant submitting it.
    pub tenant: &'a str,
    /// GPU-hours the tenant would be charged.
    pub charge_gpu_hours: f64,
    /// Jobs currently waiting for admission at a round boundary.
    pub pending: usize,
    /// True when the submitted job id is already taken.
    pub duplicate_id: bool,
    /// The capacity the scheduler places jobs on.
    pub cluster: &'a ClusterView,
}

/// One stage of the admission pipeline.
pub trait AdmissionStage {
    /// Stage name (reported in rejections and the audit stream).
    fn name(&self) -> &'static str;
    /// Checks one submission; `Err` rejects it with a typed reason.
    fn check(&self, ctx: &AdmissionContext<'_>, ledger: &QuotaLedger) -> Result<(), Rejection>;
}

/// Schema validation: the spec must be internally consistent, a pinned
/// batch size finite and positive, and its minimum (or, for a rigid job,
/// pinned) GPU count must fit on one GPU type of the cluster, before any
/// resource accounting happens.
#[derive(Debug, Default)]
pub struct SchemaStage;

impl AdmissionStage for SchemaStage {
    fn name(&self) -> &'static str {
        "schema"
    }

    fn check(&self, ctx: &AdmissionContext<'_>, _ledger: &QuotaLedger) -> Result<(), Rejection> {
        if ctx.duplicate_id {
            return Err(Rejection::new(
                self.name(),
                format!("duplicate-id: job {} already exists", ctx.job.id),
            ));
        }
        let j = ctx.job;
        if j.min_gpus == 0 {
            return Err(Rejection::new(
                self.name(),
                "invalid-spec: min_gpus must be >= 1",
            ));
        }
        if j.max_gpus < j.min_gpus {
            return Err(Rejection::new(
                self.name(),
                "invalid-spec: max_gpus must be >= min_gpus",
            ));
        }
        if !j.work_target.is_finite() || j.work_target <= 0.0 {
            return Err(Rejection::new(
                self.name(),
                "invalid-spec: work_target must be finite and positive",
            ));
        }
        if !j.submit_time.is_finite() || j.submit_time < 0.0 {
            return Err(Rejection::new(
                self.name(),
                "invalid-spec: submit_time must be finite and non-negative",
            ));
        }
        // The models layer asserts on a pinned batch it cannot run.
        let (batch, rigid_gpus) = match j.adaptivity {
            Adaptivity::Adaptive => (None, None),
            Adaptivity::StrongScaling { batch_size } => (Some(batch_size), None),
            Adaptivity::Rigid {
                batch_size,
                num_gpus,
            } => (Some(batch_size), Some(num_gpus)),
        };
        if batch.is_some_and(|b| !b.is_finite() || b <= 0.0) {
            return Err(Rejection::new(
                self.name(),
                "invalid-spec: batch_size must be finite and positive",
            ));
        }
        if rigid_gpus == Some(0) {
            return Err(Rejection::new(
                self.name(),
                "invalid-spec: num_gpus must be >= 1",
            ));
        }
        // Placements never mix GPU types, so a job larger than every type's
        // active capacity would wait forever.
        let cluster = ctx.cluster;
        let largest = cluster
            .gpu_types()
            .map(|t| cluster.gpus_of_type(t))
            .max()
            .unwrap_or(0);
        for (field, gpus) in [("min_gpus", Some(j.min_gpus)), ("num_gpus", rigid_gpus)] {
            if let Some(gpus) = gpus.filter(|&g| g > largest) {
                return Err(Rejection::new(
                    self.name(),
                    format!(
                        "unschedulable: {field} {gpus} exceeds the largest GPU type ({largest} active GPUs)"
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// Quota and queue-depth control: the tenant must have GPU-hour headroom
/// and the admission queue must not exceed its bound.
#[derive(Debug, Default)]
pub struct QuotaStage {
    /// Upper bound on jobs waiting for admission; `None` disables the
    /// check.
    pub max_pending: Option<usize>,
}

impl AdmissionStage for QuotaStage {
    fn name(&self) -> &'static str {
        "quota"
    }

    fn check(&self, ctx: &AdmissionContext<'_>, ledger: &QuotaLedger) -> Result<(), Rejection> {
        if let Some(cap) = self.max_pending {
            if ctx.pending >= cap {
                return Err(Rejection::new(
                    self.name(),
                    format!(
                        "queue-full: {} submissions already pending (cap {cap})",
                        ctx.pending
                    ),
                ));
            }
        }
        ledger
            .check(ctx.tenant, ctx.charge_gpu_hours)
            .map_err(|reason| Rejection::new(self.name(), reason))
    }
}

/// Per-tenant GPU-hour accounting.
///
/// A tenant's quota is the total GPU-hours it may have *committed*
/// (admitted and not refunded) at any instant. Admission is
/// boundary-inclusive: a charge that lands exactly on the quota is
/// accepted; the first hour past it is not. A quota of zero bars the
/// tenant outright (`zero-quota`), and cancellations refund the job's
/// full charge.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuotaLedger {
    /// GPU-hour quota applied to tenants without an explicit entry;
    /// `None` = unlimited.
    default_quota: Option<f64>,
    /// Per-tenant quota overrides.
    quotas: BTreeMap<String, f64>,
    /// GPU-hours currently committed per tenant.
    committed: BTreeMap<String, f64>,
}

impl QuotaLedger {
    /// Creates a ledger where unlisted tenants get `default_quota`
    /// (`None` = unlimited).
    pub fn new(default_quota: Option<f64>) -> Self {
        QuotaLedger {
            default_quota,
            ..QuotaLedger::default()
        }
    }

    /// Sets one tenant's quota, replacing any previous value.
    pub fn set_quota(&mut self, tenant: impl Into<String>, gpu_hours: f64) {
        self.quotas.insert(tenant.into(), gpu_hours);
    }

    /// The quota governing `tenant` (`None` = unlimited).
    pub fn quota(&self, tenant: &str) -> Option<f64> {
        self.quotas.get(tenant).copied().or(self.default_quota)
    }

    /// GPU-hours currently committed by `tenant`.
    pub fn committed(&self, tenant: &str) -> f64 {
        self.committed.get(tenant).copied().unwrap_or(0.0)
    }

    /// Every tenant the ledger knows about (explicit quota or committed
    /// hours), sorted and deduplicated — the iteration key of per-tenant
    /// metric gauges.
    pub fn tenants(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .quotas
            .keys()
            .chain(self.committed.keys())
            .cloned()
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Read-only admission check: would charging `tenant` `gpu_hours`
    /// respect its quota? Returns the typed reason on refusal.
    pub fn check(&self, tenant: &str, gpu_hours: f64) -> Result<(), String> {
        let Some(quota) = self.quota(tenant) else {
            return Ok(());
        };
        if quota <= 0.0 {
            return Err(format!(
                "zero-quota: tenant {tenant:?} has no GPU-hour quota"
            ));
        }
        let committed = self.committed(tenant);
        if committed + gpu_hours <= quota {
            Ok(())
        } else {
            Err(format!(
                "quota-exceeded: tenant {tenant:?} committed {committed} + {gpu_hours} > quota {quota} GPU-hours"
            ))
        }
    }

    /// Commits a charge (call after every stage accepted).
    pub fn charge(&mut self, tenant: &str, gpu_hours: f64) {
        *self.committed.entry(tenant.to_string()).or_insert(0.0) += gpu_hours;
    }

    /// Refunds a previously committed charge (cancellation). Clamped at
    /// zero so double refunds cannot mint headroom.
    pub fn refund(&mut self, tenant: &str, gpu_hours: f64) {
        if let Some(c) = self.committed.get_mut(tenant) {
            *c = (*c - gpu_hours).max(0.0);
        }
    }

    /// Serializes the ledger for a daemon snapshot.
    pub fn to_json(&self) -> Value {
        let null_or = |q: Option<f64>| q.map(Value::Float).unwrap_or(Value::Null);
        json!({
            "default_quota": null_or(self.default_quota),
            "quotas": Value::Object(
                self.quotas.iter().map(|(k, &v)| (k.clone(), Value::Float(v))).collect()
            ),
            "committed": Value::Object(
                self.committed.iter().map(|(k, &v)| (k.clone(), Value::Float(v))).collect()
            ),
        })
    }

    /// Rebuilds a ledger from [`QuotaLedger::to_json`].
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let map_of = |name: &str| -> Result<BTreeMap<String, f64>, String> {
            v.get(name)
                .and_then(Value::as_object)
                .ok_or_else(|| format!("ledger: missing {name}"))?
                .iter()
                .map(|(k, val)| {
                    val.as_f64()
                        .map(|f| (k.clone(), f))
                        .ok_or_else(|| format!("ledger: bad entry for {k:?} in {name}"))
                })
                .collect()
        };
        let default_quota = match v.get("default_quota") {
            None | Some(Value::Null) => None,
            Some(q) => Some(q.as_f64().ok_or("ledger: bad default_quota")?),
        };
        Ok(QuotaLedger {
            default_quota,
            quotas: map_of("quotas")?,
            committed: map_of("committed")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_is_inclusive() {
        let mut ledger = QuotaLedger::new(Some(100.0));
        ledger.charge("acme", 60.0);
        // Exactly at the boundary: admitted.
        assert!(ledger.check("acme", 40.0).is_ok());
        ledger.charge("acme", 40.0);
        // One more hour: refused with the typed label.
        let err = ledger.check("acme", 1.0).unwrap_err();
        assert!(err.starts_with("quota-exceeded"), "got: {err}");
    }

    #[test]
    fn zero_quota_bars_tenant() {
        let mut ledger = QuotaLedger::new(None);
        ledger.set_quota("interns", 0.0);
        let err = ledger.check("interns", 0.0).unwrap_err();
        assert!(err.starts_with("zero-quota"), "got: {err}");
        // Unlimited default still applies to everyone else.
        assert!(ledger.check("staff", 1e9).is_ok());
    }

    #[test]
    fn refund_restores_headroom_and_clamps() {
        let mut ledger = QuotaLedger::new(Some(50.0));
        ledger.charge("acme", 50.0);
        assert!(ledger.check("acme", 10.0).is_err());
        ledger.refund("acme", 50.0);
        assert!(ledger.check("acme", 50.0).is_ok());
        // Double refund cannot go negative.
        ledger.refund("acme", 50.0);
        assert_eq!(ledger.committed("acme"), 0.0);
    }

    #[test]
    fn ledger_round_trips_through_json() {
        let mut ledger = QuotaLedger::new(Some(100.0));
        ledger.set_quota("a", 10.0);
        ledger.set_quota("b", 0.0);
        ledger.charge("a", 4.5);
        let back = QuotaLedger::from_json(&ledger.to_json()).unwrap();
        assert_eq!(ledger, back);
        let unlimited = QuotaLedger::new(None);
        assert_eq!(
            QuotaLedger::from_json(&unlimited.to_json()).unwrap(),
            unlimited
        );
    }

    #[test]
    fn rejection_label_strips_detail() {
        let r = Rejection::new("quota", "queue-full: 5 pending (cap 5)");
        assert_eq!(r.label(), "queue-full");
    }

    #[test]
    fn schema_rejects_pinned_shapes_no_round_can_run() {
        use sia_workloads::{Trace, TraceConfig, TraceKind};
        // hetero64's largest GPU types hold 24 GPUs each.
        let cluster = ClusterView::new(sia_cluster::ClusterSpec::heterogeneous_64());
        let job = Trace::generate(&TraceConfig::new(TraceKind::Philly, 3)).jobs[0].clone();
        let check = |adaptivity: Adaptivity| {
            let job = JobSpec {
                adaptivity,
                ..job.clone()
            };
            let ctx = AdmissionContext {
                job: &job,
                tenant: "t",
                charge_gpu_hours: 0.0,
                pending: 0,
                duplicate_id: false,
                cluster: &cluster,
            };
            match SchemaStage.check(&ctx, &QuotaLedger::default()) {
                Ok(()) => "ok".to_string(),
                Err(r) => r.label().to_string(),
            }
        };
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let strong = Adaptivity::StrongScaling { batch_size: bad };
            assert_eq!(check(strong), "invalid-spec", "batch {bad}");
            let rigid = Adaptivity::Rigid {
                batch_size: bad,
                num_gpus: 2,
            };
            assert_eq!(check(rigid), "invalid-spec", "batch {bad}");
        }
        let rigid = |num_gpus| Adaptivity::Rigid {
            batch_size: 256.0,
            num_gpus,
        };
        assert_eq!(check(rigid(0)), "invalid-spec");
        assert_eq!(check(rigid(25)), "unschedulable");
        assert_eq!(check(rigid(24)), "ok");
        assert_eq!(check(Adaptivity::StrongScaling { batch_size: 256.0 }), "ok");
    }
}
