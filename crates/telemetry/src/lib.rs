//! Structured tracing and metrics for the Sia scheduler stack.
//!
//! Three pieces, designed so the disabled path costs almost nothing:
//!
//! - **Metrics registry** ([`counter`], [`gauge`], [`histogram`]): global,
//!   always-on, atomics-only. A handle lookup is one `RwLock` read + map
//!   probe; hot loops should look up once (or accumulate locally) and add
//!   aggregates, which every instrumented call site in this workspace does.
//! - **Scoped spans** ([`span`]): RAII timers with thread-local nesting.
//!   Every span records its duration into a histogram named after the span.
//! - **JSONL event sink** ([`init_jsonl`]): when enabled, spans, counter
//!   updates and gauge sets additionally append one JSON object per event to
//!   a line-delimited file. When disabled (the default), event emission is a
//!   single relaxed atomic load that branches away — the "static no-op
//!   sink" — so simulation hot paths keep their seed performance.
//!
//! Event schema (one JSON object per line):
//!
//! ```json
//! {"ev":"span","name":"policy.schedule","t_s":1.07,"dur_s":0.003,"depth":0,"seq":42}
//! {"ev":"counter","name":"engine.restarts","delta":2,"total":17,"t_s":1.07,"seq":43}
//! {"ev":"gauge","name":"engine.active_jobs","value":24.0,"t_s":1.07,"seq":44}
//! ```
//!
//! `t_s` is seconds since process start (wall-clock of the *host*, not
//! simulated time; simulated time is carried by the payloads that embed
//! these metrics, e.g. `RoundLog`). `seq` is a global monotone sequence
//! number so interleavings from multiple threads can be ordered.

pub mod audit;
mod metrics;
pub mod recorder;
pub mod registry;
mod sink;
mod span;
pub mod trace;

pub use audit::{
    AuditEvent, AuditRecord, AuditRecorder, AuditReport, AuditStream, JobRegret, WorstRound,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary};
pub use recorder::{Canonical, Record, Recorder, Stream};
pub use sink::{disable, events_emitted, flush, init_jsonl, is_enabled, shutdown};
pub use span::{span, SpanGuard};
pub use trace::{
    AllocReason, CapacitySample, FlightRecord, FlightRecorder, FlightTrace, JobTraceStats,
    OccupancySample, TraceEvent, TraceReport,
};

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Seconds since the process-wide telemetry epoch (first use).
pub(crate) fn now_s() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

struct Registry {
    counters: RwLock<BTreeMap<String, Arc<metrics::CounterInner>>>,
    gauges: RwLock<BTreeMap<String, Arc<metrics::GaugeInner>>>,
    histograms: RwLock<BTreeMap<String, Arc<metrics::HistogramInner>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: RwLock::new(BTreeMap::new()),
        gauges: RwLock::new(BTreeMap::new()),
        histograms: RwLock::new(BTreeMap::new()),
    })
}

/// Look up (creating on first use) the named monotone counter.
pub fn counter(name: &str) -> Counter {
    let reg = registry();
    if let Some(inner) = reg.counters.read().unwrap().get(name) {
        return Counter::new(name.to_string(), Arc::clone(inner));
    }
    let mut map = reg.counters.write().unwrap();
    let inner = map.entry(name.to_string()).or_default();
    Counter::new(name.to_string(), Arc::clone(inner))
}

/// Look up (creating on first use) the named last-value gauge.
pub fn gauge(name: &str) -> Gauge {
    let reg = registry();
    if let Some(inner) = reg.gauges.read().unwrap().get(name) {
        return Gauge::new(name.to_string(), Arc::clone(inner));
    }
    let mut map = reg.gauges.write().unwrap();
    let inner = map.entry(name.to_string()).or_default();
    Gauge::new(name.to_string(), Arc::clone(inner))
}

/// Look up (creating on first use) the named histogram (log-bucketed).
pub fn histogram(name: &str) -> Histogram {
    let reg = registry();
    if let Some(inner) = reg.histograms.read().unwrap().get(name) {
        return Histogram::new(Arc::clone(inner));
    }
    let mut map = reg.histograms.write().unwrap();
    let inner = map.entry(name.to_string()).or_default();
    Histogram::new(Arc::clone(inner))
}

/// Current value of the named counter (0 if it was never touched).
/// Intended for tests and end-of-run reporting, not hot paths.
pub fn counter_value(name: &str) -> u64 {
    registry()
        .counters
        .read()
        .unwrap()
        .get(name)
        .map(|c| c.value())
        .unwrap_or(0)
}

/// Current value of the named gauge, if it was ever set.
pub fn gauge_value(name: &str) -> Option<f64> {
    registry()
        .gauges
        .read()
        .unwrap()
        .get(name)
        .and_then(|g| g.value())
}

/// Summary of the named histogram, if it has any samples.
pub fn histogram_summary(name: &str) -> Option<HistogramSummary> {
    registry()
        .histograms
        .read()
        .unwrap()
        .get(name)
        .map(|h| h.summary())
        .filter(|s| s.count > 0)
}

/// Snapshot of every counter, sorted by name. For reports and tests.
pub fn counters_snapshot() -> Vec<(String, u64)> {
    registry()
        .counters
        .read()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.clone(), v.value()))
        .collect()
}

/// Snapshot of every gauge, sorted by name (`None` = never set). For
/// reports, tests and the exposition bridge.
pub fn gauges_snapshot() -> Vec<(String, Option<f64>)> {
    registry()
        .gauges
        .read()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.clone(), v.value()))
        .collect()
}

/// One histogram snapshot: `(name, buckets, count, sum)` where `buckets`
/// are non-cumulative `(inclusive_upper_edge, count)` pairs.
pub type HistogramSnapshot = (String, Vec<(f64, u64)>, u64, f64);

/// Snapshot of every histogram, sorted by name. Powers
/// [`registry::prometheus_globals`].
pub fn histograms_exposition_snapshot() -> Vec<HistogramSnapshot> {
    registry()
        .histograms
        .read()
        .unwrap()
        .iter()
        .map(|(k, v)| {
            let (buckets, count, sum) = v.exposition_buckets();
            (k.clone(), buckets, count, sum)
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Tests that touch the process-global sink serialize on this lock.
    pub fn sink_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        match LOCK.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_are_monotone() {
        let c = counter("test.lib.counter");
        let before = counter_value("test.lib.counter");
        c.add(3);
        c.add(2);
        let after = counter_value("test.lib.counter");
        assert!(after >= before + 5);
    }

    #[test]
    fn gauges_hold_last_value() {
        gauge("test.lib.gauge").set(1.5);
        gauge("test.lib.gauge").set(-2.25);
        assert_eq!(gauge_value("test.lib.gauge"), Some(-2.25));
        assert_eq!(gauge_value("test.lib.never_set"), None);
    }

    #[test]
    fn histograms_summarize() {
        let h = histogram("test.lib.hist");
        for v in [0.001, 0.002, 0.004, 0.1] {
            h.record(v);
        }
        let s = histogram_summary("test.lib.hist").unwrap();
        assert!(s.count >= 4);
        assert!(s.max >= 0.1);
        assert!(s.mean > 0.0);
    }

    #[test]
    fn spans_nest_and_feed_histograms() {
        {
            let _outer = span("test.lib.outer");
            let inner = span("test.lib.inner");
            assert_eq!(inner.depth(), 1);
        }
        let s = histogram_summary("test.lib.outer").unwrap();
        assert!(s.count >= 1);
        let s = histogram_summary("test.lib.inner").unwrap();
        assert!(s.count >= 1);
    }

    #[test]
    fn disabled_sink_emits_nothing() {
        let _guard = test_support::sink_lock();
        disable();
        let before = events_emitted();
        let c = counter("test.lib.disabled");
        c.add(10);
        gauge("test.lib.disabled_gauge").set(1.0);
        drop(span("test.lib.disabled_span"));
        assert_eq!(
            events_emitted(),
            before,
            "no events may be emitted while the sink is disabled"
        );
        // Metrics still accumulate even with the sink off.
        assert!(counter_value("test.lib.disabled") >= 10);
    }

    #[test]
    fn jsonl_round_trip() {
        let _guard = test_support::sink_lock();
        let path =
            std::env::temp_dir().join(format!("sia-telemetry-test-{}.jsonl", std::process::id()));
        init_jsonl(&path).unwrap();
        counter("test.lib.rt_counter").add(7);
        gauge("test.lib.rt_gauge").set(3.5);
        {
            let _s = span("test.lib.rt_span");
        }
        shutdown();

        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let mut kinds = std::collections::BTreeSet::new();
        let mut last_seq = None;
        for line in text.lines() {
            let v: serde_json::Value = serde_json::from_str(line).expect("line parses");
            let ev = v.get("ev").and_then(|e| e.as_str()).unwrap().to_string();
            let seq = v.get("seq").and_then(|s| s.as_u64()).unwrap();
            if let Some(prev) = last_seq {
                assert!(seq > prev, "seq must increase within the file");
            }
            last_seq = Some(seq);
            match ev.as_str() {
                "counter" => {
                    assert!(v.get("delta").and_then(|d| d.as_u64()).is_some());
                    assert!(v.get("total").and_then(|d| d.as_u64()).is_some());
                }
                "gauge" => {
                    assert!(v.get("value").and_then(|d| d.as_f64()).is_some());
                }
                "span" => {
                    assert!(v.get("dur_s").and_then(|d| d.as_f64()).unwrap() >= 0.0);
                    assert!(v.get("depth").and_then(|d| d.as_u64()).is_some());
                }
                other => panic!("unknown event kind {other}"),
            }
            kinds.insert(ev);
        }
        assert!(kinds.contains("counter"));
        assert!(kinds.contains("gauge"));
        assert!(kinds.contains("span"));
        // Sink is closed again: nothing further is emitted.
        let after = events_emitted();
        counter("test.lib.rt_counter").add(1);
        assert_eq!(events_emitted(), after);
    }

    #[test]
    fn panicked_run_leaves_parseable_jsonl() {
        let _guard = test_support::sink_lock();
        let path = std::env::temp_dir().join(format!(
            "sia-telemetry-panic-test-{}.jsonl",
            std::process::id()
        ));
        init_jsonl(&path).unwrap();

        // Emit from a thread that dies mid-run. The panic hook installed by
        // init_jsonl must flush the buffered writer, and the poisoned-lock
        // recovery must keep the sink usable afterwards.
        let handle = std::thread::spawn(|| {
            counter("test.lib.panic_counter").add(3);
            gauge("test.lib.panic_gauge").set(9.0);
            panic!("simulated crash with events still buffered");
        });
        assert!(handle.join().is_err(), "the run must have panicked");

        let text = std::fs::read_to_string(&path).unwrap();
        let mut kinds = std::collections::BTreeSet::new();
        for line in text.lines() {
            let v: serde_json::Value =
                serde_json::from_str(line).expect("every line must be whole after a panic");
            kinds.insert(v.get("ev").and_then(|e| e.as_str()).unwrap().to_string());
        }
        assert!(kinds.contains("counter"), "flushed events must be present");
        assert!(kinds.contains("gauge"));

        // The sink still works after the panic (no poisoned-lock lockout).
        counter("test.lib.panic_counter").add(1);
        shutdown();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(
            text.lines().count() >= 3,
            "post-panic events must still be recorded"
        );
    }
}
