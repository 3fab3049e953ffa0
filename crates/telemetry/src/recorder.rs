//! The one recorder behind every simulated-time event stream.
//!
//! The flight trace ([`crate::trace`]) and the audit stream
//! ([`crate::audit`]) are two event enums on the same machinery; an event
//! type joins by implementing [`Canonical`].
//!
//! - [`Recorder`] — the per-run recorder: a bounded in-memory ring (always
//!   on; overflow drops the *oldest* record and counts it) plus an
//!   optional full-fidelity JSONL spill. The recorder is owned by one
//!   engine run, so recording is plain mutation — no locks at all. The
//!   spill is flushed on drop, so a run that panics mid-simulation still
//!   leaves a parseable JSONL file behind.
//! - [`Stream`] — the recorded stream, attached to every `SimResult`.
//!   Serializes to JSONL, parses back, and canonicalizes for byte
//!   comparison.
//!
//! ## Envelope
//!
//! Every record is one JSON object per line carrying `ev` (the kind
//! label), `t` (simulated seconds) and `seq` (per-run emission sequence,
//! 0-based and gap-free) next to the event's own fields.
//!
//! ## Canonical form
//!
//! All fields are simulation-determined except the event's host
//! wall-clock fields and the emission *order*. [`Stream::canonical_jsonl`]
//! erases exactly these two artifacts — it sorts records by
//! `(t, kind-rank, job)`, renumbers `seq` in that order and zeroes the
//! wall-clock fields — and nothing else, so two same-seed runs, preloaded
//! or stepped request by request, produce **byte-identical** canonical
//! streams. `tests/engine_parity.rs` pins this.

use std::collections::VecDeque;
use std::fmt::Debug;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use serde_json::{json, Value};

/// An event type a [`Recorder`] can ring, spill, parse and canonicalize.
pub trait Canonical: Clone + Debug + PartialEq {
    /// Stable kind label (the `ev` field of the JSONL schema).
    fn kind(&self) -> &'static str;
    /// The job this event concerns, if any.
    fn job(&self) -> Option<u64>;
    /// Canonical same-timestamp ordering class.
    fn rank(&self) -> u8;
    /// The kind-specific fields as a JSON object (the envelope adds `ev`,
    /// `t` and `seq`).
    fn payload(&self) -> Value;
    /// Parses the kind-specific fields of a record whose `ev` is `kind`.
    fn from_payload(kind: &str, v: &Value) -> Result<Self, String>;
    /// Zeroes the host-wall-clock fields, the only ones two same-seed
    /// runs may disagree on.
    fn zero_wall_clock(&mut self);
}

/// One recorded event: simulated timestamp, emission sequence, payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Record<E> {
    /// Simulated time, seconds.
    pub t: f64,
    /// Per-run emission sequence number (0-based, gap-free).
    pub seq: u64,
    /// The typed event.
    pub ev: E,
}

impl<E: Canonical> Record<E> {
    /// Serializes to the JSONL schema.
    pub fn to_value(&self) -> Value {
        let mut v = self.ev.payload();
        if let Value::Object(m) = &mut v {
            m.insert("ev".into(), json!(self.ev.kind()));
            m.insert("t".into(), json!(self.t));
            m.insert("seq".into(), json!(self.seq));
        }
        v
    }

    /// Parses one JSONL record.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let kind = v
            .get("ev")
            .and_then(Value::as_str)
            .ok_or("record missing \"ev\"")?;
        let t = v
            .get("t")
            .and_then(Value::as_f64)
            .ok_or("record missing \"t\"")?;
        let seq = v
            .get("seq")
            .and_then(Value::as_u64)
            .ok_or("record missing \"seq\"")?;
        let ev = E::from_payload(kind, v)?;
        Ok(Record { t, seq, ev })
    }
}

/// The JSONL spill sink of a [`Recorder`]. Flushed on drop so a panicking
/// run still leaves complete lines behind.
#[derive(Debug)]
struct Spill {
    w: BufWriter<File>,
}

impl Drop for Spill {
    fn drop(&mut self) {
        let _ = self.w.flush();
    }
}

/// The per-run recorder: bounded ring plus optional JSONL spill.
///
/// Always on and owned by exactly one engine run — recording is a couple of
/// branches and a `VecDeque` push, with no synchronization. When the ring is
/// full the *oldest* record is dropped (and counted); the spill file, when
/// attached, keeps full fidelity regardless of the ring bound.
#[derive(Debug)]
pub struct Recorder<E> {
    ring: VecDeque<Record<E>>,
    capacity: usize,
    seq: u64,
    dropped: u64,
    spill: Option<Spill>,
}

impl<E: Canonical> Recorder<E> {
    /// A recorder keeping at most `capacity` records in memory.
    pub fn new(capacity: usize) -> Self {
        Recorder {
            ring: VecDeque::new(),
            capacity,
            seq: 0,
            dropped: 0,
            spill: None,
        }
    }

    /// Attaches a full-fidelity JSONL spill file (truncating `path`). Only
    /// records emitted from this point onward land in the file, so a fresh
    /// run attaches before its first record and a recorder restored from
    /// a snapshot re-attaches after restoring.
    pub fn attach_spill(&mut self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let file = File::create(path)?;
        self.spill = Some(Spill {
            w: BufWriter::new(file),
        });
        Ok(())
    }

    /// Serializes the recorder state — ring contents, sequence counter,
    /// drop count and capacity — for a daemon snapshot. The spill sink is
    /// not part of the state; re-attach one after restoring.
    pub fn export_state(&self) -> Value {
        json!({
            "capacity": self.capacity as u64,
            "seq": self.seq,
            "dropped": self.dropped,
            "records": self.ring.iter().map(Record::to_value).collect::<Vec<_>>(),
        })
    }

    /// Rebuilds a recorder from [`Recorder::export_state`] output. The
    /// restored recorder continues the sequence exactly where the exported
    /// one stopped; no spill is attached.
    pub fn from_state(v: &Value) -> Result<Self, String> {
        let capacity = v
            .get("capacity")
            .and_then(Value::as_u64)
            .ok_or("recorder state missing \"capacity\"")? as usize;
        let seq = v
            .get("seq")
            .and_then(Value::as_u64)
            .ok_or("recorder state missing \"seq\"")?;
        let dropped = v
            .get("dropped")
            .and_then(Value::as_u64)
            .ok_or("recorder state missing \"dropped\"")?;
        let ring = v
            .get("records")
            .and_then(Value::as_array)
            .ok_or("recorder state missing \"records\"")?
            .iter()
            .map(Record::from_value)
            .collect::<Result<VecDeque<_>, String>>()?;
        if ring.len() > capacity {
            return Err("recorder state holds more records than its capacity".into());
        }
        Ok(Recorder {
            ring,
            capacity,
            seq,
            dropped,
            spill: None,
        })
    }

    /// Records one event at simulated time `t_sim`.
    pub fn record(&mut self, t_sim: f64, ev: E) {
        let rec = Record {
            t: t_sim,
            seq: self.seq,
            ev,
        };
        self.seq += 1;
        if let Some(s) = &mut self.spill {
            let _ = writeln!(s.w, "{}", rec.to_value());
        }
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(rec);
    }

    /// Number of records currently held in memory.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records evicted from the ring so far (the spill, if attached,
    /// still has them). Nonzero means the in-memory stream is partial.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Finishes the run: flushes the spill and returns the recorded stream.
    pub fn into_stream(mut self) -> Stream<E> {
        if let Some(s) = &mut self.spill {
            let _ = s.w.flush();
        }
        Stream {
            records: std::mem::take(&mut self.ring).into(),
            dropped: self.dropped,
        }
    }
}

/// A recorded stream (the in-memory ring contents).
#[derive(Debug, Clone, PartialEq)]
pub struct Stream<E> {
    /// Records in emission order.
    pub records: Vec<Record<E>>,
    /// Records evicted from the ring (0 unless the run outgrew the bound;
    /// the JSONL spill, if one was attached, still has them).
    pub dropped: u64,
}

impl<E> Default for Stream<E> {
    fn default() -> Self {
        Stream {
            records: Vec::new(),
            dropped: 0,
        }
    }
}

impl<E: Canonical> Stream<E> {
    /// Serializes the stream in emission order, one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        jsonl(&self.records)
    }

    /// Canonical serialization for byte-for-byte comparison: records sorted
    /// by `(t, kind-rank, job)`, `seq` renumbered in that order, and the
    /// host-wall-clock fields zeroed.
    pub fn canonical_jsonl(&self) -> String {
        let mut sorted = self.records.clone();
        sorted.sort_by(|a, b| {
            a.t.total_cmp(&b.t)
                .then(a.ev.rank().cmp(&b.ev.rank()))
                .then(a.ev.job().unwrap_or(0).cmp(&b.ev.job().unwrap_or(0)))
        });
        for (i, r) in sorted.iter_mut().enumerate() {
            r.seq = i as u64;
            r.ev.zero_wall_clock();
        }
        jsonl(&sorted)
    }

    /// Parses a JSONL stream (e.g. a spill file) back into a stream.
    pub fn parse_jsonl(text: &str) -> Result<Self, String> {
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v: Value = serde_json::from_str(line)
                .map_err(|e| format!("line {}: invalid JSON: {e}", i + 1))?;
            records.push(Record::from_value(&v).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        Ok(Stream {
            records,
            dropped: 0,
        })
    }
}

/// One JSON object per line.
fn jsonl<E: Canonical>(records: &[Record<E>]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_value().to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AllocReason, AuditEvent, TraceEvent};

    /// A flight event distinct for every `i`.
    fn trace_event(i: u64) -> TraceEvent {
        TraceEvent::JobAdmitted { job: i }
    }

    /// An audit event distinct for every `i`.
    fn audit_event(i: u64) -> AuditEvent {
        AuditEvent::Decision {
            round: i,
            job: i,
            gpu_type: None,
            gpus: 0,
            reason: AllocReason::Preempted,
            chosen_value: 0.0,
            best_value: 0.0,
        }
    }

    fn ring_bounds_and_counts_drops<E: Canonical>(make: fn(u64) -> E) {
        let mut rec = Recorder::new(3);
        for i in 0..10 {
            rec.record(i as f64, make(i));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 7);
        let stream = rec.into_stream();
        assert_eq!(stream.dropped, 7);
        // The *newest* records survive, in order.
        let seqs: Vec<u64> = stream.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        assert_eq!(stream.records[0].ev, make(7));
    }

    fn state_round_trips_and_resumes_sequence<E: Canonical>(make: fn(u64) -> E) {
        let mut rec = Recorder::new(4);
        for i in 0..8 {
            rec.record(i as f64, make(i));
        }
        let mut back = Recorder::<E>::from_state(&rec.export_state()).unwrap();
        // The restored recorder continues where the original stopped.
        rec.record(8.0, make(8));
        back.record(8.0, make(8));
        let (a, b) = (rec.into_stream(), back.into_stream());
        assert_eq!(a, b);
        assert_eq!(a.dropped, 5);
        assert_eq!(a.records.last().unwrap().seq, 8);
    }

    fn spill_survives_panic_via_drop<E: Canonical + Send + 'static>(
        make: fn(u64) -> E,
        name: &str,
    ) {
        let path = std::env::temp_dir().join(format!(
            "sia-{name}-spill-panic-{}.jsonl",
            std::process::id()
        ));
        let p = path.clone();
        let handle = std::thread::spawn(move || {
            let mut rec = Recorder::new(16);
            rec.attach_spill(&p).unwrap();
            rec.record(0.0, make(0));
            rec.record(1.0, make(1));
            panic!("simulated crash mid-run");
        });
        assert!(handle.join().is_err(), "the run must have panicked");
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let parsed = Stream::<E>::parse_jsonl(&text).expect("spill parses after a panic");
        assert_eq!(parsed.records.len(), 2);
        assert_eq!(parsed.records[1].ev, make(1));
    }

    #[test]
    fn ring_bounds_and_counts_drops_for_both_event_types() {
        ring_bounds_and_counts_drops(trace_event);
        ring_bounds_and_counts_drops(audit_event);
    }

    #[test]
    fn recorder_state_round_trips_and_resumes_sequence_for_both_event_types() {
        state_round_trips_and_resumes_sequence(trace_event);
        state_round_trips_and_resumes_sequence(audit_event);
    }

    #[test]
    fn spill_survives_panic_via_drop_for_both_event_types() {
        spill_survives_panic_via_drop(trace_event, "trace");
        spill_survives_panic_via_drop(audit_event, "audit");
    }
}
