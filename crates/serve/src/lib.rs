//! The Sia scheduling daemon.
//!
//! `sia-serve` wraps the simulation engine ([`sia_sim::SimDriver`], the
//! same driver batch runs preload) in a long-running service: a JSONL command stream (stdin or a Unix
//! socket) carries `submit` / `cancel` / `query` / `snapshot` / `shutdown`
//! requests, each tagged with a client-supplied request id, and the daemon
//! answers with JSONL responses and lifecycle events (`admitted`,
//! `rejected` with a typed reason, `allocated`, `completed`) carrying the
//! originating request ids.
//!
//! Submissions pass through a pluggable admission pipeline before they
//! reach the engine: schema validation, then per-tenant GPU-hour quota and
//! max-pending admission control ([`QuotaLedger`]), then the scheduling
//! policy and placement of the ordinary engine round. Every decision —
//! accept, reject, cancellation refund — lands in the audit stream as a
//! typed `admission` record.
//!
//! The whole daemon state (engine, estimators, RNG, warm starts, pending
//! queue, quota ledger) snapshots to a versioned, length-prefixed,
//! checksummed file ([`snapshot`]); a killed daemon restores from it and
//! continues **bit-identically** — the canonical flight trace of a
//! snapshot/kill/restore run is byte-equal to an uninterrupted one.

#![forbid(unsafe_code)]

pub mod log;
pub mod observe;
pub mod protocol;
pub mod quota;
pub mod server;
pub mod snapshot;
pub mod stats;

pub use log::{LogLevel, Logger};
pub use observe::Observe;
pub use protocol::{parse_request, Command, Request, MAX_LINE_BYTES};
pub use quota::{
    AdmissionContext, AdmissionStage, QuotaLedger, QuotaStage, Rejection, SchemaStage,
};
pub use server::{serve_replay, serve_wallclock, Pacing, ServeOptions, Server};
pub use snapshot::{read_snapshot, write_snapshot, SnapshotError, SNAPSHOT_FILE_VERSION};
#[cfg(unix)]
pub use stats::spawn_unix;
pub use stats::{spawn_tcp, StatsHandle};
