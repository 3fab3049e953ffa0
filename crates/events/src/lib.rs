//! Deterministic discrete-event simulation kernel.
//!
//! `sia-events` is the core layer under the cluster simulator: a simulation
//! clock plus a pending-event queue plus named random-number streams, with
//! kernel-level telemetry. It knows nothing about jobs, GPUs or schedulers —
//! `sia-sim` builds its event-driven engine on top of it, and any future
//! subsystem (network models, failure injectors, autoscalers) can share the
//! same kernel.
//!
//! Three guarantees shape the design:
//!
//! * **Deterministic ordering.** Events fire in `(time, priority, seq)`
//!   order: earlier timestamps first, then an explicit same-timestamp
//!   priority class from [`EventPayload::priority`], then FIFO by schedule
//!   order. `f64` timestamps are compared with `total_cmp`, so ordering is
//!   identical on every platform — no `PartialOrd` edge cases, no
//!   map-iteration dependence.
//! * **Stream-independent randomness.** [`Kernel::rng`] hands out named
//!   ChaCha8 streams, each seeded from `(master seed, stream name)`. Adding
//!   an event source that draws from stream `"failure"` never perturbs the
//!   draws of any other stream — unlike a single shared RNG, where any new
//!   consumer shifts every subsequent draw.
//! * **Cheap cancellation.** [`Kernel::cancel`] is O(log n)-amortized lazy
//!   deletion: cancelled entries are skipped at pop time. Timers are
//!   rescheduled by cancelling and scheduling anew.
//!
//! Kernel telemetry (via `sia-telemetry`, visible in the JSONL sink when one
//! is attached): `events.scheduled`, `events.fired`, `events.cancelled`, and
//! a per-event-type counter `events.fired.<kind>` keyed by
//! [`EventPayload::kind`].

#![forbid(unsafe_code)]

mod kernel;
mod queue;
mod rng;
mod sample;

pub use kernel::{Event, EventId, EventPayload, Kernel};
pub use queue::EventQueue;
pub use rng::{derive_stream_seed, StreamRngs};
pub use sample::{exp_sample, poisson_sample};
