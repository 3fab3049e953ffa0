//! The kernel: clock + event queue + RNG streams + telemetry.

use std::collections::BTreeMap;

use rand_chacha::ChaCha8Rng;
use sia_telemetry::Counter;

use crate::queue::EventQueue;
use crate::rng::StreamRngs;

/// A typed event payload.
///
/// `kind` labels the per-event-type telemetry counters
/// (`events.fired.<kind>`); `priority` is the same-timestamp ordering class
/// — lower values fire first among events with equal time, FIFO within a
/// class. Use priorities to encode causality at shared timestamps (e.g. a
/// completion at a round boundary must be observed before that round's
/// scheduling timer).
pub trait EventPayload {
    /// Stable, static label for telemetry counters.
    fn kind(&self) -> &'static str;

    /// Same-timestamp ordering class; lower fires first. Defaults to 0.
    fn priority(&self) -> u8 {
        0
    }
}

/// Handle to a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

/// A fired event: when it fired, its id, and its payload.
#[derive(Debug)]
pub struct Event<E> {
    /// The handle the event was scheduled under.
    pub id: EventId,
    /// Simulated firing time, seconds.
    pub time: f64,
    /// The typed payload.
    pub payload: E,
}

/// A deterministic discrete-event kernel.
///
/// Owns the simulation clock (monotone, advanced only by [`Kernel::pop`]),
/// the pending-event queue, and the named RNG streams. All scheduling is
/// relative to or at-or-after the current clock; events fire in
/// `(time, priority, seq)` order.
pub struct Kernel<E> {
    clock: f64,
    next_seq: u64,
    queue: EventQueue<E>,
    rngs: StreamRngs,
    ctr_scheduled: Counter,
    ctr_fired: Counter,
    ctr_cancelled: Counter,
    /// Per-event-type fired counters, cached by the payload's static kind.
    fired_by_kind: BTreeMap<&'static str, Counter>,
}

impl<E: EventPayload> Kernel<E> {
    /// Creates a kernel at time 0 whose RNG streams derive from `seed`.
    pub fn new(seed: u64) -> Self {
        Kernel {
            clock: 0.0,
            next_seq: 0,
            queue: EventQueue::new(),
            rngs: StreamRngs::new(seed),
            ctr_scheduled: sia_telemetry::counter("events.scheduled"),
            ctr_fired: sia_telemetry::counter("events.fired"),
            ctr_cancelled: sia_telemetry::counter("events.cancelled"),
            fired_by_kind: BTreeMap::new(),
        }
    }

    /// Current simulated time, seconds.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Schedules `payload` at absolute time `time` (must be finite and not
    /// in the past). Returns a handle usable with [`Kernel::cancel`].
    pub fn schedule_at(&mut self, time: f64, payload: E) -> EventId {
        assert!(
            time >= self.clock,
            "cannot schedule into the past: {} < {}",
            time,
            self.clock
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(time, payload.priority(), seq, payload);
        self.ctr_scheduled.incr();
        EventId(seq)
    }

    /// Schedules `payload` after `delay` seconds (`delay >= 0`).
    pub fn schedule_in(&mut self, delay: f64, payload: E) -> EventId {
        assert!(delay >= 0.0, "negative delay {delay}");
        self.schedule_at(self.clock + delay, payload)
    }

    /// Cancels a pending event. Returns `true` when the event had not yet
    /// fired (nor been cancelled before).
    pub fn cancel(&mut self, id: EventId) -> bool {
        let live = self.queue.cancel(id.0);
        if live {
            self.ctr_cancelled.incr();
        }
        live
    }

    /// Whether `id` is still pending.
    pub fn is_pending(&self, id: EventId) -> bool {
        self.queue.is_pending(id.0)
    }

    /// Fires the earliest pending event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<Event<E>> {
        let (time, seq, payload) = self.queue.pop()?;
        debug_assert!(time >= self.clock, "event queue went backwards");
        self.clock = time;
        self.ctr_fired.incr();
        self.fired_by_kind
            .entry(payload.kind())
            .or_insert_with_key(|kind| sia_telemetry::counter(&format!("events.fired.{kind}")))
            .incr();
        Some(Event {
            id: EventId(seq),
            time,
            payload,
        })
    }

    /// The earliest pending event's timestamp and payload, without firing
    /// it.
    pub fn peek(&mut self) -> Option<(f64, &E)> {
        self.queue.peek()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The named RNG stream (created on first use; see [`StreamRngs`]).
    pub fn rng(&mut self, stream: &str) -> &mut ChaCha8Rng {
        self.rngs.stream(stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Timer,
        Work(u32),
    }

    impl EventPayload for Ev {
        fn kind(&self) -> &'static str {
            match self {
                Ev::Timer => "timer",
                Ev::Work(_) => "work",
            }
        }

        fn priority(&self) -> u8 {
            match self {
                Ev::Work(_) => 0,
                Ev::Timer => 1,
            }
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut k = Kernel::new(0);
        k.schedule_at(10.0, Ev::Work(1));
        k.schedule_at(5.0, Ev::Work(2));
        assert_eq!(k.now(), 0.0);
        let e = k.pop().unwrap();
        assert_eq!((e.time, e.payload), (5.0, Ev::Work(2)));
        assert_eq!(k.now(), 5.0);
        k.schedule_in(1.0, Ev::Work(3));
        let e = k.pop().unwrap();
        assert_eq!((e.time, e.payload), (6.0, Ev::Work(3)));
        let e = k.pop().unwrap();
        assert_eq!((e.time, e.payload), (10.0, Ev::Work(1)));
        assert!(k.pop().is_none());
        assert_eq!(k.now(), 10.0);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut k = Kernel::new(0);
        k.schedule_at(10.0, Ev::Timer);
        k.pop();
        k.schedule_at(9.0, Ev::Timer);
    }

    #[test]
    fn same_time_orders_by_priority_then_fifo() {
        let mut k = Kernel::new(0);
        k.schedule_at(1.0, Ev::Timer); // priority 1, seq 0
        k.schedule_at(1.0, Ev::Work(1)); // priority 0, seq 1
        k.schedule_at(1.0, Ev::Work(2)); // priority 0, seq 2
        assert_eq!(k.pop().unwrap().payload, Ev::Work(1));
        assert_eq!(k.pop().unwrap().payload, Ev::Work(2));
        assert_eq!(k.pop().unwrap().payload, Ev::Timer);
    }

    #[test]
    fn timer_cancel_and_reschedule() {
        let mut k = Kernel::new(0);
        let t1 = k.schedule_at(60.0, Ev::Timer);
        assert!(k.is_pending(t1));
        // Reschedule: cancel the pending timer, schedule a new one.
        assert!(k.cancel(t1));
        assert!(!k.is_pending(t1));
        assert!(!k.cancel(t1), "cancelling twice reports not-pending");
        let t2 = k.schedule_at(30.0, Ev::Timer);
        k.schedule_at(45.0, Ev::Work(9));
        let e = k.pop().unwrap();
        assert_eq!((e.id, e.time), (t2, 30.0));
        assert_eq!(k.pop().unwrap().payload, Ev::Work(9));
        assert!(k.pop().is_none(), "cancelled timer must never fire");
        // A fired event can no longer be cancelled.
        assert!(!k.cancel(t2));
    }

    #[test]
    fn telemetry_counts_per_kind() {
        let before_work = sia_telemetry::counter_value("events.fired.work");
        let before_all = sia_telemetry::counter_value("events.fired");
        let mut k = Kernel::new(0);
        k.schedule_at(1.0, Ev::Work(1));
        k.schedule_at(2.0, Ev::Timer);
        let cancelled = k.schedule_at(3.0, Ev::Work(2));
        k.cancel(cancelled);
        while k.pop().is_some() {}
        assert_eq!(
            sia_telemetry::counter_value("events.fired.work"),
            before_work + 1
        );
        assert!(sia_telemetry::counter_value("events.fired") >= before_all + 2);
        assert!(sia_telemetry::counter_value("events.cancelled") >= 1);
    }

    #[test]
    fn named_streams_are_independent_of_event_flow() {
        use rand::Rng;
        let mut a = Kernel::<Ev>::new(11);
        let baseline: Vec<u64> = (0..4).map(|_| a.rng("noise").random::<u64>()).collect();
        let mut b = Kernel::<Ev>::new(11);
        let _ = b.rng("failure").random::<f64>(); // extra stream in play
        b.schedule_at(1.0, Ev::Timer);
        b.pop();
        let got: Vec<u64> = (0..4).map(|_| b.rng("noise").random::<u64>()).collect();
        assert_eq!(baseline, got);
    }
}
