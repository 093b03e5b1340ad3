//! A fixed-capacity lock-free flight recorder for structured events.
//!
//! When a worker panics or the daemon drains, the question is always
//! "what happened *just before*". The [`FlightRecorder`] keeps the
//! last `capacity` events in a ring of fixed-size slots, written
//! wait-free from any thread and dumped as JSONL on demand.
//!
//! ## Slot protocol (per-slot seqlock)
//!
//! Each slot carries a `stamp` word encoding its state:
//!
//! * `0` — never written,
//! * odd (`(seq+1) << 1 | 1`) — a writer is mid-update,
//! * even (`(seq+1) << 1`) — committed, holding event `seq`.
//!
//! A writer claims a slot by `fetch_add` on the global sequence
//! counter (`seq` is therefore unique and monotonic), stores the odd
//! stamp with `Release`, fills the payload fields with relaxed stores,
//! then publishes the even stamp with `Release`. A reader loads the
//! stamp (`Acquire`), copies the payload, and re-loads the stamp: if
//! either load is odd or they disagree, the slot was torn mid-read and
//! is dropped. Torn or overwritten slots lose *old* events only — a
//! committed event is never corrupted into a wrong event, because the
//! stamp pins the sequence number the payload belongs to.
//!
//! ## Ordering guarantees
//!
//! Sequence numbers are claimed before payloads are visible, so two
//! events written by the *same thread* always appear in program order.
//! Events from different threads are ordered by claim order, which is
//! a valid linearization of the `fetch_add`s — good enough to read an
//! admit → dequeue → panic causal chain for one request, since those
//! transitions happen-before each other through the job queue anyway.
//! A dump sorts surviving slots by sequence number; gaps mean events
//! were overwritten (ring wrapped) or torn (rare), never reordered.
//!
//! Capacity 0 disables the recorder entirely: `record` returns without
//! touching memory, making the instrumentation zero-cost when off.

use crate::json::{ObjBuilder, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Event kinds the serving layer records. The wire/JSONL name is
/// [`EventKind::name`]; the numeric value is stored in the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Job admitted to the queue (`a` = req id, `b` = queue depth).
    Admit = 1,
    /// Job shed by admission control (`a` = req id, `b` = retry hint ms).
    Shed = 2,
    /// Worker picked the job up (`a` = req id, `b` = queue wait µs).
    Dequeue = 3,
    /// Job completed ok (`a` = req id, `b` = service µs).
    Complete = 4,
    /// Job hit its deadline (`a` = req id, `b` = deadline ms).
    Timeout = 5,
    /// Worker panicked running the job (`a` = req id, `b` = worker slot).
    Panic = 6,
    /// Supervisor respawned a worker (`a` = worker slot).
    Respawn = 7,
    /// A session was quarantined after a panic (`a` = req id).
    Quarantine = 8,
    /// The daemon began draining (`a` = jobs still queued).
    Drain = 9,
}

impl EventKind {
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Admit => "admit",
            EventKind::Shed => "shed",
            EventKind::Dequeue => "dequeue",
            EventKind::Complete => "complete",
            EventKind::Timeout => "timeout",
            EventKind::Panic => "panic",
            EventKind::Respawn => "respawn",
            EventKind::Quarantine => "quarantine",
            EventKind::Drain => "drain",
        }
    }

    fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            1 => EventKind::Admit,
            2 => EventKind::Shed,
            3 => EventKind::Dequeue,
            4 => EventKind::Complete,
            5 => EventKind::Timeout,
            6 => EventKind::Panic,
            7 => EventKind::Respawn,
            8 => EventKind::Quarantine,
            9 => EventKind::Drain,
            _ => return None,
        })
    }
}

/// One committed event, as read back out of the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic sequence number (unique across the recorder's life).
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub ts_us: u64,
    pub kind: EventKind,
    /// Reply/status code context (0 when not applicable).
    pub code: u16,
    /// Primary operand — the request id for request-scoped events.
    pub a: u64,
    /// Secondary operand — see [`EventKind`] per-variant docs.
    pub b: u64,
}

impl FlightEvent {
    /// The event as a JSON object with stable keys: `seq`, `ts_us`,
    /// `event` (the kind's name), `code`, `req` (`a`) and `val` (`b`).
    /// One JSONL dump line, and one element of the `events` reply.
    pub fn to_value(&self) -> Value {
        ObjBuilder::new()
            .uint("seq", self.seq)
            .uint("ts_us", self.ts_us)
            .str("event", self.kind.name())
            .uint("code", u64::from(self.code))
            .uint("req", self.a)
            .uint("val", self.b)
            .build()
    }
}

struct EventSlot {
    stamp: AtomicU64,
    ts_us: AtomicU64,
    /// `kind << 8 | code` packed; kind 0 never occurs for a committed
    /// slot so a zeroed payload can't masquerade as a real event.
    kind_code: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// The ring buffer. Cheap to share behind an `Arc`; all methods take
/// `&self`.
pub struct FlightRecorder {
    slots: Vec<EventSlot>,
    seq: AtomicU64,
    anchor: Instant,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRecorder {
    /// `capacity` 0 disables recording; otherwise the last `capacity`
    /// events are retained.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            slots: (0..capacity)
                .map(|_| EventSlot {
                    stamp: AtomicU64::new(0),
                    ts_us: AtomicU64::new(0),
                    kind_code: AtomicU64::new(0),
                    a: AtomicU64::new(0),
                    b: AtomicU64::new(0),
                })
                .collect(),
            seq: AtomicU64::new(0),
            anchor: Instant::now(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (not the number retained).
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Record one event. Wait-free: one `fetch_add` plus five stores.
    /// A no-op when the recorder was built with capacity 0.
    #[inline]
    pub fn record(&self, kind: EventKind, code: u16, a: u64, b: u64) {
        if self.slots.is_empty() {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq as usize) % self.slots.len()];
        let stamp = (seq + 1) << 1;
        slot.stamp.store(stamp | 1, Ordering::Release);
        slot.ts_us
            .store(self.anchor.elapsed().as_micros() as u64, Ordering::Relaxed);
        slot.kind_code
            .store((kind as u64) << 8 | code as u64, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.stamp.store(stamp, Ordering::Release);
    }

    /// Read back the retained events, oldest first. Torn slots (a
    /// writer was mid-update during the read) are skipped.
    pub fn events(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let before = slot.stamp.load(Ordering::Acquire);
            if before == 0 || before & 1 == 1 {
                continue;
            }
            let ts_us = slot.ts_us.load(Ordering::Relaxed);
            let kind_code = slot.kind_code.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            let after = slot.stamp.load(Ordering::Acquire);
            if after != before {
                continue; // torn: overwritten while we copied
            }
            let Some(kind) = EventKind::from_u8((kind_code >> 8) as u8) else {
                continue;
            };
            out.push(FlightEvent {
                seq: (before >> 1) - 1,
                ts_us,
                kind,
                code: (kind_code & 0xff) as u16,
                a,
                b,
            });
        }
        out.sort_unstable_by_key(|e| e.seq);
        out
    }

    /// The last `limit` retained events, oldest first.
    pub fn tail(&self, limit: usize) -> Vec<FlightEvent> {
        let mut ev = self.events();
        if ev.len() > limit {
            ev.drain(..ev.len() - limit);
        }
        ev
    }

    /// Render the retained events as JSONL (one event per line,
    /// trailing newline when non-empty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&e.to_value().to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_come_back_in_sequence_order() {
        let r = FlightRecorder::new(8);
        r.record(EventKind::Admit, 0, 1, 3);
        r.record(EventKind::Dequeue, 0, 1, 120);
        r.record(EventKind::Complete, 0, 1, 900);
        let ev = r.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].kind, EventKind::Admit);
        assert_eq!(ev[1].kind, EventKind::Dequeue);
        assert_eq!(ev[2].kind, EventKind::Complete);
        assert_eq!(ev.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(ev.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn ring_keeps_only_the_newest() {
        let r = FlightRecorder::new(4);
        for i in 0..10u64 {
            r.record(EventKind::Admit, 0, i, 0);
        }
        let ev = r.events();
        assert_eq!(ev.len(), 4);
        assert_eq!(ev.iter().map(|e| e.a).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.tail(2).iter().map(|e| e.a).collect::<Vec<_>>(), vec![8, 9]);
    }

    #[test]
    fn capacity_zero_is_a_noop() {
        let r = FlightRecorder::new(0);
        r.record(EventKind::Panic, 22, 7, 0);
        assert!(r.events().is_empty());
        assert_eq!(r.recorded(), 0);
        assert_eq!(r.to_jsonl(), "");
    }

    #[test]
    fn jsonl_lines_have_the_stable_schema() {
        let r = FlightRecorder::new(2);
        r.record(EventKind::Panic, 22, 41, 1);
        let jsonl = r.to_jsonl();
        assert!(jsonl.ends_with('\n'));
        let lines: Vec<Value> =
            jsonl.lines().map(|l| crate::json::parse(l).expect("line parses")).collect();
        assert_eq!(lines.len(), 1);
        let e = &lines[0];
        let uint = |k: &str| e.get(k).and_then(Value::as_u64);
        assert_eq!(uint("seq"), Some(0));
        assert!(uint("ts_us").is_some());
        assert_eq!(e.get("event").and_then(Value::as_str), Some("panic"));
        assert_eq!((uint("code"), uint("req"), uint("val")), (Some(22), Some(41), Some(1)));
        match e {
            Value::Obj(m) => assert_eq!(m.len(), 6, "{e:?}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn concurrent_writers_never_produce_corrupt_events() {
        let r = std::sync::Arc::new(FlightRecorder::new(64));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        // Payload is derived from the operands so a reader
                        // can verify integrity: b must equal a * 3.
                        let a = t * 1_000_000 + i;
                        r.record(EventKind::Complete, 0, a, a.wrapping_mul(3));
                    }
                })
            })
            .collect();
        // A racing reader: every event it sees must be internally
        // consistent even while the ring is being overwritten.
        let reader = {
            let r = std::sync::Arc::clone(&r);
            std::thread::spawn(move || {
                for _ in 0..200 {
                    for e in r.events() {
                        assert_eq!(e.b, e.a.wrapping_mul(3), "torn slot escaped");
                        assert_eq!(e.kind, EventKind::Complete);
                    }
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(r.recorded(), 20_000);
        let ev = r.events();
        assert_eq!(ev.len(), 64);
        for e in &ev {
            assert_eq!(e.b, e.a.wrapping_mul(3));
        }
    }
}
