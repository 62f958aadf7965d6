//! Shared flight-recorder ring for the `/trace` endpoint.
//!
//! [`FlightRecorder`](kmatch_trace::FlightRecorder) borrows its clock, so
//! it cannot live inside an `Arc`-shared state object. The serve loop
//! instead runs each wave through the per-worker recorders that
//! `solve_batch_traced` owns, then **ingests** the returned events here: a
//! mutex-protected bounded ring of [`TraceEvent`]s that `/trace` drains as
//! Chrome trace JSON. The ring preserves flight-recorder semantics — keep
//! the last N events, count what fell off — across waves.

use std::collections::VecDeque;
use std::sync::Mutex;

use kmatch_trace::TraceEvent;

#[derive(Debug)]
struct RingInner {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// A thread-safe bounded ring of trace events.
#[derive(Debug)]
pub struct SharedTraceRing {
    inner: Mutex<RingInner>,
    capacity: usize,
}

impl SharedTraceRing {
    /// A ring keeping the most recent `capacity` events (≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SharedTraceRing {
            inner: Mutex::new(RingInner {
                events: VecDeque::with_capacity(capacity),
                dropped: 0,
            }),
            capacity,
        }
    }

    /// Absorb a batch of events (oldest first) plus the count of events
    /// the producing recorder itself already dropped.
    pub fn ingest(&self, events: &[TraceEvent], already_dropped: u64) {
        let mut inner = self.inner.lock().expect("trace ring poisoned");
        inner.dropped += already_dropped;
        for &ev in events {
            if inner.events.len() == self.capacity {
                inner.events.pop_front();
                inner.dropped += 1;
            }
            inner.events.push_back(ev);
        }
    }

    /// Drain the ring: all held events (oldest first) and the total
    /// dropped count since the last drain. The ring is left empty.
    pub fn drain(&self) -> (Vec<TraceEvent>, u64) {
        let mut inner = self.inner.lock().expect("trace ring poisoned");
        let events = inner.events.drain(..).collect();
        let dropped = std::mem::take(&mut inner.dropped);
        (events, dropped)
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace ring poisoned").events.len()
    }

    /// True when the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmatch_trace::EventKind;

    fn ev(ts: u64) -> TraceEvent {
        TraceEvent {
            kind: EventKind::Instant,
            name: "cache.hit",
            ts_ns: ts,
            arg: 0,
        }
    }

    #[test]
    fn ring_keeps_last_n_and_counts_drops() {
        let ring = SharedTraceRing::new(3);
        ring.ingest(&[ev(1), ev(2)], 0);
        ring.ingest(&[ev(3), ev(4), ev(5)], 7);
        let (events, dropped) = ring.drain();
        assert_eq!(
            events.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert_eq!(dropped, 9, "7 upstream + 2 evicted here");
        // Drain resets both.
        let (events, dropped) = ring.drain();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn concurrent_ingest_never_exceeds_capacity() {
        let ring = SharedTraceRing::new(64);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..100 {
                        ring.ingest(&[ev(t * 1000 + i)], 0);
                    }
                });
            }
        });
        assert_eq!(ring.len(), 64);
        let (_, dropped) = ring.drain();
        assert_eq!(dropped, 400 - 64);
    }
}
