//! The two real sinks: an unbounded [`TraceRecorder`] and the
//! fixed-capacity [`FlightRecorder`] ring buffer.

use kmatch_obs::Clock;

use crate::sink::{EventKind, SpanSink, TraceEvent};

/// Unbounded event log. Timestamps come from the injected [`Clock`],
/// taken by reference so one shared clock (e.g. a
/// [`ManualClock`](kmatch_obs::ManualClock)) can drive several
/// recorders deterministically.
#[derive(Debug)]
pub struct TraceRecorder<'c, C: Clock> {
    clock: &'c C,
    events: Vec<TraceEvent>,
}

impl<'c, C: Clock> TraceRecorder<'c, C> {
    /// New empty recorder sampling `clock`.
    pub fn new(clock: &'c C) -> Self {
        TraceRecorder {
            clock,
            events: Vec::new(),
        }
    }

    /// Everything recorded so far, in arrival order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Take the recorded events, leaving the recorder empty.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    #[inline]
    fn push(&mut self, kind: EventKind, name: &'static str, arg: u64) {
        self.events.push(TraceEvent {
            kind,
            name,
            ts_ns: self.clock.now_ns(),
            arg,
        });
    }
}

impl<C: Clock> SpanSink for TraceRecorder<'_, C> {
    const ENABLED: bool = true;

    #[inline]
    fn begin(&mut self, name: &'static str, arg: u64) {
        self.push(EventKind::Begin, name, arg);
    }

    #[inline]
    fn end(&mut self, name: &'static str) {
        self.push(EventKind::End, name, 0);
    }

    #[inline]
    fn instant(&mut self, name: &'static str, arg: u64) {
        self.push(EventKind::Instant, name, arg);
    }
}

/// Fixed-capacity ring buffer keeping the **last N** events.
///
/// The buffer is fully allocated at construction (`capacity` slots of
/// the `Copy` type [`TraceEvent`]); recording overwrites the oldest
/// slot in place once full, so the steady state allocates nothing —
/// suitable for leaving armed on long runs and dumping only when
/// something goes wrong. A capacity of `0` records nothing and counts
/// every event as dropped.
///
/// Because it is meant to stay armed, the flight recorder declares
/// [`SpanSink::FINE`]` = false`: engines monomorphized directly over it
/// skip the per-round `gs.round` spans and record phase-level events
/// only. At n = 2000 a GS solve runs ~2 800 rounds of a few hundred
/// nanoseconds each; clock-stamping every one costs more than the solve
/// itself, which a black-box recorder cannot afford. For round-level
/// zoom use the unbounded [`TraceRecorder`]. Wrappers that *forward*
/// into a ring (e.g. an enum over both recorders) make their own `FINE`
/// choice — the ring stores whatever it is handed.
#[derive(Debug)]
pub struct FlightRecorder<'c, C: Clock> {
    clock: &'c C,
    buf: Vec<TraceEvent>,
    /// Index of the oldest live event.
    head: usize,
    /// Live events (`<= buf.len()`).
    len: usize,
    /// Events overwritten (or discarded, for capacity 0) since
    /// construction.
    dropped: u64,
}

impl<'c, C: Clock> FlightRecorder<'c, C> {
    /// New recorder with room for the last `capacity` events, sampling
    /// `clock`. All allocation happens here.
    pub fn new(clock: &'c C, capacity: usize) -> Self {
        FlightRecorder {
            clock,
            buf: vec![TraceEvent::EMPTY; capacity],
            head: 0,
            len: 0,
            dropped: 0,
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Live events currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events lost to overwriting since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The surviving events, oldest first. Allocates the returned `Vec`
    /// — call this after the run, not during it.
    pub fn events(&self) -> Vec<TraceEvent> {
        let cap = self.buf.len();
        (0..self.len)
            .map(|i| self.buf[(self.head + i) % cap])
            .collect()
    }

    #[inline]
    fn push(&mut self, kind: EventKind, name: &'static str, arg: u64) {
        let cap = self.buf.len();
        if cap == 0 {
            self.dropped += 1;
            return;
        }
        let ev = TraceEvent {
            kind,
            name,
            ts_ns: self.clock.now_ns(),
            arg,
        };
        // Compare-and-wrap instead of `%`: a predicted branch, not an
        // integer division, on the per-event hot path.
        if self.len < cap {
            let mut idx = self.head + self.len;
            if idx >= cap {
                idx -= cap;
            }
            self.buf[idx] = ev;
            self.len += 1;
        } else {
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == cap {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }
}

impl<C: Clock> SpanSink for FlightRecorder<'_, C> {
    const ENABLED: bool = true;
    const FINE: bool = false;

    #[inline]
    fn begin(&mut self, name: &'static str, arg: u64) {
        self.push(EventKind::Begin, name, arg);
    }

    #[inline]
    fn end(&mut self, name: &'static str) {
        self.push(EventKind::End, name, 0);
    }

    #[inline]
    fn instant(&mut self, name: &'static str, arg: u64) {
        self.push(EventKind::Instant, name, arg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmatch_obs::ManualClock;

    #[test]
    fn trace_recorder_samples_injected_clock() {
        let clock = ManualClock::new();
        let mut rec = TraceRecorder::new(&clock);
        rec.begin("a", 7);
        clock.advance(10);
        rec.instant("i", 1);
        clock.advance(5);
        rec.end("a");
        let evs = rec.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(
            evs[0],
            TraceEvent {
                kind: EventKind::Begin,
                name: "a",
                ts_ns: 0,
                arg: 7
            }
        );
        assert_eq!(evs[1].ts_ns, 10);
        assert_eq!(evs[2].ts_ns, 15);
        assert_eq!(rec.take().len(), 3);
        assert!(rec.events().is_empty());
    }

    #[test]
    fn fidelity_tiers_are_declared_correctly() {
        // The unbounded recorder is the deep-dive tool (full fidelity);
        // the always-armed ring opts out of per-round spans.
        const {
            assert!(TraceRecorder::<ManualClock>::ENABLED);
            assert!(TraceRecorder::<ManualClock>::FINE);
            assert!(FlightRecorder::<ManualClock>::ENABLED);
            assert!(!FlightRecorder::<ManualClock>::FINE);
        }
    }

    #[test]
    fn flight_recorder_keeps_last_n() {
        let clock = ManualClock::new();
        let mut rec = FlightRecorder::new(&clock, 4);
        assert!(rec.is_empty());
        for i in 0..10u64 {
            clock.set(i);
            rec.instant("tick", i);
        }
        assert_eq!(rec.capacity(), 4);
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 6);
        let evs = rec.events();
        let args: Vec<u64> = evs.iter().map(|e| e.arg).collect();
        assert_eq!(args, vec![6, 7, 8, 9], "last N survive, oldest first");
    }

    #[test]
    fn flight_recorder_capacity_zero_drops_everything() {
        let clock = ManualClock::new();
        let mut rec = FlightRecorder::new(&clock, 0);
        rec.begin("a", 0);
        rec.end("a");
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 2);
        assert!(rec.events().is_empty());
    }

    #[test]
    fn flight_recorder_partial_fill_preserves_order() {
        let clock = ManualClock::new();
        let mut rec = FlightRecorder::new(&clock, 8);
        clock.set(1);
        rec.begin("a", 0);
        clock.set(2);
        rec.end("a");
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 0);
        let evs = rec.events();
        assert_eq!(evs[0].kind, EventKind::Begin);
        assert_eq!(evs[1].kind, EventKind::End);
        crate::check_well_formed(&evs, false).unwrap();
    }
}
