//! [`Tee`]: fan one engine's span stream out to two sinks.
//!
//! The forensic serve loop needs the same solve to feed both the
//! always-armed [`FlightRecorder`](crate::FlightRecorder) (post-hoc dump)
//! and the live leaf-span register the sampling profiler reads
//! (`kmatch-forensics`). Engines take one `&mut S: SpanSink`, so the
//! composition happens here: `Tee { a, b }` forwards every event to both
//! members, in `a`-then-`b` order.

use crate::sink::SpanSink;

/// A [`SpanSink`] that forwards every event to two owned sinks.
///
/// `ENABLED`/`FINE` are the OR of the members', which means a
/// coarse-only member (`FINE = false`) paired with a fine one *will*
/// receive the fine-grained per-round events the pair admits — a tee
/// cannot split the stream. Pair sinks of equal fidelity when that
/// matters; the serve loop pairs two `FINE = false` sinks, so the tee'd
/// stream stays coarse.
#[derive(Debug)]
pub struct Tee<A, B> {
    /// First receiver (sees each event before `b`).
    pub a: A,
    /// Second receiver.
    pub b: B,
}

impl<A, B> Tee<A, B> {
    /// Fan events out to `a` then `b`.
    pub fn new(a: A, b: B) -> Self {
        Tee { a, b }
    }

    /// Take the members back (e.g. to dump a recorder after the solve).
    pub fn into_inner(self) -> (A, B) {
        (self.a, self.b)
    }
}

impl<A: SpanSink, B: SpanSink> SpanSink for Tee<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;
    const FINE: bool = A::FINE || B::FINE;

    #[inline]
    fn begin(&mut self, name: &'static str, arg: u64) {
        self.a.begin(name, arg);
        self.b.begin(name, arg);
    }

    #[inline]
    fn end(&mut self, name: &'static str) {
        self.a.end(name);
        self.b.end(name);
    }

    #[inline]
    fn instant(&mut self, name: &'static str, arg: u64) {
        self.a.instant(name, arg);
        self.b.instant(name, arg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{EventKind, NoSpans, TraceEvent};

    /// Test sink that logs events into a Vec.
    #[derive(Default)]
    struct VecSink(Vec<TraceEvent>);

    impl SpanSink for VecSink {
        const ENABLED: bool = true;
        fn begin(&mut self, name: &'static str, arg: u64) {
            self.0.push(TraceEvent {
                kind: EventKind::Begin,
                name,
                ts_ns: 0,
                arg,
            });
        }
        fn end(&mut self, name: &'static str) {
            self.0.push(TraceEvent {
                kind: EventKind::End,
                name,
                ts_ns: 0,
                arg: 0,
            });
        }
        fn instant(&mut self, name: &'static str, arg: u64) {
            self.0.push(TraceEvent {
                kind: EventKind::Instant,
                name,
                ts_ns: 0,
                arg,
            });
        }
    }

    #[test]
    fn both_members_see_every_event_in_order() {
        let mut tee = Tee::new(VecSink::default(), VecSink::default());
        tee.begin("a", 1);
        tee.instant("i", 2);
        tee.end("a");
        let (x, y) = tee.into_inner();
        assert_eq!(x.0.len(), 3);
        assert_eq!(x.0, y.0);
        assert_eq!(x.0[0].kind, EventKind::Begin);
        assert_eq!(x.0[1].arg, 2);
    }

    #[test]
    fn flags_are_or_of_members() {
        const {
            assert!(<Tee<VecSink, NoSpans> as SpanSink>::ENABLED);
            assert!(!<Tee<NoSpans, NoSpans> as SpanSink>::ENABLED);
            assert!(
                <Tee<VecSink, NoSpans> as SpanSink>::FINE,
                "VecSink defaults FINE"
            );
            assert!(!<Tee<NoSpans, NoSpans> as SpanSink>::FINE);
        }
    }
}
