//! [`Probed`]: the metrics adapter that teaches any existing solve path
//! to publish live progress, without new engine generics.
//!
//! Engines are already generic over [`Metrics`]; `Probed<M, T>` wraps an
//! inner `M`, forwards every hook verbatim, and *additionally* folds the
//! hook stream into a phase/round/proposal/cut model published into a
//! [`ProbeTarget`]. With [`NoProgress`] as the target every probe branch
//! is gated on `T::ENABLED = false` and the adapter monomorphizes to the
//! plain inner metrics — the counting-allocator suites in `kmatch-gs`
//! and `kmatch-roommates` pin the zero-cost claim.
//!
//! Publish cadence: every completed round, every phase transition, every
//! escalation attempt, and every [`PUBLISH_EVERY`] fine-grained events
//! inside a phase (Irving phase 1 has no rounds; this bounds staleness
//! to ~1024 proposals). Each publish is five uncontended atomic stores.

use kmatch_obs::{phase, Metrics};

use crate::probe::WorkerProbe;

/// Fine-grained events buffered between forced publishes.
pub const PUBLISH_EVERY: u32 = 1024;

/// Where [`Probed`] publishes to. Implemented by [`&WorkerProbe`]
/// (live lane) and [`NoProgress`] (compiles to nothing).
pub trait ProbeTarget {
    /// `false` erases every probe branch in `Probed` at compile time.
    const ENABLED: bool;

    /// Receive one full progress reading.
    fn publish(&self, phase: u32, attempt: u32, cut: u32, round: u64, proposals: u64);
}

/// The zero-cost target: publishing compiles to nothing, and `Probed`
/// with this target is the inner metrics, bit for bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProgress;

impl ProbeTarget for NoProgress {
    const ENABLED: bool = false;

    #[inline(always)]
    fn publish(&self, _phase: u32, _attempt: u32, _cut: u32, _round: u64, _proposals: u64) {}
}

impl ProbeTarget for &WorkerProbe {
    const ENABLED: bool = true;

    #[inline]
    fn publish(&self, phase: u32, attempt: u32, cut: u32, round: u64, proposals: u64) {
        WorkerProbe::publish(self, phase, attempt, cut, round, proposals);
    }
}

/// Metrics adapter publishing progress into `T` while forwarding every
/// hook to `M`. See the module docs for the folding model.
#[derive(Debug)]
pub struct Probed<M, T> {
    inner: M,
    target: T,
    phase: u32,
    attempt: u32,
    cut: u32,
    round: u64,
    proposals: u64,
    pending: u32,
    /// The previous escalation ladder ended (certified or fell back);
    /// the next attempt starts a fresh ladder and restarts `attempt`.
    ladder_done: bool,
    /// Test-only fault injection: sleep this long, once, at the first
    /// publish of a non-idle phase (so the watchdog and `/progress` can
    /// be exercised deterministically). 0 = disabled.
    stall_once_ms: u64,
    stalled: bool,
}

impl<M: Metrics, T: ProbeTarget> Probed<M, T> {
    /// Wrap `inner`, publishing into `target`.
    pub fn new(inner: M, target: T) -> Self {
        Probed {
            inner,
            target,
            phase: phase::IDLE,
            attempt: 0,
            cut: 0,
            round: 0,
            proposals: 0,
            pending: 0,
            ladder_done: false,
            stall_once_ms: 0,
            stalled: false,
        }
    }

    /// Arm the test-only stall injection: the first time a non-idle
    /// phase is published, the worker sleeps `ms` milliseconds (after
    /// the publish, so readers see the phase it stalled in).
    pub fn with_stall_once_ms(mut self, ms: u64) -> Self {
        self.stall_once_ms = ms;
        self
    }

    /// Take the inner metrics back (e.g. to absorb a shard).
    pub fn into_inner(self) -> M {
        self.inner
    }

    /// Borrow the inner metrics.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Mutably borrow the inner metrics (front-ends record wall time on
    /// the inner shard directly; timing is not a probe concern).
    pub fn inner_mut(&mut self) -> &mut M {
        &mut self.inner
    }

    #[inline]
    fn flush(&mut self) {
        if T::ENABLED {
            self.pending = 0;
            self.target.publish(
                self.phase,
                self.attempt,
                self.cut,
                self.round,
                self.proposals,
            );
        }
    }

    #[inline]
    fn fine_event(&mut self) {
        if T::ENABLED {
            self.pending += 1;
            if self.pending >= PUBLISH_EVERY {
                self.flush();
            }
        }
    }

    /// Sleep once if armed and a non-idle phase was just published.
    #[inline]
    fn maybe_stall(&mut self) {
        if T::ENABLED && self.stall_once_ms > 0 && !self.stalled && self.phase != phase::IDLE {
            self.stalled = true;
            std::thread::sleep(std::time::Duration::from_millis(self.stall_once_ms));
        }
    }
}

impl<M: Metrics, T: ProbeTarget> Metrics for Probed<M, T> {
    const ENABLED: bool = M::ENABLED || T::ENABLED;

    #[inline(always)]
    fn proposal(&mut self) {
        self.inner.proposal();
        if T::ENABLED {
            self.proposals += 1;
            self.fine_event();
        }
    }

    #[inline(always)]
    fn rejection(&mut self) {
        self.inner.rejection();
    }

    #[inline(always)]
    fn holder_swap(&mut self) {
        self.inner.holder_swap();
    }

    #[inline(always)]
    fn round(&mut self) {
        self.inner.round();
        if T::ENABLED {
            self.round += 1;
            self.flush();
            self.maybe_stall();
        }
    }

    #[inline(always)]
    fn round_bulk(&mut self, proposals: u64, rejections: u64, swaps: u64) {
        self.inner.round_bulk(proposals, rejections, swaps);
        if T::ENABLED {
            self.proposals += proposals;
        }
    }

    #[inline(always)]
    fn phase1_truncation(&mut self) {
        self.inner.phase1_truncation();
        if T::ENABLED {
            self.fine_event();
        }
    }

    #[inline(always)]
    fn phase2_rotation(&mut self) {
        self.inner.phase2_rotation();
        if T::ENABLED {
            self.fine_event();
        }
    }

    #[inline]
    fn workspace(&mut self, fresh: bool) {
        self.inner.workspace(fresh);
        if T::ENABLED {
            // A new solve begins: per-solve counters restart. Escalation
            // ladder state (attempt/cut) survives — the driver runs many
            // solves per ladder.
            self.round = 0;
            self.proposals = 0;
            self.flush();
        }
    }

    #[inline]
    fn solve_done(&mut self, solvable: bool, proposals: u64) {
        self.inner.solve_done(solvable, proposals);
        if T::ENABLED {
            self.phase = phase::IDLE;
            self.flush();
        }
    }

    #[inline(always)]
    fn solve_ns(&mut self, ns: u64) {
        self.inner.solve_ns(ns);
    }

    #[inline(always)]
    fn binding_edge(&mut self, proposals: u64) {
        self.inner.binding_edge(proposals);
    }

    #[inline(always)]
    fn theorem3_check(&mut self, total: u64, bound: u64) {
        self.inner.theorem3_check(total, bound);
    }

    #[inline(always)]
    fn cache_lookup(&mut self, hit: bool) {
        self.inner.cache_lookup(hit);
    }

    #[inline(always)]
    fn cache_eviction(&mut self) {
        self.inner.cache_eviction();
    }

    #[inline(always)]
    fn binding_edge_reuse(&mut self, dirty: bool) {
        self.inner.binding_edge_reuse(dirty);
    }

    #[inline]
    fn escalation_attempt(&mut self, cut: u32) {
        self.inner.escalation_attempt(cut);
        if T::ENABLED {
            if self.ladder_done {
                // First rung of a fresh ladder.
                self.attempt = 0;
                self.ladder_done = false;
            }
            self.phase = phase::ESCALATE;
            self.attempt += 1;
            self.cut = cut;
            self.flush();
            self.maybe_stall();
        }
    }

    #[inline(always)]
    fn certified_stable(&mut self) {
        self.inner.certified_stable();
        if T::ENABLED {
            self.ladder_done = true;
        }
    }

    #[inline(always)]
    fn certified_unsolvable(&mut self) {
        self.inner.certified_unsolvable();
        if T::ENABLED {
            self.ladder_done = true;
        }
    }

    #[inline(always)]
    fn escalation_fullwidth(&mut self) {
        self.inner.escalation_fullwidth();
        if T::ENABLED {
            self.ladder_done = true;
        }
    }

    #[inline]
    fn phase_enter(&mut self, phase_id: u32) {
        self.inner.phase_enter(phase_id);
        if T::ENABLED {
            self.phase = phase_id;
            self.flush();
            self.maybe_stall();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmatch_obs::{NoMetrics, SolverMetrics};

    #[test]
    fn noprogress_probed_is_transparent_and_small() {
        // Probed<NoMetrics, NoProgress> stays disabled and forwards
        // without observable effect.
        const { assert!(!<Probed<NoMetrics, NoProgress> as Metrics>::ENABLED) };
        const { assert!(<Probed<SolverMetrics, NoProgress> as Metrics>::ENABLED) };
        let mut m = Probed::new(SolverMetrics::new(), NoProgress);
        m.workspace(true);
        m.phase_enter(phase::GS_ROUNDS);
        for _ in 0..3 {
            m.proposal();
        }
        m.round();
        m.solve_done(true, 3);
        let inner = m.into_inner();
        assert_eq!(inner.proposals, 3);
        assert_eq!(inner.rounds, 1);
        assert_eq!(inner.solves, 1);
    }

    #[test]
    fn live_probe_tracks_phases_rounds_and_ladder() {
        let probe = WorkerProbe::new();
        let mut m = Probed::new(SolverMetrics::new(), &probe);

        // GS-style solve.
        m.workspace(true);
        m.phase_enter(phase::GS_ROUNDS);
        assert_eq!(probe.snapshot().phase, phase::GS_ROUNDS);
        m.proposal();
        m.proposal();
        m.round();
        let s = probe.snapshot();
        assert_eq!(s.round, 1);
        assert_eq!(s.proposals, 2);
        m.solve_done(true, 2);
        assert_eq!(probe.snapshot().phase, phase::IDLE);

        // Escalation ladder: attempt resets on a fresh ladder, counts up,
        // cut follows the rung; per-solve counters reset per attempt.
        m.escalation_attempt(64);
        m.workspace(false);
        m.phase_enter(phase::IRVING_PHASE1);
        m.proposal();
        let s = probe.snapshot();
        assert_eq!(s.attempt, 1);
        assert_eq!(s.cut, 64);
        assert_eq!(s.phase, phase::IRVING_PHASE1);
        m.solve_done(false, 1);
        m.escalation_attempt(128);
        let s = probe.snapshot();
        assert_eq!(s.attempt, 2);
        assert_eq!(s.cut, 128);
        assert_eq!(s.phase, phase::ESCALATE);
        m.phase_enter(phase::VERIFY);
        assert_eq!(probe.snapshot().phase, phase::VERIFY);
        m.certified_unsolvable();
        m.solve_done(true, 5);

        // The certificate ended the ladder: the next attempt starts a
        // fresh one and restarts the attempt counter.
        m.escalation_attempt(32);
        assert_eq!(probe.snapshot().attempt, 1);

        // The inner shard saw everything.
        assert_eq!(m.inner().escalation_attempts, 3);
        assert_eq!(m.inner().solves, 3);
    }

    #[test]
    fn fine_events_publish_every_1024_without_rounds() {
        let probe = WorkerProbe::new();
        let mut m = Probed::new(NoMetrics, &probe);
        m.workspace(true);
        m.phase_enter(phase::IRVING_PHASE1);
        let g0 = probe.generation();
        for _ in 0..(PUBLISH_EVERY - 1) {
            m.proposal();
        }
        assert_eq!(probe.generation(), g0, "buffered below the threshold");
        m.proposal();
        assert_eq!(probe.generation(), g0 + 1, "threshold forces a publish");
        assert_eq!(probe.snapshot().proposals, PUBLISH_EVERY as u64);
    }

    #[test]
    fn stall_injection_sleeps_once_after_publishing_the_phase() {
        let probe = WorkerProbe::new();
        let mut m = Probed::new(NoMetrics, &probe).with_stall_once_ms(30);
        let t0 = std::time::Instant::now();
        m.escalation_attempt(64);
        let first = t0.elapsed();
        assert!(first >= std::time::Duration::from_millis(30), "{first:?}");
        assert_eq!(probe.snapshot().cut, 64, "phase published before the sleep");
        let t1 = std::time::Instant::now();
        m.escalation_attempt(128);
        assert!(
            t1.elapsed() < std::time::Duration::from_millis(30),
            "only stalls once"
        );
    }
}
