//! Rolling-window layer over cumulative [`SolverMetrics`] snapshots.
//!
//! The [`kmatch_obs::BatchRegistry`] only accumulates: its counters answer
//! "how much since the process started", never "how fast right now". This
//! module keeps a bounded ring of periodic *cumulative* snapshots, each
//! stamped with the injected [`Clock`](kmatch_obs::Clock)'s time, and
//! answers windowed questions by subtracting the snapshot nearest the
//! window's left edge from the latest one via
//! [`SolverMetrics::diff_since`]. Because ticks store cumulative state
//! (not deltas), a missed or late tick loses resolution but never loses
//! counts — the next diff simply spans a longer interval.
//!
//! Window semantics (also documented in DESIGN.md §6h):
//!
//! * The baseline for a window of `w` ns ending at `now` is the **newest
//!   slot with timestamp ≤ now − w**; if every slot is newer (the ring is
//!   young or ticks outpace the window), the oldest slot serves instead.
//!   The reported span is the *actual* `latest − baseline` time, so rates
//!   are exact even when the ring can't cover the requested window.
//! * Rates divide the counter delta by the actual span, in seconds.
//! * Windowed quantiles diff the histograms bucket-wise and query the
//!   delta, so they reflect only observations inside the span (at log₂
//!   bucket resolution).
//! * All queries need at least two slots and a non-zero span; otherwise
//!   they return `None` rather than inventing a rate from a point.

use std::collections::VecDeque;

use kmatch_obs::SolverMetrics;

/// A bounded ring of timestamped cumulative metric snapshots supporting
/// rate-over-last-window and windowed-quantile queries. Deterministic
/// under [`ManualClock`](kmatch_obs::ManualClock): queries depend only on
/// the `(timestamp, snapshot)` pairs pushed in.
#[derive(Debug)]
pub struct RollingWindow {
    slots: VecDeque<(u64, SolverMetrics)>,
    capacity: usize,
}

/// A windowed counter/histogram delta: the actual time span it covers
/// and the metric difference across it.
#[derive(Debug)]
pub struct WindowDelta {
    /// Actual `latest − baseline` span, nanoseconds (> 0).
    pub span_ns: u64,
    /// Metric delta across the span.
    pub delta: SolverMetrics,
}

impl RollingWindow {
    /// A window ring holding at most `capacity` snapshots (≥ 2 to be
    /// useful; smaller values are clamped to 2).
    pub fn new(capacity: usize) -> Self {
        RollingWindow {
            slots: VecDeque::with_capacity(capacity.max(2)),
            capacity: capacity.max(2),
        }
    }

    /// Record a cumulative snapshot at time `now_ns`. Arming the window
    /// at start-up with a zero snapshot makes the first real tick
    /// immediately queryable. Out-of-order timestamps are clamped up to
    /// the newest slot's time (the clock contract says they cannot go
    /// backwards; a shared `ManualClock` in tests might be set back).
    pub fn tick(&mut self, now_ns: u64, cumulative: SolverMetrics) {
        let t = match self.slots.back() {
            Some((last, _)) => now_ns.max(*last),
            None => now_ns,
        };
        if self.slots.len() == self.capacity {
            self.slots.pop_front();
        }
        self.slots.push_back((t, cumulative));
    }

    /// Number of snapshots currently held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no snapshot has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The windowed delta for a window of `window_ns` ending at `now_ns`,
    /// or `None` when fewer than two slots exist or the span is zero.
    pub fn delta(&self, now_ns: u64, window_ns: u64) -> Option<WindowDelta> {
        let (latest_t, latest) = self.slots.back()?;
        let cutoff = now_ns.saturating_sub(window_ns);
        // Newest slot at or before the cutoff; else the oldest slot.
        let (base_t, base) = self
            .slots
            .iter()
            .rev()
            .find(|(t, _)| *t <= cutoff)
            .unwrap_or(self.slots.front()?);
        let span_ns = latest_t.saturating_sub(*base_t);
        if span_ns == 0 {
            return None;
        }
        Some(WindowDelta {
            span_ns,
            delta: latest.diff_since(base),
        })
    }

    /// Windowed rate, per second, of the counter selected by `counter`.
    pub fn rate(
        &self,
        now_ns: u64,
        window_ns: u64,
        counter: impl Fn(&SolverMetrics) -> u64,
    ) -> Option<f64> {
        let w = self.delta(now_ns, window_ns)?;
        Some(counter(&w.delta) as f64 * 1e9 / w.span_ns as f64)
    }

    /// Windowed quantile of per-solve wall time, nanoseconds: the
    /// `q`-quantile of `solve_wall_ns` observations inside the window
    /// (log₂ bucket resolution). `None` when the window has no solves.
    pub fn solve_ns_quantile(&self, now_ns: u64, window_ns: u64, q: f64) -> Option<u64> {
        let w = self.delta(now_ns, window_ns)?;
        if w.delta.solve_wall_ns.count() == 0 {
            return None;
        }
        Some(w.delta.solve_wall_ns.value_at_quantile(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmatch_obs::Metrics;

    /// A cumulative snapshot with `p` proposals, `s` solves, and the
    /// given solve-time observations.
    fn snap(p: u64, s: u64, times: &[u64]) -> SolverMetrics {
        let mut m = SolverMetrics::new();
        for _ in 0..p {
            m.proposal();
        }
        for _ in 0..s {
            m.solve_done(true, 1);
        }
        for &t in times {
            m.solve_ns(t);
        }
        m
    }

    #[test]
    fn rate_is_exact_on_synthetic_ticks() {
        let mut w = RollingWindow::new(16);
        w.tick(0, SolverMetrics::new()); // armed at t=0
        w.tick(1_000_000_000, snap(100, 10, &[]));
        w.tick(2_000_000_000, snap(300, 20, &[]));
        // Window of 1s ending at t=2s: baseline is the t=1s slot.
        let rate = w
            .rate(2_000_000_000, 1_000_000_000, |m| m.proposals)
            .unwrap();
        assert!(
            (rate - 200.0).abs() < 1e-9,
            "200 proposals over 1s, got {rate}"
        );
        // Window of 10s: baseline falls to the armed zero slot.
        let rate = w
            .rate(2_000_000_000, 10_000_000_000, |m| m.proposals)
            .unwrap();
        assert!(
            (rate - 150.0).abs() < 1e-9,
            "300 proposals over 2s, got {rate}"
        );
    }

    #[test]
    fn wrap_around_evicts_oldest_but_rates_stay_exact() {
        let mut w = RollingWindow::new(4);
        // 8 ticks, 1s apart, +50 proposals each: slots 5..=8 survive.
        for i in 0..=8u64 {
            w.tick(i * 1_000_000_000, snap(i * 50, i, &[]));
        }
        assert_eq!(w.len(), 4);
        // 2s window ending at t=8: baseline = slot at t=6.
        let rate = w
            .rate(8_000_000_000, 2_000_000_000, |m| m.proposals)
            .unwrap();
        assert!((rate - 50.0).abs() < 1e-9, "{rate}");
        // A window wider than the surviving ring clamps to the oldest
        // slot (t=5) and reports the rate over the actual 3s span.
        let rate = w
            .rate(8_000_000_000, 60_000_000_000, |m| m.proposals)
            .unwrap();
        assert!((rate - 50.0).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn idle_gap_dilutes_the_rate_over_the_actual_span() {
        let mut w = RollingWindow::new(8);
        w.tick(0, SolverMetrics::new());
        w.tick(1_000_000_000, snap(100, 1, &[]));
        // Nothing happens for 9 seconds, then one more tick, no progress.
        w.tick(10_000_000_000, snap(100, 1, &[]));
        let rate = w
            .rate(10_000_000_000, 5_000_000_000, |m| m.proposals)
            .unwrap();
        assert_eq!(rate, 0.0, "no proposals inside the window");
        // The full-history window sees 100 proposals over 10s.
        let rate = w
            .rate(10_000_000_000, 20_000_000_000, |m| m.proposals)
            .unwrap();
        assert!((rate - 10.0).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn windowed_quantile_sees_only_the_window() {
        let mut w = RollingWindow::new(8);
        w.tick(0, SolverMetrics::new());
        // First second: two fast solves (100ns). Cumulative snapshot.
        w.tick(1_000_000_000, snap(0, 2, &[100, 100]));
        // Second second: two slow solves (1ms) on top.
        w.tick(2_000_000_000, snap(0, 4, &[100, 100, 1_000_000, 1_000_000]));
        // 1s window: only the slow pair. log2 buckets: p50 upper bound
        // for 1_000_000 is 2^20-ish; exact max clamps to 1_000_000.
        let p50 = w
            .solve_ns_quantile(2_000_000_000, 1_000_000_000, 0.50)
            .unwrap();
        assert!(p50 >= 524_288, "window p50 must be a slow solve, got {p50}");
        // Full window: p50 is a fast solve.
        let p50_all = w
            .solve_ns_quantile(2_000_000_000, 5_000_000_000, 0.50)
            .unwrap();
        assert!(
            p50_all <= 128,
            "overall p50 must be a fast solve, got {p50_all}"
        );
    }

    #[test]
    fn single_slot_and_zero_span_yield_none() {
        let mut w = RollingWindow::new(4);
        assert!(w.delta(0, 1).is_none(), "empty ring");
        w.tick(5, snap(10, 1, &[]));
        assert!(w.delta(5, 1).is_none(), "one slot has no span");
        w.tick(5, snap(20, 2, &[]));
        assert!(w.delta(5, 1).is_none(), "two slots at the same instant");
        w.tick(10, snap(30, 3, &[]));
        assert!(w.delta(10, 100).is_some());
    }
}
