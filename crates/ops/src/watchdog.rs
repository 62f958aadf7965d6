//! Stall watchdog: detects workers that stop advancing.
//!
//! The watchdog's decision core is a pure function of `(now, per-worker
//! progress readings)` so it is deterministic under
//! [`ManualClock`](kmatch_obs::ManualClock); the thread that drives it in
//! production (see [`crate::state::OpsState`] and the CLI `serve` loop)
//! is a thin shell around [`WatchdogCore::sample`].
//!
//! Heartbeat rules (also documented in DESIGN.md §6h):
//!
//! * Each worker lane publishes a monotonically increasing progress
//!   counter (tasks completed, rounds absorbed — any value that moves
//!   while the worker moves).
//! * A lane is **stalled** when its reading has not changed for at least
//!   `stall_after_ns` while the watchdog believes work is in flight.
//!   Crossing the threshold emits one [`StallEvent`]; the lane then stays
//!   silently stalled (no event spam) until its reading moves again,
//!   which emits a single recovery event.
//! * Lanes appearing for the first time (executor resized) start fresh at
//!   the current sample time — growth is never mistaken for recovery.

/// Configuration for the stall detector.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// How long a lane's progress reading may stay unchanged before the
    /// lane is declared stalled.
    pub stall_after_ns: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        // 10 s: far above any real inter-wave gap, far below "operator
        // staring at a dead process".
        WatchdogConfig {
            stall_after_ns: 10_000_000_000,
        }
    }
}

/// A lane crossing the stall threshold, or recovering from one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallEvent {
    /// Worker lane index.
    pub worker: usize,
    /// How long the lane had been silent when the event fired.
    pub idle_ns: u64,
    /// `false`: the lane just stalled. `true`: it just resumed.
    pub resumed: bool,
}

#[derive(Debug, Clone, Copy)]
struct LaneState {
    last_reading: u64,
    last_change_ns: u64,
    stalled: bool,
}

/// Deterministic stall-detection core.
#[derive(Debug)]
pub struct WatchdogCore {
    cfg: WatchdogConfig,
    lanes: Vec<LaneState>,
}

impl WatchdogCore {
    /// A watchdog with no lanes yet; lanes materialize on first sample.
    pub fn new(cfg: WatchdogConfig) -> Self {
        WatchdogCore {
            cfg,
            lanes: Vec::new(),
        }
    }

    /// Feed one sample: the current time and each lane's progress
    /// reading. Returns the stall/recovery events this sample triggered.
    pub fn sample(&mut self, now_ns: u64, readings: &[u64]) -> Vec<StallEvent> {
        let mut events = Vec::new();
        // Executor shrank: forget the dropped lanes (they finished).
        self.lanes.truncate(readings.len());
        for (worker, &reading) in readings.iter().enumerate() {
            match self.lanes.get_mut(worker) {
                None => self.lanes.push(LaneState {
                    last_reading: reading,
                    last_change_ns: now_ns,
                    stalled: false,
                }),
                Some(lane) => {
                    if reading != lane.last_reading {
                        if lane.stalled {
                            events.push(StallEvent {
                                worker,
                                idle_ns: now_ns.saturating_sub(lane.last_change_ns),
                                resumed: true,
                            });
                        }
                        lane.last_reading = reading;
                        lane.last_change_ns = now_ns;
                        lane.stalled = false;
                    } else {
                        let idle = now_ns.saturating_sub(lane.last_change_ns);
                        if !lane.stalled && idle >= self.cfg.stall_after_ns {
                            lane.stalled = true;
                            events.push(StallEvent {
                                worker,
                                idle_ns: idle,
                                resumed: false,
                            });
                        }
                    }
                }
            }
        }
        events
    }

    /// Indices of currently stalled lanes.
    pub fn stalled_workers(&self) -> Vec<usize> {
        self.lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| l.stalled)
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of currently stalled lanes (`/healthz` degrades when > 0).
    pub fn stalled_count(&self) -> usize {
        self.lanes.iter().filter(|l| l.stalled).count()
    }

    /// Number of lanes being watched.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wd(stall_after_ns: u64) -> WatchdogCore {
        WatchdogCore::new(WatchdogConfig { stall_after_ns })
    }

    #[test]
    fn advancing_lanes_never_stall() {
        let mut w = wd(100);
        for t in 0..10u64 {
            let events = w.sample(t * 1000, &[t, t * 2]);
            assert!(events.is_empty(), "t={t}: {events:?}");
        }
        assert_eq!(w.stalled_count(), 0);
    }

    #[test]
    fn stall_fires_once_then_recovery_fires_once() {
        let mut w = wd(100);
        assert!(w.sample(0, &[5]).is_empty(), "first sight arms the lane");
        assert!(w.sample(50, &[5]).is_empty(), "under the threshold");
        let ev = w.sample(100, &[5]);
        assert_eq!(
            ev,
            vec![StallEvent {
                worker: 0,
                idle_ns: 100,
                resumed: false
            }]
        );
        assert_eq!(w.stalled_workers(), vec![0]);
        // Still stalled: silent, no event spam.
        assert!(w.sample(200, &[5]).is_empty());
        assert!(w.sample(300, &[5]).is_empty());
        // Progress resumes: exactly one recovery event.
        let ev = w.sample(350, &[6]);
        assert_eq!(
            ev,
            vec![StallEvent {
                worker: 0,
                idle_ns: 350,
                resumed: true
            }]
        );
        assert_eq!(w.stalled_count(), 0);
        // And the clock restarts from the resume point.
        assert!(w.sample(400, &[6]).is_empty());
        assert_eq!(w.sample(449, &[6]).len(), 0);
        assert_eq!(
            w.sample(450, &[6]).len(),
            1,
            "stalls again 100ns after resume"
        );
    }

    #[test]
    fn lane_growth_starts_fresh_and_shrink_forgets() {
        let mut w = wd(100);
        w.sample(0, &[1]);
        // A second lane appears at t=90: its idle clock starts at 90.
        assert!(w.sample(90, &[1, 7]).is_empty());
        let ev = w.sample(100, &[2, 7]);
        assert!(ev.is_empty(), "new lane is only 10ns idle");
        assert_eq!(w.lane_count(), 2);
        // Shrink back to one lane: the dropped lane cannot stall later.
        let ev = w.sample(1000, &[3]);
        assert!(ev.is_empty());
        assert_eq!(w.lane_count(), 1);
    }

    #[test]
    fn multiple_lanes_stall_independently() {
        let mut w = wd(100);
        w.sample(0, &[0, 0]);
        w.sample(60, &[1, 0]); // lane 0 advances, lane 1 silent
        let ev = w.sample(110, &[2, 0]);
        assert_eq!(
            ev,
            vec![StallEvent {
                worker: 1,
                idle_ns: 110,
                resumed: false
            }]
        );
        assert_eq!(w.stalled_workers(), vec![1]);
    }
}
