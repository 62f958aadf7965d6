//! Batch throughput front-end for the stable-roommates solver.
//!
//! The solvability experiments behind `roommates_solvability.csv` (and the
//! Mertens-style scaling studies the ROADMAP aims at) need thousands of
//! independent Irving solves per data point. Like [`crate::batch`] for
//! Gale–Shapley, [`solve_batch`] fans the instances across the
//! work-stealing executor ([`crate::steal`]) with one reusable
//! [`RoommatesWorkspace`] per worker, so the steady-state cost per
//! instance is the solve itself — the only per-instance allocation is the
//! partner array owned by each stable matching (unsolvable instances
//! allocate nothing at all). Every front runs the same task body as the
//! GS fronts, `batch::solve_range`, monomorphized over its metrics and
//! span sinks.
//!
//! Results are returned in input order and are identical to calling
//! [`kmatch_roommates::solve`] on each instance serially (Irving's
//! algorithm with a fixed seed policy is deterministic and instances share
//! no state) for any thread count or steal schedule.

use kmatch_obs::{BatchRegistry, Clock, Metrics, NoMetrics};
use kmatch_prefs::RoommatesInstance;
use kmatch_roommates::{RoommatesOutcome, RoommatesWorkspace};
use kmatch_trace::SpanSink;

use crate::batch::{absorb, run_batch, run_traced, ChunkTrace, Engine, Untimed};
use crate::steal::{default_threads, steal_seed, StealReport};

impl Engine<RoommatesInstance> for RoommatesWorkspace {
    type Out = RoommatesOutcome;
    fn solve_observed<M: Metrics, S: SpanSink>(
        &mut self,
        inst: &RoommatesInstance,
        metrics: &mut M,
        spans: &mut S,
    ) -> RoommatesOutcome {
        self.solve_spanned(inst, metrics, spans)
    }
}

/// Solve every roommates instance with the zero-allocation Irving fast
/// path, fanning the batch across [`default_threads`] executor workers
/// with one reusable [`RoommatesWorkspace`] per worker.
///
/// Output order matches input order, and each outcome equals the one
/// [`kmatch_roommates::solve`] would produce for that instance.
///
/// ```
/// use kmatch_parallel::roommates::solve_batch;
/// use kmatch_prefs::gen::uniform::uniform_roommates;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(1);
/// let batch: Vec<_> = (0..32).map(|_| uniform_roommates(16, &mut rng)).collect();
/// let outcomes = solve_batch(&batch);
/// assert_eq!(outcomes.len(), 32);
/// ```
pub fn solve_batch(instances: &[RoommatesInstance]) -> Vec<RoommatesOutcome> {
    solve_batch_stealing(instances, default_threads(), steal_seed()).0
}

/// [`solve_batch`] with sharded metrics and per-solve wall timing.
///
/// Mirrors [`crate::batch::solve_batch_metered`]: each executor task
/// solves its range through its worker's [`RoommatesWorkspace`] and a
/// task-private `SolverMetrics` shard (no atomics or locks on the hot
/// path); shards are absorbed into `registry` in task-id order and the
/// run's executor footprint is recorded there. Per-solve wall time is
/// sampled from the injected `clock` at this front-end so the engine
/// stays clock-free.
pub fn solve_batch_metered<C: Clock + Sync>(
    instances: &[RoommatesInstance],
    registry: &BatchRegistry,
    clock: &C,
) -> Vec<RoommatesOutcome> {
    let (outs, report) =
        solve_batch_stealing_metered(instances, default_threads(), steal_seed(), registry, clock);
    registry.record_execution(report.to_execution_record());
    outs
}

/// [`solve_batch_metered`] that additionally records a span timeline per
/// executor worker — the roommates mirror of
/// [`crate::batch::solve_batch_traced`]. Each worker's `FlightRecorder`
/// (capacity `flight_capacity`, preallocated, never allocating while
/// recording) wraps every task it runs in a `batch.chunk` span (arg =
/// task id) around the per-solve `irving.*` spans; the returned
/// [`ChunkTrace`]s, ordered by worker id, feed
/// `kmatch_trace::TraceTrack::workers` directly.
pub fn solve_batch_traced<C: Clock + Sync>(
    instances: &[RoommatesInstance],
    registry: &BatchRegistry,
    clock: &C,
    flight_capacity: usize,
) -> (Vec<RoommatesOutcome>, Vec<ChunkTrace>) {
    run_traced::<_, RoommatesWorkspace, _>(instances, registry, clock, flight_capacity)
}

/// Solve a roommates batch through the deterministic work-stealing
/// executor (see [`crate::steal`]) with `threads` OS workers (at most one
/// per task) and the given steal-schedule seed.
///
/// Outcomes are in input order and byte-identical to a serial
/// [`RoommatesWorkspace::solve`] loop for **any** `threads`/`seed`
/// combination — Irving's algorithm with the fixed seed policy is
/// deterministic and instances share no state — so only the returned
/// [`StealReport`] reflects the actual schedule. `threads <= 1` (or a
/// single-instance batch) runs inline on the caller with no worker
/// threads at all.
pub fn solve_batch_stealing(
    instances: &[RoommatesInstance],
    threads: usize,
    seed: u64,
) -> (Vec<RoommatesOutcome>, StealReport) {
    let (outs, _, report) =
        run_batch::<_, RoommatesWorkspace, NoMetrics, _>(instances, threads, seed, &Untimed);
    (outs, report)
}

/// [`solve_batch_stealing`] with sharded metrics and per-solve wall
/// timing, mirroring [`crate::batch::solve_batch_stealing_metered`].
///
/// Each *task* accumulates into its own thread-private `SolverMetrics`
/// shard; shards are absorbed into `registry` in task-id order after the
/// join, so the merged metrics are byte-identical for any steal schedule.
pub fn solve_batch_stealing_metered<C>(
    instances: &[RoommatesInstance],
    threads: usize,
    seed: u64,
    registry: &BatchRegistry,
    clock: &C,
) -> (Vec<RoommatesOutcome>, StealReport)
where
    C: Clock + Sync,
{
    let (outs, shards, report) =
        run_batch::<_, RoommatesWorkspace, _, _>(instances, threads, seed, clock);
    absorb(registry, shards);
    (outs, report)
}

/// Aggregate statistics of a solved roommates batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoommatesBatchStats {
    /// Number of instances that have a stable matching.
    pub solvable: usize,
    /// Total phase-1 proposals across the batch.
    pub proposals: u64,
    /// Total phase-2 rotations eliminated across the batch.
    pub rotations: u64,
}

/// Sum the instrumentation counters of a batch and count the solvable
/// instances (`solvable / outcomes.len()` is the solvability estimate the
/// sweeps report).
pub fn batch_stats(outcomes: &[RoommatesOutcome]) -> RoommatesBatchStats {
    let mut agg = RoommatesBatchStats::default();
    for out in outcomes {
        let stats = out.stats();
        agg.solvable += usize::from(out.is_stable());
        agg.proposals += stats.proposals;
        agg.rotations += u64::from(stats.rotations);
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmatch_prefs::gen::uniform::uniform_roommates;
    use kmatch_roommates::solve;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn batch_equals_serial() {
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        let batch: Vec<RoommatesInstance> =
            (0..200).map(|_| uniform_roommates(20, &mut rng)).collect();
        let par = solve_batch(&batch);
        assert_eq!(par.len(), batch.len());
        for (inst, out) in batch.iter().zip(&par) {
            let seq = solve(inst);
            assert_eq!(out.matching(), seq.matching());
            assert_eq!(out.stats(), seq.stats());
        }
    }

    #[test]
    fn mixed_sizes_do_not_leak_workspace_state() {
        let mut rng = ChaCha8Rng::seed_from_u64(62);
        let sizes = [30usize, 2, 15, 48, 3, 48, 2, 25];
        let batch: Vec<RoommatesInstance> = sizes
            .iter()
            .cycle()
            .take(64)
            .map(|&n| uniform_roommates(n, &mut rng))
            .collect();
        let par = solve_batch(&batch);
        for (inst, out) in batch.iter().zip(&par) {
            let seq = solve(inst);
            assert_eq!(out.matching(), seq.matching());
            assert_eq!(out.stats(), seq.stats());
        }
    }

    #[test]
    fn metered_batch_equals_plain_and_counts_solvability() {
        use kmatch_obs::{BatchRegistry, ManualClock};
        let mut rng = ChaCha8Rng::seed_from_u64(64);
        let batch: Vec<RoommatesInstance> =
            (0..100).map(|_| uniform_roommates(12, &mut rng)).collect();
        let registry = BatchRegistry::new();
        let metered = solve_batch_metered(&batch, &registry, &ManualClock::new());
        let plain = solve_batch(&batch);
        for (a, b) in metered.iter().zip(&plain) {
            assert_eq!(a.matching(), b.matching());
            assert_eq!(a.stats(), b.stats());
        }
        let agg = batch_stats(&plain);
        let merged = registry.take();
        assert_eq!(merged.solves, 100);
        assert_eq!(merged.solvable, agg.solvable as u64);
        assert_eq!(merged.unsolvable, 100 - agg.solvable as u64);
        assert_eq!(merged.proposals, agg.proposals);
        assert_eq!(merged.phase2_rotations, agg.rotations);
        assert_eq!(merged.solve_wall_ns.count(), 100);
    }

    #[test]
    fn stealing_batch_is_byte_identical_across_schedules() {
        // Mixed sizes so static chunking would straggle; several distinct
        // steal schedules must all reproduce the serial result exactly.
        let mut rng = ChaCha8Rng::seed_from_u64(65);
        let sizes = [30usize, 2, 15, 48, 3, 25];
        let batch: Vec<RoommatesInstance> = sizes
            .iter()
            .cycle()
            .take(72)
            .map(|&n| uniform_roommates(n, &mut rng))
            .collect();
        let mut ws = RoommatesWorkspace::new();
        let reference: Vec<RoommatesOutcome> = batch.iter().map(|i| ws.solve(i)).collect();
        for (threads, seed) in [(2usize, 0u64), (3, 7), (4, 0xDEAD_BEEF)] {
            let (outs, report) = solve_batch_stealing(&batch, threads, seed);
            assert_eq!(outs.len(), reference.len());
            for (a, b) in outs.iter().zip(&reference) {
                assert_eq!(a.matching(), b.matching(), "threads={threads} seed={seed}");
                assert_eq!(a.stats(), b.stats());
            }
            assert_eq!(report.path, "stealing");
            assert_eq!(
                report.lanes.iter().map(|l| l.tasks).sum::<u64>(),
                report.task_count as u64,
                "every task ran exactly once"
            );
        }
        // Single worker takes the serial path with no worker threads.
        let (outs, report) = solve_batch_stealing(&batch, 1, 9);
        assert_eq!(report.path, "serial");
        assert_eq!(report.steal_count, 0);
        for (a, b) in outs.iter().zip(&reference) {
            assert_eq!(a.matching(), b.matching());
        }
    }

    #[test]
    fn metered_stealing_merges_identically_across_schedules() {
        use kmatch_obs::{BatchRegistry, ManualClock};
        let mut rng = ChaCha8Rng::seed_from_u64(66);
        let batch: Vec<RoommatesInstance> =
            (0..60).map(|_| uniform_roommates(14, &mut rng)).collect();
        let mut merged = Vec::new();
        for (threads, seed) in [(2usize, 0u64), (4, 7), (3, 0xFEED)] {
            let registry = BatchRegistry::new();
            let clock = ManualClock::new();
            let (outs, report) =
                solve_batch_stealing_metered(&batch, threads, seed, &registry, &clock);
            assert_eq!(outs.len(), batch.len());
            assert_eq!(registry.shards_absorbed(), report.task_count as u64);
            let mut metrics = registry.take();
            // Workspace fresh/reuse accounting is executor telemetry (it
            // depends on the size order each worker saw); canonicalize it
            // out of the structural compare.
            metrics.workspace_reused = 0;
            metrics.workspace_fresh = 0;
            merged.push(metrics);
        }
        assert_eq!(merged[0], merged[1]);
        assert_eq!(merged[1], merged[2]);
        assert_eq!(merged[0].solves, 60);
    }

    #[test]
    fn stats_count_solvable_and_counters() {
        let mut rng = ChaCha8Rng::seed_from_u64(63);
        let batch: Vec<RoommatesInstance> =
            (0..40).map(|_| uniform_roommates(10, &mut rng)).collect();
        let out = solve_batch(&batch);
        let agg = batch_stats(&out);
        assert_eq!(agg.solvable, out.iter().filter(|o| o.is_stable()).count());
        assert_eq!(
            agg.proposals,
            out.iter().map(|o| o.stats().proposals).sum::<u64>()
        );
        assert!(agg.solvable > 0, "most even instances are solvable");
        assert_eq!(batch_stats(&[]), RoommatesBatchStats::default());
    }

    #[test]
    fn metered_batch_equals_plain_and_shards_merge() {
        use kmatch_obs::{BatchRegistry, ManualClock};
        let mut rng = ChaCha8Rng::seed_from_u64(67);
        let batch: Vec<RoommatesInstance> =
            (0..120).map(|_| uniform_roommates(16, &mut rng)).collect();
        let registry = BatchRegistry::new();
        let metered = solve_batch_metered(&batch, &registry, &ManualClock::new());
        let plain = solve_batch(&batch);
        for (a, b) in metered.iter().zip(&plain) {
            assert_eq!(a.matching(), b.matching());
            assert_eq!(a.stats(), b.stats());
        }
        // One shard per executor task, not per solve: exactly the task
        // count the front recorded (1 on the serial path).
        let record = registry.execution().expect("front records its execution");
        assert_eq!(registry.shards_absorbed(), record.task_count);
        assert_eq!(registry.take().solves, 120);
        // The traced front records its execution the same way.
        let (_, traces) = solve_batch_traced(&batch, &registry, &ManualClock::new(), 1 << 12);
        let record = registry
            .execution()
            .expect("traced front records its execution");
        assert_eq!(registry.shards_absorbed(), record.task_count);
        assert_eq!(traces.len() as u64, record.threads);
    }
}
