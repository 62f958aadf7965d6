//! Batch throughput front-end: solve many independent bipartite instances
//! across the work-stealing executor.
//!
//! Throughput-oriented callers (parameter sweeps, Monte-Carlo experiments,
//! the `bench_throughput` benchmark) solve thousands of instances whose
//! only relationship is that they arrive together. Each solve is
//! independent, so the batch is embarrassingly parallel; the interesting
//! part is keeping the per-solve constant factor down. [`solve_batch`]
//! does that by giving every worker thread one [`GsWorkspace`], so
//! scratch buffers are allocated once per thread and reused for every
//! instance the thread processes — the per-instance allocations are
//! exactly the two partner arrays owned by each returned matching.
//!
//! Fan-out goes through [`crate::steal`]: fine-grained task chunks on
//! per-worker deques with seeded victim selection (one inline task when a
//! single worker is available). Every front runs the same task body,
//! `solve_range`, monomorphized over its metrics and span sinks.
//! Results are returned in input order and are identical to calling
//! [`kmatch_gs::gale_shapley`] on each instance serially for **any**
//! thread count or steal schedule (GS is deterministic, instances share
//! no state, and the executor reduces in task-id order).

use kmatch_forensics::{ProbeSet, Probed, RegisterSet};
use kmatch_gs::{GsOutcome, GsStats, GsWorkspace};
use kmatch_obs::{BatchRegistry, Clock, Metrics, NoMetrics, SolverMetrics};
use kmatch_prefs::PrefOracle;
use kmatch_trace::{span, FlightRecorder, NoSpans, SpanSink, Tee, TraceEvent};

use crate::steal::{default_threads, run_chunks, steal_seed, StealReport};

/// The span timeline one batch worker recorded: a `batch.chunk` span per
/// executor task it ran (arg = task id) enclosing the per-solve engine
/// spans, captured through a fixed-capacity [`FlightRecorder`] so a huge
/// workload keeps only its most recent events.
#[derive(Debug, Clone)]
pub struct ChunkTrace {
    /// Worker index — the worker-track id in the exported trace.
    pub worker: usize,
    /// Events the worker's flight recorder overwrote (0 when the ring
    /// never wrapped).
    pub dropped: u64,
    /// The surviving events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// Per-worker timelines, in worker order, as the workers' flight
/// recorders hold them.
fn worker_traces<'r, 'c: 'r, C: Clock + 'c>(
    recs: impl Iterator<Item = &'r FlightRecorder<'c, C>>,
) -> Vec<ChunkTrace> {
    let trace = |(worker, rec): (usize, &FlightRecorder<C>)| ChunkTrace {
        worker,
        dropped: rec.dropped(),
        events: rec.events(),
    };
    recs.enumerate().map(trace).collect()
}

/// The clock of the unmetered fronts: [`solve_range`] reads a clock only
/// when its metrics sink is enabled, so this one is never read.
pub(crate) struct Untimed;

impl Clock for Untimed {
    fn now_ns(&self) -> u64 {
        0
    }
}

/// A per-worker solver workspace the batch fronts drive: GS over any
/// oracle here, Irving over roommates instances in [`crate::roommates`].
pub(crate) trait Engine<I>: Default + Send {
    /// One solve's result.
    type Out: Send;
    /// Solve `inst`, observing it through `metrics` and `spans`.
    fn solve_observed<M: Metrics, S: SpanSink>(
        &mut self,
        inst: &I,
        metrics: &mut M,
        spans: &mut S,
    ) -> Self::Out;
}

impl<P: PrefOracle> Engine<P> for GsWorkspace {
    type Out = GsOutcome;
    fn solve_observed<M: Metrics, S: SpanSink>(
        &mut self,
        inst: &P,
        metrics: &mut M,
        spans: &mut S,
    ) -> GsOutcome {
        self.solve_spanned(inst, metrics, spans)
    }
}

/// The one batch task body: solve `instances` in order on `ws` inside a
/// `batch.chunk` span (arg = `task`), observing every solve through
/// `metrics` and `spans`. Per-solve wall time is read from `clock` only
/// when `M::ENABLED`; with [`NoMetrics`] and [`NoSpans`] this is a plain
/// `solve` loop ([`GsWorkspace::solve_spanned`] with those sinks is
/// [`GsWorkspace::solve`]).
pub(crate) fn solve_range<'a, I, W, M, S, C>(
    ws: &mut W,
    instances: impl Iterator<Item = &'a I>,
    task: usize,
    metrics: &mut M,
    spans: &mut S,
    clock: &C,
) -> Vec<W::Out>
where
    I: 'a,
    W: Engine<I>,
    M: Metrics,
    S: SpanSink,
    C: Clock,
{
    spans.begin(span::BATCH_CHUNK, task as u64);
    let outs = instances
        .map(|inst| {
            if !M::ENABLED {
                return ws.solve_observed(inst, metrics, spans);
            }
            let t0 = clock.now_ns();
            let out = ws.solve_observed(inst, metrics, spans);
            metrics.solve_ns(clock.now_ns().saturating_sub(t0));
            out
        })
        .collect();
    spans.end(span::BATCH_CHUNK);
    outs
}

/// Solve a batch on `threads` executor workers (one `W` per worker) with
/// one `M` shard per task, returning the outcomes in input order, the
/// shards in task-id order, and the execution report.
pub(crate) fn run_batch<I, W, M, C>(
    instances: &[I],
    threads: usize,
    seed: u64,
    clock: &C,
) -> (Vec<W::Out>, Vec<M>, StealReport)
where
    I: Sync,
    W: Engine<I>,
    M: Metrics + Default + Send,
    C: Clock + Sync,
{
    let (outs, shards, _, report) = run_chunks(
        instances,
        threads,
        seed,
        |_| W::default(),
        |ws, t, chunk| {
            let mut shard = M::default();
            let outs = solve_range(ws, chunk.iter(), t, &mut shard, &mut NoSpans, clock);
            (outs, shard)
        },
    );
    (outs, shards, report)
}

/// The traced front of either engine: a metered batch on
/// [`default_threads`] workers, each recording its tasks through one
/// [`FlightRecorder`] of `flight_capacity` events. Shards are absorbed
/// and the execution is recorded in `registry`; the per-worker timelines
/// come back in worker order.
pub(crate) fn run_traced<I, W, C>(
    instances: &[I],
    registry: &BatchRegistry,
    clock: &C,
    flight_capacity: usize,
) -> (Vec<W::Out>, Vec<ChunkTrace>)
where
    I: Sync,
    W: Engine<I>,
    C: Clock + Sync,
{
    let (outs, shards, workers, report) = run_chunks(
        instances,
        default_threads(),
        steal_seed(),
        |_| (W::default(), FlightRecorder::new(clock, flight_capacity)),
        |(ws, rec), t, chunk| {
            let mut shard = SolverMetrics::new();
            let outs = solve_range(ws, chunk.iter(), t, &mut shard, rec, clock);
            (outs, shard)
        },
    );
    absorb(registry, shards);
    registry.record_execution(report.to_execution_record());
    (outs, worker_traces(workers.iter().map(|(_, rec)| rec)))
}

/// Absorb per-task shards into `registry` in task-id order (one lock per
/// task).
pub(crate) fn absorb(registry: &BatchRegistry, shards: Vec<SolverMetrics>) {
    for shard in shards {
        registry.absorb(shard);
    }
}

/// Solve every instance with proposer-proposing Gale–Shapley, fanning the
/// batch across [`default_threads`] executor workers with one reusable
/// [`GsWorkspace`] per worker.
///
/// Output order matches input order, and each outcome equals the one
/// `gale_shapley` would produce for that instance.
///
/// ```
/// use kmatch_parallel::solve_batch;
/// use kmatch_prefs::gen::uniform::uniform_bipartite;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(1);
/// let batch: Vec<_> = (0..32).map(|_| uniform_bipartite(16, &mut rng)).collect();
/// let outcomes = solve_batch(&batch);
/// assert_eq!(outcomes.len(), 32);
/// ```
pub fn solve_batch<P>(instances: &[P]) -> Vec<GsOutcome>
where
    P: PrefOracle + Sync,
{
    solve_batch_stealing(instances, default_threads(), steal_seed()).0
}

/// Solve a batch through the work-stealing executor with `threads` OS
/// workers (at most one per task) and the given steal-schedule seed.
///
/// Outcomes are in input order and byte-identical to a serial
/// [`GsWorkspace::solve`] loop for **any** `threads`/`seed` combination;
/// only the returned [`StealReport`] reflects the actual schedule.
/// `threads <= 1` (or a single-instance batch) runs inline on the caller
/// with no worker threads at all.
pub fn solve_batch_stealing<P>(
    instances: &[P],
    threads: usize,
    seed: u64,
) -> (Vec<GsOutcome>, StealReport)
where
    P: PrefOracle + Sync,
{
    let (outs, _, report) =
        run_batch::<_, GsWorkspace, NoMetrics, _>(instances, threads, seed, &Untimed);
    (outs, report)
}

/// [`solve_batch_stealing`] with sharded metrics and per-solve wall
/// timing.
///
/// Each *task* accumulates into its own thread-private [`SolverMetrics`]
/// shard — the hot path performs plain `u64` increments, no atomics, no
/// locks; shards are absorbed into `registry` in task-id order after the
/// join, so the merged metrics are byte-identical for any steal schedule.
/// Per-solve wall time is sampled from the injected `clock` here at the
/// front-end, keeping the engine clock-free. The caller records the
/// returned report (or [`solve_batch_metered`] does).
pub fn solve_batch_stealing_metered<P, C>(
    instances: &[P],
    threads: usize,
    seed: u64,
    registry: &BatchRegistry,
    clock: &C,
) -> (Vec<GsOutcome>, StealReport)
where
    P: PrefOracle + Sync,
    C: Clock + Sync,
{
    let (outs, shards, report) = run_batch::<_, GsWorkspace, _, _>(instances, threads, seed, clock);
    absorb(registry, shards);
    (outs, report)
}

/// [`solve_batch`] with sharded metrics and per-solve wall timing:
/// [`solve_batch_stealing_metered`] on [`default_threads`] workers, with
/// the run's executor footprint recorded in `registry`. Exactly one shard
/// per executor task is absorbed.
///
/// Output order matches input order and each outcome equals
/// [`solve_batch`]'s (the metered engine instantiation runs the identical
/// round schedule).
pub fn solve_batch_metered<P, C>(
    instances: &[P],
    registry: &BatchRegistry,
    clock: &C,
) -> Vec<GsOutcome>
where
    P: PrefOracle + Sync,
    C: Clock + Sync,
{
    let (outs, report) =
        solve_batch_stealing_metered(instances, default_threads(), steal_seed(), registry, clock);
    registry.record_execution(report.to_execution_record());
    outs
}

/// [`solve_batch_metered`] that additionally records a span timeline per
/// executor worker.
///
/// Each worker owns one [`FlightRecorder`] of `flight_capacity` events
/// (preallocated before its first solve; recording never allocates) for
/// its whole lifetime and wraps every task it runs in a `batch.chunk`
/// span (arg = task id). Flight recorders are phase-level by design
/// (`SpanSink::FINE = false`): the tracks carry `batch.chunk` and one
/// `gs.solve` span per instance, never the fine-grained `gs.round` spans
/// — that is what keeps the traced batch within a few percent of the
/// plain one (the `trace_overhead` row of `results/REPORT_gs.json` pins
/// the measured figure). The returned [`ChunkTrace`]s — ordered by worker
/// id — are true per-worker timelines: they plug straight into
/// `kmatch_trace::TraceTrack::workers` for a thread-track-per-worker
/// Chrome trace and expose stragglers directly. Outcomes and merged
/// metrics are identical to [`solve_batch`]'s for any steal schedule;
/// only the span timelines reflect the schedule.
pub fn solve_batch_traced<P, C>(
    instances: &[P],
    registry: &BatchRegistry,
    clock: &C,
    flight_capacity: usize,
) -> (Vec<GsOutcome>, Vec<ChunkTrace>)
where
    P: PrefOracle + Sync,
    C: Clock + Sync,
{
    run_traced::<_, GsWorkspace, _>(instances, registry, clock, flight_capacity)
}

/// [`solve_batch_traced`] under live forensics: every worker publishes
/// its progress into its [`ProbeSet`] lane and its current leaf span into
/// its [`RegisterSet`] lane while it solves, so `GET /progress` and the
/// sampling profiler observe the batch mid-flight — and still records the
/// per-worker flight-recorder timelines the `/trace` ring and postmortem
/// bundles drain.
///
/// Worker `w` writes probe/register lane `w % lanes` (the lane sets are
/// sized by the caller, normally to the thread count; the modulo keeps a
/// mis-sized set observable rather than a panic). Each task solves
/// through a fresh [`Probed`]`<SolverMetrics, &WorkerProbe>` shard —
/// phase/round/proposal counters reset per task, exactly the resolution
/// `GET /progress` reports — and the inner shards are absorbed into
/// `registry` in task-id order. The span stream fans out through a
/// [`Tee`] to the worker's [`FlightRecorder`] (capacity
/// `flight_capacity`) and its register lane; both are `FINE = false`, so
/// the tee'd stream stays coarse. Outcomes are byte-identical to
/// [`solve_batch`]'s for any schedule; only the live telemetry, the
/// timelines, and the workspace fresh/reuse split reflect it.
pub fn solve_batch_probed<P, C>(
    instances: &[P],
    registry: &BatchRegistry,
    clock: &C,
    probes: &ProbeSet,
    registers: &RegisterSet,
    flight_capacity: usize,
) -> (Vec<GsOutcome>, Vec<ChunkTrace>)
where
    P: PrefOracle + Sync,
    C: Clock + Sync,
{
    let (outs, shards, workers, report) = run_chunks(
        instances,
        default_threads(),
        steal_seed(),
        |w| {
            let rec = FlightRecorder::new(clock, flight_capacity);
            let tee = Tee::new(rec, registers.sink(w % registers.len()));
            (GsWorkspace::new(), tee, probes.probe(w % probes.len()))
        },
        |(ws, tee, probe), t, chunk| {
            let mut shard = Probed::new(SolverMetrics::new(), *probe);
            let outs = solve_range(ws, chunk.iter(), t, &mut shard, tee, clock);
            (outs, shard.into_inner())
        },
    );
    absorb(registry, shards);
    registry.record_execution(report.to_execution_record());
    (
        outs,
        worker_traces(workers.iter().map(|(_, tee, _)| &tee.a)),
    )
}

/// Sum the instrumentation counters of a batch: total proposals and the
/// maximum round count (the batch's PRAM-style critical path).
pub fn batch_stats(outcomes: &[GsOutcome]) -> GsStats {
    GsStats {
        proposals: outcomes.iter().map(|o| o.stats.proposals).sum(),
        rounds: outcomes.iter().map(|o| o.stats.rounds).max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmatch_gs::gale_shapley;
    use kmatch_prefs::gen::uniform::uniform_bipartite;
    use kmatch_prefs::BipartiteInstance;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn batch_accepts_lazy_oracles() {
        // A batch of O(1)-state oracles: per-worker workspaces solve them
        // exactly as a serial loop would.
        use kmatch_prefs::RandomOracle;
        let batch: Vec<RandomOracle> = (0..64).map(|seed| RandomOracle::new(24, seed)).collect();
        let outcomes = solve_batch(&batch);
        let mut ws = GsWorkspace::new();
        for (oracle, out) in batch.iter().zip(&outcomes) {
            let serial = ws.solve(oracle);
            assert_eq!(out.matching, serial.matching);
            assert_eq!(out.stats, serial.stats);
        }
    }

    #[test]
    fn batch_equals_serial() {
        let mut rng = ChaCha8Rng::seed_from_u64(51);
        let batch: Vec<BipartiteInstance> =
            (0..200).map(|_| uniform_bipartite(30, &mut rng)).collect();
        let par = solve_batch(&batch);
        assert_eq!(par.len(), batch.len());
        for (inst, out) in batch.iter().zip(&par) {
            let seq = gale_shapley(inst);
            assert_eq!(out.matching, seq.matching);
            assert_eq!(out.stats, seq.stats);
        }
    }

    #[test]
    fn mixed_sizes_do_not_leak_workspace_state() {
        let mut rng = ChaCha8Rng::seed_from_u64(52);
        let sizes = [40usize, 1, 17, 64, 3, 64, 2, 33];
        let batch: Vec<BipartiteInstance> = sizes
            .iter()
            .cycle()
            .take(64)
            .map(|&n| uniform_bipartite(n, &mut rng))
            .collect();
        let par = solve_batch(&batch);
        for (inst, out) in batch.iter().zip(&par) {
            assert_eq!(out.matching, gale_shapley(inst).matching);
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let empty: Vec<BipartiteInstance> = Vec::new();
        assert!(solve_batch(&empty).is_empty());

        let mut rng = ChaCha8Rng::seed_from_u64(53);
        let one = vec![uniform_bipartite(10, &mut rng)];
        let out = solve_batch(&one);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].matching, gale_shapley(&one[0]).matching);
    }

    #[test]
    fn metered_batch_equals_plain_and_shards_merge() {
        use kmatch_obs::{BatchRegistry, ManualClock};
        let mut rng = ChaCha8Rng::seed_from_u64(55);
        let batch: Vec<BipartiteInstance> =
            (0..120).map(|_| uniform_bipartite(24, &mut rng)).collect();
        let registry = BatchRegistry::new();
        let clock = ManualClock::new();
        let metered = solve_batch_metered(&batch, &registry, &clock);
        let plain = solve_batch(&batch);
        assert_eq!(metered.len(), plain.len());
        for (a, b) in metered.iter().zip(&plain) {
            assert_eq!(a.matching, b.matching);
            assert_eq!(a.stats, b.stats);
        }
        // One shard per executor task, not per solve: exactly the task
        // count the front recorded (1 on the serial path).
        let record = registry.execution().expect("front records its execution");
        assert_eq!(registry.shards_absorbed(), record.task_count);
        let merged = registry.take();
        assert_eq!(merged.solves, 120);
        assert_eq!(
            merged.proposals,
            plain.iter().map(|o| o.stats.proposals).sum::<u64>()
        );
        assert_eq!(merged.solve_wall_ns.count(), 120);
        assert_eq!(registry.shards_absorbed(), 0, "take() resets the count");
    }

    #[test]
    fn metered_empty_batch_absorbs_nothing() {
        use kmatch_obs::{BatchRegistry, ManualClock};
        let empty: Vec<BipartiteInstance> = Vec::new();
        let registry = BatchRegistry::new();
        assert!(solve_batch_metered(&empty, &registry, &ManualClock::new()).is_empty());
        assert_eq!(registry.shards_absorbed(), 0);
    }

    #[test]
    fn probed_batch_equals_plain_and_publishes_live_telemetry() {
        use kmatch_forensics::{ProbeSet, RegisterSet};
        use kmatch_obs::{BatchRegistry, ManualClock};
        let mut rng = ChaCha8Rng::seed_from_u64(56);
        let batch: Vec<BipartiteInstance> =
            (0..150).map(|_| uniform_bipartite(28, &mut rng)).collect();
        let registry = BatchRegistry::new();
        let clock = ManualClock::new();
        let threads = crate::default_threads();
        let probes = ProbeSet::new(threads);
        let registers = RegisterSet::new(threads);
        let (probed, traces) =
            solve_batch_probed(&batch, &registry, &clock, &probes, &registers, 4096);
        let plain = solve_batch(&batch);
        assert_eq!(probed.len(), plain.len());
        for (a, b) in probed.iter().zip(&plain) {
            assert_eq!(a.matching, b.matching);
            assert_eq!(a.stats, b.stats);
        }
        // Merged metrics are the full batch, exactly as the metered path.
        let merged = registry.take();
        assert_eq!(merged.solves, 150);
        // Every solve publishes at least phase-enter + solve-done, so the
        // probes collectively moved; lanes end idle and consistent.
        let total_gen: u64 = probes.generations().iter().sum();
        assert!(total_gen > 0, "no probe publish happened");
        for snap in probes.snapshot() {
            assert!(snap.consistent);
            assert_eq!(snap.phase, kmatch_obs::phase::IDLE);
        }
        // The span register interned the solve span name.
        assert!(!registers.names().is_empty());
        // The tee'd flight recorders captured real timelines alongside
        // the live registers: every solve left a gs.solve span somewhere.
        let solve_spans: usize = traces
            .iter()
            .flat_map(|t| t.events.iter())
            .filter(|e| e.name == kmatch_trace::span::GS_SOLVE)
            .count();
        assert!(solve_spans > 0, "no gs.solve events in probed traces");
    }

    #[test]
    fn batch_stats_aggregates() {
        let mut rng = ChaCha8Rng::seed_from_u64(54);
        let batch: Vec<BipartiteInstance> =
            (0..10).map(|_| uniform_bipartite(12, &mut rng)).collect();
        let out = solve_batch(&batch);
        let agg = batch_stats(&out);
        assert_eq!(
            agg.proposals,
            out.iter().map(|o| o.stats.proposals).sum::<u64>()
        );
        assert!(agg.rounds >= out[0].stats.rounds);
        assert_eq!(batch_stats(&[]).rounds, 0);
    }
}
