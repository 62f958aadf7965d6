//! Content-addressed cached batch front-end.
//!
//! Batch workloads resubmit instances — parameter sweeps revisit
//! configurations, delta streams undo themselves — and GS is
//! deterministic, so an instance state solved once never needs solving
//! again. [`solve_batch_cached`] keys every instance by its 128-bit
//! content fingerprint (`kmatch_incremental::bipartite_fingerprint`) and
//! serves repeats straight from a caller-owned [`SolveCache`]; only the
//! missing instances go through the work-stealing executor, on the same
//! task body as [`crate::batch::solve_batch_metered`] (one metrics shard
//! per executor task, plus one shard for the cache lookups, with the
//! miss pass's executor footprint recorded). Hits, misses, and evictions
//! land in the [`BatchRegistry`]'s merged `SolverMetrics`, and the returned
//! [`CachedBatchOutcome`] carries the same counts for callers (the CLI
//! hit-rate printout) that do not drain the registry.

use std::collections::HashMap;

use kmatch_gs::{BipartiteMatching, GsOutcome, GsStats, GsWorkspace};
use kmatch_incremental::{bipartite_fingerprint, SolveCache};
use kmatch_obs::{BatchRegistry, Clock, Metrics, SolverMetrics};
use kmatch_prefs::{BipartitePrefs, ResponderListSlice};
use kmatch_trace::NoSpans;

use crate::batch::{absorb, solve_range};
use crate::steal::{default_threads, run_chunks, steal_seed};

/// A cached batch solve: the outcomes plus this call's cache traffic.
#[derive(Debug)]
pub struct CachedBatchOutcome {
    /// Per-instance outcomes in input order. Cache hits report
    /// zeroed stats — no engine work was executed for them.
    pub outcomes: Vec<GsOutcome>,
    /// Instances served from the cache.
    pub hits: u64,
    /// Instances that had to be solved.
    pub misses: u64,
}

impl CachedBatchOutcome {
    /// Fraction of the batch served from the cache (0 for an empty batch).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Solve a batch through a caller-owned content-addressed cache.
///
/// Outcomes are in input order; a repeated instance (same preference
/// content, whether a literal resubmission or a delta stream that undid
/// itself) returns a clone of its cached proposer-optimal matching. The
/// cache outlives the call, so a sweep can thread one cache through many
/// batches.
pub fn solve_batch_cached<P, C>(
    instances: &[P],
    cache: &mut SolveCache<BipartiteMatching>,
    registry: &BatchRegistry,
    clock: &C,
) -> CachedBatchOutcome
where
    P: BipartitePrefs + ResponderListSlice + Sync,
    C: Clock + Sync,
{
    let keys: Vec<(u64, u64)> = instances.iter().map(bipartite_fingerprint).collect();
    let mut shard = SolverMetrics::new();
    // First pass: split hits from misses, preserving input positions. A
    // key repeated *within* the batch is a miss only at its first
    // occurrence; later occurrences are hits served by that one solve
    // (read back from its slot — a tiny cache may already have evicted
    // an early key by the time a late duplicate needs it).
    let mut outcomes: Vec<Option<GsOutcome>> = Vec::with_capacity(instances.len());
    let mut miss_idx: Vec<usize> = Vec::new();
    let mut first_seen: HashMap<(u64, u64), usize> = HashMap::new();
    let mut dups: Vec<(usize, usize)> = Vec::new();
    for (i, &key) in keys.iter().enumerate() {
        outcomes.push(cache.get(key).map(|matching| served(matching.clone())));
        if outcomes[i].is_some() {
            shard.cache_lookup(true);
        } else if let Some(&first) = first_seen.get(&key) {
            shard.cache_lookup(true);
            dups.push((i, first));
        } else {
            shard.cache_lookup(false);
            first_seen.insert(key, i);
            miss_idx.push(i);
        }
    }
    let hits = shard.cache_hits;
    let misses = shard.cache_misses;
    // Second pass: solve the misses on the executor, one metrics shard
    // per task.
    let (solved, shards, _, report) = run_chunks(
        &miss_idx,
        default_threads(),
        steal_seed(),
        |_| GsWorkspace::new(),
        |ws, t, idx| {
            let mut engine = SolverMetrics::new();
            let insts = idx.iter().map(|&i| &instances[i]);
            let outs = solve_range(ws, insts, t, &mut engine, &mut NoSpans, clock);
            (outs, engine)
        },
    );
    absorb(registry, shards);
    registry.record_execution(report.to_execution_record());
    for (&i, out) in miss_idx.iter().zip(solved) {
        if cache.insert(keys[i], out.matching.clone()) {
            shard.cache_eviction();
        }
        outcomes[i] = Some(out);
    }
    for (i, first) in dups {
        let solved = outcomes[first]
            .as_ref()
            .expect("a duplicate's first sighting was solved");
        outcomes[i] = Some(served(solved.matching.clone()));
    }
    registry.absorb(shard);
    CachedBatchOutcome {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every slot is a hit or a solved miss"))
            .collect(),
        hits,
        misses,
    }
}

/// An outcome served without solving: zeroed stats.
fn served(matching: BipartiteMatching) -> GsOutcome {
    GsOutcome {
        matching,
        stats: GsStats::default(),
        trace: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmatch_gs::gale_shapley;
    use kmatch_obs::ManualClock;
    use kmatch_prefs::gen::uniform::uniform_bipartite;
    use kmatch_prefs::BipartiteInstance;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn repeats_hit_and_agree_with_cold() {
        let mut rng = ChaCha8Rng::seed_from_u64(57);
        let distinct: Vec<BipartiteInstance> =
            (0..8).map(|_| uniform_bipartite(16, &mut rng)).collect();
        // Each instance appears three times.
        let batch: Vec<BipartiteInstance> = distinct.iter().cycle().take(24).cloned().collect();
        let mut cache = SolveCache::default();
        let registry = BatchRegistry::new();
        let out = solve_batch_cached(&batch, &mut cache, &registry, &ManualClock::new());
        assert_eq!(out.misses, 8, "first sighting of each instance solves");
        assert_eq!(out.hits, 16, "both repeats of each instance hit");
        assert!((out.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        for (inst, o) in batch.iter().zip(&out.outcomes) {
            assert_eq!(o.matching, gale_shapley(inst).matching);
        }
        let merged = registry.take();
        assert_eq!(merged.cache_hits, 16);
        assert_eq!(merged.cache_misses, 8);
        assert_eq!(merged.solves, 8, "only misses reach the engine");
    }

    #[test]
    fn cache_persists_across_batches() {
        let mut rng = ChaCha8Rng::seed_from_u64(58);
        let batch: Vec<BipartiteInstance> =
            (0..6).map(|_| uniform_bipartite(12, &mut rng)).collect();
        let mut cache = SolveCache::default();
        let registry = BatchRegistry::new();
        let clock = ManualClock::new();
        let first = solve_batch_cached(&batch, &mut cache, &registry, &clock);
        assert_eq!(first.hits, 0);
        let second = solve_batch_cached(&batch, &mut cache, &registry, &clock);
        assert_eq!(second.hits, 6, "second batch is fully cached");
        assert_eq!(second.misses, 0);
        for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
            assert_eq!(a.matching, b.matching);
        }
    }

    #[test]
    fn tiny_cache_evicts_and_stays_correct() {
        let mut rng = ChaCha8Rng::seed_from_u64(59);
        let batch: Vec<BipartiteInstance> =
            (0..10).map(|_| uniform_bipartite(10, &mut rng)).collect();
        let mut cache = SolveCache::new(3);
        let registry = BatchRegistry::new();
        let out = solve_batch_cached(&batch, &mut cache, &registry, &ManualClock::new());
        assert_eq!(out.misses, 10);
        assert!(cache.len() <= 3);
        let merged = registry.take();
        assert_eq!(merged.cache_evictions, 7);
        for (inst, o) in batch.iter().zip(&out.outcomes) {
            assert_eq!(o.matching, gale_shapley(inst).matching);
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let empty: Vec<BipartiteInstance> = Vec::new();
        let mut cache = SolveCache::default();
        let registry = BatchRegistry::new();
        let out = solve_batch_cached(&empty, &mut cache, &registry, &ManualClock::new());
        assert!(out.outcomes.is_empty());
        assert_eq!(out.hit_rate(), 0.0);
    }

    #[test]
    fn absorbs_one_shard_per_task_plus_the_lookup_shard() {
        // The miss pass absorbs one shard per executor task (not one per
        // solve, which would make the count depend on the host's cores),
        // and the lookup pass one more; the miss pass records its run.
        let mut rng = ChaCha8Rng::seed_from_u64(60);
        let distinct: Vec<BipartiteInstance> =
            (0..40).map(|_| uniform_bipartite(12, &mut rng)).collect();
        let batch: Vec<BipartiteInstance> = distinct.iter().cycle().take(60).cloned().collect();
        let mut cache = SolveCache::default();
        let registry = BatchRegistry::new();
        let clock = ManualClock::new();
        for expected_misses in [40u64, 0] {
            let out = solve_batch_cached(&batch, &mut cache, &registry, &clock);
            assert_eq!(out.misses, expected_misses);
            let record = registry
                .execution()
                .expect("miss pass records its execution");
            assert_eq!(registry.shards_absorbed(), record.task_count + 1);
            if expected_misses == 0 {
                assert_eq!(record.task_count, 0, "a fully cached batch runs no task");
            }
            registry.take();
        }
    }
}
