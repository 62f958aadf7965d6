//! Parallel binding executor on the work-stealing executor.
//!
//! Each `GS(i, j)` binding reads only the preference tables of genders `i`
//! and `j` and writes only its own pair list, so bindings with disjoint
//! gender pairs are embarrassingly parallel. A round of bindings is thus
//! just a set of independent tasks for [`crate::steal`], one per edge,
//! each worker reusing one [`WorkerScratch`]. The executor runs either the
//! whole edge set as one round ([`parallel_bind`] — legal because binding
//! results never feed each other; only the final class merge is shared) or
//! round-by-round following a schedule ([`parallel_bind_scheduled`] —
//! the paper's PRAM discipline, where a gender's data is held exclusively
//! by one binding per round).

use kmatch_core::binding::BindingOutcome;
use kmatch_core::{merge_edge_pairs, KAryMatching};
use kmatch_graph::{BindingTree, Schedule};
use kmatch_gs::GsStats;
use kmatch_obs::{BatchRegistry, Metrics, NoMetrics, SolverMetrics};
use kmatch_prefs::{GenderId, KPartiteInstance, KPartitePairView, Member};

use crate::scratch::WorkerScratch;
use crate::steal::{default_threads, run_tasks, steal_seed};

/// Outcome of a parallel binding run.
#[derive(Debug, Clone)]
pub struct ParallelBindingOutcome {
    /// The stable k-ary matching (identical to the sequential result).
    pub matching: KAryMatching,
    /// Per-edge GS statistics in binding-tree edge order.
    pub per_edge: Vec<GsStats>,
    /// Number of barrier-separated rounds executed (1 for the unscheduled
    /// executor).
    pub rounds_executed: usize,
}

impl From<ParallelBindingOutcome> for BindingOutcome {
    fn from(p: ParallelBindingOutcome) -> Self {
        BindingOutcome {
            matching: p.matching,
            per_edge: p.per_edge,
        }
    }
}

/// Run one binding edge `GS(i, j)`, returning its global-id pairs and
/// stats.
fn run_edge<M: Metrics>(
    inst: &KPartiteInstance,
    scratch: &mut WorkerScratch,
    (i, j): (u16, u16),
    metrics: &mut M,
) -> (Vec<(u32, u32)>, GsStats) {
    let n = inst.n() as u32;
    let view = KPartitePairView::new(inst, GenderId(i), GenderId(j));
    // The CSR snapshot preserves lists and ranks exactly, so the outcome
    // (matching and stats) is identical to solving the view directly.
    scratch.csr.load(&view);
    let out = scratch.ws.solve_metered(&scratch.csr, metrics);
    metrics.binding_edge(out.stats.proposals);
    let global = |g: u16, index: u32| Member::new(GenderId(g), index).global(n);
    let pairs = out
        .matching
        .pairs()
        .map(|(m, w)| (global(i, m), global(j, w)));
    (pairs.collect(), out.stats)
}

/// Bind `tree` round by round on `threads` executor workers: each round
/// (a list of edge indices) runs one task per edge, and rounds are
/// separated by the executor's join. Every edge solves through a fresh
/// `M` shard; the shards come back in execution order (round by round,
/// edge order within a round). The result is independent of `threads`
/// and `seed`.
pub(crate) fn bind_on<M: Metrics + Default + Send>(
    inst: &KPartiteInstance,
    tree: &BindingTree,
    rounds: &[Vec<usize>],
    threads: usize,
    seed: u64,
) -> (ParallelBindingOutcome, Vec<M>) {
    assert_eq!(
        tree.k(),
        inst.k(),
        "binding tree must span the instance's genders"
    );
    let edges = tree.edges();
    let (k, n) = (inst.k(), inst.n());
    let mut per_edge = vec![GsStats::default(); edges.len()];
    let mut all_pairs = Vec::with_capacity(edges.len() * n);
    let mut shards = Vec::with_capacity(edges.len());
    for round in rounds {
        let (results, _, _) = run_tasks(
            round.len(),
            threads,
            seed,
            |_| WorkerScratch::default(),
            |scratch, t| {
                let mut shard = M::default();
                (run_edge(inst, scratch, edges[round[t]], &mut shard), shard)
            },
        );
        for (&e, ((pairs, stats), shard)) in round.iter().zip(results) {
            per_edge[e] = stats;
            all_pairs.extend(pairs);
            shards.push(shard);
        }
    }
    let outcome = ParallelBindingOutcome {
        matching: merge_edge_pairs(k, n, all_pairs),
        per_edge,
        rounds_executed: rounds.len(),
    };
    (outcome, shards)
}

/// One round holding every edge of `tree`: the unscheduled executor.
fn all_edges(tree: &BindingTree) -> [Vec<usize>; 1] {
    [(0..tree.edges().len()).collect()]
}

/// Bind all tree edges concurrently on the executor and merge.
///
/// Result is identical to `kmatch_core::binding::bind_with_stats` — the
/// union–find merge is order-insensitive and each GS run is deterministic.
pub fn parallel_bind(inst: &KPartiteInstance, tree: &BindingTree) -> ParallelBindingOutcome {
    let rounds = all_edges(tree);
    bind_on::<NoMetrics>(inst, tree, &rounds, default_threads(), steal_seed()).0
}

/// [`parallel_bind`] with sharded metrics: each binding edge runs with its
/// own task-private [`SolverMetrics`] shard (absorbed into `registry` in
/// edge order after the join), recording per-edge proposal counts via
/// [`Metrics::binding_edge`]; after the merge one final shard carries the
/// [`Metrics::theorem3_check`] of the total against `(k−1)·n²`, so every
/// metered parallel binding validates Theorem 3 empirically.
pub fn parallel_bind_metered(
    inst: &KPartiteInstance,
    tree: &BindingTree,
    registry: &BatchRegistry,
) -> ParallelBindingOutcome {
    let rounds = all_edges(tree);
    let (outcome, shards) =
        bind_on::<SolverMetrics>(inst, tree, &rounds, default_threads(), steal_seed());
    for shard in shards {
        registry.absorb(shard);
    }
    let total: u64 = outcome.per_edge.iter().map(|s| s.proposals).sum();
    let bound = ((inst.k() - 1) * inst.n() * inst.n()) as u64;
    let mut tail = SolverMetrics::new();
    tail.theorem3_check(total, bound);
    registry.absorb(tail);
    outcome
}

/// Bind round-by-round following `schedule`: edges within a round run
/// concurrently, rounds are separated by barriers — the EREW PRAM
/// discipline of Corollary 1.
pub fn parallel_bind_scheduled(
    inst: &KPartiteInstance,
    tree: &BindingTree,
    schedule: &Schedule,
) -> ParallelBindingOutcome {
    let rounds = schedule.rounds();
    bind_on::<NoMetrics>(inst, tree, rounds, default_threads(), steal_seed()).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmatch_core::binding::bind_with_stats;
    use kmatch_core::is_kary_stable;
    use kmatch_graph::prufer::random_tree;
    use kmatch_graph::schedule::{even_odd_path_schedule, tree_edge_coloring};
    use kmatch_prefs::gen::uniform::uniform_kpartite;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn parallel_equals_sequential() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        for (k, n) in [(3usize, 8usize), (5, 6), (8, 4)] {
            let inst = uniform_kpartite(k, n, &mut rng);
            let tree = random_tree(k, &mut rng);
            let seq = bind_with_stats(&inst, &tree);
            let par = parallel_bind(&inst, &tree);
            assert_eq!(par.matching, seq.matching, "k={k}, n={n}");
            assert_eq!(par.per_edge, seq.per_edge);
        }
    }

    #[test]
    fn scheduled_equals_sequential() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for k in [4usize, 6, 9] {
            let inst = uniform_kpartite(k, 5, &mut rng);
            let tree = random_tree(k, &mut rng);
            let schedule = tree_edge_coloring(&tree);
            let seq = bind_with_stats(&inst, &tree);
            let par = parallel_bind_scheduled(&inst, &tree, &schedule);
            assert_eq!(par.matching, seq.matching);
            assert_eq!(par.rounds_executed, tree.max_degree());
        }
    }

    #[test]
    fn even_odd_executes_two_rounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let inst = uniform_kpartite(7, 6, &mut rng);
        let tree = BindingTree::path(7);
        let schedule = even_odd_path_schedule(&tree).unwrap();
        let par = parallel_bind_scheduled(&inst, &tree, &schedule);
        assert_eq!(par.rounds_executed, 2, "Corollary 2");
        assert_eq!(par.matching, bind_with_stats(&inst, &tree).matching);
    }

    #[test]
    fn metered_bind_equals_plain_and_checks_theorem3() {
        let mut rng = ChaCha8Rng::seed_from_u64(46);
        let registry = BatchRegistry::new();
        for (k, n) in [(3usize, 8usize), (6, 5)] {
            let inst = uniform_kpartite(k, n, &mut rng);
            let tree = random_tree(k, &mut rng);
            let plain = parallel_bind(&inst, &tree);
            let metered = parallel_bind_metered(&inst, &tree, &registry);
            assert_eq!(plain.matching, metered.matching);
            assert_eq!(plain.per_edge, metered.per_edge);
        }
        let merged = registry.take();
        // (3−1) + (6−1) binding edges, one theorem-3 check per bind call.
        assert_eq!(merged.binding_edges, 7);
        assert_eq!(merged.proposals_per_edge.count(), 7);
        assert_eq!(merged.theorem3_checks, 2);
        assert_eq!(merged.theorem3_violations, 0, "Theorem 3 must hold");
        assert_eq!(merged.proposals, merged.proposals_per_edge.sum());
    }

    #[test]
    fn parallel_output_is_stable() {
        let mut rng = ChaCha8Rng::seed_from_u64(44);
        let inst = uniform_kpartite(4, 5, &mut rng);
        let tree = BindingTree::star(4, 3);
        let par = parallel_bind(&inst, &tree);
        assert!(is_kary_stable(&inst, &par.matching));
    }

    #[test]
    fn outcome_converts_to_binding_outcome() {
        let mut rng = ChaCha8Rng::seed_from_u64(45);
        let inst = uniform_kpartite(3, 4, &mut rng);
        let tree = BindingTree::path(3);
        let par = parallel_bind(&inst, &tree);
        let total: u64 = par.per_edge.iter().map(|s| s.proposals).sum();
        let bo: BindingOutcome = par.into();
        assert_eq!(bo.total_proposals(), total);
    }

    #[test]
    fn binding_is_independent_of_threads_and_steal_seed() {
        // Every thread count (1 = inline serial path) and steal schedule
        // must reproduce sequential Algorithm 1, both as one round of all
        // edges and round by round under an edge-coloring schedule.
        let mut rng = ChaCha8Rng::seed_from_u64(47);
        for (k, n) in [(4usize, 7usize), (7, 5)] {
            let inst = uniform_kpartite(k, n, &mut rng);
            let tree = random_tree(k, &mut rng);
            let schedule = tree_edge_coloring(&tree);
            let seq = bind_with_stats(&inst, &tree);
            for threads in [1usize, 2, 3] {
                for seed in [0u64, 7, u64::MAX] {
                    let (all, _) =
                        bind_on::<NoMetrics>(&inst, &tree, &all_edges(&tree), threads, seed);
                    assert_eq!(all.matching, seq.matching, "k={k} threads={threads}");
                    assert_eq!(all.per_edge, seq.per_edge);
                    assert_eq!(all.rounds_executed, 1);
                    let (sched, _) =
                        bind_on::<NoMetrics>(&inst, &tree, schedule.rounds(), threads, seed);
                    assert_eq!(sched.matching, seq.matching, "k={k} threads={threads}");
                    assert_eq!(sched.per_edge, seq.per_edge);
                    assert_eq!(sched.rounds_executed, schedule.depth());
                }
            }
        }
    }
}
