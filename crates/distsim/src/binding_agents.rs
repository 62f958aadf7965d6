//! Distributed Algorithm 1: iterative binding over message-passing GS.
//!
//! Every binding-tree edge runs the distributed GS protocol between its
//! two genders. Edges within one schedule round touch disjoint genders,
//! so their networks are independent — they execute concurrently, and the
//! critical path of a round is the slowest of its edges (the distributed
//! reading of Corollary 1's `Δ` bottleneck; the even–odd path schedule of
//! Corollary 2 finishes in two such rounds).

use kmatch_core::{global_pairs, merge_edge_pairs, KAryMatching};
use kmatch_graph::{BindingTree, Schedule};
use kmatch_prefs::{GenderId, KPartiteInstance, KPartitePairView};

use crate::gs_agents::distributed_gale_shapley;
use crate::network::NetworkStats;

/// Result of a distributed binding run.
#[derive(Debug, Clone)]
pub struct DistributedBindOutcome {
    /// The stable k-ary matching (identical to sequential Algorithm 1).
    pub matching: KAryMatching,
    /// Per-edge network counters, in binding-tree edge order.
    pub per_edge: Vec<NetworkStats>,
    /// Total messages across all bindings.
    pub total_messages: u64,
    /// Critical-path communication rounds: per schedule round, the max of
    /// its edges' round counts; summed over schedule rounds.
    pub critical_path_rounds: u64,
}

/// Execute Algorithm 1 distributedly following `schedule`.
pub fn distributed_bind(
    inst: &KPartiteInstance,
    tree: &BindingTree,
    schedule: &Schedule,
) -> DistributedBindOutcome {
    let (k, n) = (inst.k(), inst.n());
    assert_eq!(tree.k(), k, "binding tree must span the instance's genders");
    let mut pairs = Vec::with_capacity(tree.edges().len() * n);
    let mut per_edge = vec![NetworkStats::default(); tree.edges().len()];
    let mut critical_path_rounds = 0u64;
    for round in schedule.rounds() {
        let mut round_max = 0u64;
        for &e in round {
            let (i, j) = tree.edges()[e];
            let view = KPartitePairView::new(inst, GenderId(i), GenderId(j));
            let out = distributed_gale_shapley(&view);
            pairs.extend(global_pairs(n, (i, j), out.matching.pairs()));
            per_edge[e] = out.net;
            round_max = round_max.max(out.net.rounds as u64);
        }
        critical_path_rounds += round_max;
    }
    let matching = merge_edge_pairs(k, n, pairs);
    let total_messages = per_edge.iter().map(|s| s.messages).sum();
    DistributedBindOutcome {
        matching,
        per_edge,
        total_messages,
        critical_path_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmatch_core::binding::bind_with_stats;
    use kmatch_graph::prufer::random_tree;
    use kmatch_graph::schedule::{even_odd_path_schedule, tree_edge_coloring};
    use kmatch_prefs::gen::uniform::uniform_kpartite;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn distributed_equals_sequential() {
        let mut rng = ChaCha8Rng::seed_from_u64(141);
        for (k, n) in [(3usize, 6usize), (5, 5), (8, 4)] {
            let inst = uniform_kpartite(k, n, &mut rng);
            let tree = random_tree(k, &mut rng);
            let schedule = tree_edge_coloring(&tree);
            let dist = distributed_bind(&inst, &tree, &schedule);
            let seq = bind_with_stats(&inst, &tree);
            assert_eq!(dist.matching, seq.matching, "k={k}, n={n}");
        }
    }

    #[test]
    fn message_totals_bounded_by_theorem3() {
        // messages ≤ 3 × proposals ≤ 3(k−1)n².
        let mut rng = ChaCha8Rng::seed_from_u64(142);
        let (k, n) = (6usize, 12usize);
        let inst = uniform_kpartite(k, n, &mut rng);
        let tree = BindingTree::path(k);
        let schedule = tree_edge_coloring(&tree);
        let dist = distributed_bind(&inst, &tree, &schedule);
        let seq = bind_with_stats(&inst, &tree);
        assert!(dist.total_messages >= 2 * seq.total_proposals());
        assert!(dist.total_messages <= 3 * seq.total_proposals());
        assert!(dist.total_messages <= (3 * (k - 1) * n * n) as u64);
    }

    #[test]
    fn even_odd_critical_path_is_two_gs_phases() {
        // The even-odd schedule has two rounds; the critical path is the
        // sum of the two slowest edges — far below the sequential sum.
        let mut rng = ChaCha8Rng::seed_from_u64(143);
        let (k, n) = (9usize, 8usize);
        let inst = uniform_kpartite(k, n, &mut rng);
        let tree = BindingTree::path(k);
        let even_odd = even_odd_path_schedule(&tree).unwrap();
        let dist = distributed_bind(&inst, &tree, &even_odd);
        let sequential_rounds: u64 = dist.per_edge.iter().map(|s| s.rounds as u64).sum();
        assert!(
            dist.critical_path_rounds < sequential_rounds,
            "{} !< {}",
            dist.critical_path_rounds,
            sequential_rounds
        );
        // Critical path = max of round-0 edges + max of round-1 edges.
        let max_of = |edges: &[usize]| -> u64 {
            edges
                .iter()
                .map(|&e| dist.per_edge[e].rounds as u64)
                .max()
                .unwrap()
        };
        let expected = max_of(&even_odd.rounds()[0]) + max_of(&even_odd.rounds()[1]);
        assert_eq!(dist.critical_path_rounds, expected);
    }

    #[test]
    fn star_schedule_serializes() {
        let mut rng = ChaCha8Rng::seed_from_u64(144);
        let (k, n) = (5usize, 6usize);
        let inst = uniform_kpartite(k, n, &mut rng);
        let tree = BindingTree::star(k, 0);
        let schedule = tree_edge_coloring(&tree);
        let dist = distributed_bind(&inst, &tree, &schedule);
        // Δ = k−1 rounds of one edge each: critical path = sum of all.
        let total: u64 = dist.per_edge.iter().map(|s| s.rounds as u64).sum();
        assert_eq!(dist.critical_path_rounds, total);
    }
}
