//! Property-based invariants across the whole stack (proptest).
//!
//! Strategies generate instances from seeds so shrinking works on the
//! (seed, size) tuple; every invariant here is one of the paper's claims
//! or a structural property the algorithms rely on.

use kmatch::gs::{gale_shapley, is_stable, mcvitie_wilson};
use kmatch::prelude::*;
use kmatch::roommates::brute::stable_matching_exists_brute;
use kmatch::roommates::matching::is_roommates_stable;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// GS: perfect, stable, and within the n² proposal bound; the
    /// McVitie–Wilson variant agrees exactly (confluence).
    #[test]
    fn gs_invariants(seed in 0u64..1_000_000, n in 1usize..40) {
        let inst = kmatch::gen::uniform_bipartite(n, &mut rng(seed));
        let out = gale_shapley(&inst);
        prop_assert!(is_stable(&inst, &out.matching));
        prop_assert!(out.stats.proposals <= (n * n) as u64);
        prop_assert!(out.stats.proposals >= n as u64);
        let mv = mcvitie_wilson(&inst);
        prop_assert_eq!(&mv.matching, &out.matching);
    }

    /// Algorithm 1 on a random tree: the classes form a perfect k-ary
    /// matching and no blocking family exists (Theorems 2, 3).
    #[test]
    fn binding_invariants(seed in 0u64..1_000_000, k in 2usize..6, n in 1usize..8) {
        let mut r = rng(seed);
        let inst = kmatch::gen::uniform_kpartite(k, n, &mut r);
        let tree = random_tree(k, &mut r);
        let out = bind_with_stats(&inst, &tree);
        prop_assert!(is_kary_stable(&inst, &out.matching));
        prop_assert!(out.total_proposals() <= ((k - 1) * n * n) as u64);
        // Perfect partition: every member in exactly one family.
        for g in 0..k {
            for i in 0..n as u32 {
                let f = out.matching.family_of(Member::new(g, i));
                prop_assert_eq!(out.matching.family(f)[g], i);
            }
        }
    }

    /// The parallel executor is bit-identical to sequential Algorithm 1.
    #[test]
    fn parallel_equals_sequential(seed in 0u64..1_000_000, k in 2usize..7, n in 1usize..8) {
        let mut r = rng(seed);
        let inst = kmatch::gen::uniform_kpartite(k, n, &mut r);
        let tree = random_tree(k, &mut r);
        let seq = bind(&inst, &tree);
        prop_assert_eq!(parallel_bind(&inst, &tree).matching, seq.clone());
        let schedule = tree_edge_coloring(&tree);
        prop_assert_eq!(parallel_bind_scheduled(&inst, &tree, &schedule).matching, seq);
    }

    /// Prüfer: decode(encode(t)) == t and the degree sequence matches the
    /// code multiplicities + 1.
    #[test]
    fn prufer_roundtrip(seed in 0u64..1_000_000, k in 2usize..30) {
        let tree = random_tree(k, &mut rng(seed));
        let code = kmatch::graph::encode_prufer(&tree);
        let back = kmatch::graph::decode_prufer(&code, k);
        prop_assert_eq!(back.canonical_edges(), tree.canonical_edges());
        let degrees = tree.degrees();
        #[allow(clippy::needless_range_loop)]
        for v in 0..k {
            let occ = code.iter().filter(|&&x| x as usize == v).count();
            prop_assert_eq!(degrees[v], occ + 1);
        }
    }

    /// Irving's solver agrees with exhaustive search on existence, and
    /// its matchings are stable.
    #[test]
    fn roommates_agrees_with_brute(seed in 0u64..1_000_000, half in 1usize..4) {
        let n = half * 2;
        let inst = kmatch::gen::uniform_roommates(n, &mut rng(seed));
        let brute = stable_matching_exists_brute(&inst);
        match solve_roommates(&inst) {
            RoommatesOutcome::Stable { matching, .. } => {
                prop_assert!(brute);
                prop_assert!(is_roommates_stable(&inst, &matching));
            }
            RoommatesOutcome::NoStableMatching { .. } => prop_assert!(!brute),
        }
    }

    /// Weak stability (§IV-D) implies full stability (§II-C): the weakened
    /// condition admits strictly more blocking families.
    #[test]
    fn weak_implies_full(seed in 0u64..1_000_000, k in 3usize..5, n in 2usize..5) {
        let mut r = rng(seed);
        let inst = kmatch::gen::uniform_kpartite(k, n, &mut r);
        let pr = GenderPriorities::by_id(k);
        let tree = random_tree(k, &mut r);
        let m = bind(&inst, &tree);
        if is_weakly_stable(&inst, &m, &pr) {
            prop_assert!(is_kary_stable(&inst, &m));
        }
    }

    /// Algorithm 2's output is weakly stable for every seed (Theorem 5).
    #[test]
    fn priority_binding_weakly_stable(seed in 0u64..1_000_000, k in 2usize..5, n in 1usize..5) {
        let inst = kmatch::gen::uniform_kpartite(k, n, &mut rng(seed));
        let pr = GenderPriorities::by_id(k);
        for choice in [AttachChoice::Chain, AttachChoice::HighestPriority] {
            let (m, _) = priority_bind(&inst, &pr, choice);
            prop_assert!(is_weakly_stable(&inst, &m, &pr));
        }
    }

    /// The fair SMP solver always returns a stable marriage.
    #[test]
    fn fair_smp_always_stable(seed in 0u64..1_000_000, n in 1usize..16) {
        let inst = kmatch::gen::uniform_bipartite(n, &mut rng(seed));
        let out = fair_stable_marriage(&inst);
        prop_assert!(is_stable(&inst, &out.matching));
    }

    /// Theorem 1 construction: never a stable binary matching (Irving).
    #[test]
    fn theorem1_never_stable(k in 3usize..6, n in 1usize..8) {
        let rm = kmatch::gen::theorem1_roommates(k, n);
        prop_assert!(!solve_roommates(&rm).is_stable());
    }

    /// The distributed message-passing GS equals the centralized engine
    /// (matching AND proposal count), and the distributed binding equals
    /// sequential Algorithm 1.
    #[test]
    fn distributed_equals_centralized(seed in 0u64..1_000_000, n in 1usize..16) {
        let inst = kmatch::gen::uniform_bipartite(n, &mut rng(seed));
        let central = kmatch::gs::gale_shapley(&inst);
        let dist = kmatch::distsim::distributed_gale_shapley(&inst);
        prop_assert_eq!(dist.matching, central.matching);
        prop_assert_eq!(dist.proposals, central.stats.proposals);
        prop_assert!(dist.net.messages <= 3 * dist.proposals);
    }

    /// Distributed binding across random trees equals sequential binding.
    #[test]
    fn distributed_bind_equals_sequential(seed in 0u64..1_000_000, k in 2usize..6, n in 1usize..6) {
        let mut r = rng(seed);
        let inst = kmatch::gen::uniform_kpartite(k, n, &mut r);
        let tree = random_tree(k, &mut r);
        let schedule = tree_edge_coloring(&tree);
        let dist = kmatch::distsim::distributed_bind(&inst, &tree, &schedule);
        prop_assert_eq!(dist.matching, bind(&inst, &tree));
    }

    /// Polynomial egalitarian SMP (rotation poset + min-cut) equals the
    /// exhaustive lattice optimum.
    #[test]
    fn egalitarian_mincut_equals_lattice(seed in 0u64..1_000_000, n in 1usize..10) {
        let inst = kmatch::gen::uniform_bipartite(n, &mut rng(seed));
        let (m, cost) = kmatch::gs::egalitarian_stable_matching(&inst);
        prop_assert!(kmatch::gs::is_stable(&inst, &m));
        let lattice = kmatch::gs::enumerate_stable_lattice(&inst, 1_000_000).unwrap();
        let best = lattice
            .matchings
            .iter()
            .map(|mm| {
                (0..n as u32)
                    .map(|p| {
                        inst.proposer_rank(p, mm.partner_of_proposer(p)) as u64
                            + inst.responder_rank(p, mm.partner_of_responder(p)) as u64
                    })
                    .sum::<u64>()
            })
            .min()
            .unwrap();
        prop_assert_eq!(cost, best);
    }

    /// The binding-tree optimizer's output is stable and no worse than
    /// the canonical path tree under the same objective.
    #[test]
    fn optimizer_sound(seed in 0u64..1_000_000, k in 3usize..5, n in 2usize..6) {
        let mut r = rng(seed);
        let inst = kmatch::gen::uniform_kpartite(k, n, &mut r);
        let best = kmatch::core::optimize_tree(
            &inst,
            10,
            &mut r,
            kmatch::core::optimize::mean_rank_objective,
        );
        prop_assert!(is_kary_stable(&inst, &best.matching));
        let path_cost = kmatch::core::optimize::mean_rank_objective(
            &inst,
            &bind(&inst, &BindingTree::path(k)),
        );
        prop_assert!(best.objective <= path_cost + 1e-12);
    }

    /// restrict_to_genders is consistent with partitioned binding: binding
    /// the restriction directly equals the per-block matching.
    #[test]
    fn restriction_matches_partitioned(seed in 0u64..1_000_000, blocks in 2usize..4, n in 1usize..5) {
        let k_total = blocks * 2;
        let inst = kmatch::gen::uniform_kpartite(k_total, n, &mut rng(seed));
        let partition = kmatch::core::GenderPartition::contiguous(k_total, 2);
        let out = kmatch::core::partitioned_bind(&inst, &partition);
        for (b, block) in partition.blocks().iter().enumerate() {
            let sub = inst.restrict_to_genders(block);
            let direct = bind(&sub, &BindingTree::path(2));
            prop_assert_eq!(&out.per_block[b], &direct, "block {}", b);
        }
    }

    /// Quorum branch-and-bound equals the naive enumerator.
    #[test]
    fn quorum_bb_equals_naive(seed in 0u64..1_000_000, k in 2usize..4, n in 2usize..4, q in 1usize..4) {
        let q = q.min(k);
        let mut r = rng(seed);
        let inst = kmatch::gen::uniform_kpartite(k, n, &mut r);
        let m = bind(&inst, &random_tree(k, &mut r));
        prop_assert_eq!(
            kmatch::core::find_quorum_blocking_family(&inst, &m, q).is_some(),
            kmatch::core::find_quorum_blocking_family_naive(&inst, &m, q).is_some()
        );
    }

    /// Schedules: tree edge coloring always has depth Δ and is a valid
    /// partition (validated inside Schedule::new).
    #[test]
    fn schedule_depth_is_delta(seed in 0u64..1_000_000, k in 2usize..24) {
        let tree = random_tree(k, &mut rng(seed));
        let s = tree_edge_coloring(&tree);
        prop_assert_eq!(s.depth(), tree.max_degree());
        let total: usize = s.rounds().iter().map(Vec::len).sum();
        prop_assert_eq!(total, k - 1);
    }
}
