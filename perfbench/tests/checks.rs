//! Every output check passes on a correct result and fails on a corrupted
//! one: a swapped GS pair, a flipped roommates verdict, a false
//! partition certificate, and a k-ary matching with a blocking family.

use kmatch_core::{
    bind_with_stats, find_blocking_family, find_blocking_family_naive, KAryMatching,
};
use kmatch_graph::BindingTree;
use kmatch_gs::{find_blocking_pair, BipartiteMatching, GsWorkspace};
use kmatch_perfbench::checks::{self, Verdict};
use kmatch_prefs::gen::uniform::uniform_kpartite;
use kmatch_prefs::{materialize_oracle, CachedRoommatesOracle, RandomOracle, TruncatedRoommates};
use kmatch_roommates::partition::{tolerant_solve_budgeted, TolerantOutcome};
use kmatch_roommates::{
    solve_escalating, CertKind, EscalationReport, RoommatesMatching, RoommatesOutcome,
    RoommatesWorkspace, SolveStats,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn gs_check_rejects_a_swapped_pair() {
    let oracle = RandomOracle::new(300, 17);
    let out = GsWorkspace::new().solve(&oracle);
    assert_eq!(checks::gs_stable(&oracle, &out.matching, 1), Ok(()));
    assert_eq!(checks::gs_stable(&oracle, &out.matching, 3), Ok(()));

    // Swap the partners of two proposers; keep the first swap the
    // reference verifier also calls unstable.
    let materialized = materialize_oracle(&oracle);
    let partners: Vec<u32> = (0..300)
        .map(|m| out.matching.partner_of_proposer(m))
        .collect();
    let corrupt = (1..300)
        .map(|b| {
            let mut p = partners.clone();
            p.swap(0, b);
            BipartiteMatching::from_proposer_partners(p)
        })
        .find(|m| find_blocking_pair(&materialized, m).is_some())
        .expect("some swap is unstable");
    assert!(checks::gs_stable(&oracle, &corrupt, 1).is_err());
    assert!(checks::gs_stable(&oracle, &corrupt, 3).is_err());
}

#[test]
fn gs_equality_check_rejects_a_different_outcome() {
    let oracle = RandomOracle::new(64, 3);
    let out = GsWorkspace::new().solve(&oracle);
    assert_eq!(checks::gs_equal(&out, &out.clone(), "same"), Ok(()));
    let mut other = out.clone();
    other.stats.proposals += 1;
    assert!(checks::gs_equal(&other, &out, "stats").is_err());
    let mut swapped = out.clone();
    let mut p: Vec<u32> = (0..64)
        .map(|m| out.matching.partner_of_proposer(m))
        .collect();
    p.swap(0, 1);
    swapped.matching = BipartiteMatching::from_proposer_partners(p);
    assert!(checks::gs_equal(&swapped, &out, "matching").is_err());
}

/// The first seeds at n = 400 whose escalating verdict is stable and
/// partition-certified unsolvable.
fn roommates_cases() -> [(CachedRoommatesOracle, RoommatesOutcome, EscalationReport); 2] {
    let mut ws = RoommatesWorkspace::new();
    let mut stable = None;
    let mut partition = None;
    for seed in 0..200 {
        let oracle = CachedRoommatesOracle::new(400, seed);
        let (out, rep) = solve_escalating(&oracle, &mut ws);
        match rep.cert {
            CertKind::Stable if stable.is_none() => stable = Some((oracle, out, rep)),
            CertKind::Partition if partition.is_none() => partition = Some((oracle, out, rep)),
            _ => {}
        }
        if stable.is_some() && partition.is_some() {
            break;
        }
    }
    [
        stable.expect("a stable seed"),
        partition.expect("a partition seed"),
    ]
}

#[test]
fn roommates_check_rejects_flipped_verdicts() {
    let [(s_oracle, s_out, s_rep), (p_oracle, p_out, p_rep)] = roommates_cases();
    let s_verdict = Verdict::of(&s_out, &s_rep);
    let p_verdict = Verdict::of(&p_out, &p_rep);
    assert_eq!(
        checks::roommates_outcome(&s_oracle, &s_out, &s_rep, Some(s_verdict)),
        Ok(())
    );
    assert_eq!(
        checks::roommates_outcome(&p_oracle, &p_out, &p_rep, Some(p_verdict)),
        Ok(())
    );

    // Stable flipped to unsolvable: the certificate is unchanged, so the
    // outcome contradicts it; claimed as a partition, the verdict differs
    // from the earlier solve's.
    let flipped = RoommatesOutcome::NoStableMatching {
        culprit: 0,
        stats: SolveStats::default(),
    };
    assert!(checks::roommates_outcome(&s_oracle, &flipped, &s_rep, None).is_err());
    let as_partition = EscalationReport {
        cert: CertKind::Partition,
        odd_parties: 1,
        ..s_rep.clone()
    };
    assert!(
        checks::roommates_outcome(&s_oracle, &flipped, &as_partition, Some(s_verdict)).is_err()
    );

    // Unsolvable flipped to stable: any perfect matching of an unsolvable
    // instance has a blocking pair, which the pair-free scan finds.
    let fake = RoommatesOutcome::Stable {
        matching: RoommatesMatching::new((0..400u32).map(|p| p ^ 1).collect()),
        stats: SolveStats::default(),
    };
    let as_stable = EscalationReport {
        cert: CertKind::Stable,
        odd_parties: 0,
        ..p_rep.clone()
    };
    assert!(checks::roommates_outcome(&p_oracle, &fake, &as_stable, None).is_err());

    // A different cut or attempt count is a different verdict too.
    let mut moved = s_verdict;
    moved.final_cut *= 2;
    assert!(checks::roommates_outcome(&s_oracle, &s_out, &s_rep, Some(moved)).is_err());
}

#[test]
fn partition_check_rejects_a_false_unsolvable_certificate() {
    let [(s_oracle, s_out, _), (p_oracle, _, p_rep)] = roommates_cases();
    let truncated = TruncatedRoommates::new(&p_oracle, p_rep.final_cut);
    let decided = tolerant_solve_budgeted(&truncated, &mut RoommatesWorkspace::new(), 8);
    let TolerantOutcome::Partition { partition, .. } = decided else {
        panic!("the deciding cut gives a partition");
    };
    assert_eq!(
        checks::roommates_partition(&p_oracle, &partition.pi),
        Ok(())
    );

    // A solvable instance has no stable partition with an odd party: its
    // stable matching read as pairs verifies but holds no odd party, and
    // neither all-singletons nor another instance's partition verifies.
    let pairs = s_out.matching().expect("stable").partners().to_vec();
    assert!(checks::roommates_partition(&s_oracle, &pairs).is_err());
    let alone: Vec<u32> = (0..400).collect();
    assert!(checks::roommates_partition(&s_oracle, &alone).is_err());
    assert!(checks::roommates_partition(&s_oracle, &partition.pi).is_err());
}

#[test]
fn roommates_stability_scan_agrees_with_blocking_pairs() {
    let [(oracle, out, _), _] = roommates_cases();
    let partner = out.matching().expect("stable").partners().to_vec();
    assert_eq!(checks::roommates_stable(&oracle, &partner), Ok(()));
    // Swapping partners between two pairs creates a blocking pair for
    // some choice of pairs.
    let (a, b) = (0usize, partner[0] as usize);
    let broken = (0..400usize)
        .filter(|&c| c != a && c != b)
        .map(|c| {
            let d = partner[c] as usize;
            let mut p = partner.clone();
            p[a] = c as u32;
            p[c] = a as u32;
            p[b] = d as u32;
            p[d] = b as u32;
            p
        })
        .any(|p| checks::roommates_stable(&oracle, &p).is_err());
    assert!(broken, "some re-pairing must block");
}

#[test]
fn kary_check_rejects_a_blocking_family() {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let inst = uniform_kpartite(3, 6, &mut rng);
    let tree = BindingTree::path(3);
    let bound = bind_with_stats(&inst, &tree).matching;
    let dfs = find_blocking_family(&inst, &bound);
    assert_eq!(checks::kary_stable(&inst, &bound, &dfs), Ok(()));
    assert_eq!(checks::kary_rebind(&inst, &tree, &bound), Ok(()));

    // Exchange the gender-0 members of two families until the exhaustive
    // verifier finds a blocking family.
    let tuples = bound.to_tuples();
    let corrupt = (1..6)
        .map(|f| {
            let mut t = tuples.clone();
            let g0 = t[0][0];
            t[0][0] = t[f][0];
            t[f][0] = g0;
            KAryMatching::from_tuples(3, 6, &t)
        })
        .find(|m| find_blocking_family_naive(&inst, m).is_some())
        .expect("some exchange blocks");
    let dfs = find_blocking_family(&inst, &corrupt);
    assert!(dfs.is_some());
    assert!(checks::kary_stable(&inst, &corrupt, &dfs).is_err());
    // A verifier that wrongly called it stable disagrees with the bitset
    // verifier.
    assert!(checks::kary_stable(&inst, &corrupt, &None).is_err());
    assert!(checks::kary_rebind(&inst, &tree, &corrupt).is_err());
}
