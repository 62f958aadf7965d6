//! Differential property suite for the output-sensitive blocking-family
//! search.
//!
//! `find_blocking_family` walks acceptance prefixes instead of scanning
//! every candidate, so it is checked on the shapes that stress that walk
//! at sizes where prefixes are long enough to matter (k ∈ {3, 4},
//! n ∈ [8, 40]):
//!
//! * a bound (stable) matching with one cross-family swap, so blocking
//!   families exist but must be found below the first gender;
//! * a matching whose every member ranks its current partner near the end
//!   of each list, so every acceptance prefix is nearly the whole list.
//!
//! Each must return exactly the bitset verifier's tuple (both are
//! lexicographically least) and agree with the exhaustive enumerator on
//! stability wherever `n^k ≤ 10^5` tuples keep it tractable.

use kmatch_core::{
    bind, find_blocking_family, find_blocking_family_bitset, find_blocking_family_naive,
    KAryMatching,
};
use kmatch_graph::random_tree;
use kmatch_prefs::gen::uniform::uniform_kpartite;
use kmatch_prefs::KPartiteInstance;
use proptest::{prop_assert_eq, proptest, ProptestConfig, TestCaseError};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A uniformly random k-ary matching: one random permutation per gender,
/// family `f` holding the `f`-th element of each.
fn random_tuples(k: usize, n: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<u32>> {
    let perms: Vec<Vec<u32>> = (0..k)
        .map(|_| {
            let mut p: Vec<u32> = (0..n as u32).collect();
            p.shuffle(rng);
            p
        })
        .collect();
    (0..n)
        .map(|f| (0..k).map(|g| perms[g][f]).collect())
        .collect()
}

/// An instance built around `tuples`: every list is random except that
/// the member's current partner sits within the last three places.
fn partner_last_instance(
    k: usize,
    n: usize,
    tuples: &[Vec<u32>],
    rng: &mut ChaCha8Rng,
) -> KPartiteInstance {
    let mut family_of = vec![0usize; k * n];
    for (f, tuple) in tuples.iter().enumerate() {
        for (g, &i) in tuple.iter().enumerate() {
            family_of[g * n + i as usize] = f;
        }
    }
    let lists: Vec<Vec<Vec<Vec<u32>>>> = (0..k)
        .map(|g| {
            (0..n)
                .map(|i| {
                    (0..k)
                        .map(|h| {
                            if h == g {
                                return Vec::new();
                            }
                            let partner = tuples[family_of[g * n + i]][h];
                            let mut row: Vec<u32> =
                                (0..n as u32).filter(|&j| j != partner).collect();
                            row.shuffle(rng);
                            let from_end = rng.gen_range(0..3usize.min(n));
                            row.insert(n - 1 - from_end, partner);
                            row
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    KPartiteInstance::from_lists(&lists).expect("rows are permutations")
}

fn check_agreement(inst: &KPartiteInstance, matching: &KAryMatching) -> Result<(), TestCaseError> {
    let walked = find_blocking_family(inst, matching);
    prop_assert_eq!(&walked, &find_blocking_family_bitset(inst, matching));
    let (k, n) = (inst.k() as u32, inst.n() as u64);
    if n.pow(k) <= 100_000 {
        prop_assert_eq!(
            walked.is_some(),
            find_blocking_family_naive(inst, matching).is_some()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    fn prefix_walk_agrees_on_swapped_bound_matchings(
        k in 3usize..5,
        n in 8usize..41,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inst = uniform_kpartite(k, n, &mut rng);
        let stable = bind(&inst, &random_tree(k, &mut rng));
        // Exchange one non-first gender's members between two families.
        let mut tuples = stable.to_tuples();
        let g = rng.gen_range(1..k);
        let a = rng.gen_range(0..n);
        let b = (a + rng.gen_range(1..n)) % n;
        let (ma, mb) = (tuples[a][g], tuples[b][g]);
        tuples[a][g] = mb;
        tuples[b][g] = ma;
        check_agreement(&inst, &KAryMatching::from_tuples(k, n, &tuples))?;
    }

    fn prefix_walk_agrees_on_long_prefixes(
        k in 3usize..5,
        n in 8usize..41,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let tuples = random_tuples(k, n, &mut rng);
        let inst = partner_last_instance(k, n, &tuples, &mut rng);
        check_agreement(&inst, &KAryMatching::from_tuples(k, n, &tuples))?;
    }
}
