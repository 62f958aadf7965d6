//! Differential property suite for the zero-allocation GS fast path.
//!
//! The workspace fast path, the traced path, the CSR-arena path, and the
//! strided k-partite pair view every k-ary binder solves in place must
//! be *behaviorally indistinguishable* from `gale_shapley_reference` (the
//! seed implementation, kept verbatim): identical matchings, identical
//! proposal counts, identical round counts, on every instance. All
//! randomness is seeded `rand_chacha` driven by the deterministic proptest
//! case stream — failures reproduce exactly.

use kmatch_gs::{gale_shapley_reference, gale_shapley_traced, GsWorkspace};
use kmatch_prefs::gen::uniform::{uniform_bipartite, uniform_kpartite};
use kmatch_prefs::{CsrPrefs, GenderId, KPartitePairView};
use proptest::{prop_assert_eq, proptest, ProptestConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    fn fast_path_equals_reference(n in 1usize..48, seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inst = uniform_bipartite(n, &mut rng);
        let reference = gale_shapley_reference(&inst);
        let fast = GsWorkspace::new().solve(&inst);
        prop_assert_eq!(&fast.matching, &reference.matching);
        prop_assert_eq!(fast.stats, reference.stats);
    }

    fn traced_path_equals_reference(n in 1usize..32, seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inst = uniform_bipartite(n, &mut rng);
        let reference = gale_shapley_reference(&inst);
        let traced = gale_shapley_traced(&inst);
        prop_assert_eq!(&traced.matching, &reference.matching);
        prop_assert_eq!(traced.stats, reference.stats);
        // The trace must cover exactly the reference's proposal count.
        let proposals = traced
            .trace
            .unwrap()
            .iter()
            .filter(|e| matches!(e, kmatch_gs::GsEvent::Propose { .. }))
            .count() as u64;
        prop_assert_eq!(proposals, reference.stats.proposals);
    }

    fn csr_arena_equals_reference(n in 1usize..48, seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inst = uniform_bipartite(n, &mut rng);
        let reference = gale_shapley_reference(&inst);
        let csr = CsrPrefs::from_prefs(&inst);
        let fast = GsWorkspace::new().solve(&csr);
        prop_assert_eq!(&fast.matching, &reference.matching);
        prop_assert_eq!(fast.stats, reference.stats);
    }

    fn kpartite_pair_view_equals_reference(
        k in 2usize..6,
        n in 1usize..32,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inst = uniform_kpartite(k, n, &mut rng);
        let i = rng.gen_range(0..k as u16);
        let j = (i + rng.gen_range(1..k as u16)) % k as u16;
        let view = KPartitePairView::new(&inst, GenderId(i), GenderId(j));
        let reference = gale_shapley_reference(&view);
        let fast = GsWorkspace::new().solve(&view);
        prop_assert_eq!(&fast.matching, &reference.matching);
        prop_assert_eq!(fast.stats, reference.stats);
    }

    fn workspace_reuse_is_stateless(seed in 0u64..1 << 32) {
        // One workspace across a shrink/grow sequence of instances must
        // behave exactly like fresh solves.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ws = GsWorkspace::new();
        let mut arena = CsrPrefs::new();
        for _ in 0..6 {
            let n = rng.gen_range(1..40);
            let inst = uniform_bipartite(n, &mut rng);
            let reference = gale_shapley_reference(&inst);
            let fast = ws.solve(&inst);
            prop_assert_eq!(&fast.matching, &reference.matching);
            prop_assert_eq!(fast.stats, reference.stats);
            arena.load(&inst);
            let via_arena = ws.solve(&arena);
            prop_assert_eq!(&via_arena.matching, &reference.matching);
            prop_assert_eq!(via_arena.stats, reference.stats);
        }
    }
}
