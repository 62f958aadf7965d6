//! # kmatch — stable matching beyond bipartite graphs
//!
//! A complete Rust implementation of *"Stable Matching Beyond Bipartite
//! Graphs"* (Jie Wu, IPPS 2016): stable **k-ary matching** in balanced
//! complete k-partite graphs via the iterative-binding Gale–Shapley
//! algorithm, plus everything the paper builds on — the classic GS
//! algorithm, Irving's stable-roommates algorithm with incomplete lists,
//! binding-tree machinery (Prüfer codes, bitonic trees, parallel
//! schedules), and a work-stealing parallel executor with the paper's
//! PRAM cost model.
//!
//! ## Quick start
//!
//! ```
//! use kmatch::prelude::*;
//! use rand::SeedableRng;
//!
//! // A 4-gender society with 8 members per gender, random preferences.
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let inst = kmatch::gen::uniform_kpartite(4, 8, &mut rng);
//!
//! // Algorithm 1: bind along a path-shaped spanning tree of the genders.
//! let tree = BindingTree::path(4);
//! let outcome = bind_with_stats(&inst, &tree);
//!
//! // Theorem 2: the result is a perfect, stable k-ary matching.
//! assert!(is_kary_stable(&inst, &outcome.matching));
//! // Theorem 3: at most (k−1)·n² proposals.
//! assert!(outcome.total_proposals() <= 3 * 8 * 8);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`prefs`] | instances, rank tables, generators, paper fixtures |
//! | [`graph`] | binding trees, Prüfer codes, bitonic trees, schedules |
//! | [`gs`] | instrumented Gale–Shapley engines, bipartite stability |
//! | [`roommates`] | Irving's algorithm, fair SMP, k-partite binary adapter |
//! | [`core`] | k-ary matching, Algorithms 1–2, blocking-family verifiers |
//! | [`parallel`] | work-stealing executor, PRAM cost model |
//! | [`distsim`] | synchronous message-passing runtime, distributed GS/binding |
//! | [`baselines`] | cyclic & combination 3DSM baselines (§I, reference 4) |
//!
//! See `DESIGN.md` for the paper-to-module inventory and `EXPERIMENTS.md`
//! for every reproduced claim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use kmatch_baselines as baselines;
pub use kmatch_core as core;
pub use kmatch_distsim as distsim;
pub use kmatch_graph as graph;
pub use kmatch_gs as gs;
pub use kmatch_parallel as parallel;
pub use kmatch_prefs as prefs;
pub use kmatch_roommates as roommates;
pub use kmatch_viz as viz;

/// Re-export of the instance generators (most examples start here).
pub mod gen {
    pub use kmatch_prefs::gen::adversarial::theorem1_roommates;
    pub use kmatch_prefs::gen::correlated::{correlated_bipartite, correlated_kpartite};
    pub use kmatch_prefs::gen::euclidean::{euclidean_bipartite, euclidean_kpartite};
    pub use kmatch_prefs::gen::mallows::{mallows_bipartite, mallows_kpartite};
    pub use kmatch_prefs::gen::paper;
    pub use kmatch_prefs::gen::structured::{
        cyclic_bipartite, identical_bipartite, master_list_kpartite,
    };
    pub use kmatch_prefs::gen::uniform::{uniform_bipartite, uniform_kpartite, uniform_roommates};
}

/// One-stop imports for applications.
pub mod prelude {
    pub use kmatch_core::{
        bind, bind_with_stats, find_blocking_family, find_weak_blocking_family, is_kary_stable,
        is_quorum_stable, is_weakly_stable, optimize_tree, partitioned_bind, priority_bind,
        AttachChoice, BindingOutcome, GenderPartition, GenderPriorities, KAryMatching,
    };
    pub use kmatch_graph::{
        even_odd_path_schedule, random_tree, tree_edge_coloring, BindingTree, Schedule,
    };
    pub use kmatch_gs::{
        egalitarian_stable_matching, enumerate_stable_lattice, gale_shapley, is_stable,
        BipartiteMatching, GsOutcome,
    };
    pub use kmatch_parallel::{parallel_bind, parallel_bind_scheduled};
    pub use kmatch_prefs::{
        BipartiteInstance, GenderId, KPartiteInstance, Member, MergeStrategy, RoommatesInstance,
    };
    pub use kmatch_roommates::{
        fair_stable_marriage, solve as solve_roommates, solve_kpartite_binary, RoommatesOutcome,
        SmpOrientation,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_binds() {
        let inst = crate::gen::paper::fig3_tripartite();
        let tree = BindingTree::path(3);
        let m = bind(&inst, &tree);
        assert!(is_kary_stable(&inst, &m));
    }
}
