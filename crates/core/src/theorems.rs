//! Executable demonstrations of the paper's negative/tightness results.
//!
//! * **Theorem 1** (§III-A): for every `k > 2` there are preference lists
//!   with a perfect but no stable *binary* matching —
//!   [`theorem1_verdict`] checks both halves on the adversarial
//!   construction, exhaustively for small instances and via Irving's
//!   algorithm at scale.
//! * **Theorem 4** (§IV-B): `k − 1` bindings is tight.
//!   [`overbinding_collapses`] shows the paper's 3-binding cycle merging
//!   all members into one class (no valid k-ary matching);
//!   [`underbinding_unstable_instance`] exhibits, for any given completion
//!   of a (k−2)-binding partial matching, preference lists that make that
//!   completion unstable.

use kmatch_graph::UnionFind;
use kmatch_gs::GsWorkspace;
use kmatch_obs::NoMetrics;
use kmatch_prefs::gen::adversarial::theorem1_roommates;
use kmatch_prefs::KPartiteInstance;
use kmatch_roommates::brute::{all_perfect_matchings, stable_matching_exists_brute};
use kmatch_roommates::kpartite::solve_global_binary;
use kmatch_trace::NoSpans;

use crate::binding::solve_edge;
use crate::kary::KAryMatching;

/// The two halves of Theorem 1 for the adversarial instance `(k, n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Theorem1Verdict {
    /// Does a perfect binary matching exist?
    pub perfect_exists: bool,
    /// Does a stable binary matching exist?
    pub stable_exists: bool,
}

/// Evaluate Theorem 1 on the adversarial construction.
///
/// Small instances (`k·n ≤ 12`) are checked exhaustively; larger ones use
/// Irving's algorithm for the stability half and the explicit round-robin
/// construction of the theorem's proof for the perfect-matching half.
pub fn theorem1_verdict(k: usize, n: usize) -> Theorem1Verdict {
    let inst = theorem1_roommates(k, n);
    if k * n <= 12 {
        Theorem1Verdict {
            perfect_exists: !all_perfect_matchings(&inst).is_empty(),
            stable_exists: stable_matching_exists_brute(&inst),
        }
    } else {
        Theorem1Verdict {
            // The acceptability graph is non-bipartite (k genders, any
            // cross-gender pair), so the positive half of the theorem is
            // decided by general-graph matching (Edmonds' blossom).
            perfect_exists: kmatch_graph::has_perfect_matching(&acceptability_graph(&inst)),
            stable_exists: solve_global_binary(&inst, n as u32).is_stable(),
        }
    }
}

/// The acceptability graph of a roommates instance: vertices are
/// participants, edges the mutually-acceptable pairs. Input for the
/// perfect-matching half of Theorem 1 via `kmatch_graph::matching`.
pub fn acceptability_graph(inst: &kmatch_prefs::RoommatesInstance) -> kmatch_graph::SimpleGraph {
    let n = inst.n();
    let mut g = kmatch_graph::SimpleGraph::new(n);
    for p in 0..n as u32 {
        for &q in inst.list(p) {
            if p < q {
                g.add_edge(p, q);
            }
        }
    }
    g
}

/// Run GS bindings along an explicit edge list (not necessarily a tree)
/// and return the resulting equivalence-class sizes — the paper's §IV-B
/// device for showing that `k` or more bindings (which must contain a
/// cycle) cannot yield consistent k-tuples.
pub fn binding_class_sizes(inst: &KPartiteInstance, edges: &[(u16, u16)]) -> Vec<usize> {
    let (k, n) = (inst.k(), inst.n());
    let (mut ws, mut pairs) = (GsWorkspace::new(), Vec::new());
    for &e in edges {
        solve_edge(inst, e, &mut ws, &mut NoMetrics, &mut NoSpans, &mut pairs);
    }
    let mut uf = UnionFind::new(k * n);
    for (a, b) in pairs {
        uf.union(a, b);
    }
    let mut sizes: Vec<usize> = uf.classes().into_iter().map(|c| c.len()).collect();
    sizes.sort_unstable();
    sizes
}

/// Does binding every edge of the triangle `M−W, W−U, M−U` on the paper's
/// §IV-B cycle preferences collapse the members into inconsistent classes
/// (i.e. not `n` classes of size `k`)?
pub fn overbinding_collapses(inst: &KPartiteInstance) -> bool {
    assert_eq!(inst.k(), 3, "the paper's cycle example is ternary");
    let sizes = binding_class_sizes(inst, &[(0, 1), (1, 2), (0, 2)]);
    sizes != vec![3; inst.n()]
}

/// Build an instance showing under-binding instability: bind only `M−W`
/// (one edge, k−2 = 1 bindings for k = 3) and complete families by
/// assigning member `u_i` of the unbound gender U to the family of pair
/// `i` as given by `completion`. The returned instance makes *that*
/// completion unstable: family 0's M and W members prefer the U member
/// assigned elsewhere, and vice versa.
///
/// `completion[f]` = index of the U member joined to family `f`; must be a
/// permutation of `0..n` that is not "U member i joins the family that
/// ranks it top" — concretely, any completion is defeated because the
/// instance is built *after* seeing it (the adversary moves second, as in
/// the paper's "by assigning appropriate preference orders").
pub fn underbinding_unstable_instance(completion: &[u32]) -> (KPartiteInstance, KAryMatching) {
    let n = completion.len();
    assert!(n >= 2, "need at least two families");
    // Where does U member j end up? family_of_u[j] = f with completion[f]=j.
    let mut family_of_u = vec![0u32; n];
    for (f, &j) in completion.iter().enumerate() {
        family_of_u[j as usize] = f as u32;
    }
    // Target blocking family: family 0's (m_0, w_0) with the U member
    // u_b assigned to family 1.
    let b = completion[1];
    let ascending: Vec<u32> = (0..n as u32).collect();
    let mut lists: Vec<Vec<Vec<Vec<u32>>>> = Vec::with_capacity(3);
    // Gender 0 (M) and gender 1 (W): member i ranks its own bound partner
    // (index i) first so GS(M, W) yields the identity pairing; everyone in
    // family 0 ranks u_b first among U.
    for g in 0..2 {
        let mut gender = Vec::with_capacity(n);
        for i in 0..n as u32 {
            let own_first: Vec<u32> = std::iter::once(i)
                .chain((0..n as u32).filter(|&x| x != i))
                .collect();
            let u_order: Vec<u32> = if i == 0 {
                std::iter::once(b)
                    .chain((0..n as u32).filter(|&x| x != b))
                    .collect()
            } else {
                ascending.clone()
            };
            let mut blocks = vec![Vec::new(); 3];
            blocks[1 - g] = own_first;
            blocks[2] = u_order;
            gender.push(blocks);
        }
        lists.push(gender);
    }
    // Gender 2 (U): u_b ranks family 0's members (index 0) first; others
    // ascending.
    let mut gender_u = Vec::with_capacity(n);
    for j in 0..n as u32 {
        let order: Vec<u32> = if j == b {
            std::iter::once(0u32).chain(1..n as u32).collect()
        } else {
            ascending.clone()
        };
        gender_u.push(vec![order.clone(), order, Vec::new()]);
    }
    lists.push(gender_u);
    let inst = KPartiteInstance::from_lists(&lists).expect("constructed lists are valid");

    // The completed matching: family f = (m_f, w_f, completion[f]).
    let tuples: Vec<Vec<u32>> = (0..n as u32)
        .map(|f| vec![f, f, completion[f as usize]])
        .collect();
    let matching = KAryMatching::from_tuples(3, n, &tuples);
    (inst, matching)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::{find_blocking_family, is_kary_stable};
    use kmatch_prefs::gen::paper::theorem4_cycle_tripartite;

    #[test]
    fn theorem1_small_cases() {
        for (k, n) in [(3usize, 2usize), (3, 4), (4, 1), (4, 2), (5, 2)] {
            if (k * n) % 2 != 0 {
                continue;
            }
            let v = theorem1_verdict(k, n);
            assert!(
                v.perfect_exists,
                "k={k}, n={n}: perfect matching must exist"
            );
            assert!(
                !v.stable_exists,
                "k={k}, n={n}: no stable binary matching may exist"
            );
        }
    }

    #[test]
    fn theorem1_at_scale_via_irving() {
        for (k, n) in [(3usize, 16usize), (6, 8), (4, 25)] {
            let v = theorem1_verdict(k, n);
            assert!(v.perfect_exists);
            assert!(!v.stable_exists, "k={k}, n={n}");
        }
    }

    #[test]
    fn blossom_agrees_with_brute_force_on_acceptability_graphs() {
        // The blossom-based perfect-matching decision must agree with
        // exhaustive enumeration on small Theorem-1 graphs, including an
        // odd-total case with NO perfect matching.
        for (k, n) in [(3usize, 2usize), (3, 3), (4, 2), (5, 2)] {
            let inst = theorem1_roommates(k, n);
            let brute = !all_perfect_matchings(&inst).is_empty();
            let blossom = kmatch_graph::has_perfect_matching(&acceptability_graph(&inst));
            assert_eq!(brute, blossom, "k={k}, n={n}");
        }
    }

    #[test]
    fn theorem1_verdict_scales_with_blossom() {
        // Larger than brute force could touch; both halves decided in
        // polynomial time.
        for (k, n) in [(3usize, 40usize), (6, 20), (10, 12)] {
            let v = theorem1_verdict(k, n);
            assert!(v.perfect_exists, "k={k}, n={n}");
            assert!(!v.stable_exists, "k={k}, n={n}");
        }
    }

    #[test]
    fn overbinding_cycle_collapses_classes() {
        // §IV-B: "it is impossible to perform three binary bindings and
        // maintain their stability" — the three pairwise-stable GS
        // matchings merge all six members into one class.
        let inst = theorem4_cycle_tripartite();
        assert!(overbinding_collapses(&inst));
        let sizes = binding_class_sizes(&inst, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(sizes, vec![6], "the cycle welds everything together");
        // Whereas any two of the three bindings are consistent.
        assert_eq!(binding_class_sizes(&inst, &[(0, 1), (1, 2)]), vec![3, 3]);
        assert_eq!(binding_class_sizes(&inst, &[(0, 1), (0, 2)]), vec![3, 3]);
        assert_eq!(binding_class_sizes(&inst, &[(1, 2), (0, 2)]), vec![3, 3]);
    }

    #[test]
    fn underbinding_every_completion_unstable() {
        // k = 3, one binding (M−W) fixes pairs; for EVERY way of joining
        // the U members there are preferences making it unstable.
        for completion in [vec![0u32, 1], vec![1, 0], vec![2, 0, 1], vec![0, 2, 1]] {
            let (inst, matching) = underbinding_unstable_instance(&completion);
            let bf = find_blocking_family(&inst, &matching)
                .expect("completion must be blocked by construction");
            assert!(bf.source_families.len() >= 2);
            assert!(!is_kary_stable(&inst, &matching));
        }
    }

    #[test]
    fn underbinding_instance_respects_mw_binding() {
        // The constructed preferences must be consistent with the M−W
        // binding (GS(M, W) pairs i with i).
        let (inst, _) = underbinding_unstable_instance(&[1, 0]);
        let tree = kmatch_graph::BindingTree::new(3, vec![(0, 1), (1, 2)]).unwrap();
        let m = crate::binding::bind(&inst, &tree);
        for f in m.family_ids() {
            assert_eq!(m.family(f)[0], m.family(f)[1], "M−W binds identity pairs");
        }
    }
}
