//! Blocking-family search: the k-ary stability verifier.
//!
//! §II-C: "A k-tuple is called a blocking family if each member in the
//! family strictly prefers each member of that family to the each member of
//! his or her current family", refined in §IV-A: members coming from the
//! same existing family form a *same-family group* and "there is no need to
//! compare members from the same-family group".
//!
//! Formally, a candidate tuple `C = (c_0, …, c_{k−1})` blocks matching `M`
//! iff its members span at least two current families and, for every
//! ordered pair of genders `(g, h)` with `family(c_g) ≠ family(c_h)`,
//! member `c_g` strictly prefers `c_h` to the gender-`h` member of its own
//! current family.
//!
//! Member `a` therefore accepts a gender-`h` candidate exactly when that
//! candidate sits in the prefix of `a`'s gender-`h` list that ends at (and
//! includes) `a`'s current partner: the strictly-better members plus the
//! same-family one. The searches are DFSs over genders that exploit the
//! fact that the condition is **pairwise**: as soon as two chosen members
//! violate it the whole subtree is pruned. Worst case `O(n^k)` (the problem
//! is a complete `k`-partite constraint search) but heavily pruned in
//! practice — stable matchings reject most pairs immediately.
//!
//! Three verifiers share the same semantics and are cross-validated against
//! each other:
//!
//! * [`find_blocking_family`] — the output-sensitive DFS, the fastest
//!   verifier. It precomputes one acceptance threshold per (member,
//!   foreign gender), `O(k²n)` work, and below the first gender draws each
//!   level's candidates from the shortest acceptance prefix among the
//!   chosen members rather than scanning all `n`. Its cost is the
//!   thresholds plus the sum of the walked prefix lengths; on random
//!   instances those prefixes are short (Mertens: ~ln n for proposers,
//!   ~n/ln n for responders).
//! * [`find_blocking_family_bitset`] — precomputes the acceptance relation
//!   into per-member bitsets, so the DFS prunes a whole subtree with a
//!   single word test. Its `O(k²n²)` table build makes it the slower
//!   verifier (at k = 4, n = 500 on a stable bound matching: ~40 ms
//!   against ~2 ms for the prefix walk), but it shares no code with the
//!   prefix walk, so it is kept as the independent cross-check. Used by
//!   [`is_kary_stable`].
//! * [`find_blocking_family_naive`] — exhaustive `n^k` ground truth.

use kmatch_prefs::{GenderId, KPartiteInstance, Member, Rank};

use crate::kary::KAryMatching;

/// A witness of k-ary instability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockingFamily {
    /// The blocking tuple: `members[g]` is the gender-`g` member.
    pub members: Vec<u32>,
    /// The distinct current families the members come from (the paper's
    /// `k′`, with `2 ≤ k′ ≤ k`).
    pub source_families: Vec<u32>,
}

impl BlockingFamily {
    fn new(matching: &KAryMatching, members: Vec<u32>) -> Self {
        let mut source_families: Vec<u32> = members
            .iter()
            .enumerate()
            .map(|(g, &i)| matching.family_of(Member::new(g, i)))
            .collect();
        source_families.sort_unstable();
        source_families.dedup();
        BlockingFamily {
            members,
            source_families,
        }
    }
}

/// Does a complete tuple span at least two current families? A tuple
/// equal to an existing family trivially "accepts" itself but blocks
/// nothing.
fn spans_two_families(matching: &KAryMatching, tuple: &[u32]) -> bool {
    let first = matching.family_of(Member::new(0usize, tuple[0]));
    tuple
        .iter()
        .enumerate()
        .any(|(h, &i)| matching.family_of(Member::new(h, i)) != first)
}

/// Does `a` accept `b` as the gender-`h` member of a prospective family,
/// given the current matching? True when they are already in the same
/// family (same-family group — no comparison needed) or when `a` strictly
/// prefers `b` to its current gender-`h` partner.
#[inline]
fn accepts(inst: &KPartiteInstance, matching: &KAryMatching, a: Member, b: Member) -> bool {
    if matching.family_of(a) == matching.family_of(b) {
        return true;
    }
    let current = matching.current_partner(a, b.gender);
    inst.rank_of(a, b.gender, b.index) < inst.rank_of(a, b.gender, current.index)
}

/// Find a blocking family of `matching`, or `None` if it is stable.
///
/// Deterministic: the DFS explores genders in ascending order and members
/// in index order, so the lexicographically-least blocking tuple is
/// returned.
///
/// Output-sensitive: after an `O(k²n)` threshold pass, gender 0 is scanned
/// in full and every deeper gender `d` is drawn from the acceptance prefix
/// `pref_list(c, d)[..=thresh(c, d)]` of the chosen member `c` whose
/// prefix is shortest, sorted ascending and then filtered by the two-way
/// pairwise check against every chosen member. Every feasible candidate
/// lies in that prefix, so the feasible set and its visiting order are
/// those of a plain `0..n` scan.
pub fn find_blocking_family(
    inst: &KPartiteInstance,
    matching: &KAryMatching,
) -> Option<BlockingFamily> {
    let k = inst.k();
    let n = inst.n();
    assert_eq!(
        matching.k(),
        k,
        "matching arity must equal instance genders"
    );
    assert_eq!(matching.n(), n, "matching size must equal instance size");
    let mut thresh: Vec<Rank> = vec![0; k * n * k];
    for g in 0..k {
        for i in 0..n as u32 {
            let a = Member::new(g, i);
            for h in (0..k).filter(|&h| h != g) {
                let hg = GenderId::from(h);
                let cur = matching.current_partner(a, hg);
                thresh[(g * n + i as usize) * k + h] = inst.rank_of(a, hg, cur.index);
            }
        }
    }
    let mut search = PrefixSearch {
        inst,
        matching,
        k,
        n,
        thresh,
        // Depth 0's buffer is the identity: gender 0 is scanned in full.
        cands: (0..n as u32)
            .chain(std::iter::repeat_n(0, (k - 1) * n))
            .collect(),
        chosen: vec![0; k],
    };
    if !search.dfs(0) {
        return None;
    }
    Some(BlockingFamily::new(matching, search.chosen))
}

struct PrefixSearch<'a> {
    inst: &'a KPartiteInstance,
    matching: &'a KAryMatching,
    k: usize,
    n: usize,
    /// `thresh[(g * n + i) * k + h]`: the rank member `(g, i)` gives its
    /// current gender-`h` partner. `(g, i)` accepts `(h, j)` iff
    /// `rank_of((g, i), h, j) ≤ thresh` — ranks are a permutation, so the
    /// only candidate at rank exactly `thresh` is the same-family member.
    thresh: Vec<Rank>,
    /// `cands[d * n..]`: the depth-`d` candidate buffer, reused by every
    /// node at that depth.
    cands: Vec<u32>,
    chosen: Vec<u32>,
}

impl PrefixSearch<'_> {
    #[inline]
    fn thresh(&self, g: usize, i: u32, h: usize) -> Rank {
        self.thresh[(g * self.n + i as usize) * self.k + h]
    }

    /// Does member `(g, i)` accept `(h, j)`?
    #[inline]
    fn accepts(&self, g: usize, i: u32, h: usize, j: u32) -> bool {
        self.inst.rank_of(Member::new(g, i), GenderId::from(h), j) <= self.thresh(g, i, h)
    }

    fn dfs(&mut self, d: usize) -> bool {
        if d == self.k {
            return spans_two_families(self.matching, &self.chosen);
        }
        let n = self.n;
        let len = if d == 0 {
            n
        } else {
            // Every candidate must be accepted by every chosen member, so
            // the shortest chosen acceptance prefix bounds the level.
            let (c, t) = (0..d)
                .map(|h| (h, self.thresh(h, self.chosen[h], d)))
                .min_by_key(|&(_, t)| t)
                .expect("d > 0 members are chosen");
            let prefix = &self
                .inst
                .pref_list(Member::new(c, self.chosen[c]), GenderId::from(d))[..=t as usize];
            let buf = &mut self.cands[d * n..d * n + prefix.len()];
            buf.copy_from_slice(prefix);
            buf.sort_unstable();
            prefix.len()
        };
        for slot in d * n..d * n + len {
            let i = self.cands[slot];
            // Pairwise feasibility against every already-chosen member.
            let feasible = (0..d).all(|h| {
                let j = self.chosen[h];
                self.accepts(h, j, d, i) && self.accepts(d, i, h, j)
            });
            if !feasible {
                continue;
            }
            self.chosen[d] = i;
            if self.dfs(d + 1) {
                return true;
            }
        }
        false
    }
}

/// Is the k-ary matching stable (free of blocking families)?
///
/// Runs the bitset search, so callers that also ran
/// [`find_blocking_family`] get a verdict from an independent
/// implementation.
pub fn is_kary_stable(inst: &KPartiteInstance, matching: &KAryMatching) -> bool {
    find_blocking_family_bitset(inst, matching).is_none()
}

/// Bitset-accelerated blocking-family search. Returns exactly the result
/// of [`find_blocking_family`] (the same lexicographically-least tuple).
///
/// Two precomputed tables drive the search:
///
/// 1. **Acceptance bitsets** — for every member `a` and foreign gender
///    `h`, bit `j` records `accepts(a, (h, j))`: one pass over the rank
///    tables, after which no rank is ever read again.
/// 2. **Mutual bitsets** — the intersection of each acceptance bit with
///    its reverse (`accepts((h, j), a)`), so pairwise feasibility of a
///    candidate against a chosen member is a single AND of words.
///
/// The DFS keeps, per remaining gender, the bitset of candidates
/// compatible with everything chosen so far; extending the tuple is
/// `words` ANDs per gender, candidates come out of `trailing_zeros` in
/// ascending order (preserving the lexicographic-least guarantee), and an
/// emptied gender kills the subtree on the spot — the word test that
/// stands in for the prefix walk's per-pair rank comparisons. The
/// `O(k²n²)` table build dominates its cost on stable matchings.
pub fn find_blocking_family_bitset(
    inst: &KPartiteInstance,
    matching: &KAryMatching,
) -> Option<BlockingFamily> {
    let k = inst.k();
    let n = inst.n();
    assert_eq!(
        matching.k(),
        k,
        "matching arity must equal instance genders"
    );
    assert_eq!(matching.n(), n, "matching size must equal instance size");
    let words = n.div_ceil(64);
    // Row of member (g, i)'s bitset over gender h (self rows unused).
    let row = |g: usize, i: u32, h: usize| ((g * n + i as usize) * k + h) * words;

    // Pass 1: forward acceptance.
    let mut accept = vec![0u64; k * n * k * words];
    for g in 0..k {
        for i in 0..n as u32 {
            let a = Member::new(g, i);
            let fam_a = matching.family_of(a);
            for h in (0..k).filter(|&h| h != g) {
                let hg = GenderId::from(h);
                let cur = matching.current_partner(a, hg);
                let cur_rank = inst.rank_of(a, hg, cur.index);
                let r = row(g, i, h);
                for j in 0..n as u32 {
                    let ok = inst.rank_of(a, hg, j) < cur_rank
                        || matching.family_of(Member::new(h, j)) == fam_a;
                    if ok {
                        accept[r + j as usize / 64] |= 1u64 << (j % 64);
                    }
                }
            }
        }
    }

    // Pass 2: intersect with the reverse direction.
    let mut mutual = accept.clone();
    for g in 0..k {
        for i in 0..n as u32 {
            for h in (0..k).filter(|&h| h != g) {
                let r = row(g, i, h);
                for j in 0..n as u32 {
                    let back = row(h, j, g) + i as usize / 64;
                    if accept[back] >> (i % 64) & 1 == 0 {
                        mutual[r + j as usize / 64] &= !(1u64 << (j % 64));
                    }
                }
            }
        }
    }

    let mut search = BitsetSearch {
        k,
        n,
        words,
        mutual: &mutual,
        matching,
        // feasible[(d * k + h) * words ..]: candidates of gender h
        // compatible with the first d chosen members.
        feasible: vec![0u64; (k + 1) * k * words],
        chosen: vec![0u32; k],
    };
    let tail = if n.is_multiple_of(64) {
        !0u64
    } else {
        (1u64 << (n % 64)) - 1
    };
    for h in 0..k {
        for w in 0..words {
            search.feasible[h * words + w] = if w + 1 == words { tail } else { !0 };
        }
    }
    if !search.dfs(0) {
        return None;
    }
    Some(BlockingFamily::new(matching, search.chosen))
}

struct BitsetSearch<'a> {
    k: usize,
    n: usize,
    words: usize,
    mutual: &'a [u64],
    matching: &'a KAryMatching,
    feasible: Vec<u64>,
    chosen: Vec<u32>,
}

impl BitsetSearch<'_> {
    fn dfs(&mut self, d: usize) -> bool {
        if d == self.k {
            return spans_two_families(self.matching, &self.chosen);
        }
        for w in 0..self.words {
            let mut bits = self.feasible[(d * self.k + d) * self.words + w];
            while bits != 0 {
                let i = (w * 64) as u32 + bits.trailing_zeros();
                bits &= bits - 1;
                self.chosen[d] = i;
                // Narrow every remaining gender by this candidate's mutual
                // bitset; an emptied gender prunes the subtree outright.
                let mut alive = true;
                for h in (d + 1)..self.k {
                    let src = (d * self.k + h) * self.words;
                    let dst = ((d + 1) * self.k + h) * self.words;
                    let m = ((d * self.n + i as usize) * self.k + h) * self.words;
                    let mut any = 0u64;
                    for t in 0..self.words {
                        let v = self.feasible[src + t] & self.mutual[m + t];
                        self.feasible[dst + t] = v;
                        any |= v;
                    }
                    if any == 0 {
                        alive = false;
                        break;
                    }
                }
                if alive && self.dfs(d + 1) {
                    return true;
                }
            }
        }
        false
    }
}

/// Ground-truth verifier: enumerate every one of the `n^k` candidate
/// tuples with no pruning and test the §II-C/§IV-A condition directly.
/// Exponential — small instances only; used to cross-validate the pruned
/// DFS in tests and property tests.
pub fn find_blocking_family_naive(
    inst: &KPartiteInstance,
    matching: &KAryMatching,
) -> Option<BlockingFamily> {
    let k = inst.k();
    let n = inst.n();
    let mut tuple = vec![0u32; k];
    loop {
        let members: Vec<Member> = tuple
            .iter()
            .enumerate()
            .map(|(g, &i)| Member::new(g, i))
            .collect();
        if spans_two_families(matching, &tuple) {
            let ok = members.iter().all(|&a| {
                members
                    .iter()
                    .filter(|&&b| b.gender != a.gender)
                    .all(|&b| accepts(inst, matching, a, b))
            });
            if ok {
                return Some(BlockingFamily::new(matching, tuple));
            }
        }
        // Odometer advance.
        let mut pos = 0;
        loop {
            if pos == k {
                return None;
            }
            tuple[pos] += 1;
            if (tuple[pos] as usize) < n {
                break;
            }
            tuple[pos] = 0;
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmatch_prefs::gen::paper::fig3_tripartite;

    fn matching(tuples: &[Vec<u32>]) -> KAryMatching {
        KAryMatching::from_tuples(3, 2, tuples)
    }

    #[test]
    fn fig3_binding_result_is_stable() {
        // Families (m,w,u), (m',w',u') — the M−W, W−U binding outcome.
        let inst = fig3_tripartite();
        let m = matching(&[vec![0, 0, 0], vec![1, 1, 1]]);
        assert!(is_kary_stable(&inst, &m));
    }

    #[test]
    fn fig3_alternative_bindings_also_stable() {
        // §IV-B: (m,w',u'),(m',w,u) and (m,w,u'),(m',w',u) are the
        // outcomes of other binding trees — all stable.
        let inst = fig3_tripartite();
        assert!(is_kary_stable(
            &inst,
            &matching(&[vec![0, 1, 1], vec![1, 0, 0]])
        ));
        assert!(is_kary_stable(
            &inst,
            &matching(&[vec![0, 0, 1], vec![1, 1, 0]])
        ));
    }

    #[test]
    fn detects_paper_style_blocking_family() {
        // §II-C's example shape: families (m,w,u), (m',w',u') where m
        // prefers w', u' and both prefer m — build such an instance.
        // m: w' > w, u' > u;  w': m > m';  u': m > m'; rest arbitrary.
        let lists = vec![
            vec![
                vec![vec![], vec![1, 0], vec![1, 0]], // m : w' > w, u' > u
                vec![vec![], vec![1, 0], vec![1, 0]], // m': w' > w, u' > u
            ],
            vec![
                vec![vec![0, 1], vec![], vec![0, 1]], // w : m > m'
                vec![vec![0, 1], vec![], vec![0, 1]], // w': m > m'
            ],
            vec![
                vec![vec![0, 1], vec![0, 1], vec![]], // u : m > m'
                vec![vec![0, 1], vec![0, 1], vec![]], // u': m > m'
            ],
        ];
        let inst = kmatch_prefs::KPartiteInstance::from_lists(&lists).unwrap();
        let m = matching(&[vec![0, 0, 0], vec![1, 1, 1]]);
        let bf = find_blocking_family(&inst, &m).expect("(m, w', u') blocks");
        assert_eq!(bf.members, vec![0, 1, 1], "m with w' and u'");
        assert_eq!(bf.source_families, vec![0, 1], "drawn from two families");
    }

    #[test]
    fn tuple_equal_to_existing_family_never_blocks() {
        let inst = fig3_tripartite();
        let m = matching(&[vec![0, 0, 0], vec![1, 1, 1]]);
        // Even on an unstable-ish instance the existing family (0,0,0)
        // itself must not be reported; verified implicitly by stability
        // above, and directly by the k' >= 2 rule here.
        assert!(find_blocking_family(&inst, &m)
            .map(|bf| bf.source_families.len() >= 2)
            .unwrap_or(true));
    }

    #[test]
    fn dfs_agrees_with_naive_enumeration() {
        use kmatch_graph::prufer::random_tree;
        use kmatch_prefs::gen::uniform::uniform_kpartite;
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;
        for seed in 0..30u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let inst = uniform_kpartite(3, 3, &mut rng);
            // Stable matchings (from binding) AND arbitrary matchings
            // (cyclic-shift families) must both be decided identically.
            let stable = crate::binding::bind(&inst, &random_tree(3, &mut rng));
            let arbitrary =
                KAryMatching::from_tuples(3, 3, &[vec![0, 1, 2], vec![1, 2, 0], vec![2, 0, 1]]);
            for m in [&stable, &arbitrary] {
                let dfs = find_blocking_family(&inst, m);
                let naive = find_blocking_family_naive(&inst, m);
                assert_eq!(dfs.is_some(), naive.is_some(), "seed {seed}");
            }
        }
    }

    #[test]
    fn bitset_agrees_with_dfs_and_naive() {
        use kmatch_graph::prufer::random_tree;
        use kmatch_prefs::gen::uniform::uniform_kpartite;
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;
        for seed in 0..30u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(1000 + seed);
            let inst = uniform_kpartite(3, 4, &mut rng);
            let stable = crate::binding::bind(&inst, &random_tree(3, &mut rng));
            let arbitrary = KAryMatching::from_tuples(
                3,
                4,
                &[vec![0, 1, 2], vec![1, 2, 3], vec![2, 3, 0], vec![3, 0, 1]],
            );
            for m in [&stable, &arbitrary] {
                let dfs = find_blocking_family(&inst, m);
                let bitset = find_blocking_family_bitset(&inst, m);
                // Exact equality: both searches are lexicographic.
                assert_eq!(bitset, dfs, "seed {seed}");
                let naive = find_blocking_family_naive(&inst, m);
                assert_eq!(bitset.is_some(), naive.is_some(), "seed {seed}");
            }
        }
    }

    #[test]
    fn bitset_handles_multiword_instances() {
        // n > 64 exercises the multi-word bitset rows.
        use kmatch_graph::prufer::random_tree;
        use kmatch_prefs::gen::uniform::uniform_kpartite;
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let inst = uniform_kpartite(3, 70, &mut rng);
        let stable = crate::binding::bind(&inst, &random_tree(3, &mut rng));
        assert_eq!(
            find_blocking_family_bitset(&inst, &stable),
            find_blocking_family(&inst, &stable)
        );
        // A deliberately shuffled matching on the same instance.
        let tuples: Vec<Vec<u32>> = (0..70u32)
            .map(|f| vec![f, (f + 1) % 70, (f + 2) % 70])
            .collect();
        let shuffled = KAryMatching::from_tuples(3, 70, &tuples);
        assert_eq!(
            find_blocking_family_bitset(&inst, &shuffled),
            find_blocking_family(&inst, &shuffled)
        );
    }

    #[test]
    fn bitset_respects_same_family_exemption_and_k_prime() {
        let inst = fig3_tripartite();
        let m = matching(&[vec![0, 0, 0], vec![1, 1, 1]]);
        assert!(find_blocking_family_bitset(&inst, &m).is_none());
    }

    #[test]
    fn same_family_group_members_not_compared() {
        // Construct a matching where a blocking family takes TWO members
        // from one family; those two must not be required to prefer each
        // other. k = 3, n = 2:
        //   families F0 = (m, w, u), F1 = (m', w', u').
        //   Candidate C = (m, w, u'): m,w from F0 (same group), u' from F1.
        //   Required: m prefers u' over u; w prefers u' over u;
        //             u' prefers m over m' and w over w'.
        //   NOT required: anything between m and w.
        let lists = vec![
            vec![
                vec![vec![], vec![1, 0], vec![1, 0]], // m : w' > w (!), u' > u
                vec![vec![], vec![1, 0], vec![0, 1]], // m'
            ],
            vec![
                vec![vec![1, 0], vec![], vec![1, 0]], // w : m' > m (!), u' > u
                vec![vec![0, 1], vec![], vec![0, 1]], // w'
            ],
            vec![
                vec![vec![0, 1], vec![0, 1], vec![]], // u
                vec![vec![0, 1], vec![0, 1], vec![]], // u': m > m', w > w'
            ],
        ];
        let inst = kmatch_prefs::KPartiteInstance::from_lists(&lists).unwrap();
        let m = matching(&[vec![0, 0, 0], vec![1, 1, 1]]);
        // m ranks w LAST among women and w ranks m last among men — yet
        // (m, w, u') must still block because they are in the same family.
        let bf = find_blocking_family(&inst, &m).expect("same-group exemption applies");
        assert_eq!(bf.members, vec![0, 0, 1]);
    }
}
