//! The score/popularity oracle: rank = order by public score.
//!
//! Every member carries a public score; everyone on the opposite side ranks
//! by descending score, with a seeded pseudorandom hash breaking ties
//! deterministically. All proposers therefore share one list over the
//! responders (and vice versa), so total memory is O(n) — two sorted orders
//! plus their inverses — and every rank probe is one array load.
//!
//! This is the classic popularity / serial-dictatorship regime: identical
//! lists drive GS to Θ(n²) proposals, so scaling benches keep this backend
//! at moderate `n` while [`super::RandomOracle`] carries the 10⁶ runs.

use crate::ids::Rank;

use super::random::mix64;
use super::PrefOracle;

/// A complete bipartite instance ranked by public scores.
#[derive(Debug, Clone)]
pub struct ScoreOracle {
    n: usize,
    /// Responders best-first — every proposer's (shared) list.
    responder_order: Vec<u32>,
    /// Proposers best-first — every responder's (shared) list.
    proposer_order: Vec<u32>,
    /// `responder_rank_of[w]` = position of `w` in `responder_order`.
    responder_rank_of: Vec<u32>,
    /// `proposer_rank_of[m]` = position of `m` in `proposer_order`.
    proposer_rank_of: Vec<u32>,
}

/// Sort members by `(score desc, seeded hash, id)` and return
/// `(order, rank_of)`.
fn score_order(scores: &[f64], seed: u64) -> (Vec<u32>, Vec<u32>) {
    let n = scores.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        scores[b as usize]
            .total_cmp(&scores[a as usize])
            .then_with(|| mix64(seed ^ a as u64).cmp(&mix64(seed ^ b as u64)))
            .then_with(|| a.cmp(&b))
    });
    let mut rank_of = vec![0u32; n];
    for (r, &m) in order.iter().enumerate() {
        rank_of[m as usize] = r as u32;
    }
    (order, rank_of)
}

impl ScoreOracle {
    /// Rank both sides by explicit public scores (higher is better), ties
    /// broken by a seeded hash then by index.
    ///
    /// # Panics
    /// If the sides are empty or their lengths differ.
    pub fn from_scores(proposer_scores: &[f64], responder_scores: &[f64], seed: u64) -> Self {
        let n = proposer_scores.len();
        assert!(n > 0, "instances are non-empty");
        assert_eq!(
            n,
            responder_scores.len(),
            "both sides must have the same size"
        );
        let (proposer_order, proposer_rank_of) = score_order(proposer_scores, mix64(seed ^ 0xA5));
        let (responder_order, responder_rank_of) =
            score_order(responder_scores, mix64(seed ^ 0x5A));
        ScoreOracle {
            n,
            responder_order,
            proposer_order,
            responder_rank_of,
            proposer_rank_of,
        }
    }

    /// A fully seeded instance: every score is an independent pseudorandom
    /// draw, so the two shared orders are seeded permutations.
    pub fn seeded(n: usize, seed: u64) -> Self {
        assert!(n > 0, "instances are non-empty");
        let side = |salt: u64| -> Vec<f64> {
            (0..n as u64)
                .map(|i| mix64(seed ^ salt ^ i) as f64 / u64::MAX as f64)
                .collect()
        };
        ScoreOracle::from_scores(&side(0x0F), &side(0xF0), seed)
    }

    /// Rank of responder `w` in every proposer's (shared) list.
    #[inline]
    pub fn proposer_rank(&self, _m: u32, w: u32) -> Rank {
        self.responder_rank_of[w as usize]
    }

    /// The shared responder-side order over proposers, best first.
    #[inline]
    pub fn proposer_order(&self) -> &[u32] {
        &self.proposer_order
    }

    /// Bytes held by the oracle's four shared tables — O(n), the figure
    /// the scaling benchmarks report.
    pub fn resident_bytes(&self) -> usize {
        (self.responder_order.capacity()
            + self.proposer_order.capacity()
            + self.responder_rank_of.capacity()
            + self.proposer_rank_of.capacity())
            * size_of::<u32>()
    }
}

impl PrefOracle for ScoreOracle {
    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn row_len(&self, _m: u32) -> u32 {
        self.n as u32
    }

    #[inline]
    fn candidate(&self, _m: u32, pos: u32) -> u32 {
        self.responder_order[pos as usize]
    }

    #[inline]
    fn responder_rank(&self, _w: u32, m: u32) -> Rank {
        self.proposer_rank_of[m as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_are_permutations_and_inverses_agree() {
        let oracle = ScoreOracle::seeded(50, 9);
        let mut seen = [false; 50];
        for pos in 0..50u32 {
            let w = oracle.candidate(0, pos);
            assert!(!seen[w as usize]);
            seen[w as usize] = true;
            assert_eq!(oracle.proposer_rank(0, w), pos);
        }
        for m in 0..50u32 {
            let r = oracle.responder_rank(0, m);
            assert_eq!(oracle.proposer_order()[r as usize], m);
        }
    }

    #[test]
    fn explicit_scores_rank_descending() {
        let p = [0.1, 0.9, 0.5];
        let r = [0.3, 0.2, 0.8];
        let oracle = ScoreOracle::from_scores(&p, &r, 4);
        // Responder order by responder scores: 2, 0, 1.
        assert_eq!(
            (0..3)
                .map(|pos| oracle.candidate(0, pos))
                .collect::<Vec<_>>(),
            vec![2, 0, 1]
        );
        // Proposer ranks by proposer scores: 1 best, then 2, then 0.
        assert_eq!(oracle.responder_rank(0, 1), 0);
        assert_eq!(oracle.responder_rank(0, 2), 1);
        assert_eq!(oracle.responder_rank(0, 0), 2);
    }

    #[test]
    fn tied_scores_break_deterministically_by_seed() {
        let scores = vec![1.0; 16];
        let a = ScoreOracle::from_scores(&scores, &scores, 1);
        let b = ScoreOracle::from_scores(&scores, &scores, 1);
        let c = ScoreOracle::from_scores(&scores, &scores, 2);
        let row = |o: &ScoreOracle| (0..16).map(|p| o.candidate(0, p)).collect::<Vec<_>>();
        assert_eq!(row(&a), row(&b));
        assert_ne!(row(&a), row(&c), "seed must reshuffle ties");
    }
}
