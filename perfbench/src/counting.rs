//! Counting wrapper oracles: every candidate and rank query is forwarded
//! to the wrapped oracle and counted. Used only in traced runs, on re-runs
//! outside the timed items, so the counters cost the timed path nothing.

use std::cell::Cell;

use kmatch_prefs::{PrefOracle, Rank, RoommatesOracle, PROPOSAL_STRIP};

/// Probe totals of a counting oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Probes {
    /// Candidate (list position → member) queries.
    pub candidates: u64,
    /// Rank queries (including threshold compares).
    pub ranks: u64,
}

impl Probes {
    /// Candidate plus rank queries.
    pub fn total(&self) -> u64 {
        self.candidates + self.ranks
    }
}

/// A counting wrapper around any oracle.
pub struct Counting<O> {
    inner: O,
    candidates: Cell<u64>,
    ranks: Cell<u64>,
}

impl<O> Counting<O> {
    /// Wrap `inner` with zeroed counters.
    pub fn new(inner: O) -> Self {
        Counting {
            inner,
            candidates: Cell::new(0),
            ranks: Cell::new(0),
        }
    }

    /// Queries counted so far.
    pub fn probes(&self) -> Probes {
        Probes {
            candidates: self.candidates.get(),
            ranks: self.ranks.get(),
        }
    }

    fn add_candidates(&self, k: u64) {
        self.candidates.set(self.candidates.get() + k);
    }

    fn add_ranks(&self, k: u64) {
        self.ranks.set(self.ranks.get() + k);
    }
}

impl<P: PrefOracle> PrefOracle for Counting<P> {
    const COMPLETE: bool = P::COMPLETE;

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn row_len(&self, m: u32) -> u32 {
        self.inner.row_len(m)
    }

    fn candidate(&self, m: u32, pos: u32) -> u32 {
        self.add_candidates(1);
        self.inner.candidate(m, pos)
    }

    fn responder_rank(&self, w: u32, m: u32) -> Rank {
        self.add_ranks(1);
        self.inner.responder_rank(w, m)
    }

    fn proposal_entry(&self, m: u32, pos: u32) -> u64 {
        self.add_candidates(1);
        self.add_ranks(1);
        self.inner.proposal_entry(m, pos)
    }

    fn responder_cutoff(&self, w: u32) -> Rank {
        self.inner.responder_cutoff(w)
    }

    fn proposal_entry_strip(
        &self,
        ms: &[u32; PROPOSAL_STRIP],
        pos: &[u32; PROPOSAL_STRIP],
        out: &mut [u64; PROPOSAL_STRIP],
    ) {
        self.add_candidates(PROPOSAL_STRIP as u64);
        self.add_ranks(PROPOSAL_STRIP as u64);
        self.inner.proposal_entry_strip(ms, pos, out)
    }
}

impl<O: RoommatesOracle> RoommatesOracle for Counting<O> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn row_len(&self, p: u32) -> u32 {
        self.inner.row_len(p)
    }

    fn candidate(&self, p: u32, pos: u32) -> u32 {
        self.add_candidates(1);
        self.inner.candidate(p, pos)
    }

    fn rank_of(&self, p: u32, q: u32) -> Rank {
        self.add_ranks(1);
        self.inner.rank_of(p, q)
    }

    fn candidates_into(&self, p: u32, lo: u32, out: &mut [u32]) {
        self.add_candidates(out.len() as u64);
        self.inner.candidates_into(p, lo, out)
    }

    fn ranks_toward_into(&self, qs: &[u32], p: u32, out: &mut [u32]) {
        self.add_ranks(qs.len() as u64);
        self.inner.ranks_toward_into(qs, p, out)
    }

    fn rank_lt(&self, q: u32, p: u32, limit: u32) -> bool {
        self.add_ranks(1);
        self.inner.rank_lt(q, p, limit)
    }

    fn ranks_lt_into(&self, qs: &[u32], p: u32, limits: &[u32], out: &mut [bool]) {
        self.add_ranks(qs.len() as u64);
        self.inner.ranks_lt_into(qs, p, limits, out)
    }
}
