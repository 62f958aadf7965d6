//! Incremental stable-roommates session.
//!
//! [`IncrementalRoommates`] wraps a [`RoommatesInstance`] and a reused
//! [`RoommatesWorkspace`]. A row rewrite patches the content fingerprint
//! in O(n); a re-solve of a state not seen before runs Irving on the
//! rewritten instance. On top sits the same content-addressed
//! [`SolveCache`] as the GS session — an instance state seen before
//! returns its stored outcome without touching the engine, including
//! *unsolvable* states, whose culprit certificate is cached too.

use kmatch_obs::{Metrics, NoMetrics};
use kmatch_prefs::{PrefsError, RoommatesInstance};
use kmatch_roommates::{RoommatesMatching, RoommatesOutcome, RoommatesWorkspace, SolveStats};
use kmatch_trace::{span, NoSpans, SpanSink};

use crate::cache::SolveCache;
use crate::fingerprint::{hash_row_fp, patch, Fp};

/// A cached roommates result: either a stable matching's partner array or
/// the unsolvability culprit, plus the stats of the run that produced it.
#[derive(Debug, Clone)]
struct CachedRoommates {
    stable: bool,
    partner: Vec<u32>,
    culprit: u32,
    stats: SolveStats,
}

impl CachedRoommates {
    fn of(outcome: &RoommatesOutcome) -> Self {
        match outcome {
            RoommatesOutcome::Stable { matching, stats } => CachedRoommates {
                stable: true,
                partner: matching.partners().to_vec(),
                culprit: 0,
                stats: *stats,
            },
            RoommatesOutcome::NoStableMatching { culprit, stats } => CachedRoommates {
                stable: false,
                partner: Vec::new(),
                culprit: *culprit,
                stats: *stats,
            },
        }
    }

    fn replay(&self) -> RoommatesOutcome {
        if self.stable {
            RoommatesOutcome::Stable {
                matching: RoommatesMatching::new(self.partner.clone()),
                stats: self.stats,
            }
        } else {
            RoommatesOutcome::NoStableMatching {
                culprit: self.culprit,
                stats: self.stats,
            }
        }
    }
}

/// A long-lived roommates solving session accepting row rewrites.
pub struct IncrementalRoommates {
    inst: RoommatesInstance,
    ws: RoommatesWorkspace,
    rows: Vec<Fp>,
    combined: Fp,
    cache: SolveCache<CachedRoommates>,
}

impl IncrementalRoommates {
    /// Start a session over `inst` with the default cache capacity.
    pub fn new(inst: RoommatesInstance) -> Self {
        Self::with_cache_capacity(inst, crate::cache::DEFAULT_CACHE_CAPACITY)
    }

    /// Start a session with an explicit solve-cache capacity.
    pub fn with_cache_capacity(inst: RoommatesInstance, capacity: usize) -> Self {
        let n = inst.n();
        let mut rows = Vec::with_capacity(n);
        let mut combined = (0u64, 0u64);
        for p in 0..n as u32 {
            let h = hash_row_fp(p as u64, inst.list(p));
            combined = (combined.0 ^ h.0, combined.1 ^ h.1);
            rows.push(h);
        }
        IncrementalRoommates {
            inst,
            ws: RoommatesWorkspace::new(),
            rows,
            combined,
            cache: SolveCache::new(capacity),
        }
    }

    /// The instance in its current (post-rewrite) state.
    pub fn instance(&self) -> &RoommatesInstance {
        &self.inst
    }

    /// The current 128-bit content fingerprint of the instance.
    pub fn fingerprint(&self) -> Fp {
        self.combined
    }

    /// Rewrite participant `p`'s preference row and patch the content
    /// fingerprint. A rejected row leaves the session unchanged.
    pub fn set_row(&mut self, p: u32, row: &[u32]) -> Result<(), PrefsError> {
        self.inst.set_row(p, row)?;
        let new = hash_row_fp(p as u64, self.inst.list(p));
        let idx = p as usize;
        self.combined = patch(self.combined, self.rows[idx], new);
        self.rows[idx] = new;
        Ok(())
    }

    /// Solve the current state: cached replay when the state recurs, else
    /// an Irving solve.
    pub fn solve(&mut self) -> RoommatesOutcome {
        self.solve_metered(&mut NoMetrics)
    }

    /// [`IncrementalRoommates::solve`] with metric hooks (one
    /// [`Metrics::cache_lookup`] per call, engine counters from
    /// [`RoommatesWorkspace::solve_metered`], and
    /// [`Metrics::cache_eviction`] on overflow).
    pub fn solve_metered<M: Metrics>(&mut self, metrics: &mut M) -> RoommatesOutcome {
        self.solve_spanned(metrics, &mut NoSpans)
    }

    /// [`IncrementalRoommates::solve_metered`] that additionally emits a
    /// span timeline: a `cache.hit` or `cache.miss` instant for the
    /// lookup, and on a miss the Irving spans of
    /// [`RoommatesWorkspace::solve_spanned`]. With
    /// [`kmatch_trace::NoSpans`] this monomorphizes to exactly
    /// [`IncrementalRoommates::solve_metered`].
    pub fn solve_spanned<M: Metrics, S: SpanSink>(
        &mut self,
        metrics: &mut M,
        spans: &mut S,
    ) -> RoommatesOutcome {
        let key = self.combined;
        if let Some(cached) = self.cache.get(key) {
            metrics.cache_lookup(true);
            spans.instant(span::CACHE_HIT, 0);
            return cached.replay();
        }
        metrics.cache_lookup(false);
        spans.instant(span::CACHE_MISS, 0);
        let out = self.ws.solve_spanned(&self.inst, metrics, spans);
        if self.cache.insert(key, CachedRoommates::of(&out)) {
            metrics.cache_eviction();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmatch_obs::SolverMetrics;
    use kmatch_prefs::gen::paper::section3b_right;
    use kmatch_prefs::gen::uniform::uniform_roommates;
    use kmatch_roommates::solve;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn assert_same_outcome(a: &RoommatesOutcome, b: &RoommatesOutcome) {
        match (a, b) {
            (
                RoommatesOutcome::Stable { matching: x, .. },
                RoommatesOutcome::Stable { matching: y, .. },
            ) => assert_eq!(x, y),
            (
                RoommatesOutcome::NoStableMatching { culprit: x, .. },
                RoommatesOutcome::NoStableMatching { culprit: y, .. },
            ) => assert_eq!(x, y),
            _ => panic!("stability verdicts disagree"),
        }
    }

    #[test]
    fn session_tracks_cold_solver_across_rewrites() {
        let mut rng = ChaCha8Rng::seed_from_u64(81);
        let n = 10usize;
        let inst = uniform_roommates(n, &mut rng);
        let mut session = IncrementalRoommates::new(inst);
        for _ in 0..40 {
            let p = rng.gen_range(0..n as u32);
            let mut row = session.instance().list(p).to_vec();
            let i = rng.gen_range(0..row.len());
            let j = rng.gen_range(0..row.len());
            row.swap(i, j);
            session.set_row(p, &row).unwrap();
            let out = session.solve();
            assert_same_outcome(&out, &solve(session.instance()));
        }
    }

    #[test]
    fn undo_rewrite_hits_the_cache_even_when_unsolvable() {
        let inst = section3b_right();
        let mut session = IncrementalRoommates::new(inst);
        let mut m = SolverMetrics::new();
        let first = session.solve_metered(&mut m);
        assert!(!first.is_stable());
        let p = 0u32;
        let old = session.instance().list(p).to_vec();
        let mut rev = old.clone();
        rev.reverse();
        session.set_row(p, &rev).unwrap();
        session.solve_metered(&mut m);
        session.set_row(p, &old).unwrap();
        let again = session.solve_metered(&mut m);
        assert_eq!(m.cache_hits, 1, "restored state must be content-addressed");
        assert_same_outcome(&again, &first);
    }

    #[test]
    fn cache_hit_then_fresh_rewrite_still_matches_cold() {
        let mut rng = ChaCha8Rng::seed_from_u64(82);
        let n = 8usize;
        let inst = uniform_roommates(n, &mut rng);
        let mut session = IncrementalRoommates::new(inst);
        session.solve();
        let old = session.instance().list(2).to_vec();
        let mut rev = old.clone();
        rev.reverse();
        session.set_row(2, &rev).unwrap();
        session.solve();
        session.set_row(2, &old).unwrap();
        session.solve(); // hit — the engine does not run
        let mut row = session.instance().list(5).to_vec();
        row.reverse();
        session.set_row(5, &row).unwrap();
        assert_same_outcome(&session.solve(), &solve(session.instance()));
    }
}
