//! Content fingerprints over preference rows.
//!
//! Incremental solving needs to answer "has this data changed?" in O(1)
//! after an O(row) update, without hashing whole instances on every query.
//! The scheme used throughout this crate:
//!
//! * each preference row gets a 64-bit hash, seeded with a *position tag*
//!   (side/gender and row index) so equal rows at different positions hash
//!   differently;
//! * row hashes are **XOR-combined** into an instance (or gender-pair)
//!   fingerprint — when one row changes, the combined value is patched by
//!   XOR-ing the old row hash out and the new one in, O(1) after the O(n)
//!   row rehash;
//! * everything is computed twice under independent seeds, giving a
//!   128-bit [`Fp`] key. Cache hits compare full keys, so a false hit
//!   needs a simultaneous 128-bit collision.
//!
//! The mixer is the FxHash rotate–xor–multiply round: fast, deterministic
//! across runs (no per-process randomness — fingerprints are *content*
//! addresses), and good enough bit diffusion for table keys.

use kmatch_prefs::{BipartitePrefs, DeltaSide, ResponderListSlice};

/// A 128-bit content fingerprint (two independently seeded 64-bit hashes).
pub type Fp = (u64, u64);

/// First hash seed.
pub const SEED0: u64 = 0x9e37_79b9_7f4a_7c15;
/// Second hash seed (independent stream).
pub const SEED1: u64 = 0x6c62_272e_07bb_0142;

const M: u64 = 0x517c_c1b7_2722_0a95;

/// One FxHash-style mixing round.
#[inline]
pub fn mix(h: u64, w: u64) -> u64 {
    (h.rotate_left(5) ^ w).wrapping_mul(M)
}

/// Hash one preference row under `seed`, tagged with its position so the
/// same ordering in a different row contributes a different value to the
/// XOR combination.
#[inline]
pub fn hash_row(seed: u64, tag: u64, row: &[u32]) -> u64 {
    let mut h = mix(seed, tag);
    h = mix(h, row.len() as u64);
    for &x in row {
        h = mix(h, x as u64);
    }
    h
}

/// Both lanes of [`hash_row`] at once.
#[inline]
pub fn hash_row_fp(tag: u64, row: &[u32]) -> Fp {
    (hash_row(SEED0, tag, row), hash_row(SEED1, tag, row))
}

/// XOR-patch `combined`: remove `old` and add `new`.
#[inline]
pub fn patch(combined: Fp, old: Fp, new: Fp) -> Fp {
    (combined.0 ^ old.0 ^ new.0, combined.1 ^ old.1 ^ new.1)
}

/// Position tag of a bipartite preference row (side + row index).
#[inline]
pub fn side_tag(side: DeltaSide, row: u32) -> u64 {
    match side {
        DeltaSide::Proposer => row as u64,
        DeltaSide::Responder => (1u64 << 32) | row as u64,
    }
}

/// Content fingerprint of a whole bipartite instance: the XOR combination
/// of all `2n` row hashes. Equal-content instances fingerprint equal no
/// matter how they were built — [`crate::IncrementalGs`] maintains the
/// same value incrementally, and the cached batch front-end recomputes it
/// here from scratch.
pub fn bipartite_fingerprint<P>(prefs: &P) -> Fp
where
    P: BipartitePrefs + ResponderListSlice,
{
    let n = prefs.n();
    let mut combined = (0u64, 0u64);
    for m in 0..n as u32 {
        let h = hash_row_fp(side_tag(DeltaSide::Proposer, m), prefs.proposer_list(m));
        combined = (combined.0 ^ h.0, combined.1 ^ h.1);
    }
    for w in 0..n as u32 {
        let h = hash_row_fp(
            side_tag(DeltaSide::Responder, w),
            prefs.responder_list_slice(w),
        );
        combined = (combined.0 ^ h.0, combined.1 ^ h.1);
    }
    combined
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_hash_is_position_sensitive() {
        let row = [3u32, 1, 2, 0];
        assert_ne!(hash_row_fp(0, &row), hash_row_fp(1, &row));
        assert_ne!(hash_row_fp(0, &row), hash_row_fp(0, &[3, 1, 0, 2]));
        assert_eq!(hash_row_fp(7, &row), hash_row_fp(7, &row));
    }

    #[test]
    fn patch_round_trips() {
        let a = hash_row_fp(0, &[0, 1, 2]);
        let b = hash_row_fp(1, &[2, 1, 0]);
        let b2 = hash_row_fp(1, &[1, 2, 0]);
        let combined = (a.0 ^ b.0, a.1 ^ b.1);
        let patched = patch(combined, b, b2);
        assert_eq!(patched, (a.0 ^ b2.0, a.1 ^ b2.1));
        assert_eq!(patch(patched, b2, b), combined);
    }
}
