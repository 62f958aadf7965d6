//! Preference deltas — the unit of change for incremental re-solving.
//!
//! Real traffic arrives as small edits: one member re-ranks one list. A
//! [`PrefDelta`] names exactly one preference row of a bipartite instance
//! and how it changes, so `kmatch-incremental` can patch *the dirty row*
//! of its arena and fingerprint instead of re-deriving everything from
//! scratch. Three shapes cover the tests and
//! the CLI `delta` subcommand:
//!
//! * [`PrefDelta::SetRow`] — replace the whole row with a new permutation;
//! * [`PrefDelta::Swap`] — exchange the entries at two positions;
//! * [`PrefDelta::Splice`] — remove the entry at one position and
//!   re-insert it at another (everything between shifts by one).
//!
//! All three are *row-local*: applying a delta touches one preference list
//! and its inverse rank row, in O(n). [`BipartiteInstance::apply_delta`]
//! mutates an instance in place; `CsrPrefs::apply_delta` (in
//! [`crate::csr`]) re-derives the affected arena rows from the mutated
//! source without a full reload.
//!
//! [`BipartiteInstance::apply_delta`]: crate::BipartiteInstance::apply_delta

use crate::error::PrefsError;
use crate::ids::Rank;

/// Which side of a bipartite instance a [`PrefDelta`] touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaSide {
    /// Side 0 — the proposers ("men").
    Proposer,
    /// Side 1 — the responders ("women").
    Responder,
}

/// A single-row edit to a bipartite preference instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefDelta {
    /// Replace `row`'s preference list with `prefs` (a permutation of
    /// `0..n`).
    SetRow {
        /// Side the row lives on.
        side: DeltaSide,
        /// Row (member) index.
        row: u32,
        /// The new best-to-worst ordering.
        prefs: Vec<u32>,
    },
    /// Swap the entries at positions `a` and `b` of `row`'s list.
    Swap {
        /// Side the row lives on.
        side: DeltaSide,
        /// Row (member) index.
        row: u32,
        /// First position.
        a: u32,
        /// Second position.
        b: u32,
    },
    /// Remove the entry at position `from` and re-insert it at position
    /// `to`; entries between the two positions shift by one.
    Splice {
        /// Side the row lives on.
        side: DeltaSide,
        /// Row (member) index.
        row: u32,
        /// Position the entry is taken from.
        from: u32,
        /// Position it is re-inserted at.
        to: u32,
    },
}

impl PrefDelta {
    /// The side whose row this delta rewrites.
    pub fn side(&self) -> DeltaSide {
        match self {
            PrefDelta::SetRow { side, .. }
            | PrefDelta::Swap { side, .. }
            | PrefDelta::Splice { side, .. } => *side,
        }
    }

    /// The row (member index) this delta rewrites — the one dirty row.
    pub fn row(&self) -> u32 {
        match self {
            PrefDelta::SetRow { row, .. }
            | PrefDelta::Swap { row, .. }
            | PrefDelta::Splice { row, .. } => *row,
        }
    }

    /// Apply this delta to one preference-list row in place.
    ///
    /// `owner` is only used to label validation errors. The caller is
    /// responsible for re-inverting the matching rank row afterwards.
    pub(crate) fn apply_to_row(
        &self,
        list: &mut [u32],
        owner: (usize, usize),
        over: usize,
    ) -> Result<(), PrefsError> {
        let n = list.len();
        let pos = |p: u32, what: &'static str| -> Result<usize, PrefsError> {
            let p = p as usize;
            if p < n {
                Ok(p)
            } else {
                Err(PrefsError::ShapeMismatch {
                    what,
                    expected: n,
                    actual: p,
                })
            }
        };
        match self {
            PrefDelta::SetRow { prefs, .. } => {
                let mut seen = vec![false; n];
                if !crate::bipartite::check_permutation(prefs, n, &mut seen) {
                    return Err(PrefsError::NotAPermutation { owner, over });
                }
                list.copy_from_slice(prefs);
            }
            PrefDelta::Swap { a, b, .. } => {
                list.swap(
                    pos(*a, "delta swap position")?,
                    pos(*b, "delta swap position")?,
                );
            }
            PrefDelta::Splice { from, to, .. } => {
                let from = pos(*from, "delta splice position")?;
                let to = pos(*to, "delta splice position")?;
                if from <= to {
                    list[from..=to].rotate_left(1);
                } else {
                    list[to..=from].rotate_right(1);
                }
            }
        }
        Ok(())
    }
}

/// Re-invert one preference-list row into its rank row: after a delta,
/// `ranks[base + member] = position` for every member of the list.
pub(crate) fn reinvert_row(list: &[u32], ranks: &mut [Rank]) {
    for (r, &member) in list.iter().enumerate() {
        ranks[member as usize] = r as Rank;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BipartiteInstance;

    fn inst4() -> BipartiteInstance {
        let rows = vec![
            vec![0, 1, 2, 3],
            vec![1, 2, 3, 0],
            vec![2, 3, 0, 1],
            vec![3, 0, 1, 2],
        ];
        BipartiteInstance::from_lists(&rows, &rows).unwrap()
    }

    #[test]
    fn set_row_replaces_list_and_ranks() {
        let mut inst = inst4();
        inst.apply_delta(&PrefDelta::SetRow {
            side: DeltaSide::Proposer,
            row: 1,
            prefs: vec![3, 1, 0, 2],
        })
        .unwrap();
        assert_eq!(inst.proposer_list(1), &[3, 1, 0, 2]);
        assert_eq!(inst.proposer_rank(1, 3), 0);
        assert_eq!(inst.proposer_rank(1, 2), 3);
        // Other rows untouched.
        assert_eq!(inst.proposer_list(0), &[0, 1, 2, 3]);
    }

    #[test]
    fn swap_and_splice_rewrite_one_row() {
        let mut inst = inst4();
        inst.apply_delta(&PrefDelta::Swap {
            side: DeltaSide::Responder,
            row: 2,
            a: 0,
            b: 3,
        })
        .unwrap();
        assert_eq!(inst.responder_list(2), &[1, 3, 0, 2]);
        assert_eq!(inst.responder_rank(2, 1), 0);

        inst.apply_delta(&PrefDelta::Splice {
            side: DeltaSide::Responder,
            row: 2,
            from: 3,
            to: 0,
        })
        .unwrap();
        assert_eq!(inst.responder_list(2), &[2, 1, 3, 0]);
        assert_eq!(inst.responder_rank(2, 2), 0);

        inst.apply_delta(&PrefDelta::Splice {
            side: DeltaSide::Responder,
            row: 2,
            from: 0,
            to: 2,
        })
        .unwrap();
        assert_eq!(inst.responder_list(2), &[1, 3, 2, 0]);
    }

    #[test]
    fn bad_deltas_are_rejected() {
        let mut inst = inst4();
        assert!(inst
            .apply_delta(&PrefDelta::SetRow {
                side: DeltaSide::Proposer,
                row: 0,
                prefs: vec![0, 0, 1, 2],
            })
            .is_err());
        assert!(inst
            .apply_delta(&PrefDelta::Swap {
                side: DeltaSide::Proposer,
                row: 9,
                a: 0,
                b: 1,
            })
            .is_err());
        assert!(inst
            .apply_delta(&PrefDelta::Splice {
                side: DeltaSide::Proposer,
                row: 0,
                from: 4,
                to: 0,
            })
            .is_err());
        // Failed deltas leave the instance untouched.
        assert_eq!(inst, inst4());
    }
}
