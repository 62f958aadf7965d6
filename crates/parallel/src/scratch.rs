//! Per-worker scratch buffers of the binding executor.
//!
//! Each executor worker owns one [`WorkerScratch`] for the duration of a
//! round: the GS solver workspace plus a CSR arena that snapshots strided
//! preference views (e.g. [`kmatch_prefs::KPartitePairView`]) into
//! contiguous rows before solving. Both only grow, so a worker allocates
//! scratch once and reuses it for every edge it processes.

use kmatch_gs::GsWorkspace;
use kmatch_prefs::CsrPrefs;

/// Reusable per-worker solver state: a [`GsWorkspace`] and a [`CsrPrefs`]
/// snapshot arena.
#[derive(Default)]
pub struct WorkerScratch {
    /// The zero-allocation GS engine workspace.
    pub ws: GsWorkspace,
    /// CSR arena for snapshotting strided views into contiguous rows.
    pub csr: CsrPrefs,
}

impl WorkerScratch {
    /// Fresh scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }
}
