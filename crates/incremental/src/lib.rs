//! # kmatch-incremental — incremental re-solving
//!
//! The solvers in `kmatch-gs`, `kmatch-roommates`, and `kmatch-core` are
//! built for one-shot throughput. Real workloads mutate: a member
//! re-ranks one list and asks for the new matching. Reloading the
//! instance from scratch is O(n²); this crate keeps what an edit leaves
//! untouched, at three layers:
//!
//! * [`IncrementalGs`] — a bipartite session that patches its CSR arena
//!   and content fingerprint in O(n) per delta, solves the patched arena
//!   on a miss, and short-circuits entirely through a content-addressed
//!   [`SolveCache`] when an instance state recurs.
//! * [`IncrementalRoommates`] — the Irving analogue: O(n) row rewrites,
//!   and recurring states (solvable or not) come from the cache.
//! * [`IncrementalBinder`] — dirty-edge k-ary rebinding: each binding-tree
//!   edge is fingerprinted over the preference rows it reads, a rebind
//!   re-solves only dirty edges and reuses cached pair lists elsewhere
//!   (clean edges execute zero proposals), and only the union–find merge
//!   re-runs in full — ~`1/(k−1)` of the work for a one-gender-pair
//!   update.
//!
//! Content addressing is per-row FxHash-style fingerprinting, XOR-combined
//! so a row edit patches the combined key in O(n) ([`fingerprint`]); the
//! cache ([`cache`]) is a bounded FIFO keyed by 128-bit fingerprints.
//! Every layer is differentially tested byte-equal against its cold
//! counterpart, and every tier records `SolverMetrics` counters
//! (`cache_hits`/`cache_misses`/`cache_evictions`,
//! `edges_dirty`/`edges_clean`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binder;
pub mod cache;
pub mod fingerprint;
pub mod gs;
pub mod roommates;

pub use binder::IncrementalBinder;
pub use cache::{SolveCache, DEFAULT_CACHE_CAPACITY};
pub use fingerprint::{bipartite_fingerprint, hash_row_fp, Fp};
pub use gs::IncrementalGs;
pub use roommates::IncrementalRoommates;
