//! # kmatch-parallel — parallel binding execution and PRAM cost models
//!
//! §IV-C of the paper: "pairwise matching in the original GS algorithm is
//! difficult to parallelize … However, parallelization at the binding tree
//! level is feasible." Two bindings can run concurrently when their gender
//! pairs are disjoint, so a parallel plan is an edge coloring of the
//! binding tree (see `kmatch_graph::schedule`).
//!
//! This crate provides:
//!
//! * [`steal`] — the one executor behind every parallel path: a
//!   deterministic work-stealing runner with fine-grained tasks on
//!   per-worker deques, seeded victim order (`KMATCH_STEAL_SEED`),
//!   task-id-ordered reduction so outputs and merged metrics are
//!   byte-identical for any steal schedule, per-worker lane accounting
//!   for the straggler section of run reports, never more workers than
//!   tasks, and an inline serial path when only one worker would run.
//! * [`executor`] — the binding executor: the independent `GS(i, j)`
//!   bindings of each schedule round run as executor tasks. Its output is
//!   bit-identical to the sequential Algorithm 1 (GS is deterministic per
//!   edge and edges touch disjoint data), which the tests enforce.
//! * [`batch`] — a throughput front-end: [`solve_batch`] fans many
//!   independent bipartite instances across the workers, giving each
//!   worker one reusable `GsWorkspace` so the per-instance allocation
//!   cost is just the returned matchings.
//! * [`roommates`] — the same front-end for Irving's stable-roommates
//!   solver (one reusable `RoommatesWorkspace` per worker), feeding the
//!   solvability sweeps.
//! * [`cached`] — a content-addressed cache in front of the GS batch.
//! * [`pram`] — the paper's own cost model, implemented as an explicit
//!   simulator: EREW round accounting reproducing Corollary 1
//!   (`≤ Δ·n²` iterations with `k − 1` processors), the 2-round even–odd
//!   path schedule of Corollary 2 / Fig. 4, and the `⌈log₂ Δ⌉`-round data
//!   replication that lets EREW emulate CREW.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cached;
pub mod executor;
pub mod pram;
pub mod roommates;
pub mod scratch;
pub mod steal;

pub use batch::{
    batch_stats, solve_batch, solve_batch_metered, solve_batch_probed, solve_batch_stealing,
    solve_batch_stealing_metered, solve_batch_traced, ChunkTrace,
};
pub use cached::{solve_batch_cached, CachedBatchOutcome};
pub use executor::{
    parallel_bind, parallel_bind_metered, parallel_bind_scheduled, ParallelBindingOutcome,
};
pub use pram::{crew_cost, erew_cost, replication_rounds, PramCost, PramModel};
pub use scratch::WorkerScratch;
pub use steal::{
    default_threads, steal_seed, StealReport, WorkerLane, STEAL_SEED_ENV, TASKS_PER_WORKER,
};
