//! End-to-end and per-layer benchmark of the kmatch solvers.
//!
//! One binary runs one workload per process (`--workload NAME --seed N`),
//! generates that workload's inputs from the seed in-process, times calls
//! into the public functions of the workspace crates, checks every output
//! outside the timed region, and prints every metric by name with its
//! unit. `NOTES.md` beside this crate explains why each workload exists
//! and which per-layer metric should move which end-to-end metric.

pub mod checks;
pub mod counting;
pub mod metrics;
pub mod rng;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;

/// Input scale of a run: the real workload, or a tiny one for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `NOTES.md` and `BENCHMARK.json` describe.
    Full,
    /// Same code paths at a size that runs in well under a second.
    Tiny,
}

/// One run's settings, as parsed from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Workload seed: every input of the run is derived from it.
    pub seed: u64,
    /// Seconds of timed items to collect (at least the workload's minimum
    /// item count is always run).
    pub seconds: f64,
    /// Traced run: spans, counting re-runs and per-layer metrics.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
}

/// Names of the workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["gs_large", "gs_batch", "roommates_cert", "kary_edits"];

/// Run one workload by name; `None` for an unknown name.
pub fn run_workload(name: &str, cfg: Config) -> Option<run::Report> {
    let report = match name {
        "gs_large" => workloads::gs_large::run(cfg),
        "gs_batch" => workloads::gs_batch::run(cfg),
        "roommates_cert" => workloads::roommates_cert::run(cfg),
        "kary_edits" => workloads::kary_edits::run(cfg),
        _ => return None,
    };
    Some(report)
}
