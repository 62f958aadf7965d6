//! The four workloads. Each generates its inputs from the run seed, sets
//! up [`crate::run::SETUP_REPS`] times, runs timed items for the
//! requested seconds, and checks every item's output outside its timing.

pub mod gs_batch;
pub mod gs_large;
pub mod kary_edits;
pub mod roommates_cert;
