//! End-to-end and per-layer benchmark of the DRILL simulator.
//!
//! The simulator is driven only through its public API; every timing and
//! span is recorded here, around those calls. See `README.md` beside this
//! package for the commands and the metric definitions.

pub mod layers;
pub mod outputs;
pub mod run;
pub mod trace;
pub mod workloads;
