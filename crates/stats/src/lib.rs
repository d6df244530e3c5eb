//! Statistics used throughout the DRILL reproduction.
//!
//! The paper's evaluation reports means, high percentiles (up to the
//! 99.99th), CDFs, time-averaged standard deviations of queue lengths, and
//! per-category (per-hop) breakdowns. This crate provides the corresponding
//! building blocks:
//!
//! * [`Moments`] — streaming count/mean/variance/min/max (Welford).
//! * [`Distribution`] — a sample store with quantiles and CDF export. Exact
//!   at figure scale (runs up to [`EXACT_SPILL_LIMIT`] samples keep every
//!   value, so the 99.99th percentile is a true order statistic), spilling
//!   into a bounded-memory [`QuantileSketch`] at production scale where
//!   O(flows) storage would dominate the simulator's footprint.
//! * [`QuantileSketch`] — the underlying deterministic, mergeable,
//!   KLL-style sketch (O(k log n) memory, configured rank-error bound).
//! * [`Histogram`] — fixed-bin counts (used for the dup-ACK distribution).
//! * [`Table`] — minimal aligned-text table formatting for the experiment
//!   binaries, so every figure harness prints rows the same way.

#![warn(missing_docs)]

mod exact_sum;
mod histogram;
mod moments;
mod percentile;
mod sketch;
mod table;

pub use histogram::Histogram;
pub use moments::{stdev_of, Moments};
pub use percentile::{Distribution, EXACT_SPILL_LIMIT};
pub use sketch::{QuantileSketch, DEFAULT_SKETCH_K, MIN_LEVEL_CAP};
pub use table::{f3, Table};
