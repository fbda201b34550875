//! End-to-end and per-layer benchmark of the Kodan simulator.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --workload NAME [--seed N] [--seconds S] [--trace 0|1]` flies one
//! workload and prints a report ending in one JSON result line. See
//! `PROTOCOL.md` beside this package for the workloads, the metrics and
//! what each layer metric should move.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod metrics;
pub mod run;
mod stats;
mod trace;
pub mod workload;
