//! # idaa-benchmark
//!
//! The repo's one performance yardstick (see `README.md` beside this
//! crate): four round-based workloads driven by one closed-loop client,
//! eight end-to-end metrics with regression bounds, and a traced run that
//! splits statement time across the layers from outside the program.
//!
//! The crate depends only on the product crates' public APIs and changes
//! none of them.

pub mod catalog;
pub mod compare;
pub mod harness;
pub mod json;
pub mod layers;
pub mod probes;
pub mod rng;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
