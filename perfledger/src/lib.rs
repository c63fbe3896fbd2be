//! A benchmark of the Maxson workspace, end to end and layer by layer.
//!
//! It generates its own Table II warehouse, runs one of three workloads
//! (`adhoc_raw`, `served_cached`, `ingest_midday`) for a stated time through
//! the crates' public calls, checks every result against a serial reference,
//! and prints every metric by name with its unit. See `README.md` in this
//! directory for the metric table and why each workload exists.

pub mod config;
pub mod cycle;
pub mod layers;
pub mod report;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod streams;
pub mod warehouse;
pub mod workloads;
