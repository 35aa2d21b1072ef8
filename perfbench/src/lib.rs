//! A serving benchmark for the LCA stack.
//!
//! `lca-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! spawns the repository's own `lca-serve` / `lca-gateway` binaries, drives
//! them closed-loop from this process, checks every answer it can afford
//! to recompute, and prints one JSON result line. With `--trace 1` it also
//! replays the workload's requests through the serving modules in-process
//! and reports per-layer figures. See `perfbench/README.md`.

#![forbid(unsafe_code)]

pub mod client;
pub mod daemon;
pub mod live;
pub mod metrics;
pub mod spans;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod workload;
