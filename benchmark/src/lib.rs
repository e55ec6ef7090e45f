//! # kf-benchmark — one end-to-end admission benchmark with a per-layer trace
//!
//! Raw wire bytes in → `EnforcementProxy` verdict → `ApiServer` (learned
//! RBAC, audit) → store → WAL → watch delivery → wire bytes out, driven by a
//! closed-loop load generator over four workloads, with every outcome
//! checked. End-to-end metrics come from the program exactly as it ships;
//! per-layer metrics come from a separate traced run whose spans are taken
//! through the program's three public seams, from this package's own files.
//! See `README.md` for the command, the workloads and how the metrics
//! interact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod catalog;
pub mod durability;
pub mod io;
pub mod json;
pub mod layers;
pub mod pool;
pub mod probes;
pub mod run;
pub mod setup;
pub mod stats;
pub mod trace;
pub mod workload;

/// The benchmark's scratch and output directory: `out/` beside this
/// package's manifest (inside the checkout, ignored by git).
pub fn out_dir() -> std::path::PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(
            || std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")),
            std::path::PathBuf::from,
        )
        .join("out")
}
