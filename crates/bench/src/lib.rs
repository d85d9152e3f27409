//! Experiment harness reproducing every table and figure of the OverGen
//! paper's evaluation (§VIII). The `overgen-bench <experiment>` binary
//! (`src/bin/overgen_bench.rs`) runs any of them by name; one module per
//! experiment lives in [`experiments`], and the shared machinery (overlay
//! generation, AutoDSE runs, text tables, artifact publishing) lives here.
//!
//! Scale knobs (environment variables):
//!
//! - `OVERGEN_DSE_ITERS`: spatial-DSE iterations per overlay (default 60,
//!   the setting of the committed `results/` tables).
//! - `OVERGEN_SEED`: RNG seed (default 2022).

pub mod compare;
pub mod experiments;
pub mod harness;
pub mod profile_export;
pub mod table;

pub use harness::*;
pub use table::Table;
