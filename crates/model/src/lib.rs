//! Performance, FPGA-resource, and time models for OverGen's DSE.
//!
//! Three model families from the paper:
//!
//! - **Performance** ([`perf`]): the bottleneck analysis of §V-C
//!   (Equations 1–2) — estimated IPC from mDFG instruction bandwidth, tile
//!   count, and production/consumption ratios at each memory level.
//! - **FPGA resources** ([`resources`], [`synthesis`], [`mlp`]): per-element
//!   LUT/FF/BRAM/DSP estimates. The paper trains a 3-layer MLP on
//!   out-of-context Vivado synthesis runs (§V-D, Table I); here a synthetic
//!   synthesis oracle plays Vivado's role and the same MLP pipeline is
//!   trained against it. An analytic model (the oracle mean) is also
//!   available for fast exact queries.
//! - **Time** ([`time`]): wall-clock models for HLS synthesis, place &
//!   route, overlay compilation, and reconfiguration — the quantities of
//!   Figures 15 and 17.
//!
//! # Example
//!
//! ```
//! use overgen_model::resources::{Resources, XCVU9P};
//! let r = Resources { lut: 100_000.0, ff: 80_000.0, bram: 120.0, dsp: 64.0 };
//! assert!(XCVU9P.utilization(&r).lut < 0.1);
//! ```

pub mod dataset;
pub mod estimate;
pub mod mlp;
pub mod perf;
pub mod placement;
pub mod resources;
pub mod synthesis;
pub mod time;

pub use dataset::{generate, Dataset, MlpResourceModel};
pub use estimate::{
    accelerator_resources, breakdown, core_resources, dispatcher_resources, engine_resources,
    l2_resources, noc_resources, tile_breakdown, AnalyticModel, ResourceModel,
};
pub use mlp::{Mlp, TrainConfig, TrainReport};
pub use perf::{
    estimate_ipc, spad_bandwidth, weighted_geomean_ipc, Level, PerfEstimate, PerfSummary, Placement,
};
pub use placement::{
    noc_wirelength, ClockRegionGrid, GridCell, PlacementMetrics, PlacementReport, SimpleGridPlacer,
};
pub use resources::{
    fmax_curve, DeviceBudget, FpgaDevice, ResourceBreakdown, Resources, Utilization,
    FMAX_FLOOR_MHZ, XCVU9P,
};
pub use synthesis::{
    features_of, synthesize, synthesize_post_pnr, ComponentFeatures, ComponentKind, SynthesisRun,
};
pub use time::TimeModel;
