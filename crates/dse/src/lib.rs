//! Unified system + accelerator design-space exploration (paper §V).
//!
//! One DSE iteration (Figure 6):
//!
//! 1. the **spatial DSE** proposes `ADG*` by mutating the current ADG —
//!    with a mix of random transformations and *schedule-preserving*
//!    transformations (node collapsing, edge-delay preservation,
//!    module-capability pruning, §V-B) that keep prior compilations valid;
//! 2. every workload's pre-generated mDFG variants are (re)scheduled onto
//!    `ADG*`, preferring cheap schedule repair over full scheduling; a
//!    workload with no schedulable variant invalidates `ADG*`;
//! 3. the nested **system DSE** exhaustively picks tile count, L2
//!    banks/capacity and NoC bandwidth for `ADG*` under the FPGA resource
//!    budget;
//! 4. simulated annealing accepts or rejects, favouring estimated
//!    performance first and resources-per-accelerator second.
//!
//! Simulated DSE wall-clock (Figure 15/20's x-axis) is accounted through
//! [`overgen_model::TimeModel`]: full schedules are expensive, repairs are
//! cheap — which is exactly why schedule-preserving transformations reduce
//! DSE time (Q8).
//!
//! The driver is parallel and deterministic: [`DseConfig::chains`] runs
//! independent annealing chains with periodic best-state exchange,
//! [`DseConfig::threads`] of them at once on `std::thread::scope`
//! workers, each evaluating its proposals serially; an evaluation cache
//! keyed by [`overgen_adg::Adg::fingerprint`] memoizes repeated design
//! points. Results and telemetry traces are byte-identical for any
//! thread count (see `engine` module docs).
//!
//! # Example
//!
//! ```no_run
//! use overgen_dse::{Dse, DseConfig};
//! use overgen_ir::{expr, DataType, KernelBuilder, Suite};
//!
//! let k = KernelBuilder::new("vecadd", Suite::Dsp, DataType::I64)
//!     .array_input("a", 4096).array_input("b", 4096).array_output("c", 4096)
//!     .loop_const("i", 4096)
//!     .assign("c", expr::idx("i"),
//!             expr::load("a", expr::idx("i")) + expr::load("b", expr::idx("i")))
//!     .build().unwrap();
//! let result = Dse::new(vec![k], DseConfig { iterations: 50, ..Default::default() })
//!     .run()
//!     .expect("domain schedules on the seed mesh");
//! println!("estimated IPC {:.1}", result.objective);
//! ```

mod cache;
mod checkpoint;
mod codec;
mod engine;
mod eval;
mod heartbeat;
mod objective;
mod pool;
mod rewrite;
mod store;
mod system;

pub use checkpoint::{Checkpoint, CheckpointConfig, MIN_WRITE_GAP};
pub use engine::{Dse, DseConfig, DseError, DseResult, DseStats, StopFlag};
pub use eval::{EvalReport, ParetoFront, ParetoPoint};
pub use heartbeat::HeartbeatConfig;
pub use objective::{GeomeanIpcWeights, Objective, PlacementObjective};
// Re-exported so `Objective::ConstrainedIpc(DeviceBudget::vcu118())` and
// `Objective::PlacementAware(PlacementObjective::default())` need only
// this crate.
pub use overgen_model::{
    ClockRegionGrid, DeviceBudget, GridCell, PlacementMetrics, PlacementReport, Placer, PlacerKind,
    SimpleGridPlacer,
};
pub use rewrite::{
    infer_footprint, kind_name, AdgDelta, Application, Mutation, RecordedAdg, Rule, RuleOutcome,
    RuleSet, TransformCtx,
};
pub use store::{EvalStore, StoreError, StoreStats, STORE_MAGIC, STORE_VERSION};
pub use system::{system_dse, system_dse_sim, SystemDseBackend, SystemDseConfig};
