//! The spatial scheduler: maps memory-enhanced dataflow graphs onto
//! architecture description graphs.
//!
//! Responsibilities (paper §II-A, §IV-B "mDFG Scheduling"):
//!
//! - map **array nodes** to memory stream engines under capacity, pattern
//!   (indirect), and connectivity constraints;
//! - bind **streams** to synchronization ports fed by / draining to the
//!   right engine;
//! - place **instructions** onto capability-compatible processing elements
//!   (dedicated execution: one instruction per PE);
//! - **route** every dataflow edge through the switch fabric under
//!   exclusive-link constraints (fanout of the same value may share links);
//! - score the result with the §V-C performance model, including a
//!   pipeline-balance penalty when operand delays exceed PE delay-FIFOs.
//!
//! [`repair`] revalidates a schedule against a *mutated* ADG and re-places
//! only what broke — the cheap path the DSE prefers (§V-A "schedule
//! repair").
//!
//! [`HwIndex`] indexes one hardware graph once for every placement and
//! repair against it; [`schedule`], [`repair`] and [`repair_with`] build a
//! fresh one per call.
//!
//! # Example
//!
//! ```
//! use overgen_adg::{mesh, MeshSpec, SysAdg, SystemParams};
//! use overgen_compiler::{lower, LowerChoices};
//! use overgen_ir::{expr, DataType, KernelBuilder, Suite};
//! use overgen_scheduler::schedule;
//!
//! let k = KernelBuilder::new("vecadd", Suite::Dsp, DataType::I64)
//!     .array_input("a", 64).array_input("b", 64).array_output("c", 64)
//!     .loop_const("i", 64)
//!     .assign("c", expr::idx("i"),
//!             expr::load("a", expr::idx("i")) + expr::load("b", expr::idx("i")))
//!     .build().unwrap();
//! let mdfg = lower(&k, 0, &LowerChoices { unroll: 1, ..Default::default() }).unwrap();
//! let sys = SysAdg::new(mesh(&MeshSpec::default()), SystemParams::default());
//! let sched = schedule(&mdfg, &sys, None)?;
//! assert!(sched.est.ipc > 0.0);
//! # Ok::<(), overgen_scheduler::ScheduleError>(())
//! ```

mod adj;
mod footprint;
mod place;
mod repair;
mod types;

pub use footprint::ScheduleFootprint;
pub use place::{schedule, HwIndex};
pub use repair::{repair, repair_with, RepairOptions, RepairOutcome, RepairScope};
pub use types::{Schedule, ScheduleError};
