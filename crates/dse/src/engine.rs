//! The simulated-annealing DSE driver (paper Figure 6) as an island
//! model: [`DseConfig::chains`] independent chains (seeds derived with
//! [`Rng::split`]) run concurrently on up to [`DseConfig::threads`]
//! `std::thread::scope` workers and exchange their best state every
//! [`DseConfig::exchange_interval`] iterations. Each proposal is
//! evaluated serially on its chain's worker.
//!
//! Determinism is by construction: each chain's segment emits telemetry
//! through capture/replay (`overgen_telemetry::capture`) and chain traces
//! replay in chain order — so the `DseResult` and the deterministic-clock
//! JSONL trace are byte-identical for any thread count.
//!
//! Proposal *evaluation* — scheduling, the nested system DSE, performance
//! estimation, the persistent store — lives in [`crate::eval::EvalPipeline`], and
//! the mapping from an evaluation report to scalar fitness lives in
//! [`crate::Objective`]. This driver only proposes mutations, runs the
//! accept/reject rule on the fitness the pipeline returns, exchanges best
//! states among chains, and tracks the Pareto frontier of visited designs.
//! A proposal mutates its chain's current ADG in place under the graph's
//! undo journal: an accepted one commits, any other rolls back exactly,
//! so only a new best and an exchange copy a whole graph.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use overgen_telemetry::profile::{maybe_phase, NO_CLASS};
use overgen_telemetry::{
    capture, count_isolated, event, replay, span, Counter, FieldValue, Phase, Registry, Rng,
    SpanGuard,
};

use overgen_adg::{mesh, Adg, MeshSpec, PortableAdg, SpadNode, StableHasher, SysAdg, SystemParams};
use overgen_compiler::{compile_variants, CompileError, CompileOptions};
use overgen_ir::{Expr, FuCap, Kernel, Op};
use overgen_mdfg::Mdfg;
use overgen_model::{AnalyticModel, ResourceModel, TimeModel};
use overgen_scheduler::{Schedule, ScheduleFootprint};

use crate::checkpoint::{Checkpoint, CheckpointConfig, MIN_WRITE_GAP};
use crate::eval::{EvalPipeline, EvalState, ParetoFront};
use crate::heartbeat::{Heartbeat, HeartbeatConfig};
use crate::objective::Objective;
use crate::pool::fan_out;
use crate::rewrite::{RuleSet, TransformCtx};
use crate::system::SystemDseConfig;

/// DSE configuration.
#[derive(Debug, Clone)]
pub struct DseConfig {
    /// Simulated-annealing iterations (total, per chain).
    pub iterations: usize,
    /// RNG seed. Chain RNGs are derived from it with [`Rng::split`], so
    /// every chain explores a distinct but reproducible trajectory.
    pub seed: u64,
    /// Enable schedule-preserving transformations (§V-B). Disabling this
    /// reproduces the "non-preserved" curves of Figure 20.
    pub schedule_preserving: bool,
    /// Fitness policy: how an evaluation report becomes the scalar the
    /// annealer optimizes. The default ([`Objective::WeightedGeomeanIpc`])
    /// reproduces the classic weighted-geomean-IPC behavior bit-for-bit;
    /// [`Objective::ConstrainedIpc`] adds a hard device budget. The
    /// objective is folded into the config hash, so it also keys the
    /// persistent store and checkpoint compatibility.
    pub objective: Objective,
    /// Nested system-DSE configuration.
    pub system: SystemDseConfig,
    /// Compiler options for the up-front variant generation.
    pub compile: CompileOptions,
    /// Per-workload weights (defaults to 1.0 each).
    pub weights: BTreeMap<String, f64>,
    /// Mutations applied per proposal.
    pub mutations_per_step: usize,
    /// How many chains run at once, each on its own worker thread; a
    /// single chain always runs serially. `0` = one worker per available
    /// core. The result and trace are independent of this value.
    pub threads: usize,
    /// Independent annealing chains run as an island model with periodic
    /// best-state exchange. The result depends on `chains` (more chains =
    /// more exploration) but not on how many threads execute them.
    pub chains: usize,
    /// Iterations between best-state exchanges among chains.
    pub exchange_interval: usize,
    /// Consult the configured [`DseConfig::store`]: serve evaluations
    /// from it and publish new ones to it. Without a store this changes
    /// nothing (no in-memory memo is kept; a run rarely meets one design
    /// point twice).
    pub cache: bool,
    /// Compound proposals: maximum rewrite rules chained into one
    /// proposal step. `1` (the default) applies exactly one rule per step
    /// and is bit-identical to the historical single-mutation dispatch;
    /// `K > 1` draws 1..=K rules per step — the first from the full
    /// registry, follow-ups from the benign (non-removing) subset — with
    /// their deltas and inferred footprints merged into the proposal and
    /// the rule chain folded into store keys. Folded into the
    /// config hash (only when enabled, so default hashes are unchanged)
    /// and persisted in checkpoints.
    pub compound: usize,
    /// Take the incremental repair fast path when a mutation's dirty set is
    /// empty (the default). When `false` (env `OVERGEN_REPAIR=0` in the
    /// bench harness), eligible repairs run a silent full placement and
    /// assert it equals the fast reconstruction — results, counters, and
    /// traces must be byte-identical in both modes.
    pub repair: bool,
    /// Periodic crash-safe checkpointing: every `interval` proposals (at
    /// most once a second) the full annealer state is atomically written
    /// to `path`, and
    /// [`Checkpoint::load`] + [`Checkpoint::resume`] continue the run with
    /// byte-identical results (see `checkpoint.rs` and `DESIGN.md` §9).
    /// `None` disables checkpointing.
    pub checkpoint: Option<CheckpointConfig>,
    /// Graceful-stop proposal budget: stop at the first segment boundary
    /// once this many proposals have run per chain, finalize a checkpoint
    /// (when configured) instead of tearing down mid-proposal, and return
    /// with [`DseResult::completed`] `false`. `None` = run to
    /// `iterations`. Not persisted in checkpoints.
    pub max_proposals: Option<usize>,
    /// Graceful-stop wall-clock budget in seconds, checked at segment
    /// boundaries. Inherently non-deterministic in *where* it stops, but
    /// the finalized checkpoint still resumes deterministically. Not
    /// persisted in checkpoints.
    pub max_wall_seconds: Option<f64>,
    /// Periodic live progress gauges (`dse.heartbeat.*`), refreshed at
    /// segment boundaries. Registry-only and trace-invisible, so traces
    /// stay byte-identical with the heartbeat on or off. Like the stop
    /// budgets, not persisted in checkpoints. `None` disables it.
    pub heartbeat: Option<HeartbeatConfig>,
    /// Persistent shared evaluation store ([`crate::EvalStore`]), consulted
    /// and fed by every evaluation when `cache` is on. A store-served
    /// artifact is byte-identical to recomputation, so results, counters,
    /// and traces are independent of store contents (DESIGN.md §13). Not
    /// part of the config hash; not persisted in checkpoints. `None`
    /// evaluates every proposal in place.
    pub store: Option<std::sync::Arc<crate::EvalStore>>,
    /// Cooperative cancellation flag for service-managed runs. When raised
    /// the run stops at the next segment boundary with `stop_reason`
    /// `"cancelled"`, finalizing a checkpoint when configured. Like the
    /// stop budgets, not hashed and not persisted.
    pub stop: Option<StopFlag>,
}

/// A sharable cooperative-cancellation flag for [`DseConfig::stop`]: cheap
/// to clone, raised once, never lowered.
#[derive(Debug, Clone, Default)]
pub struct StopFlag(std::sync::Arc<std::sync::atomic::AtomicBool>);

impl StopFlag {
    /// A fresh, unraised flag.
    pub fn new() -> StopFlag {
        StopFlag::default()
    }

    /// Request a graceful stop at the next segment boundary.
    pub fn raise(&self) {
        self.0.store(true, std::sync::atomic::Ordering::Release);
    }

    /// Has a stop been requested?
    pub fn raised(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::Acquire)
    }
}

impl Default for DseConfig {
    fn default() -> Self {
        DseConfig {
            iterations: 150,
            seed: 17,
            schedule_preserving: true,
            objective: Objective::default(),
            system: SystemDseConfig::default(),
            compile: CompileOptions::default(),
            weights: BTreeMap::new(),
            mutations_per_step: 2,
            threads: 1,
            chains: 1,
            exchange_interval: 25,
            cache: true,
            compound: 1,
            repair: true,
            checkpoint: None,
            max_proposals: None,
            max_wall_seconds: None,
            heartbeat: None,
            store: None,
            stop: None,
        }
    }
}

/// Why a DSE run could not start or continue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DseError {
    /// The seed accelerator could not schedule every workload in the
    /// domain, even after repeatedly widening its ports.
    UnschedulableSeed {
        /// Port-widening rounds attempted before giving up.
        widenings: usize,
    },
    /// A checkpoint could not be written, read, or resumed. Checkpoint
    /// write failures are hard errors: silently continuing would leave the
    /// user believing the run is crash-safe when it is not.
    Checkpoint(String),
    /// A domain kernel does not compile, so it has no variant to schedule.
    Compile {
        /// Name of the kernel.
        kernel: String,
        /// Why it does not compile.
        error: CompileError,
    },
}

impl fmt::Display for DseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DseError::UnschedulableSeed { widenings } => write!(
                f,
                "seed accelerator cannot schedule the domain \
                 (after {widenings} port-widening rounds)"
            ),
            DseError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            DseError::Compile { kernel, error } => {
                write!(f, "kernel `{kernel}` does not compile: {error}")
            }
        }
    }
}

impl std::error::Error for DseError {}

/// Counters of what the DSE did.
///
/// This is a *snapshot view*: the live values are telemetry
/// [`Counter`]s (named `dse.iterations`, `dse.accepted`, …) registered on
/// the installed collector, and a `DseStats` is the per-run delta read off
/// them when [`Dse::run`] returns. With no collector installed the counters
/// live on a private run registry and the semantics are unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DseStats {
    /// Proposals evaluated.
    pub iterations: usize,
    /// Proposals accepted.
    pub accepted: usize,
    /// Proposals rejected because some workload had no schedulable variant.
    pub invalid: usize,
    /// Full (from-scratch) scheduling invocations.
    pub full_schedules: usize,
    /// Repair invocations that moved nodes.
    pub repairs: usize,
    /// Repairs that found the schedule intact.
    pub intact: usize,
    /// Always 0 (a checkpoint from before the evaluation memo was retired
    /// may carry a count). Kept because benchmark harnesses that spell
    /// out these stats read it.
    pub cache_hits: usize,
    /// Always 0, like [`DseStats::cache_hits`].
    pub cache_misses: usize,
    /// Repairs resolved on the incremental fast path (empty dirty set — no
    /// placement search ran).
    pub repair_fast: usize,
    /// Repairs that fell back to a seeded full placement.
    pub repair_fallback: usize,
    /// Proposals rejected by the objective's hard resource budget before
    /// any scheduling work (only [`Objective::ConstrainedIpc`] rejects;
    /// always 0 under the default objective).
    pub infeasible: usize,
}

impl DseStats {
    /// Field-wise sum: stats a checkpoint accumulated before the cut plus
    /// the delta the resumed run adds on top.
    pub fn merged(&self, other: &DseStats) -> DseStats {
        DseStats {
            iterations: self.iterations + other.iterations,
            accepted: self.accepted + other.accepted,
            invalid: self.invalid + other.invalid,
            full_schedules: self.full_schedules + other.full_schedules,
            repairs: self.repairs + other.repairs,
            intact: self.intact + other.intact,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            repair_fast: self.repair_fast + other.repair_fast,
            repair_fallback: self.repair_fallback + other.repair_fallback,
            infeasible: self.infeasible + other.infeasible,
        }
    }
}

/// Live counters the driver updates directly. Everything evaluation-side
/// (`dse.full_schedules`, `dse.repairs`, `dse.intact`,
/// `dse.cache.system_miss`, `dse.eval.infeasible`, `sched.*`) is owned by
/// the evaluation pipeline: counted into the run registry in place, or,
/// with a store, merged into it from the stored artifact through
/// [`Registry::merge_from`] — identically whether the store served it.
struct DseCounters {
    iterations: Counter,
    accepted: Counter,
    invalid: Counter,
}

impl DseCounters {
    fn attach(r: &Registry) -> Self {
        DseCounters {
            iterations: r.counter("dse.iterations"),
            accepted: r.counter("dse.accepted"),
            invalid: r.counter("dse.invalid"),
        }
    }
}

/// Absolute counter values on `reg` (used as a baseline at run start).
fn stat_totals(reg: &Registry) -> DseStats {
    DseStats {
        iterations: reg.counter_value("dse.iterations") as usize,
        accepted: reg.counter_value("dse.accepted") as usize,
        invalid: reg.counter_value("dse.invalid") as usize,
        full_schedules: reg.counter_value("dse.full_schedules") as usize,
        repairs: reg.counter_value("dse.repairs") as usize,
        intact: reg.counter_value("dse.intact") as usize,
        repair_fast: reg.counter_value("scheduler.repair.fast") as usize,
        repair_fallback: reg.counter_value("scheduler.repair.fallback") as usize,
        infeasible: reg.counter_value("dse.eval.infeasible") as usize,
        ..DseStats::default()
    }
}

pub(crate) fn stat_delta(reg: &Registry, base: &DseStats) -> DseStats {
    let now = stat_totals(reg);
    DseStats {
        iterations: now.iterations - base.iterations,
        accepted: now.accepted - base.accepted,
        invalid: now.invalid - base.invalid,
        full_schedules: now.full_schedules - base.full_schedules,
        repairs: now.repairs - base.repairs,
        intact: now.intact - base.intact,
        repair_fast: now.repair_fast - base.repair_fast,
        repair_fallback: now.repair_fallback - base.repair_fallback,
        infeasible: now.infeasible - base.infeasible,
        ..DseStats::default()
    }
}

/// Result of a DSE run.
#[derive(Debug, Clone)]
pub struct DseResult {
    /// The chosen system-level ADG.
    pub sys_adg: SysAdg,
    /// Best schedule per workload (on the chosen hardware).
    pub schedules: BTreeMap<String, Schedule>,
    /// Chosen variant index per workload.
    pub variants: BTreeMap<String, u32>,
    /// Pre-generated mDFG variants per workload (kept so callers can
    /// simulate or re-schedule).
    pub mdfgs: BTreeMap<String, Vec<Mdfg>>,
    /// Final objective: weighted geomean estimated IPC.
    pub objective: f64,
    /// Convergence history of the winning chain: (simulated hours, best
    /// objective so far).
    pub history: Vec<(f64, f64)>,
    /// Total simulated DSE hours (Figure 15 accounting): chains run
    /// concurrently, so this is the *maximum* over chains, not the sum.
    pub dse_hours: f64,
    /// Activity counters (summed over all chains; for a resumed run,
    /// summed over every leg of the run).
    pub stats: DseStats,
    /// Non-dominated (IPC, accelerator-resources) frontier over every
    /// valid design point any chain evaluated, merged in chain-index
    /// order. Deterministic and independent of thread count.
    pub pareto: ParetoFront,
    /// `true` when the run reached `iterations`; `false` when a graceful
    /// stop ([`DseConfig::max_proposals`] / `max_wall_seconds`) ended it
    /// early with a finalized checkpoint to resume from.
    pub completed: bool,
}

/// One annealing chain's mutable state. `Clone` + `pub(crate)` so
/// checkpoints can snapshot and rebuild it (`checkpoint.rs`). `cur` and
/// `best` share the evaluation that produced them, so an accept, a new
/// best or an exchange copies no schedule.
#[derive(Clone)]
pub(crate) struct ChainState {
    pub(crate) rng: Rng,
    pub(crate) cur_adg: Adg,
    pub(crate) cur: Arc<EvalState>,
    pub(crate) best_adg: Adg,
    pub(crate) best: Arc<EvalState>,
    pub(crate) sim_seconds: f64,
    pub(crate) history: Vec<(f64, f64)>,
    pub(crate) t0: f64,
    pub(crate) pareto: ParetoFront,
}

/// The DSE driver.
pub struct Dse {
    pub(crate) workloads: Vec<Kernel>,
    pub(crate) cfg: DseConfig,
    time: TimeModel,
}

impl Dse {
    /// Create a DSE over a set of workloads (the domain). Workloads are
    /// kept sorted by name: every evaluation schedules them, and records
    /// their trace events, in name order.
    pub fn new(mut workloads: Vec<Kernel>, cfg: DseConfig) -> Self {
        workloads.sort_by(|a, b| a.name().cmp(b.name()));
        Dse {
            workloads,
            cfg,
            time: TimeModel::default(),
        }
    }

    /// The capability pool of a domain: every `(op, dtype)` its kernels
    /// execute (plus the adds implied by accumulation and the selects
    /// implied by guards).
    pub fn cap_pool(workloads: &[Kernel]) -> Vec<FuCap> {
        let mut pool = BTreeSet::new();
        for k in workloads {
            let dt = k.dtype();
            pool.insert(FuCap::new(Op::Add, dt));
            for stmt in k.body() {
                if stmt.guarded {
                    pool.insert(FuCap::new(Op::Select, dt));
                }
                stmt.value.visit(&mut |e| match e {
                    Expr::Binary { op, .. } | Expr::Unary { op, .. } => {
                        pool.insert(FuCap::new(*op, dt));
                    }
                    _ => {}
                });
            }
        }
        pool.into_iter().collect()
    }

    /// Seed accelerator for the annealer: a mesh whose PEs carry the
    /// domain's capability pool, sized so every kernel's narrowest
    /// (unroll-1) variant is guaranteed to fit with headroom.
    ///
    /// # Errors
    ///
    /// [`DseError::Compile`] when a workload does not lower.
    pub fn seed_adg(workloads: &[Kernel]) -> Result<Adg, DseError> {
        let narrowest = workloads
            .iter()
            .map(|k| {
                overgen_compiler::lower(
                    k,
                    0,
                    &overgen_compiler::LowerChoices {
                        unroll: 1,
                        ..Default::default()
                    },
                )
                .map_err(|error| DseError::Compile {
                    kernel: k.name().to_string(),
                    error,
                })
            })
            .collect::<Result<Vec<Mdfg>, DseError>>()?;
        Ok(Self::seed_mesh(workloads, &narrowest))
    }

    /// The seed mesh for `workloads`, sized by the largest of their
    /// unroll-1 DFGs `narrowest`.
    fn seed_mesh<'m>(workloads: &[Kernel], narrowest: impl IntoIterator<Item = &'m Mdfg>) -> Adg {
        let caps: BTreeSet<FuCap> = Self::cap_pool(workloads).into_iter().collect();
        let mut max_insts = 8usize;
        let mut max_in = 6usize;
        let mut max_out = 4usize;
        for m in narrowest {
            max_insts = max_insts.max(m.inst_count());
            max_in = max_in.max(m.input_stream_count());
            max_out = max_out.max(m.output_stream_count());
        }
        let cols = 5usize;
        let rows = (max_insts + 4).div_ceil(cols).max(3);
        mesh(&MeshSpec {
            rows,
            cols,
            caps,
            in_ports: max_in + 1,
            out_ports: max_out + 1,
            port_width_bytes: 16,
            dma_bw: 32,
            spads: vec![SpadNode {
                capacity_kb: 16,
                bw_bytes: 32,
                indirect: true,
            }],
            with_gen: true,
            with_rec: true,
            with_reg: true,
        })
    }

    /// Everything outside the ADG that evaluation outcomes depend on —
    /// including the objective. Folded into every store key so two
    /// configurations never share a stored evaluation, and into
    /// checkpoints so a run can only resume under the configuration that
    /// produced it.
    pub(crate) fn config_hash(cfg: &DseConfig) -> u64 {
        let mut h = StableHasher::new();
        h.write_str(cfg.system.device.name);
        h.write_f64(cfg.system.device.total.lut);
        h.write_f64(cfg.system.device.total.ff);
        h.write_f64(cfg.system.device.total.bram);
        h.write_f64(cfg.system.device.total.dsp);
        h.write_f64(cfg.system.util_cap);
        h.write_u64(u64::from(cfg.system.max_tiles));
        h.write_u64(u64::from(cfg.system.dram_channels));
        for grid in [
            &cfg.system.l2_banks_grid,
            &cfg.system.l2_kb_grid,
            &cfg.system.noc_bw_grid,
        ] {
            h.write_u64(grid.len() as u64);
            for v in grid {
                h.write_u64(u64::from(*v));
            }
        }
        h.write_u64(cfg.weights.len() as u64);
        for (name, w) in &cfg.weights {
            h.write_str(name);
            h.write_f64(*w);
        }
        cfg.objective.hash_into(&mut h);
        // Folded in only when non-default so every pre-existing store key,
        // checkpoint hash, and golden trace stays byte-identical for the
        // historical Estimate backend.
        match cfg.system.backend {
            crate::system::SystemDseBackend::Estimate => {}
            crate::system::SystemDseBackend::Simulate { prune } => {
                h.write_str("backend:simulate");
                h.write_u64(u64::from(prune));
            }
        }
        // Same conditional-fold contract for compound proposals: the
        // default (off, = 1) keeps historical hashes.
        if cfg.compound > 1 {
            h.write_str("compound");
            h.write_u64(cfg.compound as u64);
        }
        h.finish()
    }

    /// Every workload's variants (§V-A), keyed by kernel name.
    fn compile_domain(&self) -> Result<BTreeMap<String, Vec<Mdfg>>, DseError> {
        self.workloads
            .iter()
            .map(|k| match compile_variants(k, &self.cfg.compile) {
                Ok(vs) => Ok((k.name().to_string(), vs)),
                Err(error) => Err(DseError::Compile {
                    kernel: k.name().to_string(),
                    error,
                }),
            })
            .collect()
    }

    /// Run the exploration. Fails with [`DseError::Compile`] when a
    /// workload does not compile, and with [`DseError::UnschedulableSeed`]
    /// when the domain cannot even be scheduled on a widened seed mesh.
    pub fn run(&self) -> Result<DseResult, DseError> {
        let chains = self.cfg.chains.max(1);
        let run_span = span!(
            "dse.run",
            seed = self.cfg.seed,
            iterations = self.cfg.iterations,
            workloads = self.workloads.len(),
            preserving = self.cfg.schedule_preserving,
            chains = chains,
        );
        let model: &dyn ResourceModel = &AnalyticModel;

        // Up-front variant generation (once; §V-A).
        let mdfgs = {
            let _span = span!("dse.compile_variants");
            let _timer = maybe_phase(Phase::Compile, NO_CLASS);
            self.compile_domain()?
        };

        // The run registry: the ambient collector's when telemetry is on,
        // a private one otherwise. Stats are deltas against it either way.
        let ambient_registry = overgen_telemetry::current().map(|c| c.registry().clone());
        let run_registry = ambient_registry.unwrap_or_default();
        let counters = DseCounters::attach(&run_registry);
        let pipe = EvalPipeline::new(
            &self.workloads,
            &self.cfg,
            &self.time,
            &mdfgs,
            model,
            &run_registry,
        );
        let base = stat_totals(&run_registry);

        // Seed: size the mesh from the unroll-1 variants just compiled,
        // then evaluate, widening ports until the domain schedules.
        let narrowest = mdfgs
            .values()
            .filter_map(|vs| vs.iter().find(|m| m.unroll() == 1));
        let seed_adg = Self::seed_mesh(&self.workloads, narrowest);
        let mut seed = SysAdg::new(seed_adg, SystemParams::default());
        let mut seed_sim = 0.0f64;
        let mut widenings = 0usize;
        let seed_state = loop {
            let (state, sim) = pipe.evaluate(&seed, BTreeMap::new(), ScheduleFootprint::Pure, None);
            seed_sim += sim;
            if let Some(s) = state {
                break s;
            }
            if widenings >= 8 {
                return Err(DseError::UnschedulableSeed { widenings });
            }
            // Widen every input port as a fallback seed fix.
            for id in seed.adg.nodes_of_kind(overgen_adg::NodeKind::InPort) {
                if let Some(overgen_adg::AdgNode::InPort(p)) = seed.adg.node_mut(id) {
                    p.width_bytes = (p.width_bytes * 2).min(64);
                }
            }
            widenings += 1;
        };
        let cur_adg = seed.adg;

        // Chains all start from the same seed state with split-derived
        // RNGs, and from a frontier holding just the seed point.
        let t0 = (seed_state.objective * 0.25).max(1e-3);
        let seed_pareto = ParetoFront::from_points([seed_state.pareto_point()]);
        let mut master = Rng::seed_from_u64(self.cfg.seed);
        let states: Vec<ChainState> = (0..chains)
            .map(|_| ChainState {
                rng: master.split(),
                cur_adg: cur_adg.clone(),
                cur: Arc::clone(&seed_state),
                best_adg: cur_adg.clone(),
                best: Arc::clone(&seed_state),
                sim_seconds: seed_sim,
                history: vec![(seed_sim / 3600.0, seed_state.objective)],
                t0,
                pareto: seed_pareto.clone(),
            })
            .collect();

        let out = self.run_loop(
            &pipe,
            &counters,
            states,
            0,
            DseStats::default(),
            base,
            &run_span,
        )?;
        Ok(out.into_result(mdfgs))
    }

    /// Continue a checkpointed run: rebuild the evaluation pipeline,
    /// restore the telemetry cursor and re-enter the `dse.run` span, then
    /// run the shared annealing loop from `ck.done`. The seed evaluation
    /// is skipped entirely — the chains carry their state.
    pub(crate) fn resume_from(&self, ck: &Checkpoint) -> Result<DseResult, DseError> {
        // Variants are recompiled rather than persisted (large, and a
        // deterministic function of the kernels). The interrupted run
        // emitted its `dse.compile_variants` span and counted its variants
        // *before* the cursor, so recompilation runs under a counting
        // collector whose registry is dropped, and the resumed trace
        // continues exactly at the cursor.
        let (mdfgs, _registry) = count_isolated(|| self.compile_domain());
        let mdfgs = mdfgs?;

        let collector = overgen_telemetry::current();
        if let (Some(c), Some(cur)) = (collector.as_ref(), ck.cursor.as_ref()) {
            c.restore_cursor(cur.seq, cur.tick);
        }
        let run_span = SpanGuard::reenter(
            "dse.run",
            ck.cursor.as_ref().map_or(0, |c| c.span),
            vec![
                ("seed", FieldValue::from(self.cfg.seed)),
                ("iterations", FieldValue::from(self.cfg.iterations)),
                ("workloads", FieldValue::from(self.workloads.len())),
                ("preserving", FieldValue::from(self.cfg.schedule_preserving)),
                ("chains", FieldValue::from(ck.chains.len())),
            ],
        );

        let ambient_registry = collector.as_ref().map(|c| c.registry().clone());
        let run_registry = ambient_registry.unwrap_or_default();
        let counters = DseCounters::attach(&run_registry);
        let pipe = EvalPipeline::new(
            &self.workloads,
            &self.cfg,
            &self.time,
            &mdfgs,
            &AnalyticModel,
            &run_registry,
        );
        run_registry.counter("dse.checkpoint.restore").inc();
        let base = stat_totals(&run_registry);

        let out = self.run_loop(
            &pipe,
            &counters,
            ck.chains.clone(),
            ck.done,
            ck.stats,
            base,
            &run_span,
        )?;
        Ok(out.into_result(mdfgs))
    }

    /// Island-model annealing loop shared by [`Dse::run`] and checkpoint
    /// resume: run every chain segment by segment (up to `cfg.threads` at
    /// once), replay telemetry in chain order, exchange best
    /// states at `exchange_interval` multiples, and write checkpoints at
    /// `checkpoint.interval` multiples at least `MIN_WRITE_GAP` apart.
    ///
    /// Segment boundaries land on the *absolute-multiple* grid of both
    /// intervals (not "every N from wherever we started"), so a resumed
    /// run reproduces the uninterrupted run's segmentation no matter where
    /// the cut fell. `prior` carries the stats a checkpoint accumulated
    /// before the cut; `base` is the counter baseline of this leg.
    #[allow(clippy::too_many_arguments)]
    fn run_loop(
        &self,
        pipe: &EvalPipeline,
        counters: &DseCounters,
        mut states: Vec<ChainState>,
        mut done: usize,
        prior: DseStats,
        base: DseStats,
        run_span: &SpanGuard,
    ) -> Result<LoopOutcome, DseError> {
        let iterations = self.cfg.iterations;
        let chains = states.len();
        let workers = match self.cfg.threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            t => t,
        };
        let exchange = self.cfg.exchange_interval.max(1);
        let interval = self.cfg.checkpoint.as_ref().map(|c| c.interval.max(1));
        let wall = Instant::now();
        let parent = overgen_telemetry::current();
        let mut written_at = None::<usize>;
        // When the last checkpoint write finished (the run start before
        // the first): periodic writes keep `MIN_WRITE_GAP` apart.
        let mut last_write = wall;
        let mut stop_reason = None::<&'static str>;
        // The proposal budget the heartbeat reports progress/ETA against.
        let budget = self
            .cfg
            .max_proposals
            .map_or(iterations, |b| b.min(iterations));
        let mut heartbeat = self
            .cfg
            .heartbeat
            .as_ref()
            .map(|h| Heartbeat::new(h, pipe.registry(), done));
        while done < iterations {
            if self.cfg.max_proposals.is_some_and(|b| done >= b) {
                stop_reason = Some("proposals");
                break;
            }
            if self
                .cfg
                .max_wall_seconds
                .is_some_and(|w| wall.elapsed().as_secs_f64() >= w)
            {
                stop_reason = Some("wall_clock");
                break;
            }
            if self.cfg.stop.as_ref().is_some_and(StopFlag::raised) {
                stop_reason = Some("cancelled");
                break;
            }
            let mut end = done + (exchange - done % exchange);
            if let Some(i) = interval {
                end = end.min(done + (i - done % i));
            }
            if let Some(b) = self.cfg.max_proposals {
                end = end.min(b);
            }
            end = end.min(iterations);
            let seg = end - done;

            let jobs: Vec<(usize, ChainState)> = states.into_iter().enumerate().collect();
            let outputs = fan_out(workers.min(chains), jobs, |(idx, mut st)| {
                let ((), trace) = capture(parent.as_ref(), || {
                    self.run_segment(&mut st, idx, done, seg, pipe, counters);
                });
                (st, trace)
            });
            states = outputs
                .into_iter()
                .map(|(st, trace)| {
                    replay(&trace);
                    st
                })
                .collect();
            done = end;

            if chains > 1 && done < iterations && done.is_multiple_of(exchange) {
                // Deterministic exchange: the best chain (ties to the
                // lowest index) seeds everyone's *current* state; each
                // chain's own best/history stay untouched.
                let winner = best_chain(&states);
                let (gb_adg, gb) = (
                    states[winner].best_adg.clone(),
                    Arc::clone(&states[winner].best),
                );
                event!(
                    "dse.exchange",
                    at = done,
                    winner = winner as u64,
                    objective = gb.objective,
                );
                for (idx, st) in states.iter_mut().enumerate() {
                    if idx != winner && gb.fitness > st.cur.fitness {
                        st.cur_adg = gb_adg.clone();
                        st.cur = Arc::clone(&gb);
                    }
                }
            }

            if interval.is_some_and(|i| done.is_multiple_of(i))
                && last_write.elapsed() >= MIN_WRITE_GAP
            {
                Checkpoint::write(self, pipe, &states, done, &prior, &base, run_span)?;
                last_write = Instant::now();
                written_at = Some(done);
            }

            // Registry-only: refreshes gauges, emits nothing into the
            // trace, never changes segmentation.
            if let Some(hb) = heartbeat.as_mut() {
                let mut front = ParetoFront::new();
                for st in &states {
                    front.merge(&st.pareto);
                }
                hb.tick(done, budget, pipe.registry(), &base, front.len());
            }
        }

        // A graceful stop finalizes a checkpoint even off-interval; a run
        // that completed (or stopped) exactly on an interval boundary
        // already wrote it. The cursor is captured before the terminal
        // event below, so resuming reproduces that event too.
        if self.cfg.checkpoint.is_some() && written_at != Some(done) {
            Checkpoint::write(self, pipe, &states, done, &prior, &base, run_span)?;
        }

        let winner = best_chain(&states);
        let dse_hours = states
            .iter()
            .map(|s| s.sim_seconds / 3600.0)
            .fold(0.0f64, f64::max);
        // Merge the per-chain frontiers in chain-index order: the result
        // is deterministic and independent of how chains were scheduled.
        let mut pareto = ParetoFront::new();
        for st in &states {
            pareto.merge(&st.pareto);
        }
        let champ = states.swap_remove(winner);
        let stats = prior.merged(&stat_delta(pipe.registry(), &base));
        match stop_reason {
            // `cache_hits` is always 0 now but stays, so traces keep the
            // bytes pinned for runs with the cache off.
            None => event!(
                "dse.done",
                objective = champ.best.objective,
                accepted = stats.accepted,
                invalid = stats.invalid,
                cache_hits = stats.cache_hits,
                dse_hours = dse_hours,
            ),
            Some(reason) => event!(
                "dse.stopped",
                at = done,
                reason = reason,
                objective = champ.best.objective,
            ),
        }
        Ok(LoopOutcome {
            champ,
            dse_hours,
            stats,
            pareto,
            completed: stop_reason.is_none(),
        })
    }

    /// Run `len` annealing iterations (numbers `start..start+len`) on one
    /// chain. Runs under a capture collector when telemetry is active, so
    /// chains may execute concurrently.
    fn run_segment(
        &self,
        st: &mut ChainState,
        chain: usize,
        start: usize,
        len: usize,
        pipe: &EvalPipeline,
        counters: &DseCounters,
    ) {
        let caps = Self::cap_pool(&self.workloads);
        for it in start..start + len {
            let _iter_span = span!("dse.iteration", iter = it, chain = chain);
            counters.iterations.inc();
            let temp = st.t0 * (0.985f64).powi(it as i32);

            // Propose in place: the chain's current graph moves into the
            // proposal and the rules mutate it under its undo journal; the
            // evaluation reads the proposal as it stands, with default
            // system parameters. An accepted proposal commits, any other
            // rolls back, and the graph moves back either way.
            let propose_timer = pipe.phase(Phase::Propose, NO_CLASS);
            let mut prop = SysAdg::new(std::mem::take(&mut st.cur_adg), SystemParams::default());
            // Debug builds keep the copy the journal replaced, as the
            // oracle every rollback must reproduce.
            let before = cfg!(debug_assertions).then(|| prop.adg.to_portable());
            prop.adg.begin_journal();
            let mut prop_schedules: Vec<Schedule> = st.cur.schedules.values().cloned().collect();
            let mut kinds = String::new();
            let mut footprint = ScheduleFootprint::Pure;
            {
                // "ADG* is constructed using a combination of random and
                // schedule-preserving transformations" (§V-A): preserving
                // guidance applies to most mutations, but some stay fully
                // random so the annealer can restructure used hardware.
                let rules = RuleSet::legacy();
                for step in 0..self.cfg.mutations_per_step {
                    let preserving = self.cfg.schedule_preserving && st.rng.gen_bool(0.7);
                    let mut ctx = TransformCtx {
                        cap_pool: &caps,
                        schedules: &mut prop_schedules,
                        preserving,
                    };
                    let epoch = (it * self.cfg.mutations_per_step + step) as u64;
                    if !kinds.is_empty() {
                        kinds.push(',');
                    }
                    if self.cfg.compound > 1 {
                        let apps = rules.apply_compound(
                            &mut prop.adg,
                            &mut ctx,
                            &mut st.rng,
                            epoch,
                            self.cfg.compound,
                        );
                        for (i, app) in apps.iter().enumerate() {
                            footprint = footprint.merge(app.inferred);
                            if i > 0 {
                                kinds.push('+');
                            }
                            kinds.push_str(app.mutation.kind());
                        }
                    } else {
                        let app = rules.apply_random(&mut prop.adg, &mut ctx, &mut st.rng, epoch);
                        footprint = footprint.merge(app.inferred);
                        kinds.push_str(app.mutation.kind());
                    }
                    if preserving {
                        kinds.push('*');
                    }
                }
            }
            event!(
                "dse.propose",
                iter = it,
                temp = temp,
                mutations = kinds.as_str(),
                footprint = footprint.name(),
            );
            st.sim_seconds += 0.5; // proposal overhead

            let prior: BTreeMap<String, Schedule> = prop_schedules
                .into_iter()
                .map(|s| (s.mdfg_name.clone(), s))
                .collect();
            drop(propose_timer);
            // The rule chain keys the store only in compound mode, so
            // default-run store keys stay historical.
            let rule_trace = (self.cfg.compound > 1).then_some(kinds.as_str());
            let (state, sim) = pipe.evaluate(&prop, prior, footprint, rule_trace);
            st.sim_seconds += sim;
            let Some(eval) = state else {
                st.cur_adg = roll_back(prop.adg, before);
                counters.invalid.inc();
                event!("dse.invalid", iter = it);
                st.history
                    .push((st.sim_seconds / 3600.0, st.best.objective));
                continue;
            };

            // Every valid evaluation feeds the frontier, accepted or not.
            st.pareto.insert(eval.pareto_point());

            let delta = eval.fitness - st.cur.fitness;
            let accept = eval.fitness >= st.cur.fitness || st.rng.gen_f64() < (delta / temp).exp();
            if accept {
                counters.accepted.inc();
                event!(
                    "dse.accept",
                    iter = it,
                    delta = delta,
                    temp = temp,
                    objective = eval.objective,
                );
                prop.adg.commit();
                st.cur_adg = prop.adg;
                st.cur = eval;
                if st.cur.fitness > st.best.fitness {
                    st.best = Arc::clone(&st.cur);
                    st.best_adg = st.cur_adg.clone();
                }
            } else {
                st.cur_adg = roll_back(prop.adg, before);
                event!("dse.reject", iter = it, delta = delta, temp = temp);
            }
            st.history
                .push((st.sim_seconds / 3600.0, st.best.objective));
        }
    }
}

/// What the shared annealing loop hands back to `run`/`resume_from`.
struct LoopOutcome {
    champ: ChainState,
    dse_hours: f64,
    stats: DseStats,
    pareto: ParetoFront,
    completed: bool,
}

impl LoopOutcome {
    /// The run's result: the champion chain's best design, plus the
    /// variants the run compiled.
    fn into_result(self, mdfgs: BTreeMap<String, Vec<Mdfg>>) -> DseResult {
        let best = Arc::unwrap_or_clone(self.champ.best);
        DseResult {
            sys_adg: SysAdg::new(self.champ.best_adg, best.sys),
            schedules: best.schedules,
            variants: best.variants,
            mdfgs,
            objective: best.objective,
            history: self.champ.history,
            dse_hours: self.dse_hours,
            stats: self.stats,
            pareto: self.pareto,
            completed: self.completed,
        }
    }
}

/// Undo a proposal the chain does not keep: roll `adg` back to the graph
/// its journal opened on, which must equal `before`, the debug builds'
/// copy of that graph.
fn roll_back(mut adg: Adg, before: Option<PortableAdg>) -> Adg {
    adg.rollback();
    if let Some(before) = before {
        assert!(
            adg.to_portable() == before,
            "rollback did not restore the graph the proposal started from"
        );
    }
    adg
}

/// Index of the chain with the best `best.fitness`; ties break to the
/// lowest index so selection never depends on scheduling.
fn best_chain(states: &[ChainState]) -> usize {
    let mut winner = 0usize;
    for (idx, st) in states.iter().enumerate().skip(1) {
        if st.best.fitness > states[winner].best.fitness {
            winner = idx;
        }
    }
    winner
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemDseBackend;
    use overgen_ir::{expr, DataType, KernelBuilder, Suite};

    fn vecadd() -> Kernel {
        KernelBuilder::new("vecadd", Suite::Dsp, DataType::I64)
            .array_input("a", 4096)
            .array_input("b", 4096)
            .array_output("c", 4096)
            .loop_const("i", 4096)
            .assign(
                "c",
                expr::idx("i"),
                expr::load("a", expr::idx("i")) + expr::load("b", expr::idx("i")),
            )
            .build()
            .unwrap()
    }

    fn fir() -> Kernel {
        KernelBuilder::new("fir", Suite::Dsp, DataType::I64)
            .array_input("a", 255)
            .array_input("b", 128)
            .array_output("c", 128)
            .loop_const("io", 4)
            .loop_const("j", 128)
            .loop_const("ii", 32)
            .accum(
                "c",
                expr::idx_scaled("io", 32) + expr::idx("ii"),
                expr::load(
                    "a",
                    expr::idx_scaled("io", 32) + expr::idx("ii") + expr::idx("j"),
                ) * expr::load("b", expr::idx("j")),
            )
            .build()
            .unwrap()
    }

    fn quick_cfg(iters: usize, preserving: bool) -> DseConfig {
        DseConfig {
            iterations: iters,
            schedule_preserving: preserving,
            compile: CompileOptions {
                max_unroll: 4,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn cap_pool_covers_domain() {
        let pool = Dse::cap_pool(&[vecadd(), fir()]);
        assert!(pool.contains(&FuCap::new(Op::Add, DataType::I64)));
        assert!(pool.contains(&FuCap::new(Op::Mul, DataType::I64)));
    }

    #[test]
    fn uncompilable_kernel_is_reported_not_widened_around() {
        let unconfigured = KernelBuilder::new("vecadd", Suite::Dsp, DataType::I64)
            .array_input("a", 4096)
            .array_input("b", 4096)
            .array_output("c", 4096)
            .loop_const("i", 4096)
            .assign(
                "c",
                expr::idx("i"),
                expr::load("a", expr::idx("i")) + expr::load("b", expr::idx("i")),
            )
            .pragmas(overgen_ir::Pragmas {
                config: false,
                ..Default::default()
            })
            .build()
            .unwrap();
        let err = Dse::new(vec![fir(), unconfigured], quick_cfg(4, true))
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            DseError::Compile {
                kernel: "vecadd".into(),
                error: CompileError::NotConfigured,
            }
        );
    }

    #[test]
    fn seed_adg_reports_a_kernel_that_does_not_lower() {
        let unconfigured = KernelBuilder::new("gemv", Suite::Dsp, DataType::I64)
            .array_input("a", 64)
            .array_output("c", 64)
            .loop_const("i", 64)
            .assign("c", expr::idx("i"), expr::load("a", expr::idx("i")))
            .pragmas(overgen_ir::Pragmas {
                config: false,
                ..Default::default()
            })
            .build()
            .unwrap();
        assert!(Dse::seed_adg(&[vecadd(), fir()]).is_ok());
        assert_eq!(
            Dse::seed_adg(&[vecadd(), unconfigured, fir()]).unwrap_err(),
            DseError::Compile {
                kernel: "gemv".into(),
                error: CompileError::NotConfigured,
            }
        );
    }

    #[test]
    fn seed_schedules_and_dse_improves() {
        let dse = Dse::new(vec![vecadd(), fir()], quick_cfg(30, true));
        let r = dse.run().unwrap();
        assert!(r.objective > 0.0);
        assert_eq!(r.schedules.len(), 2);
        assert!(r.history.len() > 10);
        // history is monotone non-decreasing (best-so-far)
        for w in r.history.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12);
        }
        // final hardware validates and fits
        r.sys_adg.validate().unwrap();
        assert!(r.dse_hours > 0.0);
        // the frontier is populated and the winner is on or below it
        assert!(!r.pareto.is_empty());
        assert!(r
            .pareto
            .points()
            .iter()
            .any(|p| p.ipc >= r.objective - 1e-12));
    }

    #[test]
    fn preserving_reduces_full_schedules() {
        let with = Dse::new(vec![fir()], quick_cfg(40, true)).run().unwrap();
        let without = Dse::new(
            vec![fir()],
            DseConfig {
                seed: 17,
                ..quick_cfg(40, false)
            },
        )
        .run()
        .unwrap();
        // preserving mode should do more repairs/intact checks and fewer
        // full schedules per iteration
        let with_rate = with.stats.full_schedules as f64 / with.stats.iterations.max(1) as f64;
        let without_rate =
            without.stats.full_schedules as f64 / without.stats.iterations.max(1) as f64;
        assert!(
            with_rate <= without_rate + 0.5,
            "with {} vs without {}",
            with_rate,
            without_rate
        );
        assert!(with.stats.intact + with.stats.repairs > 0);
    }

    #[test]
    fn weights_steer_objective() {
        let mut cfg = quick_cfg(10, true);
        cfg.weights.insert("fir".into(), 5.0);
        let r = Dse::new(vec![vecadd(), fir()], cfg).run().unwrap();
        assert!(r.objective > 0.0);
    }

    /// Evaluating through a store (cache on: each evaluation captured,
    /// published and replayed, or served) and in place (cache off) reach
    /// the same result, the same trace and the same run-registry metrics,
    /// under both system-DSE backends, with and without a collector. On a
    /// four-point grid the default seed meets one system-DSE input twice
    /// in two evaluations, so a memo of the system sweep alone would lose
    /// that sweep's simulator counts.
    #[test]
    fn cache_off_matches_cache_on() {
        let store_dir = std::env::temp_dir().join(format!(
            "overgen-engine-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let run = |cache: bool, backend: SystemDseBackend, traced: bool| {
            let (collector, ring) = overgen_telemetry::Collector::ring(1 << 16);
            let _install = traced.then(|| overgen_telemetry::install(collector.clone()));
            let _ = std::fs::remove_dir_all(&store_dir);
            let cfg = DseConfig {
                cache,
                store: Some(crate::EvalStore::open(&store_dir).unwrap()),
                system: SystemDseConfig {
                    max_tiles: 2,
                    l2_banks_grid: vec![2, 4],
                    l2_kb_grid: vec![256],
                    noc_bw_grid: vec![32],
                    backend,
                    ..Default::default()
                },
                ..quick_cfg(20, true)
            };
            let r = Dse::new(vec![fir()], cfg).run().unwrap();
            (r, collector.registry().export(), ring.to_jsonl())
        };
        for backend in [
            SystemDseBackend::Estimate,
            SystemDseBackend::Simulate { prune: true },
        ] {
            for traced in [true, false] {
                let (on, on_metrics, on_trace) = run(true, backend, traced);
                assert!(
                    std::fs::read_dir(&store_dir).unwrap().next().is_some(),
                    "the cache-on run published nothing"
                );
                let (off, off_metrics, off_trace) = run(false, backend, traced);
                assert!(
                    std::fs::read_dir(&store_dir).unwrap().next().is_none(),
                    "the cache-off run consulted the store"
                );
                assert_eq!(on.objective.to_bits(), off.objective.to_bits());
                assert_eq!(on.variants, off.variants);
                assert_eq!(on.history, off.history);
                assert_eq!(on.pareto, off.pareto);
                assert_eq!(on.stats, off.stats);
                assert_eq!(on_metrics, off_metrics, "{backend:?}");
                assert_eq!(on_trace, off_trace, "{backend:?}");
            }
        }
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    /// `config_hash` keys every store entry and checkpoint, so these
    /// values must not move unless a change means to invalidate both.
    #[test]
    fn config_hash_is_pinned() {
        use crate::{DeviceBudget, Objective, PlacementObjective};
        let cases = [
            ("default", DseConfig::default(), 0xcca8e82773476e96),
            (
                "constrained_ipc(vcu118_medium)",
                DseConfig {
                    objective: Objective::ConstrainedIpc(DeviceBudget::vcu118_medium()),
                    ..Default::default()
                },
                0x779a47363aa84590,
            ),
            (
                "ipc_per_lut",
                DseConfig {
                    objective: Objective::IpcPerLut,
                    ..Default::default()
                },
                0x6ce87c546a6e722e,
            ),
            (
                "placement_aware",
                DseConfig {
                    objective: Objective::PlacementAware(PlacementObjective::default()),
                    ..Default::default()
                },
                0x71ba9cdd6e752cae,
            ),
            (
                "simulate",
                DseConfig {
                    system: crate::SystemDseConfig {
                        backend: SystemDseBackend::Simulate { prune: true },
                        ..Default::default()
                    },
                    ..Default::default()
                },
                0xdcb9d33e389c605b,
            ),
            (
                "compound_3",
                DseConfig {
                    compound: 3,
                    ..Default::default()
                },
                0x6bdd00034a45f0f0,
            ),
        ];
        for (name, cfg, want) in cases {
            assert_eq!(Dse::config_hash(&cfg), want, "{name}");
        }
    }

    #[test]
    fn multi_chain_runs_and_improves() {
        let cfg = DseConfig {
            chains: 3,
            exchange_interval: 5,
            ..quick_cfg(15, true)
        };
        let r = Dse::new(vec![fir()], cfg).run().unwrap();
        assert!(r.objective > 0.0);
        // every chain contributes iterations
        assert_eq!(r.stats.iterations, 45);
        // history covers only the winning chain
        assert_eq!(r.history.len(), 16);
    }
}
