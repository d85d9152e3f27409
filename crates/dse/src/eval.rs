//! The proposal evaluation pipeline (paper Figure 6, steps 2–3), split out
//! of the annealing driver: compile-variant lookup → per-workload
//! schedule/repair → nested system DSE → performance estimate, scored to
//! a scalar fitness by the run's [`Objective`](crate::Objective).
//!
//! [`EvalPipeline`] owns everything a proposal evaluation needs — the
//! workload set, pre-compiled mDFG variants, the resource model, the
//! persistent store (when the run consults one), the system sweep's score
//! tables over the run's one grid, and the telemetry plumbing. The
//! annealer in `engine.rs` only proposes mutations and accepts/rejects on
//! the fitness the pipeline returns; it contains no objective math. A
//! proposal arrives as its hardware, its prior schedules and its merged
//! footprint; each prior is repaired against one shared index of that
//! hardware, which classifies it by scanning, so no rule delta reaches
//! the pipeline.
//!
//! Determinism contract: per-workload results fold in workload-name
//! order, and an evaluation runs one of two ways with the same observable
//! effects. Without a store it runs in place, emitting into the current
//! collector (or, when none is installed, counting into the run registry
//! under a counting collector that builds no event). With a store it runs
//! under an isolated capture whose trace and metric deltas are published
//! as the key's artifact; a store hit replays that trace and merges those
//! deltas, which is observationally identical to evaluating in place (the
//! capture/replay contract of `overgen_telemetry::capture`). The objective
//! is folded into every store key through the run's config hash.
//!
//! This module also hosts the [`ParetoFront`] tracker: the set of
//! non-dominated (IPC, accelerator-resource) points the search has
//! visited, maintained per chain and merged into
//! [`DseResult::pareto`](crate::DseResult::pareto).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use overgen_telemetry::profile::{elapsed_us, PhaseTimer};
use overgen_telemetry::{
    capture_isolated, count_into, current_profiler, event, replay, Counter, Phase, Profiler,
    Registry,
};

use overgen_adg::{SysAdg, SystemParams};
use overgen_ir::Kernel;
use overgen_mdfg::Mdfg;
use overgen_model::{
    accelerator_resources, Placement, PlacementMetrics, ResourceModel, Resources, SimpleGridPlacer,
    TimeModel,
};
use overgen_scheduler::{HwIndex, RepairOptions, RepairOutcome, Schedule, ScheduleFootprint};

use crate::cache::{domain_salt, eval_key};
use crate::engine::{Dse, DseConfig};
use crate::system::{estimate_sweep, system_dse_sim, ScoreTables, SystemDseBackend};

/// Outcome of evaluating one design point, as the annealer keeps it.
/// `pub(crate)` so checkpoints can persist and rebuild it
/// (`checkpoint.rs`).
#[derive(Debug, Clone)]
pub(crate) struct EvalState {
    pub(crate) sys: SystemParams,
    pub(crate) schedules: BTreeMap<String, Schedule>,
    pub(crate) variants: BTreeMap<String, u32>,
    /// Weighted-geomean estimated IPC (the display objective).
    pub(crate) objective: f64,
    /// Scalar the annealer compares: `Objective::fitness` of `objective`,
    /// `resources` and `placement`.
    pub(crate) fitness: f64,
    /// Accelerator resource vector, kept for Pareto tracking.
    pub(crate) resources: Resources,
    /// Placement quality axes (placement-aware objectives only), kept for
    /// three-axis Pareto tracking.
    pub(crate) placement: Option<PlacementMetrics>,
}

impl EvalState {
    /// This design's point on the trade-off frontier.
    pub(crate) fn pareto_point(&self) -> ParetoPoint {
        ParetoPoint {
            ipc: self.objective,
            resources: self.resources,
            placement: self.placement,
        }
    }
}

/// A stored evaluation: outcome plus every side effect it produced, so
/// replaying the trace and merging the registry makes a store hit
/// indistinguishable from re-running. `pub(crate)` so the persistent
/// store (`store.rs`) can share, serialize and rebuild whole artifacts.
pub(crate) struct CachedEval {
    pub(crate) state: Option<Arc<EvalState>>,
    pub(crate) sim: f64,
    pub(crate) trace: overgen_telemetry::CapturedTrace,
    pub(crate) registry: Registry,
}

/// Handles for the counters an evaluation updates, bound to the registry
/// of the collector it runs under (an isolated capture's when the
/// evaluation becomes a store artifact).
struct EvalCounters {
    full_schedules: Counter,
    repairs: Counter,
    intact: Counter,
    repair_moved: overgen_telemetry::Histogram,
}

/// The evaluation pipeline: shared, read-only context for scoring
/// proposals. All interior mutability (the store, the score tables,
/// counters) is thread-safe and commutative, so concurrent chains may
/// query one pipeline.
pub(crate) struct EvalPipeline<'a> {
    workloads: &'a [Kernel],
    cfg: &'a DseConfig,
    time: &'a TimeModel,
    mdfgs: &'a BTreeMap<String, Vec<Mdfg>>,
    model: &'a dyn ResourceModel,
    run_registry: &'a Registry,
    /// System sweeps run (`dse.cache.system_miss`, a historical name).
    system_sweeps: Counter,
    /// Estimate scores shared by every system sweep of the run.
    score_tables: ScoreTables,
    /// The persistent store, when the run consults one (`cfg.cache` on
    /// and `cfg.store` set), with the config hash and the domain salt its
    /// keys fold in.
    store: Option<(&'a crate::EvalStore, u64, u64)>,
    /// Phase-attribution profiler, captured from the constructing thread
    /// (chain worker threads have no thread-local profiler). Wall-time only —
    /// records nothing into traces or the run registry, so determinism is
    /// untouched whether it is present or not.
    profiler: Option<Arc<Profiler>>,
}

impl<'a> EvalPipeline<'a> {
    /// Build a pipeline. A run that consults no store hashes nothing for
    /// it.
    pub(crate) fn new(
        workloads: &'a [Kernel],
        cfg: &'a DseConfig,
        time: &'a TimeModel,
        mdfgs: &'a BTreeMap<String, Vec<Mdfg>>,
        model: &'a dyn ResourceModel,
        run_registry: &'a Registry,
    ) -> Self {
        let store = cfg
            .store
            .as_deref()
            .filter(|_| cfg.cache)
            .map(|st| (st, Dse::config_hash(cfg), domain_salt(mdfgs)));
        EvalPipeline {
            workloads,
            cfg,
            time,
            mdfgs,
            model,
            run_registry,
            system_sweeps: run_registry.counter("dse.cache.system_miss"),
            score_tables: ScoreTables::new(&cfg.system),
            store,
            profiler: current_profiler(),
        }
    }

    /// Start a phase timer when a profiler is installed (`None` otherwise,
    /// a no-op guard).
    fn phase(&self, phase: Phase, class: &'static str) -> Option<PhaseTimer> {
        self.profiler.as_ref().map(|p| p.phase(phase, class))
    }

    /// [`EvalPipeline::phase`] for a self-time phase: the glue around the
    /// phases nested in it (see [`Profiler::self_phase`]).
    fn self_phase(&self, phase: Phase, class: &'static str) -> Option<PhaseTimer> {
        self.profiler.as_ref().map(|p| p.self_phase(phase, class))
    }

    /// The run registry stats are read from and merged into.
    pub(crate) fn registry(&self) -> &Registry {
        self.run_registry
    }

    /// Evaluate a proposal. Returns the outcome and the simulated seconds
    /// to charge. `sys` is the proposal with default system parameters;
    /// the evaluation owns `prior`, so repairs take each schedule by
    /// value. A compound proposal's rule trace string is folded into the
    /// store key ([`eval_key`]); single-rule proposals pass `None` and keep
    /// historical store keys.
    ///
    /// Without a store nothing could replay the evaluation, so it runs in
    /// place. With one, the stored artifact is replayed, or the evaluation
    /// is captured, published and replayed: a store-served artifact is
    /// byte-identical to recomputation, so results, counters and traces do
    /// not depend on store contents (DESIGN.md §13).
    pub(crate) fn evaluate(
        &self,
        sys: &SysAdg,
        prior: BTreeMap<String, Schedule>,
        footprint: ScheduleFootprint,
        rule_trace: Option<&str>,
    ) -> (Option<Arc<EvalState>>, f64) {
        let Some((st, cfg_hash, salt)) = self.store else {
            // Umbrella phase: one evaluation end to end.
            let _eval_timer = self.phase(Phase::Eval, footprint.name());
            let eval = || self.evaluate_uncached(sys, prior, footprint);
            return if overgen_telemetry::current().is_some() {
                eval()
            } else {
                count_into(self.run_registry, eval)
            };
        };
        // The key reads the priors, so it is hashed before the evaluation
        // takes them.
        let key = eval_key(cfg_hash, salt, &sys.adg, footprint, rule_trace, &prior);
        let c = st.fetch(key).unwrap_or_else(|| {
            let c = Arc::new(self.capture(sys, prior, footprint));
            st.publish(key, &c);
            c
        });
        replay(&c.trace);
        self.run_registry.merge_from(&c.registry);
        (c.state.clone(), c.sim)
    }

    /// Evaluate under an isolated capture, as a replayable store artifact.
    fn capture(
        &self,
        sys: &SysAdg,
        prior: BTreeMap<String, Schedule>,
        footprint: ScheduleFootprint,
    ) -> CachedEval {
        // Umbrella phase: one evaluation the store did not serve, end to
        // end; a store hit costs no attributable phase time.
        let _eval_timer = self.phase(Phase::Eval, footprint.name());
        // Capturing the evaluation as an artifact is store bookkeeping.
        // Only the capture's own work is timed: its set-up until the
        // closure starts, its packaging from the moment the closure
        // returns.
        let setup_timer = self.phase(Phase::Memo, footprint.name());
        let ((out, packaging_timer), trace, registry) = capture_isolated(move || {
            drop(setup_timer);
            let out = self.evaluate_uncached(sys, prior, footprint);
            (out, self.phase(Phase::Memo, footprint.name()))
        });
        drop(packaging_timer);
        let (state, sim) = out;
        CachedEval {
            state,
            sim,
            trace,
            registry,
        }
    }

    /// One full evaluation (Figure 6 steps 2-3): gate on the objective's
    /// hard resource budget, schedule or repair every workload in
    /// workload-name order, then run the nested system DSE and score the
    /// outcome. Runs under a collector whose registry is the run registry
    /// or an isolated capture's (see [`EvalPipeline::evaluate`]).
    ///
    /// Every workload is processed even after one fails: each one's repair
    /// events and simulated-time charges are part of the recorded trace.
    fn evaluate_uncached(
        &self,
        proposal: &SysAdg,
        mut prior: BTreeMap<String, Schedule>,
        footprint: ScheduleFootprint,
    ) -> (Option<Arc<EvalState>>, f64) {
        let mut sim = 0.0f64;
        let adg = &proposal.adg;
        let validate_timer = self.phase(Phase::Validate, footprint.name());
        if proposal.validate().is_err() {
            return (None, sim);
        }

        let eval_collector =
            overgen_telemetry::current().expect("evaluate_uncached runs under a collector");

        // Hard feasibility gate: under a budgeted objective an oversized
        // accelerator is rejected before any scheduling or system-DSE work
        // is spent on it. The default objective admits everything, so this
        // is trace-invisible unless a budget is configured.
        let resources = accelerator_resources(adg, self.model);
        if let Err(channel) = self.cfg.objective.admit(&resources) {
            eval_collector
                .registry()
                .counter("dse.eval.infeasible")
                .inc();
            event!(
                "dse.eval.infeasible",
                channel = channel,
                lut = resources.lut,
                ff = resources.ff,
                bram = resources.bram,
                dsp = resources.dsp,
            );
            return (None, sim);
        }

        drop(validate_timer);

        // The per-workload loop: everything but the repair and schedule
        // phases nested in it (the shared hardware index, hot-key timers,
        // outcome bookkeeping) is timed as `fan-out` self time.
        let fanout_timer = self.self_phase(Phase::Fanout, footprint.name());
        let hw = HwIndex::new(proposal);
        let opts = RepairOptions {
            incremental: self.cfg.repair,
            footprint: Some(footprint),
            scope: None,
        };
        let reg = eval_collector.registry().clone();
        let counters = EvalCounters {
            full_schedules: reg.counter("dse.full_schedules"),
            repairs: reg.counter("dse.repairs"),
            intact: reg.counter("dse.intact"),
            repair_moved: reg.histogram("dse.repair_moved"),
        };
        let mut schedules: BTreeMap<String, Schedule> = BTreeMap::new();
        let mut variants: BTreeMap<String, u32> = BTreeMap::new();
        let mut complete = true;
        for k in self.workloads {
            let hot = self
                .profiler
                .as_ref()
                .map(|p| p.hot_timer("workload", k.name()));
            let (found, sim_delta) =
                self.schedule_workload(k, &hw, prior.remove(k.name()), footprint, &opts, &counters);
            drop(hot);
            sim += sim_delta;
            match found {
                Some((variant, s)) => {
                    variants.insert(k.name().to_string(), variant);
                    schedules.insert(k.name().to_string(), s);
                }
                None => complete = false,
            }
        }
        // Free the loop's working state (the index, the repair options and
        // counters, what is left of the priors) and an incomplete
        // evaluation's partial schedules inside the loop's phase rather
        // than untimed at return.
        drop((hw, opts, counters, reg, prior));
        if !complete {
            return (None, sim);
        }
        drop(fanout_timer);

        // Nested system DSE over the chosen (mDFG variant, schedule,
        // weight) per workload, in workload order: the whole step, its
        // inputs included, is timed as `system-dse`.
        let system_timer = self.phase(Phase::SystemDse, footprint.name());
        let chosen: Vec<(&Mdfg, &Schedule, f64)> = self
            .workloads
            .iter()
            .map(|k| {
                let name = k.name();
                let m = self.mdfgs[name]
                    .iter()
                    .find(|v| v.variant() == variants[name])
                    .expect("variant exists");
                let w = self.cfg.weights.get(name).copied().unwrap_or(1.0);
                (m, &schedules[name], w)
            })
            .collect();
        self.system_sweeps.inc();
        let start = Instant::now();
        let winner = match self.cfg.system.backend {
            SystemDseBackend::Estimate => {
                let per: Vec<(&Mdfg, &Placement, f64)> = chosen
                    .iter()
                    .map(|(m, s, w)| (*m, &s.placement, *w))
                    .collect();
                estimate_sweep(
                    adg,
                    &per,
                    self.model,
                    &self.cfg.system,
                    Some(&self.score_tables),
                )
            }
            // Simulator-backed scoring needs the full schedule
            // (stream-to-engine bindings), not just the placement.
            SystemDseBackend::Simulate { prune } => system_dse_sim(
                adg,
                &chosen,
                self.model,
                &self.cfg.system,
                &overgen_sim::SimConfig::default(),
                prune,
            ),
        };
        if let (Some(p), Some((sys, _))) = (self.profiler.as_ref(), winner.as_ref()) {
            p.record_hot(
                "sys-grid",
                &format!("tiles={}", sys.tiles),
                elapsed_us(start),
            );
        }
        drop(system_timer);
        let Some((sys, _raw)) = winner else {
            return (None, sim);
        };

        // Spatial placement of the winning system configuration, only when
        // the objective asks for it: the default path takes no timer, no
        // counters, and no events here, keeping its traces byte-identical.
        let placement = self.cfg.objective.placement().map(|p| {
            let _place_timer = self.phase(Phase::Place, footprint.name());
            let rep = SimpleGridPlacer.place(&SysAdg::new(adg.clone(), sys), &resources, &p.grid);
            eval_collector.registry().counter("dse.place.runs").inc();
            eval_collector
                .registry()
                .counter("dse.place.slr_crossings")
                .add(rep.slr_crossings);
            event!(
                "dse.place",
                tiles = u64::from(sys.tiles),
                span = u64::from(rep.span),
                wirelength = rep.wirelength,
                congestion = rep.congestion,
                slr_crossings = rep.slr_crossings,
                fmax_mhz = rep.fmax_mhz,
            );
            rep.metrics()
        });

        // Performance estimate: per-workload IPC (with the schedule's
        // balance penalty) folded into the weighted geomean — the primary
        // objective of §V-A.
        let _objective_timer = self.phase(Phase::Objective, footprint.name());
        let spad_bw = overgen_model::spad_bandwidth(adg);
        let ipcs: Vec<(f64, f64)> = chosen
            .iter()
            .map(|(m, s, w)| {
                let ipc = overgen_model::estimate_ipc(m, &sys, spad_bw, &s.placement).ipc
                    * s.balance_penalty;
                (ipc, *w)
            })
            .collect();
        let ipc = overgen_model::weighted_geomean_ipc(&ipcs);
        let fitness = self
            .cfg
            .objective
            .fitness(ipc, &resources, placement.as_ref());
        (
            Some(Arc::new(EvalState {
                sys,
                schedules,
                variants,
                objective: ipc,
                fitness,
                resources,
                placement,
            })),
            sim,
        )
    }

    /// Schedule one workload: repair the prior schedule's variant first
    /// (the common path — no placement search when the dirty set is
    /// empty), then walk the remaining variants with full scheduling only
    /// if repair proved impossible. Returns the chosen (variant, schedule)
    /// and the simulated seconds spent.
    ///
    /// Simulated-time charges are a pure function of the repair
    /// *classification* (intact / moved count / reschedule), never of the
    /// execution path, so `cfg.repair` on/off produces identical `sim`.
    fn schedule_workload(
        &self,
        k: &Kernel,
        hw: &HwIndex<'_>,
        prior: Option<Schedule>,
        footprint: ScheduleFootprint,
        opts: &RepairOptions,
        counters: &EvalCounters,
    ) -> (Option<(u32, Schedule)>, f64) {
        let adg_nodes = hw.sys().adg.node_count();
        let mut sim = 0.0f64;
        let name = k.name();
        let Some(vs) = self.mdfgs.get(name) else {
            return (None, sim);
        };
        let mut repair_failed_variant = None;
        if let Some(p) = prior {
            if let Some(v) = vs.iter().find(|v| v.variant() == p.variant) {
                let repair_timer = self.phase(Phase::Repair, footprint.name());
                let outcome = hw.repair(p, v, opts);
                drop(repair_timer);
                match outcome {
                    Ok((s, RepairOutcome::Intact)) => {
                        counters.intact.inc();
                        event!("dse.repair", workload = name, outcome = "intact");
                        sim += self.time.repair_seconds(2, adg_nodes);
                        return (Some((v.variant(), s)), sim);
                    }
                    Ok((s, RepairOutcome::Repaired { moved })) => {
                        counters.repairs.inc();
                        counters.repair_moved.record(moved as u64);
                        event!(
                            "dse.repair",
                            workload = name,
                            outcome = "repaired",
                            moved = moved,
                        );
                        sim += self.time.repair_seconds(moved.max(1), adg_nodes);
                        return (Some((v.variant(), s)), sim);
                    }
                    Err(_) => {
                        // The fallback already ran (and failed) the seeded
                        // full placement inside the repair; charge it and
                        // skip this variant in the walk below.
                        counters.full_schedules.inc();
                        event!("dse.repair", workload = name, outcome = "reschedule");
                        sim += self.time.schedule_seconds(v.node_count(), adg_nodes);
                        repair_failed_variant = Some(v.variant());
                    }
                }
            }
        }
        for v in vs {
            if repair_failed_variant == Some(v.variant()) {
                continue;
            }
            counters.full_schedules.inc();
            sim += self.time.schedule_seconds(v.node_count(), adg_nodes);
            let _schedule_timer = self.phase(Phase::Schedule, footprint.name());
            if let Ok(s) = hw.schedule(v, None) {
                return (Some((v.variant(), s)), sim);
            }
        }
        (None, sim)
    }
}

/// One point on the trade-off frontier: IPC against the four accelerator
/// resource channels, plus — under a placement-aware objective — the
/// placement quality axes (wirelength, congestion, SLR crossings).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint {
    /// Weighted-geomean estimated IPC of the design.
    pub ipc: f64,
    /// Accelerator-tile resource vector of the design.
    pub resources: Resources,
    /// Placement quality of the design. `None` on default-objective runs,
    /// where the frontier stays the historical two-axis IPC/resources
    /// trade-off.
    pub placement: Option<PlacementMetrics>,
}

impl ParetoPoint {
    /// `self` dominates `other` when it is no worse on every axis (IPC
    /// maximized; resource channels and — when both points carry them —
    /// placement wirelength/congestion/SLR-crossings minimized) and
    /// strictly better on at least one. Points without placement metrics
    /// compare exactly as before, so default-objective frontiers are
    /// unchanged.
    fn dominates(&self, other: &ParetoPoint) -> bool {
        let mut no_worse = self.ipc >= other.ipc
            && self.resources.lut <= other.resources.lut
            && self.resources.ff <= other.resources.ff
            && self.resources.bram <= other.resources.bram
            && self.resources.dsp <= other.resources.dsp;
        let mut better = self.ipc > other.ipc
            || self.resources.lut < other.resources.lut
            || self.resources.ff < other.resources.ff
            || self.resources.bram < other.resources.bram
            || self.resources.dsp < other.resources.dsp;
        if let (Some(a), Some(b)) = (&self.placement, &other.placement) {
            no_worse &= a.wirelength <= b.wirelength
                && a.congestion <= b.congestion
                && a.slr_crossings <= b.slr_crossings;
            better |= a.wirelength < b.wirelength
                || a.congestion < b.congestion
                || a.slr_crossings < b.slr_crossings;
        }
        no_worse && better
    }

    /// Canonical ordering of the placement axes: wirelength, congestion,
    /// then crossings ascending; placement-free points tie.
    fn placement_cmp(&self, other: &ParetoPoint) -> std::cmp::Ordering {
        match (&self.placement, &other.placement) {
            (Some(a), Some(b)) => a
                .wirelength
                .total_cmp(&b.wirelength)
                .then(a.congestion.total_cmp(&b.congestion))
                .then(a.slr_crossings.cmp(&b.slr_crossings)),
            _ => std::cmp::Ordering::Equal,
        }
    }
}

/// The non-dominated frontier of every design point a run evaluated:
/// IPC (maximize) against the four accelerator resource channels
/// (minimize). Kept in a canonical order — IPC descending, then
/// LUT/FF/BRAM/DSP ascending — so the frontier is deterministic and
/// independent of insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParetoFront {
    points: Vec<ParetoPoint>,
}

impl ParetoFront {
    /// An empty frontier.
    pub fn new() -> Self {
        ParetoFront::default()
    }

    /// Build a frontier from arbitrary points (dominated ones are
    /// discarded).
    pub fn from_points<I: IntoIterator<Item = ParetoPoint>>(points: I) -> Self {
        let mut f = ParetoFront::new();
        for p in points {
            f.insert(p);
        }
        f
    }

    /// Offer a point. Returns `true` when it joined the frontier (it was
    /// not dominated by, or identical to, an existing point); dominated
    /// incumbents are evicted.
    pub fn insert(&mut self, p: ParetoPoint) -> bool {
        if self.points.iter().any(|q| q.dominates(&p) || *q == p) {
            return false;
        }
        self.points.retain(|q| !p.dominates(q));
        self.points.push(p);
        self.points.sort_by(|a, b| {
            b.ipc
                .total_cmp(&a.ipc)
                .then(a.resources.lut.total_cmp(&b.resources.lut))
                .then(a.resources.ff.total_cmp(&b.resources.ff))
                .then(a.resources.bram.total_cmp(&b.resources.bram))
                .then(a.resources.dsp.total_cmp(&b.resources.dsp))
                .then(a.placement_cmp(b))
        });
        true
    }

    /// Merge another frontier into this one (used to combine per-chain
    /// frontiers in chain-index order).
    pub fn merge(&mut self, other: &ParetoFront) {
        for p in &other.points {
            self.insert(*p);
        }
    }

    /// The frontier, in canonical order.
    pub fn points(&self) -> &[ParetoPoint] {
        &self.points
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overgen_compiler::{compile_variants, CompileOptions};
    use overgen_ir::{expr, DataType, KernelBuilder, Suite};
    use overgen_model::AnalyticModel;
    use overgen_telemetry::Collector;

    /// One proposal evaluated twice against a store: the second call is
    /// served the artifact the first published, so it returns the same
    /// state bits and emits the same trace lines and metric deltas. An
    /// in-place evaluation (cache off) does too.
    #[test]
    fn a_store_serves_a_repeated_evaluation_unchanged() {
        let kernels = vec![KernelBuilder::new("vecadd", Suite::Dsp, DataType::I64)
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
            .unwrap()];
        let dir = std::env::temp_dir().join(format!("overgen-eval-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::EvalStore::open(&dir).unwrap();
        let with_store = DseConfig {
            store: Some(store.clone()),
            compile: CompileOptions {
                max_unroll: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let in_place = DseConfig {
            cache: false,
            ..with_store.clone()
        };
        let mdfgs: BTreeMap<String, Vec<Mdfg>> = kernels
            .iter()
            .map(|k| {
                let vs = compile_variants(k, &with_store.compile).unwrap();
                (k.name().to_string(), vs)
            })
            .collect();
        let time = TimeModel::default();
        let seed = SysAdg::new(Dse::seed_adg(&kernels).unwrap(), SystemParams::default());
        let evaluate = |cfg: &DseConfig| {
            let (collector, ring) = Collector::ring(1 << 12);
            let _install = overgen_telemetry::install(collector.clone());
            let registry = collector.registry();
            let pipe = EvalPipeline::new(&kernels, cfg, &time, &mdfgs, &AnalyticModel, registry);
            let (state, sim) = pipe.evaluate(&seed, BTreeMap::new(), ScheduleFootprint::Pure, None);
            let state = state.expect("the seed schedules");
            // `dse.cache.system_miss` counts the sweeps that ran, which a
            // store hit does not; every other metric is the evaluation's.
            let sweeps = registry.counter_value("dse.cache.system_miss");
            let mut metrics = registry.export();
            metrics.retain(|(name, _)| *name != "dse.cache.system_miss");
            (state, sim, ring.to_jsonl(), metrics, sweeps)
        };
        let first = evaluate(&with_store);
        assert_eq!(store.stats().publishes, 1);
        let second = evaluate(&with_store);
        let stats = store.stats();
        assert_eq!(
            (stats.lookups, stats.publishes, stats.shared_serves),
            (2, 1, 1)
        );
        assert!(Arc::ptr_eq(&first.0, &second.0), "not served by the store");
        let third = evaluate(&in_place);
        assert_eq!(store.stats().lookups, 2, "cache off consulted the store");
        assert!(first.2.contains("sched.placed"), "nothing traced");
        assert_eq!((first.4, second.4, third.4), (1, 0, 1));
        for other in [&second, &third] {
            assert_eq!(first.0.objective.to_bits(), other.0.objective.to_bits());
            assert_eq!(first.0.fitness.to_bits(), other.0.fitness.to_bits());
            assert_eq!(format!("{:?}", first.0), format!("{:?}", other.0));
            assert_eq!(first.1.to_bits(), other.1.to_bits());
            assert_eq!(first.2, other.2);
            assert_eq!(first.3, other.3);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn pt(ipc: f64, lut: f64, bram: f64) -> ParetoPoint {
        ParetoPoint {
            ipc,
            resources: Resources {
                lut,
                ff: lut * 1.2,
                bram,
                dsp: 8.0,
            },
            placement: None,
        }
    }

    fn place_pt(ipc: f64, lut: f64, wirelength: f64, congestion: f64, slr: u64) -> ParetoPoint {
        ParetoPoint {
            placement: Some(PlacementMetrics {
                wirelength,
                congestion,
                slr_crossings: slr,
                fmax_mhz: 100.0,
            }),
            ..pt(ipc, lut, 100.0)
        }
    }

    #[test]
    fn dominated_points_never_join_and_get_evicted() {
        let mut f = ParetoFront::new();
        assert!(f.insert(pt(10.0, 50_000.0, 100.0)));
        // Strictly worse: rejected.
        assert!(!f.insert(pt(9.0, 60_000.0, 120.0)));
        assert_eq!(f.len(), 1);
        // Strictly better: evicts the incumbent.
        assert!(f.insert(pt(11.0, 40_000.0, 90.0)));
        assert_eq!(f.len(), 1);
        assert_eq!(f.points()[0].ipc, 11.0);
        // Trade-off (slower but smaller): coexists.
        assert!(f.insert(pt(6.0, 10_000.0, 20.0)));
        assert_eq!(f.len(), 2);
        // Duplicate: rejected.
        assert!(!f.insert(pt(6.0, 10_000.0, 20.0)));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn frontier_is_insertion_order_independent() {
        let pts = [
            pt(10.0, 50_000.0, 100.0),
            pt(6.0, 10_000.0, 20.0),
            pt(9.0, 60_000.0, 120.0),
            pt(8.0, 30_000.0, 60.0),
            pt(10.0, 50_000.0, 100.0),
        ];
        let fwd = ParetoFront::from_points(pts);
        let rev = ParetoFront::from_points(pts.into_iter().rev());
        assert_eq!(fwd, rev);
        // Canonical order: IPC descending.
        for w in fwd.points().windows(2) {
            assert!(w[0].ipc >= w[1].ipc);
        }
    }

    /// The third axis: identical IPC and resources with better placement
    /// must dominate, and a placement trade-off must coexist.
    #[test]
    fn placement_is_a_dominance_axis() {
        let mut f = ParetoFront::new();
        assert!(f.insert(place_pt(10.0, 50_000.0, 20.0, 0.9, 4)));
        // Same IPC/area, strictly better placement: replaces.
        assert!(f.insert(place_pt(10.0, 50_000.0, 12.0, 0.7, 2)));
        assert_eq!(f.len(), 1);
        assert_eq!(f.points()[0].placement.unwrap().slr_crossings, 2);
        // Worse placement but better IPC: a genuine trade-off, coexists.
        assert!(f.insert(place_pt(12.0, 50_000.0, 30.0, 1.1, 6)));
        assert_eq!(f.len(), 2);
        // Worse on every axis including placement: rejected.
        assert!(!f.insert(place_pt(9.0, 60_000.0, 40.0, 1.2, 8)));
        // Canonical order is deterministic regardless of insertion order.
        let rev = ParetoFront::from_points(f.points().iter().rev().copied());
        assert_eq!(f, rev);
    }

    /// Placement-free points (default objective) compare exactly as
    /// before: the new axis contributes nothing when absent.
    #[test]
    fn placement_free_points_keep_two_axis_semantics() {
        let mut f = ParetoFront::new();
        f.insert(pt(10.0, 50_000.0, 100.0));
        assert!(!f.insert(pt(10.0, 50_000.0, 100.0)));
        assert!(f.insert(pt(10.0, 45_000.0, 100.0)));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn resource_only_improvement_joins() {
        let mut f = ParetoFront::new();
        f.insert(pt(10.0, 50_000.0, 100.0));
        // Same IPC, fewer LUTs: dominates and replaces.
        assert!(f.insert(pt(10.0, 45_000.0, 100.0)));
        assert_eq!(f.len(), 1);
        assert_eq!(f.points()[0].resources.lut, 45_000.0);
    }
}
