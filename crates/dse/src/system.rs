//! The nested system-level DSE (§V-A): for a candidate accelerator ADG,
//! exhaustively search tile count, L2 banks, L2 capacity, and NoC bandwidth
//! under the FPGA resource budget; "it is relatively inexpensive to nest
//! system DSE inside of spatial DSE".

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use overgen_adg::{Adg, SystemParams};
use overgen_mdfg::Mdfg;
use overgen_model::resources::FpgaDevice;
use overgen_model::{
    l2_resources, noc_resources, spad_bandwidth, tile_breakdown, weighted_geomean_ipc, PerfSummary,
    Placement, ResourceBreakdown, ResourceModel, Resources,
};
use overgen_scheduler::Schedule;
use overgen_sim::{SimBatch, SimConfig};
use overgen_telemetry::profile::{maybe_phase, NO_CLASS};
use overgen_telemetry::{span, FieldValue, Phase};

/// How the nested system DSE scores a feasible grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SystemDseBackend {
    /// Score with the closed-form `overgen_model::estimate_ipc` (the
    /// historical behaviour, byte-identical traces).
    #[default]
    Estimate,
    /// Score with the cycle-level flow simulator, batched per compiled
    /// schedule. With `prune`, the analytic lower bound skips grid
    /// points that provably cannot beat the incumbent.
    Simulate {
        /// Enable analytic pruning (sound: never changes the winner).
        prune: bool,
    },
}

/// System DSE configuration, including the candidate grids the exhaustive
/// sweep walks. The grids are plain data so tests can shrink or extend the
/// sweep and so store keys can cover non-default grids.
#[derive(Debug, Clone)]
pub struct SystemDseConfig {
    /// Device budget.
    pub device: FpgaDevice,
    /// Maximum utilization of any single resource ("our DSE greedily
    /// consumes as many resources as possible", Q4 — up to this cap).
    pub util_cap: f64,
    /// Candidate tile counts (1..=max explored).
    pub max_tiles: u32,
    /// DRAM channels (fixed by the experiment; 1 for the paper's FPGA).
    pub dram_channels: u32,
    /// Candidate L2 bank counts.
    pub l2_banks_grid: Vec<u32>,
    /// Candidate total L2 capacities in KiB.
    pub l2_kb_grid: Vec<u32>,
    /// Candidate NoC bandwidths in bytes/cycle.
    pub noc_bw_grid: Vec<u32>,
    /// Scoring backend for feasible grid points.
    pub backend: SystemDseBackend,
}

impl Default for SystemDseConfig {
    fn default() -> Self {
        SystemDseConfig {
            device: overgen_model::XCVU9P,
            util_cap: 0.97,
            max_tiles: 16,
            dram_channels: 1,
            l2_banks_grid: vec![2, 4, 8, 16],
            l2_kb_grid: vec![256, 512, 1024, 2048],
            noc_bw_grid: vec![32, 64],
            backend: SystemDseBackend::Estimate,
        }
    }
}

/// The points a sweep walks, grouped by ascending tile count and in
/// canonical order within one (L2 banks, then L2 capacity, then NoC
/// bandwidth), each with its shared NoC + L2 resources: those depend on
/// the point alone, so one grid serves every tile swept over it.
pub(crate) struct Grid {
    by_tiles: Vec<Vec<(SystemParams, Resources)>>,
}

impl Grid {
    fn new(cfg: &SystemDseConfig) -> Grid {
        let point = |sys: SystemParams| (sys, noc_resources(&sys) + l2_resources(&sys));
        let by_tiles = (1..=cfg.max_tiles)
            .map(|tiles| {
                let mut points = Vec::new();
                for &l2_banks in &cfg.l2_banks_grid {
                    for &l2_kb in &cfg.l2_kb_grid {
                        for &noc_bw_bytes in &cfg.noc_bw_grid {
                            points.push(point(SystemParams {
                                tiles,
                                l2_banks,
                                l2_kb,
                                noc_bw_bytes,
                                dram_channels: cfg.dram_channels,
                            }));
                        }
                    }
                }
                points
            })
            .collect();
        Grid { by_tiles }
    }
}

/// How the sweep scores a feasible grid point, in the `Placer` style of
/// `overgen_model::placement`: the walk, the budget check and the
/// selection rule are shared, only the scoring differs.
trait Scorer {
    /// An upper bound on the point's score; the walk skips the point when
    /// even the bound cannot win. `None` admits every point.
    fn bound(&mut self, _sys: &SystemParams) -> Option<f64> {
        None
    }

    /// The score (weighted geomean IPC over the workloads) of `sys`, the
    /// `index`th point of the canonical walk (see [`sweep`]).
    fn score(&mut self, index: usize, sys: &SystemParams) -> f64;
}

/// Scores from the precompiled closed-form estimate ([`PerfSummary`]),
/// looked up in and filled into a [`ScoreTables`] table when there is one.
struct Estimate<'t> {
    perf: Vec<(PerfSummary, f64)>,
    spad_bw: f64,
    ipcs: Vec<(f64, f64)>,
    table: Option<&'t mut [Option<f64>]>,
}

impl Scorer for Estimate<'_> {
    fn score(&mut self, index: usize, sys: &SystemParams) -> f64 {
        if let Some(score) = self.table.as_ref().and_then(|t| t[index]) {
            return score;
        }
        self.ipcs.clear();
        self.ipcs.extend(
            self.perf
                .iter()
                .map(|(p, w)| (p.estimate(sys, self.spad_bw).ipc, *w)),
        );
        let score = weighted_geomean_ipc(&self.ipcs);
        if let Some(t) = self.table.as_mut() {
            t[index] = Some(score);
        }
        score
    }
}

/// Estimate scores shared by the sweeps of one run, over the run's one
/// [`Grid`], built with the tables. A point's score depends only on every
/// workload's [`PerfSummary`] and weight and on the tile's scratchpad
/// bandwidth; the tile's resources only decide which points fit. So each
/// distinct score input gets one table, one score per grid point in
/// canonical walk order (see [`sweep`]), filled on the point's first
/// feasible visit, and every later sweep with that input reads it back
/// whatever its tile. The key is the input's exact bits, compared whole:
/// `-0.0` and `0.0`, or two bandwidths one ulp apart, get separate tables.
/// Scores are pure functions of the key, so which chain fills a slot first
/// never changes a value. Every sweep over the tables must walk the grid
/// they were made for.
pub(crate) struct ScoreTables {
    tables: Mutex<HashMap<Vec<u64>, ScoreTable>>,
    grid: Grid,
}

/// One score per walk position, `None` until the position is scored.
type ScoreTable = Arc<Mutex<Vec<Option<f64>>>>;

impl ScoreTables {
    /// Empty tables over the grid of `cfg`.
    pub(crate) fn new(cfg: &SystemDseConfig) -> ScoreTables {
        ScoreTables {
            tables: Mutex::default(),
            grid: Grid::new(cfg),
        }
    }

    /// The table of one score input, created empty on first use.
    fn table(&self, perf: &[(PerfSummary, f64)], spad_bw: f64) -> ScoreTable {
        let mut key = Vec::with_capacity(128);
        key.extend([spad_bw.to_bits(), perf.len() as u64]);
        for (p, w) in perf {
            p.key_bits(&mut key);
            key.push(w.to_bits());
        }
        let mut tables = self.tables.lock().unwrap();
        let table = tables.entry(key).or_insert_with(|| {
            let points = self.grid.by_tiles.iter().map(Vec::len).sum();
            Arc::new(Mutex::new(vec![None; points]))
        });
        Arc::clone(table)
    }

    /// How many tables exist.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.tables.lock().unwrap().len()
    }
}

/// Scores with warm [`SimBatch`] runs behind the sibling-reuse cache and,
/// with `prune`, bounds each point analytically. A `shadow` scorer takes
/// no profiler phase timers and bypasses the reuse cache (plain
/// [`SimBatch::run`]), so the oracle's duplicate sweep differentially
/// checks pruning *and* reuse.
struct Simulate {
    batches: Vec<SimBatch>,
    weights: Vec<f64>,
    prune: bool,
    shadow: bool,
    scores: Vec<(f64, f64)>,
}

impl Scorer for Simulate {
    fn bound(&mut self, sys: &SystemParams) -> Option<f64> {
        if !self.prune {
            return None;
        }
        let _t = (!self.shadow).then(|| maybe_phase(Phase::Analytic, NO_CLASS));
        self.scores.clear();
        for (batch, &w) in self.batches.iter().zip(&self.weights) {
            self.scores.push((batch.bound(sys).ipc_upper, w));
        }
        Some(weighted_geomean_ipc(&self.scores))
    }

    fn score(&mut self, _index: usize, sys: &SystemParams) -> f64 {
        let _t = (!self.shadow).then(|| maybe_phase(Phase::Simulate, NO_CLASS));
        self.scores.clear();
        for (batch, &w) in self.batches.iter_mut().zip(&self.weights) {
            let r = if self.shadow {
                batch.run(sys)
            } else {
                batch.run_cached(sys)
            };
            self.scores.push((r.ipc, w));
        }
        weighted_geomean_ipc(&self.scores)
    }
}

/// The winner and tallies of one sweep.
#[derive(Default)]
struct Sweep {
    best: Option<(SystemParams, f64)>,
    candidates: u64,
    over_budget: u64,
    pruned: u64,
    admitted: u64,
}

/// The one grid walk: every point of `grid` in canonical order,
/// over-budget points skipped, points whose bound provably cannot win
/// pruned, the rest scored and folded through [`beats`]. A point's budget
/// check adds its NoC + L2 to the tile's replicated groups, summed once
/// per tile count, exactly as [`ResourceBreakdown::total`] sums
/// `tile.replicated(sys)`. A bound is tested against the *same incumbent
/// the exhaustive fold would hold at that position*, so the incumbent
/// evolves identically with pruning on or off (DESIGN.md §12).
fn sweep(
    cfg: &SystemDseConfig,
    grid: &Grid,
    tile: &ResourceBreakdown,
    scorer: &mut impl Scorer,
) -> Sweep {
    let mut s = Sweep::default();
    for (tiles, points) in (1..).zip(&grid.by_tiles) {
        let replicated = tile.tiled(tiles).tiles_total();
        for (sys, system) in points {
            let index = s.candidates as usize;
            s.candidates += 1;
            if !cfg.device.fits(&(replicated + *system), cfg.util_cap) {
                s.over_budget += 1;
                continue;
            }
            if let Some(upper) = scorer.bound(sys) {
                if !upper_bound_can_win(&s.best, sys, upper) {
                    s.pruned += 1;
                    continue;
                }
            }
            s.admitted += 1;
            let score = scorer.score(index, sys);
            if beats(&s.best, sys, score) {
                s.best = Some((*sys, score));
            }
        }
    }
    s
}

/// Exhaustively choose the best system parameters for an accelerator ADG
/// given the best-scheduled mDFG (plus its scratchpad placement) per
/// workload. Returns `None` when not even a single tile fits the budget.
///
/// The tile is sized once ([`tile_breakdown`]) and each workload's stream
/// demand precompiled once ([`PerfSummary`]); every grid point is then a
/// few multiplications, bit-identical to a per-point
/// [`breakdown`](overgen_model::breakdown) and
/// [`estimate_ipc`](overgen_model::estimate_ipc).
///
/// The sweep is serial; `_threads` is not read. It stays in the signature
/// only so existing callers keep compiling.
pub fn system_dse(
    adg: &Adg,
    per_workload: &[(&Mdfg, &Placement, f64)], // (mdfg, placement, weight)
    model: &dyn ResourceModel,
    cfg: &SystemDseConfig,
    _threads: usize,
) -> Option<(SystemParams, f64)> {
    estimate_sweep(adg, per_workload, model, cfg, None)
}

/// [`system_dse`], reading and filling `tables` (made for `cfg`'s grid)
/// when given: the same winner, score bits and `dse.system` event either
/// way.
pub(crate) fn estimate_sweep(
    adg: &Adg,
    per_workload: &[(&Mdfg, &Placement, f64)],
    model: &dyn ResourceModel,
    cfg: &SystemDseConfig,
    tables: Option<&ScoreTables>,
) -> Option<(SystemParams, f64)> {
    let _span = span!("dse.system", max_tiles = cfg.max_tiles);
    let perf: Vec<(PerfSummary, f64)> = per_workload
        .iter()
        .map(|(m, p, w)| (PerfSummary::new(m, p), *w))
        .collect();
    let spad_bw = spad_bandwidth(adg);
    let owned;
    let grid = match tables {
        Some(t) => &t.grid,
        None => {
            owned = Grid::new(cfg);
            &owned
        }
    };
    let table = tables.map(|t| t.table(&perf, spad_bw));
    let mut guard = table.as_ref().map(|t| t.lock().unwrap());
    let mut scorer = Estimate {
        perf,
        spad_bw,
        ipcs: Vec::with_capacity(per_workload.len()),
        table: guard.as_deref_mut().map(Vec::as_mut_slice),
    };
    let s = sweep(cfg, grid, &tile_breakdown(adg, model), &mut scorer);
    system_event(&s, &[]);
    s.best
}

/// Emit a sweep's `dse.system` event: its budget tallies, the backend's
/// `extra` tallies, then the winner or `feasible = false`.
fn system_event(s: &Sweep, extra: &[(&str, FieldValue)]) {
    let Some(c) = overgen_telemetry::current().filter(|c| c.records()) else {
        return;
    };
    let mut fields = vec![
        ("candidates", FieldValue::from(s.candidates)),
        ("over_budget", FieldValue::from(s.over_budget)),
    ];
    fields.extend_from_slice(extra);
    match s.best {
        Some((sys, score)) => fields.extend([
            ("tiles", FieldValue::from(sys.tiles)),
            ("l2_banks", FieldValue::from(sys.l2_banks)),
            ("l2_kb", FieldValue::from(sys.l2_kb)),
            ("noc_bw", FieldValue::from(sys.noc_bw_bytes)),
            ("score", FieldValue::from(score)),
        ]),
        None => fields.push(("feasible", FieldValue::from(false))),
    }
    c.emit("dse.system", &fields);
}

/// The canonical selection predicate: prefer strictly better scores; on
/// (near-)ties prefer MORE tiles — the paper's DSE "greedily consumes as
/// many resources as possible, even if there is no parallelism" (Q4),
/// which is what pushes overlays to 81-97% LUT occupancy. The rule is
/// order-dependent, so the candidate walk order is part of the contract.
fn beats(best: &Option<(SystemParams, f64)>, sys: &SystemParams, score: f64) -> bool {
    match best {
        None => true,
        Some((b_sys, b_score)) => {
            score > b_score * 1.001 || (score >= b_score * 0.999 && sys.tiles > b_sys.tiles)
        }
    }
}

/// Whether the truthy value of [`beats`] is reachable for *any* score
/// `<= upper`: both branches of the predicate are monotone nondecreasing
/// in `score`, so if the upper bound itself cannot be selected, no score
/// it dominates can be either. The `1e-9` relative slack absorbs f64
/// rounding in the geomean of per-workload upper bounds.
fn upper_bound_can_win(best: &Option<(SystemParams, f64)>, sys: &SystemParams, upper: f64) -> bool {
    let u = upper * (1.0 + 1e-9);
    beats(best, sys, u)
}

/// Simulator-backed system DSE: choose the best system parameters for an
/// accelerator ADG by running the cycle-level flow simulator on every
/// admitted grid point, batching sibling points over warm per-workload
/// [`SimBatch`] templates. With `prune`, grid points whose analytic score
/// upper bound cannot beat the incumbent are skipped before simulation —
/// provably without changing the winner. Returns `None` when not even a
/// single tile fits the budget.
///
/// With `OVERGEN_SIM_ORACLE=1`, a silent exhaustive shadow sweep runs
/// beside the pruned one and the function panics if the winners (params
/// or exact score bits) diverge — the differential oracle the sim test
/// harness drives across all workloads.
pub fn system_dse_sim(
    adg: &Adg,
    per_workload: &[(&Mdfg, &Schedule, f64)], // (mdfg, schedule, weight)
    model: &dyn ResourceModel,
    cfg: &SystemDseConfig,
    sim_cfg: &SimConfig,
    prune: bool,
) -> Option<(SystemParams, f64)> {
    let oracle = matches!(
        std::env::var("OVERGEN_SIM_ORACLE").as_deref(),
        Ok("1") | Ok("true") | Ok("yes")
    );
    sim_sweep(adg, per_workload, model, cfg, sim_cfg, prune, oracle)
}

/// [`system_dse_sim`] with the oracle switch as an argument.
fn sim_sweep(
    adg: &Adg,
    per_workload: &[(&Mdfg, &Schedule, f64)],
    model: &dyn ResourceModel,
    cfg: &SystemDseConfig,
    sim_cfg: &SimConfig,
    prune: bool,
    oracle: bool,
) -> Option<(SystemParams, f64)> {
    let _span = span!("dse.system", max_tiles = cfg.max_tiles);
    let mut scorer = Simulate {
        batches: per_workload
            .iter()
            .map(|(m, s, _)| SimBatch::new(m, s, adg, sim_cfg))
            .collect(),
        weights: per_workload.iter().map(|(_, _, w)| *w).collect(),
        prune,
        shadow: false,
        scores: Vec::with_capacity(per_workload.len()),
    };
    let grid = Grid::new(cfg);
    let tile = tile_breakdown(adg, model);
    let s = sweep(cfg, &grid, &tile, &mut scorer);
    if oracle {
        scorer.prune = false;
        scorer.shadow = true;
        let shadow = sweep(cfg, &grid, &tile, &mut scorer);
        let bits = |b: &Option<(SystemParams, f64)>| b.map(|(p, v)| (p, v.to_bits()));
        assert!(
            bits(&s.best) == bits(&shadow.best),
            "sim oracle: pruned winner {:?} != exhaustive winner {:?} \
             (pruned {} of {} candidates)",
            s.best,
            shadow.best,
            s.pruned,
            s.candidates,
        );
    }
    // Sibling-reuse hits accumulated by the pruned sweep's batches (the
    // shadow sweep bypasses the cache, so the tally is oracle-invariant).
    let reused: u64 = scorer.batches.iter().map(SimBatch::cache_hits).sum();
    if let Some(c) = overgen_telemetry::current() {
        let reg = c.registry();
        reg.counter("sim.analytic.pruned").add(s.pruned);
        reg.counter("sim.analytic.admitted").add(s.admitted);
        reg.counter("sim.batch.reuse").add(reused);
    }
    system_event(
        &s,
        &[
            ("pruned", FieldValue::from(s.pruned)),
            ("admitted", FieldValue::from(s.admitted)),
            ("reused", FieldValue::from(reused)),
        ],
    );
    s.best
}

#[cfg(test)]
mod tests {
    use super::*;
    use overgen_adg::{mesh, MeshSpec, SysAdg};
    use overgen_compiler::{lower, LowerChoices};
    use overgen_ir::{expr, DataType, KernelBuilder, Suite};
    use overgen_model::{breakdown, estimate_ipc, AnalyticModel, ComponentKind, MlpResourceModel};
    use overgen_telemetry::{Collector, Rng};

    use crate::rewrite::{RuleSet, TransformCtx};
    use crate::Dse;

    /// The per-point Estimate sweep as it stood before the tile was sized
    /// once: a fresh `SysAdg`, a full per-node `breakdown` and a one-shot
    /// `estimate_ipc` at every grid point, folded serially. The oracle the
    /// precompiled sweep must match bit for bit.
    fn reference_system_dse(
        adg: &Adg,
        per_workload: &[(&Mdfg, &Placement, f64)],
        model: &dyn ResourceModel,
        cfg: &SystemDseConfig,
    ) -> Option<(SystemParams, f64)> {
        let _span = span!("dse.system", max_tiles = cfg.max_tiles);
        let spad_bw: f64 = adg
            .nodes()
            .filter_map(|(_, n)| n.as_spad().map(|s| f64::from(s.bw_bytes)))
            .sum();
        let mut candidates = 0u64;
        let mut over_budget = 0u64;
        let mut best: Option<(SystemParams, f64)> = None;
        for tiles in 1..=cfg.max_tiles {
            for &l2_banks in &cfg.l2_banks_grid {
                for &l2_kb in &cfg.l2_kb_grid {
                    for &noc_bw in &cfg.noc_bw_grid {
                        let sys = SystemParams {
                            tiles,
                            l2_banks,
                            l2_kb,
                            noc_bw_bytes: noc_bw,
                            dram_channels: cfg.dram_channels,
                        };
                        candidates += 1;
                        let sys_adg = SysAdg::new(adg.clone(), sys);
                        let used = breakdown(&sys_adg, model).total();
                        if !cfg.device.fits(&used, cfg.util_cap) {
                            over_budget += 1;
                            continue;
                        }
                        let ipcs: Vec<(f64, f64)> = per_workload
                            .iter()
                            .map(|(m, p, w)| (estimate_ipc(m, &sys, spad_bw, p).ipc, *w))
                            .collect();
                        let score = weighted_geomean_ipc(&ipcs);
                        if beats(&best, &sys, score) {
                            best = Some((sys, score));
                        }
                    }
                }
            }
        }
        match best {
            Some((sys, score)) => overgen_telemetry::event!(
                "dse.system",
                candidates = candidates,
                over_budget = over_budget,
                tiles = sys.tiles,
                l2_banks = sys.l2_banks,
                l2_kb = sys.l2_kb,
                noc_bw = sys.noc_bw_bytes,
                score = score,
            ),
            None => overgen_telemetry::event!(
                "dse.system",
                candidates = candidates,
                over_budget = over_budget,
                feasible = false,
            ),
        }
        best
    }

    /// Run `f` under a fresh ring collector; return its result and trace.
    fn traced<T>(f: impl FnOnce() -> T) -> (T, String) {
        let (collector, ring) = Collector::ring(1 << 12);
        let out = {
            let _install = overgen_telemetry::install(collector);
            f()
        };
        (out, ring.to_jsonl())
    }

    /// The precompiled sweep, untabled and tabled, against the per-point
    /// oracle over generated domains: the seed meshes plus seeded rewrite
    /// chains of them, the analytic and a trained MLP resource model, the
    /// default grid, a custom grid and a device too small for one tile.
    /// Winner, score bits and the `dse.system` event must agree. One set of
    /// score tables per grid serves every ADG and resource model, so later
    /// tiles read scores that earlier tiles filled at a different
    /// feasibility.
    #[test]
    fn precompiled_sweep_matches_the_per_point_oracle() {
        let kernels_mdfgs = [fir_mdfg(1), fir_mdfg(2), mdfg(1024, 1), mdfg(65536, 4)];
        let placements: Vec<Placement> = kernels_mdfgs.iter().map(Placement::from_prefs).collect();
        let streamed = Placement::default();
        let domains: Vec<Vec<(&Mdfg, &Placement, f64)>> = vec![
            vec![(&kernels_mdfgs[1], &placements[1], 1.0)],
            vec![
                (&kernels_mdfgs[0], &placements[0], 2.0),
                (&kernels_mdfgs[2], &streamed, 1.0),
            ],
            kernels_mdfgs
                .iter()
                .zip(&placements)
                .enumerate()
                .map(|(i, (m, p))| (m, p, 0.5 + i as f64))
                .collect(),
        ];

        let mut adgs = vec![mesh(&MeshSpec::default()), mesh(&MeshSpec::general())];
        let kernels = [KernelBuilder::new("k", Suite::Dsp, DataType::I64)
            .array_input("a", 64)
            .array_output("c", 64)
            .loop_const("i", 64)
            .assign(
                "c",
                expr::idx("i"),
                expr::load("a", expr::idx("i")) * expr::load("a", expr::idx("i")),
            )
            .build()
            .unwrap()];
        let cap_pool = Dse::cap_pool(&kernels);
        for seed in [3u64, 17] {
            let mut rng = Rng::seed_from_u64(seed);
            let mut adg = mesh(&MeshSpec::default());
            for step in 0..6 {
                let mut ctx = TransformCtx {
                    cap_pool: &cap_pool,
                    schedules: &mut [],
                    preserving: false,
                };
                RuleSet::legacy().apply_random(&mut adg, &mut ctx, &mut rng, step);
            }
            assert_ne!(adg.fingerprint(), adgs[0].fingerprint(), "seed {seed}");
            adgs.push(adg);
        }

        let sizes = ComponentKind::ALL.into_iter().map(|k| (k, 200)).collect();
        let mlp = MlpResourceModel::train(&sizes, 11);
        let models: [&dyn ResourceModel; 2] = [&AnalyticModel, &mlp];

        let tiny = SystemDseConfig {
            device: FpgaDevice {
                name: "tiny",
                total: overgen_model::Resources {
                    lut: 10_000.0,
                    ff: 20_000.0,
                    bram: 50.0,
                    dsp: 100.0,
                },
            },
            max_tiles: 4,
            ..Default::default()
        };
        let custom = SystemDseConfig {
            max_tiles: 12,
            l2_banks_grid: vec![16, 1, 4],
            l2_kb_grid: vec![64, 4096],
            noc_bw_grid: vec![128, 16, 32],
            dram_channels: 2,
            util_cap: 0.6,
            ..Default::default()
        };
        let grids = [SystemDseConfig::default(), custom, tiny];

        let tables: Vec<ScoreTables> = grids.iter().map(ScoreTables::new).collect();
        let mut sweeps = 0;
        let mut feasible = 0;
        let mut infeasible = 0;
        for (a, adg) in adgs.iter().enumerate() {
            for (mi, model) in models.iter().enumerate() {
                for (gi, cfg) in grids.iter().enumerate() {
                    let per = &domains[(a + mi + gi) % domains.len()];
                    let (want, want_trace) = traced(|| reference_system_dse(adg, per, *model, cfg));
                    match want {
                        Some(_) => feasible += 1,
                        None => infeasible += 1,
                    }
                    let label = format!("adg {a} model {mi} grid {gi}");
                    let bits = |r: Option<(SystemParams, f64)>| r.map(|(s, v)| (s, v.to_bits()));
                    let (got, got_trace) = traced(|| system_dse(adg, per, *model, cfg, 1));
                    assert_eq!(bits(want), bits(got), "{label}");
                    assert_eq!(want_trace, got_trace, "{label}");
                    let (tabled, tabled_trace) =
                        traced(|| estimate_sweep(adg, per, *model, cfg, Some(&tables[gi])));
                    assert_eq!(bits(want), bits(tabled), "{label} tabled");
                    assert_eq!(want_trace, tabled_trace, "{label} tabled");
                    sweeps += 1;
                }
            }
        }
        assert!(feasible > 0 && infeasible > 0, "{feasible} / {infeasible}");
        let made: usize = tables.iter().map(ScoreTables::len).sum();
        assert!(made < sweeps, "{made} tables for {sweeps} sweeps");
    }

    /// Table keys are exact bits: inputs that `==` or a rounding would
    /// merge still get separate tables, and only an identical input shares
    /// one.
    #[test]
    fn score_tables_key_on_exact_bits() {
        let m = fir_mdfg(2);
        let perf = vec![(PerfSummary::new(&m, &Placement::from_prefs(&m)), 1.0)];
        let tables = ScoreTables::new(&SystemDseConfig::default());
        let at = |spad_bw: f64, weight: f64| {
            let perf: Vec<_> = perf.iter().map(|(p, _)| (p.clone(), weight)).collect();
            tables.table(&perf, spad_bw)
        };
        let base = at(64.0, 1.0);
        assert!(Arc::ptr_eq(&base, &at(64.0, 1.0)));
        assert_eq!(tables.len(), 1);
        assert!(!Arc::ptr_eq(&at(0.0, 1.0), &at(-0.0, 1.0)));
        assert!(!Arc::ptr_eq(&base, &at(64.0f64.next_up(), 1.0)));
        assert!(!Arc::ptr_eq(&base, &at(64.0, 1.0f64.next_up())));
        assert_eq!(base.lock().unwrap().len(), 512);
        assert_eq!(tables.len(), 5);
        let narrow = ScoreTables::new(&SystemDseConfig {
            noc_bw_grid: vec![32],
            ..SystemDseConfig::default()
        });
        assert_eq!(narrow.table(&perf, 64.0).lock().unwrap().len(), 256);
    }

    fn mdfg(n: u64, unroll: u32) -> Mdfg {
        let k = KernelBuilder::new("vecadd", Suite::Dsp, DataType::I64)
            .array_input("a", n)
            .array_input("b", n)
            .array_output("c", n)
            .loop_const("i", n)
            .assign(
                "c",
                expr::idx("i"),
                expr::load("a", expr::idx("i")) + expr::load("b", expr::idx("i")),
            )
            .build()
            .unwrap();
        lower(
            &k,
            0,
            &LowerChoices {
                unroll,
                ..Default::default()
            },
        )
        .unwrap()
    }

    /// A compute-bound, high-reuse kernel (FIR) whose hot array sits in a
    /// scratchpad: tile count should scale performance.
    fn fir_mdfg(unroll: u32) -> Mdfg {
        let k = KernelBuilder::new("fir", Suite::Dsp, DataType::I64)
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
            .unwrap();
        lower(
            &k,
            0,
            &LowerChoices {
                unroll,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn small_tile_gets_many_copies() {
        let adg = mesh(&MeshSpec::default());
        let m = fir_mdfg(2);
        let placement = Placement::from_prefs(&m);
        let per = vec![(&m, &placement, 1.0)];
        let (sys, score) =
            system_dse(&adg, &per, &AnalyticModel, &SystemDseConfig::default(), 1).unwrap();
        assert!(score > 0.0);
        // a tiny accelerator tile running a compute-bound kernel should
        // replicate several times
        assert!(sys.tiles >= 4, "tiles {}", sys.tiles);
    }

    #[test]
    fn general_tile_fits_fewer_copies() {
        let small = mesh(&MeshSpec::default());
        let general = mesh(&MeshSpec::general());
        let m = fir_mdfg(2);
        let placement = Placement::from_prefs(&m);
        let per = vec![(&m, &placement, 1.0)];
        let cfg = SystemDseConfig::default();
        let (s_small, _) = system_dse(&small, &per, &AnalyticModel, &cfg, 1).unwrap();
        let (s_general, _) = system_dse(&general, &per, &AnalyticModel, &cfg, 1).unwrap();
        assert!(s_general.tiles <= 4, "general tiles {}", s_general.tiles);
        assert!(s_small.tiles > s_general.tiles);
    }

    #[test]
    fn dram_bound_kernel_is_tile_insensitive() {
        // Streaming vecadd with no reuse: DRAM bandwidth caps whole-FPGA
        // IPC, so tile count barely moves the score (the §III-C
        // "balancing bandwidths" trade-off).
        let adg = mesh(&MeshSpec::default());
        let m = mdfg(65536, 2);
        let placement = Placement::default();
        let per = vec![(&m, &placement, 1.0)];
        let (_, score) =
            system_dse(&adg, &per, &AnalyticModel, &SystemDseConfig::default(), 1).unwrap();
        let one_tile = overgen_model::estimate_ipc(
            &m,
            &SystemParams {
                tiles: 1,
                ..SystemParams::default()
            },
            0.0,
            &placement,
        )
        .ipc;
        assert!(score < one_tile * 4.0, "score {score} vs 1-tile {one_tile}");
    }

    #[test]
    fn none_when_budget_too_small() {
        let adg = mesh(&MeshSpec::general());
        let m = mdfg(1024, 1);
        let placement = Placement::default();
        let per = vec![(&m, &placement, 1.0)];
        let tiny_device = FpgaDevice {
            name: "tiny",
            total: overgen_model::Resources {
                lut: 10_000.0,
                ff: 20_000.0,
                bram: 50.0,
                dsp: 100.0,
            },
        };
        let cfg = SystemDseConfig {
            device: tiny_device,
            ..Default::default()
        };
        assert!(system_dse(&adg, &per, &AnalyticModel, &cfg, 1).is_none());
    }

    fn sched_for(adg: &Adg, m: &Mdfg) -> Schedule {
        let sys = SysAdg::new(adg.clone(), SystemParams::default());
        overgen_scheduler::schedule(m, &sys, None).unwrap()
    }

    /// A reduced grid that keeps the debug-build sim sweep quick.
    fn small_cfg() -> SystemDseConfig {
        SystemDseConfig {
            max_tiles: 4,
            l2_banks_grid: vec![4, 16],
            l2_kb_grid: vec![256, 2048],
            noc_bw_grid: vec![32, 64],
            ..Default::default()
        }
    }

    #[test]
    fn sim_backend_pruned_matches_exhaustive() {
        let adg = mesh(&MeshSpec::default());
        let m = fir_mdfg(2);
        let s = sched_for(&adg, &m);
        let per = vec![(&m, &s, 1.0)];
        let cfg = small_cfg();
        let sim_cfg = overgen_sim::SimConfig::default();
        let exhaustive = system_dse_sim(&adg, &per, &AnalyticModel, &cfg, &sim_cfg, false);
        let pruned = system_dse_sim(&adg, &per, &AnalyticModel, &cfg, &sim_cfg, true);
        let (e, p) = (exhaustive.unwrap(), pruned.unwrap());
        assert_eq!(e.0, p.0);
        assert_eq!(e.1.to_bits(), p.1.to_bits());
    }

    #[test]
    fn sim_backend_none_when_budget_too_small() {
        let adg = mesh(&MeshSpec::general());
        let m = mdfg(1024, 1);
        let s = sched_for(&adg, &m);
        let per = vec![(&m, &s, 1.0)];
        let tiny_device = FpgaDevice {
            name: "tiny",
            total: overgen_model::Resources {
                lut: 10_000.0,
                ff: 20_000.0,
                bram: 50.0,
                dsp: 100.0,
            },
        };
        let cfg = SystemDseConfig {
            device: tiny_device,
            ..small_cfg()
        };
        let sim_cfg = overgen_sim::SimConfig::default();
        assert!(system_dse_sim(&adg, &per, &AnalyticModel, &cfg, &sim_cfg, true).is_none());
    }

    #[test]
    fn sim_backend_oracle_mode_agrees() {
        // With the oracle on, the pruned sweep self-checks against a
        // shadow exhaustive sweep and panics on divergence; surviving the
        // call IS the assertion.
        let adg = mesh(&MeshSpec::default());
        let m = fir_mdfg(2);
        let s = sched_for(&adg, &m);
        let per = vec![(&m, &s, 1.0)];
        let cfg = small_cfg();
        let sim_cfg = overgen_sim::SimConfig::default();
        let got = sim_sweep(&adg, &per, &AnalyticModel, &cfg, &sim_cfg, true, true);
        assert!(got.is_some());
    }

    #[test]
    fn custom_grids_restrict_the_search() {
        let adg = mesh(&MeshSpec::default());
        let m = fir_mdfg(2);
        let placement = Placement::from_prefs(&m);
        let per = vec![(&m, &placement, 1.0)];
        let cfg = SystemDseConfig {
            l2_banks_grid: vec![8],
            l2_kb_grid: vec![512],
            noc_bw_grid: vec![64],
            ..Default::default()
        };
        let (sys, _) = system_dse(&adg, &per, &AnalyticModel, &cfg, 1).unwrap();
        assert_eq!(sys.l2_banks, 8);
        assert_eq!(sys.l2_kb, 512);
        assert_eq!(sys.noc_bw_bytes, 64);
    }
}
