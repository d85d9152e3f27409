//! The nested system-level DSE (§V-A): for a candidate accelerator ADG,
//! exhaustively search tile count, L2 banks, L2 capacity, and NoC bandwidth
//! under the FPGA resource budget; "it is relatively inexpensive to nest
//! system DSE inside of spatial DSE".

use overgen_adg::{Adg, SystemParams};
use overgen_mdfg::Mdfg;
use overgen_model::resources::FpgaDevice;
use overgen_model::{
    spad_bandwidth, tile_breakdown, weighted_geomean_ipc, PerfSummary, Placement,
    ResourceBreakdown, ResourceModel,
};
use overgen_scheduler::Schedule;
use overgen_sim::{SimBatch, SimConfig};
use overgen_telemetry::{event, span};

use crate::pool::fan_out;

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
/// sweep and so evaluation-cache keys can cover non-default grids.
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

impl SystemDseConfig {
    /// Every grid point with `tiles` tiles, in canonical sweep order
    /// (L2 banks, then L2 capacity, then NoC bandwidth).
    fn points(&self, tiles: u32) -> impl Iterator<Item = SystemParams> + '_ {
        self.l2_banks_grid.iter().flat_map(move |&l2_banks| {
            self.l2_kb_grid.iter().flat_map(move |&l2_kb| {
                self.noc_bw_grid.iter().map(move |&noc_bw| SystemParams {
                    tiles,
                    l2_banks,
                    l2_kb,
                    noc_bw_bytes: noc_bw,
                    dram_channels: self.dram_channels,
                })
            })
        })
    }

    /// Whether `tile` replicated to `sys` fits the device budget.
    fn fits(&self, tile: &ResourceBreakdown, sys: &SystemParams) -> bool {
        self.device
            .fits(&tile.replicated(sys).total(), self.util_cap)
    }
}

/// One tile-count slice of the sweep: every (banks, kb, noc) combination
/// scored in grid order, plus the slice's candidate/over-budget tallies.
struct TileSlice {
    scored: Vec<(SystemParams, f64)>,
    candidates: u64,
    over_budget: u64,
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
/// With `threads > 1` the per-tile-count slices of the sweep are scored on
/// a scoped worker pool; the winner is still selected by folding every
/// candidate in the canonical serial order, so the choice (including the
/// order-dependent near-tie handling below) is identical for any thread
/// count.
pub fn system_dse(
    adg: &Adg,
    per_workload: &[(&Mdfg, &Placement, f64)], // (mdfg, placement, weight)
    model: &dyn ResourceModel,
    cfg: &SystemDseConfig,
    threads: usize,
) -> Option<(SystemParams, f64)> {
    let _span = span!("dse.system", max_tiles = cfg.max_tiles);
    let spad_bw = spad_bandwidth(adg);
    let tile = tile_breakdown(adg, model);
    let perf: Vec<(PerfSummary, f64)> = per_workload
        .iter()
        .map(|(m, p, w)| (PerfSummary::new(m, p), *w))
        .collect();

    let slices = fan_out(threads, (1..=cfg.max_tiles).collect(), |tiles| {
        let mut slice = TileSlice {
            scored: Vec::new(),
            candidates: 0,
            over_budget: 0,
        };
        let mut ipcs: Vec<(f64, f64)> = Vec::with_capacity(perf.len());
        for sys in cfg.points(tiles) {
            slice.candidates += 1;
            if !cfg.fits(&tile, &sys) {
                slice.over_budget += 1;
                continue;
            }
            ipcs.clear();
            ipcs.extend(
                perf.iter()
                    .map(|(p, w)| (p.estimate(&sys, spad_bw).ipc, *w)),
            );
            slice.scored.push((sys, weighted_geomean_ipc(&ipcs)));
        }
        slice
    });

    let mut candidates = 0u64;
    let mut over_budget = 0u64;
    let mut best: Option<(SystemParams, f64)> = None;
    // Fold in ascending-tile (= serial sweep) order: the near-tie rule
    // below depends on which candidate is seen first, so the fold order is
    // part of the function's contract.
    for slice in slices {
        candidates += slice.candidates;
        over_budget += slice.over_budget;
        for (sys, score) in slice.scored {
            if beats(&best, &sys, score) {
                best = Some((sys, score));
            }
        }
    }
    estimate_event(&best, candidates, over_budget);
    best
}

/// The `dse.system` event of an Estimate sweep.
fn estimate_event(best: &Option<(SystemParams, f64)>, candidates: u64, over_budget: u64) {
    match best {
        Some((sys, score)) => event!(
            "dse.system",
            candidates = candidates,
            over_budget = over_budget,
            tiles = sys.tiles,
            l2_banks = sys.l2_banks,
            l2_kb = sys.l2_kb,
            noc_bw = sys.noc_bw_bytes,
            score = *score,
        ),
        None => event!(
            "dse.system",
            candidates = candidates,
            over_budget = over_budget,
            feasible = false,
        ),
    }
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

/// Statistics from one simulator-backed sweep.
struct SimSweep {
    best: Option<(SystemParams, f64)>,
    candidates: u64,
    over_budget: u64,
    pruned: u64,
    admitted: u64,
}

/// Sum of sibling-reuse cache hits across a sweep's batches.
fn reuse_hits(batches: &[SimBatch]) -> u64 {
    batches.iter().map(SimBatch::cache_hits).sum()
}

/// Walk the grid in canonical order, scoring feasible points with warm
/// [`SimBatch`] runs behind the sibling-reuse cache. With `prune`, each
/// candidate's analytic score upper bound is tested against the *same
/// incumbent the exhaustive fold would hold at that position*; a
/// candidate is skipped only when the selection predicate provably
/// rejects it (see DESIGN.md §12), so the incumbent evolves identically
/// with pruning on or off. `shadow` suppresses the profiler phase timers
/// and bypasses the reuse cache (plain [`SimBatch::run`]), so the
/// oracle's duplicate sweep differentially checks pruning *and* reuse.
fn sweep_sim(
    tile: &ResourceBreakdown,
    batches: &mut [SimBatch],
    weights: &[f64],
    cfg: &SystemDseConfig,
    prune: bool,
    shadow: bool,
) -> SimSweep {
    let mut sweep = SimSweep {
        best: None,
        candidates: 0,
        over_budget: 0,
        pruned: 0,
        admitted: 0,
    };
    let mut scores: Vec<(f64, f64)> = Vec::with_capacity(batches.len());
    for tiles in 1..=cfg.max_tiles {
        for sys in cfg.points(tiles) {
            sweep.candidates += 1;
            if !cfg.fits(tile, &sys) {
                sweep.over_budget += 1;
                continue;
            }
            if prune {
                let _t = if shadow {
                    None
                } else {
                    overgen_telemetry::profile::maybe_phase(
                        overgen_telemetry::Phase::Analytic,
                        overgen_telemetry::profile::NO_CLASS,
                    )
                };
                scores.clear();
                for (batch, &w) in batches.iter().zip(weights) {
                    scores.push((batch.bound(&sys).ipc_upper, w));
                }
                let upper = weighted_geomean_ipc(&scores);
                if !upper_bound_can_win(&sweep.best, &sys, upper) {
                    sweep.pruned += 1;
                    continue;
                }
            }
            sweep.admitted += 1;
            let _t = if shadow {
                None
            } else {
                overgen_telemetry::profile::maybe_phase(
                    overgen_telemetry::Phase::Simulate,
                    overgen_telemetry::profile::NO_CLASS,
                )
            };
            scores.clear();
            for (batch, &w) in batches.iter_mut().zip(weights) {
                let r = if shadow {
                    batch.run(&sys)
                } else {
                    batch.run_cached(&sys)
                };
                scores.push((r.ipc, w));
            }
            let score = weighted_geomean_ipc(&scores);
            if beats(&sweep.best, &sys, score) {
                sweep.best = Some((sys, score));
            }
        }
    }
    sweep
}

/// Whether `OVERGEN_SIM_ORACLE` asks for the differential shadow sweep.
fn oracle_enabled() -> bool {
    matches!(
        std::env::var("OVERGEN_SIM_ORACLE").as_deref(),
        Ok("1") | Ok("true") | Ok("yes")
    )
}

/// Simulator-backed system DSE: choose the best system parameters for an
/// accelerator ADG by running the cycle-level flow simulator on every
/// admitted grid point, batching sibling points over warm per-workload
/// [`SimBatch`] templates. With `prune`, grid points whose analytic score
/// upper bound cannot beat the incumbent are skipped before simulation —
/// provably without changing the winner. Returns `None` when not even a
/// single tile fits the budget.
///
/// The sweep is fully serial: the selection rule is order-dependent and
/// the pruned/admitted tallies must be invariant in the caller's thread
/// count.
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
    let _span = span!("dse.system", max_tiles = cfg.max_tiles);
    let mut batches: Vec<SimBatch> = per_workload
        .iter()
        .map(|(m, s, _)| SimBatch::new(m, s, adg, sim_cfg))
        .collect();
    let weights: Vec<f64> = per_workload.iter().map(|(_, _, w)| *w).collect();
    let tile = tile_breakdown(adg, model);
    let sweep = sweep_sim(&tile, &mut batches, &weights, cfg, prune, false);
    if oracle_enabled() {
        let shadow = sweep_sim(&tile, &mut batches, &weights, cfg, false, true);
        let agree = match (&sweep.best, &shadow.best) {
            (None, None) => true,
            (Some((s_a, v_a)), Some((s_b, v_b))) => s_a == s_b && v_a.to_bits() == v_b.to_bits(),
            _ => false,
        };
        assert!(
            agree,
            "sim oracle: pruned winner {:?} != exhaustive winner {:?} \
             (pruned {} of {} candidates)",
            sweep.best, shadow.best, sweep.pruned, sweep.candidates,
        );
    }
    // Sibling-reuse hits accumulated by the pruned sweep's batches (the
    // shadow sweep bypasses the cache, so the tally is oracle-invariant).
    let reused = reuse_hits(&batches);
    if let Some(c) = overgen_telemetry::current() {
        c.registry()
            .counter("sim.analytic.pruned")
            .add(sweep.pruned);
        c.registry()
            .counter("sim.analytic.admitted")
            .add(sweep.admitted);
        c.registry().counter("sim.batch.reuse").add(reused);
    }
    match &sweep.best {
        Some((sys, score)) => event!(
            "dse.system",
            candidates = sweep.candidates,
            over_budget = sweep.over_budget,
            pruned = sweep.pruned,
            admitted = sweep.admitted,
            reused = reused,
            tiles = sys.tiles,
            l2_banks = sys.l2_banks,
            l2_kb = sys.l2_kb,
            noc_bw = sys.noc_bw_bytes,
            score = *score,
        ),
        None => event!(
            "dse.system",
            candidates = sweep.candidates,
            over_budget = sweep.over_budget,
            pruned = sweep.pruned,
            admitted = sweep.admitted,
            reused = reused,
            feasible = false,
        ),
    }
    sweep.best
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
        estimate_event(&best, candidates, over_budget);
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

    /// The precompiled sweep against the per-point oracle over generated
    /// domains: the seed meshes plus seeded rewrite chains of them, the
    /// analytic and a trained MLP resource model, the default grid, a
    /// custom grid and a device too small for one tile, at 1, 2 and 4
    /// threads. Winner, score bits and the `dse.system` event must agree.
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
                    for threads in [1, 2, 4] {
                        let label = format!("adg {a} model {mi} grid {gi} threads {threads}");
                        let (got, got_trace) =
                            traced(|| system_dse(adg, per, *model, cfg, threads));
                        assert_eq!(
                            want.map(|(s, v)| (s, v.to_bits())),
                            got.map(|(s, v)| (s, v.to_bits())),
                            "{label}"
                        );
                        assert_eq!(want_trace, got_trace, "{label}");
                    }
                }
            }
        }
        assert!(feasible > 0 && infeasible > 0, "{feasible} / {infeasible}");
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

    #[test]
    fn threaded_sweep_matches_serial() {
        let adg = mesh(&MeshSpec::default());
        let m = fir_mdfg(2);
        let placement = Placement::from_prefs(&m);
        let per = vec![(&m, &placement, 1.0)];
        let cfg = SystemDseConfig::default();
        let serial = system_dse(&adg, &per, &AnalyticModel, &cfg, 1);
        for threads in [2, 4, 7] {
            let par = system_dse(&adg, &per, &AnalyticModel, &cfg, threads);
            assert_eq!(serial, par, "threads={threads}");
        }
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
        // With the oracle env set, the pruned sweep self-checks against a
        // shadow exhaustive sweep and panics on divergence; surviving the
        // call IS the assertion.
        let adg = mesh(&MeshSpec::default());
        let m = fir_mdfg(2);
        let s = sched_for(&adg, &m);
        let per = vec![(&m, &s, 1.0)];
        let cfg = small_cfg();
        let sim_cfg = overgen_sim::SimConfig::default();
        std::env::set_var("OVERGEN_SIM_ORACLE", "1");
        let got = system_dse_sim(&adg, &per, &AnalyticModel, &cfg, &sim_cfg, true);
        std::env::remove_var("OVERGEN_SIM_ORACLE");
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
