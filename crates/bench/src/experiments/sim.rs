//! Batched/pruned simulator sweep vs the cold exhaustive baseline
//! (`BENCH_sim.json`).
//!
//! The simulator-backed system DSE (`system_dse_sim`) earns its keep two
//! ways: grid points share one warm [`SimBatch`](overgen_sim::SimBatch)
//! template per compiled schedule instead of rebuilding stream state from
//! the mDFG at every point, and the analytic lower bound prunes points
//! that provably cannot beat the incumbent. This benchmark wall-clocks both against what every
//! proposal would cost without them — a cold exhaustive fold that calls
//! `simulate()` (fresh `SysAdg`, fresh stream extraction) on every
//! feasible grid point — across all 19 paper workloads on the general
//! overlay, and asserts the winner never moves.
//!
//! The per-workload speedup is baseline seconds over pruned seconds (best
//! of [`REPS`] each); the record reports the median, minimum, and a
//! `winner_match_all` flag the CI gate pins at 1.

use overgen::Overlay;
use overgen_adg::{SysAdg, SystemParams};
use overgen_dse::{system_dse_sim, SystemDseConfig};
use overgen_model::{breakdown, weighted_geomean_ipc, AnalyticModel};
use overgen_sim::{simulate, SimConfig};
use overgen_telemetry::{fs::write_atomic, json};
use overgen_workloads as workloads;

use crate::harness::{best_of, counter, median, results_dir, seed};
use crate::table::Table;

/// Timing repetitions per path (minimum wins, to shed scheduler noise).
pub const REPS: usize = 2;

/// One workload's measurements.
#[derive(Debug, Clone)]
pub struct SimRow {
    pub name: String,
    /// Grid points that fit the device budget.
    pub feasible: u64,
    /// Feasible points skipped by the analytic bound.
    pub pruned: u64,
    /// Feasible points the pruned sweep actually simulated.
    pub admitted: u64,
    /// Admitted points answered from the sibling-reuse cache.
    pub reused: u64,
    /// Cold exhaustive fold seconds (best of [`REPS`]).
    pub baseline_s: f64,
    /// `system_dse_sim` with pruning, seconds (best of [`REPS`]).
    pub pruned_s: f64,
    /// `baseline_s / pruned_s`.
    pub speedup: f64,
    /// Same winning parameters and exact score bits on both paths.
    pub winner_match: bool,
}

/// Everything the benchmark measured.
#[derive(Debug, Clone)]
pub struct SimReportBench {
    pub rows: Vec<SimRow>,
    pub median_speedup: f64,
    pub min_speedup: f64,
    pub max_speedup: f64,
    pub winner_match_all: bool,
}

/// The sweep grid: a realistic system-DSE sweep — the full tile range the
/// device budget can admit plus four-point memory-system axes (512 points,
/// 64 memory configurations per tile count). Batching pays off exactly when
/// many sibling points share one compiled schedule, so the grid must be
/// sized like the searches `system_dse_sim` actually serves, not like the
/// unit-test grids.
fn grid() -> SystemDseConfig {
    SystemDseConfig {
        max_tiles: 8,
        l2_banks_grid: vec![2, 4, 8, 16],
        l2_kb_grid: vec![256, 512, 1024, 2048],
        noc_bw_grid: vec![16, 32, 64, 128],
        ..Default::default()
    }
}

/// The selection predicate of the system DSE fold, replicated here so the
/// baseline is a true differential check against `system_dse_sim` rather
/// than a call into the code under test: prefer strictly better scores; on
/// (near-)ties prefer more tiles. Must mirror `beats` in
/// `crates/dse/src/system.rs`.
fn beats(best: &Option<(SystemParams, f64)>, sys: &SystemParams, score: f64) -> bool {
    match best {
        None => true,
        Some((b_sys, b_score)) => {
            score > b_score * 1.001 || (score >= b_score * 0.999 && sys.tiles > b_sys.tiles)
        }
    }
}

/// The pre-batching cost model: walk the full grid in canonical order and
/// call the public `simulate()` entry point on every feasible point — a
/// fresh `SysAdg` and a fresh stream extraction per point, no warm state,
/// no pruning. Returns the winner and the feasible-point count.
fn exhaustive_cold(
    overlay: &Overlay,
    app: &overgen::CompiledApp,
    cfg: &SystemDseConfig,
    sim_cfg: &SimConfig,
) -> (Option<(SystemParams, f64)>, u64) {
    let mut best: Option<(SystemParams, f64)> = None;
    let mut feasible = 0u64;
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
                    let sys_adg = SysAdg::new(overlay.sys_adg.adg.clone(), sys);
                    let used = breakdown(&sys_adg, &AnalyticModel).total();
                    if !cfg.device.fits(&used, cfg.util_cap) {
                        continue;
                    }
                    feasible += 1;
                    let report = simulate(&app.mdfg, &app.schedule, &sys_adg, sim_cfg);
                    let score = weighted_geomean_ipc(&[(report.ipc, 1.0)]);
                    if beats(&best, &sys, score) {
                        best = Some((sys, score));
                    }
                }
            }
        }
    }
    (best, feasible)
}

/// Run the comparison and write `results/BENCH_sim.json`.
pub fn run() -> SimReportBench {
    let overlay = Overlay::general();
    let cfg = grid();
    let sim_cfg = SimConfig::default();
    let mut rows = Vec::new();
    for k in workloads::all() {
        let app = overlay
            .compile(&k)
            .unwrap_or_else(|e| panic!("{} failed to compile: {e}", k.name()));

        let ((baseline, feasible), baseline_s) =
            best_of(REPS, || exhaustive_cold(&overlay, &app, &cfg, &sim_cfg));

        let per = vec![(&app.mdfg, &app.schedule, 1.0)];
        let (pruned_before, admitted_before, reused_before) = (
            counter("sim.analytic.pruned"),
            counter("sim.analytic.admitted"),
            counter("sim.batch.reuse"),
        );
        let (candidate, pruned_s) = best_of(REPS, || {
            system_dse_sim(
                &overlay.sys_adg.adg,
                &per,
                &AnalyticModel,
                &cfg,
                &sim_cfg,
                true,
            )
        });
        // Each repetition adds the same deterministic tallies.
        let pruned = (counter("sim.analytic.pruned") - pruned_before) / REPS as u64;
        let admitted = (counter("sim.analytic.admitted") - admitted_before) / REPS as u64;
        let reused = (counter("sim.batch.reuse") - reused_before) / REPS as u64;

        let winner_match = match (&baseline, &candidate) {
            (None, None) => true,
            (Some((s_b, v_b)), Some((s_c, v_c))) => s_b == s_c && v_b.to_bits() == v_c.to_bits(),
            _ => false,
        };
        rows.push(SimRow {
            name: k.name().to_string(),
            feasible,
            pruned,
            admitted,
            reused,
            baseline_s,
            pruned_s,
            speedup: baseline_s / pruned_s.max(1e-12),
            winner_match,
        });
    }

    let mut speedups: Vec<f64> = rows.iter().map(|r| r.speedup).collect();
    speedups.sort_by(f64::total_cmp);
    let report = SimReportBench {
        median_speedup: median(&speedups),
        min_speedup: speedups.first().copied().unwrap_or(0.0),
        max_speedup: speedups.last().copied().unwrap_or(0.0),
        winner_match_all: rows.iter().all(|r| r.winner_match),
        rows,
    };

    let record = json::Obj::new()
        .str("bench", "sim")
        .u64("seed", seed())
        .with("grid", |o| {
            json::Obj::into(o)
                .u64(
                    "points",
                    u64::from(cfg.max_tiles)
                        * (cfg.l2_banks_grid.len() * cfg.l2_kb_grid.len() * cfg.noc_bw_grid.len())
                            as u64,
                )
                .u64("max_tiles", u64::from(cfg.max_tiles))
                .finish();
        })
        .with("workloads", |o| {
            json::arr(o, &report.rows, |o, r| {
                json::Obj::into(o)
                    .str("name", &r.name)
                    .u64("feasible", r.feasible)
                    .u64("pruned", r.pruned)
                    .u64("admitted", r.admitted)
                    .u64("reused", r.reused)
                    .f64("baseline_seconds", r.baseline_s)
                    .f64("pruned_seconds", r.pruned_s)
                    .f64("speedup", r.speedup)
                    .bool("winner_match", r.winner_match)
                    .finish();
            });
        })
        .with("summary", |o| {
            json::Obj::into(o)
                .u64("workloads", report.rows.len() as u64)
                .f64("median_speedup", report.median_speedup)
                .f64("min_speedup", report.min_speedup)
                .f64("max_speedup", report.max_speedup)
                .bool("winner_match_all", report.winner_match_all)
                .u64("pruned", report.rows.iter().map(|r| r.pruned).sum())
                .u64("admitted", report.rows.iter().map(|r| r.admitted).sum())
                .u64("reused", report.rows.iter().map(|r| r.reused).sum())
                .finish();
        })
        .finish();
    let path = results_dir().join("BENCH_sim.json");
    if let Err(e) = write_atomic(&path, format!("{record}\n").as_bytes()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    report
}

/// Render.
pub fn render(r: &SimReportBench) -> String {
    let mut t = Table::new([
        "workload",
        "feasible",
        "pruned",
        "admitted",
        "reused",
        "cold (ms)",
        "warm (ms)",
        "speedup",
        "winner",
    ]);
    for row in &r.rows {
        t.row([
            row.name.clone(),
            row.feasible.to_string(),
            row.pruned.to_string(),
            row.admitted.to_string(),
            row.reused.to_string(),
            format!("{:.1}", row.baseline_s * 1e3),
            format!("{:.1}", row.pruned_s * 1e3),
            format!("{:.1}x", row.speedup),
            if row.winner_match { "ok" } else { "DIVERGED" }.into(),
        ]);
    }
    format!(
        "Simulator-backed system DSE: pruned warm batches vs cold exhaustive\n\n{t}\n\
         median speedup {:.1}x (min {:.1}x, max {:.1}x), winners {}\n\
         Record: results/BENCH_sim.json\n",
        r.median_speedup,
        r.min_speedup,
        r.max_speedup,
        if r.winner_match_all {
            "identical on every workload"
        } else {
            "DIVERGED"
        },
    )
}
