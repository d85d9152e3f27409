//! Spatial placement sweep over tile counts (`BENCH_placement.json`).
//!
//! The placement model ([`overgen_model::placement`]) prices the axis the
//! scalar resource model cannot see: where tiles land on the VCU118's
//! clock-region/SLR grid, and what that does to the achievable clock
//! (§VI-D — the paper's quad-tile design closes at 92.87 MHz because of
//! multi-die congestion, not LUT count). This benchmark sweeps tile count
//! 1..=[`MAX_TILES`] for every paper workload on the general overlay,
//! places each point with [`SimpleGridPlacer`], and scores it as
//! estimated IPC scaled by the placed clock. Two invariants are recorded
//! for the CI gate:
//!
//! * **winner stability** — sweeping tile counts ascending and descending
//!   picks the same winner for every workload (the placement-aware score
//!   has no order-dependent ties);
//! * the congestion/wirelength medians, which pin the model's scale so a
//!   calibration change cannot slip through silently.

use std::time::Instant;

use overgen::Overlay;
use overgen_adg::{SysAdg, SystemParams};
use overgen_model::{
    accelerator_resources, estimate_ipc, AnalyticModel, ClockRegionGrid, PlacerKind,
};
use overgen_telemetry::{fs::write_atomic, json};
use overgen_workloads as workloads;

use crate::harness::{results_dir, seed};
use crate::table::Table;

/// Largest tile count the sweep considers (matches the system-DSE default).
const MAX_TILES: u32 = 8;

/// One workload's winning placement point.
#[derive(Debug, Clone)]
pub struct PlacementRow {
    pub name: String,
    /// Winning tile count (ascending sweep).
    pub tiles: u32,
    /// Clock regions per tile footprint at the winner.
    pub span: u32,
    /// NoC wirelength at the winner, in clock-region hops.
    pub wirelength: f64,
    /// Peak clock-region congestion at the winner.
    pub congestion: f64,
    /// SLR boundary crossings at the winner.
    pub slr_crossings: u64,
    /// Placed clock at the winner.
    pub fmax_mhz: f64,
    /// `ipc * fmax/100` at the winner.
    pub score: f64,
    /// Ascending and descending sweeps agree on the winner.
    pub winner_stable: bool,
    /// Wall-clock seconds for the whole sweep (all tile counts, both
    /// directions) — placement must stay negligible against scheduling.
    pub sweep_s: f64,
}

/// Everything the benchmark measured.
#[derive(Debug, Clone)]
pub struct PlacementReportBench {
    pub rows: Vec<PlacementRow>,
    pub winner_stable_all: bool,
    pub median_congestion: f64,
    pub median_wirelength: f64,
    pub max_congestion: f64,
    pub mean_fmax_mhz: f64,
}

/// Score one tile count: place, then scale estimated IPC by the placed
/// clock against a 100 MHz base.
fn score_point(
    overlay: &Overlay,
    app: &overgen::CompiledApp,
    tile: &overgen_model::Resources,
    grid: &ClockRegionGrid,
    tiles: u32,
) -> (f64, overgen_model::PlacementReport) {
    let sys = SystemParams {
        tiles,
        ..overlay.sys_adg.sys
    };
    let sys_adg = SysAdg::new(overlay.sys_adg.adg.clone(), sys);
    let rep = PlacerKind::SimpleGrid.placer().place(&sys_adg, tile, grid);
    let spad_bw: f64 = overlay
        .sys_adg
        .adg
        .nodes()
        .filter_map(|(_, n)| n.as_spad().map(|sp| f64::from(sp.bw_bytes)))
        .sum();
    let est = estimate_ipc(&app.mdfg, &sys, spad_bw, &app.schedule.placement);
    (est.ipc * rep.fmax_mhz / 100.0, rep)
}

fn median(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[sorted.len() / 2]
}

/// Run the sweep and write `results/BENCH_placement.json`.
pub fn run() -> PlacementReportBench {
    let overlay = Overlay::general();
    let grid = ClockRegionGrid::vcu118();
    let tile = accelerator_resources(&overlay.sys_adg.adg, &AnalyticModel);
    let mut rows = Vec::new();
    for k in workloads::all() {
        let app = overlay
            .compile(&k)
            .unwrap_or_else(|e| panic!("{} failed to compile: {e}", k.name()));

        let t = Instant::now();
        let mut best: Option<(u32, f64, overgen_model::PlacementReport)> = None;
        for tiles in 1..=MAX_TILES {
            let (score, rep) = score_point(&overlay, &app, &tile, &grid, tiles);
            if best.as_ref().is_none_or(|(_, b, _)| score > *b) {
                best = Some((tiles, score, rep));
            }
        }
        let mut best_desc: Option<(u32, f64)> = None;
        for tiles in (1..=MAX_TILES).rev() {
            let (score, _) = score_point(&overlay, &app, &tile, &grid, tiles);
            if best_desc.as_ref().is_none_or(|(_, b)| score > *b) {
                best_desc = Some((tiles, score));
            }
        }
        let sweep_s = t.elapsed().as_secs_f64();

        let (tiles, score, rep) = best.expect("MAX_TILES >= 1");
        let winner_stable = best_desc.map(|(t, _)| t) == Some(tiles);
        rows.push(PlacementRow {
            name: k.name().to_string(),
            tiles,
            span: rep.span,
            wirelength: rep.wirelength,
            congestion: rep.congestion,
            slr_crossings: rep.slr_crossings,
            fmax_mhz: rep.fmax_mhz,
            score,
            winner_stable,
            sweep_s,
        });
    }

    let mut congestions: Vec<f64> = rows.iter().map(|r| r.congestion).collect();
    congestions.sort_by(f64::total_cmp);
    let mut wirelengths: Vec<f64> = rows.iter().map(|r| r.wirelength).collect();
    wirelengths.sort_by(f64::total_cmp);
    let report = PlacementReportBench {
        winner_stable_all: rows.iter().all(|r| r.winner_stable),
        median_congestion: median(&congestions),
        median_wirelength: median(&wirelengths),
        max_congestion: congestions.last().copied().unwrap_or(0.0),
        mean_fmax_mhz: rows.iter().map(|r| r.fmax_mhz).sum::<f64>() / rows.len().max(1) as f64,
        rows,
    };

    let record = json::Obj::new()
        .str("bench", "placement")
        .u64("seed", seed())
        .with("grid", |o| {
            json::Obj::into(o)
                .str("placer", PlacerKind::SimpleGrid.name())
                .str("device", grid.device.name)
                .u64("cols", u64::from(grid.cols))
                .u64("rows", u64::from(grid.rows))
                .u64("rows_per_slr", u64::from(grid.rows_per_slr))
                .u64("max_tiles", u64::from(MAX_TILES))
                .finish();
        })
        .with("workloads", |o| {
            json::arr(o, &report.rows, |o, r| {
                json::Obj::into(o)
                    .str("name", &r.name)
                    .u64("tiles", u64::from(r.tiles))
                    .u64("span", u64::from(r.span))
                    .f64("wirelength", r.wirelength)
                    .f64("congestion", r.congestion)
                    .u64("slr_crossings", r.slr_crossings)
                    .f64("fmax_mhz", r.fmax_mhz)
                    .f64("score", r.score)
                    .bool("winner_stable", r.winner_stable)
                    .f64("sweep_seconds", r.sweep_s)
                    .finish();
            });
        })
        .with("summary", |o| {
            json::Obj::into(o)
                .u64("workloads", report.rows.len() as u64)
                .u64("winner_stable", u64::from(report.winner_stable_all))
                .f64("median_congestion", report.median_congestion)
                .f64("median_wirelength", report.median_wirelength)
                .f64("max_congestion", report.max_congestion)
                .f64("mean_fmax_mhz", report.mean_fmax_mhz)
                .finish();
        })
        .finish();
    let path = results_dir().join("BENCH_placement.json");
    if let Err(e) = write_atomic(&path, format!("{record}\n").as_bytes()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    report
}

/// Render.
pub fn render(r: &PlacementReportBench) -> String {
    let mut t = Table::new([
        "workload",
        "tiles",
        "span",
        "wirelen",
        "congest",
        "slr xings",
        "fmax (MHz)",
        "score",
        "stable",
    ]);
    for row in &r.rows {
        t.row([
            row.name.clone(),
            row.tiles.to_string(),
            row.span.to_string(),
            format!("{:.0}", row.wirelength),
            format!("{:.2}", row.congestion),
            row.slr_crossings.to_string(),
            format!("{:.1}", row.fmax_mhz),
            format!("{:.2}", row.score),
            if row.winner_stable { "ok" } else { "UNSTABLE" }.into(),
        ]);
    }
    format!(
        "Spatial placement sweep: tile count vs placed clock on the VCU118 grid\n\n{t}\n\
         median congestion {:.2}, median wirelength {:.0}, mean fmax {:.1} MHz, winners {}\n\
         Record: results/BENCH_placement.json\n",
        r.median_congestion,
        r.median_wirelength,
        r.mean_fmax_mhz,
        if r.winner_stable_all {
            "stable in both sweep directions"
        } else {
            "UNSTABLE"
        },
    )
}
