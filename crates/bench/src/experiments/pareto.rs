//! Constraint-aware DSE benchmark (`BENCH_pareto.json`).
//!
//! Two legs over the same domain and seed:
//!
//! 1. **Unconstrained** — the default weighted-geomean-IPC objective. Its
//!    [`ParetoFront`] (estimated IPC against the four accelerator resource
//!    channels) is the reference trade-off curve; each surviving point is
//!    emitted as a `bench.pareto.point` trace event.
//! 2. **Budgeted** — [`Objective::ConstrainedIpc`] under a deliberately
//!    tight device budget: the seed accelerator's footprint scaled by
//!    1.02, so almost any growth proposal overflows a channel. The leg
//!    must reject at least one proposal before system DSE
//!    (`dse.eval.infeasible > 0`) and land on a winner that admits under
//!    the budget — both are recorded as acceptance gates in the JSON.

use overgen_dse::{Dse, DseStats, Objective, ParetoFront};
use overgen_ir::Kernel;
use overgen_model::{accelerator_resources, AnalyticModel, DeviceBudget, Resources};
use overgen_telemetry::{event, fs::write_atomic, json};
use overgen_workloads as workloads;

use crate::harness::{dse_config, dse_iters, results_dir, seed};
use crate::table::Table;

/// Domain for both legs (a MachSuite slice, same as the repair and
/// checkpoint benches).
pub const DOMAIN: [&str; 3] = ["stencil-2d", "gemm", "ellpack"];

/// Everything the benchmark measured.
#[derive(Debug, Clone)]
pub struct ParetoReport {
    /// Final objective of the unconstrained leg.
    pub default_objective: f64,
    /// Final objective of the budgeted leg.
    pub constrained_objective: f64,
    /// The unconstrained leg's IPC-vs-resources frontier.
    pub frontier: ParetoFront,
    /// Frontier size of the budgeted leg.
    pub constrained_frontier: usize,
    /// The tight budget the second leg ran under.
    pub budget: DeviceBudget,
    /// Proposals the budget rejected before system DSE (gate: > 0).
    pub infeasible: usize,
    /// The budgeted winner fits its own budget (gate: true).
    pub winner_admitted: bool,
    /// Stats of the budgeted leg.
    pub stats: DseStats,
}

fn domain() -> Vec<Kernel> {
    DOMAIN
        .iter()
        .map(|n| workloads::by_name(n).expect("workload exists"))
        .collect()
}

fn res_json(out: &mut String, r: Resources) {
    json::Obj::into(out)
        .f64("lut", r.lut)
        .f64("ff", r.ff)
        .f64("bram", r.bram)
        .f64("dsp", r.dsp)
        .finish();
}

/// Run both legs and write `results/BENCH_pareto.json`.
pub fn run() -> ParetoReport {
    let iters = dse_iters();
    let run_seed = seed() ^ 0x9A2E_70F1;

    // Leg 1: unconstrained reference run.
    let base = Dse::new(domain(), dse_config(iters, run_seed))
        .run()
        .expect("domain schedules");
    for p in base.pareto.points() {
        event!(
            "bench.pareto.point",
            ipc = p.ipc,
            lut = p.resources.lut,
            ff = p.resources.ff,
            bram = p.resources.bram,
            dsp = p.resources.dsp,
        );
    }

    // Leg 2: the same search under a budget barely above the seed design,
    // so growth proposals trip the feasibility gate.
    let seed_adg = Dse::seed_adg(&domain()).expect("domain lowers");
    let seed_res = accelerator_resources(&seed_adg, &AnalyticModel);
    let budget = DeviceBudget {
        name: "bench-tight",
        limit: seed_res * 1.02,
        ..DeviceBudget::vcu118()
    };
    let mut cfg = dse_config(iters, run_seed);
    cfg.objective = Objective::ConstrainedIpc(budget);
    let constrained = Dse::new(domain(), cfg).run().expect("domain schedules");
    let winner_res = accelerator_resources(&constrained.sys_adg.adg, &AnalyticModel);

    let report = ParetoReport {
        default_objective: base.objective,
        constrained_objective: constrained.objective,
        frontier: base.pareto,
        constrained_frontier: constrained.pareto.len(),
        winner_admitted: budget.admits(&winner_res),
        budget,
        infeasible: constrained.stats.infeasible,
        stats: constrained.stats,
    };

    let record = json::Obj::new()
        .str("bench", "pareto")
        .u64("seed", seed())
        .u64("dse_iters", iters as u64)
        .f64("default_objective", report.default_objective)
        .f64("constrained_objective", report.constrained_objective)
        .str("budget", report.budget.name)
        .with("budget_limit", |o| res_json(o, report.budget.limit))
        .u64("infeasible", report.infeasible as u64)
        .bool("winner_admitted", report.winner_admitted)
        .u64("frontier_points", report.frontier.len() as u64)
        .u64(
            "constrained_frontier_points",
            report.constrained_frontier as u64,
        )
        .with("frontier", |o| {
            json::arr(o, report.frontier.points(), |o, p| {
                json::Obj::into(o)
                    .f64("ipc", p.ipc)
                    .with("resources", |o| res_json(o, p.resources))
                    .finish();
            });
        })
        .finish();
    let path = results_dir().join("BENCH_pareto.json");
    if let Err(e) = write_atomic(&path, format!("{record}\n").as_bytes()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    report
}

/// Render.
pub fn render(r: &ParetoReport) -> String {
    let mut t = Table::new(["metric", "value"]);
    t.row([
        "objective (default / budgeted)".into(),
        format!(
            "{:.3} / {:.3}",
            r.default_objective, r.constrained_objective
        ),
    ]);
    t.row([
        "budget".into(),
        format!("{} (seed footprint x 1.02)", r.budget.name),
    ]);
    t.row([
        "infeasible rejections".into(),
        format!(
            "{} ({})",
            r.infeasible,
            if r.infeasible > 0 {
                "gate met"
            } else {
                "GATE MISSED"
            }
        ),
    ]);
    t.row([
        "budgeted winner fits".into(),
        (if r.winner_admitted { "yes" } else { "NO" }).to_string(),
    ]);
    t.row([
        "frontier points (default / budgeted)".into(),
        format!("{} / {}", r.frontier.len(), r.constrained_frontier),
    ]);
    if let Some(best) = r.frontier.points().first() {
        t.row([
            "frontier head (best IPC)".into(),
            format!("ipc {:.3} @ {:.0} LUT", best.ipc, best.resources.lut),
        ]);
    }
    if let Some(lean) = r.frontier.points().last() {
        t.row([
            "frontier tail (leanest)".into(),
            format!("ipc {:.3} @ {:.0} LUT", lean.ipc, lean.resources.lut),
        ]);
    }
    format!(
        "Constraint-aware DSE: device budgets and the IPC/resource frontier\n\n{t}\n\
         The budgeted leg must reject at least one growth proposal before\n\
         system DSE (dse.eval.infeasible > 0) and still land on a feasible\n\
         winner. Record: results/BENCH_pareto.json\n"
    )
}
