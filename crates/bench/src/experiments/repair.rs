//! Incremental-vs-full repair benchmark (`BENCH_repair.json`).
//!
//! Two measurements back the repair engine's claims:
//!
//! 1. **Coverage** — a real preserving DSE run over a MachSuite domain,
//!    counting how many repair invocations resolved on the incremental
//!    fast path (`scheduler.repair.fast`) versus fell back to a seeded
//!    full placement or a from-scratch schedule. The fast share is the
//!    fraction of all per-workload scheduling decisions that needed no
//!    placement search at all.
//!
//! 2. **Speedup** — a deterministic mutation chain replayed outside the
//!    DSE: per proposal, every workload's prior schedule is repaired
//!    incrementally *and* re-placed from scratch (no prior — what every
//!    proposal costs without the repair engine), both wall-clocked. The
//!    repair side times what an evaluation runs: one [`HwIndex`] per
//!    proposal, its build counted once, then [`HwIndex::repair`] per
//!    workload on a prior copied outside the timer. The per-proposal
//!    speedup is the summed full-placement time over the summed repair
//!    time; the record reports the median across proposals.
//!
//! The timing loop always exercises *both* paths explicitly, so the
//! emitted trace does not depend on `OVERGEN_REPAIR` — only the DSE run of
//! part 1 honors the env switch (that is the half the determinism gate
//! diffs).

use std::time::Instant;

use crate::harness::{
    best_of, domain, dse_config, dse_iters, median, repair_enabled, results_dir, seed,
};
use crate::table::Table;
use overgen_adg::{SysAdg, SystemParams};
use overgen_compiler::{lower, LowerChoices};
use overgen_dse::{Dse, DseStats, RuleSet, TransformCtx};
use overgen_mdfg::Mdfg;
use overgen_scheduler::{schedule, HwIndex, RepairOptions, Schedule, ScheduleFootprint};
use overgen_telemetry::{fs::write_atomic, json, Rng};

/// Proposals replayed by the timing chain.
const PROPOSALS: usize = 60;
/// Timing repetitions per path (minimum wins, to shed scheduler noise).
const REPS: usize = 3;

/// Everything the benchmark measured.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// Stats of the coverage DSE run.
    pub stats: DseStats,
    /// Fast-path share of all scheduling decisions in the DSE run.
    pub fast_share: f64,
    /// Per-proposal speedups (full seconds / repair seconds), sorted.
    pub speedups: Vec<f64>,
    /// Median of `speedups`.
    pub median_speedup: f64,
    /// Proposals whose repair resolved without moving anything.
    pub intact_proposals: usize,
    /// Proposals where a workload became unschedulable (reverted).
    pub reverted_proposals: usize,
    /// Median per-proposal full-placement / repair wall times (seconds).
    pub median_full_s: f64,
    /// See `median_full_s`.
    pub median_repair_s: f64,
}

/// Part 1: coverage counters from a real DSE run.
fn coverage() -> (DseStats, f64) {
    let cfg = dse_config(dse_iters(), seed() ^ 0xBE7C_4EA1);
    let r = Dse::new(domain(), cfg).run().expect("domain schedules");
    let stats = r.stats;
    let decisions = stats.repair_fast + stats.repair_fallback + stats.full_schedules;
    let share = stats.repair_fast as f64 / decisions.max(1) as f64;
    (stats, share)
}

/// [`best_of`] of [`REPS`] runs for a closure that consumes its input:
/// each repetition makes a fresh one with `input`, outside the timer.
fn best_of_with<I, T>(mut input: impl FnMut() -> I, mut f: impl FnMut(I) -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let i = input();
        let t = Instant::now();
        let v = f(i);
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(v);
    }
    (out.expect("REPS >= 1"), best)
}

/// Part 2: the deterministic mutation chain, timing repair vs full
/// re-placement per proposal.
fn timing_chain() -> (Vec<f64>, usize, usize, f64, f64) {
    let kernels = domain();
    let mdfgs: Vec<Mdfg> = kernels
        .iter()
        .map(|k| {
            lower(
                k,
                0,
                &LowerChoices {
                    unroll: 1,
                    ..Default::default()
                },
            )
            .expect("unroll-1 lowering succeeds")
        })
        .collect();
    let caps = Dse::cap_pool(&kernels);
    let mut adg = Dse::seed_adg(&kernels).expect("domain lowers");
    let sys_of = |adg: &overgen_adg::Adg| SysAdg::new(adg.clone(), SystemParams::default());
    let sys = sys_of(&adg);
    let mut schedules: Vec<Schedule> = mdfgs
        .iter()
        .map(|m| schedule(m, &sys, None).expect("seed mesh schedules the domain"))
        .collect();

    let mut rng = Rng::seed_from_u64(seed() ^ 0x7131_0CAB);
    let mut speedups = Vec::new();
    let mut fulls = Vec::new();
    let mut repairs = Vec::new();
    let mut intact = 0usize;
    let mut reverted = 0usize;
    for _ in 0..PROPOSALS {
        let backup_adg = adg.clone();
        let backup_scheds = schedules.clone();
        let mut footprint = ScheduleFootprint::Pure;
        for _ in 0..2 {
            let preserving = rng.gen_bool(0.7);
            let mut ctx = TransformCtx {
                cap_pool: &caps,
                schedules: &mut schedules,
                preserving,
            };
            let app = RuleSet::legacy().apply_random(&mut adg, &mut ctx, &mut rng, 0);
            footprint = footprint.merge(app.inferred);
        }
        let sys = sys_of(&adg);
        if sys.validate().is_err() {
            adg = backup_adg;
            schedules = backup_scheds;
            reverted += 1;
            continue;
        }

        let opts = RepairOptions {
            incremental: true,
            footprint: Some(footprint),
            scope: None,
        };
        // What the DSE's common path runs: one index of the proposal,
        // shared by every workload's repair.
        let (hw, mut repair_s) = best_of(REPS, || HwIndex::new(&sys));
        let mut full_s = 0.0;
        let mut next = Vec::with_capacity(schedules.len());
        let mut moved_any = false;
        let mut broke = false;
        for (m, prior) in mdfgs.iter().zip(&schedules) {
            let (rep, t) = best_of_with(|| prior.clone(), |p| hw.repair(p, m, &opts));
            repair_s += t;
            // What every proposal would cost without the repair engine:
            // a from-scratch placement (the DSE's no-prior path).
            let (_, t) = best_of(REPS, || schedule(m, &sys, None));
            full_s += t;
            match rep {
                Ok((s, outcome)) => {
                    moved_any |= outcome != overgen_scheduler::RepairOutcome::Intact;
                    next.push(s);
                }
                Err(_) => {
                    broke = true;
                    break;
                }
            }
        }
        if broke {
            adg = backup_adg;
            schedules = backup_scheds;
            reverted += 1;
            continue;
        }
        schedules = next;
        if !moved_any {
            intact += 1;
        }
        speedups.push(full_s / repair_s.max(1e-12));
        fulls.push(full_s);
        repairs.push(repair_s);
    }
    speedups.sort_by(f64::total_cmp);
    fulls.sort_by(f64::total_cmp);
    repairs.sort_by(f64::total_cmp);
    let (mf, mr) = (median(&fulls), median(&repairs));
    (speedups, intact, reverted, mf, mr)
}

/// Run both measurements and write `results/BENCH_repair.json`.
pub fn run() -> RepairReport {
    let (stats, fast_share) = coverage();
    let (speedups, intact_proposals, reverted_proposals, median_full_s, median_repair_s) =
        timing_chain();
    let median_speedup = median(&speedups);
    let report = RepairReport {
        stats,
        fast_share,
        speedups,
        median_speedup,
        intact_proposals,
        reverted_proposals,
        median_full_s,
        median_repair_s,
    };

    let record = json::Obj::new()
        .str("bench", "repair")
        .u64("seed", seed())
        .bool("repair_enabled", repair_enabled())
        .with("dse", |o| {
            json::Obj::into(o)
                .u64("iterations", report.stats.iterations as u64)
                .u64("repair_fast", report.stats.repair_fast as u64)
                .u64("repair_fallback", report.stats.repair_fallback as u64)
                .u64("full_schedules", report.stats.full_schedules as u64)
                .f64("fast_share", report.fast_share)
                .finish();
        })
        .with("timing", |o| {
            json::Obj::into(o)
                .u64("proposals", report.speedups.len() as u64)
                .u64("intact_proposals", report.intact_proposals as u64)
                .u64("reverted_proposals", report.reverted_proposals as u64)
                .f64("median_speedup", report.median_speedup)
                .f64(
                    "min_speedup",
                    report.speedups.first().copied().unwrap_or(0.0),
                )
                .f64(
                    "max_speedup",
                    report.speedups.last().copied().unwrap_or(0.0),
                )
                .f64("median_full_seconds", report.median_full_s)
                .f64("median_repair_seconds", report.median_repair_s)
                .finish();
        })
        .finish();
    let path = results_dir().join("BENCH_repair.json");
    if let Err(e) = write_atomic(&path, format!("{record}\n").as_bytes()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    report
}

/// Render.
pub fn render(r: &RepairReport) -> String {
    let mut t = Table::new(["metric", "value"]);
    t.row([
        "DSE scheduling decisions".into(),
        (r.stats.repair_fast + r.stats.repair_fallback + r.stats.full_schedules).to_string(),
    ]);
    t.row([
        "  fast-path repairs".into(),
        r.stats.repair_fast.to_string(),
    ]);
    t.row([
        "  fallback repairs".into(),
        r.stats.repair_fallback.to_string(),
    ]);
    t.row([
        "  full schedules".into(),
        r.stats.full_schedules.to_string(),
    ]);
    t.row(["fast share".into(), format!("{:.1}%", r.fast_share * 100.0)]);
    t.row(["timed proposals".into(), r.speedups.len().to_string()]);
    t.row(["  fully intact".into(), r.intact_proposals.to_string()]);
    t.row(["  reverted".into(), r.reverted_proposals.to_string()]);
    t.row([
        "median per-proposal speedup".into(),
        format!("{:.1}x", r.median_speedup),
    ]);
    t.row([
        "median full / repair (us)".into(),
        format!(
            "{:.0} / {:.0}",
            r.median_full_s * 1e6,
            r.median_repair_s * 1e6
        ),
    ]);
    format!(
        "Repair fast path: incremental vs full re-placement\n\n{t}\n\
         The fast path reconstructs and re-scores the prior mapping when the\n\
         dirty set is empty; the fallback re-places from the prior seed.\n\
         Record: results/BENCH_repair.json\n"
    )
}
