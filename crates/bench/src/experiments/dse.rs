//! Engine throughput benchmark (`BENCH_dse.json`).
//!
//! One wall-clocked preserving DSE run over the repair benchmark's
//! MachSuite domain, recorded as a machine-readable throughput baseline:
//! proposals/sec, acceptance and cache behaviour, and — when the profiler
//! is on (`OVERGEN_PROFILE`, default) — per-phase wall-time totals with
//! attribution coverage, the system sweep's share of eval time and the
//! scheduler's share of eval time outside the sweep. After the run it
//! times the domain's variant compilation alone: the fastest of
//! [`COMPILE_PASSES`] `compile_variants` passes over every kernel. The
//! `check.sh profile` stage gates a fresh record with `bench-compare`:
//! coverage and both shares get hard bounds, throughput and the compile
//! pass relative bands against the committed record.

use std::hint::black_box;
use std::time::Instant;

use overgen_compiler::{compile_variants, CompileOptions};
use overgen_dse::{Dse, DseStats};
use overgen_ir::Kernel;
use overgen_telemetry::{count_isolated, current_profiler, fs::write_atomic, json, Phase};
use overgen_workloads as workloads;

use crate::experiments::repair::DOMAIN;
use crate::harness::{dse_config, dse_iters, results_dir, seed};
use crate::table::Table;

/// Everything the benchmark measured.
#[derive(Debug, Clone)]
pub struct DseReport {
    pub stats: DseStats,
    pub wall_seconds: f64,
    pub proposals_per_sec: f64,
    /// `(phase name, total µs)` for every phase that recorded samples;
    /// empty when the profiler is disabled.
    pub phase_totals: Vec<(&'static str, u64)>,
    /// Attribution coverage (attributed / eval total); `1.0` when the
    /// profiler is off or nothing was evaluated.
    pub coverage: f64,
    /// System-DSE sweep time over eval time; `0.0` when the profiler is
    /// off or nothing was evaluated.
    pub system_share: f64,
    /// Schedule plus repair time over eval time outside the system sweep;
    /// `0.0` when the profiler is off or nothing was evaluated.
    pub scheduler_share: f64,
    /// Fastest `compile_variants` pass over the domain, in µs.
    pub compile_best_us: f64,
}

/// Timed passes of the domain's variant compilation; the record keeps the
/// fastest, so one preempted pass does not move it.
pub const COMPILE_PASSES: usize = 50;

/// The fastest of [`COMPILE_PASSES`] passes compiling every kernel of
/// `domain`, in µs. The passes run under a counting collector, so no span
/// or event reaches the run's trace.
fn compile_best_us(domain: &[Kernel], opts: &CompileOptions) -> f64 {
    let pass = || {
        let t = Instant::now();
        for k in domain {
            black_box(compile_variants(k, opts).expect("domain compiles"));
        }
        t.elapsed().as_secs_f64() * 1e6
    };
    count_isolated(|| {
        (0..COMPILE_PASSES)
            .map(|_| pass())
            .fold(f64::INFINITY, f64::min)
    })
    .0
}

/// Run the DSE and write `results/BENCH_dse.json`.
pub fn run() -> DseReport {
    let domain: Vec<_> = DOMAIN
        .iter()
        .map(|n| workloads::by_name(n).expect("workload exists"))
        .collect();
    let cfg = dse_config(dse_iters(), seed() ^ 0x0D5E_0BE2);
    let (kernels, compile) = (domain.clone(), cfg.compile);
    let wall = Instant::now();
    let r = Dse::new(kernels, cfg).run().expect("domain schedules");
    let wall_seconds = wall.elapsed().as_secs_f64();
    let compile_best_us = compile_best_us(&domain, &compile);
    let stats = r.stats;

    let (phase_totals, coverage, system_share, scheduler_share) = match current_profiler() {
        Some(p) => {
            let snap = p.snapshot();
            let totals = Phase::ALL
                .iter()
                .map(|&ph| (ph.name(), snap.phase_total_us(ph)))
                .filter(|(_, us)| *us > 0)
                .collect();
            let share = |us: u64, of: u64| us as f64 / of.max(1) as f64;
            let (eval, system) = (snap.eval_total_us(), snap.phase_total_us(Phase::SystemDse));
            let scheduler =
                snap.phase_total_us(Phase::Schedule) + snap.phase_total_us(Phase::Repair);
            (
                totals,
                snap.coverage(),
                share(system, eval),
                share(scheduler, eval.saturating_sub(system)),
            )
        }
        None => (Vec::new(), 1.0, 0.0, 0.0),
    };

    let report = DseReport {
        stats,
        wall_seconds,
        proposals_per_sec: stats.iterations as f64 / wall_seconds.max(1e-9),
        phase_totals,
        coverage,
        system_share,
        scheduler_share,
        compile_best_us,
    };

    let decisions = stats.repair_fast + stats.repair_fallback + stats.full_schedules;
    let lookups = stats.cache_hits + stats.cache_misses;
    let record = json::Obj::new()
        .str("bench", "dse")
        .u64("seed", seed())
        .f64("wall_seconds", report.wall_seconds)
        .f64("proposals_per_sec", report.proposals_per_sec)
        .with("dse", |o| {
            json::Obj::into(o)
                .u64("iterations", stats.iterations as u64)
                .u64("accepted", stats.accepted as u64)
                .u64("invalid", stats.invalid as u64)
                .u64("cache_hits", stats.cache_hits as u64)
                .u64("cache_misses", stats.cache_misses as u64)
                .f64(
                    "cache_hit_rate",
                    stats.cache_hits as f64 / lookups.max(1) as f64,
                )
                .u64("repair_fast", stats.repair_fast as u64)
                .u64("repair_fallback", stats.repair_fallback as u64)
                .u64("full_schedules", stats.full_schedules as u64)
                .f64(
                    "fast_share",
                    stats.repair_fast as f64 / decisions.max(1) as f64,
                )
                .finish();
        })
        .with("compile", |o| {
            json::Obj::into(o)
                .u64("passes", COMPILE_PASSES as u64)
                .f64("best_us", report.compile_best_us)
                .finish();
        })
        .with("profile", |o| {
            json::Obj::into(o)
                .f64("coverage", report.coverage)
                .f64("system_share", report.system_share)
                .f64("scheduler_share", report.scheduler_share)
                .with("phase_total_us", |o| {
                    let mut phases = json::Obj::into(o);
                    for (name, us) in &report.phase_totals {
                        phases = phases.u64(name, *us);
                    }
                    phases.finish();
                })
                .finish();
        })
        .finish();
    let path = results_dir().join("BENCH_dse.json");
    if let Err(e) = write_atomic(&path, format!("{record}\n").as_bytes()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    report
}

/// Render.
pub fn render(r: &DseReport) -> String {
    let mut t = Table::new(["metric", "value"]);
    t.row(["proposals".into(), r.stats.iterations.to_string()]);
    t.row(["  accepted".into(), r.stats.accepted.to_string()]);
    t.row(["  invalid".into(), r.stats.invalid.to_string()]);
    t.row([
        "proposals/sec".into(),
        format!("{:.1}", r.proposals_per_sec),
    ]);
    t.row([
        "cache hits / misses".into(),
        format!("{} / {}", r.stats.cache_hits, r.stats.cache_misses),
    ]);
    t.row([
        format!("compile pass, best of {COMPILE_PASSES} (us)"),
        format!("{:.1}", r.compile_best_us),
    ]);
    for (name, us) in &r.phase_totals {
        t.row([format!("phase {name} (us)"), us.to_string()]);
    }
    t.row([
        "attribution coverage".into(),
        format!("{:.1}%", r.coverage * 100.0),
    ]);
    t.row([
        "system-dse share of eval".into(),
        format!("{:.1}%", r.system_share * 100.0),
    ]);
    t.row([
        "scheduler share of eval outside sweep".into(),
        format!("{:.1}%", r.scheduler_share * 100.0),
    ]);
    format!(
        "DSE engine throughput\n\n{t}\n\
         Phase totals are profiler wall time; coverage is the share of the\n\
         eval umbrella attributed to a named phase (serial runs stay <= 1).\n\
         Record: results/BENCH_dse.json\n"
    )
}
