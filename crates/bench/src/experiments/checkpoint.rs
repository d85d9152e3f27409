//! Kill-and-resume checkpoint benchmark (`BENCH_checkpoint.json`).
//!
//! Three legs over the same domain and seed:
//!
//! 1. **Baseline** — a plain DSE run with checkpointing off, for the
//!    reference wall time and final result.
//! 2. **Checkpointed** — the identical run with periodic checkpoint writes
//!    at the default interval, at least a second apart (a run shorter
//!    than that writes only its final checkpoint). The result must be
//!    bit-identical to the baseline (checkpoint writes are trace- and
//!    result-invisible), and the summed `dse.checkpoint.write_us` counter
//!    over the leg's wall time is the reported overhead — the acceptance
//!    gate is < 5%.
//! 3. **Kill + resume** — the same run again, but a
//!    [`overgen_dse::DseConfig::max_proposals`] budget stops it gracefully
//!    halfway, finalizing a checkpoint; the run is then resumed from that
//!    file. Objective, stats, and chosen variants must match the
//!    uninterrupted run bit-for-bit (`resume_match`).

use std::time::Instant;

use overgen_dse::{Checkpoint, CheckpointConfig, Dse, DseResult, DseStats};
use overgen_ir::Kernel;
use overgen_telemetry::{fs::write_atomic, json};
use overgen_workloads as workloads;

use crate::harness::{dse_config, dse_iters, results_dir, seed};
use crate::table::Table;

/// Domain for all three legs (a MachSuite slice, same as the repair bench).
pub const DOMAIN: [&str; 3] = ["stencil-2d", "gemm", "ellpack"];

/// Everything the benchmark measured.
#[derive(Debug, Clone)]
pub struct CheckpointReport {
    /// Wall seconds of the plain run.
    pub base_wall_s: f64,
    /// Wall seconds of the checkpointed run.
    pub ck_wall_s: f64,
    /// Periodic + final checkpoint writes during leg 2.
    pub writes: u64,
    /// Microseconds spent serializing + atomically writing checkpoints.
    pub write_us: u64,
    /// `write_us` as a share of leg 2's wall time (percent).
    pub overhead_pct: f64,
    /// Checkpoint interval in proposals.
    pub interval: usize,
    /// Leg 2 result is bit-identical to leg 1.
    pub ck_invisible: bool,
    /// Proposal count at which leg 3 was stopped.
    pub killed_at: usize,
    /// Resumed run reproduced the uninterrupted result bit-for-bit.
    pub resume_match: bool,
    /// Final objective (weighted geomean IPC).
    pub objective: f64,
    /// Stats of the uninterrupted run.
    pub stats: DseStats,
}

fn domain() -> Vec<Kernel> {
    DOMAIN
        .iter()
        .map(|n| workloads::by_name(n).expect("workload exists"))
        .collect()
}

/// Bit-level result equality: objective, per-workload variants, history
/// curve, and activity counters.
fn same_result(a: &DseResult, b: &DseResult) -> bool {
    a.objective.to_bits() == b.objective.to_bits()
        && a.variants == b.variants
        && a.history.len() == b.history.len()
        && a.history
            .iter()
            .zip(&b.history)
            .all(|(x, y)| x.0.to_bits() == y.0.to_bits() && x.1.to_bits() == y.1.to_bits())
        && a.stats == b.stats
}

/// Counter value on the ambient registry (0 when telemetry is off).
fn counter(name: &'static str) -> u64 {
    overgen_telemetry::current().map_or(0, |c| c.registry().counter(name).get())
}

/// Run all three legs and write `results/BENCH_checkpoint.json`.
pub fn run() -> CheckpointReport {
    let iters = dse_iters();
    let run_seed = seed() ^ 0xC4EC_7013;
    let ck_path = results_dir().join("BENCH_checkpoint.state.json");

    // Leg 1: plain run.
    let wall = Instant::now();
    let base = Dse::new(domain(), dse_config(iters, run_seed))
        .run()
        .expect("domain schedules");
    let base_wall_s = wall.elapsed().as_secs_f64();

    // Leg 2: checkpointed run at the default interval.
    let ckc = CheckpointConfig::new(ck_path.clone());
    let interval = ckc.interval;
    let mut cfg = dse_config(iters, run_seed);
    cfg.checkpoint = Some(ckc);
    let (w0, us0) = (
        counter("dse.checkpoint.write"),
        counter("dse.checkpoint.write_us"),
    );
    let wall = Instant::now();
    let full = Dse::new(domain(), cfg.clone())
        .run()
        .expect("domain schedules");
    let ck_wall_s = wall.elapsed().as_secs_f64();
    let writes = counter("dse.checkpoint.write") - w0;
    let write_us = counter("dse.checkpoint.write_us") - us0;
    let overhead_pct = write_us as f64 / (ck_wall_s * 1e6).max(1.0) * 100.0;
    let ck_invisible = same_result(&base, &full);

    // Leg 3: kill halfway (graceful stop finalizes the checkpoint), then
    // resume from the file and compare against the uninterrupted leg.
    let killed_at = iters / 2;
    let mut kill_cfg = cfg;
    kill_cfg.max_proposals = Some(killed_at);
    let partial = Dse::new(domain(), kill_cfg)
        .run()
        .expect("domain schedules");
    assert!(!partial.completed, "budgeted run must stop early");
    let resumed = Checkpoint::load(&ck_path)
        .expect("graceful stop left a checkpoint")
        .resume(domain())
        .expect("resume succeeds");
    let resume_match = resumed.completed && same_result(&full, &resumed);

    let report = CheckpointReport {
        base_wall_s,
        ck_wall_s,
        writes,
        write_us,
        overhead_pct,
        interval,
        ck_invisible,
        killed_at,
        resume_match,
        objective: full.objective,
        stats: full.stats,
    };

    let record = json::Obj::new()
        .str("bench", "checkpoint")
        .u64("seed", seed())
        .u64("dse_iters", iters as u64)
        .u64("interval", report.interval as u64)
        .f64("base_wall_seconds", report.base_wall_s)
        .f64("checkpointed_wall_seconds", report.ck_wall_s)
        .u64("writes", report.writes)
        .u64("write_us", report.write_us)
        .f64("overhead_pct", report.overhead_pct)
        .bool("checkpoint_invisible", report.ck_invisible)
        .u64("killed_at", report.killed_at as u64)
        .bool("resume_match", report.resume_match)
        .f64("objective", report.objective)
        .finish();
    let path = results_dir().join("BENCH_checkpoint.json");
    if let Err(e) = write_atomic(&path, format!("{record}\n").as_bytes()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    report
}

/// Render.
pub fn render(r: &CheckpointReport) -> String {
    let mut t = Table::new(["metric", "value"]);
    t.row(["DSE proposals".into(), r.stats.iterations.to_string()]);
    t.row(["checkpoint interval".into(), r.interval.to_string()]);
    t.row(["checkpoint writes".into(), r.writes.to_string()]);
    t.row([
        "write time (us)".into(),
        format!("{} ({:.2}% of wall)", r.write_us, r.overhead_pct),
    ]);
    t.row([
        "wall plain / checkpointed (s)".into(),
        format!("{:.3} / {:.3}", r.base_wall_s, r.ck_wall_s),
    ]);
    t.row([
        "result unperturbed".to_string(),
        (if r.ck_invisible { "yes" } else { "NO" }).to_string(),
    ]);
    t.row([
        format!("killed at proposal {}", r.killed_at),
        (if r.resume_match {
            "resume bit-identical"
        } else {
            "RESUME DIVERGED"
        })
        .to_string(),
    ]);
    t.row(["objective".into(), format!("{:.3}", r.objective)]);
    format!(
        "Crash-safe checkpoint/resume: write overhead and equivalence\n\n{t}\n\
         A graceful stop at the kill point finalizes a checkpoint; resuming\n\
         from it must reproduce the uninterrupted run bit-for-bit.\n\
         Record: results/BENCH_checkpoint.json\n"
    )
}
