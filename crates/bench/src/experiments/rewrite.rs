//! Rewrite-engine benchmark (`BENCH_rewrite.json`).
//!
//! Three measurements back the rewrite engine's claims:
//!
//! 1. **Fast-path share, compound off** — one small DSE run per paper
//!    workload (all 19) with single-rule proposals (the default,
//!    `compound: 1`), pooling how many scheduling decisions resolved on
//!    the repair fast path. Proposals built from the rule registry must
//!    keep this share at the level the hand-maintained mutation table
//!    achieved (`BENCH_repair.json`'s ~0.83).
//!
//! 2. **Fast-path share + amortization, compound on** — the same runs
//!    with `compound: 3`. Follow-up rules draw from the benign subset, so
//!    the share must stay at its single-rule level; because each proposal
//!    carries several rule applications but only one evaluation, the
//!    wall-clock *per application* drops — reported as the per-application
//!    speedup of compound mode over single-rule mode. Each mode's wall
//!    time sums its 19 runs, each the fastest of [`TIMING_REPEATS`]; the
//!    counts are deterministic, so they come from one repeat.
//!
//! 3. **Inference oracle** — an explicit release-mode pass (the
//!    `debug_assert!` in `RuleSet::apply_index` is compiled out here)
//!    applying seeded random rules on every workload's seed mesh and
//!    counting applications whose inferred footprint is *weaker* than the
//!    legacy hand classification. The count must be zero; the record also
//!    reports how many were exactly equal (all of them, for the ported
//!    rules).

use overgen_adg::{SysAdg, SystemParams};
use overgen_compiler::{lower, LowerChoices};
use overgen_dse::{Dse, DseConfig, RuleSet, TransformCtx};
use overgen_ir::Kernel;
use overgen_scheduler::schedule;
use overgen_telemetry::{fs::write_atomic, json, Rng};
use overgen_workloads as workloads;

use crate::harness::{best_of, counter, dse_config, dse_iters, results_dir, seed};
use crate::table::Table;

/// Rule applications per workload in the oracle pass.
const ORACLE_STEPS: u64 = 40;

/// Timed repeats of each DSE run. One cold run per mode read the same
/// binary's per-application speedup anywhere from 1.05x to 2.06x.
pub const TIMING_REPEATS: usize = 5;

/// Pooled coverage of one compound setting across all workloads.
#[derive(Debug, Clone, Default)]
pub struct ModeReport {
    /// The `DseConfig::compound` cap this mode ran with.
    pub compound: usize,
    /// Pooled proposals (DSE iterations) across all workloads.
    pub proposals: usize,
    /// Pooled rule applications (`dse.rewrite.applied`).
    pub applications: u64,
    /// Pooled multi-rule proposals (`dse.rewrite.compound`).
    pub compound_proposals: u64,
    /// Pooled fast-path repairs / fallback repairs / full schedules.
    pub fast: usize,
    /// See `fast`.
    pub fallback: usize,
    /// See `fast`.
    pub full: usize,
    /// `fast / (fast + fallback + full)`.
    pub fast_share: f64,
    /// Wall seconds of the DSE runs, each the fastest of
    /// [`TIMING_REPEATS`].
    pub wall_seconds: f64,
}

/// Per-workload fast shares for both modes.
#[derive(Debug, Clone)]
pub struct WorkloadRow {
    /// Workload name.
    pub name: String,
    /// Fast-path share with `compound: 1`.
    pub share_off: f64,
    /// Fast-path share with `compound: 3`.
    pub share_on: f64,
}

/// Everything the benchmark measured.
#[derive(Debug, Clone)]
pub struct RewriteReport {
    /// Coverage with compound proposals off (`compound: 1`).
    pub off: ModeReport,
    /// Coverage with compound proposals on (`compound: 3`).
    pub on: ModeReport,
    /// Per-workload shares.
    pub rows: Vec<WorkloadRow>,
    /// Wall micro-seconds per rule application, off / on.
    pub per_application_us: (f64, f64),
    /// Per-application speedup of compound mode (off us / on us).
    pub per_application_speedup: f64,
    /// Oracle pass: total applications checked.
    pub oracle_applications: usize,
    /// Applications whose inferred footprint was weaker than hand.
    pub oracle_weaker: usize,
    /// Applications whose inferred footprint equalled the hand class.
    pub oracle_exact: usize,
}

/// Counts of one small DSE run.
struct Run {
    fast: usize,
    fallback: usize,
    full: usize,
    proposals: usize,
    /// `dse.rewrite.applied` / `dse.rewrite.compound` deltas.
    applications: u64,
    compound_proposals: u64,
}

/// One small DSE run of `kernel` with `compound` rules per proposal.
fn coverage_run(kernel: &Kernel, compound: usize) -> Run {
    // The share definition counts the run's seed full schedules, so short
    // runs under-report it; the full iteration budget amortizes them the
    // way `BENCH_repair.json`'s coverage run does.
    let iters = dse_iters();
    let cfg = DseConfig {
        compound,
        ..dse_config(iters, seed() ^ 0x9E1F_12A7 ^ compound as u64)
    };
    let applied0 = counter("dse.rewrite.applied");
    let compound0 = counter("dse.rewrite.compound");
    let s = Dse::new(vec![kernel.clone()], cfg)
        .run()
        .expect("workload schedules on its seed mesh")
        .stats;
    Run {
        fast: s.repair_fast,
        fallback: s.repair_fallback,
        full: s.full_schedules,
        proposals: s.iterations,
        applications: counter("dse.rewrite.applied") - applied0,
        compound_proposals: counter("dse.rewrite.compound") - compound0,
    }
}

impl ModeReport {
    /// Pool one workload into this mode and return its fast-path share.
    /// Its run is timed as the fastest of [`TIMING_REPEATS`]; the counts
    /// are deterministic, so any repeat's will do.
    fn add(&mut self, kernel: &Kernel) -> f64 {
        let (r, secs) = best_of(TIMING_REPEATS, || coverage_run(kernel, self.compound));
        self.fast += r.fast;
        self.fallback += r.fallback;
        self.full += r.full;
        self.proposals += r.proposals;
        self.applications += r.applications;
        self.compound_proposals += r.compound_proposals;
        self.wall_seconds += secs;
        self.fast_share = self.fast as f64 / (self.fast + self.fallback + self.full).max(1) as f64;
        r.fast as f64 / (r.fast + r.fallback + r.full).max(1) as f64
    }
}

/// The explicit release-mode inference oracle.
fn oracle() -> (usize, usize, usize) {
    let set = RuleSet::legacy();
    let mut rng = Rng::seed_from_u64(seed() ^ 0x04AC_1E00);
    let (mut total, mut weaker, mut exact) = (0, 0, 0);
    for k in workloads::all() {
        let kernels = std::slice::from_ref(&k);
        let caps = Dse::cap_pool(kernels);
        let mut adg = Dse::seed_adg(kernels).expect("kernel lowers");
        let sys = SysAdg::new(adg.clone(), SystemParams::default());
        let mdfg = lower(&k, 0, &LowerChoices::default()).expect("unroll-1 lowering succeeds");
        let Ok(prior) = schedule(&mdfg, &sys, None) else {
            continue;
        };
        let mut schedules = vec![prior];
        for step in 0..ORACLE_STEPS {
            let preserving = rng.gen_bool(0.5);
            let mut ctx = TransformCtx {
                cap_pool: &caps,
                schedules: &mut schedules,
                preserving,
            };
            let app = set.apply_random(&mut adg, &mut ctx, &mut rng, step);
            total += 1;
            if app.inferred < app.hand {
                weaker += 1;
            }
            if app.inferred == app.hand {
                exact += 1;
            }
        }
    }
    (total, weaker, exact)
}

/// Run all three measurements and write `results/BENCH_rewrite.json`.
pub fn run() -> RewriteReport {
    let mode = |compound| ModeReport {
        compound,
        ..Default::default()
    };
    let (mut off, mut on) = (mode(1), mode(3));
    // Both modes of a workload are timed back to back, so a slow spell of
    // the host weighs on both.
    let rows = workloads::all()
        .iter()
        .map(|k| WorkloadRow {
            name: k.name().to_string(),
            share_off: off.add(k),
            share_on: on.add(k),
        })
        .collect();
    let us = |m: &ModeReport| m.wall_seconds * 1e6 / (m.applications.max(1) as f64);
    let per_application_us = (us(&off), us(&on));
    let per_application_speedup = per_application_us.0 / per_application_us.1.max(1e-12);
    let (oracle_applications, oracle_weaker, oracle_exact) = oracle();
    let report = RewriteReport {
        off,
        on,
        rows,
        per_application_us,
        per_application_speedup,
        oracle_applications,
        oracle_weaker,
        oracle_exact,
    };

    let mode_json = |o: &mut String, m: &ModeReport| {
        json::Obj::into(o)
            .u64("compound", m.compound as u64)
            .u64("proposals", m.proposals as u64)
            .u64("applications", m.applications)
            .u64("compound_proposals", m.compound_proposals)
            .u64("repair_fast", m.fast as u64)
            .u64("repair_fallback", m.fallback as u64)
            .u64("full_schedules", m.full as u64)
            .f64("fast_share", m.fast_share)
            .f64("wall_seconds", m.wall_seconds)
            .finish();
    };
    let record = json::Obj::new()
        .str("bench", "rewrite")
        .u64("seed", seed())
        .with("compound_off", |o| mode_json(o, &report.off))
        .with("compound_on", |o| mode_json(o, &report.on))
        .with("workloads", |o| {
            json::arr(o, &report.rows, |o, r| {
                json::Obj::into(o)
                    .str("name", &r.name)
                    .f64("fast_share_off", r.share_off)
                    .f64("fast_share_on", r.share_on)
                    .finish();
            });
        })
        .with("oracle", |o| {
            json::Obj::into(o)
                .u64("applications", report.oracle_applications as u64)
                .u64("weaker", report.oracle_weaker as u64)
                .u64("exact", report.oracle_exact as u64)
                .finish();
        })
        .with("summary", |o| {
            json::Obj::into(o)
                .u64("workloads", report.rows.len() as u64)
                .f64("fast_share_off", report.off.fast_share)
                .f64("fast_share_on", report.on.fast_share)
                .f64("per_application_speedup", report.per_application_speedup)
                .u64("oracle_weaker", report.oracle_weaker as u64)
                .finish();
        })
        .finish();
    let path = results_dir().join("BENCH_rewrite.json");
    if let Err(e) = write_atomic(&path, format!("{record}\n").as_bytes()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    report
}

/// Render.
pub fn render(r: &RewriteReport) -> String {
    let mut t = Table::new(["metric", "compound off", "compound on"]);
    t.row([
        "proposals".into(),
        r.off.proposals.to_string(),
        r.on.proposals.to_string(),
    ]);
    t.row([
        "rule applications".into(),
        r.off.applications.to_string(),
        r.on.applications.to_string(),
    ]);
    t.row([
        "multi-rule proposals".into(),
        r.off.compound_proposals.to_string(),
        r.on.compound_proposals.to_string(),
    ]);
    t.row([
        "fast-path repairs".into(),
        r.off.fast.to_string(),
        r.on.fast.to_string(),
    ]);
    t.row([
        "fast share".into(),
        format!("{:.1}%", r.off.fast_share * 100.0),
        format!("{:.1}%", r.on.fast_share * 100.0),
    ]);
    t.row([
        "us per application".into(),
        format!("{:.0}", r.per_application_us.0),
        format!("{:.0}", r.per_application_us.1),
    ]);
    format!(
        "Rewrite engine: inferred footprints and compound proposals over \
         {} workloads\n\n{t}\n\
         Per-application speedup of compound mode: {:.2}x\n\
         Inference oracle: {} applications, {} weaker than hand (must be 0), \
         {} exact\nRecord: results/BENCH_rewrite.json\n",
        r.rows.len(),
        r.per_application_speedup,
        r.oracle_applications,
        r.oracle_weaker,
        r.oracle_exact,
    )
}
