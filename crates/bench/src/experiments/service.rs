//! Multi-tenant DSE service benchmark (`BENCH_service.json`).
//!
//! Two legs over the shared persistent evaluation store (DESIGN.md §13):
//!
//! 1. **Warm-cache speedup** — per trial, a job runs against a fresh
//!    store root (cold), then an identical job runs against the same
//!    root through a brand-new server (warm: every evaluation is served
//!    from disk). The reported `summary.median_warm_speedup` is the
//!    median cold/warm wall-time ratio over all trials; the acceptance
//!    gate is ≥ 2x. The warm leg must be a *full* warm set — any store
//!    miss fails the benchmark.
//! 2. **Concurrent-vs-sequential identity** — one four-tenant fleet
//!    (three workloads plus a duplicate tenant, so co-tenants share
//!    store entries) runs twice in separate roots: workers=1 and
//!    workers=4. Every tenant's `trace.jsonl` and `result.json` must be
//!    byte-identical across the two runs (`summary.identity`); worker
//!    count and co-tenant scheduling may change wall-clock only.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use overgen_dse::{DseConfig, StoreStats};
use overgen_ir::Kernel;
use overgen_service::{JobRequest, JobServer, JobStatus, ServiceConfig};
use overgen_telemetry::{fs::write_atomic, json};
use overgen_workloads as workloads;

use crate::harness::{domain, dse_config, dse_iters, median, results_dir, seed, DOMAIN};
use crate::table::Table;

/// Cold/warm pairs measured for the speedup leg.
pub const TRIALS: usize = 3;

/// Everything the benchmark measured.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Per-trial (cold, warm) wall seconds.
    pub trials: Vec<(f64, f64)>,
    /// Median of the per-trial cold/warm ratios.
    pub median_warm_speedup: f64,
    /// Store accounting summed over the warm runs.
    pub warm_stats: StoreStats,
    /// Tenants in the identity fleet.
    pub fleet_jobs: usize,
    /// Per-job artifacts are byte-identical at workers=1 and workers=4.
    pub identity: bool,
    /// Cross-tenant serves observed in the sequential fleet run.
    pub shared_serves: u64,
}

/// Run one job on a single-worker server rooted at `root` and return its
/// wall seconds (submit to completion) plus the server's store stats.
fn run_job(root: &Path, name: &str, kernels: Vec<Kernel>, config: DseConfig) -> (f64, StoreStats) {
    let server = JobServer::start(ServiceConfig {
        root: root.to_path_buf(),
        workers: 1,
        store: true,
    })
    .expect("service root");
    let wall = Instant::now();
    let id = server
        .submit(JobRequest {
            name: name.to_string(),
            kernels,
            config,
        })
        .expect("fresh job name");
    assert_eq!(server.wait(id), Some(JobStatus::Done), "job {name} failed");
    let wall_s = wall.elapsed().as_secs_f64();
    let report = server.shutdown();
    (wall_s, report.store.expect("store enabled"))
}

/// The identity-leg fleet: one tenant per [`DOMAIN`] workload (the
/// warm-speedup job explores all three at once) plus a duplicate of the
/// first, so the duplicate is served from its sibling's entries.
fn fleet(run_seed: u64) -> Vec<JobRequest> {
    let iters = dse_iters();
    let mut jobs: Vec<JobRequest> = DOMAIN
        .iter()
        .enumerate()
        .map(|(i, k)| JobRequest {
            name: format!("tenant-{}", (b'a' + i as u8) as char),
            kernels: vec![workloads::by_name(k).expect("workload exists")],
            config: dse_config(iters, run_seed),
        })
        .collect();
    jobs.push(JobRequest {
        name: "tenant-dup".to_string(),
        kernels: vec![workloads::by_name(DOMAIN[0]).expect("workload exists")],
        config: dse_config(iters, run_seed),
    });
    jobs
}

/// Run a fleet to completion and return each tenant's on-disk artifacts
/// (trace.jsonl, result.json) by name, plus the server's store stats.
fn run_fleet(
    root: &Path,
    workers: usize,
    jobs: Vec<JobRequest>,
) -> (BTreeMap<String, (String, String)>, StoreStats) {
    let names: Vec<String> = jobs.iter().map(|j| j.name.clone()).collect();
    let server = JobServer::start(ServiceConfig {
        root: root.to_path_buf(),
        workers,
        store: true,
    })
    .expect("service root");
    let ids: Vec<_> = jobs
        .into_iter()
        .map(|j| server.submit(j).expect("fresh job name"))
        .collect();
    for id in ids {
        assert_eq!(server.wait(id), Some(JobStatus::Done), "fleet job failed");
    }
    let report = server.shutdown();
    let artifacts = names
        .into_iter()
        .map(|name| {
            let dir = root.join("jobs").join(&name);
            let trace = std::fs::read_to_string(dir.join("trace.jsonl")).expect("job trace");
            let result = std::fs::read_to_string(dir.join("result.json")).expect("job result");
            (name, (trace, result))
        })
        .collect();
    (artifacts, report.store.expect("store enabled"))
}

fn scratch() -> PathBuf {
    results_dir().join("BENCH_service.work")
}

/// Run both legs and write `results/BENCH_service.json`.
pub fn run() -> ServiceReport {
    let iters = dse_iters();
    let run_seed = seed() ^ 0x5E7F_1CE0;
    let work = scratch();
    let _ = std::fs::remove_dir_all(&work);

    // Leg 1: cold run populates a fresh store, a new server over the same
    // root replays the identical job fully warm.
    let mut trials = Vec::new();
    let mut warm_stats = StoreStats::default();
    for t in 0..TRIALS {
        let root = work.join(format!("trial-{t}"));
        let cfg = dse_config(iters, run_seed.wrapping_add(t as u64));
        let (cold_s, _) = run_job(&root, "cold", domain(), cfg.clone());
        let (warm_s, stats) = run_job(&root, "warm", domain(), cfg);
        assert_eq!(
            stats.misses, 0,
            "trial {t}: an identical job must be fully warm: {stats:?}"
        );
        warm_stats.lookups += stats.lookups;
        warm_stats.hits += stats.hits;
        warm_stats.misses += stats.misses;
        warm_stats.publishes += stats.publishes;
        warm_stats.shared_serves += stats.shared_serves;
        warm_stats.warm_entries += stats.warm_entries;
        trials.push((cold_s, warm_s));
    }
    let mut speedups: Vec<f64> = trials.iter().map(|(c, w)| c / w.max(1e-9)).collect();
    speedups.sort_by(f64::total_cmp);
    let median_warm_speedup = median(&speedups);

    // Leg 2: the same fleet at workers=1 and workers=4 in separate roots
    // must leave byte-identical per-tenant artifacts.
    let (sequential, seq_stats) = run_fleet(&work.join("seq"), 1, fleet(run_seed));
    let (concurrent, _) = run_fleet(&work.join("conc"), 4, fleet(run_seed));
    let fleet_jobs = sequential.len();
    let identity = sequential.iter().all(|(name, (trace, result))| {
        let (ctrace, cresult) = &concurrent[name];
        !trace.is_empty() && trace == ctrace && result == cresult
    });

    let _ = std::fs::remove_dir_all(&work);

    let report = ServiceReport {
        trials,
        median_warm_speedup,
        warm_stats,
        fleet_jobs,
        identity,
        shared_serves: seq_stats.shared_serves,
    };

    let sorted = |side: fn(&(f64, f64)) -> f64| {
        let mut v: Vec<f64> = report.trials.iter().map(side).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let cold_median = median(&sorted(|t| t.0));
    let warm_median = median(&sorted(|t| t.1));
    let record = json::Obj::new()
        .str("bench", "service")
        .u64("seed", seed())
        .u64("dse_iters", iters as u64)
        .u64("trials", TRIALS as u64)
        .u64("fleet_jobs", report.fleet_jobs as u64)
        .f64("cold_wall_seconds", cold_median)
        .f64("warm_wall_seconds", warm_median)
        .with("store", |o| {
            json::Obj::into(o)
                .u64("lookups", report.warm_stats.lookups)
                .u64("hits", report.warm_stats.hits)
                .u64("misses", report.warm_stats.misses)
                .u64("warm_entries", report.warm_stats.warm_entries)
                .u64("fleet_shared_serves", report.shared_serves)
                .finish();
        })
        .with("summary", |o| {
            json::Obj::into(o)
                .f64("median_warm_speedup", report.median_warm_speedup)
                .bool("identity", report.identity)
                .finish();
        })
        .finish();
    let path = results_dir().join("BENCH_service.json");
    if let Err(e) = write_atomic(&path, format!("{record}\n").as_bytes()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    report
}

/// Render.
pub fn render(r: &ServiceReport) -> String {
    let mut t = Table::new(["metric", "value"]);
    for (i, (cold, warm)) in r.trials.iter().enumerate() {
        t.row([
            format!("trial {i} cold / warm (s)"),
            format!("{cold:.3} / {warm:.3} ({:.1}x)", cold / warm.max(1e-9)),
        ]);
    }
    t.row([
        "median warm-cache speedup".into(),
        format!("{:.1}x", r.median_warm_speedup),
    ]);
    t.row([
        "warm store lookups (hits/misses)".into(),
        format!(
            "{} ({}/{})",
            r.warm_stats.lookups, r.warm_stats.hits, r.warm_stats.misses
        ),
    ]);
    t.row([
        format!("fleet of {}: workers=1 vs workers=4", r.fleet_jobs),
        (if r.identity {
            "byte-identical"
        } else {
            "DIVERGED"
        })
        .to_string(),
    ]);
    t.row([
        "cross-tenant shared serves".into(),
        r.shared_serves.to_string(),
    ]);
    format!(
        "DSE-as-a-service: shared persistent evaluation store\n\n{t}\n\
         A warm store must serve an identical tenant entirely from disk\n\
         (zero misses) and concurrency may change wall-clock only.\n\
         Record: results/BENCH_service.json\n"
    )
}
