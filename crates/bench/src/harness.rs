//! Shared experiment machinery: overlay generation per scope, AutoDSE
//! baselines, and end-to-end run-time measurement.

use std::path::PathBuf;
use std::time::Instant;

use overgen::{generate, GenerateConfig, Overlay};
use overgen_compiler::CompileOptions;
use overgen_dse::{DseConfig, HeartbeatConfig, SystemDseConfig};
use overgen_hls::{explore, AutoDseConfig, AutoDseResult};
use overgen_ir::{Kernel, Suite};
use overgen_sim::SimConfig;
use overgen_telemetry::{
    count_into, event, fs::write_atomic, json, ClockMode, Collector, FileSink, Profiler, Registry,
};
use overgen_workloads as workloads;

/// Spatial-DSE iterations per generated overlay (env `OVERGEN_DSE_ITERS`).
pub fn dse_iters() -> usize {
    std::env::var("OVERGEN_DSE_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

/// Global experiment seed (env `OVERGEN_SEED`).
pub fn seed() -> u64 {
    std::env::var("OVERGEN_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2022)
}

/// Read `--<flag> N` / `--<flag>=N` from the process arguments.
fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if let Some(v) = a.strip_prefix(&format!("--{flag}=")) {
            return Some(v.to_string());
        }
        if a == format!("--{flag}") {
            return args.next();
        }
    }
    None
}

/// DSE worker threads (`--threads N` or env `OVERGEN_DSE_THREADS`): how
/// many annealing chains run at once. `0` means one worker per core; the
/// default of 1 runs serially, and so does a single chain at any value.
/// Results and traces are identical for any value — this only changes
/// wall-clock.
pub fn dse_threads() -> usize {
    arg_value("threads")
        .or_else(|| std::env::var("OVERGEN_DSE_THREADS").ok())
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Parallel annealing chains (`--chains N` or env `OVERGEN_DSE_CHAINS`,
/// default 1). Unlike `--threads`, this changes what is explored: each
/// chain anneals independently with periodic best-state exchange.
pub fn dse_chains() -> usize {
    arg_value("chains")
        .or_else(|| std::env::var("OVERGEN_DSE_CHAINS").ok())
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1)
}

/// Incremental repair fast path (env `OVERGEN_REPAIR`, default on).
/// `OVERGEN_REPAIR=0` switches every eligible repair into verification
/// mode: a silent full placement asserted equal to the fast
/// reconstruction. Results, counters, and traces are byte-identical in
/// both modes — the determinism gate in `scripts/check.sh` diffs them.
pub fn repair_enabled() -> bool {
    !matches!(
        std::env::var("OVERGEN_REPAIR").as_deref(),
        Ok("0") | Ok("false") | Ok("no")
    )
}

/// Directory experiment artifacts land in (env `OVERGEN_RESULTS_DIR`,
/// default `results`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("OVERGEN_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Whether to capture a full JSONL trace (env `OVERGEN_TRACE`).
fn trace_enabled() -> bool {
    matches!(
        std::env::var("OVERGEN_TRACE").as_deref(),
        Ok("1") | Ok("true") | Ok("yes")
    )
}

/// Live-progress heartbeat (env `OVERGEN_HEARTBEAT`, default off), every
/// [`HeartbeatConfig::default`] period of proposals. When enabled the
/// engine publishes `dse.heartbeat.*` gauges to the metrics registry and
/// prints a one-line progress summary to stderr at each threshold.
/// Heartbeat state never reaches the trace stream, so traces stay
/// byte-identical either way.
pub fn heartbeat_config() -> Option<HeartbeatConfig> {
    matches!(
        std::env::var("OVERGEN_HEARTBEAT").as_deref(),
        Ok("1") | Ok("true") | Ok("yes")
    )
    .then(|| HeartbeatConfig {
        stderr: true,
        ..HeartbeatConfig::default()
    })
}

/// Run a named experiment with telemetry installed, then publish its
/// artifacts atomically (temp file + rename, so an interrupted run never
/// leaves a torn file in `results/`):
///
/// - `results/<name>.txt` — the rendered table, also printed to stdout;
/// - `results/<name>.json` — a run manifest: seed, DSE iterations, wall
///   seconds, and the final metrics-registry snapshot;
/// - `results/<name>.trace.jsonl` — the deterministic JSONL event trace,
///   only when `OVERGEN_TRACE=1` (feed it to `trace-summary` or
///   `overgen-profile`);
/// - `results/<name>.profile.json` — phase-level wall-time attribution
///   (per-phase histograms keyed by phase × footprint class, hottest
///   workloads and system grid points). The profiler never reaches the
///   trace or the metrics registry, so it always runs.
///
/// Without a trace file (`OVERGEN_TRACE` off, or the file cannot be
/// opened) the experiment runs under a counting collector: every metric
/// lands in the registry the manifest snapshots, and no event or span is
/// built.
pub fn run_experiment(name: &str, f: impl FnOnce() -> String) {
    let dir = results_dir();
    let tracing = trace_enabled();
    let trace_path = dir.join(format!("{name}.trace.jsonl"));
    let sink = tracing
        .then(|| FileSink::create(&trace_path))
        .and_then(|created| {
            created
                .map_err(|e| eprintln!("warning: cannot open {}: {e}", trace_path.display()))
                .ok()
        });
    let profiler = Profiler::new();
    let _profile_install = overgen_telemetry::install_profiler(profiler.clone());
    let run = || {
        event!(
            "bench.run",
            experiment = name,
            seed = seed(),
            dse_iters = dse_iters(),
        );
        let wall = Instant::now();
        let content = f();
        (content, wall.elapsed().as_secs_f64())
    };
    let ((content, wall_seconds), registry) = match sink {
        Some(sink) => {
            let collector = Collector::new(sink, ClockMode::Deterministic);
            let _install = overgen_telemetry::install(collector.clone());
            let out = run();
            collector.snapshot_metrics();
            collector.flush();
            (out, collector.registry().clone())
        }
        None => {
            let registry = Registry::new();
            (count_into(&registry, run), registry)
        }
    };

    print!("{content}");
    let txt = dir.join(format!("{name}.txt"));
    if let Err(e) = write_atomic(&txt, content.as_bytes()) {
        eprintln!("warning: cannot write {}: {e}", txt.display());
    }
    let manifest = json::Obj::new()
        .str("experiment", name)
        .u64("seed", seed())
        .u64("dse_iters", dse_iters() as u64)
        .f64("wall_seconds", wall_seconds)
        .bool("trace", tracing)
        .with("metrics", |o| registry.snapshot_json(o))
        .finish();
    let path = dir.join(format!("{name}.json"));
    if let Err(e) = write_atomic(&path, format!("{manifest}\n").as_bytes()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }

    let profile = profiler.snapshot().render_json(name, 5);
    let path = dir.join(format!("{name}.profile.json"));
    if let Err(e) = write_atomic(&path, format!("{profile}\n").as_bytes()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// DSE configuration used by all experiments. Parallelism comes from
/// `--threads`/`--chains` (or `OVERGEN_DSE_THREADS`/`OVERGEN_DSE_CHAINS`);
/// the thread count is intentionally kept out of emitted trace events so
/// traces stay byte-identical across worker counts.
pub fn dse_config(iterations: usize, seed: u64) -> DseConfig {
    DseConfig {
        iterations,
        seed,
        schedule_preserving: true,
        system: SystemDseConfig::default(),
        compile: CompileOptions::default(),
        weights: Default::default(),
        mutations_per_step: 2,
        threads: dse_threads(),
        chains: dse_chains(),
        repair: repair_enabled(),
        heartbeat: heartbeat_config(),
        ..Default::default()
    }
}

/// Generate the suite-specialised overlay (Table III columns).
pub fn suite_overlay(suite: Suite) -> Overlay {
    let domain = workloads::suite(suite);
    generate(
        &domain,
        &GenerateConfig {
            dse: dse_config(dse_iters(), seed() ^ suite as u64),
        },
    )
}

/// Generate a workload-specialised overlay.
pub fn workload_overlay(kernel: &Kernel) -> Overlay {
    generate(
        std::slice::from_ref(kernel),
        &GenerateConfig {
            dse: dse_config(dse_iters(), seed() ^ hash_name(kernel.name())),
        },
    )
}

/// Generate an overlay for an arbitrary domain subset.
pub fn domain_overlay(domain: &[Kernel], salt: u64) -> Overlay {
    generate(
        domain,
        &GenerateConfig {
            dse: dse_config(dse_iters(), seed() ^ salt),
        },
    )
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

/// AutoDSE run for a kernel; `tuned` selects the manually tuned variant
/// when one exists.
pub fn autodse(name: &str, tuned: bool, dram_channels: u32) -> Option<AutoDseResult> {
    let kernel = if tuned {
        workloads::hls_tuned(name).or_else(|| workloads::by_name(name))?
    } else {
        workloads::by_name(name)?
    };
    Some(explore(
        &kernel,
        &AutoDseConfig {
            dram_channels,
            ..Default::default()
        },
    ))
}

/// End-to-end OverGen seconds for a kernel on an overlay. When
/// `allow_og_tuning`, the OverGen-tuned variant is also tried and the
/// faster one wins (the paper's convention for the main comparison).
/// Returns `None` when no variant schedules.
pub fn og_seconds(overlay: &Overlay, name: &str, allow_og_tuning: bool) -> Option<f64> {
    og_seconds_with(overlay, name, allow_og_tuning, &SimConfig::default())
}

/// [`og_seconds`] with a custom simulator configuration (Q7 uses this for
/// DRAM-channel sweeps).
pub fn og_seconds_with(
    overlay: &Overlay,
    name: &str,
    allow_og_tuning: bool,
    sim: &SimConfig,
) -> Option<f64> {
    let mut best: Option<f64> = None;
    let mut consider = |k: &Kernel| {
        if let Ok(app) = overlay.compile(k) {
            let report = overlay.execute_with(&app, sim);
            // A truncated simulation never reached steady state; its cycle
            // count is a lower bound, not a datapoint. Feeding it into a
            // table would silently skew every derived speedup, so refuse.
            assert!(
                !report.truncated,
                "simulation of `{}` hit the cycle cap — raise \
                 SimConfig::max_cycles instead of benchmarking a truncated run",
                k.name(),
            );
            let secs = report.seconds(overlay.fmax_mhz());
            best = Some(best.map_or(secs, |b: f64| b.min(secs)));
        }
    };
    consider(&workloads::by_name(name)?);
    if allow_og_tuning {
        if let Some(t) = workloads::og_tuned(name) {
            consider(&t);
        }
    }
    best
}

/// The MachSuite slice the DSE-driven benchmarks (repair, checkpoint,
/// pareto, service, dse) explore, as in Figure 18.
pub const DOMAIN: [&str; 3] = ["stencil-2d", "gemm", "ellpack"];

/// The kernels of [`DOMAIN`].
pub fn domain() -> Vec<Kernel> {
    DOMAIN
        .iter()
        .map(|n| workloads::by_name(n).expect("workload exists"))
        .collect()
}

/// Counter `name` on the installed collector's registry (0 when no
/// collector is installed or the counter was never registered).
pub fn counter(name: &str) -> u64 {
    overgen_telemetry::current().map_or(0, |c| c.registry().counter_value(name))
}

/// Upper median of sorted values (`sorted[len / 2]`); 0 when empty.
pub fn median(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[sorted.len() / 2]
}

/// Wall-clock `f`, best of `reps` runs: the last run's output and the
/// fastest run's seconds.
pub fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        let v = f();
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(v);
    }
    (out.expect("reps >= 1"), best)
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-300).ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn autodse_runs_for_all_workloads() {
        for k in workloads::all() {
            let r = autodse(k.name(), false, 1).unwrap();
            assert!(r.best.seconds > 0.0, "{}", k.name());
        }
    }

    #[test]
    fn general_overlay_runs_most_workloads() {
        let overlay = Overlay::general();
        let mut ran = 0;
        for k in workloads::all() {
            if og_seconds(&overlay, k.name(), false).is_some() {
                ran += 1;
            }
        }
        assert!(ran >= 15, "only {ran}/19 ran on the general overlay");
    }
}
