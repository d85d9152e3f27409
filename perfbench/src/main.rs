//! OverGen benchmark: overlay generation, app deployment and the DSE
//! service, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `dse-estimate`, `service-warm` (see `perfbench/README.md`).
//! The seed is the only input: every DSE seed and tenant order is drawn
//! from it. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! also writes its spans and one row per program to
//! `perfbench/out/<workload>-<seed>.trace.json`.

mod cpu;
mod gen;
mod layers;
mod run;
mod service;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use overgen_telemetry::Phase;

use run::{mean, median, percentile, share, Run};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0 && s.is_finite())
            .ok_or("--seconds must be a positive number")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

const WORKLOADS: [&str; 2] = ["dse-estimate", "service-warm"];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) if WORKLOADS.contains(&a.workload.as_str()) => a,
        Ok(a) => {
            eprintln!(
                "unknown workload {:?}; expected one of {WORKLOADS:?}",
                a.workload
            );
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // The seed is the only input: drop every variable the library or its
    // harness reads (the simulator oracle doubles every simulated sweep).
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("OVERGEN_") {
            std::env::remove_var(k);
        }
    }

    let work = Path::new("perfbench").join(".work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    ));
    let mut run = Run::new(args.seed, args.trace);
    match args.workload.as_str() {
        "dse-estimate" => gen::run(&mut run, args.seconds),
        "service-warm" => service::run(&mut run, &work, args.seconds),
        _ => unreachable!("workload validated above"),
    }
    let _ = std::fs::remove_dir_all(&work);

    let metrics = if args.trace {
        let metrics = per_layer(&run);
        if let Err(e) = write_trace(&run, &args, &metrics) {
            run.errors.push(format!("cannot write the trace: {e}"));
        }
        metrics
    } else {
        end_to_end(&mut run)
    };
    println!(
        "workload {} seed {} derived seeds {:?}",
        args.workload, args.seed, run.derived
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.errors.is_empty(),
        run.attempted,
        run.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// A JSON number; non-finite values (a layer never reached) print as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(run: &mut Run) -> Vec<Metric> {
    let metrics = vec![
        ("setup_s", median(&run.setup_s), "s"),
        ("op_ms", run.op_ms(), "ms"),
        ("app_runtime_us", run.app_runtime_us(), "sim_us"),
        (
            "ok_share",
            1.0 - share(run.failed as f64, run.attempted as f64),
            "ratio",
        ),
    ];
    for (name, v, _) in &metrics {
        run.check(v.is_finite() && *v > 0.0, || {
            format!("{name} has no measurement ({v})")
        });
    }
    metrics
}

fn per_layer(run: &Run) -> Vec<Metric> {
    let t = run.trace.as_ref().expect("traced run");
    let snap = t.profiler.snapshot();
    let reg = t.collector.registry();
    let phase_ms = |p: Phase| snap.phase_total_us(p) as f64 / 1e3;
    let ops = run.ops as f64;
    let per_op = |x: f64| share(x, ops);
    let med = |name: &str| {
        let s = t.samples(name);
        if s.is_empty() {
            0.0
        } else {
            median(s)
        }
    };
    // Engine counters: the ops' own registry, plus what service jobs wrote.
    let c = |name: &str| reg.counter_value(name) as f64 + t.count(name);
    let jobs = t.count("service.jobs");
    let admitted = t.count("sim.analytic.admitted");
    vec![
        ("model.breakdown_us", med("model.breakdown_us"), "us"),
        ("model.estimate_ipc_ns", med("model.estimate_ipc_ns"), "ns"),
        ("dse.system.sweep_ms", med("dse.system.sweep_ms"), "ms"),
        (
            "dse.system.sim_sweep_ms",
            med("dse.system.sim_sweep_ms"),
            "ms",
        ),
        (
            "dse.system.busy_ms",
            per_op(phase_ms(Phase::SystemDse)),
            "ms",
        ),
        (
            "dse.system.share",
            share(phase_ms(Phase::SystemDse), phase_ms(Phase::Eval)),
            "ratio",
        ),
        (
            "dse.system.sweeps",
            per_op(c("dse.cache.system_miss")),
            "count",
        ),
        ("sim.batch_new_us", med("sim.batch_new_us"), "us"),
        ("sim.batch_run_us", med("sim.batch_run_us"), "us"),
        ("sim.bound_ns", med("sim.bound_ns"), "ns"),
        (
            "sim.prune_share",
            share(
                t.count("sim.analytic.pruned"),
                t.count("sim.analytic.pruned") + admitted,
            ),
            "ratio",
        ),
        (
            "sim.reuse_share",
            share(t.count("sim.batch.reuse"), t.count("sim.batch.runs")),
            "ratio",
        ),
        ("sim.busy_ms", per_op(phase_ms(Phase::Simulate)), "ms"),
        ("sim.analytic_busy_ms", med("sim.analytic_busy_ms"), "ms"),
        (
            "sim.cycles",
            share(run.sim_cycles as f64, run.simulate_ms.len() as f64),
            "count",
        ),
        ("scheduler.schedule_us", med("scheduler.schedule_us"), "us"),
        (
            "scheduler.schedule_fail_share",
            share(
                t.count("scheduler.schedule_fails"),
                t.count("scheduler.schedule_attempts"),
            ),
            "ratio",
        ),
        ("scheduler.repair_us", med("scheduler.repair_us"), "us"),
        (
            "scheduler.repair.fast_share",
            share(
                t.count("scheduler.repair.fast"),
                t.count("scheduler.repair.fast") + t.count("scheduler.repair.fallback"),
            ),
            "ratio",
        ),
        (
            "scheduler.busy_ms",
            per_op(phase_ms(Phase::Schedule) + phase_ms(Phase::Repair)),
            "ms",
        ),
        (
            "compiler.compile_variants_us",
            med("compiler.compile_variants_us"),
            "us",
        ),
        (
            "compiler.variants_per_kernel",
            mean(t.samples("compiler.variants_per_kernel")),
            "count",
        ),
        (
            "overgen.compile.attempts_per_app",
            mean(t.samples("overgen.compile.attempts_per_app")),
            "count",
        ),
        (
            "overgen.compile_ms",
            run.per_app_fastest(|a| &a.compile_ms),
            "ms",
        ),
        ("overgen.compile_ms_p50", median(&run.compile_ms), "ms"),
        (
            "overgen.compile_ms_p95",
            percentile(&run.compile_ms, 95.0),
            "ms",
        ),
        (
            "overgen.execute_ms",
            run.per_app_fastest(|a| &a.simulate_ms),
            "ms",
        ),
        ("overgen.execute_ms_p50", median(&run.simulate_ms), "ms"),
        (
            "overgen.execute_ms_p95",
            percentile(&run.simulate_ms, 95.0),
            "ms",
        ),
        ("dse.eval.busy_ms", per_op(phase_ms(Phase::Eval)), "ms"),
        (
            "dse.eval.misses",
            per_op(t.count("dse.cache.miss")),
            "count",
        ),
        (
            "dse.cache.hit_rate",
            share(
                t.count("dse.cache.hit"),
                t.count("dse.cache.hit") + t.count("dse.cache.miss"),
            ),
            "ratio",
        ),
        (
            "dse.invalid_share",
            share(t.count("dse.invalid"), t.count("dse.iterations")),
            "ratio",
        ),
        (
            "dse.engine_ms",
            share(
                t.count("dse.generation_wall_ms") - phase_ms(Phase::Eval),
                t.count("dse.generations"),
            ),
            "ms",
        ),
        ("dse.rewrite.apply_us", med("dse.rewrite.apply_us"), "us"),
        ("dse.store.open_ms", med("dse.store.open_ms"), "ms"),
        (
            "dse.store.publishes",
            share(t.count("dse.store.publishes"), t.count("service.cold_jobs")),
            "count",
        ),
        (
            "dse.store.bytes_per_entry",
            med("dse.store.bytes_per_entry"),
            "B",
        ),
        (
            "dse.store.hit_rate",
            share(t.count("dse.store.hits"), t.count("dse.store.lookups")),
            "ratio",
        ),
        (
            "dse.checkpoint.writes",
            share(c("dse.checkpoint.write"), jobs),
            "count",
        ),
        (
            "dse.checkpoint.write_us",
            share(c("dse.checkpoint.write_us"), c("dse.checkpoint.write")),
            "us",
        ),
        (
            "dse.checkpoint.bytes",
            share(t.count("dse.checkpoint.bytes"), jobs),
            "B",
        ),
        ("service.start_ms", med("service.start_ms"), "ms"),
        ("service.job_cold_ms", med("service.job_cold_ms"), "ms"),
        ("service.shutdown_ms", med("service.shutdown_ms"), "ms"),
        (
            "telemetry.overhead_share",
            t.count("telemetry.overhead_share"),
            "ratio",
        ),
    ]
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Write the traced run's spans, self times, per-program rows and
/// per-layer metrics.
fn write_trace(run: &Run, args: &Args, metrics: &[Metric]) -> std::io::Result<PathBuf> {
    let t = run.trace.as_ref().expect("traced run");
    let dir = Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-{}.trace.json", args.workload, args.seed));
    let self_ms: Vec<String> = t
        .self_ms()
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
        .collect();
    let layer: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"peak_rss_mb\": {}, \"derived_seeds\": {:?},\n\"per_layer\": {{{}}},\n\"self_ms\": {{{}}},\n\"rows\": [\n{}\n],\n\"spans\": [\n{}\n]}}\n",
        args.workload,
        args.seed,
        num(peak_rss_mib()),
        run.derived,
        layer.join(", "),
        self_ms.join(", "),
        t.rows.join(",\n"),
        t.spans_json().join(",\n"),
    );
    std::fs::write(&path, body)?;
    Ok(path)
}
