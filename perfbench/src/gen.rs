//! The overlay-generation workload (`dse-estimate`): one op is `Dse::run`
//! plus `Overlay::from_dse` from a fresh seed; each domain kernel is then
//! compiled and simulated on the overlay just generated.

use std::collections::BTreeMap;
use std::time::Instant;

use overgen::{workloads, Overlay};
use overgen_compiler::CompileOptions;
use overgen_dse::{Dse, DseConfig, DseStats, Objective, SystemDseBackend, SystemDseConfig};
use overgen_ir::Kernel;
use overgen_model::{breakdown, estimate_ipc, weighted_geomean_ipc, AnalyticModel, XCVU9P};

use crate::cpu;
use crate::layers::{generation_layers, Generated};
use crate::run::Run;

/// The MachSuite domain, as the paper generates its overlay.
const DOMAIN: [&str; 5] = ["stencil-3d", "crs", "gemm", "stencil-2d", "ellpack"];

/// Proposals per generation.
const ITERATIONS: usize = 60;

/// Proposals of the short warm-up generation each set-up ends with.
const WARMUP_ITERATIONS: usize = 1;

/// Distinct generation seeds per run, taken in turn until time is up, so
/// that each recurs through the run.
const SEEDS_PER_RUN: usize = 16;

/// Seed of every warm-up op. Fixed, unlike the measured inputs, so that
/// set-up time does not depend on the drawn inputs.
pub const WARMUP_SEED: u64 = 0;

pub fn kernels(names: &[&str]) -> Vec<Kernel> {
    names
        .iter()
        .map(|n| workloads::by_name(n).expect("paper workload exists"))
        .collect()
}

/// The library defaults with the Estimate backend, spelled out so that no
/// environment variable and no later change of a default silently changes
/// what is measured.
pub fn config(iterations: usize, seed: u64) -> DseConfig {
    DseConfig {
        iterations,
        seed,
        schedule_preserving: true,
        objective: Objective::default(),
        system: SystemDseConfig {
            backend: SystemDseBackend::Estimate,
            ..SystemDseConfig::default()
        },
        compile: CompileOptions::default(),
        weights: BTreeMap::new(),
        mutations_per_step: 2,
        threads: 1,
        chains: 1,
        exchange_interval: 25,
        cache: true,
        compound: 1,
        repair: true,
        checkpoint: None,
        max_proposals: None,
        max_wall_seconds: None,
        heartbeat: None,
        store: None,
        stop: None,
    }
}

/// One set-up: the domain's kernels and a generation on a fixed input.
fn setup(run: &mut Run, warm_cfg: &DseConfig) -> Vec<Kernel> {
    run.setup(|| {
        let domain = kernels(&DOMAIN);
        let _ = Dse::new(domain.clone(), warm_cfg.clone()).run();
        domain
    })
}

pub fn run(run: &mut Run, seconds: f64) {
    let warm_cfg = config(WARMUP_ITERATIONS, WARMUP_SEED);
    let domain = setup(run, &warm_cfg);
    run.calibrate(10, || {
        let _ = Dse::new(domain.clone(), warm_cfg.clone()).run();
    });

    let seeds: Vec<u64> = (0..SEEDS_PER_RUN).map(|_| run.next_seed()).collect();
    let start = Instant::now();
    for &seed in seeds.iter().cycle() {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= seconds {
            break;
        }
        if run.setup_due(elapsed, seconds) {
            setup(run, &warm_cfg);
        }
        generation(run, &domain, seed);
    }
}

/// One timed generation, the deploy of its domain, the output checks and,
/// in a traced run, the layer re-drives.
fn generation(run: &mut Run, domain: &[Kernel], seed: u64) {
    let op = run.op_id();
    let cfg = config(ITERATIONS, seed);
    let span = run.open("op.generate", op, None);
    let guards = run.install();
    let (t0, c0) = (Instant::now(), cpu::seconds());
    let result = Dse::new(domain.to_vec(), cfg.clone()).run();
    let t1 = Instant::now();
    let generated = result.map(|mut r| {
        let mdfgs = std::mem::take(&mut r.mdfgs);
        let variants = r.variants.clone();
        let (stats, objective) = (r.stats, r.objective);
        let overlay = Overlay::from_dse(r, cfg.compile);
        (overlay, mdfgs, variants, stats, objective)
    });
    let (t2, c2) = (Instant::now(), cpu::seconds());
    drop(guards);
    run.span_at("dse.run", op, span, t0, t1);
    run.span_at("overlay.from_dse", op, span, t1, t2);
    run.close(span);
    if let Some(t) = run.trace.as_mut() {
        // The engine's phase totals are wall time, so the engine's own
        // share is taken against the generation's wall time.
        t.add("dse.generation_wall_ms", (t2 - t0).as_secs_f64() * 1e3);
    }
    let op_ms = (c2 - c0) * 1e3;
    run.op_done(&seed.to_string(), op_ms, 1);
    run.op_outcome(generated.is_ok());
    let (overlay, mdfgs, variants, stats, objective) = match generated {
        Ok(g) => g,
        Err(e) => {
            eprintln!("generation seed {seed}: {e}");
            return;
        }
    };

    let fmax = overlay.fmax_mhz();
    let span = run.open("deploy", op, None);
    for k in domain {
        let compiled = run.deploy(&overlay, fmax, k, &seed.to_string(), op, span);
        // Check (c): every domain kernel maps onto its own overlay.
        run.check(compiled, || {
            format!("seed {seed}: {} does not compile on its overlay", k.name())
        });
    }
    run.close(span);

    let g = Generated {
        domain,
        overlay: &overlay,
        mdfgs: &mdfgs,
        variants: &variants,
        cfg: &cfg,
    };
    check_objective(run, &g, objective, seed);
    let used = breakdown(&overlay.sys_adg, &AnalyticModel).total();
    run.check(XCVU9P.fits(&used, cfg.system.util_cap), || {
        format!("seed {seed}: overlay exceeds the XCVU9P at util_cap")
    });

    if run.trace.is_some() {
        record_generation(run, &g, op, seed, op_ms, &stats, objective);
        let span = run.open("redrive.generate", op, None);
        generation_layers(run, &g, span, op);
        run.close(span);
    }
}

/// Check (a): the reported objective is, bit for bit, the weighted geomean
/// of `estimate_ipc × balance_penalty` recomputed from the returned
/// schedules at the chosen system parameters.
fn check_objective(run: &mut Run, g: &Generated, objective: f64, seed: u64) {
    let sys = g.overlay.sys_adg.sys;
    let spad_bw = g.spad_bw();
    let ipcs: Vec<(f64, f64)> = g
        .chosen()
        .iter()
        .map(|(_, m, s)| {
            let est = estimate_ipc(m, &sys, spad_bw, &s.placement);
            (est.ipc * s.balance_penalty, 1.0)
        })
        .collect();
    let recomputed = weighted_geomean_ipc(&ipcs);
    run.check(recomputed.to_bits() == objective.to_bits(), || {
        format!("seed {seed}: objective {objective} != recomputed {recomputed}")
    });
}

fn record_generation(
    run: &mut Run,
    g: &Generated,
    op: u64,
    seed: u64,
    op_ms: f64,
    stats: &DseStats,
    objective: f64,
) {
    let s = g.overlay.sys_adg.sys;
    run.row(format!(
        "{{\"kind\":\"generation\",\"op\":{op},\"seed\":{seed},\"cpu_ms\":{op_ms},\"proposals\":{},\"objective\":{objective},\"sys\":{{\"tiles\":{},\"l2_banks\":{},\"l2_kb\":{},\"noc_bw_bytes\":{},\"dram_channels\":{}}}}}",
        stats.iterations,
        s.tiles,
        s.l2_banks,
        s.l2_kb,
        s.noc_bw_bytes,
        s.dram_channels
    ));
    record_stats(run, stats);
    if let Some(t) = run.trace.as_mut() {
        t.add("dse.generations", 1.0);
    }
}

/// Fold one DSE run's counters into the traced run's per-layer tallies.
pub fn record_stats(run: &mut Run, stats: &DseStats) {
    if let Some(t) = run.trace.as_mut() {
        t.add("dse.iterations", stats.iterations as f64);
        t.add("dse.invalid", stats.invalid as f64);
        t.add("dse.cache.hit", stats.cache_hits as f64);
        t.add("dse.cache.miss", stats.cache_misses as f64);
        t.add("scheduler.repair.fast", stats.repair_fast as f64);
        t.add("scheduler.repair.fallback", stats.repair_fallback as f64);
    }
}
