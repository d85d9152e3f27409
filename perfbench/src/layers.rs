//! Per-layer re-drives for the traced run. After an op, each layer the op
//! used is called again on that op's own inputs and outputs and timed from
//! outside; calls under a microsecond are timed in batches through
//! `black_box`. Nothing is installed on the thread while these run, so the
//! engine's counters and phase totals see only the ops themselves.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use overgen::{CompiledApp, Overlay};
use overgen_adg::SysAdg;
use overgen_compiler::compile_variants;
use overgen_dse::{system_dse, system_dse_sim, Dse, DseConfig, RuleSet, TransformCtx};
use overgen_ir::Kernel;
use overgen_mdfg::Mdfg;
use overgen_model::{breakdown, estimate_ipc, AnalyticModel, Placement};
use overgen_scheduler::{repair_with, schedule, RepairOptions, Schedule};
use overgen_sim::{SimBatch, SimConfig};
use overgen_telemetry::profile::install_profiler;
use overgen_telemetry::{install, ClockMode, Collector, NullSink, Phase, Profiler, Rng};

use crate::cpu;
use crate::run::Run;

/// Winners per traced run that the simulator-scored sweep is re-driven on.
const SIM_SWEEPS: usize = 1;

/// Mean CPU µs of one call of `f` over `reps` back-to-back calls.
fn time_us<T>(reps: u32, mut f: impl FnMut() -> T) -> f64 {
    let ((), ms) = cpu::time_ms(|| {
        for _ in 0..reps {
            black_box(f());
        }
    });
    ms * 1e3 / f64::from(reps)
}

/// Time one call of `f` in CPU µs, record it as a span and return (result,
/// µs).
fn timed<T>(
    run: &mut Run,
    span: &'static str,
    op: u64,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let t0 = Instant::now();
    let (out, ms) = cpu::time_ms(f);
    run.span_at(span, op, parent, t0, Instant::now());
    (out, ms * 1e3)
}

fn sample(run: &mut Run, name: &'static str, v: f64) {
    if let Some(t) = run.trace.as_mut() {
        t.sample(name, v);
    }
}

/// The layers `Overlay::compile` and `Overlay::execute` use: variant
/// compilation, the widest-first schedule walk, and the batched simulator.
pub fn deploy_layers(
    run: &mut Run,
    overlay: &Overlay,
    kernel: &Kernel,
    app: &CompiledApp,
    parent: Option<usize>,
    op: u64,
) {
    let (variants, us) = timed(run, "compiler.compile_variants", op, parent, || {
        compile_variants(kernel, &overlay.compile_opts).unwrap_or_default()
    });
    sample(run, "compiler.compile_variants_us", us);
    sample(run, "compiler.variants_per_kernel", variants.len() as f64);

    let seed = overlay.seed_schedules.get(kernel.name());
    let (mut attempts, mut fails) = (0.0, 0.0);
    for v in &variants {
        let prior = seed.filter(|s| s.variant == v.variant());
        let (res, us) = timed(run, "scheduler.schedule", op, parent, || {
            schedule(v, &overlay.sys_adg, prior)
        });
        sample(run, "scheduler.schedule_us", us);
        attempts += 1.0;
        if res.is_ok() {
            break;
        }
        fails += 1.0;
    }
    sample(run, "overgen.compile.attempts_per_app", attempts);
    if let Some(t) = run.trace.as_mut() {
        t.add("scheduler.schedule_attempts", attempts);
        t.add("scheduler.schedule_fails", fails);
    }

    let cfg = SimConfig::default();
    let sys = overlay.sys_adg.sys;
    let (mut batch, us) = timed(run, "sim.batch_new", op, parent, || {
        SimBatch::new(&app.mdfg, &app.schedule, &overlay.sys_adg.adg, &cfg)
    });
    sample(run, "sim.batch_new_us", us);
    let (_, us) = timed(run, "sim.batch_run", op, parent, || batch.run(&sys));
    sample(run, "sim.batch_run_us", us);
    let t0 = Instant::now();
    let ns = time_us(1000, || batch.bound(black_box(&sys))) * 1e3;
    run.span_at("sim.bound", op, parent, t0, Instant::now());
    sample(run, "sim.bound_ns", ns);
}

/// What a generation produced, as the layer re-drives and checks need it.
pub struct Generated<'a> {
    pub domain: &'a [Kernel],
    pub overlay: &'a Overlay,
    pub mdfgs: &'a BTreeMap<String, Vec<Mdfg>>,
    pub variants: &'a BTreeMap<String, u32>,
    pub cfg: &'a DseConfig,
}

impl Generated<'_> {
    /// The chosen variant's mDFG per workload, in name order.
    pub fn chosen(&self) -> Vec<(&str, &Mdfg, &Schedule)> {
        self.mdfgs
            .iter()
            .map(|(name, vs)| {
                let v = self.variants[name];
                let m = vs
                    .iter()
                    .find(|m| m.variant() == v)
                    .expect("chosen variant was compiled");
                (name.as_str(), m, &self.overlay.seed_schedules[name])
            })
            .collect()
    }

    /// Summed scratchpad bandwidth of the winner ADG, as the engine's
    /// performance estimate takes it.
    pub fn spad_bw(&self) -> f64 {
        self.overlay
            .sys_adg
            .adg
            .nodes()
            .filter_map(|(_, n)| n.as_spad().map(|s| f64::from(s.bw_bytes)))
            .sum()
    }
}

/// The layers one proposal evaluation runs, on the generation's winner: a
/// rewrite rule and the repairs it triggers, one grid point of the
/// resource model, the performance estimate, the Estimate system sweep and
/// its simulator-scored counterpart.
pub fn generation_layers(run: &mut Run, g: &Generated, parent: Option<usize>, op: u64) {
    let chosen = g.chosen();
    let sys = g.overlay.sys_adg.sys;

    let cap_pool = Dse::cap_pool(g.domain);
    let mut schedules: Vec<Schedule> = chosen.iter().map(|(_, _, s)| (*s).clone()).collect();
    let mut adg = g.overlay.sys_adg.adg.clone();
    let mut rng = Rng::seed_from_u64(g.cfg.seed);
    let (applied, us) = timed(run, "dse.rewrite.apply", op, parent, || {
        let mut ctx = TransformCtx {
            cap_pool: &cap_pool,
            schedules: &mut schedules,
            preserving: g.cfg.schedule_preserving,
        };
        RuleSet::legacy().apply_random(&mut adg, &mut ctx, &mut rng, 1)
    });
    sample(run, "dse.rewrite.apply_us", us);
    let mutated = SysAdg::new(adg, sys);
    let opts = RepairOptions {
        incremental: g.cfg.repair,
        footprint: Some(applied.inferred),
        scope: None,
    };
    for ((_, m, _), prior) in chosen.iter().zip(&schedules) {
        let (_, us) = timed(run, "scheduler.repair", op, parent, || {
            repair_with(prior, m, &mutated, &opts)
        });
        sample(run, "scheduler.repair_us", us);
    }

    let t0 = Instant::now();
    let us = time_us(16, || {
        breakdown(
            &SysAdg::new(g.overlay.sys_adg.adg.clone(), sys),
            &AnalyticModel,
        )
    });
    run.span_at("model.breakdown", op, parent, t0, Instant::now());
    sample(run, "model.breakdown_us", us);
    let spad_bw = g.spad_bw();
    for (_, m, s) in &chosen {
        let t0 = Instant::now();
        let ns = time_us(1000, || {
            estimate_ipc(black_box(m), &sys, spad_bw, &s.placement)
        }) * 1e3;
        run.span_at("model.estimate_ipc", op, parent, t0, Instant::now());
        sample(run, "model.estimate_ipc_ns", ns);
    }

    let adg = &g.overlay.sys_adg.adg;
    let per: Vec<(&Mdfg, &Placement, f64)> = chosen
        .iter()
        .map(|(_, m, s)| (*m, &s.placement, 1.0))
        .collect();
    let (_, us) = timed(run, "dse.system.sweep", op, parent, || {
        system_dse(adg, &per, &AnalyticModel, &g.cfg.system, 1)
    });
    sample(run, "dse.system.sweep_ms", us / 1e3);

    if run.trace.as_ref().map_or(0.0, |t| t.count("sim.sweeps")) < SIM_SWEEPS as f64 {
        simulated_sweep(run, g, &chosen, parent, op);
    }
}

/// The simulator-scored sweep on a generation's winner, with check (e): the
/// pruned walk picks the exhaustive walk's parameters and score bits. The
/// exhaustive walk takes seconds, so only the first winner of a run gets
/// it, and stencil-3d is left out (one simulated sweep of it takes ~13 s).
/// A private collector and profiler count what the pruned walk skipped,
/// reused and spent on the analytic bound.
fn simulated_sweep(
    run: &mut Run,
    g: &Generated,
    chosen: &[(&str, &Mdfg, &Schedule)],
    parent: Option<usize>,
    op: u64,
) {
    let adg = &g.overlay.sys_adg.adg;
    let per_sim: Vec<(&Mdfg, &Schedule, f64)> = chosen
        .iter()
        .filter(|(name, _, _)| *name != "stencil-3d")
        .map(|(_, m, s)| (*m, *s, 1.0))
        .collect();
    let sim = SimConfig::default();
    let collector = Collector::new(Arc::new(NullSink), ClockMode::Wall);
    let profiler = Profiler::new();
    let t0 = Instant::now();
    let (pruned, ms) = {
        let _c = install(collector.clone());
        let _p = install_profiler(profiler.clone());
        cpu::time_ms(|| system_dse_sim(adg, &per_sim, &AnalyticModel, &g.cfg.system, &sim, true))
    };
    run.span_at("dse.system.sim_sweep", op, parent, t0, Instant::now());
    let full = system_dse_sim(adg, &per_sim, &AnalyticModel, &g.cfg.system, &sim, false);
    let same = match (&pruned, &full) {
        (Some((a, x)), Some((b, y))) => a == b && x.to_bits() == y.to_bits(),
        (None, None) => true,
        _ => false,
    };
    run.check(same, || {
        format!(
            "seed {}: pruned sweep {pruned:?} != exhaustive {full:?}",
            g.cfg.seed
        )
    });
    let reg = collector.registry();
    let admitted = reg.counter_value("sim.analytic.admitted") as f64;
    if let Some(t) = run.trace.as_mut() {
        t.sample("dse.system.sim_sweep_ms", ms);
        t.sample(
            "sim.analytic_busy_ms",
            profiler.snapshot().phase_total_us(Phase::Analytic) as f64 / 1e3,
        );
        t.add("sim.analytic.admitted", admitted);
        t.add(
            "sim.analytic.pruned",
            reg.counter_value("sim.analytic.pruned") as f64,
        );
        t.add(
            "sim.batch.reuse",
            reg.counter_value("sim.batch.reuse") as f64,
        );
        t.add("sim.batch.runs", admitted * per_sim.len() as f64);
        t.add("sim.sweeps", 1.0);
    }
}
