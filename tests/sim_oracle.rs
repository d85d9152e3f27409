//! The differential oracle for the simulator-backed system DSE.
//!
//! `OVERGEN_SIM_ORACLE=1` makes `system_dse_sim` run a silent exhaustive
//! shadow sweep beside the analytically-pruned one and panic if the
//! winners (parameters or exact score bits) ever diverge — pruning must
//! be invisible to everything except wall-clock. This harness drives the
//! oracle across all 19 paper workloads, a seeded-random grid sweep, and
//! full DSE runs at `threads` 1 and 4, asserting byte-identical results
//! and traces in every configuration.

use std::sync::Mutex;

use overgen::{workloads, Overlay};
use overgen_compiler::CompileOptions;
use overgen_dse::{system_dse_sim, Dse, DseConfig, DseResult, SystemDseBackend, SystemDseConfig};
use overgen_model::AnalyticModel;
use overgen_sim::SimConfig;
use overgen_telemetry::{Collector, Rng};

/// Serializes every env-touching section: `OVERGEN_SIM_ORACLE` is process
/// global and the tests in this binary run concurrently. (The oracle is
/// trace- and result-invisible by design, so a race would only add silent
/// shadow work — the lock keeps pruning tallies deterministic anyway.)
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_oracle<T>(on: bool, f: impl FnOnce() -> T) -> T {
    let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    if on {
        std::env::set_var("OVERGEN_SIM_ORACLE", "1");
    } else {
        std::env::remove_var("OVERGEN_SIM_ORACLE");
    }
    let out = f();
    std::env::remove_var("OVERGEN_SIM_ORACLE");
    out
}

/// A reduced grid (32 points) that keeps the debug-build sweeps quick
/// while still spanning every parameter axis.
fn small_cfg() -> SystemDseConfig {
    SystemDseConfig {
        max_tiles: 4,
        l2_banks_grid: vec![4, 16],
        l2_kb_grid: vec![256, 2048],
        noc_bw_grid: vec![32, 64],
        ..Default::default()
    }
}

#[test]
fn oracle_holds_on_all_19_workloads() {
    // The pruned sweep runs with the oracle armed: `system_dse_sim`
    // itself asserts winner identity against its exhaustive shadow, so
    // surviving the call is the differential check. The returned winner
    // must also exist for every workload (the general overlay fits the
    // default device comfortably).
    let overlay = Overlay::general();
    let kernels = workloads::all();
    assert_eq!(kernels.len(), 19);
    let cfg = small_cfg();
    // A tight cycle cap keeps the debug-build sweep quick on the largest
    // workloads; truncated runs are still deterministic reports, so the
    // pruned-vs-exhaustive property is exercised unchanged.
    let sim_cfg = SimConfig {
        max_cycles: 120_000,
        ..Default::default()
    };
    with_oracle(true, || {
        for k in &kernels {
            let app = overlay
                .compile(k)
                .unwrap_or_else(|e| panic!("{} failed to compile: {e}", k.name()));
            let per = vec![(&app.mdfg, &app.schedule, 1.0)];
            let got = system_dse_sim(
                &overlay.sys_adg.adg,
                &per,
                &AnalyticModel,
                &cfg,
                &sim_cfg,
                true,
            );
            let (sys, score) = got.unwrap_or_else(|| panic!("{} found no system", k.name()));
            assert!(score > 0.0, "{}: non-positive score", k.name());
            assert!(sys.tiles >= 1);
        }
    });
}

#[test]
fn pruned_and_exhaustive_return_identical_winners() {
    // Explicit pruned-vs-exhaustive equality (not just the internal
    // assert), including exact score bits, on a representative subset.
    let overlay = Overlay::general();
    let cfg = small_cfg();
    let sim_cfg = SimConfig::default();
    for name in ["fir", "gemm", "ellpack"] {
        let k = workloads::by_name(name).unwrap();
        let app = overlay.compile(&k).unwrap();
        let per = vec![(&app.mdfg, &app.schedule, 1.0)];
        let (pruned, exhaustive) = with_oracle(false, || {
            (
                system_dse_sim(
                    &overlay.sys_adg.adg,
                    &per,
                    &AnalyticModel,
                    &cfg,
                    &sim_cfg,
                    true,
                ),
                system_dse_sim(
                    &overlay.sys_adg.adg,
                    &per,
                    &AnalyticModel,
                    &cfg,
                    &sim_cfg,
                    false,
                ),
            )
        });
        let (p, e) = (pruned.unwrap(), exhaustive.unwrap());
        assert_eq!(p.0, e.0, "{name}: winner params diverged");
        assert_eq!(
            p.1.to_bits(),
            e.1.to_bits(),
            "{name}: winner score bits diverged"
        );
    }
}

#[test]
fn seeded_random_grids_agree() {
    // Random grid shapes, tile caps, and multi-workload weight mixes:
    // pruning must stay winner-invisible off the hand-picked defaults.
    let overlay = Overlay::general();
    let sim_cfg = SimConfig::default();
    let mut rng = Rng::seed_from_u64(0x0AC1E5);
    let apps: Vec<_> = ["fir", "gemm", "ellpack"]
        .iter()
        .map(|n| overlay.compile(&workloads::by_name(n).unwrap()).unwrap())
        .collect();
    let banks_pool = [2u32, 4, 8, 16];
    let kb_pool = [256u32, 512, 1024, 2048];
    let noc_pool = [32u32, 64];
    for trial in 0..8 {
        let pick = |rng: &mut Rng, pool: &[u32]| -> Vec<u32> {
            let n = rng.gen_range(1usize..=pool.len());
            pool[..n].to_vec()
        };
        let cfg = SystemDseConfig {
            max_tiles: rng.gen_range(1u32..=5),
            dram_channels: rng.gen_range(1u32..=2),
            l2_banks_grid: pick(&mut rng, &banks_pool),
            l2_kb_grid: pick(&mut rng, &kb_pool),
            noc_bw_grid: pick(&mut rng, &noc_pool),
            ..Default::default()
        };
        let per: Vec<_> = apps
            .iter()
            .map(|a| (&a.mdfg, &a.schedule, rng.gen_range(1u64..=4) as f64))
            .collect();
        let (pruned, exhaustive) = with_oracle(false, || {
            (
                system_dse_sim(
                    &overlay.sys_adg.adg,
                    &per,
                    &AnalyticModel,
                    &cfg,
                    &sim_cfg,
                    true,
                ),
                system_dse_sim(
                    &overlay.sys_adg.adg,
                    &per,
                    &AnalyticModel,
                    &cfg,
                    &sim_cfg,
                    false,
                ),
            )
        });
        match (pruned, exhaustive) {
            (None, None) => {}
            (Some(p), Some(e)) => {
                assert_eq!(p.0, e.0, "trial {trial}: winner params diverged");
                assert_eq!(
                    p.1.to_bits(),
                    e.1.to_bits(),
                    "trial {trial}: score bits diverged"
                );
            }
            (p, e) => panic!("trial {trial}: feasibility diverged: {p:?} vs {e:?}"),
        }
    }
}

/// One traced simulator-backed DSE run over the fir workload. The
/// (threads=1, oracle=on) leg is shared by two tests, so it is memoized.
fn traced_sim_dse(threads: usize, oracle: bool) -> (DseResult, String) {
    static BASELINE: std::sync::OnceLock<(DseResult, String)> = std::sync::OnceLock::new();
    if threads == 1 && oracle {
        return BASELINE
            .get_or_init(|| traced_sim_dse_uncached(1, true))
            .clone();
    }
    traced_sim_dse_uncached(threads, oracle)
}

fn traced_sim_dse_uncached(threads: usize, oracle: bool) -> (DseResult, String) {
    with_oracle(oracle, || {
        let (collector, ring) = Collector::ring(1 << 18);
        let _install = overgen_telemetry::install(collector);
        let cfg = DseConfig {
            iterations: 6,
            seed: 0x51A0C1,
            threads,
            compile: CompileOptions {
                max_unroll: 2,
                ..Default::default()
            },
            system: SystemDseConfig {
                backend: SystemDseBackend::Simulate { prune: true },
                ..small_cfg()
            },
            ..Default::default()
        };
        let domain = vec![workloads::by_name("fir").unwrap()];
        let result = Dse::new(domain, cfg).run().unwrap();
        (result, ring.to_jsonl())
    })
}

/// Comparable view of a run: objective bits, ADG fingerprint, annealing
/// history, and chosen variants.
type RunDigest = (u64, u64, Vec<(u64, u64)>, Vec<(String, u32)>);

fn digest(r: &DseResult) -> RunDigest {
    (
        r.objective.to_bits(),
        r.sys_adg.fingerprint(),
        r.history
            .iter()
            .map(|(h, o)| (h.to_bits(), o.to_bits()))
            .collect(),
        r.variants.iter().map(|(k, v)| (k.clone(), *v)).collect(),
    )
}

#[test]
fn oracle_dse_traces_are_identical_across_threads() {
    // With the oracle armed and pruning on, the full sim-backed DSE must
    // stay bit-identical in results AND byte-identical in traces at
    // `threads` 1 and 4 (a single chain evaluates serially at any value).
    let (serial, trace_serial) = traced_sim_dse(1, true);
    let (parallel, trace_parallel) = traced_sim_dse(4, true);
    assert_eq!(digest(&serial), digest(&parallel));
    assert_eq!(serial.schedules, parallel.schedules);
    assert_eq!(serial.stats, parallel.stats);
    assert_eq!(trace_serial, trace_parallel, "threads changed the trace");
    assert!(!trace_serial.is_empty());
}

#[test]
fn oracle_mode_is_invisible_to_traces_and_results() {
    // The shadow sweep emits no spans, events, or counters: a run with
    // the oracle armed must be byte-identical to one without.
    let (with_oracle_run, trace_on) = traced_sim_dse(1, true);
    let (without, trace_off) = traced_sim_dse(1, false);
    assert_eq!(digest(&with_oracle_run), digest(&without));
    assert_eq!(with_oracle_run.stats, without.stats);
    assert_eq!(trace_on, trace_off, "oracle mode leaked into the trace");
}
