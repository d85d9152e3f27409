//! The refactor-equivalence contract for the evaluation-pipeline split:
//! under the default objective, the DSE's results **and** its
//! deterministic JSONL traces are byte-identical to the pre-refactor
//! engine (the inline weighted-geomean-IPC + LUT-pressure formula).
//!
//! The golden digests below were captured on the tree immediately before
//! `EvalPipeline`/`Objective` were extracted from `engine.rs`, with this
//! exact run configuration and these exact digest functions. If this test
//! fails, the default objective's numeric path, the trace schema, or the
//! capture/replay ordering changed — all of which are breaking changes for
//! recorded experiments.
//!
//! Also covered here: the non-default objectives' observable behavior
//! (ConstrainedIpc rejecting infeasible proposals, IpcPerLut preferring
//! smaller designs) and a checkpoint/resume leg under the golden config.

use overgen_compiler::CompileOptions;
use overgen_dse::{
    Checkpoint, CheckpointConfig, DeviceBudget, Dse, DseConfig, DseResult, Objective,
};
use overgen_telemetry::Collector;
use overgen_workloads as workloads;

fn fnv1a64(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn fold_u64(h: u64, v: u64) -> u64 {
    fnv1a64(&v.to_le_bytes(), h)
}

/// Digest of everything a pre-refactor `DseResult` carried (the Pareto
/// frontier is new surface and deliberately excluded; `stats.infeasible`
/// is asserted to be 0 separately rather than hashed).
fn result_digest(r: &DseResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fold_u64(h, r.objective.to_bits());
    h = fold_u64(h, r.sys_adg.fingerprint());
    h = fold_u64(h, r.history.len() as u64);
    for (t, o) in &r.history {
        h = fold_u64(h, t.to_bits());
        h = fold_u64(h, o.to_bits());
    }
    for (name, v) in &r.variants {
        h = fnv1a64(name.as_bytes(), h);
        h = fold_u64(h, u64::from(*v));
    }
    for v in [
        r.stats.iterations,
        r.stats.accepted,
        r.stats.invalid,
        r.stats.full_schedules,
        r.stats.repairs,
        r.stats.intact,
        r.stats.cache_hits,
        r.stats.cache_misses,
        r.stats.repair_fast,
        r.stats.repair_fallback,
    ] {
        h = fold_u64(h, v as u64);
    }
    h
}

fn trace_digest(trace: &str) -> u64 {
    fnv1a64(trace.as_bytes(), 0xcbf2_9ce4_8422_2325)
}

fn golden_cfg(threads: usize, cache: bool) -> DseConfig {
    DseConfig {
        iterations: 24,
        seed: 0xB0B5_CA7E,
        threads,
        chains: 2,
        exchange_interval: 8,
        cache,
        compile: CompileOptions {
            max_unroll: 4,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn run(cfg: DseConfig) -> (DseResult, String) {
    let (collector, ring) = Collector::ring(1 << 18);
    let _install = overgen_telemetry::install(collector);
    (run_dse(cfg), ring.to_jsonl())
}

/// Run the golden domain under whatever collector is installed; with none,
/// its evaluations record no trace.
fn run_dse(cfg: DseConfig) -> DseResult {
    let domain = vec![workloads::by_name("fir").unwrap()];
    Dse::new(domain, cfg).run().unwrap()
}

// Captured pre-refactor (see module docs). The trace differs between
// cache modes only in the `cache_hits` field of the final `dse.done`
// event; thread count must not change a single byte.
const GOLDEN_RESULT_CACHE: u64 = 0xec61d8114f3cb3ad;
const GOLDEN_TRACE_CACHE: u64 = 0xb61ade7abb564cdb;
const GOLDEN_RESULT_NOCACHE: u64 = 0x4604efe105b411dc;
const GOLDEN_TRACE_NOCACHE: u64 = 0xd6ef98dbfbaf1d5e;

#[test]
fn default_objective_is_byte_identical_to_pre_refactor() {
    for (threads, cache, want_r, want_t) in [
        (1, true, GOLDEN_RESULT_CACHE, GOLDEN_TRACE_CACHE),
        (4, true, GOLDEN_RESULT_CACHE, GOLDEN_TRACE_CACHE),
        (1, false, GOLDEN_RESULT_NOCACHE, GOLDEN_TRACE_NOCACHE),
        (4, false, GOLDEN_RESULT_NOCACHE, GOLDEN_TRACE_NOCACHE),
    ] {
        let (r, trace) = run(golden_cfg(threads, cache));
        assert_eq!(
            r.stats.infeasible, 0,
            "the default objective must never resource-reject"
        );
        assert_eq!(
            result_digest(&r),
            want_r,
            "result drifted from pre-refactor golden (threads={threads} cache={cache})"
        );
        assert_eq!(
            trace_digest(&trace),
            want_t,
            "trace drifted from pre-refactor golden (threads={threads} cache={cache})"
        );
        assert_eq!(
            result_digest(&run_dse(golden_cfg(threads, cache))),
            want_r,
            "untraced result drifted from pre-refactor golden (threads={threads} cache={cache})"
        );
    }
}

#[test]
fn checkpoint_resume_reproduces_the_golden_result() {
    let path = std::env::temp_dir().join(format!(
        "overgen-objective-equiv-{}.json",
        std::process::id()
    ));
    // Same golden config, interrupted at proposal 16 of 24 and resumed:
    // the merged result must still digest to the pre-refactor golden.
    let cut = Dse::new(
        vec![workloads::by_name("fir").unwrap()],
        DseConfig {
            checkpoint: Some(CheckpointConfig {
                path: path.clone(),
                interval: 8,
            }),
            max_proposals: Some(16),
            ..golden_cfg(1, true)
        },
    )
    .run()
    .unwrap();
    assert!(!cut.completed);
    let ck = Checkpoint::load(&path).unwrap();
    let mut resumed_cfg = ck;
    resumed_cfg.config_mut().checkpoint = None;
    let resumed = resumed_cfg
        .resume(vec![workloads::by_name("fir").unwrap()])
        .unwrap();
    assert!(resumed.completed);
    assert_eq!(
        result_digest(&resumed),
        GOLDEN_RESULT_CACHE,
        "interrupted-then-resumed run drifted from the pre-refactor golden"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn pareto_front_has_no_dominated_points_and_is_deterministic() {
    let (a, _) = run(golden_cfg(1, true));
    let (b, _) = run(golden_cfg(4, true));
    assert_eq!(a.pareto, b.pareto, "frontier must be thread-independent");
    let pts = a.pareto.points();
    assert!(!pts.is_empty());
    for (i, p) in pts.iter().enumerate() {
        for (j, q) in pts.iter().enumerate() {
            if i == j {
                continue;
            }
            let dominated = q.ipc >= p.ipc
                && q.resources.lut <= p.resources.lut
                && q.resources.ff <= p.resources.ff
                && q.resources.bram <= p.resources.bram
                && q.resources.dsp <= p.resources.dsp;
            assert!(!dominated, "frontier holds a dominated point: {i} by {j}");
        }
    }
    // Canonical order: IPC non-increasing (ties trade off different
    // resource channels), LUTs ascending within a tie, no duplicates.
    for w in pts.windows(2) {
        assert!(w[0].ipc >= w[1].ipc);
        if w[0].ipc == w[1].ipc {
            assert!(w[0].resources.lut <= w[1].resources.lut);
        }
        assert_ne!(w[0], w[1]);
    }
}

#[test]
fn constrained_objective_changes_behavior_only_when_binding() {
    // A budget the whole trajectory fits under: identical *results* to the
    // default objective except for fitness-driven tie-breaks; critically,
    // nothing is rejected.
    let (r, _) = run(DseConfig {
        objective: Objective::ConstrainedIpc(DeviceBudget::vcu118()),
        ..golden_cfg(1, true)
    });
    assert_eq!(r.stats.infeasible, 0);
    assert!(r.objective > 0.0);

    // A tight budget must reject at least one growth proposal.
    let seed = Dse::seed_adg(&[workloads::by_name("fir").unwrap()]).expect("fir lowers");
    let acc = overgen_model::accelerator_resources(&seed, &overgen_model::AnalyticModel);
    let (r, trace) = run(DseConfig {
        objective: Objective::ConstrainedIpc(DeviceBudget {
            name: "tight",
            limit: acc * 1.02,
            ..DeviceBudget::vcu118()
        }),
        ..golden_cfg(1, true)
    });
    assert!(r.stats.infeasible > 0);
    assert!(
        trace.contains("dse.eval.infeasible"),
        "rejections must be visible in the trace"
    );
}

#[test]
fn ipc_per_lut_picks_a_leaner_winner_or_ties() {
    let (dense, _) = run(golden_cfg(1, true));
    let (lean, _) = run(DseConfig {
        objective: Objective::IpcPerLut,
        ..golden_cfg(1, true)
    });
    let lut = |r: &DseResult| {
        overgen_model::accelerator_resources(&r.sys_adg.adg, &overgen_model::AnalyticModel).lut
    };
    // Area efficiency never selects a *larger* accelerator than the
    // IPC-first default on the same trajectory budget.
    assert!(lut(&lean) <= lut(&dense) + 1e-9);
}
