//! The determinism contract for compound rewrite proposals.
//!
//! With compound proposals off (the default, `compound: 1`) the rewrite
//! engine is invisible: the golden digests `objective_equivalence.rs`
//! pins, traced and untraced, were captured before mutations were rebuilt
//! as declarative rules with recorded deltas and inferred footprints.
//!
//! With compound proposals on (`compound: 3`), the trajectory legally
//! diverges (extra RNG draws per proposal), but it must still be
//! deterministic: thread-count independent, cache-transparent, and
//! checkpoint/resume-stable. Those runs are pinned by fresh goldens
//! captured at the introduction of the feature.

use overgen_compiler::CompileOptions;
use overgen_dse::{Checkpoint, CheckpointConfig, Dse, DseConfig, DseResult};
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

/// Same digest as `objective_equivalence.rs`: everything a pre-refactor
/// `DseResult` carried.
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

/// The exact run configuration of `objective_equivalence.rs`'s goldens,
/// with compound proposals of up to three rules.
fn compound_cfg(threads: usize, cache: bool) -> DseConfig {
    DseConfig {
        iterations: 24,
        seed: 0xB0B5_CA7E,
        threads,
        chains: 2,
        exchange_interval: 8,
        cache,
        compound: 3,
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
    let domain = vec![workloads::by_name("fir").unwrap()];
    let result = Dse::new(domain, cfg).run().unwrap();
    (result, ring.to_jsonl())
}

// Captured at the introduction of compound proposals (`compound: 3`,
// otherwise the golden config) with the cache off. New surface, so fresh
// pins: they hold the compound trajectory deterministic across threads,
// cache modes, and checkpoint/resume. With no store configured the cache
// changes nothing, so the cache-on runs reach the same digests (their
// results differed, in the in-memory memo's miss count, while it
// existed).
const GOLDEN_RESULT_COMPOUND_NOCACHE: u64 = 0x163b3b86079ab225;
const GOLDEN_TRACE_COMPOUND_NOCACHE: u64 = 0x7f4a5231ff7eddd1;

#[test]
fn compound_proposals_are_deterministic_across_threads_and_cache() {
    for (threads, cache) in [(1, true), (4, true), (1, false), (4, false)] {
        let (want_r, want_t) = (
            GOLDEN_RESULT_COMPOUND_NOCACHE,
            GOLDEN_TRACE_COMPOUND_NOCACHE,
        );
        let (r, trace) = run(compound_cfg(threads, cache));
        assert_eq!(
            result_digest(&r),
            want_r,
            "compound result drifted (threads={threads} cache={cache}): {:#x}",
            result_digest(&r)
        );
        assert_eq!(
            trace_digest(&trace),
            want_t,
            "compound trace drifted (threads={threads} cache={cache}): {:#x}",
            trace_digest(&trace)
        );
    }
}

#[test]
fn compound_checkpoint_resume_reproduces_the_full_run() {
    let path =
        std::env::temp_dir().join(format!("overgen-rewrite-equiv-{}.json", std::process::id()));
    // Compound config, interrupted at proposal 16 of 24 and resumed: the
    // merged result must digest identically to the uninterrupted run —
    // i.e. the `compound` field survives the checkpoint round trip and
    // the rewrite engine's RNG stream re-synchronizes on resume.
    let cut = Dse::new(
        vec![workloads::by_name("fir").unwrap()],
        DseConfig {
            checkpoint: Some(CheckpointConfig {
                path: path.clone(),
                interval: 8,
            }),
            max_proposals: Some(16),
            ..compound_cfg(1, true)
        },
    )
    .run()
    .unwrap();
    assert!(!cut.completed);
    let ck = Checkpoint::load(&path).unwrap();
    let mut resumed_cfg = ck;
    assert_eq!(
        resumed_cfg.config_mut().compound,
        3,
        "compound cap lost in the checkpoint round trip"
    );
    resumed_cfg.config_mut().checkpoint = None;
    let resumed = resumed_cfg
        .resume(vec![workloads::by_name("fir").unwrap()])
        .unwrap();
    assert!(resumed.completed);
    assert_eq!(
        result_digest(&resumed),
        GOLDEN_RESULT_COMPOUND_NOCACHE,
        "interrupted-then-resumed compound run drifted from the golden"
    );
    std::fs::remove_file(&path).ok();
}
