//! The checkpoint/resume contract: an interrupted-then-resumed DSE run is
//! indistinguishable from an uninterrupted one — bit-identical results and
//! stats at any thread/chain count, and byte-identical traces when the
//! resumed collector continues the interrupted trace's cursor (the
//! interrupted trace truncated at the checkpoint's sequence number,
//! concatenated with the resumed trace, equals the uninterrupted trace).

use std::path::{Path, PathBuf};

use overgen_compiler::CompileOptions;
use overgen_dse::{Checkpoint, CheckpointConfig, Dse, DseConfig, DseResult};
use overgen_telemetry::{count_isolated, Collector};
use overgen_workloads as workloads;

fn domain() -> Vec<overgen_ir::Kernel> {
    vec![workloads::by_name("fir").unwrap()]
}

fn ck_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("overgen-ckres-{}-{tag}.json", std::process::id()))
}

fn cfg(threads: usize, chains: usize, iterations: usize, exchange: usize) -> DseConfig {
    DseConfig {
        iterations,
        seed: 0xDE7E12,
        threads,
        chains,
        exchange_interval: exchange,
        compile: CompileOptions {
            max_unroll: 4,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// One traced DSE run with optional checkpointing and proposal budget.
fn traced(
    mut c: DseConfig,
    ck: Option<CheckpointConfig>,
    budget: Option<usize>,
) -> (DseResult, String) {
    let (collector, ring) = Collector::ring(1 << 18);
    let _install = overgen_telemetry::install(collector);
    c.checkpoint = ck;
    c.max_proposals = budget;
    let r = Dse::new(domain(), c).run().unwrap();
    (r, ring.to_jsonl())
}

/// Resume from `path` with `threads` workers, capturing the resumed trace.
fn traced_resume(path: &Path, threads: usize) -> (Checkpoint, DseResult, String) {
    let (collector, ring) = Collector::ring(1 << 18);
    let _install = overgen_telemetry::install(collector);
    let mut ck = Checkpoint::load(path).unwrap();
    ck.config_mut().threads = threads;
    let r = ck.resume(domain()).unwrap();
    (ck, r, ring.to_jsonl())
}

/// Comparable view of a run: objective bits, ADG fingerprint, annealing
/// history, and chosen variants.
type Digest = (u64, u64, Vec<(u64, u64)>, Vec<(String, u32)>);

fn digest(r: &DseResult) -> Digest {
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

/// The interrupted trace truncated at the checkpoint cursor, plus the
/// resumed trace, reassembles the uninterrupted trace byte-for-byte.
fn assert_trace_composes(uninterrupted: &str, interrupted: &str, ck: &Checkpoint, resumed: &str) {
    let seq = ck.trace_seq().expect("checkpoint captured a trace cursor") as usize;
    let prefix: String = interrupted
        .lines()
        .take(seq)
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        uninterrupted,
        format!("{prefix}{resumed}"),
        "interrupted-prefix + resumed trace diverged from the uninterrupted trace"
    );
}

#[test]
fn resume_reproduces_uninterrupted_run_at_any_thread_count() {
    let iterations = 20;
    let path = ck_path("threads");
    let ckc = CheckpointConfig {
        path: path.clone(),
        interval: 5,
    };
    // Uninterrupted reference, checkpointing on (writes are invisible).
    let (full, trace_full) = traced(cfg(1, 1, iterations, 25), Some(ckc.clone()), None);
    // Checkpointing itself must not perturb the run.
    let (plain, trace_plain) = traced(cfg(1, 1, iterations, 25), None, None);
    assert_eq!(digest(&full), digest(&plain));
    assert_eq!(
        trace_full, trace_plain,
        "checkpoint writes leaked into the trace"
    );

    // Kill off-interval at proposal 7 — the graceful stop finalizes a
    // checkpoint there — then resume serially and with 4 workers.
    let (partial, trace_partial) = traced(cfg(1, 1, iterations, 25), Some(ckc), Some(7));
    assert!(!partial.completed, "budgeted run must report early stop");
    // A resumed run keeps checkpointing to the same path (crash safety
    // does not end at the first resume), so restore the interrupted
    // snapshot before each leg.
    let snapshot = std::fs::read(&path).unwrap();
    for threads in [1, 4] {
        std::fs::write(&path, &snapshot).unwrap();
        let (ck, resumed, trace_resumed) = traced_resume(&path, threads);
        assert_eq!(ck.done(), 7);
        assert!(resumed.completed);
        assert_eq!(
            digest(&full),
            digest(&resumed),
            "threads={threads} resume diverged"
        );
        assert_eq!(full.schedules, resumed.schedules);
        assert_eq!(full.stats, resumed.stats);
        assert_trace_composes(&trace_full, &trace_partial, &ck, &trace_resumed);
    }
    let _ = std::fs::remove_file(&path);
}

/// A run under a counting collector records no trace, so its checkpoint
/// claims no cursor; resumed under one, it reproduces the run.
#[test]
fn counting_run_checkpoints_without_a_cursor_and_resumes_exactly() {
    let iterations = 12;
    let path = ck_path("counting");
    let (full, _) = traced(cfg(1, 1, iterations, 25), None, None);
    let (partial, _) = count_isolated(|| {
        let mut c = cfg(1, 1, iterations, 25);
        c.checkpoint = Some(CheckpointConfig {
            path: path.clone(),
            interval: 5,
        });
        c.max_proposals = Some(7);
        Dse::new(domain(), c).run().unwrap()
    });
    assert!(!partial.completed, "budgeted run must report early stop");
    let ck = Checkpoint::load(&path).unwrap();
    assert_eq!(
        ck.trace_seq(),
        None,
        "a counting run claimed a trace cursor"
    );
    let (resumed, _) = count_isolated(|| ck.resume(domain()).unwrap());
    assert!(resumed.completed);
    assert_eq!(digest(&full), digest(&resumed));
    assert_eq!(full.stats, resumed.stats);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn kill_at_every_checkpoint_reproduces_the_run() {
    // Interval 1: every proposal boundary leaves a checkpoint. Killing at
    // each one and resuming must reproduce the uninterrupted run exactly —
    // including a budget of 0, which checkpoints right after the seed.
    let iterations = 8;
    let path = ck_path("everyk");
    let ckc = CheckpointConfig {
        path: path.clone(),
        interval: 1,
    };
    let (full, trace_full) = traced(cfg(1, 1, iterations, 25), Some(ckc.clone()), None);
    for k in 0..iterations {
        let (partial, trace_partial) =
            traced(cfg(1, 1, iterations, 25), Some(ckc.clone()), Some(k));
        assert!(!partial.completed);
        let (ck, resumed, trace_resumed) = traced_resume(&path, 1);
        assert_eq!(ck.done(), k);
        assert_eq!(digest(&full), digest(&resumed), "kill at {k} diverged");
        assert_eq!(full.stats, resumed.stats, "kill at {k} changed stats");
        assert_eq!(full.schedules, resumed.schedules);
        assert_trace_composes(&trace_full, &trace_partial, &ck, &trace_resumed);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn multi_chain_resume_at_aligned_boundary_is_exact() {
    // chains > 1: segment boundaries land on the absolute exchange grid,
    // so a kill aligned with both the exchange and checkpoint intervals
    // resumes with byte-identical traces too — at any worker count.
    let iterations = 12;
    let path = ck_path("chains");
    let ckc = CheckpointConfig {
        path: path.clone(),
        interval: 4,
    };
    let (full, trace_full) = traced(cfg(1, 3, iterations, 4), Some(ckc.clone()), None);
    let (partial, trace_partial) = traced(cfg(1, 3, iterations, 4), Some(ckc), Some(8));
    assert!(!partial.completed);
    let snapshot = std::fs::read(&path).unwrap();
    for threads in [1, 4] {
        std::fs::write(&path, &snapshot).unwrap();
        let (ck, resumed, trace_resumed) = traced_resume(&path, threads);
        assert_eq!(ck.done(), 8);
        assert_eq!(
            digest(&full),
            digest(&resumed),
            "threads={threads} multi-chain resume diverged"
        );
        assert_eq!(full.stats, resumed.stats);
        assert_eq!(full.schedules, resumed.schedules);
        assert_trace_composes(&trace_full, &trace_partial, &ck, &trace_resumed);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_files_are_deterministic() {
    // The same budgeted run writes byte-identical checkpoint files.
    let path_a = ck_path("det-a");
    let path_b = ck_path("det-b");
    for (path, tag) in [(&path_a, "a"), (&path_b, "b")] {
        let ckc = CheckpointConfig {
            path: (*path).clone(),
            interval: 5,
        };
        let (r, _) = traced(cfg(1, 1, 20, 25), Some(ckc), Some(7));
        assert!(!r.completed, "{tag}");
    }
    let a = std::fs::read(&path_a).unwrap();
    let b = std::fs::read(&path_b).unwrap();
    // The stored config embeds the checkpoint path itself; normalize it.
    let a = String::from_utf8(a).unwrap().replace("det-a", "det-X");
    let b = String::from_utf8(b).unwrap().replace("det-b", "det-X");
    assert_eq!(a, b, "checkpoint bytes are not deterministic");
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
}

#[test]
fn top_level_resume_rebuilds_an_overlay() {
    // `overgen::resume` maps stored workload names back through the
    // workload registry and returns a ready Overlay.
    let path = ck_path("api");
    let ckc = CheckpointConfig {
        path: path.clone(),
        interval: 5,
    };
    let (full, _) = traced(cfg(1, 1, 10, 25), Some(ckc), Some(5));
    assert!(!full.completed);
    let overlay = overgen::resume(&path).unwrap();
    assert!(overlay.dse.is_some());
    assert!(overlay.fmax_mhz() > 0.0);
    let _ = std::fs::remove_file(&path);
}
