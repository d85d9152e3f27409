//! The observability contract: profiling and the heartbeat are invisible
//! to deterministic traces. For a fixed seed, enabling the phase profiler
//! and/or the run heartbeat must leave results bit-identical and the
//! deterministic-clock JSONL trace byte-identical, at any worker count.
//! The profiler must also actually attribute the run: at least 95% of
//! umbrella evaluation wall time lands in a named phase.

use std::sync::Arc;

use overgen_compiler::CompileOptions;
use overgen_dse::{Dse, DseConfig, DseResult, HeartbeatConfig};
use overgen_telemetry::{install_profiler, Collector, Phase, Profiler};
use overgen_workloads as workloads;

/// One traced DSE run over the fir workload. `profile` installs a fresh
/// profiler for the run; `heartbeat` enables the registry-only heartbeat.
fn traced_dse(
    threads: usize,
    iterations: usize,
    profile: bool,
    heartbeat: Option<HeartbeatConfig>,
) -> (DseResult, String, Option<Arc<Profiler>>) {
    let (collector, ring) = Collector::ring(1 << 18);
    let _install = overgen_telemetry::install(collector);
    let profiler = profile.then(Profiler::new);
    let _profile_install = profiler.as_ref().map(|p| install_profiler(p.clone()));

    let cfg = DseConfig {
        iterations,
        seed: 0xDE7E12, // deterministic: same seed for every run
        threads,
        heartbeat,
        compile: CompileOptions {
            max_unroll: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let domain = vec![workloads::by_name("fir").unwrap()];
    let result = Dse::new(domain, cfg).run().unwrap();
    (result, ring.to_jsonl(), profiler)
}

/// Comparable view of a run.
fn digest(r: &DseResult) -> (u64, u64, Vec<(u64, u64)>) {
    (
        r.objective.to_bits(),
        r.sys_adg.fingerprint(),
        r.history
            .iter()
            .map(|(h, o)| (h.to_bits(), o.to_bits()))
            .collect(),
    )
}

fn quiet_heartbeat() -> Option<HeartbeatConfig> {
    Some(HeartbeatConfig {
        every: 5,
        stderr: false,
    })
}

#[test]
fn profiler_and_heartbeat_are_trace_invisible() {
    let (base, trace_base, _) = traced_dse(1, 20, false, None);
    assert!(!trace_base.is_empty());

    for threads in [1, 4] {
        for profile in [false, true] {
            for heartbeat in [None, quiet_heartbeat()] {
                let label = format!(
                    "threads={threads} profile={profile} heartbeat={}",
                    heartbeat.is_some()
                );
                let (run, trace, _) = traced_dse(threads, 20, profile, heartbeat);
                assert_eq!(digest(&base), digest(&run), "{label} changed the result");
                assert_eq!(base.stats, run.stats, "{label} changed the stats");
                assert_eq!(trace_base, trace, "{label} changed the trace");
            }
        }
    }
}

#[test]
fn profiler_attributes_at_least_95_percent_serially() {
    // Coverage = attributed / eval-umbrella time.
    let (_, _, profiler) = traced_dse(1, 30, true, None);
    let snap = profiler.expect("profiler installed").snapshot();
    assert!(
        snap.eval_total_us() > 0,
        "the run recorded no umbrella evaluation time"
    );
    assert!(!snap.rows.is_empty());
    let coverage = snap.coverage();
    assert!(
        coverage >= 0.95,
        "only {:.1}% of eval wall time attributed to a named phase",
        coverage * 100.0
    );
    // The big phases of a preserving DSE run must all have samples.
    for phase in [Phase::Validate, Phase::Schedule, Phase::Objective] {
        assert!(
            snap.phase_total_us(phase) > 0 || snap.rows.iter().any(|r| r.phase == phase),
            "phase {} never recorded",
            phase.name()
        );
    }
}

#[test]
fn heartbeat_publishes_gauges_without_touching_the_trace() {
    let (collector, ring) = Collector::ring(1 << 18);
    let _install = overgen_telemetry::install(collector.clone());
    let cfg = DseConfig {
        iterations: 20,
        seed: 0xDE7E12,
        heartbeat: quiet_heartbeat(),
        // The heartbeat refreshes at segment boundaries; segment ends land
        // on the exchange grid, so cut every 5 proposals to see 4 ticks.
        exchange_interval: 5,
        compile: CompileOptions {
            max_unroll: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let domain = vec![workloads::by_name("fir").unwrap()];
    Dse::new(domain, cfg).run().unwrap();

    let reg = collector.registry();
    assert!(
        reg.counter_value("dse.heartbeat.count") >= 4,
        "every=5 over 20 proposals must tick at least 4 times"
    );
    let names: Vec<&str> = reg.metric_names().iter().map(|(n, _)| *n).collect();
    assert!(names.contains(&"dse.heartbeat.proposals_per_sec"));
    assert!(names.contains(&"dse.heartbeat.progress"));
    // Registry-only: nothing heartbeat-related may reach the event trace.
    let trace = ring.to_jsonl();
    assert!(
        !trace.contains("heartbeat"),
        "heartbeat leaked into the trace"
    );
}
