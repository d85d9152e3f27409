//! Telemetry integration: a seeded deterministic pipeline run (DSE →
//! overlay → simulate) emits well-formed JSONL that is byte-identical
//! across runs, covers every instrumented subsystem, and whose registry
//! counters agree exactly with the `DseStats` snapshot the engine returns.

use std::collections::BTreeSet;

use overgen::{workloads, Overlay};
use overgen_compiler::CompileOptions;
use overgen_dse::{Dse, DseConfig, DseStats};
use overgen_ir::Suite;
use overgen_telemetry::{json, Collector};

/// One traced pipeline run; returns the JSONL trace, the engine's stats
/// snapshot, and the registry's view of the same counters.
fn traced_run() -> (String, DseStats, DseStats) {
    let (collector, ring) = Collector::ring(1 << 16);
    let _install = overgen_telemetry::install(collector.clone());

    let domain = workloads::suite(Suite::Dsp);
    let cfg = DseConfig {
        iterations: 8,
        seed: 42,
        compile: CompileOptions {
            max_unroll: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let result = Dse::new(domain.clone(), cfg).run().unwrap();
    let stats = result.stats;

    // Exercise the simulator under the same collector.
    let overlay = Overlay::from_dse(result, CompileOptions::default());
    let fir = workloads::by_name("fir").unwrap();
    if let Ok(app) = overlay.compile(&fir) {
        let _ = overlay.execute(&app);
    }

    let r = collector.registry();
    let registry_view = DseStats {
        iterations: r.counter_value("dse.iterations") as usize,
        accepted: r.counter_value("dse.accepted") as usize,
        invalid: r.counter_value("dse.invalid") as usize,
        full_schedules: r.counter_value("dse.full_schedules") as usize,
        repairs: r.counter_value("dse.repairs") as usize,
        intact: r.counter_value("dse.intact") as usize,
        repair_fast: r.counter_value("scheduler.repair.fast") as usize,
        repair_fallback: r.counter_value("scheduler.repair.fallback") as usize,
        infeasible: r.counter_value("dse.eval.infeasible") as usize,
        ..DseStats::default()
    };
    (ring.to_jsonl(), stats, registry_view)
}

#[test]
fn deterministic_trace_is_byte_identical_and_well_formed() {
    let (trace_a, stats, registry_view) = traced_run();
    let (trace_b, _, _) = traced_run();
    assert_eq!(trace_a, trace_b, "seeded traces must be byte-identical");
    assert!(!trace_a.is_empty());

    // Every line parses as a JSON object with the fixed header keys.
    let mut kinds = BTreeSet::new();
    for line in trace_a.lines() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("malformed trace line {line:?}: {e}"));
        for key in ["seq", "t"] {
            assert!(v.get(key).and_then(json::Value::as_u64).is_some(), "{line}");
        }
        let kind = v
            .get("type")
            .and_then(json::Value::as_str)
            .unwrap_or_else(|| panic!("missing type: {line}"));
        if kind == "span" {
            kinds.insert(format!(
                "span:{}",
                v.get("name").and_then(json::Value::as_str).unwrap()
            ));
        } else {
            kinds.insert(kind.to_string());
        }
    }

    // The trace spans all four instrumented subsystems with at least six
    // distinct event types.
    let events: Vec<&String> = kinds.iter().filter(|k| !k.starts_with("span:")).collect();
    assert!(
        events.len() >= 6,
        "only {} event types: {events:?}",
        events.len()
    );
    for prefix in ["dse.", "sched.", "sim.", "compiler."] {
        assert!(
            kinds.iter().any(|k| k.starts_with(prefix)
                || k.strip_prefix("span:")
                    .is_some_and(|s| s.starts_with(prefix))),
            "no {prefix}* activity in trace: {kinds:?}"
        );
    }

    // The public DseStats snapshot and the registry counters are two views
    // of the same numbers.
    assert_eq!(stats, registry_view);
    assert!(stats.iterations > 0);
}

/// Regression for the silently-dropped `SimReport.truncated` flag: no
/// tier-1 workload may hit the simulator's cycle cap on the general
/// overlay, and the `sim.truncated` warning counter must stay zero.
#[test]
fn no_tier1_workload_truncates() {
    let (collector, _ring) = Collector::ring(1 << 16);
    let _install = overgen_telemetry::install(collector.clone());

    let overlay = Overlay::general();
    let mut ran = 0;
    for k in workloads::all() {
        if let Ok(app) = overlay.compile(&k) {
            let report = overlay.execute(&app);
            assert!(!report.truncated, "{} truncated", k.name());
            ran += 1;
        }
    }
    assert!(ran >= 15, "only {ran} workloads ran");
    assert_eq!(
        collector.registry().counter_value("sim.truncated"),
        0,
        "sim.truncated warnings were emitted"
    );
}
