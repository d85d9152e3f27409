//! The metric-name registry check: every counter, gauge, histogram,
//! event type, and span name the system emits at runtime must appear in
//! the documented inventory of `overgen_telemetry::names`. A new metric
//! landing without a registry entry fails here, which keeps dashboards
//! and the DESIGN.md telemetry tables from silently drifting.

use overgen_compiler::CompileOptions;
use overgen_dse::{Dse, DseConfig, HeartbeatConfig, SystemDseConfig};
use overgen_telemetry::json::{self, Value};
use overgen_telemetry::{names, Collector, MetricKind};
use overgen_workloads as workloads;

/// A real run exercising the wide paths: preserving DSE with system-DSE,
/// repair, cache traffic, simulation, and the heartbeat.
fn exercised_collector() -> (std::sync::Arc<Collector>, String) {
    let (collector, ring) = Collector::ring(1 << 18);
    let _install = overgen_telemetry::install(collector.clone());
    let cfg = DseConfig {
        iterations: 30,
        seed: 0xDE7E12,
        system: SystemDseConfig::default(),
        heartbeat: Some(HeartbeatConfig {
            every: 10,
            stderr: false,
        }),
        compile: CompileOptions {
            max_unroll: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let domain = vec![
        workloads::by_name("fir").unwrap(),
        workloads::by_name("gemm").unwrap(),
    ];
    let r = Dse::new(domain, cfg).run().unwrap();
    let overlay = overgen::Overlay::from_dse(r, CompileOptions::default());
    let k = workloads::by_name("fir").unwrap();
    let app = overlay.compile(&k).unwrap();
    overlay.execute(&app);
    (collector, ring.to_jsonl())
}

#[test]
fn every_runtime_metric_name_is_documented() {
    let (collector, trace) = exercised_collector();

    for (name, kind) in collector.registry().metric_names() {
        let ok = match kind {
            MetricKind::Counter => names::is_documented_counter(name),
            MetricKind::Gauge => names::is_documented_gauge(name),
            MetricKind::Histogram => names::is_documented_histogram(name),
        };
        assert!(ok, "undocumented {kind:?} `{name}` — add it to names.rs");
    }

    for line in trace.lines().filter(|l| !l.trim().is_empty()) {
        let v = json::parse(line).expect("trace line parses");
        match v.get("type").and_then(Value::as_str) {
            Some("span") => {
                let name = v.get("name").and_then(Value::as_str).unwrap();
                assert!(
                    names::is_documented_span(name),
                    "undocumented span `{name}` — add it to names.rs"
                );
            }
            Some("metrics") | None => {}
            Some(kind) => assert!(
                names::is_documented_event(kind),
                "undocumented event `{kind}` — add it to names.rs"
            ),
        }
    }
}

#[test]
fn the_core_names_are_actually_emitted() {
    // Guards against the registry check passing vacuously: the exercised
    // run must produce the load-bearing names the docs talk about.
    let (collector, trace) = exercised_collector();
    let reg = collector.registry();
    for counter in [
        "dse.cache.system_miss",
        "dse.heartbeat.count",
        "dse.iterations",
        "sched.attempts",
    ] {
        assert!(
            reg.counter_value(counter) > 0,
            "expected counter `{counter}` to be exercised"
        );
    }
    let names: Vec<&str> = reg.metric_names().iter().map(|(n, _)| *n).collect();
    assert!(names.contains(&"dse.heartbeat.eta_seconds"));
    for span in ["dse.run", "dse.iteration", "sched.place", "sim.run"] {
        assert!(
            trace.contains(&format!("\"name\":\"{span}\"")),
            "expected span `{span}` in the trace"
        );
    }
}
