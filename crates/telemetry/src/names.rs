//! The documented telemetry-name registry.
//!
//! Every counter, gauge, histogram, event, and span name the production
//! pipeline emits is listed here, sorted. The workspace-level
//! `metric_names` audit test runs a real DSE and asserts that every name
//! observed at runtime appears in these lists — so a typo'd dotted name
//! fails CI instead of silently creating a new series — and that the core
//! names are actually exercised. Adding an emit site means adding its name
//! here (and, for user-facing names, documenting it in DESIGN.md).

/// Documented counters.
pub const COUNTERS: &[&str] = &[
    "compiler.variants",
    "dse.accepted",
    // System sweeps run, one per evaluation that reaches the system DSE
    // and is not served from the store; the name predates the memos'
    // removal.
    "dse.cache.system_miss",
    "dse.checkpoint.restore",
    "dse.checkpoint.write",
    "dse.checkpoint.write_us",
    "dse.eval.infeasible",
    "dse.full_schedules",
    "dse.heartbeat.count",
    "dse.intact",
    "dse.invalid",
    "dse.iterations",
    "dse.place.runs",
    "dse.place.slr_crossings",
    "dse.repairs",
    "dse.rewrite.applied",
    "dse.rewrite.compound",
    "dse.rewrite.inferred_additive",
    "dse.rewrite.inferred_attribute",
    "dse.rewrite.inferred_pure",
    "dse.rewrite.inferred_remove_unused",
    "dse.rewrite.inferred_structural",
    "sched.attempts",
    "sched.backtracks",
    "scheduler.repair.dirty_nodes",
    "scheduler.repair.fallback",
    "scheduler.repair.fast",
    "service.jobs.cancelled",
    "service.jobs.completed",
    "service.jobs.failed",
    "service.jobs.submitted",
    "service.store.hits",
    "service.store.lookups",
    "service.store.misses",
    "service.store.publishes",
    "service.store.shared_serves",
    "service.store.warm_entries",
    "sim.analytic.admitted",
    "sim.analytic.pruned",
    "sim.batch.reuse",
    "sim.engine_bw_default",
    "sim.truncated",
];

/// Documented gauges. All heartbeat values are gauges: they are
/// last-value-wins wall-clock rates, registry-only by design (see
/// DESIGN.md §11).
pub const GAUGES: &[&str] = &[
    "dse.heartbeat.accept_rate",
    "dse.heartbeat.eta_seconds",
    "dse.heartbeat.pareto_size",
    "dse.heartbeat.progress",
    "dse.heartbeat.proposals_per_sec",
    "dse.heartbeat.repair_fast_share",
];

/// Documented histograms.
pub const HISTOGRAMS: &[&str] = &["dse.repair_moved"];

/// Documented structured-event types (the `type` field of trace lines,
/// excluding the reserved `span` and `metrics` meta-types).
pub const EVENTS: &[&str] = &[
    "bench.pareto.point",
    "bench.run",
    "compiler.variants",
    "dse.accept",
    "dse.done",
    "dse.eval.infeasible",
    "dse.exchange",
    "dse.invalid",
    "dse.place",
    "dse.propose",
    "dse.reject",
    "dse.repair",
    "dse.stopped",
    "dse.system",
    "sched.fail",
    "sched.placed",
    "sched.repaired",
    "service.job.done",
    "service.job.start",
    "sim.done",
    "sim.engine_bw_default",
    "sim.truncated",
];

/// Documented span names.
pub const SPANS: &[&str] = &[
    "compiler.variants",
    "dse.compile_variants",
    "dse.iteration",
    "dse.run",
    "dse.system",
    "sched.place",
    "sched.repair",
    "sim.run",
];

/// Is `name` a documented counter?
pub fn is_documented_counter(name: &str) -> bool {
    COUNTERS.binary_search(&name).is_ok()
}

/// Is `name` a documented gauge?
pub fn is_documented_gauge(name: &str) -> bool {
    GAUGES.binary_search(&name).is_ok()
}

/// Is `name` a documented histogram?
pub fn is_documented_histogram(name: &str) -> bool {
    HISTOGRAMS.binary_search(&name).is_ok()
}

/// Is `name` a documented event type?
pub fn is_documented_event(name: &str) -> bool {
    EVENTS.binary_search(&name).is_ok()
}

/// Is `name` a documented span name?
pub fn is_documented_span(name: &str) -> bool {
    SPANS.binary_search(&name).is_ok()
}

/// Re-intern a runtime metric name against the documented lists: returns
/// the canonical `&'static str` for a documented counter, gauge, or
/// histogram name, or `None` for anything undocumented. Loaders of
/// persisted registries use this to recover the `'static` names
/// [`crate::Registry`] requires without leaking, and get corruption
/// rejection of unknown names for free.
pub fn intern_metric(name: &str) -> Option<&'static str> {
    for list in [COUNTERS, GAUGES, HISTOGRAMS] {
        if let Ok(i) = list.binary_search(&name) {
            return Some(list[i]);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_sorted_unique(what: &str, list: &[&str]) {
        for w in list.windows(2) {
            assert!(
                w[0] < w[1],
                "{what}: {:?} must sort strictly before {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn lists_are_sorted_and_unique() {
        // binary_search in the is_documented_* helpers requires this.
        assert_sorted_unique("COUNTERS", COUNTERS);
        assert_sorted_unique("GAUGES", GAUGES);
        assert_sorted_unique("HISTOGRAMS", HISTOGRAMS);
        assert_sorted_unique("EVENTS", EVENTS);
        assert_sorted_unique("SPANS", SPANS);
    }

    #[test]
    fn lookup_helpers_agree_with_lists() {
        assert!(is_documented_counter("dse.iterations"));
        assert!(!is_documented_counter("dse.iteration")); // that's a span
        assert!(is_documented_gauge("dse.heartbeat.eta_seconds"));
        assert!(is_documented_histogram("dse.repair_moved"));
        assert!(is_documented_event("dse.propose"));
        assert!(!is_documented_event("span")); // reserved meta-type
        assert!(is_documented_span("sched.place"));
        assert!(!is_documented_span("sched.placed")); // that's an event
    }

    #[test]
    fn intern_metric_returns_canonical_statics() {
        let owned = String::from("dse.full_schedules");
        assert_eq!(intern_metric(&owned), Some("dse.full_schedules"));
        assert_eq!(
            intern_metric("dse.heartbeat.progress"),
            Some("dse.heartbeat.progress")
        );
        assert_eq!(intern_metric("dse.repair_moved"), Some("dse.repair_moved"));
        assert_eq!(
            intern_metric("service.store.hits"),
            Some("service.store.hits")
        );
        assert_eq!(intern_metric("no.such.metric"), None);
        assert_eq!(intern_metric("dse.propose"), None, "events are not metrics");
    }

    #[test]
    fn no_name_is_registered_under_conflicting_metric_kinds() {
        for c in COUNTERS {
            assert!(
                !is_documented_gauge(c) && !is_documented_histogram(c),
                "{c:?} documented as more than one metric kind"
            );
        }
        for g in GAUGES {
            assert!(
                !is_documented_histogram(g),
                "{g:?} documented as more than one metric kind"
            );
        }
    }
}
