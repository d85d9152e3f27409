//! Deterministic capture/replay of telemetry for worker threads.
//!
//! Parallel code cannot emit straight into a shared sink: sequence numbers
//! and deterministic-clock ticks are stamped at emit time, so interleaved
//! workers would produce a different byte stream on every run. Instead a
//! worker runs under a *capture* collector that records structured
//! operations ([`TraceOp`]) without stamping them; the coordinating
//! thread later [`replay`]s each worker's [`CapturedTrace`] in a canonical
//! order, re-stamping `seq`/`t` through the real collector exactly as
//! serial execution would have. The result: the trace produced by N
//! workers is byte-identical to the one produced inline.
//!
//! Metrics are *not* captured: a capture collector shares its parent's
//! [`Registry`](crate::Registry), and counter/histogram updates are
//! commutative, so concurrent workers land on identical final totals.
//!
//! Span opens and closes pair by nesting. A span guard closes when it
//! drops, and every capture records one thread's closure, so a close
//! always ends the latest open that is still unclosed; replay keeps a
//! stack of start ticks. No op carries a span identity, so a trace means
//! the same in any process and can be stored and shared as it is.

use std::sync::Arc;

use crate::span;
use crate::{Collector, FieldValue};

/// One recorded telemetry operation, to be re-stamped at replay time.
#[derive(Debug, Clone)]
pub enum TraceOp {
    /// A structured event (`event!` or `Collector::emit`).
    Event {
        /// Dotted event type.
        kind: String,
        /// Event fields in emission order.
        fields: Vec<(String, FieldValue)>,
    },
    /// A span opened: consumes one clock tick at replay, like a serial
    /// span-enter does.
    SpanOpen,
    /// The latest unclosed span closed.
    SpanClose {
        /// Span name.
        name: String,
        /// Depth relative to the capture root.
        rel_depth: u64,
        /// Span fields.
        fields: Vec<(String, FieldValue)>,
    },
    /// A full registry snapshot was requested.
    Metrics,
}

/// An ordered recording of the telemetry a closure emitted under
/// [`capture`]. Replayable any number of times, on any thread; a clone
/// shares the recorded ops.
#[derive(Debug, Clone, Default)]
pub struct CapturedTrace {
    ops: Arc<[TraceOp]>,
}

impl CapturedTrace {
    /// A trace of `ops`, whose span opens and closes must nest.
    pub fn new(ops: Vec<TraceOp>) -> CapturedTrace {
        CapturedTrace { ops: ops.into() }
    }

    /// The recorded operations, in order.
    pub fn ops(&self) -> &[TraceOp] {
        &self.ops
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Run `f` with its telemetry recorded instead of emitted.
///
/// When `parent` is `Some`, a capture collector sharing the parent's
/// registry is installed for the duration of `f` and every event/span is
/// recorded into the returned [`CapturedTrace`]. Span depth is measured
/// relative to the capture root (the thread-local depth is zeroed and
/// restored), so capturing inline on the coordinating thread and capturing
/// on a fresh worker thread record identical operations.
///
/// When `parent` is `None` (telemetry disabled), `f` runs bare; when it
/// records nothing (a counting collector), `f` counts into its registry,
/// on whatever thread it runs. Either way the trace is empty.
pub fn capture<T>(parent: Option<&Arc<Collector>>, f: impl FnOnce() -> T) -> (T, CapturedTrace) {
    let Some(parent) = parent else {
        return (f(), CapturedTrace::default());
    };
    if !parent.records() {
        return (count_into(parent.registry(), f), CapturedTrace::default());
    }
    let cap = Collector::capture(parent.registry().clone());
    let out = {
        let _install = crate::install(cap.clone());
        let _depth = span::DepthResetGuard::new();
        f()
    };
    (out, CapturedTrace::new(cap.take_ops()))
}

/// Like [`capture`], but with a *fresh* metrics registry instead of a
/// shared one, and installed unconditionally (even when no telemetry is
/// active). Every metric update `f` makes lands in the returned
/// [`Registry`](crate::Registry), so callers can treat the full side
/// effects of `f` — trace *and* metrics — as a replayable artifact:
/// store the triple, then on every use (first run or store hit) replay
/// the trace and `merge_from` the registry. That makes a store hit
/// observationally identical to re-running `f`.
pub fn capture_isolated<T>(f: impl FnOnce() -> T) -> (T, CapturedTrace, crate::Registry) {
    let cap = Collector::capture(crate::Registry::new());
    let out = {
        let _install = crate::install(cap.clone());
        let _depth = span::DepthResetGuard::new();
        f()
    };
    let registry = cap.registry().clone();
    (out, CapturedTrace::new(cap.take_ops()), registry)
}

/// Run `f` under a counting collector over `registry`: every metric
/// update lands there, but no event or span is recorded, nor are their
/// fields built. For a caller with no trace to emit into.
pub fn count_into<T>(registry: &crate::Registry, f: impl FnOnce() -> T) -> T {
    let _install = crate::install(Collector::counting(registry.clone()));
    f()
}

/// [`count_into`] a fresh registry, returned beside `f`'s result: for a
/// caller that keeps `f`'s telemetry apart from its own (or drops it).
pub fn count_isolated<T>(f: impl FnOnce() -> T) -> (T, crate::Registry) {
    let registry = crate::Registry::new();
    (count_into(&registry, f), registry)
}

/// Replay a captured trace into this thread's current collector,
/// re-stamping `seq`/`t` as if the operations were being emitted serially
/// right now. Span depths are rebased onto the replaying thread's current
/// span depth. No-op when no collector is installed.
pub fn replay(trace: &CapturedTrace) {
    if trace.is_empty() {
        return;
    }
    if let Some(parent) = crate::current() {
        parent.replay_ops(trace.ops(), span::current_depth());
    }
}

pub(crate) fn borrow_fields(fields: &[(String, FieldValue)]) -> Vec<(&str, FieldValue)> {
    fields
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect()
}

pub(crate) fn own_fields(fields: &[(&str, FieldValue)]) -> Vec<(String, FieldValue)> {
    fields
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

pub(crate) fn replay_into_sink(collector: &Collector, ops: &[TraceOp], base_depth: u64) {
    // Start ticks of the spans opened during this replay and not yet closed.
    let mut starts: Vec<u64> = Vec::new();
    for op in ops {
        match op {
            TraceOp::SpanOpen => {
                // A serial span-enter consumes one clock tick for its start
                // timestamp; reproduce that here.
                starts.push(collector.now());
            }
            TraceOp::Event { kind, fields } => {
                collector.emit(kind, &borrow_fields(fields));
            }
            TraceOp::SpanClose {
                name,
                rel_depth,
                fields,
            } => {
                let start = starts
                    .pop()
                    .expect("a span close ends the latest unclosed open of its trace");
                let end = collector.now();
                collector.emit_span(
                    name,
                    base_depth + rel_depth,
                    start,
                    end,
                    &borrow_fields(fields),
                );
            }
            TraceOp::Metrics => collector.snapshot_metrics(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{event, install, json, span, Collector};

    fn emit_workload(tag: u64) {
        let _s = span!("work.outer", tag = tag);
        event!("work.step", i = 1u64);
        {
            let _inner = span!("work.inner");
            event!("work.step", i = 2u64);
        }
    }

    #[test]
    fn capture_replay_matches_serial_emission() {
        // Serial reference.
        let (c1, r1) = Collector::ring(64);
        {
            let _g = install(c1.clone());
            event!("pre");
            emit_workload(7);
            event!("post");
        }
        // Captured on this thread, replayed after.
        let (c2, r2) = Collector::ring(64);
        {
            let _g = install(c2.clone());
            event!("pre");
            let ((), trace) = capture(Some(&c2), || emit_workload(7));
            replay(&trace);
            event!("post");
        }
        assert_eq!(r1.to_jsonl(), r2.to_jsonl());
    }

    #[test]
    fn capture_on_worker_thread_matches_inline() {
        let run_inline = || {
            let (c, ring) = Collector::ring(64);
            let _g = install(c.clone());
            let _outer = span!("root");
            let ((), t) = capture(Some(&c), || emit_workload(3));
            replay(&t);
            drop(_outer);
            ring.to_jsonl()
        };
        let run_threaded = || {
            let (c, ring) = Collector::ring(64);
            let _g = install(c.clone());
            let _outer = span!("root");
            let t = std::thread::scope(|s| {
                let c = &c;
                s.spawn(move || capture(Some(c), || emit_workload(3)).1)
                    .join()
                    .unwrap()
            });
            replay(&t);
            drop(_outer);
            ring.to_jsonl()
        };
        let (a, b) = (run_inline(), run_threaded());
        assert_eq!(a, b);
        // Depth rebasing: spans inside the capture sit under "root".
        let inner_depth = a
            .lines()
            .map(|l| json::parse(l).unwrap())
            .find(|v| v.get("name").and_then(json::Value::as_str) == Some("work.inner"))
            .and_then(|v| v.get("depth").and_then(|d| d.as_u64()))
            .unwrap();
        assert_eq!(inner_depth, 2, "root(0) -> work.outer(1) -> work.inner(2)");
    }

    #[test]
    fn nested_capture_composes() {
        let (c, ring) = Collector::ring(64);
        let _g = install(c.clone());
        let ((), outer) = capture(Some(&c), || {
            let _s = span!("chain");
            let current = crate::current().unwrap();
            let ((), inner) = capture(Some(&current), || emit_workload(1));
            replay(&inner);
        });
        replay(&outer);

        // Compare against fully serial emission.
        let (c2, ring2) = Collector::ring(64);
        {
            let _g2 = install(c2.clone());
            let _s = span!("chain");
            emit_workload(1);
        }
        assert_eq!(ring.to_jsonl(), ring2.to_jsonl());
    }

    #[test]
    fn captured_counters_land_in_parent_registry() {
        let (c, _ring) = Collector::ring(8);
        let _g = install(c.clone());
        let ((), _t) = capture(Some(&c), || {
            crate::current().unwrap().registry().counter("cap.n").inc();
        });
        assert_eq!(c.registry().counter_value("cap.n"), 1);
    }

    #[test]
    fn capture_isolated_replays_like_fresh_execution() {
        let work = || {
            let _s = span!("eval");
            event!("eval.step");
            crate::current().unwrap().registry().counter("eval.n").inc();
        };
        // Reference: serial emission.
        let (c1, r1) = Collector::ring(64);
        {
            let _g = install(c1.clone());
            work();
        }
        // Captured once, applied twice (as a cache hit would).
        let (c2, r2) = Collector::ring(64);
        {
            let _g = install(c2.clone());
            let ((), trace, reg) = capture_isolated(work);
            for _ in 0..2 {
                replay(&trace);
                c2.registry().merge_from(&reg);
            }
        }
        let serial = r1.to_jsonl();
        let replayed = r2.to_jsonl();
        let first: Vec<&str> = replayed.lines().take(serial.lines().count()).collect();
        assert_eq!(serial.trim_end(), first.join("\n"));
        assert_eq!(c2.registry().counter_value("eval.n"), 2);
        // Isolated capture works with no telemetry installed at all.
        let ((), t, reg) = capture_isolated(work);
        assert!(!t.is_empty());
        assert_eq!(reg.counter_value("eval.n"), 1);
    }

    #[test]
    fn counting_collector_builds_no_fields_but_counts() {
        let built = std::cell::Cell::new(0u64);
        let field = || {
            built.set(built.get() + 1);
            1u64
        };
        let ((), reg) = count_isolated(|| {
            event!("count.event", x = field());
            let _s = span!("count.span", y = field());
            let current = crate::current().unwrap();
            assert!(!current.records());
            let ((), inner) = capture(Some(&current), || {
                event!("count.inner", z = field());
                crate::current()
                    .unwrap()
                    .registry()
                    .counter("count.n")
                    .inc();
            });
            assert!(inner.is_empty());
            current.registry().counter("count.n").add(2);
        });
        assert_eq!(built.get(), 0, "a field expression was evaluated");
        assert_eq!(reg.counter_value("count.n"), 3);
        assert!(crate::current().is_none());
    }

    #[test]
    fn count_into_lands_in_the_given_registry() {
        let (c, ring) = Collector::ring(8);
        let _g = install(c.clone());
        count_into(c.registry(), || {
            event!("count.event");
            crate::current()
                .unwrap()
                .registry()
                .counter("count.n")
                .inc();
        });
        assert_eq!(c.registry().counter_value("count.n"), 1);
        assert_eq!(ring.len(), 0, "a counting collector emitted an event");
        assert!(Arc::ptr_eq(&crate::current().unwrap(), &c));
    }

    #[test]
    fn capture_under_a_counting_parent_counts_on_a_worker_thread() {
        let ((), reg) = count_isolated(|| {
            let parent = crate::current();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let ((), t) = capture(parent.as_ref(), || {
                        crate::current()
                            .expect("a worker counts under a counting parent")
                            .registry()
                            .counter("count.n")
                            .inc();
                    });
                    assert!(t.is_empty());
                });
            });
        });
        assert_eq!(reg.counter_value("count.n"), 1);
    }

    #[test]
    fn capture_without_parent_is_bare() {
        let ((), t) = capture(None, || emit_workload(0));
        assert!(t.is_empty());
        replay(&t); // no collector installed: must not panic
    }
}
