//! Hierarchical spans with monotonic timers.
//!
//! A span is opened with the [`span!`](crate::span!) macro and closed when
//! the returned [`SpanGuard`] drops; the close emits one `span` event
//! carrying the name, nesting depth, start timestamp, and duration. Depth is
//! tracked per thread so concurrent workers do not interleave their nesting.

use std::cell::Cell;
use std::sync::Arc;

use crate::{Collector, FieldValue};

thread_local! {
    static DEPTH: Cell<u64> = const { Cell::new(0) };
}

/// This thread's current span nesting depth.
pub(crate) fn current_depth() -> u64 {
    DEPTH.with(Cell::get)
}

/// Zeroes this thread's span depth until dropped, so telemetry captured
/// inline on a coordinating thread nests identically to telemetry captured
/// on a fresh worker thread (which starts at depth 0).
pub(crate) struct DepthResetGuard {
    saved: u64,
}

impl DepthResetGuard {
    pub(crate) fn new() -> Self {
        DepthResetGuard {
            saved: DEPTH.with(|d| d.replace(0)),
        }
    }
}

impl Drop for DepthResetGuard {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(self.saved));
    }
}

/// RAII guard for an open span. Emits the `span` event on drop. A guard
/// created while no collector is installed, or while the installed one
/// records nothing, is a no-op.
#[must_use = "a span closes (and is recorded) when its guard drops"]
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

struct SpanInner {
    collector: Arc<Collector>,
    name: &'static str,
    depth: u64,
    /// Start timestamp (sink backend; 0 while capturing, where the close
    /// pairs by nesting); interpreted by [`Collector::span_close`].
    handle: u64,
    fields: Vec<(&'static str, FieldValue)>,
}

impl SpanGuard {
    /// Open a span against the currently installed collector (if any and
    /// it records); `fields` runs only then. Prefer the
    /// [`span!`](crate::span!) macro.
    pub fn enter(
        name: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, FieldValue)>,
    ) -> SpanGuard {
        match crate::current().filter(|c| c.records()) {
            Some(collector) => {
                let depth = DEPTH.with(|d| {
                    let v = d.get();
                    d.set(v + 1);
                    v
                });
                let handle = collector.span_open();
                SpanGuard {
                    inner: Some(SpanInner {
                        collector,
                        name,
                        depth,
                        handle,
                        fields: fields(),
                    }),
                }
            }
            None => SpanGuard { inner: None },
        }
    }

    /// Re-open a span whose start was already recorded, without consuming
    /// a clock tick: `handle` is the start timestamp (sink backend) the
    /// original [`SpanGuard::enter`] obtained, as reported by
    /// [`SpanGuard::handle`]. Checkpoint resume uses this so the eventual
    /// close event carries the *original* start and the true total
    /// duration, byte-identical to an uninterrupted run. Its close has no
    /// recorded open, so it must not run inside a capture. Like
    /// [`SpanGuard::enter`], it is a no-op while no collector that records
    /// is installed.
    pub fn reenter(
        name: &'static str,
        handle: u64,
        fields: Vec<(&'static str, FieldValue)>,
    ) -> SpanGuard {
        match crate::current().filter(|c| c.records()) {
            Some(collector) => {
                let depth = DEPTH.with(|d| {
                    let v = d.get();
                    d.set(v + 1);
                    v
                });
                SpanGuard {
                    inner: Some(SpanInner {
                        collector,
                        name,
                        depth,
                        handle,
                        fields,
                    }),
                }
            }
            None => SpanGuard { inner: None },
        }
    }

    /// The span's open handle — the start timestamp for sink-backed
    /// collectors, 0 while capturing. `None` when no collector was
    /// installed at entry. Checkpoints store this so
    /// [`SpanGuard::reenter`] can resume the span.
    pub fn handle(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.handle)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            inner
                .collector
                .span_close(inner.handle, inner.name, inner.depth, &inner.fields);
        }
    }
}
