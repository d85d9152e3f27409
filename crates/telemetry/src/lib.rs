//! # overgen-telemetry
//!
//! Zero-dependency observability for the OverGen suite: hierarchical spans,
//! a registry of atomic metrics, and structured events serialized as JSONL.
//! `std`-only — no crates.io dependencies — so the tier-1 build stays green
//! offline.
//!
//! ## Event schema
//!
//! Every line in a trace is one JSON object with three fixed keys followed
//! by event-specific fields, in insertion order:
//!
//! ```json
//! {"seq":12,"t":34,"type":"dse.accept","iter":7,"delta":-0.25}
//! ```
//!
//! - `seq` — collector-global sequence number (dense, starts at 0).
//! - `t` — timestamp: microseconds since collector creation in
//!   [`ClockMode::Wall`], or a logical event counter in
//!   [`ClockMode::Deterministic`] (traces byte-stable per seed).
//! - `type` — dotted event kind, e.g. `dse.accept`, `sched.place`,
//!   `sim.truncated`, `span`, `metrics`.
//!
//! Span close events add `name`, `depth`, `start`, and `dur`.
//!
//! ## Usage
//!
//! ```
//! use overgen_telemetry::{event, span, Collector, ClockMode, RingSink};
//!
//! let ring = RingSink::new(1024);
//! let collector = Collector::new(ring.clone(), ClockMode::Deterministic);
//! let _install = overgen_telemetry::install(collector.clone());
//!
//! {
//!     let _span = span!("dse.iteration", iter = 3u64);
//!     event!("dse.accept", delta = -0.25f64);
//!     collector.registry().counter("dse.accepted").inc();
//! }
//! collector.snapshot_metrics();
//! assert_eq!(ring.len(), 3); // accept event, span close, metrics snapshot
//! ```
//!
//! When no collector is installed, or the installed one records nothing
//! (see [`count_isolated`]), `span!`/`event!` are cheap no-ops that do not
//! even evaluate their field expressions, so library crates instrument
//! unconditionally and binaries opt in.

pub mod capture;
pub mod clock;
pub mod fs;
pub mod json;
pub mod metrics;
pub mod names;
pub mod profile;
pub mod rng;
pub mod sink;
mod span;

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub use capture::{
    capture, capture_isolated, count_into, count_isolated, replay, CapturedTrace, TraceOp,
};
pub use clock::{Clock, ClockMode};
pub use metrics::{Counter, Gauge, Histogram, MetricKind, MetricSnapshot, Registry};
pub use profile::{
    current_profiler, install_profiler, Phase, PhaseTimer, ProfileSnapshot, Profiler,
};
pub use rng::Rng;
pub use sink::{FileSink, NullSink, RingSink, Sink};
pub use span::SpanGuard;

use json::Obj;

/// A typed event-field value; the macros build these via `From`.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite values serialize as `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (escaped on write).
    Str(String),
}

macro_rules! impl_field_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {
        $(impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::$variant(v as $conv)
            }
        })*
    };
}

impl_field_from!(
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64,
    u64 => U64 as u64, usize => U64 as u64,
    i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64,
    i64 => I64 as i64, isize => I64 as i64,
    f32 => F64 as f64, f64 => F64 as f64,
);

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl From<&String> for FieldValue {
    fn from(v: &String) -> Self {
        FieldValue::Str(v.clone())
    }
}

fn push_fields(mut obj: Obj, fields: &[(&str, FieldValue)]) -> Obj {
    for (k, v) in fields {
        obj = match v {
            FieldValue::U64(n) => obj.u64(k, *n),
            FieldValue::I64(n) => obj.i64(k, *n),
            FieldValue::F64(n) => obj.f64(k, *n),
            FieldValue::Bool(b) => obj.bool(k, *b),
            FieldValue::Str(s) => obj.str(k, s),
        };
    }
    obj
}

/// Where a collector's events go: straight to a [`Sink`] (stamped with
/// `seq`/`t` at emit time), into an in-memory capture buffer to be
/// re-stamped later by [`replay`], or nowhere (a counting collector keeps
/// only its registry).
enum Backend {
    Sink(Arc<dyn Sink>),
    Capture(Mutex<Vec<TraceOp>>),
    Discard,
}

/// The telemetry hub: a metrics [`Registry`], a [`Sink`] for JSONL events,
/// a [`Clock`], and a sequence counter. Shared via `Arc`; installed
/// per-thread with [`install`].
pub struct Collector {
    registry: Registry,
    backend: Backend,
    clock: Clock,
    seq: AtomicU64,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("clock", &self.clock)
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

impl Collector {
    /// Create a collector writing to `sink` with the given clock mode.
    pub fn new(sink: Arc<dyn Sink>, mode: ClockMode) -> Arc<Self> {
        Arc::new(Collector {
            registry: Registry::new(),
            backend: Backend::Sink(sink),
            clock: Clock::new(mode),
            seq: AtomicU64::new(0),
        })
    }

    /// A capture collector recording ops instead of stamping lines; shares
    /// `registry` with its parent so metric updates land directly.
    pub(crate) fn capture(registry: Registry) -> Arc<Self> {
        Collector::with_backend(registry, Backend::Capture(Mutex::new(Vec::new())))
    }

    /// A counting collector: metric updates land in `registry`, events and
    /// spans are dropped before their fields are built.
    pub(crate) fn counting(registry: Registry) -> Arc<Self> {
        Collector::with_backend(registry, Backend::Discard)
    }

    fn with_backend(registry: Registry, backend: Backend) -> Arc<Self> {
        Arc::new(Collector {
            registry,
            backend,
            clock: Clock::new(ClockMode::Deterministic),
            seq: AtomicU64::new(0),
        })
    }

    /// Whether events and spans emitted here are kept (written or
    /// captured). `false` only for a counting collector.
    pub fn records(&self) -> bool {
        !matches!(self.backend, Backend::Discard)
    }

    /// Drain the capture buffer (empty for other collectors).
    pub(crate) fn take_ops(&self) -> Vec<TraceOp> {
        match &self.backend {
            Backend::Capture(ops) => std::mem::take(&mut ops.lock().unwrap()),
            Backend::Sink(_) | Backend::Discard => Vec::new(),
        }
    }

    /// Convenience: a deterministic collector plus its in-memory ring, for
    /// tests and byte-stable traces.
    pub fn ring(cap: usize) -> (Arc<Self>, Arc<RingSink>) {
        let ring = RingSink::new(cap);
        (Collector::new(ring.clone(), ClockMode::Deterministic), ring)
    }

    /// The shared metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Current timestamp from this collector's clock.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// The clock mode this collector runs in.
    pub fn clock_mode(&self) -> ClockMode {
        self.clock.mode()
    }

    /// The trace cursor: the `seq` the next emitted line will carry and the
    /// next deterministic clock tick. Reading it consumes nothing, so a
    /// checkpoint can record exactly where its trace prefix ends.
    pub fn cursor(&self) -> (u64, u64) {
        (self.seq.load(Ordering::Relaxed), self.clock.peek())
    }

    /// Jump this collector's sequence counter and deterministic clock to a
    /// cursor captured with [`Collector::cursor`], so a resumed run's lines
    /// continue the original trace's `seq`/`t` stream byte-identically.
    /// Wall clocks cannot be restored; only the sequence moves there.
    pub fn restore_cursor(&self, seq: u64, tick: u64) {
        self.seq.store(seq, Ordering::Relaxed);
        self.clock.restore(tick);
    }

    /// Emit one event line: `{"seq":..,"t":..,"type":kind, ...fields}`.
    pub fn emit(&self, kind: &str, fields: &[(&str, FieldValue)]) {
        match &self.backend {
            Backend::Sink(sink) => {
                let obj = self.header(kind);
                sink.write_line(&push_fields(obj, fields).finish());
            }
            Backend::Capture(ops) => ops.lock().unwrap().push(TraceOp::Event {
                kind: kind.to_string(),
                fields: capture::own_fields(fields),
            }),
            Backend::Discard => {}
        }
    }

    /// Emit a `metrics` event embedding the full registry snapshot.
    pub fn snapshot_metrics(&self) {
        match &self.backend {
            Backend::Sink(sink) => {
                let line = self
                    .header("metrics")
                    .with("metrics", |o| self.registry.snapshot_json(o))
                    .finish();
                sink.write_line(&line);
            }
            Backend::Capture(ops) => ops.lock().unwrap().push(TraceOp::Metrics),
            Backend::Discard => {}
        }
    }

    /// Flush the underlying sink (no-op while capturing).
    pub fn flush(&self) {
        if let Backend::Sink(sink) = &self.backend {
            sink.flush();
        }
    }

    fn header(&self, kind: &str) -> Obj {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        Obj::new()
            .u64("seq", seq)
            .u64("t", self.now())
            .str("type", kind)
    }

    pub(crate) fn emit_span(
        &self,
        name: &str,
        depth: u64,
        start: u64,
        end: u64,
        fields: &[(&str, FieldValue)],
    ) {
        let Backend::Sink(sink) = &self.backend else {
            debug_assert!(false, "emit_span on a capture collector");
            return;
        };
        let obj = self
            .header("span")
            .str("name", name)
            .u64("depth", depth)
            .u64("start", start)
            .u64("dur", end.saturating_sub(start));
        sink.write_line(&push_fields(obj, fields).finish());
    }

    /// Span-enter hook: for a sink backend, returns the start timestamp
    /// (consuming one clock tick); for capture, records the open and
    /// returns 0, since its close pairs with it by nesting. Spans never
    /// open on a counting collector ([`SpanGuard::enter`] checks
    /// [`Collector::records`]).
    pub(crate) fn span_open(&self) -> u64 {
        match &self.backend {
            Backend::Sink(_) | Backend::Discard => self.now(),
            Backend::Capture(ops) => {
                ops.lock().unwrap().push(TraceOp::SpanOpen);
                0
            }
        }
    }

    /// Span-exit hook; `handle` is whatever [`Collector::span_open`]
    /// returned for this span.
    pub(crate) fn span_close(
        &self,
        handle: u64,
        name: &str,
        depth: u64,
        fields: &[(&str, FieldValue)],
    ) {
        match &self.backend {
            Backend::Sink(_) => {
                let end = self.now();
                self.emit_span(name, depth, handle, end, fields);
            }
            Backend::Capture(ops) => ops.lock().unwrap().push(TraceOp::SpanClose {
                name: name.to_string(),
                rel_depth: depth,
                fields: capture::own_fields(fields),
            }),
            Backend::Discard => {}
        }
    }

    /// Replay recorded ops into this collector, rebasing span depths onto
    /// `base_depth`. Sink backends re-stamp `seq`/`t`; capture backends
    /// splice the ops into their own buffer (nested capture).
    pub(crate) fn replay_ops(&self, ops: &[TraceOp], base_depth: u64) {
        match &self.backend {
            Backend::Sink(_) => capture::replay_into_sink(self, ops, base_depth),
            Backend::Capture(dst) => {
                let mut dst = dst.lock().unwrap();
                dst.extend(ops.iter().map(|op| match op {
                    TraceOp::SpanClose {
                        name,
                        rel_depth,
                        fields,
                    } => TraceOp::SpanClose {
                        name: name.clone(),
                        rel_depth: base_depth + rel_depth,
                        fields: fields.clone(),
                    },
                    other => other.clone(),
                }));
            }
            Backend::Discard => {}
        }
    }
}

thread_local! {
    static INSTALLED: RefCell<Vec<Arc<Collector>>> = const { RefCell::new(Vec::new()) };
}

/// Install `collector` as this thread's current collector until the returned
/// guard drops. Installs nest (tests can stack them); the innermost wins.
#[must_use = "the collector is uninstalled when this guard drops"]
pub fn install(collector: Arc<Collector>) -> InstallGuard {
    INSTALLED.with(|s| s.borrow_mut().push(collector));
    InstallGuard { _priv: () }
}

/// Guard returned by [`install`]; pops the collector on drop.
pub struct InstallGuard {
    _priv: (),
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        INSTALLED.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// The innermost installed collector on this thread, if any.
pub fn current() -> Option<Arc<Collector>> {
    INSTALLED.with(|s| s.borrow().last().cloned())
}

/// Emit a structured event against the current collector (no-op, with the
/// field expressions unevaluated, when none is installed or it records
/// nothing):
///
/// ```
/// # use overgen_telemetry::event;
/// event!("dse.accept", iter = 4u64, delta = -0.5, preserving = true);
/// ```
#[macro_export]
macro_rules! event {
    ($kind:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if let Some(__c) = $crate::current().filter(|c| c.records()) {
            __c.emit(
                $kind,
                &[$((stringify!($key), $crate::FieldValue::from($value))),*],
            );
        }
    };
}

/// Open a span; the returned guard records a `span` event when dropped.
/// Bind it — `let _span = span!("dse.iteration", iter = i);` — or the span
/// closes immediately. The field expressions are evaluated only when the
/// current collector records.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::SpanGuard::enter($name, || {
            vec![$((stringify!($key), $crate::FieldValue::from($value))),*]
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_macro_emits_ordered_lines() {
        let (c, ring) = Collector::ring(64);
        let _g = install(c);
        event!("a.first", x = 1u64);
        event!("a.second", s = "hi", ok = true);
        let lines = ring.lines();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], r#"{"seq":0,"t":0,"type":"a.first","x":1}"#);
        assert_eq!(
            lines[1],
            r#"{"seq":1,"t":1,"type":"a.second","s":"hi","ok":true}"#
        );
    }

    #[test]
    fn noop_without_collector() {
        // No install: must not panic and must emit nothing anywhere.
        event!("ghost", x = 1u64);
        let _span = span!("ghost.span");
        assert!(current().is_none());
    }

    #[test]
    fn span_nesting_depths_and_order() {
        let (c, ring) = Collector::ring(64);
        let _g = install(c);
        {
            let _outer = span!("outer", tag = "o");
            {
                let _inner = span!("inner");
            }
        }
        let lines = ring.lines();
        assert_eq!(lines.len(), 2);
        // Inner closes first.
        let inner = json::parse(&lines[0]).unwrap();
        let outer = json::parse(&lines[1]).unwrap();
        assert_eq!(inner.get("name").unwrap().as_str(), Some("inner"));
        assert_eq!(inner.get("depth").unwrap().as_u64(), Some(1));
        assert_eq!(outer.get("name").unwrap().as_str(), Some("outer"));
        assert_eq!(outer.get("depth").unwrap().as_u64(), Some(0));
        assert_eq!(outer.get("tag").unwrap().as_str(), Some("o"));
        // Outer encloses inner in logical time.
        let o_start = outer.get("start").unwrap().as_u64().unwrap();
        let i_start = inner.get("start").unwrap().as_u64().unwrap();
        assert!(o_start < i_start);
    }

    #[test]
    fn install_nests_innermost_wins() {
        let (c1, r1) = Collector::ring(8);
        let (c2, r2) = Collector::ring(8);
        let _g1 = install(c1);
        {
            let _g2 = install(c2);
            event!("to.second");
        }
        event!("to.first");
        assert_eq!(r1.len(), 1);
        assert_eq!(r2.len(), 1);
        assert!(r1.lines()[0].contains("to.first"));
        assert!(r2.lines()[0].contains("to.second"));
    }

    #[test]
    fn metrics_snapshot_event() {
        let (c, ring) = Collector::ring(8);
        c.registry().counter("n").add(5);
        c.snapshot_metrics();
        let v = json::parse(&ring.lines()[0]).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("metrics"));
        assert_eq!(
            v.get("metrics").unwrap().get("n").unwrap().as_u64(),
            Some(5)
        );
    }

    #[test]
    fn deterministic_traces_are_byte_identical() {
        let run = || {
            let (c, ring) = Collector::ring(64);
            let _g = install(c.clone());
            let mut rng = Rng::seed_from_u64(7);
            for i in 0..10u64 {
                let _s = span!("it", i = i);
                if rng.gen_bool(0.5) {
                    event!("hit", v = rng.gen_range(0..100u64));
                }
            }
            c.snapshot_metrics();
            ring.to_jsonl()
        };
        assert_eq!(run(), run());
    }
}
