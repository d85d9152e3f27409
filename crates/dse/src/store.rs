//! The persistent, on-disk, content-addressed evaluation store.
//!
//! The in-memory [`Memo`](crate::cache) tables die with the process, so
//! every run starts cold even when another tenant just evaluated the same
//! domain. This module promotes the memos' own artifacts to disk and
//! shares them (a fetch hands back the stored `Arc`): each entry is one
//! *whole* cached evaluation — the `EvalState` outcome, the captured
//! telemetry trace, and the isolated metric deltas — keyed by the exact
//! ADG-fingerprint × config-hash keys the in-memory caches already use.
//! Because an evaluation is a deterministic function of its key, and a
//! cache hit replays the stored trace and merges the stored registry (see
//! `eval.rs`), a store-served artifact is byte-for-byte indistinguishable
//! from recomputation — the foundation of the cross-tenant determinism
//! argument in DESIGN.md §13.
//!
//! ## On-disk layout
//!
//! One file per entry, named `eval-<key>.json` / `sys-<key>.json` under
//! the store directory, each written via
//! [`write_atomic`](overgen_telemetry::fs::write_atomic) and carrying a
//! versioned header:
//!
//! ```json
//! {"magic":"overgen-eval-store","version":2,"kind":"eval",
//!  "key":"<hex u64>","payload":{...}}
//! ```
//!
//! A trace is an array of tagged ops. Span opens are numbered in order
//! (`["o",slot]`) and each close (`["c",slot,…]`) carries the slot of the
//! open it ends, so a load can check that the spans nest.
//!
//! Content addressing makes multi-process races benign: two processes
//! publishing the same key write identical bytes, different keys write
//! different files, and the atomic rename means readers never observe a
//! torn entry. There is no index file to merge or corrupt.
//!
//! ## Accounting determinism
//!
//! [`EvalStore::open`] snapshots the key set found on disk (the *warm*
//! set). A lookup counts as a `hit` iff its key is in that snapshot, else
//! as a `miss` — even when a sibling job published the entry seconds ago
//! (the value is still served; such serves increment the separate,
//! scheduling-dependent `shared_serves` counter). `hits`/`misses` are
//! therefore a pure function of the open snapshot and each job's key
//! stream, deterministic for any worker count and interleaving, and the
//! `hits + misses == lookups` invariant holds across reloads.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use overgen_telemetry::fs::write_atomic;
use overgen_telemetry::json::{self, Obj, Value};
use overgen_telemetry::{names, CapturedTrace, FieldValue, MetricSnapshot, Registry, TraceOp};

use crate::codec::{field, get, items, object_codec, put_tagged, tagged, text, Codec, PutField};
use crate::eval::{CachedEval, CachedSystem};

/// Store file-format magic.
pub const STORE_MAGIC: &str = "overgen-eval-store";
/// Store file-format version. Entries written by a different version are
/// refused at load with [`StoreError::Version`]. Version history: 1 =
/// original; 2 = per-eval `placement` metrics (spatial placement).
pub const STORE_VERSION: u64 = 2;

/// Why the store could not be opened or an entry could not be read.
#[derive(Debug)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io(std::io::Error),
    /// An entry file exists but does not decode as a store entry
    /// (truncated, not JSON, wrong magic, missing or malformed fields).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What failed to decode.
        reason: String,
    },
    /// An entry was written by a different store-format version.
    Version {
        /// The offending file.
        path: PathBuf,
        /// Version found in the header.
        found: u64,
        /// Version this build understands.
        expected: u64,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt { path, reason } => {
                write!(f, "corrupt store entry {}: {reason}", path.display())
            }
            StoreError::Version {
                path,
                found,
                expected,
            } => write!(
                f,
                "store entry {} has version {found}, expected {expected}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Snapshot of the store's accounting counters; see the module docs for
/// which are deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Total lookups (`hits + misses` always).
    pub lookups: u64,
    /// Lookups whose key was on disk when the store was opened.
    /// Deterministic per run for a fixed snapshot.
    pub hits: u64,
    /// Lookups whose key was not in the open snapshot. Deterministic.
    pub misses: u64,
    /// Entries inserted (and written to disk) by this store instance.
    pub publishes: u64,
    /// Miss-path lookups nevertheless served from memory because a
    /// sibling job published the key after open. Scheduling-dependent —
    /// excluded from all determinism claims.
    pub shared_serves: u64,
    /// Entries loaded from disk at open (the warm set size).
    pub warm_entries: u64,
}

#[derive(Default)]
struct StatsInner {
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    publishes: AtomicU64,
    shared_serves: AtomicU64,
}

/// Entry kinds, doubling as the filename prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Eval,
    Sys,
}

impl Kind {
    fn tag(self) -> &'static str {
        match self {
            Kind::Eval => "eval",
            Kind::Sys => "sys",
        }
    }

    fn from_tag(s: &str) -> Option<Kind> {
        match s {
            "eval" => Some(Kind::Eval),
            "sys" => Some(Kind::Sys),
            _ => None,
        }
    }
}

/// A store entry, shared read-only between jobs: the very artifact the
/// in-memory memo tables hold.
#[derive(Clone)]
enum Artifact {
    Eval(Arc<CachedEval>),
    Sys(Arc<CachedSystem>),
}

/// The persistent evaluation store. Open once per service (or bench run)
/// and share the `Arc` across every job's [`DseConfig`](crate::DseConfig);
/// all interior mutability is thread-safe.
pub struct EvalStore {
    dir: PathBuf,
    /// Keys present on disk at open — the deterministic warm set.
    snapshot: BTreeSet<(Kind, u64)>,
    entries: Mutex<BTreeMap<(Kind, u64), Artifact>>,
    stats: StatsInner,
}

impl std::fmt::Debug for EvalStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalStore")
            .field("dir", &self.dir)
            .field("warm_entries", &self.snapshot.len())
            .finish_non_exhaustive()
    }
}

impl EvalStore {
    /// Open (creating if needed) the store at `dir`, loading and decoding
    /// every entry file found there. Any unreadable, truncated, corrupt,
    /// or version-mismatched entry rejects the whole load with a typed
    /// error — a shared cache that silently dropped entries would make
    /// warm-hit accounting nondeterministic.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures, [`StoreError::Corrupt`] /
    /// [`StoreError::Version`] on bad entries.
    pub fn open(dir: impl AsRef<Path>) -> Result<Arc<EvalStore>, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut entries = BTreeMap::new();
        // Collect then sort: read_dir order is filesystem-dependent.
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| is_entry_file(p))
            .collect();
        paths.sort();
        for path in paths {
            let body = std::fs::read(&path)?;
            let (kind, key, artifact) = parse_entry(&path, &body)?;
            entries.insert((kind, key), artifact);
        }
        let snapshot: BTreeSet<(Kind, u64)> = entries.keys().copied().collect();
        Ok(Arc::new(EvalStore {
            dir,
            snapshot,
            entries: Mutex::new(entries),
            stats: StatsInner::default(),
        }))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current accounting counters.
    pub fn stats(&self) -> StoreStats {
        let lookups = self.stats.lookups.load(Ordering::Relaxed);
        let hits = self.stats.hits.load(Ordering::Relaxed);
        let misses = self.stats.misses.load(Ordering::Relaxed);
        debug_assert_eq!(hits + misses, lookups);
        StoreStats {
            lookups,
            hits,
            misses,
            publishes: self.stats.publishes.load(Ordering::Relaxed),
            shared_serves: self.stats.shared_serves.load(Ordering::Relaxed),
            warm_entries: self.snapshot.len() as u64,
        }
    }

    /// Number of entries currently held (warm + published).
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lookup(&self, kind: Kind, key: u64) -> Option<Artifact> {
        self.stats.lookups.fetch_add(1, Ordering::Relaxed);
        let warm = self.snapshot.contains(&(kind, key));
        if warm {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
        }
        let found = self.entries.lock().unwrap().get(&(kind, key)).cloned();
        if found.is_some() && !warm {
            self.stats.shared_serves.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    fn publish(&self, kind: Kind, key: u64, artifact: Artifact) {
        use std::collections::btree_map::Entry;
        match self.entries.lock().unwrap().entry((kind, key)) {
            Entry::Occupied(_) => return, // same key => same content; keep first
            Entry::Vacant(v) => {
                v.insert(artifact.clone());
            }
        }
        self.stats.publishes.fetch_add(1, Ordering::Relaxed);
        let mut line = Obj::new()
            .str("magic", STORE_MAGIC)
            .u64("version", STORE_VERSION)
            .str("kind", kind.tag())
            .put("key", &key)
            .with("payload", |o| match &artifact {
                Artifact::Eval(c) => c.put(o),
                Artifact::Sys(c) => c.put(o),
            })
            .finish();
        line.push('\n');
        let path = self.dir.join(format!("{}-{key:016x}.json", kind.tag()));
        if let Err(e) = write_atomic(&path, line.as_bytes()) {
            eprintln!("warning: cannot write store entry {}: {e}", path.display());
        }
    }

    /// Serve a full evaluation artifact, if stored: the stored `Arc`.
    pub(crate) fn fetch_eval(&self, key: u64) -> Option<Arc<CachedEval>> {
        match self.lookup(Kind::Eval, key)? {
            Artifact::Eval(c) => Some(c),
            Artifact::Sys(_) => unreachable!("eval key decoded as sys artifact"),
        }
    }

    /// Persist a freshly computed evaluation artifact, sharing it.
    pub(crate) fn publish_eval(&self, key: u64, c: &Arc<CachedEval>) {
        self.publish(Kind::Eval, key, Artifact::Eval(Arc::clone(c)));
    }

    /// Serve a system-DSE artifact, if stored: the stored `Arc`.
    pub(crate) fn fetch_sys(&self, key: u64) -> Option<Arc<CachedSystem>> {
        match self.lookup(Kind::Sys, key)? {
            Artifact::Sys(c) => Some(c),
            Artifact::Eval(_) => unreachable!("sys key decoded as eval artifact"),
        }
    }

    /// Persist a freshly computed system-DSE artifact, sharing it.
    pub(crate) fn publish_sys(&self, key: u64, c: &Arc<CachedSystem>) {
        self.publish(Kind::Sys, key, Artifact::Sys(Arc::clone(c)));
    }
}

fn is_entry_file(p: &Path) -> bool {
    let Some(name) = p.file_name().and_then(|n| n.to_str()) else {
        return false;
    };
    (name.starts_with("eval-") || name.starts_with("sys-")) && name.ends_with(".json")
}

fn parse_entry(path: &Path, body: &[u8]) -> Result<(Kind, u64, Artifact), StoreError> {
    let corrupt = |reason: String| StoreError::Corrupt {
        path: path.to_path_buf(),
        reason,
    };
    let body = std::str::from_utf8(body).map_err(|e| corrupt(e.to_string()))?;
    let v = json::parse(body.trim_end()).map_err(&corrupt)?;
    let magic: String = field(&v, "magic").map_err(&corrupt)?;
    if magic != STORE_MAGIC {
        return Err(corrupt(format!("bad magic {magic:?}")));
    }
    // The header's version is a plain JSON number, unlike every codec
    // integer.
    let version = get(&v, "version")
        .and_then(|x| x.as_u64().ok_or_else(|| "expected version".to_string()))
        .map_err(&corrupt)?;
    if version != STORE_VERSION {
        return Err(StoreError::Version {
            path: path.to_path_buf(),
            found: version,
            expected: STORE_VERSION,
        });
    }
    (|| -> Result<(Kind, u64, Artifact), String> {
        let kind = Kind::from_tag(text(get(&v, "kind")?)?)
            .ok_or_else(|| "unknown entry kind".to_string())?;
        let key = field(&v, "key")?;
        let payload = get(&v, "payload")?;
        let artifact = match kind {
            Kind::Eval => Codec::take(payload).map(Artifact::Eval),
            Kind::Sys => Codec::take(payload).map(Artifact::Sys),
        };
        Ok((kind, key, artifact.map_err(|e| format!("payload: {e}"))?))
    })()
    .map_err(corrupt)
}

// ---------------------------------------------------------------------------
// Store-only types: the entry payloads and the telemetry halves of an
// artifact. The evaluation outcome goes through the shared codec.

object_codec!(CachedEval {
    state: "state",
    sim: "sim",
    trace: "trace",
    registry: "metrics",
});

/// The winner is `{"sys":…,"score":…}`, or `null` when there is none.
impl Codec for CachedSystem {
    fn put(&self, out: &mut String) {
        Obj::into(out)
            .with("result", |o| match &self.result {
                Some((sys, score)) => {
                    Obj::into(o).put("sys", sys).put("score", score).finish();
                }
                None => o.push_str("null"),
            })
            .put("trace", &self.trace)
            .finish();
    }

    fn take(v: &Value) -> Result<Self, String> {
        Ok(CachedSystem {
            result: match get(v, "result")? {
                Value::Null => None,
                r => Some((field(r, "sys")?, field(r, "score")?)),
            },
            trace: field(v, "trace")?,
        })
    }
}

/// Metric deltas: a metric is `["name",snapshot]`, its name leading like a
/// tag.
impl Codec for Registry {
    fn put(&self, out: &mut String) {
        json::arr(out, self.export(), |o, (name, snap)| {
            put_tagged(o, name, &[&snap]);
        });
    }

    fn take(v: &Value) -> Result<Self, String> {
        let registry = Registry::new();
        for m in items(v)? {
            match tagged(m)? {
                (name, [snap]) => {
                    let name = names::intern_metric(name)
                        .ok_or_else(|| format!("undocumented metric name {name:?}"))?;
                    registry.import(name, &MetricSnapshot::take(snap)?);
                }
                _ => return Err("expected a [name, snapshot] metric".to_string()),
            }
        }
        Ok(registry)
    }
}

/// Each span open is written with its ordinal as its slot, and each close
/// with the slot of the open it ends; a load checks that they nest.
impl Codec for CapturedTrace {
    fn put(&self, out: &mut String) {
        let mut opened = 0u64;
        let mut open = Vec::new();
        json::arr(out, self.ops(), |o, op| match op {
            TraceOp::Event { kind, fields } => put_tagged(o, "e", &[kind, fields]),
            TraceOp::SpanOpen => {
                open.push(opened);
                put_tagged(o, "o", &[&opened]);
                opened += 1;
            }
            TraceOp::SpanClose {
                name,
                rel_depth,
                fields,
            } => {
                let slot = open
                    .pop()
                    .expect("a captured span close ends the latest unclosed open");
                put_tagged(o, "c", &[&slot, name, rel_depth, fields]);
            }
            TraceOp::Metrics => put_tagged(o, "m", &[]),
        });
    }

    fn take(v: &Value) -> Result<Self, String> {
        // Slots of the opens not yet closed, latest last.
        let mut open: Vec<u64> = Vec::new();
        let mut opened = 0u64;
        let mut take_op = |v: &Value| -> Result<TraceOp, String> {
            Ok(match tagged(v)? {
                ("e", [kind, fields]) => TraceOp::Event {
                    kind: String::take(kind)?,
                    fields: Vec::take(fields)?,
                },
                ("o", [slot]) => {
                    let slot = u64::take(slot)?;
                    if slot != opened {
                        return Err(format!(
                            "span pairing: open {slot} where open {opened} comes next"
                        ));
                    }
                    open.push(slot);
                    opened += 1;
                    TraceOp::SpanOpen
                }
                ("c", [slot, name, depth, fields]) => {
                    let slot = u64::take(slot)?;
                    if open.pop() != Some(slot) {
                        return Err(format!(
                            "span pairing: close {slot} does not end the latest unclosed open"
                        ));
                    }
                    TraceOp::SpanClose {
                        name: String::take(name)?,
                        rel_depth: u64::take(depth)?,
                        fields: Vec::take(fields)?,
                    }
                }
                ("m", []) => TraceOp::Metrics,
                (tag, _) => return Err(format!("malformed trace op with tag `{tag}`")),
            })
        };
        let ops = items(v)?
            .iter()
            .enumerate()
            .map(|(i, item)| take_op(item).map_err(|e| format!("item {i}: {e}")))
            .collect::<Result<Vec<_>, String>>()?;
        if let Some(slot) = open.pop() {
            return Err(format!("span pairing: open {slot} never closes"));
        }
        Ok(CapturedTrace::new(ops))
    }
}

/// A field value is `[tag,value]`; a signed integer travels as the hex of
/// its two's-complement bits.
impl Codec for FieldValue {
    fn put(&self, out: &mut String) {
        match self {
            FieldValue::U64(n) => put_tagged(out, "u", &[n]),
            FieldValue::I64(n) => put_tagged(out, "i", &[&(*n as u64)]),
            FieldValue::F64(n) => put_tagged(out, "f", &[n]),
            FieldValue::Bool(b) => put_tagged(out, "b", &[b]),
            FieldValue::Str(s) => put_tagged(out, "s", &[s]),
        }
    }

    fn take(v: &Value) -> Result<Self, String> {
        Ok(match tagged(v)? {
            ("u", [n]) => FieldValue::U64(u64::take(n)?),
            ("i", [n]) => FieldValue::I64(u64::take(n)? as i64),
            ("f", [n]) => FieldValue::F64(f64::take(n)?),
            ("b", [b]) => FieldValue::Bool(bool::take(b)?),
            ("s", [s]) => FieldValue::Str(String::take(s)?),
            (tag, _) => return Err(format!("malformed field value with tag `{tag}`")),
        })
    }
}

impl Codec for MetricSnapshot {
    fn put(&self, out: &mut String) {
        match self {
            MetricSnapshot::Counter(v) => put_tagged(out, "c", &[v]),
            MetricSnapshot::Gauge(v) => put_tagged(out, "g", &[v]),
            MetricSnapshot::Histogram {
                buckets,
                count,
                sum,
                max,
            } => put_tagged(out, "h", &[buckets, count, sum, max]),
        }
    }

    fn take(v: &Value) -> Result<Self, String> {
        Ok(match tagged(v)? {
            ("c", [v]) => MetricSnapshot::Counter(u64::take(v)?),
            ("g", [v]) => MetricSnapshot::Gauge(f64::take(v)?),
            ("h", [buckets, count, sum, max]) => MetricSnapshot::Histogram {
                buckets: Vec::take(buckets)?,
                count: u64::take(count)?,
                sum: u64::take(sum)?,
                max: u64::take(max)?,
            },
            (tag, _) => return Err(format!("malformed metric with tag `{tag}`")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overgen_adg::SystemParams;
    use overgen_telemetry::{capture_isolated, event, install, replay, span, Collector};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("overgen-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A representative eval artifact: nested spans, an event with every
    /// field kind, and metric deltas of all three kinds.
    fn sample_eval() -> Arc<CachedEval> {
        let ((), trace, registry) = capture_isolated(|| {
            let _s = span!("dse.iteration", iter = 3u64);
            drop(span!("sched.repair", mdfg = "fir"));
            {
                let _inner = span!("sched.place");
                event!(
                    "dse.propose",
                    temp = 0.5f64,
                    note = "warm",
                    ok = true,
                    delta = -2i64
                );
            }
            let reg = overgen_telemetry::current().unwrap().registry().clone();
            reg.counter("dse.repairs").add(2);
            reg.gauge("dse.heartbeat.progress").set(0.25);
            reg.histogram("dse.repair_moved").record(5);
        });
        Arc::new(CachedEval {
            state: None,
            sim: 0.125,
            trace,
            registry,
        })
    }

    fn sample_sys(score: f64) -> Arc<CachedSystem> {
        let ((), trace, _registry) = capture_isolated(|| {
            event!("dse.system", tiles = 4u64);
        });
        Arc::new(CachedSystem {
            result: Some((SystemParams::single_tile(), score)),
            trace,
        })
    }

    /// Replay a trace into a fresh ring collector and return the JSONL it
    /// produces — the byte-level identity the cache-hit path relies on.
    fn replay_jsonl(trace: &CapturedTrace) -> String {
        let (c, ring) = Collector::ring(256);
        let _g = install(c);
        replay(trace);
        ring.to_jsonl()
    }

    #[test]
    fn entries_round_trip_across_reload() {
        let dir = tmp("round-trip");
        let e = sample_eval();
        let s = sample_sys(2.5);
        {
            let st = EvalStore::open(&dir).unwrap();
            st.publish_eval(0x42, &e);
            st.publish_sys(7, &s);
            let stats = st.stats();
            assert_eq!(stats.publishes, 2);
            assert_eq!(stats.warm_entries, 0);
        }
        let st = EvalStore::open(&dir).unwrap();
        assert_eq!(st.stats().warm_entries, 2);
        let e2 = st.fetch_eval(0x42).expect("eval entry survives reload");
        assert!(e2.state.is_none());
        assert_eq!(e2.sim, e.sim);
        assert_eq!(replay_jsonl(&e2.trace), replay_jsonl(&e.trace));
        assert_eq!(e2.registry.export(), e.registry.export());
        let s2 = st.fetch_sys(7).expect("sys entry survives reload");
        assert_eq!(s2.result, s.result);
        assert_eq!(replay_jsonl(&s2.trace), replay_jsonl(&s.trace));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A serve hands back the stored artifact itself: in-process the very
    /// one published, and after a reload one allocation per key.
    #[test]
    fn serves_share_the_stored_artifact() {
        let dir = tmp("shared");
        let (e, s) = (sample_eval(), sample_sys(1.5));
        {
            let st = EvalStore::open(&dir).unwrap();
            st.publish_eval(3, &e);
            st.publish_sys(4, &s);
            assert!(Arc::ptr_eq(&st.fetch_eval(3).unwrap(), &e));
            assert!(Arc::ptr_eq(&st.fetch_sys(4).unwrap(), &s));
        }
        let st = EvalStore::open(&dir).unwrap();
        let first = st.fetch_eval(3).unwrap();
        assert!(Arc::ptr_eq(&first, &st.fetch_eval(3).unwrap()));
        assert!(!Arc::ptr_eq(&first, &e));
        let first = st.fetch_sys(4).unwrap();
        assert!(Arc::ptr_eq(&first, &st.fetch_sys(4).unwrap()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn publishing_an_existing_key_is_a_no_op() {
        let dir = tmp("idempotent");
        let st = EvalStore::open(&dir).unwrap();
        st.publish_eval(1, &sample_eval());
        st.publish_eval(1, &sample_eval());
        assert_eq!(st.stats().publishes, 1);
        assert_eq!(st.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn accounting_is_deterministic_and_survives_reload() {
        let dir = tmp("accounting");
        {
            let st = EvalStore::open(&dir).unwrap();
            assert!(st.fetch_eval(1).is_none());
            st.publish_eval(1, &sample_eval());
            // Published after open: served, but still a deterministic miss.
            assert!(st.fetch_eval(1).is_some());
            let s = st.stats();
            assert_eq!(
                (s.lookups, s.hits, s.misses, s.shared_serves, s.publishes),
                (2, 0, 2, 1, 1)
            );
        }
        let st = EvalStore::open(&dir).unwrap();
        assert!(st.fetch_eval(1).is_some(), "warm entry hits after reload");
        assert!(st.fetch_eval(2).is_none());
        let s = st.stats();
        assert_eq!(
            (s.lookups, s.hits, s.misses, s.shared_serves, s.warm_entries),
            (2, 1, 1, 0, 1)
        );
        assert_eq!(s.hits + s.misses, s.lookups);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_rejected_as_corrupt() {
        let dir = tmp("truncated");
        {
            let st = EvalStore::open(&dir).unwrap();
            st.publish_eval(9, &sample_eval());
        }
        let path = dir.join(format!("eval-{:016x}.json", 9));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        match EvalStore::open(&dir) {
            Err(StoreError::Corrupt { path: p, .. }) => assert_eq!(p, path),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_and_foreign_files_are_handled() {
        let dir = tmp("garbage");
        std::fs::create_dir_all(&dir).unwrap();
        // Files without an entry name are ignored entirely...
        std::fs::write(dir.join("README.txt"), "not an entry").unwrap();
        assert_eq!(EvalStore::open(&dir).unwrap().stats().warm_entries, 0);
        // ...but anything claiming to be an entry must decode.
        let entry = dir.join("eval-0000000000000001.json");
        std::fs::write(&entry, "{oops").unwrap();
        assert!(matches!(
            EvalStore::open(&dir),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::write(
            &entry,
            r#"{"magic":"something-else","version":1,"kind":"eval","key":"1","payload":{}}"#,
        )
        .unwrap();
        match EvalStore::open(&dir) {
            Err(StoreError::Corrupt { reason, .. }) => {
                assert!(reason.contains("magic"), "reason was {reason:?}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Bytes no writer produces are `Corrupt` naming the file, never an
    /// I/O error or a stack overflow.
    #[test]
    fn hostile_entry_bytes_are_corrupt() {
        let dir = tmp("hostile");
        std::fs::create_dir_all(&dir).unwrap();
        let entry = dir.join("eval-0000000000000001.json");
        for (bytes, want) in [
            ("[".repeat(200_000).into_bytes(), "nesting deeper"),
            (vec![0xff, 0xfe, 0x7b], "invalid utf-8"),
        ] {
            std::fs::write(&entry, bytes).unwrap();
            match EvalStore::open(&dir) {
                Err(StoreError::Corrupt { path, reason }) => {
                    assert_eq!(path, entry);
                    assert!(reason.contains(want), "reason was {reason:?}");
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_is_refused() {
        let dir = tmp("version");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("sys-0000000000000003.json"),
            format!(
                "{{\"magic\":\"{STORE_MAGIC}\",\"version\":99,\"kind\":\"sys\",\
                 \"key\":\"3\",\"payload\":{{}}}}"
            ),
        )
        .unwrap();
        match EvalStore::open(&dir) {
            Err(StoreError::Version {
                found, expected, ..
            }) => assert_eq!((found, expected), (99, STORE_VERSION)),
            other => panic!("expected Version, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn undocumented_metric_name_is_rejected() {
        let dir = tmp("metric-name");
        {
            let st = EvalStore::open(&dir).unwrap();
            st.publish_eval(5, &sample_eval());
        }
        let path = dir.join(format!("eval-{:016x}.json", 5));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("dse.repairs", "dse.bogus_metric")).unwrap();
        match EvalStore::open(&dir) {
            Err(StoreError::Corrupt { reason, .. }) => {
                assert!(reason.contains("dse.bogus_metric"), "reason was {reason:?}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_stores_race_safely_on_one_directory() {
        let dir = tmp("race");
        let a = EvalStore::open(&dir).unwrap();
        let b = EvalStore::open(&dir).unwrap();
        let e = sample_eval();
        std::thread::scope(|s| {
            for st in [&a, &b] {
                let e = &e;
                s.spawn(move || {
                    for k in 0..16u64 {
                        st.publish_eval(k, e);
                    }
                });
            }
        });
        // Whatever the interleaving: same key, same content, atomic
        // renames — so a fresh open decodes cleanly with one entry per key.
        let fresh = EvalStore::open(&dir).unwrap();
        assert_eq!(fresh.stats().warm_entries, 16);
        for k in 0..16 {
            let got = fresh.fetch_eval(k).expect("entry for every key");
            assert_eq!(replay_jsonl(&got.trace), replay_jsonl(&e.trace));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
