//! A registry of named counters, gauges, and log-linear histograms.
//!
//! Metrics are addressed by static name and cheap to update from hot loops
//! (one relaxed atomic op). A [`Registry`] snapshot renders to the JSONL
//! sink as a single `metrics` event; `DseStats`-style public structs read
//! their values back from the same counters.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Obj;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (all ops still work).
    pub fn detached() -> Self {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge holding an `f64`.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Log-linear histogram layout: exact buckets below 2^LINEAR_BITS, then
/// `SUB` sub-buckets per power of two (relative error <= 1/SUB).
const LINEAR_BITS: u32 = 5; // exact 0..31
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS; // 16 sub-buckets per octave
const LINEAR_BUCKETS: usize = 1 << LINEAR_BITS; // 32
const OCTAVES: usize = (64 - LINEAR_BITS) as usize; // 59 octaves cover u64
const BUCKETS: usize = LINEAR_BUCKETS + OCTAVES * SUB as usize;

#[derive(Debug)]
struct HistInner {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A concurrent log-linear histogram of `u64` samples with percentile
/// readout (`p50`/`p90`/`p99` within ~6% relative error above 32).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistInner {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

/// Bucket index of a value.
fn index_of(v: u64) -> usize {
    if v < LINEAR_BUCKETS as u64 {
        return v as usize;
    }
    let h = 63 - v.leading_zeros(); // highest set bit, >= LINEAR_BITS
    let octave = (h - LINEAR_BITS) as usize;
    let within = ((v >> (h - SUB_BITS)) & (SUB - 1)) as usize;
    LINEAR_BUCKETS + octave * SUB as usize + within
}

/// Lower bound of a bucket (the value reported for percentiles in it).
fn value_of(idx: usize) -> u64 {
    if idx < LINEAR_BUCKETS {
        return idx as u64;
    }
    let rel = idx - LINEAR_BUCKETS;
    let octave = (rel / SUB as usize) as u32;
    let within = (rel % SUB as usize) as u64;
    let base = 1u64 << (octave + LINEAR_BITS);
    base + within * (base >> SUB_BITS)
}

impl Histogram {
    /// A histogram not attached to any registry.
    pub fn detached() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let i = index_of(v);
        self.0.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Mean of samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Fold another histogram's samples into this one (bucket-wise add).
    fn merge_from(&self, other: &Histogram) {
        for (dst, src) in self.0.buckets.iter().zip(other.0.buckets.iter()) {
            let v = src.load(Ordering::Relaxed);
            if v != 0 {
                dst.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.0.count.fetch_add(other.count(), Ordering::Relaxed);
        self.0.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.0.max.fetch_max(other.max(), Ordering::Relaxed);
    }

    /// Nonzero `(bucket index, count)` pairs in ascending bucket order —
    /// the raw parts a [`MetricSnapshot::Histogram`] persists.
    fn nonzero_buckets(&self) -> Vec<(u32, u64)> {
        self.0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let v = b.load(Ordering::Relaxed);
                (v != 0).then_some((i as u32, v))
            })
            .collect()
    }

    /// Fold raw parts back in: equivalent to [`Histogram::merge_from`] with
    /// a histogram holding exactly these buckets, so `export` → `import`
    /// reproduces merges bit-exactly. Out-of-range bucket indices are
    /// ignored (they cannot arise from [`Histogram::nonzero_buckets`]).
    fn add_parts(&self, buckets: &[(u32, u64)], count: u64, sum: u64, max: u64) {
        for &(i, v) in buckets {
            if let Some(b) = self.0.buckets.get(i as usize) {
                b.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.0.count.fetch_add(count, Ordering::Relaxed);
        self.0.sum.fetch_add(sum, Ordering::Relaxed);
        self.0.max.fetch_max(max, Ordering::Relaxed);
    }

    /// Approximate percentile (`p` in 0..=100): the lower bound of the
    /// bucket holding the p-th sample. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        // Rank of the target sample, 1-based, clamped into [1, n].
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0).min(n as f64) as u64;
        let mut seen = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return value_of(i);
            }
        }
        self.max()
    }
}

#[derive(Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The kind of a registered metric, as reported by
/// [`Registry::metric_names`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonic [`Counter`].
    Counter,
    /// A last-value-wins [`Gauge`].
    Gauge,
    /// A log-linear [`Histogram`].
    Histogram,
}

/// A point-in-time value of one metric, detached from any registry — the
/// serializable unit behind [`Registry::export`]/[`Registry::import`].
/// Everything is lossless: counter/gauge values verbatim, histograms as
/// raw bucket counts, so an exported-then-imported registry merges
/// bit-identically to merging the original.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSnapshot {
    /// Counter value.
    Counter(u64),
    /// Gauge value (persist via `to_bits` to keep -0.0/NaN payloads).
    Gauge(f64),
    /// Histogram raw parts.
    Histogram {
        /// Nonzero `(bucket index, count)` pairs, ascending.
        buckets: Vec<(u32, u64)>,
        /// Total sample count.
        count: u64,
        /// Sum of samples.
        sum: u64,
        /// Largest sample.
        max: u64,
    },
}

/// A named-metric registry. Cloning is cheap (shared storage).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<&'static str, Metric>>>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &'static str) -> Counter {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name)
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with another type"),
        }
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name)
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with another type"),
        }
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name)
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with another type"),
        }
    }

    /// Append every metric to `out` as one JSON object (counters as
    /// integers, gauges as floats, histograms as
    /// `{count,sum,max,p50,p90,p99}`).
    pub fn snapshot_json(&self, out: &mut String) {
        let m = self.metrics.lock().unwrap();
        let mut obj = Obj::into(out);
        for (name, metric) in m.iter() {
            obj = match metric {
                Metric::Counter(c) => obj.u64(name, c.get()),
                Metric::Gauge(g) => obj.f64(name, g.get()),
                Metric::Histogram(h) => obj.with(name, |o| {
                    Obj::into(o)
                        .u64("count", h.count())
                        .u64("sum", h.sum())
                        .u64("max", h.max())
                        .u64("p50", h.percentile(50.0))
                        .u64("p90", h.percentile(90.0))
                        .u64("p99", h.percentile(99.0))
                        .finish();
                }),
            };
        }
        obj.finish();
    }

    /// Fold every metric of `other` into this registry by name: counters
    /// add, histograms merge bucket-wise, gauges take `other`'s value.
    /// Used to apply a captured evaluation's metric deltas to the run
    /// registry — both when the evaluation just ran and when a cache hit
    /// re-applies a stored delta, so hits and misses are indistinguishable.
    ///
    /// # Panics
    ///
    /// Panics if a name is registered with different metric types in the
    /// two registries (same invariant as the accessors).
    pub fn merge_from(&self, other: &Registry) {
        if Arc::ptr_eq(&self.metrics, &other.metrics) {
            return;
        }
        let src = other.metrics.lock().unwrap();
        for (name, metric) in src.iter() {
            match metric {
                Metric::Counter(c) => {
                    let v = c.get();
                    if v != 0 {
                        self.counter(name).add(v);
                    }
                }
                Metric::Gauge(g) => self.gauge(name).set(g.get()),
                Metric::Histogram(h) => {
                    if h.count() != 0 {
                        self.histogram(name).merge_from(h);
                    }
                }
            }
        }
    }

    /// Every registered metric name with its kind, sorted by name. The
    /// metric-name audit uses this to check runtime emissions against the
    /// documented lists in [`crate::names`].
    pub fn metric_names(&self) -> Vec<(&'static str, MetricKind)> {
        let m = self.metrics.lock().unwrap();
        m.iter()
            .map(|(name, metric)| {
                let kind = match metric {
                    Metric::Counter(_) => MetricKind::Counter,
                    Metric::Gauge(_) => MetricKind::Gauge,
                    Metric::Histogram(_) => MetricKind::Histogram,
                };
                (*name, kind)
            })
            .collect()
    }

    /// Current value of a counter by name (0 when absent or not a counter).
    pub fn counter_value(&self, name: &str) -> u64 {
        let m = self.metrics.lock().unwrap();
        match m.get(name) {
            Some(Metric::Counter(c)) => c.get(),
            _ => 0,
        }
    }

    /// Snapshot every metric into a portable value, sorted by name.
    pub fn export(&self) -> Vec<(&'static str, MetricSnapshot)> {
        let m = self.metrics.lock().unwrap();
        m.iter()
            .map(|(name, metric)| {
                let snap = match metric {
                    Metric::Counter(c) => MetricSnapshot::Counter(c.get()),
                    Metric::Gauge(g) => MetricSnapshot::Gauge(g.get()),
                    Metric::Histogram(h) => MetricSnapshot::Histogram {
                        buckets: h.nonzero_buckets(),
                        count: h.count(),
                        sum: h.sum(),
                        max: h.max(),
                    },
                };
                (*name, snap)
            })
            .collect()
    }

    /// Fold one exported metric back in with [`Registry::merge_from`]
    /// semantics: counters add, gauges take the value, histograms merge
    /// bucket-wise. The name must be `'static` — loaders re-intern through
    /// the documented lists in [`crate::names`] instead of leaking.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different metric kind.
    pub fn import(&self, name: &'static str, snap: &MetricSnapshot) {
        match snap {
            MetricSnapshot::Counter(v) => {
                if *v != 0 {
                    self.counter(name).add(*v);
                }
            }
            MetricSnapshot::Gauge(v) => self.gauge(name).set(*v),
            MetricSnapshot::Histogram {
                buckets,
                count,
                sum,
                max,
            } => {
                if *count != 0 || !buckets.is_empty() {
                    self.histogram(name).add_parts(buckets, *count, *sum, *max);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_consistent() {
        for v in [0u64, 1, 31, 32, 33, 100, 1_000, 65_535, u64::MAX / 2] {
            let idx = index_of(v);
            let lo = value_of(idx);
            assert!(lo <= v, "lower bound {lo} > {v}");
            // next bucket starts above v
            if idx + 1 < BUCKETS {
                assert!(value_of(idx + 1) > v, "value {v} not below next bucket");
            }
        }
    }

    #[test]
    fn exact_percentiles_below_linear_cutoff() {
        let h = Histogram::default();
        for v in 0..=20u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), 10);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(100.0), 20);
    }

    #[test]
    fn log_linear_percentiles_within_bucket_error() {
        let h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (p, expect) in [(50.0, 5_000u64), (90.0, 9_000), (99.0, 9_900)] {
            let got = h.percentile(p) as f64;
            let rel = (got - expect as f64).abs() / expect as f64;
            assert!(rel < 0.07, "p{p}: got {got}, want ~{expect} (rel {rel})");
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.max(), 10_000);
        assert!((h.mean() - 5_000.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn skewed_distribution_p99() {
        let h = Histogram::default();
        for _ in 0..990 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        assert_eq!(h.percentile(50.0), 10);
        let p99 = h.percentile(99.0);
        assert!(p99 == 10, "p99 {p99}"); // 990th of 1000 samples is still 10
        let p999 = h.percentile(99.9);
        assert!(p999 >= 93_750, "p99.9 {p999}");
    }

    #[test]
    fn registry_shares_by_name() {
        let r = Registry::new();
        r.counter("a").inc();
        r.counter("a").add(2);
        assert_eq!(r.counter_value("a"), 3);
        r.gauge("g").set(1.5);
        assert_eq!(r.gauge("g").get(), 1.5);
        let mut snap = String::new();
        r.snapshot_json(&mut snap);
        assert!(snap.contains("\"a\":3"));
        assert!(snap.contains("\"g\":1.5"));
    }

    #[test]
    #[should_panic(expected = "another type")]
    fn type_clash_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn merge_from_folds_all_metric_kinds() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("c").add(2);
        b.counter("c").add(3);
        b.counter("only_b").inc();
        b.gauge("g").set(4.5);
        b.histogram("h").record(7);
        b.histogram("h").record(100);
        a.histogram("h").record(1);
        a.merge_from(&b);
        assert_eq!(a.counter_value("c"), 5);
        assert_eq!(a.counter_value("only_b"), 1);
        assert_eq!(a.gauge("g").get(), 4.5);
        let h = a.histogram("h");
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 108);
        assert_eq!(h.max(), 100);
        // merging twice adds again (deltas are applied per call)
        a.merge_from(&b);
        assert_eq!(a.counter_value("c"), 8);
        // self-merge is a no-op, not a deadlock
        let a2 = a.clone();
        a.merge_from(&a2);
        assert_eq!(a.counter_value("c"), 8);
    }

    #[test]
    fn percentile_lands_exactly_on_bucket_boundaries() {
        // One sample on each side of the linear/log boundary and on octave
        // boundaries: the reported percentile must be the bucket's own
        // lower bound, which for boundary values is the value itself.
        for v in [
            31u64, // last exact linear bucket
            32,    // first log-linear bucket
            64,    // octave boundary
            96,    // sub-bucket boundary inside the 64..128 octave
            1 << 20,
        ] {
            let h = Histogram::default();
            h.record(v);
            assert_eq!(h.percentile(0.0), v, "p0 of single sample {v}");
            assert_eq!(h.percentile(50.0), v, "p50 of single sample {v}");
            assert_eq!(h.percentile(100.0), v, "p100 of single sample {v}");
            assert_eq!(value_of(index_of(v)), v, "{v} is a bucket lower bound");
        }
        // Two samples in adjacent buckets: p50 is the first, p100 the second.
        let h = Histogram::default();
        h.record(31);
        h.record(32);
        assert_eq!(h.percentile(50.0), 31);
        assert_eq!(h.percentile(100.0), 32);
    }

    #[test]
    fn zero_samples_everywhere() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        for p in [0.0, 50.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), 0);
        }
        // Merging an empty histogram changes nothing.
        let other = Histogram::default();
        other.record(5);
        other.merge_from(&h);
        assert_eq!(other.count(), 1);
        assert_eq!(other.percentile(100.0), 5);
    }

    #[test]
    fn u64_max_sample_is_representable() {
        let h = Histogram::default();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        // The top bucket's lower bound is still a sane (huge) value and the
        // index stays in range.
        let idx = index_of(u64::MAX);
        assert!(idx < BUCKETS, "index {idx} out of range");
        let p100 = h.percentile(100.0);
        assert!(p100 >= u64::MAX / 2, "p100 {p100} collapsed");
        // A second tiny sample keeps both ends readable.
        h.record(1);
        assert_eq!(h.percentile(0.0), 1);
        assert!(h.percentile(100.0) >= u64::MAX / 2);
    }

    #[test]
    fn export_import_round_trip_equals_merge_from() {
        let src = Registry::new();
        src.counter("c").add(7);
        src.gauge("g").set(-2.25);
        for v in [1u64, 31, 32, 100_000, u64::MAX / 3] {
            src.histogram("h").record(v);
        }
        // Reference: merge the live registry.
        let direct = Registry::new();
        direct.merge_from(&src);
        // Round trip: export, import into a fresh registry.
        let via_export = Registry::new();
        for (name, snap) in src.export() {
            via_export.import(name, &snap);
        }
        let json = |r: &Registry| {
            let mut out = String::new();
            r.snapshot_json(&mut out);
            out
        };
        assert_eq!(json(&via_export), json(&direct));
        let h_direct = direct.histogram("h");
        let h_rt = via_export.histogram("h");
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h_rt.percentile(p), h_direct.percentile(p));
        }
        // Importing twice applies the delta twice, like merge_from.
        for (name, snap) in src.export() {
            via_export.import(name, &snap);
        }
        assert_eq!(via_export.counter_value("c"), 14);
        assert_eq!(via_export.histogram("h").count(), 10);
    }

    #[test]
    fn merge_of_snapshots_equals_direct_recording() {
        // Recording a stream into one histogram must equal splitting the
        // stream across shards and merging — bucket-wise, not just in
        // count/sum/max.
        let direct = Histogram::default();
        let shards = [
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        ];
        let mut v: u64 = 7;
        for i in 0..1_000u64 {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let sample = v >> (v % 50); // spread across many octaves
            direct.record(sample);
            shards[(i % 3) as usize].record(sample);
        }
        let merged = Histogram::default();
        for s in &shards {
            merged.merge_from(s);
        }
        assert_eq!(merged.count(), direct.count());
        assert_eq!(merged.sum(), direct.sum());
        assert_eq!(merged.max(), direct.max());
        for p in [0.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(
                merged.percentile(p),
                direct.percentile(p),
                "p{p} differs after merge"
            );
        }
    }
}
