//! Evaluation memoization for the DSE.
//!
//! The annealer frequently revisits structurally identical design points:
//! rejected proposals leave `cur` unchanged, saturated resizes produce the
//! same graph, and parallel chains overlap near the seed. [`Memo`] is a
//! concurrent table keyed by a canonical 64-bit fingerprint (see
//! [`overgen_adg::StableHasher`]); the stored value carries everything an
//! evaluation produced — result, simulated cost, captured telemetry trace,
//! and metric deltas — so a hit can be made observationally identical to
//! re-running the evaluation.
//!
//! Hit/miss totals are deterministic under any thread scheduling: racing
//! lookups of one key block inside `OnceLock::get_or_init` so exactly one
//! caller computes, making misses = distinct keys and hits = lookups −
//! distinct keys.
//!
//! Every key folds in the run's config hash, which covers the
//! [`Objective`](crate::Objective) and all of its parameters
//! (`Dse::config_hash`). Since cached artifacts carry objective-dependent
//! data — the computed fitness, and under a budgeted objective the
//! infeasible-rejection trace — this guarantees two configurations that
//! score or gate proposals differently can never share an entry, within a
//! run or across a checkpoint's warm set.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, OnceLock};

use overgen_adg::StableHasher;
use overgen_scheduler::Schedule;

/// A concurrent memo table from fingerprint keys to lazily-computed
/// values.
///
/// A table can carry a *warm set*: keys a previous run of the same search
/// already computed (restored from a checkpoint, which stores cache keys
/// but not the cached artifacts — they are cheap to recompute and huge to
/// serialize). The first lookup of a warm key recomputes the value but
/// reports a **hit**, because the uninterrupted run it must be
/// observationally identical to would have served that lookup from cache.
/// Evaluations are deterministic functions of their key, so the recomputed
/// artifact (including its captured trace) matches the original byte for
/// byte.
pub(crate) struct Memo<V> {
    map: Mutex<BTreeMap<u64, Arc<OnceLock<V>>>>,
    warm: BTreeSet<u64>,
}

impl<V> Memo<V> {
    pub(crate) fn new() -> Self {
        Memo {
            map: Mutex::new(BTreeMap::new()),
            warm: BTreeSet::new(),
        }
    }

    /// A table whose hit/miss accounting treats `keys` as already seen.
    pub(crate) fn with_warm(keys: impl IntoIterator<Item = u64>) -> Self {
        Memo {
            map: Mutex::new(BTreeMap::new()),
            warm: keys.into_iter().collect(),
        }
    }

    /// Look up `key`, computing the value with `compute` on first sight.
    /// Returns the (now initialized) cell plus whether *this* call did the
    /// computation — i.e. whether the lookup was a miss. Warm keys never
    /// report a miss (see type docs).
    pub(crate) fn get_or_compute(
        &self,
        key: u64,
        compute: impl FnOnce() -> V,
    ) -> (Arc<OnceLock<V>>, bool) {
        let cell = self
            .map
            .lock()
            .unwrap()
            .entry(key)
            .or_insert_with(|| Arc::new(OnceLock::new()))
            .clone();
        let mut miss = false;
        cell.get_or_init(|| {
            miss = true;
            compute()
        });
        (cell, miss && !self.warm.contains(&key))
    }

    /// Every key this table has seen: computed ones plus still-warm ones,
    /// sorted. This is what a checkpoint persists.
    pub(crate) fn keys(&self) -> Vec<u64> {
        let mut keys: BTreeSet<u64> = self.map.lock().unwrap().keys().copied().collect();
        keys.extend(self.warm.iter().copied());
        keys.into_iter().collect()
    }

    /// Number of distinct keys ever computed.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }
}

/// Absorb a full schedule into a fingerprint: everything `repair` and the
/// performance model can observe, the scratchpad placement's sorted array
/// names last. The derived quantities (`est`, `balance_penalty`) are
/// functions of the rest and are skipped.
pub(crate) fn hash_schedule(h: &mut StableHasher, s: &Schedule) {
    h.write_str(&s.mdfg_name);
    h.write_u64(u64::from(s.variant));
    h.write_u64(s.assignment.len() as u64);
    for (m, a) in &s.assignment {
        h.write_u64(m.index() as u64);
        h.write_u64(a.index() as u64);
    }
    h.write_u64(s.stream_engines.len() as u64);
    for (m, e) in &s.stream_engines {
        h.write_u64(m.index() as u64);
        h.write_u64(e.index() as u64);
    }
    h.write_u64(s.routes.len() as u64);
    for ((src, dst), path) in &s.routes {
        h.write_u64(src.index() as u64);
        h.write_u64(dst.index() as u64);
        h.write_u64(path.len() as u64);
        for n in path {
            h.write_u64(n.index() as u64);
        }
    }
    h.write_u64(s.placement.spad_arrays.len() as u64);
    for a in &s.placement.spad_arrays {
        h.write_str(a);
    }
}

/// Absorb a full mDFG variant into a fingerprint: identity, iteration
/// shape, and every node and edge. Within one run the in-memory memo keys
/// never need this (the variant set is fixed for the run's lifetime), but
/// the persistent store is shared across tenants whose runs may agree on
/// every memo-key ingredient while exploring different domains — the
/// domain salt built from this hash is what keeps their entries apart
/// (see `store.rs`).
pub(crate) fn hash_mdfg(h: &mut StableHasher, m: &overgen_mdfg::Mdfg) {
    use overgen_mdfg::MdfgNode;
    h.write_str(m.name());
    h.write_u64(u64::from(m.variant()));
    h.write_u64(u64::from(m.unroll()));
    h.write_f64(m.total_iterations());
    h.write_u64(u64::from(m.sequential()));
    h.write_u64(m.node_count() as u64);
    for (_, node) in m.nodes() {
        match node {
            MdfgNode::Inst(i) => {
                h.write_str("inst");
                h.write_str(&format!("{:?}/{:?}", i.op, i.dtype));
                h.write_u64(u64::from(i.lanes));
            }
            MdfgNode::InputStream(s) | MdfgNode::OutputStream(s) => {
                h.write_str(if s.is_write { "out" } else { "in" });
                h.write_str(&s.array);
                h.write_u64(s.bytes_per_firing);
                h.write_str(&format!("{:?}", s.pattern));
                h.write_u64(u64::from(s.dims));
                h.write_u64(u64::from(s.variable_tc));
                h.write_u64(u64::from(s.broadcast));
                h.write_f64(s.reuse.traffic_bytes);
                h.write_f64(s.reuse.footprint_bytes);
                h.write_f64(s.reuse.stationary);
                match &s.reuse.recurrent {
                    None => h.write_u64(0),
                    Some(r) => {
                        h.write_u64(1);
                        h.write_u64(r.concurrent);
                        h.write_u64(r.depth);
                    }
                }
            }
            MdfgNode::Array(a) => {
                h.write_str("array");
                h.write_str(&a.name);
                h.write_u64(a.size_bytes);
                h.write_str(&format!("{:?}", a.pref));
            }
        }
    }
    for (src, dst) in m.edges() {
        h.write_u64(src.index() as u64);
        h.write_u64(dst.index() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn computes_each_key_once() {
        let memo: Memo<u64> = Memo::new();
        let computed = AtomicU64::new(0);
        let mut hits = 0;
        let mut misses = 0;
        for key in [1u64, 2, 1, 1, 2, 3] {
            let (cell, miss) = memo.get_or_compute(key, || {
                computed.fetch_add(1, Ordering::Relaxed);
                key * 10
            });
            assert_eq!(*cell.get().unwrap(), key * 10);
            if miss {
                misses += 1;
            } else {
                hits += 1;
            }
        }
        assert_eq!(computed.load(Ordering::Relaxed), 3);
        assert_eq!((misses, hits), (3, 3));
        assert_eq!(memo.len(), 3);
    }

    #[test]
    fn warm_keys_report_hits_on_first_lookup() {
        let memo: Memo<u64> = Memo::with_warm([7u64]);
        let (cell, miss) = memo.get_or_compute(7, || 70);
        assert_eq!(*cell.get().unwrap(), 70);
        assert!(!miss, "warm key must not count as a miss");
        let (_, again) = memo.get_or_compute(7, || unreachable!("already computed"));
        assert!(!again);
        let (_, fresh) = memo.get_or_compute(8, || 80);
        assert!(fresh);
        // keys() covers computed and warm keys alike, sorted.
        assert_eq!(memo.keys(), vec![7, 8]);
        let untouched: Memo<u64> = Memo::with_warm([3u64, 1]);
        assert_eq!(untouched.keys(), vec![1, 3]);
    }

    #[test]
    fn concurrent_lookups_agree_on_miss_totals() {
        let memo: Memo<u64> = Memo::new();
        let misses = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for key in 0..32u64 {
                        let (_, miss) = memo.get_or_compute(key % 8, || key % 8);
                        if miss {
                            misses.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        // 4 threads x 32 lookups over 8 distinct keys: exactly 8 misses.
        assert_eq!(misses.load(Ordering::Relaxed), 8);
        assert_eq!(memo.len(), 8);
    }
}
