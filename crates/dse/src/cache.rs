//! Keys of the persistent evaluation store (`store.rs`).
//!
//! An evaluation is a deterministic function of its proposal — the ADG,
//! the mutations' footprint, the compound rule chain and every prior
//! schedule — and of the run's configuration, so a 64-bit fingerprint of
//! those (see [`overgen_adg::StableHasher`]) addresses its stored
//! artifact. The fingerprint folds in the run's config hash, which covers
//! the [`Objective`](crate::Objective) and all of its parameters
//! (`Dse::config_hash`): artifacts carry objective-dependent data — the
//! computed fitness and, under a budgeted objective, the
//! infeasible-rejection trace — so two configurations that score or gate
//! proposals differently never share an entry.
//!
//! Only a run that consults a store hashes anything. Within one run a
//! design point almost never recurs: the annealer accepts most proposals,
//! and the key covers every prior schedule. The in-memory evaluation memo
//! these keys once also indexed answered 0.35% of its lookups over the
//! bench experiments and was retired.

use std::collections::BTreeMap;

use overgen_adg::{Adg, StableHasher};
use overgen_mdfg::Mdfg;
use overgen_scheduler::{Schedule, ScheduleFootprint};

/// The store key of one proposal evaluation. `rule_trace` is the
/// compound rule chain (`None` for single-rule runs, whose keys stay
/// historical): compound proposals carry it in `dse.propose` events, so
/// two proposals that differ only in how they were composed must not
/// share a stored trace. The footprint is advisory but recorded in repair
/// trace events, so it is keyed too. `salt` is the domain salt
/// ([`domain_salt`]).
pub(crate) fn eval_key(
    cfg_hash: u64,
    salt: u64,
    adg: &Adg,
    footprint: ScheduleFootprint,
    rule_trace: Option<&str>,
    prior: &BTreeMap<String, Schedule>,
) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(cfg_hash);
    adg.fingerprint_into(&mut h);
    h.write_u64(u64::from(footprint.code()));
    if let Some(trace) = rule_trace {
        h.write_str("rules");
        h.write_str(trace);
    }
    h.write_u64(prior.len() as u64);
    for s in prior.values() {
        hash_schedule(&mut h, s);
    }
    let proposal = h.finish();
    let mut h = StableHasher::new();
    h.write_u64(salt);
    h.write_u64(proposal);
    h.finish()
}

/// The domain salt of a run's store keys: its full mDFG variant set. The
/// store is shared across tenants whose runs may agree on everything else
/// a key covers (two domains with identical config and seed ADG), so the
/// salt keeps their entries apart.
pub(crate) fn domain_salt(mdfgs: &BTreeMap<String, Vec<Mdfg>>) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(mdfgs.len() as u64);
    for (name, variants) in mdfgs {
        h.write_str(name);
        h.write_u64(variants.len() as u64);
        for m in variants {
            hash_mdfg(&mut h, m);
        }
    }
    h.finish()
}

/// Absorb a full schedule into a fingerprint: everything `repair` and the
/// performance model can observe, the scratchpad placement's sorted array
/// names last. The derived quantities (`est`, `balance_penalty`) are
/// functions of the rest and are skipped.
fn hash_schedule(h: &mut StableHasher, s: &Schedule) {
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
/// shape, and every node and edge.
fn hash_mdfg(h: &mut StableHasher, m: &Mdfg) {
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
