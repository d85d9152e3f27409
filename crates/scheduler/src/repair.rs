//! Incremental schedule repair (paper §V-A).
//!
//! Repair runs in two phases:
//!
//! 1. **Classification** — [`dirty_set`] verifies every placement decision
//!    of the prior schedule against the mutated hardware and collects the
//!    mDFG nodes whose decision no longer holds: assignment targets that
//!    vanished or lost a capability, streams whose engine or port binding
//!    changed, scratchpads that no longer fit their arrays, and routes with
//!    missing links or link-exclusivity conflicts. Every repair runs this
//!    scan: the hardware alone decides, and no caller's account of what a
//!    proposal changed lets repair skip it.
//! 2. **Repair** — an empty dirty set means the seeded placer would
//!    reproduce the prior mapping decision-for-decision (prior targets are
//!    tried first and prior routes are reused verbatim), so the *fast path*
//!    reconstructs the schedule directly from the prior mapping and
//!    re-scores it — no placement or routing search at all. A non-empty
//!    dirty set falls back to a full placement seeded with the prior, which
//!    re-places the dirty region and keeps everything else put.
//!
//! Setting [`RepairOptions::incremental`] to `false` (env `OVERGEN_REPAIR=0`
//! in the bench harness) turns every fast-path hit into a silent full
//! placement that is asserted equal to the fast reconstruction — an oracle
//! mode the determinism gates run to prove the fast path changes nothing:
//! counters, events, and results are byte-identical in both modes.

use std::collections::BTreeSet;

use overgen_adg::{AdgNode, NodeId, SysAdg};
use overgen_mdfg::{Mdfg, MdfgNode, MdfgNodeId, MdfgNodeKind};
use overgen_telemetry::{event, span};

use crate::footprint::ScheduleFootprint;
use crate::place::{
    array_needs_indirect, array_of_stream, is_index_stream, score_mapping, HwIndex, FREE,
};
use crate::types::{Schedule, ScheduleError};

/// How a repair resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairOutcome {
    /// The prior schedule is still fully valid (only re-scored).
    Intact,
    /// Some nodes were re-placed; the count is how many moved.
    Repaired {
        /// Number of mDFG nodes whose hardware target changed.
        moved: usize,
    },
}

/// Uninhabited: no value of it exists, so [`RepairOptions::scope`] can
/// only be `None`. Repair classifies every proposal by scanning the prior
/// schedule's decisions against the hardware ([`HwIndex::repair`]) and
/// takes no caller-asserted scope; the type and the field remain only so
/// that callers spelling out `scope: None` keep compiling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairScope {}

/// Knobs for [`repair_with`].
#[derive(Debug, Clone)]
pub struct RepairOptions {
    /// Take the fast path when the dirty set is empty (the default). When
    /// `false`, eligible repairs run a silent full placement instead and
    /// assert it equals the fast reconstruction (verification mode).
    pub incremental: bool,
    /// Mutation footprint of the proposal being repaired, if known.
    /// Advisory: recorded in the `sched.repaired` event so traces attribute
    /// repair outcomes to mutation classes; never trusted for eligibility.
    pub footprint: Option<ScheduleFootprint>,
    /// Always `None`: [`RepairScope`] has no values.
    pub scope: Option<RepairScope>,
}

impl Default for RepairOptions {
    fn default() -> Self {
        RepairOptions {
            incremental: true,
            footprint: None,
            scope: None,
        }
    }
}

/// Repair `prior` against a (possibly mutated) `sys_adg` with defaults.
///
/// # Errors
///
/// Propagates scheduling failures when the mDFG no longer fits the mutated
/// hardware at all.
pub fn repair(
    prior: &Schedule,
    mdfg: &Mdfg,
    sys_adg: &SysAdg,
) -> Result<(Schedule, RepairOutcome), ScheduleError> {
    repair_with(prior, mdfg, sys_adg, &RepairOptions::default())
}

/// Repair `prior` against a (possibly mutated) `sys_adg`: a copy of `prior`
/// through [`HwIndex::repair`] on a fresh index.
///
/// # Errors
///
/// Propagates scheduling failures when the mDFG no longer fits the mutated
/// hardware at all.
pub fn repair_with(
    prior: &Schedule,
    mdfg: &Mdfg,
    sys_adg: &SysAdg,
    opts: &RepairOptions,
) -> Result<(Schedule, RepairOutcome), ScheduleError> {
    HwIndex::new(sys_adg).repair(prior.clone(), mdfg, opts)
}

impl HwIndex<'_> {
    /// Repair `prior` against the indexed (possibly mutated) hardware,
    /// taking it by value: the fast path moves its maps into the result.
    ///
    /// See the module docs for the fast-path/fallback split. Counters:
    /// `scheduler.repair.fast` (empty dirty set, no placement ran),
    /// `scheduler.repair.fallback` (seeded full placement ran), and
    /// `scheduler.repair.dirty_nodes` (total dirty mDFG nodes across
    /// fallbacks).
    ///
    /// # Errors
    ///
    /// Propagates scheduling failures when the mDFG no longer fits the
    /// mutated hardware at all.
    pub fn repair(
        &self,
        prior: Schedule,
        mdfg: &Mdfg,
        opts: &RepairOptions,
    ) -> Result<(Schedule, RepairOutcome), ScheduleError> {
        let _span = span!("sched.repair", mdfg = mdfg.name(), variant = mdfg.variant());
        let dirty = dirty_set(&prior, mdfg, self);
        let footprint = opts.footprint.map_or("unknown", ScheduleFootprint::name);

        if dirty.is_empty() {
            if let Some(c) = overgen_telemetry::current() {
                c.registry().counter("scheduler.repair.fast").inc();
            }
            // Verification mode: the seeded placer must land on exactly the
            // schedule the fast path reconstructs, or the fast path is
            // wrong. Placement runs first, while the prior is still whole,
            // under a counting collector whose registry is dropped, so both
            // modes trace and count alike.
            let full = if opts.incremental {
                None
            } else {
                Some(overgen_telemetry::count_isolated(|| self.schedule(mdfg, Some(&prior))).0?)
            };
            let fast = score_mapping(
                mdfg,
                self,
                prior.assignment,
                prior.stream_engines,
                prior.routes,
            );
            if let Some(full) = full {
                assert_eq!(
                    full,
                    fast,
                    "repair fast path diverged from full placement for {} v{}",
                    mdfg.name(),
                    mdfg.variant()
                );
            }
            event!(
                "sched.repaired",
                mdfg = mdfg.name(),
                outcome = "fast",
                dirty = 0,
                footprint = footprint,
            );
            return Ok((fast, RepairOutcome::Intact));
        }

        if let Some(c) = overgen_telemetry::current() {
            c.registry().counter("scheduler.repair.fallback").inc();
            c.registry()
                .counter("scheduler.repair.dirty_nodes")
                .add(dirty.len() as u64);
        }
        let fresh = self.schedule(mdfg, Some(&prior))?;
        let moved = fresh
            .assignment
            .iter()
            .filter(|(m, a)| prior.assignment.get(m) != Some(a))
            .count();
        event!(
            "sched.repaired",
            mdfg = mdfg.name(),
            outcome = "fallback",
            dirty = dirty.len(),
            moved = moved,
            footprint = footprint,
        );
        Ok((fresh, RepairOutcome::Repaired { moved }))
    }
}

/// mDFG nodes whose prior placement decision no longer holds against the
/// mutated hardware. Empty means the seeded placer would reproduce the
/// prior schedule exactly, so repair may skip placement entirely.
///
/// The checks mirror, decision by decision, what the seeded placer accepts
/// when it re-encounters its own prior (prior targets are tried first and
/// prior routes are reused), which is what makes the fast path sound:
///
/// - every mDFG node still has a prior assignment to *existing* hardware;
/// - arrays: scratchpad targets still hold the **sum** of their assigned
///   arrays and still support indirect access where needed (DMA always ok);
/// - streams: the engine recomputed from array assignments matches the
///   prior binding, the port still hangs off that engine, has the right
///   direction, and still offers stream-state where the stream needs it;
/// - instructions: the PE still exists and supports op/dtype;
/// - routes: endpoints match the assignment, every hop's link still exists,
///   interior hops are still switches, and no exclusive link carries two
///   different values across the whole schedule.
///
/// The prior's assignment is read from one table indexed by mDFG node, the
/// engines and links from `hw`, and link claims from a table indexed by
/// `hw`'s link ids.
pub(crate) fn dirty_set(prior: &Schedule, mdfg: &Mdfg, hw: &HwIndex<'_>) -> BTreeSet<MdfgNodeId> {
    let adg = &hw.sys().adg;
    let adj = hw.adj();
    // Sized to cover every assigned node as well as every mDFG node, so a
    // lookup answers exactly as the map would.
    let slots = prior
        .assignment
        .last_key_value()
        .map_or(0, |(m, _)| m.index() + 1)
        .max(mdfg.node_count());
    let mut table: Vec<Option<NodeId>> = vec![None; slots];
    for (m, a) in &prior.assignment {
        table[m.index()] = Some(*a);
    }
    let assigned = |m: MdfgNodeId| table.get(m.index()).copied().flatten();
    let mut dirty = BTreeSet::new();

    for (mid, _) in mdfg.nodes() {
        if assigned(mid).is_none() {
            dirty.insert(mid);
        }
    }

    // Arrays (per-scratchpad aggregate capacity + indirect support).
    let mut spad_load: Vec<u64> = vec![0; adj.slots()];
    let mut loaded: Vec<NodeId> = Vec::new();
    for (mid, n) in mdfg.nodes() {
        let MdfgNode::Array(a) = n else { continue };
        let Some(target) = assigned(mid) else {
            continue;
        };
        match adg.node(target) {
            Some(AdgNode::Spad(sp)) => {
                if array_needs_indirect(mdfg, mid) && !sp.indirect {
                    dirty.insert(mid);
                } else {
                    loaded.push(target);
                    spad_load[target.index()] += a.size_bytes;
                }
            }
            Some(AdgNode::Dma(_)) => {}
            _ => {
                dirty.insert(mid);
            }
        }
    }
    loaded.retain(|spad| {
        let cap = adg
            .node(*spad)
            .and_then(AdgNode::as_spad)
            .map_or(0, |s| u64::from(s.capacity_kb) * 1024);
        spad_load[spad.index()] > cap
    });
    if !loaded.is_empty() {
        for (mid, n) in mdfg.nodes() {
            if matches!(n, MdfgNode::Array(_)) && assigned(mid).is_some_and(|t| loaded.contains(&t))
            {
                dirty.insert(mid);
            }
        }
    }

    // Streams (engine identity + port binding).
    for (sid, n) in mdfg.nodes() {
        let Some(s) = n.as_stream() else { continue };
        let Some(target) = assigned(sid) else {
            continue;
        };
        let ok = match n.kind() {
            MdfgNodeKind::InputStream if is_index_stream(mdfg, sid) => {
                // Bound to its array's engine, not to a fabric port.
                let want = array_of_stream(mdfg, sid).and_then(assigned);
                want == Some(target)
                    && prior.stream_engines.get(&sid) == Some(&target)
                    && adg.contains(target)
            }
            MdfgNodeKind::InputStream => match hw.engine_of_stream(mdfg, sid, assigned) {
                Some(engine) if prior.stream_engines.get(&sid) == Some(&engine) => {
                    match adg.node(target) {
                        Some(AdgNode::InPort(ip)) => {
                            (!s.variable_tc || ip.stream_state) && adj.has_edge(engine, target)
                        }
                        _ => false,
                    }
                }
                _ => false,
            },
            MdfgNodeKind::OutputStream => match hw.engine_of_stream(mdfg, sid, assigned) {
                Some(engine) if prior.stream_engines.get(&sid) == Some(&engine) => {
                    matches!(adg.node(target), Some(AdgNode::OutPort(_)))
                        && adj.has_edge(target, engine)
                }
                _ => false,
            },
            _ => true,
        };
        if !ok {
            dirty.insert(sid);
        }
    }

    // Instructions (PE existence + capability).
    for (iid, n) in mdfg.nodes() {
        let Some(i) = n.as_inst() else { continue };
        let Some(pe) = assigned(iid) else {
            continue;
        };
        if !adg
            .node(pe)
            .and_then(AdgNode::as_pe)
            .is_some_and(|p| p.supports(i.op, i.dtype))
        {
            dirty.insert(iid);
        }
    }

    // Routes (hop existence, switch interiors, link exclusivity): per link
    // id, the first value source seen on it, or `FREE`.
    let mut link_use: Vec<u32> = vec![FREE; hw.links()];
    for ((src, dst), path) in &prior.routes {
        let mut ok = !path.is_empty()
            && assigned(*src).as_ref() == path.first()
            && assigned(*dst).as_ref() == path.last();
        if ok {
            let last = path.len() - 1;
            let value = src.index() as u32;
            for (i, w) in path.windows(2).enumerate() {
                if !adj.has_edge(w[0], w[1]) || (i + 1 < last && !adj.is_switch(w[1])) {
                    ok = false;
                    break;
                }
                if adj.exclusive_link(w[0], w[1]) {
                    let link = hw.link(w[0], w[1]).expect("an existing link has an id");
                    if link_use[link] == FREE {
                        link_use[link] = value;
                    } else if link_use[link] != value {
                        ok = false;
                        break;
                    }
                }
            }
        }
        if !ok {
            dirty.insert(*dst);
        }
    }

    dirty
}

/// The map-based classification [`dirty_set`] replaced, kept as its
/// oracle: the dense version must return exactly this set, since the set's
/// size feeds `sched.repaired` and `scheduler.repair.dirty_nodes`.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::adj::AdjBits;
    use overgen_adg::{Adg, NodeKind};
    use std::collections::BTreeMap;

    fn engine_of_stream(
        mdfg: &Mdfg,
        adg: &Adg,
        assignment: &BTreeMap<MdfgNodeId, NodeId>,
        sid: MdfgNodeId,
    ) -> Option<NodeId> {
        let first_of = |kind| {
            adg.nodes()
                .find(|(_, n)| n.kind() == kind)
                .map(|(id, _)| id)
        };
        let s = mdfg.node(sid)?.as_stream()?;
        if s.array.is_empty() {
            return first_of(NodeKind::Gen);
        }
        if !s.is_write && crate::place::is_rec_input(mdfg, sid)
            || s.is_write && crate::place::feeds_rec_input(mdfg, sid)
        {
            return first_of(NodeKind::Rec);
        }
        let aid = array_of_stream(mdfg, sid)?;
        assignment.get(&aid).copied()
    }

    pub(super) fn dirty_set(
        prior: &Schedule,
        mdfg: &Mdfg,
        sys_adg: &SysAdg,
    ) -> BTreeSet<MdfgNodeId> {
        let adg = &sys_adg.adg;
        let adj = AdjBits::new(adg);
        let mut dirty = BTreeSet::new();

        for (mid, _) in mdfg.nodes() {
            if !prior.assignment.contains_key(&mid) {
                dirty.insert(mid);
            }
        }

        let mut spad_load: BTreeMap<NodeId, u64> = BTreeMap::new();
        for (mid, n) in mdfg.nodes() {
            let MdfgNode::Array(a) = n else { continue };
            let Some(&target) = prior.assignment.get(&mid) else {
                continue;
            };
            match adg.node(target) {
                Some(AdgNode::Spad(sp)) => {
                    if array_needs_indirect(mdfg, mid) && !sp.indirect {
                        dirty.insert(mid);
                    } else {
                        *spad_load.entry(target).or_default() += a.size_bytes;
                    }
                }
                Some(AdgNode::Dma(_)) => {}
                _ => {
                    dirty.insert(mid);
                }
            }
        }
        for (spad, load) in spad_load {
            let cap = adg
                .node(spad)
                .and_then(AdgNode::as_spad)
                .map(|s| u64::from(s.capacity_kb) * 1024)
                .unwrap_or(0);
            if load > cap {
                for (mid, n) in mdfg.nodes() {
                    if matches!(n, MdfgNode::Array(_)) && prior.assignment.get(&mid) == Some(&spad)
                    {
                        dirty.insert(mid);
                    }
                }
            }
        }

        for (sid, n) in mdfg.nodes() {
            let Some(s) = n.as_stream() else { continue };
            let Some(&target) = prior.assignment.get(&sid) else {
                continue;
            };
            let ok = match n.kind() {
                MdfgNodeKind::InputStream if is_index_stream(mdfg, sid) => {
                    let want = array_of_stream(mdfg, sid)
                        .and_then(|aid| prior.assignment.get(&aid))
                        .copied();
                    want == Some(target)
                        && prior.stream_engines.get(&sid) == Some(&target)
                        && adg.contains(target)
                }
                MdfgNodeKind::InputStream => {
                    match engine_of_stream(mdfg, adg, &prior.assignment, sid) {
                        Some(engine) if prior.stream_engines.get(&sid) == Some(&engine) => {
                            match adg.node(target) {
                                Some(AdgNode::InPort(ip)) => {
                                    (!s.variable_tc || ip.stream_state)
                                        && adj.has_edge(engine, target)
                                }
                                _ => false,
                            }
                        }
                        _ => false,
                    }
                }
                MdfgNodeKind::OutputStream => {
                    match engine_of_stream(mdfg, adg, &prior.assignment, sid) {
                        Some(engine) if prior.stream_engines.get(&sid) == Some(&engine) => {
                            matches!(adg.node(target), Some(AdgNode::OutPort(_)))
                                && adj.has_edge(target, engine)
                        }
                        _ => false,
                    }
                }
                _ => true,
            };
            if !ok {
                dirty.insert(sid);
            }
        }

        for (iid, n) in mdfg.nodes() {
            let Some(i) = n.as_inst() else { continue };
            let Some(&pe) = prior.assignment.get(&iid) else {
                continue;
            };
            if !adg
                .node(pe)
                .and_then(AdgNode::as_pe)
                .is_some_and(|p| p.supports(i.op, i.dtype))
            {
                dirty.insert(iid);
            }
        }

        let mut link_use: BTreeMap<(NodeId, NodeId), MdfgNodeId> = BTreeMap::new();
        for ((src, dst), path) in &prior.routes {
            let mut ok = !path.is_empty()
                && prior.assignment.get(src) == path.first()
                && prior.assignment.get(dst) == path.last();
            if ok {
                let last = path.len() - 1;
                for (i, w) in path.windows(2).enumerate() {
                    if !adj.has_edge(w[0], w[1]) || (i + 1 < last && !adj.is_switch(w[1])) {
                        ok = false;
                        break;
                    }
                    if adj.exclusive_link(w[0], w[1])
                        && *link_use.entry((w[0], w[1])).or_insert(*src) != *src
                    {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                dirty.insert(*dst);
            }
        }

        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule;
    use overgen_adg::{mesh, MeshSpec, NodeKind, SystemParams};
    use overgen_compiler::{lower, LowerChoices};
    use overgen_ir::{expr, DataType, KernelBuilder, Suite};

    fn setup() -> (Mdfg, SysAdg, Schedule) {
        let k = KernelBuilder::new("vecadd", Suite::Dsp, DataType::I64)
            .array_input("a", 64)
            .array_input("b", 64)
            .array_output("c", 64)
            .loop_const("i", 64)
            .assign(
                "c",
                expr::idx("i"),
                expr::load("a", expr::idx("i")) + expr::load("b", expr::idx("i")),
            )
            .build()
            .unwrap();
        let mdfg = lower(
            &k,
            0,
            &LowerChoices {
                unroll: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let sys = SysAdg::new(mesh(&MeshSpec::default()), SystemParams::default());
        let sched = schedule(&mdfg, &sys, None).unwrap();
        (mdfg, sys, sched)
    }

    #[test]
    fn intact_when_nothing_changed() {
        let (mdfg, sys, sched) = setup();
        assert!(dirty_set(&sched, &mdfg, &HwIndex::new(&sys)).is_empty());
        let (again, outcome) = repair(&sched, &mdfg, &sys).unwrap();
        assert_eq!(outcome, RepairOutcome::Intact);
        assert_eq!(again.assignment, sched.assignment);
    }

    #[test]
    fn fast_path_matches_full_placement() {
        let (mdfg, sys, sched) = setup();
        let fast = repair(&sched, &mdfg, &sys).unwrap().0;
        // Verification mode re-runs the full placer and asserts equality
        // internally; the results must also agree with the fast path.
        let opts = RepairOptions {
            incremental: false,
            footprint: None,
            scope: None,
        };
        let full = repair_with(&sched, &mdfg, &sys, &opts).unwrap().0;
        assert_eq!(fast, full);
    }

    // One test per mutation-footprint class, checking the classification
    // the repair engine derives for a representative mutation.

    #[test]
    fn footprint_pure_unchanged_hardware_is_clean() {
        let (mdfg, sys, sched) = setup();
        assert!(dirty_set(&sched, &mdfg, &HwIndex::new(&sys)).is_empty());
    }

    #[test]
    fn footprint_attribute_resize_stays_clean_until_it_evicts() {
        let (mdfg, mut sys, sched) = setup();
        let spad = sys.adg.nodes_of_kind(NodeKind::Spad)[0];
        // Growing a scratchpad never dirties anything.
        if let Some(AdgNode::Spad(sp)) = sys.adg.node_mut(spad) {
            sp.capacity_kb *= 2;
        }
        assert!(dirty_set(&sched, &mdfg, &HwIndex::new(&sys)).is_empty());
        // Shrinking below the assigned arrays' total evicts them.
        if let Some(AdgNode::Spad(sp)) = sys.adg.node_mut(spad) {
            sp.capacity_kb = 0;
        }
        let uses_spad = sched.assignment.values().any(|a| *a == spad);
        let dirty = dirty_set(&sched, &mdfg, &HwIndex::new(&sys));
        assert_eq!(!dirty.is_empty(), uses_spad);
    }

    #[test]
    fn footprint_additive_new_hardware_is_clean() {
        let (mdfg, mut sys, sched) = setup();
        // A new PE and an edge to it touch nothing the schedule uses.
        use overgen_adg::PeNode;
        use overgen_ir::{FuCap, Op};
        let sw = sys.adg.nodes_of_kind(NodeKind::Switch)[0];
        let pe = sys.adg.add_node(AdgNode::Pe(PeNode::with_caps([FuCap::new(
            Op::Add,
            DataType::I64,
        )])));
        sys.adg.add_edge(sw, pe).unwrap();
        assert!(dirty_set(&sched, &mdfg, &HwIndex::new(&sys)).is_empty());
        let (again, outcome) = repair(&sched, &mdfg, &sys).unwrap();
        assert_eq!(outcome, RepairOutcome::Intact);
        assert_eq!(again.assignment, sched.assignment);
    }

    #[test]
    fn footprint_remove_unused_pe_is_clean() {
        let (mdfg, mut sys, sched) = setup();
        // remove a PE that is NOT used by the schedule
        let used = sched.used_adg_nodes();
        let victim = sys
            .adg
            .nodes_of_kind(NodeKind::Pe)
            .into_iter()
            .find(|id| !used.contains(id))
            .expect("tiny mesh has spare PEs");
        sys.adg.remove_node(victim);
        assert!(dirty_set(&sched, &mdfg, &HwIndex::new(&sys)).is_empty());
        let (again, outcome) = repair(&sched, &mdfg, &sys).unwrap();
        assert_eq!(outcome, RepairOutcome::Intact);
        assert_eq!(again.assignment, sched.assignment);
    }

    #[test]
    fn footprint_structural_used_pe_removed_falls_back() {
        let (mdfg, mut sys, sched) = setup();
        // remove the PE the add instruction sits on
        let inst = *sched
            .assignment
            .iter()
            .find(|(mid, _)| mdfg.node(**mid).unwrap().kind() == MdfgNodeKind::Inst)
            .map(|(mid, _)| mid)
            .unwrap();
        let inst_pe = sched.assignment[&inst];
        sys.adg.remove_node(inst_pe);
        let dirty = dirty_set(&sched, &mdfg, &HwIndex::new(&sys));
        assert!(dirty.contains(&inst), "the evicted instruction is dirty");
        let (again, outcome) = repair(&sched, &mdfg, &sys).unwrap();
        match outcome {
            RepairOutcome::Repaired { moved } => assert!(moved >= 1),
            RepairOutcome::Intact => panic!("expected a repair"),
        }
        // new target is a different, existing PE
        assert!(again.assignment.values().all(|a| sys.adg.contains(*a)));
    }

    /// The rewrite rules take the library build's `Schedule`, a type
    /// distinct from this test build's, so a prior crosses over by field.
    fn local(s: &overgen::scheduler::Schedule) -> Schedule {
        Schedule {
            mdfg_name: s.mdfg_name.clone(),
            variant: s.variant,
            assignment: s.assignment.clone(),
            stream_engines: s.stream_engines.clone(),
            routes: s.routes.clone(),
            placement: s.placement.clone(),
            est: s.est,
            balance_penalty: s.balance_penalty,
        }
    }

    /// Seeded `RuleSet::legacy()` chains, preserving and not, on the
    /// default and the General mesh: after every rule the dense dirty set
    /// equals the oracle's, node for node. Removed PEs, switches and
    /// engines leave holes in the node ids along the way.
    #[test]
    fn dense_dirty_set_matches_the_map_oracle_over_rule_chains() {
        use overgen::dse::{Dse, RuleSet, TransformCtx};
        use overgen_telemetry::Rng;

        let vecadd = KernelBuilder::new("vecadd", Suite::Dsp, DataType::I64)
            .array_input("a", 64)
            .array_input("b", 64)
            .array_output("c", 64)
            .loop_const("i", 64)
            .assign(
                "c",
                expr::idx("i"),
                expr::load("a", expr::idx("i")) + expr::load("b", expr::idx("i")),
            )
            .build()
            .unwrap();
        // Recurrence kernels: a small FIR, and two whose reused arrays `a`
        // and `b` fill the default (8 KiB) and General (32 KiB) meshes'
        // scratchpads, so one halving of its capacity evicts them.
        let fir = |dtype: DataType, taps: u64, n: u64| {
            KernelBuilder::new("fir", Suite::Dsp, dtype)
                .array_input("a", n + taps - 1)
                .array_input("b", taps)
                .array_output("c", n)
                .loop_const("io", n / 32)
                .loop_const("j", taps)
                .loop_const("ii", 32)
                .accum(
                    "c",
                    expr::idx_scaled("io", 32) + expr::idx("ii"),
                    expr::load(
                        "a",
                        expr::idx_scaled("io", 32) + expr::idx("ii") + expr::idx("j"),
                    ) * expr::load("b", expr::idx("j")),
                )
                .build()
                .unwrap()
        };
        let (fir_small, fir_i64, fir_f64) = (
            fir(DataType::F64, 128, 128),
            fir(DataType::I64, 256, 512),
            fir(DataType::F64, 1024, 2048),
        );
        let gather = KernelBuilder::new("gather", Suite::MachSuite, DataType::I64)
            .array_input("val", 512)
            .array_input("col", 128)
            .array_output("y", 128)
            .loop_const("i", 128)
            .assign(
                "y",
                expr::idx("i"),
                expr::load_indirect("val", "col", expr::idx("i")),
            )
            .build()
            .unwrap();
        let caps = Dse::cap_pool(&[
            vecadd.clone(),
            gather.clone(),
            fir_small.clone(),
            fir_i64.clone(),
            fir_f64.clone(),
        ]);
        let lowered = |k, unroll| {
            lower(
                k,
                0,
                &LowerChoices {
                    unroll,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let (vecadd, gather) = (lowered(&vecadd, 1), lowered(&gather, 1));
        let (fir_small, fir_i64, fir_f64) = (
            lowered(&fir_small, 2),
            lowered(&fir_i64, 1),
            lowered(&fir_f64, 1),
        );
        let cases = [
            (MeshSpec::default(), vec![&vecadd, &gather, &fir_i64]),
            (
                MeshSpec::general(),
                vec![&vecadd, &gather, &fir_small, &fir_f64],
            ),
        ];
        let (mut compared, mut dirty_seen, mut rec_seen, mut evicted) = (0, 0, 0, 0);
        for (spec, mdfgs) in cases {
            let base = mesh(&spec);
            let seed_sys = SysAdg::new(base.clone(), SystemParams::default());
            for mdfg in mdfgs {
                let first = overgen::scheduler::schedule(mdfg, &seed_sys, None)
                    .unwrap_or_else(|e| panic!("{} schedules on its mesh: {e}", mdfg.name()));
                for preserving in [false, true] {
                    for seed in 0..8u64 {
                        let mut rng = Rng::seed_from_u64(0xD1A7 ^ seed);
                        let mut adg = base.clone();
                        let mut schedules = vec![first.clone()];
                        for step in 0..12u64 {
                            let mut ctx = TransformCtx {
                                cap_pool: &caps,
                                schedules: &mut schedules,
                                preserving,
                            };
                            RuleSet::legacy().apply_random(&mut adg, &mut ctx, &mut rng, step);
                            let sys = SysAdg::new(adg.clone(), SystemParams::default());
                            let prior = local(&schedules[0]);
                            let dense = dirty_set(&prior, mdfg, &HwIndex::new(&sys));
                            assert_eq!(
                                dense,
                                oracle::dirty_set(&prior, mdfg, &sys),
                                "{} on {spec:?}, preserving {preserving}, seed {seed}, step {step}",
                                mdfg.name()
                            );
                            compared += 1;
                            dirty_seen += usize::from(!dense.is_empty());
                            rec_seen += usize::from(
                                prior
                                    .stream_engines
                                    .values()
                                    .any(|e| sys.adg.kind(*e) == Some(NodeKind::Rec)),
                            );
                            evicted += usize::from(dense.iter().any(|m| {
                                matches!(mdfg.node(*m), Some(MdfgNode::Array(_)))
                                    && matches!(
                                        prior.assignment.get(m).and_then(|a| sys.adg.node(*a)),
                                        Some(AdgNode::Spad(_))
                                    )
                            }));
                        }
                    }
                }
            }
        }
        assert_eq!(compared, 1344, "every chain step compared");
        assert!(
            dirty_seen >= 200,
            "only {dirty_seen} dirty sets were non-empty"
        );
        assert!(
            rec_seen >= 300,
            "only {rec_seen} priors bound a recurrence engine"
        );
        assert!(
            evicted >= 20,
            "only {evicted} dirty sets evicted a scratchpad array"
        );
    }

    #[test]
    fn unrepairable_when_no_pe_left() {
        let (mdfg, mut sys, sched) = setup();
        for pe in sys.adg.nodes_of_kind(NodeKind::Pe) {
            sys.adg.remove_node(pe);
        }
        assert!(repair(&sched, &mdfg, &sys).is_err());
    }
}
