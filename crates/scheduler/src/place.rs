//! The placement + routing algorithm.

use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use overgen_adg::{Adg, AdgNode, NodeId, NodeKind, PeNode, SysAdg};
use overgen_mdfg::{Mdfg, MdfgNode, MdfgNodeId, MdfgNodeKind, MemPref, StreamPattern};
use overgen_model::{estimate_ipc, Placement};
use overgen_telemetry::{event, span};

use crate::adj::{spad_budgets, AdjBits};
use crate::types::{Schedule, ScheduleError};

/// What the placer and the repair classifier read from one hardware graph,
/// built once and shared by every placement and repair against it: an
/// evaluation schedules or repairs each workload of its domain on the same
/// proposal, so it builds one index instead of one per call.
pub struct HwIndex<'a> {
    sys: &'a SysAdg,
    /// Bitset adjacency + kind table for routing and route revalidation.
    adj: AdjBits,
    /// Per slot, the id of its first outgoing link: the links of slot `a`
    /// are `link_start[a]..link_start[a + 1]`, numbered in `adg.succs(a)`
    /// order, so every fabric link has one dense id below [`Self::links`].
    link_start: Vec<u32>,
    /// Per source slot: hop distances to every slot, filled on first use
    /// and shared by every placement against this index.
    dist: Vec<OnceCell<Vec<u32>>>,
    /// Summed scratchpad bandwidth (the §V-C model's on-chip bandwidth).
    spad_bw: f64,
    /// First generate engine in id order: every array-less stream's engine.
    gen: Option<NodeId>,
    /// First recurrence engine in id order: every recurrence stream's engine.
    rec: Option<NodeId>,
}

impl<'a> HwIndex<'a> {
    /// Index `sys`, which must not change while the index lives (the
    /// borrow enforces it).
    pub fn new(sys: &'a SysAdg) -> Self {
        let adg = &sys.adg;
        let first_of = |kind| {
            adg.nodes()
                .find(|(_, n)| n.kind() == kind)
                .map(|(id, _)| id)
        };
        let adj = AdjBits::new(adg);
        let slots = adj.slots();
        let mut link_start = Vec::with_capacity(slots + 1);
        let mut links = 0u32;
        for a in 0..slots {
            link_start.push(links);
            links += adg.succs(NodeId::from_index(a)).len() as u32;
        }
        link_start.push(links);
        HwIndex {
            sys,
            adj,
            link_start,
            dist: (0..slots).map(|_| OnceCell::new()).collect(),
            spad_bw: adg
                .nodes()
                .filter_map(|(_, n)| n.as_spad().map(|s| f64::from(s.bw_bytes)))
                .sum(),
            gen: first_of(NodeKind::Gen),
            rec: first_of(NodeKind::Rec),
        }
    }

    /// The indexed hardware.
    pub fn sys(&self) -> &'a SysAdg {
        self.sys
    }

    pub(crate) fn adj(&self) -> &AdjBits {
        &self.adj
    }

    /// Number of fabric links: every link id is below it.
    pub(crate) fn links(&self) -> usize {
        self.link_start.last().map_or(0, |&l| l as usize)
    }

    /// Id of the first outgoing link of `a`; its `j`-th successor in
    /// `adg.succs(a)` order is link `first_link(a) + j`.
    #[inline]
    pub(crate) fn first_link(&self, a: NodeId) -> usize {
        self.link_start[a.index()] as usize
    }

    /// Id of link `a -> b`, or `None` when there is no such link.
    #[inline]
    pub(crate) fn link(&self, a: NodeId, b: NodeId) -> Option<usize> {
        let j = self.sys.adg.succs(a).iter().position(|&s| s == b)?;
        Some(self.first_link(a) + j)
    }

    /// BFS hop distances from `from` through the fabric to every slot,
    /// filled on the first call per source. Only switches are traversed,
    /// but every node reached gets its distance; nodes never reached stay
    /// [`UNREACHED`].
    pub(crate) fn distances(&self, from: NodeId) -> &[u32] {
        self.dist[from.index()].get_or_init(|| {
            let mut dist = vec![UNREACHED; self.adj.slots()];
            dist[from.index()] = 0;
            let mut queue = VecDeque::from([from]);
            while let Some(cur) = queue.pop_front() {
                let d = dist[cur.index()] + 1;
                for &next in self.sys.adg.succs(cur) {
                    if dist[next.index()] != UNREACHED {
                        continue;
                    }
                    dist[next.index()] = d;
                    if self.adj.is_switch(next) {
                        queue.push_back(next);
                    }
                }
            }
            dist
        })
    }

    /// [`schedule`](crate::schedule) on the indexed hardware.
    ///
    /// # Errors
    ///
    /// As [`schedule`](crate::schedule).
    pub fn schedule(
        &self,
        mdfg: &Mdfg,
        prior: Option<&Schedule>,
    ) -> Result<Schedule, ScheduleError> {
        let _span = span!(
            "sched.place",
            mdfg = mdfg.name(),
            variant = mdfg.variant(),
            seeded = prior.is_some(),
        );
        let result = Placer::new(mdfg, self, prior).run();
        if let Err(e) = &result {
            event!(
                "sched.fail",
                mdfg = mdfg.name(),
                variant = mdfg.variant(),
                reason = format!("{e}"),
            );
        }
        result
    }

    /// Engine that produces/consumes a stream's data, given the engine
    /// each array was assigned to so far.
    pub(crate) fn engine_of_stream(
        &self,
        mdfg: &Mdfg,
        sid: MdfgNodeId,
        array_engine: impl FnOnce(MdfgNodeId) -> Option<NodeId>,
    ) -> Option<NodeId> {
        let s = mdfg.node(sid)?.as_stream()?;
        if s.array.is_empty() {
            return self.gen;
        }
        // Recurrence streams use the recurrence engine.
        if !s.is_write && is_rec_input(mdfg, sid) || s.is_write && feeds_rec_input(mdfg, sid) {
            return self.rec;
        }
        // Otherwise: the engine its array was assigned to.
        array_engine(array_of_stream(mdfg, sid)?)
    }
}

/// Maximum placement candidates tried per instruction before giving up.
const MAX_CANDIDATES: usize = 32;

/// Hop-distance table entry of a node the distance BFS never reaches.
const UNREACHED: u32 = u32::MAX;

/// Link-claim table entry of a link no value holds.
pub(crate) const FREE: u32 = u32::MAX;

/// Ordering cost a candidate pays per placed predecessor that cannot
/// reach it.
const UNREACHED_HOPS: usize = 1_000;

/// Schedule an mDFG onto a system ADG.
///
/// `prior` seeds placement: nodes whose previous hardware target is still
/// compatible are placed there first — and their previous routes are reused
/// verbatim when still valid — which keeps repairs cheap and stable.
///
/// # Errors
///
/// Returns a [`ScheduleError`] when any node cannot be placed or any edge
/// cannot be routed; the DSE interprets this as "variant does not fit".
pub fn schedule(
    mdfg: &Mdfg,
    sys_adg: &SysAdg,
    prior: Option<&Schedule>,
) -> Result<Schedule, ScheduleError> {
    HwIndex::new(sys_adg).schedule(mdfg, prior)
}

// ---- mDFG structure helpers (shared with repair classification) -----------

/// An input stream that only feeds other input streams is an index stream
/// consumed inside the engine (no fabric port).
pub(crate) fn is_index_stream(mdfg: &Mdfg, sid: MdfgNodeId) -> bool {
    let succs = mdfg.succs(sid);
    !succs.is_empty()
        && succs
            .iter()
            .all(|s| mdfg.node(*s).map(MdfgNode::kind) == Some(MdfgNodeKind::InputStream))
}

/// Recurrence input stream: fed by an output stream.
pub(crate) fn is_rec_input(mdfg: &Mdfg, sid: MdfgNodeId) -> bool {
    mdfg.preds(sid)
        .iter()
        .any(|p| mdfg.node(*p).map(MdfgNode::kind) == Some(MdfgNodeKind::OutputStream))
}

/// Output stream feeding a recurrence input stream.
pub(crate) fn feeds_rec_input(mdfg: &Mdfg, sid: MdfgNodeId) -> bool {
    mdfg.succs(sid)
        .iter()
        .any(|d| mdfg.node(*d).map(MdfgNode::kind) == Some(MdfgNodeKind::InputStream))
}

/// The array node a stream reads from / writes to.
pub(crate) fn array_of_stream(mdfg: &Mdfg, sid: MdfgNodeId) -> Option<MdfgNodeId> {
    let s = mdfg.node(sid)?.as_stream()?;
    if s.is_write {
        mdfg.succs(sid)
            .iter()
            .find(|d| mdfg.node(**d).map(MdfgNode::kind) == Some(MdfgNodeKind::Array))
            .copied()
    } else {
        mdfg.preds(sid)
            .iter()
            .find(|p| mdfg.node(**p).map(MdfgNode::kind) == Some(MdfgNodeKind::Array))
            .copied()
    }
}

/// Whether any stream of the array uses an indirect access pattern.
pub(crate) fn array_needs_indirect(mdfg: &Mdfg, aid: MdfgNodeId) -> bool {
    mdfg.succs(aid)
        .iter()
        .chain(mdfg.preds(aid).iter())
        .any(|sid| {
            mdfg.node(*sid)
                .and_then(MdfgNode::as_stream)
                .is_some_and(|s| s.pattern == StreamPattern::Indirect)
        })
}

// ---- scoring --------------------------------------------------------------

/// Score a complete mapping into a [`Schedule`].
///
/// This is the single scoring path: the placer calls it at the end of a full
/// placement and the repair fast path calls it on a verified prior mapping,
/// so both produce bit-identical estimates for the same mapping.
pub(crate) fn score_mapping(
    mdfg: &Mdfg,
    hw: &HwIndex<'_>,
    assignment: BTreeMap<MdfgNodeId, NodeId>,
    stream_engines: BTreeMap<MdfgNodeId, NodeId>,
    routes: BTreeMap<(MdfgNodeId, MdfgNodeId), Vec<NodeId>>,
) -> Schedule {
    let adg = &hw.sys.adg;
    // Pipeline balance: operand route-length mismatch beyond the PE's
    // delay FIFO creates bubbles (§V-B); port width shortfalls stretch
    // firings over multiple cycles.
    let mut penalty = 1.0f64;
    for (iid, n) in mdfg.nodes() {
        if n.kind() != MdfgNodeKind::Inst {
            continue;
        }
        let lens: Vec<usize> = mdfg
            .preds(iid)
            .iter()
            .filter_map(|p| routes.get(&(*p, iid)).map(Vec::len))
            .collect();
        if lens.len() >= 2 {
            let diff = lens.iter().max().unwrap() - lens.iter().min().unwrap();
            let depth = assignment
                .get(&iid)
                .and_then(|a| adg.node(*a))
                .and_then(AdgNode::as_pe)
                .map(|pe| usize::from(pe.delay_fifo_depth))
                .unwrap_or(0);
            if diff > depth {
                penalty *= 1.0 / (1.0 + 0.25 * (diff - depth) as f64);
            }
        }
    }
    for (sid, n) in mdfg.nodes() {
        if let Some(s) = n.as_stream() {
            if let Some(port) = assignment.get(&sid) {
                let width = match adg.node(*port) {
                    Some(AdgNode::InPort(p)) => u64::from(p.width_bytes),
                    Some(AdgNode::OutPort(p)) => u64::from(p.width_bytes),
                    _ => continue,
                };
                if width < s.bytes_per_firing {
                    penalty *= width as f64 / s.bytes_per_firing as f64;
                }
            }
        }
    }

    // Per-engine bandwidth: each engine issues one request per cycle,
    // so the summed steady-state demand of its streams must fit its
    // bandwidth; oversubscription stretches the firing interval.
    {
        let mut demand: BTreeMap<NodeId, (f64, f64)> = BTreeMap::new();
        for (sid, n) in mdfg.nodes() {
            if let Some(s) = n.as_stream() {
                if let Some(&engine) = stream_engines.get(&sid) {
                    // Classification and placement bind streams only to
                    // DMA, scratchpad, generate, recurrence or register
                    // engines, all of which declare a bandwidth.
                    let bw = adg.node(engine).and_then(AdgNode::engine_bw).unwrap_or_else(|| {
                        panic!(
                            "stream {sid} of kernel `{}` is bound to n{}, which is not an engine node",
                            mdfg.name(),
                            engine.index(),
                        )
                    });
                    demand.entry(engine).or_insert((f64::from(bw), 0.0)).1 +=
                        s.bytes_per_firing as f64 / s.reuse.stationary.max(1.0);
                }
            }
        }
        for (bw, d) in demand.into_values() {
            if d > bw {
                penalty *= bw / d;
            }
        }
    }

    // Scratchpad placement for the performance model.
    let mut placement = Placement::default();
    for (id, n) in mdfg.nodes() {
        if let MdfgNode::Array(a) = n {
            if let Some(engine) = assignment.get(&id) {
                if matches!(adg.node(*engine), Some(AdgNode::Spad(_))) {
                    placement.spad_arrays.insert(a.name.clone());
                }
            }
        }
    }
    let mut est = estimate_ipc(mdfg, &hw.sys.sys, hw.spad_bw, &placement);
    est.ipc *= penalty;
    est.per_tile_ipc *= penalty;

    Schedule {
        mdfg_name: mdfg.name().to_string(),
        variant: mdfg.variant(),
        assignment,
        stream_engines,
        routes,
        placement,
        est,
        balance_penalty: penalty,
    }
}

struct Placer<'a> {
    mdfg: &'a Mdfg,
    adg: &'a Adg,
    hw: &'a HwIndex<'a>,
    prior: Option<&'a Schedule>,
    /// Bitset adjacency + kind table for the routing hot loop.
    adj: &'a AdjBits,
    /// Every PE in id order: the candidate pool of each instruction.
    pes: Vec<(NodeId, &'a PeNode)>,
    assignment: BTreeMap<MdfgNodeId, NodeId>,
    routes: BTreeMap<(MdfgNodeId, MdfgNodeId), Vec<NodeId>>,
    stream_engines: BTreeMap<MdfgNodeId, NodeId>,
    /// Per slot: the PE already hosts an instruction.
    pe_used: Vec<bool>,
    port_used: BTreeSet<NodeId>,
    spad_left: BTreeMap<NodeId, i64>,
    /// Per link id: the index of the value source it carries, or [`FREE`]
    /// (fanout of one value shares its links).
    link_use: Vec<u32>,
    /// Routing BFS buffers, reused across calls: per slot, the
    /// predecessor on the search tree, valid where `seen` holds `epoch`.
    prev: Vec<NodeId>,
    seen: Vec<u32>,
    epoch: u32,
    queue: VecDeque<NodeId>,
    /// Placement candidates tried for instructions (telemetry).
    attempts: u64,
    /// Candidates abandoned after a routing failure (telemetry).
    backtracks: u64,
}

impl<'a> Placer<'a> {
    fn new(mdfg: &'a Mdfg, hw: &'a HwIndex<'a>, prior: Option<&'a Schedule>) -> Self {
        let adg = &hw.sys.adg;
        let adj = &hw.adj;
        let slots = adj.slots();
        Placer {
            mdfg,
            adg,
            hw,
            prior,
            adj,
            pes: adg
                .nodes()
                .filter_map(|(id, n)| n.as_pe().map(|pe| (id, pe)))
                .collect(),
            assignment: BTreeMap::new(),
            routes: BTreeMap::new(),
            stream_engines: BTreeMap::new(),
            pe_used: vec![false; slots],
            port_used: BTreeSet::new(),
            spad_left: spad_budgets(adg),
            link_use: vec![FREE; hw.links()],
            prev: vec![NodeId::from_index(0); slots],
            seen: vec![0; slots],
            epoch: 0,
            queue: VecDeque::new(),
            attempts: 0,
            backtracks: 0,
        }
    }

    fn prior_target(&self, node: MdfgNodeId) -> Option<NodeId> {
        self.prior
            .and_then(|p| p.assignment.get(&node).copied())
            .filter(|id| self.adg.contains(*id))
    }

    fn run(mut self) -> Result<Schedule, ScheduleError> {
        self.place_arrays()?;
        self.place_streams()?;
        self.place_insts_and_route()?;
        self.route_outputs()?;
        if let Some(c) = overgen_telemetry::current() {
            c.registry().counter("sched.attempts").add(self.attempts);
            c.registry()
                .counter("sched.backtracks")
                .add(self.backtracks);
        }
        event!(
            "sched.placed",
            mdfg = self.mdfg.name(),
            variant = self.mdfg.variant(),
            attempts = self.attempts,
            backtracks = self.backtracks,
        );
        Ok(self.finish())
    }

    // ---- arrays -> memory engines -------------------------------------

    fn place_arrays(&mut self) -> Result<(), ScheduleError> {
        // Gather array info: (benefit, id, size, pref, indirect, written).
        let mut arrays: Vec<(f64, MdfgNodeId)> = Vec::new();
        for (id, n) in self.mdfg.nodes() {
            if let MdfgNode::Array(_) = n {
                let benefit = self
                    .mdfg
                    .succs(id)
                    .iter()
                    .filter_map(|s| self.mdfg.node(*s).and_then(MdfgNode::as_stream))
                    .map(|s| s.reuse.scratchpad_benefit())
                    .fold(1.0f64, f64::max);
                arrays.push((benefit, id));
            }
        }
        // Highest scratchpad benefit first ("reuse information can help
        // determine which array node should be mapped to a scratchpad").
        arrays.sort_by(|a, b| b.0.total_cmp(&a.0));

        let dmas = self.adg.nodes_of_kind(NodeKind::Dma);
        for (_benefit, aid) in arrays {
            let (name, size, pref) = match self.mdfg.node(aid) {
                Some(MdfgNode::Array(a)) => (a.name.clone(), a.size_bytes, a.pref),
                _ => continue,
            };
            let needs_indirect = array_needs_indirect(self.mdfg, aid);

            // Prior target first.
            if let Some(t) = self.prior_target(aid) {
                if self.try_assign_array(aid, t, size, needs_indirect) {
                    continue;
                }
            }
            let mut placed = false;
            if pref != MemPref::PreferDram {
                // Least-loaded compatible scratchpad.
                let mut spads: Vec<NodeId> = self.spad_left.keys().copied().collect();
                spads.sort_by_key(|id| std::cmp::Reverse(self.spad_left[id]));
                for sp in spads {
                    if self.try_assign_array(aid, sp, size, needs_indirect) {
                        placed = true;
                        break;
                    }
                }
            }
            if !placed {
                for &dma in &dmas {
                    if self.try_assign_array(aid, dma, size, needs_indirect) {
                        placed = true;
                        break;
                    }
                }
            }
            if !placed {
                // Last resort: any scratchpad even for PreferDram arrays.
                let mut spads: Vec<NodeId> = self.spad_left.keys().copied().collect();
                spads.sort_by_key(|id| std::cmp::Reverse(self.spad_left[id]));
                for sp in spads {
                    if self.try_assign_array(aid, sp, size, needs_indirect) {
                        placed = true;
                        break;
                    }
                }
            }
            if !placed {
                return Err(ScheduleError::SpadCapacity { array: name });
            }
        }
        Ok(())
    }

    fn try_assign_array(
        &mut self,
        aid: MdfgNodeId,
        engine: NodeId,
        size: u64,
        needs_indirect: bool,
    ) -> bool {
        match self.adg.node(engine) {
            Some(AdgNode::Spad(sp)) => {
                if needs_indirect && !sp.indirect {
                    return false;
                }
                let left = self.spad_left.get_mut(&engine).expect("spad tracked");
                if *left < size as i64 {
                    return false;
                }
                *left -= size as i64;
                self.assignment.insert(aid, engine);
                true
            }
            Some(AdgNode::Dma(_)) => {
                // Indirect DMA requires reordering hardware; our DMA model
                // always includes the ROB (§VI-C), so indirect is fine.
                self.assignment.insert(aid, engine);
                true
            }
            _ => false,
        }
    }

    // ---- streams -> ports ----------------------------------------------

    fn place_streams(&mut self) -> Result<(), ScheduleError> {
        for (sid, n) in self.mdfg.nodes() {
            match n.kind() {
                MdfgNodeKind::InputStream => {
                    if is_index_stream(self.mdfg, sid) {
                        // Consumed inside the engine: bind to the engine of
                        // its own array (bandwidth accounted by the model).
                        let aid = array_of_stream(self.mdfg, sid).ok_or_else(|| {
                            ScheduleError::NoCandidate {
                                node: sid,
                                requirement: "index stream with an array".into(),
                            }
                        })?;
                        let engine = self.assignment.get(&aid).copied().ok_or(
                            ScheduleError::NoCandidate {
                                node: sid,
                                requirement: "engine for index array".into(),
                            },
                        )?;
                        self.assignment.insert(sid, engine);
                        self.stream_engines.insert(sid, engine);
                        continue;
                    }
                    let s = n.as_stream().expect("input stream");
                    let engine =
                        self.engine_of_stream(sid)
                            .ok_or_else(|| ScheduleError::NoCandidate {
                                node: sid,
                                requirement: format!(
                                    "a {} engine",
                                    if s.array.is_empty() {
                                        "generate"
                                    } else {
                                        "memory"
                                    }
                                ),
                            })?;
                    self.bind_in_port(sid, engine)?;
                }
                MdfgNodeKind::OutputStream => {
                    let engine =
                        self.engine_of_stream(sid)
                            .ok_or_else(|| ScheduleError::NoCandidate {
                                node: sid,
                                requirement: "a memory/recurrence engine".into(),
                            })?;
                    self.bind_out_port(sid, engine)?;
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn engine_of_stream(&self, sid: MdfgNodeId) -> Option<NodeId> {
        self.hw
            .engine_of_stream(self.mdfg, sid, |aid| self.assignment.get(&aid).copied())
    }

    fn bind_in_port(&mut self, sid: MdfgNodeId, engine: NodeId) -> Result<(), ScheduleError> {
        let s = self
            .mdfg
            .node(sid)
            .and_then(MdfgNode::as_stream)
            .expect("stream");
        let mut candidates: Vec<NodeId> = self
            .adg
            .succs(engine)
            .iter()
            .copied()
            .filter(|p| {
                !self.port_used.contains(p)
                    && match self.adg.node(*p) {
                        Some(AdgNode::InPort(ip)) => !s.variable_tc || ip.stream_state,
                        _ => false,
                    }
            })
            .collect();
        // Narrowest adequate port first (save wide ports for wide streams);
        // prior target takes precedence.
        candidates.sort_by_key(|p| match self.adg.node(*p) {
            Some(AdgNode::InPort(ip)) => {
                let w = u64::from(ip.width_bytes);
                let adequate = w >= s.bytes_per_firing;
                (!adequate as u64, if adequate { w } else { u64::MAX - w })
            }
            _ => (1, u64::MAX),
        });
        if let Some(t) = self.prior_target(sid) {
            if candidates.contains(&t) {
                candidates.retain(|c| *c != t);
                candidates.insert(0, t);
            }
        }
        let port = candidates
            .into_iter()
            .next()
            .ok_or_else(|| ScheduleError::NoCandidate {
                node: sid,
                requirement: "a free input port fed by the stream's engine".into(),
            })?;
        self.port_used.insert(port);
        self.assignment.insert(sid, port);
        self.stream_engines.insert(sid, engine);
        Ok(())
    }

    fn bind_out_port(&mut self, sid: MdfgNodeId, engine: NodeId) -> Result<(), ScheduleError> {
        let s = self
            .mdfg
            .node(sid)
            .and_then(MdfgNode::as_stream)
            .expect("stream");
        let mut candidates: Vec<NodeId> = self
            .adg
            .preds(engine)
            .iter()
            .copied()
            .filter(|p| {
                !self.port_used.contains(p)
                    && matches!(self.adg.node(*p), Some(AdgNode::OutPort(_)))
            })
            .collect();
        candidates.sort_by_key(|p| match self.adg.node(*p) {
            Some(AdgNode::OutPort(op)) => {
                let w = u64::from(op.width_bytes);
                let adequate = w >= s.bytes_per_firing;
                (!adequate as u64, if adequate { w } else { u64::MAX - w })
            }
            _ => (1, u64::MAX),
        });
        if let Some(t) = self.prior_target(sid) {
            if candidates.contains(&t) {
                candidates.retain(|c| *c != t);
                candidates.insert(0, t);
            }
        }
        let port = candidates
            .into_iter()
            .next()
            .ok_or_else(|| ScheduleError::NoCandidate {
                node: sid,
                requirement: "a free output port draining to the stream's engine".into(),
            })?;
        self.port_used.insert(port);
        self.assignment.insert(sid, port);
        self.stream_engines.insert(sid, engine);
        Ok(())
    }

    // ---- instructions -> PEs, with routing ------------------------------

    fn place_insts_and_route(&mut self) -> Result<(), ScheduleError> {
        // Topological order over instruction nodes.
        let insts = self.topo_insts();
        for iid in insts {
            let inst = self
                .mdfg
                .node(iid)
                .and_then(MdfgNode::as_inst)
                .copied()
                .expect("inst");
            // Fabric predecessors already placed (streams or earlier insts).
            let placed_preds: Vec<(MdfgNodeId, NodeId)> = self
                .mdfg
                .preds(iid)
                .iter()
                .filter_map(|p| self.assignment.get(p).map(|a| (*p, *a)))
                .collect();

            // Fast path: try the prior target before enumerating and
            // distance-sorting candidates. During repair most instructions
            // keep their PE and reuse their routes, so the whole candidate
            // machinery below only runs for the dirty region.
            let mut placed = false;
            let mut tried_prior: Option<NodeId> = None;
            if let Some(t) = self.prior_target(iid) {
                let free_and_compatible = !self.pe_used[t.index()]
                    && self
                        .adg
                        .node(t)
                        .and_then(AdgNode::as_pe)
                        .is_some_and(|pe| pe.supports(inst.op, inst.dtype));
                if free_and_compatible {
                    tried_prior = Some(t);
                    placed = self.try_place_inst_at(iid, t, &placed_preds);
                }
            }

            if !placed {
                // Free compatible PEs in id order, keyed by closeness to
                // the placed predecessors: each key is summed once, and the
                // stable sort keeps id order on ties.
                let tables: Vec<&[u32]> = placed_preds
                    .iter()
                    .map(|(_, a)| self.hw.distances(*a))
                    .collect();
                let mut keyed: Vec<(usize, NodeId)> = self
                    .pes
                    .iter()
                    .filter(|(c, pe)| !self.pe_used[c.index()] && pe.supports(inst.op, inst.dtype))
                    .map(|(c, _)| {
                        let key = tables
                            .iter()
                            .map(|t| match t[c.index()] {
                                UNREACHED => UNREACHED_HOPS,
                                d => d as usize,
                            })
                            .sum();
                        (key, *c)
                    })
                    .collect();
                if keyed.is_empty() && tried_prior.is_none() {
                    return Err(ScheduleError::NoCandidate {
                        node: iid,
                        requirement: format!("a free PE with {}.{}", inst.op, inst.dtype),
                    });
                }
                keyed.sort_by_key(|(key, _)| *key);
                let budget = MAX_CANDIDATES - usize::from(tried_prior.is_some());
                for cand in keyed
                    .into_iter()
                    .map(|(_, c)| c)
                    .filter(|c| Some(*c) != tried_prior)
                    .take(budget)
                {
                    if self.try_place_inst_at(iid, cand, &placed_preds) {
                        placed = true;
                        break;
                    }
                }
            }
            if !placed {
                return Err(ScheduleError::NoRoute {
                    edge: (placed_preds.first().map(|(p, _)| *p).unwrap_or(iid), iid),
                });
            }
        }
        Ok(())
    }

    /// Try one PE candidate for an instruction: route all placed-pred edges
    /// to it, committing as we go; on failure undo exactly the links and
    /// routes this attempt claimed (no snapshot of the whole link table).
    fn try_place_inst_at(
        &mut self,
        iid: MdfgNodeId,
        cand: NodeId,
        placed_preds: &[(MdfgNodeId, NodeId)],
    ) -> bool {
        self.attempts += 1;
        let mut committed: Vec<(MdfgNodeId, MdfgNodeId)> = Vec::new();
        let mut claimed: Vec<usize> = Vec::new();
        for (pid, padg) in placed_preds {
            // Commit each pred route immediately so later preds see the
            // links it claimed.
            let path = self
                .reusable_prior_route((*pid, iid), *pid, *padg, cand)
                .or_else(|| self.route(*pid, *padg, cand));
            match path {
                Some(path) => {
                    self.commit_route((*pid, iid), path, &mut claimed);
                    committed.push((*pid, iid));
                }
                None => {
                    self.backtracks += 1;
                    for link in claimed {
                        self.link_use[link] = FREE;
                    }
                    for edge in committed {
                        self.routes.remove(&edge);
                    }
                    return false;
                }
            }
        }
        self.pe_used[cand.index()] = true;
        self.assignment.insert(iid, cand);
        true
    }

    fn topo_insts(&self) -> Vec<MdfgNodeId> {
        let mut indeg: BTreeMap<MdfgNodeId, usize> = BTreeMap::new();
        for (id, n) in self.mdfg.nodes() {
            if n.kind() == MdfgNodeKind::Inst {
                let d = self
                    .mdfg
                    .preds(id)
                    .iter()
                    .filter(|p| self.mdfg.node(**p).map(MdfgNode::kind) == Some(MdfgNodeKind::Inst))
                    .count();
                indeg.insert(id, d);
            }
        }
        let mut queue: VecDeque<MdfgNodeId> = indeg
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(id, _)| *id)
            .collect();
        let mut out = Vec::new();
        while let Some(id) = queue.pop_front() {
            out.push(id);
            for &s in self.mdfg.succs(id) {
                if let Some(d) = indeg.get_mut(&s) {
                    *d -= 1;
                    if *d == 0 {
                        queue.push_back(s);
                    }
                }
            }
        }
        out
    }

    /// Route all remaining edges into output streams (and stream-to-stream
    /// copies).
    fn route_outputs(&mut self) -> Result<(), ScheduleError> {
        let edges: Vec<(MdfgNodeId, MdfgNodeId)> = self.mdfg.edges().collect();
        for (src, dst) in edges {
            if self.routes.contains_key(&(src, dst)) {
                continue;
            }
            let (sk, dk) = (
                self.mdfg.node(src).map(MdfgNode::kind),
                self.mdfg.node(dst).map(MdfgNode::kind),
            );
            let needs_route = matches!(
                (sk, dk),
                (Some(MdfgNodeKind::Inst), Some(MdfgNodeKind::OutputStream))
                    | (
                        Some(MdfgNodeKind::InputStream),
                        Some(MdfgNodeKind::OutputStream)
                    )
            );
            if !needs_route {
                continue;
            }
            let (sa, da) = match (self.assignment.get(&src), self.assignment.get(&dst)) {
                (Some(a), Some(b)) => (*a, *b),
                _ => continue,
            };
            let path = self
                .reusable_prior_route((src, dst), src, sa, da)
                .or_else(|| self.route(src, sa, da));
            match path {
                Some(path) => self.commit_route((src, dst), path, &mut Vec::new()),
                None => return Err(ScheduleError::NoRoute { edge: (src, dst) }),
            }
        }
        Ok(())
    }

    // ---- routing ---------------------------------------------------------

    /// Reuse the prior schedule's route for `edge` if it still runs from
    /// `from` to `to` over existing links, traverses only switches, and does
    /// not conflict with links already claimed by a different value. Skips
    /// the BFS entirely for the (common) untouched region during repair.
    fn reusable_prior_route(
        &self,
        edge: (MdfgNodeId, MdfgNodeId),
        value: MdfgNodeId,
        from: NodeId,
        to: NodeId,
    ) -> Option<Vec<NodeId>> {
        let path = self.prior?.routes.get(&edge)?;
        if path.first() != Some(&from) || path.last() != Some(&to) {
            return None;
        }
        let last = path.len() - 1;
        let value = value.index() as u32;
        for (i, w) in path.windows(2).enumerate() {
            if !self.adj.has_edge(w[0], w[1]) {
                return None;
            }
            // Interior hops must still be switches.
            if i + 1 < last && !self.adj.is_switch(w[1]) {
                return None;
            }
            if self.adj.exclusive_link(w[0], w[1]) {
                let link = self
                    .hw
                    .link(w[0], w[1])
                    .expect("an existing link has an id");
                if !self.free_for(link, value) {
                    return None;
                }
            }
        }
        Some(path.clone())
    }

    /// Whether `link` is free or already carries `value` (a value index).
    #[inline]
    fn free_for(&self, link: usize, value: u32) -> bool {
        let v = self.link_use[link];
        v == FREE || v == value
    }

    /// Directed BFS from `from` to `to` through switches, honouring the
    /// one-value-per-link constraint (fanout of `value` may share links).
    fn route(&mut self, value: MdfgNodeId, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        if from == to {
            return Some(vec![from]);
        }
        let value = value.index() as u32;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        self.seen[from.index()] = epoch;
        self.queue.clear();
        self.queue.push_back(from);
        while let Some(cur) = self.queue.pop_front() {
            let first = self.hw.first_link(cur);
            for (j, &next) in self.adg.succs(cur).iter().enumerate() {
                if self.seen[next.index()] == epoch {
                    continue;
                }
                // Only switch-to-switch links are exclusive per value. Links
                // touching a port are wide (multi-lane) and links into a PE
                // are its operand slots — both carry several values.
                if self.adj.exclusive_link(cur, next) && !self.free_for(first + j, value) {
                    continue;
                }
                // Only switches may be traversed; the destination itself
                // may be any fabric node or port.
                let is_dst = next == to;
                if !is_dst && !self.adj.is_switch(next) {
                    continue;
                }
                self.seen[next.index()] = epoch;
                self.prev[next.index()] = cur;
                if is_dst {
                    let mut path = vec![to];
                    let mut c = to;
                    while c != from {
                        c = self.prev[c.index()];
                        path.push(c);
                    }
                    path.reverse();
                    return Some(path);
                }
                self.queue.push_back(next);
            }
        }
        None
    }

    /// Route `edge` along `path`, claiming its exclusive links for the
    /// edge's value. Every link this commit *newly* claimed is pushed onto
    /// `claimed`, so a failed candidate can undo precisely those claims;
    /// links already carried by the same value (fanout sharing) stay put.
    fn commit_route(
        &mut self,
        edge: (MdfgNodeId, MdfgNodeId),
        path: Vec<NodeId>,
        claimed: &mut Vec<usize>,
    ) {
        for w in path.windows(2) {
            if self.adj.exclusive_link(w[0], w[1]) {
                let link = self
                    .hw
                    .link(w[0], w[1])
                    .expect("an existing link has an id");
                if self.link_use[link] == FREE {
                    claimed.push(link);
                }
                self.link_use[link] = edge.0.index() as u32;
            }
        }
        self.routes.insert(edge, path);
    }

    // ---- scoring -----------------------------------------------------------

    fn finish(self) -> Schedule {
        score_mapping(
            self.mdfg,
            self.hw,
            self.assignment,
            self.stream_engines,
            self.routes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overgen_adg::{mesh, MeshSpec, SystemParams};
    use overgen_compiler::{lower, LowerChoices};
    use overgen_ir::{expr, DataType, KernelBuilder, Suite};

    fn sys(spec: &MeshSpec) -> SysAdg {
        SysAdg::new(mesh(spec), SystemParams::default())
    }

    fn vecadd(n: u64) -> overgen_ir::Kernel {
        KernelBuilder::new("vecadd", Suite::Dsp, DataType::I64)
            .array_input("a", n)
            .array_input("b", n)
            .array_output("c", n)
            .loop_const("i", n)
            .assign(
                "c",
                expr::idx("i"),
                expr::load("a", expr::idx("i")) + expr::load("b", expr::idx("i")),
            )
            .build()
            .unwrap()
    }

    fn fir() -> overgen_ir::Kernel {
        KernelBuilder::new("fir", Suite::Dsp, DataType::F64)
            .array_input("a", 255)
            .array_input("b", 128)
            .array_output("c", 128)
            .loop_const("io", 4)
            .loop_const("j", 128)
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
    }

    #[test]
    fn schedules_vecadd_on_tiny_mesh() {
        let mdfg = lower(
            &vecadd(64),
            0,
            &LowerChoices {
                unroll: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let s = sys(&MeshSpec::default());
        let sched = schedule(&mdfg, &s, None).unwrap();
        // every mdfg node is assigned
        assert_eq!(sched.assignment.len(), mdfg.node_count());
        assert!(sched.est.ipc > 0.0);
        assert!(sched.balance_penalty > 0.0 && sched.balance_penalty <= 1.0);
    }

    #[test]
    fn dedicated_pes_are_not_shared() {
        let mdfg = lower(
            &vecadd(64),
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let s = sys(&MeshSpec::default());
        let sched = schedule(&mdfg, &s, None).unwrap();
        let mut pes = Vec::new();
        for (mid, aid) in &sched.assignment {
            if mdfg.node(*mid).unwrap().kind() == MdfgNodeKind::Inst {
                pes.push(*aid);
            }
        }
        let uniq: BTreeSet<_> = pes.iter().collect();
        assert_eq!(uniq.len(), pes.len());
    }

    #[test]
    fn fir_maps_with_recurrence_on_general() {
        let mdfg = lower(
            &fir(),
            0,
            &LowerChoices {
                unroll: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let s = sys(&MeshSpec::general());
        let sched = schedule(&mdfg, &s, None).unwrap();
        // the high-reuse array `a` lands in a scratchpad
        assert!(sched.placement.spad_arrays.contains("a"));
    }

    #[test]
    fn unsupported_op_fails_cleanly() {
        // Tiny mesh supports only add/sub/mul on i64; ask for f64 mul.
        let k = KernelBuilder::new("fmul", Suite::Dsp, DataType::F64)
            .array_input("a", 64)
            .array_output("c", 64)
            .loop_const("i", 64)
            .assign(
                "c",
                expr::idx("i"),
                expr::load("a", expr::idx("i")) * expr::lit(2.0),
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
        let err = schedule(&mdfg, &sys(&MeshSpec::default()), None).unwrap_err();
        assert!(matches!(err, ScheduleError::NoCandidate { .. }));
    }

    #[test]
    fn oversized_variant_fails_small_fabric() {
        // unroll 16 on a 4-PE mesh: 16 adds cannot fit 4 PEs.
        let mdfg = lower(
            &vecadd(64),
            0,
            &LowerChoices {
                unroll: 16,
                ..Default::default()
            },
        )
        .unwrap();
        let err = schedule(&mdfg, &sys(&MeshSpec::default()), None).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::NoCandidate { .. } | ScheduleError::NoRoute { .. }
        ));
    }

    #[test]
    fn routes_are_contiguous_paths() {
        let mdfg = lower(
            &vecadd(64),
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let s = sys(&MeshSpec::default());
        let sched = schedule(&mdfg, &s, None).unwrap();
        for ((src, dst), path) in &sched.routes {
            assert_eq!(sched.assignment[src], path[0]);
            assert_eq!(sched.assignment[dst], *path.last().unwrap());
            for w in path.windows(2) {
                assert!(s.adg.has_edge(w[0], w[1]), "route uses missing edge");
            }
        }
    }

    #[test]
    fn link_exclusivity_except_fanout() {
        let mdfg = lower(
            &fir(),
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let s = sys(&MeshSpec::general());
        let sched = schedule(&mdfg, &s, None).unwrap();
        let adj = AdjBits::new(&s.adg);
        // map link -> set of value sources using it
        let mut link_vals: BTreeMap<(NodeId, NodeId), BTreeSet<MdfgNodeId>> = BTreeMap::new();
        for ((src, _), path) in &sched.routes {
            for w in path.windows(2) {
                if adj.exclusive_link(w[0], w[1]) {
                    link_vals.entry((w[0], w[1])).or_default().insert(*src);
                }
            }
        }
        for (_, vals) in link_vals {
            assert_eq!(vals.len(), 1, "link carries two different values");
        }
    }

    #[test]
    fn prior_assignment_is_honoured() {
        let mdfg = lower(
            &vecadd(64),
            0,
            &LowerChoices {
                unroll: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let s = sys(&MeshSpec::default());
        let first = schedule(&mdfg, &s, None).unwrap();
        let second = schedule(&mdfg, &s, Some(&first)).unwrap();
        assert_eq!(first.assignment, second.assignment);
    }

    #[test]
    fn seeded_reschedule_reuses_prior_routes() {
        let mdfg = lower(
            &fir(),
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let s = sys(&MeshSpec::general());
        let first = schedule(&mdfg, &s, None).unwrap();
        let second = schedule(&mdfg, &s, Some(&first)).unwrap();
        assert_eq!(first.routes, second.routes);
        assert_eq!(first, second);
    }

    /// Repair verification mode places under a counting collector whose
    /// registry it drops: the placement is the traced one, and nothing
    /// reaches the caller's trace or registry.
    #[test]
    fn quiet_placement_matches_loud_placement() {
        let mdfg = lower(
            &vecadd(64),
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let s = sys(&MeshSpec::default());
        let loud = schedule(&mdfg, &s, None).unwrap();
        let (c, ring) = overgen_telemetry::Collector::ring(64);
        let _install = overgen_telemetry::install(c.clone());
        let (silent, counted) =
            overgen_telemetry::count_isolated(|| HwIndex::new(&s).schedule(&mdfg, None));
        assert_eq!(loud, silent.unwrap());
        assert!(counted.counter_value("sched.attempts") > 0);
        assert_eq!(ring.len(), 0, "the quiet placement emitted an event");
        assert!(
            c.registry().export().is_empty(),
            "the quiet placement counted"
        );
    }

    #[test]
    #[should_panic(expected = "of kernel `vecadd` is bound to n")]
    fn scoring_a_stream_bound_to_a_pe_panics() {
        let mdfg = lower(
            &vecadd(64),
            0,
            &LowerChoices {
                unroll: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let s = sys(&MeshSpec::default());
        let sched = schedule(&mdfg, &s, None).unwrap();
        let pe = s.adg.nodes_of_kind(NodeKind::Pe)[0];
        let mut engines = sched.stream_engines.clone();
        *engines.values_mut().next().expect("vecadd has streams") = pe;
        score_mapping(
            &mdfg,
            &HwIndex::new(&s),
            sched.assignment,
            engines,
            sched.routes,
        );
    }

    #[test]
    fn indirect_array_requires_indirect_spad_or_dma() {
        let k = KernelBuilder::new("gather", Suite::MachSuite, DataType::I64)
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
        let mdfg = lower(
            &k,
            0,
            &LowerChoices {
                unroll: 1,
                ..Default::default()
            },
        )
        .unwrap();
        // tiny mesh spad has indirect = false -> val must land on the DMA
        let s = sys(&MeshSpec::default());
        let sched = schedule(&mdfg, &s, None).unwrap();
        assert!(!sched.placement.spad_arrays.contains("val"));
    }

    /// The general mesh with a switch, a PE and a port deleted: the id
    /// space has holes, and the victims' links are gone.
    fn holed_general() -> SysAdg {
        let mut adg = mesh(&MeshSpec::general());
        for kind in [NodeKind::Switch, NodeKind::Pe, NodeKind::InPort] {
            let victim = adg.nodes_of_kind(kind)[1];
            adg.remove_node(victim);
        }
        SysAdg::new(adg, SystemParams::default())
    }

    #[test]
    fn link_ids_are_dense_and_cover_every_edge_once() {
        let s = holed_general();
        let hw = HwIndex::new(&s);
        let mut ids: Vec<usize> = s
            .adg
            .edges()
            .map(|(a, b)| hw.link(a, b).expect("every edge has a link id"))
            .collect();
        assert_eq!(ids.len(), s.adg.edge_count());
        assert_eq!(hw.links(), s.adg.edge_count());
        ids.sort_unstable();
        assert!(
            ids.iter().copied().eq(0..hw.links()),
            "ids are not 0..links"
        );
        let nodes: Vec<NodeId> = (0..hw.adj().slots() + 2).map(NodeId::from_index).collect();
        for &a in &nodes {
            for &b in &nodes {
                assert_eq!(
                    hw.link(a, b).is_some(),
                    s.adg.has_edge(a, b),
                    "{a:?} -> {b:?}"
                );
            }
        }
    }

    #[test]
    fn memoized_distances_equal_a_fresh_bfs_from_every_source() {
        for s in [sys(&MeshSpec::default()), holed_general()] {
            let hw = HwIndex::new(&s);
            let slots = hw.adj().slots();
            for (from, _) in s.adg.nodes() {
                let mut want = vec![UNREACHED; slots];
                want[from.index()] = 0;
                let mut frontier = vec![from];
                let mut hops = 0;
                while !frontier.is_empty() {
                    hops += 1;
                    let mut next = Vec::new();
                    for cur in frontier {
                        for &n in s.adg.succs(cur) {
                            if want[n.index()] == UNREACHED {
                                want[n.index()] = hops;
                                if s.adg.kind(n) == Some(NodeKind::Switch) {
                                    next.push(n);
                                }
                            }
                        }
                    }
                    frontier = next;
                }
                assert_eq!(hw.distances(from), want.as_slice(), "from {from:?}");
                // A second call answers from the memo.
                assert!(std::ptr::eq(hw.distances(from), hw.distances(from)));
            }
        }
    }

    #[test]
    fn used_nodes_and_edges_cover_routes() {
        let mdfg = lower(
            &vecadd(64),
            0,
            &LowerChoices {
                unroll: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let s = sys(&MeshSpec::default());
        let sched = schedule(&mdfg, &s, None).unwrap();
        let nodes = sched.used_adg_nodes();
        for path in sched.routes.values() {
            for n in path {
                assert!(nodes.contains(n));
            }
        }
        assert!(!sched.used_adg_edges().is_empty());
    }
}
