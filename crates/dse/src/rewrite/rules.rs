//! The 14 legacy ADG mutations, ported onto the [`Rule`] trait.
//!
//! Each rule body is the legacy hand-rolled mutation with reads going
//! through [`RecordedAdg::graph`] and writes through the recording
//! wrappers, so its delta — and therefore its inferred footprint — falls
//! out mechanically. **The RNG draw sequence of every rule is
//! bit-identical to the legacy function**: same draws, same order, same
//! skipped draws on degenerate paths. That identity is what keeps
//! default-config DSE results and traces byte-identical to the
//! pre-rewrite goldens (`tests/rewrite_equivalence.rs` pins them).
//!
//! Attribute rules call [`RecordedAdg::touch_attr`] on exactly the paths
//! the legacy table classified as [`ScheduleFootprint::Attribute`], so
//! inference reproduces the hand class instead of merely dominating it.

use overgen_adg::{AdgNode, InPortNode, NodeId, NodeKind, OutPortNode, PeNode, SwitchNode};
use overgen_ir::FuCap;
use overgen_scheduler::{Schedule, ScheduleFootprint};
use overgen_telemetry::Rng;

use super::delta::RecordedAdg;
use super::infer::{footprint_of, removal_footprint, used_edges, used_nodes, NodeFlags};
use super::{Mutation, Rule, RuleOutcome, TransformCtx};

fn pick<T: Copy>(v: &[T], rng: &mut Rng) -> Option<T> {
    if v.is_empty() {
        None
    } else {
        Some(v[rng.gen_range(0..v.len())])
    }
}

/// Order key: cheaper capabilities first.
pub(crate) fn cheapness(c: &FuCap) -> (u8, u32) {
    let class = match c.op.class() {
        overgen_ir::OpClass::Logic => 0,
        overgen_ir::OpClass::AddLike => 1,
        overgen_ir::OpClass::MulLike => 2,
        overgen_ir::OpClass::DivLike => 3,
    };
    (class, c.dtype.bits())
}

fn noop() -> RuleOutcome {
    RuleOutcome {
        mutation: Mutation::Noop,
        hand: ScheduleFootprint::Pure,
    }
}

fn out(mutation: Mutation, hand: ScheduleFootprint) -> RuleOutcome {
    RuleOutcome { mutation, hand }
}

/// Add a PE with 1–4 pool capabilities between two random switches.
pub(crate) struct AddPeRule;

impl Rule for AddPeRule {
    fn name(&self) -> &'static str {
        "add_pe"
    }

    fn apply(
        &self,
        r: &mut RecordedAdg<'_>,
        ctx: &mut TransformCtx<'_>,
        rng: &mut Rng,
    ) -> RuleOutcome {
        let switches = r.graph().nodes_of_kind(NodeKind::Switch);
        let (Some(sin), Some(sout)) = (pick(&switches, rng), pick(&switches, rng)) else {
            return noop();
        };
        // Sample 1-4 capabilities from the pool.
        let n = rng.gen_range(1..=4usize.min(ctx.cap_pool.len().max(1)));
        let caps: Vec<FuCap> = (0..n).filter_map(|_| pick(ctx.cap_pool, rng)).collect();
        if caps.is_empty() {
            return noop();
        }
        let pe = r.add_node(AdgNode::Pe(PeNode::with_caps(caps)));
        let _ = r.add_edge(sin, pe);
        let _ = r.add_edge(pe, sout);
        out(Mutation::AddPe, ScheduleFootprint::Additive)
    }
}

/// Remove a (preserving: unused) PE, keeping at least one.
pub(crate) struct RemovePeRule;

impl Rule for RemovePeRule {
    fn name(&self) -> &'static str {
        "remove_pe"
    }

    fn apply(
        &self,
        r: &mut RecordedAdg<'_>,
        ctx: &mut TransformCtx<'_>,
        rng: &mut Rng,
    ) -> RuleOutcome {
        let used = used_nodes(ctx.schedules);
        let mut pes = r.graph().nodes_of_kind(NodeKind::Pe);
        if ctx.preserving {
            pes.retain(|p| !used.contains(*p));
        }
        if pes.len() <= 1 {
            return noop();
        }
        let Some(victim) = pick(&pes, rng) else {
            return noop();
        };
        let fp = removal_footprint(&used, victim);
        r.remove_node(victim);
        out(Mutation::RemovePe, fp)
    }
}

/// Split a switch-to-switch edge with a new switch (keeps the original
/// edge for extra routing flexibility).
pub(crate) struct AddSwitchRule;

impl Rule for AddSwitchRule {
    fn name(&self) -> &'static str {
        "add_switch"
    }

    fn apply(
        &self,
        r: &mut RecordedAdg<'_>,
        _ctx: &mut TransformCtx<'_>,
        rng: &mut Rng,
    ) -> RuleOutcome {
        let edges: Vec<(NodeId, NodeId)> = r
            .graph()
            .edges()
            .filter(|(a, b)| {
                r.graph().kind(*a) == Some(NodeKind::Switch)
                    && r.graph().kind(*b) == Some(NodeKind::Switch)
            })
            .collect();
        let Some((a, b)) = pick(&edges, rng) else {
            return noop();
        };
        let sw = r.add_node(AdgNode::Switch(SwitchNode {}));
        let _ = r.add_edge(a, sw);
        let _ = r.add_edge(sw, b);
        out(Mutation::AddSwitch, ScheduleFootprint::Additive)
    }
}

/// Remove a switch; when preserving, collapse it so routes through it are
/// patched in place (§V-B node collapsing).
pub(crate) struct RemoveSwitchRule;

impl Rule for RemoveSwitchRule {
    fn name(&self) -> &'static str {
        "remove_switch"
    }

    fn apply(
        &self,
        r: &mut RecordedAdg<'_>,
        ctx: &mut TransformCtx<'_>,
        rng: &mut Rng,
    ) -> RuleOutcome {
        let switches = r.graph().nodes_of_kind(NodeKind::Switch);
        if switches.len() <= 2 {
            return noop();
        }
        let Some(victim) = pick(&switches, rng) else {
            return noop();
        };
        if ctx.preserving {
            // A collapse patches every route through the victim in place,
            // so even a *used* switch removal preserves the live schedules.
            let m = collapse_recorded(r, ctx.schedules, victim);
            let hand = footprint_of(&m, ScheduleFootprint::RemoveUnused);
            out(m, hand)
        } else {
            let fp = removal_footprint(&used_nodes(ctx.schedules), victim);
            r.remove_node(victim);
            out(Mutation::RemoveSwitch, fp)
        }
    }
}

/// Node collapsing (§V-B, Figure 7a): delete a routing node and add direct
/// edges for every schedule route that passed through it, rewriting those
/// routes. Edge-delay preservation (Figure 7b) bumps the delay-FIFO depth
/// of destination PEs whose operand paths shortened.
fn collapse_recorded(
    r: &mut RecordedAdg<'_>,
    schedules: &mut [Schedule],
    victim: NodeId,
) -> Mutation {
    if r.graph().kind(victim) != Some(NodeKind::Switch) {
        return Mutation::Noop;
    }
    // Collect (prev, next) pairs of routes through the victim.
    let mut bridges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut shortened_dsts: Vec<NodeId> = Vec::new();
    for sched in schedules.iter_mut() {
        for path in sched.routes.values_mut() {
            while let Some(pos) = path.iter().position(|n| *n == victim) {
                if pos == 0 || pos + 1 >= path.len() {
                    // victim at an end: route is broken beyond repair here
                    // (cannot happen for switches, which are interior).
                    break;
                }
                let prev = path[pos - 1];
                let next = path[pos + 1];
                bridges.push((prev, next));
                path.remove(pos);
                if let Some(dst) = path.last().copied() {
                    shortened_dsts.push(dst);
                }
            }
        }
    }
    r.remove_node(victim);
    for (a, b) in bridges {
        // Direct hardware connection preserving the route (ignore
        // duplicates).
        let _ = r.add_edge(a, b);
    }
    // Edge-delay preservation: operand paths into these PEs shortened by
    // one hop; grow their delay FIFOs so balance is maintained.
    for dst in shortened_dsts {
        let grew = if let Some(pe) = r.node_mut(dst).and_then(AdgNode::as_pe_mut) {
            pe.delay_fifo_depth = pe.delay_fifo_depth.saturating_add(1).min(16);
            true
        } else {
            false
        };
        if grew {
            r.touch_attr(dst);
        }
    }
    Mutation::RemoveSwitch
}

/// Add a random legal fabric edge (up to 8 attempts).
pub(crate) struct AddEdgeRule;

impl Rule for AddEdgeRule {
    fn name(&self) -> &'static str {
        "add_edge"
    }

    fn apply(
        &self,
        r: &mut RecordedAdg<'_>,
        _ctx: &mut TransformCtx<'_>,
        rng: &mut Rng,
    ) -> RuleOutcome {
        let fabric: Vec<NodeId> = r
            .graph()
            .nodes()
            .filter(|(_, n)| n.kind().is_fabric())
            .map(|(id, _)| id)
            .collect();
        for _ in 0..8 {
            let (Some(a), Some(b)) = (pick(&fabric, rng), pick(&fabric, rng)) else {
                return noop();
            };
            if a != b && r.add_edge(a, b).is_ok() {
                return out(Mutation::AddEdge, ScheduleFootprint::Additive);
            }
        }
        noop()
    }
}

/// Remove a (preserving: unused) switch-to-switch edge.
pub(crate) struct RemoveEdgeRule;

impl Rule for RemoveEdgeRule {
    fn name(&self) -> &'static str {
        "remove_edge"
    }

    fn apply(
        &self,
        r: &mut RecordedAdg<'_>,
        ctx: &mut TransformCtx<'_>,
        rng: &mut Rng,
    ) -> RuleOutcome {
        let mut edges: Vec<(NodeId, NodeId)> = r
            .graph()
            .edges()
            .filter(|(a, b)| {
                r.graph().kind(*a) == Some(NodeKind::Switch)
                    && r.graph().kind(*b) == Some(NodeKind::Switch)
            })
            .collect();
        let used = used_edges(ctx.schedules);
        if ctx.preserving {
            edges.retain(|e| !used.contains(*e));
        }
        let Some((a, b)) = pick(&edges, rng) else {
            return noop();
        };
        let fp = if used.contains((a, b)) {
            ScheduleFootprint::Structural
        } else {
            ScheduleFootprint::RemoveUnused
        };
        r.remove_edge(a, b);
        out(Mutation::RemoveEdge, fp)
    }
}

/// Add a pool capability to a random PE.
pub(crate) struct AddCapRule;

impl Rule for AddCapRule {
    fn name(&self) -> &'static str {
        "add_cap"
    }

    fn apply(
        &self,
        r: &mut RecordedAdg<'_>,
        ctx: &mut TransformCtx<'_>,
        rng: &mut Rng,
    ) -> RuleOutcome {
        let pes = r.graph().nodes_of_kind(NodeKind::Pe);
        let (Some(pe), Some(cap)) = (pick(&pes, rng), pick(ctx.cap_pool, rng)) else {
            return noop();
        };
        let inserted = if let Some(p) = r.node_mut(pe).and_then(AdgNode::as_pe_mut) {
            p.caps.insert(cap);
            true
        } else {
            false
        };
        if inserted {
            r.touch_attr(pe);
            out(Mutation::AddCap, ScheduleFootprint::Attribute)
        } else {
            noop()
        }
    }
}

/// Drop a capability: module-capability pruning (§V-B) of the spare pool
/// when preserving, a random capability of a random PE otherwise.
pub(crate) struct RemoveCapRule;

impl Rule for RemoveCapRule {
    fn name(&self) -> &'static str {
        "remove_cap"
    }

    fn apply(
        &self,
        r: &mut RecordedAdg<'_>,
        ctx: &mut TransformCtx<'_>,
        rng: &mut Rng,
    ) -> RuleOutcome {
        let m = if ctx.preserving {
            capability_pruning_recorded(r, ctx.schedules)
        } else {
            remove_random_cap(r, rng)
        };
        let hand = footprint_of(&m, ScheduleFootprint::Attribute);
        out(m, hand)
    }
}

fn remove_random_cap(r: &mut RecordedAdg<'_>, rng: &mut Rng) -> Mutation {
    let pes = r.graph().nodes_of_kind(NodeKind::Pe);
    let Some(pe) = pick(&pes, rng) else {
        return Mutation::Noop;
    };
    let mut removed = false;
    if let Some(p) = r.node_mut(pe).and_then(AdgNode::as_pe_mut) {
        if p.caps.len() > 1 {
            let caps: Vec<FuCap> = p.caps.iter().copied().collect();
            let c = caps[rng.gen_range(0..caps.len())];
            p.caps.remove(&c);
            removed = true;
        }
    }
    if removed {
        r.touch_attr(pe);
        Mutation::RemoveCap
    } else {
        Mutation::Noop
    }
}

/// Module-capability pruning (§V-B): drop a capability no mapped schedule
/// needs. Schedules only record hardware ids, so pruning is restricted to
/// PEs no schedule touches at all — and proceeds one capability at a time
/// (the globally most expensive spare capability per invocation), giving
/// the annealer the chance to reject harmful prunes instead of devastating
/// the spare-capacity pool in one step.
fn capability_pruning_recorded(r: &mut RecordedAdg<'_>, schedules: &[Schedule]) -> Mutation {
    let used = used_nodes(schedules);
    let mut candidates: Vec<(NodeId, FuCap)> = Vec::new();
    for pe in r.graph().nodes_of_kind(NodeKind::Pe) {
        if used.contains(pe) {
            continue;
        }
        if let Some(p) = r.graph().node(pe).and_then(AdgNode::as_pe) {
            if p.caps.len() > 1 {
                // drop the most expensive spare capability first
                if let Some(c) = p.caps.iter().copied().max_by_key(cheapness) {
                    candidates.push((pe, c));
                }
            }
        }
    }
    // deterministic pick: the globally most expensive spare capability
    let Some((pe, cap)) = candidates.into_iter().max_by_key(|(_, c)| cheapness(c)) else {
        return Mutation::Noop;
    };
    let removed = if let Some(p) = r.node_mut(pe).and_then(AdgNode::as_pe_mut) {
        p.caps.remove(&cap);
        true
    } else {
        false
    };
    if removed {
        r.touch_attr(pe);
        Mutation::RemoveCap
    } else {
        Mutation::Noop
    }
}

/// Double or halve a synchronization-port width (shrinks are blocked on
/// ports a live schedule uses when preserving).
pub(crate) struct ResizePortRule;

impl Rule for ResizePortRule {
    fn name(&self) -> &'static str {
        "resize_port"
    }

    fn apply(
        &self,
        r: &mut RecordedAdg<'_>,
        ctx: &mut TransformCtx<'_>,
        rng: &mut Rng,
    ) -> RuleOutcome {
        let mut ports = r.graph().nodes_of_kind(NodeKind::InPort);
        ports.extend(r.graph().nodes_of_kind(NodeKind::OutPort));
        let Some(port) = pick(&ports, rng) else {
            return noop();
        };
        let grow = rng.gen_bool(0.5);
        let shrink_blocked = ctx.preserving && used_nodes(ctx.schedules).contains(port);
        let resized = match r.node_mut(port) {
            Some(AdgNode::InPort(InPortNode { width_bytes, .. }))
            | Some(AdgNode::OutPort(OutPortNode { width_bytes, .. })) => {
                if grow {
                    *width_bytes = (*width_bytes * 2).min(64);
                    true
                } else if !shrink_blocked && *width_bytes > 2 {
                    *width_bytes /= 2;
                    true
                } else {
                    false
                }
            }
            _ => false,
        };
        if resized {
            r.touch_attr(port);
            out(Mutation::ResizePort, ScheduleFootprint::Attribute)
        } else {
            noop()
        }
    }
}

/// Double or halve a scratchpad's capacity; occasionally flip indirect
/// access support.
pub(crate) struct ResizeSpadRule;

impl Rule for ResizeSpadRule {
    fn name(&self) -> &'static str {
        "resize_spad"
    }

    fn apply(
        &self,
        r: &mut RecordedAdg<'_>,
        _ctx: &mut TransformCtx<'_>,
        rng: &mut Rng,
    ) -> RuleOutcome {
        let spads = r.graph().nodes_of_kind(NodeKind::Spad);
        let Some(sp) = pick(&spads, rng) else {
            return noop();
        };
        let grow = rng.gen_bool(0.5);
        let resized = if let Some(AdgNode::Spad(s)) = r.node_mut(sp) {
            if grow {
                s.capacity_kb = (s.capacity_kb * 2).min(512);
            } else if s.capacity_kb > 2 {
                s.capacity_kb /= 2;
            }
            if rng.gen_bool(0.2) {
                s.indirect = !s.indirect;
            }
            true
        } else {
            false
        };
        if resized {
            r.touch_attr(sp);
            out(Mutation::ResizeSpad, ScheduleFootprint::Attribute)
        } else {
            noop()
        }
    }
}

/// Double or halve a stream engine's bandwidth.
pub(crate) struct ResizeEngineBwRule;

impl Rule for ResizeEngineBwRule {
    fn name(&self) -> &'static str {
        "resize_engine_bw"
    }

    fn apply(
        &self,
        r: &mut RecordedAdg<'_>,
        _ctx: &mut TransformCtx<'_>,
        rng: &mut Rng,
    ) -> RuleOutcome {
        let mut engines = r.graph().nodes_of_kind(NodeKind::Dma);
        engines.extend(r.graph().nodes_of_kind(NodeKind::Spad));
        engines.extend(r.graph().nodes_of_kind(NodeKind::Gen));
        engines.extend(r.graph().nodes_of_kind(NodeKind::Rec));
        let Some(e) = pick(&engines, rng) else {
            return noop();
        };
        let grow = rng.gen_bool(0.5);
        let resized = {
            let node = r.node_mut(e);
            let bw: Option<&mut u16> = match node {
                Some(AdgNode::Dma(d)) => Some(&mut d.bw_bytes),
                Some(AdgNode::Spad(s)) => Some(&mut s.bw_bytes),
                Some(AdgNode::Gen(g)) => Some(&mut g.bw_bytes),
                Some(AdgNode::Rec(rec)) => Some(&mut rec.bw_bytes),
                _ => None,
            };
            if let Some(bw) = bw {
                if grow {
                    *bw = (*bw * 2).min(128);
                } else if *bw > 4 {
                    *bw /= 2;
                }
                true
            } else {
                false
            }
        };
        if resized {
            r.touch_attr(e);
            out(Mutation::ResizeEngineBw, ScheduleFootprint::Attribute)
        } else {
            noop()
        }
    }
}

/// Add a memory stream engine (scratchpad or extra DMA) wired to every
/// port — the §IV spatial-memory design space: "multiple smaller
/// scratchpads or a single unified scratchpad".
pub(crate) struct AddEngineRule;

impl Rule for AddEngineRule {
    fn name(&self) -> &'static str {
        "add_engine"
    }

    fn apply(
        &self,
        r: &mut RecordedAdg<'_>,
        _ctx: &mut TransformCtx<'_>,
        rng: &mut Rng,
    ) -> RuleOutcome {
        let node = if rng.gen_bool(0.6) {
            AdgNode::Spad(overgen_adg::SpadNode {
                capacity_kb: [8u32, 16, 32, 64][rng.gen_range(0..4usize)],
                bw_bytes: [16u16, 32, 64][rng.gen_range(0..3usize)],
                indirect: rng.gen_bool(0.4),
            })
        } else {
            AdgNode::Dma(overgen_adg::DmaNode {
                bw_bytes: [16u16, 32, 64][rng.gen_range(0..3usize)],
            })
        };
        let is_spad = matches!(node, AdgNode::Spad(_));
        let e = r.add_node(node);
        for ip in r.graph().nodes_of_kind(NodeKind::InPort) {
            let _ = r.add_edge(e, ip);
        }
        for op in r.graph().nodes_of_kind(NodeKind::OutPort) {
            let _ = r.add_edge(op, e);
        }
        let m = if is_spad {
            Mutation::ResizeSpad
        } else {
            Mutation::ResizeEngineBw
        };
        out(m, ScheduleFootprint::Additive)
    }
}

/// Remove an unused (when preserving) extra engine; always keeps at least
/// one DMA.
pub(crate) struct RemoveEngineRule;

impl Rule for RemoveEngineRule {
    fn name(&self) -> &'static str {
        "remove_engine"
    }

    fn apply(
        &self,
        r: &mut RecordedAdg<'_>,
        ctx: &mut TransformCtx<'_>,
        rng: &mut Rng,
    ) -> RuleOutcome {
        let mut engines = r.graph().nodes_of_kind(NodeKind::Spad);
        let dmas = r.graph().nodes_of_kind(NodeKind::Dma);
        if dmas.len() > 1 {
            engines.extend(dmas);
        }
        if ctx.preserving {
            let used = NodeFlags::of(
                ctx.schedules
                    .iter()
                    .flat_map(|s| s.stream_engines.values().chain(s.assignment.values()))
                    .copied(),
            );
            engines.retain(|e| !used.contains(*e));
        }
        let Some(victim) = pick(&engines, rng) else {
            return noop();
        };
        let fp = removal_footprint(&used_nodes(ctx.schedules), victim);
        r.remove_node(victim);
        out(Mutation::RemoveEngine, fp)
    }
}

/// Grow or shrink a PE's operand delay-FIFO depth.
pub(crate) struct ResizeDelayFifoRule;

impl Rule for ResizeDelayFifoRule {
    fn name(&self) -> &'static str {
        "resize_delay_fifo"
    }

    fn apply(
        &self,
        r: &mut RecordedAdg<'_>,
        _ctx: &mut TransformCtx<'_>,
        rng: &mut Rng,
    ) -> RuleOutcome {
        let pes = r.graph().nodes_of_kind(NodeKind::Pe);
        let Some(pe) = pick(&pes, rng) else {
            return noop();
        };
        let resized = if let Some(p) = r.node_mut(pe).and_then(AdgNode::as_pe_mut) {
            if rng.gen_bool(0.5) {
                p.delay_fifo_depth = p.delay_fifo_depth.saturating_add(1).min(16);
            } else if p.delay_fifo_depth > 1 {
                p.delay_fifo_depth -= 1;
            }
            true
        } else {
            false
        };
        if resized {
            r.touch_attr(pe);
            out(Mutation::ResizeDelayFifo, ScheduleFootprint::Attribute)
        } else {
            noop()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::delta::AdgDelta;
    use super::super::RuleSet;
    use super::*;
    use overgen_adg::{mesh, MeshSpec, SysAdg, SystemParams};
    use overgen_compiler::{lower, LowerChoices};
    use overgen_ir::{expr, DataType, KernelBuilder, Op, Suite};
    use overgen_scheduler::schedule;

    fn pool() -> Vec<FuCap> {
        vec![
            FuCap::new(Op::Add, DataType::I64),
            FuCap::new(Op::Mul, DataType::I64),
        ]
    }

    fn scheduled_setup() -> (overgen_mdfg::Mdfg, SysAdg, Schedule) {
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
    fn preserving_remove_pe_spares_used_ones() {
        let (_mdfg, mut sys, sched) = scheduled_setup();
        let used = sched.used_adg_nodes();
        let caps = pool();
        let mut schedules = vec![sched];
        let mut ctx = TransformCtx {
            cap_pool: &caps,
            schedules: &mut schedules,
            preserving: true,
        };
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..100 {
            let mut delta = AdgDelta::new(0);
            let mut r = RecordedAdg::new(&mut sys.adg, &mut delta);
            RemovePeRule.apply(&mut r, &mut ctx, &mut rng);
        }
        for pe in used {
            if sys.adg.kind(pe) == Some(NodeKind::Pe)
                || ctx.schedules[0].assignment.values().any(|a| *a == pe)
            {
                assert!(sys.adg.contains(pe) || sys.adg.kind(pe).is_none());
            }
        }
        // every PE referenced by the schedule still exists
        for (_, hw) in ctx.schedules[0].assignment.iter() {
            assert!(sys.adg.contains(*hw));
        }
    }

    #[test]
    fn random_applications_never_drop_the_last_pe() {
        let caps = pool();
        let mut rng = Rng::seed_from_u64(11);
        let mut adg = mesh(&MeshSpec::default());
        let mut schedules = Vec::new();
        let mut ctx = TransformCtx {
            cap_pool: &caps,
            schedules: &mut schedules,
            preserving: false,
        };
        for _ in 0..200 {
            RuleSet::legacy().apply_random(&mut adg, &mut ctx, &mut rng, 0);
        }
        // The graph can transiently be invalid (that is what DSE rejection
        // handles) but must never panic and must keep at least one PE.
        assert!(adg.count_kind(NodeKind::Pe) >= 1);
    }

    #[test]
    fn collapse_rewrites_routes_and_preserves_validity() {
        let (mdfg, mut sys, sched) = scheduled_setup();
        // Find a switch used by some route interior.
        let mut victim = None;
        for path in sched.routes.values() {
            for n in &path[1..path.len().saturating_sub(1)] {
                if sys.adg.kind(*n) == Some(NodeKind::Switch) {
                    victim = Some(*n);
                    break;
                }
            }
        }
        let Some(victim) = victim else {
            // All routes are adjacent; nothing to collapse.
            return;
        };
        let mut schedules = vec![sched];
        let mut delta = AdgDelta::new(0);
        collapse_recorded(
            &mut RecordedAdg::new(&mut sys.adg, &mut delta),
            &mut schedules,
            victim,
        );
        // victim gone, routes no longer reference it, links exist.
        assert!(!sys.adg.contains(victim));
        for path in schedules[0].routes.values() {
            assert!(!path.contains(&victim));
            for w in path.windows(2) {
                assert!(sys.adg.has_edge(w[0], w[1]), "bridge edge missing");
            }
        }
        // The schedule must still be repairable as-is (intact fast path).
        let (_, outcome) = overgen_scheduler::repair(&schedules[0], &mdfg, &sys).unwrap();
        assert_eq!(outcome, overgen_scheduler::RepairOutcome::Intact);
    }

    #[test]
    fn capability_pruning_shrinks_unused_pes_only() {
        let (_mdfg, mut sys, sched) = scheduled_setup();
        let used = sched.used_adg_nodes();
        let cap_count = |sys: &SysAdg| -> usize {
            sys.adg
                .nodes()
                .filter_map(|(_, n)| n.as_pe().map(|p| p.caps.len()))
                .sum()
        };
        let before = cap_count(&sys);
        let mut delta = AdgDelta::new(0);
        capability_pruning_recorded(
            &mut RecordedAdg::new(&mut sys.adg, &mut delta),
            std::slice::from_ref(&sched),
        );
        assert!(cap_count(&sys) < before, "pruning had no effect");
        // used PEs untouched
        for pe in sys.adg.nodes_of_kind(NodeKind::Pe) {
            if used.contains(&pe) {
                let n = sys.adg.node(pe).unwrap().as_pe().unwrap();
                assert_eq!(n.caps.len(), 3, "used PE was pruned");
            }
        }
    }

    #[test]
    fn footprints_track_mutation_severity() {
        let (_mdfg, sys, sched) = scheduled_setup();
        let used_pe = sched.assignment.values().copied().next().unwrap();
        let used_flags = used_nodes(std::slice::from_ref(&sched));
        assert_eq!(
            removal_footprint(&used_flags, used_pe),
            ScheduleFootprint::Structural
        );
        let used = sched.used_adg_nodes();
        let unused_pe = sys
            .adg
            .nodes_of_kind(NodeKind::Pe)
            .into_iter()
            .find(|p| !used.contains(p))
            .expect("default mesh has spare PEs");
        assert_eq!(
            removal_footprint(&used_flags, unused_pe),
            ScheduleFootprint::RemoveUnused
        );
        // A degenerated mutation is always Pure, whatever its class.
        assert_eq!(
            footprint_of(&Mutation::Noop, ScheduleFootprint::Structural),
            ScheduleFootprint::Pure
        );
    }

    #[test]
    fn cheapness_ordering() {
        assert!(
            cheapness(&FuCap::new(Op::And, DataType::I8))
                < cheapness(&FuCap::new(Op::Div, DataType::F64))
        );
    }

    #[test]
    fn every_rule_infers_exactly_the_hand_class() {
        // The byte-identity contract: over many seeded applications of
        // every rule, in both preserving modes, the inferred footprint
        // must *equal* the legacy hand classification — not merely
        // dominate it — or default-config cache keys and traces drift.
        let caps = pool();
        let set = RuleSet::legacy();
        for preserving in [false, true] {
            for idx in 0..set.len() {
                let (_mdfg, mut sys, sched) = scheduled_setup();
                let mut schedules = vec![sched];
                let mut rng = Rng::seed_from_u64(0x5EED ^ idx as u64);
                for _ in 0..40 {
                    let mut ctx = TransformCtx {
                        cap_pool: &caps,
                        schedules: &mut schedules,
                        preserving,
                    };
                    let app = set.apply_index(idx, &mut sys.adg, &mut ctx, &mut rng, 0);
                    assert_eq!(
                        app.inferred, app.hand,
                        "rule {} (preserving={preserving}) inferred {:?} but hand class is {:?}",
                        app.rule, app.inferred, app.hand
                    );
                }
            }
        }
    }
}
