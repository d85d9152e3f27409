//! Mechanical footprint inference from recorded deltas.
//!
//! The legacy mutation table hand-classified every mutation into a
//! [`ScheduleFootprint`]; here the class falls out of the [`AdgDelta`] the
//! rule actually produced, consulted against the schedules *after* the
//! application (so a collapse that patched its routes in place correctly
//! classifies as remove-unused, not structural):
//!
//! - attribute writes       → at least [`ScheduleFootprint::Attribute`];
//! - added nodes or edges   → at least [`ScheduleFootprint::Additive`];
//! - removed nodes or edges → [`ScheduleFootprint::Structural`] when any
//!   removed entity is referenced by a live schedule,
//!   [`ScheduleFootprint::RemoveUnused`] otherwise;
//! - an empty delta         → [`ScheduleFootprint::Pure`].
//!
//! Classes merge to the worst, exactly as proposals merge footprints. A
//! removed edge is checked against the schedules' used-*edge* set, which
//! can never exceed the legacy used-*node* check: every edge a route uses
//! has both endpoints in the route, so its endpoints are used nodes.
//!
//! The used-hardware sets are dense tables rebuilt from the schedules at
//! each query site: a flag per ADG slot for nodes, a sorted list for
//! edges. Every caller only tests membership, which they answer exactly
//! as the union of [`Schedule::used_adg_nodes`] and
//! [`Schedule::used_adg_edges`] would, without a tree per schedule.

use overgen_adg::NodeId;
use overgen_scheduler::{Schedule, ScheduleFootprint};

use super::delta::AdgDelta;
use super::Mutation;

/// `applied` unless the mutation degenerated to a no-op.
pub(crate) fn footprint_of(m: &Mutation, applied: ScheduleFootprint) -> ScheduleFootprint {
    if *m == Mutation::Noop {
        ScheduleFootprint::Pure
    } else {
        applied
    }
}

/// Severity of removing `victim`: [`ScheduleFootprint::RemoveUnused`] when
/// no live schedule references it (`used` is [`used_nodes`]),
/// [`ScheduleFootprint::Structural`] otherwise.
pub(crate) fn removal_footprint(used: &NodeFlags, victim: NodeId) -> ScheduleFootprint {
    if used.contains(victim) {
        ScheduleFootprint::Structural
    } else {
        ScheduleFootprint::RemoveUnused
    }
}

/// A set of ADG nodes as one flag per slot, indexed by [`NodeId::index`].
#[derive(Debug)]
pub(crate) struct NodeFlags(Vec<bool>);

impl NodeFlags {
    /// The set of `ids`.
    pub(crate) fn of(ids: impl IntoIterator<Item = NodeId>) -> NodeFlags {
        let mut flags = Vec::new();
        for id in ids {
            let i = id.index();
            if i >= flags.len() {
                flags.resize(i + 1, false);
            }
            flags[i] = true;
        }
        NodeFlags(flags)
    }

    /// Whether `id` is in the set.
    pub(crate) fn contains(&self, id: NodeId) -> bool {
        self.0.get(id.index()).is_some_and(|f| *f)
    }
}

/// A set of ADG edges as a sorted, deduplicated list.
#[derive(Debug)]
pub(crate) struct EdgeSet(Vec<(NodeId, NodeId)>);

impl EdgeSet {
    /// Whether `edge` is in the set.
    pub(crate) fn contains(&self, edge: (NodeId, NodeId)) -> bool {
        self.0.binary_search(&edge).is_ok()
    }
}

/// Every ADG node some live schedule assigns to or routes through.
pub(crate) fn used_nodes(schedules: &[Schedule]) -> NodeFlags {
    NodeFlags::of(schedules.iter().flat_map(|s| {
        s.assignment
            .values()
            .chain(s.routes.values().flatten())
            .copied()
    }))
}

/// Every ADG edge some live schedule routes over.
pub(crate) fn used_edges(schedules: &[Schedule]) -> EdgeSet {
    let mut edges: Vec<(NodeId, NodeId)> = schedules
        .iter()
        .flat_map(|s| s.routes.values())
        .flat_map(|path| path.windows(2).map(|w| (w[0], w[1])))
        .collect();
    edges.sort_unstable();
    edges.dedup();
    EdgeSet(edges)
}

/// Infer the [`ScheduleFootprint`] of an application from its recorded
/// delta and the live schedules as they stand *after* the application.
pub fn infer_footprint(delta: &AdgDelta, schedules: &[Schedule]) -> ScheduleFootprint {
    let mut fp = ScheduleFootprint::Pure;
    if !delta.touched_attrs.is_empty() {
        fp = fp.merge(ScheduleFootprint::Attribute);
    }
    if !delta.added_nodes.is_empty() || !delta.added_edges.is_empty() {
        fp = fp.merge(ScheduleFootprint::Additive);
    }
    if !delta.removed_nodes.is_empty() || !delta.removed_edges.is_empty() {
        // Each table is built only when the delta removed what it holds.
        let structural = (!delta.removed_nodes.is_empty() && {
            let used = used_nodes(schedules);
            delta.removed_nodes.iter().any(|n| used.contains(*n))
        }) || (!delta.removed_edges.is_empty() && {
            let used = used_edges(schedules);
            delta.removed_edges.iter().any(|e| used.contains(*e))
        });
        fp = fp.merge(if structural {
            ScheduleFootprint::Structural
        } else {
            ScheduleFootprint::RemoveUnused
        });
    }
    fp
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use overgen_adg::{mesh, MeshSpec, SysAdg, SystemParams};
    use overgen_compiler::{lower, LowerChoices};
    use overgen_ir::{expr, DataType, FuCap, KernelBuilder, Op, Suite};
    use overgen_telemetry::Rng;

    use super::super::{RuleSet, TransformCtx};
    use super::*;

    #[test]
    fn empty_delta_is_pure() {
        assert_eq!(
            infer_footprint(&AdgDelta::new(0), &[]),
            ScheduleFootprint::Pure
        );
    }

    #[test]
    fn classes_merge_to_the_worst() {
        let mut d = AdgDelta::new(0);
        d.touched_attrs.insert(NodeId::from_index(3));
        assert_eq!(infer_footprint(&d, &[]), ScheduleFootprint::Attribute);
        d.added_nodes.insert(NodeId::from_index(4));
        assert_eq!(infer_footprint(&d, &[]), ScheduleFootprint::Additive);
        d.removed_nodes.insert(NodeId::from_index(5));
        // No schedules reference node 5, so removal is remove-unused.
        assert_eq!(infer_footprint(&d, &[]), ScheduleFootprint::RemoveUnused);
    }

    /// The union of every schedule's `used_adg_nodes` and
    /// `used_adg_edges`.
    type UsedSets = (BTreeSet<NodeId>, BTreeSet<(NodeId, NodeId)>);

    fn used_sets(schedules: &[Schedule]) -> UsedSets {
        (
            schedules
                .iter()
                .flat_map(Schedule::used_adg_nodes)
                .collect(),
            schedules
                .iter()
                .flat_map(Schedule::used_adg_edges)
                .collect(),
        )
    }

    /// The inference over `BTreeSet`s that the dense tables replaced, kept
    /// as their oracle.
    fn oracle_footprint(delta: &AdgDelta, (used_n, used_e): &UsedSets) -> ScheduleFootprint {
        let mut fp = ScheduleFootprint::Pure;
        if !delta.touched_attrs.is_empty() {
            fp = fp.merge(ScheduleFootprint::Attribute);
        }
        if !delta.added_nodes.is_empty() || !delta.added_edges.is_empty() {
            fp = fp.merge(ScheduleFootprint::Additive);
        }
        if !delta.removed_nodes.is_empty() || !delta.removed_edges.is_empty() {
            let structural = delta.removed_nodes.iter().any(|n| used_n.contains(n))
                || delta.removed_edges.iter().any(|e| used_e.contains(e));
            fp = fp.merge(if structural {
                ScheduleFootprint::Structural
            } else {
                ScheduleFootprint::RemoveUnused
            });
        }
        fp
    }

    /// Two schedules sharing the General Overlay: `c = a + b` and
    /// `d = a * b + c`.
    fn scheduled(sys: &SysAdg) -> Vec<Schedule> {
        let add = expr::load("a", expr::idx("i")) + expr::load("b", expr::idx("i"));
        let mac = expr::load("a", expr::idx("i")) * expr::load("b", expr::idx("i"))
            + expr::load("c", expr::idx("i"));
        [("add", add, "c"), ("mac", mac, "d")]
            .into_iter()
            .map(|(name, value, dst)| {
                let mut b = KernelBuilder::new(name, Suite::Dsp, DataType::I64)
                    .array_input("a", 64)
                    .array_input("b", 64);
                if dst == "d" {
                    b = b.array_input("c", 64);
                }
                let k = b
                    .array_output(dst, 64)
                    .loop_const("i", 64)
                    .assign(dst, expr::idx("i"), value)
                    .build()
                    .unwrap();
                let choices = LowerChoices {
                    unroll: 1,
                    ..Default::default()
                };
                let mdfg = lower(&k, 0, &choices).unwrap();
                overgen_scheduler::schedule(&mdfg, sys, None).unwrap()
            })
            .collect()
    }

    #[test]
    fn dense_tables_answer_like_the_schedule_sets() {
        // Seeded legacy chains with preserving on, so switch collapses
        // rewrite routes between checks. After every application, every
        // slot and every candidate edge is asked of both the dense tables
        // and the union of `used_adg_nodes`/`used_adg_edges`, and a
        // removal of each is classified by both inferences.
        let caps = [
            FuCap::new(Op::Add, DataType::I64),
            FuCap::new(Op::Mul, DataType::I64),
        ];
        let mut rewritten = 0;
        for seed in 0..6u64 {
            let mut sys = SysAdg::new(mesh(&MeshSpec::general()), SystemParams::default());
            let mut schedules = scheduled(&sys);
            let mut rng = Rng::seed_from_u64(0xDE45E ^ seed);
            for _ in 0..40 {
                let before: Vec<_> = schedules.iter().map(|s| s.routes.clone()).collect();
                let app = {
                    let mut ctx = TransformCtx {
                        cap_pool: &caps,
                        schedules: &mut schedules,
                        preserving: true,
                    };
                    RuleSet::legacy().apply_random(&mut sys.adg, &mut ctx, &mut rng, 0)
                };
                if schedules.iter().zip(&before).any(|(s, b)| s.routes != *b) {
                    rewritten += 1;
                }
                let want = used_sets(&schedules);
                assert_eq!(
                    infer_footprint(&app.delta, &schedules),
                    oracle_footprint(&app.delta, &want)
                );
                let (want_n, want_e) = &want;
                let (used_n, used_e) = (used_nodes(&schedules), used_edges(&schedules));
                let slots = sys.adg.nodes().last().map_or(0, |(id, _)| id.index() + 1);
                for n in (0..slots + 4).map(NodeId::from_index) {
                    assert_eq!(used_n.contains(n), want_n.contains(&n), "node {n}");
                    let mut d = AdgDelta::new(0);
                    d.removed_nodes.insert(n);
                    assert_eq!(infer_footprint(&d, &schedules), oracle_footprint(&d, &want));
                }
                let mut edges: BTreeSet<(NodeId, NodeId)> = sys.adg.edges().collect();
                edges.extend(want_e.iter().map(|&(a, b)| (b, a)));
                edges.extend(want_e.iter().copied());
                for e in edges {
                    assert_eq!(used_e.contains(e), want_e.contains(&e), "edge {e:?}");
                    let mut d = AdgDelta::new(0);
                    d.removed_edges.insert(e);
                    assert_eq!(infer_footprint(&d, &schedules), oracle_footprint(&d, &want));
                }
            }
        }
        assert!(rewritten > 0, "no collapse rewrote a route");
    }
}
