//! Loss-free plain-data mirror of an [`Adg`] for checkpointing.
//!
//! The slot-map's *history* is part of a graph's identity: dead slots shift
//! the ids future `add_node` calls hand out, and the fingerprint hashes
//! live ids (see `fingerprint.rs` — id-addressed schedule repair makes two
//! graphs with the same shape but different ids non-interchangeable).
//! Adjacency *order* matters too: the scheduler walks `succs`/`preds` in
//! stored order, so canonicalizing edges on the way out would silently
//! change placement decisions after a resume. [`PortableAdg`] therefore
//! mirrors the internal representation field for field — slots including
//! `None` holes, and both adjacency tables verbatim — so that
//! `Adg::from_portable(adg.to_portable())` reproduces a graph whose
//! fingerprint, ids, and iteration orders are all bit-identical.

use crate::graph::{Adg, AdgError, NodeId};
use crate::node::AdgNode;

/// Plain-data form of an [`Adg`]: everything public, no invariants beyond
/// what [`Adg::from_portable`] re-checks. Serialize it however you like;
/// the graph crate stays format-agnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct PortableAdg {
    /// Node slots in id order; `None` marks a deleted slot (preserved so
    /// future id assignment matches the original graph).
    pub slots: Vec<Option<AdgNode>>,
    /// Outgoing adjacency per slot, as raw indices, in stored order.
    pub out_adj: Vec<Vec<u32>>,
    /// Incoming adjacency per slot, as raw indices, in stored order.
    pub in_adj: Vec<Vec<u32>>,
}

impl Adg {
    /// Export the graph into its portable mirror.
    pub fn to_portable(&self) -> PortableAdg {
        let raw = |adj: &[Vec<NodeId>]| -> Vec<Vec<u32>> {
            adj.iter()
                .map(|v| v.iter().map(|id| id.index() as u32).collect())
                .collect()
        };
        PortableAdg {
            slots: self.slots.clone(),
            out_adj: raw(&self.out_adj),
            in_adj: raw(&self.in_adj),
        }
    }

    /// Rebuild a graph from its portable mirror.
    ///
    /// # Errors
    ///
    /// Returns [`AdgError::Invalid`] when the tables are inconsistent:
    /// mismatched lengths, an edge endpoint out of range or pointing at a
    /// dead slot, or an `out_adj` entry without its `in_adj` twin. A value
    /// produced by [`Adg::to_portable`] always passes.
    pub fn from_portable(p: PortableAdg) -> Result<Adg, AdgError> {
        let n = p.slots.len();
        if p.out_adj.len() != n || p.in_adj.len() != n {
            return Err(AdgError::Invalid(format!(
                "portable ADG tables disagree: {} slots, {} out rows, {} in rows",
                n,
                p.out_adj.len(),
                p.in_adj.len()
            )));
        }
        let live = |i: u32| -> bool { p.slots.get(i as usize).is_some_and(Option::is_some) };
        for (i, row) in p.out_adj.iter().enumerate() {
            for &dst in row {
                if !live(dst) {
                    return Err(AdgError::Invalid(format!(
                        "portable ADG edge n{i} -> n{dst} targets a dead slot"
                    )));
                }
                if !p.in_adj[dst as usize].contains(&(i as u32)) {
                    return Err(AdgError::Invalid(format!(
                        "portable ADG edge n{i} -> n{dst} missing from in_adj"
                    )));
                }
            }
            if !row.is_empty() && p.slots[i].is_none() {
                return Err(AdgError::Invalid(format!(
                    "portable ADG dead slot n{i} has outgoing edges"
                )));
            }
        }
        for (i, row) in p.in_adj.iter().enumerate() {
            for &src in row {
                if !live(src) || !p.out_adj[src as usize].contains(&(i as u32)) {
                    return Err(AdgError::Invalid(format!(
                        "portable ADG in_adj entry n{src} -> n{i} has no out_adj twin"
                    )));
                }
            }
        }
        let ids = |adj: Vec<Vec<u32>>| -> Vec<Vec<NodeId>> {
            adj.into_iter()
                .map(|v| {
                    v.into_iter()
                        .map(|i| NodeId::from_index(i as usize))
                        .collect()
                })
                .collect()
        };
        Ok(Adg {
            slots: p.slots,
            out_adj: ids(p.out_adj),
            in_adj: ids(p.in_adj),
            ..Adg::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{DmaNode, InPortNode, OutPortNode, PeNode, SwitchNode};
    use overgen_ir::{DataType, FuCap, Op};

    fn graph_with_history() -> Adg {
        let mut g = Adg::new();
        let dma = g.add_node(AdgNode::Dma(DmaNode { bw_bytes: 16 }));
        let ip = g.add_node(AdgNode::InPort(InPortNode::with_width(8)));
        let trash = g.add_node(AdgNode::Switch(SwitchNode {}));
        let pe = g.add_node(AdgNode::Pe(PeNode::with_caps([FuCap::new(
            Op::Add,
            DataType::I64,
        )])));
        let op = g.add_node(AdgNode::OutPort(OutPortNode::with_width(8)));
        g.add_edge(dma, ip).unwrap();
        g.add_edge(ip, pe).unwrap();
        g.add_edge(pe, op).unwrap();
        g.add_edge(op, dma).unwrap();
        g.remove_node(trash); // leave a hole mid-table
        g
    }

    #[test]
    fn round_trip_is_exact() {
        let g = graph_with_history();
        let back = Adg::from_portable(g.to_portable()).unwrap();
        assert_eq!(g.fingerprint(), back.fingerprint());
        // Future id assignment continues from the same point.
        let mut a = g.clone();
        let mut b = back;
        assert_eq!(
            a.add_node(AdgNode::Switch(SwitchNode {})),
            b.add_node(AdgNode::Switch(SwitchNode {}))
        );
    }

    #[test]
    fn adjacency_order_survives() {
        let mut g = Adg::new();
        let sw = g.add_node(AdgNode::Switch(SwitchNode {}));
        let p1 = g.add_node(AdgNode::Pe(PeNode::with_caps([FuCap::new(
            Op::Add,
            DataType::I64,
        )])));
        let p2 = g.add_node(AdgNode::Pe(PeNode::with_caps([FuCap::new(
            Op::Add,
            DataType::I64,
        )])));
        // Insert out of id order: canonicalizing would reorder succs.
        g.add_edge(sw, p2).unwrap();
        g.add_edge(sw, p1).unwrap();
        let back = Adg::from_portable(g.to_portable()).unwrap();
        assert_eq!(g.succs(sw), back.succs(sw));
        assert_eq!(back.succs(sw), &[p2, p1]);
    }

    #[test]
    fn inconsistent_tables_rejected() {
        let g = graph_with_history();
        let mut missing_in = g.to_portable();
        missing_in.in_adj[1].clear();
        assert!(matches!(
            Adg::from_portable(missing_in),
            Err(AdgError::Invalid(_))
        ));

        let mut dangling = g.to_portable();
        dangling.out_adj[0].push(99);
        assert!(matches!(
            Adg::from_portable(dangling),
            Err(AdgError::Invalid(_))
        ));

        let mut short = g.to_portable();
        short.out_adj.pop();
        assert!(matches!(
            Adg::from_portable(short),
            Err(AdgError::Invalid(_))
        ));
    }
}
