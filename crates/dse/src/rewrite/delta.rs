//! Epoch-stamped mutation deltas and the recording ADG wrapper.
//!
//! Every rule application runs against a [`RecordedAdg`], which forwards
//! mutations to the underlying [`Adg`] and logs their *net* effect into an
//! [`AdgDelta`]: nodes and edges added or removed, plus every node whose
//! attributes a rule declared it wrote (via [`RecordedAdg::touch_attr`]).
//! "Net" means add/remove pairs cancel — sound because [`Adg::add_node`]
//! never reuses node ids, so a node added and then removed inside the same
//! delta leaves the graph indistinguishable from untouched.
//!
//! The delta is what makes footprints *inferable* (see
//! [`super::infer_footprint`]), replacing the hand classification the
//! legacy mutation table carried. It feeds inference only: the scheduler's
//! repair classifies a proposal from the mutated hardware itself.

use std::collections::BTreeSet;

use overgen_adg::{Adg, AdgError, AdgNode, NodeId};

/// The recorded net effect of one rule application on an ADG.
///
/// The `epoch` stamps which proposal step produced the delta (iteration ×
/// mutations-per-step + step in the annealer).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdgDelta {
    /// Proposal step that opened this delta.
    pub epoch: u64,
    /// Nodes created (and not subsequently removed) by the application.
    pub added_nodes: BTreeSet<NodeId>,
    /// Pre-existing nodes removed by the application.
    pub removed_nodes: BTreeSet<NodeId>,
    /// Edges created (and not subsequently removed) by the application.
    pub added_edges: BTreeSet<(NodeId, NodeId)>,
    /// Pre-existing edges removed by the application.
    pub removed_edges: BTreeSet<(NodeId, NodeId)>,
    /// Surviving nodes whose attributes a rule wrote.
    pub touched_attrs: BTreeSet<NodeId>,
}

impl AdgDelta {
    /// An empty delta opened at `epoch`.
    pub fn new(epoch: u64) -> AdgDelta {
        AdgDelta {
            epoch,
            ..AdgDelta::default()
        }
    }

    /// True when the application provably left the graph untouched.
    pub fn is_empty(&self) -> bool {
        self.added_nodes.is_empty()
            && self.removed_nodes.is_empty()
            && self.added_edges.is_empty()
            && self.removed_edges.is_empty()
            && self.touched_attrs.is_empty()
    }
}

/// A mutable view of an [`Adg`] that records every change into an
/// [`AdgDelta`]. Rules receive this instead of the raw graph, so their
/// footprint falls out of what they *did* rather than what they claim.
///
/// Reads go through [`RecordedAdg::graph`]. Attribute writes go through
/// [`RecordedAdg::node_mut`], which deliberately does **not** record —
/// rules declare attribute writes explicitly with
/// [`RecordedAdg::touch_attr`] on the paths that actually write, keeping
/// inferred footprints exact instead of pessimistic.
pub struct RecordedAdg<'a> {
    adg: &'a mut Adg,
    delta: &'a mut AdgDelta,
}

impl<'a> RecordedAdg<'a> {
    /// Wrap `adg`, recording into `delta`.
    pub fn new(adg: &'a mut Adg, delta: &'a mut AdgDelta) -> RecordedAdg<'a> {
        RecordedAdg { adg, delta }
    }

    /// Read-only view of the underlying graph.
    pub fn graph(&self) -> &Adg {
        self.adg
    }

    /// Add a node, recording it.
    pub fn add_node(&mut self, node: AdgNode) -> NodeId {
        let id = self.adg.add_node(node);
        self.delta.added_nodes.insert(id);
        id
    }

    /// Remove a node (and its incident edges), recording everything that
    /// actually disappeared. Removing a node this same delta added cancels
    /// the addition instead of recording a removal.
    pub fn remove_node(&mut self, id: NodeId) -> Option<AdgNode> {
        let incident: Vec<(NodeId, NodeId)> = self
            .adg
            .preds(id)
            .iter()
            .map(|&p| (p, id))
            .chain(self.adg.succs(id).iter().map(|&s| (id, s)))
            .collect();
        let node = self.adg.remove_node(id)?;
        for e in incident {
            if !self.delta.added_edges.remove(&e) {
                self.delta.removed_edges.insert(e);
            }
        }
        self.delta.touched_attrs.remove(&id);
        if !self.delta.added_nodes.remove(&id) {
            self.delta.removed_nodes.insert(id);
        }
        Some(node)
    }

    /// Add an edge, recording it on success.
    ///
    /// # Errors
    ///
    /// Forwards [`Adg::add_edge`] failures (missing endpoint, illegal
    /// kind pair, duplicate); failed attempts record nothing.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) -> Result<(), AdgError> {
        self.adg.add_edge(src, dst)?;
        if !self.delta.removed_edges.remove(&(src, dst)) {
            self.delta.added_edges.insert((src, dst));
        }
        Ok(())
    }

    /// Remove an edge, recording it when one actually existed.
    pub fn remove_edge(&mut self, src: NodeId, dst: NodeId) -> bool {
        let removed = self.adg.remove_edge(src, dst);
        if removed && !self.delta.added_edges.remove(&(src, dst)) {
            self.delta.removed_edges.insert((src, dst));
        }
        removed
    }

    /// Mutable access to a node's payload. **Not recorded** — pair every
    /// write with [`RecordedAdg::touch_attr`].
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut AdgNode> {
        self.adg.node_mut(id)
    }

    /// Declare that the rule wrote attributes of `id`.
    pub fn touch_attr(&mut self, id: NodeId) {
        self.delta.touched_attrs.insert(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overgen_adg::{mesh, MeshSpec, NodeKind, PeNode};
    use overgen_ir::{DataType, FuCap, Op};

    #[test]
    fn add_then_remove_cancels_to_empty() {
        let mut adg = mesh(&MeshSpec::default());
        let mut delta = AdgDelta::new(7);
        let mut r = RecordedAdg::new(&mut adg, &mut delta);
        let sw = r.graph().nodes_of_kind(NodeKind::Switch)[0];
        let pe = r.add_node(AdgNode::Pe(PeNode::with_caps([FuCap::new(
            Op::Add,
            DataType::I64,
        )])));
        r.add_edge(sw, pe).unwrap();
        r.touch_attr(pe);
        r.remove_node(pe);
        assert!(delta.is_empty(), "net no-op must record nothing: {delta:?}");
        assert_eq!(delta.epoch, 7);
    }

    #[test]
    fn removal_records_incident_edges() {
        let mut adg = mesh(&MeshSpec::default());
        let pe = adg.nodes_of_kind(NodeKind::Pe)[0];
        let degree = adg.preds(pe).len() + adg.succs(pe).len();
        assert!(degree > 0);
        let mut delta = AdgDelta::new(0);
        let mut r = RecordedAdg::new(&mut adg, &mut delta);
        r.remove_node(pe);
        assert!(delta.removed_nodes.contains(&pe));
        assert_eq!(delta.removed_edges.len(), degree);
    }

    #[test]
    fn edge_remove_then_add_cancels() {
        let mut adg = mesh(&MeshSpec::default());
        let (a, b) = adg
            .edges()
            .find(|(a, b)| {
                adg.kind(*a) == Some(NodeKind::Switch) && adg.kind(*b) == Some(NodeKind::Switch)
            })
            .unwrap();
        let mut delta = AdgDelta::new(0);
        let mut r = RecordedAdg::new(&mut adg, &mut delta);
        assert!(r.remove_edge(a, b));
        r.add_edge(a, b).unwrap();
        assert!(delta.is_empty(), "remove+re-add must cancel: {delta:?}");
    }
}
