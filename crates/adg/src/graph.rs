use std::fmt;

use crate::node::{AdgNode, NodeKind};

/// Stable identifier of an ADG node.
///
/// Ids survive deletions of *other* nodes (slot-map semantics), which is the
/// property schedule repair (paper §V-A) relies on: a schedule referencing
/// untouched hardware remains valid across DSE mutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw index (for compact per-node side tables).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a raw index. Only meaningful for ids previously
    /// obtained from the same [`Adg`].
    pub fn from_index(i: usize) -> Self {
        NodeId(i as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Errors raised by graph mutations and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdgError {
    /// Referenced node does not exist (or was deleted).
    NoSuchNode(NodeId),
    /// Edge endpoints have kinds that may not connect.
    IllegalEdge {
        /// Source kind.
        src: NodeKind,
        /// Destination kind.
        dst: NodeKind,
    },
    /// The edge already exists.
    DuplicateEdge(NodeId, NodeId),
    /// Validation: node is disconnected or violates a structural rule.
    Invalid(String),
}

impl fmt::Display for AdgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdgError::NoSuchNode(id) => write!(f, "no such node {id}"),
            AdgError::IllegalEdge { src, dst } => {
                write!(f, "illegal edge from {src} to {dst}")
            }
            AdgError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} -> {b}"),
            AdgError::Invalid(msg) => write!(f, "invalid ADG: {msg}"),
        }
    }
}

impl std::error::Error for AdgError {}

/// The architecture description graph: a directed graph of [`AdgNode`]s.
///
/// A graph can be mutated under an undo journal ([`Adg::begin_journal`]):
/// [`Adg::rollback`] then restores it exactly, payloads, adjacency order
/// and holes included, so the next [`Adg::add_node`] hands out the id it
/// would have handed out on a copy taken before the journal opened. The
/// journal is not part of the graph: a clone starts without one, and
/// `Debug`, [`Adg::to_portable`] and the fingerprint never read it.
#[derive(Default)]
pub struct Adg {
    pub(crate) slots: Vec<Option<AdgNode>>,
    /// Outgoing adjacency per slot (indices parallel `slots`).
    pub(crate) out_adj: Vec<Vec<NodeId>>,
    /// Incoming adjacency per slot.
    pub(crate) in_adj: Vec<Vec<NodeId>>,
    pub(crate) journal: Journal,
}

/// The undo journal of an [`Adg`]: the slot count when it opened and the
/// pre-image of every slot touched since.
#[derive(Default)]
pub(crate) struct Journal {
    /// Slot count when the journal opened; `None` while it is closed.
    open_len: Option<usize>,
    /// Pre-images in first-touch order. Only the first `saved` are live;
    /// the rest keep their buffers for the next proposal.
    images: Vec<SlotImage>,
    saved: usize,
}

/// One slot as it stood before its first touch under the journal.
#[derive(Default)]
struct SlotImage {
    slot: usize,
    node: Option<AdgNode>,
    out: Vec<NodeId>,
    inn: Vec<NodeId>,
}

impl Clone for Adg {
    fn clone(&self) -> Self {
        Adg {
            slots: self.slots.clone(),
            out_adj: self.out_adj.clone(),
            in_adj: self.in_adj.clone(),
            journal: Journal::default(),
        }
    }
}

impl fmt::Debug for Adg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Adg")
            .field("slots", &self.slots)
            .field("out_adj", &self.out_adj)
            .field("in_adj", &self.in_adj)
            .finish()
    }
}

impl Adg {
    /// An empty graph.
    pub fn new() -> Self {
        Adg::default()
    }

    /// Open the undo journal: from here on every mutation first saves the
    /// pre-image of each existing slot it touches, until [`Adg::commit`]
    /// keeps the changes or [`Adg::rollback`] undoes them.
    ///
    /// # Panics
    ///
    /// When the journal is already open.
    pub fn begin_journal(&mut self) {
        assert!(
            self.journal.open_len.is_none(),
            "the ADG's undo journal is already open"
        );
        self.journal.open_len = Some(self.slots.len());
    }

    /// Whether the undo journal is open.
    pub fn journal_open(&self) -> bool {
        self.journal.open_len.is_some()
    }

    /// Keep every change made since [`Adg::begin_journal`] and close the
    /// journal.
    ///
    /// # Panics
    ///
    /// When the journal is not open.
    pub fn commit(&mut self) {
        self.close_journal();
        self.journal.saved = 0;
    }

    /// Undo every change made since [`Adg::begin_journal`] and close the
    /// journal: slots added since are dropped and every touched slot gets
    /// its pre-image back.
    ///
    /// # Panics
    ///
    /// When the journal is not open.
    pub fn rollback(&mut self) {
        let len = self.close_journal();
        self.slots.truncate(len);
        self.out_adj.truncate(len);
        self.in_adj.truncate(len);
        // The mutated contents swap into the images, whose buffers the
        // next proposal's pre-images reuse.
        for img in &mut self.journal.images[..self.journal.saved] {
            std::mem::swap(&mut self.slots[img.slot], &mut img.node);
            std::mem::swap(&mut self.out_adj[img.slot], &mut img.out);
            std::mem::swap(&mut self.in_adj[img.slot], &mut img.inn);
        }
        self.journal.saved = 0;
    }

    /// Close the journal, returning the slot count it opened at.
    fn close_journal(&mut self) -> usize {
        self.journal
            .open_len
            .take()
            .expect("the ADG's undo journal is not open")
    }

    /// Save slot `id`'s pre-image when the journal is open and this is its
    /// first touch. Slots added since the journal opened need none: the
    /// rollback drops them.
    fn save(&mut self, id: NodeId) {
        let j = &mut self.journal;
        let i = id.index();
        if j.open_len.is_none_or(|len| i >= len) || j.images[..j.saved].iter().any(|s| s.slot == i)
        {
            return;
        }
        if j.saved == j.images.len() {
            j.images.push(SlotImage::default());
        }
        let img = &mut j.images[j.saved];
        img.slot = i;
        img.node.clone_from(&self.slots[i]);
        img.out.clone_from(&self.out_adj[i]);
        img.inn.clone_from(&self.in_adj[i]);
        j.saved += 1;
    }

    /// Add a node, returning its stable id.
    pub fn add_node(&mut self, node: AdgNode) -> NodeId {
        let id = NodeId(self.slots.len() as u32);
        self.slots.push(Some(node));
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Remove a node and all incident edges. Returns the node if it existed.
    pub fn remove_node(&mut self, id: NodeId) -> Option<AdgNode> {
        self.node(id)?;
        self.save(id);
        let node = self.slots[id.index()].take()?;
        let outs = std::mem::take(&mut self.out_adj[id.index()]);
        for dst in outs {
            self.save(dst);
            self.in_adj[dst.index()].retain(|n| *n != id);
        }
        let ins = std::mem::take(&mut self.in_adj[id.index()]);
        for src in ins {
            self.save(src);
            self.out_adj[src.index()].retain(|n| *n != id);
        }
        Some(node)
    }

    /// Access a node.
    pub fn node(&self, id: NodeId) -> Option<&AdgNode> {
        self.slots.get(id.index()).and_then(|s| s.as_ref())
    }

    /// Mutably access a node.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut AdgNode> {
        self.save(id);
        self.slots.get_mut(id.index()).and_then(|s| s.as_mut())
    }

    /// Kind of a node, if it exists.
    pub fn kind(&self, id: NodeId) -> Option<NodeKind> {
        self.node(id).map(AdgNode::kind)
    }

    /// Whether the node id refers to a live node.
    pub fn contains(&self, id: NodeId) -> bool {
        self.node(id).is_some()
    }

    /// Add a directed edge.
    ///
    /// # Errors
    ///
    /// Fails if either endpoint is missing, the connection is
    /// architecturally illegal ([`NodeKind::may_connect`]), or the edge
    /// already exists.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) -> Result<(), AdgError> {
        let sk = self.kind(src).ok_or(AdgError::NoSuchNode(src))?;
        let dk = self.kind(dst).ok_or(AdgError::NoSuchNode(dst))?;
        if !sk.may_connect(dk) {
            return Err(AdgError::IllegalEdge { src: sk, dst: dk });
        }
        if self.out_adj[src.index()].contains(&dst) {
            return Err(AdgError::DuplicateEdge(src, dst));
        }
        self.save(src);
        self.save(dst);
        self.out_adj[src.index()].push(dst);
        self.in_adj[dst.index()].push(src);
        Ok(())
    }

    /// Remove a directed edge; returns whether it existed.
    pub fn remove_edge(&mut self, src: NodeId, dst: NodeId) -> bool {
        if !self.out_adj[src.index()].contains(&dst) {
            return false;
        }
        self.save(src);
        self.save(dst);
        self.out_adj[src.index()].retain(|n| *n != dst);
        self.in_adj[dst.index()].retain(|n| *n != src);
        true
    }

    /// Whether a directed edge exists.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.out_adj
            .get(src.index())
            .is_some_and(|v| v.contains(&dst))
    }

    /// Outgoing neighbours of a node.
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        self.out_adj
            .get(id.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Incoming neighbours of a node.
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        self.in_adj
            .get(id.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total degree (radix) of a node.
    pub fn radix(&self, id: NodeId) -> usize {
        self.succs(id).len() + self.preds(id).len()
    }

    /// Number of distinct neighbours (a bidirectional link counts once) —
    /// the radix convention of the paper's Table III.
    pub fn undirected_radix(&self, id: NodeId) -> usize {
        let mut set: std::collections::BTreeSet<NodeId> = self.succs(id).iter().copied().collect();
        set.extend(self.preds(id).iter().copied());
        set.len()
    }

    /// Iterator over live `(id, node)` pairs in id order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &AdgNode)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|n| (NodeId(i as u32), n)))
    }

    /// Ids of live nodes of a given kind.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        self.nodes()
            .filter(|(_, n)| n.kind() == kind)
            .map(|(id, _)| id)
            .collect()
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Number of live nodes of a kind.
    pub fn count_kind(&self, kind: NodeKind) -> usize {
        self.nodes().filter(|(_, n)| n.kind() == kind).count()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.out_adj.iter().map(Vec::len).sum()
    }

    /// Iterator over all directed edges.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.out_adj
            .iter()
            .enumerate()
            .flat_map(|(i, outs)| outs.iter().map(move |d| (NodeId(i as u32), *d)))
    }

    /// Estimated configuration-bitstream size in bytes for reconfiguring
    /// this fabric (drives overlay reconfiguration time; §VI-B).
    ///
    /// Each fabric node carries a configuration word per routing/function
    /// choice; ports and engines carry a descriptor each.
    pub fn config_bytes(&self) -> u64 {
        let mut bytes = 0u64;
        for (id, n) in self.nodes() {
            bytes += match n.kind() {
                NodeKind::Pe => 8 + 2 * self.radix(id) as u64,
                NodeKind::Switch => 2 * self.radix(id) as u64,
                NodeKind::InPort | NodeKind::OutPort => 8,
                _ => 16,
            };
        }
        bytes
    }

    /// Structural validation of the whole graph.
    ///
    /// # Errors
    ///
    /// Returns [`AdgError::Invalid`] when a fabric or port node is fully
    /// disconnected, an input port has no feeding engine, or an output port
    /// has no draining engine.
    pub fn validate(&self) -> Result<(), AdgError> {
        for (id, n) in self.nodes() {
            match n.kind() {
                NodeKind::InPort
                    if !self
                        .preds(id)
                        .iter()
                        .any(|p| self.kind(*p).is_some_and(NodeKind::is_engine)) =>
                {
                    return Err(AdgError::Invalid(format!(
                        "input port {id} has no feeding stream engine"
                    )));
                }
                NodeKind::OutPort if self.succs(id).is_empty() => {
                    return Err(AdgError::Invalid(format!(
                        "output port {id} has no draining stream engine"
                    )));
                }
                NodeKind::Pe | NodeKind::Switch if self.radix(id) == 0 => {
                    return Err(AdgError::Invalid(format!(
                        "fabric node {id} is disconnected"
                    )));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::*;
    use overgen_ir::{DataType, FuCap, Op};

    fn tiny() -> (Adg, NodeId, NodeId, NodeId, NodeId) {
        let mut g = Adg::new();
        let dma = g.add_node(AdgNode::Dma(DmaNode { bw_bytes: 16 }));
        let ip = g.add_node(AdgNode::InPort(InPortNode::with_width(8)));
        let pe = g.add_node(AdgNode::Pe(PeNode::with_caps([FuCap::new(
            Op::Add,
            DataType::I64,
        )])));
        let op = g.add_node(AdgNode::OutPort(OutPortNode::with_width(8)));
        g.add_edge(dma, ip).unwrap();
        g.add_edge(ip, pe).unwrap();
        g.add_edge(pe, op).unwrap();
        g.add_edge(op, dma).unwrap();
        (g, dma, ip, pe, op)
    }

    #[test]
    fn build_and_validate() {
        let (g, ..) = tiny();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        g.validate().unwrap();
    }

    #[test]
    fn illegal_edge_rejected() {
        let (mut g, dma, _, pe, _) = tiny();
        let err = g.add_edge(dma, pe).unwrap_err();
        assert!(matches!(err, AdgError::IllegalEdge { .. }));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let (mut g, dma, ip, ..) = tiny();
        assert!(matches!(
            g.add_edge(dma, ip),
            Err(AdgError::DuplicateEdge(..))
        ));
    }

    #[test]
    fn remove_node_removes_edges_and_keeps_ids_stable() {
        let (mut g, dma, ip, pe, op) = tiny();
        let sw = g.add_node(AdgNode::Switch(SwitchNode {}));
        g.add_edge(ip, sw).unwrap();
        g.add_edge(sw, pe).unwrap();
        assert!(g.remove_node(sw).is_some());
        // surviving ids still resolve
        assert!(g.contains(dma) && g.contains(ip) && g.contains(pe) && g.contains(op));
        assert!(!g.contains(sw));
        // no dangling adjacency
        assert!(!g.succs(ip).contains(&sw));
        assert_eq!(g.edge_count(), 4);
        g.validate().unwrap();
    }

    #[test]
    fn validation_catches_unfed_port() {
        let mut g = Adg::new();
        let ip = g.add_node(AdgNode::InPort(InPortNode::with_width(8)));
        let pe = g.add_node(AdgNode::Pe(PeNode::with_caps([FuCap::new(
            Op::Add,
            DataType::I64,
        )])));
        g.add_edge(ip, pe).unwrap();
        assert!(matches!(g.validate(), Err(AdgError::Invalid(_))));
    }

    #[test]
    fn radix_counts_both_directions() {
        let (g, _, ip, ..) = tiny();
        assert_eq!(g.radix(ip), 2);
    }

    #[test]
    fn config_bytes_positive_and_monotone() {
        let (mut g, ..) = tiny();
        let before = g.config_bytes();
        let sw = g.add_node(AdgNode::Switch(SwitchNode {}));
        let pe2 = g.add_node(AdgNode::Pe(PeNode::with_caps([FuCap::new(
            Op::Mul,
            DataType::I64,
        )])));
        g.add_edge(sw, pe2).unwrap();
        assert!(g.config_bytes() > before);
    }

    #[test]
    fn remove_edge() {
        let (mut g, dma, ip, ..) = tiny();
        assert!(g.remove_edge(dma, ip));
        assert!(!g.remove_edge(dma, ip));
        assert!(!g.has_edge(dma, ip));
    }

    fn switch() -> AdgNode {
        AdgNode::Switch(SwitchNode {})
    }

    /// `tiny()` plus switches `a` and `b`, wired to each other both ways
    /// and around the PE, after a hole left by a removed switch. Returns
    /// the graph, `a`, `b` and the PE.
    fn with_history() -> (Adg, NodeId, NodeId, NodeId) {
        let (mut g, _, ip, pe, op) = tiny();
        let hole = g.add_node(switch());
        let a = g.add_node(switch());
        let b = g.add_node(switch());
        g.remove_node(hole);
        for (src, dst) in [(ip, a), (a, b), (b, a), (a, pe), (pe, b), (b, pe), (b, op)] {
            g.add_edge(src, dst).unwrap();
        }
        (g, a, b, pe)
    }

    /// Run `mutate` under an open journal and roll it back: the graph
    /// must equal a copy taken before the journal opened slot for slot,
    /// payloads, adjacency order and holes included (the fingerprint
    /// sorts successors and skips holes, so it could not tell), and the
    /// next `add_node` must hand out the copy's id.
    fn assert_rolls_back(mut g: Adg, mutate: impl FnOnce(&mut Adg)) {
        let before = g.clone();
        g.begin_journal();
        mutate(&mut g);
        assert!(g.journal_open());
        g.rollback();
        assert!(!g.journal_open());
        assert_eq!(g.to_portable(), before.to_portable());
        assert_eq!(g.add_node(switch()), before.clone().add_node(switch()));
    }

    #[test]
    fn rollback_restores_a_payload_write() {
        let (g, .., pe) = with_history();
        assert_rolls_back(g, |g| {
            let Some(AdgNode::Pe(p)) = g.node_mut(pe) else {
                panic!("{pe} is a PE");
            };
            p.caps.insert(FuCap::new(Op::Mul, DataType::I64));
            p.delay_fifo_depth += 1;
        });
    }

    #[test]
    fn rollback_restores_an_added_edge() {
        let (g, a, ..) = with_history();
        let op = g.nodes_of_kind(NodeKind::OutPort)[0];
        assert_rolls_back(g, |g| g.add_edge(a, op).unwrap());
    }

    #[test]
    fn rollback_restores_a_removed_edge_and_ignores_an_absent_one() {
        let (g, a, b, pe) = with_history();
        assert_rolls_back(g.clone(), |g| assert!(g.remove_edge(a, b)));
        assert_rolls_back(g, |g| {
            assert!(!g.remove_edge(pe, a));
            // Removing the first of `b`'s successors moves the others up.
            assert!(g.remove_edge(b, a));
        });
    }

    #[test]
    fn rollback_restores_a_removed_node_and_its_bidirectional_neighbours() {
        let (g, a, b, pe) = with_history();
        assert_rolls_back(g.clone(), |g| {
            g.remove_node(b).unwrap();
            assert!(!g.succs(a).contains(&b) && !g.succs(pe).contains(&b));
        });
        // Two removals touching shared neighbours save each slot once.
        assert_rolls_back(g, |g| {
            g.remove_node(a).unwrap();
            g.remove_node(b).unwrap();
        });
    }

    #[test]
    fn rollback_drops_added_nodes_and_their_edges_from_old_nodes() {
        let (g, a, b, pe) = with_history();
        assert_rolls_back(g, |g| {
            let sw = g.add_node(switch());
            g.add_edge(a, sw).unwrap();
            g.add_edge(sw, pe).unwrap();
            g.add_edge(b, sw).unwrap();
            let extra = g.add_node(switch());
            g.add_edge(sw, extra).unwrap();
            g.remove_node(sw).unwrap();
        });
    }

    #[test]
    fn commit_keeps_the_changes() {
        let (mut g, a, b, pe) = with_history();
        let mut want = g.clone();
        let mutate = |g: &mut Adg| {
            g.remove_edge(a, b);
            let sw = g.add_node(switch());
            g.add_edge(sw, pe).unwrap();
            g.remove_node(b);
        };
        mutate(&mut want);
        g.begin_journal();
        mutate(&mut g);
        g.commit();
        assert!(!g.journal_open());
        assert_eq!(g.to_portable(), want.to_portable());
        // A later journal starts clean: it restores the committed graph.
        assert_rolls_back(g, |g| {
            g.remove_node(a);
        });
    }

    #[test]
    fn a_clone_starts_without_the_journal() {
        let (mut g, a, b, _) = with_history();
        g.begin_journal();
        g.remove_edge(a, b);
        let copy = g.clone();
        assert!(!copy.journal_open());
        assert_eq!(format!("{copy:?}"), format!("{g:?}"));
        g.rollback();
        assert!(!copy.has_edge(a, b) && g.has_edge(a, b));
    }
}
