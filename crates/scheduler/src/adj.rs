//! Dense bitset adjacency over an [`Adg`] for the placer/repair hot loops.
//!
//! The placer and the repair classifier probe edge existence and node kinds
//! far more often than they enumerate neighbours: every BFS step checks the
//! one-value-per-link rule, every reused route re-validates each hop, and
//! classification walks every prior route edge. [`Adg::has_edge`] scans an
//! adjacency `Vec` and [`Adg::kind`] chases the slot map; both are O(1) here
//! — one bit test and one indexed load against side tables built once per
//! hardware graph (held by its `HwIndex`, which every placement and repair
//! against that graph borrows).

use overgen_adg::{Adg, AdgNode, NodeId, NodeKind};

/// Bitset adjacency matrix plus a flat node-kind table.
pub(crate) struct AdjBits {
    /// Slots covered (max raw id + 1); rows/columns are raw slot indices.
    n: usize,
    /// Words per adjacency row.
    row_words: usize,
    /// Row-major adjacency bits: bit `b` of row `a` = edge `a -> b`.
    bits: Vec<u64>,
    /// Kind per slot (`None` for deleted slots).
    kinds: Vec<Option<NodeKind>>,
}

impl AdjBits {
    pub fn new(adg: &Adg) -> Self {
        let n = adg.nodes().map(|(id, _)| id.index() + 1).max().unwrap_or(0);
        let row_words = n.div_ceil(64);
        let mut bits = vec![0u64; n * row_words];
        let mut kinds = vec![None; n];
        for (id, node) in adg.nodes() {
            kinds[id.index()] = Some(node.kind());
        }
        for (a, b) in adg.edges() {
            let (ai, bi) = (a.index(), b.index());
            bits[ai * row_words + bi / 64] |= 1u64 << (bi % 64);
        }
        AdjBits {
            n,
            row_words,
            bits,
            kinds,
        }
    }

    /// Slots covered: every live node's [`NodeId::index`] is below this,
    /// so per-node side tables of this length index without bounds misses.
    pub fn slots(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        let (ai, bi) = (a.index(), b.index());
        if ai >= self.n || bi >= self.n {
            return false;
        }
        self.bits[ai * self.row_words + bi / 64] & (1u64 << (bi % 64)) != 0
    }

    #[inline]
    pub fn kind(&self, id: NodeId) -> Option<NodeKind> {
        self.kinds.get(id.index()).copied().flatten()
    }

    #[inline]
    pub fn is_switch(&self, id: NodeId) -> bool {
        self.kind(id) == Some(NodeKind::Switch)
    }

    /// One-value-per-link rule: only links *into* a switch whose source is
    /// not an input port are exclusive (mirrors `Placer::exclusive_link`).
    #[inline]
    pub fn exclusive_link(&self, a: NodeId, b: NodeId) -> bool {
        self.kind(a) != Some(NodeKind::InPort) && self.kind(b) == Some(NodeKind::Switch)
    }
}

/// Build the per-spad byte budgets the placer starts from.
pub(crate) fn spad_budgets(adg: &Adg) -> std::collections::BTreeMap<NodeId, i64> {
    adg.nodes()
        .filter_map(|(id, n)| match n {
            AdgNode::Spad(s) => Some((id, i64::from(s.capacity_kb) * 1024)),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use overgen_adg::{mesh, MeshSpec};

    #[test]
    fn matches_adg_edges_and_kinds() {
        let adg = mesh(&MeshSpec::general());
        let adj = AdjBits::new(&adg);
        let ids: Vec<NodeId> = adg.nodes().map(|(id, _)| id).collect();
        for &a in &ids {
            for &b in &ids {
                assert_eq!(adj.has_edge(a, b), adg.has_edge(a, b));
            }
            assert_eq!(adj.kind(a), adg.kind(a));
        }
    }

    #[test]
    fn survives_node_deletion_holes() {
        let mut adg = mesh(&MeshSpec::default());
        let victim = adg.nodes_of_kind(NodeKind::Switch)[0];
        adg.remove_node(victim);
        let adj = AdjBits::new(&adg);
        assert_eq!(adj.kind(victim), None);
        for (a, b) in adg.edges() {
            assert!(adj.has_edge(a, b));
        }
        assert!(!adj.has_edge(victim, victim));
    }
}
