//! Canonical 64-bit fingerprints of ADGs for evaluation caching.
//!
//! The DSE proposes thousands of candidate graphs and frequently revisits
//! structurally identical ones (rejected proposals, saturated resizes,
//! multi-chain overlap). [`Adg::fingerprint`] gives each design point a
//! stable identity: an FNV-1a hash over the live nodes in id order, their
//! full parameter payloads, and the edge set in sorted order — so the
//! fingerprint is independent of edge insertion history but sensitive to
//! everything the scheduler and models can observe, including [`NodeId`]s
//! (schedule repair is id-addressed, so two graphs with the same shape but
//! different ids are *not* interchangeable).
//!
//! The hash is deterministic across runs and platforms: no pointer values,
//! no `DefaultHasher` random keys, floats by bit pattern.

use crate::graph::{Adg, NodeId};
use crate::node::AdgNode;
use crate::system::SysAdg;

/// A deterministic streaming hasher (64-bit FNV-1a). Unlike
/// `std::collections::hash_map::DefaultHasher`, the output is stable
/// across processes, which is what cache keys and trace-level assertions
/// need. Exposed so downstream crates (the DSE cache) can extend a
/// fingerprint with their own context.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher {
            state: Self::OFFSET,
        }
    }

    /// Absorb raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.state ^= u64::from(*b);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorb a `u64` (little-endian bytes).
    ///
    /// A zero byte leaves FNV-1a's xor step a no-op, so a run of `k` zero
    /// bytes is one multiply by `PRIME^k`. Keys are mostly small ids and
    /// lengths, whose high bytes are all zero; the digest is the bytewise
    /// one.
    pub fn write_u64(&mut self, v: u64) {
        let mut rest = v;
        let mut left = 8;
        while left > 0 {
            let zeros = (rest.trailing_zeros() / 8).min(left);
            if zeros > 0 {
                self.state = self.state.wrapping_mul(PRIME_POWERS[zeros as usize]);
                if zeros == left {
                    return;
                }
                rest >>= 8 * zeros;
                left -= zeros;
            }
            self.state ^= rest & 0xff;
            self.state = self.state.wrapping_mul(Self::PRIME);
            rest >>= 8;
            left -= 1;
        }
    }

    /// Absorb a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Absorb a boolean.
    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[u8::from(v)]);
    }

    /// Absorb a float by IEEE-754 bit pattern (`-0.0` and `0.0` differ;
    /// all NaNs with the same payload collide, which is fine for keys).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// `PRIME_POWERS[k]` = FNV prime to the `k`th power (wrapping), the
/// multiplier of a run of `k` zero bytes.
const PRIME_POWERS: [u64; 9] = {
    let mut p = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        p[k] = p[k - 1].wrapping_mul(StableHasher::PRIME);
        k += 1;
    }
    p
};

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

fn write_node(h: &mut StableHasher, id: NodeId, node: &AdgNode) {
    h.write_u64(id.index() as u64);
    match node {
        AdgNode::Pe(pe) => {
            h.write_str("pe");
            h.write_u64(pe.caps.len() as u64);
            for cap in &pe.caps {
                // BTreeSet iterates in sorted order; discriminants are
                // stable per source definition.
                h.write_u64(cap.op as u64);
                h.write_u64(cap.dtype as u64);
            }
            h.write_u64(u64::from(pe.delay_fifo_depth));
        }
        AdgNode::Switch(_) => h.write_str("switch"),
        AdgNode::InPort(p) => {
            h.write_str("in_port");
            h.write_u64(u64::from(p.width_bytes));
            h.write_bool(p.padding);
            h.write_bool(p.stream_state);
        }
        AdgNode::OutPort(p) => {
            h.write_str("out_port");
            h.write_u64(u64::from(p.width_bytes));
        }
        AdgNode::Dma(d) => {
            h.write_str("dma");
            h.write_u64(u64::from(d.bw_bytes));
        }
        AdgNode::Spad(s) => {
            h.write_str("spad");
            h.write_u64(u64::from(s.capacity_kb));
            h.write_u64(u64::from(s.bw_bytes));
            h.write_bool(s.indirect);
        }
        AdgNode::Gen(g) => {
            h.write_str("gen");
            h.write_u64(u64::from(g.bw_bytes));
        }
        AdgNode::Rec(r) => {
            h.write_str("rec");
            h.write_u64(u64::from(r.bw_bytes));
        }
        AdgNode::Reg(r) => {
            h.write_str("reg");
            h.write_u64(u64::from(r.bw_bytes));
        }
    }
}

impl Adg {
    /// Canonical 64-bit fingerprint of this graph: live nodes in id order
    /// with full parameter payloads, plus the edge set in sorted order.
    /// Two graphs with equal fingerprints are interchangeable for
    /// scheduling and modelling (modulo 64-bit collisions).
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        self.fingerprint_into(&mut h);
        h.finish()
    }

    /// Absorb this graph's canonical form into an existing hasher, for
    /// callers composing larger cache keys.
    pub fn fingerprint_into(&self, h: &mut StableHasher) {
        h.write_str("adg");
        h.write_u64(self.node_count() as u64);
        for (id, node) in self.nodes() {
            write_node(h, id, node);
        }
        // Sources in id order, each one's successors sorted: edges are
        // unique, so this is the sorted edge set.
        h.write_u64(self.edge_count() as u64);
        let mut succs: Vec<NodeId> = Vec::new();
        for (src, outs) in self.out_adj.iter().enumerate() {
            succs.clear();
            succs.extend_from_slice(outs);
            succs.sort_unstable();
            for dst in &succs {
                h.write_u64(src as u64);
                h.write_u64(dst.index() as u64);
            }
        }
    }
}

impl SysAdg {
    /// Fingerprint of the full overlay spec: the per-tile [`Adg`] plus all
    /// [`SystemParams`](crate::SystemParams) fields.
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        self.fingerprint_into(&mut h);
        h.finish()
    }

    /// Absorb the full overlay spec into an existing hasher.
    pub fn fingerprint_into(&self, h: &mut StableHasher) {
        self.adg.fingerprint_into(h);
        h.write_str("sys");
        h.write_u64(u64::from(self.sys.tiles));
        h.write_u64(u64::from(self.sys.l2_banks));
        h.write_u64(u64::from(self.sys.l2_kb));
        h.write_u64(u64::from(self.sys.noc_bw_bytes));
        h.write_u64(u64::from(self.sys.dram_channels));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{DmaNode, InPortNode, OutPortNode, PeNode, SwitchNode};
    use crate::{mesh, MeshSpec, SystemParams};
    use overgen_ir::{DataType, FuCap, Op};

    fn tiny() -> Adg {
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
        g
    }

    #[test]
    fn identical_graphs_identical_fingerprints() {
        assert_eq!(tiny().fingerprint(), tiny().fingerprint());
        let m = MeshSpec::general();
        assert_eq!(mesh(&m).fingerprint(), mesh(&m).fingerprint());
    }

    #[test]
    fn clone_preserves_fingerprint() {
        let g = mesh(&MeshSpec::general());
        assert_eq!(g.fingerprint(), g.clone().fingerprint());
    }

    #[test]
    fn edge_insertion_order_is_canonicalized() {
        let mut a = Adg::new();
        let sw = a.add_node(AdgNode::Switch(SwitchNode {}));
        let p1 = a.add_node(AdgNode::Pe(PeNode::with_caps([FuCap::new(
            Op::Add,
            DataType::I64,
        )])));
        let p2 = a.add_node(AdgNode::Pe(PeNode::with_caps([FuCap::new(
            Op::Add,
            DataType::I64,
        )])));
        let mut b = a.clone();
        a.add_edge(sw, p1).unwrap();
        a.add_edge(sw, p2).unwrap();
        b.add_edge(sw, p2).unwrap();
        b.add_edge(sw, p1).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn parameter_changes_change_fingerprint() {
        let base = tiny();
        let fp = base.fingerprint();

        let mut wider = base.clone();
        for (id, _) in base.nodes() {
            if let Some(AdgNode::InPort(p)) = wider.node_mut(id) {
                p.width_bytes *= 2;
            }
        }
        assert_ne!(fp, wider.fingerprint());

        let mut deeper = base.clone();
        for (id, _) in base.nodes() {
            if let Some(pe) = deeper.node_mut(id).and_then(AdgNode::as_pe_mut) {
                pe.delay_fifo_depth += 1;
            }
        }
        assert_ne!(fp, deeper.fingerprint());
    }

    #[test]
    fn structural_changes_change_fingerprint() {
        let g = tiny();
        let fp = g.fingerprint();
        let mut extra = g.clone();
        extra.add_node(AdgNode::Switch(SwitchNode {}));
        assert_ne!(fp, extra.fingerprint());

        let mut fewer_edges = g.clone();
        let (src, dst) = g.edges().next().unwrap();
        fewer_edges.remove_edge(src, dst);
        assert_ne!(fp, fewer_edges.fingerprint());
    }

    #[test]
    fn slot_history_is_visible() {
        // Same live structure, different ids: NOT interchangeable for
        // id-addressed schedule repair, so fingerprints must differ.
        let mut a = Adg::new();
        let trash = a.add_node(AdgNode::Switch(SwitchNode {}));
        a.remove_node(trash);
        let mut plain = Adg::new();
        let ia = a.add_node(AdgNode::Switch(SwitchNode {}));
        let ip = plain.add_node(AdgNode::Switch(SwitchNode {}));
        assert_ne!(ia.index(), ip.index());
        assert_ne!(a.fingerprint(), plain.fingerprint());
    }

    #[test]
    fn sys_params_feed_sys_fingerprint() {
        let adg = tiny();
        let s1 = SysAdg::new(adg.clone(), SystemParams::default());
        let mut s2 = SysAdg::new(adg, SystemParams::default());
        assert_eq!(s1.fingerprint(), s1.fingerprint());
        assert_eq!(s1.fingerprint(), s2.fingerprint());
        s2.sys.tiles += 1;
        assert_ne!(s1.fingerprint(), s2.fingerprint());
    }

    /// 64-bit FNV-1a over `bytes`, one byte at a time from `state`: the
    /// reference [`StableHasher::write_u64`] must agree with.
    fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(state, |s, b| {
            (s ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn write_u64_matches_bytewise_fnv1a() {
        // Every shape of word the zero-run folding distinguishes: all
        // zeros, one byte set at each position, zero bytes between set
        // ones, and all ones; then 10^5 pseudo-random words with a random
        // subset of their bytes cleared.
        let mut words: Vec<u64> = vec![0, u64::MAX, 0xff00_0000_0000_00ff, 0x0001_0000_0000_0100];
        for shift in (0..64).step_by(8) {
            words.extend((1..=255u64).map(|b| b << shift));
        }
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            // splitmix64
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..100_000 {
            let (word, keep) = (next(), next());
            let mask = (0..8)
                .filter(|i| keep >> i & 1 == 1)
                .fold(0u64, |m, i| m | 0xff << (8 * i));
            words.push(word & mask);
        }
        assert!(words.len() > 100_000);
        let mut h = StableHasher::new();
        let mut reference = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            h.write_u64(w);
            reference = fnv1a(reference, &w.to_le_bytes());
            assert_eq!(h.finish(), reference, "after word {w:#x}");
        }
    }

    #[test]
    fn mesh_fingerprints_are_pinned() {
        // Memo and store keys are persisted (checkpoints, store file
        // names), so the digest of a given graph must never move.
        let default = mesh(&MeshSpec::default()).fingerprint();
        let general = mesh(&MeshSpec::general()).fingerprint();
        // Holes in the slot map, and successors appended out of id order.
        let mut holed = mesh(&MeshSpec::general());
        for i in [3, 17, 40] {
            assert!(holed.remove_node(NodeId::from_index(i)).is_some());
        }
        holed
            .add_edge(NodeId::from_index(20), NodeId::from_index(1))
            .unwrap();
        assert!(holed.succs(NodeId::from_index(20)).len() > 1);
        assert_eq!(
            [default, general, holed.fingerprint()],
            [
                0xb3f3_8cbd_8a57_8ea2,
                0xccba_4c85_d7e2_b875,
                0x9eeb_d7f4_5486_0507
            ]
        );
    }

    #[test]
    fn fingerprint_matches_known_vector() {
        // Pin the byte-level encoding: silently changing it would
        // invalidate any externally persisted cache keys.
        let mut h = StableHasher::new();
        h.write_str("adg");
        assert_eq!(h.finish(), {
            let mut h2 = StableHasher::new();
            h2.write_u64(3);
            h2.write_bytes(b"adg");
            h2.finish()
        });
    }
}
