//! Lowering: kernel IR -> one mDFG, for a fixed set of transformation
//! choices (unroll degree, recurrence usage).

use std::collections::BTreeMap;

use overgen_ir::{ArrayRef, DataType, Expr, IndexExpr, Kernel, Op};
use overgen_mdfg::{
    ArrayNode, InstNode, Mdfg, MdfgNode, MdfgNodeId, MemPref, ReuseInfo, StreamNode,
};

use crate::reuse::{analyze_ref, array_footprint_bytes, declared, placement_pref, recurrence_of};
use crate::CompileError;

/// Transformation choices for one lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerChoices {
    /// Innermost-loop unroll degree (vectorization width in elements).
    pub unroll: u32,
    /// Map accumulations to the recurrence engine (vs. a memory
    /// round-trip) when legal.
    pub use_recurrence: bool,
    /// Scratchpad capacity assumed for placement preferences.
    pub spad_cap_bytes: u64,
}

impl Default for LowerChoices {
    fn default() -> Self {
        LowerChoices {
            unroll: 1,
            use_recurrence: true,
            spad_cap_bytes: 256 * 1024,
        }
    }
}

/// Key identifying a unique stream: array + rendered index + direction.
fn ref_key(r: &ArrayRef, write: bool) -> String {
    format!("{}{}{}", if write { "w:" } else { "r:" }, r.array, r.index)
}

struct LowerCtx<'k> {
    kernel: &'k Kernel,
    g: Mdfg,
    unroll: u32,
    innermost_var: String,
    arrays: BTreeMap<String, MdfgNodeId>,
    read_streams: BTreeMap<String, MdfgNodeId>,
    write_streams: BTreeMap<String, MdfgNodeId>,
    /// Read clustering: maps (array, variable-part, constant) to a cluster
    /// descriptor so that window/coefficient loads share one stream.
    clusters: BTreeMap<(String, String, i64), ClusterInfo>,
}

/// One cluster of same-array reads whose indices differ only by nearby
/// constant offsets: a sliding window (stencils) or a coefficient vector.
/// The whole cluster is served by a single stream/port (cf. Table II's low
/// `#ivp` for the stencil kernels).
#[derive(Debug, Clone, PartialEq, Eq)]
struct ClusterInfo {
    /// Stream key shared by the cluster.
    key: String,
    /// Smallest constant offset in the cluster (the representative ref).
    min_const: i64,
    /// Number of distinct elements the window spans.
    span: i64,
}

/// Maximum gap between constant offsets merged into one window cluster.
const CLUSTER_GAP: i64 = 8;

/// Render the variable part of an affine expression (terms only).
fn var_part(e: &overgen_ir::AffineExpr) -> String {
    e.terms()
        .map(|(v, c)| format!("{c}*{v}"))
        .collect::<Vec<_>>()
        .join("+")
}

/// Pre-compute read clusters for a kernel's body.
fn build_clusters(kernel: &Kernel) -> BTreeMap<(String, String, i64), ClusterInfo> {
    use overgen_ir::IndexExpr as Ix;
    // (array, varpart) -> sorted constants
    let mut groups: BTreeMap<(String, String), Vec<i64>> = BTreeMap::new();
    for r in kernel.reads() {
        if let Ix::Affine(e) = &r.index {
            groups
                .entry((r.array.clone(), var_part(e)))
                .or_default()
                .push(e.constant_term());
        }
    }
    let mut out = BTreeMap::new();
    for ((array, vp), mut consts) in groups {
        consts.sort_unstable();
        consts.dedup();
        let mut cluster: Vec<i64> = Vec::new();
        let mut cluster_idx = 0usize;
        let flush = |cluster: &mut Vec<i64>,
                     cluster_idx: &mut usize,
                     out: &mut BTreeMap<(String, String, i64), ClusterInfo>| {
            if cluster.is_empty() {
                return;
            }
            let min_c = *cluster.first().expect("non-empty");
            let max_c = *cluster.last().expect("non-empty");
            let info = ClusterInfo {
                key: format!("r:{array}:{vp}:#{cluster_idx}"),
                min_const: min_c,
                span: max_c - min_c + 1,
            };
            for c in cluster.drain(..) {
                out.insert((array.clone(), vp.clone(), c), info.clone());
            }
            *cluster_idx += 1;
        };
        for c in consts {
            if let Some(&last) = cluster.last() {
                if c - last > CLUSTER_GAP {
                    flush(&mut cluster, &mut cluster_idx, &mut out);
                }
            }
            cluster.push(c);
        }
        flush(&mut cluster, &mut cluster_idx, &mut out);
    }
    out
}

impl<'k> LowerCtx<'k> {
    fn err(e: impl std::fmt::Display) -> CompileError {
        CompileError::Graph(e.to_string())
    }

    fn elem_bytes(&self, name: &str) -> u64 {
        declared(self.kernel, name).dtype.bytes()
    }

    fn ensure_array(&mut self, name: &str) -> MdfgNodeId {
        if let Some(id) = self.arrays.get(name) {
            return *id;
        }
        let fp = array_footprint_bytes(self.kernel, name);
        let id = self
            .g
            .add_node(MdfgNode::Array(ArrayNode::new(name, fp, MemPref::Either)));
        self.arrays.insert(name.to_string(), id);
        id
    }

    /// Bytes a stream of `r` moves per DFG firing.
    fn firing_bytes(&self, r: &ArrayRef) -> u64 {
        let eb = self.elem_bytes(&r.array);
        let involves_inner =
            r.index.affine().involves(&self.innermost_var) || r.index.is_indirect();
        if involves_inner {
            u64::from(self.unroll) * eb
        } else {
            eb
        }
    }

    fn make_read(&mut self, r: &ArrayRef) -> Result<MdfgNodeId, CompileError> {
        // Affine reads resolve through their window/coefficient cluster:
        // the cluster's representative ref defines the stream.
        let (key, rep, window_span) = match &r.index {
            IndexExpr::Affine(e) => {
                match self
                    .clusters
                    .get(&(r.array.clone(), var_part(e), e.constant_term()))
                    .cloned()
                {
                    Some(c) => {
                        let rep_e = e.clone().offset(c.min_const - e.constant_term());
                        (c.key, ArrayRef::affine(r.array.clone(), rep_e), c.span)
                    }
                    None => (ref_key(r, false), r.clone(), 1),
                }
            }
            IndexExpr::Indirect { .. } => (ref_key(r, false), r.clone(), 1),
        };
        if let Some(id) = self.read_streams.get(&key) {
            return Ok(*id);
        }
        let r = &rep;
        let an = analyze_ref(self.kernel, r, false);
        let extra = (window_span - 1).max(0) as u64 * self.elem_bytes(&r.array);
        let mut stream = StreamNode::read(r.array.clone(), self.firing_bytes(r) + extra, an.reuse)
            .with_pattern(an.pattern, an.dims);
        if self.kernel.nest().has_variable_trip() {
            stream = stream.with_variable_tc();
        }
        // Broadcast-pathology kernels replicate indirect gather targets to
        // every tile (the ellpack outlier).
        if self.kernel.traits().wants_broadcast && r.index.is_indirect() {
            stream = stream.with_broadcast();
        }
        let sid = self.g.add_node(MdfgNode::InputStream(stream));
        let aid = self.ensure_array(&r.array);
        self.g.add_edge(aid, sid).map_err(Self::err)?;
        // Indirect: the index array is itself read by a linear stream.
        if let IndexExpr::Indirect { index_array, .. } = &r.index {
            let idx_ref = ArrayRef::affine(index_array.clone(), r.index.affine().clone());
            let ikey = ref_key(&idx_ref, false);
            if !self.read_streams.contains_key(&ikey) {
                let ian = analyze_ref(self.kernel, &idx_ref, false);
                let istream =
                    StreamNode::read(index_array.clone(), self.firing_bytes(&idx_ref), ian.reuse)
                        .with_pattern(ian.pattern, ian.dims);
                let isid = self.g.add_node(MdfgNode::InputStream(istream));
                let iaid = self.ensure_array(index_array);
                self.g.add_edge(iaid, isid).map_err(Self::err)?;
                // The index stream feeds the target stream's indirect
                // request generator.
                self.g.add_edge(isid, sid).map_err(Self::err)?;
                self.read_streams.insert(ikey, isid);
            }
        }
        self.read_streams.insert(key, sid);
        Ok(sid)
    }

    /// Build instruction nodes for an expression tree. Returns the
    /// producing node id, or `None` for constant subtrees.
    fn build_expr(
        &mut self,
        e: &Expr,
        dtype: DataType,
        lanes: u32,
    ) -> Result<Option<MdfgNodeId>, CompileError> {
        match e {
            Expr::Const(_) => Ok(None),
            Expr::Load(r) => Ok(Some(self.make_read(r)?)),
            Expr::Unary { op, arg } => {
                let a = self.build_expr(arg, dtype, lanes)?;
                let node = self
                    .g
                    .add_node(MdfgNode::Inst(InstNode::new(*op, dtype, lanes)));
                if let Some(a) = a {
                    self.g.add_edge(a, node).map_err(Self::err)?;
                }
                Ok(Some(node))
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = self.build_expr(lhs, dtype, lanes)?;
                let r = self.build_expr(rhs, dtype, lanes)?;
                if l.is_none() && r.is_none() {
                    return Ok(None);
                }
                let node = self
                    .g
                    .add_node(MdfgNode::Inst(InstNode::new(*op, dtype, lanes)));
                for src in [l, r].into_iter().flatten() {
                    self.g.add_edge(src, node).map_err(Self::err)?;
                }
                Ok(Some(node))
            }
        }
    }
}

/// Lower a kernel into a memory-enhanced dataflow graph (paper Figure 3's
/// "Decoupled-Spatial Compiler" step plus §IV-B memory enhancement).
///
/// # Errors
///
/// Returns [`CompileError::NotConfigured`] when the kernel lacks the
/// `config` pragma, [`CompileError::BadUnroll`] for a zero or oversized
/// unroll degree, and [`CompileError::Graph`] for internal construction
/// failures (a bug).
pub fn lower(kernel: &Kernel, variant: u32, choices: &LowerChoices) -> Result<Mdfg, CompileError> {
    if !kernel.pragmas().config {
        return Err(CompileError::NotConfigured);
    }
    let innermost = kernel
        .nest()
        .innermost()
        .ok_or(CompileError::Graph("empty nest".into()))?;
    let u = choices.unroll;
    if u == 0 || u as u64 > innermost.trip.max() {
        return Err(CompileError::BadUnroll { unroll: u });
    }

    let mut g = Mdfg::new(kernel.name(), variant);
    g.set_unroll(u);
    g.set_total_iterations(kernel.nest().total_iterations());
    g.set_sequential(kernel.traits().cross_iteration);

    let mut ctx = LowerCtx {
        clusters: build_clusters(kernel),
        kernel,
        g,
        unroll: u,
        innermost_var: innermost.var.clone(),
        arrays: BTreeMap::new(),
        read_streams: BTreeMap::new(),
        write_streams: BTreeMap::new(),
    };

    let dtype = kernel.dtype();
    let lanes = dtype.subword_lanes().min(u);
    let groups = u.div_ceil(lanes).max(1);

    for stmt in kernel.body() {
        let mut group_values: Vec<MdfgNodeId> = Vec::new();

        for _group in 0..groups {
            let v = ctx.build_expr(&stmt.value, dtype, lanes)?;
            let v = match v {
                Some(id) => id,
                // Pure-constant statement: values come from a generate
                // stream (empty array name = generate engine).
                None => ctx.g.add_node(MdfgNode::InputStream(StreamNode::read(
                    "",
                    u64::from(lanes) * dtype.bytes(),
                    ReuseInfo::default(),
                ))),
            };
            let v = if stmt.guarded {
                // Predicated execution through the control lookup table.
                let sel = ctx
                    .g
                    .add_node(MdfgNode::Inst(InstNode::new(Op::Select, dtype, lanes)));
                ctx.g.add_edge(v, sel).map_err(LowerCtx::err)?;
                sel
            } else {
                v
            };
            group_values.push(v);
        }

        let dst = stmt.dst.clone();
        let dst_involves_inner = dst.index.affine().involves(&ctx.innermost_var);

        // Cross-group reduction when the destination is not vectorized.
        let final_values = if !dst_involves_inner && group_values.len() > 1 {
            let mut acc = group_values[0];
            for &v in &group_values[1..] {
                let red = ctx
                    .g
                    .add_node(MdfgNode::Inst(InstNode::new(Op::Add, dtype, lanes)));
                ctx.g.add_edge(acc, red).map_err(LowerCtx::err)?;
                ctx.g.add_edge(v, red).map_err(LowerCtx::err)?;
                acc = red;
            }
            vec![acc]
        } else {
            group_values
        };

        // Write stream (dedup).
        let wkey = ref_key(&dst, true);
        let wid = if let Some(id) = ctx.write_streams.get(&wkey) {
            *id
        } else {
            let wan = analyze_ref(kernel, &dst, true);
            let stream = StreamNode::write(dst.array.clone(), ctx.firing_bytes(&dst), wan.reuse)
                .with_pattern(wan.pattern, wan.dims);
            let id = ctx.g.add_node(MdfgNode::OutputStream(stream));
            let aid = ctx.ensure_array(&dst.array);
            ctx.g.add_edge(id, aid).map_err(LowerCtx::err)?;
            ctx.write_streams.insert(wkey, id);
            id
        };

        if stmt.accumulate {
            let rec = recurrence_of(kernel, &dst);
            let use_rec = choices.use_recurrence && rec.is_some_and(|r| r.concurrent <= 4096);
            let rkey = ref_key(&dst, false);
            let rid = if let Some(id) = ctx.read_streams.get(&rkey) {
                *id
            } else {
                let mut ran = analyze_ref(kernel, &dst, false);
                if use_rec {
                    ran.reuse.recurrent = rec;
                }
                let stream = StreamNode::read(dst.array.clone(), ctx.firing_bytes(&dst), ran.reuse)
                    .with_pattern(ran.pattern, ran.dims);
                let id = ctx.g.add_node(MdfgNode::InputStream(stream));
                if use_rec {
                    // Recurrence pair: write stream feeds the read stream
                    // directly, bypassing memory.
                    ctx.g.add_edge(wid, id).map_err(LowerCtx::err)?;
                } else {
                    let aid = ctx.ensure_array(&dst.array);
                    ctx.g.add_edge(aid, id).map_err(LowerCtx::err)?;
                }
                ctx.read_streams.insert(rkey, id);
                id
            };
            for v in final_values {
                let add = ctx
                    .g
                    .add_node(MdfgNode::Inst(InstNode::new(Op::Add, dtype, lanes)));
                ctx.g.add_edge(v, add).map_err(LowerCtx::err)?;
                ctx.g.add_edge(rid, add).map_err(LowerCtx::err)?;
                ctx.g.add_edge(add, wid).map_err(LowerCtx::err)?;
            }
        } else {
            for v in final_values {
                ctx.g.add_edge(v, wid).map_err(LowerCtx::err)?;
            }
        }
    }

    let mut g = ctx.g;
    refine_placements(&mut g, choices.spad_cap_bytes);
    g.validate().map_err(LowerCtx::err)?;
    Ok(g)
}

/// Set each array node's placement preference from the best scratchpad
/// benefit among its read streams.
fn refine_placements(g: &mut Mdfg, spad_cap_bytes: u64) {
    use overgen_mdfg::MdfgNodeKind;
    let arrays = g.nodes_of_kind(MdfgNodeKind::Array);
    for aid in arrays {
        let mut benefit = 1.0f64;
        for &sid in g.succs(aid) {
            if let Some(s) = g.node(sid).and_then(MdfgNode::as_stream) {
                benefit = benefit.max(s.reuse.scratchpad_benefit());
            }
        }
        let size = g
            .node(aid)
            .and_then(MdfgNode::as_array)
            .map(|a| a.size_bytes)
            .unwrap_or(0);
        let pref = placement_pref(benefit, size, spad_cap_bytes);
        if let Some(MdfgNode::Array(a)) = g.node_mut(aid) {
            a.pref = pref;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overgen_ir::{expr, KernelBuilder, Suite};
    use overgen_mdfg::MdfgNodeKind;

    fn fir() -> Kernel {
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
    fn fir_unroll4_shape() {
        let g = lower(
            &fir(),
            0,
            &LowerChoices {
                unroll: 4,
                ..Default::default()
            },
        )
        .unwrap();
        // f64: lanes = 1, groups = 4 -> 4 muls, 4 accumulate adds
        assert_eq!(g.count_op(Op::Mul), 4);
        assert_eq!(g.count_op(Op::Add), 4);
        // streams: read a, read b, read c (recurrence), write c
        assert_eq!(g.input_stream_count(), 3);
        assert_eq!(g.output_stream_count(), 1);
        assert_eq!(g.array_count(), 3);
        assert_eq!(g.unroll(), 4);
        g.validate().unwrap();
    }

    #[test]
    fn fir_recurrence_pair_exists() {
        let g = lower(
            &fir(),
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let has_rec_edge = g.edges().any(|(s, d)| {
            g.node(s).unwrap().kind() == MdfgNodeKind::OutputStream
                && g.node(d).unwrap().kind() == MdfgNodeKind::InputStream
        });
        assert!(has_rec_edge);
    }

    #[test]
    fn fir_no_recurrence_variant_roundtrips_memory() {
        let g = lower(
            &fir(),
            1,
            &LowerChoices {
                unroll: 2,
                use_recurrence: false,
                ..Default::default()
            },
        )
        .unwrap();
        let has_rec_edge = g.edges().any(|(s, d)| {
            g.node(s).unwrap().kind() == MdfgNodeKind::OutputStream
                && g.node(d).unwrap().kind() == MdfgNodeKind::InputStream
        });
        assert!(!has_rec_edge);
        g.validate().unwrap();
    }

    #[test]
    fn subword_simd_folds_lanes() {
        let k = KernelBuilder::new("scale", Suite::Vision, DataType::I16)
            .array_input("a", 1024)
            .array_output("c", 1024)
            .loop_const("i", 1024)
            .assign(
                "c",
                expr::idx("i"),
                expr::load("a", expr::idx("i")) * expr::lit(3.0),
            )
            .build()
            .unwrap();
        let g = lower(
            &k,
            0,
            &LowerChoices {
                unroll: 16,
                ..Default::default()
            },
        )
        .unwrap();
        // i16 -> 4 lanes; 16 unroll -> 4 groups -> 4 mul nodes of 4 lanes
        assert_eq!(g.count_op(Op::Mul), 4);
        let scalar_muls: u32 = g
            .nodes()
            .filter_map(|(_, n)| n.as_inst())
            .filter(|i| i.op == Op::Mul)
            .map(|i| i.lanes)
            .sum();
        assert_eq!(scalar_muls, 16);
    }

    #[test]
    fn stationary_operand_gets_scalar_stream() {
        let g = lower(
            &fir(),
            0,
            &LowerChoices {
                unroll: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let b_stream = g
            .nodes()
            .find_map(|(_, n)| match n {
                MdfgNode::InputStream(s) if s.array == "b" => Some(s.clone()),
                _ => None,
            })
            .unwrap();
        // b[j] does not involve the innermost loop: one element per firing
        assert_eq!(b_stream.bytes_per_firing, 8);
        assert_eq!(b_stream.reuse.stationary, 32.0);
        let a_stream = g
            .nodes()
            .find_map(|(_, n)| match n {
                MdfgNode::InputStream(s) if s.array == "a" => Some(s.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(a_stream.bytes_per_firing, 4 * 8);
    }

    #[test]
    fn indirect_creates_index_stream() {
        let k = KernelBuilder::new("gather", Suite::MachSuite, DataType::F64)
            .array_input("val", 2048)
            .array_input("col", 512)
            .array_output("y", 512)
            .loop_const("i", 512)
            .accum(
                "y",
                expr::idx("i"),
                expr::load_indirect("val", "col", expr::idx("i")),
            )
            .build()
            .unwrap();
        let g = lower(
            &k,
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(g.input_stream_count() >= 3);
        let val_stream = g
            .nodes()
            .find_map(|(_, n)| match n {
                MdfgNode::InputStream(s) if s.array == "val" => Some(s.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(val_stream.pattern, overgen_mdfg::StreamPattern::Indirect);
    }

    #[test]
    fn bad_unroll_rejected() {
        assert!(matches!(
            lower(
                &fir(),
                0,
                &LowerChoices {
                    unroll: 0,
                    ..Default::default()
                }
            ),
            Err(CompileError::BadUnroll { .. })
        ));
        assert!(matches!(
            lower(
                &fir(),
                0,
                &LowerChoices {
                    unroll: 64,
                    ..Default::default()
                }
            ),
            Err(CompileError::BadUnroll { .. })
        ));
    }

    #[test]
    fn reduction_when_dst_not_vectorized() {
        // dot product: c[0] += a[i] * b[i]
        let k = KernelBuilder::new("dot", Suite::Dsp, DataType::F64)
            .array_input("a", 128)
            .array_input("b", 128)
            .array_output("c", 1)
            .loop_const("i", 128)
            .accum(
                "c",
                expr::idx_const(0),
                expr::load("a", expr::idx("i")) * expr::load("b", expr::idx("i")),
            )
            .build()
            .unwrap();
        let g = lower(
            &k,
            0,
            &LowerChoices {
                unroll: 4,
                ..Default::default()
            },
        )
        .unwrap();
        // 4 muls + 3 reduction adds + 1 accumulate add
        assert_eq!(g.count_op(Op::Mul), 4);
        assert_eq!(g.count_op(Op::Add), 4);
    }

    #[test]
    fn pure_copy_stream_to_stream() {
        let k = KernelBuilder::new("copy", Suite::Vision, DataType::I16)
            .array_input("a", 1024)
            .array_output("c", 1024)
            .loop_const("i", 1024)
            .assign("c", expr::idx("i"), expr::load("a", expr::idx("i")))
            .build()
            .unwrap();
        let g = lower(
            &k,
            0,
            &LowerChoices {
                unroll: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(g.inst_count(), 0);
        assert_eq!(g.input_stream_count(), 1);
        assert_eq!(g.output_stream_count(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn spad_preference_for_high_reuse_array() {
        let g = lower(
            &fir(),
            0,
            &LowerChoices {
                unroll: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let a_pref = g
            .nodes()
            .find_map(|(_, n)| match n {
                MdfgNode::Array(a) if a.name == "a" => Some(a.pref),
                _ => None,
            })
            .unwrap();
        // a has ~64x general reuse, none captured stationary -> spad
        assert_eq!(a_pref, MemPref::PreferSpad);
        let b_pref = g
            .nodes()
            .find_map(|(_, n)| match n {
                MdfgNode::Array(a) if a.name == "b" => Some(a.pref),
                _ => None,
            })
            .unwrap();
        // b's reuse is mostly captured at the port: residual benefit (4x
        // across the io loop) is not enough to demand a scratchpad.
        assert_ne!(b_pref, MemPref::PreferSpad);
    }

    #[test]
    fn guarded_statement_adds_select() {
        let k = KernelBuilder::new("guarded", Suite::MachSuite, DataType::I64)
            .array_input("a", 64)
            .array_output("c", 64)
            .loop_const("i", 64)
            .stmt(
                overgen_ir::Stmt::assign(
                    overgen_ir::ArrayRef::affine("c", expr::idx("i")),
                    expr::load("a", expr::idx("i")),
                )
                .with_guard(),
            )
            .build()
            .unwrap();
        let g = lower(
            &k,
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(g.count_op(Op::Select), 2);
    }
}
