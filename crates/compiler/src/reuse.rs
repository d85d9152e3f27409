//! Reuse analysis (paper §IV-B): footprint, traffic, stationary and
//! recurrent reuse of each array reference.

use overgen_ir::{ArrayDecl, ArrayRef, IndexExpr, Kernel};
use overgen_mdfg::{MemPref, RecurrenceInfo, ReuseInfo, StreamPattern};

/// Full analysis result for one array reference in a kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct RefAnalysis {
    /// Reuse annotations for the stream node.
    pub reuse: ReuseInfo,
    /// Pattern classification.
    pub pattern: StreamPattern,
    /// Pattern dimensionality (distinct loop variables involved, capped 3).
    pub dims: u8,
    /// Stride along the innermost loop (0 = stationary, 1 = linear).
    pub innermost_stride: i64,
}

/// Analyse one reference of `kernel` (read or write side).
///
/// Implements the paper's three reuse patterns:
///
/// - **General**: `traffic = Π trip counts x element size`;
///   `footprint = range(index expr) x element size` (indirect accesses use
///   the whole target array, assuming uniform distribution).
/// - **Stationary**: product of trip counts of the innermost consecutive
///   loops whose variables do not appear in the index.
/// - **Recurrent**: detected by the caller for accumulations; attached via
///   [`recurrence_of`].
///
/// # Panics
///
/// If `r` names an array `kernel` does not declare (a kernel's own
/// references always name declared arrays).
pub fn analyze_ref(kernel: &Kernel, r: &ArrayRef, is_write: bool) -> RefAnalysis {
    let nest = kernel.nest();
    let elem_bytes = declared(kernel, &r.array).dtype.bytes() as f64;

    let traffic = nest.total_iterations() * elem_bytes;

    let (footprint, pattern) = match &r.index {
        IndexExpr::Affine(e) => {
            let (lo, hi) = e.value_range(&|v| nest.extent(v));
            let span = (hi - lo + 1).max(1) as f64;
            let innermost_var = nest.innermost().map(|l| l.var.as_str()).unwrap_or("");
            let stride = e.stride_of(innermost_var);
            let pattern = if stride.abs() > 1 {
                StreamPattern::Strided
            } else {
                StreamPattern::Linear
            };
            (span * elem_bytes, pattern)
        }
        IndexExpr::Indirect { .. } => {
            // Uniform-distribution assumption: footprint is the whole array.
            let arr_bytes = declared(kernel, &r.array).size_bytes() as f64;
            (arr_bytes.max(elem_bytes), StreamPattern::Indirect)
        }
    };

    // Stationary reuse: innermost consecutive loops absent from the index.
    let mut stationary = 1.0;
    if !r.index.is_indirect() {
        let e = r.index.affine();
        for l in nest.loops().iter().rev() {
            if e.involves(&l.var) {
                break;
            }
            stationary *= l.trip.expected();
        }
    }
    // A write stream cannot be stationary: every firing produces data.
    if is_write {
        stationary = 1.0;
    }

    let dims = r.index.affine().num_vars().clamp(1, 3) as u8;

    let innermost_var = nest.innermost().map(|l| l.var.as_str()).unwrap_or("");
    let innermost_stride = r.index.affine().stride_of(innermost_var);

    RefAnalysis {
        reuse: ReuseInfo {
            traffic_bytes: traffic,
            footprint_bytes: footprint,
            stationary,
            recurrent: None,
        },
        pattern,
        dims,
        innermost_stride,
    }
}

/// Recurrent-reuse parameters of an accumulation `dst[e] += ...`
/// (paper §IV-B): walking outward from the innermost loop, involved loops
/// contribute *concurrent instances* until the first uninvolved loop, which
/// is the recurrence loop and contributes the *depth*.
///
/// Returns `None` when every loop is involved (no recurrence dimension).
pub fn recurrence_of(kernel: &Kernel, r: &ArrayRef) -> Option<RecurrenceInfo> {
    let e = match &r.index {
        IndexExpr::Affine(e) => e,
        IndexExpr::Indirect { .. } => return None,
    };
    let nest = kernel.nest();
    let mut concurrent = 1u64;
    for l in nest.loops().iter().rev() {
        if e.involves(&l.var) {
            concurrent = concurrent.saturating_mul(l.trip.max());
        } else {
            return Some(RecurrenceInfo {
                concurrent,
                depth: l.trip.max(),
            });
        }
    }
    None
}

/// The declaration of an array a kernel references. Kernels are checked
/// at construction ([`overgen_ir::KernelBuilder::build`],
/// [`Kernel::tuned_variant`]), so a miss is a broken invariant, never a
/// size to guess.
pub(crate) fn declared<'k>(kernel: &'k Kernel, array: &str) -> &'k ArrayDecl {
    kernel.array(array).unwrap_or_else(|| {
        panic!(
            "array `{array}` is not declared by kernel `{}`",
            kernel.name()
        )
    })
}

/// Allocation size of an array when placed in a scratchpad: its footprint
/// plus double-buffering space (§IV-A).
pub fn array_footprint_bytes(kernel: &Kernel, array: &str) -> u64 {
    // Footprint is the max over all references of that array.
    let mut fp = 0f64;
    for r in kernel.reads().iter().chain(kernel.writes().iter()) {
        if r.array == array {
            fp = fp.max(analyze_ref(kernel, r, false).reuse.footprint_bytes);
        }
        if let IndexExpr::Indirect { index_array, .. } = &r.index {
            if index_array == array {
                fp = fp.max(declared(kernel, array).size_bytes() as f64);
            }
        }
    }
    fp as u64
}

/// Placement preference of an array given its best scratchpad benefit over
/// all its read streams.
pub fn placement_pref(benefit: f64, footprint_bytes: u64, spad_cap_bytes: u64) -> MemPref {
    if footprint_bytes == 0 || footprint_bytes > spad_cap_bytes {
        MemPref::PreferDram
    } else if benefit >= 8.0 {
        MemPref::PreferSpad
    } else if benefit > 1.5 {
        MemPref::Either
    } else {
        MemPref::PreferDram
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overgen_ir::{expr, DataType, KernelBuilder, Suite};

    /// The paper's Figure 5 tiled FIR.
    fn fir() -> Kernel {
        KernelBuilder::new("fir", Suite::Dsp, DataType::I32)
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
    fn figure5_a_traffic_and_footprint() {
        let k = fir();
        let reads = k.reads();
        let a_ref = reads.iter().find(|r| r.array == "a").unwrap();
        let ra = analyze_ref(&k, a_ref, false);
        // Traf.: 32*128*4 iterations x 4 bytes
        assert_eq!(ra.reuse.traffic_bytes, (4 * 128 * 32) as f64 * 4.0);
        // Foot.: 255 elements
        assert_eq!(ra.reuse.footprint_bytes, 255.0 * 4.0);
        // a is touched every iteration: no stationary reuse
        assert_eq!(ra.reuse.stationary, 1.0);
        assert_eq!(ra.pattern, StreamPattern::Linear);
    }

    #[test]
    fn figure5_b_stationary() {
        let k = fir();
        let reads = k.reads();
        let b_ref = reads.iter().find(|r| r.array == "b").unwrap();
        let rb = analyze_ref(&k, b_ref, false);
        // Port Reuse: 32 (innermost ii absent)
        assert_eq!(rb.reuse.stationary, 32.0);
        assert_eq!(rb.reuse.footprint_bytes, 128.0 * 4.0);
        assert_eq!(rb.innermost_stride, 0);
    }

    #[test]
    fn figure5_c_recurrence() {
        let k = fir();
        let c_ref = k.writes()[0].clone();
        let rec = recurrence_of(&k, &c_ref).unwrap();
        // 32 concurrent instances (ii), recurring along j (depth 128)
        assert_eq!(rec.concurrent, 32);
        assert_eq!(rec.depth, 128);
    }

    #[test]
    fn no_recurrence_when_all_loops_involved() {
        let k = KernelBuilder::new("copy", Suite::Dsp, DataType::I64)
            .array_input("a", 64)
            .array_output("c", 64)
            .loop_const("i", 64)
            .accum("c", expr::idx("i"), expr::load("a", expr::idx("i")))
            .build()
            .unwrap();
        assert!(recurrence_of(&k, k.writes()[0]).is_none());
    }

    #[test]
    fn indirect_footprint_is_whole_array() {
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
        let reads = k.reads();
        let v = reads.iter().find(|r| r.array == "val").unwrap();
        let rv = analyze_ref(&k, v, false);
        assert_eq!(rv.pattern, StreamPattern::Indirect);
        assert_eq!(rv.reuse.footprint_bytes, 2048.0 * 8.0);
    }

    #[test]
    fn strided_pattern_detected() {
        let k = KernelBuilder::new("strided", Suite::Vision, DataType::I16)
            .array_input("a", 1024)
            .array_output("c", 256)
            .loop_const("i", 256)
            .assign(
                "c",
                expr::idx("i"),
                expr::load("a", expr::idx_scaled("i", 4)),
            )
            .build()
            .unwrap();
        let reads = k.reads();
        let ra = analyze_ref(&k, reads[0], false);
        assert_eq!(ra.pattern, StreamPattern::Strided);
        assert_eq!(ra.innermost_stride, 4);
    }

    #[test]
    fn writes_never_stationary() {
        let k = fir();
        let c_ref = k.writes()[0].clone();
        let rc = analyze_ref(&k, &c_ref, true);
        assert_eq!(rc.reuse.stationary, 1.0);
    }

    #[test]
    fn placement_rules() {
        assert_eq!(placement_pref(64.0, 1024, 32 * 1024), MemPref::PreferSpad);
        assert_eq!(
            placement_pref(64.0, 64 * 1024, 32 * 1024),
            MemPref::PreferDram
        );
        assert_eq!(placement_pref(1.0, 1024, 32 * 1024), MemPref::PreferDram);
        assert_eq!(placement_pref(2.0, 1024, 32 * 1024), MemPref::Either);
    }

    #[test]
    fn footprint_helper_takes_max() {
        let k = fir();
        assert_eq!(array_footprint_bytes(&k, "a"), 255 * 4);
        assert_eq!(array_footprint_bytes(&k, "b"), 128 * 4);
        assert_eq!(array_footprint_bytes(&k, "c"), 128 * 4);
    }
}
