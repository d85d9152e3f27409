use std::collections::BTreeSet;
use std::fmt;

use crate::{AffineExpr, ArrayRef, DataType, IndexExpr, Loop, LoopNest, Op, Stmt, TripCount};

/// Which benchmark suite a kernel belongs to (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Suite {
    /// Digital signal processing kernels (from REVEL).
    Dsp,
    /// MachSuite commonly-accelerated kernels.
    MachSuite,
    /// Xilinx Vitis computer-vision kernels.
    Vision,
}

impl Suite {
    /// All suites in paper order.
    pub const ALL: [Suite; 3] = [Suite::Dsp, Suite::MachSuite, Suite::Vision];
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Suite::Dsp => "dsp",
            Suite::MachSuite => "machsuite",
            Suite::Vision => "vision",
        };
        f.write_str(s)
    }
}

/// Role of an array in the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayKind {
    /// Read-only input.
    Input,
    /// Write (possibly read-modify-write) output.
    Output,
    /// Internal temporary.
    Temp,
}

/// A declared array with its element count and type.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDecl {
    /// Name referenced by [`ArrayRef`]s.
    pub name: String,
    /// Number of elements.
    pub elems: u64,
    /// Element type.
    pub dtype: DataType,
    /// Role.
    pub kind: ArrayKind,
}

impl ArrayDecl {
    /// Total size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.elems * self.dtype.bytes()
    }
}

/// The `#pragma dsa` annotations of a kernel region (paper §II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pragmas {
    /// `#pragma dsa config`: the region shares one spatial configuration.
    pub config: bool,
    /// `#pragma dsa decouple`: memory accesses under the loop are alias-free
    /// when made through different pointers, enabling decoupling.
    pub decouple: bool,
}

impl Default for Pragmas {
    fn default() -> Self {
        Pragmas {
            config: true,
            decouple: true,
        }
    }
}

/// Kernel-tuning status, used by the Q2 study (Figure 14, Table IV).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Tuning {
    /// Whether this is the manually tuned variant of the kernel.
    pub tuned: bool,
    /// Human-readable note of what the tuning did.
    pub note: String,
}

/// Structural traits of a kernel that drive the HLS initiation-interval
/// model and the outlier discussion of the evaluation (Q1/Q2).
///
/// These are *derived* from the IR by [`Kernel::traits`]; tests assert they
/// match the paper's Table IV causes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelTraits {
    /// Any loop has a data-dependent trip count (Table IV "Var. Loop TC").
    pub variable_trip_count: bool,
    /// Innermost-dimension access with stride > 1 (Table IV "Inefficient
    /// Strided Access").
    pub strided_innermost: bool,
    /// Multiple reads of one array at constant offsets of the innermost
    /// variable — a sliding window (stencils; favours HLS line buffers).
    pub sliding_window: bool,
    /// Uses indirect (gather) accesses.
    pub indirect: bool,
    /// Contains guarded statements (imperfect-nest flattening).
    pub guarded: bool,
    /// An input array is re-read identically by every tile, wanting a
    /// DRAM-to-scratchpad broadcast OverGen lacks (the `ellpack` outlier).
    pub wants_broadcast: bool,
    /// Some array is read at a *different* index shape than it is written
    /// in the same body: a cross-iteration dependence (triangular solves,
    /// factorizations). Such regions neither tile-parallelize nor pipeline
    /// at II = 1 on any target.
    pub cross_iteration: bool,
}

/// A complete kernel: the unit of compilation and the row granularity of
/// every evaluation table.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    name: String,
    suite: Suite,
    dtype: DataType,
    arrays: Vec<ArrayDecl>,
    nest: LoopNest,
    body: Vec<Stmt>,
    pragmas: Pragmas,
    tuning: Tuning,
    wants_broadcast: bool,
}

impl Kernel {
    /// Kernel name, e.g. `"fir"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Benchmark suite.
    pub fn suite(&self) -> Suite {
        self.suite
    }

    /// Primary element datatype.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Declared arrays.
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// Look up an array declaration.
    pub fn array(&self, name: &str) -> Option<&ArrayDecl> {
        self.arrays.iter().find(|a| a.name == name)
    }

    /// The loop nest, outermost first.
    pub fn nest(&self) -> &LoopNest {
        &self.nest
    }

    /// Innermost-body statements.
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }

    /// Pragma annotations.
    pub fn pragmas(&self) -> Pragmas {
        self.pragmas
    }

    /// Tuning status.
    pub fn tuning(&self) -> &Tuning {
        &self.tuning
    }

    /// Total bytes moved if every innermost iteration touched memory once
    /// per reference (upper bound used in table reporting).
    pub fn total_iterations(&self) -> f64 {
        self.nest.total_iterations()
    }

    /// All array reads in the body.
    pub fn reads(&self) -> Vec<&ArrayRef> {
        self.body.iter().flat_map(|s| s.reads()).collect()
    }

    /// All array writes in the body.
    pub fn writes(&self) -> Vec<&ArrayRef> {
        self.body.iter().map(|s| s.write()).collect()
    }

    /// Count of arithmetic operations of `op` across the body (one unrolled
    /// iteration), counting the implied add of accumulations.
    pub fn count_op(&self, op: Op) -> usize {
        self.body
            .iter()
            .map(|s| s.value.count_op(op) + usize::from(op == Op::Add && s.accumulate))
            .sum()
    }

    /// Derive the structural traits of the kernel (see [`KernelTraits`]).
    pub fn traits(&self) -> KernelTraits {
        let innermost = self.nest.innermost().map(|l| l.var.clone());
        let mut strided_innermost = false;
        let mut indirect = false;
        let mut guarded = false;

        for stmt in &self.body {
            guarded |= stmt.guarded;
            for r in stmt.reads().iter().chain(std::iter::once(&stmt.write())) {
                match &r.index {
                    IndexExpr::Affine(e) => {
                        if let Some(iv) = &innermost {
                            let s = e.stride_of(iv);
                            if s.abs() > 1 {
                                strided_innermost = true;
                            }
                        }
                    }
                    IndexExpr::Indirect { .. } => indirect = true,
                }
            }
        }

        KernelTraits {
            variable_trip_count: self.nest.has_variable_trip(),
            strided_innermost,
            sliding_window: self.detect_sliding_window(),
            indirect,
            guarded,
            wants_broadcast: self.wants_broadcast,
            cross_iteration: self.detect_cross_iteration(),
        }
    }

    /// Cross-iteration dependence: an array is both written and read with
    /// *different* affine index expressions (beyond the same-cell
    /// read-modify-write of an accumulation).
    fn detect_cross_iteration(&self) -> bool {
        for w in self.writes() {
            for r in self.reads() {
                if r.array == w.array && r.index != w.index {
                    if let (IndexExpr::Affine(re), IndexExpr::Affine(we)) = (&r.index, &w.index) {
                        // Ignore pure window offsets (same variable part).
                        let same_vars =
                            re.terms().collect::<Vec<_>>() == we.terms().collect::<Vec<_>>();
                        if !same_vars {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// Sliding-window detection: some array is read at two or more distinct
    /// constant offsets along a loop variable it strides by 1 on.
    fn detect_sliding_window(&self) -> bool {
        let mut per_array: std::collections::BTreeMap<(&str, String), BTreeSet<i64>> =
            Default::default();
        for r in self.reads() {
            if let IndexExpr::Affine(e) = &r.index {
                for (v, c) in e.terms() {
                    if c == 1 {
                        per_array
                            .entry((r.array.as_str(), v.to_string()))
                            .or_default()
                            .insert(e.constant_term());
                    }
                }
            }
        }
        per_array.values().any(|offsets| offsets.len() >= 2)
    }

    /// Return a copy flagged as the tuned variant with a new body/nest.
    ///
    /// # Errors
    ///
    /// The same [`BuildError`]s as [`KernelBuilder::build`]: the new nest
    /// and body must only name declared arrays and their loop variables.
    pub fn tuned_variant(
        &self,
        note: &str,
        nest: LoopNest,
        body: Vec<Stmt>,
    ) -> Result<Kernel, BuildError> {
        Kernel {
            nest,
            body,
            tuning: Tuning {
                tuned: true,
                note: note.to_string(),
            },
            ..self.clone()
        }
        .validated()
    }

    /// The well-formedness checks every constructed kernel passes.
    fn validated(self) -> Result<Kernel, BuildError> {
        if self.body.is_empty() {
            return Err(BuildError::EmptyBody);
        }
        if self.nest.depth() == 0 {
            return Err(BuildError::EmptyNest);
        }
        let mut seen_loops = BTreeSet::new();
        for l in self.nest.loops() {
            if !seen_loops.insert(l.var.clone()) {
                return Err(BuildError::DuplicateLoopVar(l.var.clone()));
            }
        }
        let mut seen_arrays = BTreeSet::new();
        for a in &self.arrays {
            if !seen_arrays.insert(a.name.clone()) {
                return Err(BuildError::DuplicateArray(a.name.clone()));
            }
        }
        let check_ref = |r: &ArrayRef| -> Result<(), BuildError> {
            if !seen_arrays.contains(&r.array) {
                return Err(BuildError::UnknownArray(r.array.clone()));
            }
            if let IndexExpr::Indirect { index_array, .. } = &r.index {
                if !seen_arrays.contains(index_array) {
                    return Err(BuildError::UnknownArray(index_array.clone()));
                }
            }
            for (v, _) in r.index.affine().terms() {
                if !seen_loops.contains(v) {
                    return Err(BuildError::UnknownVariable(v.to_string()));
                }
            }
            Ok(())
        };
        for s in &self.body {
            check_ref(&s.dst)?;
            for r in s.value.loads() {
                check_ref(r)?;
            }
        }
        Ok(self)
    }
}

/// Errors from [`KernelBuilder::build`] and [`Kernel::tuned_variant`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The kernel body is empty.
    EmptyBody,
    /// The loop nest is empty.
    EmptyNest,
    /// A statement references an undeclared array.
    UnknownArray(String),
    /// An index uses a variable that is not a loop induction variable.
    UnknownVariable(String),
    /// Two loops share an induction-variable name.
    DuplicateLoopVar(String),
    /// Two arrays share a name.
    DuplicateArray(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::EmptyBody => write!(f, "kernel body is empty"),
            BuildError::EmptyNest => write!(f, "loop nest is empty"),
            BuildError::UnknownArray(a) => write!(f, "statement references undeclared array `{a}`"),
            BuildError::UnknownVariable(v) => {
                write!(f, "index uses `{v}` which is not a loop variable")
            }
            BuildError::DuplicateLoopVar(v) => write!(f, "duplicate loop variable `{v}`"),
            BuildError::DuplicateArray(a) => write!(f, "duplicate array `{a}`"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`Kernel`], validating references at [`build`](Self::build).
///
/// ```
/// use overgen_ir::{KernelBuilder, DataType, Suite, expr};
/// let k = KernelBuilder::new("fir", Suite::Dsp, DataType::F64)
///     .array_input("a", 255)
///     .array_input("b", 128)
///     .array_output("c", 128)
///     .loop_const("io", 4)
///     .loop_const("j", 128)
///     .loop_const("ii", 32)
///     .accum(
///         "c",
///         expr::idx_scaled("io", 32) + expr::idx("ii"),
///         expr::load("a", expr::idx_scaled("io", 32) + expr::idx("ii") + expr::idx("j"))
///             * expr::load("b", expr::idx("j")),
///     )
///     .build()?;
/// assert_eq!(k.nest().depth(), 3);
/// # Ok::<(), overgen_ir::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    name: String,
    suite: Suite,
    dtype: DataType,
    arrays: Vec<ArrayDecl>,
    nest: LoopNest,
    body: Vec<Stmt>,
    pragmas: Pragmas,
    tuning: Tuning,
    wants_broadcast: bool,
}

impl KernelBuilder {
    /// Start a kernel with a name, suite, and primary datatype.
    pub fn new(name: impl Into<String>, suite: Suite, dtype: DataType) -> Self {
        KernelBuilder {
            name: name.into(),
            suite,
            dtype,
            arrays: Vec::new(),
            nest: LoopNest::default(),
            body: Vec::new(),
            pragmas: Pragmas::default(),
            tuning: Tuning::default(),
            wants_broadcast: false,
        }
    }

    /// Declare an input array with the kernel's primary datatype.
    pub fn array_input(mut self, name: &str, elems: u64) -> Self {
        self.arrays.push(ArrayDecl {
            name: name.into(),
            elems,
            dtype: self.dtype,
            kind: ArrayKind::Input,
        });
        self
    }

    /// Declare an output array with the kernel's primary datatype.
    pub fn array_output(mut self, name: &str, elems: u64) -> Self {
        self.arrays.push(ArrayDecl {
            name: name.into(),
            elems,
            dtype: self.dtype,
            kind: ArrayKind::Output,
        });
        self
    }

    /// Declare an array with an explicit datatype and kind.
    pub fn array(mut self, name: &str, elems: u64, dtype: DataType, kind: ArrayKind) -> Self {
        self.arrays.push(ArrayDecl {
            name: name.into(),
            elems,
            dtype,
            kind,
        });
        self
    }

    /// Add a loop (outermost first) with a constant trip count.
    pub fn loop_const(mut self, var: &str, trip: u64) -> Self {
        self.nest.push(Loop::new(var, trip));
        self
    }

    /// Add a loop with a data-dependent trip count.
    pub fn loop_variable(mut self, var: &str, max: u64, expected: f64) -> Self {
        self.nest.push(Loop {
            var: var.into(),
            trip: TripCount::Variable { max, expected },
        });
        self
    }

    /// Add a plain assignment statement.
    pub fn assign(mut self, dst: &str, index: AffineExpr, value: crate::Expr) -> Self {
        self.body
            .push(Stmt::assign(ArrayRef::affine(dst, index), value));
        self
    }

    /// Add an accumulation statement `dst[index] += value`.
    pub fn accum(mut self, dst: &str, index: AffineExpr, value: crate::Expr) -> Self {
        self.body
            .push(Stmt::accum(ArrayRef::affine(dst, index), value));
        self
    }

    /// Add an arbitrary prebuilt statement.
    pub fn stmt(mut self, stmt: Stmt) -> Self {
        self.body.push(stmt);
        self
    }

    /// Override pragmas.
    pub fn pragmas(mut self, pragmas: Pragmas) -> Self {
        self.pragmas = pragmas;
        self
    }

    /// Mark the kernel as a tuned variant.
    pub fn tuned(mut self, note: &str) -> Self {
        self.tuning = Tuning {
            tuned: true,
            note: note.into(),
        };
        self
    }

    /// Flag that the kernel replicates a read-only array to every tile's
    /// scratchpad (the `ellpack` broadcast pathology).
    pub fn wants_broadcast(mut self) -> Self {
        self.wants_broadcast = true;
        self
    }

    /// Validate and build the kernel.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if the body or nest is empty, a statement
    /// references an undeclared array, an index uses a non-loop variable, or
    /// names collide.
    pub fn build(self) -> Result<Kernel, BuildError> {
        Kernel {
            name: self.name,
            suite: self.suite,
            dtype: self.dtype,
            arrays: self.arrays,
            nest: self.nest,
            body: self.body,
            pragmas: self.pragmas,
            tuning: self.tuning,
            wants_broadcast: self.wants_broadcast,
        }
        .validated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr;

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
    fn build_fir() {
        let k = fir();
        assert_eq!(k.name(), "fir");
        assert_eq!(k.arrays().len(), 3);
        assert_eq!(k.count_op(Op::Mul), 1);
        // accumulation implies an add
        assert_eq!(k.count_op(Op::Add), 1);
        assert_eq!(k.total_iterations(), (4 * 128 * 32) as f64);
    }

    #[test]
    fn traits_plain_fir() {
        let t = fir().traits();
        assert!(!t.variable_trip_count);
        assert!(!t.strided_innermost);
        assert!(!t.indirect);
    }

    #[test]
    fn rejects_unknown_array() {
        let err = KernelBuilder::new("bad", Suite::Dsp, DataType::I64)
            .array_input("a", 8)
            .loop_const("i", 8)
            .assign("zzz", expr::idx("i"), expr::load("a", expr::idx("i")))
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::UnknownArray("zzz".into()));
    }

    #[test]
    fn rejects_unknown_variable() {
        let err = KernelBuilder::new("bad", Suite::Dsp, DataType::I64)
            .array_input("a", 8)
            .array_output("c", 8)
            .loop_const("i", 8)
            .assign("c", expr::idx("i"), expr::load("a", expr::idx("q")))
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::UnknownVariable("q".into()));
    }

    #[test]
    fn rejects_empty() {
        let err = KernelBuilder::new("bad", Suite::Dsp, DataType::I64)
            .loop_const("i", 8)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::EmptyBody);
    }

    #[test]
    fn rejects_duplicates() {
        let err = KernelBuilder::new("bad", Suite::Dsp, DataType::I64)
            .array_input("a", 8)
            .array_input("a", 8)
            .loop_const("i", 8)
            .assign("a", expr::idx("i"), expr::lit(0.0))
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::DuplicateArray("a".into()));
    }

    #[test]
    fn sliding_window_detection() {
        // stencil: reads a[i-1], a[i], a[i+1]
        let k = KernelBuilder::new("stencil1d", Suite::MachSuite, DataType::I64)
            .array_input("a", 66)
            .array_output("c", 64)
            .loop_const("i", 64)
            .assign(
                "c",
                expr::idx("i"),
                expr::load("a", expr::idx("i"))
                    + expr::load("a", expr::idx("i").offset(1))
                    + expr::load("a", expr::idx("i").offset(2)),
            )
            .build()
            .unwrap();
        assert!(k.traits().sliding_window);
        assert!(!fir().traits().sliding_window);
    }

    #[test]
    fn strided_and_variable_traits() {
        let k = KernelBuilder::new("strided", Suite::Vision, DataType::I16)
            .array_input("a", 1024)
            .array_output("c", 256)
            .loop_const("i", 128)
            .loop_variable("k", 8, 4.0)
            .assign(
                "c",
                expr::idx("i"),
                expr::load("a", expr::idx_scaled("i", 4) + expr::idx("k")),
            )
            .build()
            .unwrap();
        let t = k.traits();
        assert!(t.variable_trip_count);
        // innermost is k with stride 1; i is strided but not innermost
        assert!(!t.strided_innermost);

        let k2 = KernelBuilder::new("strided2", Suite::Vision, DataType::I16)
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
        assert!(k2.traits().strided_innermost);
    }

    #[test]
    fn indirect_trait() {
        let k = KernelBuilder::new("gather", Suite::MachSuite, DataType::F64)
            .array_input("val", 1024)
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
        assert!(k.traits().indirect);
    }

    #[test]
    fn tuned_variant_flag() {
        let k = fir();
        let t = k
            .tuned_variant("peeled", k.nest().clone(), k.body().to_vec())
            .unwrap();
        assert!(t.tuning().tuned);
        assert_eq!(t.tuning().note, "peeled");
        assert!(!k.tuning().tuned);
    }

    #[test]
    fn tuned_variant_is_validated_like_build() {
        let k = fir();
        let mut body = k.body().to_vec();
        body[0].dst.array = "undeclared".into();
        assert_eq!(
            k.tuned_variant("bad", k.nest().clone(), body),
            Err(BuildError::UnknownArray("undeclared".into()))
        );
    }
}
