//! Variant pre-generation (paper §V-A): instead of recompiling during DSE,
//! the compiler emits a set of mDFGs per region using different
//! transformations; the DSE keeps them all and uses whichever schedules.

use overgen_ir::Kernel;
use overgen_mdfg::Mdfg;
use overgen_telemetry::{event, span};

use crate::lower::{KernelAnalysis, LowerChoices};
use crate::CompileError;

/// Options controlling variant generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Maximum innermost unroll degree to attempt (powers of two down to 1
    /// are generated).
    pub max_unroll: u32,
    /// Also emit non-recurrence variants of accumulating kernels (the
    /// "use a recurrence stream instead of accumulation" toggle of §V-A).
    pub include_no_recurrence: bool,
    /// Scratchpad capacity assumed when computing placement preferences.
    pub spad_cap_bytes: u64,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            max_unroll: 16,
            include_no_recurrence: true,
            spad_cap_bytes: 256 * 1024,
        }
    }
}

/// Compile a kernel into its pre-generated mDFG variants, most aggressive
/// (widest) first. Variant indices are assigned in order. The kernel is
/// analysed once and every variant lowered from that one analysis.
///
/// # Errors
///
/// Propagates lowering failures; succeeds with at least the unroll-1
/// variant for any valid kernel.
pub fn compile_variants(kernel: &Kernel, opts: &CompileOptions) -> Result<Vec<Mdfg>, CompileError> {
    let _span = span!(
        "compiler.variants",
        kernel = kernel.name(),
        max_unroll = opts.max_unroll,
    );
    let innermost_trip = kernel.nest().innermost().map(|l| l.trip.max()).unwrap_or(1);
    let mut degrees = Vec::new();
    let mut u = opts.max_unroll.max(1);
    // Round down to a power of two within the trip count.
    while u as u64 > innermost_trip {
        u /= 2;
    }
    let mut p = 1u32;
    while p <= u {
        degrees.push(p);
        p *= 2;
    }
    degrees.reverse(); // widest first

    let has_accum = kernel.body().iter().any(|s| s.accumulate);
    let recurrence: &[bool] = if has_accum && opts.include_no_recurrence {
        &[true, false]
    } else {
        &[true]
    };

    let analysis = KernelAnalysis::new(kernel)?;
    let mut out = Vec::new();
    for &deg in &degrees {
        for &use_recurrence in recurrence {
            out.push(analysis.lower(
                out.len() as u32,
                &LowerChoices {
                    unroll: deg,
                    use_recurrence,
                    spad_cap_bytes: opts.spad_cap_bytes,
                },
            )?);
        }
    }
    if let Some(c) = overgen_telemetry::current() {
        c.registry()
            .counter("compiler.variants")
            .add(out.len() as u64);
    }
    event!(
        "compiler.variants",
        kernel = kernel.name(),
        count = out.len(),
        widest_unroll = degrees.first().copied().unwrap_or(1),
        has_accum = has_accum,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use overgen_ir::{expr, DataType, KernelBuilder, Suite};

    fn vecadd(n: u64) -> Kernel {
        KernelBuilder::new("vecadd", Suite::Dsp, DataType::I64)
            .array_input("a", n)
            .array_input("b", n)
            .array_output("c", n)
            .loop_const("i", n)
            .assign(
                "c",
                expr::idx("i"),
                expr::load("a", expr::idx("i")) + expr::load("b", expr::idx("i")),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn widest_first_and_all_powers() {
        let vs = compile_variants(&vecadd(1024), &CompileOptions::default()).unwrap();
        let unrolls: Vec<u32> = vs.iter().map(|v| v.unroll()).collect();
        assert_eq!(unrolls, vec![16, 8, 4, 2, 1]);
    }

    #[test]
    fn unroll_capped_by_trip_count() {
        let vs = compile_variants(&vecadd(4), &CompileOptions::default()).unwrap();
        assert_eq!(vs[0].unroll(), 4);
    }

    #[test]
    fn accumulation_doubles_variants() {
        let k = KernelBuilder::new("dot", Suite::Dsp, DataType::F64)
            .array_input("a", 64)
            .array_input("b", 64)
            .array_output("c", 1)
            .loop_const("i", 64)
            .accum(
                "c",
                expr::idx_const(0),
                expr::load("a", expr::idx("i")) * expr::load("b", expr::idx("i")),
            )
            .build()
            .unwrap();
        let with = compile_variants(&k, &CompileOptions::default()).unwrap();
        let without = compile_variants(
            &k,
            &CompileOptions {
                include_no_recurrence: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(with.len(), 2 * without.len());
    }

    #[test]
    fn variant_indices_are_sequential() {
        let vs = compile_variants(&vecadd(64), &CompileOptions::default()).unwrap();
        for (i, v) in vs.iter().enumerate() {
            assert_eq!(v.variant() as usize, i);
        }
    }

    #[test]
    fn all_variants_validate() {
        for v in compile_variants(&vecadd(256), &CompileOptions::default()).unwrap() {
            v.validate().unwrap();
        }
    }
}
