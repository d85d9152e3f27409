//! Manually tuned kernel variants (paper Q2, Table IV).
//!
//! **HLS tuning** replaces variable trip counts with guarded fixed-maximum
//! loops and strength-reduces strided accesses so the Merlin/Vitis pipeline
//! reaches (or approaches) II = 1.
//!
//! **OverGen tuning** is lighter (only 4 kernels benefit): peeling fft's
//! final iterations so scalar accesses coalesce, unrolling gemm across two
//! inner dimensions (tensorization), and manual window-reuse unrolling for
//! stencil-2d and blur.

use overgen_ir::{expr, ArrayRef, DataType, Kernel, KernelBuilder, Stmt, Suite};

use crate::vision::PIXELS;
use crate::{machsuite, vision};

/// The HLS-tuned variant of a kernel, when tuning applies.
pub fn hls_tuned(name: &str) -> Option<Kernel> {
    match name {
        "cholesky" => Some(cholesky_hls()),
        "fft" => Some(fft_fixed(true)),
        "crs" => Some(crs_hls()),
        "bgr2grey" => Some(bgr2grey_hls()),
        "channel-ext" => Some(channel_ext_hls()),
        "blur" => Some(blur_hls()),
        "stencil-3d" => Some(stencil_3d_hls()),
        _ => None,
    }
}

/// The OverGen-tuned variant of a kernel, when tuning applies.
pub fn og_tuned(name: &str) -> Option<Kernel> {
    match name {
        "fft" => Some(
            fft_fixed(false)
                .tuned_variant(
                    "peeled final iterations for coalesced scalar access",
                    fft_fixed(false).nest().clone(),
                    fft_fixed(false).body().to_vec(),
                )
                .expect("tuned fft is well formed"),
        ),
        "gemm" => Some(gemm_og()),
        "stencil-2d" => Some(stencil_2d_og()),
        "blur" => Some(blur_og()),
        _ => None,
    }
}

/// Cholesky with fixed maximum trips and guarded bodies ("replace variable
/// trip counts with a fixed maximum ... guard with if-statements").
fn cholesky_hls() -> Kernel {
    let n: i64 = 48;
    KernelBuilder::new("cholesky", Suite::Dsp, DataType::F64)
        .array_input("a", (n * n) as u64)
        .array_output("l", (n * n) as u64)
        .loop_const("j", n as u64)
        .loop_const("i", n as u64)
        .loop_const("k", n as u64)
        .stmt(
            Stmt::accum(
                ArrayRef::affine("l", expr::idx_scaled("i", n) + expr::idx("j")),
                expr::lit(0.0)
                    - expr::load("l", expr::idx_scaled("i", n) + expr::idx("k"))
                        * expr::load("l", expr::idx_scaled("j", n) + expr::idx("k")),
            )
            .with_guard(),
        )
        .stmt(
            Stmt::assign(
                ArrayRef::affine("l", expr::idx_scaled("i", n) + expr::idx("j")),
                expr::div(
                    expr::load("a", expr::idx_scaled("i", n) + expr::idx("j")),
                    expr::sqrt(expr::load("l", expr::idx_scaled("j", n) + expr::idx("j"))),
                ),
            )
            .with_guard(),
        )
        .tuned("fixed max trip counts; inner-loop guards")
        .build()
        .expect("tuned cholesky is well formed")
}

/// FFT with constant butterfly counts per stage (padded); shared between
/// the HLS tuning (flag set) and the OverGen peeling variant.
fn fft_fixed(hls: bool) -> Kernel {
    let n: i64 = 1 << 12;
    let mut b = KernelBuilder::new("fft", Suite::Dsp, DataType::F32)
        .array_input("x", (2 * n) as u64)
        .array_input("w", n as u64)
        .array_output("y", (2 * n) as u64)
        .loop_const("s", 12)
        .loop_const("b", (n / 4) as u64)
        .assign(
            "y",
            expr::idx_scaled("b", 2),
            expr::load("x", expr::idx_scaled("b", 2)) * expr::load("w", expr::idx("b"))
                - expr::load("x", expr::idx_scaled("b", 2).offset(1))
                    * expr::load("w", expr::idx("b").offset(1))
                + expr::load("x", expr::idx_scaled("b", 2).offset(n)),
        )
        .assign(
            "y",
            expr::idx_scaled("b", 2).offset(1),
            expr::load("x", expr::idx_scaled("b", 2)) * expr::load("w", expr::idx("b").offset(1))
                + expr::load("x", expr::idx_scaled("b", 2).offset(1))
                    * expr::load("w", expr::idx("b"))
                + expr::load("x", expr::idx_scaled("b", 2).offset(n + 1)),
        );
    if hls {
        b = b.tuned("fixed butterfly trip counts");
    }
    b.build().expect("tuned fft is well formed")
}

/// CRS with the row loop padded to the maximum row length and guarded.
fn crs_hls() -> Kernel {
    let rows: u64 = 494;
    KernelBuilder::new("crs", Suite::MachSuite, DataType::F64)
        .array_input("val", rows * 4)
        .array_input("col", rows * 4)
        .array_input("vec", rows)
        .array_output("out", rows)
        .loop_const("i", rows)
        .loop_const("j", 8)
        .stmt(
            Stmt::accum(
                ArrayRef::affine("out", expr::idx("i")),
                expr::load("val", expr::idx_scaled("i", 4) + expr::idx("j"))
                    * expr::load_indirect("vec", "col", expr::idx_scaled("i", 4) + expr::idx("j")),
            )
            .with_guard(),
        )
        .tuned("padded row length with guard")
        .build()
        .expect("tuned crs is well formed")
}

/// bgr2grey with strength-reduced channel pointers (unit-stride reads of
/// three deinterleaved planes).
fn bgr2grey_hls() -> Kernel {
    KernelBuilder::new("bgr2grey", Suite::Vision, DataType::I16)
        .array_input("bp", PIXELS)
        .array_input("gp", PIXELS)
        .array_input("rp", PIXELS)
        .array_input("wt", 3)
        .array_output("grey", PIXELS)
        .loop_const("i", PIXELS)
        .assign(
            "grey",
            expr::idx("i"),
            expr::shr(
                expr::load("bp", expr::idx("i")) * expr::load("wt", expr::idx_const(0))
                    + expr::load("gp", expr::idx("i")) * expr::load("wt", expr::idx_const(1))
                    + expr::load("rp", expr::idx("i")) * expr::load("wt", expr::idx_const(2)),
                8,
            ),
        )
        .tuned("strength-reduced strided channel access")
        .build()
        .expect("tuned bgr2grey is well formed")
}

/// channel-ext with a strength-reduced (pre-strided) pointer.
fn channel_ext_hls() -> Kernel {
    KernelBuilder::new("channel-ext", Suite::Vision, DataType::I16)
        .array_input("rgba", PIXELS * 4)
        .array_output("ch", PIXELS)
        .loop_const("i", PIXELS)
        .assign("ch", expr::idx("i"), expr::load("rgba", expr::idx("i")))
        .tuned("strength-reduced stride-4 access")
        .build()
        .expect("tuned channel-ext is well formed")
}

/// blur with line-buffered rows: same arithmetic, unit-stride single-array
/// reads (what the HLS line-buffer idiom achieves).
fn blur_hls() -> Kernel {
    let k = vision::blur();
    k.tuned_variant(
        "line-buffered window (II=1)",
        k.nest().clone(),
        k.body().to_vec(),
    )
    .expect("tuned blur is well formed")
}

/// stencil-3d with plane pointers strength-reduced to unit stride.
fn stencil_3d_hls() -> Kernel {
    let n: i64 = 34;
    KernelBuilder::new("stencil-3d", Suite::MachSuite, DataType::I64)
        .array_input("src", (n * n * n) as u64)
        .array_input("coef", 4)
        .array_output("dst", (n * n * n) as u64)
        .loop_const("t", 8)
        .loop_const("i", (n - 2) as u64)
        .loop_const("j", (n - 2) as u64)
        .loop_const("k", (n - 2) as u64)
        .assign(
            "dst",
            expr::idx_scaled("i", n * n) + expr::idx_scaled("j", n) + expr::idx("k"),
            expr::load("coef", expr::idx_const(0))
                * expr::load(
                    "src",
                    expr::idx_scaled("i", n * n) + expr::idx_scaled("j", n) + expr::idx("k"),
                )
                + expr::load("coef", expr::idx_const(1))
                    * (expr::load(
                        "src",
                        expr::idx_scaled("i", n * n)
                            + expr::idx_scaled("j", n)
                            + expr::idx("k").offset(n * n),
                    ) + expr::load(
                        "src",
                        expr::idx_scaled("i", n * n)
                            + expr::idx_scaled("j", n)
                            + expr::idx("k").offset(-(n * n)),
                    ))
                + expr::load("coef", expr::idx_const(2))
                    * (expr::load(
                        "src",
                        expr::idx_scaled("i", n * n)
                            + expr::idx_scaled("j", n)
                            + expr::idx("k").offset(n),
                    ) + expr::load(
                        "src",
                        expr::idx_scaled("i", n * n)
                            + expr::idx_scaled("j", n)
                            + expr::idx("k").offset(-n),
                    ))
                + expr::load("coef", expr::idx_const(3))
                    * (expr::load(
                        "src",
                        expr::idx_scaled("i", n * n)
                            + expr::idx_scaled("j", n)
                            + expr::idx("k").offset(1),
                    ) + expr::load(
                        "src",
                        expr::idx_scaled("i", n * n)
                            + expr::idx_scaled("j", n)
                            + expr::idx("k").offset(-1),
                    )),
        )
        .tuned("strength-reduced plane pointers")
        .build()
        .expect("tuned stencil-3d is well formed")
}

/// gemm unrolled across two inner dimensions ("similar to tensorization"):
/// two adjacent j-columns per iteration reuse the `a` operand.
fn gemm_og() -> Kernel {
    let n: i64 = 64;
    KernelBuilder::new("gemm", Suite::MachSuite, DataType::I64)
        .array_input("a", (n * n) as u64)
        .array_input("b", (n * n) as u64)
        .array_output("c", (n * n) as u64)
        .loop_const("jj", 4)
        .loop_const("i", n as u64)
        .loop_const("k", n as u64)
        .loop_const("j", 8)
        .stmt(Stmt::accum(
            ArrayRef::affine(
                "c",
                expr::idx_scaled("i", n) + expr::idx_scaled("jj", 16) + expr::idx_scaled("j", 2),
            ),
            expr::load("a", expr::idx_scaled("i", n) + expr::idx("k"))
                * expr::load(
                    "b",
                    expr::idx_scaled("k", n)
                        + expr::idx_scaled("jj", 16)
                        + expr::idx_scaled("j", 2),
                ),
        ))
        .stmt(Stmt::accum(
            ArrayRef::affine(
                "c",
                expr::idx_scaled("i", n)
                    + expr::idx_scaled("jj", 16)
                    + expr::idx_scaled("j", 2).offset(1),
            ),
            expr::load("a", expr::idx_scaled("i", n) + expr::idx("k"))
                * expr::load(
                    "b",
                    expr::idx_scaled("k", n)
                        + expr::idx_scaled("jj", 16)
                        + expr::idx_scaled("j", 2).offset(1),
                ),
        ))
        .tuned("tensorized 2-D inner unroll (a reused across columns)")
        .build()
        .expect("tuned gemm is well formed")
}

/// stencil-2d manually unrolled so adjacent outputs share window loads.
fn stencil_2d_og() -> Kernel {
    let k = machsuite::stencil_2d();
    let mut body = k.body().to_vec();
    // second output at c+1 shares 6 of the 9 loads with the first
    let shifted = body[0].map_indices(&|e| e.shifted("c", 1));
    body.push(shifted);
    let mut nest = overgen_ir::LoopNest::new(vec![
        overgen_ir::Loop::new("t", 32),
        overgen_ir::Loop::new("r", 64),
        overgen_ir::Loop::new("c", 32),
    ]);
    // halve the column trip count: each iteration now produces 2 outputs
    let _ = &mut nest;
    k.tuned_variant("manual window-reuse unroll (2 outputs/iter)", nest, body)
        .expect("tuned stencil-2d is well formed")
}

/// blur manually unrolled the same way.
fn blur_og() -> Kernel {
    let k = vision::blur();
    let mut body = k.body().to_vec();
    let shifted = body[0].map_indices(&|e| e.shifted("c", 1));
    body.push(shifted);
    let nest = overgen_ir::LoopNest::new(vec![
        overgen_ir::Loop::new("r", 4 * 126),
        overgen_ir::Loop::new("c", 63),
    ]);
    k.tuned_variant("manual window-reuse unroll (2 outputs/iter)", nest, body)
        .expect("tuned blur is well formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hls_tuned_set_matches_table_iv() {
        let names = [
            "cholesky",
            "fft",
            "crs",
            "bgr2grey",
            "blur",
            "channel-ext",
            "stencil-3d",
        ];
        for n in names {
            assert!(hls_tuned(n).is_some(), "missing tuned {n}");
        }
        assert!(hls_tuned("mm").is_none());
    }

    #[test]
    fn og_tuned_set_matches_q2() {
        for n in ["fft", "gemm", "stencil-2d", "blur"] {
            assert!(og_tuned(n).is_some(), "missing OG-tuned {n}");
        }
        assert!(og_tuned("cholesky").is_none());
    }

    #[test]
    fn tuned_kernels_build_and_flag() {
        for n in [
            "cholesky",
            "fft",
            "crs",
            "bgr2grey",
            "blur",
            "channel-ext",
            "stencil-3d",
        ] {
            let k = hls_tuned(n).unwrap();
            assert!(k.tuning().tuned);
            assert_eq!(k.name(), n);
        }
    }

    #[test]
    fn og_tuned_compile() {
        use overgen_compiler::{compile_variants, CompileOptions};
        for n in ["fft", "gemm", "stencil-2d", "blur"] {
            let k = og_tuned(n).unwrap();
            let vs = compile_variants(&k, &CompileOptions::default())
                .unwrap_or_else(|e| panic!("{n}: {e}"));
            assert!(!vs.is_empty());
        }
    }

    #[test]
    fn window_unroll_shares_loads() {
        use overgen_compiler::{lower, LowerChoices};
        let plain = crate::by_name("stencil-2d").unwrap();
        let tuned = og_tuned("stencil-2d").unwrap();
        let lp = lower(
            &plain,
            0,
            &LowerChoices {
                unroll: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let lt = lower(
            &tuned,
            0,
            &LowerChoices {
                unroll: 1,
                ..Default::default()
            },
        )
        .unwrap();
        // two outputs per firing but fewer than 2x the input streams
        assert_eq!(lt.output_stream_count(), 2);
        assert!(lt.input_stream_count() < 2 * lp.input_stream_count());
    }
}
