//! Figure 16 (Q4): FPGA resource breakdown — overlay designs by component
//! group, and AutoDSE designs, as fractions of the XCVU9P.

use overgen_ir::Suite;
use overgen_model::{ResourceBreakdown, XCVU9P};
use overgen_workloads as workloads;

use crate::harness::{autodse, suite_overlay, workload_overlay};
use crate::table::Table;

/// One overlay design's breakdown.
#[derive(Debug, Clone)]
pub struct OverlayRow {
    /// Design label (workload name or "suite").
    pub label: String,
    /// Suite it belongs to.
    pub suite: Suite,
    /// Breakdown by component group.
    pub breakdown: ResourceBreakdown,
}

/// One AutoDSE design's resource fractions.
#[derive(Debug, Clone)]
pub struct AutoDseRow {
    /// Kernel name.
    pub label: String,
    /// LUT/FF/BRAM/DSP fractions of the device.
    pub fracs: [f64; 4],
}

/// Run: per-workload + suite overlays for one suite (whole-paper sweep is
/// expensive; [`render_all`] loops suites).
pub fn run_suite(suite: Suite) -> (Vec<OverlayRow>, Vec<AutoDseRow>) {
    let mut overlays = Vec::new();
    for k in workloads::suite(suite) {
        let o = workload_overlay(&k);
        overlays.push(OverlayRow {
            label: k.name().to_string(),
            suite,
            breakdown: o.resources(),
        });
    }
    let o = suite_overlay(suite);
    overlays.push(OverlayRow {
        label: "suite".into(),
        suite,
        breakdown: o.resources(),
    });

    let autodse_rows = workloads::suite(suite)
        .iter()
        .map(|k| {
            let r = autodse(k.name(), true, 1).expect("autodse runs");
            let u = XCVU9P.utilization(&r.best.resources);
            AutoDseRow {
                label: k.name().to_string(),
                fracs: [u.lut, u.ff, u.bram, u.dsp],
            }
        })
        .collect();
    (overlays, autodse_rows)
}

/// The whole figure: every suite's section, in [`Suite::ALL`] order.
pub fn render_all() -> String {
    let mut out = String::new();
    for suite in Suite::ALL {
        let (ov, hls) = run_suite(suite);
        out.push_str(&render(suite, &ov, &hls));
    }
    out
}

/// Render one suite's figure section.
pub fn render(suite: Suite, overlays: &[OverlayRow], hls: &[AutoDseRow]) -> String {
    let mut t = Table::new([
        "design", "lut%", "ff%", "bram%", "dsp%", "pe%", "n/w%", "vp%", "spad%", "dma%", "core%",
        "noc%",
    ]);
    for r in overlays {
        let total = r.breakdown.total();
        let u = XCVU9P.utilization(&total);
        let lut_frac =
            |x: overgen_model::Resources| format!("{:.1}", 100.0 * x.lut / XCVU9P.total.lut);
        t.row([
            r.label.clone(),
            format!("{:.1}", u.lut * 100.0),
            format!("{:.1}", u.ff * 100.0),
            format!("{:.1}", u.bram * 100.0),
            format!("{:.1}", u.dsp * 100.0),
            lut_frac(r.breakdown.pe),
            lut_frac(r.breakdown.network),
            lut_frac(r.breakdown.ports),
            lut_frac(r.breakdown.spad),
            lut_frac(r.breakdown.dma),
            lut_frac(r.breakdown.core),
            lut_frac(r.breakdown.noc),
        ]);
    }
    let mut h = Table::new(["AutoDSE design", "lut%", "ff%", "bram%", "dsp%"]);
    for r in hls {
        h.row([
            r.label.clone(),
            format!("{:.1}", r.fracs[0] * 100.0),
            format!("{:.1}", r.fracs[1] * 100.0),
            format!("{:.1}", r.fracs[2] * 100.0),
            format!("{:.1}", r.fracs[3] * 100.0),
        ]);
    }
    format!(
        "Figure 16 ({suite}): FPGA resource breakdown\n\n(a) Overlay designs \
         (component columns are % of device LUTs)\n{t}\n(b) AutoDSE designs (kernel-tuned)\n{h}\n"
    )
}
