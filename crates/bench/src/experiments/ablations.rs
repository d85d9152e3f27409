//! Ablation studies beyond the paper's figures (called out in DESIGN.md):
//!
//! 1. the stream-table **one-hot bypass** (Figure 11's microarchitecture
//!    claim) measured end-to-end on real workloads;
//! 2. **reuse-aware array placement** vs. forcing every array through the
//!    DMA (the value of spatial memories, §IV);
//! 3. the **MLP resource model** vs. the analytic oracle mean on a real
//!    overlay's components.

use overgen::Overlay;
use overgen_model::dataset::MlpResourceModel;
use overgen_model::{estimate_ipc, features_of, AnalyticModel, Placement, ResourceModel};
use overgen_sim::SimConfig;
use overgen_workloads as workloads;

use crate::table::{ratio, Table};

/// All three ablations, rendered as one report.
pub fn render() -> String {
    format!(
        "Ablation 1: stream-table one-hot bypass (Figure 11, end-to-end)\n\n{}\
         Ablation 2: reuse-aware array placement (value of spatial memories)\n\n{}\
         Ablation 3: MLP vs analytic resource model\n\n{}",
        one_hot_bypass(),
        placement_value(),
        mlp_vs_analytic(),
    )
}

/// One-hot bypass ablation: cycles without / with the bypass per workload
/// on the General Overlay.
pub fn one_hot_bypass() -> Table {
    let overlay = Overlay::general();
    let mut t = Table::new(["workload", "bypass off/on cycles"]);
    for k in workloads::all() {
        let Ok(app) = overlay.compile(&k) else {
            continue;
        };
        let on = overlay.execute_with(&app, &SimConfig::default());
        let off = overlay.execute_with(
            &app,
            &SimConfig {
                one_hot_bypass: false,
                ..Default::default()
            },
        );
        t.row([
            k.name().to_string(),
            ratio(off.cycles as f64 / on.cycles as f64),
        ]);
    }
    t
}

/// Reuse-aware placement ablation: estimated IPC with the scheduler's
/// placement vs. everything-through-DMA.
pub fn placement_value() -> Table {
    let overlay = Overlay::general();
    let mut t = Table::new(["workload", "placed ipc", "all-DMA ipc", "gain"]);
    for k in workloads::all() {
        let Ok(app) = overlay.compile(&k) else {
            continue;
        };
        let spad_bw: f64 = overlay
            .sys_adg
            .adg
            .nodes()
            .filter_map(|(_, n)| n.as_spad().map(|s| f64::from(s.bw_bytes)))
            .sum();
        let with = estimate_ipc(
            &app.mdfg,
            &overlay.sys_adg.sys,
            spad_bw,
            &app.schedule.placement,
        );
        let without = estimate_ipc(
            &app.mdfg,
            &overlay.sys_adg.sys,
            spad_bw,
            &Placement::default(),
        );
        t.row([
            k.name().to_string(),
            format!("{:.1}", with.ipc),
            format!("{:.1}", without.ipc),
            ratio(with.ipc / without.ipc.max(1e-9)),
        ]);
    }
    t
}

/// MLP vs. analytic resource model on the General Overlay's components.
pub fn mlp_vs_analytic() -> String {
    let model = MlpResourceModel::train_default(13);
    let overlay = Overlay::general();
    let mut mlp_lut = 0.0;
    let mut true_lut = 0.0;
    for (id, _) in overlay.sys_adg.adg.nodes() {
        if let Some(f) = features_of(&overlay.sys_adg.adg, id) {
            mlp_lut += model.component(&f).lut;
            true_lut += AnalyticModel.component(&f).lut;
        }
    }
    format!(
        "MLP predicts {:.0} accelerator LUTs vs analytic {:.0} ({:+.1}%)\n",
        mlp_lut,
        true_lut,
        100.0 * (mlp_lut - true_lut) / true_lut
    )
}
