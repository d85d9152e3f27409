//! Pluggable DSE objectives: the mapping from a structured evaluation
//! report ([`EvalReport`]) to the scalar fitness the annealer optimizes.
//!
//! The paper's DSE favours "estimated performance first and
//! resources-per-accelerator second" (§V-A) under a hard FPGA budget.
//! Historically that policy was a magic inline expression in the engine;
//! it is now an enum-dispatched [`Objective`] so alternative policies —
//! hard device budgets with rejection-before-system-DSE, or area
//! efficiency as in DSP-block time-multiplexed overlays — are expressed
//! without touching the annealer. The objective is part of every
//! evaluation-cache key and of the checkpoint config hash, so two runs
//! under different objectives can never share cached fitness or resume
//! into each other (see `cache.rs` and `checkpoint.rs`).
//!
//! Three policies ship:
//!
//! * [`Objective::WeightedGeomeanIpc`] — the default, bit-identical to the
//!   pre-refactor behavior: weighted-geomean estimated IPC with a small
//!   LUT pressure term ([`GeomeanIpcWeights`]).
//! * [`Objective::ConstrainedIpc`] — hard [`DeviceBudget`] feasibility on
//!   all four of LUT/FF/BRAM/DSP. Infeasible proposals are rejected
//!   *before* scheduling and the nested system DSE run (a
//!   `dse.eval.infeasible` counter and trace event record each
//!   rejection), and admitted designs near the budget pay the budget's
//!   soft penalty.
//! * [`Objective::IpcPerLut`] — area efficiency: IPC per kilo-LUT of
//!   accelerator, for overlays where the device is shared and every LUT
//!   has an opportunity cost.

use overgen_adg::StableHasher;
use overgen_model::{ClockRegionGrid, DeviceBudget, PlacerKind, Resources};

use crate::eval::EvalReport;

/// Named calibration of the default objective's resource pressure term.
///
/// Fitness is `ipc * (1 - lut_penalty * min(lut / lut_scale, 1))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeomeanIpcWeights {
    /// Maximum fitness discount for accelerator LUT pressure. Calibrated
    /// at 5%: large enough that the annealer breaks IPC ties toward the
    /// smaller tile (which the system DSE can then replicate more often),
    /// small enough that it never outvotes a real IPC improvement.
    pub lut_penalty: f64,
    /// LUT count at which the discount saturates. Calibrated to 1e6 —
    /// roughly the XCVU9P's full LUT pool (1.18M) — so the discount
    /// reaches its cap about where a single tile would fill the device.
    pub lut_scale: f64,
}

impl Default for GeomeanIpcWeights {
    fn default() -> Self {
        GeomeanIpcWeights {
            lut_penalty: 0.05,
            lut_scale: 1.0e6,
        }
    }
}

/// Configuration of the placement-aware objective: which placer runs,
/// which grid it places onto, and how placement quality scales fitness.
///
/// Fitness is
/// `ipc * (fmax_mhz / base_mhz) * (1 - wirelength_penalty * min(wirelength / wirelength_scale, 1))`
/// where `fmax_mhz` comes from the [`PlacementReport`] and already folds
/// in congestion (through the shared clock curve) and SLR crossings, so
/// an over-congested or die-straddling design pays directly in fitness,
/// and NoC wirelength adds the same mild pressure the default objective
/// applies to LUTs.
///
/// [`PlacementReport`]: overgen_model::PlacementReport
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementObjective {
    /// The placer to run on every admitted evaluation.
    pub placer: PlacerKind,
    /// The clock-region/SLR grid to place onto.
    pub grid: ClockRegionGrid,
    /// Maximum fitness discount for NoC wirelength pressure (mirrors
    /// [`GeomeanIpcWeights::lut_penalty`]).
    pub wirelength_penalty: f64,
    /// Wirelength (clock-region hops) at which the discount saturates.
    /// Calibrated to 64 — roughly a 16-tile design with every link
    /// spanning a quarter of the VCU118 grid.
    pub wirelength_scale: f64,
    /// Reference clock dividing the placement `fmax_mhz`: at `base_mhz`
    /// the clock factor is neutral (the paper's overlays target 100 MHz).
    pub base_mhz: f64,
}

impl Default for PlacementObjective {
    fn default() -> Self {
        PlacementObjective {
            placer: PlacerKind::SimpleGrid,
            grid: ClockRegionGrid::vcu118(),
            wirelength_penalty: 0.05,
            wirelength_scale: 64.0,
            base_mhz: 100.0,
        }
    }
}

/// The fitness policy of a DSE run. See the module docs for the shipped
/// policies. Serialization (checkpoints) is keyed by [`Objective::kind`],
/// which is stable across releases.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// Weighted-geomean estimated IPC with mild LUT pressure (the
    /// default; bit-identical to the pre-pipeline engine).
    WeightedGeomeanIpc(GeomeanIpcWeights),
    /// Hard four-channel device-budget feasibility plus a soft
    /// near-budget penalty.
    ConstrainedIpc(DeviceBudget),
    /// Area efficiency: weighted-geomean IPC per kilo-LUT.
    IpcPerLut,
    /// Placement-aware IPC: every evaluation is placed onto the modeled
    /// clock-region grid and congestion, SLR crossings, and NoC
    /// wirelength scale fitness through the achievable clock.
    PlacementAware(PlacementObjective),
}

impl Default for Objective {
    fn default() -> Self {
        Objective::WeightedGeomeanIpc(GeomeanIpcWeights::default())
    }
}

impl Objective {
    /// Stable identifier, used in checkpoint headers and error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Objective::WeightedGeomeanIpc(_) => "weighted_geomean_ipc",
            Objective::ConstrainedIpc(_) => "constrained_ipc",
            Objective::IpcPerLut => "ipc_per_lut",
            Objective::PlacementAware(_) => "placement_aware",
        }
    }

    /// The placement configuration, when this objective requires the
    /// evaluation pipeline to run a placer.
    pub fn placement(&self) -> Option<&PlacementObjective> {
        match self {
            Objective::PlacementAware(p) => Some(p),
            _ => None,
        }
    }

    /// Hard feasibility gate, run on the accelerator's resource vector
    /// *before* scheduling and the nested system DSE. Returns the name of
    /// the binding channel when the proposal must be rejected.
    ///
    /// Only [`Objective::ConstrainedIpc`] rejects; the other policies
    /// admit everything (matching the pre-pipeline engine, where no
    /// proposal was ever resource-rejected).
    pub fn admit(&self, resources: &Resources) -> Result<(), &'static str> {
        match self {
            Objective::ConstrainedIpc(budget) => match budget.exceeded(resources) {
                None => Ok(()),
                Some(channel) => Err(channel),
            },
            _ => Ok(()),
        }
    }

    /// Map an evaluation report to the scalar fitness the annealer
    /// maximizes. `report.ipc` (the weighted-geomean estimated IPC) stays
    /// the run's *display* objective regardless of policy; fitness is what
    /// accept/reject, best-state, and island exchange compare.
    pub fn fitness(&self, report: &EvalReport) -> f64 {
        match self {
            Objective::WeightedGeomeanIpc(w) => {
                report.ipc * (1.0 - w.lut_penalty * (report.resources.lut / w.lut_scale).min(1.0))
            }
            Objective::ConstrainedIpc(budget) => report.ipc * budget.soft_factor(&report.resources),
            Objective::IpcPerLut => report.ipc * 1.0e3 / report.resources.lut.max(1.0),
            Objective::PlacementAware(p) => match &report.placement {
                Some(place) => {
                    report.ipc
                        * (place.fmax_mhz / p.base_mhz)
                        * (1.0
                            - p.wirelength_penalty
                                * (place.wirelength / p.wirelength_scale).min(1.0))
                }
                // Unreachable through the pipeline (a placement-aware run
                // places every admitted evaluation); score plain IPC for
                // library callers building reports by hand.
                None => report.ipc,
            },
        }
    }

    /// Fold the objective into a configuration hash (evaluation-cache
    /// keys, checkpoint cfg-hash): kind tag plus every parameter, so two
    /// objectives that score differently always hash differently.
    pub(crate) fn hash_into(&self, h: &mut StableHasher) {
        h.write_str(self.kind());
        match self {
            Objective::WeightedGeomeanIpc(w) => {
                h.write_f64(w.lut_penalty);
                h.write_f64(w.lut_scale);
            }
            Objective::ConstrainedIpc(b) => {
                h.write_str(b.name);
                h.write_f64(b.limit.lut);
                h.write_f64(b.limit.ff);
                h.write_f64(b.limit.bram);
                h.write_f64(b.limit.dsp);
                h.write_f64(b.soft_frac);
                h.write_f64(b.soft_penalty);
            }
            Objective::IpcPerLut => {}
            Objective::PlacementAware(p) => {
                h.write_str(p.placer.name());
                h.write_str(p.grid.device.name);
                h.write_f64(p.grid.device.total.lut);
                h.write_f64(p.grid.device.total.ff);
                h.write_f64(p.grid.device.total.bram);
                h.write_f64(p.grid.device.total.dsp);
                h.write_u64(u64::from(p.grid.cols));
                h.write_u64(u64::from(p.grid.rows));
                h.write_u64(u64::from(p.grid.rows_per_slr));
                h.write_f64(p.wirelength_penalty);
                h.write_f64(p.wirelength_scale);
                h.write_f64(p.base_mhz);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use overgen_adg::{mesh, MeshSpec, SpadNode, SystemParams};
    use overgen_model::{accelerator_resources, AnalyticModel};
    use overgen_scheduler::ScheduleFootprint;

    fn report(ipc: f64, resources: Resources) -> EvalReport {
        EvalReport {
            per_workload_ipc: BTreeMap::new(),
            ipc,
            resources,
            sys: SystemParams::default(),
            schedules: BTreeMap::new(),
            variants: BTreeMap::new(),
            footprint: ScheduleFootprint::Pure,
            placement: None,
        }
    }

    #[test]
    fn default_fitness_matches_the_legacy_inline_formula() {
        let obj = Objective::default();
        for (ipc, lut) in [(154.0, 48_213.0), (3.25, 2_400_000.0), (12.0, 0.0)] {
            let r = report(
                ipc,
                Resources {
                    lut,
                    ..Resources::ZERO
                },
            );
            let legacy = ipc * (1.0 - 0.05 * (lut / 1.0e6).min(1.0));
            assert_eq!(obj.fitness(&r).to_bits(), legacy.to_bits());
        }
    }

    #[test]
    fn only_the_constrained_objective_rejects() {
        let huge = Resources {
            lut: 1e12,
            ff: 1e12,
            bram: 1e12,
            dsp: 1e12,
        };
        assert!(Objective::default().admit(&huge).is_ok());
        assert!(Objective::IpcPerLut.admit(&huge).is_ok());
        let constrained = Objective::ConstrainedIpc(DeviceBudget::vcu118());
        assert_eq!(constrained.admit(&huge), Err("lut"));
        assert!(constrained.admit(&Resources::ZERO).is_ok());
    }

    /// Regression for the single-channel objective bug: the legacy path
    /// only ever looked at LUTs, so a scratchpad-rich accelerator that
    /// blows the BRAM budget while staying LUT-cheap sailed through.
    /// `ConstrainedIpc` must consume all four channels.
    #[test]
    fn bram_heavy_adg_is_infeasible_while_lut_feasible() {
        // A small mesh with very large scratchpads: modest LUTs, huge
        // BRAM demand (36Kb BRAMs are the XCVU9P's scarcest channel).
        let spad_rich = mesh(&MeshSpec {
            spads: vec![
                SpadNode {
                    capacity_kb: 4096,
                    bw_bytes: 64,
                    indirect: true,
                };
                4
            ],
            ..MeshSpec::default()
        });
        let acc = accelerator_resources(&spad_rich, &AnalyticModel);
        let budget = DeviceBudget::vcu118_small();
        assert!(
            acc.lut <= budget.limit.lut,
            "premise: the design is LUT-feasible (lut {} vs {})",
            acc.lut,
            budget.limit.lut
        );
        assert!(
            acc.bram > budget.limit.bram,
            "premise: the design is BRAM-infeasible (bram {} vs {})",
            acc.bram,
            budget.limit.bram
        );
        let obj = Objective::ConstrainedIpc(budget);
        assert_eq!(obj.admit(&acc), Err("bram"));
        // A LUT-only policy would have admitted it: that is the bug.
        let lut_only = DeviceBudget {
            name: "lut-only",
            limit: Resources {
                lut: budget.limit.lut,
                ..Resources::ZERO
            },
            ..budget
        };
        assert!(Objective::ConstrainedIpc(lut_only).admit(&acc).is_ok());
    }

    #[test]
    fn ipc_per_lut_prefers_the_smaller_design() {
        let small = report(
            10.0,
            Resources {
                lut: 50_000.0,
                ..Resources::ZERO
            },
        );
        let big = report(
            12.0,
            Resources {
                lut: 400_000.0,
                ..Resources::ZERO
            },
        );
        let obj = Objective::IpcPerLut;
        assert!(obj.fitness(&small) > obj.fitness(&big));
        // ...while the default prefers the faster one.
        assert!(Objective::default().fitness(&big) > Objective::default().fitness(&small));
    }

    fn fir() -> overgen_ir::Kernel {
        use overgen_ir::{expr, DataType, KernelBuilder, Suite};
        KernelBuilder::new("fir", Suite::Dsp, DataType::I64)
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

    fn quick_cfg(iters: usize) -> crate::DseConfig {
        crate::DseConfig {
            iterations: iters,
            compile: overgen_compiler::CompileOptions {
                max_unroll: 4,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn constrained_objective_rejects_oversized_proposals() {
        // A budget barely above the seed accelerator: growth mutations
        // quickly overflow it, so the run must record infeasible proposals
        // while still returning a feasible winner.
        let seed = crate::Dse::seed_adg(&[fir()]).expect("fir lowers");
        let acc = accelerator_resources(&seed, &AnalyticModel);
        let budget = DeviceBudget {
            name: "tight",
            limit: acc * 1.02,
            ..DeviceBudget::vcu118()
        };
        let cfg = crate::DseConfig {
            objective: Objective::ConstrainedIpc(budget),
            ..quick_cfg(30)
        };
        let r = crate::Dse::new(vec![fir()], cfg).run().unwrap();
        assert!(r.stats.infeasible > 0, "no proposal hit the tight budget");
        let won = accelerator_resources(&r.sys_adg.adg, &AnalyticModel);
        assert!(budget.admits(&won), "winner must respect the hard budget");
        // The default objective never rejects.
        let d = crate::Dse::new(vec![fir()], quick_cfg(10)).run().unwrap();
        assert_eq!(d.stats.infeasible, 0);
    }

    /// Congestion and SLR crossings reduce fitness through the placement
    /// clock, and wirelength through the direct discount — the
    /// placement-aware analogue of the default LUT-pressure test.
    #[test]
    fn placement_aware_fitness_penalizes_bad_placement() {
        use overgen_model::{PlacementReport, Placer, SimpleGridPlacer};

        let obj = Objective::PlacementAware(PlacementObjective::default());
        let place = |fmax: f64, wl: f64| {
            let mut r = report(
                10.0,
                Resources {
                    lut: 50_000.0,
                    ..Resources::ZERO
                },
            );
            r.placement = Some(PlacementReport {
                cells: Vec::new(),
                hub: overgen_model::GridCell { col: 3, row: 7 },
                span: 1,
                wirelength: wl,
                congestion: 0.5,
                slr_crossings: 0,
                fmax_mhz: fmax,
            });
            r
        };
        // At the 100 MHz base with zero wirelength, fitness is plain IPC.
        assert_eq!(obj.fitness(&place(100.0, 0.0)), 10.0);
        // A slower clock scales fitness down proportionally...
        assert_eq!(obj.fitness(&place(50.0, 0.0)), 5.0);
        // ...and wirelength adds the saturating discount.
        assert!(obj.fitness(&place(100.0, 32.0)) < 10.0);
        assert_eq!(
            obj.fitness(&place(100.0, 64.0)),
            obj.fitness(&place(100.0, 640.0))
        );
        // The shipped placer exists and self-identifies.
        assert_eq!(SimpleGridPlacer.name(), PlacerKind::SimpleGrid.name());
    }

    #[test]
    fn placement_aware_objective_runs_and_fills_a_three_axis_frontier() {
        let cfg = crate::DseConfig {
            objective: Objective::PlacementAware(PlacementObjective::default()),
            ..quick_cfg(15)
        };
        let r = crate::Dse::new(vec![fir()], cfg).run().unwrap();
        assert!(r.objective > 0.0);
        assert!(!r.pareto.is_empty());
        for p in r.pareto.points() {
            let m = p.placement.expect("placement-aware points carry metrics");
            assert!(m.fmax_mhz >= 40.0 && m.fmax_mhz < 160.0);
            assert!(m.congestion > 0.0);
        }
    }

    #[test]
    fn ipc_per_lut_objective_runs() {
        let cfg = crate::DseConfig {
            objective: Objective::IpcPerLut,
            ..quick_cfg(15)
        };
        let r = crate::Dse::new(vec![fir()], cfg).run().unwrap();
        assert!(r.objective > 0.0);
        assert!(!r.pareto.is_empty());
    }

    #[test]
    fn distinct_objectives_hash_distinctly() {
        let hash = |o: &Objective| {
            let mut h = StableHasher::new();
            o.hash_into(&mut h);
            h.finish()
        };
        let a = hash(&Objective::default());
        let b = hash(&Objective::IpcPerLut);
        let c = hash(&Objective::ConstrainedIpc(DeviceBudget::vcu118()));
        let d = hash(&Objective::ConstrainedIpc(DeviceBudget::vcu118_small()));
        let e = hash(&Objective::WeightedGeomeanIpc(GeomeanIpcWeights {
            lut_penalty: 0.1,
            ..Default::default()
        }));
        let f = hash(&Objective::PlacementAware(PlacementObjective::default()));
        let g = hash(&Objective::PlacementAware(PlacementObjective {
            wirelength_penalty: 0.1,
            ..Default::default()
        }));
        let all = [a, b, c, d, e, f, g];
        for (i, x) in all.iter().enumerate() {
            for y in &all[i + 1..] {
                assert_ne!(x, y);
            }
        }
    }
}
