//! # OverGen: domain-specific FPGA overlay generation
//!
//! A pure-Rust reproduction of *OverGen: Improving FPGA Usability through
//! Domain-specific Overlay Generation* (MICRO 2022). Given a set of kernels
//! (the *domain*), OverGen explores a multi-tile spatial-overlay design
//! space under FPGA resource constraints and produces an [`Overlay`] onto
//! which applications compile in (modelled) seconds and reconfigure in
//! microseconds — while staying competitive with fixed-function HLS.
//!
//! The heavy lifting lives in the focused sub-crates, re-exported here:
//! kernel IR ([`ir`]), architecture graphs ([`adg`]), the compiler
//! ([`compiler`]), the spatial scheduler ([`scheduler`]), performance and
//! FPGA-resource models ([`model`]), the cycle-level simulator ([`sim`]),
//! the unified DSE ([`dse`]), the AutoDSE baseline ([`hls`]), and the 19
//! paper workloads ([`workloads`]).
//!
//! # Quickstart
//!
//! ```
//! use overgen::{Overlay, workloads};
//!
//! // The paper's hand-designed General Overlay: 24 full-capability PEs,
//! // 35 switches, 4 tiles on a VCU118.
//! let overlay = Overlay::general();
//! let app = overlay.compile(&workloads::by_name("fir").unwrap()).unwrap();
//! let report = overlay.execute(&app);
//! assert!(report.ipc > 0.0);
//! println!("fir on the general overlay: {} cycles", report.cycles);
//! ```
//!
//! Generating a domain-specific overlay (the full DSE):
//!
//! ```no_run
//! use overgen::{dse::DseConfig, generate, workloads};
//! use overgen_ir::Suite;
//!
//! let domain = workloads::suite(Suite::MachSuite);
//! let overlay = generate(&domain, &DseConfig::default());
//! println!("{}", overlay.summary());
//! ```

use std::collections::BTreeMap;
use std::fmt;

pub use overgen_adg as adg;
pub use overgen_compiler as compiler;
pub use overgen_dse as dse;
pub use overgen_hls as hls;
pub use overgen_ir as ir;
pub use overgen_mdfg as mdfg;
pub use overgen_model as model;
pub use overgen_scheduler as scheduler;
pub use overgen_sim as sim;
pub use overgen_workloads as workloads;

use overgen_adg::{mesh, AdgSummary, MeshSpec, SysAdg, SystemParams};
use overgen_compiler::{compile_variants, CompileError, CompileOptions};
use overgen_dse::{Dse, DseConfig, DseError, DseResult};
use overgen_ir::Kernel;
use overgen_mdfg::Mdfg;
use overgen_model::{breakdown, AnalyticModel, ResourceBreakdown, TimeModel, XCVU9P};
use overgen_scheduler::{HwIndex, Schedule, ScheduleError};
use overgen_sim::{simulate, SimConfig, SimReport};

/// A generated (or hand-designed) overlay: the deployable artifact.
#[derive(Debug, Clone)]
pub struct Overlay {
    /// The system-level ADG.
    pub sys_adg: SysAdg,
    /// Compile options applications are built with.
    pub compile_opts: CompileOptions,
    /// Time model used for compile/reconfigure estimates.
    pub time: TimeModel,
    /// DSE provenance, when generated by [`generate`].
    pub dse: Option<DseProvenance>,
    /// Schedules the DSE already found, used to seed compilation (fresh
    /// greedy placement can miss mappings the annealer reached through
    /// repair).
    pub seed_schedules: std::collections::BTreeMap<String, Schedule>,
}

/// Summary of the DSE run that produced an overlay.
#[derive(Debug, Clone)]
pub struct DseProvenance {
    /// Final DSE objective (weighted geomean estimated IPC).
    pub objective: f64,
    /// Simulated DSE hours.
    pub dse_hours: f64,
    /// Convergence history (hours, best objective).
    pub history: Vec<(f64, f64)>,
    /// IPC-vs-accelerator-resources frontier the search visited (see
    /// [`dse::ParetoFront`]): the designs one could have picked instead of
    /// the winner at other resource budgets.
    pub pareto: dse::ParetoFront,
}

/// Why [`Overlay::compile`] produced no application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppCompileError {
    /// The kernel does not compile into mDFG variants.
    Compile(CompileError),
    /// No variant maps onto the overlay's hardware: the last variant's
    /// scheduling error.
    Schedule(ScheduleError),
}

impl fmt::Display for AppCompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppCompileError::Compile(e) => write!(f, "does not compile: {e}"),
            AppCompileError::Schedule(e) => write!(f, "no variant maps: {e}"),
        }
    }
}

impl std::error::Error for AppCompileError {}

/// An application compiled for a specific overlay.
#[derive(Debug, Clone)]
pub struct CompiledApp {
    /// Kernel name.
    pub name: String,
    /// The mDFG variant that scheduled.
    pub mdfg: Mdfg,
    /// Its mapping onto the overlay.
    pub schedule: Schedule,
    /// Modelled compilation seconds.
    pub compile_seconds: f64,
}

impl Overlay {
    /// The paper's hand-designed **General Overlay**: a 24-PE / 35-switch
    /// mesh with every functional unit at 512-bit vectorization, of which
    /// four tiles fit on the VCU118 (Q1).
    pub fn general() -> Overlay {
        let sys = SystemParams {
            tiles: 4,
            l2_banks: 4,
            l2_kb: 512,
            noc_bw_bytes: 32,
            dram_channels: 1,
        };
        Overlay {
            sys_adg: SysAdg::new(mesh(&MeshSpec::general()), sys),
            compile_opts: CompileOptions::default(),
            time: TimeModel::default(),
            dse: None,
            seed_schedules: BTreeMap::new(),
        }
    }

    /// Wrap a DSE result as a deployable overlay.
    pub fn from_dse(result: DseResult, compile_opts: CompileOptions) -> Overlay {
        Overlay {
            sys_adg: result.sys_adg.clone(),
            compile_opts,
            time: TimeModel::default(),
            dse: Some(DseProvenance {
                objective: result.objective,
                dse_hours: result.dse_hours,
                history: result.history,
                pareto: result.pareto,
            }),
            seed_schedules: result.schedules,
        }
    }

    /// Accelerator specification summary (the rows of Table III).
    pub fn summary(&self) -> AdgSummary {
        AdgSummary::of(&self.sys_adg.adg)
    }

    /// Post-P&R resource breakdown of the full overlay (Figure 16 groups).
    pub fn resources(&self) -> ResourceBreakdown {
        let b = breakdown(&self.sys_adg, &AnalyticModel);
        ResourceBreakdown {
            pe: b.pe * 0.88,
            network: b.network * 0.88,
            ports: b.ports * 0.88,
            spad: b.spad * 0.88,
            dma: b.dma * 0.88,
            core: b.core * 0.88,
            noc: b.noc * 0.88,
        }
    }

    /// Achievable clock of the placed design.
    pub fn fmax_mhz(&self) -> f64 {
        XCVU9P.fmax_mhz(&self.resources().total())
    }

    /// Compile a kernel for this overlay: pre-generated variants are tried
    /// widest-first until one schedules ("relax DFG complexity", §III-A),
    /// all on one index of the overlay's hardware.
    ///
    /// # Errors
    ///
    /// [`AppCompileError::Compile`] when the kernel does not compile, and
    /// [`AppCompileError::Schedule`] with the last [`ScheduleError`] when
    /// no variant maps onto the overlay's hardware.
    pub fn compile(&self, kernel: &Kernel) -> Result<CompiledApp, AppCompileError> {
        let variants =
            compile_variants(kernel, &self.compile_opts).map_err(AppCompileError::Compile)?;
        let mut last_err = None;
        let seed = self.seed_schedules.get(kernel.name());
        let hw = HwIndex::new(&self.sys_adg);
        for v in variants {
            let prior = seed.filter(|s| s.variant == v.variant());
            match hw.schedule(&v, prior) {
                Ok(s) => {
                    let secs = self
                        .time
                        .overlay_compile_seconds(v.node_count(), self.sys_adg.adg.node_count());
                    return Ok(CompiledApp {
                        name: kernel.name().to_string(),
                        mdfg: v,
                        schedule: s,
                        compile_seconds: secs,
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(AppCompileError::Schedule(
            last_err.unwrap_or(ScheduleError::Unrepairable),
        ))
    }

    /// Execute a compiled application on the cycle-level simulator.
    pub fn execute(&self, app: &CompiledApp) -> SimReport {
        simulate(
            &app.mdfg,
            &app.schedule,
            &self.sys_adg,
            &SimConfig::default(),
        )
    }

    /// Execute with a custom simulator configuration.
    pub fn execute_with(&self, app: &CompiledApp, cfg: &SimConfig) -> SimReport {
        simulate(&app.mdfg, &app.schedule, &self.sys_adg, cfg)
    }

    /// Wall-clock seconds for one run of a compiled app.
    pub fn run_seconds(&self, app: &CompiledApp) -> f64 {
        self.execute(app).seconds(self.fmax_mhz())
    }

    /// Seconds to reconfigure the running overlay with this app.
    pub fn reconfig_seconds(&self, app: &CompiledApp) -> f64 {
        let _ = app;
        self.time
            .overlay_reconfig_seconds(self.sys_adg.config_bytes(), self.fmax_mhz())
    }
}

/// Generate a domain-specific overlay by running the unified DSE
/// (Figure 1's "Domain-Specific Overlay Generation" path). Panics when the
/// domain cannot be scheduled even on a widened seed mesh; use
/// [`try_generate`] to handle that case.
pub fn generate(domain: &[Kernel], cfg: &DseConfig) -> Overlay {
    try_generate(domain, cfg).expect("seed accelerator must schedule the domain")
}

/// Fallible [`generate`]: surfaces [`DseError`] instead of panicking when
/// the seed accelerator cannot schedule every workload.
pub fn try_generate(domain: &[Kernel], cfg: &DseConfig) -> Result<Overlay, DseError> {
    let result = Dse::new(domain.to_vec(), cfg.clone()).run()?;
    Ok(Overlay::from_dse(result, cfg.compile))
}

/// Resume an interrupted overlay generation from a DSE checkpoint file
/// (see [`dse::CheckpointConfig`] and `DESIGN.md` §9). Workloads are
/// looked up by name in the paper-workload registry; the finished run is
/// wrapped as an [`Overlay`] exactly as [`generate`] would have.
///
/// # Errors
///
/// [`DseError::Checkpoint`] when the file cannot be read or names a
/// workload the registry does not know; any error the continued run hits.
pub fn resume(path: &std::path::Path) -> Result<Overlay, DseError> {
    let ck = dse::Checkpoint::load(path)?;
    let domain: Vec<Kernel> = ck
        .workloads()
        .iter()
        .map(|name| {
            workloads::by_name(name).ok_or_else(|| {
                DseError::Checkpoint(format!("checkpoint names unknown workload `{name}`"))
            })
        })
        .collect::<Result<_, _>>()?;
    let compile_opts = ck.config().compile;
    let result = ck.resume(domain)?;
    Ok(Overlay::from_dse(result, compile_opts))
}

/// Simulated total hours for the one-time overlay generation flow: DSE plus
/// final synthesis and place & route (Figure 15's OverGen bar).
pub fn generation_hours(overlay: &Overlay) -> f64 {
    let time = &overlay.time;
    let total = breakdown(&overlay.sys_adg, &AnalyticModel).total();
    let dse_hours = overlay.dse.as_ref().map(|d| d.dse_hours).unwrap_or(0.0);
    dse_hours + time.synth_hours(&total, &XCVU9P) + time.pnr_hours(&total, &XCVU9P)
}

/// Convenience: compile + execute each workload and return seconds per run.
pub fn run_domain(overlay: &Overlay, domain: &[Kernel]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for k in domain {
        if let Ok(app) = overlay.compile(k) {
            out.insert(k.name().to_string(), overlay.run_seconds(&app));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn general_overlay_runs_fir() {
        let overlay = Overlay::general();
        let fir = workloads::by_name("fir").unwrap();
        let app = overlay.compile(&fir).unwrap();
        let report = overlay.execute(&app);
        assert!(report.cycles > 0);
        assert!(!report.truncated);
        assert!(app.compile_seconds < 10.0);
    }

    #[test]
    fn general_overlay_summary_matches_paper() {
        let overlay = Overlay::general();
        let s = overlay.summary();
        assert_eq!(s.pes, 24);
        assert_eq!(s.switches, 35);
        // the general overlay nearly fills the device with 4 tiles
        let u = XCVU9P.utilization(&overlay.resources().total());
        assert!(u.lut > 0.6, "lut util {:.2}", u.lut);
        assert!(overlay.fmax_mhz() > 60.0 && overlay.fmax_mhz() < 160.0);
    }

    #[test]
    fn compile_falls_back_to_narrower_variants() {
        // A small custom overlay cannot hold the widest variant.
        let overlay = Overlay {
            sys_adg: SysAdg::new(mesh(&MeshSpec::default()), SystemParams::default()),
            compile_opts: CompileOptions::default(),
            time: TimeModel::default(),
            dse: None,
            seed_schedules: BTreeMap::new(),
        };
        // gemm is i64 like the tiny test mesh; its widest variant cannot
        // fit 4 PEs, so compilation must relax to a narrower unroll.
        let k = workloads::by_name("gemm").unwrap();
        let app = overlay.compile(&k).unwrap();
        assert!(
            app.mdfg.unroll() < 8,
            "unexpectedly wide: {}",
            app.mdfg.unroll()
        );
    }

    #[test]
    fn compile_reports_a_kernel_that_does_not_compile() {
        use ir::{expr, DataType, KernelBuilder, Pragmas, Suite};
        let unconfigured = KernelBuilder::new("copy", Suite::Dsp, DataType::I64)
            .array_input("a", 64)
            .array_output("c", 64)
            .loop_const("i", 64)
            .assign("c", expr::idx("i"), expr::load("a", expr::idx("i")))
            .pragmas(Pragmas {
                config: false,
                ..Default::default()
            })
            .build()
            .unwrap();
        let err = Overlay::general().compile(&unconfigured).unwrap_err();
        assert_eq!(err, AppCompileError::Compile(CompileError::NotConfigured));
        assert!(err.to_string().contains("pragma dsa config"), "{err}");
    }

    #[test]
    fn reconfig_is_fast() {
        let overlay = Overlay::general();
        let k = workloads::by_name("mm").unwrap();
        let app = overlay.compile(&k).unwrap();
        let r = overlay.reconfig_seconds(&app);
        assert!(r < 1e-3, "reconfig {r}");
    }

    #[test]
    fn run_domain_covers_compilable_kernels() {
        let overlay = Overlay::general();
        let domain = workloads::suite(ir::Suite::Dsp);
        let runs = run_domain(&overlay, &domain);
        assert!(runs.len() >= 4, "only {} dsp kernels ran", runs.len());
        for (_name, secs) in runs {
            assert!(secs > 0.0);
        }
    }
}
