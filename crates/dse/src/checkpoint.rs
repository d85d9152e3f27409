//! Crash-safe DSE checkpoints.
//!
//! A checkpoint captures everything [`crate::Dse`] needs to continue an
//! annealing run *exactly* where it left off: per-chain RNG state, current
//! and best design points (ADG + evaluation), the accumulated stats and
//! simulated time, and the telemetry trace cursor. The
//! invariant the whole format serves is **resume equivalence**: an
//! interrupted-then-resumed run produces the same `DseResult`, the same
//! `DseStats`, and (at a checkpoint-aligned boundary, or with one chain)
//! the same deterministic trace, byte for byte, as the uninterrupted run —
//! at any thread count. See `DESIGN.md` §9.
//!
//! The on-disk format is a single JSON object written through
//! [`overgen_telemetry::fs::write_atomic`], so a crash mid-write leaves
//! the previous checkpoint intact. Every field is encoded losslessly by
//! the shared codec (`codec.rs`, hex strings for integers and float bit
//! patterns); this module keeps the header and the checkpoint-only types.

use std::path::{Path, PathBuf};
use std::time::Duration;

use overgen_compiler::CompileOptions;
use overgen_ir::Kernel;
use overgen_model::{
    ClockRegionGrid, DeviceBudget, FpgaDevice, PlacementMetrics, Resources, XCVU9P,
};
use overgen_telemetry::json::{self, Obj, Value};
use overgen_telemetry::{Rng, SpanGuard};

use crate::codec::{field, get, object_codec, text, Codec, PutField};
use crate::engine::{stat_delta, ChainState, Dse, DseConfig, DseError, DseResult, DseStats};
use crate::eval::{EvalPipeline, ParetoFront, ParetoPoint};
use crate::objective::{GeomeanIpcWeights, Objective, PlacementObjective};
use crate::system::{SystemDseBackend, SystemDseConfig};

const MAGIC: &str = "overgen-dse-checkpoint";
// Version history: 1 = original format; 2 = pluggable objectives (top-level
// objective header, `objective` config field, per-eval fitness + resource
// vector, per-chain Pareto frontier, `infeasible` stat); 3 = spatial
// placement (per-eval `placement` metrics, three-element Pareto points,
// `placement_aware` objective serialization); 4 = rewrite engine
// (`compound` config field for compound rule proposals).
const VERSION: u64 = 4;

/// Periodic checkpointing policy for a DSE run.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Where to write the checkpoint file (atomically replaced on every
    /// write; the path's parent directories are created as needed).
    pub path: PathBuf,
    /// Proposals (per chain) between checkpoint writes. Writes land on
    /// segment boundaries, so the effective granularity is also bounded by
    /// [`crate::DseConfig::exchange_interval`], and a periodic write that
    /// falls due less than a second after the previous one (or the run
    /// start) is skipped. Clamped to at least 1.
    pub interval: usize,
}

/// Least wall time between two periodic checkpoint writes. A write costs
/// about a millisecond whatever a proposal costs, most of it the `fsync`,
/// so with sub-millisecond proposals a bare proposal count would spend a
/// tenth of the run writing. A second apart, periodic writes cost ~0.1%
/// of the run and a crash loses at most about a second of search (or
/// `interval` proposals, if those take longer). Graceful stops always
/// write.
pub const MIN_WRITE_GAP: Duration = Duration::from_secs(1);

impl CheckpointConfig {
    /// Checkpoint to `path` every 25 proposals.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            path: path.into(),
            interval: 25,
        }
    }
}

/// Position in the deterministic telemetry stream at checkpoint time, so a
/// resumed run continues stamping events exactly where the interrupted one
/// stopped.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TraceCursor {
    /// Next event sequence number.
    pub(crate) seq: u64,
    /// Next deterministic clock tick.
    pub(crate) tick: u64,
    /// Open handle of the enclosing `dse.run` span (its start tick), so the
    /// resumed run's close event matches the uninterrupted run's.
    pub(crate) span: u64,
}

/// A loaded (or about-to-be-written) DSE checkpoint.
///
/// Obtain one with [`Checkpoint::load`], optionally adjust the embedded
/// configuration (e.g. thread count, or a fresh proposal budget) through
/// [`Checkpoint::config_mut`], then continue the run with
/// [`Checkpoint::resume`]. Graceful-stop budgets
/// ([`crate::DseConfig::max_proposals`] / `max_wall_seconds`) are *not*
/// persisted: a resumed run goes to completion unless the caller sets new
/// ones.
pub struct Checkpoint {
    pub(crate) cfg: DseConfig,
    pub(crate) workloads: Vec<String>,
    pub(crate) done: usize,
    pub(crate) stats: DseStats,
    pub(crate) chains: Vec<ChainState>,
    pub(crate) cursor: Option<TraceCursor>,
}

impl Checkpoint {
    /// Read and validate a checkpoint file.
    pub fn load(path: &Path) -> Result<Checkpoint, DseError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| DseError::Checkpoint(format!("read {}: {e}", path.display())))?;
        Self::from_json(&text).map_err(|e| DseError::Checkpoint(format!("{}: {e}", path.display())))
    }

    /// Serialize and atomically write the checkpoint to `path`.
    pub fn save(&self, path: &Path) -> Result<(), DseError> {
        let mut body = self.to_json();
        body.push('\n');
        overgen_telemetry::fs::write_atomic(path, body.as_bytes())
            .map_err(|e| DseError::Checkpoint(format!("write {}: {e}", path.display())))
    }

    /// Sorted names of the workloads the checkpointed run explored.
    /// [`Checkpoint::resume`] requires kernels with exactly these names.
    pub fn workloads(&self) -> &[String] {
        &self.workloads
    }

    /// Proposals already run per chain.
    pub fn done(&self) -> usize {
        self.done
    }

    /// Stats accumulated up to the checkpoint.
    pub fn stats(&self) -> DseStats {
        self.stats
    }

    /// Trace sequence number at the checkpoint: events with `seq` below
    /// this were emitted before the cut, events from the resumed run start
    /// here. `None` when the interrupted run recorded no trace (no
    /// collector, or a counting one).
    pub fn trace_seq(&self) -> Option<u64> {
        self.cursor.as_ref().map(|c| c.seq)
    }

    /// The run configuration stored in the checkpoint.
    pub fn config(&self) -> &DseConfig {
        &self.cfg
    }

    /// Mutable access to the stored configuration, for overrides that do
    /// not change the search (thread count, checkpoint path, fresh stop
    /// budgets). Changing search-relevant fields (seed, iterations,
    /// weights, system grids, …) voids resume equivalence.
    pub fn config_mut(&mut self) -> &mut DseConfig {
        &mut self.cfg
    }

    /// Continue the checkpointed run to completion (or to a new stop
    /// budget). `workloads` must carry exactly the kernel names reported by
    /// [`Checkpoint::workloads`]; kernels are assumed unchanged since the
    /// interrupted run — the mDFG variants they compile to are part of
    /// every evaluation, so a changed kernel voids resume equivalence.
    pub fn resume(&self, workloads: Vec<Kernel>) -> Result<DseResult, DseError> {
        let mut names: Vec<String> = workloads.iter().map(|k| k.name().to_string()).collect();
        names.sort();
        if names != self.workloads {
            return Err(DseError::Checkpoint(format!(
                "workload set mismatch: checkpoint has [{}], caller supplied [{}]",
                self.workloads.join(", "),
                names.join(", ")
            )));
        }
        Dse::new(workloads, self.cfg.clone()).resume_from(self)
    }

    /// Snapshot a running search into `cfg.checkpoint.path` (the
    /// engine-side writer; no-op when checkpointing is off). Hard-fails on
    /// write errors (see [`DseError::Checkpoint`]). The write itself is
    /// trace-invisible — only registry counters record it — so
    /// checkpointing cannot perturb trace determinism.
    pub(crate) fn write(
        dse: &Dse,
        pipe: &EvalPipeline,
        states: &[ChainState],
        done: usize,
        prior: &DseStats,
        base: &DseStats,
        run_span: &SpanGuard,
    ) -> Result<(), DseError> {
        let Some(ckc) = dse.cfg.checkpoint.as_ref() else {
            return Ok(());
        };
        // A counting collector records no trace, so a checkpoint written
        // under one claims no cursor, as one written under no collector.
        let cursor = overgen_telemetry::current()
            .filter(|c| c.records())
            .map(|c| {
                let (seq, tick) = c.cursor();
                TraceCursor {
                    seq,
                    tick,
                    span: run_span.handle().unwrap_or(0),
                }
            });
        let ck = Checkpoint {
            cfg: dse.cfg.clone(),
            workloads: dse.workloads.iter().map(|k| k.name().to_string()).collect(),
            done,
            stats: prior.merged(&stat_delta(pipe.registry(), base)),
            chains: states.to_vec(),
            cursor,
        };
        let t = std::time::Instant::now();
        ck.save(&ckc.path)?;
        pipe.registry().counter("dse.checkpoint.write").inc();
        pipe.registry()
            .counter("dse.checkpoint.write_us")
            .add(t.elapsed().as_micros() as u64);
        Ok(())
    }

    fn to_json(&self) -> String {
        Obj::new()
            .str("magic", MAGIC)
            .put("version", &VERSION)
            .put("cfg_hash", &Dse::config_hash(&self.cfg))
            .str("objective", self.cfg.objective.kind())
            .put("config", &self.cfg)
            .put("workloads", &self.workloads)
            .put("done", &self.done)
            .put("stats", &self.stats)
            .put("chains", &self.chains)
            .put("cursor", &self.cursor)
            .finish()
    }

    fn from_json(body: &str) -> Result<Checkpoint, String> {
        let v = json::parse(body)?;
        if field::<String>(&v, "magic")? != MAGIC {
            return Err("not an OverGen DSE checkpoint".into());
        }
        let version: u64 = field(&v, "version")?;
        if version != VERSION {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        let cfg: DseConfig = field(&v, "config")?;
        // The objective header duplicates the config's objective kind so a
        // checkpoint taken under one objective fails *specifically* when
        // pointed at a config edited to another, instead of as a generic
        // hash mismatch.
        let header_kind: String = field(&v, "objective")?;
        if header_kind != cfg.objective.kind() {
            return Err(format!(
                "checkpoint objective mismatch: checkpoint was taken under \
                 `{header_kind}` but its config says `{}` — a run can only \
                 resume under the objective that produced it",
                cfg.objective.kind()
            ));
        }
        if field::<u64>(&v, "cfg_hash")? != Dse::config_hash(&cfg) {
            return Err("config hash mismatch (corrupt or hand-edited checkpoint; \
                 the hash covers the objective and its parameters too)"
                .into());
        }
        let chains: Vec<ChainState> = field(&v, "chains")?;
        if chains.is_empty() {
            return Err("checkpoint has no chains".into());
        }
        Ok(Checkpoint {
            cfg,
            workloads: field(&v, "workloads")?,
            done: field(&v, "done")?,
            stats: field(&v, "stats")?,
            chains,
            // Members the format no longer has, the warm sets of the
            // retired evaluation and system-DSE memos (`eval_keys`,
            // `sys_keys`), are ignored.
            cursor: field(&v, "cursor")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Checkpoint-only types; the shared ones are in `codec.rs`.

object_codec!(TraceCursor {
    seq: "seq",
    tick: "tick",
    span: "span",
});

/// Pareto points are `[ipc,resources,placement]` triples.
impl Codec for ParetoFront {
    fn put(&self, out: &mut String) {
        json::arr(out, self.points(), |o, p| {
            (p.ipc, p.resources, p.placement).put(o);
        });
    }

    fn take(v: &Value) -> Result<Self, String> {
        let points: Vec<(f64, Resources, Option<PlacementMetrics>)> = Codec::take(v)?;
        Ok(ParetoFront::from_points(points.into_iter().map(
            |(ipc, resources, placement)| ParetoPoint {
                ipc,
                resources,
                placement,
            },
        )))
    }
}

impl Codec for Rng {
    fn put(&self, out: &mut String) {
        self.state().put(out);
    }

    fn take(v: &Value) -> Result<Self, String> {
        Codec::take(v).map(Rng::from_state)
    }
}

object_codec!(ChainState {
    rng: "rng",
    cur_adg: "cur_adg",
    cur: "cur",
    best_adg: "best_adg",
    best: "best",
    sim_seconds: "sim_seconds",
    t0: "t0",
    history: "history",
    pareto: "pareto",
});

object_codec!(DseStats {
    iterations: "iterations",
    accepted: "accepted",
    invalid: "invalid",
    full_schedules: "full_schedules",
    repairs: "repairs",
    intact: "intact",
    cache_hits: "cache_hits",
    cache_misses: "cache_misses",
    repair_fast: "repair_fast",
    repair_fallback: "repair_fallback",
    infeasible: "infeasible",
});

/// A `'static` name for a loaded device or budget: a custom one leaks its
/// (tiny) name.
fn leak(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

/// A device that matches the builtin XCVU9P loads as that constant.
impl Codec for FpgaDevice {
    fn put(&self, out: &mut String) {
        Obj::into(out)
            .str("name", self.name)
            .put("total", &self.total)
            .finish();
    }

    fn take(v: &Value) -> Result<Self, String> {
        let name: String = field(v, "name")?;
        let total: Resources = field(v, "total")?;
        Ok(
            if name == XCVU9P.name && total.to_array() == XCVU9P.total.to_array() {
                XCVU9P
            } else {
                FpgaDevice {
                    name: leak(name),
                    total,
                }
            },
        )
    }
}

object_codec!(ClockRegionGrid {
    device: "device",
    cols: "cols",
    rows: "rows",
    rows_per_slr: "rows_per_slr",
});

impl Codec for Objective {
    fn put(&self, out: &mut String) {
        let o = Obj::into(out).str("kind", self.kind());
        match self {
            Objective::WeightedGeomeanIpc(w) => o
                .put("lut_penalty", &w.lut_penalty)
                .put("lut_scale", &w.lut_scale),
            Objective::ConstrainedIpc(b) => o
                .str("name", b.name)
                .put("limit", &b.limit)
                .put("soft_frac", &b.soft_frac)
                .put("soft_penalty", &b.soft_penalty),
            Objective::IpcPerLut => o,
            Objective::PlacementAware(p) => o
                .put("grid", &p.grid)
                .put("wirelength_penalty", &p.wirelength_penalty)
                .put("wirelength_scale", &p.wirelength_scale)
                .put("base_mhz", &p.base_mhz),
        }
        .finish();
    }

    fn take(v: &Value) -> Result<Self, String> {
        Ok(match text(get(v, "kind")?)? {
            "weighted_geomean_ipc" => Objective::WeightedGeomeanIpc(GeomeanIpcWeights {
                lut_penalty: field(v, "lut_penalty")?,
                lut_scale: field(v, "lut_scale")?,
            }),
            "constrained_ipc" => {
                let name: String = field(v, "name")?;
                let mut budget = DeviceBudget {
                    name: "",
                    limit: field(v, "limit")?,
                    soft_frac: field(v, "soft_frac")?,
                    soft_penalty: field(v, "soft_penalty")?,
                };
                // A budget that matches a preset reuses its static name.
                let presets = [
                    DeviceBudget::vcu118(),
                    DeviceBudget::vcu118_medium(),
                    DeviceBudget::vcu118_small(),
                ];
                budget.name = match presets.into_iter().find(|p| p.name == name) {
                    Some(p)
                        if p == (DeviceBudget {
                            name: p.name,
                            ..budget
                        }) =>
                    {
                        p.name
                    }
                    _ => leak(name),
                };
                Objective::ConstrainedIpc(budget)
            }
            "ipc_per_lut" => Objective::IpcPerLut,
            // A `placer` member, written while the placer was a
            // configurable choice, is ignored.
            "placement_aware" => Objective::PlacementAware(PlacementObjective {
                grid: field(v, "grid")?,
                wirelength_penalty: field(v, "wirelength_penalty")?,
                wirelength_scale: field(v, "wirelength_scale")?,
                base_mhz: field(v, "base_mhz")?,
            }),
            k => return Err(format!("unknown objective kind `{k}`")),
        })
    }
}

// The scoring backend is not written: it does not change the checkpoint
// byte format, and a non-default backend is folded into the config hash,
// so a resume under a different backend fails the hash check.
object_codec!(SystemDseConfig {
    device: "device",
    util_cap: "util_cap",
    max_tiles: "max_tiles",
    dram_channels: "dram_channels",
    l2_banks_grid: "l2_banks_grid",
    l2_kb_grid: "l2_kb_grid",
    noc_bw_grid: "noc_bw_grid";
    backend: SystemDseBackend::default(),
});

object_codec!(CompileOptions {
    max_unroll: "max_unroll",
    include_no_recurrence: "no_recurrence",
    spad_cap_bytes: "spad_cap_bytes",
});

impl Codec for PathBuf {
    fn put(&self, out: &mut String) {
        json::string(out, &self.display().to_string());
    }

    fn take(v: &Value) -> Result<Self, String> {
        String::take(v).map(PathBuf::from)
    }
}

object_codec!(CheckpointConfig {
    path: "path",
    interval: "interval",
});

object_codec!(DseConfig {
    iterations: "iterations",
    seed: "seed",
    schedule_preserving: "preserving",
    objective: "objective",
    system: "system",
    compile: "compile",
    weights: "weights",
    mutations_per_step: "mutations_per_step",
    threads: "threads",
    chains: "chains",
    exchange_interval: "exchange_interval",
    cache: "cache",
    compound: "compound",
    repair: "repair",
    checkpoint: "checkpoint";
    // Stop budgets and monitoring are per-invocation, never persisted: a
    // resumed run goes to completion unless the caller sets fresh ones,
    // and watches only if the caller asks again. The shared store and
    // cancellation flag are likewise runtime wiring, not exploration state.
    max_proposals: None,
    max_wall_seconds: None,
    heartbeat: None,
    store: None,
    stop: None,
});

#[cfg(test)]
mod tests {
    use super::*;
    use overgen_ir::{expr, DataType, KernelBuilder, Suite};

    fn vecadd() -> Kernel {
        KernelBuilder::new("vecadd", Suite::Dsp, DataType::I64)
            .array_input("a", 4096)
            .array_input("b", 4096)
            .array_output("c", 4096)
            .loop_const("i", 4096)
            .assign(
                "c",
                expr::idx("i"),
                expr::load("a", expr::idx("i")) + expr::load("b", expr::idx("i")),
            )
            .build()
            .unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("overgen-ck-{}-{name}.json", std::process::id()))
    }

    fn small_cfg(path: PathBuf) -> DseConfig {
        DseConfig {
            iterations: 6,
            compile: CompileOptions {
                max_unroll: 2,
                ..Default::default()
            },
            checkpoint: Some(CheckpointConfig { path, interval: 2 }),
            ..Default::default()
        }
    }

    #[test]
    fn periodic_writes_keep_the_minimum_gap() {
        // Interval 1 makes every proposal boundary due, but a run this
        // short ends inside `MIN_WRITE_GAP`, so only the final write lands.
        let path = tmp("write-gap");
        let (collector, _ring) = overgen_telemetry::Collector::ring(1 << 16);
        let _install = overgen_telemetry::install(collector.clone());
        let cfg = DseConfig {
            checkpoint: Some(CheckpointConfig {
                path: path.clone(),
                interval: 1,
            }),
            ..small_cfg(path.clone())
        };
        let start = std::time::Instant::now();
        let r = Dse::new(vec![vecadd()], cfg).run().unwrap();
        assert!(r.completed);
        // Six proposals take milliseconds; a machine that needs a second
        // for them would legitimately write more than once.
        if start.elapsed() < Duration::from_secs(1) {
            let writes = collector.registry().counter("dse.checkpoint.write").get();
            assert_eq!(writes, 1, "periodic writes ignored the minimum gap");
        }
        assert_eq!(Checkpoint::load(&path).unwrap().done(), 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_round_trips_byte_identically() {
        let path = tmp("roundtrip");
        let r = Dse::new(vec![vecadd()], small_cfg(path.clone()))
            .run()
            .unwrap();
        assert!(r.completed);
        let on_disk = std::fs::read_to_string(&path).unwrap();
        let ck = Checkpoint::load(&path).unwrap();
        assert_eq!(ck.workloads(), ["vecadd".to_string()]);
        assert_eq!(ck.done(), 6);
        let mut re = ck.to_json();
        re.push('\n');
        assert_eq!(on_disk, re, "load -> save must be lossless");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_from_final_checkpoint_is_a_noop_run() {
        let path = tmp("final");
        let full = Dse::new(vec![vecadd()], small_cfg(path.clone()))
            .run()
            .unwrap();
        let ck = Checkpoint::load(&path).unwrap();
        let resumed = ck.resume(vec![vecadd()]).unwrap();
        assert!(resumed.completed);
        assert_eq!(full.objective.to_bits(), resumed.objective.to_bits());
        assert_eq!(full.history, resumed.history);
        assert_eq!(full.variants, resumed.variants);
        assert_eq!(full.stats, resumed.stats);
        std::fs::remove_file(&path).ok();
    }

    /// A checkpoint written while the system sweep had a memo of its own
    /// carries that memo's warm set as one more member after the
    /// evaluation memo's; a load ignores it and the resumed run ends as
    /// the uninterrupted one does.
    #[test]
    fn retired_system_memo_warm_set_is_ignored() {
        resume_with_legacy_members(
            "legacy-sys-keys",
            &[("eval_keys", "[]"), ("sys_keys", "[\"1f\",\"2a\"]")],
        );
    }

    /// A checkpoint written while the evaluation memo existed carries its
    /// warm set, `eval_keys`; a load ignores it and the resumed run ends as
    /// the uninterrupted one does.
    #[test]
    fn retired_eval_memo_warm_set_is_ignored() {
        resume_with_legacy_members(
            "legacy-eval-keys",
            &[("eval_keys", "[\"3c\",\"4d\",\"5e\"]")],
        );
    }

    /// A placement-aware checkpoint written while the placer was a
    /// configurable choice names it in the objective; a load ignores the
    /// member and the resumed run ends as the uninterrupted one does.
    #[test]
    fn retired_placer_member_is_ignored() {
        let objective = Objective::PlacementAware(PlacementObjective::default());
        resume_legacy("legacy-placer", objective, |text| {
            let kind = "\"kind\":\"placement_aware\",";
            text.replacen(kind, &format!("{kind}\"placer\":\"simple_grid\","), 1)
        });
    }

    /// Write `members` (name, JSON value) into a checkpoint before
    /// `cursor`, where the retired warm sets sat, and resume it.
    fn resume_with_legacy_members(name: &str, members: &[(&str, &str)]) {
        resume_legacy(name, Objective::default(), |text| {
            let at = text.rfind(",\"cursor\":").unwrap();
            let legacy: String = members
                .iter()
                .map(|(member, value)| format!(",\"{member}\":{value}"))
                .collect();
            format!("{}{legacy}{}", &text[..at], &text[at..])
        });
    }

    /// Cut a run under `objective` at proposal 3 of 6, rewrite its
    /// checkpoint in a retired format with `legacy`, then load and resume
    /// it: the result must equal the uninterrupted run's, and a save must
    /// write the current format again.
    fn resume_legacy(name: &str, objective: Objective, legacy: impl FnOnce(&str) -> String) {
        let path = tmp(name);
        let cfg = |max_proposals| DseConfig {
            objective: objective.clone(),
            max_proposals,
            ..small_cfg(path.clone())
        };
        let full = Dse::new(vec![vecadd()], cfg(None)).run().unwrap();
        assert!(
            !Dse::new(vec![vecadd()], cfg(Some(3)))
                .run()
                .unwrap()
                .completed
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let edited = legacy(&text);
        assert_ne!(edited, text, "the retired format was not written");
        std::fs::write(&path, edited).unwrap();
        let ck = Checkpoint::load(&path).unwrap();
        let mut re = ck.to_json();
        re.push('\n');
        assert_eq!(re, text, "a load kept a retired member");
        let resumed = ck.resume(vec![vecadd()]).unwrap();
        assert!(resumed.completed);
        assert_eq!(full.objective.to_bits(), resumed.objective.to_bits());
        assert_eq!(full.history, resumed.history);
        assert_eq!(full.variants, resumed.variants);
        assert_eq!(full.stats, resumed.stats);
        assert_eq!(full.pareto, resumed.pareto);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_wrong_workloads() {
        let path = tmp("wrong-workloads");
        Dse::new(vec![vecadd()], small_cfg(path.clone()))
            .run()
            .unwrap();
        let ck = Checkpoint::load(&path).unwrap();
        let err = ck.resume(vec![]).unwrap_err();
        assert!(matches!(err, DseError::Checkpoint(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hand_edited_objective_is_rejected_with_a_clear_error() {
        let path = tmp("objective-mismatch");
        Dse::new(vec![vecadd()], small_cfg(path.clone()))
            .run()
            .unwrap();
        // Hand-edit the config's objective while the header (and the
        // cfg-hash) still say the run used the default objective.
        let text = std::fs::read_to_string(&path).unwrap();
        let edited = text.replace(
            "\"kind\":\"weighted_geomean_ipc\"",
            "\"kind\":\"ipc_per_lut\"",
        );
        assert_ne!(
            text, edited,
            "test premise: the objective kind is in the file"
        );
        std::fs::write(&path, edited).unwrap();
        let Err(err) = Checkpoint::load(&path) else {
            panic!("edited checkpoint must not load");
        };
        let msg = err.to_string();
        assert!(
            msg.contains("objective mismatch")
                && msg.contains("weighted_geomean_ipc")
                && msg.contains("ipc_per_lut"),
            "unhelpful error: {msg}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn constrained_objective_round_trips() {
        let path = tmp("constrained-roundtrip");
        // A generous budget (nothing rejected) keeps the run fast while
        // exercising the ConstrainedIpc serialization path end to end.
        let cfg = DseConfig {
            objective: Objective::ConstrainedIpc(DeviceBudget::vcu118()),
            ..small_cfg(path.clone())
        };
        let full = Dse::new(vec![vecadd()], cfg).run().unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        let ck = Checkpoint::load(&path).unwrap();
        assert_eq!(ck.config().objective.kind(), "constrained_ipc");
        let mut re = ck.to_json();
        re.push('\n');
        assert_eq!(on_disk, re, "load -> save must be lossless");
        let resumed = ck.resume(vec![vecadd()]).unwrap();
        assert_eq!(full.objective.to_bits(), resumed.objective.to_bits());
        assert_eq!(full.pareto, resumed.pareto);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compound_config_round_trips() {
        let path = tmp("compound-roundtrip");
        let cfg = DseConfig {
            compound: 3,
            ..small_cfg(path.clone())
        };
        let full = Dse::new(vec![vecadd()], cfg).run().unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        let ck = Checkpoint::load(&path).unwrap();
        assert_eq!(
            ck.config().compound,
            3,
            "compound cap must survive the round trip — a resume that \
             silently fell back to single-rule proposals would replay a \
             different RNG stream"
        );
        let mut re = ck.to_json();
        re.push('\n');
        assert_eq!(on_disk, re, "load -> save must be lossless");
        let resumed = ck.resume(vec![vecadd()]).unwrap();
        assert_eq!(full.objective.to_bits(), resumed.objective.to_bits());
        assert_eq!(full.stats, resumed.stats);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn placement_aware_objective_round_trips() {
        let path = tmp("placement-roundtrip");
        let cfg = DseConfig {
            objective: Objective::PlacementAware(PlacementObjective::default()),
            ..small_cfg(path.clone())
        };
        let full = Dse::new(vec![vecadd()], cfg).run().unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        let ck = Checkpoint::load(&path).unwrap();
        assert_eq!(ck.config().objective.kind(), "placement_aware");
        let mut re = ck.to_json();
        re.push('\n');
        assert_eq!(on_disk, re, "load -> save must be lossless");
        let resumed = ck.resume(vec![vecadd()]).unwrap();
        assert_eq!(full.objective.to_bits(), resumed.objective.to_bits());
        assert_eq!(full.pareto, resumed.pareto);
        assert!(
            full.pareto.points().iter().all(|p| p.placement.is_some()),
            "a placement-aware run must carry placement metrics through \
             the checkpoint"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_file_is_rejected() {
        let path = tmp("corrupt");
        std::fs::write(&path, "{\"magic\":\"nope\"}").unwrap();
        assert!(matches!(
            Checkpoint::load(&path),
            Err(DseError::Checkpoint(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    /// `text` with the value of its first `"key":` field replaced.
    fn set_first(text: &str, key: &str, value: &str) -> String {
        let at = text.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
        let end = at + text[at..].find([',', '}']).unwrap();
        format!("{}{value}{}", &text[..at], &text[end..])
    }

    #[test]
    fn hand_edited_fields_fail_with_a_reason_that_names_them() {
        let path = tmp("hand-edits");
        let store_dir = tmp("hand-edits-store");
        let _ = std::fs::remove_dir_all(&store_dir);
        let cfg = DseConfig {
            store: Some(crate::EvalStore::open(&store_dir).unwrap()),
            ..small_cfg(path.clone())
        };
        Dse::new(vec![vecadd()], cfg).run().unwrap();
        let entry = std::fs::read_dir(&store_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| std::fs::read_to_string(p).unwrap().contains("\"state\":{"))
            .expect("a stored evaluation");
        type Edit = fn(&str) -> String;
        // (edits a store entry, not the checkpoint; the edit; what the
        // error must say)
        let cases: [(bool, Edit, &str); 8] = [
            (
                false,
                |t| {
                    let at = t.find("\"resources\":[").unwrap();
                    let end = at + t[at..].find(']').unwrap();
                    let cut = at + t[at..end].rfind(',').unwrap();
                    format!("{}{}", &t[..cut], &t[end..])
                },
                "resources: expected 4 items, found 3",
            ),
            (
                false,
                |t| set_first(t, "fifo", "\"1ff\""),
                "fifo: 0x1ff is out of range for u8",
            ),
            (
                false,
                |t| t.replacen("\"k\":\"switch\"", "\"k\":\"bogus\"", 1),
                "unknown node kind `bogus`",
            ),
            (
                false,
                |t| set_first(t, "seed", "\"xyz\""),
                "seed: `xyz` is not a hex integer",
            ),
            (
                true,
                |t| t.replacen("[\"e\",", "[\"x\",", 1),
                "malformed trace op with tag `x`",
            ),
            (
                true,
                |t| t.replacen("[\"o\",\"0\"]", "[\"o\",\"5\"]", 1),
                "span pairing: open 5 where open 0 comes next",
            ),
            (
                true,
                |t| set_first(t, "sim", "\"0x1\""),
                "sim: `0x1` is not a hex integer",
            ),
            (
                true,
                |t| set_first(t, "tiles", "\"1.5\""),
                "tiles: `1.5` is not a hex integer",
            ),
        ];
        for (in_store, edit, want) in cases {
            let file = if in_store { &entry } else { &path };
            let original = std::fs::read_to_string(file).unwrap();
            let edited = edit(&original);
            assert_ne!(original, edited, "test premise: `{want}` edits the file");
            std::fs::write(file, edited).unwrap();
            let reason = if in_store {
                match crate::EvalStore::open(&store_dir) {
                    Err(crate::StoreError::Corrupt { reason, .. }) => reason,
                    other => panic!("`{want}`: expected Corrupt, got {other:?}"),
                }
            } else {
                match Checkpoint::load(&path) {
                    Err(DseError::Checkpoint(reason)) => reason,
                    Err(other) => panic!("`{want}`: expected a checkpoint error, got {other}"),
                    Ok(_) => panic!("`{want}`: the edited checkpoint loaded"),
                }
            };
            assert!(reason.contains(want), "`{want}` missing from {reason:?}");
            std::fs::write(file, original).unwrap();
        }
        std::fs::remove_file(&path).ok();
        let _ = std::fs::remove_dir_all(&store_dir);
    }
}
