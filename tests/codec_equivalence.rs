//! Byte pins for everything the DSE persists: checkpoint files and the
//! evaluation store's entry files.
//!
//! Each case runs a small budget-stopped DSE with checkpointing on and
//! hashes the checkpoint it leaves behind (the temp path it was written
//! to is replaced by a placeholder first). The store cases also hash
//! every `eval-*` entry file, name and bytes. The digests were pinned
//! before the checkpoint and store codecs were rewritten, so a digest that
//! moves means an on-disk byte changed.
//!
//! They were re-pinned three times. When the system-DSE memo was retired,
//! each checkpoint equalled the earlier one minus the member that held
//! that memo's warm set, and each store the earlier files minus its
//! `sys-*` entries. When the evaluation memo was retired, each checkpoint
//! equalled the earlier one minus its warm set (`eval_keys`) and with
//! `stats.cache_hits`/`cache_misses` zeroed, and every store file was
//! byte-identical. When the placer stopped being a configurable choice,
//! only `placement-aware` moved: its checkpoint equalled the earlier one
//! minus the objective's `"placer":"simple_grid",` member.
//!
//! The cases cover the format's quirks: hex-string integers next to the
//! store header's decimal `version`, `"op.dtype"` PE capabilities, flat
//! `[src,dst,[path]]` routes, `[ipc,resources,placement]` Pareto points,
//! schedules written as an array and re-keyed by name on load, a `null`
//! trace cursor, every objective's serialization, and a custom device.

use std::collections::BTreeMap;
use std::path::PathBuf;

use overgen_adg::StableHasher;
use overgen_compiler::CompileOptions;
use overgen_dse::{
    CheckpointConfig, DeviceBudget, Dse, DseConfig, EvalStore, Objective, PlacementObjective,
};
use overgen_model::{FpgaDevice, Resources};
use overgen_telemetry::Collector;
use overgen_workloads as workloads;

fn domain() -> Vec<overgen_ir::Kernel> {
    ["fir", "accumulate"]
        .iter()
        .map(|n| workloads::by_name(n).unwrap())
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("overgen-codec-{}-{tag}", std::process::id()))
}

fn base_cfg() -> DseConfig {
    DseConfig {
        iterations: 16,
        seed: 0xC0DEC,
        exchange_interval: 4,
        max_proposals: Some(8),
        compile: CompileOptions {
            max_unroll: 2,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Run `cfg` until its proposal budget stops it and digest the files it
/// leaves: the checkpoint (path normalized) and, with `store`, every
/// entry file of a fresh store.
fn digest(tag: &str, mut cfg: DseConfig, traced: bool, store: bool) -> u64 {
    let dir = scratch(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("checkpoint.json");
    let store_dir = dir.join("store");
    cfg.checkpoint = Some(CheckpointConfig::new(&ck));
    if store {
        cfg.store = Some(EvalStore::open(&store_dir).unwrap());
    }
    let result = {
        let (collector, _ring) = Collector::ring(1 << 18);
        let _install = traced.then(|| overgen_telemetry::install(collector));
        Dse::new(domain(), cfg).run().unwrap()
    };
    assert!(!result.completed, "{tag}: the budget must stop the run");

    let mut h = StableHasher::new();
    let text = std::fs::read_to_string(&ck).unwrap();
    let path = ck.display().to_string();
    assert!(text.contains(&path), "{tag}: checkpoint path not found");
    h.write_str(&text.replace(&path, "<checkpoint>"));
    if store {
        let mut names: Vec<String> = std::fs::read_dir(&store_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert!(
            !names.is_empty() && names.iter().all(|n| n.starts_with("eval-")),
            "{tag}: the store holds {names:?}, not only eval-* entries"
        );
        for name in names {
            h.write_str(&name);
            h.write_bytes(&std::fs::read(store_dir.join(&name)).unwrap());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    h.finish()
}

fn cases() -> Vec<(&'static str, DseConfig, bool, bool)> {
    let custom = FpgaDevice {
        name: "custom-half-vu9p",
        total: Resources {
            lut: 600_000.0,
            ff: 1_200_000.0,
            bram: 1_080.0,
            dsp: 3_420.0,
        },
    };
    let mut custom_cfg = base_cfg();
    custom_cfg.system.device = custom;
    let weights: BTreeMap<String, f64> = [("fir".to_string(), 2.5), ("accumulate".into(), 0.75)]
        .into_iter()
        .collect();
    vec![
        ("default-traced", base_cfg(), true, false),
        ("default-untraced", base_cfg(), false, false),
        (
            "constrained",
            DseConfig {
                objective: Objective::ConstrainedIpc(DeviceBudget::vcu118_medium()),
                ..base_cfg()
            },
            true,
            false,
        ),
        (
            "ipc-per-lut",
            DseConfig {
                objective: Objective::IpcPerLut,
                ..base_cfg()
            },
            true,
            false,
        ),
        (
            "placement-aware",
            DseConfig {
                objective: Objective::PlacementAware(PlacementObjective::default()),
                ..base_cfg()
            },
            true,
            false,
        ),
        (
            "compound",
            DseConfig {
                compound: 3,
                chains: 2,
                weights,
                ..base_cfg()
            },
            true,
            false,
        ),
        ("custom-device", custom_cfg, true, false),
        // Long and disruptive enough to write invalid (`"state":null`)
        // evaluations and filled repair-distance histograms.
        ("store", store_cfg(), true, true),
        // No collector, but a store: entries keep every trace op, since a
        // later traced job may replay them.
        ("store-untraced", store_cfg(), false, true),
    ]
}

fn store_cfg() -> DseConfig {
    DseConfig {
        iterations: 100,
        max_proposals: Some(80),
        mutations_per_step: 6,
        schedule_preserving: false,
        ..base_cfg()
    }
}

// Pinned before the codec rewrite and re-pinned when the system-DSE memo
// and then the evaluation memo were retired, and `placement-aware` when
// the placer choice was (see module docs);
// `store-untraced` was pinned before untraced runs stopped recording
// evaluation traces.
const GOLDEN: [(&str, u64); 9] = [
    ("default-traced", 0xd62233c23ca116ef),
    ("default-untraced", 0x01f74dda2c49e3e6),
    ("constrained", 0xadb112b743f9ee4f),
    ("ipc-per-lut", 0x727ea58b1333e86d),
    ("placement-aware", 0x27c408491a398e05),
    ("compound", 0x94c009fc223e745d),
    ("custom-device", 0xc64e77795ae734db),
    ("store", 0x6fc0df70850947ae),
    ("store-untraced", 0x7e8f5a7b61c9a359),
];

#[test]
fn persisted_bytes_match_the_pinned_digests() {
    let got: Vec<(&str, u64)> = cases()
        .into_iter()
        .map(|(tag, cfg, traced, store)| (tag, digest(tag, cfg, traced, store)))
        .collect();
    assert_eq!(got, GOLDEN);
}
