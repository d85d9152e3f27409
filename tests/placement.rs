//! The spatial-placement contract (DESIGN.md §14).
//!
//! The placement stage runs only under `Objective::PlacementAware`; that
//! a default-objective run cannot see it (its pre-placement goldens, no
//! `dse.place` events, no placement metrics on any Pareto point) is
//! pinned in `objective_equivalence.rs`.
//!
//! **Placement-aware runs inherit every determinism guarantee.** Same
//! results and byte-identical traces at any thread count, every tile
//! anchored to exactly one legal grid cell across the whole parameter
//! sweep, and NoC wirelength a function of the anchor multiset alone
//! (invariant under tile-id relabeling).

use overgen_adg::{mesh, MeshSpec, SysAdg, SystemParams};
use overgen_compiler::CompileOptions;
use overgen_dse::{Dse, DseConfig, DseResult, Objective, PlacementObjective};
use overgen_model::{noc_wirelength, ClockRegionGrid, Resources, SimpleGridPlacer};
use overgen_telemetry::Collector;
use overgen_workloads as workloads;

fn fnv1a64(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn fold_u64(h: u64, v: u64) -> u64 {
    fnv1a64(&v.to_le_bytes(), h)
}

/// Same digest as `objective_equivalence.rs`.
fn result_digest(r: &DseResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fold_u64(h, r.objective.to_bits());
    h = fold_u64(h, r.sys_adg.fingerprint());
    h = fold_u64(h, r.history.len() as u64);
    for (t, o) in &r.history {
        h = fold_u64(h, t.to_bits());
        h = fold_u64(h, o.to_bits());
    }
    for (name, v) in &r.variants {
        h = fnv1a64(name.as_bytes(), h);
        h = fold_u64(h, u64::from(*v));
    }
    for v in [
        r.stats.iterations,
        r.stats.accepted,
        r.stats.invalid,
        r.stats.full_schedules,
        r.stats.repairs,
        r.stats.intact,
        r.stats.cache_hits,
        r.stats.cache_misses,
        r.stats.repair_fast,
        r.stats.repair_fallback,
    ] {
        h = fold_u64(h, v as u64);
    }
    h
}

fn trace_digest(trace: &str) -> u64 {
    fnv1a64(trace.as_bytes(), 0xcbf2_9ce4_8422_2325)
}

/// The golden run configuration of `objective_equivalence.rs`.
fn golden_cfg(threads: usize) -> DseConfig {
    DseConfig {
        iterations: 24,
        seed: 0xB0B5_CA7E,
        threads,
        chains: 2,
        exchange_interval: 8,
        compile: CompileOptions {
            max_unroll: 4,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn run(cfg: DseConfig) -> (DseResult, String) {
    let (collector, ring) = Collector::ring(1 << 18);
    let _install = overgen_telemetry::install(collector);
    let domain = vec![workloads::by_name("fir").unwrap()];
    let result = Dse::new(domain, cfg).run().unwrap();
    (result, ring.to_jsonl())
}

#[test]
fn placement_aware_runs_differ_and_fill_a_three_axis_frontier() {
    let (r, trace) = run(DseConfig {
        objective: Objective::PlacementAware(PlacementObjective::default()),
        ..golden_cfg(1)
    });
    let (default, _) = run(golden_cfg(1));
    assert_ne!(
        result_digest(&r),
        result_digest(&default),
        "a placement-aware objective must actually change selection"
    );
    assert!(
        trace.contains("\"type\":\"dse.place\""),
        "placement evaluations must be visible in the trace"
    );
    assert!(r.objective > 0.0);
    assert!(!r.pareto.points().is_empty());
    for p in r.pareto.points() {
        let m = p
            .placement
            .expect("every placement-aware Pareto point must carry the third axis");
        assert!(m.fmax_mhz >= 40.0 && m.fmax_mhz < 160.0, "{m:?}");
        assert!(m.congestion > 0.0, "{m:?}");
    }
}

#[test]
fn placement_aware_runs_are_deterministic_across_thread_counts() {
    let cfg = |threads| DseConfig {
        objective: Objective::PlacementAware(PlacementObjective::default()),
        ..golden_cfg(threads)
    };
    let (r1, t1) = run(cfg(1));
    let (r4, t4) = run(cfg(4));
    assert_eq!(
        result_digest(&r1),
        result_digest(&r4),
        "threads=4 changed a placement-aware result"
    );
    assert_eq!(
        trace_digest(&t1),
        trace_digest(&t4),
        "threads=4 changed a placement-aware trace"
    );
    assert_eq!(r1.pareto, r4.pareto, "frontier must be thread-independent");
}

fn sys_with_tiles(tiles: u32) -> SysAdg {
    SysAdg::new(
        mesh(&MeshSpec::default()),
        SystemParams {
            tiles,
            ..SystemParams::default()
        },
    )
}

#[test]
fn every_tile_gets_exactly_one_legal_cell_across_the_sweep() {
    let g = ClockRegionGrid::vcu118();
    for tiles in 1..=24u32 {
        for lut in [5_000.0, 60_000.0, 200_000.0, 500_000.0] {
            let tile = Resources {
                lut,
                ff: lut * 1.1,
                bram: lut / 2_000.0,
                dsp: lut / 5_000.0,
            };
            let r = SimpleGridPlacer.place(&sys_with_tiles(tiles), &tile, &g);
            assert_eq!(
                r.cells.len(),
                tiles as usize,
                "tiles={tiles} lut={lut}: one anchor per tile"
            );
            for c in &r.cells {
                assert!(
                    g.contains(*c),
                    "tiles={tiles} lut={lut}: anchor {c:?} off-grid"
                );
            }
            assert!(g.contains(r.hub));
            assert!(r.wirelength >= 0.0 && r.congestion > 0.0);
            assert!(r.fmax_mhz >= overgen_model::FMAX_FLOOR_MHZ);
        }
    }
}

#[test]
fn wirelength_is_invariant_under_tile_relabeling() {
    let g = ClockRegionGrid::vcu118();
    for tiles in [2u32, 5, 9, 16] {
        let tile = Resources {
            lut: 70_000.0,
            ff: 77_000.0,
            bram: 35.0,
            dsp: 14.0,
        };
        let r = SimpleGridPlacer.place(&sys_with_tiles(tiles), &tile, &g);
        let base = noc_wirelength(&r.cells, r.hub);
        // Walk every rotation and the full reversal: the total is a
        // function of the anchor multiset, never of which tile owns
        // which anchor.
        let mut relabeled = r.cells.clone();
        for _ in 0..relabeled.len() {
            relabeled.rotate_left(1);
            assert_eq!(noc_wirelength(&relabeled, r.hub), base, "tiles={tiles}");
        }
        relabeled.reverse();
        assert_eq!(noc_wirelength(&relabeled, r.hub), base, "tiles={tiles}");
    }
}
