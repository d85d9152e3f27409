//! Property-based tests over the core pipeline, driven by the in-tree
//! deterministic PRNG (`overgen_telemetry::Rng`) so they run with zero
//! external dependencies.

use std::collections::BTreeMap;

use overgen_adg::{mesh, AdgSummary, MeshSpec, SysAdg, SystemParams};
use overgen_compiler::{compile_variants, lower, CompileOptions, LowerChoices};
use overgen_dse::{Dse, DseConfig, ParetoFront, ParetoPoint, RuleSet, TransformCtx};
use overgen_ir::{expr, AffineExpr, DataType, Kernel, KernelBuilder, Suite};
use overgen_mdfg::Mdfg;
use overgen_scheduler::{
    repair, repair_with, schedule, HwIndex, RepairOptions, RepairOutcome, Schedule,
    ScheduleFootprint,
};
use overgen_telemetry::Rng;

/// A random but well-formed elementwise kernel.
fn arb_kernel(rng: &mut Rng, tag: usize) -> Kernel {
    let n = rng.gen_range(4u64..=4096);
    let shape = rng.gen_range(0usize..3);
    let dtype = match rng.gen_range(0usize..3) {
        0 => DataType::I16,
        1 => DataType::I64,
        _ => DataType::F64,
    };
    let accum = rng.gen_bool(0.5);
    let value = match shape {
        0 => expr::load("a", expr::idx("i")) + expr::load("b", expr::idx("i")),
        1 => expr::load("a", expr::idx("i")) * expr::load("b", expr::idx("i")),
        _ => {
            expr::load("a", expr::idx("i")) * expr::load("b", expr::idx("i"))
                + expr::load("a", expr::idx("i"))
        }
    };
    let name = format!("rand{tag}");
    let b = KernelBuilder::new(&name, Suite::Dsp, dtype)
        .array_input("a", n)
        .array_input("b", n)
        .array_output("c", n)
        .loop_const("i", n);
    let b = if accum {
        b.accum("c", expr::idx("i"), value)
    } else {
        b.assign("c", expr::idx("i"), value)
    };
    b.build().expect("generated kernel is well formed")
}

/// The invariants any schedule must uphold against the hardware it claims
/// to map onto: complete assignment onto live nodes, exclusive PEs, routes
/// that start/end at assigned nodes and walk real edges.
fn assert_schedule_valid(sched: &Schedule, mdfg: &Mdfg, sys: &SysAdg) {
    assert_eq!(sched.assignment.len(), mdfg.node_count());
    for hw in sched.assignment.values() {
        assert!(sys.adg.contains(*hw), "assignment onto dead node");
    }
    let mut pes = std::collections::BTreeSet::new();
    for (mid, hw) in &sched.assignment {
        if mdfg.node(*mid).unwrap().as_inst().is_some() {
            assert!(pes.insert(*hw), "PE shared by two instructions");
        }
    }
    for ((src, dst), path) in &sched.routes {
        assert_eq!(path[0], sched.assignment[src]);
        assert_eq!(*path.last().unwrap(), sched.assignment[dst]);
        for w in path.windows(2) {
            assert!(sys.adg.has_edge(w[0], w[1]), "route uses missing edge");
        }
    }
}

/// The mapping portion of a schedule (everything except the re-scorable
/// performance estimate).
fn mapping_of(s: &Schedule) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        &s.mdfg_name,
        s.variant,
        &s.assignment,
        &s.stream_engines,
        &s.routes,
        &s.placement,
    )
}

#[test]
fn repair_on_unchanged_hardware_is_intact_and_identical() {
    let mut rng = Rng::seed_from_u64(0x9E37);
    let mut exercised = 0;
    for tag in 0..24 {
        let k = arb_kernel(&mut rng, tag);
        let sys = SysAdg::new(mesh(&MeshSpec::general()), SystemParams::default());
        let mdfg = lower(
            &k,
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let Ok(prior) = schedule(&mdfg, &sys, None) else {
            continue; // not every random kernel fits; that is legal
        };
        let (repaired, outcome) = repair(&prior, &mdfg, &sys).expect("intact prior must repair");
        assert_eq!(outcome, RepairOutcome::Intact);
        assert_eq!(
            repaired, prior,
            "re-scoring unchanged hardware must be a no-op"
        );
        exercised += 1;
    }
    assert!(exercised >= 12, "only {exercised} kernels scheduled");
}

#[test]
fn repair_after_mutations_yields_valid_schedules() {
    let mut rng = Rng::seed_from_u64(0xDA7A);
    let mut repaired_some = 0;
    for tag in 0..24 {
        let k = arb_kernel(&mut rng, tag);
        let cap_pool = Dse::cap_pool(std::slice::from_ref(&k));
        let base = mesh(&MeshSpec::general());
        let sys = SysAdg::new(base.clone(), SystemParams::default());
        let mdfg = lower(
            &k,
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let Ok(prior) = schedule(&mdfg, &sys, None) else {
            continue;
        };

        // Mutate the hardware the way the annealer does, keeping the
        // schedule list updated by preserving transforms.
        let mut adg = base;
        let mut schedules = vec![prior];
        for _ in 0..rng.gen_range(1usize..=4) {
            let preserving = rng.gen_bool(0.7);
            let mut ctx = TransformCtx {
                cap_pool: &cap_pool,
                schedules: &mut schedules,
                preserving,
            };
            RuleSet::legacy().apply_random(&mut adg, &mut ctx, &mut rng, 0);
        }
        let prior = schedules.pop().unwrap();
        let mutated = SysAdg::new(adg, SystemParams::default());
        if mutated.validate().is_err() {
            continue;
        }

        match repair(&prior, &mdfg, &mutated) {
            Ok((s, RepairOutcome::Intact)) => {
                // Intact = every placement decision survived; routes may
                // still be re-found when a mutation opens a better path.
                assert_eq!(s.mdfg_name, prior.mdfg_name);
                assert_eq!(s.variant, prior.variant);
                assert_eq!(s.assignment, prior.assignment);
                assert_eq!(s.stream_engines, prior.stream_engines);
                assert_eq!(s.placement, prior.placement);
                assert_schedule_valid(&s, &mdfg, &mutated);
                repaired_some += 1;
            }
            Ok((s, RepairOutcome::Repaired { moved })) => {
                // `moved` counts assignment changes; a zero-move repair is
                // legal (e.g. only a route lost an edge) but must still
                // have rewritten *something* in the mapping.
                if moved == 0 {
                    assert!(
                        mapping_of(&s) != mapping_of(&prior),
                        "Repaired outcome left the mapping untouched"
                    );
                }
                assert_schedule_valid(&s, &mdfg, &mutated);
                repaired_some += 1;
            }
            Err(_) => {} // mutation broke the mapping beyond repair; legal
        }
    }
    assert!(repaired_some >= 8, "only {repaired_some} repairs exercised");
}

/// The repair engine's core contract: for any random mutation sequence,
/// the incremental fast path and a forced full re-placement produce the
/// *same* schedule — same validity, same mapping, same estimated latency
/// (bit-identical IPC), same outcome classification. A repair through one
/// shared [`HwIndex`] of the mutated hardware, taking the prior by value,
/// equals the per-call [`repair_with`] in both modes. Each of two seeds
/// draws 32 kernels, each mutated by a chain of one to four rules.
#[test]
fn incremental_repair_equals_full_replacement() {
    for seed in [0x1C4E, 0x5C0B] {
        incremental_repair_equals_full_replacement_from(seed);
    }
}

fn incremental_repair_equals_full_replacement_from(seed: u64) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut compared = 0;
    for tag in 0..32 {
        let k = arb_kernel(&mut rng, tag);
        let cap_pool = Dse::cap_pool(std::slice::from_ref(&k));
        let base = mesh(&MeshSpec::general());
        let sys = SysAdg::new(base.clone(), SystemParams::default());
        let mdfg = lower(
            &k,
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let Ok(prior) = schedule(&mdfg, &sys, None) else {
            continue;
        };

        let mut adg = base;
        let mut schedules = vec![prior];
        let mut footprint = ScheduleFootprint::Pure;
        for _ in 0..rng.gen_range(1usize..=4) {
            let preserving = rng.gen_bool(0.7);
            let mut ctx = TransformCtx {
                cap_pool: &cap_pool,
                schedules: &mut schedules,
                preserving,
            };
            let app = RuleSet::legacy().apply_random(&mut adg, &mut ctx, &mut rng, 0);
            footprint = footprint.merge(app.inferred);
        }
        let prior = schedules.pop().unwrap();
        let mutated = SysAdg::new(adg, SystemParams::default());
        if mutated.validate().is_err() {
            continue;
        }

        let opts = |incremental| RepairOptions {
            incremental,
            footprint: Some(footprint),
            scope: None,
        };
        let fast = repair_with(&prior, &mdfg, &mutated, &opts(true));
        let full = repair_with(&prior, &mdfg, &mutated, &opts(false));
        let hw = HwIndex::new(&mutated);
        for (incremental, per_call) in [(true, &fast), (false, &full)] {
            assert_eq!(
                &hw.repair(prior.clone(), &mdfg, &opts(incremental)),
                per_call,
                "shared-index repair != per-call repair (incremental {incremental})"
            );
        }
        match (fast, full) {
            (Ok((fs, fo)), Ok((gs, go))) => {
                assert_eq!(fo, go, "outcome classification diverged");
                assert_eq!(
                    fs.est.ipc.to_bits(),
                    gs.est.ipc.to_bits(),
                    "estimated latency diverged"
                );
                assert_eq!(fs, gs, "incremental repair != full re-placement");
                assert_schedule_valid(&fs, &mdfg, &mutated);
                compared += 1;
            }
            (Err(_), Err(_)) => {} // both modes agree the mapping is dead
            (a, b) => panic!(
                "repair modes disagree on schedulability: fast={:?} full={:?}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }
    assert!(
        compared >= 10,
        "seed {seed:#x}: only {compared} repairs compared"
    );
}

/// The rewrite engine's inference contract: for any seeded sequence of
/// random rule applications, the footprint inferred from the recorded
/// delta is never weaker than the rule's legacy hand classification —
/// i.e. a repair driven by the inferred class always scans at least as
/// much as the hand-maintained one would have.
#[test]
fn inferred_footprint_dominates_hand_classification() {
    let mut rng = Rng::seed_from_u64(0xF007);
    let set = RuleSet::legacy();
    let mut applied = 0;
    for tag in 0..16 {
        let k = arb_kernel(&mut rng, tag);
        let cap_pool = Dse::cap_pool(std::slice::from_ref(&k));
        let base = mesh(&MeshSpec::general());
        let sys = SysAdg::new(base.clone(), SystemParams::default());
        let mdfg = lower(&k, 0, &LowerChoices::default()).unwrap();
        let Ok(prior) = schedule(&mdfg, &sys, None) else {
            continue;
        };
        let mut adg = base;
        let mut schedules = vec![prior];
        for step in 0..12u64 {
            let preserving = rng.gen_bool(0.5);
            let mut ctx = TransformCtx {
                cap_pool: &cap_pool,
                schedules: &mut schedules,
                preserving,
            };
            let app = set.apply_random(&mut adg, &mut ctx, &mut rng, step);
            assert!(
                app.inferred >= app.hand,
                "rule {} inferred {:?} weaker than hand {:?}",
                app.rule,
                app.inferred,
                app.hand
            );
            // A pure inference must come from an empty recorded delta:
            // Pure claims the proposal changed no hardware at all.
            if app.inferred == ScheduleFootprint::Pure {
                assert!(app.delta.is_empty(), "pure inference from non-empty delta");
            }
            applied += 1;
        }
    }
    assert!(applied >= 100, "only {applied} rule applications checked");
}

#[test]
fn cached_evaluations_equal_fresh_evaluations() {
    // Identical configs except for the cache must walk identical
    // trajectories and land on bit-identical results: an evaluation
    // captured into the store, or served from it by a rerun, is
    // observationally a fresh evaluation.
    let mut rng = Rng::seed_from_u64(0xCAC4E);
    let dir = std::env::temp_dir().join(format!("overgen-props-store-{}", std::process::id()));
    for tag in 0..3 {
        let k = arb_kernel(&mut rng, tag);
        let _ = std::fs::remove_dir_all(&dir);
        let store = overgen_dse::EvalStore::open(&dir).unwrap();
        let mk_cfg = |cache: bool| DseConfig {
            iterations: 8,
            seed: 0xBEEF + tag as u64,
            cache,
            store: Some(store.clone()),
            compile: CompileOptions {
                max_unroll: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        let off = Dse::new(vec![k.clone()], mk_cfg(false)).run().unwrap();
        assert_eq!(store.stats().lookups, 0, "cache off consulted the store");
        let captured = Dse::new(vec![k.clone()], mk_cfg(true)).run().unwrap();
        let publishes = store.stats().publishes;
        assert!(publishes > 0);
        let served = Dse::new(vec![k], mk_cfg(true)).run().unwrap();
        assert_eq!(store.stats().publishes, publishes, "a rerun was not served");
        for on in [captured, served] {
            assert_eq!(on.objective.to_bits(), off.objective.to_bits());
            assert_eq!(on.history, off.history);
            assert_eq!(on.variants, off.variants);
            assert_eq!(on.schedules, off.schedules);
            assert_eq!(on.stats, off.stats);
            assert_eq!(
                on.sys_adg.fingerprint(),
                off.sys_adg.fingerprint(),
                "the store changed the chosen hardware"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The Pareto frontier's algebraic contract over random point clouds:
/// the survivors are exactly the non-dominated subset of the input, the
/// canonical result is independent of insertion order, and merging split
/// halves equals building from the whole.
#[test]
fn pareto_front_is_the_non_dominated_subset_in_canonical_order() {
    // Externally-checked dominance, mirroring the documented semantics
    // (IPC maximized, all four resource channels minimized).
    fn dominates(p: &ParetoPoint, q: &ParetoPoint) -> bool {
        let no_worse = p.ipc >= q.ipc
            && p.resources.lut <= q.resources.lut
            && p.resources.ff <= q.resources.ff
            && p.resources.bram <= q.resources.bram
            && p.resources.dsp <= q.resources.dsp;
        no_worse && (p != q)
    }

    let mut rng = Rng::seed_from_u64(0x9A12_E701);
    for round in 0..48 {
        // Coarse grid coordinates so domination, ties, and exact
        // duplicates all actually occur in the sample.
        let n = rng.gen_range(1usize..=40);
        let mut pts = Vec::with_capacity(n);
        for _ in 0..n {
            let mut q = |scale: f64| rng.gen_range(0u64..6) as f64 * scale;
            pts.push(ParetoPoint {
                ipc: q(0.5),
                resources: overgen_model::Resources {
                    lut: q(1000.0),
                    ff: q(500.0),
                    bram: q(8.0),
                    dsp: q(4.0),
                },
                placement: None,
            });
        }

        let front = ParetoFront::from_points(pts.iter().copied());
        assert!(!front.is_empty(), "round {round}: nonempty input");
        for (i, p) in front.points().iter().enumerate() {
            assert!(pts.contains(p), "round {round}: frontier invented a point");
            assert!(
                !pts.iter().any(|q| dominates(q, p)),
                "round {round}: point {i} is dominated by an input point"
            );
        }
        for p in &pts {
            assert!(
                front.points().contains(p) || front.points().iter().any(|q| dominates(q, p)),
                "round {round}: input point dropped without a dominator"
            );
        }
        for w in front.points().windows(2) {
            assert!(w[0].ipc >= w[1].ipc, "round {round}: order broken");
            assert_ne!(w[0], w[1], "round {round}: duplicate survived");
        }

        // Insertion-order independence: a Fisher-Yates shuffle must land
        // on the identical canonical frontier.
        let mut shuffled = pts.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0usize..=i));
        }
        assert_eq!(
            front,
            ParetoFront::from_points(shuffled),
            "round {round}: frontier depends on insertion order"
        );

        // Merge of split halves equals the frontier of the whole.
        let mid = pts.len() / 2;
        let mut left = ParetoFront::from_points(pts[..mid].iter().copied());
        left.merge(&ParetoFront::from_points(pts[mid..].iter().copied()));
        assert_eq!(front, left, "round {round}: merge diverged");
    }
}

/// A prior schedule for workload maps survives round-tripping through the
/// DSE result: every returned schedule satisfies the validity invariants
/// on the returned hardware.
#[test]
fn dse_results_carry_valid_schedules() {
    let mut rng = Rng::seed_from_u64(0x5EED);
    let k = arb_kernel(&mut rng, 7);
    let cfg = DseConfig {
        iterations: 6,
        compile: CompileOptions {
            max_unroll: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let r = Dse::new(vec![k], cfg).run().unwrap();
    let by_variant: BTreeMap<&String, u32> = r.variants.iter().map(|(k, v)| (k, *v)).collect();
    for (name, sched) in &r.schedules {
        let variant = by_variant[name];
        let mdfg = r.mdfgs[name]
            .iter()
            .find(|m| m.variant() == variant)
            .expect("chosen variant exists");
        assert_schedule_valid(sched, mdfg, &r.sys_adg);
    }
}

/// The analytic steady-state model is a true lower bound: for seeded
/// random (kernel, schedule, system-grid-point) pairs, the closed-form
/// cycle count never exceeds what the cycle-stepped simulator reports
/// (and its IPC upper bound never undercuts the simulated IPC). This is
/// the soundness property the system-DSE pruning rests on (DESIGN.md
/// §12).
#[test]
fn analytic_bound_never_exceeds_simulated_cycles() {
    use overgen_sim::{analytic_cycles, simulate, SimConfig};

    let mut rng = Rng::seed_from_u64(0xA11A1);
    let banks = [2u32, 4, 8, 16];
    let kbs = [16u32, 256, 512, 1024, 2048];
    let nocs = [16u32, 32, 64, 128];
    let mut exercised = 0;
    for tag in 0..20 {
        let k = arb_kernel(&mut rng, tag);
        let adg = mesh(&MeshSpec::general());
        let mdfg = lower(
            &k,
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let sys0 = SysAdg::new(adg.clone(), SystemParams::default());
        let Ok(sched) = schedule(&mdfg, &sys0, None) else {
            continue; // not every random kernel fits; that is legal
        };
        for _ in 0..4 {
            let sys = SystemParams {
                tiles: rng.gen_range(1u32..=16),
                l2_banks: banks[rng.gen_range(0usize..banks.len())],
                l2_kb: kbs[rng.gen_range(0usize..kbs.len())],
                noc_bw_bytes: nocs[rng.gen_range(0usize..nocs.len())],
                dram_channels: rng.gen_range(1u32..=4),
            };
            let sys_adg = SysAdg::new(adg.clone(), sys);
            let cfg = SimConfig::default();
            let lb = analytic_cycles(&mdfg, &sched, &sys_adg, &cfg);
            let r = simulate(&mdfg, &sched, &sys_adg, &cfg);
            assert!(
                lb <= r.cycles,
                "{}: analytic {lb} > simulated {} at {sys:?}",
                k.name(),
                r.cycles
            );
            exercised += 1;
        }
    }
    assert!(exercised >= 40, "only {exercised} pairs exercised");
}

#[test]
fn compile_variants_always_validate() {
    let mut rng = Rng::seed_from_u64(0xC0DE);
    for tag in 0..48 {
        let k = arb_kernel(&mut rng, tag);
        let vs = compile_variants(&k, &CompileOptions::default()).unwrap();
        assert!(!vs.is_empty(), "{}: no variants", k.name());
        let innermost = k.nest().innermost().unwrap().trip.max();
        for v in &vs {
            v.validate().unwrap();
            assert!(
                u64::from(v.unroll()) <= innermost,
                "{}: unroll exceeds the innermost trip count",
                k.name()
            );
            assert!(
                v.firings() * f64::from(v.unroll()) >= k.total_iterations(),
                "{}: firings do not cover the iteration space",
                k.name()
            );
        }
    }
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a64(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Every compiler output for `kernels`, digested from its `{:?}`: the
/// `compile_variants` result under the default options and under a narrow
/// set (unroll 4, no no-recurrence variants, a 4 KiB scratchpad), then
/// direct `lower` calls at unroll 1, 2, 3 and 8 with and without the
/// recurrence engine. Errors are digested too.
fn compiler_digest(kernels: &[Kernel]) -> u64 {
    let narrow = CompileOptions {
        max_unroll: 4,
        include_no_recurrence: false,
        spad_cap_bytes: 4 * 1024,
    };
    let mut h = 0xcbf2_9ce4_8422_2325;
    for k in kernels {
        for opts in [CompileOptions::default(), narrow] {
            h = fnv1a64(format!("{:?}", compile_variants(k, &opts)).as_bytes(), h);
        }
        for unroll in [1, 2, 3, 8] {
            for use_recurrence in [true, false] {
                let choices = LowerChoices {
                    unroll,
                    use_recurrence,
                    ..Default::default()
                };
                h = fnv1a64(format!("{:?}", lower(k, unroll, &choices)).as_bytes(), h);
            }
        }
    }
    h
}

/// Kernels whose stream sharing the workloads do not reach: an index
/// stream that an accumulation reads back, a constant-only guarded
/// statement, and two statements sharing one window stream under a
/// variable trip count.
fn stream_sharing_kernels() -> Vec<Kernel> {
    use overgen_ir::{ArrayRef, Stmt};
    let gather_back = KernelBuilder::new("gather-back", Suite::MachSuite, DataType::I64)
        .array_input("val", 2048)
        .array_output("col", 512)
        .loop_const("i", 512)
        .accum(
            "col",
            expr::idx("i"),
            expr::load_indirect("val", "col", expr::idx("i")),
        )
        .build()
        .unwrap();
    let fill = KernelBuilder::new("fill", Suite::Vision, DataType::I16)
        .array_input("a", 256)
        .array_output("c", 256)
        .array_output("d", 256)
        .loop_const("i", 256)
        .stmt(Stmt::assign(ArrayRef::affine("c", expr::idx("i")), expr::lit(3.0)).with_guard())
        .assign("d", expr::idx("i"), expr::load("a", expr::idx("i")))
        .build()
        .unwrap();
    let shared_window = KernelBuilder::new("shared-window", Suite::Dsp, DataType::F64)
        .array_input("a", 1024)
        .array_input("b", 64)
        .array_output("c", 1024)
        .array_output("d", 1024)
        .loop_variable("j", 64, 40.0)
        .loop_const("i", 512)
        .assign(
            "c",
            expr::idx("i"),
            expr::load("a", expr::idx("i")) + expr::load("a", expr::idx("i") + expr::idx_const(1)),
        )
        .accum(
            "d",
            expr::idx("i"),
            expr::load("a", expr::idx("i") + expr::idx_const(2)) * expr::load("b", expr::idx("j")),
        )
        .accum("c", expr::idx("i"), expr::load("d", expr::idx("i")))
        .build()
        .unwrap();
    vec![gather_back, fill, shared_window]
}

/// Every variant the compiler emits is pinned: the 19 workloads, their
/// OverGen- and HLS-tuned variants, the generated kernels of
/// `compile_variants_always_validate` and the stream-sharing kernels, each
/// digested by [`compiler_digest`]. The digests were recorded before the
/// compiler analysed each kernel once for all its variants; a digest that
/// moves means a compiled node, edge or value changed.
#[test]
fn compiler_outputs_match_the_pinned_digests() {
    let plain = overgen_workloads::all();
    let tuned: Vec<Kernel> = plain
        .iter()
        .flat_map(|k| {
            [
                overgen_workloads::og_tuned(k.name()),
                overgen_workloads::hls_tuned(k.name()),
            ]
        })
        .flatten()
        .collect();
    let mut rng = Rng::seed_from_u64(0xC0DE);
    let generated: Vec<Kernel> = (0..48).map(|tag| arb_kernel(&mut rng, tag)).collect();
    let sharing = stream_sharing_kernels();
    assert_eq!(
        [plain.len(), tuned.len(), generated.len(), sharing.len()],
        [19, 11, 48, 3]
    );
    for k in &sharing {
        let variants = compile_variants(k, &CompileOptions::default()).unwrap();
        assert_eq!(variants.len(), if k.name() == "fill" { 5 } else { 10 });
    }
    let got = [&plain, &tuned, &generated, &sharing].map(|ks| compiler_digest(ks));
    assert_eq!(
        got,
        [
            18169595028261161039,
            2023856730049722761,
            2221002747735162783,
            13957725350822277994
        ],
        "workloads, tuned, generated, sharing"
    );
}

/// `Dse::run` sizes its seed mesh from the unroll-1 variants it compiled;
/// that must be the mesh `Dse::seed_adg` builds by lowering each kernel
/// itself, for each suite and for all 19 kernels. A zero-iteration run
/// returns the seed it evaluated, widened if it did not schedule, and a
/// widened port changes the fingerprint.
#[test]
fn run_seeds_the_mesh_seed_adg_builds() {
    let mut domains: Vec<Vec<Kernel>> = [Suite::Dsp, Suite::MachSuite, Suite::Vision]
        .map(overgen_workloads::suite)
        .into();
    domains.push(overgen_workloads::all());
    for domain in domains {
        let cfg = DseConfig {
            iterations: 0,
            ..Default::default()
        };
        let r = Dse::new(domain.clone(), cfg).run().unwrap();
        let label = format!("{} kernels from {}", domain.len(), domain[0].name());
        let seed = Dse::seed_adg(&domain).unwrap();
        assert_eq!(
            r.sys_adg.adg.fingerprint(),
            seed.fingerprint(),
            "{label}: another seed, or the seed widened"
        );
    }
}

#[test]
fn simulation_terminates_and_conserves_work() {
    use overgen_sim::{simulate, SimConfig};

    let mut rng = Rng::seed_from_u64(0x51A7);
    let sys = SysAdg::new(mesh(&MeshSpec::general()), SystemParams::default());
    let tiles = u64::from(sys.sys.tiles);
    let mut simulated = 0;
    for tag in 0..48 {
        let k = arb_kernel(&mut rng, tag);
        let mdfg = lower(
            &k,
            0,
            &LowerChoices {
                unroll: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let Ok(sched) = schedule(&mdfg, &sys, None) else {
            continue; // not every random kernel fits; that is legal
        };
        let r = simulate(&mdfg, &sched, &sys, &SimConfig::default());
        assert!(!r.truncated, "{}: simulation truncated", k.name());
        // every firing of this tile's share is delivered
        assert_eq!(r.firings, (mdfg.firings() as u64).div_ceil(tiles));
        // IPC is bounded by the theoretical peak
        assert!(r.ipc <= mdfg.insts_per_firing() * tiles as f64 + 1e-9);
        simulated += 1;
    }
    assert!(simulated >= 24, "only {simulated} kernels simulated");
}

#[test]
fn affine_range_contains_samples() {
    let mut rng = Rng::seed_from_u64(0xAFF1);
    for _ in 0..256 {
        let (c0, c1, c2) = (
            rng.gen_range(-50i64..50),
            rng.gen_range(-4i64..4),
            rng.gen_range(-4i64..4),
        );
        let (n1, n2) = (rng.gen_range(1u64..40), rng.gen_range(1u64..40));
        let e = (AffineExpr::var("x").scaled(c1) + AffineExpr::var("y").scaled(c2)).offset(c0);
        let extent = |v: &str| match v {
            "x" => Some(n1),
            "y" => Some(n2),
            _ => None,
        };
        let (lo, hi) = e.value_range(&extent);
        for x in [0, (n1 - 1) / 2, n1 - 1] {
            for y in [0, (n2 - 1) / 2, n2 - 1] {
                let env =
                    BTreeMap::from([("x".to_string(), x as i64), ("y".to_string(), y as i64)]);
                let v = e.eval(&env);
                assert!(v >= lo && v <= hi, "{v} outside [{lo},{hi}]");
            }
        }
    }
}

#[test]
fn mesh_specs_always_build_valid_graphs() {
    let mut rng = Rng::seed_from_u64(0x3E54);
    let widths = [8u16, 16, 32, 64];
    for _ in 0..64 {
        let spec = MeshSpec {
            rows: rng.gen_range(1usize..5),
            cols: rng.gen_range(1usize..6),
            in_ports: rng.gen_range(1usize..8),
            out_ports: rng.gen_range(1usize..6),
            port_width_bytes: widths[rng.gen_range(0usize..widths.len())],
            ..MeshSpec::default()
        };
        let adg = mesh(&spec);
        adg.validate().unwrap();
        let s = AdgSummary::of(&adg);
        assert_eq!(s.pes, spec.rows * spec.cols);
        assert_eq!(s.switches, (spec.rows + 1) * (spec.cols + 1));
        assert_eq!(
            s.in_port_bw,
            spec.in_ports as u64 * u64::from(spec.port_width_bytes)
        );
    }
}
