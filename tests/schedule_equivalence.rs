//! Pins the scheduler's outputs on generated hardware, failures included.
//!
//! Every compiled variant of the 19 paper kernels and of their tuned forms
//! is placed on the default mesh, the general mesh, a one-way cut of the
//! general mesh, the MachSuite seed accelerator, and that seed after a few
//! seeded chains of legacy rewrite rules. For each (variant, hardware) pair
//! the `Debug` text of an unseeded and a seeded `schedule` call, the `Ok`
//! schedule and the `Err` value alike, is folded into one `StableHasher`
//! digest per hardware, followed by the `sched.*` trace lines the calls
//! emitted (attempt and backtrack counts included). The seeds are the
//! variants' schedules on the unmutated MachSuite seed, carried through
//! each rewrite chain the way the annealer carries its live schedules.
//!
//! Every hardware is placed twice: through the free `schedule`, which
//! indexes the hardware per call, and through one `HwIndex` that every
//! placement on that hardware shares, in the same order, the way an
//! evaluation shares one index across its workloads and variants. Both
//! runs must reach the same pinned digest.
//!
//! The DSE goldens only see the placements a default run happens to make;
//! these digests also pin failed placements, their error values, and seeded
//! placements on mutated and on foreign hardware. Any change in candidate
//! order, tie breaking, routing or error reporting moves a digest.

use overgen_adg::{mesh, Adg, MeshSpec, NodeKind, StableHasher, SysAdg, SystemParams};
use overgen_compiler::{compile_variants, CompileOptions};
use overgen_dse::{Dse, RuleSet, TransformCtx};
use overgen_ir::{Kernel, Suite};
use overgen_mdfg::Mdfg;
use overgen_scheduler::{schedule, HwIndex, Schedule, ScheduleError};
use overgen_telemetry::{Collector, Rng};
use overgen_workloads as workloads;

/// Rewrite chains applied to the MachSuite seed, and rules per chain.
const CHAINS: u64 = 4;
const STEPS: usize = 3;

/// Digest per hardware, pinned from the `BTreeMap`-based placer.
const PINNED: [(&str, u64); 8] = [
    ("default", 0xfff85fa3ee11f6db),
    ("general", 0x4135e7fa59a349ca),
    ("one-way", 0xab31e775835cc55e),
    ("seed", 0xcde87d25b878c8a1),
    ("seed+chain0", 0x693bbf100e269cbc),
    ("seed+chain1", 0xf376e1f0206e1e60),
    ("seed+chain2", 0x0af3ed2a0beee491),
    ("seed+chain3", 0x2752ff253f6c0a4d),
];

fn kernels() -> Vec<Kernel> {
    let mut ks = workloads::all();
    for name in workloads::TUNING_SENSITIVE {
        ks.extend(workloads::og_tuned(name));
        ks.extend(workloads::hls_tuned(name));
    }
    ks
}

/// The general mesh without its switch-to-switch links that run from a
/// higher to a lower node id. Many PEs are then out of some predecessor's
/// reach, so candidate order leans on the unreachable-distance cost.
fn one_way_general() -> Adg {
    let mut adg = mesh(&MeshSpec::general());
    let switch = |id| adg.kind(id) == Some(NodeKind::Switch);
    let backward: Vec<_> = adg
        .edges()
        .filter(|&(a, b)| a > b && switch(a) && switch(b))
        .collect();
    for (a, b) in backward {
        adg.remove_edge(a, b);
    }
    adg
}

/// Placement outcomes on one piece of hardware.
#[derive(Default)]
struct Tally {
    digest: StableHasher,
    ok: usize,
    err: usize,
}

impl Tally {
    fn fold(&mut self, outcome: &Result<Schedule, ScheduleError>) {
        self.digest.write_str(&format!("{outcome:?}"));
        match outcome {
            Ok(_) => self.ok += 1,
            Err(_) => self.err += 1,
        }
    }
}

/// Schedule every variant on `adg`, unseeded and (where a prior exists)
/// seeded: once with a fresh index per call, then on one shared index.
fn place_all(name: &str, adg: Adg, variants: &[Mdfg], priors: &[Option<&Schedule>]) -> [Tally; 2] {
    let sys = SysAdg::new(adg, SystemParams::default());
    let hw = HwIndex::new(&sys);
    [false, true].map(|shared| {
        let place = |m: &Mdfg, prior: Option<&Schedule>| {
            if shared {
                hw.schedule(m, prior)
            } else {
                schedule(m, &sys, prior)
            }
        };
        let (collector, ring) = Collector::ring(1 << 16);
        let _install = overgen_telemetry::install(collector);
        let mut t = Tally::default();
        t.digest.write_str(name);
        for (m, prior) in variants.iter().zip(priors) {
            t.digest.write_str(m.name());
            t.digest.write_u64(u64::from(m.variant()));
            t.fold(&place(m, None));
            if let Some(p) = prior {
                t.fold(&place(m, Some(p)));
            }
        }
        t.digest.write_str(&ring.to_jsonl());
        t
    })
}

#[test]
fn placements_match_the_pinned_digests() {
    let opts = CompileOptions::default();
    let variants: Vec<Mdfg> = kernels()
        .iter()
        .flat_map(|k| {
            compile_variants(k, &opts).unwrap_or_else(|e| panic!("{} compiles: {e}", k.name()))
        })
        .collect();

    let machsuite = workloads::suite(Suite::MachSuite);
    let cap_pool = Dse::cap_pool(&machsuite);
    let seed = Dse::seed_adg(&machsuite).expect("MachSuite lowers");
    let seed_sys = SysAdg::new(seed.clone(), SystemParams::default());
    let base: Vec<Option<Schedule>> = variants
        .iter()
        .map(|m| schedule(m, &seed_sys, None).ok())
        .collect();
    let base_refs: Vec<Option<&Schedule>> = base.iter().map(Option::as_ref).collect();

    let mut tallies = vec![
        place_all("default", mesh(&MeshSpec::default()), &variants, &base_refs),
        place_all("general", mesh(&MeshSpec::general()), &variants, &base_refs),
        place_all("one-way", one_way_general(), &variants, &base_refs),
        place_all("seed", seed.clone(), &variants, &base_refs),
    ];
    for chain in 0..CHAINS {
        let mut rng = Rng::seed_from_u64(0x5C4E_D000 + chain);
        let mut adg = seed.clone();
        let mut live: Vec<Schedule> = base.iter().flatten().cloned().collect();
        for step in 0..STEPS {
            let mut ctx = TransformCtx {
                cap_pool: &cap_pool,
                schedules: &mut live,
                preserving: rng.gen_bool(0.7),
            };
            RuleSet::legacy().apply_random(&mut adg, &mut ctx, &mut rng, step as u64);
        }
        let name = format!("seed+chain{chain}");
        let mut carried = live.iter();
        let priors: Vec<Option<&Schedule>> = base
            .iter()
            .map(|b| b.as_ref().and_then(|_| carried.next()))
            .collect();
        tallies.push(place_all(&name, adg, &variants, &priors));
    }

    let pinned: Vec<(String, u64)> = PINNED.iter().map(|(n, d)| (n.to_string(), *d)).collect();
    for (leg, run) in [("fresh index per call", 0), ("one shared index", 1)] {
        let got: Vec<(String, u64)> = tallies
            .iter()
            .zip(PINNED)
            .map(|(t, (name, _))| (name.to_string(), t[run].digest.finish()))
            .collect();
        let report: Vec<String> = tallies
            .iter()
            .zip(&got)
            .map(|(t, (name, d))| {
                let t = &t[run];
                format!("(\"{name}\", {d:#018x}), // {} ok, {} err", t.ok, t.err)
            })
            .collect();
        assert_eq!(
            got,
            pinned,
            "placement digests moved ({leg}):\n{}",
            report.join("\n")
        );
    }

    // Both outcomes are pinned, not only the placements that succeed.
    let (ok, err) = tallies
        .iter()
        .fold((0, 0), |(o, e), t| (o + t[0].ok, e + t[0].err));
    assert!(ok > 0 && err > 0, "{ok} ok, {err} err");
}
