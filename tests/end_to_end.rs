//! Cross-crate integration: the full OverGen pipeline — compile, DSE,
//! schedule, simulate — on real paper workloads.

use overgen::{generate, workloads, Overlay};
use overgen_compiler::CompileOptions;
use overgen_dse::DseConfig;
use overgen_hls::{explore, AutoDseConfig};
use overgen_ir::Suite;

fn quick_dse(iterations: usize, seed: u64) -> DseConfig {
    DseConfig {
        iterations,
        seed,
        compile: CompileOptions {
            max_unroll: 8,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn generate_compile_execute_dsp_domain() {
    let domain = workloads::suite(Suite::Dsp);
    let overlay = generate(&domain, &quick_dse(12, 1));
    overlay
        .sys_adg
        .validate()
        .expect("generated hardware is valid");
    let mut ran = 0;
    for k in &domain {
        let app = overlay
            .compile(k)
            .unwrap_or_else(|e| panic!("{} failed to map: {e}", k.name()));
        let report = overlay.execute(&app);
        assert!(!report.truncated, "{} truncated", k.name());
        assert!(report.cycles > 0);
        assert!(report.ipc > 0.0);
        ran += 1;
    }
    assert_eq!(ran, domain.len());
}

#[test]
fn overlay_is_competitive_with_hls_on_its_domain() {
    // Not an exact paper claim at tiny DSE scale; just sanity that the two
    // stacks land within two orders of magnitude and both are positive.
    let fir = workloads::by_name("fir").unwrap();
    let overlay = generate(std::slice::from_ref(&fir), &quick_dse(15, 3));
    let app = overlay.compile(&fir).expect("fir maps");
    let og = overlay.run_seconds(&app);
    let hls = explore(&fir, &AutoDseConfig::default()).best.seconds;
    let ratio = hls / og;
    assert!(
        (0.05..200.0).contains(&ratio),
        "fir OG {og} s vs HLS {hls} s (ratio {ratio})"
    );
}

#[test]
fn compile_and_reconfig_magnitudes_match_paper() {
    // Figure 17: compilation ~10^4x faster than an HLS flow; reconfig
    // ~10^4-10^5x faster than FPGA reflash (1.1 s).
    let overlay = Overlay::general();
    let k = workloads::by_name("gemm").unwrap();
    let app = overlay.compile(&k).expect("gemm maps");
    assert!(
        app.compile_seconds < 30.0,
        "compile {} s",
        app.compile_seconds
    );
    let reconf = overlay.reconfig_seconds(&app);
    let speedup = 1.1 / reconf;
    assert!(
        speedup > 1e3,
        "reconfig speedup only {speedup:.0}x ({reconf} s)"
    );
}

#[test]
fn unseen_workload_maps_onto_suite_overlay() {
    // The Q5 flexibility claim at integration scale: an overlay generated
    // without `ellpack` still runs it.
    let domain: Vec<_> = workloads::suite(Suite::MachSuite)
        .into_iter()
        .filter(|k| k.name() != "ellpack")
        .collect();
    let overlay = generate(&domain, &quick_dse(12, 5));
    let ellpack = workloads::by_name("ellpack").unwrap();
    let app = overlay
        .compile(&ellpack)
        .expect("unseen workload maps via variant relaxation");
    let report = overlay.execute(&app);
    assert!(!report.truncated);
}

#[test]
fn dse_history_is_monotone_and_accounted() {
    let overlay = generate(&workloads::suite(Suite::Vision), &quick_dse(10, 9));
    let p = overlay.dse.as_ref().expect("provenance recorded");
    assert!(p.dse_hours > 0.0);
    for w in p.history.windows(2) {
        assert!(w[1].1 >= w[0].1 - 1e-12, "best-so-far regressed");
        assert!(w[1].0 >= w[0].0, "simulated time went backwards");
    }
}
