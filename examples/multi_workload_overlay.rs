//! Generate one overlay for the whole MachSuite domain, run every kernel
//! on it, and demonstrate the flexibility story: a workload the DSE never
//! saw still maps (with modest loss), compiling in seconds instead of
//! hours.
//!
//! ```sh
//! cargo run --release --example multi_workload_overlay
//! ```

use overgen::{generate, workloads};
use overgen_dse::DseConfig;
use overgen_ir::Suite;

fn main() {
    let domain = workloads::suite(Suite::MachSuite);
    let held_out = "ellpack";
    let training: Vec<_> = domain
        .iter()
        .filter(|k| k.name() != held_out)
        .cloned()
        .collect();

    println!(
        "generating a MachSuite overlay from {} kernels (holding out `{held_out}`) ...",
        training.len()
    );
    let overlay = generate(
        &training,
        &DseConfig {
            iterations: 60,
            seed: 11,
            ..Default::default()
        },
    );
    println!("chosen system: {:?}", overlay.sys_adg.sys);
    println!("{}\n", overlay.summary());

    println!(
        "{:<12} {:>12} {:>10} {:>12}",
        "kernel", "run (ms)", "unroll", "compile (s)"
    );
    for k in &domain {
        match overlay.compile(k) {
            Ok(app) => {
                let seen = if k.name() == held_out {
                    " (unseen!)"
                } else {
                    ""
                };
                println!(
                    "{:<12} {:>12.4} {:>10} {:>12.2}{seen}",
                    k.name(),
                    overlay.run_seconds(&app) * 1e3,
                    app.mdfg.unroll(),
                    app.compile_seconds,
                );
            }
            Err(e) => println!("{:<12} does not map: {e}", k.name()),
        }
    }

    let app = overlay
        .compile(&workloads::by_name(held_out).expect("exists"))
        .expect("held-out kernel still maps (overlay flexibility)");
    println!(
        "\n`{held_out}` was never seen by the DSE, yet deploys in {:.2} s with a {:.1} us \
         reconfiguration — that is the overlay-vs-HLS usability gap the paper measures.",
        app.compile_seconds,
        overlay.reconfig_seconds(&app) * 1e6
    );
}
