//! Generate a workload-specialised overlay for the FIR kernel with the
//! unified DSE and compare it against the hand-designed General Overlay
//! and the AutoDSE HLS baseline.
//!
//! ```sh
//! cargo run --release --example fir_dse
//! ```

use overgen::{generate, generation_hours, workloads, Overlay};
use overgen_dse::DseConfig;
use overgen_hls::{explore, AutoDseConfig};

fn main() {
    let fir = workloads::by_name("fir").expect("fir exists");

    // Domain-specific overlay generation (one-time cost).
    println!("running DSE for a fir-specialised overlay ...");
    let overlay = generate(
        std::slice::from_ref(&fir),
        &DseConfig {
            iterations: 60,
            seed: 7,
            ..Default::default()
        },
    );
    let p = overlay.dse.as_ref().expect("generated by DSE");
    println!(
        "DSE done: estimated IPC {:.1}, {} history points, {:.1} simulated hours; \
         one-time generation total {:.1} h",
        p.objective,
        p.history.len(),
        p.dse_hours,
        generation_hours(&overlay)
    );
    println!("chosen system: {:?}", overlay.sys_adg.sys);
    println!("{}\n", overlay.summary());

    // Run fir on the specialised overlay and on the general overlay.
    let app = overlay.compile(&fir).expect("fir maps on its own overlay");
    let specialised_s = overlay.run_seconds(&app);
    let general = Overlay::general();
    let gen_app = general.compile(&fir).expect("fir maps on general");
    let general_s = general.run_seconds(&gen_app);

    // AutoDSE HLS baseline (fixed-function, per-application synthesis).
    let hls = explore(&fir, &AutoDseConfig::default());

    println!("fir per-run seconds:");
    println!("  w/l overlay   {:.4} ms", specialised_s * 1e3);
    println!("  general       {:.4} ms", general_s * 1e3);
    println!(
        "  AutoDSE HLS   {:.4} ms  (after {:.1} h of DSE+synthesis)",
        hls.best.seconds * 1e3,
        hls.total_hours()
    );
    println!(
        "\nspeedup over AutoDSE: specialised {:.2}x, general {:.2}x",
        hls.best.seconds / specialised_s,
        hls.best.seconds / general_s
    );
}
