//! `overgen-bench` — run one named experiment.
//!
//! ```text
//! overgen-bench <experiment> [--threads N] [--chains N]
//! overgen-bench table1 --full        # paper-scale Table I sample counts
//! ```
//!
//! Each experiment renders its table through
//! [`overgen_bench::run_experiment`], which publishes
//! `results/<experiment>.txt`, `<experiment>.json` and, under
//! `OVERGEN_TRACE=1`, `<experiment>.trace.jsonl`. An unknown or missing
//! name prints the list of experiments and exits 2.

use overgen_bench::experiments::*;
use overgen_bench::run_experiment;

/// Runs one experiment and renders its table.
type Render = fn() -> String;

/// Every experiment, under the name its `results/<name>.*` artifacts
/// carry. The first 13 regenerate the paper's tables and figures
/// (`run_experiments.sh`); the rest are the beyond-paper benchmarks
/// that write `results/BENCH_<name>.json`.
const EXPERIMENTS: &[(&str, Render)] = &[
    ("table1", || {
        let full = std::env::args().any(|a| a == "--full");
        table1::render(&table1::run(full))
    }),
    ("table2", || table2::render(&table2::run())),
    ("table3", || table3::render(&table3::run())),
    ("table4", || table4::render(&table4::run())),
    ("fig13", || fig13::render(&fig13::run())),
    ("fig14", || fig14::render(&fig14::run())),
    ("fig15", || fig15::render(&fig15::run())),
    ("fig16", fig16::render_all),
    ("fig17", || fig17::render(&fig17::run())),
    ("fig18", || fig18::render(&fig18::run())),
    ("fig19", || fig19::render(&fig19::run())),
    ("fig20", || fig20::render(&fig20::run())),
    ("ablations", ablations::render),
    ("checkpoint", || checkpoint::render(&checkpoint::run())),
    ("dse", || dse::render(&dse::run())),
    ("pareto", || pareto::render(&pareto::run())),
    ("placement", || placement::render(&placement::run())),
    ("repair", || repair::render(&repair::run())),
    ("rewrite", || rewrite::render(&rewrite::run())),
    ("service", || service::render(&service::run())),
    ("sim", || sim::render(&sim::run())),
];

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
        Some((name, table)) => run_experiment(name, *table),
        None => {
            if !name.is_empty() {
                eprintln!("overgen-bench: unknown experiment `{name}`");
            }
            eprintln!("usage: overgen-bench <experiment> [--threads N] [--chains N]");
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
            eprintln!("experiments: {}", names.join(" "));
            std::process::exit(2);
        }
    }
}
