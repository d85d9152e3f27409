//! `overgen-profile` — summarize a JSONL telemetry trace, or export it for
//! profiling UIs.
//!
//! ```text
//! overgen-profile results/dse.trace.jsonl                 # summary
//! overgen-profile results/dse.trace.jsonl --chrome out.json
//! ```
//!
//! Prints a flame-style phase table (span aggregates indented by nesting
//! depth, share of the root span), the count of each event type and the
//! trace's final metrics snapshot to stdout. With `--chrome PATH` it also
//! writes Chrome trace-event JSON loadable in `chrome://tracing` or
//! Perfetto (`-` writes to stdout instead of the summary). Exits 2 on a
//! usage error and 1 when the trace cannot be read; malformed lines are
//! counted, not fatal.
//!
//! Times are in the trace's own clock: microseconds for wall-clock
//! traces, logical ticks for deterministic (`OVERGEN_TRACE=1`) ones —
//! tick tables diff cleanly across machines, which is what the golden
//! check in `scripts/check.sh profile` relies on.

fn main() {
    match overgen_bench::profile_export::run(std::env::args().skip(1)) {
        Ok(out) => print!("{out}"),
        Err(f) => {
            eprintln!("{}", f.message);
            std::process::exit(f.code);
        }
    }
}
