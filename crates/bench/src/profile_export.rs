//! Trace exporters behind the `overgen-profile` binary.
//!
//! Converts a deterministic (or wall-clock) JSONL telemetry trace into
//! two downstream-friendly forms:
//!
//! - [`chrome_trace`] — Chrome trace-event JSON (`chrome://tracing`,
//!   Perfetto): every span becomes a complete `"X"` event, every plain
//!   event an instant `"i"` marker;
//! - [`phase_table`] — a flame-style text table: span aggregates grouped
//!   by nesting depth, indented so callers read above callees, with
//!   share-of-root attribution.
//!
//! Both outputs are fully determined by the input trace — rendering the
//! same trace twice yields byte-identical text, which is what lets
//! `scripts/check.sh profile` golden-diff the table.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use overgen_telemetry::json::{self, Obj, Value};

/// One parsed trace line we care about (metrics snapshots are skipped by
/// the exporters; `trace-summary` renders those).
enum Line {
    Span {
        name: String,
        depth: u64,
        start: u64,
        dur: u64,
    },
    Event {
        kind: String,
        t: u64,
    },
}

/// Parse the JSONL text into exporter lines. Malformed lines and metrics
/// snapshots are counted, not fatal — a truncated trace should still
/// render what it has.
fn parse_lines(text: &str) -> (Vec<Line>, u64) {
    let mut out = Vec::new();
    let mut skipped = 0u64;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(v) = json::parse(line) else {
            skipped += 1;
            continue;
        };
        match v.get("type").and_then(Value::as_str) {
            Some("span") => {
                let name = v
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string();
                out.push(Line::Span {
                    name,
                    depth: v.get("depth").and_then(Value::as_u64).unwrap_or(0),
                    start: v.get("start").and_then(Value::as_u64).unwrap_or(0),
                    dur: v.get("dur").and_then(Value::as_u64).unwrap_or(0),
                });
            }
            Some("metrics") => skipped += 1,
            Some(kind) => out.push(Line::Event {
                kind: kind.to_string(),
                t: v.get("t").and_then(Value::as_u64).unwrap_or(0),
            }),
            None => skipped += 1,
        }
    }
    (out, skipped)
}

/// Render the trace as Chrome trace-event JSON (the object form, so a
/// `displayTimeUnit` can ride along). Spans become complete (`"X"`)
/// events; other events become instant (`"i"`) markers. Timestamps are
/// passed through in the trace's own clock — microseconds for wall-clock
/// traces, logical ticks for deterministic ones.
pub fn chrome_trace(text: &str) -> String {
    let (lines, _) = parse_lines(text);
    Obj::new()
        .str("displayTimeUnit", "ms")
        .with("traceEvents", |o| {
            json::arr(o, &lines, |o, l| {
                match l {
                    Line::Span {
                        name,
                        depth,
                        start,
                        dur,
                    } => Obj::into(o)
                        .str("name", name)
                        .str("cat", "span")
                        .str("ph", "X")
                        .u64("ts", *start)
                        .u64("dur", *dur)
                        .u64("pid", 0)
                        .u64("tid", 0)
                        .with("args", |o| {
                            Obj::into(o).u64("depth", *depth).finish();
                        }),
                    Line::Event { kind, t } => Obj::into(o)
                        .str("name", kind)
                        .str("cat", "event")
                        .str("ph", "i")
                        .str("s", "t")
                        .u64("ts", *t)
                        .u64("pid", 0)
                        .u64("tid", 0),
                }
                .finish();
            });
        })
        .finish()
}

#[derive(Default)]
struct Agg {
    count: u64,
    total: u64,
    max: u64,
}

/// Render a flame-style phase table: span aggregates keyed by
/// `(depth, name)`, ordered depth-first (callers above callees), within a
/// depth by total descending then name. `share` is relative to the total
/// of depth-0 spans; nested spans overlap their parents, so deeper rows
/// can sum past 100%.
pub fn phase_table(text: &str) -> String {
    let (lines, skipped) = parse_lines(text);
    let mut aggs: BTreeMap<(u64, String), Agg> = BTreeMap::new();
    let mut events = 0u64;
    for l in &lines {
        match l {
            Line::Span {
                name, depth, dur, ..
            } => {
                let a = aggs.entry((*depth, name.clone())).or_default();
                a.count += 1;
                a.total += dur;
                a.max = a.max.max(*dur);
            }
            Line::Event { .. } => events += 1,
        }
    }
    let root_total: u64 = aggs
        .iter()
        .filter(|((d, _), _)| *d == 0)
        .map(|(_, a)| a.total)
        .sum();

    let mut rows: Vec<(&(u64, String), &Agg)> = aggs.iter().collect();
    rows.sort_by(|a, b| {
        (a.0 .0)
            .cmp(&b.0 .0)
            .then(b.1.total.cmp(&a.1.total))
            .then(a.0 .1.cmp(&b.0 .1))
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<32} {:>8} {:>12} {:>12} {:>12} {:>7}",
        "phase", "count", "total", "mean", "max", "share"
    );
    for ((depth, name), a) in rows {
        let label = format!("{}{}", "  ".repeat(*depth as usize), name);
        let share = if root_total > 0 {
            100.0 * a.total as f64 / root_total as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<32} {:>8} {:>12} {:>12.1} {:>12} {:>6.1}%",
            label,
            a.count,
            a.total,
            a.total as f64 / a.count.max(1) as f64,
            a.max,
            share,
        );
    }
    let _ = writeln!(out, "\nevents: {events}  skipped-lines: {skipped}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = concat!(
        r#"{"seq":0,"t":1,"type":"bench.run","experiment":"x"}"#,
        "\n",
        r#"{"seq":1,"t":2,"type":"span","name":"dse.run","depth":0,"start":2,"dur":100}"#,
        "\n",
        r#"{"seq":2,"t":3,"type":"span","name":"sched.place","depth":1,"start":3,"dur":40}"#,
        "\n",
        r#"{"seq":3,"t":4,"type":"span","name":"sched.place","depth":1,"start":50,"dur":20}"#,
        "\n",
        r#"{"seq":4,"t":5,"type":"metrics","metrics":{}}"#,
        "\n",
        "not json\n",
    );

    #[test]
    fn chrome_trace_round_trips_spans_and_events() {
        let out = chrome_trace(TRACE);
        let v = json::parse(&out).unwrap();
        let Some(Value::Arr(events)) = v.get("traceEvents") else {
            panic!("missing traceEvents: {out}");
        };
        assert_eq!(events.len(), 4); // 1 instant + 3 spans
        let span = &events[1];
        assert_eq!(span.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(span.get("name").and_then(Value::as_str), Some("dse.run"));
        assert_eq!(span.get("ts").and_then(Value::as_u64), Some(2));
        assert_eq!(span.get("dur").and_then(Value::as_u64), Some(100));
        let instant = &events[0];
        assert_eq!(instant.get("ph").and_then(Value::as_str), Some("i"));
        assert_eq!(
            instant.get("name").and_then(Value::as_str),
            Some("bench.run")
        );
    }

    #[test]
    fn phase_table_orders_by_depth_then_total() {
        let table = phase_table(TRACE);
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[1].starts_with("dse.run"), "{table}");
        assert!(lines[2].starts_with("  sched.place"), "{table}");
        // 2 calls totalling 60 ticks = 60% of the 100-tick root.
        assert!(lines[2].contains("60.0%"), "{table}");
        assert!(table.contains("events: 1"), "{table}");
        // metrics line + malformed line are skipped, not fatal.
        assert!(table.contains("skipped-lines: 2"), "{table}");
    }

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(phase_table(TRACE), phase_table(TRACE));
        assert_eq!(chrome_trace(TRACE), chrome_trace(TRACE));
    }

    #[test]
    fn empty_trace_renders_without_root() {
        let table = phase_table("");
        assert!(table.contains("events: 0"));
        let out = chrome_trace("");
        let v = json::parse(&out).unwrap();
        assert!(matches!(v.get("traceEvents"), Some(Value::Arr(a)) if a.is_empty()));
    }
}
