//! The `overgen-profile` trace reader ([`run`]) and its exporters.
//!
//! Converts a deterministic (or wall-clock) JSONL telemetry trace into
//! two downstream-friendly forms:
//!
//! - [`chrome_trace`] — Chrome trace-event JSON (`chrome://tracing`,
//!   Perfetto): every span becomes a complete `"X"` event, every plain
//!   event an instant `"i"` marker;
//! - [`summary`] — a flame-style text table (span aggregates grouped by
//!   nesting depth, indented so callers read above callees, with
//!   share-of-root attribution), then the count of each event type and
//!   the trace's final metrics snapshot.
//!
//! Both outputs are fully determined by the input trace — rendering the
//! same trace twice yields byte-identical text, which is what lets
//! `scripts/check.sh profile` golden-diff the summary.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use overgen_telemetry::json::{self, Obj, Value};

const USAGE: &str = "usage: overgen-profile <trace.jsonl> [--chrome <out.json>|-]";

/// Why `overgen-profile` stopped: the process exit code and the message
/// for stderr.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// 2 for a usage error, 1 for a trace that cannot be read or a Chrome
    /// file that cannot be written.
    pub code: i32,
    pub message: String,
}

impl Failure {
    fn usage(err: &str) -> Failure {
        let message = if err.is_empty() {
            USAGE.to_string()
        } else {
            format!("overgen-profile: {err}\n{USAGE}")
        };
        Failure { code: 2, message }
    }
}

/// Run `overgen-profile` on its arguments (program name excluded) and
/// return what it prints on stdout: the [`summary`] of the trace, or with
/// `--chrome -` its [`chrome_trace`] instead. `--chrome PATH` writes the
/// Chrome trace to `PATH` as well as returning the summary.
pub fn run<I: IntoIterator<Item = String>>(args: I) -> Result<String, Failure> {
    let mut trace: Option<String> = None;
    let mut chrome: Option<String> = None;
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--chrome" => match args.next() {
                Some(p) => chrome = Some(p),
                None => return Err(Failure::usage("--chrome needs a path (or `-` for stdout)")),
            },
            "--help" | "-h" => return Err(Failure::usage("")),
            _ if trace.is_none() => trace = Some(a),
            _ => return Err(Failure::usage(&format!("unexpected argument `{a}`"))),
        }
    }
    let Some(path) = trace else {
        return Err(Failure::usage("missing trace path"));
    };
    let text = std::fs::read_to_string(&path).map_err(|e| Failure {
        code: 1,
        message: format!("overgen-profile: cannot read {path}: {e}"),
    })?;
    match chrome.as_deref() {
        Some("-") => return Ok(format!("{}\n", chrome_trace(&text))),
        Some(out) => {
            let json = chrome_trace(&text);
            overgen_telemetry::fs::write_atomic(std::path::Path::new(out), json.as_bytes())
                .map_err(|e| Failure {
                    code: 1,
                    message: format!("overgen-profile: cannot write {out}: {e}"),
                })?;
        }
        None => {}
    }
    Ok(summary(&text))
}

/// One parsed span or event line.
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

/// A parsed trace: its span and event lines in order, the count of the
/// lines it could not read (malformed lines and lines without a type — a
/// truncated trace should still render what it has), and the last metrics
/// snapshot.
struct Trace {
    lines: Vec<Line>,
    skipped: u64,
    metrics: Option<Value>,
}

fn parse(text: &str) -> Trace {
    let mut out = Vec::new();
    let mut skipped = 0u64;
    let mut metrics = None;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(mut v) = json::parse(line) else {
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
            Some("metrics") => {
                if let Value::Obj(fields) = &mut v {
                    metrics = fields.remove("metrics");
                }
            }
            Some(kind) => out.push(Line::Event {
                kind: kind.to_string(),
                t: v.get("t").and_then(Value::as_u64).unwrap_or(0),
            }),
            None => skipped += 1,
        }
    }
    Trace {
        lines: out,
        skipped,
        metrics,
    }
}

/// Render the trace as Chrome trace-event JSON (the object form, so a
/// `displayTimeUnit` can ride along). Spans become complete (`"X"`)
/// events; other events become instant (`"i"`) markers. Timestamps are
/// passed through in the trace's own clock — microseconds for wall-clock
/// traces, logical ticks for deterministic ones.
pub fn chrome_trace(text: &str) -> String {
    let lines = parse(text).lines;
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

/// Render the trace's phase table (see `phase_table`), then the count of
/// each event type (most frequent first) and the trace's final metrics
/// snapshot, when it has one.
pub fn summary(text: &str) -> String {
    let trace = parse(text);
    let mut out = phase_table(&trace);
    let mut kinds: BTreeMap<&str, u64> = BTreeMap::new();
    for l in &trace.lines {
        if let Line::Event { kind, .. } = l {
            *kinds.entry(kind).or_default() += 1;
        }
    }
    if !kinds.is_empty() {
        let mut rows: Vec<(&str, u64)> = kinds.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let _ = writeln!(out, "\n{:<36} {:>8}", "event", "count");
        for (kind, n) in rows {
            let _ = writeln!(out, "{kind:<36} {n:>8}");
        }
    }
    if let Some(Value::Obj(metrics)) = &trace.metrics {
        let _ = writeln!(out, "\n{:<36} {:>14}", "metric", "value");
        for (name, v) in metrics {
            let _ = match v {
                Value::Num(n) => writeln!(out, "{name:<36} {n:>14}"),
                Value::Obj(hist) => {
                    // A histogram snapshot: its headline statistics.
                    let g = |key: &str| hist.get(key).and_then(Value::as_f64).unwrap_or(0.0);
                    let count = g("count");
                    let mean = if count > 0.0 { g("sum") / count } else { 0.0 };
                    writeln!(
                        out,
                        "{name:<36} count={count} mean={mean:.1} p50={} p90={} p99={} max={}",
                        g("p50"),
                        g("p90"),
                        g("p99"),
                        g("max"),
                    )
                }
                other => writeln!(out, "{name:<36} {other:>14?}"),
            };
        }
    }
    out
}

/// A flame-style phase table: span aggregates keyed by `(depth, name)`,
/// ordered depth-first (callers above callees), within a depth by total
/// descending then name. `share` is relative to the total of depth-0
/// spans; nested spans overlap their parents, so deeper rows can sum past
/// 100%. The `events:` line after it counts events and skipped lines.
fn phase_table(trace: &Trace) -> String {
    let mut aggs: BTreeMap<(u64, String), Agg> = BTreeMap::new();
    let mut events = 0u64;
    for l in &trace.lines {
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
    let _ = writeln!(out, "\nevents: {events}  skipped-lines: {}", trace.skipped);
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
        let table = summary(TRACE);
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[1].starts_with("dse.run"), "{table}");
        assert!(lines[2].starts_with("  sched.place"), "{table}");
        // 2 calls totalling 60 ticks = 60% of the 100-tick root.
        assert!(lines[2].contains("60.0%"), "{table}");
        assert!(table.contains("events: 1"), "{table}");
        // The malformed line is skipped, not fatal; the metrics line is read.
        assert!(table.contains("skipped-lines: 1"), "{table}");
    }

    #[test]
    fn summary_appends_event_counts_and_the_final_metrics_snapshot() {
        let trace = format!(
            "{TRACE}{}\n{}\n",
            r#"{"seq":5,"t":6,"type":"bench.run","experiment":"y"}"#,
            r#"{"seq":6,"t":7,"type":"metrics","metrics":{"dse.accepted":8,"dse.repair_moved":{"count":2,"sum":6,"max":4,"p50":2,"p90":4,"p99":4}}}"#,
        );
        let table = phase_table(&parse(&trace));
        let out = summary(&trace);
        // The phase table and its `events:` line come first, unchanged.
        assert!(out.starts_with(&table), "{out}");
        assert!(table.contains("events: 2  skipped-lines: 1"), "{table}");
        let tail: Vec<&str> = out[table.len()..].lines().collect();
        assert!(tail[1].starts_with("event ") && tail[2].starts_with("bench.run "));
        assert!(tail[2].ends_with(" 2"), "{out}");
        // Only the last snapshot is rendered; a histogram by its headline
        // statistics.
        assert!(tail[4].starts_with("metric ") && tail[5].starts_with("dse.accepted "));
        assert!(tail[5].ends_with(" 8"), "{out}");
        assert!(
            tail[6].ends_with("count=2 mean=3.0 p50=2 p90=4 p99=4 max=4"),
            "{out}"
        );
        assert_eq!(tail.len(), 7, "{out}");
    }

    fn run_on(args: &[&str]) -> Result<String, Failure> {
        run(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn usage_errors_exit_2_and_an_unreadable_trace_exits_1() {
        for args in [&[][..], &["--chrome"], &["a.jsonl", "b.jsonl"], &["--help"]] {
            let err = run_on(args).unwrap_err();
            assert_eq!(err.code, 2, "{args:?}");
            assert!(err.message.contains("usage: overgen-profile"), "{args:?}");
        }
        let missing = std::env::temp_dir().join(format!(
            "overgen-profile-missing-{}.jsonl",
            std::process::id()
        ));
        let err = run_on(&[missing.to_str().unwrap()]).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("cannot read"), "{}", err.message);
    }

    /// A line nested past the parser's depth limit is one more malformed
    /// line: counted, and the rest of the trace still renders.
    #[test]
    fn malformed_and_too_deep_lines_are_counted_not_fatal() {
        let n = json::MAX_DEPTH + 1;
        let deep = format!("{}{}", "[".repeat(n), "]".repeat(n));
        let path =
            std::env::temp_dir().join(format!("overgen-profile-deep-{}.jsonl", std::process::id()));
        std::fs::write(&path, format!("{TRACE}{deep}\n")).unwrap();
        let out = run_on(&[path.to_str().unwrap()]);
        std::fs::remove_file(&path).ok();
        let out = out.unwrap();
        assert!(out.starts_with("phase "), "{out}");
        // `not json` and the deep line.
        assert!(out.contains("skipped-lines: 2"), "{out}");
    }

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(summary(TRACE), summary(TRACE));
        assert_eq!(chrome_trace(TRACE), chrome_trace(TRACE));
    }

    #[test]
    fn empty_trace_renders_without_root() {
        let table = summary("");
        assert!(table.contains("events: 0"));
        let out = chrome_trace("");
        let v = json::parse(&out).unwrap();
        assert!(matches!(v.get("traceEvents"), Some(Value::Arr(a)) if a.is_empty()));
    }
}
