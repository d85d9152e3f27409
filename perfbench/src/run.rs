//! What one benchmark run accumulates: op latencies, deploy timings, failure
//! accounting, output-check failures and, in a traced run, the benchmark's
//! own spans, one row per program and the per-layer samples.
//!
//! Every input of a run (a generation seed, an app on an overlay, a service
//! round's pair of jobs) recurs through the run, and the end-to-end times
//! take each input's fastest repeat. On a shared host the same op's CPU time
//! moves between two levels, 1.3–2× apart, as other tenants load the
//! physical core; a run's median then follows how long the slow level
//! lasted, while the fastest repeat is what the program itself costs.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use overgen::Overlay;
use overgen_ir::Kernel;
use overgen_sim::{analytic_cycles, SimConfig};
use overgen_telemetry::profile::{install_profiler, ProfilerGuard};
use overgen_telemetry::{install, ClockMode, Collector, InstallGuard, NullSink, Profiler, Rng};

use crate::{cpu, layers};

/// Set-ups per run: one before the timed loop and the rest spread evenly
/// over it, so that `setup_s`, their median, does not hang on how loaded the
/// host was in the run's first second.
const SETUP_REPS: usize = 9;

/// One span the benchmark recorded around a call into the library.
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    op: u64,
}

/// The traced run's state. Spans and rows stay in memory until the run
/// writes them out at exit; the engine's collector and profiler are only
/// installed while an op runs, so re-driven layer calls never reach them.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    pub rows: Vec<String>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
    pub collector: Arc<Collector>,
    pub profiler: Arc<Profiler>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            rows: Vec::new(),
            samples: BTreeMap::new(),
            counts: BTreeMap::new(),
            collector: Collector::new(Arc::new(NullSink), ClockMode::Wall),
            profiler: Profiler::new(),
        }
    }

    /// Record one per-layer sample (a re-driven call's time or a ratio).
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Add to a per-layer tally.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Per-span-name self time in ms: each span's duration minus the part
    /// of it that its child spans cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut iv: Vec<(f64, f64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_us.max(s.start_us), c.end_us.min(s.end_us))
                })
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            *out.entry(s.name).or_insert(0.0) += (s.end_us - s.start_us - covered) / 1e3;
        }
        out
    }

    /// The spans as JSON lines' worth of objects.
    pub fn spans_json(&self) -> Vec<String> {
        self.spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{},\"op\":{}}}",
                    s.name,
                    s.start_us,
                    s.end_us,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.op
                )
            })
            .collect()
    }
}

/// One app's samples over the run (keyed by input and kernel name).
#[derive(Default)]
pub struct PerApp {
    pub compile_ms: Vec<f64>,
    pub simulate_ms: Vec<f64>,
    /// Simulated µs (`cycles / fmax_mhz`), the same on every repeat.
    runtime_us: f64,
}

/// Everything one run measures.
pub struct Run {
    pub derived: Vec<u64>,
    pub setup_s: Vec<f64>,
    /// Op times by input.
    op_ms: BTreeMap<String, Vec<f64>>,
    /// Ops completed (a service round samples `op_ms` once for all its jobs).
    pub ops: u64,
    pub compile_ms: Vec<f64>,
    pub simulate_ms: Vec<f64>,
    pub per_app: BTreeMap<String, PerApp>,
    pub sim_cycles: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub trace: Option<Tracer>,
    next_op: u64,
    rng: Rng,
}

/// Guards that keep the engine's collector and profiler installed on this
/// thread for the duration of one op (traced runs only).
pub type Installed = Option<(InstallGuard, ProfilerGuard)>;

impl Run {
    pub fn new(seed: u64, traced: bool) -> Run {
        Run {
            derived: Vec::new(),
            setup_s: Vec::new(),
            op_ms: BTreeMap::new(),
            ops: 0,
            compile_ms: Vec::new(),
            simulate_ms: Vec::new(),
            per_app: BTreeMap::new(),
            sim_cycles: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            trace: traced.then(Tracer::new),
            next_op: 0,
            rng: Rng::seed_from_u64(seed),
        }
    }

    /// The next seed derived from the workload seed (recorded for output).
    pub fn next_seed(&mut self) -> u64 {
        let s = self.rng.next_u64();
        self.derived.push(s);
        s
    }

    /// Time one set-up and record it.
    pub fn setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, ms) = cpu::time_ms(f);
        self.setup_s.push(ms / 1e3);
        out
    }

    /// Whether another set-up is due `elapsed` seconds into a timed loop
    /// that lasts `seconds`.
    pub fn setup_due(&self, elapsed: f64, seconds: f64) -> bool {
        let done = self.setup_s.len();
        done < SETUP_REPS && elapsed >= seconds * done as f64 / SETUP_REPS as f64
    }

    /// Record `ops` completed ops on `input` that took `ms` each.
    pub fn op_done(&mut self, input: &str, ms: f64, ops: u64) {
        self.op_ms.entry(input.to_string()).or_default().push(ms);
        self.ops += ops;
    }

    /// A fresh op id for spans and rows.
    pub fn op_id(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Record a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.errors.push(msg);
        }
    }

    /// Count one op and whether it failed.
    pub fn op_outcome(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Tracing overhead (traced runs only): the same op alternately without
    /// and with a collector and profiler installed, as
    /// `(traced − untraced) / untraced` of the two medians. The pair is
    /// private to the calibration, so the op's counters stay out of the
    /// per-layer tallies.
    pub fn calibrate(&mut self, reps: usize, mut op: impl FnMut()) {
        let Some(t) = self.trace.as_mut() else {
            return;
        };
        let collector = Collector::new(Arc::new(NullSink), ClockMode::Wall);
        let profiler = Profiler::new();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            plain.push(cpu::time_ms(&mut op).1);
            let _c = install(collector.clone());
            let _p = install_profiler(profiler.clone());
            traced.push(cpu::time_ms(&mut op).1);
        }
        let base = median(&plain);
        t.add("telemetry.overhead_share", (median(&traced) - base) / base);
    }

    /// Install the engine's collector and profiler while an op runs.
    pub fn install(&self) -> Installed {
        self.trace.as_ref().map(|t| {
            (
                install(t.collector.clone()),
                install_profiler(t.profiler.clone()),
            )
        })
    }

    /// Open a span (traced runs only); close it with [`Run::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> Option<usize> {
        let t = self.trace.as_mut()?;
        let now = t.t0.elapsed().as_secs_f64() * 1e6;
        t.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent,
            op,
        });
        Some(t.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let (Some(t), Some(i)) = (self.trace.as_mut(), id) {
            t.spans[i].end_us = t.t0.elapsed().as_secs_f64() * 1e6;
        }
    }

    /// Record a span whose interval the caller already measured.
    pub fn span_at(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        let t = self.trace.as_mut()?;
        let us = |i: Instant| i.saturating_duration_since(t.t0).as_secs_f64() * 1e6;
        t.spans.push(Span {
            name,
            start_us: us(start),
            end_us: us(end),
            parent,
            op,
        });
        Some(t.spans.len() - 1)
    }

    pub fn row(&mut self, row: String) {
        if let Some(t) = self.trace.as_mut() {
            t.rows.push(row);
        }
    }

    /// Deploy `kernel` on `overlay`, which `input` names: timed
    /// `Overlay::compile` and, when it maps, timed `Overlay::execute`.
    /// Failures are counted, the simulated result is checked outside the
    /// timed calls, and a traced run then re-drives the compiler, scheduler
    /// and simulator layers on the app. Returns whether the app compiled.
    pub fn deploy(
        &mut self,
        overlay: &Overlay,
        fmax_mhz: f64,
        kernel: &Kernel,
        input: &str,
        op: u64,
        parent: Option<usize>,
    ) -> bool {
        let name = kernel.name();
        let guards = self.install();
        let (t0, c0) = (Instant::now(), cpu::seconds());
        let compiled = overlay.compile(kernel);
        let (t1, c1) = (Instant::now(), cpu::seconds());
        let report = compiled.as_ref().ok().map(|app| overlay.execute(app));
        let (t2, c2) = (Instant::now(), cpu::seconds());
        drop(guards);
        let compile_ms = (c1 - c0) * 1e3;
        self.span_at("overgen.compile", op, parent, t0, t1);
        self.compile_ms.push(compile_ms);
        self.op_outcome(compiled.is_ok());
        let samples = self.per_app.entry(format!("{input}/{name}")).or_default();
        samples.compile_ms.push(compile_ms);
        let app = match compiled {
            Ok(app) => app,
            Err(e) => {
                self.row(format!(
                    "{{\"kind\":\"app\",\"op\":{op},\"input\":\"{input}\",\"app\":\"{name}\",\"compile_ms\":{compile_ms},\"error\":\"{e:?}\"}}",
                ));
                return false;
            }
        };
        let report = report.expect("a compiled app is executed");
        let sim_ms = (c2 - c1) * 1e3;
        samples.simulate_ms.push(sim_ms);
        samples.runtime_us = report.cycles as f64 / fmax_mhz;
        self.span_at("overgen.execute", op, parent, t1, t2);
        self.simulate_ms.push(sim_ms);
        self.op_outcome(!report.truncated);
        self.sim_cycles += report.cycles;

        // Check (d): a complete simulation, never below the analytic bound.
        let bound = analytic_cycles(
            &app.mdfg,
            &app.schedule,
            &overlay.sys_adg,
            &SimConfig::default(),
        );
        self.check(!report.truncated, || format!("{name} simulation truncated"));
        self.check(bound <= report.cycles, || {
            format!(
                "{name}: analytic bound {bound} > simulated {} cycles",
                report.cycles
            )
        });

        if self.trace.is_some() {
            self.row(format!(
                "{{\"kind\":\"app\",\"op\":{op},\"input\":\"{input}\",\"app\":\"{name}\",\"compile_ms\":{compile_ms},\"simulate_ms\":{sim_ms},\"cycles\":{},\"variant\":{},\"unroll\":{}}}",
                report.cycles,
                app.mdfg.variant(),
                app.mdfg.unroll()
            ));
            let span = self.open("redrive.deploy", op, parent);
            layers::deploy_layers(self, overlay, kernel, &app, span, op);
            self.close(span);
        }
        true
    }

    /// Geomean over inputs of each input's fastest op.
    pub fn op_ms(&self) -> f64 {
        fastest_geomean(self.op_ms.values())
    }

    /// Geomean over (input, app) pairs of each pair's fastest sample. Apps
    /// weigh equally however long they take, so a run that mixes apps whose
    /// times differ by orders of magnitude does not jump between them the
    /// way a pooled median does.
    pub fn per_app_fastest(&self, field: impl Fn(&PerApp) -> &Vec<f64>) -> f64 {
        fastest_geomean(self.per_app.values().map(field))
    }

    /// Geomean over simulated (input, app) pairs of simulated µs.
    pub fn app_runtime_us(&self) -> f64 {
        let logs: Vec<f64> = self
            .per_app
            .values()
            .filter(|a| !a.simulate_ms.is_empty())
            .map(|a| a.runtime_us.max(f64::MIN_POSITIVE).ln())
            .collect();
        if logs.is_empty() {
            f64::NAN
        } else {
            mean(&logs).exp()
        }
    }
}

/// Geomean over sample sets of each set's minimum (NaN when all are empty).
fn fastest_geomean<'a>(sets: impl Iterator<Item = &'a Vec<f64>>) -> f64 {
    let logs: Vec<f64> = sets
        .filter(|v| !v.is_empty())
        .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min).ln())
        .collect();
    if logs.is_empty() {
        f64::NAN
    } else {
        mean(&logs).exp()
    }
}

/// Median of a sample (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile (NaN when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Arithmetic mean (0 when empty: a layer the workload never reached).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
