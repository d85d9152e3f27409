//! Live run heartbeat: registry-only progress gauges for long DSE runs.
//!
//! Every [`HeartbeatConfig::every`] proposals (checked at segment
//! boundaries, so segmentation and the trace byte stream are untouched)
//! the engine refreshes a set of `dse.heartbeat.*` gauges on the run
//! registry: proposals/sec, acceptance rate, repair fast-path share,
//! Pareto-front size, progress, and an ETA derived from
//! the iteration budget. A monitoring thread — or `DSE-as-a-service`
//! tenant — polls the registry; nothing is ever written to the trace, the
//! same contract `dse.checkpoint.write_us` follows, so deterministic trace
//! diffs hold with the heartbeat on or off. Optionally a progress line is
//! printed to stderr.
//!
//! Heartbeat values are wall-clock derived and therefore
//! non-deterministic; they are gauges (last-value-wins), never counters
//! that could leak into delta-based stats.

use std::time::Instant;

use overgen_telemetry::{Counter, Gauge, Registry};

use crate::engine::{stat_delta, DseStats};

/// Configuration for the periodic run heartbeat. Not persisted in
/// checkpoints — like the stop budgets, monitoring is per-invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Proposals (per chain) between heartbeat refreshes. The actual
    /// refresh lands on the next segment boundary at or after each
    /// multiple, so it never perturbs segmentation.
    pub every: usize,
    /// Also print a one-line progress report to stderr at each refresh.
    pub stderr: bool,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            every: 25,
            stderr: false,
        }
    }
}

/// Live heartbeat state owned by the annealing loop.
pub(crate) struct Heartbeat {
    every: usize,
    stderr: bool,
    next_at: usize,
    /// Proposals done before this leg (a resumed run's checkpoint).
    start_done: usize,
    started: Instant,
    count: Counter,
    proposals_per_sec: Gauge,
    accept_rate: Gauge,
    repair_fast_share: Gauge,
    pareto_size: Gauge,
    eta_seconds: Gauge,
    progress: Gauge,
}

impl Heartbeat {
    pub(crate) fn new(cfg: &HeartbeatConfig, reg: &Registry, start_done: usize) -> Self {
        let every = cfg.every.max(1);
        Heartbeat {
            every,
            stderr: cfg.stderr,
            next_at: start_done + every,
            start_done,
            started: Instant::now(),
            count: reg.counter("dse.heartbeat.count"),
            proposals_per_sec: reg.gauge("dse.heartbeat.proposals_per_sec"),
            accept_rate: reg.gauge("dse.heartbeat.accept_rate"),
            repair_fast_share: reg.gauge("dse.heartbeat.repair_fast_share"),
            pareto_size: reg.gauge("dse.heartbeat.pareto_size"),
            eta_seconds: reg.gauge("dse.heartbeat.eta_seconds"),
            progress: reg.gauge("dse.heartbeat.progress"),
        }
    }

    /// Refresh the gauges if `done` crossed the next threshold. `budget`
    /// is the per-chain proposal budget this run will actually execute
    /// (iterations, or `max_proposals` when lower); `pareto_size` is the
    /// current merged frontier size.
    pub(crate) fn tick(
        &mut self,
        done: usize,
        budget: usize,
        reg: &Registry,
        base: &DseStats,
        pareto_size: usize,
    ) {
        if done < self.next_at {
            return;
        }
        // Catch up past skipped thresholds (long segments can cross
        // several), then arm the next one.
        self.next_at = done + self.every - done % self.every;

        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let d = stat_delta(reg, base);
        let rate = d.iterations as f64 / elapsed;
        self.proposals_per_sec.set(rate);
        self.accept_rate.set(share(d.accepted, d.iterations));
        self.repair_fast_share
            .set(share(d.repair_fast, d.repair_fast + d.repair_fallback));
        self.pareto_size.set(pareto_size as f64);
        let frac = share(done, budget);
        self.progress.set(frac);
        let eta = eta_seconds(elapsed, self.start_done, done, budget);
        self.eta_seconds.set(eta);
        self.count.inc();

        if self.stderr {
            eprintln!(
                "dse.heartbeat: {done}/{budget} ({:.0}%) | {rate:.1} prop/s | \
                 accept {:.0}% | fast-repair {:.0}% | \
                 pareto {pareto_size} | eta {eta:.0}s",
                frac * 100.0,
                self.accept_rate.get() * 100.0,
                self.repair_fast_share.get() * 100.0,
            );
        }
    }
}

/// Seconds until `budget` at this leg's pace: `elapsed` covers only the
/// proposals done since the leg started at `start_done`, not the ones a
/// resumed run inherited from its checkpoint.
fn eta_seconds(elapsed: f64, start_done: usize, done: usize, budget: usize) -> f64 {
    let leg = done.saturating_sub(start_done);
    if leg == 0 {
        0.0
    } else {
        elapsed * budget.saturating_sub(done) as f64 / leg as f64
    }
}

fn share(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_fires_only_at_thresholds_and_catches_up() {
        let reg = Registry::new();
        let cfg = HeartbeatConfig {
            every: 10,
            stderr: false,
        };
        let base = DseStats::default();
        let mut hb = Heartbeat::new(&cfg, &reg, 0);
        hb.tick(5, 100, &reg, &base, 1);
        assert_eq!(reg.counter_value("dse.heartbeat.count"), 0);
        hb.tick(10, 100, &reg, &base, 1);
        assert_eq!(reg.counter_value("dse.heartbeat.count"), 1);
        // A long segment skipping several thresholds still fires once and
        // re-arms past the current position.
        hb.tick(47, 100, &reg, &base, 2);
        assert_eq!(reg.counter_value("dse.heartbeat.count"), 2);
        hb.tick(49, 100, &reg, &base, 2);
        assert_eq!(reg.counter_value("dse.heartbeat.count"), 2);
        hb.tick(50, 100, &reg, &base, 3);
        assert_eq!(reg.counter_value("dse.heartbeat.count"), 3);
        assert_eq!(reg.gauge("dse.heartbeat.pareto_size").get(), 3.0);
        assert_eq!(reg.gauge("dse.heartbeat.progress").get(), 0.5);
    }

    #[test]
    fn rates_derive_from_counter_deltas() {
        let reg = Registry::new();
        reg.counter("dse.iterations").add(40);
        reg.counter("dse.accepted").add(10);
        reg.counter("scheduler.repair.fast").add(9);
        reg.counter("scheduler.repair.fallback").add(1);
        // A baseline from a previous leg is subtracted out.
        let base = DseStats {
            iterations: 20,
            accepted: 5,
            ..DseStats::default()
        };
        let mut hb = Heartbeat::new(&HeartbeatConfig::default(), &reg, 0);
        hb.tick(25, 50, &reg, &base, 4);
        assert_eq!(reg.counter_value("dse.heartbeat.count"), 1);
        assert_eq!(reg.gauge("dse.heartbeat.accept_rate").get(), 0.25);
        assert_eq!(reg.gauge("dse.heartbeat.repair_fast_share").get(), 0.9);
        assert!(reg.gauge("dse.heartbeat.proposals_per_sec").get() > 0.0);
        assert!(reg.gauge("dse.heartbeat.eta_seconds").get() >= 0.0);
    }

    #[test]
    fn eta_extrapolates_this_legs_pace() {
        // A fresh run: 25 of 100 proposals in 10 s leaves 75 at 2.5/s.
        assert_eq!(eta_seconds(10.0, 0, 25, 100), 30.0);
        // Resumed at 50 of 100: this leg did 25 proposals in 10 s, and
        // the 50 inherited ones took no time of it, so 25 left = 10 s
        // (dividing by all 75 done would read 3.3 s).
        assert_eq!(eta_seconds(10.0, 50, 75, 100), 10.0);
        // Nothing done yet in this leg, or the budget already met.
        assert_eq!(eta_seconds(10.0, 50, 50, 100), 0.0);
        assert_eq!(eta_seconds(10.0, 0, 100, 100), 0.0);
    }

    #[test]
    fn zero_denominators_read_as_zero() {
        let reg = Registry::new();
        let mut hb = Heartbeat::new(
            &HeartbeatConfig {
                every: 1,
                stderr: false,
            },
            &reg,
            0,
        );
        hb.tick(1, 0, &reg, &DseStats::default(), 0);
        assert_eq!(reg.gauge("dse.heartbeat.accept_rate").get(), 0.0);
        assert_eq!(reg.gauge("dse.heartbeat.repair_fast_share").get(), 0.0);
        assert_eq!(reg.gauge("dse.heartbeat.progress").get(), 0.0);
    }
}
