//! The bottleneck performance model of §V-C (Equations 1 and 2).
//!
//! `Perf = (mDFG Insts) x (# of Tiles) x min over levels of
//! (R_production / R_consumption)` where the levels are the scratchpad,
//! the shared L2, and DRAM, and each stream's consumption is its bandwidth
//! divided by the reuse captured above that level.

use std::collections::BTreeSet;
use std::fmt;

use overgen_adg::{Adg, SystemParams};
use overgen_mdfg::{Mdfg, MdfgNode, MemPref, StreamPattern};

/// A memory-hierarchy level (L1 = scratchpad, L2 = shared cache, L3 = DRAM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// On-tile scratchpads.
    Spad,
    /// Shared banked L2 over the NoC.
    L2,
    /// FPGA DRAM channel(s).
    Dram,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Level::Spad => "spad",
            Level::L2 => "l2",
            Level::Dram => "dram",
        };
        f.write_str(s)
    }
}

/// Which arrays are placed in scratchpads (everything else streams through
/// DMA). Produced by the spatial scheduler; [`Placement::from_prefs`] gives
/// the compiler's preference-based default for schedule-free estimation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Placement {
    /// Names of scratchpad-resident arrays.
    pub spad_arrays: BTreeSet<String>,
}

impl Placement {
    /// Default placement from the mDFG's array preferences.
    pub fn from_prefs(mdfg: &Mdfg) -> Self {
        let mut spad_arrays = BTreeSet::new();
        for (_, n) in mdfg.nodes() {
            if let MdfgNode::Array(a) = n {
                if a.pref == MemPref::PreferSpad {
                    spad_arrays.insert(a.name.clone());
                }
            }
        }
        Placement { spad_arrays }
    }
}

/// Result of a performance estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfEstimate {
    /// Whole-FPGA estimated IPC (Equation 1).
    pub ipc: f64,
    /// Per-tile IPC.
    pub per_tile_ipc: f64,
    /// Bottleneck factors `[spad, l2, dram]`, each capped at 1.
    pub factors: [f64; 3],
}

impl PerfEstimate {
    /// The binding level, or `None` when compute bound.
    pub fn bottleneck(&self) -> Option<Level> {
        let min = self.factors[0].min(self.factors[1]).min(self.factors[2]);
        if min >= 1.0 {
            return None;
        }
        if min == self.factors[0] {
            Some(Level::Spad)
        } else if min == self.factors[1] {
            Some(Level::L2)
        } else {
            Some(Level::Dram)
        }
    }
}

/// Estimate IPC of one mDFG on a system (Equations 1–2).
///
/// `spad_bw_total` is the summed read bandwidth of the tile's scratchpads
/// in bytes/cycle (zero when the tile has none). A sweep over many system
/// points should build one [`PerfSummary`] instead; this one-shot form
/// folds the L2 streams straight into the DRAM term, allocation-free.
pub fn estimate_ipc(
    mdfg: &Mdfg,
    sys: &SystemParams,
    spad_bw_total: f64,
    placement: &Placement,
) -> PerfEstimate {
    let tiles = tile_count(mdfg.sequential(), sys);
    let mut cons_dram = 0.0f64;
    let demand = TileDemand::walk(mdfg, placement, |s| {
        cons_dram += s.dram_consumption(tiles, sys);
    });
    demand.estimate(sys, spad_bw_total, cons_dram)
}

/// [`estimate_ipc`] precompiled for one (mDFG, placement): everything that
/// does not depend on the system parameters. Only the DRAM term of the L2
/// streams depends on the grid point (through `tiles × l2_kb`), so
/// [`PerfSummary::estimate`] is a handful of multiplications per stream —
/// bit-identical to [`estimate_ipc`] at every point.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfSummary {
    demand: TileDemand,
    /// Streams served by the L2, in mDFG node order (the summation order
    /// of the DRAM term).
    l2_streams: Vec<L2Stream>,
}

impl PerfSummary {
    /// Walk the mDFG's streams once.
    pub fn new(mdfg: &Mdfg, placement: &Placement) -> Self {
        let mut l2_streams = Vec::new();
        let demand = TileDemand::walk(mdfg, placement, |s| l2_streams.push(s));
        PerfSummary { demand, l2_streams }
    }

    /// The estimate at one system point.
    pub fn estimate(&self, sys: &SystemParams, spad_bw_total: f64) -> PerfEstimate {
        let tiles = tile_count(self.demand.sequential, sys);
        let mut cons_dram = 0.0f64;
        for s in &self.l2_streams {
            cons_dram += s.dram_consumption(tiles, sys);
        }
        self.demand.estimate(sys, spad_bw_total, cons_dram)
    }
}

/// Tiles that run the region in parallel: cross-iteration (sequential)
/// regions neither tile-parallelize nor fire every cycle.
fn tile_count(sequential: bool, sys: &SystemParams) -> f64 {
    if sequential {
        1.0
    } else {
        f64::from(sys.tiles)
    }
}

/// The system-independent per-tile demand of one mDFG: instruction rate
/// and the consumption rates at the scratchpad and the L2 (Equation 2's
/// sum of stream bandwidth over reuse).
#[derive(Debug, Clone, Copy, PartialEq)]
struct TileDemand {
    sequential: bool,
    /// Instructions per cycle at full rate (per firing over the interval).
    insts: f64,
    cons_spad: f64,
    cons_l2: f64,
}

/// One stream served by the L2: its per-tile residual traffic and what an
/// L2 large enough for its footprint would capture of it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct L2Stream {
    residual: f64,
    footprint_bytes: f64,
    scratchpad_benefit: f64,
}

impl L2Stream {
    /// Per-tile DRAM consumption: reduced by L2 capture when the footprint
    /// (shared across tiles) fits in the cache.
    fn dram_consumption(&self, tiles: f64, sys: &SystemParams) -> f64 {
        let fits_l2 = self.footprint_bytes * tiles <= f64::from(sys.l2_kb) * 1024.0;
        let l2_capture = if fits_l2 {
            self.scratchpad_benefit // general reuse not yet captured
        } else {
            1.0
        };
        self.residual / l2_capture
    }
}

impl TileDemand {
    /// Walk the mDFG's memory streams in node order, summing the
    /// scratchpad and L2 consumption and handing every L2 stream to `l2`.
    fn walk(mdfg: &Mdfg, placement: &Placement, mut l2: impl FnMut(L2Stream)) -> TileDemand {
        // The dependency chain sets a sequential region's firing interval.
        let sequential = mdfg.sequential();
        let interval = if sequential {
            (mdfg.critical_path_len() as f64 / 2.0).max(1.0)
        } else {
            1.0
        };
        let mut demand = TileDemand {
            sequential,
            insts: mdfg.insts_per_firing() / interval,
            cons_spad: 0.0,
            cons_l2: 0.0,
        };
        for (_, n) in mdfg.nodes() {
            let s = match n.as_stream() {
                Some(s) => s,
                None => continue,
            };
            if s.array.is_empty() {
                continue; // generate streams produce values, not memory traffic
            }
            if s.reuse.recurrent.is_some() {
                // Recurrence pairs stay in the fabric; negligible memory traffic.
                continue;
            }
            let bw = s.bytes_per_firing as f64;
            // Strided DRAM access wastes most of every line (stride-3/4
            // channel interleaving): ~4x bandwidth amplification.
            let amp = if s.pattern == StreamPattern::Strided {
                4.0
            } else {
                1.0
            };
            let residual = bw * amp / s.reuse.datapath_reuse();
            if placement.spad_arrays.contains(&s.array) && !s.broadcast {
                demand.cons_spad += residual;
            } else {
                demand.cons_l2 += residual;
                l2(L2Stream {
                    residual,
                    footprint_bytes: s.reuse.footprint_bytes,
                    scratchpad_benefit: s.reuse.scratchpad_benefit(),
                });
            }
        }
        demand
    }

    /// Equation 1 at one system point, given the per-tile DRAM consumption.
    fn estimate(&self, sys: &SystemParams, spad_bw_total: f64, cons_dram: f64) -> PerfEstimate {
        let tiles = tile_count(self.sequential, sys);
        let factor = |prod: f64, cons: f64| -> f64 {
            if cons <= 0.0 {
                1.0
            } else {
                (prod / cons).min(1.0)
            }
        };

        // L1: replicated per tile (# shared tiles = 1).
        let f_spad = factor(spad_bw_total, self.cons_spad);
        // L2: shared across tiles; NoC link width also caps per-tile ingest.
        let l2_prod = sys.l2_bw_bytes() as f64;
        let f_l2 = factor(l2_prod, self.cons_l2 * tiles)
            .min(factor(f64::from(sys.noc_bw_bytes), self.cons_l2));
        // DRAM: fixed total bandwidth shared across tiles.
        let f_dram = factor(sys.dram_bw_bytes() as f64, cons_dram * tiles);

        let bottleneck = f_spad.min(f_l2).min(f_dram);
        let per_tile_ipc = self.insts * bottleneck;
        PerfEstimate {
            ipc: per_tile_ipc * tiles,
            per_tile_ipc,
            factors: [f_spad, f_l2, f_dram],
        }
    }
}

/// Summed read bandwidth of a tile's scratchpads in bytes/cycle: the
/// `spad_bw_total` argument of [`estimate_ipc`] and [`PerfSummary::estimate`].
pub fn spad_bandwidth(adg: &Adg) -> f64 {
    adg.nodes()
        .filter_map(|(_, n)| n.as_spad().map(|s| f64::from(s.bw_bytes)))
        .sum()
}

/// Weighted geometric mean of per-workload IPCs — the DSE objective
/// ("mean performance of the best-performing mDFG for each workload",
/// §III-A).
/// An empty slice or a non-positive weight is a caller bug — the DSE
/// objective would silently collapse to 0.0 and every proposal would look
/// equally worthless. Both are hard errors in debug builds; release builds
/// keep the 0.0 escape hatch so a malformed run degrades instead of
/// aborting mid-anneal.
pub fn weighted_geomean_ipc(ipcs: &[(f64, f64)]) -> f64 {
    debug_assert!(
        !ipcs.is_empty(),
        "weighted_geomean_ipc: empty input (objective would be 0.0)"
    );
    debug_assert!(
        ipcs.iter().all(|&(_, w)| w > 0.0),
        "weighted_geomean_ipc: non-positive weight in {ipcs:?}"
    );
    let total_w: f64 = ipcs.iter().map(|(_, w)| w).sum();
    if total_w <= 0.0 {
        return 0.0;
    }
    let log_sum: f64 = ipcs.iter().map(|(ipc, w)| w * ipc.max(1e-12).ln()).sum();
    (log_sum / total_w).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use overgen_ir::{DataType, Op};
    use overgen_mdfg::{
        ArrayNode, InstNode, MdfgNode, MemPref, RecurrenceInfo, ReuseInfo, StreamNode,
        StreamPattern,
    };

    /// A streaming kernel: 2 input streams + 1 output, no reuse.
    fn streaming_mdfg(bytes_per_firing: u64) -> Mdfg {
        let mut g = Mdfg::new("stream", 0);
        g.set_unroll(2);
        g.set_total_iterations(4096.0);
        let info = ReuseInfo {
            traffic_bytes: 4096.0 * 8.0,
            footprint_bytes: 4096.0 * 8.0,
            ..ReuseInfo::default()
        };
        let aa = g.add_node(MdfgNode::Array(ArrayNode::new(
            "a",
            32768,
            MemPref::PreferDram,
        )));
        let ab = g.add_node(MdfgNode::Array(ArrayNode::new(
            "b",
            32768,
            MemPref::PreferDram,
        )));
        let ac = g.add_node(MdfgNode::Array(ArrayNode::new(
            "c",
            32768,
            MemPref::PreferDram,
        )));
        let ra = g.add_node(MdfgNode::InputStream(StreamNode::read(
            "a",
            bytes_per_firing,
            info,
        )));
        let rb = g.add_node(MdfgNode::InputStream(StreamNode::read(
            "b",
            bytes_per_firing,
            info,
        )));
        let add = g.add_node(MdfgNode::Inst(InstNode::new(Op::Add, DataType::I64, 1)));
        let wc = g.add_node(MdfgNode::OutputStream(StreamNode::write(
            "c",
            bytes_per_firing,
            info,
        )));
        g.add_edge(aa, ra).unwrap();
        g.add_edge(ab, rb).unwrap();
        g.add_edge(ra, add).unwrap();
        g.add_edge(rb, add).unwrap();
        g.add_edge(add, wc).unwrap();
        g.add_edge(wc, ac).unwrap();
        g
    }

    fn sys(tiles: u32, banks: u32, channels: u32) -> SystemParams {
        SystemParams {
            tiles,
            l2_banks: banks,
            l2_kb: 512,
            noc_bw_bytes: 64,
            dram_channels: channels,
        }
    }

    #[test]
    fn compute_bound_when_bandwidth_ample() {
        let g = streaming_mdfg(8);
        let p = estimate_ipc(&g, &sys(1, 8, 4), 0.0, &Placement::default());
        assert_eq!(p.bottleneck(), None);
        assert!((p.per_tile_ipc - g.insts_per_firing()).abs() < 1e-9);
    }

    #[test]
    fn dram_bound_with_many_tiles() {
        // 16 tiles x 3 streams x 32B = 1536 B/cyc demand vs 64 B/cyc DRAM.
        let g = streaming_mdfg(32);
        let p = estimate_ipc(&g, &sys(16, 32, 1), 0.0, &Placement::default());
        assert_eq!(p.bottleneck(), Some(Level::Dram));
        assert!(p.factors[2] < 0.1);
    }

    #[test]
    fn more_channels_relieve_dram() {
        let g = streaming_mdfg(32);
        let p1 = estimate_ipc(&g, &sys(8, 32, 1), 0.0, &Placement::default());
        let p4 = estimate_ipc(&g, &sys(8, 32, 4), 0.0, &Placement::default());
        assert!(p4.ipc > p1.ipc);
    }

    #[test]
    fn scaling_tiles_saturates() {
        let g = streaming_mdfg(32);
        let p4 = estimate_ipc(&g, &sys(4, 4, 1), 0.0, &Placement::default());
        let p16 = estimate_ipc(&g, &sys(16, 4, 1), 0.0, &Placement::default());
        // more tiles cannot exceed DRAM-limited throughput
        assert!(p16.ipc <= p4.ipc * 1.5);
    }

    #[test]
    fn spad_placement_removes_l2_pressure() {
        let g = streaming_mdfg(32);
        let mut placement = Placement::default();
        placement.spad_arrays.insert("a".into());
        placement.spad_arrays.insert("b".into());
        placement.spad_arrays.insert("c".into());
        let without = estimate_ipc(&g, &sys(8, 2, 1), 0.0, &Placement::default());
        let with = estimate_ipc(&g, &sys(8, 2, 1), 128.0, &placement);
        assert!(with.ipc > without.ipc);
        // but an undersized scratchpad bandwidth becomes the new bottleneck
        let starved = estimate_ipc(&g, &sys(8, 2, 1), 8.0, &placement);
        assert_eq!(starved.bottleneck(), Some(Level::Spad));
    }

    #[test]
    fn stationary_reuse_divides_pressure() {
        let mut g = streaming_mdfg(32);
        // Mark stream `a` as 32x port-stationary.
        let ids: Vec<_> = g.nodes().map(|(id, _)| id).collect();
        for id in ids {
            if let Some(MdfgNode::InputStream(s)) = g.node_mut(id) {
                if s.array == "a" {
                    s.reuse.stationary = 32.0;
                }
            }
        }
        let base = streaming_mdfg(32);
        let p_plain = estimate_ipc(&base, &sys(8, 2, 1), 0.0, &Placement::default());
        let p_reuse = estimate_ipc(&g, &sys(8, 2, 1), 0.0, &Placement::default());
        assert!(p_reuse.ipc >= p_plain.ipc);
    }

    #[test]
    fn geomean() {
        let v = weighted_geomean_ipc(&[(4.0, 1.0), (16.0, 1.0)]);
        assert!((v - 8.0).abs() < 1e-9);
        // weights shift the mean
        let w = weighted_geomean_ipc(&[(4.0, 3.0), (16.0, 1.0)]);
        assert!(w < 8.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "empty input")]
    fn geomean_rejects_empty_input() {
        weighted_geomean_ipc(&[]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-positive weight")]
    fn geomean_rejects_non_positive_weight() {
        weighted_geomean_ipc(&[(4.0, 1.0), (16.0, 0.0)]);
    }

    /// The pre-split `estimate_ipc`, kept as the bitwise oracle for the
    /// precompiled form.
    fn reference_estimate_ipc(
        mdfg: &Mdfg,
        sys: &SystemParams,
        spad_bw_total: f64,
        placement: &Placement,
    ) -> PerfEstimate {
        let tiles = if mdfg.sequential() {
            1.0
        } else {
            f64::from(sys.tiles)
        };
        let interval = if mdfg.sequential() {
            (mdfg.critical_path_len() as f64 / 2.0).max(1.0)
        } else {
            1.0
        };
        let insts = mdfg.insts_per_firing() / interval;
        let mut cons_spad = 0.0f64;
        let mut cons_l2 = 0.0f64;
        let mut cons_dram = 0.0f64;
        for (_, n) in mdfg.nodes() {
            let s = match n.as_stream() {
                Some(s) => s,
                None => continue,
            };
            if s.array.is_empty() {
                continue;
            }
            let bw = s.bytes_per_firing as f64;
            let datapath_reuse = s.reuse.datapath_reuse();
            let amp = if s.pattern == StreamPattern::Strided {
                4.0
            } else {
                1.0
            };
            let residual = bw * amp / datapath_reuse;
            if s.reuse.recurrent.is_some() {
                continue;
            }
            if placement.spad_arrays.contains(&s.array) && !s.broadcast {
                cons_spad += residual;
            } else {
                cons_l2 += residual;
                let fits_l2 = s.reuse.footprint_bytes * tiles <= f64::from(sys.l2_kb) * 1024.0;
                let l2_capture = if fits_l2 {
                    s.reuse.scratchpad_benefit()
                } else {
                    1.0
                };
                cons_dram += residual / l2_capture;
            }
        }
        let factor = |prod: f64, cons: f64| -> f64 {
            if cons <= 0.0 {
                1.0
            } else {
                (prod / cons).min(1.0)
            }
        };
        let f_spad = factor(spad_bw_total, cons_spad);
        let l2_prod = sys.l2_bw_bytes() as f64;
        let f_l2 =
            factor(l2_prod, cons_l2 * tiles).min(factor(f64::from(sys.noc_bw_bytes), cons_l2));
        let f_dram = factor(sys.dram_bw_bytes() as f64, cons_dram * tiles);
        let bottleneck = f_spad.min(f_l2).min(f_dram);
        let per_tile_ipc = insts * bottleneck;
        PerfEstimate {
            ipc: per_tile_ipc * tiles,
            per_tile_ipc,
            factors: [f_spad, f_l2, f_dram],
        }
    }

    fn estimate_bits(p: &PerfEstimate) -> [u64; 5] {
        [
            p.ipc.to_bits(),
            p.per_tile_ipc.to_bits(),
            p.factors[0].to_bits(),
            p.factors[1].to_bits(),
            p.factors[2].to_bits(),
        ]
    }

    /// One stream of every kind the model distinguishes, feeding a chain of
    /// `depth` instructions: an L2 stream whose 64 KiB footprint fits a
    /// 256 KiB L2 up to 4 tiles, a strided L2 stream, a recurrent (skipped)
    /// one, a broadcast stream of a scratchpad array (so it stays on the
    /// L2), a scratchpad-resident one, a generate stream and an L2 write.
    fn every_branch_mdfg(sequential: bool, depth: usize) -> (Mdfg, Placement) {
        let mut g = Mdfg::new("branches", 0);
        g.set_unroll(4);
        g.set_total_iterations(65536.0);
        g.set_sequential(sequential);
        let reuse = |footprint_kb: f64, general: f64| ReuseInfo {
            traffic_bytes: footprint_kb * 1024.0 * general,
            footprint_bytes: footprint_kb * 1024.0,
            ..ReuseInfo::default()
        };
        let mut chain = g.add_node(MdfgNode::Inst(InstNode::new(Op::Add, DataType::I64, 4)));
        let first = chain;
        for _ in 1..depth {
            let next = g.add_node(MdfgNode::Inst(InstNode::new(Op::Mul, DataType::I64, 4)));
            g.add_edge(chain, next).unwrap();
            chain = next;
        }
        let read = |g: &mut Mdfg, s: StreamNode| {
            let pref = if s.array == "spad" || s.array == "bcast" {
                MemPref::PreferSpad
            } else {
                MemPref::PreferDram
            };
            let a = (!s.array.is_empty())
                .then(|| g.add_node(MdfgNode::Array(ArrayNode::new(s.array.clone(), 8192, pref))));
            let r = g.add_node(MdfgNode::InputStream(s));
            if let Some(a) = a {
                g.add_edge(a, r).unwrap();
            }
            g.add_edge(r, first).unwrap();
        };
        read(&mut g, StreamNode::read("fits", 32, reuse(64.0, 16.0)));
        read(
            &mut g,
            StreamNode {
                pattern: StreamPattern::Strided,
                ..StreamNode::read("strided", 16, reuse(1024.0, 4.0))
            },
        );
        read(
            &mut g,
            StreamNode::read(
                "rec",
                32,
                ReuseInfo {
                    recurrent: Some(RecurrenceInfo {
                        concurrent: 32,
                        depth: 32,
                    }),
                    ..reuse(8.0, 32.0)
                },
            ),
        );
        read(
            &mut g,
            StreamNode {
                broadcast: true,
                ..StreamNode::read("bcast", 8, reuse(16.0, 8.0))
            },
        );
        read(
            &mut g,
            StreamNode {
                reuse: ReuseInfo {
                    stationary: 4.0,
                    ..reuse(32.0, 8.0)
                },
                ..StreamNode::read("spad", 64, reuse(32.0, 8.0))
            },
        );
        read(&mut g, StreamNode::read("", 8, ReuseInfo::default()));
        let ac = g.add_node(MdfgNode::Array(ArrayNode::new(
            "out",
            8192,
            MemPref::PreferDram,
        )));
        let wc = g.add_node(MdfgNode::OutputStream(StreamNode::write(
            "out",
            32,
            reuse(512.0, 1.0),
        )));
        g.add_edge(chain, wc).unwrap();
        g.add_edge(wc, ac).unwrap();
        let placement = Placement::from_prefs(&g);
        (g, placement)
    }

    /// The default system-DSE grid, plus a second DRAM channel count.
    fn grid() -> Vec<SystemParams> {
        let mut points = Vec::new();
        for tiles in 1..=16 {
            for l2_banks in [2, 4, 8, 16] {
                for l2_kb in [256, 512, 1024, 2048] {
                    for noc_bw_bytes in [32, 64] {
                        for dram_channels in [1, 4] {
                            points.push(SystemParams {
                                tiles,
                                l2_banks,
                                l2_kb,
                                noc_bw_bytes,
                                dram_channels,
                            });
                        }
                    }
                }
            }
        }
        points
    }

    #[test]
    fn precompiled_estimate_is_bit_identical_on_every_branch() {
        let (parallel, placement) = every_branch_mdfg(false, 6);
        let (sequential, _) = every_branch_mdfg(true, 6);
        assert!(placement.spad_arrays.contains("spad") && placement.spad_arrays.contains("bcast"));

        // The walk classifies every branch: four L2 streams (fits, strided,
        // bcast, out), one scratchpad stream; rec and the generate stream
        // are skipped.
        let summary = PerfSummary::new(&parallel, &placement);
        assert_eq!(summary.l2_streams.len(), 4);
        assert!(summary.demand.cons_spad > 0.0);
        // The 64 KiB footprint sits on both sides of the fits_l2 threshold
        // at 256 KiB: captured at 4 tiles, not at 5.
        let at = |tiles| SystemParams {
            tiles,
            l2_kb: 256,
            ..SystemParams::default()
        };
        let fits = summary.l2_streams[0];
        assert!(fits.dram_consumption(4.0, &at(4)) < fits.dram_consumption(5.0, &at(5)));
        // Sequential regions run on one tile at the critical-path interval.
        let seq = PerfSummary::new(&sequential, &placement);
        assert!(seq.demand.sequential && seq.demand.insts < summary.demand.insts);

        let placements = [placement.clone(), Placement::default()];
        let mdfgs = [&parallel, &sequential, &streaming_mdfg(32)];
        for m in mdfgs {
            for p in &placements {
                let summary = PerfSummary::new(m, p);
                for spad_bw in [0.0, 8.0, 128.0] {
                    for sys in grid() {
                        let want = estimate_bits(&reference_estimate_ipc(m, &sys, spad_bw, p));
                        let one_shot = estimate_ipc(m, &sys, spad_bw, p);
                        assert_eq!(want, estimate_bits(&one_shot), "{} {sys:?}", m.name());
                        let pre = summary.estimate(&sys, spad_bw);
                        assert_eq!(want, estimate_bits(&pre), "{} {sys:?}", m.name());
                    }
                }
            }
        }
    }

    #[test]
    fn placement_from_prefs() {
        let mut g = Mdfg::new("x", 0);
        let a = g.add_node(MdfgNode::Array(ArrayNode::new(
            "hot",
            64,
            MemPref::PreferSpad,
        )));
        let _ = a;
        g.add_node(MdfgNode::Array(ArrayNode::new(
            "cold",
            64,
            MemPref::PreferDram,
        )));
        let p = Placement::from_prefs(&g);
        assert!(p.spad_arrays.contains("hot"));
        assert!(!p.spad_arrays.contains("cold"));
    }
}
