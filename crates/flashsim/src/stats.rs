//! Execution-state accounting (Figure 10), utilization (Figure 9), and the
//! PAL parallelism taxonomy of the paper's §4.5.

use crate::config::MediaConfig;
use nvmtypes::convert::{approx_f64, usize_from_u32};
use nvmtypes::Nanos;
use serde::Serialize;
use std::collections::BTreeMap;

/// A half-open busy interval `[start, end)`.
pub type Interval = (Nanos, Nanos);

/// Per-arbitration-tag accounting: how much die time, how many die-ops
/// and how many payload bytes one tag (one tenant, in the QoS layer's
/// vocabulary) consumed on the media. Purely additive — the engine's
/// schedule never reads it back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TagStats {
    /// Die busy time (op start to completion) attributed to the tag, ns.
    pub busy_ns: Nanos,
    /// Die-ops executed under the tag.
    pub ops: u64,
    /// Payload bytes moved (reads + writes; erases move none).
    pub bytes: u64,
}

/// The paper's four parallelism levels (§4.5):
///
/// * **PAL1** — system-level parallelism via channel striping and channel
///   pipelining only,
/// * **PAL2** — die (bank) interleaving on top of PAL1,
/// * **PAL3** — multi-plane mode operation on top of PAL1,
/// * **PAL4** — all of the above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum PalLevel {
    /// Channel striping / pipelining only.
    Pal1,
    /// Die interleaving on top of PAL1.
    Pal2,
    /// Multi-plane operation on top of PAL1.
    Pal3,
    /// Die interleaving and multi-plane together.
    Pal4,
}

impl PalLevel {
    /// Classifies a request from the resources its die-ops engaged:
    /// whether any channel ran two or more distinct dies (die
    /// interleaving), and whether any die-op engaged two or more planes
    /// (multi-plane mode).
    pub fn classify(die_interleaved: bool, multiplane: bool) -> PalLevel {
        match (die_interleaved, multiplane) {
            (false, false) => PalLevel::Pal1,
            (true, false) => PalLevel::Pal2,
            (false, true) => PalLevel::Pal3,
            (true, true) => PalLevel::Pal4,
        }
    }

    /// Index 0..4 for histogram storage.
    pub fn index(self) -> usize {
        match self {
            PalLevel::Pal1 => 0,
            PalLevel::Pal2 => 1,
            PalLevel::Pal3 => 2,
            PalLevel::Pal4 => 3,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        ["PAL1", "PAL2", "PAL3", "PAL4"][self.index()]
    }
}

/// Distribution of requests over the four PAL levels (Figures 10b/10d).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PalHistogram {
    /// Request counts per level (index via [`PalLevel::index`]).
    pub counts: [u64; 4],
}

impl PalHistogram {
    /// Records one request's achieved level.
    pub fn add(&mut self, level: PalLevel) {
        self.counts[level.index()] += 1;
    }

    /// Total requests recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Percentages per level (sums to 100 for a non-empty histogram).
    pub fn percent(&self) -> [f64; 4] {
        let total = self.total();
        if total == 0 {
            return [0.0; 4];
        }
        self.counts
            .map(|c| 100.0 * approx_f64(c) / approx_f64(total))
    }
}

/// The six execution-state buckets of Figures 10a/10c, in ns of resource
/// time attributed to each state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ExecBreakdown {
    /// Data movement between the SSD and the host (thin interface, PCIe
    /// bus, network) not overlapped with any media activity.
    pub non_overlapped_dma: Nanos,
    /// Data movement between die registers and the channel (command,
    /// address and register-shift cycles).
    pub flash_bus_activation: Nanos,
    /// Data movement on the shared channel bus.
    pub channel_activation: Nanos,
    /// Waiting on an NVM die already busy serving another request.
    pub cell_contention: Nanos,
    /// Waiting on a channel already busy serving another request.
    pub channel_contention: Nanos,
    /// Actually performing a read / program / erase on the cells.
    pub cell_activation: Nanos,
}

impl ExecBreakdown {
    /// Total attributed time.
    pub fn total(&self) -> Nanos {
        self.non_overlapped_dma
            + self.flash_bus_activation
            + self.channel_activation
            + self.cell_contention
            + self.channel_contention
            + self.cell_activation
    }

    /// Percentages in the order
    /// `[non-overlapped DMA, flash bus, channel, cell contention,
    ///   channel contention, cell activation]` (Figure 10 legend order).
    pub fn percent(&self) -> [f64; 6] {
        let total = self.total();
        if total == 0 {
            return [0.0; 6];
        }
        let f = |v: Nanos| 100.0 * approx_f64(v) / approx_f64(total);
        [
            f(self.non_overlapped_dma),
            f(self.flash_bus_activation),
            f(self.channel_activation),
            f(self.cell_contention),
            f(self.channel_contention),
            f(self.cell_activation),
        ]
    }
}

/// Raw accounting the engine accumulates while executing die-ops.
#[derive(Debug, Clone, Default)]
pub struct RawStats {
    /// Cell activation time (ns) summed over dies.
    pub cell_activation: Nanos,
    /// Cell contention (die-busy wait) time.
    pub cell_contention: Nanos,
    /// Channel data-transfer time.
    pub channel_activation: Nanos,
    /// Channel wait time.
    pub channel_contention: Nanos,
    /// Command/address/register overhead time.
    pub flash_bus_activation: Nanos,
    /// Every die busy interval (op start to completion), tagged with its
    /// global die index, in issue order; back-to-back ops on a die share
    /// one. [`RawStats::finalize`] rolls them up into every busy union
    /// and the die busy total.
    pub die_intervals: Vec<(u32, Nanos, Nanos)>,
    /// Payload bytes read from the media.
    pub bytes_read: u64,
    /// Payload bytes written to the media.
    pub bytes_written: u64,
    /// Blocks erased.
    pub blocks_erased: u64,
    /// Number of die-ops executed.
    pub ops: u64,
    /// Per-tag attribution for ops executed while an arbitration tag was
    /// set ([`crate::MediaSim::set_arbitration_tag`]). Empty — and free —
    /// when no tag is ever set; a `BTreeMap` so iteration order (and any
    /// report derived from it) is deterministic.
    pub tag_busy: BTreeMap<u32, TagStats>,
}

impl RawStats {
    /// Total payload bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// Finished media-side report for one simulation run. Its busy unions and
/// die busy total come from the one sweep of [`RawStats::finalize`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MediaReport {
    /// End-to-end simulated time (ns) — set by the caller (SSD layer),
    /// since completion includes host DMA.
    pub makespan: Nanos,
    /// Union length of all media busy intervals (ns).
    pub active_span: Nanos,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Media-level throughput over the makespan, MB/s.
    pub media_bandwidth_mb_s: f64,
    /// Channel-level utilization over the device-active span, `[0, 1]`
    /// (Figure 9a's definition: percent of total channels kept busy
    /// throughout the execution).
    pub channel_util: f64,
    /// Package-level utilization over the device-active span, `[0, 1]`
    /// (Figure 9b: percent of packages kept busy serving requests).
    pub package_util: f64,
    /// Die-level utilization over the whole makespan, `[0, 1]` — a die is
    /// busy from operation start to completion, including time it holds its
    /// registers waiting on the shared bus.
    pub die_util: f64,
    /// Cell-level utilization over the whole makespan, `[0, 1]` — the
    /// fraction of aggregate cell time actually spent sensing,
    /// programming or erasing. The basis of the bandwidth-remaining
    /// headroom metric.
    pub cell_util: f64,
    /// Bandwidth the media's cells could still deliver: cell-aggregate
    /// read bandwidth scaled by cell idleness (Figures 7b/8b), MB/s.
    /// Media that completes its work quickly and idles (UFS behind a PCIe
    /// ceiling, ION-remote media behind a network) leaves a lot; media
    /// kept grinding on fragmented single-plane operations leaves little.
    pub remaining_mb_s: f64,
    /// Execution-state breakdown (Figure 10a/10c).
    pub breakdown: ExecBreakdown,
}

/// A running union of intervals fed in start order: the merged run still
/// open, `[start, end)`, and the length of the runs already closed.
#[derive(Debug, Clone, Copy, Default)]
struct RunningUnion {
    start: Nanos,
    end: Nanos,
    closed: Nanos,
}

impl RunningUnion {
    /// Adds `[s, e)`, which starts no earlier than anything added before.
    fn add(&mut self, s: Nanos, e: Nanos) {
        if s > self.end {
            self.closed += self.end - self.start;
            self.start = s;
        }
        self.end = self.end.max(e);
    }

    /// Total length covered so far.
    fn len(&self) -> Nanos {
        self.closed + (self.end - self.start)
    }
}

/// The busy-interval unions of one run, from [`busy_totals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BusyTotals {
    /// Length of the union of all die intervals.
    active_span: Nanos,
    /// Per-channel union lengths, summed over channels.
    channel: Nanos,
    /// Per-package union lengths, summed over packages.
    package: Nanos,
    /// Plain sum of die interval lengths.
    die: Nanos,
    /// Time inside the DMA intervals not covered by any die interval.
    dma_uncovered: Nanos,
}

/// Sorts `die_intervals` by start in place and computes every union in one
/// sweep, keeping a [`RunningUnion`] per channel, per package and for the
/// whole device. Exact for any overlap, a die overlapping itself
/// included. `dma` must be sorted by start and disjoint: then the time it
/// leaves uncovered is the union of DMA and die intervals, fed in start
/// order into one more running union, minus the die union alone.
fn busy_totals(
    die_intervals: &mut [(u32, Nanos, Nanos)],
    channels: u32,
    packages: u32,
    dma: &[Interval],
) -> BusyTotals {
    die_intervals.sort_unstable_by_key(|&(_, s, _)| s);
    let mut chan = vec![RunningUnion::default(); usize_from_u32(channels)];
    let mut pkg = vec![RunningUnion::default(); usize_from_u32(packages)];
    let (mut all, mut with_dma) = (RunningUnion::default(), RunningUnion::default());
    let (mut die, mut next_dma) = (0, 0);
    for &(d, s, e) in die_intervals.iter() {
        // A package is busy while any of its dies serves a request; a
        // channel is busy while any die on it serves a request.
        chan[usize_from_u32(d % channels)].add(s, e);
        pkg[usize_from_u32(d % packages)].add(s, e);
        all.add(s, e);
        while let Some(&(ds, de)) = dma.get(next_dma).filter(|&&(ds, _)| ds <= s) {
            with_dma.add(ds, de);
            next_dma += 1;
        }
        with_dma.add(s, e);
        die += e - s;
    }
    for &(ds, de) in &dma[next_dma..] {
        with_dma.add(ds, de);
    }
    BusyTotals {
        active_span: all.len(),
        channel: chan.iter().map(RunningUnion::len).sum(),
        package: pkg.iter().map(RunningUnion::len).sum(),
        die,
        dma_uncovered: with_dma.len() - all.len(),
    }
}

impl RawStats {
    /// Rolls the raw accounting up into a [`MediaReport`] with one in-place
    /// sort of `die_intervals` and one sweep over them, and returns with it
    /// the time inside `dma` during which no die was busy.
    ///
    /// `makespan` is the full run duration including host-side time;
    /// `non_overlapped_dma` is the host-DMA time the SSD layer attributes
    /// to that execution state; `dma` holds the host-DMA intervals, sorted
    /// by start and disjoint (the host link serves one transfer at a time).
    pub fn finalize(
        mut self,
        cfg: &MediaConfig,
        makespan: Nanos,
        non_overlapped_dma: Nanos,
        dma: &[Interval],
    ) -> (MediaReport, Nanos) {
        let g = &cfg.geometry;
        let busy = busy_totals(&mut self.die_intervals, g.channels, g.total_packages(), dma);
        let active_span = busy.active_span;
        let channel_util = if active_span == 0 {
            0.0
        } else {
            (approx_f64(busy.channel) / approx_f64(u64::from(g.channels) * active_span)).min(1.0)
        };
        let package_util = if active_span == 0 {
            0.0
        } else {
            (approx_f64(busy.package) / approx_f64(u64::from(g.total_packages()) * active_span))
                .min(1.0)
        };
        let die_util = if makespan == 0 {
            0.0
        } else {
            (approx_f64(busy.die) / approx_f64(u64::from(g.total_dies()) * makespan)).min(1.0)
        };
        let cell_util = if makespan == 0 {
            0.0
        } else {
            (approx_f64(self.cell_activation) / approx_f64(u64::from(g.total_dies()) * makespan))
                .min(1.0)
        };

        let remaining_bpns = (1.0 - cell_util) * cfg.cell_aggregate_read_bw();

        let report = MediaReport {
            makespan,
            active_span,
            bytes: self.bytes(),
            media_bandwidth_mb_s: nvmtypes::mb_per_s(self.bytes(), makespan),
            channel_util,
            package_util,
            die_util,
            cell_util,
            remaining_mb_s: remaining_bpns * 1e3,
            breakdown: ExecBreakdown {
                non_overlapped_dma,
                flash_bus_activation: self.flash_bus_activation,
                channel_activation: self.channel_activation,
                cell_contention: self.cell_contention,
                channel_contention: self.channel_contention,
                cell_activation: self.cell_activation,
            },
        };
        (report, busy.dma_uncovered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intervals::{merge, uncovered_len, union_len};
    use proptest::prelude::*;

    /// The sort-and-merge reference for [`busy_totals`]: a global merge,
    /// one scatter-and-merge per channel and per package, and a binary
    /// search of the merged set per DMA interval.
    fn reference(
        die_intervals: &[(u32, Nanos, Nanos)],
        channels: u32,
        packages: u32,
        dma: &[Interval],
    ) -> BusyTotals {
        let all: Vec<Interval> = die_intervals.iter().map(|&(_, s, e)| (s, e)).collect();
        let groups = |n: u32| -> Nanos {
            (0..n)
                .map(|g| {
                    union_len(
                        die_intervals
                            .iter()
                            .filter(|&&(d, _, _)| d % n == g)
                            .map(|&(_, s, e)| (s, e))
                            .collect(),
                    )
                })
                .sum()
        };
        let busy = merge(all.clone());
        BusyTotals {
            active_span: union_len(all),
            channel: groups(channels),
            package: groups(packages),
            die: die_intervals.iter().map(|&(_, s, e)| e - s).sum(),
            dma_uncovered: dma.iter().map(|&(s, e)| uncovered_len(s, e, &busy)).sum(),
        }
    }

    fn check(
        mut die_intervals: Vec<(u32, Nanos, Nanos)>,
        channels: u32,
        packages: u32,
        dma: &[Interval],
    ) {
        let want = reference(&die_intervals, channels, packages, dma);
        assert_eq!(
            busy_totals(&mut die_intervals, channels, packages, dma),
            want
        );
    }

    #[test]
    fn sweep_handles_the_edge_cases_exactly() {
        // Empty input, with and without DMA.
        check(vec![], 2, 4, &[]);
        check(vec![], 2, 4, &[(0, 10), (10, 25)]);
        // Die 0 overlapping itself (a cache-register re-arm), adjacent
        // intervals on one channel, and zero-length intervals inside and
        // outside the busy set, against adjacent and zero-length DMA.
        let die_intervals = vec![
            (0, 100, 300),
            (0, 150, 200),
            (0, 250, 400),
            (2, 400, 500),
            (1, 500, 500),
            (3, 700, 700),
            (5, 0, 0),
        ];
        let dma = [(0, 50), (50, 120), (120, 120), (390, 600), (600, 800)];
        check(die_intervals, 2, 4, &dma);
    }

    proptest! {
        #[test]
        fn one_sweep_equals_the_sort_and_merge_reference(
            geometry in 0usize..3,
            ivs in prop::collection::vec((0u32..256, 0u64..400, 0u64..13), 0..60),
            gaps in prop::collection::vec((0u64..40, 0u64..40), 0..20),
        ) {
            // (channels, packages, dies): tiny, paper and an odd shape.
            let (channels, packages, dies) = [(2, 4, 8), (8, 64, 256), (3, 3, 9)][geometry];
            // Coarse 5 ns steps make overlaps, adjacency and zero lengths
            // common; on the 8- and 9-die shapes dies often overlap
            // themselves.
            let mut die_intervals: Vec<(u32, Nanos, Nanos)> = ivs
                .iter()
                .map(|&(d, s, l)| (d % dies, 5 * s, 5 * (s + l)))
                .collect();
            // Sorted, disjoint DMA intervals, possibly adjacent or empty.
            let mut t = 0;
            let dma: Vec<Interval> = gaps
                .iter()
                .map(|&(gap, len)| {
                    let s = t + 5 * gap;
                    t = s + 5 * len;
                    (s, t)
                })
                .collect();
            let want = reference(&die_intervals, channels, packages, &dma);
            prop_assert_eq!(busy_totals(&mut die_intervals, channels, packages, &dma), want);
        }
    }

    #[test]
    fn pal_classification_matrix() {
        assert_eq!(PalLevel::classify(false, false), PalLevel::Pal1);
        assert_eq!(PalLevel::classify(true, false), PalLevel::Pal2);
        assert_eq!(PalLevel::classify(false, true), PalLevel::Pal3);
        assert_eq!(PalLevel::classify(true, true), PalLevel::Pal4);
    }

    #[test]
    fn pal_histogram_percentages() {
        let mut h = PalHistogram::default();
        h.add(PalLevel::Pal4);
        h.add(PalLevel::Pal4);
        h.add(PalLevel::Pal1);
        h.add(PalLevel::Pal3);
        let p = h.percent();
        assert!((p[3] - 50.0).abs() < 1e-12);
        assert!((p.iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        assert_eq!(PalHistogram::default().percent(), [0.0; 4]);
    }

    #[test]
    fn breakdown_percent_sums_to_100() {
        let b = ExecBreakdown {
            non_overlapped_dma: 10,
            flash_bus_activation: 20,
            channel_activation: 30,
            cell_contention: 15,
            channel_contention: 5,
            cell_activation: 20,
        };
        assert_eq!(b.total(), 100);
        let p = b.percent();
        assert!((p.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        assert!((p[5] - 20.0).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_percent_is_zero() {
        assert_eq!(ExecBreakdown::default().percent(), [0.0; 6]);
    }
}
