//! Property tests on the media engine's scheduling invariants.

use flashsim::stats::RawStats;
use flashsim::{DieOp, MediaConfig, MediaSim, OpKind};
use nvmtypes::{BusTiming, DieIndex, MediaTiming, NvmKind, SsdGeometry};
use proptest::prelude::*;

fn sdr400() -> BusTiming {
    BusTiming {
        name: "ONFi3-SDR-400",
        bytes_per_ns: 0.4,
    }
}

fn arb_op(dies: u32, planes: u32) -> impl Strategy<Value = DieOp> {
    (
        0..dies,
        1..=planes,
        1u64..64,
        0u64..1000,
        prop_oneof![Just(OpKind::Read), Just(OpKind::Write), Just(OpKind::Erase)],
    )
        .prop_map(|(die, planes, pages, start, kind)| DieOp {
            die: DieIndex(die),
            planes,
            pages,
            start_page: start,
            kind,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn schedules_are_causal_and_accounted(
        ops in prop::collection::vec((0u64..1_000_000, arb_op(8, 2)), 1..60),
        kind in prop_oneof![
            Just(NvmKind::Slc), Just(NvmKind::Mlc), Just(NvmKind::Tlc), Just(NvmKind::Pcm)
        ],
    ) {
        let cfg = MediaConfig::tiny(kind, sdr400());
        let mut sim = MediaSim::new(cfg);
        let mut per_die_last_end = vec![0u64; cfg.geometry.total_dies() as usize];
        let mut max_end = 0;
        let mut per_op = Vec::new();
        for (arrival, op) in &ops {
            let out = sim.execute(*arrival, op);
            per_op.push((op.die.0, out.start, out.end));
            // Causality: never starts before arrival, never ends before start.
            prop_assert!(out.start >= *arrival);
            prop_assert!(out.end > out.start);
            // Per-die serialisation: the die never overlaps itself.
            let d = op.die.0 as usize;
            prop_assert!(out.start >= per_die_last_end[d]);
            per_die_last_end[d] = out.end;
            max_end = max_end.max(out.end);
        }
        let st = sim.stats();
        prop_assert_eq!(st.ops, ops.len() as u64);
        // Byte accounting matches the ops executed.
        let want_read: u64 = ops
            .iter()
            .filter(|(_, o)| o.kind == OpKind::Read)
            .map(|(_, o)| o.pages * cfg.timing.page_size as u64)
            .sum();
        prop_assert_eq!(st.bytes_read, want_read);
        // Every die interval ends within the run.
        prop_assert!(st.die_intervals.iter().all(|&(_, _, e)| e <= max_end));
        // Joining back-to-back intervals on a die changes no roll-up: the
        // report equals the one from a list with one interval per op.
        let dma = [(0, max_end / 2)];
        let one_per_op = RawStats { die_intervals: per_op, ..st.clone() };
        let want = one_per_op.finalize(&cfg, max_end, 0, &dma);
        // Finalised report invariants.
        let (rep, idle) = sim.into_stats().finalize(&cfg, max_end, 0, &dma);
        prop_assert_eq!((&rep, idle), (&want.0, want.1));
        prop_assert!(rep.active_span <= max_end);
        prop_assert!((0.0..=1.0).contains(&rep.channel_util));
        prop_assert!((0.0..=1.0).contains(&rep.package_util));
        prop_assert!((0.0..=1.0).contains(&rep.cell_util));
        prop_assert!(rep.remaining_mb_s >= 0.0);
    }

    #[test]
    fn cell_time_is_monotone_in_pages(
        pages_a in 1u64..200,
        extra in 1u64..100,
        planes in 1u32..=2,
    ) {
        let t = MediaTiming::table1(NvmKind::Tlc);
        let a = DieOp::read(DieIndex(0), planes, pages_a, 0).cell_time(&t);
        let b = DieOp::read(DieIndex(0), planes, pages_a + extra, 0).cell_time(&t);
        prop_assert!(b >= a);
    }

    #[test]
    fn multiplane_never_slows_a_read(pages in 1u64..200) {
        let t = MediaTiming::table1(NvmKind::Mlc);
        let one = DieOp::read(DieIndex(0), 1, pages, 0).cell_time(&t);
        let two = DieOp::read(DieIndex(0), 2, pages, 0).cell_time(&t);
        prop_assert!(two <= one);
    }

    #[test]
    fn geometry_capacity_identities(
        channels in 1u32..8,
        pkgs in 1u32..8,
        dies in 1u32..4,
        planes in 1u32..4,
    ) {
        let g = SsdGeometry {
            channels,
            packages_per_channel: pkgs,
            dies_per_package: dies,
            planes_per_die: planes,
            blocks_per_plane: 16,
            pages_per_block: 8,
        };
        prop_assert_eq!(g.total_dies(), channels * pkgs * dies);
        prop_assert_eq!(g.total_plane_slots(), (channels * pkgs * dies * planes) as u64);
        prop_assert_eq!(g.total_pages(), g.total_dies() as u64 * g.pages_per_die());
    }
}
