//! Scale gates for the journaled UFS replay: from 8 MiB to the paper's
//! 256 MiB, the read-only out-of-core trace and the checkpointing trace
//! replay through the real filesystem, copy-on-write stays within two
//! sectors per commit of the bytes the application wrote, and the
//! device bytes written per user byte stay flat. Every gate is a
//! deterministic byte count, so none of them can flake on a slow host.

use nvmtypes::MIB;
use oocnvm_core::workload::{checkpoint_trace, synthetic_ooc_trace};
use ooctrace::PosixTrace;
use ufs::{JournaledUfs, WriteAmp};

/// Sector size, bytes.
const SECTOR: u64 = 4096;

/// The read-only out-of-core sweep of `mib` MiB, in 1 MiB panel reads.
fn read_only(mib: u64) -> PosixTrace {
    synthetic_ooc_trace(mib * MIB, MIB, 42)
}

/// The same sweep with four checkpoints, each an eighth of the read
/// volume appended in 1 MiB records — the shape of oocbench's
/// `journal_ckpt` traces at every size.
fn checkpointing(mib: u64) -> PosixTrace {
    checkpoint_trace(mib * MIB, mib * MIB / 4, mib * MIB / 8, MIB, 42)
}

fn replay(trace: &PosixTrace) -> WriteAmp {
    match JournaledUfs::default().transform_with_stats(trace) {
        Ok((_, wa)) => wa,
        Err(e) => panic!("replay of {} bytes failed: {e}", trace.total_bytes()),
    }
}

/// Copy-on-write costs the written bytes plus at most a partial head
/// and tail sector per commit; device bytes per user byte stay at or
/// below `max_permille`.
fn assert_linear(what: &str, mib: u64, wa: &WriteAmp, max_permille: u64) {
    assert!(wa.commits > 0, "{what} {mib} MiB: {wa:?}");
    assert!(
        wa.cow_bytes <= wa.user_bytes + 2 * SECTOR * wa.commits,
        "{what} {mib} MiB: cow {} B for {} user B in {} commits",
        wa.cow_bytes,
        wa.user_bytes,
        wa.commits
    );
    assert!(
        wa.device_per_user_permille() <= max_permille,
        "{what} {mib} MiB: {} permille device/user ({wa:?})",
        wa.device_per_user_permille()
    );
}

#[test]
fn a_256_mib_read_only_journaled_replay_succeeds() {
    // Every commit of the 64 MiB file adds an extent: far more than the
    // entry's direct slots hold.
    let wa = replay(&read_only(256));
    assert_linear("read-only", 256, &wa, 1100);
}

#[test]
fn read_only_replays_stay_linear_from_8_to_128_mib() {
    for mib in [8, 32, 128] {
        assert_linear("read-only", mib, &replay(&read_only(mib)), 1100);
    }
}

#[test]
fn checkpoint_replays_stay_linear_from_8_to_256_mib() {
    for mib in [8, 32, 128, 256] {
        assert_linear("checkpoint", mib, &replay(&checkpointing(mib)), 2000);
    }
}
