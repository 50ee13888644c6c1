//! Property tests over the UFS read path: a byte-range read of a file
//! whose content is spread over several extents returns exactly the
//! matching slice of what was written, from the device (durable) and
//! from a staged overlay (dirty runs merged with durable sectors) alike.

use proptest::prelude::*;
use ssd::SimBlockDevice;
use ufs::{FileId, Ufs, UfsParams};

const SECTOR: usize = 4096;
/// The test file's size: nine sectors with a partial tail.
const SIZE: usize = 9 * SECTOR - 1234;

fn pattern(len: usize, salt: u64) -> Vec<u8> {
    (0..len as u64)
        .map(|i| (i.wrapping_mul(31).wrapping_add(salt) % 251) as u8)
        .collect()
}

/// A filesystem with 30 data sectors holding a [`SIZE`]-byte file in
/// three 3-sector extents, plus that file's content. Six 3-sector files
/// fill sectors 0..18; growing every other one to 4 sectors moves it
/// into 18..30 and leaves three 3-sector holes, which first-fit gathers
/// for the test file.
fn fragmented(salt: u64) -> (Ufs<SimBlockDevice>, FileId, Vec<u8>) {
    let params = UfsParams {
        max_files: 8,
        journal_sectors: 8,
    };
    let mut fs = Ufs::format(SimBlockDevice::new(17 + 30), params).expect("formats");
    let files = ["a", "b", "c", "d", "e", "g"].map(|n| (n, 3)).into_iter();
    for (i, (name, sectors)) in files.chain([("a", 4), ("c", 4), ("e", 4)]).enumerate() {
        let id = fs.open(name).or_else(|_| fs.create(name)).expect("file");
        fs.write(id, 0, &pattern(sectors * SECTOR, i as u64))
            .expect("writes");
        fs.fsync(id).expect("syncs");
    }
    let id = fs.create("f").expect("creates");
    let data = pattern(SIZE, salt);
    fs.write(id, 0, &data).expect("writes");
    fs.fsync(id).expect("syncs");
    (fs, id, data)
}

/// Clamps a generated `(offset, len)` to lie inside the file.
fn clamp((offset, len): (usize, usize)) -> (usize, usize) {
    let offset = offset % (SIZE + 1);
    (offset, len.min(SIZE - offset))
}

#[test]
fn the_test_file_really_spans_three_extents() {
    let (mut fs, id, data) = fragmented(0);
    fs.enable_request_log();
    let mut out = vec![0u8; SIZE];
    fs.read(id, 0, &mut out).expect("reads");
    assert_eq!(out, data);
    let log = fs.take_request_log();
    assert_eq!(log.len(), 3, "one merged read per extent: {log:?}");
    assert!(log.iter().all(|r| r.len == 3 * SECTOR as u64));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Durable reads, then reads of the staged copy after an overlay
    /// write, both equal the model's slice at every `(offset, len)`.
    #[test]
    fn range_reads_equal_the_written_slice(
        salt in 0u64..1_000,
        reads in prop::collection::vec((0usize..SIZE + 1, 0usize..3 * SECTOR), 1..12),
        patch in (0usize..SIZE + 1, 0usize..2 * SECTOR),
    ) {
        let (mut fs, id, mut model) = fragmented(salt);
        for &r in &reads {
            let (offset, len) = clamp(r);
            let mut out = vec![0u8; len];
            fs.read(id, offset as u64, &mut out).expect("durable read");
            prop_assert_eq!(&out[..], &model[offset..offset + len]);
        }
        // Staging the overlay reads back at most its partial head and tail.
        let (offset, len) = clamp(patch);
        let bytes = pattern(len, salt + 1);
        fs.write(id, offset as u64, &bytes).expect("staged write");
        model[offset..offset + len].copy_from_slice(&bytes);
        for &r in &reads {
            let (offset, len) = clamp(r);
            let mut out = vec![0u8; len];
            fs.read(id, offset as u64, &mut out).expect("staged read");
            prop_assert_eq!(&out[..], &model[offset..offset + len]);
        }
    }
}
