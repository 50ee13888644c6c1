//! On-disk layout: superblock, file-table entries and journal records.
//!
//! Every metadata structure fits in exactly one 4 KiB sector and carries
//! a trailing CRC32 over everything before it, so a torn sector write —
//! the device persists a prefix of the new bytes over the old contents —
//! is always *detectable*: the prefix ends before the CRC, or the CRC
//! covers bytes that never arrived. One file entry per sector means an
//! interrupted in-place apply can damage only the entry being updated,
//! and that entry is exactly the one crash recovery rewrites from its
//! journal image (see docs/UFS.md).
//!
//! All integers are little-endian. Vacant table sectors and never-used
//! journal slots are all-zero.

use nvmtypes::convert::{u32_from, u64_from_usize, usize_from_u32};
use nvmtypes::SimError;
use ssd::SECTOR_USIZE;

/// Superblock magic, `UFS1`.
pub const UFS_MAGIC: u32 = 0x5546_5331;
/// File-entry magic, `UFE1`.
pub const ENTRY_MAGIC: u32 = 0x5546_4531;
/// Journal-record magic, `UFJ1`.
pub const JREC_MAGIC: u32 = 0x5546_4A31;
/// On-disk format version.
pub const VERSION: u32 = 1;
/// Longest file name, bytes.
pub const MAX_NAME: usize = 64;
/// Most extents one file can hold (a full entry still fits one sector).
pub const MAX_EXTENTS: usize = 8;

/// Byte length of an encoded file entry (CRC included).
pub const ENTRY_BYTES: usize = 220;
const ENTRY_CRC_OFF: usize = 216;
const JREC_CRC_OFF: usize = 252;
const SB_CRC_OFF: usize = 56;

/// CRC-32 (IEEE 802.3, reflected, as used by zlib), bitwise — metadata
/// sectors are small enough that a lookup table buys nothing.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFF_u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn put_u32(buf: &mut [u8], at: usize, v: u32) {
    buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut [u8], at: usize, v: u64) {
    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

fn get_u32(buf: &[u8], at: usize) -> u32 {
    let mut raw = [0u8; 4];
    raw.copy_from_slice(&buf[at..at + 4]);
    u32::from_le_bytes(raw)
}

fn get_u64(buf: &[u8], at: usize) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&buf[at..at + 8]);
    u64::from_le_bytes(raw)
}

/// One physically contiguous run of data sectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First sector.
    pub start: u64,
    /// Length in sectors (non-zero).
    pub len: u64,
}

impl Extent {
    /// Exclusive end sector.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// The mounted filesystem's geometry, persisted in sector 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Device size in sectors.
    pub total_sectors: u64,
    /// First file-table sector (always 1).
    pub table_start: u64,
    /// File-table length in sectors == maximum file count.
    pub table_sectors: u64,
    /// First journal-ring sector.
    pub journal_start: u64,
    /// Journal-ring length in sectors.
    pub journal_sectors: u64,
    /// First data sector; data runs to the end of the device.
    pub data_start: u64,
}

impl Superblock {
    /// Encodes into a zero-padded sector image.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![0u8; SECTOR_USIZE];
        put_u32(&mut buf, 0, UFS_MAGIC);
        put_u32(&mut buf, 4, VERSION);
        put_u64(&mut buf, 8, self.total_sectors);
        put_u64(&mut buf, 16, self.table_start);
        put_u64(&mut buf, 24, self.table_sectors);
        put_u64(&mut buf, 32, self.journal_start);
        put_u64(&mut buf, 40, self.journal_sectors);
        put_u64(&mut buf, 48, self.data_start);
        let crc = crc32(&buf[..SB_CRC_OFF]);
        put_u32(&mut buf, SB_CRC_OFF, crc);
        buf
    }

    /// Decodes and validates sector 0. Anything inconsistent is
    /// [`SimError::Corruption`] — mounting guesses nothing.
    pub fn decode(buf: &[u8]) -> Result<Superblock, SimError> {
        let fail = |reason: String| SimError::corruption("superblock", 0, reason);
        if buf.len() != SECTOR_USIZE {
            return Err(fail(format!("sector image is {} bytes", buf.len())));
        }
        if get_u32(buf, 0) != UFS_MAGIC {
            return Err(fail("bad magic".into()));
        }
        if get_u32(buf, 4) != VERSION {
            return Err(fail(format!("unsupported version {}", get_u32(buf, 4))));
        }
        if get_u32(buf, SB_CRC_OFF) != crc32(&buf[..SB_CRC_OFF]) {
            return Err(fail("crc mismatch".into()));
        }
        let sb = Superblock {
            total_sectors: get_u64(buf, 8),
            table_start: get_u64(buf, 16),
            table_sectors: get_u64(buf, 24),
            journal_start: get_u64(buf, 32),
            journal_sectors: get_u64(buf, 40),
            data_start: get_u64(buf, 48),
        };
        let regions_ordered = sb.table_start == 1
            && sb.journal_start == sb.table_start + sb.table_sectors
            && sb.data_start == sb.journal_start + sb.journal_sectors
            && sb.data_start < sb.total_sectors;
        if !regions_ordered || sb.table_sectors == 0 || sb.journal_sectors < 8 {
            return Err(fail("impossible geometry".into()));
        }
        Ok(sb)
    }
}

/// One file's durable metadata: name, byte size and extent list. Encoded
/// one entry per file-table sector; the table slot is the file's identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntry {
    /// File name (1..=[`MAX_NAME`] bytes).
    pub name: String,
    /// Logical size in bytes.
    pub size: u64,
    /// Physically contiguous runs backing the file, in file order.
    pub extents: Vec<Extent>,
}

impl FileEntry {
    /// Encodes into a zero-padded sector image.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![0u8; SECTOR_USIZE];
        self.encode_into(&mut buf);
        buf
    }

    /// [`FileEntry::encode`] into a caller-provided sector buffer
    /// (`SECTOR_USIZE` bytes, overwritten entirely) — the fsync path
    /// encodes per event and reuses a stack buffer instead of
    /// allocating.
    pub fn encode_into(&self, buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), SECTOR_USIZE);
        buf.fill(0);
        put_u32(buf, 0, ENTRY_MAGIC);
        let name = self.name.as_bytes();
        put_u32(buf, 4, u32_from(u64_from_usize(name.len())));
        buf[8..8 + name.len().min(MAX_NAME)].copy_from_slice(&name[..name.len().min(MAX_NAME)]);
        put_u64(buf, 72, self.size);
        put_u32(buf, 80, u32_from(u64_from_usize(self.extents.len())));
        for (i, e) in self.extents.iter().take(MAX_EXTENTS).enumerate() {
            put_u64(buf, 88 + i * 16, e.start);
            put_u64(buf, 96 + i * 16, e.len);
        }
        let crc = crc32(&buf[..ENTRY_CRC_OFF]);
        put_u32(buf, ENTRY_CRC_OFF, crc);
    }

    /// Decodes a file-table sector. `Ok(None)` is a vacant (all-zero)
    /// slot; anything else that fails validation is corruption at
    /// `sector` (the caller supplies the LBA for the error).
    pub fn decode(buf: &[u8], sector: u64) -> Result<Option<FileEntry>, SimError> {
        let fail = |reason: String| SimError::corruption("file entry", sector, reason);
        if buf.len() != SECTOR_USIZE {
            return Err(fail(format!("sector image is {} bytes", buf.len())));
        }
        if buf.iter().all(|&b| b == 0) {
            return Ok(None);
        }
        if get_u32(buf, 0) != ENTRY_MAGIC {
            return Err(fail("bad magic".into()));
        }
        if get_u32(buf, ENTRY_CRC_OFF) != crc32(&buf[..ENTRY_CRC_OFF]) {
            return Err(fail("crc mismatch".into()));
        }
        let name_len = usize_from_u32(get_u32(buf, 4));
        if name_len == 0 || name_len > MAX_NAME {
            return Err(fail(format!("name length {name_len}")));
        }
        let name = String::from_utf8(buf[8..8 + name_len].to_vec())
            .map_err(|_| fail("name is not utf-8".into()))?;
        let n_extents = usize_from_u32(get_u32(buf, 80));
        if n_extents > MAX_EXTENTS {
            return Err(fail(format!("{n_extents} extents")));
        }
        let mut extents = Vec::with_capacity(n_extents);
        for i in 0..n_extents {
            let e = Extent {
                start: get_u64(buf, 88 + i * 16),
                len: get_u64(buf, 96 + i * 16),
            };
            if e.len == 0 {
                return Err(fail(format!("extent {i} has zero length")));
            }
            extents.push(e);
        }
        Ok(Some(FileEntry {
            name,
            size: get_u64(buf, 72),
            extents,
        }))
    }
}

/// What a journal record says.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordKind {
    /// Transaction `tid` opens.
    Begin,
    /// Transaction `tid` will set file-table slot `slot` to `entry`.
    /// The record carries the full entry image, which is what makes
    /// redo replay idempotent.
    Update {
        /// Target file-table slot.
        slot: u32,
        /// Complete new entry for the slot.
        entry: FileEntry,
    },
    /// Transaction `tid` is durable; it wrote `n_updates` update records.
    Commit {
        /// Update records the transaction wrote before this mark.
        n_updates: u32,
    },
    /// Every transaction with id <= `tid` has been applied in place;
    /// recovery may ignore them.
    Checkpoint,
}

impl RecordKind {
    fn tag(&self) -> u32 {
        match self {
            RecordKind::Begin => 1,
            RecordKind::Update { .. } => 2,
            RecordKind::Commit { .. } => 3,
            RecordKind::Checkpoint => 4,
        }
    }
}

/// One journal-ring record; lives at ring slot `seq % journal_sectors`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Global write sequence number (1-based, never reused).
    pub seq: u64,
    /// Transaction id (for [`RecordKind::Checkpoint`]: highest applied tid).
    pub tid: u64,
    /// Payload.
    pub kind: RecordKind,
}

impl JournalRecord {
    /// Encodes into a zero-padded sector image.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![0u8; SECTOR_USIZE];
        self.encode_into(&mut buf);
        buf
    }

    /// [`JournalRecord::encode`] into a caller-provided sector buffer
    /// (`SECTOR_USIZE` bytes, overwritten entirely) — journal appends
    /// run per event and reuse a stack buffer instead of allocating.
    pub fn encode_into(&self, buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), SECTOR_USIZE);
        buf.fill(0);
        put_u32(buf, 0, JREC_MAGIC);
        put_u32(buf, 4, self.kind.tag());
        put_u64(buf, 8, self.seq);
        put_u64(buf, 16, self.tid);
        match &self.kind {
            RecordKind::Update { slot, entry } => {
                put_u32(buf, 24, *slot);
                // The embedded entry image is built on the stack; only
                // its leading `ENTRY_BYTES` (CRC included) are carried.
                let mut image = [0u8; SECTOR_USIZE];
                entry.encode_into(&mut image);
                buf[32..32 + ENTRY_BYTES].copy_from_slice(&image[..ENTRY_BYTES]);
            }
            RecordKind::Commit { n_updates } => put_u32(buf, 24, *n_updates),
            RecordKind::Begin | RecordKind::Checkpoint => {}
        }
        let crc = crc32(&buf[..JREC_CRC_OFF]);
        put_u32(buf, JREC_CRC_OFF, crc);
    }

    /// Decodes a journal-ring sector. `None` means "no usable record
    /// here" — a blank slot, or a record torn mid-write. The journal is
    /// the one place a bad CRC is *not* corruption: the tail record of an
    /// interrupted transaction is expected debris, and recovery treats
    /// the transaction as uncommitted.
    pub fn decode(buf: &[u8]) -> Option<JournalRecord> {
        if buf.len() != SECTOR_USIZE || get_u32(buf, 0) != JREC_MAGIC {
            return None;
        }
        if get_u32(buf, JREC_CRC_OFF) != crc32(&buf[..JREC_CRC_OFF]) {
            return None;
        }
        let seq = get_u64(buf, 8);
        let tid = get_u64(buf, 16);
        let kind = match get_u32(buf, 4) {
            1 => RecordKind::Begin,
            2 => {
                let entry = FileEntry::decode(&sector_of(&buf[32..32 + ENTRY_BYTES]), 0)
                    .ok()
                    .flatten()?;
                RecordKind::Update {
                    slot: get_u32(buf, 24),
                    entry,
                }
            }
            3 => RecordKind::Commit {
                n_updates: get_u32(buf, 24),
            },
            4 => RecordKind::Checkpoint,
            _ => return None,
        };
        Some(JournalRecord { seq, tid, kind })
    }
}

/// Re-pads an embedded entry image to a full sector for [`FileEntry::decode`].
fn sector_of(image: &[u8]) -> Vec<u8> {
    let mut buf = vec![0u8; SECTOR_USIZE];
    buf[..image.len().min(SECTOR_USIZE)].copy_from_slice(&image[..image.len().min(SECTOR_USIZE)]);
    buf
}

/// Ring slot of sequence number `seq` in a `journal_sectors`-long ring.
pub fn ring_slot(seq: u64, journal_sectors: u64) -> u64 {
    seq % journal_sectors
}

/// Byte offset of `lba` on the device (for request-log accounting).
pub fn sector_offset(lba: u64) -> u64 {
    lba * u64_from_usize(SECTOR_USIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> FileEntry {
        FileEntry {
            name: "panel-007".into(),
            size: 12_345,
            extents: vec![Extent { start: 70, len: 3 }, Extent { start: 90, len: 1 }],
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // zlib's crc32("123456789") reference value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn superblock_round_trips_and_rejects_damage() {
        let sb = Superblock {
            total_sectors: 4096,
            table_start: 1,
            table_sectors: 64,
            journal_start: 65,
            journal_sectors: 64,
            data_start: 129,
        };
        let buf = sb.encode();
        assert_eq!(Superblock::decode(&buf), Ok(sb));
        let mut bad = buf.clone();
        bad[9] ^= 0xFF; // total_sectors byte
        assert!(matches!(
            Superblock::decode(&bad),
            Err(SimError::Corruption { .. })
        ));
        let mut wrong_magic = buf;
        wrong_magic[0] ^= 1;
        assert!(Superblock::decode(&wrong_magic).is_err());
    }

    #[test]
    fn file_entry_round_trips_and_vacant_is_none() {
        let e = entry();
        let buf = e.encode();
        assert_eq!(FileEntry::decode(&buf, 7), Ok(Some(e)));
        let zero = vec![0u8; SECTOR_USIZE];
        assert_eq!(FileEntry::decode(&zero, 7), Ok(None));
        let mut torn = buf;
        torn[100] ^= 0x55;
        let err = FileEntry::decode(&torn, 7);
        assert!(matches!(err, Err(SimError::Corruption { sector: 7, .. })));
    }

    #[test]
    fn journal_records_round_trip_every_kind() {
        let records = [
            JournalRecord {
                seq: 1,
                tid: 9,
                kind: RecordKind::Begin,
            },
            JournalRecord {
                seq: 2,
                tid: 9,
                kind: RecordKind::Update {
                    slot: 5,
                    entry: entry(),
                },
            },
            JournalRecord {
                seq: 3,
                tid: 9,
                kind: RecordKind::Commit { n_updates: 1 },
            },
            JournalRecord {
                seq: 4,
                tid: 9,
                kind: RecordKind::Checkpoint,
            },
        ];
        for r in records {
            let buf = r.encode();
            assert_eq!(JournalRecord::decode(&buf), Some(r));
        }
    }

    #[test]
    fn torn_journal_record_decodes_to_none() {
        let r = JournalRecord {
            seq: 8,
            tid: 3,
            kind: RecordKind::Commit { n_updates: 1 },
        };
        let new = r.encode();
        // Old slot contents: a valid record from a previous ring lap.
        let old = JournalRecord {
            seq: 8 - 4,
            tid: 1,
            kind: RecordKind::Begin,
        }
        .encode();
        // A torn write persists a prefix of the new record over the old.
        for keep in [0usize, 1, 100, JREC_CRC_OFF, JREC_CRC_OFF + 2] {
            let mut sector = old.clone();
            sector[..keep].copy_from_slice(&new[..keep]);
            let got = JournalRecord::decode(&sector);
            assert_ne!(got, Some(r.clone()), "keep={keep} yielded the new record");
        }
        // The full record survives a "tear" that kept everything.
        assert_eq!(JournalRecord::decode(&new), Some(r));
    }
}
