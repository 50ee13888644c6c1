//! On-disk layout: superblock, file-table entries, indirect extent
//! sectors and journal records.
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
//! A file entry holds [`DIRECT_EXTENTS`] extents itself; a longer
//! extent list spills into one indirect extent sector per file, which is
//! copy-on-write data like the file's content: written to a fresh sector
//! before the journal names it, never updated in place.
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
/// Indirect-extent-sector magic, `UFX1`.
pub const INDIRECT_MAGIC: u32 = 0x5546_5831;
/// On-disk format version. Version 2 has 7 direct extent slots per
/// entry and an indirect extent sector; version 1 had 8 direct slots.
pub const VERSION: u32 = 2;
/// Longest file name, bytes.
pub const MAX_NAME: usize = 64;
/// Extent slots in the file entry itself.
pub const DIRECT_EXTENTS: usize = 7;
/// Extent slots in one indirect extent sector.
pub const INDIRECT_EXTENTS: usize = 255;
/// Most extents one file can hold: the direct slots plus one indirect
/// sector.
pub const MAX_EXTENTS: usize = DIRECT_EXTENTS + INDIRECT_EXTENTS;

/// Byte length of an encoded file entry (CRC included).
pub const ENTRY_BYTES: usize = 220;
const ENTRY_CRC_OFF: usize = 216;
const ENTRY_INDIRECT_OFF: usize = 200;
const INDIRECT_CRC_OFF: usize = SECTOR_USIZE - 4;
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
    /// Physically contiguous runs backing the file, in file order. The
    /// first [`DIRECT_EXTENTS`] live in the entry, the rest in its
    /// indirect sector: [`FileEntry::decode`] returns the direct ones and
    /// [`FileEntry::load_indirect`] appends the rest.
    pub extents: Vec<Extent>,
    /// The indirect extent sector; present iff the file has more than
    /// [`DIRECT_EXTENTS`] extents.
    pub indirect: Option<Indirect>,
}

/// Where a file's extents past the direct slots live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Indirect {
    /// The indirect extent sector.
    pub lba: u64,
    /// Extents it holds (1..=[`INDIRECT_EXTENTS`]).
    pub extents: u32,
}

impl FileEntry {
    /// Extents held in the indirect sector (0 without one).
    fn spilled(&self) -> usize {
        self.indirect.map_or(0, |i| usize_from_u32(i.extents))
    }

    /// Encodes into a zero-padded sector image.
    pub fn encode(&self) -> Result<Vec<u8>, SimError> {
        let mut buf = vec![0u8; SECTOR_USIZE];
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// [`FileEntry::encode`] into a caller-provided sector buffer
    /// (`SECTOR_USIZE` bytes, overwritten entirely) — the fsync path
    /// encodes per event and reuses a stack buffer instead of
    /// allocating. An entry the slots cannot hold (a bad name length,
    /// more extents than the direct slots plus its indirect sector, an
    /// indirect sector with no extents or under a partly used direct
    /// list) is an error, never a truncated image.
    pub fn encode_into(&self, buf: &mut [u8]) -> Result<(), SimError> {
        let fail = |reason: String| SimError::invalid_config("ufs.entry", reason);
        if buf.len() != SECTOR_USIZE {
            return Err(fail(format!("sector buffer is {} bytes", buf.len())));
        }
        let name = self.name.as_bytes();
        if name.is_empty() || name.len() > MAX_NAME {
            return Err(fail(format!("name length {}", name.len())));
        }
        let (n, spilled) = (self.extents.len(), self.spilled());
        let spill_ok = match self.indirect {
            None => n <= DIRECT_EXTENTS,
            // Loaded (all extents) or as decoded (the direct ones only).
            Some(_) => {
                (1..=INDIRECT_EXTENTS).contains(&spilled)
                    && (n == DIRECT_EXTENTS || n == DIRECT_EXTENTS + spilled)
            }
        };
        if !spill_ok {
            return Err(fail(format!(
                "{n} extents do not fit {DIRECT_EXTENTS} direct slots and an indirect sector of {spilled}"
            )));
        }
        buf.fill(0);
        put_u32(buf, 0, ENTRY_MAGIC);
        put_u32(buf, 4, u32_from(u64_from_usize(name.len())));
        buf[8..8 + name.len()].copy_from_slice(name);
        put_u64(buf, 72, self.size);
        let direct = n.min(DIRECT_EXTENTS);
        put_u32(buf, 80, u32_from(u64_from_usize(direct)));
        put_u32(buf, 84, u32_from(u64_from_usize(spilled)));
        for (i, e) in self.extents[..direct].iter().enumerate() {
            put_u64(buf, 88 + i * 16, e.start);
            put_u64(buf, 96 + i * 16, e.len);
        }
        put_u64(buf, ENTRY_INDIRECT_OFF, self.indirect.map_or(0, |i| i.lba));
        let crc = crc32(&buf[..ENTRY_CRC_OFF]);
        put_u32(buf, ENTRY_CRC_OFF, crc);
        Ok(())
    }

    /// Encodes the indirect extent sector of a fully loaded entry
    /// (`SECTOR_USIZE` bytes, overwritten entirely): its magic, extent
    /// count, the extents past the direct slots and a trailing CRC.
    pub fn encode_indirect_into(&self, buf: &mut [u8]) -> Result<(), SimError> {
        let spilled = self.spilled();
        let loaded = self.extents.len() == DIRECT_EXTENTS + spilled;
        if !(1..=INDIRECT_EXTENTS).contains(&spilled) || !loaded || buf.len() != SECTOR_USIZE {
            return Err(SimError::invalid_config(
                "ufs.entry",
                format!(
                    "{} extents with an indirect sector of {spilled}",
                    self.extents.len()
                ),
            ));
        }
        buf.fill(0);
        put_u32(buf, 0, INDIRECT_MAGIC);
        put_u32(buf, 4, u32_from(u64_from_usize(spilled)));
        for (i, e) in self.extents[DIRECT_EXTENTS..].iter().enumerate() {
            put_u64(buf, 8 + i * 16, e.start);
            put_u64(buf, 16 + i * 16, e.len);
        }
        let crc = crc32(&buf[..INDIRECT_CRC_OFF]);
        put_u32(buf, INDIRECT_CRC_OFF, crc);
        Ok(())
    }

    /// Decodes a file-table sector. `Ok(None)` is a vacant (all-zero)
    /// slot; anything else that fails validation is corruption at
    /// `sector` (the caller supplies the LBA for the error). The extents
    /// past the direct slots stay in the indirect sector until
    /// [`FileEntry::load_indirect`].
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
        let direct = usize_from_u32(get_u32(buf, 80));
        let spilled = get_u32(buf, 84);
        let lba = get_u64(buf, ENTRY_INDIRECT_OFF);
        let indirect = if spilled == 0 && lba == 0 && direct <= DIRECT_EXTENTS {
            None
        } else if spilled > 0
            && usize_from_u32(spilled) <= INDIRECT_EXTENTS
            && lba != 0
            && direct == DIRECT_EXTENTS
        {
            Some(Indirect {
                lba,
                extents: spilled,
            })
        } else {
            return Err(fail(format!(
                "{direct} direct extents, {spilled} indirect at sector {lba}"
            )));
        };
        let mut extents = Vec::with_capacity(direct);
        for i in 0..direct {
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
            indirect,
        }))
    }

    /// Appends the extents of the entry's indirect sector image `buf` to
    /// the direct ones [`FileEntry::decode`] returned. A no-op for an
    /// entry without one; a sector that fails validation is corruption
    /// at the indirect sector.
    pub fn load_indirect(&mut self, buf: &[u8]) -> Result<(), SimError> {
        let Some(ind) = self.indirect else {
            return Ok(());
        };
        let fail = |reason: String| SimError::corruption("indirect extents", ind.lba, reason);
        if buf.len() != SECTOR_USIZE {
            return Err(fail(format!("sector image is {} bytes", buf.len())));
        }
        if get_u32(buf, 0) != INDIRECT_MAGIC {
            return Err(fail("bad magic".into()));
        }
        if get_u32(buf, INDIRECT_CRC_OFF) != crc32(&buf[..INDIRECT_CRC_OFF]) {
            return Err(fail("crc mismatch".into()));
        }
        if get_u32(buf, 4) != ind.extents {
            return Err(fail(format!(
                "holds {} extents, entry says {}",
                get_u32(buf, 4),
                ind.extents
            )));
        }
        for i in 0..usize_from_u32(ind.extents) {
            let e = Extent {
                start: get_u64(buf, 8 + i * 16),
                len: get_u64(buf, 16 + i * 16),
            };
            if e.len == 0 {
                return Err(fail(format!("extent {i} has zero length")));
            }
            self.extents.push(e);
        }
        Ok(())
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
    const UPDATE_TAG: u32 = 2;

    fn tag(&self) -> u32 {
        match self {
            RecordKind::Begin => 1,
            RecordKind::Update { .. } => RecordKind::UPDATE_TAG,
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
    pub fn encode(&self) -> Result<Vec<u8>, SimError> {
        let mut buf = vec![0u8; SECTOR_USIZE];
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// [`JournalRecord::encode`] into a caller-provided sector buffer
    /// (`SECTOR_USIZE` bytes, overwritten entirely) — journal appends
    /// run per event and reuse a stack buffer instead of allocating.
    /// Fails only for an `Update` whose entry does not encode.
    pub fn encode_into(&self, buf: &mut [u8]) -> Result<(), SimError> {
        if let RecordKind::Update { slot, entry } = &self.kind {
            return JournalRecord::encode_update_into(self.seq, self.tid, *slot, entry, buf);
        }
        put_header(buf, self.kind.tag(), self.seq, self.tid);
        if let RecordKind::Commit { n_updates } = self.kind {
            put_u32(buf, 24, n_updates);
        }
        seal_record(buf);
        Ok(())
    }

    /// Encodes the `Update` record `(seq, tid)` setting `slot` to a
    /// borrowed `entry` — the commit path journals the entry it has just
    /// installed without cloning it into a [`RecordKind`].
    pub fn encode_update_into(
        seq: u64,
        tid: u64,
        slot: u32,
        entry: &FileEntry,
        buf: &mut [u8],
    ) -> Result<(), SimError> {
        // The embedded entry image is built on the stack; only its
        // leading `ENTRY_BYTES` (CRC included) are carried.
        let mut image = [0u8; SECTOR_USIZE];
        entry.encode_into(&mut image)?;
        put_header(buf, RecordKind::UPDATE_TAG, seq, tid);
        put_u32(buf, 24, slot);
        buf[32..32 + ENTRY_BYTES].copy_from_slice(&image[..ENTRY_BYTES]);
        seal_record(buf);
        Ok(())
    }

    /// Decodes the journal-ring sector at `sector`. `Ok(None)` means "no
    /// usable record here" — a blank slot, or a record torn mid-write.
    /// The journal is the one place a bad CRC is *not* corruption: the
    /// tail record of an interrupted transaction is expected debris, and
    /// recovery treats the transaction as uncommitted. A record whose CRC
    /// verifies but whose payload does not decode (an unknown kind, an
    /// `Update` without a valid entry) was written that way, and is
    /// [`SimError::Corruption`]: dropping it could drop a committed
    /// update.
    pub fn decode(buf: &[u8], sector: u64) -> Result<Option<JournalRecord>, SimError> {
        if buf.len() != SECTOR_USIZE || get_u32(buf, 0) != JREC_MAGIC {
            return Ok(None);
        }
        if get_u32(buf, JREC_CRC_OFF) != crc32(&buf[..JREC_CRC_OFF]) {
            return Ok(None);
        }
        let seq = get_u64(buf, 8);
        let tid = get_u64(buf, 16);
        let kind = match get_u32(buf, 4) {
            1 => RecordKind::Begin,
            RecordKind::UPDATE_TAG => {
                let entry = FileEntry::decode(&sector_of(&buf[32..32 + ENTRY_BYTES]), sector)?
                    .ok_or_else(|| {
                        SimError::corruption("journal record", sector, "update carries no entry")
                    })?;
                RecordKind::Update {
                    slot: get_u32(buf, 24),
                    entry,
                }
            }
            3 => RecordKind::Commit {
                n_updates: get_u32(buf, 24),
            },
            4 => RecordKind::Checkpoint,
            tag => {
                return Err(SimError::corruption(
                    "journal record",
                    sector,
                    format!("unknown record kind {tag}"),
                ))
            }
        };
        Ok(Some(JournalRecord { seq, tid, kind }))
    }
}

/// Writes a journal record's magic, kind tag, sequence number and
/// transaction id over a zeroed sector buffer.
fn put_header(buf: &mut [u8], tag: u32, seq: u64, tid: u64) {
    debug_assert_eq!(buf.len(), SECTOR_USIZE);
    buf.fill(0);
    put_u32(buf, 0, JREC_MAGIC);
    put_u32(buf, 4, tag);
    put_u64(buf, 8, seq);
    put_u64(buf, 16, tid);
}

/// Stamps a journal record's CRC.
fn seal_record(buf: &mut [u8]) {
    let crc = crc32(&buf[..JREC_CRC_OFF]);
    put_u32(buf, JREC_CRC_OFF, crc);
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
    use nvmtypes::convert::usize_from;

    fn entry() -> FileEntry {
        FileEntry {
            name: "panel-007".into(),
            size: 12_345,
            extents: vec![Extent { start: 70, len: 3 }, Extent { start: 90, len: 1 }],
            indirect: None,
        }
    }

    /// A file of `n` one-sector extents, with an indirect sector at 500
    /// when they spill past the direct slots.
    fn fragmented(n: u64) -> FileEntry {
        let spilled = usize_from(n).saturating_sub(DIRECT_EXTENTS);
        FileEntry {
            name: "frag".into(),
            size: n * 4096,
            extents: (0..n)
                .map(|i| Extent {
                    start: 100 + 2 * i,
                    len: 1,
                })
                .collect(),
            indirect: (spilled > 0).then(|| Indirect {
                lba: 500,
                extents: u32_from(u64_from_usize(spilled)),
            }),
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
        let buf = e.encode().expect("encodes");
        assert_eq!(FileEntry::decode(&buf, 7), Ok(Some(e)));
        let zero = vec![0u8; SECTOR_USIZE];
        assert_eq!(FileEntry::decode(&zero, 7), Ok(None));
        let mut torn = buf;
        torn[100] ^= 0x55;
        let err = FileEntry::decode(&torn, 7);
        assert!(matches!(err, Err(SimError::Corruption { sector: 7, .. })));
    }

    #[test]
    fn extents_past_the_direct_slots_round_trip_through_the_indirect_sector() {
        for n in [DIRECT_EXTENTS as u64, 8, 20, MAX_EXTENTS as u64] {
            let e = fragmented(n);
            let mut indirect = vec![0u8; SECTOR_USIZE];
            if e.indirect.is_some() {
                e.encode_indirect_into(&mut indirect).expect("encodes");
            }
            let mut back = FileEntry::decode(&e.encode().expect("encodes"), 3)
                .expect("decodes")
                .expect("present");
            assert_eq!(back.extents.len(), usize_from(n).min(DIRECT_EXTENTS));
            // The decoded entry re-encodes to the same image: what redo
            // recovery writes back from a journal record.
            assert_eq!(back.encode(), e.encode());
            back.load_indirect(&indirect).expect("loads");
            assert_eq!(back, e, "{n} extents");
        }
        // A damaged indirect sector is corruption at its own LBA.
        let e = fragmented(9);
        let mut indirect = vec![0u8; SECTOR_USIZE];
        e.encode_indirect_into(&mut indirect).expect("encodes");
        indirect[20] ^= 1;
        let mut back = FileEntry::decode(&e.encode().expect("encodes"), 3)
            .expect("decodes")
            .expect("present");
        let err = back.load_indirect(&indirect);
        assert!(
            matches!(err, Err(SimError::Corruption { sector: 500, .. })),
            "{err:?}"
        );
    }

    #[test]
    fn an_extent_list_the_slots_cannot_hold_is_a_typed_error() {
        // Eight extents and no indirect sector: an error, not an entry
        // whose count promises extents its slots dropped.
        let mut e = fragmented(8);
        e.indirect = None;
        let mut buf = vec![0u8; SECTOR_USIZE];
        assert!(matches!(
            e.encode_into(&mut buf),
            Err(SimError::InvalidConfig { .. })
        ));
        // One extent more than the indirect sector says it holds.
        let mut e = fragmented(9);
        e.extents.push(Extent { start: 900, len: 1 });
        assert!(e.encode().is_err());
        // More than any entry can hold.
        let e = fragmented(MAX_EXTENTS as u64 + 1);
        assert!(e.encode().is_err());
        assert!(e.encode_indirect_into(&mut buf).is_err());
        // A name too long for its slot is an error too, not a truncation.
        let mut e = entry();
        e.name = "n".repeat(MAX_NAME + 1);
        assert!(e.encode().is_err());
        let record = JournalRecord {
            seq: 1,
            tid: 1,
            kind: RecordKind::Update { slot: 0, entry: e },
        };
        assert!(record.encode().is_err());
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
            let buf = r.encode().expect("encodes");
            assert_eq!(JournalRecord::decode(&buf, 70), Ok(Some(r)));
        }
    }

    #[test]
    fn a_crc_valid_update_without_a_valid_entry_is_corruption() {
        let r = JournalRecord {
            seq: 2,
            tid: 9,
            kind: RecordKind::Update {
                slot: 5,
                entry: entry(),
            },
        };
        let good = r.encode().expect("encodes");
        // Damage the embedded entry (its name length), then re-seal the
        // record: the record CRC verifies, the entry inside does not.
        let mut bad = good.clone();
        bad[32 + 4] = 0xFF;
        seal_record(&mut bad);
        let err = JournalRecord::decode(&bad, 70);
        assert!(
            matches!(err, Err(SimError::Corruption { sector: 70, .. })),
            "{err:?}"
        );
        // An all-zero entry image inside a valid record is no entry.
        let mut vacant = good.clone();
        vacant[32..32 + ENTRY_BYTES].fill(0);
        seal_record(&mut vacant);
        assert!(matches!(
            JournalRecord::decode(&vacant, 70),
            Err(SimError::Corruption { .. })
        ));
        // A bad record CRC is still "no record", not corruption.
        let mut torn = good;
        torn[32 + 4] = 0xFF;
        assert_eq!(JournalRecord::decode(&torn, 70), Ok(None));
    }

    #[test]
    fn torn_journal_record_decodes_to_none() {
        let r = JournalRecord {
            seq: 8,
            tid: 3,
            kind: RecordKind::Commit { n_updates: 1 },
        };
        let new = r.encode().expect("encodes");
        // Old slot contents: a valid record from a previous ring lap.
        let old = JournalRecord {
            seq: 8 - 4,
            tid: 1,
            kind: RecordKind::Begin,
        }
        .encode()
        .expect("encodes");
        // A torn write persists a prefix of the new record over the old.
        for keep in [0usize, 1, 100, JREC_CRC_OFF, JREC_CRC_OFF + 2] {
            let mut sector = old.clone();
            sector[..keep].copy_from_slice(&new[..keep]);
            let got = JournalRecord::decode(&sector, 70).expect("debris is not corruption");
            assert_ne!(got, Some(r.clone()), "keep={keep} yielded the new record");
        }
        // The full record survives a "tear" that kept everything.
        assert_eq!(JournalRecord::decode(&new, 70), Ok(Some(r)));
    }
}
