//! The filesystem: format, mount-with-recovery, and the
//! create/open/read/write/fsync surface the out-of-core store drives.
//!
//! ## Commit protocol (redo journaling)
//!
//! An `fsync` makes one file's staged content durable in five ordered
//! device-write phases:
//!
//! 1. **Data** — copy-on-write: fresh extents are allocated and the new
//!    content written there. The old extents stay referenced by the
//!    durable entry, so a crash here loses nothing.
//! 2. **Journal** — `Begin` and one `Update` record carrying the complete
//!    new file entry (name, size, new extents).
//! 3. **Commit mark** — one record; the transaction is durable the
//!    moment this sector persists.
//! 4. **Apply** — the entry is written in place in the file table.
//! 5. **Checkpoint** — one record telling recovery the apply happened.
//!
//! Power loss before (3) leaves the transaction invisible; after (3),
//! recovery replays the apply from the journal image. Recovery writes a
//! checkpoint only when it replayed something, so recovering twice is
//! byte-identical to recovering once.

use crate::alloc::ExtentAllocator;
use crate::journal::{plan_recovery, RecoveryReport};
use crate::layout::{
    ring_slot, sector_offset, FileEntry, JournalRecord, RecordKind, Superblock, MAX_EXTENTS,
    MAX_NAME,
};
use nvmtypes::convert::{u32_from, u64_from_usize, usize_from, usize_from_u32};
use nvmtypes::{HostRequest, SimError};
use ssd::{BlockDevice, SECTOR_USIZE};
use std::collections::BTreeMap;

/// Device writes issued after the commit mark in one `fsync`
/// transaction (the in-place apply and the checkpoint record). The
/// crash-matrix harness uses this to compute, from a clean run's write
/// count, the exact write index at which each transaction's commit mark
/// persisted.
pub const WRITES_AFTER_COMMIT: u64 = 2;

/// Device-byte accounting for the journal's write amplification: how
/// many bytes the filesystem wrote to the device, split by purpose,
/// against how many bytes the application asked it to write. The write
/// side of the `ufs` study's replay overhead decomposes exactly into
/// these counters (`docs/PROFILING.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteAmp {
    /// Application bytes staged through [`Ufs::write`].
    pub user_bytes: u64,
    /// Copy-on-write data bytes: every fsync rewrites the file's full
    /// content into fresh extents (the dominant amplification source).
    pub cow_bytes: u64,
    /// Journal-ring record bytes (Begin/Update/Commit/Checkpoint).
    pub journal_bytes: u64,
    /// In-place file-table applies plus the superblock.
    pub apply_bytes: u64,
    /// Committed transactions ([`Ufs::fsync`] calls that wrote).
    pub commits: u64,
    /// Transactions replayed by mount-time recovery.
    pub recovery_replays: u64,
}

impl WriteAmp {
    /// Every byte the device saw (data + journal + applies).
    pub fn device_bytes(&self) -> u64 {
        self.cow_bytes + self.journal_bytes + self.apply_bytes
    }

    /// Device bytes per user byte, in integer per-mille (1000 = 1.0x).
    /// 0 when no user bytes were written.
    pub fn device_per_user_permille(&self) -> u64 {
        if self.user_bytes == 0 {
            0
        } else {
            self.device_bytes().saturating_mul(1000) / self.user_bytes
        }
    }
}

/// Format-time geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UfsParams {
    /// File-table slots (one sector each).
    pub max_files: u32,
    /// Journal-ring length in sectors.
    pub journal_sectors: u32,
}

impl Default for UfsParams {
    fn default() -> UfsParams {
        UfsParams {
            max_files: 64,
            journal_sectors: 64,
        }
    }
}

impl UfsParams {
    /// Validates the geometry against a device of `total_sectors`.
    pub fn validate(&self, total_sectors: u64) -> Result<(), SimError> {
        if self.max_files == 0 {
            return Err(SimError::invalid_config(
                "ufs.max_files",
                "must be non-zero",
            ));
        }
        if self.journal_sectors < 8 {
            return Err(SimError::invalid_config(
                "ufs.journal_sectors",
                "must be at least 8",
            ));
        }
        let meta = 1 + u64::from(self.max_files) + u64::from(self.journal_sectors);
        if meta >= total_sectors {
            return Err(SimError::invalid_config(
                "ufs.params",
                format!("metadata needs {meta} sectors, device has {total_sectors}"),
            ));
        }
        Ok(())
    }
}

/// Handle to an open file: its file-table slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// A mounted UFS over any [`BlockDevice`].
#[derive(Debug)]
pub struct Ufs<D: BlockDevice> {
    dev: D,
    sb: Superblock,
    /// Current in-memory view: durable entries plus applied commits.
    table: Vec<Option<FileEntry>>,
    alloc: ExtentAllocator,
    /// Staged (not yet fsynced) full file contents, by slot.
    staged: BTreeMap<u32, Vec<u8>>,
    next_tid: u64,
    next_seq: u64,
    log: RequestLog,
    /// Always-on write-amplification accounting (plain integer adds).
    wa: WriteAmp,
}

impl<D: BlockDevice> Ufs<D> {
    /// Formats `dev` and mounts the fresh filesystem. The device must be
    /// zero-filled (a new [`ssd::SimBlockDevice`] is); format writes only
    /// the superblock, because all-zero table and journal sectors already
    /// mean "vacant".
    pub fn format(dev: D, params: UfsParams) -> Result<Ufs<D>, SimError> {
        let total = dev.sectors();
        params.validate(total)?;
        let sb = Superblock {
            total_sectors: total,
            table_start: 1,
            table_sectors: u64::from(params.max_files),
            journal_start: 1 + u64::from(params.max_files),
            journal_sectors: u64::from(params.journal_sectors),
            data_start: 1 + u64::from(params.max_files) + u64::from(params.journal_sectors),
        };
        let mut fs = Ufs::with_geometry(dev, sb);
        fs.wa.apply_bytes += u64_from_usize(SECTOR_USIZE);
        fs.write_meta(0, &sb.encode())?;
        Ok(fs)
    }

    /// Mounts an existing filesystem, running crash recovery first. The
    /// returned report says what recovery found; it is deterministic for
    /// a given device image.
    pub fn mount(dev: D) -> Result<(Ufs<D>, RecoveryReport), SimError> {
        let mut buf = vec![0u8; SECTOR_USIZE];
        dev.read_sector(0, &mut buf)?;
        let sb = Superblock::decode(&buf)?;
        if sb.total_sectors != dev.sectors() {
            return Err(SimError::corruption(
                "superblock",
                0,
                format!(
                    "superblock says {} sectors, device has {}",
                    sb.total_sectors,
                    dev.sectors()
                ),
            ));
        }
        let mut fs = Ufs::with_geometry(dev, sb);

        // 1. Scan the journal ring for valid records.
        let mut records = Vec::new();
        for i in 0..fs.sb.journal_sectors {
            fs.dev.read_sector(fs.sb.journal_start + i, &mut buf)?;
            if let Some(r) = JournalRecord::decode(&buf) {
                records.push(r);
            }
        }
        let sectors_scanned = fs.sb.journal_sectors;
        let valid_records = u64_from_usize(records.len());

        // 2. Decide and redo. Replay happens *before* the table is read,
        //    so a torn in-place apply is healed, not reported as corrupt.
        let plan = plan_recovery(records)?;
        fs.next_seq = plan.next_seq;
        fs.next_tid = plan.next_tid;
        for (slot, entry) in &plan.apply {
            if u64::from(*slot) >= fs.sb.table_sectors {
                return Err(SimError::corruption(
                    "journal record",
                    u64::from(*slot),
                    "update targets a slot outside the file table",
                ));
            }
            let lba = fs.sb.table_start + u64::from(*slot);
            fs.wa.apply_bytes += u64_from_usize(SECTOR_USIZE);
            fs.write_meta(lba, &entry.encode())?;
        }
        fs.wa.recovery_replays = u64_from_usize(plan.replayed_tids.len());
        let checkpoint_written = if plan.replayed_tids.is_empty() {
            false
        } else {
            let up_to = *plan.replayed_tids.iter().next_back().unwrap_or(&0);
            fs.append_record(RecordKind::Checkpoint, up_to)?;
            true
        };

        // 3. Read the (now consistent) file table and rebuild free space.
        for i in 0..fs.sb.table_sectors {
            let lba = fs.sb.table_start + i;
            fs.dev.read_sector(lba, &mut buf)?;
            let entry = FileEntry::decode(&buf, lba)?;
            if let Some(e) = &entry {
                for ext in &e.extents {
                    if ext.start < fs.sb.data_start || ext.end() > fs.sb.total_sectors {
                        return Err(SimError::corruption(
                            "file entry",
                            lba,
                            "extent outside the data region",
                        ));
                    }
                    fs.alloc.claim(*ext)?;
                }
            }
            fs.table[usize_from(i)] = entry;
        }

        let report = RecoveryReport {
            sectors_scanned,
            valid_records,
            last_checkpoint_tid: plan.last_checkpoint_tid,
            replayed_tids: plan.replayed_tids,
            discarded_tids: plan.discarded_tids,
            checkpoint_written,
        };
        Ok((fs, report))
    }

    /// An empty in-memory view (vacant table, all data free) of the
    /// filesystem with geometry `sb` on `dev`.
    fn with_geometry(dev: D, sb: Superblock) -> Ufs<D> {
        Ufs {
            dev,
            sb,
            table: vec![None; usize_from(sb.table_sectors)],
            alloc: ExtentAllocator::new(sb.data_start, sb.total_sectors - sb.data_start),
            staged: BTreeMap::new(),
            next_tid: 1,
            next_seq: 1,
            log: RequestLog::default(),
            wa: WriteAmp::default(),
        }
    }

    /// Starts capturing the device requests the filesystem issues.
    pub fn enable_request_log(&mut self) {
        self.log.on = true;
    }

    /// Drains the captured request log.
    pub fn take_request_log(&mut self) -> Vec<HostRequest> {
        std::mem::take(&mut self.log.reqs)
    }

    /// Consumes the filesystem, returning the device (e.g. to inspect the
    /// media after a simulated power loss).
    pub fn into_device(self) -> D {
        self.dev
    }

    /// Borrows the underlying device (e.g. to read its write counter).
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// The mounted geometry.
    pub fn superblock(&self) -> &Superblock {
        &self.sb
    }

    /// Free data sectors.
    pub fn free_sectors(&self) -> u64 {
        self.alloc.free_sectors()
    }

    /// The write-amplification counters accumulated since format/mount.
    pub fn write_amp(&self) -> WriteAmp {
        self.wa
    }

    /// Names of all files, in slot order.
    pub fn file_names(&self) -> Vec<String> {
        self.table
            .iter()
            .flatten()
            .map(|e| e.name.clone())
            .collect()
    }

    /// Creates an empty file. The creation is journaled at first
    /// [`Ufs::fsync`]; until then a crash leaves no trace of it.
    pub fn create(&mut self, name: &str) -> Result<FileId, SimError> {
        if name.is_empty() || name.len() > MAX_NAME {
            return Err(SimError::invalid_config(
                "ufs.name",
                format!("length {} not in 1..={MAX_NAME}", name.len()),
            ));
        }
        if self.lookup(name).is_some() {
            return Err(SimError::invalid_config(
                "ufs.name",
                format!("`{name}` already exists"),
            ));
        }
        let slot =
            self.table
                .iter()
                .position(|e| e.is_none())
                .ok_or(SimError::ResourceExhausted {
                    resource: "ufs file-table slots".into(),
                })?;
        // Hot-path audit (`hotpath_alloc`, allowlisted): the table entry
        // owns its name, and the two `Vec::new`s are zero-capacity (no
        // heap touch until first write) — once per file creation.
        self.table[slot] = Some(FileEntry {
            name: name.to_string(),
            size: 0,
            extents: Vec::new(),
        });
        let id = FileId(u32_from(u64_from_usize(slot)));
        self.staged.insert(id.0, Vec::new());
        Ok(id)
    }

    /// Opens an existing file by name.
    pub fn open(&self, name: &str) -> Result<FileId, SimError> {
        self.lookup(name)
            .ok_or_else(|| SimError::invalid_config("ufs.name", format!("`{name}` does not exist")))
    }

    /// Current size of the file in bytes (staged writes included).
    pub fn size(&self, id: FileId) -> Result<u64, SimError> {
        if let Some(buf) = self.staged.get(&id.0) {
            return Ok(u64_from_usize(buf.len()));
        }
        Ok(entry(&self.table, id)?.size)
    }

    /// Writes `data` at byte `offset`, extending the file as needed. The
    /// write is staged in memory until [`Ufs::fsync`].
    pub fn write(&mut self, id: FileId, offset: u64, data: &[u8]) -> Result<(), SimError> {
        let size = usize_from(entry(&self.table, id)?.size);
        let end = usize_from(offset) + data.len();
        if !self.staged.contains_key(&id.0) {
            // Hot-path audit (`hotpath_alloc`, allowlisted): whole-file COW
            // stages the file once per commit, with room for this write so
            // an append does not reallocate and copy it.
            let mut content = Vec::with_capacity(size.max(end));
            content.resize(size, 0);
            self.read_durable(id, 0, &mut content)?;
            self.staged.insert(id.0, content);
        }
        self.wa.user_bytes += u64_from_usize(data.len());
        let buf = self.staged.entry(id.0).or_default();
        if usize_from(offset) == buf.len() {
            // Pure append (the replay's steady state): one copy, no
            // zero-fill of bytes that are about to be overwritten.
            buf.extend_from_slice(data);
            return Ok(());
        }
        if buf.len() < end {
            buf.resize(end, 0);
        }
        buf[usize_from(offset)..end].copy_from_slice(data);
        Ok(())
    }

    /// Reads `out.len()` bytes at byte `offset`. Staged writes are
    /// visible (read-your-writes); reading past EOF is an error.
    pub fn read(&mut self, id: FileId, offset: u64, out: &mut [u8]) -> Result<(), SimError> {
        let Some(buf) = self.staged.get(&id.0) else {
            return self.read_durable(id, offset, out);
        };
        let end = offset + u64_from_usize(out.len());
        if end > u64_from_usize(buf.len()) {
            return Err(read_past_eof(end, u64_from_usize(buf.len())));
        }
        out.copy_from_slice(&buf[usize_from(offset)..usize_from(end)]);
        Ok(())
    }

    /// Makes the file's staged content durable via one journaled
    /// transaction (see the module docs for the write ordering). A no-op
    /// if the file has no staged changes.
    pub fn fsync(&mut self, id: FileId) -> Result<(), SimError> {
        // Take the staged content out rather than cloning it — it can be
        // the whole file, and fsync runs per event. A failed commit puts
        // it back, so the sync stays retryable and read-your-writes
        // holds.
        let Some(content) = self.staged.remove(&id.0) else {
            return Ok(());
        };
        let r = self.commit_staged(id, &content);
        if r.is_err() {
            self.staged.insert(id.0, content);
        }
        r
    }

    /// The five-phase journaled commit of `content` for slot `id`; the
    /// caller ([`Ufs::fsync`]) owns the staged-map bookkeeping.
    fn commit_staged(&mut self, id: FileId, content: &[u8]) -> Result<(), SimError> {
        // Hot-path audit (`hotpath_alloc`, allowlisted): the three entry
        // clones in this function (old entry, its name, the journal copy
        // of the new entry) are metadata-small — a <=64-byte name and
        // <=8 extents — while the content itself moves without copying.
        let old_entry = entry(&self.table, id)?.clone();
        let sectors = u64_from_usize(content.len()).div_ceil(u64_from_usize(SECTOR_USIZE));

        // Phase 1: copy-on-write data into fresh extents. A transaction
        // writes 4 ring records; the >= 8-sector minimum the superblock
        // enforces keeps it from lapping the previous checkpoint.
        let new_extents = self.alloc.allocate(sectors)?;
        if new_extents.len() > MAX_EXTENTS {
            return Err(SimError::ResourceExhausted {
                resource: "ufs data extents".into(),
            });
        }
        // Full sectors write straight from the staged content; only the
        // final partial chunk is zero-padded through one stack buffer
        // (no per-sector Vec list, no full-content bounce copy).
        let mut image = [0u8; SECTOR_USIZE];
        let mut chunks = content.chunks(SECTOR_USIZE);
        'cow: for ext in &new_extents {
            for s in 0..ext.len {
                let Some(chunk) = chunks.next() else {
                    break 'cow;
                };
                if chunk.len() == SECTOR_USIZE {
                    self.write_data(ext.start + s, chunk)?;
                } else {
                    image[..chunk.len()].copy_from_slice(chunk);
                    image[chunk.len()..].fill(0);
                    self.write_data(ext.start + s, &image)?;
                }
            }
        }

        let new_entry = FileEntry {
            name: old_entry.name.clone(),
            size: u64_from_usize(content.len()),
            extents: new_extents,
        };

        // Phase 2+3: journal the intent, then the commit mark.
        let tid = self.next_tid;
        self.next_tid += 1;
        self.append_record(RecordKind::Begin, tid)?;
        self.append_record(
            RecordKind::Update {
                slot: id.0,
                entry: new_entry.clone(),
            },
            tid,
        )?;
        self.append_record(RecordKind::Commit { n_updates: 1 }, tid)?;

        // Phase 4: apply in place.
        let lba = self.sb.table_start + u64::from(id.0);
        self.wa.apply_bytes += u64_from_usize(SECTOR_USIZE);
        new_entry.encode_into(&mut image);
        self.write_meta(lba, &image)?;

        // Phase 5: checkpoint; the journal records are now dead.
        self.append_record(RecordKind::Checkpoint, tid)?;

        // The old content is unreferenced; recycle it.
        for ext in &old_entry.extents {
            self.alloc.release(*ext);
        }
        self.table[usize_from_u32(id.0)] = Some(new_entry);
        self.wa.commits += 1;
        Ok(())
    }

    /// [`Ufs::fsync`] for every file with staged changes, in slot order.
    pub fn sync_all(&mut self) -> Result<(), SimError> {
        let dirty: Vec<u32> = self.staged.keys().copied().collect();
        for slot in dirty {
            self.fsync(FileId(slot))?;
        }
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<FileId> {
        self.table
            .iter()
            .position(|e| e.as_ref().is_some_and(|e| e.name == name))
            .map(|slot| FileId(u32_from(u64_from_usize(slot))))
    }

    /// The one device read path: bytes `[offset, offset + out.len())` of
    /// the file's durable content, mapped through its extents. Only the
    /// sectors covering the range are read and logged (contiguous ones
    /// merge into one request in the log). Whole sectors land straight
    /// in `out`; the unaligned head and tail go through one stack image.
    fn read_durable(&mut self, id: FileId, offset: u64, out: &mut [u8]) -> Result<(), SimError> {
        let file = entry(&self.table, id)?;
        let end = offset + u64_from_usize(out.len());
        if end > file.size {
            return Err(read_past_eof(end, file.size));
        }
        let sector = u64_from_usize(SECTOR_USIZE);
        let mut image = [0u8; SECTOR_USIZE];
        let mut at = 0usize;
        // File-relative index of the current extent's first sector.
        let mut first = 0u64;
        for ext in &file.extents {
            let next = (offset + u64_from_usize(at)) / sector;
            for lba in ext.start + next.saturating_sub(first)..ext.end() {
                if at == out.len() {
                    return Ok(());
                }
                let skip = usize_from((offset + u64_from_usize(at)) % sector);
                let take = (SECTOR_USIZE - skip).min(out.len() - at);
                if take == SECTOR_USIZE {
                    self.dev.read_sector(lba, &mut out[at..at + take])?;
                } else {
                    self.dev.read_sector(lba, &mut image)?;
                    out[at..at + take].copy_from_slice(&image[skip..skip + take]);
                }
                self.log.push(HostRequest::read(sector_offset(lba), sector));
                at += take;
            }
            first += ext.len;
        }
        if at < out.len() {
            let lba = self.sb.table_start + u64::from(id.0);
            return Err(SimError::corruption("file entry", lba, "extents too short"));
        }
        Ok(())
    }

    /// Appends one journal record at the ring slot of its sequence number.
    fn append_record(&mut self, kind: RecordKind, tid: u64) -> Result<(), SimError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let rec = JournalRecord { seq, tid, kind };
        let lba = self.sb.journal_start + ring_slot(seq, self.sb.journal_sectors);
        self.wa.journal_bytes += u64_from_usize(SECTOR_USIZE);
        let mut image = [0u8; SECTOR_USIZE];
        rec.encode_into(&mut image);
        self.write_meta(lba, &image)
    }

    /// A metadata write: journal records, file-table applies and the
    /// superblock all carry the sync barrier at the device.
    fn write_meta(&mut self, lba: u64, image: &[u8]) -> Result<(), SimError> {
        self.dev.write_sector(lba, image)?;
        self.log.push(
            HostRequest::write(sector_offset(lba), u64_from_usize(SECTOR_USIZE)).synchronous(),
        );
        Ok(())
    }

    /// A data write: plain asynchronous sector write.
    fn write_data(&mut self, lba: u64, image: &[u8]) -> Result<(), SimError> {
        self.wa.cow_bytes += u64_from_usize(SECTOR_USIZE);
        self.dev.write_sector(lba, image)?;
        self.log.push(HostRequest::write(
            sector_offset(lba),
            u64_from_usize(SECTOR_USIZE),
        ));
        Ok(())
    }
}

fn entry(table: &[Option<FileEntry>], id: FileId) -> Result<&FileEntry, SimError> {
    table
        .get(usize_from_u32(id.0))
        .and_then(|e| e.as_ref())
        .ok_or_else(|| SimError::invalid_config("ufs.file", format!("no file in slot {}", id.0)))
}

/// Captured device requests (sector I/O merged into extents), when on.
#[derive(Debug, Default)]
struct RequestLog {
    on: bool,
    reqs: Vec<HostRequest>,
}

impl RequestLog {
    /// Records one sector request, merging physically contiguous
    /// asynchronous requests of the same kind — sequential extents
    /// surface as the large requests the paper's UFS is built to
    /// preserve. Sync requests never merge: each metadata write is its
    /// own ordering barrier (journal records are contiguous in the ring
    /// but must reach the device as separate ordered writes).
    fn push(&mut self, req: HostRequest) {
        if !self.on {
            return;
        }
        if !req.sync {
            if let Some(last) = self.reqs.last_mut() {
                if !last.sync && last.op == req.op && last.end() == req.offset {
                    last.len += req.len;
                    return;
                }
            }
        }
        self.reqs.push(req);
    }
}

fn read_past_eof(end: u64, size: u64) -> SimError {
    SimError::invalid_config("ufs.read", format!("read to byte {end} but size is {size}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd::SimBlockDevice;

    fn fresh() -> Ufs<SimBlockDevice> {
        Ufs::format(SimBlockDevice::new(1024), UfsParams::default()).expect("formats")
    }

    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8 ^ salt).collect()
    }

    #[test]
    fn format_mount_round_trip_is_clean() {
        let fs = fresh();
        let dev = fs.into_device();
        let (fs, report) = Ufs::mount(dev).expect("mounts");
        assert!(report.is_clean());
        assert_eq!(report.last_checkpoint_tid, 0);
        assert!(fs.file_names().is_empty());
    }

    #[test]
    fn write_fsync_read_round_trip_survives_remount() {
        let mut fs = fresh();
        let id = fs.create("panel-0").expect("creates");
        let data = pattern(10_000, 7);
        fs.write(id, 0, &data).expect("writes");
        fs.fsync(id).expect("syncs");
        let (mut fs, report) = Ufs::mount(fs.into_device()).expect("mounts");
        assert!(report.is_clean(), "clean shutdown replays nothing");
        let id = fs.open("panel-0").expect("opens");
        assert_eq!(fs.size(id).expect("sized"), 10_000);
        let mut back = vec![0u8; 10_000];
        fs.read(id, 0, &mut back).expect("reads");
        assert_eq!(back, data);
    }

    #[test]
    fn unsynced_writes_are_invisible_after_remount() {
        let mut fs = fresh();
        let id = fs.create("a").expect("creates");
        fs.write(id, 0, &pattern(5000, 1)).expect("writes");
        fs.fsync(id).expect("syncs");
        // Overwrite and create more, but never sync.
        fs.write(id, 0, &pattern(5000, 2)).expect("writes");
        let b = fs.create("b").expect("creates");
        fs.write(b, 0, &[1, 2, 3]).expect("writes");
        let (mut fs, _) = Ufs::mount(fs.into_device()).expect("mounts");
        assert_eq!(fs.file_names(), vec!["a".to_string()]);
        let id = fs.open("a").expect("opens");
        let mut back = vec![0u8; 5000];
        fs.read(id, 0, &mut back).expect("reads");
        assert_eq!(back, pattern(5000, 1), "committed content, not staged");
    }

    #[test]
    fn overwrites_are_copy_on_write_and_space_is_recycled() {
        let mut fs = fresh();
        let id = fs.create("f").expect("creates");
        let free0 = fs.free_sectors();
        for round in 0..20u8 {
            fs.write(id, 0, &pattern(8192, round)).expect("writes");
            fs.fsync(id).expect("syncs");
            assert_eq!(fs.free_sectors(), free0 - 2, "old extents recycled");
        }
    }

    #[test]
    fn create_rejects_duplicates_and_bad_names() {
        let mut fs = fresh();
        fs.create("x").expect("creates");
        assert!(fs.create("x").is_err());
        assert!(fs.create("").is_err());
        assert!(fs.create(&"n".repeat(MAX_NAME + 1)).is_err());
        assert!(fs.open("missing").is_err());
    }

    #[test]
    fn read_past_eof_is_a_typed_error() {
        let mut fs = fresh();
        let id = fs.create("f").expect("creates");
        fs.write(id, 0, &[9; 100]).expect("writes");
        fs.fsync(id).expect("syncs");
        let mut out = vec![0u8; 101];
        assert!(matches!(
            fs.read(id, 0, &mut out),
            Err(SimError::InvalidConfig { .. })
        ));
        // An entry whose extents end before its size is corrupt.
        fs.table[0].as_mut().expect("entry").size = 2 * 4096;
        let mut out = vec![0u8; 2 * 4096];
        let err = fs.read(id, 0, &mut out);
        assert!(matches!(err, Err(SimError::Corruption { .. })), "{err:?}");
    }

    #[test]
    fn request_log_merges_sequential_data_writes() {
        let mut fs = fresh();
        fs.enable_request_log();
        let id = fs.create("big").expect("creates");
        fs.write(id, 0, &pattern(16 * SECTOR_USIZE, 3))
            .expect("writes");
        fs.fsync(id).expect("syncs");
        let log = fs.take_request_log();
        let data: Vec<&HostRequest> = log.iter().filter(|r| !r.sync).collect();
        // 16 sequential data sectors merged into one 64 KiB request.
        assert_eq!(data.len(), 1);
        assert_eq!(data[0].len, u64_from_usize(16 * SECTOR_USIZE));
        // Journal (begin/update/commit), apply and checkpoint are sync.
        let syncs = log.iter().filter(|r| r.sync).count();
        assert_eq!(syncs, 5);
    }

    /// Reads `len` bytes at `offset` with the request log on, returning
    /// the bytes and exactly the requests this read logged.
    fn logged_read(
        fs: &mut Ufs<SimBlockDevice>,
        id: FileId,
        offset: u64,
        len: usize,
    ) -> (Vec<u8>, Vec<HostRequest>) {
        fs.enable_request_log();
        fs.take_request_log();
        let mut out = vec![0u8; len];
        fs.read(id, offset, &mut out).expect("reads");
        (out, fs.take_request_log())
    }

    #[test]
    fn partial_reads_log_only_the_sectors_they_cover() {
        let mut fs = fresh();
        let id = fs.create("f").expect("creates");
        let data = pattern(16 * SECTOR_USIZE, 5);
        fs.write(id, 0, &data).expect("writes");
        fs.fsync(id).expect("syncs");
        let start = sector_offset(entry(&fs.table, id).expect("entry").extents[0].start);
        // One sector of a 16-sector file: one 4 KiB read at its LBA.
        let (out, log) = logged_read(&mut fs, id, 5 * 4096, 4096);
        assert_eq!(out, data[5 * 4096..6 * 4096]);
        assert_eq!(log, [HostRequest::read(start + 5 * 4096, 4096)]);
        // Bytes 3000..9000 touch sectors 0-2: one merged 12 KiB read.
        let (out, log) = logged_read(&mut fs, id, 3000, 6000);
        assert_eq!(out, data[3000..9000]);
        assert_eq!(log, [HostRequest::read(start, 3 * 4096)]);
    }

    #[test]
    fn a_read_across_an_extent_boundary_logs_one_read_per_extent() {
        // 8 data sectors. a, b take the first 4; rewriting a moves it past
        // b and frees the first 2, so a 4-sector file splits in two.
        let params = UfsParams {
            max_files: 4,
            journal_sectors: 8,
        };
        let mut fs = Ufs::format(SimBlockDevice::new(13 + 8), params).expect("formats");
        for (name, salt) in [("a", 1), ("b", 2), ("a", 3)] {
            let id = fs.open(name).or_else(|_| fs.create(name)).expect("file");
            fs.write(id, 0, &pattern(2 * SECTOR_USIZE, salt))
                .expect("w");
            fs.fsync(id).expect("syncs");
        }
        let id = fs.create("f").expect("creates");
        let data = pattern(4 * SECTOR_USIZE, 9);
        fs.write(id, 0, &data).expect("writes");
        fs.fsync(id).expect("syncs");
        let ext = entry(&fs.table, id).expect("entry").extents.clone();
        assert_eq!(ext.len(), 2, "fragmented");
        let (out, log) = logged_read(&mut fs, id, 1000, 4 * SECTOR_USIZE - 2000);
        assert_eq!(out, data[1000..4 * SECTOR_USIZE - 1000]);
        let per_extent = ext
            .iter()
            .map(|e| HostRequest::read(sector_offset(e.start), 2 * 4096));
        assert_eq!(log, per_extent.collect::<Vec<_>>());
    }

    #[test]
    fn fsync_without_changes_writes_nothing() {
        let mut fs = fresh();
        let id = fs.create("f").expect("creates");
        fs.write(id, 0, &[1; 10]).expect("writes");
        fs.fsync(id).expect("syncs");
        let before = fs.dev.writes_persisted();
        fs.fsync(id).expect("no-op");
        assert_eq!(fs.dev.writes_persisted(), before);
    }

    #[test]
    fn sync_all_commits_every_dirty_file() {
        let mut fs = fresh();
        for i in 0..5u8 {
            let id = fs.create(&format!("f{i}")).expect("creates");
            fs.write(id, 0, &pattern(3000, i)).expect("writes");
        }
        fs.sync_all().expect("syncs");
        let (fs, report) = Ufs::mount(fs.into_device()).expect("mounts");
        assert!(report.is_clean());
        assert_eq!(fs.file_names().len(), 5);
    }

    #[test]
    fn write_amp_counters_decompose_the_device_traffic() {
        let mut fs = fresh();
        let id = fs.create("f").expect("creates");
        fs.write(id, 0, &pattern(4 * SECTOR_USIZE, 1)).expect("w");
        fs.fsync(id).expect("syncs");
        let wa = fs.write_amp();
        let sector = u64_from_usize(SECTOR_USIZE);
        assert_eq!(wa.user_bytes, 4 * sector);
        assert_eq!(wa.cow_bytes, 4 * sector, "COW rewrites the content");
        // Begin + Update + Commit + Checkpoint records.
        assert_eq!(wa.journal_bytes, 4 * sector);
        // Superblock at format + one table apply.
        assert_eq!(wa.apply_bytes, 2 * sector);
        assert_eq!(wa.commits, 1);
        assert_eq!(wa.recovery_replays, 0);
        assert_eq!(wa.device_bytes(), (4 + 4 + 2) * sector);
        // Overwrite one sector: the whole 4-sector file is COWed again,
        // so amplification grows — exactly what the study quantifies.
        fs.write(id, 0, &pattern(SECTOR_USIZE, 2)).expect("w");
        fs.fsync(id).expect("syncs");
        let wa2 = fs.write_amp();
        assert_eq!(wa2.user_bytes, 5 * sector);
        assert_eq!(wa2.cow_bytes, 8 * sector);
        assert!(wa2.device_per_user_permille() > 1000, "amplified");
    }

    #[test]
    fn mount_rejects_a_foreign_image() {
        let dev = SimBlockDevice::new(64);
        assert!(matches!(Ufs::mount(dev), Err(SimError::Corruption { .. })));
    }
}
