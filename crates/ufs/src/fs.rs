//! The filesystem: format, mount-with-recovery, and the
//! create/open/read/write/fsync surface the out-of-core store drives.
//!
//! ## Staging
//!
//! Writes are staged in memory until `fsync`. A file's staged state is
//! its size plus the sectors written since its last commit, held as runs
//! of whole sector images. A write reads back from the device only a
//! durable sector it covers partially (its unaligned head or tail); a
//! read of a staged file merges the dirty runs with durable sectors.
//!
//! ## Commit protocol (redo journaling)
//!
//! An `fsync` makes one file's staged changes durable in five ordered
//! device-write phases:
//!
//! 1. **Data** — delta copy-on-write: every dirty sector is written to a
//!    freshly allocated sector and remapped in a copy of the file's
//!    extent list; an extent list longer than the entry's direct slots is
//!    written to a fresh indirect extent sector. Nothing is written in
//!    place, and the durable entry still references only old sectors, so
//!    a crash here loses nothing.
//! 2. **Journal** — `Begin` and one `Update` record carrying the complete
//!    new file entry (name, size, direct extents, indirect pointer).
//! 3. **Commit mark** — one record; the transaction is durable the
//!    moment this sector persists.
//! 4. **Apply** — the entry is written in place in the file table.
//! 5. **Checkpoint** — one record telling recovery the apply happened.
//!    Only now are the replaced sectors (and a replaced indirect sector)
//!    released for reuse.
//!
//! A commit whose remapped list would not fit the entry and its indirect
//! sector dirties every sector and writes the whole file into fresh
//! extents: whole-file copy-on-write is the all-dirty case of the same
//! path.
//!
//! Power loss before (3) leaves the transaction invisible; after (3),
//! recovery replays the apply from the journal image. Recovery writes a
//! checkpoint only when it replayed something, so recovering twice is
//! byte-identical to recovering once.

use crate::alloc::ExtentAllocator;
use crate::journal::{plan_recovery, RecoveryReport};
use crate::layout::{
    ring_slot, sector_offset, Extent, FileEntry, Indirect, JournalRecord, RecordKind, Superblock,
    DIRECT_EXTENTS, MAX_EXTENTS, MAX_NAME,
};
use nvmtypes::convert::{u32_from, u64_from_usize, usize_from, usize_from_u32};
use nvmtypes::{HostRequest, SimError};
use ssd::{BlockDevice, SECTOR_BYTES as SECTOR, SECTOR_USIZE};
use std::collections::BTreeMap;
use std::ops::Range;

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
    /// Copy-on-write data bytes: every fsync writes the file's dirty
    /// sectors, whole, into fresh sectors (all of them when the extent
    /// list no longer fits the entry).
    pub cow_bytes: u64,
    /// Journal-ring record bytes (Begin/Update/Commit/Checkpoint).
    pub journal_bytes: u64,
    /// In-place file-table applies, indirect extent sectors and the
    /// superblock.
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
    disk: Disk<D>,
    sb: Superblock,
    /// Current in-memory view: durable entries plus applied commits,
    /// with every extent loaded.
    table: Vec<Option<FileEntry>>,
    alloc: ExtentAllocator,
    /// Staged (not yet fsynced) changes, by slot.
    staged: BTreeMap<u32, Staged>,
    next_tid: u64,
    next_seq: u64,
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
        fs.disk.wa.apply_bytes += SECTOR;
        fs.disk.write_meta(0, &sb.encode())?;
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
            let lba = fs.sb.journal_start + i;
            fs.disk.dev.read_sector(lba, &mut buf)?;
            if let Some(r) = JournalRecord::decode(&buf, lba)? {
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
            fs.disk.wa.apply_bytes += SECTOR;
            fs.disk.write_meta(lba, &entry.encode()?)?;
        }
        fs.disk.wa.recovery_replays = u64_from_usize(plan.replayed_tids.len());
        let checkpoint_written = if plan.replayed_tids.is_empty() {
            false
        } else {
            let up_to = *plan.replayed_tids.iter().next_back().unwrap_or(&0);
            fs.append_record(RecordKind::Checkpoint, up_to)?;
            true
        };

        // 3. Read the (now consistent) file table, load spilled extent
        //    lists and rebuild free space.
        for i in 0..fs.sb.table_sectors {
            let lba = fs.sb.table_start + i;
            fs.disk.dev.read_sector(lba, &mut buf)?;
            let mut entry = FileEntry::decode(&buf, lba)?;
            if let Some(e) = &mut entry {
                if let Some(ind) = e.indirect {
                    fs.disk.dev.read_sector(ind.lba, &mut buf)?;
                    e.load_indirect(&buf)?;
                }
                let indirect = e.indirect.map(|ind| Extent {
                    start: ind.lba,
                    len: 1,
                });
                for ext in e.extents.iter().copied().chain(indirect) {
                    if ext.start < fs.sb.data_start || ext.end() > fs.sb.total_sectors {
                        return Err(SimError::corruption(
                            "file entry",
                            lba,
                            "extent outside the data region",
                        ));
                    }
                    fs.alloc.claim(ext)?;
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
            disk: Disk {
                dev,
                log: RequestLog::default(),
                wa: WriteAmp::default(),
            },
            sb,
            table: vec![None; usize_from(sb.table_sectors)],
            alloc: ExtentAllocator::new(sb.data_start, sb.total_sectors - sb.data_start),
            staged: BTreeMap::new(),
            next_tid: 1,
            next_seq: 1,
        }
    }

    /// Starts capturing the device requests the filesystem issues.
    pub fn enable_request_log(&mut self) {
        self.disk.log.on = true;
    }

    /// Drains the captured request log.
    pub fn take_request_log(&mut self) -> Vec<HostRequest> {
        std::mem::take(&mut self.disk.log.reqs)
    }

    /// Consumes the filesystem, returning the device (e.g. to inspect the
    /// media after a simulated power loss).
    pub fn into_device(self) -> D {
        self.disk.dev
    }

    /// Borrows the underlying device (e.g. to read its write counter).
    pub fn device(&self) -> &D {
        &self.disk.dev
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
        self.disk.wa
    }

    /// The file's entry as of its last commit (staged writes excluded),
    /// with every extent loaded.
    pub fn entry(&self, id: FileId) -> Result<&FileEntry, SimError> {
        entry(&self.table, id)
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
        // owns its name, and the extent `Vec::new` is zero-capacity (no
        // heap touch until first commit) — once per file creation.
        self.table[slot] = Some(FileEntry {
            name: name.to_string(),
            size: 0,
            extents: Vec::new(),
            indirect: None,
        });
        let id = FileId(u32_from(u64_from_usize(slot)));
        self.staged.insert(id.0, Staged::default());
        Ok(id)
    }

    /// Opens an existing file by name.
    pub fn open(&self, name: &str) -> Result<FileId, SimError> {
        self.lookup(name)
            .ok_or_else(|| SimError::invalid_config("ufs.name", format!("`{name}` does not exist")))
    }

    /// Current size of the file in bytes (staged writes included).
    pub fn size(&self, id: FileId) -> Result<u64, SimError> {
        if let Some(st) = self.staged.get(&id.0) {
            return Ok(st.size);
        }
        Ok(entry(&self.table, id)?.size)
    }

    /// Writes `data` at byte `offset`, extending the file as needed (a
    /// gap past the old end reads as zeros). The write is staged in
    /// memory until [`Ufs::fsync`]; it reads back from the device only a
    /// durable sector it covers partially.
    pub fn write(&mut self, id: FileId, offset: u64, data: &[u8]) -> Result<(), SimError> {
        let file = entry(&self.table, id)?;
        let entry_lba = self.sb.table_start + u64::from(id.0);
        let st = self.staged.entry(id.0).or_insert_with(|| Staged {
            size: file.size,
            runs: BTreeMap::new(),
        });
        self.disk.wa.user_bytes += u64_from_usize(data.len());
        let end = offset + u64_from_usize(data.len());
        let start = offset.min(st.size);
        if start == end {
            return Ok(());
        }
        let disk = &mut self.disk;
        let (first, run) = st.dirty(start / SECTOR, end.div_ceil(SECTOR), |at, image| {
            disk.read_clean(file, entry_lba, at, image, start..end)
        })?;
        let base = first * SECTOR;
        run[usize_from(start - base)..usize_from(offset - base)].fill(0);
        run[usize_from(offset - base)..usize_from(end - base)].copy_from_slice(data);
        st.size = st.size.max(end);
        Ok(())
    }

    /// Reads `out.len()` bytes at byte `offset`. Staged writes are
    /// visible (read-your-writes): dirty runs are copied from memory,
    /// the sectors between them read from the device. Reading past EOF
    /// is an error.
    pub fn read(&mut self, id: FileId, offset: u64, out: &mut [u8]) -> Result<(), SimError> {
        let file = entry(&self.table, id)?;
        let entry_lba = self.sb.table_start + u64::from(id.0);
        let Some(st) = self.staged.get(&id.0) else {
            return self.disk.read_extents(file, entry_lba, offset, out);
        };
        let end = offset + u64_from_usize(out.len());
        if end > st.size {
            return Err(read_past_eof(end, st.size));
        }
        let mut at = offset;
        while at < end {
            let sector = at / SECTOR;
            let stop = match st.run_at(sector) {
                Some((first, run)) => {
                    let stop = end.min(first * SECTOR + u64_from_usize(run.len()));
                    let from = usize_from(at - first * SECTOR);
                    out[usize_from(at - offset)..usize_from(stop - offset)]
                        .copy_from_slice(&run[from..from + usize_from(stop - at)]);
                    stop
                }
                None => {
                    let stop = st.next_run(sector).map_or(end, |k| end.min(k * SECTOR));
                    let span = &mut out[usize_from(at - offset)..usize_from(stop - offset)];
                    self.disk.read_extents(file, entry_lba, at, span)?;
                    stop
                }
            };
            at = stop;
        }
        Ok(())
    }

    /// Makes the file's staged changes durable via one journaled
    /// transaction (see the module docs for the write ordering). A no-op
    /// if the file has no staged changes.
    pub fn fsync(&mut self, id: FileId) -> Result<(), SimError> {
        // Take the staged state out rather than cloning it; a failed
        // commit puts it back, so the sync stays retryable and
        // read-your-writes holds.
        let Some(mut st) = self.staged.remove(&id.0) else {
            return Ok(());
        };
        let r = self.commit_staged(id, &mut st);
        if r.is_err() {
            self.staged.insert(id.0, st);
        }
        r
    }

    /// The five-phase journaled commit of `st` for slot `id`; the caller
    /// ([`Ufs::fsync`]) owns the staged-map bookkeeping.
    fn commit_staged(&mut self, id: FileId, st: &mut Staged) -> Result<(), SimError> {
        let (extents, indirect) = match self.place(id, st)? {
            Some(placed) => placed,
            None => {
                // The remapped list does not fit the entry: dirty every
                // sector and place the whole file afresh.
                let file = entry(&self.table, id)?;
                let entry_lba = self.sb.table_start + u64::from(id.0);
                let disk = &mut self.disk;
                st.dirty(0, st.size.div_ceil(SECTOR), |at, image| {
                    disk.read_clean(file, entry_lba, at, image, 0..0)
                })?;
                self.place(id, st)?
                    .ok_or_else(|| SimError::ResourceExhausted {
                        resource: "ufs data extents".into(),
                    })?
            }
        };

        // Install the new entry, so the journal and the apply encode it
        // where it lives; a failed transaction reinstalls the old one and
        // frees the fresh sectors.
        let file = entry_mut(&mut self.table, id)?;
        let old_extents = std::mem::replace(&mut file.extents, extents);
        let old_indirect = std::mem::replace(&mut file.indirect, indirect);
        let old_size = std::mem::replace(&mut file.size, st.size);
        if let Err(e) = self.write_transaction(id, st) {
            let file = entry_mut(&mut self.table, id)?;
            let fresh = std::mem::replace(&mut file.extents, old_extents);
            file.indirect = old_indirect;
            file.size = old_size;
            release(&mut self.alloc, &fresh, indirect, st);
            return Err(e);
        }

        // The replaced sectors are unreferenced; recycle them.
        release(&mut self.alloc, &old_extents, old_indirect, st);
        self.disk.wa.commits += 1;
        Ok(())
    }

    /// Phase-1 placement: fresh sectors for every dirty run, remapped in
    /// a copy of the file's extent list, plus a fresh indirect sector if
    /// the list spills past the direct slots. `Ok(None)` (nothing left
    /// allocated) when the list would exceed [`MAX_EXTENTS`]; an
    /// allocation failure likewise frees what was placed.
    fn place(&mut self, id: FileId, st: &Staged) -> Result<Option<Placement>, SimError> {
        // Hot-path audit (`hotpath_alloc`, allowlisted): the copy becomes
        // the committed entry's extent list — metadata-small, at most
        // `MAX_EXTENTS` elements, once per commit.
        let mut extents = entry(&self.table, id)?.extents.clone();
        let mut placed = 0;
        let mut failed = None;
        for (&first, run) in &st.runs {
            match self.alloc.allocate(sectors_in(run)) {
                Ok(pieces) => remap(&mut extents, first, &pieces),
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
            placed += 1;
        }
        let spilled = extents.len().saturating_sub(DIRECT_EXTENTS);
        let mut indirect = None;
        if failed.is_none() && spilled > 0 && extents.len() <= MAX_EXTENTS {
            match self.alloc.allocate_sector() {
                Ok(lba) => {
                    indirect = Some(Indirect {
                        lba,
                        extents: u32_from(u64_from_usize(spilled)),
                    })
                }
                Err(e) => failed = Some(e),
            }
        }
        if failed.is_none() && extents.len() <= MAX_EXTENTS {
            return Ok(Some((extents, indirect)));
        }
        for (&first, run) in st.runs.iter().take(placed) {
            for piece in physical(&extents, first, sectors_in(run)) {
                self.alloc.release(piece);
            }
        }
        failed.map_or(Ok(None), Err)
    }

    /// Phases 1–5 for the entry [`Ufs::commit_staged`] installed: the
    /// dirty runs into their fresh sectors, the indirect sector, then
    /// the journal, the apply and the checkpoint.
    fn write_transaction(&mut self, id: FileId, st: &Staged) -> Result<(), SimError> {
        let file = entry(&self.table, id)?;
        let mut image = [0u8; SECTOR_USIZE];
        // Phase 1: copy-on-write data, straight from the staged runs. A
        // transaction writes 4 ring records; the >= 8-sector minimum the
        // superblock enforces keeps it from lapping the previous
        // checkpoint.
        for (&first, run) in &st.runs {
            let lbas =
                physical(&file.extents, first, sectors_in(run)).flat_map(|e| e.start..e.end());
            for (lba, sector) in lbas.zip(run.chunks_exact(SECTOR_USIZE)) {
                self.disk.write_data(lba, sector)?;
            }
        }
        if let Some(ind) = file.indirect {
            file.encode_indirect_into(&mut image)?;
            self.disk.wa.apply_bytes += SECTOR;
            self.disk.write_meta(ind.lba, &image)?;
        }

        // Phase 2+3: journal the intent, then the commit mark.
        let tid = self.next_tid;
        self.next_tid += 1;
        self.append_record(RecordKind::Begin, tid)?;
        let seq = self.take_seq();
        JournalRecord::encode_update_into(seq, tid, id.0, entry(&self.table, id)?, &mut image)?;
        self.write_journal(seq, &image)?;
        self.append_record(RecordKind::Commit { n_updates: 1 }, tid)?;

        // Phase 4: apply in place.
        entry(&self.table, id)?.encode_into(&mut image)?;
        self.disk.wa.apply_bytes += SECTOR;
        self.disk
            .write_meta(self.sb.table_start + u64::from(id.0), &image)?;

        // Phase 5: checkpoint; the journal records are now dead.
        self.append_record(RecordKind::Checkpoint, tid)
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

    /// The next journal sequence number.
    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Appends one journal record at the ring slot of its sequence number.
    fn append_record(&mut self, kind: RecordKind, tid: u64) -> Result<(), SimError> {
        let seq = self.take_seq();
        let mut image = [0u8; SECTOR_USIZE];
        JournalRecord { seq, tid, kind }.encode_into(&mut image)?;
        self.write_journal(seq, &image)
    }

    /// Writes the record image of sequence number `seq` to its ring slot.
    fn write_journal(&mut self, seq: u64, image: &[u8]) -> Result<(), SimError> {
        let lba = self.sb.journal_start + ring_slot(seq, self.sb.journal_sectors);
        self.disk.wa.journal_bytes += SECTOR;
        self.disk.write_meta(lba, image)
    }
}

/// A commit's new extent list and indirect sector, allocated but not yet
/// written.
type Placement = (Vec<Extent>, Option<Indirect>);

/// A file's staged (not yet fsynced) state.
#[derive(Debug, Default)]
struct Staged {
    /// Logical size in bytes, staged writes included.
    size: u64,
    /// Dirty sectors as runs of whole sector images, keyed by their first
    /// file sector. Runs never overlap. Every sector past the durable end
    /// is dirty, and bytes past `size` are zero.
    runs: BTreeMap<u64, Vec<u8>>,
}

impl Staged {
    /// The run holding file sector `sector`: its first sector and bytes.
    fn run_at(&self, sector: u64) -> Option<(u64, &[u8])> {
        self.runs
            .range(..=sector)
            .next_back()
            .filter(|&(&first, run)| sector < first + sectors_in(run))
            .map(|(&first, run)| (first, run.as_slice()))
    }

    /// First sector of the first run past `sector`.
    fn next_run(&self, sector: u64) -> Option<u64> {
        self.runs
            .range(sector + 1..)
            .next()
            .map(|(&first, _)| first)
    }

    /// Makes sectors `[first, end)` dirty as one run that absorbs every
    /// run the range overlaps. `fill(sector, images)` supplies the
    /// content of sectors that were clean, into zeroed images starting at
    /// file sector `sector`. Returns the run's first sector and bytes. A
    /// failed `fill` leaves the runs as they were, merged.
    fn dirty(
        &mut self,
        first: u64,
        end: u64,
        mut fill: impl FnMut(u64, &mut [u8]) -> Result<(), SimError>,
    ) -> Result<(u64, &mut Vec<u8>), SimError> {
        let (base, mut run) = match self.run_at(first) {
            Some((base, _)) => (base, self.runs.remove(&base).unwrap_or_default()),
            // Hot-path audit (`hotpath_alloc`, allowlisted): a new run
            // owns the staged sector images — once per write that starts
            // a run, sized by the first resize below.
            None => (first, Vec::new()),
        };
        let mut at = base + sectors_in(&run);
        while at < end {
            if let Some(next) = self.runs.remove(&at) {
                at += sectors_in(&next);
                run.extend_from_slice(&next);
                continue;
            }
            let stop = self.runs.range(at..end).next().map_or(end, |(&k, _)| k);
            let len = run.len();
            run.resize(len + usize_from((stop - at) * SECTOR), 0);
            if let Err(e) = fill(at, &mut run[len..]) {
                run.truncate(len);
                if !run.is_empty() {
                    self.runs.insert(base, run);
                }
                return Err(e);
            }
            at = stop;
        }
        Ok((base, self.runs.entry(base).or_insert(run)))
    }
}

/// Sectors in a run of whole sector images.
fn sectors_in(run: &[u8]) -> u64 {
    u64_from_usize(run.len() / SECTOR_USIZE)
}

/// The physical runs behind file sectors `[first, first + count)` of an
/// extent list, in file order, clipped to the sectors the list maps.
fn physical(extents: &[Extent], first: u64, count: u64) -> impl Iterator<Item = Extent> + '_ {
    let end = first + count;
    extents
        .iter()
        .scan(0u64, |at, e| {
            let lo = *at;
            *at += e.len;
            Some((lo, e))
        })
        .take_while(move |&(lo, _)| lo < end)
        .filter_map(move |(lo, e)| {
            let (a, b) = (first.max(lo), end.min(lo + e.len));
            (a < b).then(|| Extent {
                start: e.start + (a - lo),
                len: b - a,
            })
        })
}

/// Points file sectors `[first, first + n)` of `extents` at `pieces`
/// (`n` sectors in all): splits the extents the range cuts, replaces
/// the ones it covers, appends what runs past the mapped end, and merges
/// physically adjacent neighbours.
fn remap(extents: &mut Vec<Extent>, first: u64, pieces: &[Extent]) {
    let n: u64 = pieces.iter().map(|p| p.len).sum();
    let lo = split_at(extents, first);
    let hi = split_at(extents, first + n);
    extents.splice(lo..hi, pieces.iter().copied());
    extents.dedup_by(|next, prev| {
        let adjacent = prev.end() == next.start;
        if adjacent {
            prev.len += next.len;
        }
        adjacent
    });
}

/// Puts an extent boundary at file sector `at`, splitting the extent
/// that spans it. Returns the index of the first extent at or past `at`
/// (the list length past the mapped end).
fn split_at(extents: &mut Vec<Extent>, at: u64) -> usize {
    let mut lo = 0;
    let Some(i) = extents.iter().position(|e| {
        let spans = at < lo + e.len;
        if !spans {
            lo += e.len;
        }
        spans
    }) else {
        return extents.len();
    };
    if at == lo {
        return i;
    }
    let e = extents[i];
    let head = at - lo;
    extents[i].len = head;
    extents.insert(
        i + 1,
        Extent {
            start: e.start + head,
            len: e.len - head,
        },
    );
    i + 1
}

/// Frees the sectors `extents` maps under the dirty runs of `st`, and
/// `indirect`: after a commit, the sectors it replaced; after a failed
/// transaction, the fresh ones it had placed.
fn release(
    alloc: &mut ExtentAllocator,
    extents: &[Extent],
    indirect: Option<Indirect>,
    st: &Staged,
) {
    for (&first, run) in &st.runs {
        for piece in physical(extents, first, sectors_in(run)) {
            alloc.release(piece);
        }
    }
    if let Some(ind) = indirect {
        alloc.release(Extent {
            start: ind.lba,
            len: 1,
        });
    }
}

fn entry(table: &[Option<FileEntry>], id: FileId) -> Result<&FileEntry, SimError> {
    table
        .get(usize_from_u32(id.0))
        .and_then(|e| e.as_ref())
        .ok_or_else(|| no_file(id))
}

fn entry_mut(table: &mut [Option<FileEntry>], id: FileId) -> Result<&mut FileEntry, SimError> {
    table
        .get_mut(usize_from_u32(id.0))
        .and_then(|e| e.as_mut())
        .ok_or_else(|| no_file(id))
}

fn no_file(id: FileId) -> SimError {
    SimError::invalid_config("ufs.file", format!("no file in slot {}", id.0))
}

/// The device with the request log and the write accounting: every
/// sector the filesystem reads or writes goes through here.
#[derive(Debug)]
struct Disk<D> {
    dev: D,
    log: RequestLog,
    /// Always-on write-amplification accounting (plain integer adds).
    wa: WriteAmp,
}

impl<D: BlockDevice> Disk<D> {
    /// The one device read path: bytes `[offset, offset + out.len())` of
    /// `file`'s durable content, mapped through its extents. Only the
    /// sectors covering the range are read and logged (contiguous ones
    /// merge into one request in the log). Whole sectors land straight
    /// in `out`; the unaligned head and tail go through one stack image.
    /// `entry_lba` names the entry in a corruption error.
    fn read_extents(
        &mut self,
        file: &FileEntry,
        entry_lba: u64,
        offset: u64,
        out: &mut [u8],
    ) -> Result<(), SimError> {
        let end = offset + u64_from_usize(out.len());
        if end > file.size {
            return Err(read_past_eof(end, file.size));
        }
        let mut image = [0u8; SECTOR_USIZE];
        let mut at = 0usize;
        // File-relative index of the current extent's first sector.
        let mut first = 0u64;
        for ext in &file.extents {
            let next = (offset + u64_from_usize(at)) / SECTOR;
            for lba in ext.start + next.saturating_sub(first)..ext.end() {
                if at == out.len() {
                    return Ok(());
                }
                let skip = usize_from((offset + u64_from_usize(at)) % SECTOR);
                let take = (SECTOR_USIZE - skip).min(out.len() - at);
                if take == SECTOR_USIZE {
                    self.dev.read_sector(lba, &mut out[at..at + take])?;
                } else {
                    self.dev.read_sector(lba, &mut image)?;
                    out[at..at + take].copy_from_slice(&image[skip..skip + take]);
                }
                self.log.push(HostRequest::read(sector_offset(lba), SECTOR));
                at += take;
            }
            first += ext.len;
        }
        if at < out.len() {
            return Err(SimError::corruption(
                "file entry",
                entry_lba,
                "extents too short",
            ));
        }
        Ok(())
    }

    /// Fills `images`, the zeroed images of clean sectors from file
    /// sector `first`, with their durable bytes — except sectors whose
    /// durable bytes all lie in `skip`, which a write is about to
    /// overwrite. A write skips its own range, so it reads at most its
    /// partial head and tail sectors.
    fn read_clean(
        &mut self,
        file: &FileEntry,
        entry_lba: u64,
        first: u64,
        images: &mut [u8],
        skip: Range<u64>,
    ) -> Result<(), SimError> {
        for (k, image) in (first..).zip(images.chunks_exact_mut(SECTOR_USIZE)) {
            let (lo, hi) = (k * SECTOR, ((k + 1) * SECTOR).min(file.size));
            if lo < hi && !(skip.start <= lo && hi <= skip.end) {
                self.read_extents(file, entry_lba, lo, &mut image[..usize_from(hi - lo)])?;
            }
        }
        Ok(())
    }

    /// A metadata write: journal records, file-table applies, indirect
    /// extent sectors and the superblock all carry the sync barrier at
    /// the device.
    fn write_meta(&mut self, lba: u64, image: &[u8]) -> Result<(), SimError> {
        self.dev.write_sector(lba, image)?;
        self.log
            .push(HostRequest::write(sector_offset(lba), SECTOR).synchronous());
        Ok(())
    }

    /// A data write: plain asynchronous sector write.
    fn write_data(&mut self, lba: u64, image: &[u8]) -> Result<(), SimError> {
        self.wa.cow_bytes += SECTOR;
        self.dev.write_sector(lba, image)?;
        self.log
            .push(HostRequest::write(sector_offset(lba), SECTOR));
        Ok(())
    }
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
        let before = fs.device().writes_persisted();
        fs.fsync(id).expect("no-op");
        assert_eq!(fs.device().writes_persisted(), before);
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
        // Overwrite one sector: only that sector is COWed, but the
        // transaction's metadata still amplifies a one-sector write.
        fs.write(id, 0, &pattern(SECTOR_USIZE, 2)).expect("w");
        fs.fsync(id).expect("syncs");
        let wa2 = fs.write_amp();
        assert_eq!(wa2.user_bytes, 5 * sector);
        assert_eq!(wa2.cow_bytes, 5 * sector);
        assert!(wa2.device_per_user_permille() > 1000, "amplified");
    }

    /// The device LBA behind file sector `k` of the committed entry.
    fn lba_of(fs: &Ufs<SimBlockDevice>, id: FileId, k: u64) -> u64 {
        let file = fs.entry(id).expect("entry");
        physical(&file.extents, k, 1).next().expect("mapped").start
    }

    #[test]
    fn a_shorter_overlay_rewrite_leaves_the_untouched_sectors_in_place() {
        let mut fs = fresh();
        let id = fs.create("f").expect("creates");
        let mut model = pattern(8 * SECTOR_USIZE, 1);
        fs.write(id, 0, &model).expect("writes");
        fs.fsync(id).expect("syncs");
        let before: Vec<u64> = (0..8).map(|k| lba_of(&fs, id, k)).collect();
        let (free, cow) = (fs.free_sectors(), fs.write_amp().cow_bytes);
        // Two sectors' worth at an unaligned offset dirties sectors 3..=5.
        let patch = pattern(2 * SECTOR_USIZE, 2);
        let at = 3 * SECTOR_USIZE + 100;
        fs.write(id, u64_from_usize(at), &patch).expect("writes");
        model[at..at + patch.len()].copy_from_slice(&patch);
        fs.fsync(id).expect("syncs");
        for k in 0..8 {
            let moved = lba_of(&fs, id, k) != before[usize_from(k)];
            assert_eq!(moved, (3..=5).contains(&k), "sector {k}");
        }
        assert_eq!(fs.write_amp().cow_bytes - cow, 3 * SECTOR);
        assert_eq!(fs.free_sectors(), free, "replaced sectors released");
        let (mut fs, _) = Ufs::mount(fs.into_device()).expect("mounts");
        let id = fs.open("f").expect("opens");
        let mut back = vec![0u8; model.len()];
        fs.read(id, 0, &mut back).expect("reads");
        assert_eq!(back, model);
    }

    #[test]
    fn writes_read_back_only_the_durable_sectors_they_cover_partially() {
        let mut fs = fresh();
        let id = fs.create("f").expect("creates");
        let mut model = pattern(8 * SECTOR_USIZE, 1);
        fs.write(id, 0, &model).expect("writes");
        fs.fsync(id).expect("syncs");
        let read = |fs: &Ufs<SimBlockDevice>, k: u64, n: u64| {
            HostRequest::read(sector_offset(lba_of(fs, id, k)), n * SECTOR)
        };
        fs.enable_request_log();
        let mut write = |fs: &mut Ufs<SimBlockDevice>, at: usize, data: &[u8]| {
            fs.write(id, u64_from_usize(at), data).expect("writes");
            if model.len() < at + data.len() {
                model.resize(at + data.len(), 0);
            }
            model[at..at + data.len()].copy_from_slice(data);
            fs.take_request_log()
        };
        // Inside sector 1: one read, of sector 1.
        assert_eq!(write(&mut fs, 5000, &[7; 100]), [read(&fs, 1, 1)]);
        // The partial head (sector 0) and tail (sector 2); sector 1 is
        // dirty already.
        let log = write(&mut fs, 3000, &[8; 6000]);
        assert_eq!(log, [read(&fs, 0, 1), read(&fs, 2, 1)]);
        // A whole sector, and an append past the end, read nothing.
        assert!(write(&mut fs, 4 * SECTOR_USIZE, &[9; SECTOR_USIZE]).is_empty());
        assert!(write(&mut fs, 8 * SECTOR_USIZE + 5, &[10; 10]).is_empty());
        // A read of the staged file reads only the clean sectors.
        let mut back = vec![0u8; model.len()];
        fs.read(id, 0, &mut back).expect("reads");
        assert_eq!(back, model);
        assert_eq!(fs.take_request_log(), [read(&fs, 3, 1), read(&fs, 5, 3)]);
    }

    /// Appends `appends` unaligned `len`-byte pieces to `id`, each
    /// fsynced, mirroring them in `model`.
    fn grow(
        fs: &mut Ufs<SimBlockDevice>,
        id: FileId,
        model: &mut Vec<u8>,
        appends: u8,
        len: usize,
    ) {
        for salt in 0..appends {
            let data = pattern(len, salt);
            fs.write(id, u64_from_usize(model.len()), &data)
                .expect("appends");
            model.extend_from_slice(&data);
            fs.fsync(id).expect("syncs");
        }
    }

    /// Remounts `fs` and checks `name` reads back as `model`.
    fn remount_and_check(fs: Ufs<SimBlockDevice>, name: &str, model: &[u8]) -> Ufs<SimBlockDevice> {
        let free = fs.free_sectors();
        let (mut fs, report) = Ufs::mount(fs.into_device()).expect("mounts");
        assert!(report.is_clean());
        assert_eq!(
            fs.free_sectors(),
            free,
            "mount claims exactly the live sectors"
        );
        let id = fs.open(name).expect("opens");
        let mut back = vec![0u8; model.len()];
        fs.read(id, 0, &mut back).expect("reads");
        assert_eq!(back, model);
        fs
    }

    #[test]
    fn unaligned_appends_spill_the_extent_list_to_the_indirect_sector() {
        let mut fs = fresh();
        fs.enable_request_log();
        let id = fs.create("log").expect("creates");
        let mut model = Vec::new();
        grow(&mut fs, id, &mut model, 12, 5000);
        let file = fs.entry(id).expect("entry").clone();
        assert!(file.extents.len() > DIRECT_EXTENTS, "{file:?}");
        assert!(file.indirect.is_some());
        // Indirect sectors count as applies; the accounting still sums
        // to the logged writes (plus the superblock, written before the
        // log was on).
        let wa = fs.write_amp();
        let log = fs.take_request_log();
        let written: u64 = log.iter().filter(|r| !r.op.is_read()).map(|r| r.len).sum();
        assert_eq!(written + SECTOR, wa.device_bytes());
        assert!(wa.apply_bytes > (1 + wa.commits) * SECTOR, "{wa:?}");
        let fs = remount_and_check(fs, "log", &model);
        assert_eq!(fs.entry(id), Ok(&file));
    }

    #[test]
    fn an_extent_list_past_the_slots_rewrites_the_whole_file() {
        let mut fs = Ufs::format(SimBlockDevice::new(4096), UfsParams::default()).expect("formats");
        let id = fs.create("log").expect("creates");
        let mut model = Vec::new();
        let (mut longest, mut rewrites) = (0, 0);
        for _ in 0..400 {
            let before = fs.entry(id).expect("entry").extents.len();
            let cow = fs.write_amp().cow_bytes;
            grow(&mut fs, id, &mut model, 1, 5000);
            let after = fs.entry(id).expect("entry").extents.len();
            longest = longest.max(after);
            if after < before {
                // Whole-file COW: every sector written, one fresh extent.
                rewrites += 1;
                let sectors = u64_from_usize(model.len()).div_ceil(SECTOR);
                assert_eq!(fs.write_amp().cow_bytes - cow, sectors * SECTOR);
                assert_eq!(after, 1);
            }
        }
        assert_eq!(longest, MAX_EXTENTS);
        assert!(rewrites > 0);
        remount_and_check(fs, "log", &model);
    }

    #[test]
    fn mount_rejects_a_foreign_image() {
        let dev = SimBlockDevice::new(64);
        assert!(matches!(Ufs::mount(dev), Err(SimError::Corruption { .. })));
    }
}
