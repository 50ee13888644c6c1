//! # ufs — the paper's Unified File System, built for real
//!
//! Where `oocfs::UfsModel` only *reshapes* a request stream (the paper's
//! §3.2 transformation view), this crate is an actual filesystem over the
//! simulated block device, with real durability semantics to defend:
//!
//! * [`layout`] — the on-disk format: one CRC-tagged metadata structure
//!   per 4 KiB sector (superblock, file entries, indirect extent sectors,
//!   journal records), so torn sector writes are always detectable;
//! * [`alloc`] — first-fit extent allocation, rebuilt from the file
//!   table at every mount (no on-disk free list to corrupt), keeping
//!   files contiguous so application request size and sequentiality
//!   survive to the device;
//! * [`journal`] — redo-journal recovery planning: committed
//!   transactions past the checkpoint horizon are replayed from their
//!   full-entry journal images, uncommitted ones are discarded;
//! * [`fs`] — mount/create/open/read/write/fsync over any
//!   [`ssd::BlockDevice`]: writes stage only the sectors they dirty, and
//!   the five-phase commit protocol (data → journal → commit mark →
//!   apply → checkpoint) copies just those sectors to fresh ones and
//!   remaps them in the file's extent list;
//! * [`harness`] — the exhaustive crash-point sweep: power loss after
//!   *every* device write of a workload, dropped and torn, each case
//!   remounted and checked for committed-prefix visibility and
//!   idempotent recovery;
//! * [`replay`] — an [`oocfs::FileSystemModel`] adapter that replays a
//!   POSIX trace through the real filesystem and emits the device-level
//!   block trace it actually generated.
//!
//! See docs/UFS.md for the commit protocol and recovery invariants, and
//! docs/FAULT_MODEL.md for the crash-point fault vocabulary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod fs;
pub mod harness;
pub mod journal;
pub mod layout;
pub mod replay;

pub use fs::{FileId, Ufs, UfsParams, WriteAmp};
pub use harness::{crash_matrix, CrashMatrixParams, CrashMatrixReport, CrashWorkload};
pub use journal::RecoveryReport;
pub use layout::{Extent, FileEntry, Indirect};
pub use replay::JournaledUfs;
