//! The exhaustive crash-point harness.
//!
//! Two deterministic workloads are swept ([`CrashWorkload`]): overlay
//! rewrites of several files from offset 0, and unaligned appends that
//! grow files past the entry's direct extent slots, so that commits
//! remap old tail sectors and write indirect extent sectors.
//!
//! One clean run of a deterministic workload establishes the ground
//! truth: the total number of device sector writes `W`, the write index
//! at which each transaction's commit mark persisted, and the logical
//! file state after each commit. Because the filesystem is a pure
//! function of its inputs, every crash replica issues the *same* write
//! sequence — so simulating power loss during write `k` (for every `k`
//! in `1..=W`, both dropped and torn) has a fully known expected
//! outcome: exactly the commits whose mark persisted before write `k`
//! are visible, everything else is invisible.
//!
//! Each case then verifies, post-remount:
//!
//! * **committed-prefix**: the file set and every byte of content equal
//!   the snapshot of the latest commit with index `< k`;
//! * **idempotency**: a second mount replays nothing and leaves the
//!   media byte-identical;
//! * **determinism**: the per-case recovery summaries fold into a CRC
//!   digest that is byte-identical across re-runs and thread counts
//!   (cases run in parallel, results collected in input order).

use crate::fs::{Ufs, UfsParams, WRITES_AFTER_COMMIT};
use crate::layout::crc32;
use nvmtypes::convert::{u64_from_usize, usize_from};
use nvmtypes::fault::CrashPoint;
use nvmtypes::SimError;
use rayon::prelude::*;
use ssd::{BlockDevice, SimBlockDevice};
use std::collections::BTreeMap;

/// Which deterministic workload a sweep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashWorkload {
    /// `rounds` passes over `files` files, each op overlaying a file from
    /// offset 0 with fresh patterned content.
    Overlays,
    /// `rounds` passes over `files` files, each op appending unaligned
    /// content at the file's end. Every commit remaps the file's old
    /// tail sector, and a file whose extents outgrow the direct slots
    /// writes an indirect extent sector.
    Appends,
}

/// Workload and geometry of one crash-matrix sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashMatrixParams {
    /// Device size in sectors.
    pub device_sectors: u64,
    /// Filesystem geometry.
    pub fs: UfsParams,
    /// The workload's shape.
    pub workload: CrashWorkload,
    /// Files the workload cycles over.
    pub files: u32,
    /// Write+fsync rounds per file.
    pub rounds: u32,
    /// Base payload per file write, bytes (each write varies around it).
    pub payload_bytes: u32,
    /// Seed for torn-write byte counts.
    pub seed: u64,
}

impl Default for CrashMatrixParams {
    fn default() -> CrashMatrixParams {
        CrashMatrixParams {
            device_sectors: 1024,
            fs: UfsParams::default(),
            workload: CrashWorkload::Overlays,
            files: 3,
            rounds: 2,
            payload_bytes: 6000,
            seed: 0x5EED_CAFE,
        }
    }
}

/// One workload step: write `content` to `name` at byte `offset`, then
/// fsync.
#[derive(Debug, Clone)]
struct Op {
    name: String,
    offset: u64,
    content: Vec<u8>,
}

/// Deterministic workload: `rounds` passes over `files` files, each op
/// writing fresh patterned content — at offset 0, or at the file's end —
/// and fsyncing.
fn workload(params: &CrashMatrixParams) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut ends: BTreeMap<u32, u64> = BTreeMap::new();
    for round in 0..params.rounds {
        for file in 0..params.files {
            let tag = u64::from(round) * u64::from(params.files) + u64::from(file);
            let len = usize_from(u64::from(params.payload_bytes) + tag * 523 % 4096);
            let salt = (tag * 151 + 7) % 251;
            let content = (0..len)
                .map(|i| {
                    let x = u64_from_usize(i).wrapping_mul(31).wrapping_add(salt) % 256;
                    u8::try_from(x).unwrap_or(0)
                })
                .collect();
            let end = ends.entry(file).or_insert(0);
            let offset = match params.workload {
                CrashWorkload::Overlays => 0,
                CrashWorkload::Appends => *end,
            };
            *end = (*end).max(offset + u64_from_usize(len));
            ops.push(Op {
                name: format!("f{file}"),
                offset,
                content,
            });
        }
    }
    ops
}

/// Runs `ops` on a freshly mounted `dev`, creating files on first touch.
/// Returns the filesystem and, after each successful fsync, the commit's
/// device-write index paired with the logical state snapshot. On power
/// loss the replica stops and hands back the dead device's media.
enum RunEnd {
    /// All ops applied (the clean run).
    Completed {
        fs: Box<Ufs<SimBlockDevice>>,
        commits: Vec<(u64, BTreeMap<String, Vec<u8>>)>,
        /// Most extents any file held after a commit.
        max_extents: u64,
    },
    /// Power was lost mid-op; the surviving media image.
    PowerLost { media: Vec<u8> },
}

/// Mirrors [`Ufs::write`] in the logical model: a pwrite-style overlay
/// at `offset`, so a shorter rewrite never truncates the file and a gap
/// past the end reads as zeros.
fn overlay(model: &mut BTreeMap<String, Vec<u8>>, name: &str, offset: u64, content: &[u8]) {
    let file = model.entry(name.to_string()).or_default();
    let (at, end) = (usize_from(offset), usize_from(offset) + content.len());
    if file.len() < end {
        file.resize(end, 0);
    }
    file[at..end].copy_from_slice(content);
}

fn run_ops(dev: SimBlockDevice, ops: &[Op]) -> Result<RunEnd, SimError> {
    let (mut fs, _report) = Ufs::mount(dev)?;
    let mut commits = Vec::new();
    let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut max_extents = 0;
    for op in ops {
        let step = (|| -> Result<usize, SimError> {
            let id = match fs.open(&op.name) {
                Ok(id) => id,
                Err(_) => fs.create(&op.name)?,
            };
            fs.write(id, op.offset, &op.content)?;
            fs.fsync(id)?;
            Ok(fs.entry(id)?.extents.len())
        })();
        match step {
            Ok(extents) => {
                max_extents = max_extents.max(u64_from_usize(extents));
                overlay(&mut model, &op.name, op.offset, &op.content);
                let commit_index = fs.device().writes_persisted() - WRITES_AFTER_COMMIT;
                commits.push((commit_index, model.clone()));
            }
            Err(e) if e.is_power_loss() => {
                return Ok(RunEnd::PowerLost {
                    media: fs.into_device().into_media(),
                });
            }
            Err(e) => return Err(e),
        }
    }
    Ok(RunEnd::Completed {
        fs: Box::new(fs),
        commits,
        max_extents,
    })
}

/// Outcome of one crash case, after remount and verification.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CaseOutcome {
    at_write: u64,
    torn: bool,
    replayed: u64,
    discarded: u64,
    summary: String,
}

/// Aggregate result of an exhaustive sweep. [`CrashMatrixReport::render`]
/// is byte-identical across re-runs and thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashMatrixReport {
    /// Device writes in the clean run (crash points swept: `1..=this`).
    pub total_writes: u64,
    /// Transactions the clean run committed.
    pub commits: u64,
    /// Most extents any file held after a commit of the clean run (past
    /// [`crate::layout::DIRECT_EXTENTS`], the sweep covered indirect
    /// extent sectors).
    pub max_extents: u64,
    /// Crash cases executed (`2 * total_writes`: dropped and torn).
    pub cases: u64,
    /// Cases whose remount replayed at least one transaction.
    pub cases_replayed: u64,
    /// Cases whose remount discarded an uncommitted transaction.
    pub cases_discarded: u64,
    /// CRC-32 over every per-case recovery summary, in case order.
    pub digest: u32,
}

impl CrashMatrixReport {
    /// Deterministic multi-line report.
    pub fn render(&self) -> String {
        format!(
            "crash matrix: {} writes, {} commits, {} cases, files reach {} extents\n  replayed in {} cases, discarded uncommitted in {} cases\n  recovery digest {:08x}\n",
            self.total_writes,
            self.commits,
            self.cases,
            self.max_extents,
            self.cases_replayed,
            self.cases_discarded,
            self.digest,
        )
    }
}

/// Runs the exhaustive sweep: power loss after every device write of the
/// workload, dropped and torn, each followed by remount, committed-prefix
/// verification and an idempotency check. Any violated invariant surfaces
/// as an error naming the case.
pub fn crash_matrix(params: &CrashMatrixParams) -> Result<CrashMatrixReport, SimError> {
    let ops = workload(params);

    // Base image: a freshly formatted, empty filesystem.
    let base = Ufs::format(SimBlockDevice::new(params.device_sectors), params.fs)?
        .into_device()
        .into_media();

    // Clean run: ground truth.
    let clean = run_ops(SimBlockDevice::from_media(base.clone())?, &ops)?;
    let (clean_fs, commits, max_extents) = match clean {
        RunEnd::Completed {
            fs,
            commits,
            max_extents,
        } => (fs, commits, max_extents),
        RunEnd::PowerLost { .. } => {
            return Err(SimError::invalid_config(
                "crash_matrix",
                "clean run lost power without a crash hook",
            ))
        }
    };
    let total_writes = clean_fs.device().writes_persisted();
    drop(clean_fs);

    // Every (write index, torn?) pair.
    let case_ids: Vec<(u64, bool)> = (1..=total_writes)
        .flat_map(|k| [(k, false), (k, true)])
        .collect();
    let outcomes: Vec<Result<CaseOutcome, SimError>> = case_ids
        .into_par_iter()
        .map(|(k, torn)| run_case(&base, &ops, &commits, k, torn, params.seed))
        .collect();

    let mut digest_input = String::new();
    let mut cases_replayed = 0;
    let mut cases_discarded = 0;
    let mut cases = 0;
    for outcome in outcomes {
        let o = outcome?;
        cases += 1;
        if o.replayed > 0 {
            cases_replayed += 1;
        }
        if o.discarded > 0 {
            cases_discarded += 1;
        }
        digest_input.push_str(&format!(
            "{}:{}:{}\n",
            o.at_write,
            u64::from(o.torn),
            o.summary
        ));
    }
    Ok(CrashMatrixReport {
        total_writes,
        commits: u64_from_usize(commits.len()),
        max_extents,
        cases,
        cases_replayed,
        cases_discarded,
        digest: crc32(digest_input.as_bytes()),
    })
}

/// One crash case: replay the workload with power loss at write `k`,
/// remount, verify the committed prefix, then verify recovery idempotency.
fn run_case(
    base: &[u8],
    ops: &[Op],
    commits: &[(u64, BTreeMap<String, Vec<u8>>)],
    k: u64,
    torn: bool,
    seed: u64,
) -> Result<CaseOutcome, SimError> {
    let fail = |reason: String| {
        SimError::invalid_config(
            "crash_matrix",
            format!("case write={k} torn={torn}: {reason}"),
        )
    };
    let dev = SimBlockDevice::from_media(base.to_vec())?
        .with_crash_point(Some(CrashPoint::at_write(k, torn, seed.wrapping_add(k))));
    let media = match run_ops(dev, ops)? {
        RunEnd::PowerLost { media } => media,
        RunEnd::Completed { .. } => {
            return Err(fail("crash point never fired".into()));
        }
    };

    // Expected: the latest commit whose mark persisted before write k.
    let empty = BTreeMap::new();
    let expected = commits
        .iter()
        .rev()
        .find(|(commit_index, _)| *commit_index < k)
        .map_or(&empty, |(_, state)| state);

    // A *torn* crash during the commit-mark write itself has two legal
    // outcomes: journal records occupy only the head of their sector, so
    // a tear that keeps at least the record bytes persists a valid commit
    // mark (the transaction commits); a shorter tear leaves CRC debris
    // (it doesn't). Both sides of the atomicity boundary are accepted —
    // everything else about the case is still verified strictly.
    let torn_commit_alt = if torn {
        commits
            .iter()
            .find(|(commit_index, _)| *commit_index == k)
            .map(|(_, state)| state)
    } else {
        None
    };

    // Remount: recovery runs here.
    let (mut fs, report) = Ufs::mount(SimBlockDevice::from_media(media)?)?;
    if let Some(reason) = state_mismatch(&mut fs, expected)? {
        match torn_commit_alt {
            Some(alt) if state_mismatch(&mut fs, alt)?.is_none() => {}
            _ => return Err(fail(reason)),
        }
    }

    // Idempotency: a second mount must replay nothing and write nothing.
    let media_once = fs.into_device().into_media();
    let (fs2, report2) = Ufs::mount(SimBlockDevice::from_media(media_once.clone())?)?;
    if !report2.is_clean() || report2.checkpoint_written {
        return Err(fail(format!(
            "second recovery was not clean: {}",
            report2.render()
        )));
    }
    let media_twice = fs2.into_device().into_media();
    if media_once != media_twice {
        return Err(fail("second recovery changed the media".into()));
    }

    Ok(CaseOutcome {
        at_write: k,
        torn,
        replayed: u64_from_usize(report.replayed_tids.len()),
        discarded: u64_from_usize(report.discarded_tids.len()),
        summary: report.render(),
    })
}

/// Compares the mounted filesystem against a logical snapshot. Returns
/// `Ok(None)` on an exact match, `Ok(Some(reason))` on divergence, and
/// `Err` only for I/O-level failures (which no case should see).
fn state_mismatch(
    fs: &mut Ufs<SimBlockDevice>,
    want: &BTreeMap<String, Vec<u8>>,
) -> Result<Option<String>, SimError> {
    let want_names: Vec<String> = want.keys().cloned().collect();
    let mut names = fs.file_names();
    names.sort();
    if names != want_names {
        return Ok(Some(format!("file set {names:?}, expected {want_names:?}")));
    }
    for (name, content) in want {
        let id = fs.open(name)?;
        let size = fs.size(id)?;
        if size != u64_from_usize(content.len()) {
            return Ok(Some(format!(
                "`{name}` is {size} bytes, expected {}",
                content.len()
            )));
        }
        let mut got = vec![0u8; content.len()];
        fs.read(id, 0, &mut got)?;
        if &got != content {
            return Ok(Some(format!("`{name}` content diverged")));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CrashMatrixParams {
        CrashMatrixParams {
            device_sectors: 512,
            fs: UfsParams {
                max_files: 8,
                journal_sectors: 16,
            },
            workload: CrashWorkload::Overlays,
            files: 2,
            rounds: 2,
            payload_bytes: 5000,
            seed: 42,
        }
    }

    #[test]
    fn exhaustive_tiny_matrix_holds_every_invariant() {
        let report = crash_matrix(&tiny()).expect("matrix holds");
        assert_eq!(report.commits, 4);
        assert_eq!(report.cases, 2 * report.total_writes);
        // Crashes between a commit mark and its checkpoint replay the
        // transaction: at least the apply and checkpoint windows of
        // every commit are replay cases (2 windows x 2 variants).
        assert!(
            report.cases_replayed >= 2 * report.commits,
            "replayed in {} cases across {} commits",
            report.cases_replayed,
            report.commits
        );
        // Crashes during data or journal phases discard the in-flight
        // transaction somewhere in the sweep.
        assert!(report.cases_discarded > 0);
    }

    /// One file grown by ten unaligned appends of 5000-9000 bytes.
    fn appends() -> CrashMatrixParams {
        CrashMatrixParams {
            workload: CrashWorkload::Appends,
            files: 1,
            rounds: 10,
            ..tiny()
        }
    }

    #[test]
    fn exhaustive_append_matrix_covers_the_indirect_extent_sector() {
        let report = crash_matrix(&appends()).expect("matrix holds");
        assert_eq!(report.commits, 10);
        assert_eq!(report.cases, 2 * report.total_writes);
        // Each append remaps the old tail sector, adding an extent: the
        // file outgrows the direct slots, so the later commits write
        // (and crash around) an indirect extent sector.
        assert!(
            report.max_extents > u64_from_usize(crate::layout::DIRECT_EXTENTS),
            "{}",
            report.render()
        );
        assert!(report.cases_replayed >= 2 * report.commits);
        assert!(report.cases_discarded > 0);
        assert_eq!(crash_matrix(&appends()), Ok(report));
    }

    #[test]
    fn matrix_report_is_deterministic_across_runs() {
        let a = crash_matrix(&tiny()).expect("runs");
        let b = crash_matrix(&tiny()).expect("runs");
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn workload_is_deterministic() {
        let p = tiny();
        let a = workload(&p);
        let b = workload(&p);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.offset, y.offset);
            assert_eq!(x.content, y.content);
        }
        assert!(a.iter().all(|op| op.offset == 0));
        // Appends start where the previous write to the file ended.
        let ops = workload(&appends());
        for pair in ops.windows(2) {
            let end = pair[0].offset + u64_from_usize(pair[0].content.len());
            assert_eq!(pair[1].offset, end);
        }
    }
}
