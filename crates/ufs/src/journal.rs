//! Redo-journal recovery planning.
//!
//! Mount scans every journal-ring sector, keeps the records whose CRC
//! verifies, and hands them to [`plan_recovery`], a pure function that
//! decides what to replay. The commit protocol (journal records → data
//! extents → commit mark → in-place apply → checkpoint, see docs/UFS.md)
//! guarantees two facts the planner leans on:
//!
//! * a Commit record is persisted only after every Update of its
//!   transaction — so "commit present, updates missing" past the
//!   checkpoint horizon is real corruption, not an interrupted write;
//! * every Update carries the complete new file entry — so replaying a
//!   transaction any number of times writes the same bytes (idempotent
//!   redo).

use crate::layout::{FileEntry, JournalRecord, RecordKind};
use nvmtypes::SimError;
use std::collections::{BTreeMap, BTreeSet};

/// What recovery decided and did at mount, rendered deterministically —
/// byte-identical across re-runs and thread counts for the same image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal-ring sectors scanned.
    pub sectors_scanned: u64,
    /// Records whose CRC verified.
    pub valid_records: u64,
    /// Highest checkpointed transaction id (0 = no checkpoint found).
    pub last_checkpoint_tid: u64,
    /// Committed-but-unapplied transactions replayed, in id order.
    pub replayed_tids: Vec<u64>,
    /// Transactions past the checkpoint with records but no commit mark —
    /// interrupted before the commit point, discarded untouched.
    pub discarded_tids: Vec<u64>,
    /// `true` when recovery wrote a fresh checkpoint (it replayed
    /// something); a second mount of the same image writes nothing.
    pub checkpoint_written: bool,
}

impl RecoveryReport {
    /// A mount that found nothing to do.
    pub fn clean(sectors_scanned: u64, valid_records: u64, last_checkpoint_tid: u64) -> Self {
        RecoveryReport {
            sectors_scanned,
            valid_records,
            last_checkpoint_tid,
            replayed_tids: Vec::new(),
            discarded_tids: Vec::new(),
            checkpoint_written: false,
        }
    }

    /// `true` when the mount replayed no transactions.
    pub fn is_clean(&self) -> bool {
        self.replayed_tids.is_empty()
    }

    /// One-line summary, stable across runs.
    pub fn render(&self) -> String {
        format!(
            "journal {}/{} valid; checkpoint tid {}; replayed {:?}; discarded {:?}; checkpoint_written {}",
            self.valid_records,
            self.sectors_scanned,
            self.last_checkpoint_tid,
            self.replayed_tids,
            self.discarded_tids,
            self.checkpoint_written,
        )
    }
}

/// The planner's output: slot images to rewrite, in replay order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPlan {
    /// `(slot, entry)` writes to apply, ordered by (tid, record seq).
    pub apply: Vec<(u32, FileEntry)>,
    /// Transaction ids replayed, ascending.
    pub replayed_tids: Vec<u64>,
    /// Post-checkpoint transactions discarded as uncommitted, ascending.
    pub discarded_tids: Vec<u64>,
    /// Highest checkpointed tid found (0 if none).
    pub last_checkpoint_tid: u64,
    /// Next free journal sequence number.
    pub next_seq: u64,
    /// Next free transaction id.
    pub next_tid: u64,
}

/// Decides what to replay from the valid journal records of one ring.
///
/// Records may arrive in any order; the planner sorts by sequence
/// number. Two valid records with the same sequence number cannot occur
/// in a healthy ring (sequence numbers are never reused) and are
/// reported as corruption.
pub fn plan_recovery(mut records: Vec<JournalRecord>) -> Result<RecoveryPlan, SimError> {
    records.sort_by_key(|r| r.seq);
    for pair in records.windows(2) {
        if pair[0].seq == pair[1].seq {
            return Err(SimError::corruption(
                "journal record",
                pair[1].seq,
                format!("duplicate sequence number {}", pair[1].seq),
            ));
        }
    }
    let next_seq = records.last().map_or(1, |r| r.seq + 1);
    let last_checkpoint_tid = records
        .iter()
        .filter(|r| r.kind == RecordKind::Checkpoint)
        .map(|r| r.tid)
        .max()
        .unwrap_or(0);

    // Group post-checkpoint records by transaction.
    let mut updates: BTreeMap<u64, Vec<(u64, u32, FileEntry)>> = BTreeMap::new();
    let mut commits: BTreeMap<u64, u32> = BTreeMap::new();
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    for r in &records {
        if r.tid <= last_checkpoint_tid || r.kind == RecordKind::Checkpoint {
            continue;
        }
        seen.insert(r.tid);
        match &r.kind {
            RecordKind::Update { slot, entry } => {
                updates
                    .entry(r.tid)
                    .or_default()
                    .push((r.seq, *slot, entry.clone()))
            }
            RecordKind::Commit { n_updates } => {
                commits.insert(r.tid, *n_updates);
            }
            RecordKind::Begin | RecordKind::Checkpoint => {}
        }
    }

    let mut apply = Vec::new();
    let mut replayed_tids = Vec::new();
    let mut discarded_tids = Vec::new();
    for &tid in &seen {
        match commits.get(&tid) {
            Some(&n_updates) => {
                let mut ups = updates.remove(&tid).unwrap_or_default();
                ups.sort_by_key(|&(seq, _, _)| seq);
                if ups.len() != nvmtypes::usize_from(u64::from(n_updates)) {
                    return Err(SimError::corruption(
                        "journal transaction",
                        tid,
                        format!(
                            "commit mark promises {} update(s), {} present",
                            n_updates,
                            ups.len()
                        ),
                    ));
                }
                for (_, slot, entry) in ups {
                    apply.push((slot, entry));
                }
                replayed_tids.push(tid);
            }
            None => discarded_tids.push(tid),
        }
    }
    let next_tid = seen
        .iter()
        .next_back()
        .copied()
        .max(Some(last_checkpoint_tid))
        .unwrap_or(0)
        + 1;
    Ok(RecoveryPlan {
        apply,
        replayed_tids,
        discarded_tids,
        last_checkpoint_tid,
        next_seq,
        next_tid,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Extent;

    fn entry(tag: u64) -> FileEntry {
        FileEntry {
            name: format!("f{tag}"),
            size: tag * 100,
            extents: vec![Extent {
                start: 200 + tag,
                len: 1,
            }],
            indirect: None,
        }
    }

    fn rec(seq: u64, tid: u64, kind: RecordKind) -> JournalRecord {
        JournalRecord { seq, tid, kind }
    }

    #[test]
    fn committed_transaction_past_checkpoint_is_replayed() {
        let records = vec![
            rec(1, 1, RecordKind::Begin),
            rec(
                2,
                1,
                RecordKind::Update {
                    slot: 0,
                    entry: entry(1),
                },
            ),
            rec(3, 1, RecordKind::Commit { n_updates: 1 }),
            rec(4, 1, RecordKind::Checkpoint),
            rec(5, 2, RecordKind::Begin),
            rec(
                6,
                2,
                RecordKind::Update {
                    slot: 3,
                    entry: entry(2),
                },
            ),
            rec(7, 2, RecordKind::Commit { n_updates: 1 }),
            // Crash before tid 2's checkpoint.
        ];
        let plan = plan_recovery(records).expect("plans");
        assert_eq!(plan.last_checkpoint_tid, 1);
        assert_eq!(plan.replayed_tids, vec![2]);
        assert_eq!(plan.apply, vec![(3, entry(2))]);
        assert!(plan.discarded_tids.is_empty());
        assert_eq!(plan.next_seq, 8);
        assert_eq!(plan.next_tid, 3);
    }

    #[test]
    fn uncommitted_transaction_is_discarded() {
        let records = vec![
            rec(1, 1, RecordKind::Begin),
            rec(
                2,
                1,
                RecordKind::Update {
                    slot: 0,
                    entry: entry(1),
                },
            ),
            // Crash before the commit mark.
        ];
        let plan = plan_recovery(records).expect("plans");
        assert!(plan.apply.is_empty());
        assert_eq!(plan.discarded_tids, vec![1]);
        assert_eq!(plan.next_tid, 2);
    }

    #[test]
    fn commit_without_updates_is_corruption() {
        let records = vec![rec(3, 2, RecordKind::Commit { n_updates: 1 })];
        assert!(matches!(
            plan_recovery(records),
            Err(SimError::Corruption { .. })
        ));
    }

    #[test]
    fn duplicate_sequence_numbers_are_corruption() {
        let records = vec![rec(3, 1, RecordKind::Begin), rec(3, 2, RecordKind::Begin)];
        assert!(plan_recovery(records).is_err());
    }

    #[test]
    fn empty_journal_plans_a_fresh_filesystem() {
        let plan = plan_recovery(Vec::new()).expect("plans");
        assert!(plan.is_clean_shape());
        assert_eq!(plan.next_seq, 1);
        assert_eq!(plan.next_tid, 1);
    }

    impl RecoveryPlan {
        fn is_clean_shape(&self) -> bool {
            self.apply.is_empty() && self.replayed_tids.is_empty() && self.discarded_tids.is_empty()
        }
    }

    #[test]
    fn replay_order_follows_tid_then_seq() {
        let records = vec![
            // Two committed transactions, interleaved in the ring.
            rec(
                12,
                5,
                RecordKind::Update {
                    slot: 2,
                    entry: entry(5),
                },
            ),
            rec(10, 4, RecordKind::Begin),
            rec(
                11,
                4,
                RecordKind::Update {
                    slot: 1,
                    entry: entry(4),
                },
            ),
            rec(13, 4, RecordKind::Commit { n_updates: 1 }),
            rec(14, 5, RecordKind::Commit { n_updates: 1 }),
        ];
        let plan = plan_recovery(records).expect("plans");
        assert_eq!(plan.replayed_tids, vec![4, 5]);
        assert_eq!(plan.apply[0].0, 1);
        assert_eq!(plan.apply[1].0, 2);
    }

    #[test]
    fn report_renders_deterministically() {
        let a = RecoveryReport::clean(64, 10, 3);
        let b = RecoveryReport::clean(64, 10, 3);
        assert_eq!(a.render(), b.render());
        assert!(a.is_clean());
        assert!(a.render().contains("checkpoint tid 3"));
    }
}
