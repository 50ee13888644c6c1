//! Reference sort-and-merge interval arithmetic: the test oracle for the
//! one-sweep busy unions of [`crate::stats::RawStats::finalize`].

use crate::stats::Interval;
use nvmtypes::Nanos;

/// Sorts and merges overlapping/adjacent intervals in place, returning the
/// merged set (ascending, disjoint).
pub fn merge(mut intervals: Vec<Interval>) -> Vec<Interval> {
    intervals.retain(|&(s, e)| e > s);
    intervals.sort_unstable();
    let mut out: Vec<Interval> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total covered length of a set of (not necessarily disjoint) intervals.
pub fn union_len(intervals: Vec<Interval>) -> Nanos {
    merge(intervals).iter().map(|&(s, e)| e - s).sum()
}

/// Length of `[s, e)` that is *not* covered by the merged set `cover`
/// (which must be sorted and disjoint, as returned by [`merge`]).
pub fn uncovered_len(s: Nanos, e: Nanos, cover: &[Interval]) -> Nanos {
    if e <= s {
        return 0;
    }
    // Find the first covering interval that could overlap [s, e).
    let mut idx = cover.partition_point(|&(_, ce)| ce <= s);
    let mut covered = 0;
    let mut cursor = s;
    while idx < cover.len() {
        let (cs, ce) = cover[idx];
        if cs >= e {
            break;
        }
        let lo = cs.max(cursor);
        let hi = ce.min(e);
        if hi > lo {
            covered += hi - lo;
            cursor = hi;
        }
        idx += 1;
    }
    (e - s) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_overlapping() {
        let m = merge(vec![(5, 10), (0, 6), (20, 30), (10, 12)]);
        assert_eq!(m, vec![(0, 12), (20, 30)]);
    }

    #[test]
    fn merge_drops_empty() {
        let m = merge(vec![(5, 5), (1, 2)]);
        assert_eq!(m, vec![(1, 2)]);
    }

    #[test]
    fn union_len_counts_overlap_once() {
        assert_eq!(union_len(vec![(0, 10), (5, 15)]), 15);
        assert_eq!(union_len(vec![]), 0);
    }

    #[test]
    fn uncovered_basic() {
        let cover = merge(vec![(10, 20), (30, 40)]);
        // [0, 50): covered 10..20 and 30..40 => 20 covered, 30 uncovered.
        assert_eq!(uncovered_len(0, 50, &cover), 30);
        // Fully covered span.
        assert_eq!(uncovered_len(12, 18, &cover), 0);
        // Fully uncovered span.
        assert_eq!(uncovered_len(20, 30, &cover), 10);
        // Empty span.
        assert_eq!(uncovered_len(20, 20, &cover), 0);
    }

    #[test]
    fn uncovered_partial_edges() {
        let cover = merge(vec![(10, 20)]);
        assert_eq!(uncovered_len(5, 15, &cover), 5);
        assert_eq!(uncovered_len(15, 25, &cover), 5);
    }
}
