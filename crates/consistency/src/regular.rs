//! Safe and regular register criteria (single-writer), for the weaker
//! emulations discussed in the paper's concluding remarks (§VI).
//!
//! These criteria are defined for crash-free, single-writer histories
//! ([Lamport 1986], recalled in §VI):
//!
//! * **safe** — a read *not concurrent with any write* returns the value
//!   of the last preceding write (⊥ if none); a concurrent read may return
//!   anything.
//! * **regular** — every read returns either the value of the last
//!   preceding write or the value of some write concurrent with the read.
//!
//! For crash-recovery histories the natural lift (mirroring persistent
//! atomicity) is: complete pending writes per the persistent rule, then
//! apply the crash-free criterion to the completed history. That is what
//! these checkers implement: pending writes become intervals bounded by the
//! writer's next invocation, and both the kept and dropped alternatives are
//! tried.

use rmem_types::{OpKind, ProcessId, Value};

use crate::atomicity::MAX_PENDING_WRITES;
use crate::history::History;
use crate::intervals::{extract, CompletionRule, IntervalOp};
use crate::linearize::Inconclusive;

/// Why a history fails the safe/regular check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegularViolation {
    /// The history is not well-formed.
    NotWellFormed(crate::history::WellFormedError),
    /// More than one process issued writes (criteria are single-writer).
    MultipleWriters {
        /// Two of the offending writers.
        writers: (ProcessId, ProcessId),
    },
    /// Some completion makes no read admissible.
    Violated {
        /// Which criterion failed.
        criterion: &'static str,
    },
    /// The check gave up without a verdict: the history is neither
    /// certified nor refuted.
    Inconclusive(Inconclusive),
}

impl std::fmt::Display for RegularViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegularViolation::NotWellFormed(e) => write!(f, "history not well-formed: {e}"),
            RegularViolation::MultipleWriters { writers } => {
                write!(
                    f,
                    "single-writer criterion, but {} and {} both wrote",
                    writers.0, writers.1
                )
            }
            RegularViolation::Violated { criterion } => {
                write!(f, "history is not {criterion}")
            }
            RegularViolation::Inconclusive(why) => write!(f, "inconclusive: {why}"),
        }
    }
}

impl std::error::Error for RegularViolation {}

fn single_writer(ops: &[&IntervalOp]) -> Result<(), RegularViolation> {
    let mut writer: Option<ProcessId> = None;
    for op in ops {
        if op.kind == OpKind::Write {
            match writer {
                None => writer = Some(op.op.pid),
                Some(w) if w != op.op.pid => {
                    return Err(RegularViolation::MultipleWriters {
                        writers: (w, op.op.pid),
                    })
                }
                _ => {}
            }
        }
    }
    Ok(())
}

/// In a single-writer history writes are totally ordered by invocation
/// index (the writer is sequential), so "the last write preceding a read"
/// is well defined.
fn check_reads(
    ops: &[IntervalOp],
    criterion: &'static str,
    concurrent_reads_unconstrained: bool,
) -> Result<(), RegularViolation> {
    let refs: Vec<&IntervalOp> = ops.iter().collect();
    single_writer(&refs)?;

    let mut writes: Vec<&IntervalOp> = ops.iter().filter(|o| o.kind == OpKind::Write).collect();
    writes.sort_by_key(|w| w.inv);

    for read in ops.iter().filter(|o| o.kind == OpKind::Read) {
        let Some(rv) = &read.read_value else { continue };
        // Last write whose interval ends before the read begins.
        let last_preceding: Option<&&IntervalOp> = writes.iter().rev().find(|w| w.precedes(read));
        let concurrent: Vec<&&IntervalOp> = writes
            .iter()
            .filter(|w| !w.precedes(read) && !read.precedes(w))
            .collect();

        if !concurrent.is_empty() && concurrent_reads_unconstrained {
            continue; // safe: anything goes for concurrent reads
        }

        let last_value: Option<&Value> = last_preceding.and_then(|w| w.write_value.as_ref());
        let matches_last = match last_value {
            Some(v) => rv == v,
            None => rv.is_bottom(),
        };
        let matches_concurrent = concurrent
            .iter()
            .any(|w| w.write_value.as_ref().is_some_and(|v| v == rv));
        if !(matches_last || matches_concurrent) {
            return Err(RegularViolation::Violated { criterion });
        }
    }
    Ok(())
}

fn check_with_completions(
    history: &History,
    criterion: &'static str,
    concurrent_unconstrained: bool,
) -> Result<(), RegularViolation> {
    history
        .well_formed()
        .map_err(RegularViolation::NotWellFormed)?;
    let intervals = extract(history, CompletionRule::Persistent);
    let w = intervals.optional_writes.len();
    if w >= MAX_PENDING_WRITES {
        return Err(RegularViolation::Inconclusive(Inconclusive::PendingWrites(
            w,
        )));
    }
    let mut last_err = None;
    for subset in 0u32..(1u32 << w) {
        let mut ops = intervals.fixed.clone();
        for (i, pw) in intervals.optional_writes.iter().enumerate() {
            if subset & (1 << i) != 0 {
                ops.push(pw.clone());
            }
        }
        match check_reads(&ops, criterion, concurrent_unconstrained) {
            Ok(()) => return Ok(()),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or(RegularViolation::Violated { criterion }))
}

/// Checks the single-writer **regular** criterion (with the persistent
/// completion rule for pending writes).
///
/// # Errors
///
/// Returns [`RegularViolation`] if the history is malformed, multi-writer,
/// or some read returns neither the last preceding nor a concurrent value,
/// and [`RegularViolation::Inconclusive`] if it holds too many pending
/// writes to enumerate their completions.
pub fn check_regular_swmr(history: &History) -> Result<(), RegularViolation> {
    check_with_completions(history, "regular", false)
}

/// Checks the single-writer **safe** criterion (with the persistent
/// completion rule for pending writes).
///
/// # Errors
///
/// Returns [`RegularViolation`] if the history is malformed, multi-writer,
/// or a write-free read returns a stale value, and
/// [`RegularViolation::Inconclusive`] if it holds too many pending writes
/// to enumerate their completions.
pub fn check_safe_swmr(history: &History) -> Result<(), RegularViolation> {
    check_with_completions(history, "safe", true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmem_types::{Op, OpResult, Value};

    fn p(i: u16) -> ProcessId {
        ProcessId(i)
    }

    fn v(x: u32) -> Value {
        Value::from_u32(x)
    }

    #[test]
    fn sequential_reads_must_see_last_write() {
        let mut h = History::new();
        h.complete_write(p(0), v(1));
        h.complete_read(p(1), v(1));
        assert!(check_regular_swmr(&h).is_ok());
        assert!(check_safe_swmr(&h).is_ok());

        let mut bad = History::new();
        bad.complete_write(p(0), v(1));
        bad.complete_read(p(1), v(9));
        assert!(check_regular_swmr(&bad).is_err());
        assert!(check_safe_swmr(&bad).is_err());
    }

    #[test]
    fn concurrent_read_old_or_new_is_regular() {
        // W(2) concurrent with R: both 1 (old) and 2 (new) are regular.
        for rv in [1u32, 2] {
            let mut h = History::new();
            h.complete_write(p(0), v(1));
            let w = h.invoke(p(0), Op::Write(v(2)));
            let r = h.invoke(p(1), Op::Read);
            h.reply(r, OpResult::ReadValue(v(rv)));
            h.reply(w, OpResult::Written);
            assert!(check_regular_swmr(&h).is_ok(), "rv={rv}");
        }
        // But 7 (never written) is not even safe? — safe allows anything
        // for concurrent reads.
        let mut h = History::new();
        h.complete_write(p(0), v(1));
        let w = h.invoke(p(0), Op::Write(v(2)));
        let r = h.invoke(p(1), Op::Read);
        h.reply(r, OpResult::ReadValue(v(7)));
        h.reply(w, OpResult::Written);
        assert!(check_regular_swmr(&h).is_err());
        assert!(
            check_safe_swmr(&h).is_ok(),
            "safe tolerates garbage under concurrency"
        );
    }

    #[test]
    fn regular_allows_new_old_inversion_unlike_atomicity() {
        // Two reads during one write: new then old. Regular accepts,
        // atomic would not.
        let mut h = History::new();
        h.complete_write(p(0), v(1));
        let w = h.invoke(p(0), Op::Write(v(2)));
        let r1 = h.invoke(p(1), Op::Read);
        h.reply(r1, OpResult::ReadValue(v(2)));
        let r2 = h.invoke(p(1), Op::Read);
        h.reply(r2, OpResult::ReadValue(v(1)));
        h.reply(w, OpResult::Written);
        assert!(check_regular_swmr(&h).is_ok());
        assert!(crate::check_persistent(&h).is_err());
    }

    #[test]
    fn multi_writer_is_rejected() {
        let mut h = History::new();
        h.complete_write(p(0), v(1));
        h.complete_write(p(1), v(2));
        assert!(matches!(
            check_regular_swmr(&h),
            Err(RegularViolation::MultipleWriters { .. })
        ));
    }

    #[test]
    fn initial_bottom_read_is_fine() {
        let mut h = History::new();
        h.complete_read(p(1), Value::bottom());
        assert!(check_regular_swmr(&h).is_ok());
        assert!(check_safe_swmr(&h).is_ok());
    }

    #[test]
    fn pending_write_read_by_someone_is_regular_via_completion() {
        let mut h = History::new();
        h.complete_write(p(0), v(1));
        let _w2 = h.invoke(p(0), Op::Write(v(2)));
        h.crash(p(0));
        let r = h.invoke(p(1), Op::Read);
        h.reply(r, OpResult::ReadValue(v(2)));
        assert!(check_regular_swmr(&h).is_ok());
    }

    #[test]
    fn crashy_forgotten_value_violates_regularity() {
        let mut h = History::new();
        h.complete_write(p(0), v(1));
        h.crash(p(0));
        h.recover(p(0));
        let r = h.invoke(p(1), Op::Read);
        h.reply(r, OpResult::ReadValue(Value::bottom()));
        assert!(check_regular_swmr(&h).is_err());
    }

    #[test]
    fn too_many_pending_writes_is_inconclusive_not_a_panic() {
        let mut h = History::new();
        for i in 0..MAX_PENDING_WRITES as u32 {
            h.invoke(p(0), Op::Write(v(i)));
            h.crash(p(0));
            h.recover(p(0));
        }
        let expected = Err(RegularViolation::Inconclusive(Inconclusive::PendingWrites(
            MAX_PENDING_WRITES,
        )));
        assert_eq!(check_regular_swmr(&h), expected);
        assert_eq!(check_safe_swmr(&h), expected);
    }
}
