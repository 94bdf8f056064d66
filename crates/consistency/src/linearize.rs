//! Register linearizability search over operation intervals.
//!
//! This is the Wing–Gong search specialised to a single read/write
//! register, with the standard memoization on (set of linearized ops,
//! current register value): once a state is known to fail, it is never
//! explored again.
//!
//! The search runs stretch by stretch. A *quiescent cut* is a point of
//! the history where no operation is pending: every operation before it
//! precedes every operation after it, so every linearization places the
//! former first. [`linearize_register`] splits the history at each cut and
//! carries the set of values the register may hold across it, which gives
//! exactly the verdict of one search over the whole history
//! ([`linearize_monolithic`]) while bounding only the length of a stretch,
//! not of the history. A stretch of more than [`MAX_OPS`] operations (the
//! search mask is a `u128`) makes the search [`Inconclusive`], never a
//! panic.

use std::collections::HashSet;

use rmem_types::{OpId, OpKind, Value};

use crate::intervals::IntervalOp;

/// Maximum number of operations in one stretch between quiescent cuts.
pub const MAX_OPS: usize = 128;

/// Why a check gave up without a verdict: the history is neither
/// certified nor refuted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inconclusive {
    /// A stretch between two quiescent cuts holds this many operations,
    /// more than [`MAX_OPS`].
    Segment(usize),
    /// This many pending writes: too many keep/drop choices to enumerate
    /// (see [`crate::atomicity`]).
    PendingWrites(usize),
}

impl std::fmt::Display for Inconclusive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Inconclusive::Segment(n) => write!(
                f,
                "{n} operations between quiescent cuts (the search supports {MAX_OPS})"
            ),
            Inconclusive::PendingWrites(n) => {
                write!(f, "{n} pending writes, too many completions to enumerate")
            }
        }
    }
}

/// The register value: `None` is the initial ⊥.
type RegValue = Option<Value>;

/// Attempts to linearize `ops` (a complete set of interval operations on
/// one register with initial value ⊥), one stretch between quiescent cuts
/// at a time.
///
/// Returns a witness order (operation ids in linearization order) if one
/// exists, `None` otherwise.
///
/// # Errors
///
/// [`Inconclusive::Segment`] if a stretch between quiescent cuts holds
/// more than [`MAX_OPS`] operations.
pub fn linearize_register(ops: &[IntervalOp]) -> Result<Option<Vec<OpId>>, Inconclusive> {
    let segments = quiescent_segments(ops);
    if let Some(long) = segments.iter().find(|seg| seg.len() > MAX_OPS) {
        return Err(Inconclusive::Segment(long.len()));
    }
    let Some((last, earlier)) = segments.split_last() else {
        return Ok(Some(Vec::new()));
    };

    // Forward: the values the register may hold after each stretch but
    // the last, from each value it may hold before it.
    let mut before: Vec<RegValue> = vec![None];
    let mut moves: Vec<Vec<(RegValue, Vec<RegValue>)>> = Vec::with_capacity(earlier.len());
    for seg in earlier {
        let mut after: Vec<RegValue> = Vec::new();
        let mut seg_moves = Vec::with_capacity(before.len());
        for start in before {
            let mut ends: Vec<RegValue> = Vec::new();
            search(seg, start.as_ref(), &mut |end| {
                push_new(&mut ends, end.cloned());
                false
            });
            for end in &ends {
                push_new(&mut after, end.clone());
            }
            seg_moves.push((start, ends));
        }
        if after.is_empty() {
            return Ok(None);
        }
        moves.push(seg_moves);
        before = after;
    }

    // The last stretch needs only one linearization, from any value.
    let Some((mut target, last_order)) = before
        .into_iter()
        .find_map(|start| search(last, start.as_ref(), &mut |_| true).map(|o| (start, o)))
    else {
        return Ok(None);
    };

    // Backward: a chain of starts that ends in `target`, with a witness
    // for each stretch.
    let mut orders = vec![last_order];
    for (seg, seg_moves) in earlier.iter().zip(&moves).rev() {
        let (start, _) = seg_moves
            .iter()
            .find(|(_, ends)| ends.contains(&target))
            .expect("every carried value was reached from some start");
        let order = search(seg, start.as_ref(), &mut |end| end == target.as_ref())
            .expect("the forward pass reached this value");
        orders.push(order);
        target = start.clone();
    }
    Ok(Some(orders.into_iter().rev().flatten().collect()))
}

/// Attempts to linearize `ops` with one search over the whole history:
/// the reference [`linearize_register`] must agree with.
///
/// # Errors
///
/// [`Inconclusive::Segment`] if `ops` holds more than [`MAX_OPS`]
/// operations.
pub fn linearize_monolithic(ops: &[IntervalOp]) -> Result<Option<Vec<OpId>>, Inconclusive> {
    if ops.len() > MAX_OPS {
        return Err(Inconclusive::Segment(ops.len()));
    }
    let all: Vec<&IntervalOp> = ops.iter().collect();
    Ok(search(&all, None, &mut |_| true))
}

fn push_new(values: &mut Vec<RegValue>, value: RegValue) {
    if !values.contains(&value) {
        values.push(value);
    }
}

/// Splits `ops` at every quiescent cut: each stretch, in time order,
/// holds operations that all follow every operation of the stretches
/// before it.
fn quiescent_segments(ops: &[IntervalOp]) -> Vec<Vec<&IntervalOp>> {
    let mut sorted: Vec<&IntervalOp> = ops.iter().collect();
    sorted.sort_by_key(|op| op.inv);
    let mut segments: Vec<Vec<&IntervalOp>> = Vec::new();
    let mut max_end = 0;
    for op in sorted {
        match segments.last_mut() {
            Some(seg) if op.inv <= max_end => seg.push(op),
            // Every op so far ends before this one begins: a cut.
            _ => segments.push(vec![op]),
        }
        max_end = max_end.max(op.end);
    }
    segments
}

/// Searches the linearizations of `ops` (at most [`MAX_OPS`]) from the
/// register value `start`, and returns the first whose final value
/// `accept` takes. An `accept` that never takes one visits every
/// reachable final value.
fn search(
    ops: &[&IntervalOp],
    start: Option<&Value>,
    accept: &mut dyn FnMut(Option<&Value>) -> bool,
) -> Option<Vec<OpId>> {
    debug_assert!(ops.len() <= MAX_OPS);
    let n = ops.len();
    let full: u128 = if n == 128 {
        u128::MAX
    } else {
        (1u128 << n) - 1
    };

    // `last_write` encodes the register value: usize::MAX = `start`.
    const START: usize = usize::MAX;

    struct Search<'a, 'f> {
        ops: &'a [&'a IntervalOp],
        start: Option<&'a Value>,
        full: u128,
        accept: &'f mut dyn FnMut(Option<&Value>) -> bool,
        failed: HashSet<(u128, usize)>,
        stack: Vec<usize>,
    }

    impl<'a> Search<'a, '_> {
        fn value(&self, last_write: usize) -> Option<&'a Value> {
            if last_write == START {
                self.start
            } else {
                self.ops[last_write].write_value.as_ref()
            }
        }

        fn dfs(&mut self, done: u128, last_write: usize) -> bool {
            if done == self.full {
                let value = self.value(last_write);
                return (self.accept)(value);
            }
            if self.failed.contains(&(done, last_write)) {
                return false;
            }

            // Frontier: the earliest end among un-linearized ops. Only ops
            // invoked before it may linearize next.
            let ops = self.ops;
            let mut min_end = usize::MAX;
            for (i, op) in ops.iter().enumerate() {
                if done & (1 << i) == 0 {
                    min_end = min_end.min(op.end);
                }
            }

            for (i, op) in ops.iter().enumerate() {
                if done & (1 << i) != 0 || op.inv > min_end {
                    continue;
                }
                // Semantic admissibility.
                let (ok, next_last) = match op.kind {
                    OpKind::Write => (true, i),
                    OpKind::Read => {
                        let ok = match (&op.read_value, self.value(last_write)) {
                            (Some(rv), Some(cv)) => rv == cv,
                            (Some(rv), None) => rv.is_bottom(),
                            // A read with an unknown return value
                            // (shouldn't occur: pending reads are dropped)
                            // matches anything.
                            (None, _) => true,
                        };
                        (ok, last_write)
                    }
                };
                if !ok {
                    continue;
                }
                self.stack.push(i);
                if self.dfs(done | (1 << i), next_last) {
                    return true;
                }
                self.stack.pop();
            }

            self.failed.insert((done, last_write));
            false
        }
    }

    let mut search = Search {
        ops,
        start,
        full,
        accept,
        failed: HashSet::new(),
        stack: Vec::with_capacity(n),
    };
    if search.dfs(0, START) {
        Some(search.stack.iter().map(|&i| ops[i].op).collect())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmem_types::ProcessId;

    fn p(i: u16) -> ProcessId {
        ProcessId(i)
    }

    fn write(pid: u16, counter: u64, v: u32, inv: usize, end: usize) -> IntervalOp {
        IntervalOp {
            op: OpId::new(p(pid), counter),
            kind: OpKind::Write,
            write_value: Some(Value::from_u32(v)),
            read_value: None,
            inv,
            end,
            pending: false,
        }
    }

    fn read(pid: u16, counter: u64, v: Option<u32>, inv: usize, end: usize) -> IntervalOp {
        IntervalOp {
            op: OpId::new(p(pid), counter),
            kind: OpKind::Read,
            write_value: None,
            read_value: Some(v.map(Value::from_u32).unwrap_or_else(Value::bottom)),
            inv,
            end,
            pending: false,
        }
    }

    #[test]
    fn empty_history_linearizes() {
        assert_eq!(linearize_register(&[]), Ok(Some(vec![])));
    }

    #[test]
    fn sequential_write_then_read() {
        let ops = [write(0, 0, 1, 0, 1), read(1, 0, Some(1), 2, 3)];
        let order = linearize_register(&ops).unwrap().expect("linearizable");
        assert_eq!(order, vec![ops[0].op, ops[1].op]);
    }

    #[test]
    fn stale_read_after_write_completes_is_rejected() {
        // W(1) completes before R begins, yet R returns ⊥.
        let ops = [write(0, 0, 1, 0, 1), read(1, 0, None, 2, 3)];
        assert_eq!(linearize_register(&ops), Ok(None));
    }

    #[test]
    fn concurrent_read_may_return_old_or_new() {
        // W(1) overlaps R: both ⊥ and 1 are acceptable.
        for rv in [None, Some(1)] {
            let ops = [write(0, 0, 1, 0, 3), read(1, 0, rv, 1, 2)];
            assert!(linearize_register(&ops).unwrap().is_some(), "rv={rv:?}");
        }
        // But a value never written is not.
        let ops = [write(0, 0, 1, 0, 3), read(1, 0, Some(7), 1, 2)];
        assert_eq!(linearize_register(&ops), Ok(None));
    }

    #[test]
    fn new_old_inversion_is_rejected() {
        // Two sequential reads concurrent with nothing: first returns the
        // new value, second returns the old one — the classic atomicity
        // violation.
        let ops = [
            write(0, 0, 1, 0, 1),
            write(0, 1, 2, 2, 3),
            read(1, 0, Some(2), 4, 5),
            read(1, 1, Some(1), 6, 7),
        ];
        assert_eq!(linearize_register(&ops), Ok(None));
    }

    #[test]
    fn read_your_own_write_is_required() {
        let ops = [write(0, 0, 5, 0, 1), read(0, 1, None, 2, 3)];
        assert_eq!(linearize_register(&ops), Ok(None));
    }

    #[test]
    fn interleaved_writers_with_consistent_reads() {
        // W_a(1) || W_b(2), then R=2, R=2: order a<b works.
        let ops = [
            write(0, 0, 1, 0, 3),
            write(1, 0, 2, 1, 2),
            read(2, 0, Some(2), 4, 5),
            read(2, 1, Some(2), 6, 7),
        ];
        assert!(linearize_register(&ops).unwrap().is_some());
    }

    #[test]
    fn reads_disagreeing_on_concurrent_write_order_fail() {
        // W_a(1) || W_b(2) both complete, then R=1, R=2, R=1: the third
        // read inverts.
        let ops = [
            write(0, 0, 1, 0, 2),
            write(1, 0, 2, 1, 3),
            read(2, 0, Some(1), 4, 5),
            read(2, 1, Some(2), 6, 7),
            read(2, 2, Some(1), 8, 9),
        ];
        assert_eq!(linearize_register(&ops), Ok(None));
    }

    #[test]
    fn pending_write_with_open_interval_can_absorb_late_reads() {
        // Pending W(2) (interval open to MAX): a much later read may see 2.
        let ops = [
            write(0, 0, 1, 0, 1),
            IntervalOp {
                pending: true,
                ..write(0, 1, 2, 2, usize::MAX)
            },
            read(1, 0, Some(2), 10, 11),
        ];
        assert!(linearize_register(&ops).unwrap().is_some());
    }

    #[test]
    fn duplicate_written_values_are_handled() {
        // Two writes of the same value; reads of that value always legal.
        let ops = [
            write(0, 0, 7, 0, 1),
            write(1, 0, 7, 2, 3),
            read(2, 0, Some(7), 4, 5),
        ];
        assert!(linearize_register(&ops).unwrap().is_some());
    }

    #[test]
    fn witness_order_respects_precedence_and_semantics() {
        let ops = [
            write(0, 0, 1, 0, 1),
            write(1, 0, 2, 2, 3),
            read(2, 0, Some(2), 4, 5),
        ];
        let order = linearize_register(&ops).unwrap().unwrap();
        assert_eq!(order.len(), 3);
        // W(1) must precede W(2) (real time); read comes last.
        let pos = |op: OpId| order.iter().position(|&o| o == op).unwrap();
        assert!(pos(ops[0].op) < pos(ops[1].op));
        assert!(pos(ops[1].op) < pos(ops[2].op));
    }

    #[test]
    fn long_histories_with_quiescent_cuts_are_searched() {
        // 300 sequential write/read pairs: far past MAX_OPS in total, but
        // every stretch between cuts holds one op.
        let mut ops = Vec::new();
        for i in 0..300u32 {
            let t = 4 * i as usize;
            ops.push(write(0, 2 * i as u64, i, t, t + 1));
            ops.push(read(1, 2 * i as u64 + 1, Some(i), t + 2, t + 3));
        }
        let order = linearize_register(&ops).unwrap().expect("linearizable");
        assert_eq!(order, ops.iter().map(|o| o.op).collect::<Vec<_>>());
        // A stale read at the very end is still caught.
        ops.push(read(1, 999, Some(3), 2000, 2001));
        assert_eq!(linearize_register(&ops), Ok(None));
        assert_eq!(linearize_monolithic(&ops), Err(Inconclusive::Segment(601)));
    }

    #[test]
    fn values_carried_across_a_cut_keep_every_choice() {
        // W(1) || W(2), cut, R=1, then R=2 would be an inversion; but
        // either value alone may be what the register holds at the cut.
        for v in [1, 2] {
            let ops = [
                write(0, 0, 1, 0, 3),
                write(1, 0, 2, 1, 2),
                read(2, 0, Some(v), 4, 5),
                read(2, 1, Some(v), 6, 7),
            ];
            let order = linearize_register(&ops).unwrap().expect("linearizable");
            // The witness ends the concurrent pair with the write the
            // reads saw.
            let last_write = if v == 1 { ops[0].op } else { ops[1].op };
            assert_eq!(order[1], last_write, "v={v}");
            assert!(linearize_monolithic(&ops).unwrap().is_some());
        }
    }

    #[test]
    fn a_stretch_past_max_ops_is_inconclusive() {
        // 129 mutually concurrent writes: no cut splits them.
        let ops: Vec<_> = (0..129).map(|i| write(i, 0, 0, i as usize, 1000)).collect();
        assert_eq!(linearize_register(&ops), Err(Inconclusive::Segment(129)));
        // With a cut before them, the stretch is still what counts.
        let mut cut = vec![write(200, 0, 9, 0, 1)];
        cut.extend((0..129).map(|i| write(i, 0, 0, 2 + i as usize, 1000)));
        assert_eq!(linearize_register(&cut), Err(Inconclusive::Segment(129)));
    }
}
