//! Property tests cross-validating the Wing–Gong search checker against a
//! brute-force permutation oracle on randomly generated small interval
//! histories and its cut-by-cut form against one search over the whole
//! history on histories of up to 128 ops, plus random-history sanity
//! properties of the atomicity checkers.

use proptest::prelude::*;
use rmem_consistency::intervals::IntervalOp;
use rmem_consistency::linearize::{linearize_monolithic, linearize_register, MAX_OPS};
use rmem_consistency::oracle::brute_force_linearize;
use rmem_consistency::{check_persistent, check_transient, History};
use rmem_types::{Op, OpId, OpKind, OpResult, ProcessId, Value};

/// Random interval operations over a tiny value domain, with intervals
/// drawn over a small index space (overlap is common).
fn arb_interval_ops(max_ops: usize) -> impl Strategy<Value = Vec<IntervalOp>> {
    arb_spread_ops(max_ops, 12)
}

/// As [`arb_interval_ops`], with invocations drawn from `0..span`: a span
/// that grows with the op count leaves quiescent cuts between the
/// overlapping stretches.
fn arb_spread_ops(max_ops: usize, span: usize) -> impl Strategy<Value = Vec<IntervalOp>> {
    proptest::collection::vec(
        (
            0u16..3,         // pid
            prop::bool::ANY, // is write
            0u32..3,         // value
            0usize..span,    // inv
            1usize..6,       // duration
        ),
        0..=max_ops,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (pid, is_write, v, inv, dur))| {
                let kind = if is_write {
                    OpKind::Write
                } else {
                    OpKind::Read
                };
                IntervalOp {
                    op: OpId::new(ProcessId(pid), i as u64),
                    kind,
                    write_value: is_write.then(|| Value::from_u32(v)),
                    read_value: (!is_write).then(|| {
                        if v == 0 {
                            Value::bottom()
                        } else {
                            Value::from_u32(v)
                        }
                    }),
                    inv,
                    end: inv + dur,
                    pending: false,
                }
            })
            .collect()
    })
}

/// Interval operations that linearize by construction: each op takes
/// effect at a point inside its interval and each read returns the value
/// at its point, except that about one read in twenty returns a random
/// value instead.
fn arb_near_legal_ops(max_ops: usize) -> impl Strategy<Value = Vec<IntervalOp>> {
    proptest::collection::vec(
        (
            (
                0u16..3,         // pid
                prop::bool::ANY, // is write
                1u32..4,         // value
            ),
            (
                0usize..2 * max_ops, // inv
                1usize..6,           // duration
                0usize..6,           // effect point, as an offset into the interval
                0u8..20,             // 0: the read returns `value` instead
            ),
        ),
        0..=max_ops,
    )
    .prop_map(|raw| {
        let point = |i: usize| {
            let (_, (inv, dur, offset, _)) = raw[i];
            inv + offset % dur
        };
        let mut by_point: Vec<usize> = (0..raw.len()).collect();
        by_point.sort_by_key(|&i| (point(i), i));
        let mut reads = vec![None; raw.len()];
        let mut current = Value::bottom();
        for i in by_point {
            let ((_, is_write, v), (_, _, _, corrupt)) = raw[i];
            if is_write {
                current = Value::from_u32(v);
            } else if corrupt == 0 {
                reads[i] = Some(Value::from_u32(v));
            } else {
                reads[i] = Some(current.clone());
            }
        }
        raw.iter()
            .zip(reads)
            .enumerate()
            .map(
                |(i, (&((pid, is_write, v), (inv, dur, _, _)), read))| IntervalOp {
                    op: OpId::new(ProcessId(pid), i as u64),
                    kind: if is_write {
                        OpKind::Write
                    } else {
                        OpKind::Read
                    },
                    write_value: is_write.then(|| Value::from_u32(v)),
                    read_value: read,
                    inv,
                    end: inv + dur,
                    pending: false,
                },
            )
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The search checker and the brute-force oracle agree on every small
    /// random interval history.
    #[test]
    fn checker_matches_oracle(ops in arb_interval_ops(6)) {
        let fast = linearize_register(&ops).unwrap().is_some();
        let slow = brute_force_linearize(&ops).is_some();
        prop_assert_eq!(fast, slow, "disagreement on {:?}", ops);
    }

    /// Splitting at quiescent cuts changes no verdict: the cut-by-cut
    /// search and one search over the whole history agree on every
    /// history the generators here produce, up to `MAX_OPS` ops.
    #[test]
    fn cut_search_matches_monolithic_search(
        small in arb_interval_ops(6),
        spread in arb_spread_ops(MAX_OPS, 2 * MAX_OPS),
        near_legal in arb_near_legal_ops(MAX_OPS),
    ) {
        for ops in [small, spread, near_legal] {
            let cut = linearize_register(&ops).unwrap().is_some();
            let whole = linearize_monolithic(&ops).unwrap().is_some();
            prop_assert_eq!(cut, whole, "disagreement on {:?}", ops);
        }
    }

    /// A returned witness is itself a valid linearization: precedence and
    /// register semantics hold along it.
    #[test]
    fn witness_is_sound(ops in arb_interval_ops(6)) {
        if let Some(witness) = linearize_register(&ops).unwrap() {
            prop_assert_eq!(witness.len(), ops.len());
            // Replay the witness.
            let pos: std::collections::HashMap<_, _> =
                witness.iter().enumerate().map(|(i, op)| (*op, i)).collect();
            for a in &ops {
                for b in &ops {
                    if a.op != b.op && a.precedes(b) {
                        prop_assert!(pos[&a.op] < pos[&b.op], "precedence violated");
                    }
                }
            }
            let mut current: Option<&Value> = None;
            for opid in &witness {
                let op = ops.iter().find(|o| o.op == *opid).unwrap();
                match op.kind {
                    OpKind::Write => current = op.write_value.as_ref(),
                    OpKind::Read => {
                        let rv = op.read_value.as_ref().unwrap();
                        match current {
                            Some(cv) => prop_assert_eq!(rv, cv),
                            None => prop_assert!(rv.is_bottom()),
                        }
                    }
                }
            }
        }
    }
}

/// Random *sequential* histories (each op completes before the next
/// starts, globally) where every read returns the latest written value:
/// always atomic under both criteria.
fn arb_legal_sequential_history() -> impl Strategy<Value = History> {
    proptest::collection::vec((0u16..3, prop::bool::ANY, 1u32..5), 0..10).prop_map(|steps| {
        let mut h = History::new();
        let mut current: Option<u32> = None;
        for (pid, is_write, v) in steps {
            if is_write {
                h.complete_write(ProcessId(pid), Value::from_u32(v));
                current = Some(v);
            } else {
                let val = current.map(Value::from_u32).unwrap_or_else(Value::bottom);
                h.complete_read(ProcessId(pid), val);
            }
        }
        h
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Legal sequential histories satisfy both criteria.
    #[test]
    fn legal_sequential_histories_pass(h in arb_legal_sequential_history()) {
        prop_assert!(check_persistent(&h).is_ok());
        prop_assert!(check_transient(&h).is_ok());
    }

    /// Persistent atomicity implies transient atomicity (the paper's
    /// containment, §III-C): any history accepted by the persistent
    /// checker is accepted by the transient checker.
    #[test]
    fn persistent_implies_transient(
        steps in proptest::collection::vec((0u16..3, 0u8..4, 1u32..4), 0..8)
    ) {
        // Generate histories with crashes and pending ops; the containment
        // must hold whether or not the history is atomic.
        let mut h = History::new();
        let mut crashed = [false; 3];
        let mut pending: [Option<OpId>; 3] = [None; 3];
        let mut latest = Value::bottom();
        for (pid, action, v) in steps {
            let p = ProcessId(pid);
            let i = pid as usize;
            match action {
                0 if !crashed[i] && pending[i].is_none() => {
                    let op = h.invoke(p, Op::Write(Value::from_u32(v)));
                    h.reply(op, OpResult::Written);
                    latest = Value::from_u32(v);
                }
                1 if !crashed[i] && pending[i].is_none() => {
                    let op = h.invoke(p, Op::Read);
                    h.reply(op, OpResult::ReadValue(latest.clone()));
                }
                2 if !crashed[i] => {
                    if pending[i].is_none() {
                        pending[i] = Some(h.invoke(p, Op::Write(Value::from_u32(v))));
                    }
                    h.crash(p);
                    crashed[i] = true;
                    pending[i] = None;
                }
                3 if crashed[i] => {
                    h.recover(p);
                    crashed[i] = false;
                }
                _ => {}
            }
        }
        if check_persistent(&h).is_ok() {
            prop_assert!(
                check_transient(&h).is_ok(),
                "persistent-atomic history rejected by transient checker: {:?}", h
            );
        }
    }
}
