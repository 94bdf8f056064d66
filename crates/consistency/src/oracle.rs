//! Brute-force linearizability oracle for cross-validating the search
//! checker on small histories.
//!
//! Enumerates every permutation of the operations and checks (a) interval
//! precedence and (b) register semantics directly. Exponential — intended
//! for property tests over ≤ 8 operations.

use rmem_types::{OpId, OpKind};

use crate::intervals::IntervalOp;

/// Maximum operation count the oracle accepts.
pub const MAX_ORACLE_OPS: usize = 9;

/// Returns a witness order if `ops` linearizes, by exhaustive permutation
/// search.
///
/// # Panics
///
/// Panics if `ops.len() > MAX_ORACLE_OPS`.
pub fn brute_force_linearize(ops: &[IntervalOp]) -> Option<Vec<OpId>> {
    assert!(
        ops.len() <= MAX_ORACLE_OPS,
        "oracle limited to {MAX_ORACLE_OPS} ops"
    );
    let n = ops.len();
    let mut perm: Vec<usize> = (0..n).collect();
    loop {
        if check_order(ops, &perm) {
            return Some(perm.iter().map(|&i| ops[i].op).collect());
        }
        if !next_permutation(&mut perm) {
            return None;
        }
    }
}

fn check_order(ops: &[IntervalOp], order: &[usize]) -> bool {
    // (a) precedence: if a's interval ends before b's begins, a must come
    // first.
    for (pos_a, &a) in order.iter().enumerate() {
        for &b in &order[pos_a + 1..] {
            // b comes after a in the candidate order; reject if b must
            // precede a.
            if ops[b].precedes(&ops[a]) {
                return false;
            }
        }
    }
    // (b) register semantics.
    let mut current: Option<&rmem_types::Value> = None;
    for &i in order {
        match ops[i].kind {
            OpKind::Write => current = ops[i].write_value.as_ref(),
            OpKind::Read => match (&ops[i].read_value, current) {
                (Some(rv), Some(cv)) => {
                    if rv != cv {
                        return false;
                    }
                }
                (Some(rv), None) => {
                    if !rv.is_bottom() {
                        return false;
                    }
                }
                (None, _) => {}
            },
        }
    }
    true
}

fn next_permutation(perm: &mut [usize]) -> bool {
    let n = perm.len();
    if n < 2 {
        return false;
    }
    let mut i = n - 1;
    while i > 0 && perm[i - 1] >= perm[i] {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    let mut j = n - 1;
    while perm[j] <= perm[i - 1] {
        j -= 1;
    }
    perm.swap(i - 1, j);
    perm[i..].reverse();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linearize::linearize_register;
    use rmem_types::{ProcessId, Value};

    fn op(pid: u16, c: u64, kind: OpKind, val: u32, inv: usize, end: usize) -> IntervalOp {
        IntervalOp {
            op: OpId::new(ProcessId(pid), c),
            kind,
            write_value: (kind == OpKind::Write).then(|| Value::from_u32(val)),
            read_value: (kind == OpKind::Read).then(|| Value::from_u32(val)),
            inv,
            end,
            pending: false,
        }
    }

    #[test]
    fn oracle_agrees_with_checker_on_fixed_cases() {
        let cases: Vec<Vec<IntervalOp>> = vec![
            vec![],
            vec![
                op(0, 0, OpKind::Write, 1, 0, 1),
                op(1, 0, OpKind::Read, 1, 2, 3),
            ],
            vec![
                op(0, 0, OpKind::Write, 1, 0, 1),
                op(1, 0, OpKind::Read, 2, 2, 3),
            ],
            vec![
                op(0, 0, OpKind::Write, 1, 0, 3),
                op(1, 0, OpKind::Write, 2, 1, 2),
                op(2, 0, OpKind::Read, 1, 4, 5),
            ],
            vec![
                op(0, 0, OpKind::Write, 1, 0, 1),
                op(0, 1, OpKind::Write, 2, 2, 3),
                op(1, 0, OpKind::Read, 2, 4, 5),
                op(1, 1, OpKind::Read, 1, 6, 7),
            ],
        ];
        for ops in cases {
            let fast = linearize_register(&ops).unwrap().is_some();
            let slow = brute_force_linearize(&ops).is_some();
            assert_eq!(fast, slow, "disagreement on {ops:?}");
        }
    }

    #[test]
    fn permutation_enumeration_is_complete() {
        let mut perm = vec![0usize, 1, 2];
        let mut count = 1;
        while next_permutation(&mut perm) {
            count += 1;
        }
        assert_eq!(count, 6);
    }

    #[test]
    #[should_panic(expected = "oracle limited")]
    fn oracle_rejects_large_inputs() {
        let ops: Vec<_> = (0..10)
            .map(|i| op(0, i as u64, OpKind::Write, 0, 2 * i, 2 * i + 1))
            .collect();
        let _ = brute_force_linearize(&ops);
    }
}
