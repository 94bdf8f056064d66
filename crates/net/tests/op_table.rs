//! Property tests of the runner's per-register operation table.
//!
//! Two properties, over randomized shapes of concurrency through **one**
//! runner's client:
//!
//! 1. operations on *distinct* registers all complete — no hang — and
//!    the recorded history certifies atomic per register (each concurrent
//!    thread is one logical client process, so every register's
//!    restriction is a well-formed sequential history);
//! 2. operations racing on the *same* register all complete — the runner
//!    queues each behind the one in flight — and the history, one
//!    process per racer, certifies atomic per register.
//!
//! Plus one pinned case of the withdraw path: a cancelled invocation still
//! queued behind its register's operation never starts.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rmem_consistency::{check_per_register, Criterion, History};
use rmem_core::{SharedMemory, Transient};
use rmem_net::{ClientError, LocalCluster, PipelinedClient};
use rmem_types::{Op, OpResult, ProcessId, RegisterId, Value};

fn cluster() -> LocalCluster {
    LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap()
}

proptest! {
    // Each case spins a real-threaded 3-process cluster; keep the case
    // count modest so the sweep stays CI-sized.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Concurrent operations on distinct registers through one runner all
    /// complete and the run certifies atomic per register.
    #[test]
    fn distinct_register_ops_all_complete_and_certify(
        // How many ops (1..=3) each of 2..=6 registers issues.
        per_register in proptest::collection::vec(1usize..=3, 2..=6),
    ) {
        let mut cluster = cluster();
        let client = cluster.client(ProcessId(0));
        let history = Arc::new(Mutex::new(History::new()));
        std::thread::scope(|scope| {
            for (r, &ops) in per_register.iter().enumerate() {
                let client = client.clone();
                let history = history.clone();
                // One logical client process per register thread.
                let pid = ProcessId(r as u16);
                let reg = RegisterId(r as u16);
                scope.spawn(move || {
                    for i in 0..ops {
                        let value = Value::from_u32((r * 100 + i) as u32);
                        let op = history
                            .lock()
                            .unwrap()
                            .invoke(pid, Op::WriteAt(reg, value.clone()));
                        client.write_at(reg, value).expect("write must complete");
                        history.lock().unwrap().reply(op, OpResult::Written);
                    }
                    let op = history.lock().unwrap().invoke(pid, Op::ReadAt(reg));
                    let v = client.read_at(reg).expect("read must complete");
                    // A panicking assert: scope propagates panics, while a
                    // returned Err would be silently dropped.
                    assert_eq!(
                        v.as_u32(),
                        Some((r * 100 + ops - 1) as u32),
                        "the read must return the thread's last write"
                    );
                    history
                        .lock()
                        .unwrap()
                        .reply(op, OpResult::ReadValue(v));
                });
            }
        });
        let history = Arc::try_unwrap(history).unwrap().into_inner().unwrap();
        prop_assert_eq!(
            history.pending_ops().len(),
            0,
            "every operation got its reply"
        );
        for (reg, outcome) in check_per_register(&history, Criterion::Transient) {
            prop_assert!(
                outcome.is_ok(),
                "register {} not atomic: {:?}",
                reg,
                outcome.err()
            );
        }
        cluster.shutdown();
    }

    /// Races on one register: every racer's write completes (the runner
    /// queues it behind the register's operation in flight) and the
    /// recorded history, one process per racer, certifies atomic.
    #[test]
    fn same_register_races_all_complete_and_certify(
        threads in 2usize..=5,
        reg in 0u16..4,
    ) {
        let mut cluster = cluster();
        let client = cluster.client(ProcessId(0));
        let reg = RegisterId(reg);
        let history = Arc::new(Mutex::new(History::new()));
        let outcomes: Vec<Result<(), ClientError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|i| {
                    let client = client.clone();
                    let history = history.clone();
                    let pid = ProcessId(i as u16);
                    scope.spawn(move || {
                        let value = Value::from_u32(i as u32);
                        let op = history
                            .lock()
                            .unwrap()
                            .invoke(pid, Op::WriteAt(reg, value.clone()));
                        let outcome = client.write_at(reg, value);
                        if outcome.is_ok() {
                            history.lock().unwrap().reply(op, OpResult::Written);
                        }
                        outcome
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for outcome in &outcomes {
            prop_assert!(outcome.is_ok(), "a queued racer failed: {:?}", outcome);
        }
        // The register is idle again afterwards: a fresh read completes
        // and returns one of the racers' values.
        let reader = ProcessId(threads as u16);
        let op = history.lock().unwrap().invoke(reader, Op::ReadAt(reg));
        let v = client.read_at(reg).expect("the register must not wedge");
        prop_assert!(v.as_u32().is_some_and(|v| (v as usize) < threads));
        history.lock().unwrap().reply(op, OpResult::ReadValue(v));
        let history = Arc::try_unwrap(history).unwrap().into_inner().unwrap();
        for (reg, outcome) in check_per_register(&history, Criterion::Transient) {
            prop_assert!(
                outcome.is_ok(),
                "register {} not atomic: {:?}",
                reg,
                outcome.err()
            );
        }
        cluster.shutdown();
    }
}

/// A write cancelled while it waits behind an admitted write on the same
/// register is withdrawn at the node and never lands: reads after the
/// admitted write completes see its value, never the cancelled one.
#[test]
fn cancelled_queued_write_is_withdrawn_and_never_lands() {
    let mut cluster = cluster();
    let fan = PipelinedClient::fan(&cluster.clients());
    let reg = RegisterId(0);
    let metric = |cluster: &LocalCluster, name| cluster.metrics(ProcessId(0)).counter(name);
    // Without its peers node 0 admits the first write but cannot reach a
    // quorum, so the second write queues behind it.
    cluster.kill(ProcessId(1));
    cluster.kill(ProcessId(2));
    let first = fan.submit_write(0, reg, Value::from_u32(1)).unwrap();
    let second = fan.submit_write(0, reg, Value::from_u32(2)).unwrap();
    assert!(fan.cancel(second));
    // Let node 0 drop the queued write before a quorum is back.
    let mut attempts = 0;
    while metric(&cluster, "runner.withdrawn") == 0 {
        attempts += 1;
        assert!(attempts < 10_000, "node 0 never withdrew the write");
        std::thread::sleep(std::time::Duration::from_micros(100));
    }
    cluster.restart(ProcessId(1)).unwrap();
    cluster.restart(ProcessId(2)).unwrap();
    let (result, _) = fan.wait(first).expect("the admitted write completes");
    assert_eq!(result, OpResult::Written);
    // The restarted peers have new control channels: read through a
    // fresh fan.
    let readers = PipelinedClient::fan(&cluster.clients());
    for node in 0..3 {
        let read = readers.submit_read(node, reg).unwrap();
        let (result, _) = readers.wait(read).expect("the read completes");
        assert_eq!(
            result,
            OpResult::ReadValue(Value::from_u32(1)),
            "node {node}"
        );
    }
    assert_eq!(metric(&cluster, "runner.queued"), 1);
    assert_eq!(metric(&cluster, "runner.withdrawn"), 1);
    cluster.shutdown();
}
