//! Direct tests of the simulation engine's semantics, using small
//! purpose-built automatons (no register algorithms involved): crash
//! incarnation guards, partition directionality, quiescence detection,
//! and the causal-chain bookkeeping.

use std::sync::Arc;

use bytes::Bytes;
use rmem_sim::{ClusterConfig, PlannedEvent, Schedule, Simulation, VirtualTime};
use rmem_storage::StableStorage;
use rmem_types::{
    Action, Automaton, AutomatonFactory, Input, Message, Micros, ProcessId, RequestId,
    StableSnapshot, StoreToken, TimerToken,
};

/// An automaton that stores a record on `Start`, and after the store
/// completes sends an `SnReq` to process 1. Used to probe store/crash
/// interleavings and message delivery.
struct StoreThenSend {
    me: ProcessId,
}

impl Automaton for StoreThenSend {
    fn on_input(&mut self, input: Input, out: &mut Vec<Action>) {
        match input {
            Input::Start => {
                out.push(Action::Store {
                    token: StoreToken(1),
                    key: "probe".to_string(),
                    bytes: Bytes::from(vec![self.me.0 as u8]),
                });
            }
            Input::StoreDone(StoreToken(1)) => {
                out.push(Action::Send {
                    to: ProcessId(1),
                    msg: Message::SnReq {
                        req: RequestId::new(self.me, 7),
                    },
                });
            }
            _ => {}
        }
    }

    fn algorithm(&self) -> &'static str {
        "store-then-send"
    }
}

struct StoreThenSendFactory;

impl AutomatonFactory for StoreThenSendFactory {
    fn fresh(&self, me: ProcessId, _n: usize) -> Box<dyn Automaton> {
        Box::new(StoreThenSend { me })
    }

    fn recover(
        &self,
        me: ProcessId,
        _n: usize,
        _incarnation: u64,
        _stable: &dyn StableSnapshot,
    ) -> Box<dyn Automaton> {
        Box::new(StoreThenSend { me })
    }

    fn algorithm(&self) -> &'static str {
        "store-then-send"
    }
}

/// A store that is in flight when the process crashes never becomes
/// durable — and never triggers `StoreDone` for the next incarnation.
#[test]
fn in_flight_stores_die_with_the_crash() {
    // Stores take 200µs (default λ); crash p0 at t=100µs, mid-store.
    let schedule = Schedule::new().at(100, PlannedEvent::Crash(ProcessId(0)));
    let mut sim = Simulation::new(ClusterConfig::new(2), Arc::new(StoreThenSendFactory), 1)
        .with_schedule(schedule);
    let report = sim.run();
    assert_eq!(
        sim.storage(ProcessId(0)).retrieve("probe").unwrap(),
        None,
        "the in-flight store must be lost"
    );
    // p1's store (uninterrupted) landed.
    assert!(sim
        .storage(ProcessId(1))
        .retrieve("probe")
        .unwrap()
        .is_some());
    // p0 never sent its follow-up message (store never completed); p1 did.
    // p1's SnReq went to p1 itself (self-send).
    assert_eq!(report.trace.messages_sent, 1, "only p1's send happens");
}

/// Stores issued before the crash do not complete into the recovered
/// incarnation either (the recovered automaton re-stores on Start, so the
/// final record is the *second* incarnation's).
#[test]
fn recovered_incarnation_gets_no_stale_store_done() {
    let schedule = Schedule::new()
        .at(100, PlannedEvent::Crash(ProcessId(0)))
        .at(150, PlannedEvent::Recover(ProcessId(0)));
    let mut sim = Simulation::new(ClusterConfig::new(2), Arc::new(StoreThenSendFactory), 1)
        .with_schedule(schedule);
    let report = sim.run();
    // The recovered incarnation stored "probe" again on Start at t=150,
    // completing ≈t=350; both processes end with durable probes and each
    // sent exactly one message.
    assert!(sim
        .storage(ProcessId(0))
        .retrieve("probe")
        .unwrap()
        .is_some());
    assert_eq!(report.trace.messages_sent, 2);
}

/// Crashed receivers hear nothing, even for messages already in flight.
#[test]
fn messages_to_crashed_processes_vanish() {
    // p0's send departs ≈t=201 (after its 200µs store) and would arrive
    // at p1 ≈t=301; crash p1 at t=250 while the message is in flight.
    let schedule = Schedule::new().at(250, PlannedEvent::Crash(ProcessId(1)));
    let mut sim = Simulation::new(ClusterConfig::new(2), Arc::new(StoreThenSendFactory), 1)
        .with_schedule(schedule);
    let report = sim.run();
    // Two sends happened (p0→p1, p1→p1-self... p1's self-send at ~t=201
    // arrives ~t=202, before its crash).
    assert_eq!(report.trace.messages_sent, 2);
    assert_eq!(
        report.trace.messages_delivered, 1,
        "p0's message found p1 dead"
    );
}

/// Blocks are directional: blocking p0→p1 leaves p1→p0 intact.
#[test]
fn partitions_are_directional() {
    let schedule = Schedule::new()
        // Block p0's direction before anything is sent.
        .at(10, PlannedEvent::Block(ProcessId(0), ProcessId(1)));
    let mut sim = Simulation::new(ClusterConfig::new(2), Arc::new(StoreThenSendFactory), 1)
        .with_schedule(schedule);
    let report = sim.run();
    // p0's message to p1 dropped; p1's self-send unaffected.
    assert_eq!(report.trace.messages_sent, 2);
    assert_eq!(report.trace.messages_delivered, 1);
    assert_eq!(report.messages_dropped, 1);
}

/// An automaton that perpetually re-arms a timer and never reports ready
/// (like a recovery that cannot finish). The engine must still terminate
/// at `max_time` (the livelock guard) — note that *ready* automatons with
/// only timers pending are treated as quiescent and stopped early instead.
struct TimerLoop;

impl Automaton for TimerLoop {
    fn on_input(&mut self, input: Input, out: &mut Vec<Action>) {
        match input {
            Input::Start | Input::Timer(_) => {
                out.push(Action::SetTimer {
                    token: TimerToken(1),
                    after: Micros(1_000),
                });
            }
            _ => {}
        }
    }

    fn is_ready(&self) -> bool {
        false // a recovery that never completes
    }

    fn algorithm(&self) -> &'static str {
        "timer-loop"
    }
}

struct TimerLoopFactory;

impl AutomatonFactory for TimerLoopFactory {
    fn fresh(&self, _me: ProcessId, _n: usize) -> Box<dyn Automaton> {
        Box::new(TimerLoop)
    }

    fn recover(
        &self,
        _me: ProcessId,
        _n: usize,
        _incarnation: u64,
        _stable: &dyn StableSnapshot,
    ) -> Box<dyn Automaton> {
        Box::new(TimerLoop)
    }

    fn algorithm(&self) -> &'static str {
        "timer-loop"
    }
}

#[test]
fn max_time_stops_perpetual_timers() {
    let config = ClusterConfig::new(1).with_max_time(VirtualTime(50_000));
    let mut sim = Simulation::new(config, Arc::new(TimerLoopFactory), 1);
    let report = sim.run();
    assert!(!report.quiescent, "a never-ready timer loop cannot quiesce");
    assert!(report.final_time <= VirtualTime(50_000));
    // ~50 timer firings.
    assert!(
        (40..=60).contains(&report.events_processed),
        "{}",
        report.events_processed
    );
}

/// The flip side: a *ready*, idle automaton whose only pending events are
/// timers is quiescent — the engine stops instead of chasing
/// retransmission timers forever.
#[test]
fn ready_idle_timers_are_quiescent() {
    struct ReadyTimer;
    impl Automaton for ReadyTimer {
        fn on_input(&mut self, input: Input, out: &mut Vec<Action>) {
            if matches!(input, Input::Start) {
                out.push(Action::SetTimer {
                    token: TimerToken(1),
                    after: Micros(1_000),
                });
            }
        }
        fn algorithm(&self) -> &'static str {
            "ready-timer"
        }
    }
    struct F;
    impl AutomatonFactory for F {
        fn fresh(&self, _me: ProcessId, _n: usize) -> Box<dyn Automaton> {
            Box::new(ReadyTimer)
        }
        fn recover(
            &self,
            _me: ProcessId,
            _n: usize,
            _incarnation: u64,
            _stable: &dyn StableSnapshot,
        ) -> Box<dyn Automaton> {
            Box::new(ReadyTimer)
        }
        fn algorithm(&self) -> &'static str {
            "ready-timer"
        }
    }
    let mut sim = Simulation::new(ClusterConfig::new(2), Arc::new(F), 1);
    let report = sim.run();
    assert!(report.quiescent);
    // The quiescence check runs after each processed event, so exactly one
    // timer fires before the engine notices nothing meaningful remains.
    assert_eq!(
        report.events_processed, 1,
        "stop after the first idle timer"
    );
}

/// Timers set before a crash never fire in the next incarnation.
#[test]
fn timers_die_with_their_incarnation() {
    let config = ClusterConfig::new(1).with_max_time(VirtualTime(10_000));
    // Crash at 500 (timer armed at 0 for t=1000), recover at 600: the
    // recovered incarnation arms its own timer at 600 (fires 1600, 2600…).
    // If the stale timer fired, the recovered one would double-fire and
    // event counts would jump.
    let schedule = Schedule::new()
        .at(500, PlannedEvent::Crash(ProcessId(0)))
        .at(600, PlannedEvent::Recover(ProcessId(0)));
    let mut sim = Simulation::new(config, Arc::new(TimerLoopFactory), 1).with_schedule(schedule);
    let report = sim.run();
    // Events: crash + recover + the *discarded* pop of the stale pre-crash
    // timer (counted but not delivered) + timers at 1600, 2600, …, 9600
    // (9 of them) = 12. Had the stale timer actually fired, it would have
    // re-armed and added a 1000-spaced second train of firings.
    assert_eq!(
        report.events_processed,
        3 + 9,
        "stale timer fired (or one was lost)"
    );
}

/// An invocation on a register with an operation in flight queues at the
/// process's node core and starts when that operation completes, so the
/// register's history stays well-formed without involving the automaton.
#[test]
fn overlapping_invocations_queue_behind_the_running_one() {
    use rmem_core::Persistent;
    use rmem_types::{Op, OpResult, Value};
    let schedule = Schedule::new()
        .at(
            1_000,
            PlannedEvent::Invoke(ProcessId(0), Op::Write(Value::from_u32(1))),
        )
        // 100µs later the first write is still running (it needs ≈800µs).
        .at(1_100, PlannedEvent::Invoke(ProcessId(0), Op::Read));
    let mut sim =
        Simulation::new(ClusterConfig::new(3), Persistent::factory(), 3).with_schedule(schedule);
    let report = sim.run();
    assert_eq!(report.trace.invokes_dropped, 0, "nothing was refused");
    let ops = report.trace.operations();
    assert_eq!(ops.len(), 2);
    assert!(ops.iter().all(|o| o.is_completed()));
    let (write, read) = (&ops[0], &ops[1]);
    assert!(
        matches!(write.operation, Op::Write(_)),
        "FIFO: the write first"
    );
    assert_eq!(
        Some(read.invoked_at),
        write.completed_at,
        "the queued read starts as the write completes"
    );
    assert_eq!(read.result, Some(OpResult::ReadValue(Value::from_u32(1))));
    let history = report.trace.to_history();
    assert!(history.well_formed().is_ok());
    for (reg, outcome) in
        rmem_consistency::check_per_register(&history, rmem_consistency::Criterion::Persistent)
    {
        outcome.unwrap_or_else(|e| panic!("register {reg} not atomic: {e}"));
    }
}

/// An invocation at a crashed process is the one the engine drops.
#[test]
fn invocations_at_crashed_processes_are_dropped() {
    use rmem_core::Persistent;
    use rmem_types::{Op, Value};
    let schedule = Schedule::new()
        .at(500, PlannedEvent::Crash(ProcessId(0)))
        .at(
            1_000,
            PlannedEvent::Invoke(ProcessId(0), Op::Write(Value::from_u32(1))),
        )
        .at(1_000, PlannedEvent::Invoke(ProcessId(1), Op::Read));
    let mut sim =
        Simulation::new(ClusterConfig::new(3), Persistent::factory(), 3).with_schedule(schedule);
    let report = sim.run();
    assert_eq!(report.trace.invokes_dropped, 1);
    let ops = report.trace.operations();
    assert_eq!(ops.len(), 1, "only the live process's read started");
    assert_eq!(ops[0].op.pid, ProcessId(1));
    assert!(ops[0].is_completed());
}

/// The per-register operation table: overlapping invocations on
/// *distinct* registers of a shared memory run concurrently through one
/// process and all complete; each register's restriction of the history
/// stays well-formed and certifies.
#[test]
fn overlapping_invocations_on_distinct_registers_all_complete() {
    use rmem_core::{Persistent, SharedMemory};
    use rmem_types::{Op, RegisterId, Value};
    let mut schedule = Schedule::new();
    for r in 0..4u16 {
        // All four writes start within 40µs — far less than one
        // operation's two quorum round-trips — so they genuinely overlap.
        schedule = schedule.at(
            1_000 + r as u64 * 10,
            PlannedEvent::Invoke(
                ProcessId(0),
                Op::WriteAt(RegisterId(r), Value::from_u32(r as u32 + 1)),
            ),
        );
    }
    let mut sim = Simulation::new(
        ClusterConfig::new(3),
        SharedMemory::factory(Persistent::flavor()),
        5,
    )
    .with_schedule(schedule);
    let report = sim.run();
    assert_eq!(report.trace.invokes_dropped, 0, "no overlap was refused");
    let completed = report
        .trace
        .operations()
        .iter()
        .filter(|o| o.is_completed())
        .count();
    assert_eq!(completed, 4, "every concurrent register op completes");
    let history = report.trace.to_history();
    for (reg, outcome) in
        rmem_consistency::check_per_register(&history, rmem_consistency::Criterion::Persistent)
    {
        outcome.unwrap_or_else(|e| panic!("register {reg} not atomic: {e}"));
    }
}

/// Same-register invocations queue in FIFO order (per-register
/// sequentiality), and each starts when the one ahead of it completes.
#[test]
fn overlapping_invocations_on_the_same_register_queue_in_fifo_order() {
    use rmem_core::{Persistent, SharedMemory};
    use rmem_types::{Op, OpResult, RegisterId, Value};
    let reg = RegisterId(3);
    let schedule = Schedule::new()
        .at(
            1_000,
            PlannedEvent::Invoke(ProcessId(0), Op::WriteAt(reg, Value::from_u32(1))),
        )
        .at(1_100, PlannedEvent::Invoke(ProcessId(0), Op::ReadAt(reg)))
        .at(
            1_150,
            PlannedEvent::Invoke(ProcessId(0), Op::WriteAt(reg, Value::from_u32(2))),
        );
    let mut sim = Simulation::new(
        ClusterConfig::new(3),
        SharedMemory::factory(Persistent::flavor()),
        3,
    )
    .with_schedule(schedule);
    let report = sim.run();
    assert_eq!(report.trace.invokes_dropped, 0);
    let ops = report.trace.operations();
    assert_eq!(ops.len(), 3);
    assert!(ops.iter().all(|o| o.is_completed()));
    // Arrival order is start order, and no two overlap.
    assert!(matches!(ops[0].operation, Op::WriteAt(_, ref v) if *v == Value::from_u32(1)));
    assert!(matches!(ops[1].operation, Op::ReadAt(_)));
    assert!(matches!(ops[2].operation, Op::WriteAt(_, ref v) if *v == Value::from_u32(2)));
    for pair in ops.windows(2) {
        assert_eq!(Some(pair[1].invoked_at), pair[0].completed_at);
    }
    assert_eq!(ops[1].result, Some(OpResult::ReadValue(Value::from_u32(1))));
    let history = report.trace.to_history();
    assert!(history.well_formed().is_ok());
    for (reg, outcome) in
        rmem_consistency::check_per_register(&history, rmem_consistency::Criterion::Persistent)
    {
        outcome.unwrap_or_else(|e| panic!("register {reg} not atomic: {e}"));
    }
}

/// A completion advances only the closed loop that issued it: a scripted
/// operation finishing on another register of the same process does not
/// release the loop's next operation early.
#[test]
fn a_scripted_completion_does_not_advance_a_closed_loop() {
    use rmem_core::{Persistent, SharedMemory};
    use rmem_sim::workload::ClosedLoop;
    use rmem_types::{Op, RegisterId, Value};
    // The loop writes registers 0..4 back to back (≈800µs each); the
    // scripted read of register 9 starts at 300µs and completes inside
    // the loop's first write.
    let loop_ops: Vec<_> = (0..4u16)
        .map(|r| Op::WriteAt(RegisterId(r), Value::from_u32(u32::from(r) + 1)))
        .collect();
    let schedule = Schedule::new().at(
        300,
        PlannedEvent::Invoke(ProcessId(0), Op::ReadAt(RegisterId(9))),
    );
    let mut sim = Simulation::new(
        ClusterConfig::new(3),
        SharedMemory::factory(Persistent::flavor()),
        7,
    )
    .with_schedule(schedule);
    sim.add_closed_loop(ClosedLoop {
        pid: ProcessId(0),
        ops: loop_ops.clone(),
        think: Micros(10),
        start_after: Micros(10),
    });
    let report = sim.run();
    let ops = report.trace.operations();
    let scripted = ops
        .iter()
        .find(|o| o.operation == Op::ReadAt(RegisterId(9)))
        .expect("the scripted read ran");
    let looped: Vec<_> = ops
        .iter()
        .filter(|o| o.operation != Op::ReadAt(RegisterId(9)))
        .collect();
    assert!(scripted.is_completed());
    assert!(
        scripted.completed_at < looped[0].completed_at,
        "the scripted read must finish inside the loop's first write"
    );
    assert_eq!(looped.len(), loop_ops.len(), "every loop op ran");
    assert!(looped.iter().all(|o| o.is_completed()), "and completed");
    for (op, expected) in looped.iter().zip(&loop_ops) {
        assert_eq!(&op.operation, expected, "in the loop's order");
    }
    // Never two in flight: each starts one think time after the previous
    // one completed.
    for pair in looped.windows(2) {
        let done = pair[0].completed_at.expect("completed");
        assert_eq!(pair[1].invoked_at, done.after(Micros(10)));
    }
    assert_eq!(report.trace.invokes_dropped, 0);
}

/// An automaton probing the group-commit disk model: stores one record
/// on `Start`, then two more from a timer that fires while the first
/// commit is still in flight.
struct BurstStores;

impl Automaton for BurstStores {
    fn on_input(&mut self, input: Input, out: &mut Vec<Action>) {
        match input {
            Input::Start => {
                out.push(Action::Store {
                    token: StoreToken(1),
                    key: "a".to_string(),
                    bytes: Bytes::from_static(b"1"),
                });
                out.push(Action::SetTimer {
                    token: TimerToken(1),
                    after: Micros(100),
                });
            }
            Input::Timer(TimerToken(1)) => {
                for t in [2u64, 3] {
                    out.push(Action::Store {
                        token: StoreToken(t),
                        key: format!("k{t}"),
                        bytes: Bytes::from_static(b"x"),
                    });
                }
            }
            _ => {}
        }
    }

    fn algorithm(&self) -> &'static str {
        "burst-stores"
    }
}

struct BurstStoresFactory;

impl AutomatonFactory for BurstStoresFactory {
    fn fresh(&self, _me: ProcessId, _n: usize) -> Box<dyn Automaton> {
        Box::new(BurstStores)
    }

    fn recover(
        &self,
        _me: ProcessId,
        _n: usize,
        _boots: u64,
        _snapshot: &dyn StableSnapshot,
    ) -> Box<dyn Automaton> {
        Box::new(BurstStores)
    }

    fn algorithm(&self) -> &'static str {
        "burst-stores"
    }
}

/// The coalescing disk model: a store issued while a commit is in flight
/// waits for the disk (next group), and stores issued together share one
/// commit. Exact timeline with λ = 200µs, timer at 100µs:
/// store 1 commits at 200; stores 2 and 3 arrive at 100 mid-commit, form
/// the next group starting at 200, and both complete at 400.
#[test]
fn coalescing_disk_groups_and_serializes_commits() {
    let disk = rmem_sim::DiskConfig {
        base_latency: Micros(200),
        jitter: Micros(0),
        ns_per_byte: 0,
        coalesce: true,
    };
    let mut sim = Simulation::new(
        ClusterConfig::new(1)
            .with_disk(disk)
            .with_max_time(VirtualTime(10_000)),
        Arc::new(BurstStoresFactory),
        1,
    );
    let report = sim.run();
    assert_eq!(report.trace.stores_applied, 3);
    assert_eq!(
        report.trace.stores_coalesced, 1,
        "store 3 joins store 2's pending group"
    );
    assert_eq!(
        report.final_time,
        VirtualTime(400),
        "the grouped commit completes one λ after the first frees the disk"
    );

    // The same run without coalescing: unlimited parallel stores, the
    // timer's stores each pay their own λ from t=100.
    let mut sim = Simulation::new(
        ClusterConfig::new(1).with_max_time(VirtualTime(10_000)),
        Arc::new(BurstStoresFactory),
        1,
    );
    let report = sim.run();
    assert_eq!(report.trace.stores_coalesced, 0);
    assert_eq!(report.final_time, VirtualTime(300));
}

/// Delayed-durability interleavings stay deterministic and correct: one
/// node runs a 25× slower group-committing disk, concurrent writes on
/// distinct registers all complete (acks race ahead of the laggard's
/// stores), certification holds, and the whole run replays identically.
#[test]
fn slow_coalescing_disk_on_one_node_keeps_runs_atomic_and_deterministic() {
    use rmem_core::{Persistent, SharedMemory};
    use rmem_types::{Op, RegisterId, Value};
    let run = || {
        let mut schedule = Schedule::new();
        for r in 0..4u16 {
            schedule = schedule.at(
                1_000 + r as u64 * 10,
                PlannedEvent::Invoke(
                    ProcessId(0),
                    Op::WriteAt(RegisterId(r), Value::from_u32(r as u32 + 1)),
                ),
            );
            schedule = schedule.at(
                9_000 + r as u64 * 10,
                PlannedEvent::Invoke(ProcessId(1), Op::ReadAt(RegisterId(r))),
            );
        }
        let mut sim = Simulation::new(
            ClusterConfig::new(3).with_disk_at(2, rmem_sim::DiskConfig::coalescing(Micros(5_000))),
            SharedMemory::factory(Persistent::flavor()),
            17,
        )
        .with_schedule(schedule);
        let report = sim.run();
        let completed = report
            .trace
            .operations()
            .iter()
            .filter(|o| o.is_completed())
            .count();
        assert_eq!(
            completed, 8,
            "a slow minority disk must not block quorum operations"
        );
        let history = report.trace.to_history();
        for (reg, outcome) in
            rmem_consistency::check_per_register(&history, rmem_consistency::Criterion::Persistent)
        {
            outcome.unwrap_or_else(|e| panic!("register {reg} not atomic: {e}"));
        }
        assert!(
            report.trace.stores_coalesced > 0,
            "the laggard's stores must have shared commits"
        );
        (
            report.events_processed,
            report.trace.stores_applied,
            report.trace.stores_coalesced,
            report.final_time,
        )
    };
    assert_eq!(run(), run(), "same seed, same interleaving, same trace");
}

/// Deterministic tie-breaking: two events at the same instant execute in
/// insertion order, and the whole run replays identically.
#[test]
fn simultaneous_events_replay_identically() {
    let run = || {
        let schedule = Schedule::new()
            .at(100, PlannedEvent::Crash(ProcessId(0)))
            .at(100, PlannedEvent::Crash(ProcessId(1)))
            .at(200, PlannedEvent::Recover(ProcessId(1)))
            .at(200, PlannedEvent::Recover(ProcessId(0)));
        let mut sim = Simulation::new(
            ClusterConfig::new(2).with_max_time(VirtualTime(5_000)),
            Arc::new(StoreThenSendFactory),
            9,
        )
        .with_schedule(schedule);
        let report = sim.run();
        (
            report.events_processed,
            report.trace.messages_sent,
            report.final_time,
        )
    };
    assert_eq!(run(), run());
}

/// Recovery durations are measured for ready-gated automatons and absent
/// for instant ones.
#[test]
fn recovery_durations_are_recorded() {
    use rmem_core::{CrashStop, Transient};
    for (factory, expect_zero) in [(Transient::factory(), false), (CrashStop::factory(), true)] {
        let schedule = Schedule::new()
            .at(1_000, PlannedEvent::Crash(ProcessId(0)))
            .at(2_000, PlannedEvent::Recover(ProcessId(0)));
        let mut sim = Simulation::new(ClusterConfig::new(3), factory, 11).with_schedule(schedule);
        let report = sim.run();
        assert_eq!(report.trace.recovery_durations.len(), 1);
        let d = report.trace.recovery_durations[0];
        if expect_zero {
            assert_eq!(d, 0, "crash-stop recovery is free");
        } else {
            // Transient recovery = one λ-latency log.
            assert!((190..260).contains(&d), "transient recovery ≈ λ, got {d}");
        }
    }
}
