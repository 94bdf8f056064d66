//! The shared register machinery, configured by a [`Flavor`].
//!
//! One automaton implements every register in the family; the flavor
//! flags select which logs and rounds exist, mirroring how the paper
//! derives Fig. 5 from Fig. 4 "with a few minor changes". The code
//! comments cite pseudocode line numbers from the paper throughout.

use std::collections::VecDeque;

use rmem_storage::records::{
    RecoveredRecord, WritingRecord, WrittenRecord, KEY_RECOVERED, KEY_WRITING, KEY_WRITTEN,
};
use rmem_types::{
    Action, Automaton, AutomatonFactory, Input, LeaseGrant, Message, Micros, Op, OpId, OpResult,
    ProcessId, RejectReason, RequestId, Seq, StableSnapshot, StoreToken, TimerToken, Timestamp,
    Value,
};

use crate::flavor::{Flavor, RecoveryPolicy};
use crate::quorum::QuorumCall;
use crate::replica::Replica;

/// The in-flight phase of a client operation.
#[derive(Debug)]
enum OpPhase {
    /// Write, round 1: collecting sequence numbers (Fig. 4 lines 7–10).
    WriteQuery {
        value: Value,
        call: QuorumCall,
        max_seq: Seq,
        timer: TimerToken,
    },
    /// Persistent write, between rounds: waiting for the `writing` pre-log
    /// (Fig. 4 line 12).
    WritePreLog {
        ts: Timestamp,
        value: Value,
        token: StoreToken,
    },
    /// Write, round 2: propagating the tagged value (Fig. 4 lines 13–15).
    WritePropagate {
        ts: Timestamp,
        value: Value,
        call: QuorumCall,
        timer: TimerToken,
    },
    /// Read, round 1: collecting tagged values (Fig. 4 lines 32–35).
    ReadQuery {
        call: QuorumCall,
        best_ts: Timestamp,
        best_value: Value,
        /// Tag reported by the first ack, for the confirmed-timestamp
        /// fast path: the write-back may be skipped only if every later
        /// ack matches it (`None` until the first ack arrives).
        agreed: Option<Timestamp>,
        /// Whether every ack so far reported the agreed tag *and*
        /// attested it durable. Conservative across duplicates: a replica
        /// whose retransmitted ack carries a newer tag clears the flag
        /// even though the quorum might still be unanimous.
        all_agree: bool,
        /// Whether every ack so far carried a tag-lease grant. A lease
        /// may only be minted from a quorum that *unanimously* granted:
        /// a grant-less ack means that replica will not fence newer
        /// writes for us.
        all_granted: bool,
        /// The lease-horizon timer armed when the read was broadcast —
        /// the conservative pre-send clock stamp the minted lease
        /// expires against. `None` once the horizon fired mid-round
        /// (too slow to mint) or when the flavor does not lease.
        lease_armed: Option<TimerToken>,
        timer: TimerToken,
    },
    /// Read, round 2: writing back the freshest value (Fig. 4 lines
    /// 36–38).
    ReadWriteBack {
        ts: Timestamp,
        value: Value,
        call: QuorumCall,
        timer: TimerToken,
    },
}

/// The recovery procedure's phase (between `Start` and readiness).
#[derive(Debug)]
enum RecoveryPhase {
    /// Waiting for the `recovered` counter store (Fig. 5 lines 19–21).
    StoreRec { token: StoreToken },
    /// Re-propagating the logged `writing` record (Fig. 4 lines 43–46).
    FinishWrite {
        ts: Timestamp,
        value: Value,
        call: QuorumCall,
        timer: TimerToken,
    },
    /// Regular register only: re-learning the write frontier from a
    /// majority.
    QuerySeq {
        call: QuorumCall,
        max_seq: Seq,
        timer: TimerToken,
    },
}

/// Which path constructed the automaton (drives `Start` handling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StartMode {
    Fresh,
    Recovered,
}

/// A live coordinator-held tag lease: while it lives, reads of this
/// register are served locally in zero rounds. Minted from a fast-path
/// quorum whose acks unanimously carried grants; died by its horizon
/// timer (armed at read *broadcast* time, so it expires before any
/// granting replica releases a fenced newer write) or by any locally
/// observed newer tag.
#[derive(Debug)]
struct Lease {
    ts: Timestamp,
    value: Value,
    horizon: TimerToken,
}

/// The lease term the replica role fences with: the flavor's term when
/// it actually leases, else 0 (inert).
fn replica_lease(flavor: &Flavor) -> u64 {
    if flavor.leases() {
        flavor.lease_micros
    } else {
        0
    }
}

/// The register automaton (see [`crate`] docs for the family table).
pub struct RegisterAutomaton {
    me: ProcessId,
    n: usize,
    majority: usize,
    flavor: Flavor,
    retransmit: Micros,
    start_mode: StartMode,
    replica: Replica,
    /// Stable recovery count (transient/regular flavors).
    rec: u64,
    /// Writer-local next sequence number (regular flavor only).
    next_wsn: Seq,
    /// The `writing` record to re-finish on recovery (persistent flavor).
    writing: Option<WritingRecord>,
    op: Option<(OpId, OpPhase)>,
    recovery: Option<RecoveryPhase>,
    /// Live tag lease (leasing flavors only).
    lease: Option<Lease>,
    ready: bool,
    queued: VecDeque<(OpId, Op)>,
    token_counter: u64,
    nonce_counter: u64,
}

impl std::fmt::Debug for RegisterAutomaton {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegisterAutomaton")
            .field("me", &self.me)
            .field("flavor", &self.flavor.name)
            .field("ready", &self.ready)
            .field("busy", &self.op.is_some())
            .finish()
    }
}

/// Post-increments a token counter: the generator the replica role draws
/// its store and timer tokens from.
fn bump(counter: &mut u64) -> u64 {
    *counter += 1;
    *counter - 1
}

impl RegisterAutomaton {
    /// Builds a fresh automaton (first boot, empty stable storage).
    pub fn fresh(me: ProcessId, n: usize, flavor: Flavor, retransmit: Micros) -> Self {
        RegisterAutomaton {
            me,
            n,
            majority: rmem_types::process::majority(n),
            flavor,
            retransmit,
            start_mode: StartMode::Fresh,
            replica: Replica::new(me, flavor.replica_logs).with_lease(replica_lease(&flavor)),
            rec: 0,
            next_wsn: 1,
            writing: None,
            op: None,
            recovery: None,
            lease: None,
            ready: false,
            queued: VecDeque::new(),
            token_counter: 0,
            nonce_counter: 0,
        }
    }

    /// Rebuilds an automaton from its stable snapshot after a crash.
    ///
    /// `incarnation` feeds the request-nonce space (see
    /// [`AutomatonFactory::recover`]).
    pub fn recovered(
        me: ProcessId,
        n: usize,
        flavor: Flavor,
        retransmit: Micros,
        incarnation: u64,
        stable: &dyn StableSnapshot,
    ) -> Self {
        // Fig. 4 lines 41–42 / Fig. 5 lines 17–18: restore the replica.
        let replica = match stable.get(KEY_WRITTEN) {
            Some(bytes) => match WrittenRecord::decode(&bytes) {
                Ok(rec) => Replica::restored(me, flavor.replica_logs, &rec),
                Err(_) => Replica::new(me, flavor.replica_logs),
            },
            None => Replica::new(me, flavor.replica_logs),
        }
        .with_lease(replica_lease(&flavor));
        let rec = stable
            .get(KEY_RECOVERED)
            .and_then(|b| RecoveredRecord::decode(&b).ok())
            .map(|r| r.count)
            .unwrap_or(0);
        let writing = stable
            .get(KEY_WRITING)
            .and_then(|b| WritingRecord::decode(&b).ok());
        let next_wsn = replica.timestamp().seq + 1;
        RegisterAutomaton {
            me,
            n,
            majority: rmem_types::process::majority(n),
            flavor,
            retransmit,
            start_mode: StartMode::Recovered,
            replica,
            rec,
            next_wsn,
            writing,
            op: None,
            recovery: None,
            lease: None,
            ready: false,
            queued: VecDeque::new(),
            token_counter: 0,
            // Nonces from different incarnations must never collide; acks
            // can straddle a crash/recovery.
            nonce_counter: (incarnation + 1) << 32,
        }
    }

    /// The replica-held tag (exposed for tests and diagnostics).
    pub fn replica_timestamp(&self) -> Timestamp {
        self.replica.timestamp()
    }

    /// The replica-held value (exposed for tests and diagnostics).
    pub fn replica_value(&self) -> &Value {
        self.replica.value()
    }

    fn next_token(&mut self) -> StoreToken {
        StoreToken(bump(&mut self.token_counter))
    }

    fn next_timer(&mut self) -> TimerToken {
        TimerToken(bump(&mut self.token_counter))
    }

    fn next_req(&mut self) -> RequestId {
        let r = RequestId::new(self.me, self.nonce_counter);
        self.nonce_counter += 1;
        r
    }

    fn broadcast(&self, msg: &Message, out: &mut Vec<Action>) {
        out.extend(Action::broadcast(self.n, msg));
    }

    fn arm_timer(&mut self, out: &mut Vec<Action>) -> TimerToken {
        let timer = self.next_timer();
        out.push(Action::SetTimer {
            token: timer,
            after: self.retransmit,
        });
        timer
    }

    // -- Start / recovery -------------------------------------------------

    fn on_start(&mut self, out: &mut Vec<Action>) {
        match self.start_mode {
            StartMode::Fresh => {
                // Fig. 4 lines 1–5 / Fig. 5 lines 1–5: initial records.
                // Not ack-gated; the automaton is immediately ready.
                let counter = &mut self.token_counter;
                self.replica.initial_store(&mut || bump(counter), out);
                if self.flavor.write_pre_log {
                    let token = self.next_token();
                    let record = WritingRecord {
                        ts: Timestamp::new(0, self.me),
                        value: Value::bottom(),
                    };
                    self.writing = Some(record.clone());
                    out.push(Action::Store {
                        token,
                        key: KEY_WRITING.to_string(),
                        bytes: record.encode(),
                    });
                }
                if self.flavor.rec_in_timestamp {
                    let token = self.next_token();
                    let record = RecoveredRecord { count: 0 };
                    out.push(Action::Store {
                        token,
                        key: KEY_RECOVERED.to_string(),
                        bytes: record.encode(),
                    });
                }
                self.ready = true;
            }
            StartMode::Recovered => {
                // A recovered leasing replica cannot know which grants its
                // previous incarnation issued: fence every write ack for
                // one full hold term before trusting quiescence.
                let counter = &mut self.token_counter;
                self.replica.boot_hold(&mut || bump(counter), out);
                self.start_recovery(out)
            }
        }
    }

    fn start_recovery(&mut self, out: &mut Vec<Action>) {
        match self.flavor.recovery {
            RecoveryPolicy::Nothing => {
                self.ready = true;
            }
            RecoveryPolicy::FinishWrite => {
                // Fig. 4 lines 43–46: re-run the propagation round for the
                // logged writing record (harmless if that write in fact
                // completed — older tags are rejected everywhere).
                match self.writing.clone() {
                    Some(rec) => {
                        let req = self.next_req();
                        let call = QuorumCall::new(req, self.majority);
                        self.broadcast(
                            &Message::Write {
                                req,
                                ts: rec.ts,
                                value: rec.value.clone(),
                            },
                            out,
                        );
                        let timer = self.arm_timer(out);
                        self.recovery = Some(RecoveryPhase::FinishWrite {
                            ts: rec.ts,
                            value: rec.value,
                            call,
                            timer,
                        });
                    }
                    None => {
                        // Crashed before Initialize finished: nothing to
                        // re-finish.
                        self.ready = true;
                    }
                }
            }
            RecoveryPolicy::RecCounter | RecoveryPolicy::RecCounterAndQuery => {
                // Fig. 5 lines 19–21: bump and store the recovery counter
                // before serving anything.
                self.rec += 1;
                let token = self.next_token();
                let record = RecoveredRecord { count: self.rec };
                out.push(Action::Store {
                    token,
                    key: KEY_RECOVERED.to_string(),
                    bytes: record.encode(),
                });
                self.recovery = Some(RecoveryPhase::StoreRec { token });
            }
        }
    }

    fn recovery_store_done(&mut self, out: &mut Vec<Action>) {
        if self.flavor.recovery == RecoveryPolicy::RecCounterAndQuery {
            let req = self.next_req();
            let call = QuorumCall::new(req, self.majority);
            self.broadcast(&Message::SnReq { req }, out);
            let timer = self.arm_timer(out);
            self.recovery = Some(RecoveryPhase::QuerySeq {
                call,
                max_seq: 0,
                timer,
            });
        } else {
            self.finish_recovery(out);
        }
    }

    fn finish_recovery(&mut self, out: &mut Vec<Action>) {
        self.recovery = None;
        self.ready = true;
        self.drain_queue(out);
    }

    fn drain_queue(&mut self, out: &mut Vec<Action>) {
        if self.op.is_none() && self.ready {
            if let Some((op, operation)) = self.queued.pop_front() {
                self.begin_op(op, operation, out);
            }
        }
    }

    // -- Client operations ------------------------------------------------

    fn on_invoke(&mut self, op: OpId, operation: Op, out: &mut Vec<Action>) {
        if self.op.is_some() {
            // The runtime normally prevents this (§III-A sequential
            // processes); refuse rather than corrupt state.
            out.push(Action::Complete {
                op,
                result: OpResult::Rejected(RejectReason::Busy),
                rounds: 0,
                lease: None,
            });
            return;
        }
        if !self.ready {
            self.queued.push_back((op, operation));
            return;
        }
        self.begin_op(op, operation, out);
    }

    fn begin_op(&mut self, op: OpId, operation: Op, out: &mut Vec<Action>) {
        // A bare register automaton serves the default register only; the
        // shared-memory layer (`crate::memory`) strips addresses before
        // they get here.
        match operation.normalized() {
            Op::Write(value) => {
                if self.flavor.write_query_round {
                    // Fig. 4 lines 7–10: query a majority for sequence
                    // numbers.
                    let req = self.next_req();
                    let call = QuorumCall::new(req, self.majority);
                    self.broadcast(&Message::SnReq { req }, out);
                    let timer = self.arm_timer(out);
                    self.op = Some((
                        op,
                        OpPhase::WriteQuery {
                            value,
                            call,
                            max_seq: 0,
                            timer,
                        },
                    ));
                } else {
                    // Regular register: the single writer numbers writes
                    // locally.
                    let ts = Timestamp::new(self.next_wsn, self.me);
                    self.next_wsn += 1;
                    self.start_propagate(op, ts, value, out);
                }
            }
            Op::Read => {
                // Zero-round path: a live lease proves no write newer than
                // the leased tag can have completed yet (every granting
                // replica still fences its ack), so serving the leased
                // value locally linearizes before any such write.
                if let Some(l) = &self.lease {
                    out.push(Action::Complete {
                        op,
                        result: OpResult::ReadValue(l.value.clone()),
                        rounds: 0,
                        lease: None,
                    });
                    self.drain_queue(out);
                    return;
                }
                // Fig. 4 lines 32–35.
                let req = self.next_req();
                let call = QuorumCall::new(req, self.majority);
                self.broadcast(&Message::Read { req }, out);
                // Leasing flavors stamp the lease horizon *before* any
                // replica can have seen the query: the minted lease then
                // provably dies before a granting replica releases a
                // fenced newer write.
                let lease_armed = if self.flavor.leases() {
                    let horizon = self.next_timer();
                    out.push(Action::SetTimer {
                        token: horizon,
                        after: Micros(self.flavor.lease_micros),
                    });
                    Some(horizon)
                } else {
                    None
                };
                let timer = self.arm_timer(out);
                self.op = Some((
                    op,
                    OpPhase::ReadQuery {
                        call,
                        best_ts: Timestamp::new(0, self.me),
                        best_value: Value::bottom(),
                        agreed: None,
                        all_agree: true,
                        all_granted: true,
                        lease_armed,
                        timer,
                    },
                ));
            }
            // `normalized()` maps the addressed forms onto the two above.
            Op::ReadAt(_) | Op::WriteAt(..) => unreachable!("normalized() strips addresses"),
        }
    }

    fn start_propagate(&mut self, op: OpId, ts: Timestamp, value: Value, out: &mut Vec<Action>) {
        // Fig. 4 lines 13–15 (and Fig. 5 lines 12–14).
        let req = self.next_req();
        let call = QuorumCall::new(req, self.majority);
        self.broadcast(
            &Message::Write {
                req,
                ts,
                value: value.clone(),
            },
            out,
        );
        let timer = self.arm_timer(out);
        self.op = Some((
            op,
            OpPhase::WritePropagate {
                ts,
                value,
                call,
                timer,
            },
        ));
    }

    fn query_majority_reached(
        &mut self,
        op: OpId,
        value: Value,
        max_seq: Seq,
        out: &mut Vec<Action>,
    ) {
        // Fig. 4 line 11: sn := sn + 1 — Fig. 5 line 11: sn := sn + rec + 1.
        let rec_component = if self.flavor.rec_in_timestamp {
            self.rec
        } else {
            0
        };
        let ts = Timestamp::new(max_seq + rec_component + 1, self.me);
        if self.flavor.write_pre_log {
            // Fig. 4 line 12: the pre-log — the first causal log of a
            // persistent write. The propagation round waits for it.
            let token = self.next_token();
            let record = WritingRecord {
                ts,
                value: value.clone(),
            };
            self.writing = Some(record.clone());
            out.push(Action::Store {
                token,
                key: KEY_WRITING.to_string(),
                bytes: record.encode(),
            });
            self.op = Some((op, OpPhase::WritePreLog { ts, value, token }));
        } else {
            self.start_propagate(op, ts, value, out);
        }
    }

    // -- Input dispatch ----------------------------------------------------

    fn on_message(&mut self, from: ProcessId, msg: Message, out: &mut Vec<Action>) {
        // Replica role first: requests are fully handled there.
        {
            let counter = &mut self.token_counter;
            if self
                .replica
                .on_message(from, &msg, &mut || bump(counter), out)
            {
                // Any locally adopted newer tag kills the lease on the
                // spot: the leased value is provably no longer freshest.
                self.invalidate_lease_if_older_than(self.replica.timestamp());
                return;
            }
        }

        // Acks: route to the recovery phase or the running operation.
        match msg {
            Message::SnAck { req, seq } => self.on_sn_ack(from, req, seq, out),
            Message::WriteAck { req } => self.on_write_ack(from, req, out),
            Message::ReadAck {
                req,
                ts,
                value,
                durable,
                grant,
            } => self.on_read_ack(from, req, ts, value, durable, grant, out),
            _ => {}
        }
    }

    /// Drops the lease if a tag strictly newer than the leased one has
    /// been observed (the grant fence only covers writes *newer* than
    /// the minimum granted tag, so equality keeps the lease).
    fn invalidate_lease_if_older_than(&mut self, observed: Timestamp) {
        if self.lease.as_ref().is_some_and(|l| observed > l.ts) {
            self.lease = None;
        }
    }

    fn on_sn_ack(&mut self, from: ProcessId, req: RequestId, seq: Seq, out: &mut Vec<Action>) {
        // Recovery-time frontier query (regular flavor).
        let mut recovery_done: Option<Seq> = None;
        if let Some(RecoveryPhase::QuerySeq { call, max_seq, .. }) = &mut self.recovery {
            if call.matches(req) {
                *max_seq = (*max_seq).max(seq);
                if call.record(from) {
                    recovery_done = Some(*max_seq);
                } else {
                    return;
                }
            }
        }
        if let Some(max_seq) = recovery_done {
            // Re-seed the writer-local counter beyond anything a majority
            // has seen, plus one slot per past crash for in-flight writes
            // nobody logged.
            self.next_wsn = self.next_wsn.max(max_seq + self.rec + 1);
            self.finish_recovery(out);
            return;
        }

        // Write query round.
        let mut reached: Option<(OpId, Value, Seq)> = None;
        if let Some((
            op,
            OpPhase::WriteQuery {
                value,
                call,
                max_seq,
                ..
            },
        )) = &mut self.op
        {
            if call.matches(req) {
                *max_seq = (*max_seq).max(seq);
                if call.record(from) {
                    reached = Some((*op, value.clone(), *max_seq));
                }
            }
        }
        if let Some((op, value, max_seq)) = reached {
            self.op = None;
            self.query_majority_reached(op, value, max_seq, out);
        }
    }

    fn on_write_ack(&mut self, from: ProcessId, req: RequestId, out: &mut Vec<Action>) {
        // Recovery-time write completion (persistent flavor).
        let mut recovery_done = false;
        if let Some(RecoveryPhase::FinishWrite { call, .. }) = &mut self.recovery {
            if call.matches(req) {
                if call.record(from) {
                    recovery_done = true;
                } else {
                    return;
                }
            }
        }
        if recovery_done {
            self.finish_recovery(out);
            return;
        }

        enum Done {
            No,
            Write(OpId, Timestamp),
            Read(OpId, Timestamp, Value),
        }
        let mut done = Done::No;
        // Nested `if` rather than `&&` in the guards: `record` mutates the
        // call, which pattern guards may not.
        #[allow(clippy::collapsible_match)]
        match &mut self.op {
            Some((op, OpPhase::WritePropagate { ts, call, .. })) if call.matches(req) => {
                if call.record(from) {
                    done = Done::Write(*op, *ts);
                }
            }
            Some((
                op,
                OpPhase::ReadWriteBack {
                    ts, value, call, ..
                },
            )) if call.matches(req) => {
                if call.record(from) {
                    done = Done::Read(*op, *ts, value.clone());
                }
            }
            _ => {}
        }
        match done {
            Done::No => {}
            Done::Write(op, ts) => {
                self.op = None;
                // Our own completed write supersedes any older lease.
                self.invalidate_lease_if_older_than(ts);
                // Fig. 4 line 16: the write returns (after its query and
                // propagation rounds; the regular writer skips the query).
                let rounds = if self.flavor.write_query_round { 2 } else { 1 };
                out.push(Action::Complete {
                    op,
                    result: OpResult::Written,
                    rounds,
                    lease: None,
                });
                self.drain_queue(out);
            }
            Done::Read(op, ts, value) => {
                self.op = None;
                self.invalidate_lease_if_older_than(ts);
                // Fig. 4 line 39: the read returns the written-back value.
                out.push(Action::Complete {
                    op,
                    result: OpResult::ReadValue(value),
                    rounds: 2,
                    lease: None,
                });
                self.drain_queue(out);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_read_ack(
        &mut self,
        from: ProcessId,
        req: RequestId,
        ts: Timestamp,
        value: Value,
        durable: bool,
        grant: u32,
        out: &mut Vec<Action>,
    ) {
        let mut reached: Option<(OpId, Timestamp, Value, bool, bool, Option<TimerToken>)> = None;
        if let Some((
            op,
            OpPhase::ReadQuery {
                call,
                best_ts,
                best_value,
                agreed,
                all_agree,
                all_granted,
                lease_armed,
                ..
            },
        )) = &mut self.op
        {
            if call.matches(req) {
                // Confirmed-timestamp bookkeeping: unanimity requires
                // every ack to carry the agreed tag and attest it durable.
                // Two never-written replicas "agree" even though their
                // initial tags differ in the pid component — both report
                // seq 0 and ⊥, and ⊥ cannot be new-old inverted.
                match agreed {
                    None => *agreed = Some(ts),
                    Some(first) => {
                        let both_initial = ts.seq == 0 && first.seq == 0;
                        if ts != *first && !both_initial {
                            *all_agree = false;
                        }
                    }
                }
                if !durable {
                    *all_agree = false;
                }
                // A lease needs every replier fencing for us.
                if grant == 0 {
                    *all_granted = false;
                }
                // Fig. 4 line 35: select the value with the highest tag.
                if ts > *best_ts {
                    *best_ts = ts;
                    *best_value = value;
                }
                if call.record(from) {
                    reached = Some((
                        *op,
                        *best_ts,
                        best_value.clone(),
                        *all_agree,
                        *all_granted,
                        *lease_armed,
                    ));
                }
            }
        }
        let Some((op, ts, value, all_agree, all_granted, lease_armed)) = reached else {
            return;
        };
        self.op = None;
        // The fast path: a unanimous quorum of durable tags proves a
        // majority already stably holds `ts`, so the write-back (Fig. 4
        // lines 36–38) would be redundant — every later quorum intersects
        // this one in a replica that can never again report less than `ts`.
        let fast = self.flavor.read_fast_path && all_agree;
        if self.flavor.read_write_back && !fast {
            // Fig. 4 lines 36–38: write back before returning.
            let req = self.next_req();
            let call = QuorumCall::new(req, self.majority);
            self.broadcast(
                &Message::Write {
                    req,
                    ts,
                    value: value.clone(),
                },
                out,
            );
            let timer = self.arm_timer(out);
            self.op = Some((
                op,
                OpPhase::ReadWriteBack {
                    ts,
                    value,
                    call,
                    timer,
                },
            ));
        } else {
            // Single-round read: the regular register always, the atomic
            // flavors when the fast path fired.
            //
            // Lease minting: every replier granted, and the horizon timer
            // armed at broadcast has not fired yet — the whole quorum has
            // promised to fence any newer write past that horizon, so
            // until then this tag *is* the register.
            let minted = if fast && all_granted && !self.replica_newer_than(ts) {
                lease_armed.map(|horizon| {
                    self.lease = Some(Lease {
                        ts,
                        value: value.clone(),
                        horizon,
                    });
                    LeaseGrant {
                        ts,
                        micros: u32::try_from(self.flavor.lease_micros).unwrap_or(u32::MAX),
                    }
                })
            } else {
                None
            };
            out.push(Action::Complete {
                op,
                result: OpResult::ReadValue(value),
                rounds: 1,
                lease: minted,
            });
            self.drain_queue(out);
        }
    }

    /// Whether the local replica already holds a tag strictly newer than
    /// `ts` — minting a lease on an older tag would serve stale reads.
    fn replica_newer_than(&self, ts: Timestamp) -> bool {
        self.replica.timestamp() > ts
    }

    fn on_store_done(&mut self, token: StoreToken, out: &mut Vec<Action>) {
        if self.replica.on_store_done(token, out) {
            return;
        }
        if let Some(RecoveryPhase::StoreRec { token: t }) = &self.recovery {
            if *t == token {
                self.recovery_store_done(out);
                return;
            }
        }
        let mut prelogged: Option<(OpId, Timestamp, Value)> = None;
        if let Some((
            op,
            OpPhase::WritePreLog {
                ts,
                value,
                token: t,
            },
        )) = &self.op
        {
            if *t == token {
                prelogged = Some((*op, *ts, value.clone()));
            }
        }
        if let Some((op, ts, value)) = prelogged {
            self.op = None;
            // Pre-log durable: the second round may begin.
            self.start_propagate(op, ts, value, out);
        }
    }

    fn on_timer(&mut self, token: TimerToken, out: &mut Vec<Action>) {
        // A minted lease's horizon: the lease dies, reads go back to the
        // quorum (and may mint afresh).
        if self.lease.as_ref().is_some_and(|l| l.horizon == token) {
            self.lease = None;
            return;
        }
        // A horizon that fires while its read is still collecting acks:
        // too slow to mint — the replicas' fences may open before a
        // lease clocked from this stamp would expire.
        if let Some((_, OpPhase::ReadQuery { lease_armed, .. })) = &mut self.op {
            if *lease_armed == Some(token) {
                *lease_armed = None;
                return;
            }
        }
        // The replica role's grant-fence horizon.
        {
            let counter = &mut self.token_counter;
            if self.replica.on_timer(token, &mut || bump(counter), out) {
                return;
            }
        }
        // Retransmit whatever round is still waiting for acks, then
        // re-arm. Stale timers (from completed rounds) match nothing and
        // die silently.
        let resend: Option<Message> = {
            let from_recovery = self.recovery.as_ref().and_then(|phase| match phase {
                RecoveryPhase::FinishWrite {
                    ts,
                    value,
                    call,
                    timer,
                } if *timer == token => Some(Message::Write {
                    req: call.request_id(),
                    ts: *ts,
                    value: value.clone(),
                }),
                RecoveryPhase::QuerySeq { call, timer, .. } if *timer == token => {
                    Some(Message::SnReq {
                        req: call.request_id(),
                    })
                }
                _ => None,
            });
            let from_op = self.op.as_ref().and_then(|(_, phase)| match phase {
                OpPhase::WriteQuery { call, timer, .. } if *timer == token => {
                    Some(Message::SnReq {
                        req: call.request_id(),
                    })
                }
                OpPhase::WritePropagate {
                    ts,
                    value,
                    call,
                    timer,
                } if *timer == token => Some(Message::Write {
                    req: call.request_id(),
                    ts: *ts,
                    value: value.clone(),
                }),
                OpPhase::ReadQuery { call, timer, .. } if *timer == token => Some(Message::Read {
                    req: call.request_id(),
                }),
                OpPhase::ReadWriteBack {
                    ts,
                    value,
                    call,
                    timer,
                } if *timer == token => Some(Message::Write {
                    req: call.request_id(),
                    ts: *ts,
                    value: value.clone(),
                }),
                _ => None,
            });
            from_recovery.or(from_op)
        };

        let Some(msg) = resend else { return };
        self.broadcast(&msg, out);
        let new_timer = self.arm_timer(out);
        if let Some(phase) = &mut self.recovery {
            match phase {
                RecoveryPhase::FinishWrite { timer, .. }
                | RecoveryPhase::QuerySeq { timer, .. }
                    if *timer == token =>
                {
                    *timer = new_timer;
                    return;
                }
                _ => {}
            }
        }
        if let Some((_, phase)) = &mut self.op {
            match phase {
                OpPhase::WriteQuery { timer, .. }
                | OpPhase::WritePropagate { timer, .. }
                | OpPhase::ReadQuery { timer, .. }
                | OpPhase::ReadWriteBack { timer, .. }
                    if *timer == token =>
                {
                    *timer = new_timer;
                }
                _ => {}
            }
        }
    }
}

impl Automaton for RegisterAutomaton {
    fn on_input(&mut self, input: Input, out: &mut Vec<Action>) {
        match input {
            Input::Start => self.on_start(out),
            Input::Invoke { op, operation } => self.on_invoke(op, operation, out),
            Input::Message { from, msg } => self.on_message(from, msg, out),
            Input::StoreDone(token) => self.on_store_done(token, out),
            Input::Timer(token) => self.on_timer(token, out),
        }
    }

    fn is_ready(&self) -> bool {
        self.ready
    }

    fn algorithm(&self) -> &'static str {
        self.flavor.name
    }
}

/// Factory producing [`RegisterAutomaton`]s of one flavor.
#[derive(Debug, Clone)]
pub struct FlavorFactory {
    flavor: Flavor,
    retransmit: Micros,
}

impl FlavorFactory {
    /// Creates a factory for `flavor` with the given retransmission
    /// period.
    pub fn new(flavor: Flavor, retransmit: Micros) -> Self {
        FlavorFactory { flavor, retransmit }
    }

    /// The flavor this factory builds.
    pub fn flavor(&self) -> Flavor {
        self.flavor
    }
}

impl AutomatonFactory for FlavorFactory {
    fn fresh(&self, me: ProcessId, n: usize) -> Box<dyn Automaton> {
        Box::new(RegisterAutomaton::fresh(
            me,
            n,
            self.flavor,
            self.retransmit,
        ))
    }

    fn recover(
        &self,
        me: ProcessId,
        n: usize,
        incarnation: u64,
        stable: &dyn StableSnapshot,
    ) -> Box<dyn Automaton> {
        Box::new(RegisterAutomaton::recovered(
            me,
            n,
            self.flavor,
            self.retransmit,
            incarnation,
            stable,
        ))
    }

    fn algorithm(&self) -> &'static str {
        self.flavor.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmem_types::EmptySnapshot;

    fn fresh(flavor: Flavor) -> RegisterAutomaton {
        let mut a = RegisterAutomaton::fresh(ProcessId(0), 3, flavor, Micros(1_000));
        let mut out = Vec::new();
        a.on_input(Input::Start, &mut out);
        a
    }

    fn sends_of(out: &[Action]) -> Vec<&Message> {
        out.iter()
            .filter_map(|a| match a {
                Action::Send { msg, .. } => Some(msg),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn fresh_boot_initialises_and_is_ready() {
        let mut a = RegisterAutomaton::fresh(ProcessId(0), 3, Flavor::persistent(), Micros(1_000));
        assert!(!a.is_ready());
        let mut out = Vec::new();
        a.on_input(Input::Start, &mut out);
        assert!(a.is_ready());
        // Initial written + writing records.
        let stores = out
            .iter()
            .filter(|a| matches!(a, Action::Store { .. }))
            .count();
        assert_eq!(stores, 2);
    }

    #[test]
    fn crash_stop_boot_stores_nothing() {
        let mut a = RegisterAutomaton::fresh(ProcessId(0), 3, Flavor::crash_stop(), Micros(1_000));
        let mut out = Vec::new();
        a.on_input(Input::Start, &mut out);
        assert!(out.iter().all(|a| !matches!(a, Action::Store { .. })));
        assert!(a.is_ready());
    }

    #[test]
    fn write_starts_with_sn_query_broadcast() {
        let mut a = fresh(Flavor::persistent());
        let mut out = Vec::new();
        a.on_input(
            Input::Invoke {
                op: OpId::new(ProcessId(0), 0),
                operation: Op::Write(Value::from_u32(1)),
            },
            &mut out,
        );
        let sends = sends_of(&out);
        assert_eq!(sends.len(), 3, "broadcast to all 3 processes");
        assert!(sends.iter().all(|m| matches!(m, Message::SnReq { .. })));
        assert!(out.iter().any(|a| matches!(a, Action::SetTimer { .. })));
    }

    #[test]
    fn regular_write_skips_query_round() {
        let mut a = fresh(Flavor::regular());
        let mut out = Vec::new();
        a.on_input(
            Input::Invoke {
                op: OpId::new(ProcessId(0), 0),
                operation: Op::Write(Value::from_u32(1)),
            },
            &mut out,
        );
        let sends = sends_of(&out);
        assert!(sends.iter().all(|m| matches!(m, Message::Write { .. })));
        // First write is numbered 1 by the local counter.
        if let Message::Write { ts, .. } = sends[0] {
            assert_eq!(*ts, Timestamp::new(1, ProcessId(0)));
        }
    }

    #[test]
    fn busy_invocation_is_rejected() {
        let mut a = fresh(Flavor::persistent());
        let mut out = Vec::new();
        a.on_input(
            Input::Invoke {
                op: OpId::new(ProcessId(0), 0),
                operation: Op::Read,
            },
            &mut out,
        );
        out.clear();
        a.on_input(
            Input::Invoke {
                op: OpId::new(ProcessId(0), 1),
                operation: Op::Read,
            },
            &mut out,
        );
        assert!(matches!(
            out[0],
            Action::Complete {
                result: OpResult::Rejected(RejectReason::Busy),
                ..
            }
        ));
    }

    #[test]
    fn invocation_during_recovery_is_queued() {
        // A recovered transient automaton is not ready until its rec
        // counter is durable.
        let mut a = RegisterAutomaton::recovered(
            ProcessId(0),
            3,
            Flavor::transient(),
            Micros(1_000),
            1,
            &EmptySnapshot,
        );
        let mut out = Vec::new();
        a.on_input(Input::Start, &mut out);
        assert!(!a.is_ready());
        let store_token = out
            .iter()
            .find_map(|a| match a {
                Action::Store { token, key, .. } if *key == KEY_RECOVERED => Some(*token),
                _ => None,
            })
            .expect("recovery must store the rec counter");
        out.clear();
        a.on_input(
            Input::Invoke {
                op: OpId::new(ProcessId(0), 0),
                operation: Op::Read,
            },
            &mut out,
        );
        assert!(out.is_empty(), "queued, not started: {out:?}");
        // Completing the store makes it ready and starts the queued read.
        a.on_input(Input::StoreDone(store_token), &mut out);
        assert!(a.is_ready());
        assert!(
            out.iter().any(|x| matches!(
                x,
                Action::Send {
                    msg: Message::Read { .. },
                    ..
                }
            )),
            "queued read must start: {out:?}"
        );
    }

    #[test]
    fn transient_recovery_bumps_rec_counter() {
        let mut a = RegisterAutomaton::recovered(
            ProcessId(0),
            3,
            Flavor::transient(),
            Micros(1_000),
            3,
            &EmptySnapshot,
        );
        let mut out = Vec::new();
        a.on_input(Input::Start, &mut out);
        let rec_bytes = out
            .iter()
            .find_map(|a| match a {
                Action::Store { key, bytes, .. } if *key == KEY_RECOVERED => Some(bytes.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(RecoveredRecord::decode(&rec_bytes).unwrap().count, 1);
    }

    #[test]
    fn persistent_recovery_rebroadcasts_writing_record() {
        let mut stable = std::collections::HashMap::new();
        let writing = WritingRecord {
            ts: Timestamp::new(7, ProcessId(0)),
            value: Value::from_u32(42),
        };
        stable.insert("writing".to_string(), writing.encode());
        let mut a = RegisterAutomaton::recovered(
            ProcessId(0),
            3,
            Flavor::persistent(),
            Micros(1_000),
            1,
            &stable,
        );
        let mut out = Vec::new();
        a.on_input(Input::Start, &mut out);
        assert!(!a.is_ready());
        let sends = sends_of(&out);
        assert_eq!(sends.len(), 3);
        for m in sends {
            let Message::Write { ts, value, .. } = m else {
                panic!("expected W, got {m}")
            };
            assert_eq!(*ts, Timestamp::new(7, ProcessId(0)));
            assert_eq!(value.as_u32(), Some(42));
        }
        // Majority of acks completes recovery.
        let req = match &out[0] {
            Action::Send { msg, .. } => msg.request_id(),
            _ => panic!(),
        };
        let mut out2 = Vec::new();
        a.on_input(
            Input::Message {
                from: ProcessId(1),
                msg: Message::WriteAck { req },
            },
            &mut out2,
        );
        assert!(!a.is_ready());
        a.on_input(
            Input::Message {
                from: ProcessId(2),
                msg: Message::WriteAck { req },
            },
            &mut out2,
        );
        assert!(a.is_ready());
    }

    #[test]
    fn recovered_nonces_do_not_collide_with_fresh_ones() {
        let mut fresh_a = fresh(Flavor::transient());
        let mut out = Vec::new();
        fresh_a.on_input(
            Input::Invoke {
                op: OpId::new(ProcessId(0), 0),
                operation: Op::Read,
            },
            &mut out,
        );
        let fresh_req = match sends_of(&out)[0] {
            Message::Read { req } => *req,
            m => panic!("{m}"),
        };

        let mut rec_a = RegisterAutomaton::recovered(
            ProcessId(0),
            3,
            Flavor::transient(),
            Micros(1_000),
            0,
            &EmptySnapshot,
        );
        let mut out2 = Vec::new();
        rec_a.on_input(Input::Start, &mut out2);
        let Some(Action::Store { token, .. }) = out2.first().cloned() else {
            panic!()
        };
        out2.clear();
        rec_a.on_input(Input::StoreDone(token), &mut out2);
        out2.clear();
        rec_a.on_input(
            Input::Invoke {
                op: OpId::new(ProcessId(0), 1),
                operation: Op::Read,
            },
            &mut out2,
        );
        let rec_req = match sends_of(&out2)[0] {
            Message::Read { req } => *req,
            m => panic!("{m}"),
        };
        assert_ne!(
            fresh_req, rec_req,
            "nonce spaces of incarnations must be disjoint"
        );
    }

    #[test]
    fn timer_retransmits_current_round_only() {
        let mut a = fresh(Flavor::persistent());
        let mut out = Vec::new();
        a.on_input(
            Input::Invoke {
                op: OpId::new(ProcessId(0), 0),
                operation: Op::Read,
            },
            &mut out,
        );
        let timer = out
            .iter()
            .find_map(|x| match x {
                Action::SetTimer { token, .. } => Some(*token),
                _ => None,
            })
            .unwrap();
        out.clear();
        a.on_input(Input::Timer(timer), &mut out);
        // Rebroadcast of the read + a fresh timer.
        assert_eq!(sends_of(&out).len(), 3);
        assert!(out.iter().any(|x| matches!(x, Action::SetTimer { .. })));
        // A stale timer does nothing.
        out.clear();
        a.on_input(Input::Timer(timer), &mut out);
        assert!(out.is_empty());
    }
}
