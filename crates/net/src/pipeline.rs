//! The client-side reactor: many operations in flight per process.
//!
//! A plain [`Client`](crate::Client) op occupies its calling thread for
//! the full quorum round-trip, so closed-loop throughput scales with
//! thread count, not with what the wire can carry. This module mirrors
//! the runner's per-register op-table design (PR 2) on the client side:
//!
//! * an [`InFlightTable`] of **completion slots**, keyed by a
//!   generation-tagged token (`generation << 32 | slot`) so a late ack
//!   for a reclaimed slot is *counted* — never delivered to the slot's
//!   next tenant;
//! * one shared completion channel per [`Pipeline`] instead of a fresh
//!   rendezvous channel per op — the runner tags every completion with
//!   the submitting token and the reactor routes it to its slot;
//! * a leader/follower drain: whichever waiter arrives first blocks on
//!   the channel and routes completions for everyone (a condvar wakes
//!   the others), so any number of submitted operations make progress
//!   with zero dedicated reactor threads;
//! * cancellation that reaches the runner: a cancelled ticket's
//!   invocation, if it is still queued behind its register's operation,
//!   is withdrawn and never starts.
//!
//! [`PipelinedClient`] is the public face: `submit*`/`poll`/`wait*` over
//! one node (via [`Client::pipelined`](crate::Client::pipelined)) or a
//! whole cluster (via [`PipelinedClient::fan`]). The blocking `Client`
//! API is exactly the depth-1 shim: `invoke = submit + wait`.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::channel::{unbounded, Receiver, Sender};
use rmem_core::NodeEvent;
use rmem_types::{LeaseGrant, Op, OpResult, ProcessId, RegisterId, TraceId, Value};

use crate::error::ClientError;
use crate::runner::{Caller, Client, Completion, RunnerEvent, TraceCtx};

/// How long a follower waits on the condvar before re-checking for a
/// missing drainer (belt-and-braces against a lost wakeup; the notify
/// on every leader hand-off is the fast path).
const DRAIN_SLICE: Duration = Duration::from_millis(25);

/// A completion settled by [`wait_any`](PipelinedClient::wait_any): the
/// ticket's index in the caller's list plus its settled result (the op
/// outcome, quorum round count, and — for leasing flavors — the minted
/// tag-lease grant, `None` otherwise).
pub type AnyCompletion = (usize, Result<Settled, ClientError>);

/// A settled completion: the op outcome, how many quorum round-trips it
/// took (0 = served from a live coordinator lease), and the tag-lease
/// grant the emulation minted for it, if any.
pub type Settled = (OpResult, u32, Option<LeaseGrant>);

/// A claim check for one submitted operation: the slot index plus the
/// slot's generation at submission time.
///
/// The wire token a completion carries back is [`token`](Ticket::token)
/// (`generation << 32 | slot`); once the slot is reclaimed its
/// generation is bumped, so a straggler ack fails the generation check
/// instead of landing in a stranger's slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket {
    slot: u32,
    generation: u32,
}

impl Ticket {
    /// The token completions for this submission carry.
    pub fn token(self) -> u64 {
        (u64::from(self.generation) << 32) | u64::from(self.slot)
    }

    /// The slot index (diagnostic — lets tests observe slot reuse).
    pub fn slot(self) -> u32 {
        self.slot
    }
}

/// Where [`InFlightTable::route`] delivered a completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routed {
    /// The completion landed in its own, still-waiting slot.
    Delivered,
    /// The slot already held a completion (a duplicated ack): the first
    /// delivery wins; the duplicate is counted and dropped.
    Duplicate,
    /// The slot was reclaimed or never existed (generation or index
    /// mismatch): a late ack, counted and dropped — never delivered to
    /// the slot's current tenant.
    Late,
}

/// What [`InFlightTable::claim`] found in the ticket's slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Claimed {
    /// The operation completed with this result after this many quorum
    /// round-trips (plus the minted tag-lease grant, if any); the slot
    /// has been reclaimed.
    Ready(OpResult, u32, Option<LeaseGrant>),
    /// Still awaiting its completion.
    Pending,
    /// The ticket was already claimed or cancelled.
    Gone,
}

enum SlotState {
    Free,
    InFlight,
    Done {
        result: OpResult,
        rounds: u32,
        lease: Option<LeaseGrant>,
    },
}

struct Slot {
    generation: u32,
    state: SlotState,
    target: usize,
    reg: RegisterId,
    trace: Option<TraceId>,
}

/// The reactor's completion-slot table: every operation submitted and
/// not yet claimed, keyed by generation-tagged slot token.
///
/// This is the client-side mirror of the node core's op table: slots are
/// recycled through a free list, reclaiming a slot bumps its generation
/// (so tokens are never ambiguous), and acks that miss — late arrivals
/// for reclaimed slots, duplicates for already-completed ones — are
/// counted in [`late_acks`](InFlightTable::late_acks) in the style of
/// `runner.trace_evictions` rather than dropped silently.
#[derive(Default)]
pub struct InFlightTable {
    slots: Vec<Slot>,
    free: Vec<u32>,
    in_flight: usize,
    late_acks: u64,
}

impl InFlightTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a slot for an operation on `reg` bound for `target`,
    /// reusing a reclaimed slot when one is free.
    pub fn begin(&mut self, target: usize, reg: RegisterId, trace: Option<TraceId>) -> Ticket {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    state: SlotState::Free,
                    target: 0,
                    reg: RegisterId::ZERO,
                    trace: None,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let slot = &mut self.slots[idx as usize];
        debug_assert!(matches!(slot.state, SlotState::Free));
        slot.state = SlotState::InFlight;
        slot.target = target;
        slot.reg = reg;
        slot.trace = trace;
        self.in_flight += 1;
        Ticket {
            slot: idx,
            generation: slot.generation,
        }
    }

    /// Routes a tagged completion to its slot. Late and duplicated acks
    /// are counted and dropped — a completion is **never** delivered to
    /// a slot whose generation moved on.
    pub fn route(
        &mut self,
        token: u64,
        result: OpResult,
        rounds: u32,
        lease: Option<LeaseGrant>,
    ) -> Routed {
        let idx = (token & u64::from(u32::MAX)) as usize;
        let generation = (token >> 32) as u32;
        let Some(slot) = self.slots.get_mut(idx) else {
            self.late_acks += 1;
            return Routed::Late;
        };
        if slot.generation != generation {
            self.late_acks += 1;
            return Routed::Late;
        }
        match slot.state {
            SlotState::InFlight => {
                slot.state = SlotState::Done {
                    result,
                    rounds,
                    lease,
                };
                Routed::Delivered
            }
            SlotState::Done { .. } => {
                self.late_acks += 1;
                Routed::Duplicate
            }
            // Unreachable while generations are bumped on reclaim, but a
            // free slot must never accept a completion.
            SlotState::Free => {
                self.late_acks += 1;
                Routed::Late
            }
        }
    }

    /// Claims the ticket's completion if it arrived, reclaiming the
    /// slot. A `Pending` claim leaves the slot untouched; a `Gone` claim
    /// means the ticket was already claimed or cancelled.
    pub fn claim(&mut self, ticket: Ticket) -> Claimed {
        match self.slot_mut(ticket) {
            None => Claimed::Gone,
            Some(slot) => match std::mem::replace(&mut slot.state, SlotState::Free) {
                SlotState::InFlight => {
                    slot.state = SlotState::InFlight;
                    Claimed::Pending
                }
                SlotState::Free => Claimed::Gone,
                SlotState::Done {
                    result,
                    rounds,
                    lease,
                } => {
                    self.reclaim(ticket.slot);
                    Claimed::Ready(result, rounds, lease)
                }
            },
        }
    }

    /// Abandons the ticket's operation, reclaiming its slot whether or
    /// not the completion arrived. Returns `false` if the ticket was
    /// already claimed or cancelled. The ack, if it comes later, fails
    /// the generation check and is counted late.
    pub fn cancel(&mut self, ticket: Ticket) -> bool {
        match self.slot_mut(ticket) {
            None => false,
            Some(slot) => {
                if matches!(slot.state, SlotState::Free) {
                    return false;
                }
                slot.state = SlotState::Free;
                self.reclaim(ticket.slot);
                true
            }
        }
    }

    /// The submission metadata a completion should be settled under:
    /// (target index, register, trace id). `None` once the slot was
    /// reclaimed.
    pub(crate) fn meta(&self, ticket: Ticket) -> Option<(usize, RegisterId, Option<TraceId>)> {
        let slot = self.slots.get(ticket.slot as usize)?;
        if slot.generation != ticket.generation || matches!(slot.state, SlotState::Free) {
            return None;
        }
        Some((slot.target, slot.reg, slot.trace))
    }

    /// How many submitted operations have not been claimed or cancelled.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// How many acks missed their slot (late after reclaim, duplicated,
    /// or malformed) — the client-side analogue of the runner's
    /// `trace_evictions` counter. They are counted precisely because
    /// they are *dropped*: a nonzero value with a quiescent table is
    /// bookkeeping, a misdelivery would be a correctness bug.
    pub fn late_acks(&self) -> u64 {
        self.late_acks
    }

    /// How many slots the table has ever grown to (diagnostic: a leak
    /// shows up as `capacity() - free list length` exceeding
    /// [`in_flight`](Self::in_flight)).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn slot_mut(&mut self, ticket: Ticket) -> Option<&mut Slot> {
        let slot = self.slots.get_mut(ticket.slot as usize)?;
        (slot.generation == ticket.generation).then_some(slot)
    }

    fn reclaim(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        slot.generation = slot.generation.wrapping_add(1);
        slot.trace = None;
        self.free.push(idx);
        self.in_flight -= 1;
    }
}

/// One submission target: a runner's control channel plus the identity
/// and frame ceiling the old blocking `Client` carried.
#[derive(Clone)]
pub(crate) struct Target {
    pub(crate) tx: Sender<RunnerEvent>,
    pub(crate) me: ProcessId,
    pub(crate) max_payload: Option<usize>,
}

struct Reactor {
    table: InFlightTable,
    /// Whether some waiter currently holds drain duty (is blocked on the
    /// completion channel on everyone's behalf).
    draining: bool,
}

/// The shared reactor state behind every [`Client`] clone and
/// [`PipelinedClient`] of one family: targets, the family id, the tagged
/// completion channel, and the slot table.
pub(crate) struct Pipeline {
    targets: Vec<Target>,
    /// Names this family's invocations at the runners, so a withdraw
    /// matches only its own ticket's token.
    family: u64,
    done_tx: Sender<Completion>,
    done_rx: Receiver<Completion>,
    inner: Mutex<Reactor>,
    wake: Condvar,
}

impl Pipeline {
    pub(crate) fn new(targets: Vec<Target>) -> Self {
        static NEXT_FAMILY: AtomicU64 = AtomicU64::new(0);
        let (done_tx, done_rx) = unbounded();
        Pipeline {
            targets,
            family: NEXT_FAMILY.fetch_add(1, Ordering::Relaxed),
            done_tx,
            done_rx,
            inner: Mutex::new(Reactor {
                table: InFlightTable::new(),
                draining: false,
            }),
            wake: Condvar::new(),
        }
    }

    pub(crate) fn target(&self, i: usize) -> &Target {
        &self.targets[i]
    }

    pub(crate) fn targets(&self) -> usize {
        self.targets.len()
    }

    /// Rejects a value the target's transport could never deliver —
    /// without this, the fair-lossy runtime retransmits the
    /// untransmittable message until the patience window expires.
    fn check_frame(&self, target: usize, value: &Value) -> Result<(), ClientError> {
        if let Some(limit) = self.targets[target].max_payload {
            let size = value.bytes().len() + rmem_types::codec::VALUE_MSG_OVERHEAD;
            if size > limit {
                return Err(ClientError::TooLarge { size, limit });
            }
        }
        Ok(())
    }

    /// Submits `operation` to `target`, returning immediately with the
    /// claim ticket.
    pub(crate) fn submit(
        &self,
        target: usize,
        operation: Op,
        trace: Option<&TraceCtx>,
    ) -> Result<Ticket, ClientError> {
        if let Some(value) = operation.write_value() {
            self.check_frame(target, value)?;
        }
        let reg = operation.register();
        let trace_id = trace.map(|ctx| ctx.begin(reg, self.targets[target].me));
        let ticket = {
            let mut g = self.inner.lock().expect("pipeline lock");
            g.table.begin(target, reg, trace_id)
        };
        self.dispatch(target, operation, ticket, trace_id)
    }

    fn dispatch(
        &self,
        target: usize,
        operation: Op,
        ticket: Ticket,
        trace: Option<TraceId>,
    ) -> Result<Ticket, ClientError> {
        let host = self.caller(ticket);
        let sent = self.targets[target]
            .tx
            .send(RunnerEvent::Node(NodeEvent::Invoke {
                operation,
                host,
                trace,
            }));
        if sent.is_err() {
            // The runner is gone; nothing will ever complete this slot.
            self.cancel(ticket);
            return Err(ClientError::ProcessDown);
        }
        Ok(ticket)
    }

    /// The runner-side name of `ticket`'s invocation: this family's
    /// completion channel, family id and the ticket's slot token.
    fn caller(&self, ticket: Ticket) -> Caller {
        Caller {
            reply: self.done_tx.clone(),
            family: self.family,
            token: ticket.token(),
        }
    }

    /// Routes everything already sitting in the completion channel.
    fn drain_ready(&self, reactor: &mut Reactor) {
        while let Ok((token, result, rounds, lease)) = self.done_rx.try_recv() {
            reactor.table.route(token, result, rounds, lease);
        }
    }

    /// Maps a claimed completion to the client-facing result, recording
    /// the trace `ClientRecv` for completions (rejections leave an
    /// unpaired `ClientSend`, which the stitcher ignores).
    fn settle(
        &self,
        result: OpResult,
        rounds: u32,
        lease: Option<LeaseGrant>,
        meta: Option<(usize, RegisterId, Option<TraceId>)>,
        trace: Option<&TraceCtx>,
    ) -> Result<Settled, ClientError> {
        match result {
            // The runner queues same-register invocations, so the only
            // rejection it sends is `Shutdown`; the automaton's defensive
            // `Busy` reads as the node failing the op.
            OpResult::Rejected(_) => Err(ClientError::ProcessDown),
            result => {
                if let (Some(ctx), Some((target, reg, Some(id)))) = (trace, meta) {
                    ctx.finish(id, reg, self.targets[target].me);
                }
                Ok((result, rounds, lease))
            }
        }
    }

    /// Claims the ticket's result without blocking; `None` while the
    /// completion is still in flight.
    pub(crate) fn poll(
        &self,
        ticket: Ticket,
        trace: Option<&TraceCtx>,
    ) -> Option<Result<Settled, ClientError>> {
        let mut g = self.inner.lock().expect("pipeline lock");
        self.drain_ready(&mut g);
        let meta = g.table.meta(ticket);
        match g.table.claim(ticket) {
            Claimed::Pending => None,
            Claimed::Gone => panic!("polling a ticket that was already claimed or cancelled"),
            Claimed::Ready(result, rounds, lease) => {
                drop(g);
                Some(self.settle(result, rounds, lease, meta, trace))
            }
        }
    }

    /// Blocks until the ticket completes or `timeout` passes (the slot
    /// is cancelled on timeout — its late ack will be counted, not
    /// misdelivered). Any number of threads may wait concurrently: the
    /// first becomes the drainer and routes completions for everyone.
    pub(crate) fn wait(
        &self,
        ticket: Ticket,
        timeout: Duration,
        trace: Option<&TraceCtx>,
    ) -> Result<Settled, ClientError> {
        let deadline = Instant::now() + timeout;
        let mut g = self.inner.lock().expect("pipeline lock");
        loop {
            self.drain_ready(&mut g);
            let meta = g.table.meta(ticket);
            match g.table.claim(ticket) {
                Claimed::Ready(result, rounds, lease) => {
                    drop(g);
                    // A follower may be asleep with no drainer left.
                    self.wake.notify_all();
                    return self.settle(result, rounds, lease, meta, trace);
                }
                Claimed::Gone => {
                    panic!("waiting on a ticket that was already claimed or cancelled")
                }
                Claimed::Pending => {}
            }
            let now = Instant::now();
            if now >= deadline {
                self.cancel_locked(&mut g, ticket);
                drop(g);
                self.wake.notify_all();
                return Err(ClientError::TimedOut);
            }
            g = self.drain_cycle(g, deadline - now);
        }
    }

    /// Blocks until *some* ticket in `tickets` completes, returning its
    /// index and settled result (the others stay in flight). `None` if
    /// `deadline` passes first — unlike [`wait`](Self::wait) nothing is
    /// cancelled; the caller decides what to abandon.
    pub(crate) fn wait_any(
        &self,
        tickets: &[Ticket],
        deadline: Instant,
        trace: Option<&TraceCtx>,
    ) -> Option<AnyCompletion> {
        let mut g = self.inner.lock().expect("pipeline lock");
        loop {
            self.drain_ready(&mut g);
            for (i, &ticket) in tickets.iter().enumerate() {
                let meta = g.table.meta(ticket);
                if let Claimed::Ready(result, rounds, lease) = g.table.claim(ticket) {
                    drop(g);
                    self.wake.notify_all();
                    return Some((i, self.settle(result, rounds, lease, meta, trace)));
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            g = self.drain_cycle(g, deadline - now);
        }
    }

    /// One leader/follower blocking round: become the drainer if nobody
    /// is (block on the channel, route what arrives, hand duty back), or
    /// wait a condvar slice for the drainer's notify.
    fn drain_cycle<'a>(
        &'a self,
        mut g: std::sync::MutexGuard<'a, Reactor>,
        remaining: Duration,
    ) -> std::sync::MutexGuard<'a, Reactor> {
        if !g.draining {
            g.draining = true;
            drop(g);
            let got = self.done_rx.recv_timeout(remaining.min(DRAIN_SLICE * 4));
            let mut g = self.inner.lock().expect("pipeline lock");
            g.draining = false;
            if let Ok((token, result, rounds, lease)) = got {
                g.table.route(token, result, rounds, lease);
            }
            // Hand the drain duty over (and wake anyone whose completion
            // just routed) before looping.
            self.wake.notify_all();
            g
        } else {
            let (g, _timeout) = self
                .wake
                .wait_timeout(g, remaining.min(DRAIN_SLICE))
                .expect("pipeline lock");
            g
        }
    }

    pub(crate) fn cancel(&self, ticket: Ticket) -> bool {
        let mut g = self.inner.lock().expect("pipeline lock");
        self.cancel_locked(&mut g, ticket)
    }

    /// Reclaims the ticket's slot and withdraws its invocation at the
    /// runner: one still queued behind its register's operation never
    /// starts (an admitted one runs to completion, its ack counted late).
    fn cancel_locked(&self, reactor: &mut Reactor, ticket: Ticket) -> bool {
        let Some((target, reg, _trace)) = reactor.table.meta(ticket) else {
            return false;
        };
        reactor.table.cancel(ticket);
        let host = self.caller(ticket);
        // A runner that is gone has nothing queued to withdraw.
        let _ = self.targets[target]
            .tx
            .send(RunnerEvent::Node(NodeEvent::Withdraw { reg, host }));
        true
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.inner.lock().expect("pipeline lock").table.in_flight()
    }

    pub(crate) fn late_acks(&self) -> u64 {
        self.inner.lock().expect("pipeline lock").table.late_acks()
    }
}

/// A pipelined handle over one node or a whole cluster: `submit` returns
/// a [`Ticket`] immediately, `poll`/`wait`/`wait_any`/`wait_all` settle
/// them in any order — one thread can keep an arbitrary pipeline depth
/// in flight.
///
/// Obtain one from [`Client::pipelined`](crate::Client::pipelined) (one
/// node, sharing the blocking client's reactor) or
/// [`PipelinedClient::fan`] (one reactor spanning several nodes' control
/// channels, each addressed by its index).
///
/// Per-register sequentiality still holds at the *runner*: an operation
/// submitted to a register of a node that already has one in flight
/// waits in that register's FIFO and starts when the one ahead of it
/// completes (exactly as two blocking clients racing would). Pipelining
/// buys concurrency across registers and nodes.
pub struct PipelinedClient {
    pipe: Arc<Pipeline>,
    timeout: Duration,
    trace: Option<Arc<TraceCtx>>,
}

impl std::fmt::Debug for PipelinedClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelinedClient")
            .field("nodes", &self.pipe.targets())
            .field("timeout", &self.timeout)
            .field("in_flight", &self.pipe.in_flight())
            .finish()
    }
}

impl PipelinedClient {
    pub(crate) fn from_parts(
        pipe: Arc<Pipeline>,
        timeout: Duration,
        trace: Option<Arc<TraceCtx>>,
    ) -> Self {
        PipelinedClient {
            pipe,
            timeout,
            trace,
        }
    }

    /// One reactor spanning several nodes: submissions name the node by
    /// its index in `clients`. Patience and trace context are inherited
    /// from the first client (the kv layer configures its per-node
    /// clients uniformly). The fan gets its own in-flight table and
    /// completion channel, isolated from the blocking clients' traffic.
    ///
    /// # Panics
    ///
    /// If `clients` is empty.
    pub fn fan(clients: &[Client]) -> Self {
        assert!(!clients.is_empty(), "a fan needs at least one node");
        let targets = clients.iter().map(|c| c.pipe().target(0).clone()).collect();
        PipelinedClient {
            pipe: Arc::new(Pipeline::new(targets)),
            timeout: clients[0].patience(),
            trace: clients[0].trace_ctx(),
        }
    }

    /// How many nodes this handle can submit to.
    pub fn nodes(&self) -> usize {
        self.pipe.targets()
    }

    /// Replaces the patience window used by the `wait*` calls.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Submits `operation` to node `node`, returning its claim ticket
    /// immediately.
    ///
    /// # Errors
    ///
    /// [`ClientError::TooLarge`] if a written value cannot fit the
    /// transport frame, [`ClientError::ProcessDown`] if the node's event
    /// loop is gone.
    pub fn submit(&self, node: usize, operation: Op) -> Result<Ticket, ClientError> {
        self.pipe.submit(node, operation, self.trace.as_deref())
    }

    /// Submits a read of register `reg` at node `node`.
    ///
    /// # Errors
    ///
    /// As for [`submit`](Self::submit).
    pub fn submit_read(&self, node: usize, reg: RegisterId) -> Result<Ticket, ClientError> {
        self.submit(node, Op::ReadAt(reg))
    }

    /// Submits a write of `value` to register `reg` at node `node`.
    ///
    /// # Errors
    ///
    /// As for [`submit`](Self::submit).
    pub fn submit_write(
        &self,
        node: usize,
        reg: RegisterId,
        value: Value,
    ) -> Result<Ticket, ClientError> {
        self.submit(node, Op::WriteAt(reg, value))
    }

    /// Claims the ticket's result if its completion arrived; `None`
    /// while still in flight. Never blocks.
    ///
    /// # Panics
    ///
    /// If the ticket was already claimed or cancelled.
    pub fn poll(&self, ticket: Ticket) -> Option<Result<(OpResult, u32), ClientError>> {
        self.poll_leased(ticket)
            .map(|r| r.map(|(result, rounds, _)| (result, rounds)))
    }

    /// As [`poll`](Self::poll), additionally surfacing the tag-lease
    /// grant a leasing flavor's fast path may have minted for this op
    /// (`None` for non-leasing flavors and non-minting completions).
    ///
    /// # Panics
    ///
    /// If the ticket was already claimed or cancelled.
    pub fn poll_leased(&self, ticket: Ticket) -> Option<Result<Settled, ClientError>> {
        self.pipe.poll(ticket, self.trace.as_deref())
    }

    /// Blocks until the ticket completes or the patience window passes
    /// (the op is cancelled and [`ClientError::TimedOut`] returned). The
    /// window includes any time the op waited at the runner behind an
    /// earlier op on its register.
    ///
    /// # Errors
    ///
    /// [`ClientError::ProcessDown`] if the node halted with the op
    /// pending, [`ClientError::TimedOut`] as its name says.
    pub fn wait(&self, ticket: Ticket) -> Result<(OpResult, u32), ClientError> {
        self.wait_leased(ticket)
            .map(|(result, rounds, _)| (result, rounds))
    }

    /// As [`wait`](Self::wait), additionally surfacing the tag-lease
    /// grant a leasing flavor's fast path may have minted for this op.
    ///
    /// # Errors
    ///
    /// As for [`wait`](Self::wait).
    pub fn wait_leased(&self, ticket: Ticket) -> Result<Settled, ClientError> {
        self.pipe.wait(ticket, self.timeout, self.trace.as_deref())
    }

    /// Blocks until *some* listed ticket completes, returning its index
    /// in `tickets` and its settled result; the others stay in flight.
    /// `None` if the patience window passes first, or `deadline` (when
    /// given) comes before it — nothing is cancelled then, the caller
    /// decides what to abandon. The deadline lets an event loop sleep
    /// exactly until its next timer (a backoff or poll) is due.
    pub fn wait_any(&self, tickets: &[Ticket], deadline: Option<Instant>) -> Option<AnyCompletion> {
        let patience = Instant::now() + self.timeout;
        let deadline = deadline.map_or(patience, |d| d.min(patience));
        self.pipe.wait_any(tickets, deadline, self.trace.as_deref())
    }

    /// Settles every listed ticket (in order), waiting where necessary:
    /// completions are claimed, timeouts cancelled. After `wait_all`
    /// returns, none of the listed tickets occupies a slot.
    pub fn wait_all(&self, tickets: &[Ticket]) -> Vec<Result<(OpResult, u32), ClientError>> {
        tickets.iter().map(|&t| self.wait(t)).collect()
    }

    /// Abandons an in-flight op: its slot is reclaimed now, and the node
    /// is told to withdraw the op — still queued behind an earlier op on
    /// its register, it never starts; already admitted, it runs to
    /// completion and its ack is counted late. Returns `false` if the
    /// ticket was already claimed or cancelled.
    pub fn cancel(&self, ticket: Ticket) -> bool {
        self.pipe.cancel(ticket)
    }

    /// How many submitted operations are currently unclaimed.
    pub fn in_flight(&self) -> usize {
        self.pipe.in_flight()
    }

    /// How many acks missed their slot (see
    /// [`InFlightTable::late_acks`]).
    pub fn late_acks(&self) -> u64 {
        self.pipe.late_acks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmem_types::Value;

    fn done(v: u32) -> OpResult {
        OpResult::ReadValue(Value::from_u32(v))
    }

    #[test]
    fn tokens_round_trip_and_route_to_their_own_slot() {
        let mut table = InFlightTable::new();
        let a = table.begin(0, RegisterId(1), None);
        let b = table.begin(0, RegisterId(2), None);
        assert_ne!(a.token(), b.token());
        assert_eq!(table.route(b.token(), done(2), 1, None), Routed::Delivered);
        assert_eq!(table.claim(a), Claimed::Pending);
        assert_eq!(table.claim(b), Claimed::Ready(done(2), 1, None));
        assert_eq!(table.route(a.token(), done(1), 2, None), Routed::Delivered);
        assert_eq!(table.claim(a), Claimed::Ready(done(1), 2, None));
        assert_eq!(table.in_flight(), 0);
        assert_eq!(table.late_acks(), 0);
    }

    #[test]
    fn late_and_duplicate_acks_are_counted_never_misdelivered() {
        let mut table = InFlightTable::new();
        let a = table.begin(0, RegisterId(1), None);
        assert!(table.cancel(a));
        // The slot is reclaimed; the straggler ack must not land.
        assert_eq!(table.route(a.token(), done(9), 1, None), Routed::Late);
        assert_eq!(table.late_acks(), 1);
        // The slot's next tenant is unaffected.
        let b = table.begin(0, RegisterId(7), None);
        assert_eq!(b.slot(), a.slot(), "slot is recycled");
        assert_eq!(table.claim(b), Claimed::Pending);
        assert_eq!(table.route(a.token(), done(9), 1, None), Routed::Late);
        assert_eq!(table.route(b.token(), done(3), 1, None), Routed::Delivered);
        assert_eq!(table.route(b.token(), done(4), 1, None), Routed::Duplicate);
        assert_eq!(table.claim(b), Claimed::Ready(done(3), 1, None));
        assert_eq!(table.late_acks(), 3);
        // An ack for a slot index that never existed is late too.
        assert_eq!(
            table.route(u64::from(u32::MAX), done(0), 0, None),
            Routed::Late
        );
        assert_eq!(table.late_acks(), 4);
    }

    #[test]
    fn cancel_reclaims_the_slot() {
        let mut table = InFlightTable::new();
        let a = table.begin(0, RegisterId(0), None);
        assert_eq!(table.in_flight(), 1);
        assert!(table.cancel(a));
        assert!(!table.cancel(a), "double cancel is a no-op");
        assert_eq!(table.in_flight(), 0);
        assert_eq!(table.capacity(), 1);
        // The freed slot is reused, not regrown.
        let b = table.begin(0, RegisterId(0), None);
        assert_eq!(b.slot(), a.slot());
        assert_eq!(table.capacity(), 1);
        assert_eq!(table.claim(b), Claimed::Pending);
    }
}
