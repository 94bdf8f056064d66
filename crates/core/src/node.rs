//! The sans-IO node core: one process of the emulation, hosted the same
//! way by the real runtime (`rmem-net`) and the simulator (`rmem-sim`).
//!
//! The paper's model (§II, §III-A) makes each process an automaton that
//! reacts to invocations, messages, store completions and timers. A
//! [`NodeCore`] wraps one [`Automaton`] with everything a process needs
//! around it and nothing a host provides: the operation table (per-register
//! FIFO admission, withdraw, halt), the timer set, the op-id counter, the
//! trace plumbing, the `runner.*` metrics and the flight events. It owns no
//! thread, channel or clock: the host passes the current time with each
//! [`NodeEvent`] to [`NodeCore::handle`], performs the [`Effect`]s it hands
//! back in order, and wakes it with [`NodeEvent::Tick`] by the returned
//! deadline.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use bytes::Bytes;
use rmem_obs::ObsHandle;
use rmem_obs::{pack_wire_aux, Counter, EventKind, FlightEvent, FlightRecorder, Histogram};
use rmem_types::{
    Action, Automaton, Input, LeaseGrant, Message, Micros, Op, OpId, OpResult, ProcessId,
    RegisterId, RejectReason, RequestId, StoreToken, TimerToken, TraceId,
};

/// An event a host hands its node core. `H` is the host's per-invocation
/// payload: it comes back on the invocation's [`Effect::Reply`].
#[derive(Debug)]
pub enum NodeEvent<H> {
    /// The incarnation starts. Handled once, before any other event.
    Start,
    /// A client invokes `operation`, under trace context `trace`.
    Invoke {
        /// The operation.
        operation: Op,
        /// Returned with the operation's reply.
        host: H,
        /// The trace context the invocation was issued under.
        trace: Option<TraceId>,
    },
    /// The invocation equal to `host` must never start if it is still
    /// queued on `reg` (an admitted one runs to completion).
    Withdraw {
        /// The register the invocation addressed.
        reg: RegisterId,
        /// Compared with the queued invocations' payloads.
        host: H,
    },
    /// A protocol message arrived.
    Message {
        /// The sender.
        from: ProcessId,
        /// The message.
        msg: Message,
        /// The trace context the message carried on the wire.
        trace: Option<TraceId>,
    },
    /// An [`Effect::Store`] reached stable storage.
    StoreDone(StoreToken),
    /// Fire every timer whose deadline is at or before `now`.
    Tick,
}

/// What the host must do, in order, after [`NodeCore::handle`].
#[derive(Debug, PartialEq)]
pub enum Effect<H> {
    /// Send `msg` to `to`, stamped with `trace` on the wire.
    Send {
        /// The destination.
        to: ProcessId,
        /// The message.
        msg: Message,
        /// The trace op the message belongs to.
        trace: Option<TraceId>,
    },
    /// Write `bytes` under `key`, then hand back
    /// [`NodeEvent::StoreDone`]`(token)` once it is durable.
    Store {
        /// Correlates the completion.
        token: StoreToken,
        /// The slot.
        key: String,
        /// The record.
        bytes: Bytes,
    },
    /// Operation `op` was admitted; the effects that follow, up to the
    /// next `Started`, are its own.
    Started {
        /// The operation's id.
        op: OpId,
        /// The operation.
        operation: Op,
    },
    /// An invocation finished: answer its client.
    Reply {
        /// The operation, or `None` when a halt failed an invocation
        /// before it was admitted.
        op: Option<OpId>,
        /// The invocation's payload.
        host: H,
        /// The result.
        result: OpResult,
        /// Quorum round-trips the operation took.
        rounds: u32,
        /// A read lease minted with the result, if any.
        lease: Option<LeaseGrant>,
    },
}

/// Stamps a flight event with a trace op id when one is known.
fn stamp(ev: FlightEvent, trace: Option<TraceId>) -> FlightEvent {
    match trace {
        Some(t) => ev.with_op(t.client, t.op),
        None => ev,
    }
}

/// The flight event of `msg` crossing the wire to or from `peer`, of kind
/// `request` or `ack`. An ack's `durable` attestation rides along: it
/// matters for the read fast path.
fn wire_event(msg: &Message, peer: ProcessId, request: EventKind, ack: EventKind) -> FlightEvent {
    let req = msg.request_id();
    let (kind, durable) = match msg {
        _ if msg.is_request() => (request, false),
        Message::ReadAck { durable, .. } => (ack, *durable),
        _ => (ack, true),
    };
    let aux = pack_wire_aux(peer.0, req.nonce, durable);
    FlightEvent::new(kind)
        .with_register(req.reg.0)
        .with_aux(aux)
}

/// Remembers which trace op each in-flight replica request belongs to, so
/// the ack (sent later, possibly after a store) can be stamped and
/// wire-propagated too. Bounded: oldest entries are evicted first — a
/// replica only ever has a handful of requests between arrival and ack.
struct ReqTraces {
    map: HashMap<RequestId, TraceId>,
    order: VecDeque<RequestId>,
    cap: usize,
}

impl ReqTraces {
    fn new(cap: usize) -> Self {
        ReqTraces {
            map: HashMap::new(),
            order: VecDeque::new(),
            cap,
        }
    }

    /// Remembers `req → trace`. Returns `true` when the bound forced the
    /// oldest remembered request out (its ack, if it ever comes, will go
    /// unstamped) — callers surface that in `runner.trace_evictions`
    /// rather than letting the drop happen silently.
    fn insert(&mut self, req: RequestId, trace: TraceId) -> bool {
        if self.map.insert(req, trace).is_none() {
            self.order.push_back(req);
            if self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                    return true;
                }
            }
        }
        false
    }

    fn get(&self, req: &RequestId) -> Option<TraceId> {
        self.map.get(req).copied()
    }
}

/// One invocation: queued behind its register's operation, or admitted.
struct Invocation<H> {
    operation: Op,
    host: H,
    /// Stamps every flight event the operation triggers.
    trace: Option<TraceId>,
    /// When it arrived while queued (feeds `runner.queue_micros`); when
    /// it was admitted once admitted (feeds `runner.op_micros`).
    since: Micros,
}

/// The **operation table**: every client operation admitted at this
/// process, keyed by operation id with a per-register busy index, plus a
/// FIFO of the invocations waiting for each busy register.
///
/// The paper's model (§III-A) makes *each process of the emulation*
/// sequential — and each register of a shared memory is its own
/// independent emulation ([`crate::SharedMemoryAutomaton`] hosts one
/// register automaton per id, unaware of the others). The table enforces
/// sequentiality exactly at that granularity: a second invocation on a
/// register with an operation in flight waits in that register's FIFO and
/// is admitted when the operation ahead of it completes, while operations
/// on distinct registers proceed concurrently.
struct OpTable<H> {
    in_flight: HashMap<OpId, Invocation<H>>,
    by_register: HashMap<RegisterId, OpId>,
    queued: HashMap<RegisterId, VecDeque<Invocation<H>>>,
    /// Queued invocations whose register a completion just freed; they
    /// are admitted before the core returns.
    ready: Vec<Invocation<H>>,
}

impl<H: PartialEq> OpTable<H> {
    fn new() -> Self {
        OpTable {
            in_flight: HashMap::new(),
            by_register: HashMap::new(),
            queued: HashMap::new(),
            ready: Vec::new(),
        }
    }

    /// Takes an arriving invocation: handed back when its register is
    /// free (admit it now), queued behind the register's operation
    /// otherwise.
    fn arrive(&mut self, inv: Invocation<H>) -> Option<Invocation<H>> {
        let reg = inv.operation.register();
        if !self.by_register.contains_key(&reg) {
            return Some(inv);
        }
        self.queued.entry(reg).or_default().push_back(inv);
        None
    }

    /// Admits `inv` as operation `op` onto its free register at `now`,
    /// returning the operation to invoke.
    fn admit(&mut self, op: OpId, mut inv: Invocation<H>, now: Micros) -> Op {
        let busy = self.by_register.insert(inv.operation.register(), op);
        debug_assert!(busy.is_none(), "admitting onto a busy register");
        inv.since = now;
        let operation = inv.operation.clone();
        self.in_flight.insert(op, inv);
        operation
    }

    /// The trace context of the operation in flight on `reg`, if any.
    /// Because the table admits at most one operation per register, the
    /// register names the operation a coordinator round belongs to.
    fn trace_of(&self, reg: RegisterId) -> Option<TraceId> {
        let op = self.by_register.get(&reg)?;
        self.in_flight.get(op)?.trace
    }

    /// Completes `op` if it is in flight. The next invocation queued on
    /// its register becomes ready.
    fn complete(&mut self, op: OpId) -> Option<Invocation<H>> {
        let done = self.in_flight.remove(&op)?;
        let reg = done.operation.register();
        self.by_register.remove(&reg);
        if let Some(queue) = self.queued.get_mut(&reg) {
            self.ready.extend(queue.pop_front());
            if queue.is_empty() {
                self.queued.remove(&reg);
            }
        }
        Some(done)
    }

    /// Drops the invocation equal to `host` if it is still queued on
    /// `reg`; returns whether it was. (An emptied queue is dropped at the
    /// register's next completion.)
    fn withdraw(&mut self, reg: RegisterId, host: &H) -> bool {
        let Some(queue) = self.queued.get_mut(&reg) else {
            return false;
        };
        let before = queue.len();
        queue.retain(|inv| inv.host != *host);
        queue.len() < before
    }

    /// Fails every admitted and queued operation with
    /// `Rejected(Shutdown)`, so waiters learn promptly that their
    /// emulation will never complete (the crash-recovery model's "crashed
    /// with the operation pending").
    fn drain_shutdown(&mut self, effects: &mut Vec<Effect<H>>) {
        let shutdown = |op, host| Effect::Reply {
            op,
            host,
            result: OpResult::Rejected(RejectReason::Shutdown),
            rounds: 0,
            lease: None,
        };
        for (op, done) in self.in_flight.drain() {
            effects.push(shutdown(Some(op), done.host));
        }
        let queued = self.queued.drain().flat_map(|(_reg, queue)| queue);
        for inv in queued.chain(self.ready.drain(..)) {
            effects.push(shutdown(None, inv.host));
        }
        self.by_register.clear();
    }
}

/// The `runner.*` metric handles, resolved once per incarnation.
struct LoopMetrics {
    ops_started: Arc<Counter>,
    ops_completed: Arc<Counter>,
    msgs_in: Arc<Counter>,
    msgs_out: Arc<Counter>,
    stores_queued: Arc<Counter>,
    stores_durable: Arc<Counter>,
    timer_fires: Arc<Counter>,
    trace_evictions: Arc<Counter>,
    queued: Arc<Counter>,
    withdrawn: Arc<Counter>,
    op_micros: Arc<Histogram>,
    queue_micros: Arc<Histogram>,
}

impl LoopMetrics {
    fn resolve(obs: &ObsHandle) -> Self {
        let m = &obs.metrics;
        LoopMetrics {
            ops_started: m.counter("runner.ops_started"),
            ops_completed: m.counter("runner.ops_completed"),
            msgs_in: m.counter("runner.msgs_in"),
            msgs_out: m.counter("runner.msgs_out"),
            stores_queued: m.counter("runner.stores_queued"),
            stores_durable: m.counter("runner.stores_durable"),
            timer_fires: m.counter("runner.timer_fires"),
            trace_evictions: m.counter("runner.trace_evictions"),
            queued: m.counter("runner.queued"),
            withdrawn: m.counter("runner.withdrawn"),
            op_micros: m.histogram("runner.op_micros"),
            queue_micros: m.histogram("runner.queue_micros"),
        }
    }
}

/// One incarnation of one process: the automaton and everything around it
/// that is not I/O (see the module docs).
pub struct NodeCore<H> {
    me: ProcessId,
    automaton: Box<dyn Automaton>,
    /// Reused across inputs: the automaton's output buffer.
    actions: Vec<Action>,
    ops: OpTable<H>,
    /// Pending timers by (deadline, arming order, token).
    timers: BinaryHeap<Reverse<(Micros, u64, u64)>>,
    timer_seq: u64,
    /// The next operation id's counter, seeded from the incarnation so a
    /// recovered process never reuses an id.
    op_counter: u64,
    /// Which trace op each in-flight replica request and each queued
    /// store belongs to.
    req_traces: ReqTraces,
    token_traces: HashMap<u64, TraceId>,
    mx: LoopMetrics,
    flight: Arc<FlightRecorder>,
    timed: bool,
}

impl<H: PartialEq> NodeCore<H> {
    /// Hosts `automaton` as incarnation `incarnation` of process `me`,
    /// recording into `obs`.
    pub fn new(
        me: ProcessId,
        automaton: Box<dyn Automaton>,
        incarnation: u64,
        obs: &ObsHandle,
    ) -> Self {
        NodeCore {
            me,
            automaton,
            actions: Vec::new(),
            ops: OpTable::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            op_counter: incarnation << 32,
            req_traces: ReqTraces::new(4096),
            token_traces: HashMap::new(),
            mx: LoopMetrics::resolve(obs),
            flight: obs.flight.clone(),
            timed: obs.metrics.is_enabled(),
        }
    }

    /// Handles `event` at time `now` (µs on the host's clock), appending
    /// the effects it causes to `effects`. Returns the next timer
    /// deadline, if any timer is pending: the host hands back
    /// [`NodeEvent::Tick`] once its clock reaches it.
    pub fn handle(
        &mut self,
        now: Micros,
        event: NodeEvent<H>,
        effects: &mut Vec<Effect<H>>,
    ) -> Option<Micros> {
        match event {
            NodeEvent::Start => self.step(now, None, Input::Start, effects),
            NodeEvent::Invoke {
                operation,
                host,
                trace,
            } => {
                let inv = Invocation {
                    operation,
                    host,
                    trace,
                    since: now,
                };
                match self.ops.arrive(inv) {
                    Some(inv) => {
                        let (trace, input) = self.admit(now, inv, false, effects);
                        self.step(now, trace, input, effects);
                    }
                    None => self.mx.queued.inc(),
                }
            }
            NodeEvent::Withdraw { reg, host } => {
                if self.ops.withdraw(reg, &host) {
                    self.mx.withdrawn.inc();
                }
            }
            NodeEvent::Message { from, msg, trace } => {
                self.mx.msgs_in.inc();
                let ev = wire_event(&msg, from, EventKind::ReqRecv, EventKind::AckRecv);
                self.flight.record(stamp(ev, trace));
                // Remember a request's op so the ack (possibly sent after
                // a store) carries it too.
                if let (true, Some(trace)) = (msg.is_request(), trace) {
                    if self.req_traces.insert(msg.request_id(), trace) {
                        self.mx.trace_evictions.inc();
                    }
                }
                self.step(now, trace, Input::Message { from, msg }, effects);
            }
            NodeEvent::StoreDone(token) => {
                self.mx.stores_durable.inc();
                let trace = self.token_traces.remove(&token.0);
                let ev = FlightEvent::new(EventKind::StoreDurable).with_aux(token.0);
                self.flight.record(stamp(ev, trace));
                self.step(now, trace, Input::StoreDone(token), effects);
            }
            NodeEvent::Tick => {
                while let Some(&Reverse((deadline, _, token))) = self.timers.peek() {
                    if deadline > now {
                        break;
                    }
                    self.timers.pop();
                    self.mx.timer_fires.inc();
                    self.step(now, None, Input::Timer(TimerToken(token)), effects);
                }
            }
        }
        self.timers.peek().map(|Reverse((deadline, ..))| *deadline)
    }

    /// Fails every admitted and queued invocation with
    /// `Rejected(Shutdown)`: the host calls it when the incarnation ends.
    pub fn halt(&mut self, effects: &mut Vec<Effect<H>>) {
        self.ops.drain_shutdown(effects);
    }

    /// The operation admitted on `reg`, if any.
    pub fn op_on(&self, reg: RegisterId) -> Option<OpId> {
        self.ops.by_register.get(&reg).copied()
    }

    /// Whether any operation is admitted (a queued one implies an
    /// admitted one on its register).
    pub fn is_busy(&self) -> bool {
        !self.ops.in_flight.is_empty()
    }

    /// Whether the automaton serves clients (its recovery is done).
    pub fn is_ready(&self) -> bool {
        self.automaton.is_ready()
    }

    /// Admits `inv` onto its free register — fresh (`queued` false) or
    /// dequeued behind a completion — and returns the trace context and
    /// the input that starts it.
    fn admit(
        &mut self,
        now: Micros,
        inv: Invocation<H>,
        queued: bool,
        effects: &mut Vec<Effect<H>>,
    ) -> (Option<TraceId>, Input) {
        if queued && self.timed {
            self.mx
                .queue_micros
                .record(now.0.saturating_sub(inv.since.0));
        }
        self.mx.ops_started.inc();
        let (trace, reg) = (inv.trace, inv.operation.register());
        let op = OpId::new(self.me, self.op_counter);
        self.op_counter += 1;
        let operation = self.ops.admit(op, inv, now);
        let ev = FlightEvent::new(EventKind::OpStart).with_register(reg.0);
        self.flight
            .record(stamp(ev.with_op(op.pid.0, op.counter), trace));
        let started = Effect::Started {
            op,
            operation: operation.clone(),
        };
        effects.push(started);
        (trace, Input::Invoke { op, operation })
    }

    /// Feeds `input` (arriving under trace context `ctx`) to the
    /// automaton, turns its actions into effects, then starts the
    /// invocations its completions dequeued. Stores are asynchronous (the
    /// automaton contract): the matching `StoreDone` re-enters later, so a
    /// store in flight on one register never stalls another's round.
    fn step(
        &mut self,
        now: Micros,
        ctx: Option<TraceId>,
        input: Input,
        effects: &mut Vec<Effect<H>>,
    ) {
        let mut actions = std::mem::take(&mut self.actions);
        let mut next = Some((ctx, input));
        while let Some((ctx, input)) = next {
            self.automaton.on_input(input, &mut actions);
            for action in actions.drain(..) {
                self.act(now, ctx, action, effects);
            }
            next = self
                .ops
                .ready
                .pop()
                .map(|inv| self.admit(now, inv, true, effects));
        }
        self.actions = actions;
    }

    fn act(
        &mut self,
        now: Micros,
        ctx: Option<TraceId>,
        action: Action,
        effects: &mut Vec<Effect<H>>,
    ) {
        match action {
            Action::Send { to, msg } => {
                self.mx.msgs_out.inc();
                // Requests belong to the operation in flight on the
                // register (robust across retransmits from timers); acks
                // to the request that asked for them.
                let req = msg.request_id();
                let trace = match msg.is_request() {
                    true => self.ops.trace_of(req.reg),
                    false => self.req_traces.get(&req),
                };
                let ev = wire_event(&msg, to, EventKind::RoundSent, EventKind::AckSent);
                self.flight.record(stamp(ev, trace));
                effects.push(Effect::Send { to, msg, trace });
            }
            Action::Store { token, key, bytes } => {
                self.mx.stores_queued.inc();
                let ev = FlightEvent::new(EventKind::StoreQueued).with_aux(token.0);
                self.flight.record(stamp(ev, ctx));
                if let Some(trace) = ctx {
                    self.token_traces.insert(token.0, trace);
                }
                effects.push(Effect::Store { token, key, bytes });
            }
            Action::SetTimer { token, after } => {
                let seq = self.timer_seq;
                self.timer_seq += 1;
                self.timers
                    .push(Reverse((now.saturating_add(after), seq, token.0)));
            }
            Action::Complete {
                op,
                result,
                rounds,
                lease,
            } => {
                let Some(done) = self.ops.complete(op) else {
                    return;
                };
                self.mx.ops_completed.inc();
                if self.timed {
                    self.mx.op_micros.record(now.0.saturating_sub(done.since.0));
                }
                let ev = FlightEvent::new(EventKind::OpComplete).with_aux(u64::from(rounds));
                self.flight
                    .record(stamp(ev.with_op(op.pid.0, op.counter), done.trace));
                effects.push(Effect::Reply {
                    op: Some(op),
                    host: done.host,
                    result,
                    rounds,
                    lease,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmem_types::Value;

    #[test]
    fn req_traces_evict_oldest_first_and_report_it() {
        let mut traces = ReqTraces::new(2);
        let req = |nonce| RequestId::new(ProcessId(0), nonce);
        let trace = |op| TraceId { client: 1, op };
        assert!(!traces.insert(req(0), trace(0)));
        assert!(!traces.insert(req(1), trace(1)));
        // Re-inserting a known request neither grows nor evicts.
        assert!(!traces.insert(req(1), trace(1)));
        // The third distinct request pushes out the oldest (req 0), and
        // the caller is told so it can count the eviction.
        assert!(traces.insert(req(2), trace(2)));
        assert_eq!(traces.get(&req(0)), None);
        assert_eq!(traces.get(&req(1)), Some(trace(1)));
        assert_eq!(traces.get(&req(2)), Some(trace(2)));
    }

    /// A host payload naming an invocation by (family, token).
    type Caller = (u64, u64);

    fn invocation(reg: u16, family: u64, token: u64) -> Invocation<Caller> {
        Invocation {
            operation: Op::ReadAt(RegisterId(reg)),
            host: (family, token),
            trace: None,
            since: Micros::ZERO,
        }
    }

    fn op(counter: u64) -> OpId {
        OpId::new(ProcessId(0), counter)
    }

    #[test]
    fn op_table_admits_same_register_invocations_in_fifo_order() {
        let mut table = OpTable::new();
        let first = table.arrive(invocation(0, 1, 1));
        let first = first.expect("a free register admits at once");
        table.admit(op(1), first, Micros::ZERO);
        assert!(table.arrive(invocation(0, 1, 2)).is_none());
        assert!(table.arrive(invocation(0, 1, 3)).is_none());
        // Another register is not held up by register 0's queue.
        assert!(table.arrive(invocation(1, 1, 4)).is_some());
        assert!(table.ready.is_empty());
        // Each completion releases exactly the next arrival.
        assert!(table.complete(op(1)).is_some());
        let next = table.ready.pop().expect("the completion dequeues");
        assert_eq!(next.host.1, 2);
        assert!(table.ready.is_empty(), "one admission per completion");
        table.admit(op(2), next, Micros::ZERO);
        assert!(table.complete(op(2)).is_some());
        assert_eq!(table.ready.pop().expect("dequeued").host.1, 3);
    }

    #[test]
    fn withdrawn_invocation_never_starts_and_halt_fails_the_queue() {
        let mut table = OpTable::new();
        table.admit(op(1), invocation(0, 1, 1), Micros::ZERO);
        assert!(table.arrive(invocation(0, 1, 2)).is_none());
        assert!(table.arrive(invocation(0, 1, 3)).is_none());
        assert!(!table.withdraw(RegisterId(0), &(9, 2)), "another family");
        assert!(!table.withdraw(RegisterId(0), &(1, 1)), "admitted ops stay");
        assert!(table.withdraw(RegisterId(0), &(1, 2)));
        assert!(!table.withdraw(RegisterId(0), &(1, 2)), "withdrawn once");
        // The withdrawn invocation is skipped: token 3 is next.
        assert!(table.complete(op(1)).is_some());
        let next = table.ready.pop().expect("dequeued");
        assert_eq!(next.host.1, 3);
        table.admit(op(2), next, Micros::ZERO);
        assert!(table.arrive(invocation(0, 1, 4)).is_none());
        // A halt fails the admitted op and the queued one, and nothing
        // reaches the withdrawn invocation.
        let mut effects = Vec::new();
        table.drain_shutdown(&mut effects);
        let mut failed: Vec<_> = effects
            .into_iter()
            .map(|effect| match effect {
                Effect::Reply {
                    host: (_, token),
                    result,
                    rounds,
                    lease,
                    ..
                } => (token, result, rounds, lease),
                other => panic!("a halt only replies, got {other:?}"),
            })
            .collect();
        failed.sort_by_key(|(token, ..)| *token);
        let shutdown = OpResult::Rejected(RejectReason::Shutdown);
        let expected = [(3, shutdown.clone(), 0, None), (4, shutdown, 0, None)];
        assert_eq!(failed, expected);
    }

    /// A scripted automaton: `Start` arms timers 1 (after 300 µs) and 2
    /// (after 100 µs); an invocation arms timer 3 (after 50 µs), and each
    /// timer, when it fires, sends a request whose nonce is its token.
    /// Timer 3 also completes the operation.
    struct Scripted {
        op: Option<OpId>,
    }

    impl Automaton for Scripted {
        fn on_input(&mut self, input: Input, out: &mut Vec<Action>) {
            let arm = |token, after| Action::SetTimer {
                token: TimerToken(token),
                after: Micros(after),
            };
            match input {
                Input::Start => out.extend([arm(1, 300), arm(2, 100)]),
                Input::Invoke { op, .. } => {
                    self.op = Some(op);
                    out.push(arm(3, 50));
                }
                Input::Timer(TimerToken(token)) => {
                    let req = RequestId::new(ProcessId(0), token);
                    let msg = Message::SnReq { req };
                    out.push(Action::Send {
                        to: ProcessId(1),
                        msg,
                    });
                    if let (3, Some(op)) = (token, self.op.take()) {
                        let result = OpResult::ReadValue(Value::from_u32(7));
                        out.push(Action::Complete {
                            op,
                            result,
                            rounds: 1,
                            lease: None,
                        });
                    }
                }
                _ => {}
            }
        }

        fn algorithm(&self) -> &'static str {
            "scripted"
        }
    }

    /// The nonces of the requests among `effects`, in order.
    fn sent(effects: &[Effect<u8>]) -> Vec<u64> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send { msg, .. } => Some(msg.request_id().nonce),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn timers_fire_by_deadline_on_the_callers_clock() {
        let automaton = Box::new(Scripted { op: None });
        let mut core = NodeCore::new(ProcessId(0), automaton, 0, &ObsHandle::disabled());
        let mut effects = Vec::new();
        let at = Micros;
        // Two timers armed at t=1000: the earlier deadline is reported.
        let next = core.handle(at(1_000), NodeEvent::Start, &mut effects);
        assert_eq!(next, Some(at(1_100)));
        assert!(effects.is_empty());
        // A tick before any deadline fires nothing.
        let next = core.handle(at(1_099), NodeEvent::Tick, &mut effects);
        assert_eq!((next, sent(&effects)), (Some(at(1_100)), vec![]));
        // An invocation arms an earlier timer, which becomes the deadline.
        let invoke = NodeEvent::Invoke {
            operation: Op::Read,
            host: 5,
            trace: None,
        };
        let next = core.handle(at(1_020), invoke, &mut effects);
        assert_eq!(next, Some(at(1_070)));
        let op = OpId::new(ProcessId(0), 0);
        let started = Effect::Started {
            op,
            operation: Op::Read,
        };
        assert_eq!(std::mem::take(&mut effects), vec![started]);
        // A late tick fires every due timer in deadline order (timer 3,
        // then 2), and reports the one still pending.
        let next = core.handle(at(1_200), NodeEvent::Tick, &mut effects);
        assert_eq!(next, Some(at(1_300)));
        assert_eq!(sent(&effects), vec![3, 2]);
        let reply = effects.iter().find_map(|e| match e {
            Effect::Reply { op, host, .. } => Some((*op, *host)),
            _ => None,
        });
        assert_eq!(reply, Some((Some(op), 5)));
        effects.clear();
        // Exactly at the last deadline, the last timer fires.
        let next = core.handle(at(1_300), NodeEvent::Tick, &mut effects);
        assert_eq!((next, sent(&effects)), (None, vec![1]));
    }
}
