//! Hosting one automaton on real threads, sockets, timers and disk.
//!
//! Durability runs on its own pipeline: the event loop forwards
//! [`Action::Store`] to the node's [`syncer`](crate::syncer) thread and
//! keeps serving network messages, timers and other registers'
//! operations while the fsync is in flight; the syncer group-commits
//! whatever queued and posts `StoreDone` back through the loop only
//! after the covering fsync returned (*ack-after-durable*, the real form
//! of the paper's §V-A invariant). A log failure halts the node — the
//! crash-recovery model's prescription for a process that can no longer
//! trust its stable storage — observable via
//! [`ProcessRunner::store_failures`] / [`ProcessRunner::is_halted`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use rmem_obs::{pack_wire_aux, EventKind, FlightEvent, FlightRecorder, ObsHandle};
use rmem_storage::records::KEY_WRITTEN;
use rmem_storage::{SnapshotView, StableStorage};
use rmem_types::{
    Action, Automaton, AutomatonFactory, Input, Op, OpId, OpResult, ProcessId, RegisterId,
    RejectReason, RequestId, TimerToken, TraceId,
};
use std::sync::Arc;

use crate::error::ClientError;
use crate::pipeline::{Pipeline, PipelinedClient, Target};
use crate::syncer::{StoreOutcome, StoreRequest, Syncer};
use crate::transport::{Inbound, Transport};

/// Infrastructure slot counting process boots. Not one of the algorithm's
/// logs: it exists so a recovered incarnation gets a fresh request-nonce
/// space (see [`AutomatonFactory::recover`]), the moral equivalent of an
/// OS-assigned ephemeral port.
pub const KEY_BOOT_COUNT: &str = "_boot_count";

/// How many trailing flight-recorder events a halting node dumps to
/// stderr alongside its halt reason.
pub const HALT_DUMP_EVENTS: usize = 64;

/// What the runner posts back for one submitted operation: the
/// submission's slot token, the result, and the quorum round-trips it
/// took. Every operation of one client family shares one completion
/// channel; the token routes the completion to its slot (see
/// [`crate::pipeline::InFlightTable`]).
pub(crate) type Completion = (u64, OpResult, u32, Option<rmem_types::LeaseGrant>);

/// One client invocation on its way to the runner: the operation, the
/// client family's completion channel and family id, the submission's
/// slot token, and the trace context it was issued under.
pub(crate) struct Invocation {
    pub(crate) operation: Op,
    pub(crate) reply: Sender<Completion>,
    pub(crate) family: u64,
    pub(crate) token: u64,
    pub(crate) trace: Option<TraceId>,
}

pub(crate) enum RunnerEvent {
    Invoke(Invocation),
    /// The client cancelled ticket `token` of family `family` on `reg`:
    /// if that invocation is still queued it must never start.
    Withdraw {
        reg: RegisterId,
        family: u64,
        token: u64,
    },
    Shutdown,
}

/// Stamps a flight event with a trace op id when one is known.
fn stamp(ev: FlightEvent, trace: Option<TraceId>) -> FlightEvent {
    match trace {
        Some(t) => ev.with_op(t.client, t.op),
        None => ev,
    }
}

/// A client family's **trace context**: the shared identity under which a
/// [`Client`] (and every clone created from the same context) stamps its
/// operations. Holds the family id, the per-op counter, and the client
/// ring that `ClientSend`/`ClientRecv` events land in.
pub struct TraceCtx {
    client: u16,
    counter: AtomicU64,
    ring: Arc<FlightRecorder>,
}

impl std::fmt::Debug for TraceCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCtx")
            .field("client", &(self.client & !TraceId::CLIENT_BIT))
            .finish()
    }
}

impl TraceCtx {
    /// A fresh family recording into `ring` (typically the kv client's
    /// own flight recorder).
    pub fn new(ring: Arc<FlightRecorder>) -> Self {
        TraceCtx {
            client: TraceId::fresh_client(),
            counter: AtomicU64::new(0),
            ring,
        }
    }

    /// The family id (client bit set) — the `pid` of this family's ring
    /// in a stitch.
    pub fn client_id(&self) -> u16 {
        self.client
    }

    /// The ring the family's client-side events land in.
    pub fn ring(&self) -> &Arc<FlightRecorder> {
        &self.ring
    }

    /// Allocates the next op id and records its `ClientSend`.
    pub(crate) fn begin(&self, reg: RegisterId, node: ProcessId) -> TraceId {
        let id = TraceId {
            client: self.client,
            op: self.counter.fetch_add(1, Ordering::Relaxed),
        };
        self.ring.record(
            FlightEvent::new(EventKind::ClientSend)
                .with_op(id.client, id.op)
                .with_register(reg.0)
                .with_aux(u64::from(node.0)),
        );
        id
    }

    /// Records the op's `ClientRecv` (only called for completions — a
    /// timed-out or rejected attempt leaves an unpaired `ClientSend`,
    /// which the stitcher ignores).
    pub(crate) fn finish(&self, id: TraceId, reg: RegisterId, node: ProcessId) {
        self.ring.record(
            FlightEvent::new(EventKind::ClientRecv)
                .with_op(id.client, id.op)
                .with_register(reg.0)
                .with_aux(u64::from(node.0)),
        );
    }
}

/// Remembers which trace op each in-flight replica request belongs to, so
/// the ack (sent later, possibly from the durability pipeline) can be
/// stamped and wire-propagated too. Bounded: oldest entries are evicted
/// first — a replica only ever has a handful of requests between arrival
/// and ack.
struct ReqTraces {
    map: HashMap<RequestId, TraceId>,
    order: std::collections::VecDeque<RequestId>,
    cap: usize,
}

impl ReqTraces {
    fn new(cap: usize) -> Self {
        ReqTraces {
            map: HashMap::new(),
            order: std::collections::VecDeque::new(),
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

/// The runner's **operation table**: every client operation admitted at
/// this process, keyed by operation id with a per-register busy index,
/// plus a FIFO of the invocations waiting for each busy register.
///
/// The paper's model (§III-A) makes *each process of the emulation*
/// sequential — and each register of a shared memory is its own
/// independent emulation (`rmem_core::SharedMemoryAutomaton` hosts one
/// register automaton per id, unaware of the others). The table enforces
/// sequentiality exactly at that granularity: a second invocation on a
/// register with an operation in flight waits in that register's FIFO
/// and is admitted when the operation ahead of it completes, while
/// operations on distinct registers — independent shards hosted by this
/// node — proceed concurrently through the one event loop.
#[derive(Default)]
struct OpTable {
    in_flight: HashMap<OpId, InFlight>,
    by_register: HashMap<RegisterId, OpId>,
    /// Per busy register, the invocations waiting for it in arrival
    /// order, each with its arrival time (feeds `runner.queue_micros`).
    queued: HashMap<RegisterId, VecDeque<(Invocation, Instant)>>,
    /// Queued invocations whose register a completion just freed; the
    /// loop admits them before it takes its next event.
    ready: Vec<(Invocation, Instant)>,
}

/// What the table remembers per in-flight operation: its register, the
/// client family's completion channel and the submission's slot token,
/// when it was admitted (feeds `runner.op_micros`), and the trace
/// context it arrived under (stamps every flight event the operation
/// triggers).
type InFlight = (
    RegisterId,
    Sender<Completion>,
    u64,
    Instant,
    Option<TraceId>,
);

/// What [`OpTable::complete`] hands back: the completion channel, the
/// slot token, the admission time and the trace context.
type Completed = (Sender<Completion>, u64, Instant, Option<TraceId>);

impl OpTable {
    /// Takes an arriving invocation: handed back when its register is
    /// free (admit it now), queued behind the register's operation
    /// otherwise.
    fn arrive(&mut self, inv: Invocation) -> Option<Invocation> {
        let reg = inv.operation.register();
        if !self.by_register.contains_key(&reg) {
            return Some(inv);
        }
        self.queued
            .entry(reg)
            .or_default()
            .push_back((inv, Instant::now()));
        None
    }

    /// Admits `inv` as operation `op` onto its free register, returning
    /// the operation to invoke.
    fn admit(&mut self, op: OpId, inv: Invocation) -> Op {
        let reg = inv.operation.register();
        let busy = self.by_register.insert(reg, op);
        debug_assert!(busy.is_none(), "admitting onto a busy register");
        let entry = (reg, inv.reply, inv.token, Instant::now(), inv.trace);
        self.in_flight.insert(op, entry);
        inv.operation
    }

    /// The trace context of the operation in flight on `reg`, if any.
    /// Because the table admits at most one operation per register, the
    /// register names the operation a coordinator round belongs to.
    fn trace_of(&self, reg: RegisterId) -> Option<TraceId> {
        self.by_register
            .get(&reg)
            .and_then(|op| self.in_flight.get(op))
            .and_then(|(_, _, _, _, trace)| *trace)
    }

    /// Completes `op` if it is in flight, returning its completion
    /// channel, slot token, admission time and trace context. The next
    /// invocation queued on its register becomes ready.
    fn complete(&mut self, op: OpId) -> Option<Completed> {
        let (reg, reply, token, started, trace) = self.in_flight.remove(&op)?;
        self.by_register.remove(&reg);
        if let Some(queue) = self.queued.get_mut(&reg) {
            self.ready.extend(queue.pop_front());
            if queue.is_empty() {
                self.queued.remove(&reg);
            }
        }
        Some((reply, token, started, trace))
    }

    /// Drops the invocation `token` of client family `family` if it is
    /// still queued on `reg`; returns whether it was. An admitted
    /// operation is not affected. (An emptied queue is dropped at the
    /// register's next completion.)
    fn withdraw(&mut self, reg: RegisterId, family: u64, token: u64) -> bool {
        let Some(queue) = self.queued.get_mut(&reg) else {
            return false;
        };
        let before = queue.len();
        queue.retain(|(inv, _)| (inv.family, inv.token) != (family, token));
        queue.len() < before
    }

    /// Fails every admitted and queued operation with
    /// `Rejected(Shutdown)`. Called on every event-loop exit path —
    /// orderly shutdown and both halt flavors — so pipelined waiters
    /// learn promptly that their emulation will never complete, instead
    /// of burning their full patience window (the crash-recovery model's
    /// "crashed with the operation pending").
    fn drain_shutdown(&mut self) {
        let shutdown = |reply: Sender<Completion>, token| {
            let _ = reply.send((token, OpResult::Rejected(RejectReason::Shutdown), 0, None));
        };
        for (_op, (_reg, reply, token, _started, _trace)) in self.in_flight.drain() {
            shutdown(reply, token);
        }
        let queued = self.queued.drain().flat_map(|(_reg, queue)| queue);
        for (inv, _arrived) in queued.chain(self.ready.drain(..)) {
            shutdown(inv.reply, inv.token);
        }
        self.by_register.clear();
    }
}

/// A handle for issuing operations to a running process.
///
/// Cheap to clone; operations block until the emulation completes them (or
/// the configured patience runs out — emulations cannot terminate without
/// a live majority, so patience is a liveness hedge, not a correctness
/// knob).
#[derive(Clone)]
pub struct Client {
    pipe: Arc<Pipeline>,
    timeout: Duration,
    trace: Option<Arc<TraceCtx>>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("me", &self.pipe.target(0).me)
            .field("timeout", &self.timeout)
            .field("max_payload", &self.pipe.target(0).max_payload)
            .field("traced", &self.trace.is_some())
            .finish()
    }
}

impl Client {
    /// Replaces the patience window (default 10 s).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Attaches (or with `None`, detaches) a trace context: every
    /// operation through this client is issued under a fresh [`TraceId`]
    /// from the context, bracketed by `ClientSend`/`ClientRecv` events in
    /// the context's ring, and the runner stamps and wire-propagates the
    /// id through every hop the operation touches.
    pub fn with_trace(mut self, ctx: Option<Arc<TraceCtx>>) -> Self {
        self.trace = ctx;
        self
    }

    /// The transport's frame ceiling for encoded messages, if any (e.g.
    /// `Some(64 998)` for UDP). `None` means unbounded.
    pub fn max_payload(&self) -> Option<usize> {
        self.pipe.target(0).max_payload
    }

    /// The largest value a write through this client can carry, if the
    /// transport is bounded: the frame ceiling minus the fixed wire
    /// overhead of a value-carrying protocol message.
    pub fn max_value_len(&self) -> Option<usize> {
        self.max_payload()
            .map(|limit| limit.saturating_sub(rmem_types::codec::VALUE_MSG_OVERHEAD))
    }

    /// A pipelined handle sharing this client's reactor (same node, same
    /// patience, same trace context): `submit` returns immediately, so
    /// one thread can keep many operations in flight. The blocking calls
    /// on this `Client` are exactly the depth-1 shim over the same
    /// machinery.
    pub fn pipelined(&self) -> PipelinedClient {
        PipelinedClient::from_parts(self.pipe.clone(), self.timeout, self.trace.clone())
    }

    /// The shared reactor behind this client.
    pub(crate) fn pipe(&self) -> &Arc<Pipeline> {
        &self.pipe
    }

    /// The configured patience window.
    pub(crate) fn patience(&self) -> Duration {
        self.timeout
    }

    /// The attached trace context, if any.
    pub(crate) fn trace_ctx(&self) -> Option<Arc<TraceCtx>> {
        self.trace.clone()
    }

    fn invoke(&self, operation: Op) -> Result<(OpResult, u32), ClientError> {
        let ticket = self.pipe.submit(0, operation, self.trace.as_deref())?;
        let settled = self.pipe.wait(ticket, self.timeout, self.trace.as_deref());
        settled.map(|(result, rounds, _lease)| (result, rounds))
    }

    /// Writes `value` to the emulated register, blocking until the write
    /// terminates.
    ///
    /// # Errors
    ///
    /// [`ClientError::TooLarge`] if the value cannot fit the transport
    /// frame, [`ClientError::ProcessDown`] / [`ClientError::TimedOut`] as
    /// their names say. An operation already in flight on the same
    /// register of this process delays the write (it queues behind it;
    /// the wait counts against the patience window) but never fails it.
    pub fn write(&self, value: rmem_types::Value) -> Result<(), ClientError> {
        self.invoke(Op::Write(value)).map(|_| ())
    }

    /// Reads the emulated register, blocking until the read terminates.
    ///
    /// # Errors
    ///
    /// As for [`write`](Self::write).
    pub fn read(&self) -> Result<rmem_types::Value, ClientError> {
        match self.invoke(Op::Read)? {
            (OpResult::ReadValue(v), _) => Ok(v),
            // A Written result for a read cannot happen; treat as down.
            _ => Err(ClientError::ProcessDown),
        }
    }

    /// Writes `value` to register `reg` of a shared memory (the hosted
    /// automaton must be a `SharedMemory`; a single-register automaton
    /// serves only [`RegisterId::ZERO`](rmem_types::RegisterId::ZERO)).
    ///
    /// # Errors
    ///
    /// As for [`write`](Self::write).
    pub fn write_at(
        &self,
        reg: rmem_types::RegisterId,
        value: rmem_types::Value,
    ) -> Result<(), ClientError> {
        self.invoke(Op::WriteAt(reg, value)).map(|_| ())
    }

    /// Reads register `reg` of a shared memory.
    ///
    /// # Errors
    ///
    /// As for [`write`](Self::write).
    pub fn read_at(&self, reg: rmem_types::RegisterId) -> Result<rmem_types::Value, ClientError> {
        self.read_at_counted(reg).map(|(v, _)| v)
    }

    /// As [`read_at`](Self::read_at), additionally reporting how many
    /// quorum round-trips the read performed: 1 when the register
    /// emulation's fast path (or single-round flavor) answered from the
    /// query round alone, 2 when it paid the write-back round. The store
    /// layers aggregate these into their per-operation round statistics.
    ///
    /// # Errors
    ///
    /// As for [`write`](Self::write).
    pub fn read_at_counted(
        &self,
        reg: rmem_types::RegisterId,
    ) -> Result<(rmem_types::Value, u32), ClientError> {
        match self.invoke(Op::ReadAt(reg))? {
            (OpResult::ReadValue(v), rounds) => Ok((v, rounds)),
            _ => Err(ClientError::ProcessDown),
        }
    }
}

/// One hosted process: an automaton, a transport, a timer heap, an
/// event-loop thread and a syncer thread owning the stable storage.
pub struct ProcessRunner {
    me: ProcessId,
    tx: Sender<RunnerEvent>,
    handle: Option<std::thread::JoinHandle<Box<dyn StableStorage>>>,
    transport: Arc<dyn Transport>,
    store_failures: Arc<AtomicU64>,
    obs: ObsHandle,
}

impl std::fmt::Debug for ProcessRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessRunner")
            .field("me", &self.me)
            .finish()
    }
}

impl ProcessRunner {
    /// Starts a process: decides fresh-boot vs recovery from the
    /// `_boot_count` slot in `storage`, builds the automaton accordingly
    /// and spins up the event loop.
    ///
    /// `inbox` must be the receiver side of the channel the transport
    /// pushes into.
    pub fn start(
        factory: &dyn AutomatonFactory,
        storage: Box<dyn StableStorage>,
        transport: Arc<dyn Transport>,
        inbox: Receiver<Inbound>,
    ) -> Self {
        Self::start_with_obs(factory, storage, transport, inbox, ObsHandle::new())
    }

    /// As [`start`](Self::start), with an explicit observability handle —
    /// how [`LocalCluster`](crate::LocalCluster) gives each node a
    /// registry and flight recorder that survive kill/restart (the handle
    /// outlives the incarnation, so an experiment's metrics accumulate).
    pub fn start_with_obs(
        factory: &dyn AutomatonFactory,
        mut storage: Box<dyn StableStorage>,
        transport: Arc<dyn Transport>,
        inbox: Receiver<Inbound>,
        obs: ObsHandle,
    ) -> Self {
        let me = transport.local();
        let n = transport.cluster_size();

        let boot_count = storage
            .retrieve(KEY_BOOT_COUNT)
            .ok()
            .flatten()
            .and_then(|b| b.as_ref().try_into().ok().map(u64::from_be_bytes))
            .unwrap_or(0);
        // A process that has durably adopted anything before has run
        // before: treat it as recovering even if the boot counter is
        // missing (e.g. pre-upgrade data).
        let has_history = boot_count > 0 || storage.retrieve(KEY_WRITTEN).ok().flatten().is_some();
        let automaton = if has_history {
            factory.recover(me, n, boot_count, &SnapshotView::new(storage.as_ref()))
        } else {
            factory.fresh(me, n)
        };
        let _ = storage.store(
            KEY_BOOT_COUNT,
            bytes::Bytes::from((boot_count + 1).to_be_bytes().to_vec()),
        );

        let (tx, rx) = unbounded::<RunnerEvent>();
        let loop_transport = transport.clone();
        let store_failures = Arc::new(AtomicU64::new(0));
        let loop_failures = store_failures.clone();
        let loop_obs = obs.clone();
        let handle = std::thread::Builder::new()
            .name(format!("rmem-proc-{me}"))
            .spawn(move || {
                run_loop(
                    automaton,
                    storage,
                    loop_transport,
                    rx,
                    inbox,
                    me,
                    boot_count,
                    loop_failures,
                    loop_obs,
                )
            })
            .expect("spawning the process event loop");

        ProcessRunner {
            me,
            tx,
            handle: Some(handle),
            transport,
            store_failures,
            obs,
        }
    }

    /// This process's id.
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// How many stable-storage commits have failed on this node. Per the
    /// crash-recovery model the first failure halts the node, so this is
    /// effectively a halted-because-of-disk flag that health checks and
    /// tests can poll without joining the thread.
    pub fn store_failures(&self) -> u64 {
        self.store_failures.load(Ordering::Relaxed)
    }

    /// Whether the event loop has exited — either an orderly shutdown or
    /// the clean halt a log failure forces.
    pub fn is_halted(&self) -> bool {
        self.handle.as_ref().is_none_or(|h| h.is_finished())
    }

    /// This node's observability handle (registry + flight recorder).
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// This node's flight recorder — dump it after a failure to see the
    /// event trail that led there.
    pub fn flight_recorder(&self) -> Arc<FlightRecorder> {
        self.obs.flight.clone()
    }

    /// A point-in-time copy of this node's metrics.
    pub fn metrics(&self) -> rmem_obs::MetricsSnapshot {
        self.obs.metrics.snapshot()
    }

    /// A client handle for this process. Each call builds a fresh
    /// reactor (in-flight table + completion channel); clones of the
    /// returned client — and pipelined handles derived from it — share
    /// it.
    pub fn client(&self) -> Client {
        Client {
            pipe: Arc::new(Pipeline::new(vec![Target {
                tx: self.tx.clone(),
                me: self.me,
                max_payload: self.transport.max_payload(),
            }])),
            timeout: Duration::from_secs(10),
            trace: None,
        }
    }

    /// Stops the process (gracefully for the thread; abruptly from the
    /// protocol's point of view — like a crash, nothing is flushed beyond
    /// what was already stored). Returns the storage so a later incarnation
    /// can recover from it.
    pub fn stop(mut self) -> Box<dyn StableStorage> {
        let _ = self.tx.send(RunnerEvent::Shutdown);
        self.transport.shutdown();
        let handle = self.handle.take().expect("stop called once");
        handle.join().expect("process loop panicked")
    }
}

impl Drop for ProcessRunner {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = self.tx.send(RunnerEvent::Shutdown);
            self.transport.shutdown();
            let _ = handle.join();
        }
    }
}

/// The runner-side metric handles, resolved once per incarnation.
struct LoopMetrics {
    ops_started: Arc<rmem_obs::Counter>,
    ops_completed: Arc<rmem_obs::Counter>,
    msgs_in: Arc<rmem_obs::Counter>,
    msgs_out: Arc<rmem_obs::Counter>,
    stores_queued: Arc<rmem_obs::Counter>,
    stores_durable: Arc<rmem_obs::Counter>,
    timer_fires: Arc<rmem_obs::Counter>,
    trace_evictions: Arc<rmem_obs::Counter>,
    queued: Arc<rmem_obs::Counter>,
    withdrawn: Arc<rmem_obs::Counter>,
    op_micros: Arc<rmem_obs::Histogram>,
    queue_micros: Arc<rmem_obs::Histogram>,
}

impl LoopMetrics {
    fn resolve(obs: &ObsHandle) -> Self {
        LoopMetrics {
            ops_started: obs.metrics.counter("runner.ops_started"),
            ops_completed: obs.metrics.counter("runner.ops_completed"),
            msgs_in: obs.metrics.counter("runner.msgs_in"),
            msgs_out: obs.metrics.counter("runner.msgs_out"),
            stores_queued: obs.metrics.counter("runner.stores_queued"),
            stores_durable: obs.metrics.counter("runner.stores_durable"),
            timer_fires: obs.metrics.counter("runner.timer_fires"),
            trace_evictions: obs.metrics.counter("runner.trace_evictions"),
            queued: obs.metrics.counter("runner.queued"),
            withdrawn: obs.metrics.counter("runner.withdrawn"),
            op_micros: obs.metrics.histogram("runner.op_micros"),
            queue_micros: obs.metrics.histogram("runner.queue_micros"),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_loop(
    mut automaton: Box<dyn Automaton>,
    storage: Box<dyn StableStorage>,
    transport: Arc<dyn Transport>,
    control: Receiver<RunnerEvent>,
    inbox: Receiver<Inbound>,
    me: ProcessId,
    boot_count: u64,
    store_failures: Arc<AtomicU64>,
    obs: ObsHandle,
) -> Box<dyn StableStorage> {
    let mut timers: BinaryHeap<Reverse<(Instant, u64)>> = BinaryHeap::new();
    let mut timer_tokens: std::collections::HashMap<u64, TimerToken> =
        std::collections::HashMap::new();
    let mut timer_seq = 0u64;
    let mut pending = OpTable::default();
    let op_counter = std::cell::Cell::new(boot_count << 32);
    // Trace plumbing: which client op each in-flight replica request and
    // each queued store belongs to (both maps are drained as requests are
    // acked and stores commit; ReqTraces additionally evicts by age).
    let mut req_traces = ReqTraces::new(4096);
    let mut token_traces: HashMap<u64, TraceId> = HashMap::new();
    let mx = LoopMetrics::resolve(&obs);
    let flight = obs.flight.clone();

    // The durability pipeline: stores leave the loop through the syncer's
    // queue and come back as StoreDone only after their group's fsync.
    let (store_done_tx, store_done_rx) = unbounded::<StoreOutcome>();
    let syncer = Syncer::spawn_with_obs(me, storage, store_done_tx, store_failures, obs.clone());

    // Admit an invocation onto its free register — fresh off the control
    // channel, or dequeued behind a completion (`queued_at` set) — and
    // return the trace context and the input that starts it.
    let start = |pending: &mut OpTable, inv: Invocation, queued_at: Option<Instant>| {
        if let (Some(at), true) = (queued_at, obs.metrics.is_enabled()) {
            mx.queue_micros.record(at.elapsed().as_micros() as u64);
        }
        mx.ops_started.inc();
        let (trace, reg) = (inv.trace, inv.operation.register());
        let op = OpId::new(me, op_counter.replace(op_counter.get() + 1));
        let operation = pending.admit(op, inv);
        let ev = FlightEvent::new(EventKind::OpStart).with_register(reg.0);
        flight.record(match trace {
            Some(t) => ev.with_op(t.client, t.op),
            None => ev.with_op(op.pid.0, op.counter),
        });
        (trace, Input::Invoke { op, operation })
    };

    // Process one input and the actions it triggers, then start the
    // invocations its completions dequeued. Stores are asynchronous
    // (paper's automaton contract): they are queued for the syncer and
    // the loop moves on — the matching StoreDone re-enters through
    // `store_done_rx` after the covering fsync returns, so an fsync in
    // flight on one register never stalls another register's round.
    let step = |automaton: &mut Box<dyn Automaton>,
                syncer: &Syncer,
                timers: &mut BinaryHeap<Reverse<(Instant, u64)>>,
                timer_tokens: &mut std::collections::HashMap<u64, TimerToken>,
                timer_seq: &mut u64,
                pending: &mut OpTable,
                req_traces: &mut ReqTraces,
                token_traces: &mut HashMap<u64, TraceId>,
                ctx_trace: Option<TraceId>,
                input: Input| {
        let mut actions = Vec::new();
        let mut next = Some((ctx_trace, input));
        while let Some((ctx_trace, input)) = next {
            automaton.on_input(input, &mut actions);
            for action in actions.drain(..) {
                match action {
                    Action::Send { to, msg } => {
                        mx.msgs_out.inc();
                        let req = msg.request_id();
                        // Requests belong to the operation in flight on the
                        // register (robust across retransmits from timers);
                        // acks to the request that asked for them.
                        let trace = if msg.is_request() {
                            let trace = pending.trace_of(req.reg);
                            flight.record(stamp(
                                FlightEvent::new(EventKind::RoundSent)
                                    .with_register(req.reg.0)
                                    .with_aux(pack_wire_aux(to.0, req.nonce, false)),
                                trace,
                            ));
                            trace
                        } else {
                            let trace = req_traces.get(&req);
                            let durable = match &msg {
                                rmem_types::Message::ReadAck { durable, .. } => *durable,
                                _ => true,
                            };
                            flight.record(stamp(
                                FlightEvent::new(EventKind::AckSent)
                                    .with_register(req.reg.0)
                                    .with_aux(pack_wire_aux(to.0, req.nonce, durable)),
                                trace,
                            ));
                            trace
                        };
                        // Fair-lossy: a failed send is a lost message.
                        let _ = transport.send_traced(to, &msg, trace);
                    }
                    Action::Store { token, key, bytes } => {
                        mx.stores_queued.inc();
                        flight.record(stamp(
                            FlightEvent::new(EventKind::StoreQueued).with_aux(token.0),
                            ctx_trace,
                        ));
                        if let Some(trace) = ctx_trace {
                            token_traces.insert(token.0, trace);
                        }
                        syncer.submit(StoreRequest { token, key, bytes });
                    }
                    Action::SetTimer { token, after } => {
                        let seq = *timer_seq;
                        *timer_seq += 1;
                        timer_tokens.insert(seq, token);
                        timers.push(Reverse((Instant::now() + Duration::from(after), seq)));
                    }
                    Action::Complete {
                        op,
                        result,
                        rounds,
                        lease,
                    } => {
                        if let Some((reply, token, started, trace)) = pending.complete(op) {
                            mx.ops_completed.inc();
                            if obs.metrics.is_enabled() {
                                mx.op_micros.record(started.elapsed().as_micros() as u64);
                            }
                            let ev =
                                FlightEvent::new(EventKind::OpComplete).with_aux(u64::from(rounds));
                            flight.record(match trace {
                                Some(t) => ev.with_op(t.client, t.op),
                                None => ev.with_op(op.pid.0, op.counter),
                            });
                            let _ = reply.send((token, result, rounds, lease));
                        }
                    }
                }
            }
            next = (pending.ready.pop()).map(|(inv, at)| start(pending, inv, Some(at)));
        }
    };

    step(
        &mut automaton,
        &syncer,
        &mut timers,
        &mut timer_tokens,
        &mut timer_seq,
        &mut pending,
        &mut req_traces,
        &mut token_traces,
        None,
        Input::Start,
    );

    loop {
        // Fire due timers first.
        let now = Instant::now();
        while let Some(Reverse((deadline, seq))) = timers.peek().copied() {
            if deadline > now {
                break;
            }
            timers.pop();
            if let Some(token) = timer_tokens.remove(&seq) {
                mx.timer_fires.inc();
                step(
                    &mut automaton,
                    &syncer,
                    &mut timers,
                    &mut timer_tokens,
                    &mut timer_seq,
                    &mut pending,
                    &mut req_traces,
                    &mut token_traces,
                    None,
                    Input::Timer(token),
                );
            }
        }
        let patience = timers
            .peek()
            .map(|Reverse((deadline, _))| deadline.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(100));

        // Sweep in a fixed order: the network first, then completed
        // commits, then the control channel. When none is ready, sleep
        // until a send on any of the three (or the drop of its last
        // sender) wakes the loop, or until the next timer is due.
        crossbeam::channel::select! {
            recv(inbox) -> net => if let Ok(Inbound { from, msg, trace }) = net {
                // (An Err means the transport is gone; the control channel
                // decides shutdown.)
                mx.msgs_in.inc();
                let req = msg.request_id();
                if msg.is_request() {
                    flight.record(stamp(
                        FlightEvent::new(EventKind::ReqRecv)
                            .with_register(req.reg.0)
                            .with_aux(pack_wire_aux(from.0, req.nonce, false)),
                        trace,
                    ));
                    if let Some(trace) = trace {
                        // Remember the op so the ack (possibly sent later,
                        // from the durability pipeline) carries it too.
                        if req_traces.insert(req, trace) {
                            mx.trace_evictions.inc();
                        }
                    }
                } else {
                    // An ack round-trip closing: the `durable` attestation
                    // matters for the read fast path, so it rides along.
                    let durable = match &msg {
                        rmem_types::Message::ReadAck { durable, .. } => *durable,
                        _ => true,
                    };
                    flight.record(stamp(
                        FlightEvent::new(EventKind::AckRecv)
                            .with_register(req.reg.0)
                            .with_aux(pack_wire_aux(from.0, req.nonce, durable)),
                        trace,
                    ));
                }
                step(
                    &mut automaton,
                    &syncer,
                    &mut timers,
                    &mut timer_tokens,
                    &mut timer_seq,
                    &mut pending,
                    &mut req_traces,
                    &mut token_traces,
                    trace,
                    Input::Message { from, msg },
                );
            },
            recv(store_done_rx) -> done => match done {
                Ok(StoreOutcome::Done(token)) => {
                    mx.stores_durable.inc();
                    let trace = token_traces.remove(&token.0);
                    flight.record(stamp(
                        FlightEvent::new(EventKind::StoreDurable).with_aux(token.0),
                        trace,
                    ));
                    step(
                        &mut automaton,
                        &syncer,
                        &mut timers,
                        &mut timer_tokens,
                        &mut timer_seq,
                        &mut pending,
                        &mut req_traces,
                        &mut token_traces,
                        trace,
                        Input::StoreDone(token),
                    );
                }
                Ok(StoreOutcome::Failed(e)) => {
                    // The log failed: per the crash-recovery model the
                    // process crashes rather than run ahead of its stable
                    // storage. Halt cleanly — in-flight operations see
                    // ProcessDown, the disk survives for a restart — and
                    // leave a postmortem: the structured Halt event plus
                    // the tail of the flight recorder.
                    let reason = format!("stable storage failed: {e}");
                    flight.halt(&reason);
                    eprintln!(
                        "rmem[{me}]: {reason}; halting the node\n\
                         rmem[{me}]: last events before the halt:\n{}",
                        flight.dump_timeline(HALT_DUMP_EVENTS)
                    );
                    break;
                }
                Err(_) => {
                    // Syncer gone without a verdict: same terminal state,
                    // same postmortem.
                    let reason = "syncer exited without a verdict".to_string();
                    flight.halt(&reason);
                    eprintln!(
                        "rmem[{me}]: {reason}; halting the node\n\
                         rmem[{me}]: last events before the halt:\n{}",
                        flight.dump_timeline(HALT_DUMP_EVENTS)
                    );
                    break;
                }
            },
            recv(control) -> ctl => match ctl {
                Ok(RunnerEvent::Invoke(inv)) => match pending.arrive(inv) {
                    Some(inv) => {
                        let (trace, input) = start(&mut pending, inv, None);
                        step(
                            &mut automaton,
                            &syncer,
                            &mut timers,
                            &mut timer_tokens,
                            &mut timer_seq,
                            &mut pending,
                            &mut req_traces,
                            &mut token_traces,
                            trace,
                            input,
                        );
                    }
                    None => mx.queued.inc(),
                },
                Ok(RunnerEvent::Withdraw { reg, family, token }) => {
                    if pending.withdraw(reg, family, token) {
                        mx.withdrawn.inc();
                    }
                }
                Ok(RunnerEvent::Shutdown) | Err(_) => break,
            },
            default(patience) => {}
        }
    }
    // Every exit path lands here. Fail what will never complete: the
    // admitted and queued operations, and the invocations still on the
    // control channel (or racing in as the loop exits) — without this, a
    // pipelined waiter would burn its full patience window on an
    // operation whose emulation is gone.
    while let Ok(ev) = control.try_recv() {
        if let RunnerEvent::Invoke(inv) = ev {
            pending.ready.push((inv, Instant::now()));
        }
    }
    pending.drain_shutdown();
    syncer.stop()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelTransport, Switchboard};
    use rmem_core::Transient;
    use rmem_storage::MemStorage;
    use rmem_types::Value;

    fn spin_cluster(n: usize) -> Vec<ProcessRunner> {
        let board = Switchboard::new(n);
        let factory = Transient::factory();
        (0..n as u16)
            .map(|i| {
                let (tx, rx) = unbounded();
                let transport = Arc::new(ChannelTransport::new(ProcessId(i), n, board.clone(), tx));
                ProcessRunner::start(factory.as_ref(), Box::new(MemStorage::new()), transport, rx)
            })
            .collect()
    }

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

    #[test]
    fn write_then_read_through_real_threads() {
        let runners = spin_cluster(3);
        runners[0]
            .client()
            .write(Value::from_u32(7))
            .expect("write");
        let v = runners[1].client().read().expect("read");
        assert_eq!(v.as_u32(), Some(7));
        for r in runners {
            r.stop();
        }
    }

    #[test]
    fn second_invocation_while_busy_queues_and_completes_in_order() {
        let runners = spin_cluster(3);
        let pipe = runners[0].client().pipelined();
        // Two writes and a read on the one register, submitted back to
        // back: the later ones queue behind the first and run in
        // submission order, so the read sees the second write.
        let first = pipe.submit(0, Op::Write(Value::from_u32(1))).unwrap();
        let second = pipe.submit(0, Op::Write(Value::from_u32(2))).unwrap();
        let read = pipe.submit(0, Op::Read).unwrap();
        let read = pipe.wait(read).expect("the queued read completes");
        assert_eq!(read.0, OpResult::ReadValue(Value::from_u32(2)));
        for write in [first, second] {
            assert_eq!(pipe.wait(write).expect("write").0, OpResult::Written);
        }
        for r in runners {
            r.stop();
        }
    }

    fn invocation(reg: u16, family: u64, token: u64, reply: &Sender<Completion>) -> Invocation {
        Invocation {
            operation: Op::ReadAt(RegisterId(reg)),
            reply: reply.clone(),
            family,
            token,
            trace: None,
        }
    }

    fn op(counter: u64) -> OpId {
        OpId::new(ProcessId(0), counter)
    }

    #[test]
    fn op_table_admits_same_register_invocations_in_fifo_order() {
        let (tx, _rx) = unbounded();
        let mut table = OpTable::default();
        let first = table.arrive(invocation(0, 1, 1, &tx));
        table.admit(op(1), first.expect("a free register admits at once"));
        assert!(table.arrive(invocation(0, 1, 2, &tx)).is_none());
        assert!(table.arrive(invocation(0, 1, 3, &tx)).is_none());
        // Another register is not held up by register 0's queue.
        assert!(table.arrive(invocation(1, 1, 4, &tx)).is_some());
        assert!(table.ready.is_empty());
        // Each completion releases exactly the next arrival.
        assert!(table.complete(op(1)).is_some());
        let (next, _) = table.ready.pop().expect("the completion dequeues");
        assert_eq!(next.token, 2);
        assert!(table.ready.is_empty(), "one admission per completion");
        table.admit(op(2), next);
        assert!(table.complete(op(2)).is_some());
        assert_eq!(table.ready.pop().expect("dequeued").0.token, 3);
    }

    #[test]
    fn withdrawn_invocation_never_starts_and_halt_fails_the_queue() {
        let (tx, rx) = unbounded();
        let mut table = OpTable::default();
        table.admit(op(1), invocation(0, 1, 1, &tx));
        assert!(table.arrive(invocation(0, 1, 2, &tx)).is_none());
        assert!(table.arrive(invocation(0, 1, 3, &tx)).is_none());
        assert!(!table.withdraw(RegisterId(0), 9, 2), "another family");
        assert!(!table.withdraw(RegisterId(0), 1, 1), "admitted ops stay");
        assert!(table.withdraw(RegisterId(0), 1, 2));
        assert!(!table.withdraw(RegisterId(0), 1, 2), "withdrawn once");
        // The withdrawn invocation is skipped: token 3 is next.
        assert!(table.complete(op(1)).is_some());
        let (next, _) = table.ready.pop().expect("dequeued");
        assert_eq!(next.token, 3);
        table.admit(op(2), next);
        assert!(table.arrive(invocation(0, 1, 4, &tx)).is_none());
        // A halt fails the admitted op and the queued one, and nothing
        // reaches the withdrawn invocation.
        table.drain_shutdown();
        let mut failed: Vec<_> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
        failed.sort_by_key(|(token, ..)| *token);
        let shutdown = OpResult::Rejected(RejectReason::Shutdown);
        let expected = [(3, shutdown.clone(), 0, None), (4, shutdown, 0, None)];
        assert_eq!(failed, expected);
    }

    #[test]
    fn distinct_registers_run_concurrently_through_one_runner() {
        use rmem_core::SharedMemory;
        let board = Switchboard::new(3);
        let factory = SharedMemory::factory(Transient::flavor());
        let runners: Vec<_> = (0..3u16)
            .map(|i| {
                let (tx, rx) = unbounded();
                let transport = Arc::new(ChannelTransport::new(ProcessId(i), 3, board.clone(), tx));
                ProcessRunner::start(factory.as_ref(), Box::new(MemStorage::new()), transport, rx)
            })
            .collect();
        let client = runners[0].client();
        // Many threads, one register each: every operation succeeds and
        // reads back its own register's value.
        let handles: Vec<_> = (0..8u16)
            .map(|r| {
                let c = client.clone();
                std::thread::spawn(move || {
                    c.write_at(rmem_types::RegisterId(r), Value::from_u32(r as u32 + 1))?;
                    c.read_at(rmem_types::RegisterId(r))
                })
            })
            .collect();
        for (r, h) in handles.into_iter().enumerate() {
            let v = h.join().unwrap().expect("concurrent op must complete");
            assert_eq!(v.as_u32(), Some(r as u32 + 1));
        }
        for r in runners {
            r.stop();
        }
    }

    #[test]
    fn storage_comes_back_from_stop() {
        let runners = spin_cluster(3);
        runners[0].client().write(Value::from_u32(5)).unwrap();
        let mut storages: Vec<_> = runners.into_iter().map(|r| r.stop()).collect();
        // At least a majority logged the value.
        let holders = storages
            .iter_mut()
            .filter(|s| {
                s.retrieve(rmem_storage::records::KEY_WRITTEN)
                    .ok()
                    .flatten()
                    .and_then(|b| rmem_storage::records::WrittenRecord::decode(&b).ok())
                    .is_some_and(|r| r.value.as_u32() == Some(5))
            })
            .count();
        assert!(holders >= 2, "majority must hold the value, got {holders}");
    }
}
