//! Hosting one process on real threads, sockets, timers and disk.
//!
//! The process itself — automaton, operation table, timers, trace maps,
//! metrics and flight events — is a sans-IO [`NodeCore`], the same one
//! the simulator hosts. This module is its real-world host: one event
//! loop per incarnation waits for the next network message, durable
//! store or client request (or the core's next timer deadline), hands it
//! to [`NodeCore::handle`] with the microseconds elapsed since the
//! incarnation booted, and performs the effects — sends go to the
//! transport, replies to the clients' completion channels, stores to the
//! node's [`syncer`](crate::syncer) thread.
//!
//! Durability runs on that pipeline: the loop keeps serving network
//! messages, timers and other registers' operations while an fsync is in
//! flight; the syncer group-commits whatever queued and posts `StoreDone`
//! back through the loop only after the covering fsync returned
//! (*ack-after-durable*, the real form of the paper's §V-A invariant). A
//! log failure halts the node — the crash-recovery model's prescription
//! for a process that can no longer trust its stable storage — observable
//! via [`ProcessRunner::store_failures`] / [`ProcessRunner::is_halted`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use rmem_core::{Effect, NodeCore, NodeEvent};
use rmem_obs::{EventKind, FlightEvent, FlightRecorder, ObsHandle};
use rmem_storage::records::KEY_WRITTEN;
use rmem_storage::{SnapshotView, StableStorage};
use rmem_types::{
    AutomatonFactory, Micros, Op, OpResult, ProcessId, RegisterId, RejectReason, TraceId,
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

/// Who is waiting for an invocation's reply: the client family's
/// completion channel and family id, and the submission's slot token.
pub(crate) struct Caller {
    pub(crate) reply: Sender<Completion>,
    pub(crate) family: u64,
    pub(crate) token: u64,
}

/// Two callers name the same invocation when family and token match; the
/// channel only says where the reply goes.
impl PartialEq for Caller {
    fn eq(&self, other: &Self) -> bool {
        (self.family, self.token) == (other.family, other.token)
    }
}

impl Caller {
    fn answer(self, result: OpResult, rounds: u32, lease: Option<rmem_types::LeaseGrant>) {
        let _ = self.reply.send((self.token, result, rounds, lease));
    }
}

pub(crate) enum RunnerEvent {
    /// An invocation, or a client withdrawing a still-queued one.
    Node(NodeEvent<Caller>),
    Shutdown,
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

        let core = NodeCore::new(me, automaton, boot_count, &obs);
        let (tx, rx) = unbounded::<RunnerEvent>();
        let store_failures = Arc::new(AtomicU64::new(0));
        let loop_transport = transport.clone();
        let loop_failures = store_failures.clone();
        let loop_obs = obs.clone();
        let handle = std::thread::Builder::new()
            .name(format!("rmem-proc-{me}"))
            .spawn(move || {
                run_loop(
                    core,
                    storage,
                    loop_transport,
                    rx,
                    inbox,
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

/// The event loop of one incarnation: wait for the next event (or the
/// core's next timer deadline), hand it to the core, perform the effects.
fn run_loop(
    mut core: NodeCore<Caller>,
    storage: Box<dyn StableStorage>,
    transport: Arc<dyn Transport>,
    control: Receiver<RunnerEvent>,
    inbox: Receiver<Inbound>,
    store_failures: Arc<AtomicU64>,
    obs: ObsHandle,
) -> Box<dyn StableStorage> {
    let me = transport.local();
    // The durability pipeline: stores leave the loop through the syncer's
    // queue and come back as StoreDone only after their group's fsync.
    let (store_done_tx, store_done_rx) = unbounded::<StoreOutcome>();
    let syncer = Syncer::spawn_with_obs(me, storage, store_done_tx, store_failures, obs.clone());
    let origin = Instant::now();
    let now = || Micros(origin.elapsed().as_micros() as u64);
    let perform = |effect: Effect<Caller>| match effect {
        // Fair-lossy: a failed send is a lost message.
        Effect::Send { to, msg, trace } => {
            let _ = transport.send_traced(to, &msg, trace);
        }
        Effect::Store { token, key, bytes } => syncer.submit(StoreRequest { token, key, bytes }),
        Effect::Reply {
            host,
            result,
            rounds,
            lease,
            ..
        } => host.answer(result, rounds, lease),
        Effect::Started { .. } => {}
    };
    let mut effects = Vec::new();
    let mut event = NodeEvent::Start;
    loop {
        let next = core.handle(now(), event, &mut effects);
        effects.drain(..).for_each(perform);
        let patience = next.map_or(Duration::from_millis(100), |deadline| {
            Duration::from_micros(deadline.0.saturating_sub(now().0))
        });
        if patience.is_zero() {
            event = NodeEvent::Tick;
            continue;
        }
        // Sweep in a fixed order: the network first, then completed
        // commits, then the control channel. When none is ready, sleep
        // until a send on any of the three (or the drop of its last
        // sender) wakes the loop, or until the next timer is due.
        event = crossbeam::channel::select! {
            recv(inbox) -> net => match net {
                Ok(Inbound { from, msg, trace }) => NodeEvent::Message { from, msg, trace },
                // The transport is gone; the control channel decides
                // shutdown.
                Err(_) => NodeEvent::Tick,
            },
            recv(store_done_rx) -> done => match done {
                Ok(StoreOutcome::Done(token)) => NodeEvent::StoreDone(token),
                // The log failed (or the syncer exited without a
                // verdict): per the crash-recovery model the process
                // crashes rather than run ahead of its stable storage.
                // Halt cleanly — in-flight operations see ProcessDown,
                // the disk survives for a restart — and leave a
                // postmortem: the structured Halt event plus the tail of
                // the flight recorder.
                failed => {
                    let reason = match failed {
                        Ok(StoreOutcome::Failed(e)) => format!("stable storage failed: {e}"),
                        _ => "syncer exited without a verdict".to_string(),
                    };
                    obs.flight.halt(&reason);
                    eprintln!(
                        "rmem[{me}]: {reason}; halting the node\n\
                         rmem[{me}]: last events before the halt:\n{}",
                        obs.flight.dump_timeline(HALT_DUMP_EVENTS)
                    );
                    break;
                }
            },
            recv(control) -> ctl => match ctl {
                Ok(RunnerEvent::Node(event)) => event,
                Ok(RunnerEvent::Shutdown) | Err(_) => break,
            },
            default(patience) => NodeEvent::Tick,
        };
    }
    // Every exit path lands here. Fail what will never complete: the
    // admitted and queued operations, and the invocations still on the
    // control channel (or racing in as the loop exits) — without this, a
    // pipelined waiter would burn its full patience window on an
    // operation whose emulation is gone.
    while let Ok(ev) = control.try_recv() {
        if let RunnerEvent::Node(NodeEvent::Invoke { host, .. }) = ev {
            host.answer(OpResult::Rejected(RejectReason::Shutdown), 0, None);
        }
    }
    core.halt(&mut effects);
    effects.drain(..).for_each(perform);
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
