//! The discrete-event simulation engine.
//!
//! Each process is an [`rmem_core::NodeCore`] — the same node
//! implementation the real runtime hosts, with its operation table,
//! timers and op ids — driven in virtual time. The engine supplies what a
//! host supplies: the network, the disk, crashes and recoveries, and the
//! causal-chain accounting of [`crate::trace`].

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmem_core::{Effect, NodeCore, NodeEvent};
use rmem_obs::ObsHandle;
use rmem_storage::{MemStorage, SnapshotView, StableStorage};
use rmem_types::{AutomatonFactory, Micros, OpId, ProcessId, RequestId};

use crate::config::ClusterConfig;
use crate::event::{EventKind, EventQueue, Issuer};
use crate::network::{Fate, NetworkModel};
use crate::time::VirtualTime;
use crate::trace::Trace;
use crate::workload::{ClosedLoop, PlannedEvent, Schedule};

/// One simulated process: its node core (volatile — destroyed by crashes)
/// and its stable storage (owned by the engine — survives crashes).
#[derive(Default)]
struct ProcSlot {
    core: Option<NodeCore<Issuer>>,
    storage: MemStorage,
    /// Bumped at every crash; store completions and ticks from older
    /// incarnations are discarded.
    incarnation: u32,
    /// The earliest tick scheduled for this incarnation, if any.
    tick_at: Option<VirtualTime>,
    /// Set while the process runs its recovery procedure (between the
    /// Recover event and the automaton reporting ready); drives the
    /// recovery-duration measurement.
    recovering_since: Option<VirtualTime>,
    /// Group-commit disk state (`DiskConfig::coalesce`): when the fsync
    /// currently scheduled last will complete, and the start/completion
    /// of the commit currently accepting joiners. The disk outlives
    /// crashes (hardware keeps spinning); only the StoreDone deliveries
    /// die with the incarnation.
    disk_busy_until: VirtualTime,
    disk_group_start: VirtualTime,
    disk_group_done: VirtualTime,
}

struct LoopState {
    pid: ProcessId,
    remaining: std::collections::VecDeque<rmem_types::Op>,
    think: Micros,
    /// An invocation of this loop is in flight (scheduled, queued or
    /// admitted).
    in_flight: bool,
}

/// Outcome summary of a run.
#[derive(Debug)]
pub struct SimReport {
    /// The full execution trace (operations, history, counters).
    pub trace: Trace,
    /// Virtual time at which the run stopped.
    pub final_time: VirtualTime,
    /// Total events processed.
    pub events_processed: u64,
    /// Messages dropped by the network (loss + partitions).
    pub messages_dropped: u64,
    /// Messages duplicated by the network.
    pub messages_duplicated: u64,
    /// Whether the run ended by quiescence (`true`) or by hitting the
    /// time/event limit (`false`).
    pub quiescent: bool,
}

/// A deterministic simulation of a cluster running one automaton per
/// process.
///
/// Construct with [`Simulation::new`], attach workloads
/// ([`with_schedule`](Simulation::with_schedule),
/// [`add_closed_loop`](Simulation::add_closed_loop)) and call
/// [`run`](Simulation::run). The same seed and workload always produce the
/// identical run.
pub struct Simulation {
    config: ClusterConfig,
    factory: Arc<dyn AutomatonFactory>,
    /// Every node core records into this disabled handle: no clock reads,
    /// no flight events.
    obs: ObsHandle,
    now: VirtualTime,
    queue: EventQueue,
    net: NetworkModel,
    rng: StdRng,
    procs: Vec<ProcSlot>,
    trace: Trace,
    loops: Vec<LoopState>,
    schedule: Vec<(VirtualTime, PlannedEvent)>,
    events_processed: u64,
    /// Requester-relative causal chains for acknowledgements a replica
    /// parked behind a store: when a request is delivered and not
    /// immediately acknowledged, the ack it eventually triggers must carry
    /// `request chain + 1` (one store on the requester's path), not the
    /// chain of whatever store completion happened to release it — that
    /// store may belong to a different operation's lineage.
    deferred_acks: HashMap<(ProcessId, RequestId), u32>,
    /// The chain each process first sent each of its requests with.
    round_chains: HashMap<(ProcessId, RequestId), u32>,
    /// Messages sent while handling the current event (drives the
    /// sender-side serialization model, `NetConfig::serialize_per_msg`).
    sends_this_event: u32,
    /// Reused effect buffer.
    effects: Vec<Effect<Issuer>>,
    ran: bool,
}

impl Simulation {
    /// Creates a simulation of `config.n` processes built by `factory`,
    /// with all randomness derived from `seed`.
    pub fn new(config: ClusterConfig, factory: Arc<dyn AutomatonFactory>, seed: u64) -> Self {
        let procs = (0..config.n).map(|_| ProcSlot::default()).collect();
        Simulation {
            net: NetworkModel::new(config.net.clone()),
            rng: StdRng::seed_from_u64(seed),
            config,
            factory,
            obs: ObsHandle::disabled(),
            now: VirtualTime::ZERO,
            queue: EventQueue::new(),
            procs,
            trace: Trace::new(),
            loops: Vec::new(),
            schedule: Vec::new(),
            events_processed: 0,
            deferred_acks: HashMap::new(),
            round_chains: HashMap::new(),
            sends_this_event: 0,
            effects: Vec::new(),
            ran: false,
        }
    }

    /// Attaches a scripted schedule (crashes, recoveries, scripted
    /// invocations, partitions).
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule.extend(schedule.entries().iter().cloned());
        self
    }

    /// Attaches a closed-loop client; its first invocation happens
    /// `start_after` into the run.
    pub fn add_closed_loop(&mut self, cl: ClosedLoop) {
        assert!(
            cl.pid.index() < self.config.n,
            "closed loop bound to unknown process {}",
            cl.pid
        );
        self.loops.push(LoopState {
            pid: cl.pid,
            remaining: cl.ops.into(),
            think: cl.think,
            in_flight: false,
        });
        self.loop_next(
            self.loops.len() - 1,
            VirtualTime::ZERO.after(cl.start_after),
        );
    }

    /// Read-only view of a process's stable storage (inspect after `run`).
    pub fn storage(&self, pid: ProcessId) -> &MemStorage {
        &self.procs[pid.index()].storage
    }

    /// Runs the simulation to quiescence or its limits, returning the
    /// report. May be called once.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn run(&mut self) -> SimReport {
        assert!(!self.ran, "Simulation::run may only be called once");
        self.ran = true;

        // Plant the scripted schedule.
        let schedule = std::mem::take(&mut self.schedule);
        for (at, ev) in schedule {
            let kind = match ev {
                PlannedEvent::Invoke(pid, operation) => EventKind::Invoke {
                    pid,
                    operation,
                    issuer: Issuer::Script,
                },
                PlannedEvent::Crash(pid) => EventKind::Crash { pid },
                PlannedEvent::Recover(pid) => EventKind::Recover { pid },
                PlannedEvent::Block(from, to) => EventKind::SetLink {
                    from,
                    to,
                    blocked: true,
                },
                PlannedEvent::Unblock(from, to) => EventKind::SetLink {
                    from,
                    to,
                    blocked: false,
                },
            };
            self.queue.push(at, kind);
        }

        // Boot every process.
        for pid in ProcessId::all(self.config.n) {
            let automaton = self.factory.fresh(pid, self.config.n);
            self.procs[pid.index()].core = Some(NodeCore::new(pid, automaton, 0, &self.obs));
        }
        for pid in ProcessId::all(self.config.n) {
            self.feed(pid, NodeEvent::Start, 0, None);
        }

        let mut quiescent = false;
        let mut hit_limit = false;
        while let Some(ev) = self.queue.pop() {
            if ev.at > self.config.max_time || self.events_processed >= self.config.max_events {
                hit_limit = true;
                break;
            }
            debug_assert!(ev.at >= self.now, "event queue delivered out of order");
            self.now = ev.at;
            self.events_processed += 1;
            self.sends_this_event = 0;
            self.dispatch(ev.kind);

            if self.queue.len() < 256 && self.is_idle() {
                quiescent = true;
                break;
            }
        }
        if !hit_limit && self.queue.is_empty() {
            quiescent = true;
        }

        SimReport {
            trace: std::mem::take(&mut self.trace),
            final_time: self.now,
            events_processed: self.events_processed,
            messages_dropped: self.net.dropped,
            messages_duplicated: self.net.duplicated,
            quiescent,
        }
    }

    /// Completes the recovery-duration measurement when a recovering
    /// process first reports ready.
    fn note_if_recovered(&mut self, pid: ProcessId) {
        let slot = &mut self.procs[pid.index()];
        if let Some(since) = slot.recovering_since {
            if slot.core.as_ref().is_some_and(|c| c.is_ready()) {
                slot.recovering_since = None;
                self.trace.record_recovery_duration(self.now.since(since));
            }
        }
    }

    /// Whether nothing meaningful remains: every live process is idle and
    /// ready, every loop is done, and only timer ticks are queued (a
    /// linear scan, kept small by the caller's `len()` guard).
    fn is_idle(&self) -> bool {
        let mut cores = self.procs.iter().filter_map(|s| s.core.as_ref());
        let mut loops = self.loops.iter();
        let mut queue = self.queue.iter();
        cores.all(|c| !c.is_busy() && c.is_ready())
            && loops.all(|l| l.remaining.is_empty() && !l.in_flight)
            && queue.all(|kind| matches!(kind, EventKind::Tick { .. }))
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Deliver {
                to,
                from,
                msg,
                chain,
            } => {
                let Some(core) = self.procs[to.index()].core.as_ref() else {
                    return; // crashed receivers hear nothing
                };
                self.trace.messages_delivered += 1;
                // A message belongs to the receiver's own operation on the
                // register its request id names (request ids carry the
                // register, so concurrent operations on distinct registers
                // attribute independently).
                let req = msg.request_id();
                let attributed = (req.origin == to).then(|| core.op_on(req.reg)).flatten();
                let event = NodeEvent::Message {
                    from,
                    msg,
                    trace: None,
                };
                self.feed(to, event, chain, attributed);
            }
            EventKind::StoreDone {
                pid,
                token,
                key,
                bytes,
                incarnation,
                chain,
                attributed_op,
            } => {
                let slot = &mut self.procs[pid.index()];
                if slot.incarnation != incarnation {
                    return; // the store was in flight when the process crashed: lost
                }
                slot.storage
                    .store(&key, bytes)
                    .expect("MemStorage store cannot fail");
                self.trace.stores_applied += 1;
                let core = slot.core.as_ref().expect("a live incarnation has a core");
                if !core.is_busy() {
                    self.trace.background_stores += 1;
                }
                // (A store attributed to a since-completed operation bumps
                // nothing: completed records keep their chain.)
                self.feed(pid, NodeEvent::StoreDone(token), chain, attributed_op);
            }
            EventKind::Tick { pid, incarnation } => {
                let slot = &mut self.procs[pid.index()];
                if slot.incarnation != incarnation {
                    return;
                }
                if slot.tick_at == Some(self.now) {
                    slot.tick_at = None;
                }
                self.feed(pid, NodeEvent::Tick, 0, None);
            }
            EventKind::Invoke {
                pid,
                operation,
                issuer,
            } => {
                if self.procs[pid.index()].core.is_none() {
                    self.trace.invokes_dropped += 1;
                    if let Issuer::Loop(i) = issuer {
                        self.loops[i].in_flight = false;
                    }
                    return;
                }
                // The core queues a same-register invocation behind the
                // register's operation (§III-A sequentiality per register
                // emulation); its `Started` effect records the invocation.
                let event = NodeEvent::Invoke {
                    operation,
                    host: issuer,
                    trace: None,
                };
                self.feed(pid, event, 0, None);
            }
            EventKind::Crash { pid } => {
                let slot = &mut self.procs[pid.index()];
                let Some(mut core) = slot.core.take() else {
                    return;
                };
                slot.incarnation += 1;
                slot.tick_at = None;
                slot.recovering_since = None;
                // The admitted and queued invocations are lost (admitted
                // ones stay pending in the trace); their loops resume at
                // recovery.
                core.halt(&mut self.effects);
                for effect in self.effects.drain(..) {
                    if let Effect::Reply {
                        host: Issuer::Loop(i),
                        ..
                    } = effect
                    {
                        self.loops[i].in_flight = false;
                    }
                }
                self.deferred_acks.retain(|(p, _), _| *p != pid);
                self.round_chains.retain(|(p, _), _| *p != pid);
                self.trace.record_crash(self.now, pid);
            }
            EventKind::Recover { pid } => {
                let slot = &self.procs[pid.index()];
                if slot.core.is_some() {
                    return;
                }
                let snapshot = SnapshotView::new(&slot.storage);
                let incarnation = u64::from(slot.incarnation);
                let automaton = self
                    .factory
                    .recover(pid, self.config.n, incarnation, &snapshot);
                let core = NodeCore::new(pid, automaton, incarnation, &self.obs);
                let slot = &mut self.procs[pid.index()];
                slot.core = Some(core);
                slot.recovering_since = Some(self.now);
                self.trace.record_recover(self.now, pid);
                self.feed(pid, NodeEvent::Start, 0, None);
                // Loops whose invocation the crash lost go on.
                for i in 0..self.loops.len() {
                    let lp = &self.loops[i];
                    if lp.pid == pid && !lp.in_flight {
                        self.loop_next(i, self.now.after(lp.think));
                    }
                }
            }
            EventKind::SetLink { from, to, blocked } => {
                self.net.set_link(from, to, blocked);
            }
        }
    }

    /// Hands `event` to `pid`'s node core and performs the resulting
    /// effects. `chain` is the causal-log count carried by the event;
    /// `attributed` names the admitted operation the event belongs to, if
    /// any (several operations can be in flight — attribution is per
    /// register, not per process).
    fn feed(
        &mut self,
        pid: ProcessId,
        event: NodeEvent<Issuer>,
        chain: u32,
        attributed: Option<OpId>,
    ) {
        if let Some(op) = attributed {
            self.trace.bump_chain(op, chain);
        }
        // If the event is a protocol request, note it so a deferred ack
        // can be assigned its requester-relative chain (see field docs).
        let request_id = match &event {
            NodeEvent::Message { msg, .. } if msg.is_request() => Some(msg.request_id()),
            _ => None,
        };
        let now = Micros(self.now.as_micros());
        let mut effects = std::mem::take(&mut self.effects);
        let Some(core) = self.procs[pid.index()].core.as_mut() else {
            return;
        };
        let next = core.handle(now, event, &mut effects);
        if let Some(req) = request_id {
            let acked_now = effects.iter().any(|e| {
                matches!(e, Effect::Send { msg, .. } if !msg.is_request() && msg.request_id() == req)
            });
            if !acked_now {
                self.deferred_acks.insert((pid, req), chain + 1);
            }
        }
        let (mut chain, mut attributed) = (chain, attributed);
        for effect in effects.drain(..) {
            self.apply_effect(pid, effect, &mut chain, &mut attributed);
        }
        self.effects = effects;
        self.note_if_recovered(pid);
        if let Some(deadline) = next {
            let at = VirtualTime(deadline.0);
            let slot = &mut self.procs[pid.index()];
            if slot.tick_at.is_none_or(|t| at < t) {
                slot.tick_at = Some(at);
                let incarnation = slot.incarnation;
                self.queue.push(at, EventKind::Tick { pid, incarnation });
            }
        }
    }

    /// Performs one effect of an event that carried `chain` and belongs to
    /// operation `attributed` (see [`crate::trace`]); a `Started` effect
    /// switches both to the operation it opens.
    fn apply_effect(
        &mut self,
        pid: ProcessId,
        effect: Effect<Issuer>,
        chain: &mut u32,
        attributed: &mut Option<OpId>,
    ) {
        match effect {
            Effect::Send { to, msg, .. } => {
                assert!(to.index() < self.config.n, "send to unknown process {to}");
                self.trace.messages_sent += 1;
                // A request carries the chain of the event that first sent
                // it (a timer's retransmission re-sends the round with the
                // chain it started under); an ack carries its request's
                // deferred chain. Duplicated requests can make one round
                // send several acks, so that chain must outlive the first
                // ack: look up without consuming (entries die with a crash
                // of the process, and request ids are never reused).
                let key = (pid, msg.request_id());
                let chain = if msg.is_request() {
                    *self.round_chains.entry(key).or_insert(*chain)
                } else {
                    self.deferred_acks.get(&key).copied().unwrap_or(*chain)
                };
                let serialization =
                    Micros(self.sends_this_event as u64 * self.config.net.serialize_per_msg.0);
                self.sends_this_event += 1;
                let fate = self.net.fate(pid, to, msg.payload_len(), &mut self.rng);
                let deliver = |msg| EventKind::Deliver {
                    to,
                    from: pid,
                    msg,
                    chain,
                };
                match fate {
                    Fate::Drop => {}
                    Fate::Deliver(d) => {
                        self.queue
                            .push(self.now.after(serialization + d), deliver(msg));
                    }
                    Fate::Duplicate(d1, d2) => {
                        let first = deliver(msg.clone());
                        self.queue.push(self.now.after(serialization + d1), first);
                        self.queue
                            .push(self.now.after(serialization + d2), deliver(msg));
                    }
                }
            }
            Effect::Store { token, key, bytes } => {
                let disk = self.config.disk_of(pid.index()).clone();
                let jitter = if disk.jitter.0 > 0 {
                    Micros(self.rng.gen_range(0..=disk.jitter.0))
                } else {
                    Micros(0)
                };
                let latency = disk.base_latency
                    + jitter
                    + Micros((bytes.len() as u64 * disk.ns_per_byte) / 1_000);
                let slot = &mut self.procs[pid.index()];
                let done_at = if !disk.coalesce {
                    // Unlimited parallel stores: each pays its own latency.
                    self.now.after(latency)
                } else if self.now >= slot.disk_busy_until {
                    // Idle disk: this store's commit starts immediately.
                    slot.disk_group_start = self.now;
                    slot.disk_group_done = self.now.after(latency);
                    slot.disk_busy_until = slot.disk_group_done;
                    slot.disk_group_done
                } else if self.now <= slot.disk_group_start {
                    // A commit is queued but its fsync has not started:
                    // join the group — same fsync, same completion.
                    self.trace.stores_coalesced += 1;
                    slot.disk_group_done
                } else {
                    // The accepting commit's fsync is already running:
                    // open the next group, starting when the disk frees.
                    slot.disk_group_start = slot.disk_busy_until;
                    slot.disk_group_done = slot.disk_busy_until.after(latency);
                    slot.disk_busy_until = slot.disk_group_done;
                    slot.disk_group_done
                };
                let incarnation = slot.incarnation;
                self.queue.push(
                    done_at,
                    EventKind::StoreDone {
                        pid,
                        token,
                        key,
                        bytes,
                        incarnation,
                        chain: *chain + 1,
                        attributed_op: *attributed,
                    },
                );
            }
            Effect::Started { op, operation } => {
                // The effects that follow are the new operation's: an
                // invocation starts with chain 0.
                self.trace.record_invoke(self.now, op, operation);
                (*chain, *attributed) = (0, Some(op));
            }
            Effect::Reply {
                op: Some(op),
                host,
                result,
                rounds,
                ..
            } => {
                self.trace.bump_chain(op, *chain);
                self.trace.record_rounds(op, rounds);
                self.trace.record_complete(self.now, op, result);
                if let Issuer::Loop(i) = host {
                    let at = self.now.after(self.loops[i].think);
                    self.loop_next(i, at);
                }
            }
            // Only a halt replies before admission, and crashes take
            // their halt's replies directly.
            Effect::Reply { op: None, .. } => {}
        }
    }

    /// Closed loop `i`'s previous invocation is over: issue its next
    /// operation at `at`, if any remains.
    fn loop_next(&mut self, i: usize, at: VirtualTime) {
        let lp = &mut self.loops[i];
        lp.in_flight = false;
        if let Some(operation) = lp.remaining.pop_front() {
            lp.in_flight = true;
            let pid = lp.pid;
            let issuer = Issuer::Loop(i);
            self.queue.push(
                at,
                EventKind::Invoke {
                    pid,
                    operation,
                    issuer,
                },
            );
        }
    }
}
