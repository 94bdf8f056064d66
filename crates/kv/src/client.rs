//! The real-runtime store client: epoch-aware key routing over a cached
//! shard map, one op engine driving every operation across the cluster's
//! nodes, and a live shard-split protocol.
//!
//! # The op engine
//!
//! Every store operation — `get`, `put`, each key of
//! `multi_get`/`multi_put`, the raw register reads and writes the
//! batching layer builds on, the shard-map reads and the migration
//! copies — is a small per-op state machine, and one loop on the calling
//! thread advances all of a call's ops over a single
//! [`PipelinedClient`] fan spanning every node. A blocking `get`/`put`
//! is that loop driving one op; a multi-key call drives one per key,
//! queued client-side one op per register at a time (see
//! [`KvClient::drive`] for why). An op's states:
//!
//! 1. **route** under the cached shard map;
//! 2. **lease check** — a get served by a live tag lease ends here, with
//!    zero datagrams;
//! 3. **submit** to the next node of the health-gated failover rotation
//!    (a guarded write re-checks its epoch before every attempt);
//! 4. on completion: **done**, **fail over** to the next node,
//!    **barrier seal-poll** again, **split forward-read**, **refresh and
//!    re-route** on a foreign epoch stamp, or **abort and re-route** when
//!    a guarded write's epoch moved before it was issued.
//!
//! A node that already has an op in flight on the register queues the
//! next one behind it, so contention between clients costs waiting at
//! the node, never a retry. The loop sleeps in
//! [`PipelinedClient::wait_any`] until the next completion or the
//! earliest seal-poll deadline. Each store op is ONE recorded invocation
//! however many register rounds serve it; migration copies and seals are
//! never recorded.
//!
//! # Epochs
//!
//! The authoritative shard map lives in the store itself (register 0, see
//! [`crate::epoch`]); each client keeps a cached [`ShardMap`] snapshot
//! (shared by its clones) and refreshes it from the config register
//! whenever a data payload's epoch stamp signals staleness. Data shard
//! `i` lives at register `i + 1`.
//!
//! # Live shard splits
//!
//! [`KvClient::grow`] publishes epoch `e+1` (a *migrating* map), then for
//! every split-source shard: reads the old home, copies each moved entry
//! to its new home (**tag-monotonically** — the copy is the old home's
//! latest value, and the write barrier below guarantees it still is when
//! the seal lands), and finally **seals** the old home under the new
//! epoch's stamp. Once every source is sealed, the committed map is
//! published.
//!
//! **The barrier invariant: a writer whose key is owned by a splitting
//! shard must observe that shard's seal before writing the key's
//! new-epoch home.** Writers poll the old home (bounded; see
//! [`KvError::Barrier`]) until the seal appears — so during a source
//! shard's copy window the migrator is the only writer touching its
//! registers, which is what makes the copy lossless. Readers during
//! migration fall back *old-home-then-new-home*: an unsealed old home is
//! authoritative, a sealed one forwards to the new routing.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use rmem_net::{Client, ClientError, PipelinedClient, Ticket, TraceCtx};
use rmem_obs::{
    Counter, EventKind, FlightEvent, FlightRecorder, Histogram, MetricsSnapshot, ObsHandle,
};
use rmem_types::{LeaseGrant, Op, OpResult, ProcessId, RegisterId, Value};

use rmem_storage::StorageError;
use rmem_types::OpTag;

use crate::codec;
use crate::epoch::{data_register, ShardMap, CONFIG_REGISTER};
use crate::exactly_once::ExactlyOnce;
use crate::health::{HealthMemory, NodeGate};
use crate::lease::{LeaseCache, Lookup};
use crate::recorder::OpRecorder;
use crate::router::ShardRouter;

/// How many times an operation re-routes after a shard-map refresh,
/// barrier re-route or epoch-guarded abort before giving up on chasing
/// epochs.
const MAP_RETRIES: usize = 6;

/// Shared per-client observability (all clones update one set): the
/// `rmem-obs` registry with every hot-path handle pre-resolved, plus the
/// client-side flight recorder. The former `OpStatsInner` counters live
/// in the registry now — [`KvClient::stats`] reads them back out, so the
/// [`KvOpStats`] surface is unchanged while `cluster`-style snapshots
/// ([`KvClient::metrics`]) see the same numbers.
#[derive(Debug)]
struct ClientObs {
    handle: ObsHandle,
    reads: Arc<Counter>,
    read_rounds: Arc<Counter>,
    fast_reads: Arc<Counter>,
    writes: Arc<Counter>,
    write_rounds: Arc<Counter>,
    barrier_waits: Arc<Counter>,
    barrier_polls: Arc<Counter>,
    map_refreshes: Arc<Counter>,
    retries: Arc<Counter>,
    backoff_micros: Arc<Counter>,
    lease_hits: Arc<Counter>,
    lease_misses: Arc<Counter>,
    lease_revocations: Arc<Counter>,
    lease_evictions: Arc<Counter>,
    inflight: Arc<rmem_obs::Gauge>,
    pipeline_depth: Arc<Histogram>,
    get_micros: Arc<Histogram>,
    put_micros: Arc<Histogram>,
}

impl ClientObs {
    fn new(handle: ObsHandle) -> Self {
        let m = &handle.metrics;
        ClientObs {
            reads: m.counter("kv.reads"),
            read_rounds: m.counter("kv.read_rounds"),
            fast_reads: m.counter("kv.fast_reads"),
            writes: m.counter("kv.writes"),
            write_rounds: m.counter("kv.write_rounds"),
            barrier_waits: m.counter("kv.barrier_waits"),
            barrier_polls: m.counter("kv.barrier_polls"),
            map_refreshes: m.counter("kv.map_refreshes"),
            retries: m.counter("kv.retries"),
            backoff_micros: m.counter("kv.backoff_micros"),
            lease_hits: m.counter("kv.lease_hits"),
            lease_misses: m.counter("kv.lease_misses"),
            lease_revocations: m.counter("kv.lease_revocations"),
            lease_evictions: m.counter("kv.lease_evictions"),
            inflight: m.gauge("kv.inflight"),
            pipeline_depth: m.histogram("kv.pipeline_depth"),
            get_micros: m.histogram("kv.get_micros"),
            put_micros: m.histogram("kv.put_micros"),
            handle,
        }
    }

    /// `Instant::now` for latency histograms, skipped when observability
    /// is disabled (the bench baseline).
    #[inline]
    fn op_clock(&self) -> Option<Instant> {
        self.handle.metrics.is_enabled().then(Instant::now)
    }
}

/// Snapshot of a client's per-operation quorum-round statistics.
///
/// Rounds are reported by the register automaton with each completion, so
/// the numbers measure what the emulation actually did: a read costs 1
/// round when the confirmed-timestamp fast path fired (unanimous durable
/// tags in the read quorum) and 2 when it fell back to the write-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvOpStats {
    /// Register reads completed through this client (and its clones),
    /// including barrier polls and shard-map reads.
    pub reads: u64,
    /// Total quorum round-trips those reads performed.
    pub read_rounds: u64,
    /// Reads that completed in a single round (fast path / single-round
    /// flavor).
    pub fast_reads: u64,
    /// Register writes completed.
    pub writes: u64,
    /// Total quorum round-trips those writes performed.
    pub write_rounds: u64,
    /// Writes that entered a migration write barrier and found the seal
    /// not yet in place (i.e. actually waited).
    pub barrier_waits: u64,
    /// Barrier polls (old-home seal checks) performed in total; one poll
    /// per barriered write is the protocol's floor.
    pub barrier_polls: u64,
    /// Shard-map refreshes from the config register.
    pub map_refreshes: u64,
    /// Failover hops: node attempts that timed out or found the node
    /// down, so the operation moved on to the next node.
    pub retries: u64,
    /// Total microseconds of seal-poll spacing scheduled by barriered
    /// writes (see `kv.backoff_micros`) — the engine's only sleep.
    pub backoff_micros: u64,
    /// Reads served from the client's tag-lease cache with **zero**
    /// datagrams (counted into `reads` with 0 rounds). Always 0 unless
    /// [`KvClient::with_lease_cache`] armed the cache.
    pub lease_hits: u64,
    /// Lease-cache lookups that found no live lease and fell through to
    /// the quorum read path.
    pub lease_misses: u64,
    /// Leases dropped before their horizon: the client's own write to
    /// the register, a newer tag observed, or a shard-map epoch change
    /// (which revokes the whole cache).
    pub lease_revocations: u64,
    /// Leases dropped by the cache itself: LRU capacity pressure or a
    /// lapsed horizon discovered at lookup.
    pub lease_evictions: u64,
}

impl KvOpStats {
    /// Mean rounds per read (2.0 = every read paid the write-back,
    /// 1.0 = every read took the fast path; 0.0 with no reads).
    pub fn mean_read_rounds(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        self.read_rounds as f64 / self.reads as f64
    }

    /// Fraction of reads served by the one-round fast path.
    pub fn fast_read_fraction(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        self.fast_reads as f64 / self.reads as f64
    }

    /// Fraction of reads served locally by a live tag lease (0 rounds,
    /// 0 datagrams). With leases on over a Zipf-hot read-mostly
    /// workload this dominates, which is what pushes
    /// [`mean_read_rounds`](Self::mean_read_rounds) below 1.0.
    pub fn lease_hit_fraction(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        self.lease_hits as f64 / self.reads as f64
    }

    /// Mean seal polls per barrier wait (how long barriered writers
    /// actually stalled; 0.0 if nothing ever waited).
    pub fn mean_barrier_polls(&self) -> f64 {
        if self.barrier_waits == 0 {
            return 0.0;
        }
        self.barrier_polls as f64 / self.barrier_waits as f64
    }
}

/// Snapshot of the shared cluster-health memory's operator counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthStats {
    /// Failures recorded (timeouts / downs) since construction.
    pub marks: u64,
    /// Probe operations started for decayed suspects since construction.
    pub probes: u64,
    /// Nodes currently inside their mark cooldown.
    pub suspects: Vec<usize>,
}

/// What a completed [`KvClient::grow`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrowReport {
    /// The committed epoch.
    pub epoch: u64,
    /// Shard count before the split.
    pub from_shards: u16,
    /// Shard count after the split.
    pub to_shards: u16,
    /// Split-source shards sealed by this driver (a resumed split may
    /// find some already sealed).
    pub sources_sealed: usize,
    /// Entries copied to a new home register.
    pub entries_moved: usize,
}

/// Why a store operation failed.
#[derive(Debug, Clone)]
pub enum KvError {
    /// The underlying register operation failed at the node serving the
    /// key's shard.
    Register {
        /// The key whose operation failed.
        key: String,
        /// The transport/runtime error.
        source: ClientError,
    },
    /// The encoded entry cannot fit the cluster's transport frame (e.g.
    /// the 64 KB UDP datagram ceiling). Surfaced *before* anything is
    /// sent — the fair-lossy runtime would otherwise retransmit the
    /// untransmittable message until the patience window expired.
    TooLarge {
        /// The key whose entry is oversized.
        key: String,
        /// The wire size the entry would produce.
        size: usize,
        /// The transport's frame limit.
        limit: usize,
    },
    /// A migration write barrier did not observe the source shard's seal
    /// within the bounded wait ([`KvClient::with_barrier_polls`]) — the
    /// migration driver is stalled or gone; run
    /// [`KvClient::finish_split`] to drive it to completion.
    Barrier {
        /// The key whose write was barriered.
        key: String,
        /// The splitting source shard the writer waited on.
        shard: u16,
    },
    /// A resharding request was invalid (e.g. shrinking the table).
    Reshard {
        /// What was wrong.
        message: String,
    },
    /// The client was constructed without any node handles.
    NoNodes,
    /// The staged operation was fenced: a resolver already returned
    /// `NotLanded` for this tag ([`KvClient::resolve`]), so issuing it now
    /// would make a resolved-NotLanded op visible.
    Fenced {
        /// The fenced operation's tag.
        tag: OpTag,
    },
    /// The intent journal has no record of this tag — it was never begun
    /// through this journal, or it was acknowledged and tombstoned.
    UnknownIntent {
        /// The unrecognized tag.
        tag: OpTag,
    },
    /// The client-side intent journal failed; the operation was not
    /// issued (journal writes come first).
    Journal {
        /// The storage failure.
        source: StorageError,
    },
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::Register { key, source } => write!(f, "operation on key {key:?}: {source}"),
            KvError::TooLarge { key, size, limit } => write!(
                f,
                "entry for key {key:?} needs a {size}-byte message, over the transport's {limit}-byte frame"
            ),
            KvError::Barrier { key, shard } => write!(
                f,
                "write barrier on key {key:?} never saw shard {shard}'s migration seal"
            ),
            KvError::Reshard { message } => write!(f, "invalid reshard: {message}"),
            KvError::NoNodes => write!(f, "KvClient needs at least one node handle"),
            KvError::Fenced { tag } => write!(
                f,
                "operation {tag} was resolved NotLanded and is fenced from ever issuing"
            ),
            KvError::UnknownIntent { tag } => {
                write!(f, "the intent journal has no record of operation {tag}")
            }
            KvError::Journal { source } => write!(f, "intent journal: {source}"),
        }
    }
}

impl std::error::Error for KvError {}

/// A sharded key-value client over an emulated shared memory.
///
/// Keys route deterministically to shard registers through the cached
/// epoch [`ShardMap`] (clones share the cache); each shard prefers one of
/// the cluster's node handles (`register % nodes`, so shard traffic
/// spreads across the cluster) and fails over to the remaining nodes when
/// its home node is down or unresponsive — any node can serve any
/// register.
/// [`multi_get`](KvClient::multi_get)/[`multi_put`](KvClient::multi_put)
/// run their keys **concurrently** on the [op engine](self#the-op-engine)
/// — operations on different shards touch different registers and are
/// independent by locality, so the only serialization kept is the
/// per-register operation order.
///
/// Reads and writes inherit the register emulation's guarantees: with a
/// majority of nodes up, every operation terminates, and per-key histories
/// satisfy the configured flavor's atomicity criterion — across epochs,
/// certified by [`certify_per_key_epochs`](crate::certify_per_key_epochs).
#[derive(Debug, Clone)]
pub struct KvClient {
    nodes: Vec<Client>,
    map: Arc<Mutex<ShardMap>>,
    /// Whether this client family has read the config register at least
    /// once — until then the cache is only the constructor's guess, and
    /// a *write* issued under it could silently land behind another
    /// client's already-committed split (reads self-heal via stamp
    /// mismatches; writes are blind). The first operation syncs.
    synced: Arc<std::sync::atomic::AtomicBool>,
    barrier_polls: u32,
    health: Arc<HealthMemory>,
    obs: Arc<ClientObs>,
    /// The client family's trace context, when the observability handle
    /// is enabled: node handles issue every operation under a fresh
    /// [`rmem_types::TraceId`] and the runtime propagates it across the
    /// wire, so the family's ring stitches into the nodes' rings.
    trace: Option<Arc<TraceCtx>>,
    pub(crate) recorder: Option<(OpRecorder, ProcessId)>,
    /// Exactly-once state (intent journal + tag allocator), attached by
    /// [`with_exactly_once`](KvClient::with_exactly_once); clones share
    /// it. `None` = classic at-least-once client, untagged writes.
    pub(crate) intents: Option<Arc<ExactlyOnce>>,
    /// The tag-lease cache, armed by
    /// [`with_lease_cache`](KvClient::with_lease_cache) and shared by
    /// clones. `None` = every read pays at least one quorum round.
    /// Serving hits additionally requires the cluster's flavor to grant
    /// leases ([`rmem_core::Flavor::leases`]) — against an unleased
    /// cluster the cache simply never fills.
    leases: Option<Arc<LeaseCache>>,
    /// The op engine's reactor: one pipelined fan over `nodes` (shared by
    /// clones, rebuilt whenever the node handles change).
    fan: Arc<PipelinedClient>,
}

impl KvClient {
    /// A client over `nodes` (e.g. `LocalCluster::clients()`) with the
    /// given bootstrap router: `router.shards()` becomes the genesis
    /// shard count, superseded as soon as a published shard map is
    /// observed (a data payload's stamp mismatch, [`refresh_map`], or
    /// [`grow`]).
    ///
    /// [`refresh_map`]: KvClient::refresh_map
    /// [`grow`]: KvClient::grow
    ///
    /// # Errors
    ///
    /// Returns [`KvError::NoNodes`] if `nodes` is empty.
    pub fn new(nodes: Vec<Client>, router: ShardRouter) -> Result<Self, KvError> {
        if nodes.is_empty() {
            return Err(KvError::NoNodes);
        }
        let health = Arc::new(HealthMemory::new(nodes.len(), Duration::from_secs(5)));
        Ok(KvClient {
            fan: Arc::new(PipelinedClient::fan(&nodes)),
            nodes,
            map: Arc::new(Mutex::new(ShardMap::genesis(router.shards()))),
            synced: Arc::new(std::sync::atomic::AtomicBool::new(false)),
            barrier_polls: 512,
            health,
            obs: Arc::new(ClientObs::new(ObsHandle::new())),
            trace: None,
            recorder: None,
            intents: None,
            leases: None,
        }
        .rewire_trace())
    }

    /// Replaces the client family's observability handle (shared with
    /// clones made *after* this call). Benches pass
    /// [`ObsHandle::disabled`] to measure the uninstrumented baseline —
    /// counters still count (they are too cheap to gate), but latency
    /// clocks are skipped, flight-recorder events are dropped at the
    /// door, and operations are not traced.
    pub fn with_obs(mut self, handle: ObsHandle) -> Self {
        self.obs = Arc::new(ClientObs::new(handle));
        self.rewire_trace()
    }

    /// (Re)derives the trace context from the current observability
    /// handle and attaches it to every node handle: enabled handle →
    /// traced family recording into the handle's flight ring; disabled →
    /// untraced (zero wire or ring overhead).
    fn rewire_trace(mut self) -> Self {
        let flight = &self.obs.handle.flight;
        self.trace = flight
            .is_enabled()
            .then(|| Arc::new(TraceCtx::new(flight.clone())));
        let trace = self.trace.clone();
        self.map_nodes(|n| n.with_trace(trace.clone()))
    }

    /// Reconfigures every node handle, and the engine's fan with them.
    fn map_nodes(mut self, f: impl Fn(Client) -> Client) -> Self {
        self.nodes = self.nodes.into_iter().map(f).collect();
        self.fan = Arc::new(PipelinedClient::fan(&self.nodes));
        self
    }

    /// The family id this client's operations are traced under (the
    /// `pid` of its ring in a stitch), if tracing is on.
    pub fn trace_client_id(&self) -> Option<u16> {
        self.trace.as_ref().map(|t| t.client_id())
    }

    /// This family's client-side events as a stitcher input: combine with
    /// the cluster's node dumps (`LocalCluster::ring_dumps`) and hand to
    /// [`rmem_obs::trace::stitch`]. `None` when tracing is off.
    pub fn trace_ring_dump(&self) -> Option<rmem_obs::trace::RingDump> {
        self.trace
            .as_ref()
            .map(|t| rmem_obs::trace::RingDump::client(t.client_id(), t.ring().dump()))
    }

    /// Arms the client family's tag-lease cache: reads whose fast-path
    /// quorum attached a lease grant are cached, and repeated reads of
    /// the same register are served locally — zero datagrams, zero
    /// quorum rounds — until the lease's horizon passes, the client
    /// writes the register, a newer tag is observed, or the shard map
    /// changes epoch. At most `capacity` leases stay resident
    /// (least-recently-served eviction), so only the hot keys occupy
    /// client memory.
    ///
    /// Opt-in, and inert against a cluster whose flavor does not grant
    /// leases (`Flavor::with_lease`): the cache never fills, every read
    /// pays its normal rounds.
    ///
    /// **Freshness invariant**: a leased read never returns a value
    /// older than any value returned after a completed write — the
    /// granting replicas fence newer writes behind the granted horizon
    /// (quorum intersection does the rest), and the client's horizon
    /// clock starts at read *submission*, strictly undershooting every
    /// replica's fence.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_lease_cache(mut self, capacity: usize) -> Self {
        self.leases = Some(Arc::new(LeaseCache::new(capacity)));
        self
    }

    /// Replaces the bounded-wait cap of the migration write barrier
    /// (default 512 seal polls with escalating backoff): a barriered
    /// write that exhausts the cap fails with [`KvError::Barrier`]
    /// instead of blocking forever.
    pub fn with_barrier_polls(mut self, barrier_polls: u32) -> Self {
        assert!(barrier_polls > 0, "the barrier needs at least one poll");
        self.barrier_polls = barrier_polls;
        self
    }

    /// Replaces each node handle's patience window (default 10 s): how
    /// long one node may sit on an operation before failover moves on.
    pub fn with_op_timeout(self, timeout: Duration) -> Self {
        self.map_nodes(|n| n.with_timeout(timeout))
    }

    /// Replaces the cluster-health mark cooldown (default 5 s): how long a
    /// node that timed out is deprioritized before failover tries it first
    /// again. Resets the marks.
    pub fn with_health_cooldown(mut self, cooldown: Duration) -> Self {
        self.health = Arc::new(HealthMemory::new(self.nodes.len(), cooldown));
        self
    }

    /// Attaches a history recorder: every register operation this client
    /// performs is recorded under a fresh history process id. Use
    /// [`recorded_clone`](KvClient::recorded_clone) to hand each
    /// concurrent thread its own sequential process.
    pub fn with_recorder(mut self, recorder: OpRecorder) -> Self {
        let pid = recorder.assign_pid();
        self.recorder = Some((recorder, pid));
        self
    }

    /// A clone recording under its own fresh history process id (same
    /// shared history). Clones made with plain `clone()` share the
    /// original's id and must not race it on one register.
    ///
    /// # Panics
    ///
    /// Panics if no recorder is attached.
    pub fn recorded_clone(&self) -> Self {
        let (recorder, _) = self
            .recorder
            .as_ref()
            .expect("recorded_clone needs with_recorder first");
        let mut clone = self.clone();
        clone.recorder = Some((recorder.clone(), recorder.assign_pid()));
        clone
    }

    /// The shared cluster-health memory (clones of this client observe and
    /// update the same marks).
    pub fn health(&self) -> &HealthMemory {
        &self.health
    }

    /// Operator counters of the shared health memory: total marks, total
    /// probes issued for decayed suspects, and the current suspect set.
    pub fn health_stats(&self) -> HealthStats {
        HealthStats {
            marks: self.health.marks_total(),
            probes: self.health.probes_total(),
            suspects: self.health.suspects(),
        }
    }

    /// Per-operation quorum-round statistics (shared with clones). Reads
    /// the `kv.*` counters of this client family's metrics registry.
    pub fn stats(&self) -> KvOpStats {
        KvOpStats {
            reads: self.obs.reads.get(),
            read_rounds: self.obs.read_rounds.get(),
            fast_reads: self.obs.fast_reads.get(),
            writes: self.obs.writes.get(),
            write_rounds: self.obs.write_rounds.get(),
            barrier_waits: self.obs.barrier_waits.get(),
            barrier_polls: self.obs.barrier_polls.get(),
            map_refreshes: self.obs.map_refreshes.get(),
            retries: self.obs.retries.get(),
            backoff_micros: self.obs.backoff_micros.get(),
            lease_hits: self.obs.lease_hits.get(),
            lease_misses: self.obs.lease_misses.get(),
            lease_revocations: self.obs.lease_revocations.get(),
            lease_evictions: self.obs.lease_evictions.get(),
        }
    }

    /// A snapshot of the client family's metrics registry: the `kv.*`
    /// counters behind [`stats`](Self::stats) plus the wall-clock
    /// `kv.get_micros` / `kv.put_micros` latency histograms (empty when
    /// the handle is disabled or no wall-clock op has run).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs.handle.metrics.snapshot()
    }

    /// The metrics registry shared by this client family (for layers
    /// stacked on top — e.g. the batching scheduler — to register their
    /// own instruments into the same snapshot).
    pub fn metrics_registry(&self) -> &rmem_obs::Registry {
        &self.obs.handle.metrics
    }

    /// The client-side flight recorder: epoch refreshes, barrier waits
    /// and observed migration seals, in event order.
    pub fn flight_recorder(&self) -> Arc<FlightRecorder> {
        self.obs.handle.flight.clone()
    }

    fn record_read(&self, rounds: u32) {
        self.obs.reads.inc();
        self.obs.read_rounds.add(u64::from(rounds));
        if rounds <= 1 {
            self.obs.fast_reads.inc();
        }
    }

    fn record_write(&self, rounds: u32) {
        self.obs.writes.inc();
        self.obs.write_rounds.add(u64::from(rounds));
    }

    /// Serves `reg` from the lease cache if a live lease covers it under
    /// `map`. A hit is a complete zero-round, zero-datagram read and is
    /// counted into the read stats; during a migration the cache is
    /// bypassed entirely (the split read protocol owns routing).
    fn lease_hit(&self, reg: RegisterId, map: &ShardMap) -> Option<Value> {
        let cache = self.leases.as_deref()?;
        if map.is_migrating() {
            return None;
        }
        match cache.lookup(reg, map.stamp(), Instant::now()) {
            Lookup::Hit(payload) => {
                self.obs.lease_hits.inc();
                self.record_read(0);
                self.obs.handle.flight.record(
                    FlightEvent::new(EventKind::LeaseHit)
                        .with_register(reg.0)
                        .with_epoch(map.epoch as u32),
                );
                Some(payload)
            }
            Lookup::Expired => {
                self.obs.lease_evictions.inc();
                self.obs.lease_misses.inc();
                None
            }
            Lookup::Miss => {
                self.obs.lease_misses.inc();
                None
            }
        }
    }

    /// Installs a granted lease, with the horizon clock anchored at `t0`
    /// — the instant the read was *submitted*, so the client-side expiry
    /// strictly undershoots every granting replica's write fence. Fills
    /// are skipped during migrations: a mid-split grant would be stamped
    /// by a map that is about to change.
    fn lease_fill(
        &self,
        reg: RegisterId,
        grant: LeaseGrant,
        payload: Value,
        map: &ShardMap,
        t0: Instant,
    ) {
        let Some(cache) = self.leases.as_deref() else {
            return;
        };
        if map.is_migrating() {
            return;
        }
        let horizon = t0 + Duration::from_micros(u64::from(grant.micros));
        let evicted = cache.fill(reg, grant.ts, payload, map.stamp(), horizon);
        self.obs.lease_evictions.add(evicted as u64);
    }

    /// Revokes `reg`'s lease, called **before** any write this client
    /// issues to the register — the cached value is about to be stale.
    fn lease_revoke(&self, reg: RegisterId) {
        let Some(cache) = self.leases.as_deref() else {
            return;
        };
        if cache.invalidate(reg) {
            self.obs.lease_revocations.inc();
            self.obs.handle.flight.record(
                FlightEvent::new(EventKind::LeaseRevoke)
                    .with_register(reg.0)
                    .with_aux(1),
            );
        }
    }

    /// The current cached shard map (shared with clones).
    pub fn shard_map(&self) -> ShardMap {
        *self.map.lock().expect("shard map lock")
    }

    /// The current epoch (of the cached map).
    pub fn epoch(&self) -> u64 {
        self.shard_map().epoch
    }

    /// A pure router over the cached map's *current* shard count. Note
    /// that it routes in shard space (register = shard), not the epoch
    /// layer's register space — use it for shard counts and key
    /// derivation, not raw register addressing.
    pub fn router(&self) -> ShardRouter {
        ShardRouter::new(self.shard_map().shards)
    }

    /// The largest *register value* this client can write, if any node's
    /// transport is bounded (the minimum across nodes — a value must fit
    /// every replica's frame, not just the contacted node's, because the
    /// protocol forwards it to all of them).
    pub fn max_value_len(&self) -> Option<usize> {
        self.nodes.iter().filter_map(Client::max_value_len).min()
    }

    /// Adopts `new` into the shared cache if it advances the current map
    /// (newer epoch, or same epoch moving from migrating to committed);
    /// returns whether it did. An adoption revokes **every** lease: no
    /// lease survives a shard-map change — the keys behind a register may
    /// differ under the new routing, and migration copies rewrite
    /// registers outside the leased read path.
    fn adopt(&self, new: &ShardMap) -> bool {
        {
            let mut cur = self.map.lock().expect("shard map lock");
            let commits = new.epoch == cur.epoch && cur.is_migrating() && !new.is_migrating();
            if new.epoch <= cur.epoch && !commits {
                return false;
            }
            *cur = *new;
        }
        let dropped = self.leases.as_ref().map_or(0, |cache| cache.clear() as u64);
        if dropped > 0 {
            self.obs.lease_revocations.add(dropped);
            self.obs
                .handle
                .flight
                .record(FlightEvent::new(EventKind::LeaseRevoke).with_aux(dropped));
        }
        true
    }

    /// Re-reads the authoritative shard map from the config register and
    /// adopts it if it advances the cache. Returns whether the cache
    /// changed. A ⊥ config register (no map ever published) leaves the
    /// bootstrap map in force.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::Register`] if the config register cannot be
    /// read.
    pub fn refresh_map(&self) -> Result<bool, KvError> {
        self.obs.map_refreshes.inc();
        let done = self.run_one(Req::Read(CONFIG_REGISTER, Rec::Infra), "shard-map")?;
        Ok(self.adopt_published(&done.payload))
    }

    /// One-time bootstrap sync, run implicitly by the first operation of
    /// a client family (clones share it): reads the config register and
    /// adopts any published shard map, so a client joining a store that
    /// was resharded before it existed never writes under its
    /// constructor's guess. No-op once any config-register read has
    /// happened (including [`refresh_map`](KvClient::refresh_map) and
    /// [`grow`](KvClient::grow)).
    ///
    /// # Errors
    ///
    /// Returns [`KvError::Register`] if the config register cannot be
    /// read.
    pub fn sync_map(&self) -> Result<(), KvError> {
        if !self.synced.load(Ordering::Relaxed) {
            let done = self.run_one(Req::Read(CONFIG_REGISTER, Rec::Silent), "shard-map")?;
            self.adopt_published(&done.payload);
        }
        Ok(())
    }

    /// Adopts the shard map published in a config-register `payload` (a
    /// ⊥ register leaves the bootstrap map in force) and marks the family
    /// synced. Returns whether the cached map changed.
    fn adopt_published(&self, payload: &Value) -> bool {
        let changed = match ShardMap::decode(payload) {
            Some(published) if self.adopt(&published) => {
                self.obs.handle.flight.record(
                    FlightEvent::new(EventKind::EpochRefresh)
                        .with_epoch(published.epoch as u32)
                        .with_aux(u64::from(published.shards)),
                );
                true
            }
            _ => false,
        };
        // Only after the adoption: a clone that finds the family synced
        // must already route under the published map.
        self.synced.store(true, Ordering::Relaxed);
        changed
    }

    /// Records a store-operation invocation (one per `put`/`get`, however
    /// many register rounds serve it).
    fn rec_invoke(&self, op: Op) -> Option<rmem_types::OpId> {
        self.recorder.as_ref().map(|(r, pid)| r.invoke(*pid, op))
    }

    /// Records an outcome against the pending invocation `inv`: replies
    /// for definite outcomes, the crash/recovery idiom for ambiguous
    /// ones.
    fn rec_outcome(&self, inv: Option<rmem_types::OpId>, outcome: Result<OpResult, &KvError>) {
        let Some((recorder, pid)) = &self.recorder else {
            return;
        };
        let Some(inv) = inv else {
            return;
        };
        match outcome {
            Ok(result) => recorder.reply(inv, result),
            // Refused before/without taking effect: the checkers ignore
            // rejected invocations.
            Err(KvError::TooLarge { .. }) => {
                recorder.reply(inv, OpResult::Rejected(rmem_types::RejectReason::Busy))
            }
            // Ambiguous (may or may not have applied): leave the op
            // pending and record the model's crash/recovery idiom.
            Err(_) => recorder.abandon(*pid),
        }
    }

    /// Runs recorded raw register ops on the engine (after the first-op
    /// map sync, whose failure fails them all).
    fn drive_raw(&self, ops: Vec<EngineOp<'_>>) -> Vec<Result<Done, KvError>> {
        match self.sync_map() {
            Ok(()) => self.drive(ops),
            Err(e) => vec![Err(e); ops.len()],
        }
    }

    /// Runs one raw register op on the engine.
    fn run_one(&self, req: Req, label: &str) -> Result<Done, KvError> {
        self.drive(vec![EngineOp::new(req, label, RegisterId::ZERO)])
            .pop()
            .expect("one op in, one answer out")
    }

    /// One failover-protected, **unrecorded** register write (see
    /// [`Rec::Infra`] for why migration copies and seals must never be
    /// recorded).
    fn reg_write(&self, reg: RegisterId, payload: Value, label: &str) -> Result<(), KvError> {
        self.run_one(Req::Write(reg, payload, None, Rec::Infra), label)
            .map(drop)
    }

    /// One failover-protected register **write** of an already-encoded
    /// payload (single entry or bundle), recorded as one operation;
    /// `label` names the operation in errors. The payload's epoch stamp
    /// is the caller's responsibility ([`ShardMap::stamp`]).
    ///
    /// # Errors
    ///
    /// As for [`put`](Self::put).
    pub fn raw_write(&self, reg: RegisterId, payload: Value, label: &str) -> Result<(), KvError> {
        let mut answers = self.raw_writes(&[(reg, payload, label)], None);
        answers
            .pop()
            .expect("one write in, one answer out")
            .map(drop)
    }

    /// Many [`raw_write`](Self::raw_write)s, run concurrently on the op
    /// engine (writes to one register land in input order). Answers
    /// align with `writes`. With `Some(epoch)` every write is
    /// epoch-guarded: it aborts — `Ok(false)`, nothing issued, nothing
    /// landed — as soon as the shard map's epoch moves past `epoch`, so
    /// a bundle formed under one epoch never surfaces behind another
    /// epoch's migration seal. `rmem-batch` writes its bundles this way
    /// and re-routes an aborted bundle's entries per key.
    pub fn raw_writes<L: AsRef<str>>(
        &self,
        writes: &[(RegisterId, Value, L)],
        epoch: Option<u64>,
    ) -> Vec<Result<bool, KvError>> {
        let ops = writes.iter().map(|(reg, payload, label)| {
            let req = Req::Write(*reg, payload.clone(), epoch, Rec::Store);
            EngineOp::new(req, label.as_ref(), *reg)
        });
        self.drive_raw(ops.collect())
            .into_iter()
            .map(|r| r.map(|done| done.landed))
            .collect()
    }

    /// One failover-protected register **read** returning the raw payload
    /// (⊥, a single entry, a bundle, or a migration seal), recorded as
    /// one operation; see [`raw_write`](Self::raw_write).
    ///
    /// # Errors
    ///
    /// As for [`get`](Self::get).
    pub fn raw_read(&self, reg: RegisterId, label: &str) -> Result<Value, KvError> {
        self.raw_reads(&[(reg, label)])
            .pop()
            .expect("one read in, one answer out")
    }

    /// Many [`raw_read`](Self::raw_read)s, run concurrently on the op
    /// engine. Answers align with `reads`.
    pub fn raw_reads<L: AsRef<str>>(
        &self,
        reads: &[(RegisterId, L)],
    ) -> Vec<Result<Value, KvError>> {
        let ops = reads
            .iter()
            .map(|(reg, label)| EngineOp::new(Req::Read(*reg, Rec::Store), label.as_ref(), *reg));
        self.drive_raw(ops.collect())
            .into_iter()
            .map(|r| r.map(|done| done.payload))
            .collect()
    }

    /// Stores `value` under `key`, blocking until the write is durable at
    /// a majority. During a live split of the key's source shard, the
    /// write first waits on the migration **write barrier** (see the
    /// module docs; bounded by [`with_barrier_polls`]).
    ///
    /// The encoded entry (`3 + key + value` bytes plus protocol framing)
    /// must fit the cluster's transport frame: UDP transports cap
    /// datagrams at 64 KB, and an oversized entry fails fast with
    /// [`KvError::TooLarge`] before anything is sent — use a TCP-backed
    /// cluster for larger values.
    ///
    /// [`with_barrier_polls`]: KvClient::with_barrier_polls
    ///
    /// # Errors
    ///
    /// Returns [`KvError::TooLarge`] for an entry over the transport
    /// frame, [`KvError::Barrier`] if a migration barrier never cleared,
    /// [`KvError::Register`] if the register operation fails.
    pub fn put(&self, key: &str, value: impl Into<Bytes>) -> Result<(), KvError> {
        self.multi_put(&[(key, value.into())])
    }

    /// Reads the value stored under `key` (`None` if absent — never
    /// written, or displaced by a shard-colliding key). During a live
    /// split of the key's source shard the read falls back
    /// **old-home-then-new-home**; a payload whose epoch stamp does not
    /// match the cached map triggers a map refresh and a re-routed retry.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::Register`] if a register operation fails.
    pub fn get(&self, key: &str) -> Result<Option<Bytes>, KvError> {
        Ok(self.multi_get(&[key])?.pop().flatten())
    }

    // -- Live shard splits -----------------------------------------------

    /// Publishes `map` to the config register and adopts it locally.
    fn publish_map(&self, map: &ShardMap) -> Result<(), KvError> {
        self.reg_write(CONFIG_REGISTER, map.encode(), "shard-map")?;
        self.adopt(map);
        Ok(())
    }

    /// Migrates one split-source shard: reads the old home, copies every
    /// moved entry to its new home (tag-monotonically — the barrier keeps
    /// the old home frozen under us), then seals the old home under the
    /// new epoch. Idempotent: an already-sealed source is skipped, and
    /// re-running the copy rewrites the same values.
    fn migrate_source(&self, source: u16, map: &ShardMap) -> Result<(usize, bool), KvError> {
        let old_reg = data_register(source);
        // The handoff's recorded evidence: whatever the final verify read
        // returns is what the (unrecorded) copy relocates — a
        // non-tag-monotonic copy shows up against this read in the
        // stitched history.
        let mut payload = self.raw_read(old_reg, "migrate")?;
        // Copy-verify loop: a straggler write issued under the old epoch
        // (before the split was published) may still land on the source
        // register while we are copying. Pre-seal readers can observe it,
        // so the copy must carry it: after writing the movers, re-read
        // the source and redo the copy if anything changed. The epoch
        // guard on the write path keeps new stragglers from forming, so
        // the loop settles; the cap is a backstop against pathological
        // churn.
        let mut moved;
        let mut stayers;
        for _ in 0..16 {
            if map.seals_source(&payload, source) {
                return Ok((0, false)); // a previous driver already sealed it
            }
            let entries = codec::decode_entries(&payload).unwrap_or_default();
            stayers = Vec::<(String, Bytes)>::new();
            let mut movers: BTreeMap<u16, Vec<(String, Bytes)>> = BTreeMap::new();
            for (key, value) in entries {
                let dest = map.shard_of(&key);
                if dest == source {
                    stayers.push((key, value));
                } else {
                    movers.entry(dest).or_default().push((key, value));
                }
            }
            moved = 0;
            for (dest, items) in &movers {
                let refs: Vec<(&str, Bytes)> =
                    items.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
                self.reg_write(
                    data_register(*dest),
                    codec::encode_entries(&refs, map.stamp()),
                    "migrate",
                )?;
                moved += items.len();
            }
            // Verify: did a straggler land since we read the source?
            let verify = self.raw_read(old_reg, "migrate")?;
            if verify != payload {
                payload = verify;
                continue;
            }
            // The seal: after this write the new routing is live for the
            // shard — barriered writers proceed, readers forward.
            let seal = if stayers.is_empty() {
                codec::encode_seal(map.epoch)
            } else {
                let refs: Vec<(&str, Bytes)> = stayers
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.clone()))
                    .collect();
                codec::encode_entries(&refs, map.stamp())
            };
            self.reg_write(old_reg, seal, "seal")?;
            return Ok((moved, true));
        }
        Err(KvError::Reshard {
            message: format!("source shard {source} would not quiesce for its seal"),
        })
    }

    /// Runs the copy/seal phase of a published split.
    fn run_migration(&self, map: &ShardMap) -> Result<(usize, usize), KvError> {
        let mut moved = 0;
        let mut sealed = 0;
        for source in map.split_sources() {
            let (m, s) = self.migrate_source(source, map)?;
            moved += m;
            sealed += usize::from(s);
        }
        Ok((moved, sealed))
    }

    /// Grows the store to `new_shards` shards with a **live split**:
    ///
    /// 1. publish the *migrating* map for epoch `e+1` to the config
    ///    register (every client that refreshes now routes through the
    ///    split protocol);
    /// 2. for each split-source shard, copy its moved entries to their
    ///    new home registers and seal the old home (writers to those
    ///    shards wait on the write barrier exactly until their shard's
    ///    seal; readers fall back old-home-then-new-home);
    /// 3. publish the *committed* map once every source is sealed.
    ///
    /// Runs synchronously on the calling thread; concurrent `get`/`put`
    /// traffic through this client, its clones, and any client that
    /// refreshes its map keeps flowing throughout. At most one grow may
    /// drive the store at a time (operator action); a driver that died
    /// mid-split is recovered by [`finish_split`](KvClient::finish_split)
    /// — or by the next `grow`, which finishes the abandoned split before
    /// starting its own.
    ///
    /// # Errors
    ///
    /// [`KvError::Reshard`] if `new_shards` does not grow the table;
    /// [`KvError::Register`] if a migration register operation fails
    /// (the split stays published; re-drive with `finish_split`).
    pub fn grow(&self, new_shards: u16) -> Result<GrowReport, KvError> {
        let _ = self.refresh_map()?;
        let mut current = self.shard_map();
        if current.is_migrating() {
            // Finish the abandoned split first (idempotent).
            let _ = self.run_migration(&current)?;
            let committed = current.committed();
            self.publish_map(&committed)?;
            current = committed;
        }
        if new_shards <= current.shards {
            return Err(KvError::Reshard {
                message: format!(
                    "cannot grow from {} to {new_shards} shards (tables only grow)",
                    current.shards
                ),
            });
        }
        let migrating = current.split_to(new_shards);
        self.publish_map(&migrating)?;
        let (moved, sealed) = self.run_migration(&migrating)?;
        self.publish_map(&migrating.committed())?;
        Ok(GrowReport {
            epoch: migrating.epoch,
            from_shards: current.shards,
            to_shards: new_shards,
            sources_sealed: sealed,
            entries_moved: moved,
        })
    }

    /// Drives a published-but-uncommitted split (whose driver died) to
    /// completion: re-runs the idempotent copy/seal phase for every
    /// unsealed source and publishes the committed map. Returns `true` if
    /// there was a split to finish.
    ///
    /// # Errors
    ///
    /// As the migration phase of [`grow`](KvClient::grow).
    pub fn finish_split(&self) -> Result<bool, KvError> {
        let _ = self.refresh_map()?;
        let map = self.shard_map();
        if !map.is_migrating() {
            return Ok(false);
        }
        let _ = self.run_migration(&map)?;
        self.publish_map(&map.committed())?;
        Ok(true)
    }

    // -- Multi-key operations ----------------------------------------------

    /// Reads many keys concurrently: every key's get is one op of the
    /// [op engine](self#the-op-engine), all of them driven from this
    /// thread over one pipelined fan across the cluster. Results align
    /// with the input order.
    ///
    /// Failover state is shared through the [`HealthMemory`]: the first
    /// key to time out on a wedged node marks it, and the batch's other
    /// keys then try that node last — one patience window per batch,
    /// not one per key.
    ///
    /// # Errors
    ///
    /// Returns the first failing key's [`KvError`]; other keys still
    /// ran to completion.
    pub fn multi_get<K: AsRef<str> + Sync>(
        &self,
        keys: &[K],
    ) -> Result<Vec<Option<Bytes>>, KvError> {
        self.get_all(keys)?
            .into_iter()
            .map(|r| r.map(|done| done.value))
            .collect()
    }

    /// Every key's get on the engine; each answer carries the payload
    /// that answered it.
    pub(crate) fn get_all<K: AsRef<str>>(
        &self,
        keys: &[K],
    ) -> Result<Vec<Result<Done, KvError>>, KvError> {
        self.run_store(keys.iter().map(|key| (key.as_ref(), Req::Get)))
    }

    /// Runs one store op per `(key, req)` on the engine, each queued
    /// behind the ops before it on the key's register.
    fn run_store<'k>(
        &self,
        ops: impl Iterator<Item = (&'k str, Req)>,
    ) -> Result<Vec<Result<Done, KvError>>, KvError> {
        self.sync_map()?;
        let map = self.shard_map();
        let ops = ops.map(|(key, req)| EngineOp::new(req, key, map.register_for(key)));
        Ok(self.drive(ops.collect()))
    }

    /// Writes many entries concurrently, one engine op per entry (see
    /// [`multi_get`](KvClient::multi_get)). Entries for one register —
    /// duplicate keys included — land in input order. An exactly-once
    /// client journals every entry's intent durably before the first
    /// datagram leaves.
    ///
    /// # Errors
    ///
    /// Returns the first failing key's [`KvError`]; other keys still
    /// ran to completion.
    pub fn multi_put<K: AsRef<str> + Sync>(&self, entries: &[(K, Bytes)]) -> Result<(), KvError> {
        if self.intents.is_some() {
            return self.put_exactly_once(entries);
        }
        self.put_all(entries, None)?.into_iter().collect()
    }

    /// Every entry's put on the engine; `Some(tags)` frames each payload
    /// with its op id. Retries across epoch re-routes re-encode under the
    /// *same* tag, which is what lets the exactly-once certifier collapse
    /// them into one logical write.
    pub(crate) fn put_all<K: AsRef<str>>(
        &self,
        entries: &[(K, Bytes)],
        tags: Option<&[OpTag]>,
    ) -> Result<Vec<Result<(), KvError>>, KvError> {
        let ops = (entries.iter().enumerate())
            .map(|(i, (key, value))| (key.as_ref(), Req::Put(value.clone(), tags.map(|t| t[i]))));
        Ok(self
            .run_store(ops)?
            .into_iter()
            .map(|r| r.map(drop))
            .collect())
    }

    // -- The op engine -----------------------------------------------------

    /// Drives `ops` to completion from the calling thread over the
    /// [`PipelinedClient`] fan spanning every node: each op advances its
    /// state machine (see [`Phase`]) whenever its attempt settles or its
    /// timer fires, and the loop sleeps in
    /// [`wait_any`](PipelinedClient::wait_any) until the next completion
    /// or the earliest seal-poll deadline.
    ///
    /// Ops sharing a queue register run one at a time in input order,
    /// although the runner would queue them itself. A recording client is
    /// ONE history process, and §III-A well-formedness needs that
    /// process's ops on a register to be sequential: each invoked only
    /// after the one before it replied. The same FIFO is what makes a
    /// `multi_put`'s same-register entries land in input order across
    /// failover — a runner's queue orders only the ops at its own node.
    fn drive(&self, mut ops: Vec<EngineOp<'_>>) -> Vec<Result<Done, KvError>> {
        let fan = &*self.fan;
        let metered = self.obs.handle.metrics.is_enabled();
        // Each op's successor on its queue register; the ops heading a
        // queue start right away. A failed op holds its successor back
        // until the failures are recorded (see below).
        let mut by_queue: Vec<usize> = (0..ops.len()).collect();
        by_queue.sort_by_key(|&i| (ops[i].queue, i));
        let mut next = vec![None; ops.len()];
        let mut ready: Vec<(usize, Option<Attempt>)> = Vec::new();
        for (k, &i) in by_queue.iter().enumerate() {
            match k.checked_sub(1).map(|k| by_queue[k]) {
                Some(prev) if ops[prev].queue == ops[i].queue => next[prev] = Some(i),
                _ => ready.push((i, None)),
            }
        }
        let mut held: Vec<usize> = Vec::new();
        let (mut tickets, mut owners) = (Vec::new(), Vec::new());
        loop {
            while let Some((i, settled)) = ready.pop() {
                let op = &mut ops[i];
                if op.out.is_some() {
                    continue;
                }
                if let Some(attempt) = settled {
                    self.settle(op, attempt);
                }
                self.advance(fan, op);
                match op.out {
                    Some(Ok(())) => ready.extend(next[i].map(|j| (j, None))),
                    Some(Err(_)) => held.push(i),
                    None => {}
                }
            }
            tickets.clear();
            owners.clear();
            for (i, op) in ops.iter().enumerate() {
                if let Some(ticket) = op.step.as_ref().and_then(|step| step.ticket) {
                    tickets.push(ticket);
                    owners.push(i);
                }
            }
            let wake = ops.iter().filter_map(|op| op.wake).min();
            if tickets.is_empty() {
                if let Some(wake) = wake {
                    std::thread::sleep(wake.saturating_duration_since(Instant::now()));
                } else if held.is_empty() {
                    break;
                } else {
                    // Everything else has settled: record the failures now
                    // (no reply of this client's process may follow its
                    // crash/recovery idiom), and only then start the ops
                    // queued behind them on their registers.
                    for op in &mut ops {
                        if let Some(Err(e)) = &op.out {
                            self.rec_outcome(op.inv.take(), Err(e));
                        }
                    }
                    let released = held.drain(..).filter_map(|i| next[i]);
                    ready.extend(released.map(|j| (j, None)));
                }
            } else {
                if metered {
                    self.obs.inflight.set(tickets.len() as u64);
                    self.obs.pipeline_depth.record(tickets.len() as u64);
                }
                match fan.wait_any(&tickets, wake) {
                    Some((pos, attempt)) => ready.push((owners[pos], Some(attempt))),
                    // The patience window passed with nothing settling:
                    // every attempt in flight timed out (late acks are
                    // counted, never misdelivered).
                    None if wake.is_none_or(|wake| Instant::now() < wake) => {
                        for (&ticket, &i) in tickets.iter().zip(&owners) {
                            fan.cancel(ticket);
                            ready.push((i, Some(Err(ClientError::TimedOut))));
                        }
                    }
                    None => {}
                }
            }
            let now = Instant::now();
            for (i, op) in ops.iter_mut().enumerate() {
                if op.wake.is_some_and(|wake| wake <= now) {
                    op.wake = None;
                    ready.push((i, None));
                }
            }
        }
        if metered {
            self.obs.inflight.set(0);
        }
        let answer = |op: EngineOp<'_>| op.out.expect("every op finishes").map(|()| op.done);
        ops.into_iter().map(answer).collect()
    }

    /// Runs the op's state machine until it submits an attempt, sleeps,
    /// or finishes.
    fn advance(&self, fan: &PipelinedClient, op: &mut EngineOp<'_>) {
        while op.out.is_none() && op.wake.is_none() {
            match &op.step {
                Some(step) if step.ticket.is_some() => return,
                Some(_) => self.submit(fan, op),
                None => self.plan(op),
            }
        }
    }

    /// Picks the op's next register op from its phase.
    fn plan(&self, op: &mut EngineOp<'_>) {
        match op.req {
            Req::Get if op.phase == Phase::Route => self.route_get(op),
            Req::Put(..) if op.phase == Phase::Route => self.route_put(op),
            Req::Put(..) if op.phase == Phase::Seal => self.poll_seal(op),
            Req::Read(reg, rec) => {
                if rec == Rec::Store {
                    op.inv = self.rec_invoke(Op::ReadAt(reg));
                }
                op.phase = Phase::Data;
                op.step = Some(self.step(reg, None));
            }
            Req::Write(reg, ref payload, guard, rec) => {
                let payload = payload.clone();
                if rec == Rec::Store {
                    op.inv = self.rec_invoke(Op::WriteAt(reg, payload.clone()));
                }
                self.lease_revoke(reg);
                op.guard = guard;
                op.phase = Phase::Data;
                op.step = Some(self.step(reg, Some(payload)));
            }
            _ => unreachable!("no register op to plan in phase {:?}", op.phase),
        }
    }

    /// Routes a get under the current map: the mid-split old home, a live
    /// lease, or the key's register.
    fn route_get(&self, op: &mut EngineOp<'_>) {
        op.clock = op.clock.or_else(|| self.obs.op_clock());
        if op.reroutes >= MAP_RETRIES {
            // Epochs kept moving for every retry: answer with the last
            // foreign-stamped payload.
            let last = std::mem::take(&mut op.done.payload);
            return self.answer(op, last, None);
        }
        op.map = self.shard_map();
        let (map, key) = (op.map, op.label);
        if map.is_split_source(map.old_shard_of(key)) {
            let old_reg = map.old_register_for(key);
            if op.inv.is_none() {
                op.inv = self.rec_invoke(Op::ReadAt(old_reg));
            }
            op.phase = Phase::OldHome;
            op.step = Some(self.step(old_reg, None));
            return;
        }
        let reg = map.register_for(key);
        let hit = self.lease_hit(reg, &map);
        if op.inv.is_none() {
            op.inv = self.rec_invoke(Op::ReadAt(reg));
        }
        match hit {
            // A live lease answers locally: zero datagrams. The read is
            // still a recorded store operation — the lease fence is
            // exactly what makes it certifiable.
            Some(payload) => {
                let value = codec::value_for_key(&payload, key);
                self.answer(op, payload, value);
            }
            None => {
                op.phase = Phase::Data;
                op.step = Some(self.step(reg, None));
            }
        }
    }

    /// Routes a put under the current map: through the split barrier when
    /// its source shard is splitting, else straight to the guarded write.
    fn route_put(&self, op: &mut EngineOp<'_>) {
        op.clock = op.clock.or_else(|| self.obs.op_clock());
        op.map = self.shard_map();
        // After MAP_RETRIES re-routes (pathological epoch churn) stop
        // chasing: write unguarded under the freshest map.
        let guarded = op.reroutes < MAP_RETRIES;
        if guarded && op.map.is_split_source(op.map.old_shard_of(op.label)) {
            op.phase = Phase::Seal;
            op.polls = 0;
        } else {
            self.write_entry(op, guarded);
        }
    }

    /// Encodes the put's entry under its map and sets up the write. The
    /// invocation opens before the first write attempt and stays open
    /// across re-routes: ONE store operation however many rounds serve
    /// it.
    fn write_entry(&self, op: &mut EngineOp<'_>, guarded: bool) {
        let Req::Put(ref value, tag) = op.req else {
            unreachable!("only puts write entries")
        };
        let (reg, stamp) = (op.map.register_for(op.label), op.map.stamp());
        let payload = match tag {
            Some(tag) => codec::encode_entry_tagged(op.label, value, stamp, tag),
            None => codec::encode_entry(op.label, value, stamp),
        };
        if op.inv.is_none() {
            op.inv = self.rec_invoke(Op::WriteAt(reg, payload.clone()));
        }
        // The cached value for this register is about to go stale —
        // revoke before the write leaves.
        self.lease_revoke(reg);
        op.guard = guarded.then_some(op.map.epoch);
        op.phase = Phase::Data;
        op.step = Some(self.step(reg, Some(payload)));
    }

    /// The next seal poll of the migration write barrier (bounded; see
    /// [`KvError::Barrier`]).
    fn poll_seal(&self, op: &mut EngineOp<'_>) {
        // The shared cache moves the moment any clone observes a newer
        // map (e.g. the migration driver committing): re-route rather
        // than poll for a seal that may already be superseded.
        if self.shard_map() != op.map {
            op.reroutes += 1;
            op.phase = Phase::Route;
            return;
        }
        let shard = op.map.old_shard_of(op.label);
        if op.polls == self.barrier_polls {
            // Exhausted without a seal: the stall itself is worth a trace.
            self.barrier_event(EventKind::BarrierWait, op, self.barrier_polls);
            let key = op.label.to_string();
            return self.finish(op, Err(KvError::Barrier { key, shard }));
        }
        self.obs.barrier_polls.inc();
        op.step = Some(self.step(data_register(shard), None));
    }

    /// Records a write-barrier flight event for the put's splitting
    /// source shard (`aux`: polls).
    fn barrier_event(&self, kind: EventKind, op: &EngineOp<'_>, aux: u32) {
        let reg = op.map.old_register_for(op.label);
        let event = FlightEvent::new(kind).with_register(reg.0);
        let event = event.with_epoch(op.map.epoch as u32);
        self.obs
            .handle
            .flight
            .record(event.with_aux(u64::from(aux)));
    }

    /// Starts a shard-map re-read on the op's behalf.
    fn start_refresh(&self, op: &mut EngineOp<'_>) {
        self.obs.map_refreshes.inc();
        op.phase = Phase::Refresh;
        op.step = Some(self.step(CONFIG_REGISTER, None));
    }

    /// A register op's failover rotation. It starts at the register's
    /// home node (`register % nodes`, so shard traffic spreads across
    /// the cluster); every node can serve every register, so as long as
    /// a majority is up the op terminates through *some* node. Nodes the
    /// shared [`HealthMemory`] marks as recently failed go last (never
    /// skipped) — so a wedged node costs a batch one patience window,
    /// not one per key. A node whose mark has decayed must first serve
    /// one **probe** before rejoining full rotation: exactly one caller
    /// wins it (and tries the node first), everyone else keeps trying it
    /// last until the probe clears it.
    fn step(&self, reg: RegisterId, write: Option<Value>) -> Step {
        let n = self.nodes.len();
        let home = reg.0 as usize % n;
        let mut order = Vec::with_capacity(n);
        let mut suspects = Vec::new();
        let mut probe = None;
        for node in (0..n).map(|o| (home + o) % n) {
            match self.health.gate(node) {
                NodeGate::Fresh => order.push(node),
                NodeGate::NeedsProbe if probe.is_none() && self.health.try_begin_probe(node) => {
                    probe = Some(node);
                }
                _ => suspects.push(node),
            }
        }
        if let Some(node) = probe {
            order.insert(0, node);
        }
        order.extend(suspects);
        Step {
            reg,
            write,
            order,
            probe,
            ..Step::default()
        }
    }

    /// Submits the op's register op to the current node of its rotation.
    ///
    /// A guarded write checks its epoch before *every* attempt, failover
    /// hops included: its effect then lands within one clean attempt of a
    /// passing check, so a write stalled behind a dead node cannot
    /// surface on a source register long after the shard was sealed. (A
    /// wait in the node's register FIFO is part of the attempt, and it
    /// keeps the write ahead of every op that reaches the node later —
    /// the migrator's verify read included.) A failed check issues
    /// nothing: a put re-routes under the fresh map, a raw write answers
    /// not-landed.
    fn submit(&self, fan: &PipelinedClient, op: &mut EngineOp<'_>) {
        if op
            .guard
            .is_some_and(|epoch| self.shard_map().epoch != epoch)
        {
            op.step = None;
            op.guard = None;
            if let Req::Put(..) = op.req {
                op.reroutes += 1;
                op.phase = Phase::Route;
            } else {
                self.finish(op, Ok(()));
            }
            return;
        }
        let step = op.step.as_mut().expect("submitting a planned step");
        let node = step.order[step.hop];
        step.sent = Some(Instant::now());
        let submitted = match &step.write {
            Some(value) => fan.submit_write(node, step.reg, value.clone()),
            None => fan.submit_read(node, step.reg),
        };
        match submitted {
            Ok(ticket) => step.ticket = Some(ticket),
            Err(e) => self.attempt_failed(op, e),
        }
    }

    /// Feeds a settled (or timed-out) attempt into its op's state machine.
    fn settle(&self, op: &mut EngineOp<'_>, attempt: Attempt) {
        let step = op.step.as_mut().expect("a settled op has a step");
        step.ticket = None;
        let node = step.order[step.hop];
        match (attempt, step.write.is_some()) {
            (Ok((OpResult::ReadValue(payload), rounds, lease)), false) => {
                self.health.clear(node);
                let step = op.step.take().expect("checked above");
                self.on_read(op, step, payload, rounds, lease);
            }
            (Ok((OpResult::Written, rounds, _)), true) => {
                self.health.clear(node);
                self.record_write(rounds);
                op.done.landed = true;
                self.finish(op, Ok(()));
            }
            // A result that does not answer the op: the node failed it.
            (Ok(_), _) => self.attempt_failed(op, ClientError::ProcessDown),
            (Err(e), _) => self.attempt_failed(op, e),
        }
    }

    /// A failed node attempt. A timeout or a dead node marks the node and
    /// fails over (register ops are idempotent, so a retry after an
    /// ambiguous timeout is safe). `TooLarge` ends the op without
    /// marking: the value cannot fit *any* node's frame.
    fn attempt_failed(&self, op: &mut EngineOp<'_>, e: ClientError) {
        let step = op.step.as_mut().expect("a failed attempt has a step");
        let node = step.order[step.hop];
        if let ClientError::TooLarge { size, limit } = e {
            // A client-side refusal: a won probe never reached the node,
            // so hand the debt back.
            if step.probe == Some(node) {
                self.health.reopen_probe(node);
            }
            let key = op.label.to_string();
            return self.finish(op, Err(KvError::TooLarge { key, size, limit }));
        }
        self.obs.retries.inc();
        self.health.mark(node);
        step.hop += 1;
        if step.hop == step.order.len() {
            let key = op.label.to_string();
            self.finish(op, Err(KvError::Register { key, source: e }));
        }
    }

    /// A completed register read, by the phase that issued it.
    fn on_read(
        &self,
        op: &mut EngineOp<'_>,
        step: Step,
        payload: Value,
        rounds: u32,
        lease: Option<LeaseGrant>,
    ) {
        if !matches!(op.req, Req::Read(_, Rec::Silent)) {
            self.record_read(rounds);
        }
        let (map, key) = (op.map, op.label);
        match (&op.req, op.phase) {
            (Req::Get, Phase::Data) => {
                // With no grant, whatever lease the cache holds is left
                // to expire on its own horizon (the fence outlives it).
                if let (Some(grant), Some(t0)) = (lease, step.sent) {
                    self.lease_fill(step.reg, grant, payload.clone(), &map, t0);
                }
                let value = codec::value_for_key(&payload, key);
                // Key absent: under the expected stamp a plain miss
                // (collision displacement); under a foreign stamp our map
                // may be stale — refresh and re-route.
                if value.is_none()
                    && !payload.is_bottom()
                    && codec::payload_epoch(&payload) != Some(map.stamp())
                {
                    op.done.payload = payload;
                    return self.start_refresh(op);
                }
                self.answer(op, payload, value);
            }
            (Req::Get, Phase::Refresh) => {
                if self.adopt_published(&payload) {
                    op.reroutes += 1;
                    op.phase = Phase::Route;
                } else {
                    let last = std::mem::take(&mut op.done.payload);
                    self.answer(op, last, None);
                }
            }
            (Req::Get, Phase::OldHome) => {
                // Unsealed, the old home is authoritative (writers are
                // barriered); sealed, the new routing is live for this
                // shard, so a key the seal does not carry is read at its
                // new home.
                let value = codec::value_for_key(&payload, key);
                let new_reg = map.register_for(key);
                if value.is_none()
                    && new_reg != step.reg
                    && map.seals_source(&payload, map.old_shard_of(key))
                {
                    op.phase = Phase::Forward;
                    op.step = Some(self.step(new_reg, None));
                } else {
                    self.answer(op, payload, value);
                }
            }
            (Req::Get, _) => {
                let value = codec::value_for_key(&payload, key);
                self.answer(op, payload, value);
            }
            (Req::Put(..), Phase::Seal) => {
                let poll = op.polls;
                op.polls += 1;
                if map.seals_source(&payload, map.old_shard_of(key)) {
                    if poll > 0 {
                        // How long the writer actually stalled, in polls.
                        self.barrier_event(EventKind::BarrierWait, op, poll);
                    }
                    self.barrier_event(EventKind::SealObserved, op, 0);
                    return self.write_entry(op, true);
                }
                if poll == 0 {
                    // The writer actually waits on this barrier.
                    self.obs.barrier_waits.inc();
                }
                // Every eighth poll re-reads the authoritative map in case
                // this client is the only one still watching.
                if poll % 8 == 7 {
                    return self.start_refresh(op);
                }
                op.wake = Some(self.seal_wait(poll));
            }
            (Req::Put(..), _) => {
                self.adopt_published(&payload);
                op.phase = Phase::Seal;
                op.wake = Some(self.seal_wait(op.polls - 1));
            }
            _ => {
                op.done.payload = payload;
                self.finish(op, Ok(()));
            }
        }
    }

    /// When the write barrier's next seal poll is due: escalating spacing,
    /// capped, summed into `kv.backoff_micros`. The migrator seals a shard
    /// in a handful of register rounds, so the common case is one short
    /// wait.
    fn seal_wait(&self, poll: u32) -> Instant {
        let micros = (100u64 << poll.min(5)).min(2_000);
        self.obs.backoff_micros.add(micros);
        Instant::now() + Duration::from_micros(micros)
    }

    /// Finishes a get with the payload that answered it.
    fn answer(&self, op: &mut EngineOp<'_>, payload: Value, value: Option<Bytes>) {
        op.done.payload = payload;
        op.done.value = value;
        self.finish(op, Ok(()));
    }

    /// Ends an op: the wall-clock latency of a get/put, and the recorded
    /// reply of a success (failures are recorded when the run ends).
    fn finish(&self, op: &mut EngineOp<'_>, out: Result<(), KvError>) {
        op.step = None;
        if let Some(started) = op.clock {
            let micros = started.elapsed().as_micros() as u64;
            match op.req {
                Req::Get => self.obs.get_micros.record(micros),
                _ => self.obs.put_micros.record(micros),
            }
        }
        if let (Ok(()), Some(inv)) = (&out, op.inv.take()) {
            let reply = match op.req {
                Req::Get | Req::Read(..) => OpResult::ReadValue(op.done.payload.clone()),
                _ if op.done.landed => OpResult::Written,
                // An aborted guarded write was never issued.
                _ => OpResult::Rejected(rmem_types::RejectReason::Busy),
            };
            self.rec_outcome(Some(inv), Ok(reply));
        }
        op.out = Some(out);
    }
}

/// A settled attempt: the op outcome, its quorum rounds, and the lease
/// grant a leasing flavor minted for it.
type Attempt = Result<(OpResult, u32, Option<LeaseGrant>), ClientError>;

/// How the engine accounts a raw register op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rec {
    /// A recorded store operation (the public `raw_*` calls).
    Store,
    /// Unrecorded infrastructure, counted in the stats: shard-map reads
    /// and publishes, migration copies and seals. At the store level a
    /// copy or seal relocates a value rather than writes one; recording
    /// it would let a buggy (non-tag-monotonic) copy read as a legitimate
    /// write, hiding exactly the lost updates the cross-epoch certifier
    /// exists to catch.
    Infra,
    /// Neither recorded nor counted: the first-op shard-map sync.
    Silent,
}

/// What one engine op asks for (its key or error label rides in
/// [`EngineOp::label`]).
enum Req {
    /// A store get of the key.
    Get,
    /// A store put of the key; `Some(tag)` frames the payload with the
    /// exactly-once op id.
    Put(Bytes, Option<OpTag>),
    /// A raw register read.
    Read(RegisterId, Rec),
    /// A raw register write; `Some(epoch)` aborts it un-issued once the
    /// shard map's epoch moves past `epoch`.
    Write(RegisterId, Value, Option<u64>, Rec),
}

/// Where an op stands. Each phase but `Route` has a register op in
/// flight (or failing over); on its completion the op is done, fails
/// over to the next node, polls the barrier again, forwards a split
/// read, refreshes the map and re-routes, or — a guarded write whose
/// epoch moved — re-routes without issuing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Pick the op's path under the current shard map.
    Route,
    /// The op's own read or write.
    Data,
    /// The migration write barrier: polling the old home for its seal.
    Seal,
    /// A mid-split get reading the key's old home.
    OldHome,
    /// A sealed old home forwarded the get to the key's new home.
    Forward,
    /// Re-reading the shard map (a get's foreign stamp, or every eighth
    /// seal poll).
    Refresh,
}

/// One register op of an engine op, walking its failover rotation.
#[derive(Default)]
struct Step {
    reg: RegisterId,
    /// The value a write carries (`None` for a read).
    write: Option<Value>,
    /// Nodes in try order (see [`KvClient::step`]); `hop` is the current.
    order: Vec<usize>,
    hop: usize,
    /// The node this step owes a health probe to, if it won one.
    probe: Option<usize>,
    ticket: Option<Ticket>,
    /// When the current attempt was submitted: a lease granted with its
    /// completion expires `grant.micros` after *this* moment, never after
    /// an earlier failed node's attempt.
    sent: Option<Instant>,
}

/// What a finished op answered.
#[derive(Debug, Clone, Default)]
pub(crate) struct Done {
    /// The payload that answered a read (a get's, fallback hops and
    /// refresh-retries included).
    pub(crate) payload: Value,
    /// A get's value in that payload.
    pub(crate) value: Option<Bytes>,
    /// Whether a write landed (`false`: its epoch guard aborted it
    /// un-issued).
    landed: bool,
}

/// One op's state machine.
struct EngineOp<'a> {
    req: Req,
    /// The key of a get/put; the error label of a raw op.
    label: &'a str,
    /// The op's FIFO: ops sharing a queue register run in input order.
    queue: RegisterId,
    phase: Phase,
    /// The shard map the op was last routed under.
    map: ShardMap,
    /// Re-routes after a shard-map change, bounded by [`MAP_RETRIES`].
    reroutes: usize,
    /// Seal polls made in the current barrier wait.
    polls: u32,
    /// The epoch the current write is guarded by.
    guard: Option<u64>,
    inv: Option<rmem_types::OpId>,
    /// Latency clock of a get/put (when metrics are on).
    clock: Option<Instant>,
    step: Option<Step>,
    /// Asleep until this instant (the barrier's seal-poll spacing).
    wake: Option<Instant>,
    done: Done,
    out: Option<Result<(), KvError>>,
}

impl<'a> EngineOp<'a> {
    fn new(req: Req, label: &'a str, queue: RegisterId) -> Self {
        EngineOp {
            req,
            label,
            queue,
            phase: Phase::Route,
            map: ShardMap::genesis(1),
            reroutes: 0,
            polls: 0,
            guard: None,
            inv: None,
            clock: None,
            step: None,
            wake: None,
            done: Done::default(),
            out: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmem_core::{Persistent, SharedMemory, Transient};
    use rmem_net::LocalCluster;

    fn cluster_client(shards: u16) -> (LocalCluster, KvClient) {
        let cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
        let client = KvClient::new(cluster.clients(), ShardRouter::new(shards)).unwrap();
        (cluster, client)
    }

    /// Polls, bounded by a count, until no protocol message is in flight
    /// and no store is pending anywhere: the nodes' summed
    /// `runner.msgs_in` equals their summed `runner.msgs_out`, every
    /// queued store is durable, and the counters held still across two
    /// polls. A read after that finds every replica holding the last
    /// write durably, so it takes the one-round fast path.
    fn settle(cluster: &LocalCluster) {
        const NAMES: [&str; 4] = [
            "runner.msgs_in",
            "runner.msgs_out",
            "runner.stores_queued",
            "runner.stores_durable",
        ];
        let sums = || {
            let mut sums = [0u64; 4];
            for i in 0..cluster.len() {
                let m = cluster.metrics(ProcessId(i as u16));
                for (sum, name) in sums.iter_mut().zip(NAMES) {
                    *sum += m.counter(name);
                }
            }
            sums
        };
        let mut last = None;
        for _ in 0..100_000 {
            let now = sums();
            if now[0] == now[1] && now[2] == now[3] && last == Some(now) {
                return;
            }
            last = Some(now);
            std::thread::yield_now();
        }
        panic!("the cluster never settled: {last:?}");
    }

    #[test]
    fn put_get_roundtrip() {
        let (mut cluster, kv) = cluster_client(8);
        kv.put("alpha", b"1".to_vec()).unwrap();
        assert_eq!(kv.get("alpha").unwrap().as_deref(), Some(b"1".as_ref()));
        assert_eq!(kv.get("never-written").unwrap(), None);
        cluster.shutdown();
    }

    #[test]
    fn multi_ops_roundtrip_across_shards() {
        let (mut cluster, kv) = cluster_client(8);
        let keys = kv.router().covering_keys("k-");
        let entries: Vec<(String, Bytes)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), Bytes::from(vec![i as u8])))
            .collect();
        kv.multi_put(&entries).unwrap();
        let got = kv.multi_get(&keys).unwrap();
        for (i, value) in got.iter().enumerate() {
            assert_eq!(
                value.as_deref(),
                Some([i as u8].as_ref()),
                "key {}",
                keys[i]
            );
        }
        cluster.shutdown();
    }

    #[test]
    fn overwrite_returns_latest() {
        let (mut cluster, kv) = cluster_client(4);
        kv.put("k", b"old".to_vec()).unwrap();
        kv.put("k", b"new".to_vec()).unwrap();
        assert_eq!(kv.get("k").unwrap().as_deref(), Some(b"new".as_ref()));
        cluster.shutdown();
    }

    #[test]
    fn colliding_key_displaces_previous_tenant() {
        // One shard: every key collides by construction. The displaced
        // key's get must report absence, not foreign bytes.
        let (mut cluster, kv) = cluster_client(1);
        kv.put("first", b"1".to_vec()).unwrap();
        kv.put("second", b"2".to_vec()).unwrap();
        assert_eq!(kv.get("second").unwrap().as_deref(), Some(b"2".as_ref()));
        assert_eq!(kv.get("first").unwrap(), None);
        cluster.shutdown();
    }

    #[test]
    fn client_fails_over_when_a_node_dies() {
        // The same KvClient (handles to all 3 nodes) must keep serving
        // every key after one node is killed — shards homed on the dead
        // node fail over to the survivors.
        let (mut cluster, kv) = cluster_client(8);
        let keys = kv.router().covering_keys("f-");
        for (i, key) in keys.iter().enumerate() {
            kv.put(key, vec![i as u8]).unwrap();
        }
        cluster.kill(rmem_types::ProcessId(1));
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(
                kv.get(key).unwrap().as_deref(),
                Some([i as u8].as_ref()),
                "key {key} must survive the node death"
            );
            kv.put(key, vec![i as u8 + 100]).unwrap();
        }
        cluster.shutdown();
    }

    #[test]
    fn dead_node_is_marked_and_deprioritized() {
        let (mut cluster, kv) = cluster_client(8);
        let kv = kv.with_health_cooldown(std::time::Duration::from_secs(30));
        let keys = kv.router().covering_keys("h-");
        let entries: Vec<(String, Bytes)> = keys
            .iter()
            .map(|k| (k.clone(), Bytes::from(b"v".to_vec())))
            .collect();
        kv.multi_put(&entries).unwrap();
        cluster.kill(rmem_types::ProcessId(1));
        // Every key still resolves; the batch's failovers mark node 1.
        let got = kv.multi_get(&keys).unwrap();
        assert!(got.iter().all(Option::is_some));
        assert!(
            kv.health().is_suspect(1),
            "the killed node must be marked as recently failed"
        );
        assert!(!kv.health().is_suspect(0));
        // A clone shares the same marks.
        assert!(kv.clone().health().is_suspect(1));
        // Marks are hints, not bans: with *every* node marked the store
        // still serves (suspects are tried in home order), and the node
        // that answers clears its own mark.
        cluster.restart(rmem_types::ProcessId(1)).unwrap();
        for i in 0..3 {
            kv.health().mark(i);
        }
        assert_eq!(kv.health().suspects().len(), 3);
        let got = kv.multi_get(&keys).unwrap();
        assert!(got.iter().all(Option::is_some));
        assert!(
            kv.health().suspects().len() < 3,
            "successful operations must clear the serving nodes' marks"
        );
        cluster.shutdown();
    }

    #[test]
    fn oversized_entry_fails_fast_with_a_named_error() {
        // UDP transport: 64 KB datagram ceiling. The put must fail
        // immediately with TooLarge, not retransmit into a timeout.
        let dir = std::env::temp_dir().join(format!("rmem-kv-toolarge-{}", std::process::id()));
        let mut cluster =
            LocalCluster::udp(3, SharedMemory::factory(Transient::flavor()), &dir).unwrap();
        let kv = KvClient::new(cluster.clients(), ShardRouter::new(4)).unwrap();
        assert!(kv.max_value_len().is_some());
        let started = std::time::Instant::now();
        let err = kv.put("big", vec![0u8; 80_000]).unwrap_err();
        assert!(
            matches!(err, KvError::TooLarge { ref key, size, limit }
                if key == "big" && size > limit),
            "expected TooLarge, got {err}"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "TooLarge must surface fast, not after a patience window"
        );
        // A value that fits still works on the same cluster.
        kv.put("small", b"ok".to_vec()).unwrap();
        assert_eq!(kv.get("small").unwrap().as_deref(), Some(b"ok".as_ref()));
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn op_stats_count_reads_writes_and_fast_paths() {
        let (mut cluster, kv) = cluster_client(8);
        assert_eq!(kv.stats(), KvOpStats::default());
        kv.put("s", b"1".to_vec()).unwrap();
        settle(&cluster);
        // Quiescent key: the fast path answers the read in one round.
        assert_eq!(kv.get("s").unwrap().as_deref(), Some(b"1".as_ref()));
        let stats = kv.stats();
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.write_rounds, 2, "transient write = query + propagate");
        assert_eq!(stats.reads, 1);
        assert_eq!(
            stats.read_rounds, 1,
            "a quiescent read must take the fast path"
        );
        assert_eq!(stats.fast_reads, 1);
        assert!(stats.mean_read_rounds() < 2.0);
        assert_eq!(stats.fast_read_fraction(), 1.0);
        assert_eq!(stats.barrier_waits, 0, "no split, no barrier");
        // Clones share the counters.
        kv.clone().get("s").unwrap();
        assert_eq!(kv.stats().reads, 2);
        cluster.shutdown();
    }

    #[test]
    fn decayed_suspect_is_probed_before_full_rotation() {
        let (mut cluster, kv) = cluster_client(8);
        let kv = kv.with_health_cooldown(std::time::Duration::from_millis(40));
        let keys = kv.router().covering_keys("p-");
        for key in &keys {
            kv.put(key, b"v".to_vec()).unwrap();
        }
        // A healthy node that got (spuriously) marked: after the decay it
        // owes one probe, the first batch issues exactly one, and the
        // success restores full rotation.
        kv.health().mark(1);
        assert_eq!(kv.health_stats().marks, 1);
        assert_eq!(kv.health().gate(1), NodeGate::Suspect);
        std::thread::sleep(std::time::Duration::from_millis(60));
        assert_eq!(kv.health().gate(1), NodeGate::NeedsProbe);
        let got = kv.multi_get(&keys).unwrap();
        assert!(got.iter().all(Option::is_some));
        let stats = kv.health_stats();
        assert_eq!(stats.probes, 1, "exactly one probe per owed debt");
        assert_eq!(
            kv.health().gate(1),
            NodeGate::Fresh,
            "the successful probe must restore full rotation"
        );
        assert!(stats.suspects.is_empty());
        cluster.shutdown();
    }

    #[test]
    fn failed_probe_remarks_instead_of_restoring() {
        let (mut cluster, kv) = cluster_client(8);
        let kv = kv
            .with_health_cooldown(std::time::Duration::from_millis(40))
            // Shrink patience so the dead node costs milliseconds, not 10s.
            .with_op_timeout(std::time::Duration::from_millis(300));
        let keys = kv.router().covering_keys("f-");
        for key in &keys {
            kv.put(key, b"v".to_vec()).unwrap();
        }
        cluster.kill(rmem_types::ProcessId(1));
        // The batch marks the dead node (one timeout, shared marks).
        let got = kv.multi_get(&keys).unwrap();
        assert!(got.iter().all(Option::is_some));
        assert!(kv.health_stats().marks >= 1, "the dead node must be marked");
        assert_eq!(
            kv.health_stats().probes,
            0,
            "no probe while the mark is hot"
        );
        // Mark decays, node is still dead: the next batch spends exactly
        // one probe on it and re-marks it — the probe gate is what keeps
        // the cost at one operation instead of one per key.
        std::thread::sleep(std::time::Duration::from_millis(60));
        assert_eq!(kv.health().gate(1), NodeGate::NeedsProbe);
        let marks_before = kv.health_stats().marks;
        let got = kv.multi_get(&keys).unwrap();
        assert!(got.iter().all(Option::is_some));
        let stats = kv.health_stats();
        assert_eq!(stats.probes, 1, "one probe, not one per key");
        assert!(
            stats.marks > marks_before,
            "the failed probe must re-mark the node"
        );
        assert_eq!(kv.health().gate(1), NodeGate::Suspect);
        cluster.shutdown();
    }

    #[test]
    fn empty_node_list_is_rejected() {
        assert!(matches!(
            KvClient::new(Vec::new(), ShardRouter::new(4)),
            Err(KvError::NoNodes)
        ));
    }

    #[test]
    fn contended_register_makes_progress_without_livelock() {
        // Eight writers hammering ONE key through one node family: the
        // key's home node queues each put behind the one in flight, so
        // every writer completes its burst without a single retry.
        let (mut cluster, kv) = cluster_client(1);
        let done: Vec<Result<(), KvError>> = std::thread::scope(|scope| {
            (0..8u8)
                .map(|w| {
                    let kv = kv.clone();
                    scope.spawn(move || {
                        for i in 0..10u8 {
                            kv.put("hot", vec![w, i])?;
                        }
                        Ok(())
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("writer thread panicked"))
                .collect()
        });
        for outcome in done {
            outcome.expect("every contended writer must finish its burst");
        }
        let stats = kv.stats();
        assert_eq!(stats.writes, 80);
        assert_eq!(
            stats.retries, 0,
            "contention must not cost retries: {stats:?}"
        );
        // The contention shows up as waiting at the key's home node.
        let home = ProcessId(data_register(0).0 % 3);
        assert!(
            cluster.metrics(home).counter("runner.queued") > 0,
            "eight concurrent writers must have queued at node {home}"
        );
        assert!(kv.get("hot").unwrap().is_some());
        cluster.shutdown();
    }

    // -- Epochs and live splits -------------------------------------------

    #[test]
    fn grow_moves_only_split_keys_and_serves_all() {
        let (mut cluster, kv) = cluster_client(4);
        let old_router = ShardRouter::new(4);
        let keys = old_router.covering_keys("g-");
        for (i, key) in keys.iter().enumerate() {
            kv.put(key, vec![i as u8]).unwrap();
        }
        assert_eq!(kv.epoch(), 0);
        let report = kv.grow(8).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.from_shards, 4);
        assert_eq!(report.to_shards, 8);
        assert_eq!(report.sources_sealed, 4, "4 → 8 splits every old shard");
        let map = kv.shard_map();
        assert!(!map.is_migrating());
        assert_eq!(map.shards, 8);
        // Every key still serves its value, wherever it landed.
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(
                kv.get(key).unwrap().as_deref(),
                Some([i as u8].as_ref()),
                "key {key} must survive the split"
            );
        }
        // Writes after the split land at the new homes and read back.
        for (i, key) in keys.iter().enumerate() {
            kv.put(key, vec![i as u8 + 50]).unwrap();
            assert_eq!(
                kv.get(key).unwrap().as_deref(),
                Some([i as u8 + 50].as_ref())
            );
        }
        cluster.shutdown();
    }

    #[test]
    fn fresh_client_syncs_on_first_op_and_refreshes_on_stamp_mismatch() {
        let (mut cluster, kv) = cluster_client(4);
        let keys = ShardRouter::new(4).covering_keys("d-");
        for key in &keys {
            kv.put(key, b"v0".to_vec()).unwrap();
        }
        kv.grow(8).unwrap();
        // Write fresh epoch-1 values so moved keys live at new homes only.
        for key in &keys {
            kv.put(key, b"v1".to_vec()).unwrap();
        }
        // A brand-new client believes the genesis 4-shard map until its
        // first operation, which syncs from the config register — so it
        // can never *write* under its constructor's guess.
        let late = KvClient::new(cluster.clients(), ShardRouter::new(4)).unwrap();
        assert_eq!(late.epoch(), 0);
        for key in &keys {
            assert_eq!(
                late.get(key).unwrap().as_deref(),
                Some(b"v1".as_ref()),
                "late client must discover the split for {key}"
            );
        }
        assert_eq!(late.epoch(), 1, "the first-op sync must adopt the map");
        // A *second* split by the original client: the late client's
        // cache is now stale again (it already synced), and the sealed
        // old homes' stamp mismatches trigger refresh-and-re-route.
        kv.grow(16).unwrap();
        for key in &keys {
            kv.put(key, b"v2".to_vec()).unwrap();
        }
        for key in &keys {
            assert_eq!(
                late.get(key).unwrap().as_deref(),
                Some(b"v2".as_ref()),
                "stamp mismatch must re-route {key} after the second split"
            );
        }
        assert_eq!(late.epoch(), 2, "the mismatch refresh must adopt epoch 2");
        assert!(late.stats().map_refreshes >= 1);
        cluster.shutdown();
    }

    #[test]
    fn grow_rejects_non_growth() {
        let (mut cluster, kv) = cluster_client(4);
        assert!(matches!(kv.grow(4), Err(KvError::Reshard { .. })));
        assert!(matches!(kv.grow(2), Err(KvError::Reshard { .. })));
        cluster.shutdown();
    }

    #[test]
    fn abandoned_split_is_finished_by_finish_split() {
        let (mut cluster, kv) = cluster_client(4);
        let keys = ShardRouter::new(4).covering_keys("a-");
        for (i, key) in keys.iter().enumerate() {
            kv.put(key, vec![i as u8]).unwrap();
        }
        // Simulate a driver that published the split and died before
        // migrating anything.
        let current = kv.shard_map();
        let migrating = current.split_to(8);
        kv.raw_write(CONFIG_REGISTER, migrating.encode(), "shard-map")
            .unwrap();
        // A second client discovers the stranded split and finishes it.
        let rescuer = KvClient::new(cluster.clients(), ShardRouter::new(4)).unwrap();
        assert!(rescuer.finish_split().unwrap());
        assert!(!rescuer.shard_map().is_migrating());
        assert_eq!(rescuer.shard_map().shards, 8);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(
                rescuer.get(key).unwrap().as_deref(),
                Some([i as u8].as_ref())
            );
        }
        assert!(!rescuer.finish_split().unwrap(), "nothing left to finish");
        cluster.shutdown();
    }

    #[test]
    fn sequential_grows_stack_epochs() {
        let (mut cluster, kv) = cluster_client(2);
        let keys = ShardRouter::new(2).covering_keys("s-");
        for key in &keys {
            kv.put(key, b"x".to_vec()).unwrap();
        }
        kv.grow(4).unwrap();
        kv.grow(9).unwrap();
        assert_eq!(kv.epoch(), 2);
        assert_eq!(kv.shard_map().shards, 9);
        for key in &keys {
            assert_eq!(kv.get(key).unwrap().as_deref(), Some(b"x".as_ref()));
        }
        cluster.shutdown();
    }

    #[test]
    fn fresh_client_first_write_cannot_land_behind_a_foreign_split() {
        // Client B grows the store; a brand-new client A (separate
        // KvClient, never synced) writes a moved key. Without the
        // first-op sync the write would land on the sealed old home and
        // be lost to every up-to-date reader.
        let (mut cluster, kv) = cluster_client(4);
        let keys = ShardRouter::new(4).covering_keys("x-");
        for key in &keys {
            kv.put(key, b"old".to_vec()).unwrap();
        }
        kv.grow(8).unwrap();
        let fresh = KvClient::new(cluster.clients(), ShardRouter::new(4)).unwrap();
        assert_eq!(fresh.epoch(), 0, "constructor does not contact the cluster");
        for key in &keys {
            fresh.put(key, b"new".to_vec()).unwrap();
        }
        assert_eq!(fresh.epoch(), 1, "the first put must sync the map");
        // The up-to-date client observes every write.
        for key in &keys {
            assert_eq!(
                kv.get(key).unwrap().as_deref(),
                Some(b"new".as_ref()),
                "{key}: a fresh client's write must be visible at the new routing"
            );
        }
        cluster.shutdown();
    }

    #[test]
    fn recorded_clone_assigns_distinct_pids() {
        let (mut cluster, kv) = cluster_client(4);
        let recorder = OpRecorder::new();
        let kv = kv.with_recorder(recorder.clone());
        let other = kv.recorded_clone();
        kv.put("r", b"1".to_vec()).unwrap();
        other.get("r").unwrap();
        let history = recorder.history();
        let pids: std::collections::BTreeSet<_> = history
            .events()
            .iter()
            .filter_map(|e| match e {
                rmem_consistency::Event::Invoke { op, .. } => Some(op.pid),
                _ => None,
            })
            .collect();
        assert_eq!(pids.len(), 2, "two recording clients, two processes");
        cluster.shutdown();
    }

    /// A cluster whose flavor grants tag leases, paired with a
    /// lease-caching client.
    fn leased_cluster_client(lease_micros: u64, shards: u16) -> (LocalCluster, KvClient) {
        let cluster = LocalCluster::channel(
            3,
            SharedMemory::factory(Persistent::flavor().with_lease(lease_micros)),
        )
        .unwrap();
        let client = KvClient::new(cluster.clients(), ShardRouter::new(shards))
            .unwrap()
            .with_lease_cache(16);
        (cluster, client)
    }

    #[test]
    fn hot_key_reads_are_served_by_the_lease_cache() {
        let (mut cluster, kv) = leased_cluster_client(2_000_000, 8);
        kv.put("hot", b"v1".to_vec()).unwrap();
        settle(&cluster);
        // The first read pays its quorum round and harvests the grant…
        assert_eq!(kv.get("hot").unwrap().as_deref(), Some(b"v1".as_ref()));
        // …the rest are zero-round, zero-datagram hits.
        for _ in 0..8 {
            assert_eq!(kv.get("hot").unwrap().as_deref(), Some(b"v1".as_ref()));
        }
        let stats = kv.stats();
        assert!(stats.lease_hits >= 8, "hits missing: {stats:?}");
        assert!(
            stats.mean_read_rounds() < 1.0,
            "leased reads must push mean rounds below one: {stats:?}"
        );
        cluster.shutdown();
    }

    #[test]
    fn own_write_revokes_the_lease_and_the_next_read_is_fresh() {
        let (mut cluster, kv) = leased_cluster_client(500_000, 8);
        kv.put("k", b"v1".to_vec()).unwrap();
        assert_eq!(kv.get("k").unwrap().as_deref(), Some(b"v1".as_ref()));
        assert_eq!(kv.get("k").unwrap().as_deref(), Some(b"v1".as_ref()));
        assert!(kv.stats().lease_hits >= 1);
        // The put revokes this client's lease before the write leaves
        // (the replicas additionally fence it behind every *other*
        // client's outstanding grant), so the next read returns v2.
        kv.put("k", b"v2".to_vec()).unwrap();
        assert_eq!(kv.get("k").unwrap().as_deref(), Some(b"v2".as_ref()));
        assert!(kv.stats().lease_revocations >= 1, "{:?}", kv.stats());
        cluster.shutdown();
    }

    #[test]
    fn multi_get_serves_hot_keys_from_leases() {
        let (mut cluster, kv) = leased_cluster_client(2_000_000, 8);
        let keys = ["a", "b", "c", "d"];
        for key in keys {
            kv.put(key, key.as_bytes().to_vec()).unwrap();
        }
        settle(&cluster);
        // First batch fills the cache through the pipeline…
        let first = kv.multi_get(&keys).unwrap();
        // …second batch answers entirely from leases.
        let before = kv.stats();
        let second = kv.multi_get(&keys).unwrap();
        assert_eq!(first, second);
        for (key, value) in keys.iter().zip(&second) {
            assert_eq!(value.as_deref(), Some(key.as_bytes()));
        }
        let after = kv.stats();
        assert!(
            after.lease_hits >= before.lease_hits + keys.len() as u64,
            "batch hits missing: {before:?} -> {after:?}"
        );
        cluster.shutdown();
    }

    #[test]
    fn unleased_cluster_never_fills_the_cache() {
        let (mut cluster, kv) = cluster_client(8);
        let kv = kv.with_lease_cache(16);
        kv.put("k", b"v".to_vec()).unwrap();
        for _ in 0..4 {
            assert_eq!(kv.get("k").unwrap().as_deref(), Some(b"v".as_ref()));
        }
        let stats = kv.stats();
        assert_eq!(stats.lease_hits, 0, "no grants, no hits: {stats:?}");
        assert!(stats.lease_misses >= 4);
        assert!(stats.mean_read_rounds() >= 1.0);
        cluster.shutdown();
    }

    #[test]
    fn a_grow_revokes_every_lease() {
        let (mut cluster, kv) = leased_cluster_client(100_000, 4);
        kv.put("x", b"1".to_vec()).unwrap();
        kv.put("y", b"2".to_vec()).unwrap();
        let _ = kv.get("x").unwrap();
        let _ = kv.get("y").unwrap();
        let before = kv.stats();
        kv.grow(8).unwrap();
        let after = kv.stats();
        assert!(
            after.lease_revocations > before.lease_revocations,
            "the epoch change must drop cached leases: {before:?} -> {after:?}"
        );
        // Post-split reads are correct (and refill under the new stamp).
        assert_eq!(kv.get("x").unwrap().as_deref(), Some(b"1".as_ref()));
        assert_eq!(kv.get("y").unwrap().as_deref(), Some(b"2".as_ref()));
        cluster.shutdown();
    }
}
