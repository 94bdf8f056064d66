//! The per-shard quorum batching engine: [`BatchedKv`].
//!
//! # What gets amortized
//!
//! Every register operation costs two quorum round-trips (SnReq/SnAck,
//! then Write/WriteAck or Read/ReadAck) regardless of how much it carries.
//! The engine therefore coalesces the store operations of a batch that
//! land on one shard into a *single* register operation:
//!
//! * **puts** — one `SnReq` round amortized over the batch: the coalesced
//!   entries (last write wins per key, batch order) become one composite
//!   entry-map payload ([`rmem_kv::codec::encode_entries`]) written in one
//!   quorum round;
//! * **gets** — one `Read` round whose payload serves every queued get on
//!   the shard ([`rmem_kv::codec::value_for_key`]).
//!
//! Two batching paths share that machinery: `multi_put`/`multi_get`
//! batches are fully formed on arrival and flush immediately (chunked by
//! the policy's `max_batch` and the transport frame budget), while singles
//! (`put`/`get`) pass through the concurrent operation table
//! (`crate::table`), where the policy's `max_linger` lets concurrent
//! callers coalesce. Either way a flush's rounds run as one batch of raw
//! register ops on the wrapped client's op engine
//! ([`KvClient::raw_reads`], [`KvClient::raw_writes`]), all in flight at
//! once from the calling thread.
//!
//! # Why per-key certification still holds
//!
//! `rmem_kv::certify_per_key` stays the correctness oracle for batched
//! runs, with no weakening, because batching never changes *what a
//! register operation is* — only how many store-level operations one
//! register operation carries:
//!
//! * A flush is still one ordinary register write (or read) of the
//!   emulation, so the per-register history is exactly as atomic as the
//!   underlying flavor guarantees; nothing new to prove at that level.
//! * Coalescing k same-key puts into one write of the *last* value is a
//!   legal linearization of those k puts: they were concurrent (all
//!   in-flight in one batch), so some order was always permissible, and
//!   the batch serves them in arrival order with the last one visible —
//!   each earlier put's ack truthfully means "my write was applied and
//!   then superseded within the same atomic step".
//! * Under an injective key↔shard map (what certification requires even
//!   unbatched — colliding universes are refused up front) a coalesced
//!   payload carries exactly one key, so the certifier's decode step maps
//!   it to a plain register value and the per-register verdict reads as
//!   the per-key verdict, word for word.
//! * With colliding keys, a composite write replaces the whole cell —
//!   exactly the displacement semantics the unbatched store already has —
//!   so batching changes nothing the certifier would need to model.
//!
//! The engine's batches are therefore *transparent* to the oracle: every
//! batched run that completes is certified by the same checker, against
//! the same criterion, as its unbatched equivalent.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::{bounded, Sender};
use rmem_kv::{codec, KvClient, KvError, ShardMap};
use rmem_obs::{Counter, Histogram};
use rmem_types::{RegisterId, Value};

use crate::policy::FlushPolicy;
use crate::table::{Enqueued, OpTable, QueuedGet, QueuedPut};

/// Running totals of the engine's amortization (all clones share them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Store-level operations served (puts + gets).
    pub logical_ops: u64,
    /// Register operations (= quorum rounds × 2) actually executed.
    pub register_ops: u64,
}

impl BatchStats {
    /// Logical operations per register operation — the amortization
    /// factor (1.0 means batching never coalesced anything).
    pub fn amortization(&self) -> f64 {
        if self.register_ops == 0 {
            return 0.0;
        }
        self.logical_ops as f64 / self.register_ops as f64
    }
}

struct Shared {
    kv: KvClient,
    policy: FlushPolicy,
    table: OpTable,
    /// `batch.*` instruments, registered into the wrapped client's
    /// metrics registry so one snapshot ([`KvClient::metrics`]) covers
    /// the store stack: the amortization counters behind
    /// [`BatchedKv::stats`], plus the distinct-key size of every bundled
    /// write round.
    logical_ops: Arc<Counter>,
    register_ops: Arc<Counter>,
    bundle_size: Arc<Histogram>,
    /// The shard-map epoch the queues were last flushed under. A bundle
    /// carries exactly one epoch stamp by construction (each flush
    /// snapshots the map once); this additionally kicks every lingering
    /// queue the moment the epoch moves, so no operation waits out a
    /// linger window under routing that just changed.
    epoch: AtomicU64,
}

/// A batching store client over a [`KvClient`] (see module docs).
///
/// Cheap to clone; clones share the operation table, the health memory
/// and the stats, so concurrent callers coalesce.
#[derive(Clone)]
pub struct BatchedKv {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for BatchedKv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchedKv")
            .field("policy", &self.shared.policy)
            .field("shards", &self.shared.kv.router().shards())
            .finish()
    }
}

impl BatchedKv {
    /// Wraps `kv` with the given flush policy.
    pub fn new(kv: KvClient, policy: FlushPolicy) -> Self {
        assert!(policy.max_batch >= 1, "max_batch must be at least 1");
        let table = OpTable::new(kv.router().shards() as usize);
        let epoch = kv.epoch();
        let m = kv.metrics_registry().clone();
        BatchedKv {
            shared: Arc::new(Shared {
                logical_ops: m.counter("batch.logical_ops"),
                register_ops: m.counter("batch.register_ops"),
                bundle_size: m.histogram("batch.bundle_size"),
                kv,
                policy,
                table,
                epoch: AtomicU64::new(epoch),
            }),
        }
    }

    /// The coalescing bucket of `key` under `map`: the table's buckets
    /// are fixed at construction, later epochs fold onto them (bucket ≠
    /// register — every flush re-derives registers from the live map).
    fn bucket_of(&self, map: &ShardMap, key: &str) -> usize {
        map.shard_of(key) as usize % self.shared.table.len()
    }

    /// Epoch guard, run on every entry point: when the shard map's epoch
    /// has moved since the last flush, kick every leaderless non-empty
    /// queue so no operation lingers under superseded routing, and no
    /// forming bundle straddles the epochs.
    fn roll_epoch(&self, map: &ShardMap) {
        let seen = self.shared.epoch.load(Ordering::Relaxed);
        if map.epoch == seen {
            return;
        }
        if self
            .shared
            .epoch
            .compare_exchange(seen, map.epoch, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            for bucket in 0..self.shared.table.len() {
                if self.shared.table.try_adopt(bucket) {
                    // No linger: these batches are as formed as they will
                    // get, and this runs on some victim operation's
                    // thread — it must not serially pay every bucket's
                    // linger window.
                    let (puts, gets) = self.shared.table.collect_immediate(bucket);
                    self.run_flush(puts, gets);
                }
            }
        }
    }

    /// Whether `key` currently sits behind the migration write barrier
    /// (its source shard is splitting): such operations bypass the
    /// batching table and the bundles, and go through the epoch-aware
    /// `KvClient` paths, which run the barrier / old-home-then-new-home
    /// protocol per key.
    fn is_barriered(&self, map: &ShardMap, key: &str) -> bool {
        map.is_migrating() && map.is_split_source(map.old_shard_of(key))
    }

    /// The wrapped client.
    pub fn kv(&self) -> &KvClient {
        &self.shared.kv
    }

    /// The flush policy in force.
    pub fn policy(&self) -> FlushPolicy {
        self.shared.policy
    }

    /// The linger window the next single-operation flush on `shard` would
    /// wait: the fixed policy value, or — under
    /// [`FlushPolicy::adaptive`] — the shard's current controller state
    /// (grows with sustained queue depth, collapses when traffic dries
    /// up). Observability hook for operators and tests.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is not below the wrapped router's shard count
    /// (`self.kv().router().shards()`).
    pub fn effective_linger(&self, shard: usize) -> std::time::Duration {
        self.shared
            .table
            .effective_linger(shard, &self.shared.policy)
    }

    /// Amortization counters since construction.
    pub fn stats(&self) -> BatchStats {
        BatchStats {
            logical_ops: self.shared.logical_ops.get(),
            register_ops: self.shared.register_ops.get(),
        }
    }

    // -- Singles: through the concurrent operation table -----------------

    /// Stores `value` under `key`, riding a shared per-shard batch:
    /// concurrent puts and gets on the same shard coalesce into single
    /// quorum rounds (the policy bounds how long a lone operation waits
    /// for company).
    ///
    /// # Errors
    ///
    /// As [`KvClient::put`].
    ///
    /// # Panics
    ///
    /// Panics if `key` exceeds [`codec::MAX_KEY_LEN`] (as
    /// [`KvClient::put`] does) — checked *before* enqueueing, so an
    /// invalid operation fails on its caller's thread instead of
    /// panicking whichever thread leads the flush.
    pub fn put(&self, key: &str, value: impl Into<Bytes>) -> Result<(), KvError> {
        let value = value.into();
        self.check_put(key, value.len())?;
        self.single(
            key,
            |kv| kv.put(key, value.clone()),
            |table, bucket, done| {
                let (key, value) = (key.to_string(), value.clone());
                table.enqueue_put(bucket, QueuedPut { key, value, done }, &self.shared.policy)
            },
        )
    }

    /// Reads `key`, riding a shared per-shard batch (see
    /// [`put`](Self::put)).
    ///
    /// # Errors
    ///
    /// As [`KvClient::get`].
    ///
    /// # Panics
    ///
    /// Panics if `key` exceeds [`codec::MAX_KEY_LEN`] (on the caller's
    /// thread; see [`put`](Self::put)).
    pub fn get(&self, key: &str) -> Result<Option<Bytes>, KvError> {
        assert!(
            key.len() <= codec::MAX_KEY_LEN,
            "key longer than {} bytes",
            codec::MAX_KEY_LEN
        );
        self.single(
            key,
            |kv| kv.get(key),
            |table, bucket, done| {
                let key = key.to_string();
                table.enqueue_get(bucket, QueuedGet { key, done }, &self.shared.policy)
            },
        )
    }

    /// One single-key operation: enqueued on its bucket (leading the
    /// flush if it arrives first) and answered through `done`. A key
    /// behind the migration write barrier bypasses the shared bundle —
    /// the barrier and the old-home-then-new-home read fallback are per
    /// key — and runs on the epoch-aware `KvClient` path instead.
    fn single<T>(
        &self,
        key: &str,
        per_key: impl FnOnce(&KvClient) -> Result<T, KvError>,
        enqueue: impl FnOnce(&OpTable, usize, Sender<Result<T, KvError>>) -> Enqueued,
    ) -> Result<T, KvError> {
        self.shared.kv.sync_map()?;
        let map = self.shared.kv.shard_map();
        self.roll_epoch(&map);
        if self.is_barriered(&map, key) {
            self.shared.logical_ops.inc();
            self.shared.register_ops.inc();
            return per_key(&self.shared.kv);
        }
        let bucket = self.bucket_of(&map, key);
        let (tx, rx) = bounded(1);
        if enqueue(&self.shared.table, bucket, tx) == Enqueued::Leader {
            self.lead_flush(bucket);
        }
        rx.recv().unwrap_or(Err(KvError::Register {
            key: key.to_string(),
            source: rmem_net::ClientError::ProcessDown,
        }))
    }

    /// Validates a put before it enters the shared queue: an invalid key
    /// panics the offender (matching `KvClient::put`'s contract), an
    /// entry that alone cannot fit any frame is refused `TooLarge` here —
    /// either failing inside the flush would hit the leader's thread and
    /// poison the whole batch with misleading errors.
    fn check_put(&self, key: &str, value_len: usize) -> Result<(), KvError> {
        assert!(
            key.len() <= codec::MAX_KEY_LEN,
            "key longer than {} bytes",
            codec::MAX_KEY_LEN
        );
        if let Some(max_value) = self.shared.kv.max_value_len() {
            let entry_len = codec::ENTRY_OVERHEAD + key.len() + value_len;
            if entry_len > max_value {
                let overhead = rmem_types::codec::VALUE_MSG_OVERHEAD;
                return Err(KvError::TooLarge {
                    key: key.to_string(),
                    size: entry_len + overhead,
                    limit: max_value + overhead,
                });
            }
        }
        Ok(())
    }

    /// Collects the bucket's queue (lingering per policy) and executes it.
    fn lead_flush(&self, bucket: usize) {
        let (puts, gets) = self.shared.table.collect(bucket, &self.shared.policy);
        self.run_flush(puts, gets);
    }

    /// Executes collected operations: one map snapshot per flush,
    /// operations regrouped by their *live* register under that
    /// snapshot, every bundle stamped with that one epoch — a bundle can
    /// never straddle epochs.
    fn run_flush(&self, puts: Vec<QueuedPut>, gets: Vec<QueuedGet>) {
        let map = self.shared.kv.shard_map();
        // Gets first: they observe the pre-batch cell, the batch's writes
        // land after — any order is legal (everything in one flush is
        // concurrent), this one keeps reads one round behind writes at
        // most.
        let keys: Vec<&str> = gets.iter().map(|get| get.key.as_str()).collect();
        for (get, reply) in gets.iter().zip(self.read_keys(&keys, &map)) {
            let _ = get.done.send(reply);
        }
        let puts = puts.into_iter().map(|p| (p.key, p.value, Some(p.done)));
        // Every queued put hears its own outcome through its waiter.
        let _ = self.write_puts(puts.collect(), &map);
    }

    // -- One-shot batches: multi-key operations --------------------------

    /// Writes many entries, **one quorum round per shard chunk**: the
    /// entries landing on one shard coalesce (last write per key wins,
    /// in input order) into composite payloads, chunked by the policy's
    /// `max_batch` and the transport frame budget; every chunk is one op
    /// of the client's engine, all of them in flight at once, as in
    /// [`KvClient::multi_put`].
    ///
    /// # Errors
    ///
    /// Returns the first failing chunk's [`KvError`]; other chunks still
    /// ran to completion.
    pub fn multi_put<K: AsRef<str> + Sync>(&self, entries: &[(K, Bytes)]) -> Result<(), KvError> {
        self.shared.kv.sync_map()?;
        let map = self.shared.kv.shard_map();
        self.roll_epoch(&map);
        let puts = entries
            .iter()
            .map(|(k, v)| (k.as_ref().to_string(), v.clone(), None));
        self.write_puts(puts.collect(), &map)
    }

    /// Reads many keys, **one quorum round per shard**: every key landing
    /// on one shard is served from a single `Read` round's payload; the
    /// rounds run concurrently on the client's engine. Results align
    /// with the input order.
    ///
    /// # Errors
    ///
    /// Returns the first failing key's [`KvError`]; every shard's round
    /// still ran to completion.
    pub fn multi_get<K: AsRef<str> + Sync>(
        &self,
        keys: &[K],
    ) -> Result<Vec<Option<Bytes>>, KvError> {
        self.shared.kv.sync_map()?;
        let map = self.shared.kv.shard_map();
        self.roll_epoch(&map);
        let keys: Vec<&str> = keys.iter().map(AsRef::as_ref).collect();
        self.read_keys(&keys, &map).into_iter().collect()
    }

    // -- Quorum rounds ---------------------------------------------------

    /// Every key's value under `map`: one read round per register, all in
    /// flight at once on the client's engine, every key on the register
    /// served from its payload. Keys behind the migration write barrier
    /// need the old-home-then-new-home fallback, which is per key: they
    /// take the epoch-aware `KvClient` path instead.
    fn read_keys(&self, keys: &[&str], map: &ShardMap) -> Vec<Result<Option<Bytes>, KvError>> {
        let mut answers: Vec<Option<Result<Option<Bytes>, KvError>>> = vec![None; keys.len()];
        let mut per_reg: BTreeMap<RegisterId, Vec<usize>> = BTreeMap::new();
        for (i, key) in keys.iter().enumerate() {
            if self.is_barriered(map, key) {
                self.shared.logical_ops.inc();
                self.shared.register_ops.inc();
                answers[i] = Some(self.shared.kv.get(key));
            } else {
                per_reg.entry(map.register_for(key)).or_default().push(i);
            }
        }
        let reads: Vec<(RegisterId, String)> = per_reg
            .iter()
            .map(|(&reg, served)| {
                self.shared.register_ops.inc();
                self.shared.logical_ops.add(served.len() as u64);
                (reg, format!("shard:{}", reg.0))
            })
            .collect();
        let payloads = self.shared.kv.raw_reads(&reads);
        for (served, payload) in per_reg.into_values().zip(payloads) {
            for i in served {
                answers[i] = Some(payload.clone().and_then(|p| self.serve(&p, keys[i], map)));
            }
        }
        answers
            .into_iter()
            .map(|a| a.expect("every key answered"))
            .collect()
    }

    /// A key's value out of its shard's read payload. Absent under a
    /// foreign stamp, the key may have moved behind a stale map: the
    /// per-key path refreshes and re-routes it (mirroring
    /// `KvClient::get`'s classification).
    fn serve(&self, payload: &Value, key: &str, map: &ShardMap) -> Result<Option<Bytes>, KvError> {
        let value = codec::value_for_key(payload, key);
        if value.is_none()
            && !payload.is_bottom()
            && codec::payload_epoch(payload) != Some(map.stamp())
        {
            return self.shared.kv.get(key);
        }
        Ok(value)
    }

    /// Writes `puts` (key, value, and the reply channel of a table-queued
    /// put) under `map`: coalesced per register (see [`coalesce`]) and
    /// cut into chunks, one write round per chunk — all in flight at once
    /// on the client's engine, one register's chunks landing in order.
    /// Keys behind the migration write barrier take the per-key path
    /// (the barrier is per source shard). Every waiter hears its put's
    /// outcome; returns the first failure.
    fn write_puts(
        &self,
        puts: Vec<(String, Bytes, Option<Waiter>)>,
        map: &ShardMap,
    ) -> Result<(), KvError> {
        let mut outcomes = Vec::new();
        let mut per_reg: BTreeMap<RegisterId, Vec<(String, Bytes, Option<Waiter>)>> =
            BTreeMap::new();
        for (key, value, waiter) in puts {
            if self.is_barriered(map, &key) {
                self.shared.logical_ops.inc();
                self.shared.register_ops.inc();
                let reply = self.shared.kv.put(&key, value);
                if let Some(done) = waiter {
                    let _ = done.send(reply.clone());
                }
                outcomes.push(reply);
            } else {
                let reg = map.register_for(&key);
                per_reg.entry(reg).or_default().push((key, value, waiter));
            }
        }
        let lists: Vec<(RegisterId, Vec<CoalescedPut>)> = per_reg
            .into_iter()
            .map(|(reg, puts)| (reg, coalesce(puts)))
            .collect();
        let rounds: Vec<(RegisterId, &[CoalescedPut])> = (lists.iter())
            .flat_map(|(reg, list)| self.chunks(list).map(move |chunk| (*reg, chunk)))
            .collect();
        for ((_, chunk), outcome) in rounds.iter().zip(self.write_rounds(&rounds, map)) {
            for done in chunk.iter().flat_map(|entry| &entry.waiters) {
                let _ = done.send(outcome.clone());
            }
            outcomes.push(outcome);
        }
        outcomes.into_iter().collect()
    }

    /// One write round per chunk, all in flight at once on the client's
    /// engine, each stamped with and guarded by the flush's epoch
    /// (mirroring `KvClient::put`): if a split publishes meanwhile, a
    /// round aborts un-issued rather than landing behind a migration
    /// seal, and its entries re-route through the epoch-aware per-key
    /// path.
    fn write_rounds(
        &self,
        rounds: &[(RegisterId, &[CoalescedPut])],
        map: &ShardMap,
    ) -> Vec<Result<(), KvError>> {
        let writes: Vec<(RegisterId, Value, String)> = rounds
            .iter()
            .map(|&(reg, chunk)| {
                self.shared.register_ops.inc();
                self.shared.bundle_size.record(chunk.len() as u64);
                let logical: u64 = chunk.iter().map(|e| u64::from(e.covered)).sum();
                self.shared.logical_ops.add(logical);
                let label = if chunk.len() == 1 {
                    chunk[0].key.clone()
                } else {
                    format!("shard:{}×{}", reg.0, chunk.len())
                };
                (
                    reg,
                    codec::encode_entries(&entries_of(chunk), map.stamp()),
                    label,
                )
            })
            .collect();
        let landed = self.shared.kv.raw_writes(&writes, Some(map.epoch));
        (rounds.iter().zip(landed))
            .map(|(&(_, chunk), landed)| match landed? {
                true => Ok(()),
                false => self.shared.kv.multi_put(&entries_of(chunk)),
            })
            .collect()
    }

    /// Splits coalesced entries into chunks, each fitting `max_batch` and
    /// the transport frame budget. An entry that alone exceeds the budget
    /// ships alone — the client then refuses it fast with the exact
    /// numbers, and only its own waiters see the error.
    fn chunks<'a>(&self, entries: &'a [CoalescedPut]) -> impl Iterator<Item = &'a [CoalescedPut]> {
        let budget = self.shared.kv.max_value_len();
        // The chunk size may never exceed what one bundle can count, on
        // top of the caller's policy.
        let max_batch = self.shared.policy.max_batch.min(codec::MAX_BUNDLE_ENTRIES);
        let mut cuts = vec![0usize];
        let mut size = codec::BUNDLE_OVERHEAD;
        let mut count = 0usize;
        for (i, e) in entries.iter().enumerate() {
            // Sized as a bundle entry: an upper bound for every chunk
            // (a lone entry encodes as the smaller plain form).
            let cost = codec::BUNDLE_ENTRY_OVERHEAD + e.key.len() + e.value.len();
            let over_budget = budget.is_some_and(|b| size + cost > b);
            if count > 0 && (count >= max_batch || over_budget) {
                cuts.push(i);
                size = codec::BUNDLE_OVERHEAD;
                count = 0;
            }
            size += cost;
            count += 1;
        }
        cuts.push(entries.len());
        cuts.windows(2)
            .map(|w| &entries[w[0]..w[1]])
            .filter(|c| !c.is_empty())
            .collect::<Vec<_>>()
            .into_iter()
    }
}

/// A chunk's entries as the codec and `KvClient` take them.
fn entries_of(chunk: &[CoalescedPut]) -> Vec<(&str, Bytes)> {
    chunk
        .iter()
        .map(|e| (e.key.as_str(), e.value.clone()))
        .collect()
}

/// The reply channel of a table-queued put.
type Waiter = Sender<Result<(), KvError>>;

/// One distinct key of a forming write round.
struct CoalescedPut {
    key: String,
    value: Bytes,
    /// How many store-level puts this entry covers (same-key coalescing).
    covered: u32,
    /// Reply channels of the covered table-queued puts (empty for
    /// one-shot batches, which report through the call's return value).
    waiters: Vec<Waiter>,
}

/// Last-write-wins coalescing of one register's puts (key, value, and
/// the reply channel of a table-queued put), preserving first arrival
/// order per key (indexed, so hot-key floods coalesce in linear time).
fn coalesce(puts: impl IntoIterator<Item = (String, Bytes, Option<Waiter>)>) -> Vec<CoalescedPut> {
    let mut out: Vec<CoalescedPut> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for (key, value, waiter) in puts {
        match index.get(key.as_str()) {
            Some(&i) => {
                out[i].value = value;
                out[i].covered += 1;
                out[i].waiters.extend(waiter);
            }
            None => {
                index.insert(key.clone(), out.len());
                out.push(CoalescedPut {
                    key,
                    value,
                    covered: 1,
                    waiters: waiter.into_iter().collect(),
                });
            }
        }
    }
    out
}
