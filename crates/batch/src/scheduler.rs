//! The per-shard quorum batching engine: [`BatchedKv`].
//!
//! # What gets amortized
//!
//! Every register operation costs two quorum round-trips (SnReq/SnAck,
//! then Write/WriteAck or Read/ReadAck) regardless of how much it carries.
//! The engine therefore coalesces the keys of a `multi_put`/`multi_get`
//! that land on one shard into a *single* register operation:
//!
//! * **puts** — one `SnReq` round amortized over the batch: the coalesced
//!   entries (last write wins per key, batch order) become one composite
//!   entry-map payload ([`rmem_kv::codec::encode_entries`]) written in one
//!   quorum round, chunked by 16 keys and the transport frame budget;
//! * **gets** — one `Read` round whose payload serves every key of the
//!   batch on the shard ([`rmem_kv::codec::value_for_key`]).
//!
//! There is one batching path: a call's rounds run as one batch of raw
//! register ops on the wrapped client's op engine
//! ([`KvClient::raw_reads`], [`KvClient::raw_writes`]), all in flight at
//! once from the calling thread. The keys a bundle cannot serve — those
//! behind a split's write barrier, a read miss under a foreign epoch
//! stamp, the entries of a write round the epoch guard aborted — take
//! one per-key `KvClient::multi_get`/`multi_put` per call. Singles
//! (`put`/`get`) are plain [`KvClient`] operations.
//!
//! # Why per-key certification still holds
//!
//! `rmem_kv::certify_per_key` stays the correctness oracle for batched
//! runs, with no weakening, because batching never changes *what a
//! register operation is* — only how many store-level operations one
//! register operation carries:
//!
//! * A bundle round is still one ordinary register write (or read) of the
//!   emulation, so the per-register history is exactly as atomic as the
//!   underlying flavor guarantees; nothing new to prove at that level.
//! * Coalescing k same-key puts into one write of the *last* value is a
//!   legal linearization of those k puts: they were concurrent (all
//!   in-flight in one batch), so some order was always permissible, and
//!   the batch serves them in input order with the last one visible —
//!   each earlier put's success truthfully means "my write was applied
//!   and then superseded within the same atomic step".
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
use std::sync::Arc;

use bytes::Bytes;
use rmem_kv::{codec, KvClient, KvError, ShardMap};
use rmem_obs::{Counter, Histogram};
use rmem_types::RegisterId;

/// Most distinct keys one write round carries.
const MAX_BATCH: usize = 16;

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

/// A batching store client over a [`KvClient`] (see module docs).
///
/// Cheap to clone; clones share the wrapped client's engine, health
/// memory and metrics, and so the stats.
#[derive(Debug, Clone)]
pub struct BatchedKv {
    kv: KvClient,
    /// `batch.*` instruments, registered into the wrapped client's
    /// metrics registry so one snapshot ([`KvClient::metrics`]) covers
    /// the store stack: the amortization counters behind
    /// [`BatchedKv::stats`], plus the distinct-key size of every bundled
    /// write round.
    logical_ops: Arc<Counter>,
    register_ops: Arc<Counter>,
    bundle_size: Arc<Histogram>,
}

impl BatchedKv {
    /// Wraps `kv`.
    pub fn new(kv: KvClient) -> Self {
        let m = kv.metrics_registry().clone();
        BatchedKv {
            logical_ops: m.counter("batch.logical_ops"),
            register_ops: m.counter("batch.register_ops"),
            bundle_size: m.histogram("batch.bundle_size"),
            kv,
        }
    }

    /// The wrapped client.
    pub fn kv(&self) -> &KvClient {
        &self.kv
    }

    /// Amortization counters since construction.
    pub fn stats(&self) -> BatchStats {
        BatchStats {
            logical_ops: self.logical_ops.get(),
            register_ops: self.register_ops.get(),
        }
    }

    fn count(&self, logical: usize, register: usize) {
        self.logical_ops.add(logical as u64);
        self.register_ops.add(register as u64);
    }

    /// Stores `value` under `key`: one [`KvClient::put`], counted as one
    /// logical and one register operation.
    ///
    /// # Errors
    ///
    /// As [`KvClient::put`].
    pub fn put(&self, key: &str, value: impl Into<Bytes>) -> Result<(), KvError> {
        self.count(1, 1);
        self.kv.put(key, value)
    }

    /// Reads `key`: one [`KvClient::get`] (see [`put`](Self::put)).
    ///
    /// # Errors
    ///
    /// As [`KvClient::get`].
    pub fn get(&self, key: &str) -> Result<Option<Bytes>, KvError> {
        self.count(1, 1);
        self.kv.get(key)
    }

    /// Writes many entries, **one quorum round per shard chunk**: the
    /// entries landing on one shard coalesce (last write per key wins,
    /// in input order) into composite payloads, chunked by 16 keys and
    /// the transport frame budget. Every chunk is one op of the
    /// client's engine, all of them in flight at once, each stamped with
    /// and guarded by the call's epoch (mirroring `KvClient::put`): if a
    /// split publishes meanwhile, a round aborts un-issued rather than
    /// landing behind a migration seal. Its entries, and the keys behind
    /// a split's write barrier, then land through one
    /// [`KvClient::multi_put`], which runs the barrier per key.
    ///
    /// # Errors
    ///
    /// Returns the first failing round's [`KvError`], else the per-key
    /// fallback's; every round and the fallback still ran to completion.
    pub fn multi_put<K: AsRef<str> + Sync>(&self, entries: &[(K, Bytes)]) -> Result<(), KvError> {
        self.kv.sync_map()?;
        let map = self.kv.shard_map();
        let mut fallback: Vec<(&str, Bytes)> = Vec::new();
        let mut per_reg: BTreeMap<RegisterId, Vec<(&str, Bytes)>> = BTreeMap::new();
        for (key, value) in entries {
            let entry = (key.as_ref(), value.clone());
            if is_barriered(&map, entry.0) {
                fallback.push(entry);
            } else {
                per_reg
                    .entry(map.register_for(entry.0))
                    .or_default()
                    .push(entry);
            }
        }
        self.count(fallback.len(), fallback.len());
        let lists: Vec<(RegisterId, Vec<Coalesced>)> = per_reg
            .into_iter()
            .map(|(reg, puts)| (reg, coalesce(puts)))
            .collect();
        let rounds: Vec<(RegisterId, &[Coalesced])> = (lists.iter())
            .flat_map(|(reg, list)| self.chunks(list).map(move |chunk| (*reg, chunk)))
            .collect();
        let writes: Vec<_> = rounds
            .iter()
            .map(|&(reg, chunk)| {
                let logical: u32 = chunk.iter().map(|e| e.covered).sum();
                self.count(logical as usize, 1);
                self.bundle_size.record(chunk.len() as u64);
                let label = match chunk {
                    [one] => one.key.to_string(),
                    _ => format!("shard:{}×{}", reg.0, chunk.len()),
                };
                (
                    reg,
                    codec::encode_entries(&entries_of(chunk), map.stamp()),
                    label,
                )
            })
            .collect();
        let mut outcome = Ok(());
        let landed = self.kv.raw_writes(&writes, Some(map.epoch));
        for (&(_, chunk), landed) in rounds.iter().zip(landed) {
            match landed {
                Ok(true) => {}
                // Aborted un-issued by the epoch guard: re-route per key.
                Ok(false) => fallback.extend(entries_of(chunk)),
                Err(e) => outcome = outcome.and(Err(e)),
            }
        }
        if fallback.is_empty() {
            return outcome;
        }
        outcome.and(self.kv.multi_put(&fallback))
    }

    /// Reads many keys, **one quorum round per shard**: every key landing
    /// on one shard is served from a single `Read` round's payload; the
    /// rounds run concurrently on the client's engine. The keys behind a
    /// split's write barrier (old-home-then-new-home reads) and the
    /// misses under a foreign epoch stamp (the key may have moved behind
    /// a stale map) are then read through one [`KvClient::multi_get`],
    /// which refreshes and re-routes per key. Results align with the
    /// input order.
    ///
    /// # Errors
    ///
    /// Returns the first failing round's [`KvError`], else the per-key
    /// fallback's; every round still ran to completion.
    pub fn multi_get<K: AsRef<str> + Sync>(
        &self,
        keys: &[K],
    ) -> Result<Vec<Option<Bytes>>, KvError> {
        self.kv.sync_map()?;
        let map = self.kv.shard_map();
        let mut fallback: Vec<usize> = Vec::new();
        let mut per_reg: BTreeMap<RegisterId, Vec<usize>> = BTreeMap::new();
        for (i, key) in keys.iter().enumerate() {
            if is_barriered(&map, key.as_ref()) {
                fallback.push(i);
            } else {
                per_reg
                    .entry(map.register_for(key.as_ref()))
                    .or_default()
                    .push(i);
            }
        }
        self.count(fallback.len(), fallback.len());
        let reads: Vec<(RegisterId, String)> = per_reg
            .iter()
            .map(|(&reg, served)| {
                self.count(served.len(), 1);
                (reg, format!("shard:{}", reg.0))
            })
            .collect();
        let mut answers: Vec<Option<Bytes>> = vec![None; keys.len()];
        let payloads = self.kv.raw_reads(&reads);
        for (served, payload) in per_reg.into_values().zip(payloads) {
            let payload = payload?;
            for i in served {
                answers[i] = codec::value_for_key(&payload, keys[i].as_ref());
                if answers[i].is_none()
                    && !payload.is_bottom()
                    && codec::payload_epoch(&payload) != Some(map.stamp())
                {
                    fallback.push(i);
                }
            }
        }
        if !fallback.is_empty() {
            let again: Vec<&str> = fallback.iter().map(|&i| keys[i].as_ref()).collect();
            for (i, value) in fallback.into_iter().zip(self.kv.multi_get(&again)?) {
                answers[i] = value;
            }
        }
        Ok(answers)
    }

    /// Splits coalesced entries into chunks, each fitting `MAX_BATCH` and
    /// the transport frame budget. An entry that alone exceeds the
    /// budget ships alone — the client then refuses it fast with the
    /// exact numbers, and only its own round fails.
    fn chunks<'a, 'k>(
        &self,
        entries: &'a [Coalesced<'k>],
    ) -> impl Iterator<Item = &'a [Coalesced<'k>]> {
        let budget = self.kv.max_value_len();
        let mut cuts = vec![0usize];
        let mut size = codec::BUNDLE_OVERHEAD;
        let mut count = 0usize;
        for (i, e) in entries.iter().enumerate() {
            // Sized as a bundle entry: an upper bound for every chunk
            // (a lone entry encodes as the smaller plain form).
            let cost = codec::BUNDLE_ENTRY_OVERHEAD + e.key.len() + e.value.len();
            let over_budget = budget.is_some_and(|b| size + cost > b);
            if count > 0 && (count >= MAX_BATCH || over_budget) {
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

/// Whether `key` currently sits behind the migration write barrier (its
/// source shard is splitting): such keys bypass the bundles and take the
/// epoch-aware per-key `KvClient` paths, which run the barrier /
/// old-home-then-new-home protocol per key.
fn is_barriered(map: &ShardMap, key: &str) -> bool {
    map.is_migrating() && map.is_split_source(map.old_shard_of(key))
}

/// A chunk's entries as the codec and `KvClient` take them.
fn entries_of<'k>(chunk: &[Coalesced<'k>]) -> Vec<(&'k str, Bytes)> {
    chunk.iter().map(|e| (e.key, e.value.clone())).collect()
}

/// One distinct key of a forming write round.
struct Coalesced<'k> {
    key: &'k str,
    value: Bytes,
    /// How many store-level puts this entry covers (same-key coalescing).
    covered: u32,
}

/// Last-write-wins coalescing of one register's puts, preserving first
/// arrival order per key (indexed, so hot-key floods coalesce in linear
/// time).
fn coalesce(puts: Vec<(&str, Bytes)>) -> Vec<Coalesced<'_>> {
    let mut out: Vec<Coalesced> = Vec::new();
    let mut index: HashMap<&str, usize> = HashMap::new();
    for (key, value) in puts {
        match index.get(key) {
            Some(&i) => {
                out[i].value = value;
                out[i].covered += 1;
            }
            None => {
                index.insert(key, out.len());
                out.push(Coalesced {
                    key,
                    value,
                    covered: 1,
                });
            }
        }
    }
    out
}
