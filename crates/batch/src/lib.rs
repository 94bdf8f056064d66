//! `rmem-batch`: a concurrent operation table and per-shard quorum
//! batching engine for the `rmem` store.
//!
//! The paper's emulations pay **two quorum round-trips per operation**
//! (§IV), and the port long inherited §III-A's one-operation-per-process
//! restriction verbatim. This crate is the throughput subsystem built on
//! the two layers that lift those limits:
//!
//! 1. **The runner's operation table** (in `rmem-net`, mirrored by the
//!    simulator's engine): the per-process pending slot became a
//!    per-*register* table, so independent shards hosted by one node serve
//!    operations concurrently — a second operation on the *same* register
//!    waits in that register's FIFO until the first completes. That is the
//!    paper's sequentiality applied at the granularity it actually proves
//!    things for: each register is its own emulation.
//! 2. **The batching engine** (this crate): [`BatchedKv`] coalesces the
//!    store operations of a batch that land on one shard into a single
//!    register operation — one `SnReq` round amortized over k puts of a
//!    composite entry-map payload, one `Read` round serving k gets — with
//!    a [`FlushPolicy`] (`max_batch` / `max_linger`) governing when a
//!    forming batch ships. Singles coalesce with concurrent callers
//!    through a per-shard leader/follower operation table; `multi_put` /
//!    `multi_get` flush their fully-formed batches immediately.
//!
//! Batched runs remain certifiable by `rmem_kv::certify_per_key` — the
//! per-key atomicity checker is the correctness oracle for the whole
//! subsystem; [`scheduler`] documents why batching is transparent to it.
//!
//! # Example
//!
//! ```no_run
//! use rmem_batch::{BatchedKv, FlushPolicy};
//! use rmem_core::{SharedMemory, Transient};
//! use rmem_kv::{KvClient, ShardRouter};
//! use rmem_net::LocalCluster;
//!
//! let mut cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor()))?;
//! let kv = KvClient::new(cluster.clients(), ShardRouter::new(8))?;
//! let batched = BatchedKv::new(kv, FlushPolicy::default());
//! let entries: Vec<(String, bytes::Bytes)> = (0..64)
//!     .map(|i| (format!("k{i}"), bytes::Bytes::from(vec![i as u8])))
//!     .collect();
//! batched.multi_put(&entries)?; // ≤ one write round per shard chunk
//! let keys: Vec<String> = entries.iter().map(|(k, _)| k.clone()).collect();
//! let values = batched.multi_get(&keys)?; // one read round per shard
//! assert!(values.iter().all(Option::is_some));
//! assert!(batched.stats().amortization() > 1.0);
//! cluster.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod policy;
pub mod scheduler;
mod table;

pub use policy::FlushPolicy;
pub use scheduler::{BatchStats, BatchedKv};
