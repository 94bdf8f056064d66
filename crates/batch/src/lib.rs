//! `rmem-batch`: per-shard quorum batching for the `rmem` store.
//!
//! The paper's emulations pay **two quorum round-trips per operation**
//! (§IV), whatever the operation's payload carries. [`BatchedKv`]
//! amortizes them: the keys of a `multi_put` / `multi_get` that land on
//! one shard coalesce into a single register operation — one `SnReq`
//! round over k puts of a composite entry-map payload, one `Read` round
//! serving k gets. Every round runs as an op of the wrapped
//! [`rmem_kv::KvClient`]'s engine, and singles are plain client
//! operations.
//!
//! Batched runs remain certifiable by `rmem_kv::certify_per_key` — the
//! per-key atomicity checker is the correctness oracle for the whole
//! subsystem; [`scheduler`] documents why batching is transparent to it.
//!
//! # Example
//!
//! ```no_run
//! use rmem_batch::BatchedKv;
//! use rmem_core::{SharedMemory, Transient};
//! use rmem_kv::{KvClient, ShardRouter};
//! use rmem_net::LocalCluster;
//!
//! let mut cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor()))?;
//! let kv = KvClient::new(cluster.clients(), ShardRouter::new(8))?;
//! let batched = BatchedKv::new(kv);
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

pub mod scheduler;

pub use scheduler::{BatchStats, BatchedKv};
