//! Booting the measured cluster, driving it from one closed-loop client,
//! and checking what it returns: online against the acknowledged puts,
//! after a total crash with torn log tails, and in a recorded witness run
//! certified per key.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rmem_consistency::Criterion;
use rmem_core::{Persistent, SharedMemory};
use rmem_kv::{
    certify_per_key_epochs, EpochTransition, KvClient, KvError, OpRecorder, ShardRouter,
};
use rmem_net::{DiskMode, LocalCluster};
use rmem_obs::ObsHandle;
use rmem_types::{AutomatonFactory, ProcessId};

use crate::host::{steal_ticks, CpuTimes};
use crate::stats::ratio;
use crate::workload::{batch_keys, value_bytes, Call, OpStream, Spec, Workload, SHARDS};

/// Nodes in the cluster.
pub const NODES: usize = 3;

/// Flight-recorder slots per ring in the traced run (48 bytes each, so
/// 12 MiB per ring). The rings keep the newest events; ops whose early
/// events were overwritten count as incomplete in the stitch.
pub const TRACE_RING: usize = 1 << 18;

/// Prefix of the covering keys.
const KEY_PREFIX: &str = "wb-";

/// The register factory of `spec`: the persistent flavor, `rmem-node`'s
/// default, with a lease horizon when the workload asks for one.
pub fn factory(spec: &Spec) -> Arc<dyn AutomatonFactory> {
    let flavor = Persistent::flavor();
    let flavor = if spec.lease_micros > 0 {
        flavor.with_lease(spec.lease_micros)
    } else {
        flavor
    };
    SharedMemory::factory(flavor)
}

/// The workload's key set: one covering key per shard, in shard order.
pub fn keys() -> Vec<String> {
    ShardRouter::new(SHARDS).covering_keys(KEY_PREFIX)
}

/// A booted, preloaded cluster and the client that drives it.
pub struct Rig {
    /// The three-node UDP cluster with `WalStorage` disks.
    pub cluster: LocalCluster,
    /// The single closed-loop client.
    pub kv: KvClient,
    /// The key set.
    pub keys: Vec<String>,
    /// What the client has been acknowledged.
    pub book: Book,
    dir: PathBuf,
}

impl Rig {
    /// Boots a cluster under `dir` and preloads version 0 of every key.
    /// `traced` turns on observability and tracing on every node and on
    /// the client; `recorder` records every register operation.
    pub fn boot(
        workload: Workload,
        dir: &Path,
        traced: bool,
        recorder: Option<OpRecorder>,
    ) -> Result<Rig, String> {
        let spec = workload.spec();
        let _ = std::fs::remove_dir_all(dir);
        let cluster = if traced {
            LocalCluster::udp_with_disk_obs_sized(
                NODES,
                factory(&spec),
                dir,
                DiskMode::Wal,
                true,
                TRACE_RING,
            )
        } else {
            LocalCluster::udp_with_disk_obs(NODES, factory(&spec), dir, DiskMode::Wal, false)
        }
        .map_err(|e| format!("booting the cluster: {e}"))?;
        let obs = if traced {
            ObsHandle::with_capacity(TRACE_RING)
        } else {
            ObsHandle::disabled()
        };
        let mut kv = KvClient::new(cluster.clients(), ShardRouter::new(SHARDS))
            .map_err(|e| format!("building the client: {e}"))?
            .with_obs(obs);
        if spec.lease_cache > 0 {
            kv = kv.with_lease_cache(spec.lease_cache);
        }
        if let Some(recorder) = recorder {
            kv = kv.with_recorder(recorder);
        }
        let keys = keys();
        let preload: Vec<(&str, Bytes)> = keys
            .iter()
            .map(|k| (k.as_str(), value_bytes(0, spec.value_len)))
            .collect();
        kv.multi_put(&preload)
            .map_err(|e| format!("preloading: {e}"))?;
        let book = Book::new(keys.len(), value_bytes(0, spec.value_len));
        Ok(Rig {
            cluster,
            kv,
            keys,
            book,
            dir: dir.to_path_buf(),
        })
    }

    /// Stops every node and removes the disks.
    pub fn teardown(mut self) {
        self.cluster.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// Runs `call`, checks what it returned against the book and books
    /// what it acknowledged.
    pub fn call(&mut self, call: &Call) -> Result<(), KvError> {
        let Rig { kv, keys, book, .. } = self;
        match call {
            Call::Get(k) => {
                let got = kv.get(&keys[*k])?;
                book.check(&keys[*k], *k, got.as_ref());
            }
            Call::Put(k, v) => match kv.put(&keys[*k], v.clone()) {
                Ok(()) => book.acked(*k, v.clone()),
                Err(e) => {
                    book.uncertain[*k] = true;
                    return Err(e);
                }
            },
            Call::MultiGet(start) => {
                let idx: Vec<usize> = batch_keys(*start).collect();
                let names: Vec<&str> = idx.iter().map(|&k| keys[k].as_str()).collect();
                let got = kv.multi_get(&names)?;
                for (&k, v) in idx.iter().zip(got.iter()) {
                    book.check(&keys[k], k, v.as_ref());
                }
            }
            Call::MultiPut(start, values) => {
                let idx: Vec<usize> = batch_keys(*start).collect();
                let entries: Vec<(&str, Bytes)> = idx
                    .iter()
                    .zip(values)
                    .map(|(&k, v)| (keys[k].as_str(), v.clone()))
                    .collect();
                match kv.multi_put(&entries) {
                    Ok(()) => {
                        for (&k, v) in idx.iter().zip(values) {
                            book.acked(k, v.clone());
                        }
                    }
                    Err(e) => {
                        for &k in &idx {
                            book.uncertain[k] = true;
                        }
                        return Err(e);
                    }
                }
            }
        }
        Ok(())
    }
}

/// The lone client's view of the store: the last acknowledged value of
/// every key. With one client and no failed puts this is exactly what
/// every get and every recovery must return. A key whose put failed may
/// hold either value from then on, so it is no longer checked.
pub struct Book {
    expected: Vec<Bytes>,
    uncertain: Vec<bool>,
    /// Every mismatch found so far.
    pub violations: Vec<String>,
}

impl Book {
    fn new(keys: usize, preload: Bytes) -> Book {
        Book {
            expected: vec![preload; keys],
            uncertain: vec![false; keys],
            violations: Vec::new(),
        }
    }

    fn acked(&mut self, k: usize, v: Bytes) {
        self.expected[k] = v;
    }

    fn check(&mut self, key: &str, k: usize, got: Option<&Bytes>) {
        if self.uncertain[k] || got == Some(&self.expected[k]) {
            return;
        }
        self.violations.push(format!(
            "key {key:?}: read {}, last acknowledged put was version {}",
            got.map_or("nothing".to_string(), |v| format!(
                "version {}",
                version_of(v)
            )),
            version_of(&self.expected[k]),
        ));
    }
}

fn version_of(v: &Bytes) -> u64 {
    v.get(..8)
        .and_then(|b| b.try_into().ok())
        .map_or(u64::MAX, u64::from_be_bytes)
}

/// Shortest slice of a measured window. Slices are short enough that
/// most of them pass with no hypervisor steal on a host that is only
/// sometimes contended, and long enough to hold many calls.
pub const SLICE: Duration = Duration::from_millis(50);

/// The calls that completed in one slice of the measured window, and
/// what the process and the host did meanwhile.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Wall-clock seconds the slice lasted.
    pub secs: f64,
    /// Latency of every get call, nanoseconds (a call is one batch on the
    /// batched workload).
    pub get_ns: Vec<u64>,
    /// Latency of every put call, nanoseconds.
    pub put_ns: Vec<u64>,
    /// Logical ops (keys) of the calls that succeeded.
    pub ops: u64,
    /// Process CPU spent over the slice.
    pub cpu: CpuTimes,
    /// CPU time the hypervisor gave to other guests over the slice, in
    /// clock ticks summed over the host's processors.
    pub steal_ticks: u64,
}

/// What one measured window did.
#[derive(Debug, Default)]
pub struct Tally {
    /// The window's slices, in time order.
    pub slices: Vec<Slice>,
    /// Calls attempted.
    pub calls: u64,
    /// Calls that returned a `KvError`.
    pub failed_calls: u64,
    /// Value bytes of the puts that succeeded.
    pub put_bytes: u64,
    /// The first few errors, for the report.
    pub errors: Vec<String>,
}

impl Tally {
    /// The slices in which the hypervisor stole no CPU from this host.
    pub fn steal_free(&self) -> impl Iterator<Item = &Slice> {
        self.slices.iter().filter(|s| s.steal_ticks == 0)
    }
}

/// Calls, latencies, ops and CPU pooled over a set of slices.
#[derive(Debug, Default)]
pub struct Pooled {
    /// Slices pooled.
    pub slices: usize,
    /// Wall-clock seconds they lasted.
    pub secs: f64,
    /// Get latencies, nanoseconds, ascending.
    pub get_ns: Vec<u64>,
    /// Put latencies, nanoseconds, ascending.
    pub put_ns: Vec<u64>,
    /// Logical ops of the calls that succeeded.
    pub ops: u64,
    /// Process CPU.
    pub cpu: CpuTimes,
}

impl Pooled {
    /// Pools `slices`.
    pub fn of<'a>(slices: impl Iterator<Item = &'a Slice>) -> Pooled {
        let mut p = Pooled::default();
        for s in slices {
            p.slices += 1;
            p.secs += s.secs;
            p.get_ns.extend(&s.get_ns);
            p.put_ns.extend(&s.put_ns);
            p.ops += s.ops;
            p.cpu.user_us += s.cpu.user_us;
            p.cpu.sys_us += s.cpu.sys_us;
        }
        p.get_ns.sort_unstable();
        p.put_ns.sort_unstable();
        p
    }

    /// Completed logical ops per wall-clock second.
    pub fn ops_per_s(&self) -> f64 {
        ratio(self.ops as f64, self.secs)
    }
}

/// Runs calls from `stream` until `warmup` has passed, checking but not
/// timing them.
pub fn warm(rig: &mut Rig, stream: &mut OpStream, warmup: Duration) {
    let end = Instant::now() + warmup;
    while Instant::now() < end {
        let _ = rig.call(&stream.next_call());
    }
}

/// Runs calls from `stream`, timing each, until the window holds
/// `window` of steal-free slices or has lasted `limit`. Each call is
/// filed under the slice it completed in; a slice closes with the first
/// call that completes [`SLICE`] or more after it opened.
pub fn measure(rig: &mut Rig, stream: &mut OpStream, window: Duration, limit: Duration) -> Tally {
    let sample = || {
        (
            CpuTimes::now().unwrap_or_default(),
            steal_ticks().unwrap_or_default(),
        )
    };
    let mut t = Tally::default();
    let start = Instant::now();
    let mut open = (start, sample());
    let mut slice = Slice::default();
    let mut steal_free_secs = 0.0;
    loop {
        let call = stream.next_call();
        let t0 = Instant::now();
        let result = rig.call(&call);
        let t1 = Instant::now();
        let ns = t1.duration_since(t0).as_nanos() as u64;
        t.calls += 1;
        if call.is_put() {
            slice.put_ns.push(ns);
        } else {
            slice.get_ns.push(ns);
        }
        match result {
            Ok(()) => {
                slice.ops += call.ops();
                t.put_bytes += match &call {
                    Call::Put(_, v) => v.len() as u64,
                    Call::MultiPut(_, vs) => vs.iter().map(|v| v.len() as u64).sum(),
                    _ => 0,
                };
            }
            Err(e) => {
                t.failed_calls += 1;
                if t.errors.len() < 5 {
                    t.errors.push(e.to_string());
                }
            }
        }
        if t1.duration_since(open.0) >= SLICE {
            let now = sample();
            slice.secs = t1.duration_since(open.0).as_secs_f64();
            slice.cpu = now.0.since(open.1 .0);
            slice.steal_ticks = now.1.saturating_sub(open.1 .1);
            if slice.steal_ticks == 0 {
                steal_free_secs += slice.secs;
            }
            t.slices.push(std::mem::take(&mut slice));
            open = (t1, now);
            if steal_free_secs >= window.as_secs_f64() || t1.duration_since(start) >= limit {
                return t;
            }
        }
    }
}

/// Storage totals summed over the nodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreTotals {
    /// Records stored.
    pub stores: u64,
    /// Record bytes stored.
    pub bytes: u64,
    /// Group commits.
    pub commits: u64,
    /// Physical fsyncs.
    pub fsyncs: u64,
}

impl StoreTotals {
    /// The cluster's totals so far.
    pub fn of(cluster: &LocalCluster) -> StoreTotals {
        ProcessId::all(cluster.len())
            .map(|p| cluster.storage_counters(p))
            .fold(StoreTotals::default(), |t, c| StoreTotals {
                stores: t.stores + c.stores(),
                bytes: t.bytes + c.bytes(),
                commits: t.commits + c.commits(),
                fsyncs: t.fsyncs + c.fsyncs(),
            })
    }

    /// The change since `earlier`.
    pub fn since(self, earlier: StoreTotals) -> StoreTotals {
        StoreTotals {
            stores: self.stores - earlier.stores,
            bytes: self.bytes - earlier.bytes,
            commits: self.commits - earlier.commits,
            fsyncs: self.fsyncs - earlier.fsyncs,
        }
    }
}

/// Kills all three nodes, tears each log's tail, restarts them and reads
/// every certain key back through a fresh client. Returns the keys
/// checked; every mismatch lands in the book's violations.
pub fn crash_and_check(rig: &mut Rig) -> Result<usize, String> {
    let n = rig.cluster.len();
    for p in ProcessId::all(n) {
        rig.cluster.kill(p);
    }
    for p in ProcessId::all(n) {
        rig.cluster
            .tear_wal_tail(p)
            .map_err(|e| format!("tearing the log of {p}: {e}"))?;
    }
    for p in ProcessId::all(n) {
        rig.cluster
            .restart(p)
            .map_err(|e| format!("restarting {p}: {e}"))?;
    }
    let reader = KvClient::new(rig.cluster.clients(), ShardRouter::new(SHARDS))
        .map_err(|e| format!("building the reader: {e}"))?;
    let mut checked = 0;
    for (k, key) in rig.keys.iter().enumerate() {
        if rig.book.uncertain[k] {
            continue;
        }
        let got = reader
            .get(key)
            .map_err(|e| format!("reading back {key:?} after the crash: {e}"))?;
        rig.book.check(key, k, got.as_ref());
        checked += 1;
    }
    Ok(checked)
}

/// Calls in the recorded witness run. The checker bounds one register's
/// history, so the witness is bounded by op count: the hottest point key
/// sees about a fifth of the point calls, and each batched key about a
/// quarter of the batched calls.
fn witness_calls(spec: &Spec) -> usize {
    if spec.batched {
        96
    } else {
        240
    }
}

/// The correctness gate: a bounded, recorded run of the same shape on a
/// fresh cluster, certified per key under persistent atomicity. Returns
/// the calls made and how many of them failed.
pub fn witness(workload: Workload, seed: u64, dir: &Path) -> Result<(usize, usize), String> {
    let recorder = OpRecorder::new();
    let mut rig = Rig::boot(workload, dir, false, Some(recorder.clone()))?;
    let mut stream = OpStream::new(workload, seed);
    let calls = witness_calls(&workload.spec());
    let mut failed = 0;
    for _ in 0..calls {
        if rig.call(&stream.next_call()).is_err() {
            failed += 1;
        }
    }
    let history = recorder.history();
    let transition = EpochTransition {
        old_shards: SHARDS,
        new_shards: SHARDS,
    };
    let verdict = certify_per_key_epochs(
        &history,
        rig.keys.iter().map(String::as_str),
        &transition,
        Criterion::Persistent,
    );
    let violations = std::mem::take(&mut rig.book.violations);
    rig.teardown();
    if let Err(e) = verdict {
        return Err(format!("witness failed certification: {e}"));
    }
    if let Some(v) = violations.first() {
        return Err(format!("witness returned a stale value: {v}"));
    }
    Ok((calls, failed))
}
