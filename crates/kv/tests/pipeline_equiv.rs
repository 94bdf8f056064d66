//! Depth-1 equivalence: the multi-key API, run one op at a time, is
//! observationally the single-key API.
//!
//! `multi_get`/`multi_put` and `get`/`put` run on the same op engine —
//! a blocking call is the engine driving one op — but reach it through
//! different entry points (per-register queues, batch result assembly).
//! This sweep pins the equivalence at depth 1, where the two APIs must
//! be indistinguishable:
//!
//! * 12 seeds of mixed reader/writer threads, each seed run twice — once
//!   through depth-1 pipelined batches, once through the blocking calls —
//!   and **both** recorded histories must certify per key;
//! * a quiescent twin (single thread, settled ops) must produce
//!   **identical** `KvOpStats` round counts on both paths — same reads,
//!   same writes, same quorum rounds, same fast-read count;
//! * the fast-read fraction of the concurrent sweep must be preserved
//!   across the two APIs (batching must not perturb the one-round fast
//!   path).

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmem_consistency::Criterion;
use rmem_core::{SharedMemory, Transient};
use rmem_kv::{certify_per_key_epoch_path, KvClient, KvOpStats, OpRecorder, ShardRouter};
use rmem_net::LocalCluster;
use rmem_sim::KeyDistribution;
use rmem_types::ProcessId;

const SHARDS: u16 = 16;
const TRAFFIC_THREADS: u64 = 3;
const OPS_PER_THREAD: usize = 40;

/// Which engine drives the workload's ops.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Drive {
    /// `multi_get(&[key])` / `multi_put(&[(key, value)])`: the pipelined
    /// reactor at depth 1.
    PipelinedDepth1,
    /// `get(key)` / `put(key, value)`: the blocking path.
    Blocking,
}

fn cluster_kv(recorder: &OpRecorder) -> (LocalCluster, KvClient) {
    let cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(SHARDS))
        .unwrap()
        .with_recorder(recorder.clone());
    (cluster, kv)
}

/// Polls, bounded by a count, until no protocol message is in flight
/// and no store is pending anywhere: the nodes' summed `runner.msgs_in`
/// equals their summed `runner.msgs_out`, every queued store is durable,
/// and the counters held still across two polls.
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

fn do_put(kv: &KvClient, drive: Drive, key: &str, value: Vec<u8>) {
    match drive {
        Drive::PipelinedDepth1 => kv
            .multi_put(&[(key, bytes::Bytes::from(value))])
            .expect("depth-1 pipelined put must complete"),
        Drive::Blocking => kv.put(key, value).expect("blocking put must complete"),
    }
}

fn do_get(kv: &KvClient, drive: Drive, key: &str) -> Option<bytes::Bytes> {
    match drive {
        Drive::PipelinedDepth1 => kv
            .multi_get(&[key])
            .expect("depth-1 pipelined get must complete")
            .pop()
            .expect("one key in, one slot out"),
        Drive::Blocking => kv.get(key).expect("blocking get must complete"),
    }
}

/// One seeded concurrent run under `drive`: preload, mixed Zipf traffic
/// from several threads, then per-key certification of the recorded
/// history. Returns the run's op stats.
fn run_concurrent_seed(seed: u64, drive: Drive) -> KvOpStats {
    let recorder = OpRecorder::new();
    let (mut cluster, kv) = cluster_kv(&recorder);
    let keys = kv.router().covering_keys("eq-");
    for (i, key) in keys.iter().enumerate() {
        do_put(&kv, drive, key, vec![0, i as u8]);
    }

    std::thread::scope(|scope| {
        for t in 0..TRAFFIC_THREADS {
            let client = kv.recorded_clone();
            let keys = &keys;
            let mut rng = StdRng::seed_from_u64(seed * 131 + t);
            scope.spawn(move || {
                let dist = KeyDistribution::zipf(keys.len(), 0.99);
                let mut counter = 0u64;
                for _ in 0..OPS_PER_THREAD {
                    let key = &keys[dist.sample(&mut rng)];
                    if rng.gen_bool(0.5) {
                        counter += 1;
                        // Unique (thread, counter) values give the
                        // certifier discriminating power.
                        let value = ((t + 1) << 32 | counter).to_be_bytes().to_vec();
                        do_put(&client, drive, key, value);
                    } else {
                        do_get(&client, drive, key);
                    }
                    std::thread::sleep(Duration::from_micros(rng.gen_range(0..300)));
                }
            });
        }
    });

    let history = recorder.history();
    certify_per_key_epoch_path(
        &history,
        keys.iter().map(String::as_str),
        &[SHARDS],
        Criterion::Transient,
    )
    .unwrap_or_else(|e| {
        eprintln!("{}", cluster.dump_flight_recorders(120));
        panic!("seed {seed} ({drive:?}): certification failed: {e}")
    });
    let stats = kv.stats();
    cluster.shutdown();
    stats
}

/// The 12-seed sweep: every seed certifies under both engines, and the
/// aggregate fast-read fraction is preserved across them.
#[test]
fn sweep_depth1_matches_blocking_and_certifies() {
    let mut agg = [KvOpStats::default(), KvOpStats::default()];
    for seed in 0..12u64 {
        for (slot, drive) in [Drive::PipelinedDepth1, Drive::Blocking]
            .into_iter()
            .enumerate()
        {
            let stats = run_concurrent_seed(seed, drive);
            assert!(
                stats.reads > 0 && stats.writes > 0,
                "seed {seed} ({drive:?}): traffic must have flowed"
            );
            agg[slot].reads += stats.reads;
            agg[slot].read_rounds += stats.read_rounds;
            agg[slot].fast_reads += stats.fast_reads;
            agg[slot].writes += stats.writes;
            agg[slot].write_rounds += stats.write_rounds;
        }
    }
    let [pipelined, blocking] = agg;
    assert!(
        pipelined.fast_reads > 0 && blocking.fast_reads > 0,
        "both engines must exercise the fast path"
    );
    let drift = (pipelined.fast_read_fraction() - blocking.fast_read_fraction()).abs();
    assert!(
        drift < 0.2,
        "depth-1 pipelining must preserve the fast-read fraction: \
         pipelined {:.3} vs blocking {:.3}",
        pipelined.fast_read_fraction(),
        blocking.fast_read_fraction()
    );
}

/// The quiescent twin: a single-threaded, settled op sequence must yield
/// **identical** round counts through both engines — same number of
/// recorded reads/writes, same quorum rounds, and every read on the
/// fast path.
#[test]
fn quiescent_twin_has_identical_round_counts() {
    let mut outcomes = Vec::new();
    for drive in [Drive::PipelinedDepth1, Drive::Blocking] {
        let recorder = OpRecorder::new();
        let (mut cluster, kv) = cluster_kv(&recorder);
        let keys = kv.router().covering_keys("tw-");
        for (i, key) in keys.iter().enumerate() {
            do_put(&kv, drive, key, vec![i as u8; 8]);
            // Settle: the propagate round finishes everywhere, so the
            // following reads deterministically fast-path.
            settle(&cluster);
            assert_eq!(
                do_get(&kv, drive, key).as_deref(),
                Some(vec![i as u8; 8].as_slice()),
                "{drive:?}: the settled read must observe the write"
            );
            assert!(do_get(&kv, drive, key).is_some());
        }
        certify_per_key_epoch_path(
            &recorder.history(),
            keys.iter().map(String::as_str),
            &[SHARDS],
            Criterion::Transient,
        )
        .unwrap_or_else(|e| panic!("{drive:?}: quiescent twin failed certification: {e}"));
        let stats = kv.stats();
        assert_eq!(
            stats.fast_reads, stats.reads,
            "{drive:?}: every quiescent read must take the fast path"
        );
        outcomes.push(stats);
        cluster.shutdown();
    }
    assert_eq!(
        outcomes[0], outcomes[1],
        "the quiescent twin must produce identical op stats through the \
         pipelined and blocking engines"
    );
}
