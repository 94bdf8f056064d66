//! End-to-end tests of the batching engine over a real-threaded cluster.

use bytes::Bytes;
use rmem_batch::BatchedKv;
use rmem_consistency::Criterion;
use rmem_core::{SharedMemory, Transient};
use rmem_kv::{certify_per_key_epoch_path, KvClient, OpRecorder, ShardRouter, CONFIG_REGISTER};
use rmem_net::LocalCluster;

fn batched(shards: u16) -> (LocalCluster, BatchedKv) {
    let cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(shards)).unwrap();
    (cluster, BatchedKv::new(kv))
}

#[test]
fn multi_ops_roundtrip_and_amortize() {
    let (mut cluster, store) = batched(4);
    // 64 keys over 4 shards: heavy coalescing is guaranteed.
    let entries: Vec<(String, Bytes)> = (0..64)
        .map(|i| (format!("k{i}"), Bytes::from(vec![i as u8])))
        .collect();
    store.multi_put(&entries).unwrap();
    let keys: Vec<String> = entries.iter().map(|(k, _)| k.clone()).collect();
    let got = store.multi_get(&keys).unwrap();
    for (i, value) in got.iter().enumerate() {
        assert_eq!(value.as_deref(), Some([i as u8].as_ref()), "key k{i}");
    }
    let stats = store.stats();
    assert_eq!(stats.logical_ops, 128, "64 puts + 64 gets");
    // 4 shards × (≤ ceil(16/16)+… write chunks + 1 read round) — the exact
    // chunk count depends on key placement, but 128 logical ops must cost
    // far fewer register ops than 128.
    assert!(
        stats.register_ops <= 16,
        "expected ≤ 2 rounds per shard-ish, got {}",
        stats.register_ops
    );
    assert!(stats.amortization() > 4.0);
    cluster.shutdown();
}

#[test]
fn same_key_puts_coalesce_to_the_last_value() {
    let (mut cluster, store) = batched(2);
    let entries: Vec<(String, Bytes)> = (0..10)
        .map(|i| ("hot".to_string(), Bytes::from(vec![i as u8])))
        .collect();
    store.multi_put(&entries).unwrap();
    assert_eq!(
        store.get("hot").unwrap().as_deref(),
        Some([9u8].as_ref()),
        "last write of the batch wins"
    );
    cluster.shutdown();
}

#[test]
fn colliding_keys_share_a_bundle_and_both_resolve() {
    // One shard: every key collides. A multi_put of distinct keys must
    // store a bundle that serves *both* keys — unlike unbatched puts,
    // where the second displaces the first.
    let (mut cluster, store) = batched(1);
    store
        .multi_put(&[
            ("a".to_string(), Bytes::from(b"1".to_vec())),
            ("b".to_string(), Bytes::from(b"2".to_vec())),
        ])
        .unwrap();
    assert_eq!(store.get("a").unwrap().as_deref(), Some(b"1".as_ref()));
    assert_eq!(store.get("b").unwrap().as_deref(), Some(b"2".as_ref()));
    // A later single put replaces the whole cell (displacement semantics).
    store.put("c", b"3".to_vec()).unwrap();
    assert_eq!(store.get("a").unwrap(), None);
    assert_eq!(store.get("c").unwrap().as_deref(), Some(b"3".as_ref()));
    cluster.shutdown();
}

#[test]
fn concurrent_singles_each_run_their_own_round() {
    // 16 threads put 16 keys at once, one key per shard: every single is
    // its own client operation, so nothing amortizes.
    let (mut cluster, store) = batched(16);
    let keys = ShardRouter::new(16).covering_keys("t-");
    std::thread::scope(|scope| {
        for (i, key) in keys.iter().enumerate() {
            let store = store.clone();
            scope.spawn(move || {
                store.put(key, Bytes::from(vec![i as u8])).unwrap();
            });
        }
    });
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(
            store.get(key).unwrap().as_deref(),
            Some([i as u8].as_ref()),
            "{key}"
        );
    }
    let stats = store.stats();
    assert_eq!(
        stats.amortization(),
        1.0,
        "singles must not share rounds: {stats:?}"
    );
    cluster.shutdown();
}

#[test]
fn eager_policy_serves_singles_alone() {
    let (mut cluster, store) = batched(4);
    store.put("x", b"1".to_vec()).unwrap();
    assert_eq!(store.get("x").unwrap().as_deref(), Some(b"1".as_ref()));
    assert_eq!(store.get("never").unwrap(), None);
    let stats = store.stats();
    assert_eq!(stats.logical_ops, 3);
    assert_eq!(stats.register_ops, 3, "eager singles flush alone");
    cluster.shutdown();
}

#[test]
fn batches_survive_a_node_death() {
    let (mut cluster, store) = batched(8);
    let entries: Vec<(String, Bytes)> = (0..24)
        .map(|i| (format!("d{i}"), Bytes::from(vec![i as u8])))
        .collect();
    store.multi_put(&entries).unwrap();
    cluster.kill(rmem_types::ProcessId(1));
    let keys: Vec<String> = entries.iter().map(|(k, _)| k.clone()).collect();
    let got = store.multi_get(&keys).unwrap();
    for (i, value) in got.iter().enumerate() {
        assert_eq!(
            value.as_deref(),
            Some([i as u8].as_ref()),
            "key d{i} must survive the node death"
        );
    }
    store.multi_put(&entries).unwrap();
    cluster.shutdown();
}

#[test]
fn oversized_entries_split_across_write_rounds() {
    // Frame-budget chunking: entries that cannot share one UDP-sized
    // payload must land in separate rounds, all still readable.
    let dir = std::env::temp_dir().join(format!("rmem-batch-split-{}", std::process::id()));
    let cluster = LocalCluster::udp(3, SharedMemory::factory(Transient::flavor()), &dir).unwrap();
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(1)).unwrap();
    let store = BatchedKv::new(kv);
    // Three 30 KB values: any two fit a 64 KB frame, three do not.
    let entries: Vec<(String, Bytes)> = (0..3)
        .map(|i| (format!("big{i}"), Bytes::from(vec![i as u8; 30_000])))
        .collect();
    store.multi_put(&entries).unwrap();
    assert!(
        store.stats().register_ops >= 2,
        "three 30KB entries cannot share one UDP frame"
    );
    // The last chunk owns the cell; its keys resolve, the earlier chunk's
    // were displaced (the store's usual collision semantics).
    let keys: Vec<String> = entries.iter().map(|(k, _)| k.clone()).collect();
    let got = store.multi_get(&keys).unwrap();
    assert!(
        got.iter().any(Option::is_some),
        "the final chunk's keys must resolve"
    );
    let mut cluster = cluster;
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_entry_over_any_frame_fails_with_too_large() {
    let dir = std::env::temp_dir().join(format!("rmem-batch-toolarge-{}", std::process::id()));
    let mut cluster =
        LocalCluster::udp(3, SharedMemory::factory(Transient::flavor()), &dir).unwrap();
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(2)).unwrap();
    let store = BatchedKv::new(kv);
    let err = store
        .multi_put(&[("huge".to_string(), Bytes::from(vec![0u8; 80_000]))])
        .unwrap_err();
    assert!(
        matches!(err, rmem_kv::KvError::TooLarge { .. }),
        "expected TooLarge, got {err}"
    );
    // A single put is refused the same way, by the client, before
    // anything is sent.
    let err = store.put("huge", vec![0u8; 80_000]).unwrap_err();
    assert!(
        matches!(err, rmem_kv::KvError::TooLarge { .. }),
        "expected TooLarge from the single-put path, got {err}"
    );
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batched_store_survives_a_live_split() {
    // A 4 → 8 live split under a BatchedKv: every call re-derives
    // registers from the fresh map, and post-split bundles carry the new
    // stamp.
    let (mut cluster, store) = batched(4);
    let entries: Vec<(String, Bytes)> = (0..32)
        .map(|i| (format!("e{i}"), Bytes::from(vec![i as u8])))
        .collect();
    store.multi_put(&entries).unwrap();
    let report = store.kv().grow(8).unwrap();
    assert_eq!(report.epoch, 1);
    assert_eq!(store.kv().shard_map().shards, 8);
    // Every key still serves through the batched read path.
    let keys: Vec<String> = entries.iter().map(|(k, _)| k.clone()).collect();
    let got = store.multi_get(&keys).unwrap();
    for (i, value) in got.iter().enumerate() {
        assert_eq!(
            value.as_deref(),
            Some([i as u8].as_ref()),
            "key e{i} must survive the split under batching"
        );
    }
    // New writes land under the new epoch and read back, batched.
    let fresh: Vec<(String, Bytes)> = (0..32)
        .map(|i| (format!("e{i}"), Bytes::from(vec![i as u8 + 100])))
        .collect();
    store.multi_put(&fresh).unwrap();
    let got = store.multi_get(&keys).unwrap();
    for (i, value) in got.iter().enumerate() {
        assert_eq!(value.as_deref(), Some([i as u8 + 100].as_ref()));
    }
    cluster.shutdown();
}

#[test]
fn singles_coalesce_across_epochs_without_stale_buckets() {
    // Singles before and after a split must all complete and agree with
    // the unbatched view. One key per pre-split shard (singles displace
    // colliding tenants, so the universe must be injective).
    let (mut cluster, store) = batched(2);
    let keys = ShardRouter::new(2).covering_keys("s-");
    for (i, key) in keys.iter().enumerate() {
        store.put(key, vec![i as u8]).unwrap();
    }
    store.kv().grow(5).unwrap();
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(
            store.get(key).unwrap().as_deref(),
            Some([i as u8].as_ref()),
            "{key} after 2→5 split"
        );
        store.put(key, vec![i as u8 + 50]).unwrap();
    }
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(
            store.get(key).unwrap().as_deref(),
            Some([i as u8 + 50].as_ref())
        );
    }
    cluster.shutdown();
}

#[test]
fn multi_ops_mid_split_read_old_homes_and_clear_the_barrier() {
    // A published-but-unfinished 4 → 8 split puts every key behind the
    // write barrier, so the bundles step aside for the per-key fallback.
    // `multi_get` must answer every key from its (unsealed, therefore
    // authoritative) old home, and `multi_put` must wait on the barrier
    // until a second client finishes the split, then land. The history
    // certifies across both epochs.
    const OLD_SHARDS: u16 = 4;
    const NEW_SHARDS: u16 = 8;
    let mut cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
    let recorder = OpRecorder::new();
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(OLD_SHARDS))
        .unwrap()
        .with_recorder(recorder.clone());
    let store = BatchedKv::new(kv);
    // One key per pre-split shard: injective under both epochs, and every
    // one of them owned by a split source of the 4 → 8 split.
    let keys = ShardRouter::new(OLD_SHARDS).covering_keys("ms-");
    let preload: Vec<(&str, Bytes)> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| (key.as_str(), Bytes::from(vec![1, i as u8])))
        .collect();
    store.multi_put(&preload).unwrap();

    // A driver publishes the split and dies before migrating anything
    // (an unrecorded client: the map publish is not a store operation).
    let driver = KvClient::new(cluster.clients(), ShardRouter::new(OLD_SHARDS)).unwrap();
    let migrating = driver.shard_map().split_to(NEW_SHARDS);
    driver
        .raw_write(CONFIG_REGISTER, migrating.encode(), "shard-map")
        .unwrap();
    assert!(store.kv().refresh_map().unwrap());
    assert!(store.kv().shard_map().is_migrating());

    // Nothing is sealed yet: every key answers from its old home (its
    // new home, where one differs, is still ⊥), one per-key read each.
    let before = store.stats().register_ops;
    let got = store.multi_get(&keys).unwrap();
    assert_eq!(store.stats().register_ops - before, keys.len() as u64);
    for ((key, value), (_, expected)) in keys.iter().zip(&got).zip(&preload) {
        assert_eq!(
            value.as_ref(),
            Some(expected),
            "{key} must read its old home"
        );
    }

    // The writes wait on the barrier until a second client family
    // finishes the stranded split, which it starts only once they do.
    let rewrite: Vec<(&str, Bytes)> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| (key.as_str(), Bytes::from(vec![2, i as u8])))
        .collect();
    let (clients, rescuer_recorder) = (cluster.clients(), recorder.clone());
    let watched = store.kv();
    std::thread::scope(|scope| {
        let rescuer = scope.spawn(move || {
            for _ in 0..1_000_000 {
                if watched.stats().barrier_waits > 0 {
                    break;
                }
                std::thread::yield_now();
            }
            let rescuer = KvClient::new(clients, ShardRouter::new(OLD_SHARDS))
                .unwrap()
                .with_recorder(rescuer_recorder);
            assert!(rescuer.finish_split().unwrap(), "the split was stranded");
        });
        store
            .multi_put(&rewrite)
            .expect("the barrier must clear once the split finishes");
        rescuer.join().unwrap();
    });
    assert!(
        store.kv().stats().barrier_waits > 0,
        "the writers must have waited on the barrier: {:?}",
        store.kv().stats()
    );

    let got = store.multi_get(&keys).unwrap();
    for ((key, value), (_, expected)) in keys.iter().zip(&got).zip(&rewrite) {
        assert_eq!(value.as_ref(), Some(expected), "{key} lost its write");
    }
    certify_per_key_epoch_path(
        &recorder.history(),
        keys.iter().map(String::as_str),
        &[OLD_SHARDS, NEW_SHARDS],
        Criterion::Transient,
    )
    .unwrap_or_else(|e| panic!("mid-split batched multi-ops failed certification: {e}"));
    cluster.shutdown();
}
