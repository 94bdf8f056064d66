//! Multi-key operations on the paths a plain batch never takes: a shard
//! split stuck mid-migration, and an exactly-once client.
//!
//! * **Mid-split** — a published-but-unfinished 4 → 8 split. A recorded
//!   `multi_get` must answer every key from its (unsealed, therefore
//!   authoritative) old home, and a recorded `multi_put` of the split
//!   keys must wait on the write barrier until a second client finishes
//!   the split, then land. The history certifies across both epochs.
//! * **Exactly-once** — a `multi_put` through an intent journal tags
//!   every landed payload with its op id and tombstones every intent;
//!   an oversized entry fails `TooLarge`, its intent is fenced
//!   (`Aborted`), and the batch's other entries still land.

use std::collections::BTreeSet;
use std::time::Duration;

use bytes::Bytes;
use rmem_consistency::Criterion;
use rmem_core::{SharedMemory, Transient};
use rmem_kv::codec::payload_op_tag;
use rmem_kv::{
    certify_per_key_epoch_path, KvClient, KvError, OpRecorder, Resolution, ShardRouter,
    CONFIG_REGISTER,
};
use rmem_net::LocalCluster;
use rmem_storage::{IntentJournal, MemStorage};
use rmem_types::OpTag;

const OLD_SHARDS: u16 = 4;
const NEW_SHARDS: u16 = 8;

#[test]
fn multi_ops_mid_split_read_old_homes_and_clear_the_barrier() {
    let mut cluster = LocalCluster::channel(3, SharedMemory::factory(Transient::flavor())).unwrap();
    let recorder = OpRecorder::new();
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(OLD_SHARDS))
        .unwrap()
        .with_recorder(recorder.clone());
    // One key per pre-split shard: injective under both epochs, and every
    // one of them owned by a split source of the 4 → 8 split.
    let keys = ShardRouter::new(OLD_SHARDS).covering_keys("ms-");
    let preload: Vec<(&str, Bytes)> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| (key.as_str(), Bytes::from(vec![1, i as u8])))
        .collect();
    kv.multi_put(&preload).unwrap();

    // A driver publishes the split and dies before migrating anything
    // (an unrecorded client: the map publish is not a store operation).
    let driver = KvClient::new(cluster.clients(), ShardRouter::new(OLD_SHARDS)).unwrap();
    let migrating = driver.shard_map().split_to(NEW_SHARDS);
    driver
        .raw_write(CONFIG_REGISTER, migrating.encode(), "shard-map")
        .unwrap();
    assert!(kv.refresh_map().unwrap());
    assert!(kv.shard_map().is_migrating());

    // Nothing is sealed yet: every key answers from its old home (its
    // new home, where one differs, is still ⊥).
    let got = kv.multi_get(&keys).unwrap();
    for ((key, value), (_, expected)) in keys.iter().zip(&got).zip(&preload) {
        assert_eq!(
            value.as_ref(),
            Some(expected),
            "{key} must read its old home"
        );
    }

    // The writes wait on the barrier until a second client family
    // finishes the stranded split.
    let rewrite: Vec<(&str, Bytes)> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| (key.as_str(), Bytes::from(vec![2, i as u8])))
        .collect();
    let (clients, rescuer_recorder) = (cluster.clients(), recorder.clone());
    std::thread::scope(|scope| {
        let rescuer = scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            let rescuer = KvClient::new(clients, ShardRouter::new(OLD_SHARDS))
                .unwrap()
                .with_recorder(rescuer_recorder);
            assert!(rescuer.finish_split().unwrap(), "the split was stranded");
        });
        kv.multi_put(&rewrite)
            .expect("the barrier must clear once the split finishes");
        rescuer.join().unwrap();
    });
    assert!(
        kv.stats().barrier_waits > 0,
        "the writers must have waited on the barrier: {:?}",
        kv.stats()
    );

    let got = kv.multi_get(&keys).unwrap();
    for ((key, value), (_, expected)) in keys.iter().zip(&got).zip(&rewrite) {
        assert_eq!(value.as_ref(), Some(expected), "{key} lost its write");
    }
    certify_per_key_epoch_path(
        &recorder.history(),
        keys.iter().map(String::as_str),
        &[OLD_SHARDS, NEW_SHARDS],
        Criterion::Transient,
    )
    .unwrap_or_else(|e| panic!("mid-split multi-ops failed certification: {e}"));
    cluster.shutdown();
}

#[test]
fn exactly_once_multi_put_tags_payloads_and_aborts_the_oversized_entry() {
    const CLIENT: u16 = 11;
    let dir = std::env::temp_dir().join(format!("rmem-kv-eo-multi-{}", std::process::id()));
    // A UDP cluster: its 64 KB datagram ceiling is what makes an entry
    // oversized.
    let mut cluster =
        LocalCluster::udp(3, SharedMemory::factory(Transient::flavor()), &dir).unwrap();
    let journal = IntentJournal::with_storage(Box::new(MemStorage::new())).unwrap();
    let kv = KvClient::new(cluster.clients(), ShardRouter::new(OLD_SHARDS))
        .unwrap()
        .with_exactly_once(CLIENT, journal);
    let keys = kv.router().covering_keys("eo-");
    let entries: Vec<(&str, Bytes)> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| (key.as_str(), Bytes::from(vec![i as u8; 8])))
        .collect();

    kv.multi_put(&entries).unwrap();
    assert!(
        kv.pending_intents().is_empty(),
        "every acknowledged intent is tombstoned"
    );
    let mut tags = BTreeSet::new();
    for (key, value) in &entries {
        let reg = kv.shard_map().register_for(key);
        let payload = kv.raw_read(reg, "inspect").unwrap();
        let tag = payload_op_tag(&payload).expect("a landed payload carries its op tag");
        assert_eq!(tag.client, CLIENT);
        assert!(tags.insert(tag), "{key}: op tags must be distinct");
        assert_eq!(kv.get(key).unwrap().as_ref(), Some(value));
    }

    // One oversized entry among fresh values for the same keys.
    let mut batch: Vec<(&str, Bytes)> = entries
        .iter()
        .map(|(key, value)| (*key, Bytes::from([value.as_ref(), b"-2"].concat())))
        .collect();
    batch.push(("eo-huge", Bytes::from(vec![0u8; 80_000])));
    let err = kv.multi_put(&batch).unwrap_err();
    assert!(
        matches!(err, KvError::TooLarge { ref key, .. } if key == "eo-huge"),
        "expected TooLarge for the oversized entry, got {err}"
    );
    assert!(kv.pending_intents().is_empty(), "no intent is left pending");
    let first = tags.iter().map(|t| t.seq).max().unwrap() + 1;
    for (key, value) in &batch[..entries.len()] {
        assert_eq!(
            kv.get(key).unwrap().as_ref(),
            Some(value),
            "{key}: the batch's other entries must land"
        );
        let reg = kv.shard_map().register_for(key);
        let tag = payload_op_tag(&kv.raw_read(reg, "inspect").unwrap());
        assert!(
            tag.is_some_and(|t| t.client == CLIENT && t.seq >= first),
            "{key}: the landed payload must carry this batch's op tag, got {tag:?}"
        );
    }
    // Of the batch's tags, exactly one survives in the journal — the
    // oversized entry's, fenced: resolve reports it NotLanded. The
    // landed ones were acknowledged and tombstoned.
    let verdicts: Vec<_> = (first..first + batch.len() as u64)
        .map(|seq| kv.resolve(OpTag::new(CLIENT, seq)))
        .collect();
    let fenced = verdicts
        .iter()
        .filter(|v| matches!(v, Ok(Resolution::NotLanded)))
        .count();
    let tombstoned = verdicts
        .iter()
        .filter(|v| matches!(v, Err(KvError::UnknownIntent { .. })))
        .count();
    assert_eq!((fenced, tombstoned), (1, entries.len()), "{verdicts:?}");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
