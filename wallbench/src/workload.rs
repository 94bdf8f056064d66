//! The three workloads and their op streams.
//!
//! Every workload runs one client thread in a closed loop over a 64-shard
//! key space with one covering key per shard, so key index `i` is the only
//! key of shard `i`. The op stream is a pure function of the seed: the
//! cluster receives nothing but what [`OpStream`] generates (after the
//! preload, which writes version 0 of every key).

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmem_sim::KeyDistribution;

/// Shards of the store, and keys of the workload (one per shard).
pub const SHARDS: u16 = 64;

/// Keys per `multi_get`/`multi_put` call on the batched workload.
pub const BATCH: usize = 16;

/// Zipf exponent of the point workloads' key popularity.
pub const ZIPF_S: f64 = 0.99;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Blocking get/put, Zipf keys, 50% puts, 8-byte values, no leases.
    PointMixed,
    /// As `PointMixed` with 5% puts, a 1 ms lease horizon and a 16-entry
    /// client lease cache.
    ReadLease,
    /// 16-key `multi_put`/`multi_get` over distinct shards, 90% puts,
    /// 512-byte values, no leases.
    BulkWrite,
}

/// The knobs a workload sets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Fraction of calls that write.
    pub put_frac: f64,
    /// Bytes per value.
    pub value_len: usize,
    /// Replica lease horizon in microseconds; 0 leaves leases off.
    pub lease_micros: u64,
    /// Client lease-cache capacity; 0 leaves the cache off.
    pub lease_cache: usize,
    /// Whether each call is a 16-key batch instead of a single key.
    pub batched: bool,
}

impl Workload {
    /// Every workload, in the order they are documented.
    pub const ALL: [Workload; 3] = [
        Workload::PointMixed,
        Workload::ReadLease,
        Workload::BulkWrite,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointMixed => "point_mixed",
            Workload::ReadLease => "read_lease",
            Workload::BulkWrite => "bulk_write",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// This workload's knobs.
    pub fn spec(self) -> Spec {
        match self {
            Workload::PointMixed => Spec {
                put_frac: 0.5,
                value_len: 8,
                lease_micros: 0,
                lease_cache: 0,
                batched: false,
            },
            Workload::ReadLease => Spec {
                put_frac: 0.05,
                value_len: 8,
                lease_micros: 1_000,
                lease_cache: 16,
                batched: false,
            },
            Workload::BulkWrite => Spec {
                put_frac: 0.9,
                value_len: 512,
                lease_micros: 0,
                lease_cache: 0,
                batched: true,
            },
        }
    }
}

/// One client call. Keys are indices into the covering key set; put
/// values carry a version unique within the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call {
    /// `KvClient::get` of one key.
    Get(usize),
    /// `KvClient::put` of one key.
    Put(usize, Bytes),
    /// `KvClient::multi_get` of [`BATCH`] consecutive shards from `start`.
    MultiGet(usize),
    /// `KvClient::multi_put` of [`BATCH`] consecutive shards from `start`,
    /// one value per key in shard order.
    MultiPut(usize, Vec<Bytes>),
}

impl Call {
    /// Logical store operations in this call (keys it touches).
    pub fn ops(&self) -> u64 {
        match self {
            Call::Get(_) | Call::Put(..) => 1,
            Call::MultiGet(_) | Call::MultiPut(..) => BATCH as u64,
        }
    }

    /// Whether the call writes.
    pub fn is_put(&self) -> bool {
        matches!(self, Call::Put(..) | Call::MultiPut(..))
    }
}

/// The key indices a batch starting at `start` touches: consecutive
/// shards, wrapping around the key space.
pub fn batch_keys(start: usize) -> impl Iterator<Item = usize> {
    (0..BATCH).map(move |j| (start + j) % usize::from(SHARDS))
}

/// The value of `version`: its big-endian bytes, then a filler derived
/// from it, `len` bytes in all. Distinct versions give distinct values
/// whenever `len >= 8`.
pub fn value_bytes(version: u64, len: usize) -> Bytes {
    let mut v = version.to_be_bytes().to_vec();
    v.resize(len.max(8), 0);
    for (i, b) in v.iter_mut().enumerate().skip(8) {
        *b = (version as u8).wrapping_add(i as u8);
    }
    v.truncate(len);
    Bytes::from(v)
}

/// The seeded, endless call sequence of one workload.
pub struct OpStream {
    spec: Spec,
    rng: StdRng,
    dist: KeyDistribution,
    next_version: u64,
}

impl OpStream {
    /// The stream of `workload` under `seed`. Versions start at 1; the
    /// preload owns version 0.
    pub fn new(workload: Workload, seed: u64) -> Self {
        OpStream {
            spec: workload.spec(),
            rng: StdRng::seed_from_u64(seed),
            dist: KeyDistribution::zipf(usize::from(SHARDS), ZIPF_S),
            next_version: 1,
        }
    }

    fn value(&mut self) -> Bytes {
        let v = value_bytes(self.next_version, self.spec.value_len);
        self.next_version += 1;
        v
    }

    /// The next call.
    pub fn next_call(&mut self) -> Call {
        let put = self.rng.gen_bool(self.spec.put_frac);
        if self.spec.batched {
            let start = self.rng.gen_range(0..usize::from(SHARDS));
            if put {
                let values = (0..BATCH).map(|_| self.value()).collect();
                Call::MultiPut(start, values)
            } else {
                Call::MultiGet(start)
            }
        } else {
            let key = self.dist.sample(&mut self.rng);
            if put {
                Call::Put(key, self.value())
            } else {
                Call::Get(key)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(workload: Workload, seed: u64, n: usize) -> Vec<Call> {
        let mut s = OpStream::new(workload, seed);
        (0..n).map(|_| s.next_call()).collect()
    }

    #[test]
    fn op_stream_is_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            assert_eq!(first(w, 7, 500), first(w, 7, 500), "{}", w.name());
            assert_ne!(first(w, 7, 500), first(w, 8, 500), "{}", w.name());
        }
    }

    #[test]
    fn op_mix_and_shapes_follow_the_spec() {
        for w in Workload::ALL {
            let spec = w.spec();
            let calls = first(w, 3, 4_000);
            let puts = calls.iter().filter(|c| c.is_put()).count() as f64 / 4_000.0;
            assert!((puts - spec.put_frac).abs() < 0.03, "{}: {puts}", w.name());
            for c in &calls {
                match c {
                    Call::Get(k) => assert!(!spec.batched && *k < usize::from(SHARDS)),
                    Call::Put(k, v) => {
                        assert!(!spec.batched && *k < usize::from(SHARDS));
                        assert_eq!(v.len(), spec.value_len);
                    }
                    Call::MultiGet(s) => assert!(spec.batched && *s < usize::from(SHARDS)),
                    Call::MultiPut(s, vs) => {
                        assert!(spec.batched && *s < usize::from(SHARDS));
                        assert_eq!(vs.len(), BATCH);
                        assert!(vs.iter().all(|v| v.len() == spec.value_len));
                    }
                }
            }
        }
    }

    #[test]
    fn batches_touch_distinct_shards_and_values_are_unique() {
        for start in 0..usize::from(SHARDS) {
            let mut keys: Vec<usize> = batch_keys(start).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), BATCH);
        }
        let mut seen = std::collections::HashSet::new();
        for c in first(Workload::BulkWrite, 1, 300) {
            if let Call::MultiPut(_, vs) = c {
                assert!(vs.into_iter().all(|v| seen.insert(v)));
            }
        }
        assert_eq!(value_bytes(0x0102, 8).as_ref(), &[0, 0, 0, 0, 0, 0, 1, 2]);
        assert_ne!(value_bytes(1, 512), value_bytes(2, 512));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
