//! Simulation configuration: cluster size, network model, disk model.

use rmem_types::Micros;

/// Network latency/loss model.
///
/// One-way message delay is `base_delay + U(0, jitter) + len/bandwidth`.
/// The defaults calibrate to the paper's testbed (§I-B, §V): a 100 Mbps
/// LAN with ≈0.1 ms one-way transit. Loss and duplication probabilities
/// model the fair-lossy channel; they must be < 1 for fair-lossiness to
/// hold.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Fixed one-way delay component (paper: ≈100 µs).
    pub base_delay: Micros,
    /// Uniform jitter added on top (0 ⇒ fully deterministic delays).
    pub jitter: Micros,
    /// Nanoseconds per payload byte (100 Mbps ≈ 80 ns/byte).
    pub ns_per_byte: u64,
    /// Probability an individual message is dropped.
    pub drop_prob: f64,
    /// Probability an individual message is delivered twice.
    pub duplicate_prob: f64,
    /// Delay applied to self-addressed messages (loopback; near zero).
    pub self_delay: Micros,
    /// Sender-side serialization cost per message: the k-th message sent
    /// while handling one event departs `k × serialize_per_msg` later
    /// (models the NIC/UDP stack draining a broadcast sequentially — the
    /// reason the paper's write latency grows mildly with the cluster
    /// size in Fig. 6 top).
    pub serialize_per_msg: Micros,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            base_delay: Micros(100),
            jitter: Micros(0),
            ns_per_byte: 80,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            self_delay: Micros(1),
            serialize_per_msg: Micros(5),
        }
    }
}

impl NetConfig {
    /// A lossy variant of the default LAN (for fault-injection tests).
    pub fn lossy(drop_prob: f64, duplicate_prob: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&drop_prob),
            "drop_prob must be in [0,1)"
        );
        assert!(
            (0.0..1.0).contains(&duplicate_prob),
            "duplicate_prob must be in [0,1)"
        );
        NetConfig {
            drop_prob,
            duplicate_prob,
            jitter: Micros(50),
            ..NetConfig::default()
        }
    }
}

/// Stable-storage latency model.
///
/// A synchronous log takes `base_latency + len/byte rate`. The paper
/// reports logging a single byte at ≈2× the one-way message delay (§I-A),
/// i.e. ≈200 µs on its IDE disks; that is the default.
///
/// With [`coalesce`](DiskConfig::coalesce) the disk models **group
/// commit** (the real runtime's syncer): one fsync runs at a time, and
/// every store issued while it is in flight joins the *next* fsync —
/// they all complete at the same instant, one `base_latency` after the
/// in-flight commit finishes. This is what lets the deterministic
/// engine explore delayed-durability interleavings (an ack racing ahead
/// of a slow store on another node) reproducibly.
#[derive(Debug, Clone)]
pub struct DiskConfig {
    /// Fixed per-store latency (paper: ≈200 µs).
    pub base_latency: Micros,
    /// Uniform jitter added on top.
    pub jitter: Micros,
    /// Nanoseconds per stored byte (≈30 MB/s sequential IDE ≈ 33 ns/byte).
    pub ns_per_byte: u64,
    /// Model a single-headed group-committing disk instead of unlimited
    /// parallel stores: concurrent stores at one process serialize into
    /// commits and share fsyncs (see the type docs).
    pub coalesce: bool,
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig {
            base_latency: Micros(200),
            jitter: Micros(0),
            ns_per_byte: 33,
            coalesce: false,
        }
    }
}

impl DiskConfig {
    /// A group-committing disk with the given per-commit latency (the
    /// sim analogue of the runner's syncer over a WAL).
    pub fn coalescing(base_latency: Micros) -> Self {
        DiskConfig {
            base_latency,
            coalesce: true,
            ..DiskConfig::default()
        }
    }
}

/// Top-level simulation parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of processes.
    pub n: usize,
    /// Network model.
    pub net: NetConfig,
    /// Disk model.
    pub disk: DiskConfig,
    /// Per-process disk overrides (index = process id): `Some` replaces
    /// [`disk`](ClusterConfig::disk) for that process, so one node can
    /// run a slow or group-committing disk while the rest stay on the
    /// default — the shape of the delayed-durability races the ISSUE's
    /// suite explores.
    pub disk_overrides: Vec<Option<DiskConfig>>,
    /// Hard stop: no event later than this is processed (guards against
    /// livelock when a majority is permanently down).
    pub max_time: super::VirtualTime,
    /// Hard stop on the number of processed events.
    pub max_events: u64,
}

impl ClusterConfig {
    /// A cluster of `n` processes with default LAN/disk models.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "cluster must have at least one process");
        ClusterConfig {
            n,
            net: NetConfig::default(),
            disk: DiskConfig::default(),
            disk_overrides: vec![None; n],
            max_time: super::VirtualTime(60_000_000), // one virtual minute
            max_events: 50_000_000,
        }
    }

    /// Replaces the network model.
    pub fn with_net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Replaces the disk model.
    pub fn with_disk(mut self, disk: DiskConfig) -> Self {
        self.disk = disk;
        self
    }

    /// Gives process `pid` its own disk model (see
    /// [`disk_overrides`](ClusterConfig::disk_overrides)).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn with_disk_at(mut self, pid: usize, disk: DiskConfig) -> Self {
        self.disk_overrides[pid] = Some(disk);
        self
    }

    /// The disk model process `pid` runs (its override or the default).
    pub fn disk_of(&self, pid: usize) -> &DiskConfig {
        self.disk_overrides
            .get(pid)
            .and_then(Option::as_ref)
            .unwrap_or(&self.disk)
    }

    /// Replaces the time limit.
    pub fn with_max_time(mut self, max_time: super::VirtualTime) -> Self {
        self.max_time = max_time;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = ClusterConfig::new(5);
        assert_eq!(c.net.base_delay, Micros(100));
        assert_eq!(c.disk.base_latency, Micros(200));
        assert_eq!(c.n, 5);
    }

    #[test]
    fn builder_methods_replace_fields() {
        let c = ClusterConfig::new(3)
            .with_net(NetConfig::lossy(0.1, 0.05))
            .with_disk(DiskConfig {
                base_latency: Micros(500),
                jitter: Micros(0),
                ns_per_byte: 0,
                coalesce: false,
            })
            .with_max_time(crate::VirtualTime(1_000));
        assert_eq!(c.net.drop_prob, 0.1);
        assert_eq!(c.disk.base_latency, Micros(500));
        assert_eq!(c.max_time, crate::VirtualTime(1_000));
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_processes_panics() {
        let _ = ClusterConfig::new(0);
    }

    #[test]
    fn disk_overrides_replace_only_their_process() {
        let slow = DiskConfig {
            base_latency: Micros(5_000),
            ..DiskConfig::default()
        };
        let c = ClusterConfig::new(3).with_disk_at(1, slow);
        assert_eq!(c.disk_of(0).base_latency, Micros(200));
        assert_eq!(c.disk_of(1).base_latency, Micros(5_000));
        assert_eq!(c.disk_of(2).base_latency, Micros(200));
    }

    #[test]
    fn coalescing_constructor_sets_the_flag() {
        let d = DiskConfig::coalescing(Micros(300));
        assert!(d.coalesce);
        assert_eq!(d.base_latency, Micros(300));
    }

    #[test]
    #[should_panic(expected = "drop_prob")]
    fn certain_loss_is_rejected() {
        let _ = NetConfig::lossy(1.0, 0.0);
    }
}
