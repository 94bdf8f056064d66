//! The **combined chaos matrix** over a real-threaded cluster: seeded
//! schedules mixing node kill/recover windows, torn-WAL-tail recoveries,
//! live shard-split chains and client crashes at every write phase — with
//! every surviving history certified and every crashed client's ops
//! resolved to a definite verdict.
//!
//! The plan comes from [`rmem_sim::matrix`] (pure data, majority-safe by
//! construction); this module lowers it onto a
//! [`LocalCluster`] — node windows become
//! [`FaultEvent::Kill`]/[`FaultEvent::Restart`] pairs with a
//! [`FaultEvent::TearTail`] in the middle of torn windows, client crashes
//! become [`FaultEvent::ClientCrash`] signals that flip per-client flags
//! the crasher threads watch. Meanwhile a grower drives the shard-split
//! chain (e.g. 4 → 8 → 16) live under the traffic.
//!
//! [`run_chaos`] is the whole experiment: preload → traffic + faults +
//! splits → client recovery ([`KvClient::resolve_all`] over each reopened
//! intent journal) → certification
//! ([`certify_per_key_epoch_path`], which includes the
//! duplicate-application check). On a certification failure it returns
//! the flight-recorder dumps and the stitched causal trace as evidence.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmem_consistency::Criterion;
use rmem_core::{Persistent, SharedMemory};
use rmem_net::{FaultEvent, FaultSchedule, LocalCluster};
use rmem_sim::{ChaosPlan, MatrixSpec, WritePhase};
use rmem_storage::IntentJournal;
use rmem_types::{Micros, OpTag};

use crate::client::{KvClient, KvError};
use crate::exactly_once::{CrashPoint, Resolution};
use crate::history::certify_per_key_epoch_path;
use crate::recorder::OpRecorder;
use crate::router::ShardRouter;

/// Configuration of one chaos-matrix run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the fault plan and all traffic randomness.
    pub seed: u64,
    /// Cluster size (the matrix targets 50+).
    pub nodes: usize,
    /// Every `wal_every`-th node persists to a real write-ahead log (the
    /// torn-tail targets); the rest use in-memory crash-surviving disks.
    pub wal_every: usize,
    /// The live split chain, e.g. `[4, 8, 16]`: the run starts at the
    /// first count and grows through the rest under traffic.
    pub shard_path: Vec<u16>,
    /// Steady exactly-once writer threads.
    pub writers: u16,
    /// Puts per client, paced evenly over the horizon: a steady writer
    /// makes exactly this many, a crasher at most this many before its
    /// crash. Op counts, not the wall clock, size the history, so its
    /// length does not depend on how fast the host is.
    pub ops_per_writer: usize,
    /// Crash-injected exactly-once clients; crasher `i` dies at write
    /// phase `i mod 3` (pre-send / mid-round / post-quorum).
    pub crashers: u16,
    /// Node kill/recover windows in the plan.
    pub windows: usize,
    /// Max nodes down at once (must leave a majority up).
    pub max_concurrent_down: usize,
    /// Fraction of windows whose recovery is from a torn WAL tail.
    pub torn_fraction: f64,
    /// Wall-clock length of the fault schedule.
    pub horizon: Duration,
    /// Scratch directory for WAL disks and intent journals (a per-seed
    /// subdirectory is created and cleaned).
    pub scratch: PathBuf,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            nodes: 50,
            wal_every: 5,
            shard_path: vec![4, 8, 16],
            writers: 3,
            ops_per_writer: 40,
            crashers: 3,
            windows: 4,
            max_concurrent_down: 3,
            torn_fraction: 0.5,
            horizon: Duration::from_millis(700),
            scratch: std::env::temp_dir().join(format!("rmem-chaos-{}", std::process::id())),
        }
    }
}

/// What one chaos run did and proved.
#[derive(Debug)]
pub struct ChaosReport {
    /// The run's seed.
    pub seed: u64,
    /// Store operations that completed normally.
    pub completed: u64,
    /// Operations that failed ambiguously (node died under them) — their
    /// intents were later resolved to definite verdicts.
    pub ambiguous: u64,
    /// Fault events actually applied by the schedule.
    pub faults_applied: usize,
    /// Torn-tail injections that actually hit a killed WAL node.
    pub torn_tails: usize,
    /// Every verdict from the recovery sweeps: `(client id, tag,
    /// resolution)`, covering both the crash-injected clients and any
    /// steady writer that finished with ambiguous ops in its journal.
    pub verdicts: Vec<(u16, OpTag, Resolution)>,
    /// Keys certified by the cross-epoch checker.
    pub certified_keys: usize,
    /// Failed node attempts that made operations retry (see
    /// `kv.retries`).
    pub retries: u64,
}

/// A chaos run that failed its oracle, with the postmortem evidence.
#[derive(Debug)]
pub struct ChaosFailure {
    /// The failing seed (rerun it to reproduce).
    pub seed: u64,
    /// What failed (certification verdict or recovery error).
    pub message: String,
    /// Flight-recorder dumps and the stitched causal trace.
    pub dumps: String,
}

impl std::fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chaos seed {}: {}", self.seed, self.message)
    }
}

impl std::error::Error for ChaosFailure {}

/// Tag namespace offset separating crasher clients from steady writers.
const CRASHER_BASE: u16 = 1_000;

/// How often a crasher with no puts left checks for its crash signal.
const CRASH_POLL: Duration = Duration::from_millis(1);

/// Spreads a client's op budget over the fault horizon: sleeps for the
/// rest of the horizon (which ends at `end`) divided by the `remaining`
/// ops, and not at all once the horizon has passed.
fn pace(end: Instant, remaining: usize) {
    let left = end.saturating_duration_since(Instant::now());
    std::thread::sleep(left / u32::try_from(remaining).unwrap_or(u32::MAX));
}

fn lower_phase(phase: WritePhase) -> CrashPoint {
    match phase {
        WritePhase::PreSend => CrashPoint::PreSend,
        WritePhase::MidRound => CrashPoint::MidRound,
        WritePhase::PostQuorum => CrashPoint::PostQuorum,
    }
}

/// Runs one seeded chaos-matrix experiment (see the [module
/// docs](self)).
///
/// # Errors
///
/// Returns [`ChaosFailure`] — with flight-recorder and stitched-trace
/// dumps attached — if the surviving history fails cross-epoch
/// certification (including the exactly-once duplicate check) or a
/// crashed client's op cannot be resolved to a definite verdict.
///
/// # Panics
///
/// Panics on harness-level failures that are bugs in the experiment
/// itself (cluster setup, preload, a split that cannot commit, a write
/// barrier deadlock).
#[allow(clippy::too_many_lines)]
pub fn run_chaos(cfg: &ChaosConfig) -> Result<ChaosReport, Box<ChaosFailure>> {
    assert!(cfg.shard_path.len() >= 2, "the matrix grows at least once");
    let scratch = cfg.scratch.join(format!("s{}", cfg.seed));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("creating the chaos scratch directory");

    let mut cluster = LocalCluster::channel_mixed(
        cfg.nodes,
        SharedMemory::factory(Persistent::flavor()),
        scratch.join("disks"),
        cfg.wal_every,
    )
    .expect("assembling the chaos cluster");
    let recorder = OpRecorder::new();
    let first_shards = cfg.shard_path[0];
    let base = KvClient::new(cluster.clients(), ShardRouter::new(first_shards))
        .expect("building the base client")
        .with_op_timeout(Duration::from_millis(300))
        .with_health_cooldown(Duration::from_secs(2))
        .with_barrier_polls(4_096)
        .with_recorder(recorder.clone());

    // One key per first-epoch shard: linear hashing keeps them injective
    // under every count on the path, so per-register certificates read as
    // per-key ones across the whole chain.
    let keys = ShardRouter::new(first_shards).covering_keys("chaos-");
    for (i, key) in keys.iter().enumerate() {
        base.put(key, vec![0, i as u8]).expect("preload");
    }

    let plan = ChaosPlan::generate(&MatrixSpec {
        seed: cfg.seed,
        processes: cfg.nodes,
        windows: cfg.windows,
        max_concurrent_down: cfg.max_concurrent_down,
        torn_fraction: cfg.torn_fraction,
        client_crashes: cfg.crashers as usize,
        clients: cfg.crashers.max(1),
        horizon: Micros(u64::try_from(cfg.horizon.as_micros()).expect("horizon fits u64")),
    });
    let mut schedule = FaultSchedule::new();
    for w in &plan.windows {
        let start = Duration::from_micros(w.start.0);
        let down = Duration::from_micros(w.down_for.0);
        schedule = schedule
            .at(start, FaultEvent::Kill(w.pid))
            .at(start + down, FaultEvent::Restart(w.pid));
        if w.torn_tail {
            // Mid-outage, so the kill already happened and the restart
            // recovers from the torn log.
            schedule = schedule.at(start + down / 2, FaultEvent::TearTail(w.pid));
        }
    }
    for c in &plan.client_crashes {
        schedule = schedule.at(
            Duration::from_micros(c.at.0),
            FaultEvent::ClientCrash(u64::from(c.client)),
        );
    }

    let completed = AtomicU64::new(0);
    let ambiguous = AtomicU64::new(0);
    let faults_done = AtomicBool::new(false);
    let crash_flags: Vec<Arc<AtomicBool>> = (0..cfg.crashers)
        .map(|_| Arc::new(AtomicBool::new(false)))
        .collect();
    // (crasher id, injected crash point, the orphaned op's tag if the
    // injection reached that point).
    let crashed_ops: Mutex<Vec<(u16, CrashPoint, Option<OpTag>)>> = Mutex::new(Vec::new());
    let mut applied = Vec::new();

    let horizon_end = Instant::now() + cfg.horizon;
    std::thread::scope(|scope| {
        // Steady exactly-once writers: `ops_per_writer` puts each, spread
        // over the whole fault horizon.
        for w in 0..cfg.writers {
            let id = w + 1;
            let client = base
                .recorded_clone()
                .with_exactly_once(id, open_journal(&scratch, id));
            let keys = &keys;
            let completed = &completed;
            let ambiguous = &ambiguous;
            let mut rng = StdRng::seed_from_u64(cfg.seed * 131 + u64::from(id));
            scope.spawn(move || {
                for done in 0..cfg.ops_per_writer {
                    pace(horizon_end, cfg.ops_per_writer - done);
                    let counter = done as u64 + 1;
                    let key = &keys[rng.gen_range(0..keys.len())];
                    let value = (u64::from(id) << 32 | counter).to_be_bytes().to_vec();
                    match client.put(key, value) {
                        Ok(()) => {
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(KvError::Barrier { key, shard }) => {
                            panic!("write barrier deadlocked on {key:?} (shard {shard})")
                        }
                        Err(_) => {
                            ambiguous.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        // Crash-injected clients: normal exactly-once traffic, at most
        // `ops_per_writer` puts, until their planned crash signal (or
        // the schedule drains), then die at their write phase, leaving
        // the journal and an orphaned op behind. The injection always
        // happens, so every phase is covered regardless of signal timing.
        for c in 0..cfg.crashers {
            let id = CRASHER_BASE + c;
            let client = base
                .recorded_clone()
                .with_exactly_once(id, open_journal(&scratch, id));
            let point = lower_phase(WritePhase::ALL[c as usize % WritePhase::ALL.len()]);
            let flag = crash_flags[c as usize].clone();
            let keys = &keys;
            let completed = &completed;
            let ambiguous = &ambiguous;
            let faults_done = &faults_done;
            let crashed_ops = &crashed_ops;
            let mut rng = StdRng::seed_from_u64(cfg.seed * 733 + u64::from(id));
            scope.spawn(move || {
                let signalled =
                    || flag.load(Ordering::Relaxed) || faults_done.load(Ordering::Relaxed);
                for done in 0..cfg.ops_per_writer {
                    pace(horizon_end, cfg.ops_per_writer - done);
                    if signalled() {
                        break;
                    }
                    let counter = done as u64 + 1;
                    let key = &keys[rng.gen_range(0..keys.len())];
                    let value = (u64::from(id) << 32 | counter).to_be_bytes().to_vec();
                    match client.put(key, value) {
                        Ok(()) => {
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            ambiguous.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                // Out of budget before the signal: idle until it comes.
                while !signalled() {
                    std::thread::sleep(CRASH_POLL);
                }
                let key = &keys[rng.gen_range(0..keys.len())];
                let value = (u64::from(id) << 32 | 0xDEAD).to_be_bytes().to_vec();
                // An Err here (a node died under the post-quorum issue)
                // still leaves the journaled intent for recovery; only
                // the tag-specific assertion is skipped.
                let tag = client.crashed_put(key, value, point).ok();
                crashed_ops.lock().unwrap().push((id, point, tag));
            });
        }
        // The grower: drive the split chain live, spread over the
        // horizon.
        let grower = base.recorded_clone();
        let path = &cfg.shard_path;
        let horizon = cfg.horizon;
        scope.spawn(move || {
            let steps = path.len() - 1;
            for (i, &target) in path[1..].iter().enumerate() {
                std::thread::sleep(horizon * (i as u32 + 1) / (steps as u32 + 1));
                let report = grower.grow(target).expect("the live split must commit");
                assert_eq!(report.to_shards, target);
            }
        });
        // The adversary: node windows, torn tails and client-crash
        // signals on the clock.
        let cluster = &mut cluster;
        let flags = &crash_flags;
        let faults_done = &faults_done;
        let applied = &mut applied;
        scope.spawn(move || {
            *applied = schedule
                .run_with(cluster, |c| {
                    flags[usize::try_from(c).expect("client ids are small")]
                        .store(true, Ordering::Relaxed);
                })
                .expect("the fault schedule must apply cleanly");
            faults_done.store(true, Ordering::Relaxed);
        });
    });

    // The split chain committed despite everything.
    let map = base.shard_map();
    assert!(!map.is_migrating(), "the last split must have committed");
    assert_eq!(map.shards, *cfg.shard_path.last().unwrap());

    let fail = |message: String| {
        Box::new(ChaosFailure {
            seed: cfg.seed,
            message,
            dumps: format!(
                "{}\n{}",
                cluster.dump_flight_recorders(40),
                cluster.dump_stitched(Vec::new(), 5)
            ),
        })
    };

    // Client recovery: reopen every journal — crashed clients and steady
    // writers alike — with a fresh client under the same tag namespace,
    // and sweep every pending intent to a definite verdict.
    let crashed_ops = crashed_ops.into_inner().unwrap();
    let mut verdicts = Vec::new();
    let all_ids = (1..=cfg.writers).chain(crashed_ops.iter().map(|(id, _, _)| *id));
    for id in all_ids {
        let recovered = base
            .recorded_clone()
            .with_exactly_once(id, open_journal(&scratch, id));
        match recovered.resolve_all() {
            Ok(resolved) => {
                verdicts.extend(resolved.into_iter().map(|(tag, r)| (id, tag, r)));
            }
            Err(e) => return Err(fail(format!("client {id} recovery failed: {e}"))),
        }
        if !recovered.pending_intents().is_empty() {
            return Err(fail(format!("client {id} still has unresolved intents")));
        }
    }
    // The phase-specific guarantees: an op that never left its client
    // resolves NotLanded and stays fenced; an op acked at a quorum
    // resolves Landed.
    for (id, point, tag) in &crashed_ops {
        let Some(tag) = tag else { continue };
        let verdict = verdicts
            .iter()
            .find(|(vid, vtag, _)| vid == id && vtag == tag)
            .map(|(_, _, r)| *r);
        match point {
            CrashPoint::PreSend => {
                if verdict != Some(Resolution::NotLanded) {
                    return Err(fail(format!(
                        "pre-send crash of client {id} resolved {verdict:?}, not NotLanded"
                    )));
                }
                let owner = base
                    .recorded_clone()
                    .with_exactly_once(*id, open_journal(&scratch, *id));
                if !matches!(owner.send_put(*tag), Err(KvError::Fenced { .. })) {
                    return Err(fail(format!(
                        "client {id}'s resolved-NotLanded op {tag} was not fenced"
                    )));
                }
            }
            CrashPoint::MidRound | CrashPoint::PostQuorum => {
                if verdict != Some(Resolution::Landed { tag: *tag }) {
                    return Err(fail(format!(
                        "{point:?} crash of client {id} resolved {verdict:?}, not Landed"
                    )));
                }
            }
        }
    }

    // The correctness oracle: cross-epoch per-key certification over the
    // whole split chain, including the exactly-once duplicate check.
    let history = recorder.history();
    let cert = match certify_per_key_epoch_path(
        &history,
        keys.iter().map(String::as_str),
        &cfg.shard_path,
        Criterion::Persistent,
    ) {
        Ok(cert) => cert,
        Err(e) => return Err(fail(format!("certification failed: {e}"))),
    };

    // Post-run sanity: every key still serves and accepts new writes.
    for key in &keys {
        base.put(key, b"final".to_vec()).expect("post-run put");
        assert_eq!(
            base.get(key).expect("post-run get").as_deref(),
            Some(b"final".as_ref())
        );
    }
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);

    let stats = base.stats();
    Ok(ChaosReport {
        seed: cfg.seed,
        completed: completed.load(Ordering::Relaxed),
        ambiguous: ambiguous.load(Ordering::Relaxed),
        faults_applied: applied.len(),
        torn_tails: applied
            .iter()
            .filter(|(_, e)| matches!(e, FaultEvent::TearTail(_)))
            .count(),
        verdicts,
        certified_keys: cert.per_key.len(),
        retries: stats.retries,
    })
}

fn open_journal(scratch: &std::path::Path, id: u16) -> IntentJournal {
    IntentJournal::open(scratch.join(format!("journal/c{id}")))
        .expect("opening a client's intent journal")
}
