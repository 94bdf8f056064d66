//! Per-layer measurements, all taken from outside the layers: counters
//! the layers already export, the stitched trace, and timed calls into
//! each layer's public functions.

use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use bytes::Bytes;
use rmem_kv::codec::encode_entry;
use rmem_kv::data_register;
use rmem_net::LocalCluster;
use rmem_obs::trace::{TraceReport, SEGMENTS};
use rmem_obs::HistogramSnapshot;
use rmem_storage::{StableStorage, WalStorage};
use rmem_types::codec::{decode_message, encode_message};
use rmem_types::{Action, Input, Message, Op, OpId, ProcessId, RegisterId, Value};

use crate::run::{factory, keys, NODES};
use crate::stats::{hist_delta, median, percentile};
use crate::workload::{batch_keys, Call, OpStream, Workload, SHARDS};

/// Runner and syncer counters summed over the nodes.
#[derive(Debug, Clone, Default)]
pub struct NodeCounters {
    /// Datagrams sent (`runner.msgs_out`).
    pub msgs_out: u64,
    /// Register operations completed (`runner.ops_completed`).
    pub ops_completed: u64,
    /// Stores per group commit (`syncer.group_size`).
    pub group_size: HistogramSnapshot,
    /// Group-commit latency in microseconds (`syncer.commit_micros`).
    pub commit_micros: HistogramSnapshot,
}

impl NodeCounters {
    /// The cluster's counters so far.
    pub fn of(cluster: &LocalCluster) -> NodeCounters {
        let mut t = NodeCounters::default();
        for p in ProcessId::all(cluster.len()) {
            let m = cluster.metrics(p);
            t.msgs_out += m.counter("runner.msgs_out");
            t.ops_completed += m.counter("runner.ops_completed");
            t.group_size.merge(&m.histogram("syncer.group_size"));
            t.commit_micros.merge(&m.histogram("syncer.commit_micros"));
        }
        t
    }

    /// The change since `earlier`.
    pub fn since(&self, earlier: &NodeCounters) -> NodeCounters {
        NodeCounters {
            msgs_out: self.msgs_out - earlier.msgs_out,
            ops_completed: self.ops_completed - earlier.ops_completed,
            group_size: hist_delta(&self.group_size, &earlier.group_size),
            commit_micros: hist_delta(&self.commit_micros, &earlier.commit_micros),
        }
    }
}

/// Median attribution of each trace segment over the stitched ops,
/// microseconds, indexed like [`SEGMENTS`].
pub fn segment_p50s(report: &TraceReport) -> [f64; SEGMENTS.len()] {
    std::array::from_fn(|i| {
        let mut v: Vec<f64> = report.stitched.iter().map(|op| op.segments[i]).collect();
        v.sort_by(f64::total_cmp);
        percentile(&v, 0.5).unwrap_or(0.0)
    })
}

/// A register value shaped like the workload's stored entries: the kv
/// codec's key-tagged encoding of a value of the workload's length.
fn entry_of(workload: Workload) -> Value {
    let len = workload.spec().value_len;
    encode_entry(&keys()[0], &Bytes::from(vec![7u8; len]), 0)
}

/// Median latencies, microseconds, of `reps` blocking `write_at` and
/// `read_at` round trips through node 0 of `cluster`, on a register no
/// key uses, with a value shaped like the workload's entries. These are
/// register round trips with no kv routing or leases.
pub fn net_round_trips(
    cluster: &LocalCluster,
    workload: Workload,
    reps: usize,
) -> Result<(f64, f64), String> {
    let client = cluster.client(ProcessId(0));
    let reg = RegisterId(SHARDS + 100);
    let value = entry_of(workload);
    let (mut reads, mut writes) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for _ in 0..reps {
        let t = Instant::now();
        client
            .write_at(reg, value.clone())
            .map_err(|e| format!("write_at: {e}"))?;
        writes.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        client.read_at(reg).map_err(|e| format!("read_at: {e}"))?;
        reads.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok((
        median(&reads).unwrap_or(0.0),
        median(&writes).unwrap_or(0.0),
    ))
}

/// Median latency, microseconds, of `reps` `WalStorage::store` calls of
/// `record` under `key`, in a fresh log under `dir`.
pub fn wal_store_p50(dir: &Path, key: &str, record: &Bytes, reps: usize) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut wal = WalStorage::open(dir).map_err(|e| format!("opening the probe log: {e}"))?;
    let mut us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        wal.store(key, record.clone())
            .map_err(|e| format!("probe store: {e}"))?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(dir);
    Ok(median(&us).unwrap_or(0.0))
}

/// What driving the workload's register ops through three in-memory
/// automata recorded.
pub struct Pump {
    /// Every input delivered, in order, with its target process.
    inputs: Vec<(usize, Input)>,
    /// Every protocol message sent.
    messages: Vec<Message>,
    /// The largest stable-storage record the automata asked to store:
    /// a logged value of the workload's size.
    pub record: Option<(String, Bytes)>,
}

impl Pump {
    /// Drives `reg_ops` register operations of the workload's stream
    /// under `seed` through three automata of the workload's flavor, one
    /// op at a time with coordinators taken in turn. Sends are delivered
    /// in order, stores complete at once, and pending timers fire
    /// whenever an op completes or cannot progress without them.
    pub fn record(workload: Workload, seed: u64, reg_ops: usize) -> Result<Pump, String> {
        let spec = workload.spec();
        let factory = factory(&spec);
        let mut autos: Vec<_> = (0..NODES)
            .map(|p| factory.fresh(ProcessId(p as u16), NODES))
            .collect();
        let mut pump = Pump {
            inputs: Vec::new(),
            messages: Vec::new(),
            record: None,
        };
        let mut queue: VecDeque<(usize, Input)> = (0..NODES).map(|p| (p, Input::Start)).collect();
        let mut timers: Vec<(usize, Input)> = Vec::new();
        let mut done: Option<OpId> = None;
        let mut out = Vec::new();
        let mut deliver = |pump: &mut Pump,
                           queue: &mut VecDeque<(usize, Input)>,
                           timers: &mut Vec<(usize, Input)>,
                           done: &mut Option<OpId>,
                           p: usize,
                           input: Input| {
            pump.inputs.push((p, input.clone()));
            autos[p].on_input(input, &mut out);
            for action in out.drain(..) {
                match action {
                    Action::Send { to, msg } => {
                        pump.messages.push(msg.clone());
                        queue.push_back((
                            to.index(),
                            Input::Message {
                                from: ProcessId(p as u16),
                                msg,
                            },
                        ));
                    }
                    Action::Store { token, key, bytes } => {
                        if pump
                            .record
                            .as_ref()
                            .is_none_or(|(_, b)| b.len() < bytes.len())
                        {
                            pump.record = Some((key, bytes));
                        }
                        queue.push_back((p, Input::StoreDone(token)));
                    }
                    Action::SetTimer { token, .. } => timers.push((p, Input::Timer(token))),
                    Action::Complete { op, .. } => *done = Some(op),
                }
            }
        };
        let mut stream = OpStream::new(workload, seed);
        let value = Bytes::from(vec![7u8; spec.value_len]);
        let keys = keys();
        let mut issued = 0usize;
        while issued < reg_ops {
            let call = stream.next_call();
            let (idx, write): (Vec<usize>, bool) = match &call {
                Call::Get(k) => (vec![*k], false),
                Call::Put(k, _) => (vec![*k], true),
                Call::MultiGet(s) => (batch_keys(*s).collect(), false),
                Call::MultiPut(s, _) => (batch_keys(*s).collect(), true),
            };
            for k in idx {
                let reg = data_register(k as u16);
                let operation = if write {
                    Op::WriteAt(reg, encode_entry(&keys[k], &value, 0))
                } else {
                    Op::ReadAt(reg)
                };
                let coord = issued % NODES;
                let op = OpId::new(ProcessId(coord as u16), issued as u64);
                queue.push_back((coord, Input::Invoke { op, operation }));
                let mut stalls = 0;
                loop {
                    while let Some((p, input)) = queue.pop_front() {
                        deliver(&mut pump, &mut queue, &mut timers, &mut done, p, input);
                    }
                    let finished = done == Some(op);
                    for (p, input) in std::mem::take(&mut timers) {
                        deliver(&mut pump, &mut queue, &mut timers, &mut done, p, input);
                    }
                    if finished {
                        while let Some((p, input)) = queue.pop_front() {
                            deliver(&mut pump, &mut queue, &mut timers, &mut done, p, input);
                        }
                        break;
                    }
                    stalls += 1;
                    if stalls > 64 {
                        return Err(format!("register op {op} made no progress"));
                    }
                }
                issued += 1;
            }
        }
        Ok(pump)
    }

    /// Median nanoseconds per `Automaton::on_input` call over `reps`
    /// replays of the recorded inputs into fresh automata.
    pub fn step_ns(&self, workload: Workload, reps: usize) -> f64 {
        let factory = factory(&workload.spec());
        let mut per_step = Vec::with_capacity(reps);
        let mut out = Vec::new();
        for _ in 0..reps {
            let mut autos: Vec<_> = (0..NODES)
                .map(|p| factory.fresh(ProcessId(p as u16), NODES))
                .collect();
            let inputs = self.inputs.clone();
            let t = Instant::now();
            for (p, input) in inputs {
                autos[p].on_input(input, &mut out);
                out.clear();
            }
            per_step.push(t.elapsed().as_nanos() as f64 / self.inputs.len() as f64);
        }
        median(&per_step).unwrap_or(0.0)
    }

    /// Median nanoseconds to encode and decode one recorded message, over
    /// `reps` passes.
    pub fn codec_ns(&self, reps: usize) -> Result<f64, String> {
        let mut per_msg = Vec::with_capacity(reps);
        let mut frames = Vec::with_capacity(self.messages.len());
        for _ in 0..reps {
            frames.clear();
            let t = Instant::now();
            for m in &self.messages {
                frames.push(encode_message(black_box(m)));
            }
            for f in &frames {
                let m = decode_message(black_box(f)).map_err(|e| format!("decoding: {e}"))?;
                black_box(m);
            }
            per_msg.push(t.elapsed().as_nanos() as f64 / self.messages.len() as f64);
        }
        Ok(median(&per_msg).unwrap_or(0.0))
    }

    /// Automaton inputs and protocol messages recorded.
    pub fn sizes(&self) -> (usize, usize) {
        (self.inputs.len(), self.messages.len())
    }
}
