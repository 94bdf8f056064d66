//! Wall-clock benchmark of the store on its real runtime: a three-node
//! UDP-loopback cluster with `WalStorage` disks, driven by one client
//! thread in a closed loop.
//!
//! ```text
//! wallbench --workload <point_mixed|read_lease|bulk_write|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Every run first certifies a bounded, recorded witness of the same
//! shape, then boots the measured cluster several times (set-up time is
//! the median), measures until the window holds `--seconds` in which the
//! hypervisor stole no CPU (at most twice that in all), and finally
//! crashes all three nodes, tears their log tails and reads every key
//! back. With `--trace 0` it reports the end-to-end metrics of the
//! untraced run; with `--trace 1` it also makes a traced run and reports
//! the per-layer metrics. Human-readable lines come first; the last line of standard
//! output is one JSON object. A certification or durability violation
//! prints the seed and exits with code 3. A traced run in which the
//! workload no longer loads the layer it was chosen for (see
//! `load_checks`) prints no result and exits with code 1.

mod host;
mod layers;
mod run;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use host::{steal_ticks, Host};
use layers::{net_round_trips, segment_p50s, wal_store_p50, NodeCounters, Pump};
use run::{crash_and_check, measure, warm, witness, Pooled, Rig, StoreTotals, Tally};
use stats::{hist_delta, median, percentile, ratio};
use workload::{OpStream, Workload};

/// Set-ups per run; `setup_s` is the median of the steal-free ones.
const SETUPS: usize = 21;

/// A measured window stops at this many times `--seconds` even when it
/// holds fewer steal-free seconds than asked for.
const WINDOW_LIMIT: u32 = 2;

/// Untimed calls before the window opens.
const WARMUP: Duration = Duration::from_millis(1000);

/// Round trips per direction in the net probe.
const NET_REPS: usize = 300;

/// Stores in the WAL probe.
const WAL_REPS: usize = 200;

/// Register ops driven through the in-memory automata.
const PUMP_OPS: usize = 3_000;

/// Replays of the recorded automaton inputs and codec passes.
const PUMP_REPS: usize = 7;

/// The trace segments, in `rmem_obs::trace::SEGMENTS` order, under their
/// metric names.
const SEGMENT_METRICS: [&str; rmem_obs::trace::SEGMENTS.len()] = [
    "trace.client_queue_us",
    "trace.coord_compute_us",
    "trace.wire_out_us",
    "trace.replica_compute_us",
    "trace.store_wait_us",
    "trace.wire_back_us",
];

/// Per-layer metrics printed but left out of the JSON line: only the
/// `read_lease` workload takes leases, and it is not one of the
/// registered workloads, so on those they always read 0.
const PRINTED_ONLY: [&str; 2] = ["kv.lease_hit_frac", "kv.lease_revocations_per_put"];

#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> String {
    format!(
        "{msg}\nusage: wallbench --workload <point_mixed|read_lease|bulk_write|all> \
         --seed <n> --seconds <s> --trace <0|1>"
    )
}

/// The parsed command line: the workloads to run in turn and the
/// arguments shared by all of them.
fn parse_args() -> Result<(Vec<Workload>, Args), String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| usage(&format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                workloads = Some(vec![Workload::parse(&value)
                    .ok_or_else(|| usage(&format!("unknown workload {value:?}")))?])
            }
            "--seed" => seed = Some(value.parse().map_err(|_| usage("bad --seed"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| usage("bad --seconds"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage("--trace takes 0 or 1")),
                })
            }
            _ => return Err(usage(&format!("unknown flag {flag:?}"))),
        }
    }
    let workloads = workloads.ok_or_else(|| usage("missing --workload"))?;
    let args = Args {
        workload: workloads[0],
        seed: seed.ok_or_else(|| usage("missing --seed"))?,
        seconds: seconds.ok_or_else(|| usage("missing --seconds"))?,
        trace: trace.ok_or_else(|| usage("missing --trace"))?,
    };
    if args.seconds == 0 {
        return Err(usage("--seconds must be at least 1"));
    }
    Ok((workloads, args))
}

/// The scratch directory for one run's disks, under the working
/// directory; removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    const ROOT: &'static str = ".wallbench_tmp";

    fn new(tag: &str) -> Result<Scratch, String> {
        let dir = Path::new(Scratch::ROOT).join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The root goes too once no other run is using it.
        let _ = std::fs::remove_dir(Scratch::ROOT);
    }
}

/// One reported metric, with the base it was computed from.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    base: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, base: String) -> Metric {
    Metric {
        name,
        value,
        unit,
        base,
    }
}

/// What a run produced.
enum Outcome {
    /// Every check passed.
    Measured {
        /// Human-readable report lines.
        lines: Vec<String>,
        /// The reported metrics: end-to-end untraced, per-layer traced.
        metrics: Vec<Metric>,
        /// Calls attempted in the window the metrics come from.
        calls: u64,
        /// Those of them that failed.
        failed: u64,
    },
    /// A certification or durability check failed.
    Violation {
        what: &'static str,
        details: Vec<String>,
    },
}

/// One measured window with its storage totals.
struct Window {
    tally: Tally,
    store: StoreTotals,
}

/// Measures a warmed-up rig for `--seconds`.
fn window(rig: &mut Rig, args: &Args, stream: &mut OpStream) -> Window {
    let store0 = StoreTotals::of(&rig.cluster);
    let window = Duration::from_secs(args.seconds);
    let tally = measure(rig, stream, window, window * WINDOW_LIMIT);
    let store = StoreTotals::of(&rig.cluster).since(store0);
    Window { tally, store }
}

/// Nearest-rank percentile of ascending nanosecond samples, in
/// microseconds (0 when there are none).
fn pct_us(sorted_ns: &[u64], q: f64) -> f64 {
    percentile(sorted_ns, q).map_or(0.0, |ns| ns as f64 / 1e3)
}

/// The figures a window reports: those of its steal-free slices, or of
/// the whole window when the hypervisor stole from every slice. On a
/// shared virtual machine another guest can take a quarter of the CPU,
/// and slow the disk, for minutes; a slice in which the hypervisor took
/// any CPU from this host is dropped whatever the program did in it, and
/// the window runs on until it holds `--seconds` of the others.
fn reported(t: &Tally) -> Pooled {
    let steal_free = Pooled::of(t.steal_free());
    if steal_free.slices > 0 {
        steal_free
    } else {
        Pooled::of(t.slices.iter())
    }
}

/// The median set-up time over the boots in which the hypervisor stole
/// no CPU, or over all of them when it stole in every one; `setups`
/// holds (seconds, steal ticks) pairs.
fn setup_s(setups: &[(f64, u64)]) -> (f64, usize) {
    let steal_free: Vec<f64> = setups.iter().filter(|s| s.1 == 0).map(|s| s.0).collect();
    let secs = if steal_free.is_empty() {
        setups.iter().map(|s| s.0).collect()
    } else {
        steal_free
    };
    (median(&secs).unwrap_or(0.0), secs.len())
}

fn end_to_end(
    args: &Args,
    w: &Window,
    setups: &[(f64, u64)],
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let t = &w.tally;
    let all = Pooled::of(t.slices.iter());
    let q = reported(t);
    let setup = setup_s(setups);
    let call = if args.workload.spec().batched {
        "16-key batch"
    } else {
        "single-key call"
    };
    lines.push(format!(
        "window {:.3} s in {} slices: {} ops in {} calls ({} failed), {:.1} ops/s; cpu user \
         {:.0} ms + sys {:.0} ms; hypervisor steal {} ticks",
        all.secs,
        all.slices,
        all.ops,
        t.calls,
        t.failed_calls,
        all.ops_per_s(),
        all.cpu.user_us / 1e3,
        all.cpu.sys_us / 1e3,
        t.slices.iter().map(|s| s.steal_ticks).sum::<u64>(),
    ));
    lines.push(if t.steal_free().next().is_some() {
        format!(
            "ops/s, latencies and cpu/op below are over the {} steal-free slices, {:.3} s",
            q.slices, q.secs
        )
    } else {
        "ops/s, latencies and cpu/op below are over the whole window: the hypervisor stole \
         from every slice"
            .to_string()
    });
    for (name, sorted) in [("get", &all.get_ns), ("put", &all.put_ns)] {
        lines.push(format!(
            "whole window {name} latency per {call}: p50 {:.1} us, p90 {:.1} us, p99 {:.1} us \
             (n={})",
            pct_us(sorted, 0.5),
            pct_us(sorted, 0.9),
            pct_us(sorted, 0.99),
            sorted.len(),
        ));
    }
    for e in &t.errors {
        lines.push(format!("error: {e}"));
    }
    let lat = |name, sorted: &[u64], p: f64| {
        metric(
            name,
            pct_us(sorted, p),
            "us",
            format!(
                "per {call}, n={}, p90 {:.1} us, p99 {:.1} us",
                sorted.len(),
                pct_us(sorted, 0.9),
                pct_us(sorted, 0.99)
            ),
        )
    };
    vec![
        metric(
            "ops_per_s",
            q.ops_per_s(),
            "1/s",
            format!("{} ops / {:.3} s", q.ops, q.secs),
        ),
        lat("get_p50_us", &q.get_ns, 0.5),
        lat("get_p90_us", &q.get_ns, 0.9),
        // Put p90 is printed with put p50 but not reported: a put's tail
        // is two logs and two wake-ups deep, and moved by up to a third
        // between identical sets of runs on a shared host.
        lat("put_p50_us", &q.put_ns, 0.5),
        metric(
            "cpu_us_per_op",
            ratio(q.cpu.total_us(), q.ops as f64),
            "us",
            format!("{:.0} ms user+sys / {} ops", q.cpu.total_us() / 1e3, q.ops),
        ),
        metric(
            "write_amp",
            ratio(w.store.bytes as f64, t.put_bytes as f64),
            "ratio",
            format!(
                "{} stored bytes ({} stores, {} commits, {} fsyncs) / {} value bytes put",
                w.store.bytes, w.store.stores, w.store.commits, w.store.fsyncs, t.put_bytes
            ),
        ),
        metric(
            "success_frac",
            1.0 - ratio(t.failed_calls as f64, t.calls as f64),
            "frac",
            format!("{} failed / {} calls", t.failed_calls, t.calls),
        ),
        metric(
            "setup_s",
            setup.0,
            "s",
            format!(
                "median boot + preload of the {} steal-free of {} boots",
                setup.1,
                setups.len()
            ),
        ),
    ]
}

/// The traced run and the layer probes. Returns the per-layer metrics,
/// the traced window, and the violations its durability check found.
fn per_layer(
    args: &Args,
    scratch: &Scratch,
    untraced: &Window,
    net: (f64, f64),
    lines: &mut Vec<String>,
) -> Result<(Vec<Metric>, Window, Vec<String>), String> {
    let mut rig = Rig::boot(args.workload, &scratch.path("traced"), true, None)?;
    let mut stream = OpStream::new(args.workload, args.seed);
    warm(&mut rig, &mut stream, WARMUP);
    let kv0 = rig.kv.stats();
    let depth0 = rig.kv.metrics().histogram("kv.pipeline_depth");
    let nodes0 = NodeCounters::of(&rig.cluster);
    let traced = window(&mut rig, args, &mut stream);
    let nodes = NodeCounters::of(&rig.cluster).since(&nodes0);
    let kv = rig.kv.stats();
    let depth = hist_delta(&rig.kv.metrics().histogram("kv.pipeline_depth"), &depth0);

    let stitch_start = Instant::now();
    let mut rings = rig.cluster.ring_dumps();
    rings.extend(rig.kv.trace_ring_dump());
    let report = rmem_obs::trace::stitch(&rings);
    let segments = segment_p50s(&report);
    let stitched = report.stitched.len();
    lines.push(format!(
        "trace: {stitched} of {} completed register ops stitched ({} incomplete), {} causality \
         violations, stitched in {:.2} s",
        report.completed,
        report.incomplete,
        report.violations,
        stitch_start.elapsed().as_secs_f64()
    ));
    drop(rings);
    drop(report);

    let checked = crash_and_check(&mut rig)?;
    lines.push(format!(
        "traced run: durability check read back {checked} keys"
    ));
    let violations = std::mem::take(&mut rig.book.violations);
    rig.teardown();

    let pump = Pump::record(args.workload, args.seed, PUMP_OPS)?;
    let step_ns = pump.step_ns(args.workload, PUMP_REPS);
    let codec_ns = pump.codec_ns(PUMP_REPS)?;
    let (inputs, msgs) = pump.sizes();
    let (rec_key, rec_bytes) = pump
        .record
        .clone()
        .ok_or("the automata never asked to store anything")?;
    let wal_us = wal_store_p50(&scratch.path("walprobe"), &rec_key, &rec_bytes, WAL_REPS)?;

    let store = &traced.store;
    let ops = Pooled::of(traced.tally.slices.iter()).ops;
    let puts = kv.writes - kv0.writes;
    let reads = kv.reads - kv0.reads;
    let traced_ops_s = reported(&traced.tally).ops_per_s();
    let untraced_ops_s = reported(&untraced.tally).ops_per_s();
    let cpu = Pooled::of(untraced.tally.slices.iter()).cpu;
    let per = |name, n: u64, den: u64, what: &str, unit| {
        metric(
            name,
            ratio(n as f64, den as f64),
            unit,
            format!("{n} / {den} {what}"),
        )
    };
    let mut m = vec![
        per(
            "kv.get_rounds",
            kv.read_rounds - kv0.read_rounds,
            reads,
            "register reads",
            "rounds",
        ),
        per(
            "kv.put_rounds",
            kv.write_rounds - kv0.write_rounds,
            puts,
            "register writes",
            "rounds",
        ),
        per(
            "kv.lease_hit_frac",
            kv.lease_hits - kv0.lease_hits,
            reads,
            "register reads",
            "frac",
        ),
        per(
            "kv.lease_revocations_per_put",
            kv.lease_revocations - kv0.lease_revocations,
            puts,
            "register writes",
            "count",
        ),
        per(
            "kv.retries_per_op",
            kv.retries - kv0.retries,
            ops,
            "ops",
            "count",
        ),
        per(
            "kv.backoff_us_per_op",
            kv.backoff_micros - kv0.backoff_micros,
            ops,
            "ops",
            "us",
        ),
        per(
            "kv.pipeline_depth_mean",
            depth.sum,
            depth.count,
            "in-flight samples",
            "ops",
        ),
        metric(
            "net.read_at_us_p50",
            net.0,
            "us",
            format!("median of {NET_REPS} read_at calls"),
        ),
        metric(
            "net.write_at_us_p50",
            net.1,
            "us",
            format!("median of {NET_REPS} write_at calls"),
        ),
        per("net.msgs_per_op", nodes.msgs_out, ops, "ops", "count"),
        per(
            "net.register_ops_per_op",
            nodes.ops_completed,
            ops,
            "ops",
            "count",
        ),
        per(
            "syncer.group_size",
            nodes.group_size.sum,
            nodes.group_size.count,
            "commits",
            "stores",
        ),
        per(
            "syncer.commit_us_mean",
            nodes.commit_micros.sum,
            nodes.commit_micros.count,
            "commits",
            "us",
        ),
        per("storage.fsyncs_per_op", store.fsyncs, ops, "ops", "count"),
        per(
            "storage.bytes_per_put",
            store.bytes,
            puts,
            "register writes",
            "bytes",
        ),
        metric(
            "storage.wal_store_us_p50",
            wal_us,
            "us",
            format!(
                "median of {WAL_REPS} WalStorage::store calls of {} bytes",
                rec_bytes.len()
            ),
        ),
        metric(
            "core.step_ns",
            step_ns,
            "ns",
            format!("{inputs} inputs of {PUMP_OPS} register ops, median of {PUMP_REPS} replays"),
        ),
        metric(
            "types.codec_ns_per_msg",
            codec_ns,
            "ns",
            format!("{msgs} messages encoded and decoded, median of {PUMP_REPS} passes"),
        ),
    ];
    for (name, us) in SEGMENT_METRICS.into_iter().zip(segments) {
        m.push(metric(
            name,
            us,
            "us",
            format!("p50 over {stitched} stitched register ops"),
        ));
    }
    m.push(metric(
        "trace.overhead_frac",
        1.0 - ratio(traced_ops_s, untraced_ops_s),
        "frac",
        format!("1 - {traced_ops_s:.1} traced / {untraced_ops_s:.1} untraced ops/s"),
    ));
    m.push(metric(
        "proc.sys_frac",
        ratio(cpu.sys_us, cpu.total_us()),
        "frac",
        format!(
            "{:.0} ms sys / {:.0} ms user+sys, untraced window",
            cpu.sys_us / 1e3,
            cpu.total_us() / 1e3
        ),
    ));
    let checks = load_checks(args.workload, &m);
    let unmet: Vec<&String> = checks
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(c, _)| c)
        .collect();
    if !unmet.is_empty() {
        return Err(format!(
            "workload {} no longer loads the layer it was chosen for: {unmet:?}",
            args.workload.name()
        ));
    }
    lines.extend(checks.iter().map(|(c, _)| format!("load check met: {c}")));
    Ok((m, traced, violations))
}

/// Whether each workload loads the layer it was chosen for: each check
/// with its verdict.
fn load_checks(workload: Workload, m: &[Metric]) -> Vec<(String, bool)> {
    let get = |name| m.iter().find(|x| x.name == name).map_or(0.0, |x| x.value);
    let fsyncs = get("storage.fsyncs_per_op");
    let group = get("syncer.group_size");
    let hits = get("kv.lease_hit_frac");
    let mut checks = vec![(
        format!("kv.lease_hit_frac {hits:.4} is above 0 on read_lease only"),
        (hits > 0.0) == (workload == Workload::ReadLease),
    )];
    match workload {
        Workload::PointMixed => checks.push((
            format!(
                "storage.fsyncs_per_op {fsyncs:.3} near 2 and syncer.group_size {group:.3} near 1"
            ),
            (1.8..=2.2).contains(&fsyncs) && group < 1.1,
        )),
        Workload::BulkWrite => {
            checks.push((format!("syncer.group_size {group:.3} above 1"), group > 1.0))
        }
        Workload::ReadLease => {}
    }
    checks
}

/// Runs one workload end to end.
fn run_bench(args: &Args) -> Result<Outcome, String> {
    let scratch = Scratch::new(args.workload.name())?;
    let host = Host::probe(&scratch.0);
    let mut lines = vec![format!(
        "workload {} seed {} window {} s trace {}; host: nproc {}, kernel {}, scratch fs {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.nproc,
        host.kernel,
        host.scratch_fs
    )];

    let t = Instant::now();
    match witness(args.workload, args.seed, &scratch.path("witness")) {
        Ok((calls, failed)) => lines.push(format!(
            "witness: {calls} calls ({failed} failed) certified per key under persistent \
             atomicity in {:.2} s",
            t.elapsed().as_secs_f64()
        )),
        Err(e) => {
            return Ok(Outcome::Violation {
                what: "certification",
                details: vec![e],
            })
        }
    }

    let mut setups = Vec::with_capacity(SETUPS);
    let mut rig: Option<Rig> = None;
    for i in 0..SETUPS {
        if let Some(old) = rig.take() {
            old.teardown();
        }
        let steal0 = steal_ticks().unwrap_or_default();
        let t = Instant::now();
        rig = Some(Rig::boot(
            args.workload,
            &scratch.path(&format!("setup{i}")),
            false,
            None,
        )?);
        let secs = t.elapsed().as_secs_f64();
        setups.push((
            secs,
            steal_ticks().unwrap_or_default().saturating_sub(steal0),
        ));
    }
    let mut rig = rig.expect("at least one set-up");

    let mut stream = OpStream::new(args.workload, args.seed);
    warm(&mut rig, &mut stream, WARMUP);
    let untraced = window(&mut rig, args, &mut stream);
    let net = if args.trace {
        net_round_trips(&rig.cluster, args.workload, NET_REPS)?
    } else {
        (0.0, 0.0)
    };
    let checked = crash_and_check(&mut rig)?;
    lines.push(format!(
        "durability: killed all {} nodes, tore every log tail, restarted, read back {checked} \
         of {} keys",
        run::NODES,
        rig.keys.len()
    ));
    let mut violations = std::mem::take(&mut rig.book.violations);
    rig.teardown();
    let e2e = end_to_end(args, &untraced, &setups, &mut lines);

    let (metrics, measured) = if args.trace {
        for m in &e2e {
            lines.push(format!(
                "end-to-end {} {:.4} {} ({})",
                m.name, m.value, m.unit, m.base
            ));
        }
        let (m, traced, v) = per_layer(args, &scratch, &untraced, net, &mut lines)?;
        violations.extend(v);
        (m, traced)
    } else {
        (e2e, untraced)
    };
    if !violations.is_empty() {
        return Ok(Outcome::Violation {
            what: "stale or lost value",
            details: violations,
        });
    }
    Ok(Outcome::Measured {
        lines,
        metrics,
        calls: measured.tally.calls,
        failed: measured.tally.failed_calls,
    })
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| !PRINTED_ONLY.contains(&m.name))
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let (workloads, args) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    for workload in workloads {
        let args = Args { workload, ..args };
        match run_bench(&args) {
            Ok(Outcome::Measured {
                lines,
                metrics,
                calls,
                failed,
            }) => {
                for l in &lines {
                    println!("# {l}");
                }
                for m in &metrics {
                    println!(
                        "{:<30} {:>14.4} {:<6} ({})",
                        m.name, m.value, m.unit, m.base
                    );
                }
                println!("{}", json(true, calls, failed, &metrics));
            }
            Ok(Outcome::Violation { what, details }) => {
                eprintln!(
                    "VIOLATION ({what}) on workload {} with seed {}; replay with the same --seed",
                    workload.name(),
                    args.seed
                );
                for d in details.iter().take(10) {
                    eprintln!("  {d}");
                }
                println!("{}", json(false, 1, 0, &[]));
                return ExitCode::from(3);
            }
            Err(e) => {
                eprintln!("wallbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-second traced run of `workload`: every check, the untraced
    /// and the traced window, and every probe.
    fn smoke(workload: Workload) {
        let args = Args {
            workload,
            seed: 5,
            seconds: 1,
            trace: true,
        };
        match run_bench(&args).expect("the run completes") {
            Outcome::Measured {
                metrics,
                calls,
                failed,
                ..
            } => {
                assert!(calls > 0);
                assert_eq!(failed, 0);
                assert!(metrics.iter().all(|m| m.value.is_finite()));
                let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
                assert!(names.contains(&"core.step_ns"));
                assert!(names.contains(&"trace.store_wait_us"));
                assert!(json(true, calls, failed, &metrics).starts_with("{\"correct\": true"));
            }
            Outcome::Violation { what, details } => panic!("{what}: {details:?}"),
        }
    }

    #[test]
    fn figures_come_from_steal_free_slices_else_the_whole_window() {
        let slice = |ops, steal_ticks, get| run::Slice {
            secs: 0.05,
            get_ns: vec![get],
            ops,
            steal_ticks,
            ..run::Slice::default()
        };
        let mut t = Tally {
            slices: vec![slice(40, 0, 700), slice(10, 3, 5_000), slice(60, 0, 900)],
            ..Tally::default()
        };
        let q = reported(&t);
        assert_eq!(
            (q.slices, q.ops, q.get_ns.clone()),
            (2, 100, vec![700, 900])
        );
        assert!((q.ops_per_s() - 1_000.0).abs() < 1e-9);
        t.slices.retain(|s| s.steal_ticks > 0);
        assert_eq!(reported(&t).ops, 10);
        assert_eq!(setup_s(&[(0.3, 0), (0.9, 2), (0.1, 0), (0.2, 0)]), (0.2, 3));
        assert_eq!(setup_s(&[(0.3, 1), (0.1, 4)]), (0.1, 2));
    }

    #[test]
    fn point_mixed_smoke_run() {
        smoke(Workload::PointMixed);
    }

    #[test]
    fn read_lease_smoke_run() {
        smoke(Workload::ReadLease);
    }

    #[test]
    fn bulk_write_smoke_run() {
        smoke(Workload::BulkWrite);
    }
}
