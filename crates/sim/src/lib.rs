//! Deterministic discrete-event simulator for the crash-recovery model.
//!
//! The paper evaluates its emulations on nine LAN workstations; this crate
//! is the corresponding *simulated* testbed, and more: because time,
//! message delays, log latencies, message loss and crashes are all under
//! the control of a seeded scheduler, it can
//!
//! * reproduce the paper's latency experiments exactly (δ ≈ 100 µs one-way
//!   network delay, λ ≈ 200 µs synchronous log — §I-B/§V-B), measured in
//!   *virtual* time with zero noise;
//! * inject crashes between any two events — including mid-operation, the
//!   situation the whole paper is about — and recover processes from their
//!   surviving [`MemStorage`](rmem_storage::MemStorage);
//! * record complete operation [histories](rmem_consistency::History) so
//!   the atomicity checkers can certify every run;
//! * count **causal logs** per operation by tracking store→send causality
//!   through the event graph (see [`trace`]), turning the paper's central
//!   complexity metric into a measured quantity.
//!
//! # One node implementation, two hosts
//!
//! Each simulated process is an [`rmem_core::NodeCore`] — the same node
//! implementation `rmem-net`'s runner hosts on real threads, with its
//! per-register FIFO operation table, timer set and op-id counter. The
//! engine is the core's virtual-time host: it hands each core its events
//! with the virtual time, performs the effects (sends through the network
//! model, stores through the disk model, replies to the issuing client),
//! and ticks it at its next timer deadline. A crash drops the core; a
//! recovery builds a new one from [`AutomatonFactory::recover`](rmem_types::AutomatonFactory::recover).
//! Its observability handle is disabled, so the core reads no clock.
//!
//! The simulated network is *fair-lossy* (§II): it may drop or duplicate
//! any message (configurably), but a message sent infinitely often to a
//! correct process is delivered infinitely often — which holds because
//! drops are independent coin flips with probability < 1 and the automata
//! retransmit.
//!
//! # Example
//!
//! ```
//! use rmem_sim::{ClusterConfig, Simulation};
//! use rmem_types::{Action, Automaton, AutomatonFactory, Input, ProcessId, StableSnapshot};
//!
//! // A do-nothing automaton, just to drive the engine.
//! struct Idle;
//! impl Automaton for Idle {
//!     fn on_input(&mut self, _input: Input, _out: &mut Vec<Action>) {}
//!     fn algorithm(&self) -> &'static str { "idle" }
//! }
//! struct IdleFactory;
//! impl AutomatonFactory for IdleFactory {
//!     fn fresh(&self, _me: ProcessId, _n: usize) -> Box<dyn Automaton> { Box::new(Idle) }
//!     fn recover(&self, _me: ProcessId, _n: usize, _inc: u64, _s: &dyn StableSnapshot) -> Box<dyn Automaton> {
//!         Box::new(Idle)
//!     }
//!     fn algorithm(&self) -> &'static str { "idle" }
//! }
//!
//! let mut sim = Simulation::new(ClusterConfig::new(3), std::sync::Arc::new(IdleFactory), 42);
//! let report = sim.run();
//! assert_eq!(report.trace.operations().len(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod event;
pub mod matrix;
pub mod network;
pub mod render;
pub mod stats;
pub mod time;
pub mod trace;
pub mod workload;

pub use config::{ClusterConfig, DiskConfig, NetConfig};
pub use engine::{SimReport, Simulation};
pub use matrix::{ChaosPlan, ClientCrash, FaultWindow, MatrixSpec, WritePhase};
pub use stats::LatencyStats;
pub use time::VirtualTime;
pub use trace::{OpRecord, Trace};
pub use workload::{KeyDistribution, PlannedEvent, Schedule};
