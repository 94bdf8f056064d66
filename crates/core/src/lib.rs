//! Robust shared-memory emulations for the crash-recovery model.
//!
//! This crate implements the algorithms of Guerraoui & Levy, *Robust
//! Emulations of Shared Memory in a Crash-Recovery Model* (ICDCS 2004):
//! multi-writer/multi-reader atomic register emulations over an
//! asynchronous, fair-lossy message-passing system in which any process may
//! crash, lose its volatile state, and recover with only its stable
//! storage.
//!
//! # The register family
//!
//! | register | criterion | causal logs (write / read) | read rounds (fast path) | pseudocode |
//! |---|---|---|---|---|
//! | [`CrashStop`] | atomicity, crash-stop only | 0 / 0 | 2 (baseline kept unoptimised) | Lynch–Shvartsman-style baseline the paper extends |
//! | [`Persistent`] | **persistent atomicity** | **2 / 1** (reads log-free without write concurrency) | **1** quiescent / 2 contended | Fig. 4 |
//! | [`Transient`] | **transient atomicity** | **1 / 1** | **1** quiescent / 2 contended | Fig. 5 |
//! | [`Regular`] | SWMR regularity (§VI extension) | 1 / 0 | 1 (always single-round) | — |
//!
//! Both crash-recovery emulations match the paper's lower bounds
//! (Theorems 1 and 2) — the counts above are *optimal* — and their worst
//! case uses the same number of communication steps as the crash-stop
//! baseline: two round-trips (4 steps) per operation. The
//! confirmed-timestamp read fast path ([`Flavor::read_fast_path`], on by
//! default for the atomic crash-recovery flavors) halves quiescent reads
//! to one round-trip: the write-back may be skipped **only** when every
//! replier in the read quorum reported the same tag and attested it
//! durable — then a majority stably holds the tag and no later quorum
//! can miss it; any disagreement or volatile tag falls back to the full
//! two-round read.
//!
//! All registers share one quorum-and-replica machinery
//! ([`generic::RegisterAutomaton`]), configured by a [`Flavor`] — exactly
//! how the paper presents Fig. 5 as "the same structure as the algorithm of
//! Fig. 4 but with a few minor changes". The [`ablation`] module exposes
//! deliberately weakened flavors that realise the anomalies from the
//! lower-bound proofs (runs ρ1–ρ4), so tests can demonstrate that each log
//! the paper requires is actually load-bearing.
//!
//! Algorithms are [`rmem_types::Automaton`]s: pure event-driven state
//! machines, runnable unchanged under the deterministic simulator
//! (`rmem-sim`) and the real socket runtime (`rmem-net`).
//!
//! # Example
//!
//! ```
//! use rmem_core::Persistent;
//! use rmem_types::AutomatonFactory;
//!
//! let factory = Persistent::factory();
//! let automaton = factory.fresh(rmem_types::ProcessId(0), 3);
//! assert_eq!(automaton.algorithm(), "persistent");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod flavor;
pub mod generic;
pub mod memory;
pub mod node;
pub mod quorum;
pub mod replica;

pub use flavor::{Flavor, RecoveryPolicy};
pub use generic::{FlavorFactory, RegisterAutomaton};
pub use memory::{SharedMemory, SharedMemoryAutomaton};
pub use node::{Effect, NodeCore, NodeEvent};

use rmem_types::Micros;

/// Default retransmission period for unacknowledged quorum rounds.
///
/// 2 ms ≈ 20× the one-way LAN delay — late enough to be quiet on a healthy
/// network, early enough that lost messages only stall an operation
/// briefly.
pub const DEFAULT_RETRANSMIT: Micros = Micros(2_000);

macro_rules! register_front {
    ($(#[$doc:meta])* $name:ident, $flavor:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $name;

        impl $name {
            /// The flavor configuring the shared register machinery.
            pub fn flavor() -> Flavor {
                $flavor
            }

            /// An [`rmem_types::AutomatonFactory`] producing this register's
            /// automata with the default retransmission period.
            pub fn factory() -> std::sync::Arc<FlavorFactory> {
                std::sync::Arc::new(FlavorFactory::new(Self::flavor(), DEFAULT_RETRANSMIT))
            }

            /// As [`factory`](Self::factory) with a custom retransmission
            /// period.
            pub fn factory_with_retransmit(retransmit: Micros) -> std::sync::Arc<FlavorFactory> {
                std::sync::Arc::new(FlavorFactory::new(Self::flavor(), retransmit))
            }
        }
    };
}

register_front!(
    /// The **persistent atomic** register (paper Fig. 4).
    ///
    /// Atomicity survives crashes entirely: to every observer the register
    /// behaves as if no process ever failed. Costs the optimal 2 causal
    /// logs per write (the writer's `writing` pre-log, then the replicas'
    /// `written` logs in parallel) and 1 per read (the write-back round's
    /// replica logs — skipped, hence free, when the read is not concurrent
    /// with a write). On recovery a process finishes its interrupted write
    /// before serving again (Fig. 4 lines 40–47).
    Persistent,
    Flavor::persistent()
);

register_front!(
    /// The **transient atomic** register (paper Fig. 5).
    ///
    /// One causal log per write — the writer broadcasts immediately and
    /// only the replicas log. The price (§III-C): if a writer crashes
    /// mid-write and writes again after recovering, the unfinished write
    /// may appear to overlap the new one. A stable recovery counter folded
    /// into sequence numbers (Fig. 5 line 11) keeps timestamps
    /// monotone across the writer's crashes.
    Transient,
    Flavor::transient()
);

register_front!(
    /// The crash-stop atomic register baseline (no logging at all).
    ///
    /// The multi-writer algorithm of Lynch & Shvartsman the paper builds
    /// on, included to isolate the cost of logging exactly as the paper's
    /// first experiment does. Under crashes it loses written values — the
    /// point of the comparison.
    CrashStop,
    Flavor::crash_stop()
);

register_front!(
    /// A single-writer **regular** register for the crash-recovery model
    /// (the §VI discussion made concrete).
    ///
    /// Writes cost 1 causal log and one round-trip (the single writer
    /// needs no query round); reads are one round-trip and never log —
    /// permitted because regularity tolerates new-old inversions. The §VI
    /// punchline is measurable with it: when logging dominates cost,
    /// regular memory saves *nothing* over transient atomic memory on
    /// writes, and transient reads are already log-free absent
    /// concurrency.
    Regular,
    Flavor::regular()
);
