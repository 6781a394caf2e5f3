//! # flowsched-algos
//!
//! The paper's scheduling algorithms and the reference solvers used to
//! measure them:
//!
//! - [`engine`]: the streaming scheduler core — one generic
//!   discrete-event engine per algorithm family (immediate dispatch and
//!   central-queue FIFO), driving any
//!   [`ArrivalStream`](flowsched_core::ArrivalStream) under any
//!   [`Recorder`](flowsched_obs::Recorder) into any [`DispatchSink`].
//!   A [`Run`] describes one dispatch run of a registry policy —
//!   optionally under a fault plan, optionally sharded — with one
//!   sequential and one sharded path. On the sharded path, when the
//!   stream's processing sets partition the machines into clusters,
//!   each cluster dispatches on its own worker thread and the decisions
//!   merge back in arrival order, bitwise-identical to the sequential
//!   run.
//! - [`tiebreak`]: the tie-break policies distinguishing EFT-Min
//!   (Algorithm 3), EFT-Max, and EFT-Rand (Algorithm 4).
//! - [`eft`](mod@eft): Earliest Finish Time — the immediate-dispatch scheduler of
//!   Algorithm 2, with processing-set support (Equation (2)), both as a
//!   whole-instance driver and as an incremental [`eft::EftState`] for
//!   discrete-event simulation.
//! - [`indexed`]: the structure-aware dispatch kernels — an 8-ary
//!   lane index of minima over the completion bank plus cluster heaps
//!   answering Equation (2) in O(log m) per task over compact
//!   [`ProcSetRef`](flowsched_core::ProcSetRef) views, bitwise-identical
//!   to the scalar path.
//! - [`faulty`]: availability-aware EFT over a
//!   [`FaultPlan`](flowsched_core::FaultPlan) — candidate starts skip
//!   outage windows, stranded tasks re-queue on recovery, and a
//!   fault-free plan reproduces the plain engine bitwise (run through
//!   [`Run::with_faults`]).
//! - [`registry`]: the name-addressable policy registry — a
//!   [`PolicySpec`] parseable from strings like `eft:min:indexed`,
//!   resolving kernels and shard-local seeds through one construction
//!   path that every engine entry point, sim driver, and bench bin
//!   shares.
//! - [`weighted`]: weighted-EFT packing for the weighted max flow time
//!   objective `max wᵢ·Fᵢ` (Azar–Touitou), with `weft@0` reproducing
//!   plain EFT bitwise.
//! - [`setup`]: setup-aware dispatch for batch-by-key serving (Mäcker
//!   et al.) — per-machine key-cluster state, a setup cost charged on
//!   switches, and a setup-oblivious baseline; `setup@0` reproduces
//!   plain EFT bitwise.
//! - [`fifo`](mod@fifo): the centralized-queue FIFO scheduler of Algorithm 1,
//!   implemented as a genuine event simulation so that Proposition 1
//!   (FIFO ≡ EFT on `P | online-rᵢ | Fmax`) is *tested*, not assumed.
//! - [`offline`]: reference values — the exact offline optimum for
//!   unit-task instances (binary search on the flow budget with a
//!   Hopcroft–Karp feasibility oracle), an exhaustive optimum for tiny
//!   general instances, and polynomial lower bounds on `F*max` used to
//!   report competitive ratios when the exact optimum is out of reach.

pub mod adaptive;
pub mod compose;
pub mod eft;
pub mod engine;
pub mod exact;
pub mod faulty;
pub mod fifo;
pub mod indexed;
pub mod localsearch;
pub mod offline;
pub mod policies;
pub mod preemptive;
pub mod registry;
pub mod setup;
pub mod soa;
pub mod tiebreak;
pub mod weighted;

pub use adaptive::{AdaptiveEftState, ADAPTIVE_WARMUP_ARRIVALS};

pub use compose::compose_disjoint;
pub use eft::{eft, eft_stream, EftState, ImmediateDispatcher};
pub use engine::{
    fifo_schedule, immediate_schedule, run_fifo, run_immediate, run_policy_sharded,
    run_policy_sharded_probed, DispatchSink, NullSink, Run, ShardedConfig,
};
pub use exact::{approx_fmax, exact_fmax, ExactResult};
pub use faulty::FaultyEftState;
pub use fifo::{fifo, fifo_stream};
pub use indexed::{
    indexed_min_width, DispatchKernel, EftKernelState, IndexedEftState, KernelStats,
    AUTO_INDEXED_MIN_MACHINES,
};
pub use localsearch::{eft_plus_local_search, improve};
pub use offline::{
    brute_force_fmax, fmax_lower_bound, optimal_unit_fmax, optimal_unit_weighted_fmax,
};
pub use policies::{dispatch_stream, DispatchRule, Dispatcher};
pub use preemptive::optimal_preemptive_fmax;
pub use registry::{ParsePolicyError, PolicyId, PolicySpec, PolicyState};
pub use setup::{cluster_fingerprint, SetupEftState};
pub use soa::{CompletionBank, ScanImpl, SoaMinHeap};
pub use tiebreak::TieBreak;
pub use weighted::WeightedEftState;

/// Most used items for downstream crates.
pub mod prelude {
    pub use crate::eft::{eft, eft_stream, EftState, ImmediateDispatcher};
    pub use crate::engine::{run_fifo, run_immediate, Run, ShardedConfig};
    pub use crate::exact::{exact_fmax, ExactResult};
    pub use crate::faulty::FaultyEftState;
    pub use crate::fifo::{fifo, fifo_stream};
    pub use crate::indexed::{DispatchKernel, EftKernelState, IndexedEftState};
    pub use crate::offline::{
        brute_force_fmax, fmax_lower_bound, optimal_unit_fmax, optimal_unit_weighted_fmax,
    };
    pub use crate::policies::{DispatchRule, Dispatcher};
    pub use crate::preemptive::optimal_preemptive_fmax;
    pub use crate::registry::{PolicyId, PolicySpec, PolicyState};
    pub use crate::setup::SetupEftState;
    pub use crate::soa::{CompletionBank, ScanImpl};
    pub use crate::tiebreak::TieBreak;
    pub use crate::weighted::WeightedEftState;
}
