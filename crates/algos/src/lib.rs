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
//! - [`eft`](mod@eft): Earliest Finish Time — the immediate-dispatch
//!   scheduler of Algorithm 2, with processing-set support
//!   (Equation (2)), and [`EftState`], the one dispatch core of every
//!   EFT-family policy: a kernel finds Equation (2)'s tie set and a
//!   start rule decides among the members (the module docs carry the
//!   argument why every rule runs on the EFT kernel).
//! - [`indexed`]: the indexed kernel — an 8-ary lane index of minima
//!   over the completion bank answering Equation (2) in O(log m) per
//!   task over interval, prefix and ring
//!   [`ProcSetRef`](flowsched_core::ProcSetRef) views, bitwise-identical
//!   to the member scan, which answers explicit sets on either kernel.
//!   `Auto` chooses between the two once per dispatcher, from the
//!   source's structure promise, when the dispatcher is built.
//! - [`weighted`] and [`setup`]: the start rules beyond plain EFT —
//!   weighted-EFT packing for `max wᵢ·Fᵢ` (Azar–Touitou) and
//!   setup-aware dispatch for batch-by-key serving (Mäcker et al.), each
//!   reproducing plain EFT bitwise at a zero parameter.
//! - [`faulty`]: availability-aware dispatch over a
//!   [`FaultPlan`](flowsched_core::FaultPlan) for every policy — starts
//!   skip outage windows, stranded tasks re-queue on recovery, and a
//!   fault-free plan reproduces the plain engine bitwise (run through
//!   [`Run::with_faults`]).
//! - [`registry`]: the name-addressable policy registry — a
//!   [`PolicySpec`] parseable from strings like `eft:min:indexed`,
//!   resolving kernels and shard-local seeds through one construction
//!   path that every engine entry point, sim driver, and bench bin
//!   shares.
//! - [`policies`]: the non-EFT immediate-dispatch rules (random,
//!   power-of-d choices, round-robin).
//! - [`fifo`](mod@fifo): the centralized-queue FIFO scheduler of Algorithm 1,
//!   implemented as a genuine event simulation so that Proposition 1
//!   (FIFO ≡ EFT on `P | online-rᵢ | Fmax`) is *tested*, not assumed.
//! - [`offline`]: reference values — the exact offline optimum for
//!   unit-task instances (binary search on the flow budget with a
//!   Hopcroft–Karp feasibility oracle), an exhaustive optimum for tiny
//!   general instances, and polynomial lower bounds on `F*max` used to
//!   report competitive ratios when the exact optimum is out of reach.

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

pub use compose::compose_disjoint;
pub use eft::{eft, eft_stream, EftState, ImmediateDispatcher};
pub use engine::{
    immediate_schedule, run_fifo, run_immediate, run_policy_sharded, run_policy_sharded_probed,
    DispatchSink, NullSink, Run, ShardedConfig,
};
pub use exact::{approx_fmax, exact_fmax, ExactResult};
pub use fifo::{fifo, fifo_stream};
pub use indexed::{DispatchKernel, KernelStats};
pub use localsearch::{eft_plus_local_search, improve};
pub use offline::{
    brute_force_fmax, fmax_lower_bound, optimal_unit_fmax, optimal_unit_weighted_fmax,
};
pub use policies::Dispatcher;
pub use preemptive::optimal_preemptive_fmax;
pub use registry::{ParsePolicyError, PolicyId, PolicySpec, PolicyState};
pub use setup::cluster_fingerprint;
pub use soa::CompletionBank;
pub use tiebreak::TieBreak;

/// Most used items for downstream crates.
pub mod prelude {
    pub use crate::eft::{eft, eft_stream, EftState, ImmediateDispatcher};
    pub use crate::engine::{run_fifo, run_immediate, Run, ShardedConfig};
    pub use crate::exact::{exact_fmax, ExactResult};
    pub use crate::fifo::{fifo, fifo_stream};
    pub use crate::indexed::DispatchKernel;
    pub use crate::offline::{
        brute_force_fmax, fmax_lower_bound, optimal_unit_fmax, optimal_unit_weighted_fmax,
    };
    pub use crate::policies::Dispatcher;
    pub use crate::preemptive::optimal_preemptive_fmax;
    pub use crate::registry::{PolicyId, PolicySpec, PolicyState};
    pub use crate::soa::CompletionBank;
    pub use crate::tiebreak::TieBreak;
}
