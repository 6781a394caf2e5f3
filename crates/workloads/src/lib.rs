//! # flowsched-workloads
//!
//! Workload generators: the paper's lower-bound adversaries and random
//! instance families.
//!
//! - [`adversary`]: one module per theorem —
//!   - Theorem 3 (inclusive sets, immediate dispatch, `≥ ⌊log₂ m + 1⌋`),
//!   - Theorem 4 (size-`k` sets, immediate dispatch, `≥ ⌊log_k m⌋`),
//!   - Theorem 5 (nested sets, any online, `≥ ⅓⌊log₂ m + 2⌋`),
//!   - Theorem 7 (size-`k` intervals, any online, `≥ 2`),
//!   - Theorem 8/9 (size-`k` intervals, EFT-Min / EFT-Rand,
//!     `≥ m − k + 1`),
//!   - Theorem 10 (the `δ/ε` small-task padding extending Theorem 8 to
//!     every tie-break policy).
//!
//!   Each adversary drives any
//!   [`ImmediateDispatcher`](flowsched_algos::ImmediateDispatcher)
//!   through a [`ReleaseLog`] and returns an [`AdversaryOutcome`]: the
//!   instance it built, the schedule the algorithm committed to, and
//!   the paper's offline optimum. [`adversary::search`] checks the
//!   bounds' tightness: it searches small unit-task streams for
//!   EFT-Min's worst ratio against the exact optimum.
//!
//! - [`faults`]: seeded random [`FaultPlan`](flowsched_core::FaultPlan)
//!   generation — per-machine Poisson crash/recover processes, degraded
//!   speeds, dispatch latency — for the fault-injection layer.
//! - [`random`]: seeded random workloads over every structure class, for
//!   property tests and benchmarks — materialized ([`random_instance`])
//!   or as a constant-memory Poisson stream ([`PoissonStream`]).
//! - [`trace`]: key-level request traces (explicit keyspace, per-key Zipf
//!   popularity, replication by strategy) — the fine-grained model whose
//!   aggregation is the paper's machine-level popularity; batch
//!   ([`generate_trace`]) or streaming ([`TraceStream`]).
//! - [`weighted`]: the light-burst-then-heavy stream punishing
//!   weight-oblivious dispatch under the weighted max flow objective
//!   ([`WeightedBurstStream`]).
//! - [`setup_thrash`]: interleaved overlapping key clusters forcing a
//!   setup-oblivious dispatcher to pay the switch cost on nearly every
//!   task ([`SetupThrashStream`]).

pub mod adversary;
pub mod faults;
pub mod outcome;
pub mod random;
pub mod setup_thrash;
pub mod trace;
pub mod weighted;

pub use adversary::fixed_size::fixed_size_adversary;
pub use adversary::inclusive::inclusive_adversary;
pub use adversary::interval::{interval_adversary_instance, run_interval_adversary};
pub use adversary::nested::nested_adversary;
pub use adversary::padded::padded_interval_adversary;
pub use adversary::search::{exhaustive_worst_ratio, greedy_adversary_stream, interval_types};
pub use adversary::staircase::{run_staircase, run_staircase_with_exact_opt, staircase_round};
pub use adversary::theorem7::theorem7_adversary;
pub use faults::{random_fault_plan, FaultPlanConfig};
pub use outcome::{AdversaryOutcome, ReleaseLog};
pub use random::{
    random_instance, PoissonStream, PoissonStreamConfig, RandomInstanceConfig, StructureKind,
};
pub use setup_thrash::SetupThrashStream;
pub use trace::{generate_trace, Trace, TraceConfig, TraceStream};
pub use weighted::WeightedBurstStream;
