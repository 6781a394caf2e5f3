//! # flowsched-core
//!
//! Core model types for online scheduling with processing set restrictions,
//! following the model of Canon, Dugois and Marchal, *"Bounding the Flow Time
//! in Online Scheduling with Structured Processing Sets"* (INRIA RR-9446,
//! 2022).
//!
//! The problem studied is `P | online-rᵢ, Mᵢ | Fmax`: a set of `n` tasks
//! `T₁, …, Tₙ` must be scheduled on `m` identical machines `M₁, …, Mₘ`.
//! Each task `Tᵢ` has a release time `rᵢ ≥ 0`, a processing time `pᵢ > 0`,
//! and a *processing set* `Mᵢ ⊆ M` of machines allowed to run it.
//! Preemption is forbidden and a machine runs one task at a time. The
//! objective is the *maximum flow time* `Fmax = maxᵢ (Cᵢ − rᵢ)` where `Cᵢ`
//! is the completion time of `Tᵢ`.
//!
//! This crate provides:
//!
//! - [`Task`], [`Instance`]: the input model (tasks sorted by release time,
//!   as the paper assumes `i < j ⇒ rᵢ ≤ rⱼ`).
//! - [`ProcSet`]: a processing set over machine indices, with interval and
//!   circular-interval detection.
//! - [`ProcSetRef`]: compact borrowed views of processing sets (interval,
//!   ring segment, prefix, explicit slice) — what arrival streams lend so
//!   structured workloads never materialize per-task machine vectors.
//! - [`structure`]: predicates and classification for the structured
//!   families of the paper (inclusive ⊂ nested ⊂ interval, disjoint ⊂
//!   nested — Figure 1 of the paper).
//! - [`Schedule`]: an assignment of tasks to `(machine, start time)` pairs
//!   with full validity checking and flow-time metrics.
//! - [`profile`]: the *schedule profile* `w_t(j)` (waiting work per machine)
//!   used throughout the proof of the paper's Theorem 8.
//! - [`stream`]: the lazy [`ArrivalStream`] contract — tasks revealed one
//!   release at a time, the genuinely online view the engines consume.
//! - [`shard`]: contiguous machine-ownership partitions ([`ShardPlan`])
//!   that the structured families induce, the routing contract of the
//!   parallel sharded engine.
//! - [`fault`]: deterministic fault injection — [`FaultPlan`] outage /
//!   speed / latency traces and the [`FaultyStream`] adapter that rewrites
//!   arrivals against the currently-alive machine set.
//! - [`gantt`]: ASCII rendering of schedules, used to regenerate the
//!   paper's Figure 3.
//! - [`io`]: validated JSON (de)serialization of instances and schedules.

pub mod compact;
pub mod error;
pub mod fault;
pub mod gantt;
pub mod instance;
pub mod io;
pub mod machine;
pub mod procset;
pub mod profile;
pub mod schedule;
pub mod shard;
pub mod stream;
pub mod structure;
pub mod task;
pub mod time;

pub use compact::{CompactProcSet, ProcSetRef, ProcSetRefIter};
pub use error::CoreError;
pub use fault::{FaultEvent, FaultEventKind, FaultPlan, FaultyStream, MachineFaults, Outage};
pub use instance::{Instance, InstanceBuilder};
pub use io::{instance_from_json, instance_to_json, schedule_from_json, schedule_to_json};
pub use machine::MachineId;
pub use procset::ProcSet;
pub use schedule::{Assignment, Schedule};
pub use shard::{ShardPlan, DEFAULT_MAX_SHARDS};
pub use stream::{collect_stream, ArrivalStream, FnStream, InstanceStream};
pub use structure::{ProcSetStructure, StructureReport};
pub use task::{Task, TaskId};
pub use time::Time;

/// Convenience prelude re-exporting the most used types.
pub mod prelude {
    pub use crate::compact::ProcSetRef;
    pub use crate::instance::{Instance, InstanceBuilder};
    pub use crate::machine::MachineId;
    pub use crate::procset::ProcSet;
    pub use crate::schedule::{Assignment, Schedule};
    pub use crate::stream::{ArrivalStream, InstanceStream};
    pub use crate::structure::ProcSetStructure;
    pub use crate::task::{Task, TaskId};
    pub use crate::time::Time;
}
