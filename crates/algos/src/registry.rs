//! The dispatch-policy registry: one name-addressable surface over
//! every immediate-dispatch algorithm in the workspace.
//!
//! Every engine entry point, sim driver and bench bin builds its
//! dispatcher here:
//!
//! - [`PolicyId`]: *which algorithm* — EFT under a tie-break, random,
//!   power-of-d choices, round-robin, weighted-EFT
//!   ([`weighted`](crate::weighted)), setup-aware EFT
//!   ([`setup`](crate::setup));
//! - [`PolicySpec`]: a `PolicyId` plus the [`DispatchKernel`] choice,
//!   parseable from and printable to a stable string form
//!   (`eft:min:indexed`, `weft@4:max`, `setup@0.5`, `random@7`…) so
//!   bench bins and CI address policies by name;
//! - [`PolicyState`]: the built dispatcher, a plain
//!   [`ImmediateDispatcher`] the engines drive like any other. The EFT
//!   family — `eft`, `weft`, `setup`, `setup-obl` — is one
//!   [`EftState`] core under a start rule; random, power-of-d and
//!   round-robin are a [`Dispatcher`]. Every policy takes a
//!   [`FaultPlan`] ([`build_faulty`](PolicySpec::build_faulty)).
//!
//! **Resolution invariants** (pinned by `tests/policy_registry.rs`):
//!
//! 1. Every dispatcher fixes its kernel when it is built.
//!    [`PolicySpec::build_for_stream`] resolves `Auto` against the
//!    stream's structure hint ([`DispatchKernel::resolve_for_stream`]),
//!    as a [`Run`](crate::engine::Run) does once per run, so every shard
//!    of a sharded run gets the sequential run's kernel;
//!    [`PolicySpec::build`] and [`PolicySpec::build_faulty`] have no
//!    stream, so their `Auto` is the member scan. The kernel never
//!    changes a decision: every kernel and every construction path
//!    yields the same schedule, recorder trace and RNG draws.
//! 2. [`PolicySpec::for_shard`] derives shard-local policies with
//!    exactly [`TieBreak::for_shard`]'s semantics: shard 0 keeps its
//!    seed (a single-shard run reproduces the sequential stream), other
//!    shards mix the shard index via the SplitMix64 golden-ratio
//!    increment. Seeded non-EFT rules (`random`, `choices`) decorrelate
//!    the same way.
//! 3. Every registered id round-trips through its string form:
//!    `spec.to_string().parse() == spec`.
//!
//! The string grammar, `:`-separated:
//!
//! ```text
//! spec     := family [":" tie] [":" kernel]     (any order)
//! family   := "eft" | "rr" | "random@SEED" | "choices@D,SEED"
//!           | "weft@SLACK" | "setup@COST" | "setup-obl@COST"
//! tie      := "min" | "max" | "rand@SEED"        (eft/weft/setup only)
//! kernel   := "auto" | "scalar" | "indexed"
//! ```

use std::fmt;
use std::str::FromStr;

use flowsched_core::compact::ProcSetRef;
use flowsched_core::fault::FaultPlan;
use flowsched_core::schedule::Assignment;
use flowsched_core::stream::ArrivalStream;
use flowsched_core::task::Task;
use flowsched_core::time::Time;

use crate::eft::{EftState, ImmediateDispatcher, StartRule};
use crate::faulty::FaultyEftState;
use crate::indexed::{DispatchKernel, EftKernelState, KernelStats};
use crate::policies::Dispatcher;
use crate::setup::SetupRule;
use crate::tiebreak::{shard_seed, TieBreak};

/// Which dispatch algorithm to run — the registry's name space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyId {
    /// Earliest finish time (paper Algorithm 2) under a tie-break.
    Eft {
        /// Tie-break over the Equation (2) tie set.
        tie: TieBreak,
    },
    /// Uniformly random member of the processing set (load-oblivious).
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Power-of-d-choices: sample `d` members, take the least loaded.
    Choices {
        /// Number of sampled candidates (`d ≥ 1`).
        d: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Round-robin over each distinct processing set.
    RoundRobin,
    /// Weighted-EFT packing for `max wᵢ·Fᵢ` (Azar–Touitou; see
    /// [`weighted`](crate::weighted)).
    WeightedEft {
        /// Tie-break over the packing tie set.
        tie: TieBreak,
        /// Packing budget `θ` — a weight-`w` task tolerates `θ/w` delay.
        slack: Time,
    },
    /// Setup-aware EFT for batch-by-key serving (Mäcker et al.; see
    /// [`setup`](crate::setup)).
    SetupEft {
        /// Tie-break over the members with the least start key.
        tie: TieBreak,
        /// Setup cost charged on every cluster switch.
        cost: Time,
        /// `true`: the machine choice sees setups; `false`: plain EFT
        /// choice that still pays them (the thrashing baseline).
        aware: bool,
    },
}

impl PolicyId {
    /// The policy a sharded engine's shard `s` dispatcher runs — see
    /// resolution invariant 2 in the module docs.
    pub fn for_shard(self, shard: usize) -> PolicyId {
        match self {
            PolicyId::Eft { tie } => PolicyId::Eft {
                tie: tie.for_shard(shard),
            },
            PolicyId::Random { seed } => PolicyId::Random {
                seed: shard_seed(seed, shard),
            },
            PolicyId::Choices { d, seed } => PolicyId::Choices {
                d,
                seed: shard_seed(seed, shard),
            },
            PolicyId::RoundRobin => PolicyId::RoundRobin,
            PolicyId::WeightedEft { tie, slack } => PolicyId::WeightedEft {
                tie: tie.for_shard(shard),
                slack,
            },
            PolicyId::SetupEft { tie, cost, aware } => PolicyId::SetupEft {
                tie: tie.for_shard(shard),
                cost,
                aware,
            },
        }
    }
}

/// A fully-specified dispatch policy: algorithm plus kernel choice.
/// Only the EFT family consults the kernel (the others have no index to
/// select); it is carried — and round-tripped — for all of them so a
/// spec string names one construction unambiguously.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicySpec {
    /// Which algorithm.
    pub id: PolicyId,
    /// Which EFT dispatch kernel ([`DispatchKernel::Auto`] by default).
    pub kernel: DispatchKernel,
}

impl PolicySpec {
    /// A spec with the automatic kernel.
    pub fn new(id: PolicyId) -> Self {
        PolicySpec {
            id,
            kernel: DispatchKernel::Auto,
        }
    }

    /// Shorthand for the EFT family.
    pub fn eft(tie: TieBreak, kernel: DispatchKernel) -> Self {
        PolicySpec {
            id: PolicyId::Eft { tie },
            kernel,
        }
    }

    /// This spec with the kernel replaced.
    pub fn with_kernel(self, kernel: DispatchKernel) -> Self {
        PolicySpec { kernel, ..self }
    }

    /// Shard-local spec — applies [`PolicyId::for_shard`], keeping the
    /// kernel choice (the sharded engine resolves `Auto` at the shard's
    /// width before it builds the shard's dispatcher).
    pub fn for_shard(self, shard: usize) -> PolicySpec {
        PolicySpec {
            id: self.id.for_shard(shard),
            kernel: self.kernel,
        }
    }

    /// Builds the dispatcher for `m` machines — the single construction
    /// path every engine entry point funnels through (resolution
    /// invariant 1). With no stream there is no structure promise, so
    /// `Auto` builds the member scan; use
    /// [`build_for_stream`](PolicySpec::build_for_stream) to let a
    /// stream's promise choose.
    ///
    /// # Panics
    /// Panics when `m == 0` or a policy parameter is out of range
    /// (`d == 0`, negative slack/cost).
    pub fn build(&self, m: usize) -> PolicyState {
        self.build_with(m, None)
    }

    /// [`build`](PolicySpec::build) with the kernel first resolved
    /// against the stream's structure hint
    /// ([`DispatchKernel::resolve_for_stream`]).
    pub fn build_for_stream<S>(&self, stream: &S) -> PolicyState
    where
        S: ArrivalStream + ?Sized,
    {
        self.with_kernel(self.kernel.resolve_for_stream(stream))
            .build(stream.machines())
    }

    /// Builds the dispatcher for the machines of `plan`, scheduling
    /// around its outages (see [`faulty`](crate::faulty)).
    ///
    /// # Panics
    /// As [`build`](PolicySpec::build); the plan must cover at least one
    /// machine.
    pub fn build_faulty(&self, plan: FaultPlan) -> FaultyEftState {
        self.build_with(plan.machines(), Some(plan))
    }

    fn build_with(&self, m: usize, faults: Option<FaultPlan>) -> PolicyState {
        let (tie, rule) = match self.id {
            PolicyId::Eft { tie } => (tie, StartRule::Plain),
            PolicyId::WeightedEft { tie, slack } => {
                assert!(slack >= 0.0, "packing slack must be non-negative");
                (tie, StartRule::Weighted { slack })
            }
            PolicyId::SetupEft { tie, cost, aware } => {
                (tie, StartRule::Setup(SetupRule::new(m, cost, aware)))
            }
            id => {
                let rule = Dispatcher::new(m, id);
                return PolicyState::Rule(match faults {
                    Some(plan) => rule.with_faults(plan),
                    None => rule,
                });
            }
        };
        let mut core = EftState::new(m, tie).with_rule(rule);
        if let Some(plan) = faults {
            core = core.with_faults(plan);
        }
        let core = core.with_kernel(self.kernel);
        PolicyState::Eft(Box::new(match self.kernel {
            DispatchKernel::Scalar => EftKernelState::Scalar(core),
            DispatchKernel::Indexed => EftKernelState::Indexed(core),
            DispatchKernel::Auto => EftKernelState::Adaptive(core),
        }))
    }

    /// One spec per registered family/variant, used by the round-trip
    /// and equivalence suites. Covers every [`PolicyId`] constructor,
    /// every tie-break shape, and every kernel choice.
    pub fn examples() -> Vec<PolicySpec> {
        let mut out = Vec::new();
        for kernel in [
            DispatchKernel::Auto,
            DispatchKernel::Scalar,
            DispatchKernel::Indexed,
        ] {
            for tie in [TieBreak::Min, TieBreak::Max, TieBreak::Rand { seed: 42 }] {
                out.push(PolicySpec::eft(tie, kernel));
            }
        }
        out.push(PolicySpec::new(PolicyId::Random { seed: 7 }));
        out.push(PolicySpec::new(PolicyId::Choices { d: 2, seed: 7 }));
        out.push(PolicySpec::new(PolicyId::RoundRobin));
        for tie in [TieBreak::Min, TieBreak::Max, TieBreak::Rand { seed: 9 }] {
            out.push(PolicySpec::new(PolicyId::WeightedEft { tie, slack: 2.5 }));
            out.push(PolicySpec::new(PolicyId::SetupEft {
                tie,
                cost: 0.5,
                aware: true,
            }));
            out.push(PolicySpec::new(PolicyId::SetupEft {
                tie,
                cost: 0.5,
                aware: false,
            }));
        }
        out.push(PolicySpec::new(PolicyId::WeightedEft {
            tie: TieBreak::Min,
            slack: 0.0,
        }));
        out
    }
}

impl From<PolicyId> for PolicySpec {
    fn from(id: PolicyId) -> Self {
        PolicySpec::new(id)
    }
}

/// A built dispatcher — the registry's uniform runtime shape, driven by
/// the engines like any other [`ImmediateDispatcher`].
#[derive(Debug)]
pub enum PolicyState {
    /// An EFT-family policy: the one core under its kernel label (boxed:
    /// the core carries the index and the rule state, far larger than
    /// its peer).
    Eft(Box<EftKernelState>),
    /// Random / power-of-d / round-robin (the `policies` grab-bag).
    Rule(Dispatcher),
}

impl ImmediateDispatcher for PolicyState {
    fn machine_count(&self) -> usize {
        match self {
            PolicyState::Eft(k) => k.core().machines(),
            PolicyState::Rule(d) => d.machine_count(),
        }
    }

    fn dispatch_task(&mut self, task: Task, set: ProcSetRef<'_>) -> Assignment {
        match self {
            PolicyState::Eft(k) => k.core_mut().dispatch_ref(task, set),
            PolicyState::Rule(d) => d.dispatch_ref(task, set),
        }
    }

    fn machine_completions(&self) -> &[Time] {
        match self {
            PolicyState::Eft(k) => k.core().completions(),
            PolicyState::Rule(d) => d.machine_completions(),
        }
    }

    fn kernel_stats(&self) -> Option<KernelStats> {
        match self {
            PolicyState::Eft(k) => k.core().kernel_stats(),
            PolicyState::Rule(_) => None,
        }
    }
}

/// Error parsing a policy string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError(String);

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid policy spec: {}", self.0)
    }
}

impl std::error::Error for ParsePolicyError {}

fn err(msg: impl Into<String>) -> ParsePolicyError {
    ParsePolicyError(msg.into())
}

fn fmt_tie(tie: &TieBreak, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match tie {
        TieBreak::Min => write!(f, "min"),
        TieBreak::Max => write!(f, "max"),
        TieBreak::Rand { seed } => write!(f, "rand@{seed}"),
    }
}

impl fmt::Display for PolicyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyId::Eft { tie } => {
                write!(f, "eft:")?;
                fmt_tie(tie, f)
            }
            PolicyId::Random { seed } => write!(f, "random@{seed}"),
            PolicyId::Choices { d, seed } => write!(f, "choices@{d},{seed}"),
            PolicyId::RoundRobin => write!(f, "rr"),
            PolicyId::WeightedEft { tie, slack } => {
                write!(f, "weft@{slack}:")?;
                fmt_tie(tie, f)
            }
            PolicyId::SetupEft { tie, cost, aware } => {
                let name = if *aware { "setup" } else { "setup-obl" };
                write!(f, "{name}@{cost}:")?;
                fmt_tie(tie, f)
            }
        }
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id)?;
        match self.kernel {
            DispatchKernel::Auto => Ok(()),
            DispatchKernel::Scalar => write!(f, ":scalar"),
            DispatchKernel::Indexed => write!(f, ":indexed"),
        }
    }
}

fn parse_seed(s: &str, what: &str) -> Result<u64, ParsePolicyError> {
    s.parse()
        .map_err(|_| err(format!("{what} wants an integer seed, got `{s}`")))
}

fn parse_time(s: &str, what: &str) -> Result<Time, ParsePolicyError> {
    let v: Time = s
        .parse()
        .map_err(|_| err(format!("{what} wants a number, got `{s}`")))?;
    if !v.is_finite() || v < 0.0 {
        return Err(err(format!("{what} must be finite and non-negative")));
    }
    Ok(v)
}

impl FromStr for PolicySpec {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or("");
        if head.is_empty() {
            return Err(err("empty policy string"));
        }
        let (family, args) = match head.split_once('@') {
            Some((f, a)) => (f, Some(a)),
            None => (head, None),
        };

        let mut tie: Option<TieBreak> = None;
        let mut kernel: Option<DispatchKernel> = None;
        for seg in parts {
            let parsed_tie = match seg {
                "min" => Some(TieBreak::Min),
                "max" => Some(TieBreak::Max),
                _ => match seg.split_once('@') {
                    Some(("rand", seed)) => Some(TieBreak::Rand {
                        seed: parse_seed(seed, "rand tie-break")?,
                    }),
                    _ => None,
                },
            };
            if let Some(t) = parsed_tie {
                if tie.replace(t).is_some() {
                    return Err(err(format!("duplicate tie-break in `{s}`")));
                }
                continue;
            }
            let parsed_kernel = match seg {
                "auto" => Some(DispatchKernel::Auto),
                "scalar" => Some(DispatchKernel::Scalar),
                "indexed" => Some(DispatchKernel::Indexed),
                _ => None,
            };
            match parsed_kernel {
                Some(k) => {
                    if kernel.replace(k).is_some() {
                        return Err(err(format!("duplicate kernel in `{s}`")));
                    }
                }
                None => return Err(err(format!("unknown segment `{seg}` in `{s}`"))),
            }
        }

        let no_args = || -> Result<(), ParsePolicyError> {
            match args {
                None => Ok(()),
                Some(_) => Err(err(format!("`{family}` takes no `@` arguments"))),
            }
        };
        let no_tie = |tie: Option<TieBreak>| -> Result<(), ParsePolicyError> {
            match tie {
                None => Ok(()),
                Some(_) => Err(err(format!("`{family}` takes no tie-break"))),
            }
        };

        let id = match family {
            "eft" => {
                no_args()?;
                PolicyId::Eft {
                    tie: tie.unwrap_or(TieBreak::Min),
                }
            }
            "rr" => {
                no_args()?;
                no_tie(tie)?;
                PolicyId::RoundRobin
            }
            "random" => {
                no_tie(tie)?;
                let seed = parse_seed(
                    args.ok_or_else(|| err("`random` wants `random@SEED`"))?,
                    "random",
                )?;
                PolicyId::Random { seed }
            }
            "choices" => {
                no_tie(tie)?;
                let args = args.ok_or_else(|| err("`choices` wants `choices@D,SEED`"))?;
                let (d, seed) = args
                    .split_once(',')
                    .ok_or_else(|| err("`choices` wants `choices@D,SEED`"))?;
                let d: usize = d
                    .parse()
                    .map_err(|_| err(format!("choices wants an integer d, got `{d}`")))?;
                if d == 0 {
                    return Err(err("choices needs d ≥ 1"));
                }
                PolicyId::Choices {
                    d,
                    seed: parse_seed(seed, "choices")?,
                }
            }
            "weft" => PolicyId::WeightedEft {
                tie: tie.unwrap_or(TieBreak::Min),
                slack: parse_time(
                    args.ok_or_else(|| err("`weft` wants `weft@SLACK`"))?,
                    "weft slack",
                )?,
            },
            "setup" | "setup-obl" => PolicyId::SetupEft {
                tie: tie.unwrap_or(TieBreak::Min),
                cost: parse_time(
                    args.ok_or_else(|| err(format!("`{family}` wants `{family}@COST`")))?,
                    "setup cost",
                )?,
                aware: family == "setup",
            },
            other => return Err(err(format!("unknown policy family `{other}`"))),
        };

        Ok(PolicySpec {
            id,
            kernel: kernel.unwrap_or(DispatchKernel::Auto),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_example_round_trips_through_its_string() {
        for spec in PolicySpec::examples() {
            let s = spec.to_string();
            let back: PolicySpec = s.parse().unwrap_or_else(|e| panic!("`{s}`: {e}"));
            assert_eq!(back, spec, "`{s}` did not round-trip");
        }
    }

    #[test]
    fn grammar_accepts_the_documented_forms() {
        let cases: Vec<(&str, PolicySpec)> = vec![
            ("eft", PolicySpec::eft(TieBreak::Min, DispatchKernel::Auto)),
            (
                "eft:min:indexed",
                PolicySpec::eft(TieBreak::Min, DispatchKernel::Indexed),
            ),
            (
                "eft:indexed:min",
                PolicySpec::eft(TieBreak::Min, DispatchKernel::Indexed),
            ),
            (
                "eft:rand@42",
                PolicySpec::eft(TieBreak::Rand { seed: 42 }, DispatchKernel::Auto),
            ),
            ("random@7", PolicySpec::new(PolicyId::Random { seed: 7 })),
            (
                "choices@2,9",
                PolicySpec::new(PolicyId::Choices { d: 2, seed: 9 }),
            ),
            ("rr", PolicySpec::new(PolicyId::RoundRobin)),
            (
                "weft@2.5:max",
                PolicySpec::new(PolicyId::WeightedEft {
                    tie: TieBreak::Max,
                    slack: 2.5,
                }),
            ),
            (
                "setup@0.5",
                PolicySpec::new(PolicyId::SetupEft {
                    tie: TieBreak::Min,
                    cost: 0.5,
                    aware: true,
                }),
            ),
            (
                "setup-obl@1:scalar",
                PolicySpec::new(PolicyId::SetupEft {
                    tie: TieBreak::Min,
                    cost: 1.0,
                    aware: false,
                })
                .with_kernel(DispatchKernel::Scalar),
            ),
        ];
        for (s, want) in cases {
            assert_eq!(s.parse::<PolicySpec>().unwrap(), want, "`{s}`");
        }
    }

    #[test]
    fn grammar_rejects_malformed_strings() {
        for bad in [
            "",
            "efty",
            "eft@3",
            "eft:min:min",
            "eft:scalar:indexed",
            "eft:scalar-scan",
            "eft:simd",
            "eft:bogus",
            "random",
            "random@x",
            "rr:min",
            "choices@2",
            "choices@0,5",
            "weft",
            "weft@-1",
            "setup@nan",
        ] {
            assert!(
                bad.parse::<PolicySpec>().is_err(),
                "`{bad}` should not parse"
            );
        }
    }

    #[test]
    fn for_shard_matches_tiebreak_semantics() {
        let rand = PolicySpec::eft(TieBreak::Rand { seed: 11 }, DispatchKernel::Auto);
        assert_eq!(rand.for_shard(0), rand);
        match rand.for_shard(3).id {
            PolicyId::Eft { tie } => assert_eq!(tie, TieBreak::Rand { seed: 11 }.for_shard(3)),
            other => panic!("unexpected {other:?}"),
        }
        // Seeded non-EFT rules decorrelate with the same mixing.
        let random = PolicySpec::new(PolicyId::Random { seed: 11 });
        assert_eq!(random.for_shard(0), random);
        match random.for_shard(3).id {
            PolicyId::Random { seed } => {
                assert_eq!(seed, 11 ^ 3u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Deterministic rules pass through untouched.
        let min = PolicySpec::eft(TieBreak::Min, DispatchKernel::Indexed);
        assert_eq!(min.for_shard(7), min);
    }

    #[test]
    fn build_resolves_kernels_like_the_direct_path() {
        use flowsched_core::instance::InstanceBuilder;
        use flowsched_core::procset::ProcSet;
        use flowsched_core::stream::InstanceStream;
        // Without a stream Auto is the member scan at any machine count;
        // a stream's promise of wide intervals picks the index; forced
        // kernels stay as asked, for every EFT-family rule.
        let kernel = |state: PolicyState| match state {
            PolicyState::Eft(k) => k.core().kernel(),
            other => panic!("unexpected {other:?}"),
        };
        let m = 256;
        let mut b = InstanceBuilder::new(m);
        for i in 0..8 {
            b.push_unit(i as f64, ProcSet::interval(i, i + m / 2 - 1));
        }
        let wide = b.build().unwrap();
        for id in [
            PolicyId::Eft { tie: TieBreak::Min },
            PolicyId::WeightedEft {
                tie: TieBreak::Max,
                slack: 1.0,
            },
            PolicyId::SetupEft {
                tie: TieBreak::Min,
                cost: 1.0,
                aware: true,
            },
        ] {
            let spec = PolicySpec::new(id);
            assert_eq!(kernel(spec.build(4)), DispatchKernel::Scalar);
            assert_eq!(kernel(spec.build(m)), DispatchKernel::Scalar);
            assert_eq!(
                kernel(spec.build_for_stream(&InstanceStream::new(&wide))),
                DispatchKernel::Indexed
            );
            let indexed = spec.with_kernel(DispatchKernel::Indexed);
            assert_eq!(kernel(indexed.build(4)), DispatchKernel::Indexed);
            let scalar = spec.with_kernel(DispatchKernel::Scalar);
            assert_eq!(kernel(scalar.build(256)), DispatchKernel::Scalar);
        }
    }

    #[test]
    fn every_policy_builds_over_a_fault_plan() {
        for spec in PolicySpec::examples() {
            let state = spec.build_faulty(FaultPlan::none(3).with_outage(1, 0.0, 2.0));
            assert_eq!(state.machine_count(), 3, "{spec}");
        }
    }

    #[test]
    fn dispatch_rule_converts_losslessly() {
        for id in [
            PolicyId::Eft { tie: TieBreak::Max },
            PolicyId::Random { seed: 3 },
            PolicyId::Choices { d: 2, seed: 3 },
            PolicyId::RoundRobin,
        ] {
            let spec: PolicySpec = id.into();
            let s = spec.to_string();
            assert_eq!(s.parse::<PolicySpec>().unwrap(), spec, "`{s}`");
        }
    }
}
