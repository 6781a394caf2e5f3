//! The dispatch-policy registry: one name-addressable surface over
//! every immediate-dispatch algorithm in the workspace.
//!
//! Before this module, each dispatcher family had its own construction
//! idiom — `EftKernelState::new(m, tie, kernel)` for EFT,
//! `Dispatcher::with_kernel(m, rule, kernel)` for the grab-bag rules,
//! `FaultyEftState::new(plan, tie)` for the fault layer — and every
//! engine entry point, sim driver, and bench bin re-derived kernel and
//! shard-seed resolution by hand. The registry collapses that into:
//!
//! - [`PolicyId`]: *which algorithm* — EFT under a tie-break, random,
//!   power-of-d choices, round-robin, weighted-EFT
//!   ([`WeightedEftState`]), setup-aware EFT ([`SetupEftState`]);
//! - [`PolicySpec`]: a `PolicyId` plus the [`DispatchKernel`] and
//!   [`ScanImpl`] choices, parseable from and printable to a stable
//!   string form (`eft:min:indexed`, `eft:scalar-scan`, `weft@4:max`,
//!   `setup@0.5`, `random@7`…) so bench bins and CI address policies by
//!   name;
//! - [`PolicyState`]: the built dispatcher, a plain
//!   [`ImmediateDispatcher`] the engines drive like any other.
//!
//! **Resolution invariants** (pinned by `tests/policy_registry.rs`):
//!
//! 1. [`PolicySpec::build`] resolves `Auto` kernels by machine count
//!    through [`EftKernelState::new`], and
//!    [`PolicySpec::build_for_stream`] first consults the stream's
//!    structure hint via [`DispatchKernel::resolve_for_stream`] —
//!    byte-for-byte the two-step resolution the direct entry points
//!    performed, so registry-built dispatchers are bitwise-identical
//!    (schedule, recorder trace, RNG draws) to directly-constructed
//!    ones.
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
//! spec     := family [":" tie] [":" kernel] [":" scan]   (any order)
//! family   := "eft" | "rr" | "random@SEED" | "choices@D,SEED"
//!           | "weft@SLACK" | "setup@COST" | "setup-obl@COST"
//! tie      := "min" | "max" | "rand@SEED"        (eft/weft/setup only)
//! kernel   := "auto" | "scalar" | "indexed"
//! scan     := "simd" | "scalar-scan"             (tie-scan impl; simd
//!                                                 is the default)
//! ```

use std::fmt;
use std::str::FromStr;

use flowsched_core::fault::FaultPlan;
use flowsched_core::stream::ArrivalStream;
use flowsched_core::time::Time;

use crate::eft::ImmediateDispatcher;
use crate::faulty::FaultyEftState;
use crate::indexed::{DispatchKernel, EftKernelState};
use crate::policies::{DispatchRule, Dispatcher};
use crate::setup::SetupEftState;
use crate::soa::ScanImpl;
use crate::tiebreak::{shard_seed, TieBreak};
use crate::weighted::WeightedEftState;

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
    /// [`WeightedEftState`]).
    WeightedEft {
        /// Tie-break over the packing tie set.
        tie: TieBreak,
        /// Packing budget `θ` — a weight-`w` task tolerates `θ/w` delay.
        slack: Time,
    },
    /// Setup-aware EFT for batch-by-key serving (Mäcker et al.; see
    /// [`SetupEftState`]).
    SetupEft {
        /// Tie-break over the candidate-completion tie set.
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

impl From<DispatchRule> for PolicyId {
    fn from(rule: DispatchRule) -> Self {
        match rule {
            DispatchRule::Eft(tie) => PolicyId::Eft { tie },
            DispatchRule::RandomMachine { seed } => PolicyId::Random { seed },
            DispatchRule::TwoChoices { d, seed } => PolicyId::Choices { d, seed },
            DispatchRule::RoundRobin => PolicyId::RoundRobin,
        }
    }
}

/// A fully-specified dispatch policy: algorithm plus kernel and
/// tie-scan choices. Only the EFT family consults the kernel and scan
/// (the others have no index or tie set to select); they are carried —
/// and round-tripped — for all of them so a spec string names one
/// construction unambiguously.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicySpec {
    /// Which algorithm.
    pub id: PolicyId,
    /// Which EFT dispatch kernel ([`DispatchKernel::Auto`] by default).
    pub kernel: DispatchKernel,
    /// Which tie-scan implementation ([`ScanImpl::Simd`] by default;
    /// `scalar-scan` keeps the one-pass oracle for A/B runs).
    pub scan: ScanImpl,
}

impl PolicySpec {
    /// A spec with the automatic kernel and default scan.
    pub fn new(id: PolicyId) -> Self {
        PolicySpec {
            id,
            kernel: DispatchKernel::Auto,
            scan: ScanImpl::default(),
        }
    }

    /// Shorthand for the EFT family.
    pub fn eft(tie: TieBreak, kernel: DispatchKernel) -> Self {
        PolicySpec {
            id: PolicyId::Eft { tie },
            kernel,
            scan: ScanImpl::default(),
        }
    }

    /// This spec with the kernel replaced.
    pub fn with_kernel(self, kernel: DispatchKernel) -> Self {
        PolicySpec { kernel, ..self }
    }

    /// This spec with the tie-scan implementation replaced.
    pub fn with_scan(self, scan: ScanImpl) -> Self {
        PolicySpec { scan, ..self }
    }

    /// Shard-local spec — applies [`PolicyId::for_shard`], keeping the
    /// kernel choice (Auto then re-resolves on the shard's width, as
    /// the sharded engine always did) and the scan choice.
    pub fn for_shard(self, shard: usize) -> PolicySpec {
        PolicySpec {
            id: self.id.for_shard(shard),
            kernel: self.kernel,
            scan: self.scan,
        }
    }

    /// Builds the dispatcher for `m` machines — the single construction
    /// path every engine entry point funnels through (resolution
    /// invariant 1).
    ///
    /// # Panics
    /// Panics when `m == 0` or a policy parameter is out of range
    /// (`d == 0`, negative slack/cost).
    pub fn build(&self, m: usize) -> PolicyState {
        match self.id {
            PolicyId::Eft { tie } => PolicyState::Eft(Box::new(EftKernelState::with_scan(
                m,
                tie,
                self.kernel,
                self.scan,
            ))),
            PolicyId::Random { seed } => PolicyState::Rule(Dispatcher::with_kernel(
                m,
                DispatchRule::RandomMachine { seed },
                self.kernel,
            )),
            PolicyId::Choices { d, seed } => PolicyState::Rule(Dispatcher::with_kernel(
                m,
                DispatchRule::TwoChoices { d, seed },
                self.kernel,
            )),
            PolicyId::RoundRobin => PolicyState::Rule(Dispatcher::with_kernel(
                m,
                DispatchRule::RoundRobin,
                self.kernel,
            )),
            PolicyId::WeightedEft { tie, slack } => {
                PolicyState::Weighted(WeightedEftState::new(m, tie, slack))
            }
            PolicyId::SetupEft { tie, cost, aware } => {
                PolicyState::Setup(SetupEftState::new(m, tie, cost, aware))
            }
        }
    }

    /// [`build`](PolicySpec::build) with the kernel first resolved
    /// against the stream's structure hint
    /// ([`DispatchKernel::resolve_for_stream`]) — the exact two-step
    /// resolution `eft_stream`/`dispatch_stream`/`simulate_stream`
    /// always performed.
    pub fn build_for_stream<S>(&self, stream: &S) -> PolicyState
    where
        S: ArrivalStream + ?Sized,
    {
        self.with_kernel(self.kernel.resolve_for_stream(stream))
            .build(stream.machines())
    }

    /// Builds the availability-aware dispatcher over a [`FaultPlan`].
    /// Only the EFT family schedules around outages today; the others
    /// reject loudly rather than silently ignoring the plan.
    ///
    /// # Panics
    /// Panics for non-EFT policies, or when the plan covers zero
    /// machines.
    pub fn build_faulty(&self, plan: FaultPlan) -> FaultyEftState {
        match self.id {
            PolicyId::Eft { tie } => FaultyEftState::new(plan, tie),
            _ => {
                panic!("fault-aware dispatch is only implemented for the eft family, not `{self}`")
            }
        }
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
            out.push(PolicySpec::eft(TieBreak::Min, kernel).with_scan(ScanImpl::Scalar));
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

impl From<DispatchRule> for PolicySpec {
    fn from(rule: DispatchRule) -> Self {
        PolicySpec::new(rule.into())
    }
}

/// A built dispatcher — the registry's uniform runtime shape, driven by
/// the engines like any other [`ImmediateDispatcher`].
#[derive(Debug)]
pub enum PolicyState {
    /// EFT under the resolved kernel (boxed: the adaptive wrapper
    /// carries classifier + kernel state, far larger than its peers).
    Eft(Box<EftKernelState>),
    /// Random / power-of-d / round-robin (the `policies` grab-bag).
    Rule(Dispatcher),
    /// Weighted-EFT packing.
    Weighted(WeightedEftState),
    /// Setup-aware (or setup-oblivious) EFT.
    Setup(SetupEftState),
}

impl ImmediateDispatcher for PolicyState {
    fn machine_count(&self) -> usize {
        match self {
            PolicyState::Eft(s) => s.machine_count(),
            PolicyState::Rule(s) => s.machine_count(),
            PolicyState::Weighted(s) => s.machine_count(),
            PolicyState::Setup(s) => s.machine_count(),
        }
    }

    fn dispatch_task(
        &mut self,
        task: flowsched_core::task::Task,
        set: flowsched_core::compact::ProcSetRef<'_>,
    ) -> flowsched_core::schedule::Assignment {
        match self {
            PolicyState::Eft(s) => s.dispatch_task(task, set),
            PolicyState::Rule(s) => s.dispatch_task(task, set),
            PolicyState::Weighted(s) => s.dispatch_task(task, set),
            PolicyState::Setup(s) => s.dispatch_task(task, set),
        }
    }

    fn machine_completions(&self) -> &[Time] {
        match self {
            PolicyState::Eft(s) => s.machine_completions(),
            PolicyState::Rule(s) => s.machine_completions(),
            PolicyState::Weighted(s) => s.machine_completions(),
            PolicyState::Setup(s) => s.machine_completions(),
        }
    }

    fn kernel_stats(&self) -> Option<crate::indexed::KernelStats> {
        match self {
            PolicyState::Eft(s) => s.kernel_stats(),
            PolicyState::Rule(s) => s.kernel_stats(),
            PolicyState::Weighted(_) | PolicyState::Setup(_) => None,
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
            DispatchKernel::Auto => {}
            DispatchKernel::Scalar => write!(f, ":scalar")?,
            DispatchKernel::Indexed => write!(f, ":indexed")?,
        }
        match self.scan {
            ScanImpl::Simd => Ok(()),
            ScanImpl::Scalar => write!(f, ":scalar-scan"),
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
        let mut scan: Option<ScanImpl> = None;
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
            if let Some(k) = parsed_kernel {
                if kernel.replace(k).is_some() {
                    return Err(err(format!("duplicate kernel in `{s}`")));
                }
                continue;
            }
            let parsed_scan = match seg {
                "simd" => Some(ScanImpl::Simd),
                "scalar-scan" => Some(ScanImpl::Scalar),
                _ => None,
            };
            match parsed_scan {
                Some(v) => {
                    if scan.replace(v).is_some() {
                        return Err(err(format!("duplicate scan in `{s}`")));
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
            scan: scan.unwrap_or_default(),
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
            (
                "eft:scalar-scan",
                PolicySpec::eft(TieBreak::Min, DispatchKernel::Auto).with_scan(ScanImpl::Scalar),
            ),
            (
                "eft:scalar-scan:indexed:max",
                PolicySpec::eft(TieBreak::Max, DispatchKernel::Indexed).with_scan(ScanImpl::Scalar),
            ),
            (
                // Explicit `simd` parses and is the silent default.
                "eft:min:simd",
                PolicySpec::eft(TieBreak::Min, DispatchKernel::Auto),
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
            "eft:simd:scalar-scan",
            "eft:scalar-scan:scalar-scan",
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
        use crate::indexed::AUTO_INDEXED_MIN_MACHINES;
        let spec = PolicySpec::eft(TieBreak::Min, DispatchKernel::Auto);
        // Auto now builds the adaptive wrapper; its initial core follows
        // the machine-count rule the direct path always applied.
        let adaptive_kernel = |state: PolicyState| match state {
            PolicyState::Eft(k) => match *k {
                EftKernelState::Adaptive(s) => s.current_kernel(),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(adaptive_kernel(spec.build(4)), DispatchKernel::Scalar);
        assert_eq!(
            adaptive_kernel(spec.build(AUTO_INDEXED_MIN_MACHINES)),
            DispatchKernel::Indexed
        );
        match spec.with_kernel(DispatchKernel::Indexed).build(4) {
            PolicyState::Eft(k) => assert!(matches!(*k, EftKernelState::Indexed(_))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "only implemented for the eft family")]
    fn build_faulty_rejects_non_eft_policies() {
        PolicySpec::new(PolicyId::RoundRobin).build_faulty(FaultPlan::none(2));
    }

    #[test]
    fn dispatch_rule_converts_losslessly() {
        for rule in [
            DispatchRule::Eft(TieBreak::Max),
            DispatchRule::RandomMachine { seed: 3 },
            DispatchRule::TwoChoices { d: 2, seed: 3 },
            DispatchRule::RoundRobin,
        ] {
            let spec: PolicySpec = rule.into();
            let s = spec.to_string();
            assert_eq!(s.parse::<PolicySpec>().unwrap(), spec, "`{s}`");
        }
    }
}
