//! The SoA/SIMD dispatch contracts, pinned:
//!
//! 1. **Scan equivalence**: the vectorized two-pass tie scan
//!    ([`scan_ties_simd`] over a padded [`CompletionBank`]) produces the
//!    *identical* tie vector to the one-pass scalar oracle
//!    ([`scan_ties`]) for every processing-set shape, over random
//!    completion arrays with exact ties (including idle machines at
//!    0.0) and random release times.
//! 2. **The core dispatches as the oracle does**: a full [`EftState`]
//!    run, which always takes the SIMD scan, matches a loop of
//!    [`scan_ties`], one `Breaker::pick` and a commit
//!    assignment-for-assignment under every tie-break, and ends on the
//!    same completions — so its tie sets and RNG draws are the oracle's.
//! 3. **Mid-stream kernel switches are transparent**: the EFT core on
//!    `Auto` — which re-resolves its kernel from live structure
//!    classification and *actually switches* mid-stream when the family
//!    degrades — produces the bitwise-same schedule and recorder trace
//!    as both forced kernels, across families × tie-breaks.

use proptest::prelude::*;

use flowsched::algos::eft::{scan_ties, EftState};
use flowsched::algos::engine::immediate_schedule;
use flowsched::algos::indexed::DispatchKernel;
use flowsched::algos::soa::{scan_ties_simd, CompletionBank};
use flowsched::algos::tiebreak::TieBreak;
use flowsched::core::compact::ProcSetRef;
use flowsched::core::machine::MachineId;
use flowsched::core::procset::ProcSet;
use flowsched::core::schedule::Assignment;
use flowsched::core::stream::FnStream;
use flowsched::core::task::Task;
use flowsched::obs::MemoryRecorder;

const TIES: [TieBreak; 3] = [TieBreak::Min, TieBreak::Max, TieBreak::Rand { seed: 31 }];

/// Quantized completion values force exact float ties; quantum 0.5 and
/// a floor of 0 keep idle machines (0.0) in the mix.
fn arb_completions() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0u32..6).prop_map(|q| q as f64 * 0.5), 1..96)
}

/// A cheap deterministic generator for the structured/mixed streams —
/// SplitMix64-style, so proptest shrinks over the seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Contract 1: SIMD scan ≡ scalar oracle on every set shape.
    #[test]
    fn simd_scan_matches_the_scalar_oracle(
        vals in arb_completions(),
        release_q in 0u32..7,
        choice in 0usize..4,
        a in 0usize..1_000_000,
        b in 0usize..1_000_000,
        mask in prop::collection::vec(any::<bool>(), 96),
    ) {
        let m = vals.len();
        let release = release_q as f64 * 0.5;
        let members: Vec<usize> = (0..m).filter(|&j| mask[j]).collect();
        let set = match choice {
            0 => ProcSetRef::prefix(1 + a % m),
            1 => {
                let lo = a % m;
                ProcSetRef::interval(lo, lo + b % (m - lo))
            }
            2 => ProcSetRef::ring(a % m, 1 + b % m, m),
            _ if members.is_empty() => ProcSetRef::prefix(m),
            _ => ProcSetRef::Explicit(&members),
        };
        let bank = CompletionBank::from_completions(&vals);
        let mut simd = Vec::new();
        scan_ties_simd(bank.padded(), set, release, &mut simd);
        let mut scalar = Vec::new();
        scan_ties(&vals, set.iter(), release, &mut scalar);
        prop_assert_eq!(simd, scalar, "shape {:?} release {}", set, release);
    }

    /// Contract 2: a whole dispatch run of the core matches the
    /// one-pass oracle loop.
    #[test]
    fn scan_choice_never_changes_dispatch(
        m in 2usize..48,
        arrivals in prop::collection::vec(
            (0u32..3, 1u32..5, 0usize..1_000_000, 0usize..1_000_000),
            1..120,
        ),
        tb_idx in 0usize..3,
    ) {
        let tie = TIES[tb_idx];
        let mut core = EftState::new(m, tie);
        let mut breaker = tie.breaker();
        let (mut completions, mut ties) = (vec![0.0; m], Vec::new());
        let mut t = 0.0;
        for &(gap, p, a, b) in &arrivals {
            t += gap as f64 * 0.25;
            let task = Task::new(t, p as f64 * 0.5);
            let lo = a % m;
            let set = ProcSetRef::interval(lo, lo + b % (m - lo));
            scan_ties(&completions, set.iter(), task.release, &mut ties);
            let u = breaker.pick(&ties);
            let start = task.release.max(completions[u]);
            completions[u] = start + task.ptime;
            prop_assert_eq!(
                core.dispatch_ref(task, set),
                Assignment::new(MachineId(u), start),
                "{:?} diverged at t={}", tie, t
            );
        }
        prop_assert_eq!(core.completions(), &completions[..]);
    }

    /// Contract 3: the adaptive wrapper matches both forced kernels per
    /// dispatch, through an actual mid-stream downgrade — the stream
    /// opens with > warmup structured interval arrivals (the classifier
    /// keeps the index) and degrades into scattered explicit sets (the
    /// classifier forces a switch to the scalar kernel).
    #[test]
    fn mid_stream_kernel_switches_are_transparent(
        m_extra in 0usize..64,
        n_tail in 24usize..120,
        tb_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let m = 65 + m_extra;
        let tie = TIES[tb_idx];
        let mut rng = Lcg(seed);
        let mut sets: Vec<Vec<usize>> = Vec::new();
        for _ in 0..80 {
            let lo = rng.next() % (m / 2);
            sets.push((lo..lo + m / 4).collect());
        }
        for _ in 0..n_tail {
            let a = rng.next() % m;
            let b = (a + 1 + rng.next() % (m - 1)) % m;
            sets.push(vec![a.min(b), a.max(b)]);
        }
        let mut adaptive = EftState::new(m, tie).with_kernel(DispatchKernel::Auto);
        let mut scalar = EftState::new(m, tie);
        let mut indexed = EftState::new(m, tie).with_kernel(DispatchKernel::Indexed);
        for (i, set) in sets.iter().enumerate() {
            let task = Task::new(i as f64 * 0.125, 0.5 + (i % 3) as f64 * 0.25);
            let view = ProcSetRef::Explicit(set);
            let got = adaptive.dispatch_ref(task, view);
            prop_assert_eq!(got, scalar.dispatch_ref(task, view), "vs scalar @{}", i);
            prop_assert_eq!(got, indexed.dispatch_ref(task, view), "vs indexed @{}", i);
        }
        prop_assert!(
            adaptive.switches() > 0,
            "the degrading stream must force a real kernel switch"
        );
        prop_assert_eq!(adaptive.kernel(), DispatchKernel::Scalar);
        prop_assert_eq!(adaptive.completions(), scalar.completions());
    }
}

/// Contract 3 at the engine level: on a hint-less stream, `Auto` (the
/// adaptive wrapper) produces the bitwise-identical schedule *and
/// recorder event trace* to both forced kernels — the switch is
/// invisible to every observer of the run.
#[test]
fn adaptive_trace_is_bitwise_identical_to_forced_kernels() {
    let m = 96;
    let stream = |i: usize| -> (Task, ProcSet) {
        let task = Task::new(i as f64 * 0.2, 1.0 + (i % 4) as f64 * 0.25);
        let set = if i < 70 {
            let lo = (i * 5) % (m / 2);
            ProcSet::interval(lo, lo + m / 3)
        } else {
            let a = (i * 17) % m;
            let b = (a + m / 2 + i % 7) % m;
            ProcSet::new(vec![a, b])
        };
        (task, set)
    };
    for tie in TIES {
        let run = |kernel: DispatchKernel| {
            let next = std::cell::Cell::new(0usize);
            let arrivals = FnStream::new(m, move || {
                let i = next.get();
                if i >= 160 {
                    return None;
                }
                next.set(i + 1);
                Some(stream(i))
            });
            let mut state = EftState::new(m, tie).with_kernel(kernel);
            let mut rec = MemoryRecorder::with_defaults(m);
            let sched = immediate_schedule(arrivals, &mut state, &mut rec);
            (sched, rec.trace().to_vec())
        };
        let (auto_sched, auto_trace) = run(DispatchKernel::Auto);
        for forced in [DispatchKernel::Scalar, DispatchKernel::Indexed] {
            let (sched, trace) = run(forced);
            assert_eq!(
                auto_sched, sched,
                "{tie:?}: schedule diverged vs {forced:?}"
            );
            assert_eq!(auto_trace, trace, "{tie:?}: trace diverged vs {forced:?}");
        }
    }
}
