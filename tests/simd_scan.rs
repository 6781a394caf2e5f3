//! The SoA/SIMD dispatch contracts, pinned:
//!
//! 1. **Scan equivalence**: the member scan ([`scan_ties_simd`] over a
//!    padded [`CompletionBank`], two vectorized passes from 8 members
//!    up) produces the *identical* tie vector to the one-pass scalar
//!    oracle ([`scan_ties`]) for every processing-set shape, over
//!    random completion arrays with exact ties (including idle
//!    machines at 0.0) and random release times.
//! 2. **The core dispatches as the oracle does**: a full [`EftState`]
//!    run, whose member scan takes the one-pass arm on sets of fewer
//!    than 8 members and the SIMD arm on wider ones (the drawn
//!    intervals span both), matches a loop of [`scan_ties`], one
//!    `Breaker::pick` and a commit assignment-for-assignment under
//!    every tie-break, and ends on the same completions — so its tie
//!    sets and RNG draws are the oracle's.
//! 3. **`Auto` is invisible**: on a stream that promises no structure,
//!    the EFT core on `Auto` (which resolves to one kernel when it is
//!    built) produces the bitwise-same schedule and recorder trace as
//!    both forced kernels, under every tie-break, while the family
//!    degrades from wide intervals to scattered pairs.

use proptest::prelude::*;

use flowsched::algos::eft::EftState;
use flowsched::algos::engine::immediate_schedule;
use flowsched::algos::indexed::DispatchKernel;
use flowsched::algos::soa::{scan_ties, scan_ties_simd, CompletionBank};
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
}

/// Contract 3: on a hint-less stream, `Auto` produces the
/// bitwise-identical schedule *and recorder event trace* to both forced
/// kernels — the kernel is invisible to every observer of the run.
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
