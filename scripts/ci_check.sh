#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every PR.
#
#   1. formatting (cargo fmt --check over the whole workspace,
#      vendored stand-ins included)
#   2. release build of the whole workspace
#   3. the full test suite of every workspace member (unit +
#      integration + doc tests; `--workspace`, because the root
#      package is the only default member), which includes the member
#      crates' unit tests and the observability hardening suites
#      (tests/obs_invariants.rs, tests/report_consistency.rs,
#      tests/prometheus_lint.rs) and the streaming-core suites
#      (tests/streaming_equivalence.rs, tests/streaming_memory.rs)
#   4. clippy with warnings promoted to errors over every target of
#      every workspace member (`--workspace --all-targets`: the member
#      crates' unit tests, benches and bins too, not just the root
#      package)
#   5. rustdoc with warnings promoted to errors (broken intra-doc
#      links, missing docs on public items) for the root package and
#      all eleven flowsched-* crates, private items included
#      (--document-private-items), so a stale link in a private item's
#      docs fails too; the vendored stand-ins (proptest among them)
#      stay out of the stage
#   6. large-m smoke run: 100k-machine streams through the indexed
#      dispatch kernel (cargo run --release -p flowsched-bench --bin
#      smoke_scale), panicking on any degenerate report; the schedule
#      hash it prints per run (four families under EFT-Min, the
#      prefixes under EFT-Max) must equal the pinned list, which holds
#      the six-level lane index schedule for schedule
#   7. sharded determinism smoke: the sharded_smoke bin runs under
#      FLOWSCHED_THREADS=1, =2 and =4 (inline, 16 shards dealt 8 per
#      worker, and 4 per worker); each run dispatches its trace at two
#      transport sizes (the default batches, and 3-task batches over
#      depth-1 queues) and asserts in-process that the two hashes are
#      equal; every printed schedule hash must equal the pinned
#      SHARDED_SMOKE_HASH (thread-count and batch-size invariance, end
#      to end), so a schedule change that is the same at every thread
#      count still fails
#   8. fault-injection soak: the fault_soak bin dispatches a 1M-task
#      Poisson stream under a 1% crash-rate fault plan, asserting
#      bounded memory (VmHWM growth < 32 MiB) in-process; the stage
#      runs it under FLOWSCHED_THREADS=1, =2 and =4 and requires every
#      schedule hash to equal the pinned FAULT_SOAK_HASH (the faulty
#      engine is thread-count invariant too), so a schedule change that
#      is the same at every thread count still fails
#   9. competitive-ratio ladder: the ratio_ladder bin runs every
#      registry policy (eft / weft / setup variants) over its
#      adversarial stream and asserts the measured ratios stay inside
#      the envelopes recorded in EXPERIMENTS.md
#  10. pipeline-profile and timeline smokes: the pipeline_profile bin
#      runs a bounded trace through the sequential and the
#      probe-instrumented sharded engine, asserting in-process that the
#      two schedules hash identically (the wall-clock probe must never
#      perturb dispatch) and printing the per-stage ns/task table; then
#      the timeline bin runs each of its workloads (kv, poisson,
#      adversary) at window width 0.7 into a temporary directory, and
#      the stage fails unless its summary's trace line reads `0
#      dropped` (the bin sizes its ring from the source's task count,
#      so its trace and span exports are lossless); last, fig11
#      --timeline runs the quick sweep, whose 2^18-event ring keeps
#      only the tail, and the stage fails unless the retained and
#      dropped counts its summary prints equal snapshot.json's
#      trace_len and trace_dropped (a truncated trace must say so)
#  11. hardware-limit smoke: the same smoke_scale bin re-run at
#      m = 2^20 via FLOWSCHED_SMOKE_M/N — the SoA completion bank,
#      SIMD tie scan, and the seven-level lane index (1.1 MiB above an
#      8 MiB bank) at the million-machine scale, its schedule hashes
#      held to a second pinned list as in stage 6
#  12. performance ledger: perf_ledger is not a workspace member, so
#      stage 3 does not reach it. Its own unit tests run first (cargo
#      test --release --offline --locked --manifest-path
#      perf_ledger/Cargo.toml), which also proves the ledger still
#      builds against the crates' public items. Every ledger build
#      passes --locked: the ledger is a workspace of its own, so
#      perf_ledger/Cargo.lock records the dependency edges of every
#      crate it builds, and without --locked any change to a crate's
#      manifest silently rewrites that lock file, which belongs to the
#      benchmark; with it the build fails instead. Then its `--smoke`
#      mode runs every ledger workload over 20k tasks with all of its
#      output checks (no task of faulty_m256 runs across an outage,
#      sharded and observed runs reproduce the sequential schedule)
#      and exits non-zero on any failure. The smoke's 20k tasks are
#      below every workload's full size, where the ledger's pinned
#      schedule hashes apply, so the
#      stage then runs each workload once at full size (`--workload W
#      --seconds 0 --trace 0`: one child) at seeds 0x5EED and
#      0xC0FFEE. That mode exits 0 either way, so the stage requires
#      its last line to hold `"correct":true`, which fails on a
#      schedule hash that differs from the pinned one
#  13. bench gate (warn-only): scripts/bench_gate.sh re-runs the benches
#      behind BENCH_PR1/PR3/PR4/PR5/PR6/PR9/PR10.json and reports
#      medians that drifted past the noise tolerance — it never fails
#      the build
#
# Before the verdict it prints the non-test line count of every crate
# (scripts/loc.sh: the lines above each file's `#[cfg(test)]`) — an
# informational line that gates nothing.
#
# Usage:
#   scripts/ci_check.sh                 # all thirteen stages
#   scripts/ci_check.sh --no-clippy     # skip the lint stage (e.g. when
#                                       # the toolchain lacks clippy)
#   scripts/ci_check.sh --no-bench-gate # skip the (slow) bench stage
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_CLIPPY=1
RUN_BENCH_GATE=1
for arg in "$@"; do
  case "$arg" in
    --no-clippy) RUN_CLIPPY=0 ;;
    --no-bench-gate) RUN_BENCH_GATE=0 ;;
    *) echo "ci_check: unknown flag $arg" >&2; exit 2 ;;
  esac
done

echo "== cargo fmt --check =="
cargo fmt --check

echo
echo "== cargo build --release =="
cargo build --release

echo
echo "== cargo test -q --workspace =="
cargo test -q --workspace

if [ "$RUN_CLIPPY" = 1 ]; then
  echo
  echo "== cargo clippy --workspace --all-targets -- -D warnings =="
  cargo clippy --workspace --all-targets -- -D warnings
fi

echo
DOC_PACKAGES=(
  -p flowsched -p flowsched-algos -p flowsched-bench -p flowsched-core
  -p flowsched-experiments -p flowsched-kvstore -p flowsched-obs
  -p flowsched-parallel -p flowsched-sim -p flowsched-solver
  -p flowsched-stats -p flowsched-workloads
)
echo "== RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps --document-private-items ${DOC_PACKAGES[*]} =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --document-private-items -q "${DOC_PACKAGES[@]}"

echo
# Runs smoke_scale under the given environment assignments and
# requires the schedule hashes it prints, one per run in print order,
# to equal the pinned list.
check_smoke_hashes() {
  local pinned="$1" out got
  shift
  out="$(env "$@" cargo run -q --release -p flowsched-bench --bin smoke_scale)"
  echo "$out"
  got="$(sed -n 's/.* schedule_hash=\(0x[0-9a-f]*\)$/\1/p' <<<"$out" | paste -sd' ')"
  if [ "$got" != "$pinned" ]; then
    echo "ci_check: smoke_scale${*:+ $*} printed schedule hashes '$got', pinned '$pinned'" >&2
    exit 1
  fi
}

echo "== 100k-machine smoke run (indexed dispatch, pinned schedule hashes) =="
check_smoke_hashes "0x3190caea2c8c2901 0x22de2e39c8ecab00 0x7218e3a9bd53d767 \
0x87c680ff0903d6f3 0x17e2d45356ee1a24"

echo
# Runs one bench bin under each thread count and requires every
# printed schedule hash to equal the pinned one.
check_pinned_hash() {
  local bin="$1" pinned="$2" threads got
  for threads in 1 2 4; do
    got="$(FLOWSCHED_THREADS=$threads cargo run -q --release -p flowsched-bench --bin "$bin" \
      | sed -n 's/^schedule_hash=//p')"
    echo "  threads=$threads: $got"
    if [ "$got" != "$pinned" ]; then
      echo "ci_check: $bin schedule hash '$got' at $threads threads differs from the pinned $pinned" >&2
      exit 1
    fi
  done
}

echo "== sharded determinism smoke (1, 2 and 4 threads) =="
check_pinned_hash sharded_smoke 0x783155971464d6b2

echo
echo "== fault-injection soak (1, 2 and 4 threads) =="
check_pinned_hash fault_soak 0xbd8cc20a18264c9b

echo
echo "== competitive-ratio ladder (envelope gate) =="
cargo run -q --release -p flowsched-bench --bin ratio_ladder

echo
echo "== pipeline-profile smoke (probe transparency + stage table) =="
cargo run -q --release -p flowsched-bench --bin pipeline_profile -- --tasks 20000 --threads 4

echo
echo "== timeline smoke (lossless trace on every workload; fig11 counts its drops) =="
timeline_dir="$(mktemp -d)"
trap 'rm -rf "$timeline_dir"' EXIT
for workload in kv poisson adversary; do
  out="$(cargo run -q --release -p flowsched-bench --bin timeline -- \
    --workload "$workload" --window 0.7 --timeline "$timeline_dir/$workload")"
  dropped="$(sed -n 's/^ *trace: .* retained, \([0-9]*\) dropped$/\1/p' <<<"$out")"
  if [ "$dropped" != 0 ]; then
    echo "ci_check: timeline --workload $workload dropped '${dropped:-?}' trace events" >&2
    exit 1
  fi
  echo "  $workload: 0 dropped"
done
fig11_dir="$timeline_dir/fig11"
out="$(cargo run -q --release -p flowsched-bench --bin fig11 -- --timeline "$fig11_dir")"
printed="$(sed -n 's/^ *trace: \([0-9]*\) events retained, \([0-9]*\) dropped$/\1 \2/p' <<<"$out")"
snapshot="$(sed -n 's/^ *"trace_\(len\|dropped\)": \([0-9]*\),\{0,1\}$/\2/p' "$fig11_dir/snapshot.json" \
  | paste -sd' ')"
if [ -z "$printed" ] || [ "$printed" != "$snapshot" ]; then
  echo "ci_check: fig11 --timeline printed trace counts '${printed:-none}'," \
    "snapshot.json holds '${snapshot:-none}'" >&2
  exit 1
fi
echo "  fig11: ${printed% *} retained, ${printed#* } dropped, as snapshot.json reads"

echo
echo "== 2^20-machine smoke run (SoA bank + lane index, pinned schedule hashes) =="
check_smoke_hashes "0x79aabc1541609ffc 0x97f2d62b8cada828 0x43f913ba42763784 \
0x240c5bb5cb57d196 0xfbe9b910b8b10f8a" FLOWSCHED_SMOKE_M=1048576 FLOWSCHED_SMOKE_N=200000

echo
echo "== performance-ledger unit tests, smoke and full-size pinned hashes =="
cargo test --release --offline --locked -q --manifest-path perf_ledger/Cargo.toml
cargo run --release --offline --locked --manifest-path perf_ledger/Cargo.toml -- --smoke
for seed in 0x5EED 0xC0FFEE; do
  for workload in disjoint_m256 prefix_m4k observed_m256 faulty_m256 sharded_m256_t2; do
    verdict="$(cargo run -q --release --offline --locked --manifest-path perf_ledger/Cargo.toml -- \
      --workload "$workload" --seed "$seed" --seconds 0 --trace 0 | tail -n 1)"
    case "$verdict" in
      *'"correct":true'*) echo "  $workload at $seed: correct" ;;
      *)
        echo "ci_check: ledger $workload at seed $seed is not correct: $verdict" >&2
        exit 1
        ;;
    esac
  done
done

if [ "$RUN_BENCH_GATE" = 1 ]; then
  echo
  echo "== scripts/bench_gate.sh (warn-only) =="
  scripts/bench_gate.sh
fi

echo
echo "== non-test lines per crate (informational, no gate) =="
scripts/loc.sh

echo
echo "ci_check: all stages passed"
