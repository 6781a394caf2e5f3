//! # flowsched-bench
//!
//! Regeneration harness for every table and figure of the paper, plus
//! Criterion micro-benchmarks of the substrates.
//!
//! The tables and sweeps run through the root binary
//! (`cargo run --release --bin flowsched -- run <name>`: `table1`,
//! `table2`, `fig08`, `fig10a`, `fig10b`, `fig11`, `ablation`, `openq`,
//! `policies`, `service`). Each `src/bin/*` binary here prints a figure
//! the root binary does not draw, or runs a CI smoke:
//!
//! ```text
//! cargo run --release -p flowsched-bench --bin fig01   # structure reduction graph
//! cargo run --release -p flowsched-bench --bin fig03   # EFT-Min adversary Gantt
//! cargo run --release -p flowsched-bench --bin fig04   # profile convergence
//! cargo run --release -p flowsched-bench --bin fig07   # Th. 10 padding
//! cargo run --release -p flowsched-bench --bin fig09   # replication strategies
//! cargo run --release -p flowsched-bench --bin fig11   # Fmax vs load (--timeline <dir>)
//! cargo run --release -p flowsched-bench --bin openq   # staggered replication (--timeline <dir>)
//! ```
//!
//! Every binary accepts `--paper` for the paper's full parameters
//! (m = 15, 100 permutations, 10 repetitions, 10 000 tasks) and defaults
//! to a quick scale that finishes in seconds. `--seed <u64>` overrides
//! the root seed; `--csv` switches tabular output to CSV where supported.

use flowsched_algos::engine::DispatchSink;
use flowsched_core::schedule::Assignment;
use flowsched_core::task::Task;
use flowsched_experiments::Scale;

/// FNV-1a over the dispatch stream (sequence, release, ptime, machine
/// and start of every task): order-sensitive, so equal hashes certify
/// identical schedules committed in identical order. The smoke bins
/// print it as `schedule_hash=0x…`, and `scripts/ci_check.sh` compares
/// the printed hashes with pinned ones.
#[derive(Debug, Clone)]
pub struct HashSink {
    /// The running hash.
    pub hash: u64,
    /// Tasks folded so far.
    pub count: u64,
}

impl HashSink {
    /// The FNV-1a offset basis, no task folded.
    pub fn new() -> Self {
        HashSink {
            hash: 0xcbf2_9ce4_8422_2325,
            count: 0,
        }
    }

    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl Default for HashSink {
    fn default() -> Self {
        HashSink::new()
    }
}

impl DispatchSink for HashSink {
    fn accept(&mut self, seq: u64, task: Task, a: Assignment) {
        self.fold(&seq.to_le_bytes());
        self.fold(&task.release.to_bits().to_le_bytes());
        self.fold(&task.ptime.to_bits().to_le_bytes());
        self.fold(&(a.machine.index() as u64).to_le_bytes());
        self.fold(&a.start.to_bits().to_le_bytes());
        self.count += 1;
    }
}

/// Command-line options shared by the harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Selected scale.
    pub scale: Scale,
    /// Emit CSV instead of aligned tables (where supported).
    pub csv: bool,
    /// Directory to write telemetry exports into (`--timeline <dir>`):
    /// the `timeline` binary requires it, and instrumented experiment
    /// binaries write their time-series CSV there when present.
    pub timeline: Option<std::path::PathBuf>,
}

/// Parses `std::env::args()`: `--paper`, `--seed <u64>`, `--csv`,
/// `--timeline <dir>`.
///
/// # Panics
/// Panics with a usage message on unknown flags, which is the desired
/// behaviour for a CLI harness.
pub fn parse_args() -> HarnessArgs {
    parse_from(std::env::args().skip(1))
}

/// Testable parser.
pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> HarnessArgs {
    let mut scale = Scale::quick();
    let mut csv = false;
    let mut timeline = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--paper" => scale = Scale::paper(),
            "--csv" => csv = true,
            "--seed" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| panic!("--seed requires a value"));
                scale.seed = v
                    .parse()
                    .unwrap_or_else(|_| panic!("--seed takes a u64, got {v:?}"));
            }
            "--timeline" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| panic!("--timeline requires a directory"));
                timeline = Some(std::path::PathBuf::from(v));
            }
            other => panic!(
                "unknown flag {other:?}; supported: --paper, --seed <u64>, --csv, \
                 --timeline <dir>"
            ),
        }
    }
    HarnessArgs {
        scale,
        csv,
        timeline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_quick() {
        let a = parse_from(Vec::<String>::new());
        assert_eq!(a.scale.permutations, Scale::quick().permutations);
        assert!(!a.csv);
    }

    #[test]
    fn paper_flag_switches_scale() {
        let a = parse_from(vec!["--paper".to_string()]);
        assert_eq!(a.scale.permutations, 100);
        assert_eq!(a.scale.tasks, 10_000);
    }

    #[test]
    fn seed_and_csv() {
        let a = parse_from(vec!["--seed".into(), "42".into(), "--csv".into()]);
        assert_eq!(a.scale.seed, 42);
        assert!(a.csv);
    }

    #[test]
    fn timeline_takes_a_directory() {
        let a = parse_from(vec!["--timeline".into(), "out/tl".into()]);
        assert_eq!(a.timeline.as_deref(), Some(std::path::Path::new("out/tl")));
        assert!(parse_from(Vec::<String>::new()).timeline.is_none());
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        let _ = parse_from(vec!["--wat".to_string()]);
    }
}
