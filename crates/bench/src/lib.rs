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

use flowsched_experiments::Scale;

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
