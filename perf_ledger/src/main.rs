//! `ledger` — the performance ledger of the online dispatch path.
//!
//! ```text
//! cargo run --release --manifest-path perf_ledger/Cargo.toml -- [MODE]
//!
//!   [--seed S]                the full ledger: five untraced runs of every
//!                             workload, interleaved round-robin, then one
//!                             traced run each; prints every metric and
//!                             writes target/ledger/{ledger,layers}-S.json
//!                             and target/ledger/spans-W.json
//!   --smoke [--seed S]        20k tasks per workload, one run, all checks
//!   --workload W --seed S --seconds T --trace 0|1
//!                             one workload for T seconds; the last stdout
//!                             line is one JSON object with the end-to-end
//!                             (trace 0) or per-layer (trace 1) metrics
//!                             named in BENCHMARK.json
//!   --compare BASE.json NEW.json
//!                             one verdict per workload and end-to-end
//!                             metric between two full ledgers
//! ```
//!
//! Every run happens in a child process (the binary re-executes itself
//! with `--child`), so each run's peak RSS is its own. Metric names,
//! units, directions and bounds come from `BENCHMARK.json` at the root
//! of the repository; `README.md` beside this file defines them.

mod scenario;
mod sink;
mod stats;
mod trace;

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use serde_json::Value;

use scenario::{RunOutput, Workload, DEFAULT_SEED, SMOKE_TASKS};
use stats::{median, quantile, quartiles, verdict, Rule, Verdict};

/// Counts every allocation and its requested bytes; frees are not
/// counted. Statistics only, so `Relaxed` suffices.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

#[inline(always)]
fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so each upholds exactly the contract `System` does; the counters
// touch no memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by this process so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Bytes requested by this process's allocations so far.
pub fn allocated_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.split_whitespace().next())
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Untraced runs of every workload in the full ledger.
const RUNS: usize = 5;

/// `tasks_per_s` is measured over windows of this many consecutive
/// batches of [`sink::BATCH`] commits (4096 tasks).
const WINDOW_BATCHES: usize = 4;

/// `tasks_per_s` reads a run's window times at this quantile.
const PEAK_QUANTILE: f64 = 0.01;

/// One metric as `BENCHMARK.json` declares it.
struct MetricDef {
    name: String,
    unit: String,
    rule: Rule,
}

impl MetricDef {
    /// A lower-is-better metric compared by equality.
    fn exact(name: &str, unit: &str) -> Self {
        MetricDef {
            name: name.into(),
            unit: unit.into(),
            rule: Rule {
                lower_is_better: true,
                bound: 0.0,
                exact: true,
            },
        }
    }
}

/// The end-to-end and per-layer metric lists of `BENCHMARK.json`, and
/// the end-to-end metrics only the full ledger reports, all compared by
/// equality: the flow times `fmax` (the paper's objective) and
/// `p99_flow`, which a seed fixes exactly but which move from seed to
/// seed, and `error_rate`, 0 when all is well.
struct BenchDef {
    /// Length of one run of a workload.
    run_seconds: u64,
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
    flow: [MetricDef; 2],
    error_rate: MetricDef,
}

impl BenchDef {
    /// The full ledger's end-to-end metrics measured per run.
    fn ledger_end_to_end(&self) -> impl Iterator<Item = &MetricDef> {
        self.end_to_end.iter().chain(&self.flow)
    }
}

fn bench_def() -> BenchDef {
    let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<MetricDef> {
        let Some(Value::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json: `{key}` is not a list")
        };
        items
            .iter()
            .map(|m| MetricDef {
                name: m["name"].as_str().expect("metric name").to_string(),
                unit: m["unit"].as_str().expect("metric unit").to_string(),
                rule: Rule {
                    lower_is_better: m.get("better").and_then(Value::as_str) != Some("higher"),
                    bound: m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
                    exact: false,
                },
            })
            .collect()
    };
    BenchDef {
        run_seconds: doc["run_seconds"]
            .as_f64()
            .expect("BENCHMARK.json: run_seconds is a number") as u64,
        end_to_end: list("end_to_end"),
        per_layer: list("per_layer"),
        flow: [
            MetricDef::exact("fmax", "simtime"),
            MetricDef::exact("p99_flow", "simtime"),
        ],
        error_rate: MetricDef::exact("error_rate", "fraction"),
    }
}

/// Unit of a metric: as declared in `BENCHMARK.json`, else by suffix.
fn unit_of(def: &BenchDef, name: &str) -> String {
    if let Some(m) = def
        .end_to_end
        .iter()
        .chain(&def.per_layer)
        .find(|m| m.name == name)
    {
        return m.unit.clone();
    }
    let by_suffix = [
        ("tasks_per_s", "tasks/s"),
        ("_pct", "%"),
        ("_ns_per_task", "ns"),
        ("_ns", "ns"),
        ("_us", "us"),
        ("_ms", "ms"),
        ("_s", "s"),
        ("bytes_per_task", "bytes"),
        ("_bytes", "bytes"),
        ("_mib", "MiB"),
    ];
    let bare = name.trim_end_matches("_p50").trim_end_matches("_p99");
    by_suffix
        .iter()
        .find(|(suffix, _)| bare.ends_with(suffix))
        .map_or("count", |&(_, unit)| unit)
        .to_string()
}

fn out_dir() -> PathBuf {
    PathBuf::from("target").join("ledger")
}

/// A table cell: six decimals, or scientific notation for values that
/// would read as 0 or overflow the column.
fn sig(v: f64) -> String {
    if v != 0.0 && !(1e-2..1e7).contains(&v.abs()) {
        format!("{v:.5e}")
    } else {
        format!("{v:.6}")
    }
}

fn hex(h: u64) -> String {
    format!("0x{h:016x}")
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(h) => u64::from_str_radix(h, 16).ok(),
        None => s.parse().ok(),
    }
}

fn num(v: f64) -> Value {
    Value::Number(v)
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn run_to_json(w: Workload, r: &RunOutput) -> String {
    let doc = obj(vec![
        ("workload", Value::String(w.name().into())),
        ("tasks", num(r.tasks as f64)),
        ("hash", Value::String(hex(r.hash))),
        ("prefix_hash", Value::String(hex(r.prefix_hash))),
        ("kernel", Value::String(r.kernel.clone())),
        (
            "errors",
            Value::Array(r.errors.iter().map(|e| Value::String(e.clone())).collect()),
        ),
        (
            "metrics",
            Value::Object(
                r.metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), num(*v)))
                    .collect(),
            ),
        ),
        (
            "batch_ns",
            Value::Array(r.batch_ns.iter().map(|&ns| num(ns as f64)).collect()),
        ),
    ]);
    serde_json::to_string(&doc).expect("serializes")
}

fn run_from_json(text: &str) -> Result<RunOutput, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let hash = |v: Option<&Value>| v.and_then(Value::as_str).and_then(parse_u64);
    let Some(Value::Object(metrics)) = doc.get("metrics") else {
        return Err("run result has no metrics".into());
    };
    let Some(Value::Array(errors)) = doc.get("errors") else {
        return Err("run result has no error list".into());
    };
    let Some(Value::Array(batch_ns)) = doc.get("batch_ns") else {
        return Err("run result has no batch times".into());
    };
    Ok(RunOutput {
        tasks: doc.get("tasks").and_then(Value::as_f64).unwrap_or(0.0) as u64,
        hash: hash(doc.get("hash")).ok_or("run result has no hash")?,
        prefix_hash: hash(doc.get("prefix_hash")).ok_or("run result has no prefix hash")?,
        kernel: doc
            .get("kernel")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
        errors: errors
            .iter()
            .filter_map(|e| e.as_str().map(String::from))
            .collect(),
        metrics: metrics
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
            .collect(),
        batch_ns: batch_ns
            .iter()
            .filter_map(|ns| ns.as_f64().map(|ns| ns as u64))
            .collect(),
        spans_json: None,
    })
}

/// The child side: time the set-up, run once, print one JSON line.
fn child(w: Workload, seed: u64, n: usize, traced: bool, spans: Option<PathBuf>) -> ExitCode {
    let setup = scenario::time_setup(w, n, seed);
    let mut out = scenario::run(w, n, seed, traced);
    out.metrics.extend([
        ("setup_s".to_string(), setup.total_s),
        ("workloads.setup_us".to_string(), setup.workloads_us),
        ("algos.build_us".to_string(), setup.algos_us),
        ("obs.setup_us".to_string(), setup.obs_us),
        ("sim.setup_us".to_string(), setup.sim_us),
        ("peak_rss_mib".to_string(), peak_rss_mib()),
    ]);
    if let (Some(path), Some(text)) = (spans, out.spans_json.take()) {
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, text));
        if let Err(e) = written {
            out.errors.push(format!("writing {}: {e}", path.display()));
        }
    }
    println!("{}", run_to_json(w, &out));
    ExitCode::SUCCESS
}

/// One run in a child process.
struct Attempt {
    traced: bool,
    result: Result<RunOutput, String>,
}

fn spawn_run(w: Workload, seed: u64, n: usize, traced: bool, spans: Option<&Path>) -> Attempt {
    let result = (|| {
        let exe = std::env::current_exe().map_err(|e| format!("locating the ledger: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["--child", w.name(), "--seed", &seed.to_string()])
            .args(["--tasks", &n.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if traced {
            cmd.arg("--traced");
        }
        if let Some(p) = spans {
            cmd.arg("--spans").arg(p);
        }
        let output = cmd
            .output()
            .map_err(|e| format!("starting a {} run: {e}", w.name()))?;
        if !output.status.success() {
            return Err(format!("{} run failed: {}", w.name(), output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("");
        run_from_json(last).map_err(|e| format!("{} run result: {e}", w.name()))
    })();
    Attempt { traced, result }
}

const KERNEL_COUNTS: [&str; 3] = [
    "algos.indexed_descents_per_task",
    "algos.scalar_fallback_scans_per_task",
    "algos.heap_self_heals_per_task",
];

/// Hash of the sequential engine's first `min(n, PREFIX_TASKS)`
/// decisions at `seed`: what a run of `n` tasks that must reproduce
/// `disjoint_m256`'s schedule has to start with.
fn sequential_prefix(seed: u64, n: usize) -> Result<u64, String> {
    let r = scenario::run(
        Workload::DisjointM256,
        n.min(sink::PREFIX_TASKS as usize),
        seed,
        false,
    );
    if r.errors.is_empty() {
        Ok(r.hash)
    } else {
        Err(format!("sequential reference run: {}", r.errors.join("; ")))
    }
}

/// Why each of `w`'s attempts at `seed` over `n` tasks failed (empty
/// when it passed): its own checks; its schedule hash against the pinned
/// one, else against the first untraced run's; for a workload on
/// `disjoint_m256`'s inputs, its first decisions against the sequential
/// engine's; and a traced run's kernel counters against the untraced
/// runs'.
fn evaluate(w: Workload, seed: u64, n: usize, attempts: &[Attempt]) -> Vec<Vec<String>> {
    let untraced = ok_runs(attempts, false).next();
    let reference = w.pinned_hash(seed, n).or(untraced.map(|r| r.hash));
    let prefix_ref = (w.schedule_twin() != w).then(|| sequential_prefix(seed, n));
    attempts
        .iter()
        .map(|a| {
            let r = match &a.result {
                Ok(r) => r,
                Err(e) => return vec![e.clone()],
            };
            let mut why = r.errors.clone();
            if let Some(h) = reference.filter(|&h| h != r.hash) {
                why.push(format!(
                    "schedule hash {} differs from {}",
                    hex(r.hash),
                    hex(h)
                ));
            }
            match &prefix_ref {
                Some(Ok(want)) if *want != r.prefix_hash => why.push(format!(
                    "first decisions differ from {}'s",
                    w.schedule_twin().name()
                )),
                Some(Err(e)) => why.push(e.clone()),
                _ => {}
            }
            if let (true, Some(u)) = (a.traced, untraced) {
                for name in KERNEL_COUNTS {
                    if r.get(name) != u.get(name) {
                        why.push(format!("traced {name} differs from the untraced run's"));
                    }
                }
            }
            why
        })
        .collect()
}

/// Evaluates `w`'s attempts, prints why each failed one failed, and
/// returns how many did.
fn count_failures(w: Workload, seed: u64, n: usize, attempts: &[Attempt]) -> usize {
    let why = evaluate(w, seed, n, attempts);
    for (i, reasons) in why.iter().enumerate() {
        for r in reasons {
            eprintln!("ledger: {} run {i}: {r}", w.name());
        }
    }
    why.iter().filter(|r| !r.is_empty()).count()
}

/// The span file of `w`'s traced run; each traced run of `w` replaces it.
fn spans_path(w: Workload) -> PathBuf {
    out_dir().join(format!("spans-{}.json", w.name()))
}

fn ok_runs(attempts: &[Attempt], traced: bool) -> impl Iterator<Item = &RunOutput> {
    attempts
        .iter()
        .filter(move |a| a.traced == traced)
        .filter_map(|a| a.result.as_ref().ok())
}

/// Every untraced child's value of `name`.
fn values(attempts: &[Attempt], name: &str) -> Vec<f64> {
    ok_runs(attempts, false)
        .filter_map(|r| r.get(name))
        .collect()
}

/// Peak sustained throughput of a run: the tasks of one window of
/// [`WINDOW_BATCHES`] batches over the [`PEAK_QUANTILE`] of the window
/// times of all its untraced children together.
///
/// On a shared host the neighbours' load can halve the throughput of
/// every window for seconds at a time, so a run's whole-run throughput
/// and its median window follow their load; the fast end of the window
/// times is what repeats from run to run. Work done once in many
/// windows shows only in `ledger.run_tasks_per_s`.
fn peak_tasks_per_s(attempts: &[Attempt]) -> Option<f64> {
    let windows: Vec<f64> = ok_runs(attempts, false)
        .flat_map(|r| r.batch_ns.chunks_exact(WINDOW_BATCHES))
        .map(|w| w.iter().sum::<u64>() as f64 / 1e9)
        .collect();
    let tasks = (WINDOW_BATCHES as u64 * sink::BATCH) as f64;
    (!windows.is_empty()).then(|| tasks / quantile(&windows, PEAK_QUANTILE))
}

/// A run's value of the end-to-end metric `name`: for `tasks_per_s` its
/// peak sustained throughput, for `setup_s` its fastest child's, and
/// otherwise the median over its untraced children.
///
/// Set-up is the fastest child's because a child keeps one speed for
/// its whole life: on a 2-core x86-64 VM some processes build the same
/// fault plan in 1.1 ms and others in 1.65 ms, in any mix, on either
/// core and with address randomisation on or off.
fn run_value(attempts: &[Attempt], name: &str) -> Option<f64> {
    let v = values(attempts, name);
    match name {
        "tasks_per_s" => peak_tasks_per_s(attempts),
        "setup_s" => v.into_iter().reduce(f64::min),
        _ => (!v.is_empty()).then(|| median(&v)),
    }
}

/// One run of `w`: a traced child first when `traced`, then untraced
/// children back to back until `budget` has passed, at least one.
fn measure(w: Workload, seed: u64, n: usize, budget: Duration, traced: bool) -> Vec<Attempt> {
    let start = Instant::now();
    let mut attempts = Vec::new();
    if traced {
        attempts.push(spawn_run(w, seed, n, true, Some(&spans_path(w))));
    }
    loop {
        let t0 = Instant::now();
        attempts.push(spawn_run(w, seed, n, false, None));
        if start.elapsed() + t0.elapsed() > budget {
            return attempts;
        }
    }
}

/// Per-layer value of `name`: the untraced children's median when they
/// measure it, else the traced child's; `trace.overhead_pct` compares the
/// two.
fn layer_value(attempts: &[Attempt], name: &str) -> Option<f64> {
    let traced = ok_runs(attempts, true).next();
    if name == "trace.overhead_pct" {
        let slow = traced?.get("ledger.run_tasks_per_s")?;
        let fast = median(&values(attempts, "ledger.run_tasks_per_s"));
        return Some((fast / slow - 1.0) * 100.0);
    }
    let v = values(attempts, name);
    if v.is_empty() {
        traced?.get(name)
    } else {
        Some(median(&v))
    }
}

/// All per-layer metric names the runs produced, in first-seen order.
fn layer_names(attempts: &[Attempt], def: &BenchDef) -> Vec<String> {
    let end_to_end: Vec<&str> = def.ledger_end_to_end().map(|m| m.name.as_str()).collect();
    let mut names: Vec<String> = def.per_layer.iter().map(|m| m.name.clone()).collect();
    for r in ok_runs(attempts, true).chain(ok_runs(attempts, false)) {
        for (k, _) in &r.metrics {
            if !names.contains(k) && !end_to_end.contains(&k.as_str()) {
                names.push(k.clone());
            }
        }
    }
    names
}

/// `--workload W --seed S --seconds T --trace 0|1`.
fn drive(w: Workload, seed: u64, seconds: u64, traced: bool) -> ExitCode {
    let def = bench_def();
    let n = w.tasks();
    let attempts = measure(w, seed, n, Duration::from_secs(seconds), traced);
    let failed = count_failures(w, seed, n, &attempts);
    let list = if traced {
        &def.per_layer
    } else {
        &def.end_to_end
    };
    let mut metrics = Vec::new();
    for m in list {
        let value = if traced {
            // A layer the workload does not use (a queue on a sequential
            // engine, an export without a recorder) did no work: 0.
            Some(layer_value(&attempts, &m.name).unwrap_or(0.0))
        } else {
            run_value(&attempts, &m.name)
        };
        let Some(value) = value else {
            eprintln!("ledger: no {} run measured {}", w.name(), m.name);
            return ExitCode::FAILURE;
        };
        eprintln!("ledger: {} {} = {value} {}", w.name(), m.name, m.unit);
        metrics.push((
            m.name.clone(),
            obj(vec![
                ("value", num(value)),
                ("unit", Value::String(m.unit.clone())),
            ]),
        ));
    }
    let doc = obj(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", num(attempts.len() as f64)),
        ("failed", num(failed as f64)),
        ("metrics", Value::Object(metrics)),
    ]);
    println!("{}", serde_json::to_string(&doc).expect("serializes"));
    ExitCode::SUCCESS
}

/// Output of a command, trimmed, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn meta(seed: u64, runs: usize, run_seconds: u64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    obj(vec![
        ("nproc", num(nproc as f64)),
        (
            "git_rev",
            Value::String(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        (
            "rustc",
            Value::String(command_line("rustc", &["--version"])),
        ),
        ("seed", Value::String(format!("{seed:#x}"))),
        ("runs", num(runs as f64)),
        ("run_seconds", num(run_seconds as f64)),
        ("sample_every", num(trace::SAMPLE_EVERY as f64)),
        ("shard_threads", num(scenario::shard_threads() as f64)),
    ])
}

/// The full ledger (or `--smoke`, one child per workload): every
/// workload, round-robin, one run of `run_seconds` each per round.
fn ledger(seed: u64, smoke: bool) -> ExitCode {
    let def = bench_def();
    let (runs, budget) = if smoke {
        (1, Duration::ZERO)
    } else {
        (RUNS, Duration::from_secs(def.run_seconds))
    };
    let n_of = |w: Workload| if smoke { SMOKE_TASKS } else { w.tasks() };
    let mut rounds: Vec<Vec<Vec<Attempt>>> = Workload::ALL.iter().map(|_| Vec::new()).collect();
    for round in 0..runs {
        for (i, &w) in Workload::ALL.iter().enumerate() {
            eprintln!("ledger: round {}/{runs} {}", round + 1, w.name());
            rounds[i].push(measure(w, seed, n_of(w), budget, false));
        }
    }
    let traced: Vec<Attempt> = Workload::ALL
        .iter()
        .map(|&w| {
            eprintln!("ledger: traced {}", w.name());
            let spans = (!smoke).then(|| spans_path(w));
            spawn_run(w, seed, n_of(w), true, spans.as_deref())
        })
        .collect();

    let mut table = Vec::new();
    let mut ledger_rows = Vec::new();
    let mut layer_rows = Vec::new();
    let mut all_correct = true;
    for ((&w, runs_of_w), traced) in Workload::ALL.iter().zip(rounds).zip(traced) {
        let per_run: Vec<(&MetricDef, Vec<f64>)> = def
            .ledger_end_to_end()
            .map(|m| {
                let v = runs_of_w.iter().filter_map(|a| run_value(a, &m.name));
                (m, v.collect())
            })
            .collect();
        let mut a: Vec<Attempt> = runs_of_w.into_iter().flatten().collect();
        a.push(traced);
        let a = &a;
        let failed = count_failures(w, seed, n_of(w), a);
        all_correct &= failed == 0;

        let mut metrics = Vec::new();
        let mut add = |m: &MetricDef, v: Vec<f64>, note: String| {
            let (med, (q1, q3)) = (median(&v), quartiles(&v));
            table.push(format!(
                "{:<16} {:<22} {:<8} {:>16} {:>16} {:>16}{note}",
                w.name(),
                m.name,
                m.unit,
                sig(med),
                sig(q1),
                sig(q3)
            ));
            metrics.push((
                m.name.clone(),
                obj(vec![
                    ("unit", Value::String(m.unit.clone())),
                    ("median", num(med)),
                    ("q1", num(q1)),
                    ("q3", num(q3)),
                    ("values", Value::Array(v.into_iter().map(num).collect())),
                ]),
            ));
        };
        for (m, v) in per_run {
            add(m, v, String::new());
        }
        let note = format!("   ({failed} of {} children failed)", a.len());
        add(&def.error_rate, vec![failed as f64 / a.len() as f64], note);
        let first = ok_runs(a, false).next();
        ledger_rows.push((
            w.name().to_string(),
            obj(vec![
                ("tasks", num(n_of(w) as f64)),
                (
                    "kernel",
                    Value::String(first.map_or(String::new(), |r| r.kernel.clone())),
                ),
                (
                    "hash",
                    Value::String(first.map_or(String::new(), |r| hex(r.hash))),
                ),
                ("attempted", num(a.len() as f64)),
                ("failed", num(failed as f64)),
                ("metrics", Value::Object(metrics)),
            ]),
        ));
        let layers: Vec<(String, Value)> = layer_names(a, &def)
            .into_iter()
            .filter_map(|name| {
                let v = layer_value(a, &name)?;
                let unit = unit_of(&def, &name);
                Some((
                    name,
                    obj(vec![("value", num(v)), ("unit", Value::String(unit))]),
                ))
            })
            .collect();
        layer_rows.push((w.name().to_string(), Value::Object(layers)));
    }

    println!(
        "{:<16} {:<22} {:<8} {:>16} {:>16} {:>16}",
        "workload", "metric", "unit", "median", "q1", "q3"
    );
    for row in &table {
        println!("{row}");
    }
    println!();
    println!(
        "{:<16} {:<38} {:<8} {:>16}",
        "workload", "per-layer metric", "unit", "value"
    );
    for (w, layers) in &layer_rows {
        if let Value::Object(fields) = layers {
            for (name, v) in fields {
                println!(
                    "{w:<16} {name:<38} {:<8} {:>16}",
                    v["unit"].as_str().unwrap_or(""),
                    sig(v["value"].as_f64().unwrap_or(0.0))
                );
            }
        }
    }
    if !smoke {
        let meta = meta(seed, runs, def.run_seconds);
        let write = |kind: &str, rows: Vec<(String, Value)>| {
            let doc = obj(vec![
                ("_meta", meta.clone()),
                ("workloads", Value::Object(rows)),
            ]);
            let path = out_dir().join(format!("{kind}-{seed:#x}.json"));
            std::fs::create_dir_all(out_dir())
                .and_then(|()| {
                    std::fs::write(
                        &path,
                        serde_json::to_string_pretty(&doc).expect("serializes"),
                    )
                })
                .map(|()| eprintln!("ledger: wrote {}", path.display()))
                .map_err(|e| eprintln!("ledger: writing {}: {e}", path.display()))
                .is_ok()
        };
        let written = write("ledger", ledger_rows) & write("layers", layer_rows);
        all_correct &= written;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("ledger: some runs failed their checks");
        ExitCode::FAILURE
    }
}

/// `--compare BASE.json NEW.json`.
fn compare(base: &Path, new: &Path) -> ExitCode {
    let def = bench_def();
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (base_doc, new_doc) = match (load(base), load(new)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let runs = |doc: &Value, w: &str, m: &str| -> Vec<f64> {
        match doc
            .get("workloads")
            .and_then(|d| d.get(w))
            .and_then(|d| d.get("metrics"))
            .and_then(|d| d.get(m))
            .and_then(|d| d.get("values"))
        {
            Some(Value::Array(v)) => v.iter().filter_map(Value::as_f64).collect(),
            _ => Vec::new(),
        }
    };
    println!(
        "{:<16} {:<22} {:<8} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "unit", "base median", "new median", "change"
    );
    let mut counts = [0usize; 4];
    for w in Workload::ALL {
        for m in def.ledger_end_to_end().chain([&def.error_rate]) {
            let (b, n) = (
                runs(&base_doc, w.name(), &m.name),
                runs(&new_doc, w.name(), &m.name),
            );
            if b.is_empty() && n.is_empty() {
                continue;
            }
            let v = verdict(&b, &n, m.rule);
            counts[v as usize] += 1;
            let (bm, nm) = (median(&b), median(&n));
            let change = if bm != 0.0 {
                (nm - bm) / bm.abs() * 100.0
            } else {
                0.0
            };
            println!(
                "{:<16} {:<22} {:<8} {:>16} {:>16} {:>+8.2}%  {}",
                w.name(),
                m.name,
                m.unit,
                sig(bm),
                sig(nm),
                change,
                v.name()
            );
        }
    }
    println!(
        "better {}  same {}  worse {}  unresolved {}",
        counts[Verdict::Better as usize],
        counts[Verdict::Same as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize]
    );
    ExitCode::SUCCESS
}

const USAGE: &str = "usage: ledger [--seed S] | --smoke [--seed S] \
    | --workload W --seed S --seconds T --trace 0|1 | --compare BASE.json NEW.json";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("ledger: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = None;
    let mut workload = None;
    let mut child_of = None;
    let mut tasks = None;
    let mut traced = false;
    let mut spans = None;
    let mut smoke = false;
    let mut compare_paths = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        let parsed: Result<(), String> = (|| {
            match flag.as_str() {
                "--seed" => seed = parse_u64(&value("a seed")?).ok_or("--seed takes an integer")?,
                "--seconds" => {
                    seconds = Some(
                        value("a duration")?
                            .parse::<u64>()
                            .map_err(|_| "--seconds takes whole seconds")?,
                    )
                }
                "--trace" => {
                    trace = Some(match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                "--workload" => workload = Some(value("a workload name")?),
                "--child" => child_of = Some(value("a workload name")?),
                "--tasks" => {
                    tasks = Some(
                        value("a count")?
                            .parse::<usize>()
                            .map_err(|_| "--tasks takes a count")?,
                    )
                }
                "--traced" => traced = true,
                "--spans" => spans = Some(PathBuf::from(value("a path")?)),
                "--smoke" => smoke = true,
                "--compare" => {
                    compare_paths = Some((
                        PathBuf::from(value("two paths")?),
                        PathBuf::from(value("two paths")?),
                    ))
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            return usage_error(&e);
        }
    }
    let find =
        |name: &str| Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"));
    if let Some((base, new)) = compare_paths {
        return compare(&base, &new);
    }
    if let Some(name) = child_of {
        return match find(&name) {
            Ok(w) => child(w, seed, tasks.unwrap_or(w.tasks()), traced, spans),
            Err(e) => usage_error(&e),
        };
    }
    if let Some(name) = workload {
        return match (find(&name), seconds, trace) {
            (Ok(w), Some(s), Some(t)) => drive(w, seed, s, t),
            (Err(e), _, _) => usage_error(&e),
            _ => usage_error("--workload needs --seconds and --trace"),
        };
    }
    ledger(seed, smoke)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_results_round_trip_through_json() {
        let r = RunOutput {
            tasks: 12,
            hash: 0xDEAD_BEEF_0123_4567,
            prefix_hash: 0x0123_4567_DEAD_BEEF,
            kernel: "scalar".into(),
            errors: vec!["bad \"quote\"".into()],
            metrics: vec![("tasks_per_s".into(), 1.25e7), ("fmax".into(), 3.5)],
            batch_ns: vec![131_072, 9_007_199_254_740_000],
            spans_json: None,
        };
        let back = run_from_json(&run_to_json(Workload::DisjointM256, &r)).unwrap();
        assert_eq!(back.tasks, 12);
        assert_eq!(back.hash, r.hash);
        assert_eq!(back.prefix_hash, r.prefix_hash);
        assert_eq!(back.errors, r.errors);
        assert_eq!(back.metrics, r.metrics);
        assert_eq!(back.batch_ns, r.batch_ns);
    }

    fn child_with_batches(traced: bool, batch_ns: Vec<u64>) -> Attempt {
        Attempt {
            traced,
            result: Ok(RunOutput {
                batch_ns,
                ..RunOutput::default()
            }),
        }
    }

    #[test]
    fn peak_throughput_pools_the_untraced_childrens_windows() {
        // 101 windows of 4 batches: 4 ms, 6 ms and 99 at 8 ms. The
        // traced child's faster windows do not count, nor do the fast
        // batches left over after the last whole window.
        let mut second = vec![1_000_000; 4];
        second.extend([1_500_000; 4]);
        second.extend(vec![2_000_000; 4 * 49]);
        second.extend([250_000; 3]);
        let attempts = vec![
            child_with_batches(false, vec![2_000_000; 4 * 50]),
            child_with_batches(false, second),
            child_with_batches(true, vec![500_000; 400]),
        ];
        // The 1st percentile of 101 window times is the second fastest.
        let want = 4096.0 / 0.006;
        let got = peak_tasks_per_s(&attempts).unwrap();
        assert!((got - want).abs() < 1e-9 * want, "{got} vs {want}");
        assert_eq!(run_value(&attempts, "tasks_per_s"), Some(got));
        assert_eq!(peak_tasks_per_s(&attempts[2..]), None);
    }

    #[test]
    fn a_run_reports_its_fastest_setup_and_median_memory() {
        let child = |traced: bool, setup: f64, rss: f64| Attempt {
            traced,
            result: Ok(RunOutput {
                metrics: vec![("setup_s".into(), setup), ("peak_rss_mib".into(), rss)],
                ..RunOutput::default()
            }),
        };
        let attempts = vec![
            child(false, 1.65e-3, 4.0),
            child(false, 1.1e-3, 5.0),
            child(false, 1.7e-3, 9.0),
            child(true, 0.5e-3, 1.0),
        ];
        assert_eq!(run_value(&attempts, "setup_s"), Some(1.1e-3));
        assert_eq!(run_value(&attempts, "peak_rss_mib"), Some(5.0));
        assert_eq!(run_value(&attempts[3..], "setup_s"), None);
    }

    fn attempt(w: Workload, seed: u64, n: usize, traced: bool) -> Attempt {
        Attempt {
            traced,
            result: Ok(scenario::run(w, n, seed, traced)),
        }
    }

    #[test]
    fn a_changed_decision_fails_the_twin_workloads_at_an_unpinned_seed() {
        // Longer than the sequential reference, so only the prefix of
        // each run is compared with disjoint_m256's.
        let (seed, n) = (7, sink::PREFIX_TASKS as usize + 1000);
        assert_eq!(Workload::ObservedM256.pinned_hash(seed, n), None);
        for w in [Workload::ObservedM256, Workload::ShardedM256T2] {
            let mut attempts = vec![attempt(w, seed, n, false), attempt(w, seed, n, true)];
            let why = evaluate(w, seed, n, &attempts);
            assert!(why.iter().all(Vec::is_empty), "{}: {why:?}", w.name());

            // A recorder or transport that moved one early task, with
            // every run agreeing on the changed schedule.
            for a in &mut attempts {
                a.result.as_mut().unwrap().prefix_hash ^= 1;
            }
            let why = evaluate(w, seed, n, &attempts);
            assert!(
                why.iter()
                    .all(|r| r.iter().any(|e| e.contains("first decisions differ"))),
                "{}: {why:?}",
                w.name()
            );
        }
    }

    #[test]
    fn runs_of_one_workload_must_agree_and_match_the_pin() {
        let (seed, n) = (7, SMOKE_TASKS);
        let mut attempts = vec![
            attempt(Workload::FaultyM256, seed, n, false),
            attempt(Workload::FaultyM256, seed, n, false),
        ];
        assert!(evaluate(Workload::FaultyM256, seed, n, &attempts)
            .iter()
            .all(Vec::is_empty));
        attempts[1].result.as_mut().unwrap().hash ^= 1;
        let why = evaluate(Workload::FaultyM256, seed, n, &attempts);
        assert!(
            why[0].is_empty() && why[1][0].contains("schedule hash"),
            "{why:?}"
        );
    }

    #[test]
    fn benchmark_json_names_every_workload_and_metric_this_ledger_reports() {
        let def = bench_def();
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).unwrap();
        let Some(Value::Array(ws)) = doc.get("workloads") else {
            panic!("no workloads")
        };
        let names: Vec<&str> = ws.iter().filter_map(|w| w["name"].as_str()).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        assert!(def.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(def.per_layer.len() >= 20);
    }

    #[test]
    fn units_fall_back_to_the_name_suffix() {
        let def = bench_def();
        assert_eq!(unit_of(&def, "obs.export_ms"), "ms");
        assert_eq!(unit_of(&def, "algos.dispatch_ns_p99"), "ns");
        assert_eq!(unit_of(&def, "parallel.stalls"), "count");
        assert_eq!(unit_of(&def, "trace.overhead_pct"), "%");
    }
}
