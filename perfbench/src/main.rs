//! The repository benchmark: one command that runs a workload through the
//! public APIs of `hi_service`, `hi_api` and the object crates, checks
//! every run's output, and prints each metric by name with its unit. The
//! last line of standard output is the machine-readable result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload svc-hashtable-zipf --seed 0xbe7c --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics from untraced runs;
//! `--trace 1` prints the per-layer metrics from a traced run (plus an
//! untraced one, to state what tracing costs) and writes its spans to
//! `perfbench/out/`. See `perfbench/README.md` for why each workload exists.

mod affinity;
mod direct;
mod facade;
mod service;
mod sharded;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use hi_api::adapters::HashTableObject;
use hi_core::objects::HashSetSpec;

use crate::trace::Tracer;

/// The workload seed of the repository's other benches; the default here
/// so that numbers line up with theirs.
const DEFAULT_SEED: u64 = 0xbe7c;

/// Repetitions every measured phase runs at least, so that each reported
/// figure is a median of several.
const MIN_REPS: usize = 3;

/// The end-to-end metrics, printed with `--trace 0`, as (name, unit).
const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "ops/s"),
    ("latency_p50_ns", "ns"),
    ("latency_p99_ns", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed with `--trace 1`, as (name, unit). A
/// workload whose path does not cross a layer reports that layer's
/// metrics as 0.
const PER_LAYER: [(&str, &str); 24] = [
    ("service.queue_wait_p50_ns", "ns"),
    ("service.queue_wait_p99_ns", "ns"),
    ("service.apply_p50_ns", "ns"),
    ("service.apply_p99_ns", "ns"),
    ("service.harness_ns_per_op", "ns"),
    ("service.sends_blocked_frac", "fraction"),
    ("service.max_queue_depth", "count"),
    ("service.barrier_pause_ms", "ms"),
    ("service.setup_s", "s"),
    ("service.trace_overhead_frac", "fraction"),
    ("api.bare_ops_per_s", "ops/s"),
    ("api.harness_share", "fraction"),
    ("audit.mem_snapshot_us", "us"),
    ("audit.canonical_us", "us"),
    ("audit.sampled_us", "us"),
    ("shard.resizes", "count"),
    ("shard.resize_pause_ms", "ms"),
    ("shard.mem_words_per_key", "words"),
    ("hashtable.mean_displacement", "slots"),
    ("universal.update_p50_ns", "ns"),
    ("universal.update_p99_ns", "ns"),
    ("universal.read_p50_ns", "ns"),
    ("universal.uncontended_ops_per_s", "ops/s"),
    ("universal.contention_slowdown", "ratio"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// How long each measured phase repeats its runs.
    pub budget: Duration,
    pub trace: bool,
    /// Tiny op counts, for the benchmark's own tests.
    pub smoke: bool,
}

/// What a workload hands back: op accounting, check failures and the
/// metrics it measured, keyed by the names in [`END_TO_END`] or
/// [`PER_LAYER`].
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check, naming it.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable context (sample counts, op counts) printed above the
    /// result.
    pub notes: Vec<String>,
    /// A digest of the generated inputs (or, for the service workloads,
    /// of the final memory they deterministically produce).
    pub digest: u64,
}

impl Outcome {
    /// Accounts runs of `ops` operations each and keeps the ones that
    /// passed their checks; a failed check counts all of a run's ops as
    /// failed.
    pub fn settle<T>(&mut self, runs: Vec<Result<T, String>>, ops: usize) -> Vec<T> {
        self.attempted += (runs.len() * ops) as u64;
        runs.into_iter()
            .filter_map(|run| {
                run.map_err(|e| {
                    self.failed += ops as u64;
                    self.failures.push(e);
                })
                .ok()
            })
            .collect()
    }
}

/// Runs `rep(r)` for `r = 0, 1, ...` until `budget` has elapsed and at
/// least [`MIN_REPS`] have run.
pub fn repeat<T>(budget: Duration, mut rep: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPS || start.elapsed() < budget {
        out.push(rep(out.len()));
    }
    out
}

/// The seed of repetition `rep`: every repetition draws fresh inputs, and
/// the same `--seed` gives the same sequence.
pub fn rep_seed(seed: u64, rep: usize) -> u64 {
    hi_core::handle_seed(seed, rep)
}

/// FNV-1a over 64-bit words.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|e| format!("not a number: {s:?} ({e})"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        budget: Duration::from_secs(30),
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = parse_u64(&value)?,
            "--seconds" => {
                let s = parse_u64(&value)?;
                if s > 600 {
                    return Err(format!("--seconds {s} exceeds 600"));
                }
                args.budget = Duration::from_secs(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

/// Ops per soak: enough that thousands of samples lie beyond each soak's
/// p99, few enough that one run holds many soaks to take the median of.
fn run_workload(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "svc-hashtable-zipf" => Ok(service::run(
            args,
            tracer,
            &service::Shape {
                total_ops: if args.smoke { 20_000 } else { 250_000 },
                theta: 1.1,
            },
            || HashTableObject::new(HashSetSpec::new(16), 29, 1),
        )),
        "direct-sharded-zipf-8k" => Ok(sharded::run(args, tracer)),
        "direct-universal-counter" => Ok(direct::run(args, tracer)),
        other => Err(format!(
            "unknown workload {other:?}; expected svc-hashtable-zipf, direct-sharded-zipf-8k \
             or direct-universal-counter"
        )),
    }
}

/// `VmHWM` of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM line in /proc/self/status".to_string())
}

/// The directory holding this package; the repository root is its parent.
fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Standard output of a command, trimmed, when it succeeds.
fn command_output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The revision being measured, read now: short hash plus whether the
/// working tree differs from it. Outside a git checkout it is "unknown";
/// git is pointed at the repository's own `.git` so it reads nothing
/// outside the checkout.
fn revision() -> (String, Option<bool>) {
    let Some(root) = package_dir().parent() else {
        return ("unknown".into(), None);
    };
    let git_dir = root.join(".git");
    if !git_dir.exists() {
        return ("unknown".into(), None);
    }
    let git = |args: &[&str]| {
        command_output(
            Command::new("git")
                .arg("--git-dir")
                .arg(&git_dir)
                .arg("--work-tree")
                .arg(root)
                .args(args),
        )
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(hash) => {
            let dirty = git(&["status", "--porcelain"]).map(|s| !s.is_empty());
            (hash, dirty)
        }
        None => ("unknown".into(), None),
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn provenance(args: &Args, outcome: &Outcome) -> String {
    let (rev, dirty) = revision();
    let rustc = command_output(Command::new("rustc").arg("-V")).unwrap_or("unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"smoke\": {}, \"seconds\": {}, \
         \"revision\": {}, \"dirty\": {}, \"nproc\": {nproc}, \"arch\": {}, \"rustc\": {}, \
         \"profile\": \"{profile}\", \"ops_attempted\": {}, \"inputs_digest\": \"{:016x}\"}}",
        json_str(&args.workload),
        args.seed,
        args.trace,
        args.smoke,
        args.budget.as_secs(),
        json_str(&rev),
        dirty.map_or("null".to_string(), |d| d.to_string()),
        json_str(std::env::consts::ARCH),
        json_str(&rustc),
        outcome.attempted,
        outcome.digest,
    )
}

/// Writes the traced run's spans, one JSON object per line after a
/// provenance line, and returns the path.
fn write_spans(args: &Args, prov: &str, tracer: &Tracer) -> std::io::Result<PathBuf> {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, format!("{prov}\n{}", tracer.to_jsonl()))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) if !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!("usage: hi_perfbench --workload <name> [--seed n] [--seconds n] [--trace 0|1] [--smoke]");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new();
    let mut outcome = match run_workload(&args, &mut tracer) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match peak_rss_mb() {
        Ok(mb) => {
            outcome.metrics.insert("peak_rss_mb", mb);
        }
        Err(e) => outcome.failures.push(e),
    }
    let prov = provenance(&args, &outcome);
    println!("provenance {prov}");
    for note in &outcome.notes {
        println!("note {note}");
    }
    if args.trace {
        for (name, l) in tracer.ledger() {
            println!(
                "span {name}: count {} total {:.3} ms self {:.3} ms",
                l.count,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6
            );
        }
        match write_spans(&args, &prov, &tracer) {
            Ok(path) => println!("spans written to {}", path.display()),
            Err(e) => outcome.failures.push(format!("writing spans: {e}")),
        }
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() {
            value
        } else {
            outcome
                .failures
                .push(format!("metric {name} is not finite"));
            0.0
        };
        println!("metric {name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for f in &outcome.failures {
        println!("CHECK FAILED: {f}");
    }
    // Reported beside the metrics, not among them: it reads 0 on every
    // healthy run, so it carries no spread to bound.
    println!(
        "failed_frac = {} fraction ({} of {} ops failed)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    let correct = outcome.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
