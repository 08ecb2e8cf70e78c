//! Cross-PR regression gate.
//!
//! ```text
//! bench_delta <base.json> <new.json> --thresholds <thresholds.json>
//!             [--out <path>] [--strict]
//! ```
//!
//! Parses two BENCH documents (e.g. `BENCH_service_latency.json`), diffs
//! the gated metrics per scenario ([`hi_bench::delta::GATED_METRICS`]),
//! prints the rendered table (optionally also to `--out`), and exits:
//!
//! * `0` — parsed fine; no gating regression: clean, warn-only-mode
//!   regressions (no `--strict`), or regressions confined to scenarios the
//!   thresholds file lists as warn-only (new/noisy — no calibrated noise
//!   level to gate at yet),
//! * `1` — usage or I/O or parse error,
//! * `2` — gating regressions under `--strict`.
//!
//! `--thresholds` points at a committed per-scenario noise calibration
//! ([`hi_bench::delta::Thresholds`]).

use hi_bench::delta::{delta_with, parse_bench_doc, parse_thresholds, render_table};

struct Args {
    base: String,
    new: String,
    thresholds: String,
    out: Option<String>,
    strict: bool,
}

const USAGE: &str = "usage: bench_delta <base.json> <new.json> \
     --thresholds <thresholds.json> [--out <path>] [--strict]";

fn parse_args(mut argv: std::env::Args) -> Result<Args, String> {
    let _ = argv.next(); // program name
    let mut positional = Vec::new();
    let mut thresholds = None;
    let mut out = None;
    let mut strict = false;
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--thresholds" => thresholds = Some(argv.next().ok_or("--thresholds needs a path")?),
            "--out" => out = Some(argv.next().ok_or("--out needs a path")?),
            "--strict" => strict = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            _ => positional.push(arg),
        }
    }
    let [base, new] = positional.try_into().map_err(|_| USAGE.to_string())?;
    let thresholds = thresholds.ok_or_else(|| USAGE.to_string())?;
    Ok(Args {
        base,
        new,
        thresholds,
        out,
        strict,
    })
}

fn run(args: &Args) -> Result<bool, String> {
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let base = parse_bench_doc(&read(&args.base)?).map_err(|e| format!("{}: {e}", args.base))?;
    let new = parse_bench_doc(&read(&args.new)?).map_err(|e| format!("{}: {e}", args.new))?;
    let path = &args.thresholds;
    let thresholds = parse_thresholds(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    let report = delta_with(&base, &new, &thresholds);
    let table = render_table(&report);
    print!("{table}");
    if let Some(path) = &args.out {
        std::fs::write(path, &table).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(report.has_gating_regressions())
}

fn main() {
    let args = match parse_args(std::env::args()) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    };
    match run(&args) {
        Ok(regressed) => {
            if regressed && args.strict {
                std::process::exit(2);
            }
        }
        Err(msg) => {
            eprintln!("bench_delta: {msg}");
            std::process::exit(1);
        }
    }
}
