//! Threaded throughput of every backend behind the unified
//! `ConcurrentObject` facade, measured over the `hi_api::registry()`
//! scenarios and emitted as a machine-readable `BENCH_api_throughput.json`
//! at the workspace root (the perf-trajectory seed).
//!
//! The bench times the registry's pure throughput runner
//! (`Scenario::run_throughput` — no stamping, no history, no checking)
//! directly with `std::time::Instant`, takes the best of a few rounds, and
//! records ops/sec.
//!
//! ```sh
//! cargo bench --bench api_throughput
//! ```

use std::time::{Duration, Instant};

use hi_api::registry;
use hi_bench::json::{ops_per_sec, write_summary, Json};

const OPS_PER_HANDLE: usize = 20_000;
const WARMUP_ROUNDS: usize = 1;
const MEASURED_ROUNDS: usize = 3;
const SEED: u64 = 0xbe7c;

fn main() {
    let mut rows = Vec::new();
    println!("{:32} {:>12} {:>14}", "scenario", "ops", "ops/sec");
    for scenario in registry() {
        for _ in 0..WARMUP_ROUNDS {
            scenario.run_throughput(OPS_PER_HANDLE / 10, SEED);
        }
        let mut best: Option<(usize, Duration)> = None;
        for round in 0..MEASURED_ROUNDS {
            let start = Instant::now();
            let ops = scenario.run_throughput(OPS_PER_HANDLE, SEED + round as u64);
            let elapsed = start.elapsed();
            if best.map_or(true, |(_, b)| elapsed < b) {
                best = Some((ops, elapsed));
            }
        }
        let (ops, elapsed) = best.expect("at least one measured round");
        let rate = ops_per_sec(ops, elapsed);
        println!("{:32} {:>12} {:>14.0}", scenario.name, ops, rate);
        rows.push(Json::obj([
            ("scenario", scenario.name.into()),
            ("ops", ops.into()),
            ("elapsed_ns", elapsed.as_nanos().into()),
            ("ops_per_sec", Json::fixed(rate, 1)),
        ]));
    }
    match write_summary("api_throughput", "ops_per_sec", rows) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write JSON summary: {e}"),
    }
}
