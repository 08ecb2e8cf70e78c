//! Tail latency of every soak-registry scenario under heavy service load,
//! emitted as a machine-readable `BENCH_service_latency.json` at the
//! workspace root (stamped with its provenance, like the throughput bench).
//!
//! Each scenario soaks its object through `HI_SOAK_OPS` operations
//! (default one million) of sharded client traffic with mid-soak
//! drain-barrier HI audits, and records the submission-to-response
//! latency distribution (p50/p90/p99/p999/max) from the log-scale
//! histogram, the span attribution (queue-wait and service-time
//! quantiles), gross and audit-excluded throughput, the barrier audit
//! count, and the online (mid-flight) HI probe counts on Perfect-HI
//! backends. The committed JSON is a record of one host at one revision,
//! not a baseline: regressions are gated by the same-host A/B runs of
//! `perf_ab` (`hi_bench::ab`).
//!
//! ```sh
//! cargo bench --bench service_latency                 # 1M ops/scenario
//! HI_SOAK_OPS=40000 cargo bench --bench service_latency   # CI scale
//! HI_SOAK_PROFILE=long cargo bench --bench service_latency # 50x soak
//! ```

use std::time::Duration;

use hi_bench::json::{write_summary, Json};
use hi_service::{soak_registry, SoakConfig, SoakProfile, SoakReport};

const SEED: u64 = 0xbe7c;

/// One result row: the end-to-end quantiles plus the `queue_wait_*` /
/// `service_*` span attribution and the online-audit counts. Latencies
/// are nanoseconds.
fn row(scenario: &str, report: &SoakReport) -> Json {
    let l = report.latency.summary();
    let (q, s) = (report.queue_wait.summary(), report.service.summary());
    let m = &report.metrics;
    Json::obj([
        ("scenario", scenario.into()),
        ("ops", report.ops_applied.into()),
        ("rejected", report.ops_rejected.into()),
        ("audits", report.audits.len().into()),
        ("online_probes", m.probes().into()),
        ("online_probes_passed", m.probes_passed().into()),
        ("elapsed_ns", report.elapsed.as_nanos().into()),
        ("audit_pause_ns", m.audit_pause_total().as_nanos().into()),
        ("resizes", m.resizes().into()),
        ("resize_pause_ns", m.resize_pause_total().as_nanos().into()),
        ("ops_per_sec", Json::fixed(report.ops_per_sec(), 1)),
        (
            "ops_per_sec_load",
            Json::fixed(report.ops_per_sec_load(), 1),
        ),
        ("mean_ns", Json::fixed(l.mean, 1)),
        ("p50_ns", l.p50.into()),
        ("p90_ns", l.p90.into()),
        ("p99_ns", l.p99.into()),
        ("p999_ns", l.p999.into()),
        ("max_ns", l.max.into()),
        ("queue_wait_p50_ns", q.p50.into()),
        ("queue_wait_p99_ns", q.p99.into()),
        ("queue_wait_p999_ns", q.p999.into()),
        ("service_p50_ns", s.p50.into()),
        ("service_p99_ns", s.p99.into()),
        ("service_p999_ns", s.p999.into()),
    ])
}

fn main() {
    let total_ops: usize = std::env::var("HI_SOAK_OPS")
        .ok()
        .map(|v| v.parse().expect("HI_SOAK_OPS must be an op count"))
        .unwrap_or(1_000_000);
    let cfg = SoakConfig {
        total_ops,
        // Deadline scaled to the op count: the slowest backend (the
        // universal construction) clears ~100k ops/sec in release mode.
        deadline: Duration::from_secs(60 + (total_ops / 20_000) as u64),
        seed: SEED,
        ..SoakConfig::default()
    };
    // The long profile multiplies on top of HI_SOAK_OPS (and stretches the
    // deadline with it), so both knobs compose.
    let cfg = SoakProfile::from_env().apply(&cfg);

    let mut rows = Vec::new();
    println!(
        "{:34} {:>9} {:>11} {:>11} {:>8} {:>8} {:>8} {:>9} {:>9} {:>7} {:>8}",
        "scenario",
        "ops",
        "ops/sec",
        "load/sec",
        "p50",
        "p99",
        "p999",
        "wait_p99",
        "serve_p99",
        "probes",
        "resizes"
    );
    for scenario in soak_registry() {
        let report = match scenario.run(&cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: soak failed: {e}", scenario.name);
                std::process::exit(1);
            }
        };
        let summary = report.latency.summary();
        let queue_wait = report.queue_wait.summary();
        let service = report.service.summary();
        let probes = report.metrics.probes();
        let resizes = report.metrics.resizes();
        println!(
            "{:34} {:>9} {:>11.0} {:>11.0} {:>8} {:>8} {:>8} {:>9} {:>9} {:>7} {:>8}",
            scenario.name,
            report.ops_applied,
            report.ops_per_sec(),
            report.ops_per_sec_load(),
            summary.p50,
            summary.p99,
            summary.p999,
            queue_wait.p99,
            service.p99,
            probes,
            resizes,
        );
        rows.push(row(scenario.name, &report));
    }
    match write_summary("service_latency", "ns", rows) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write JSON summary: {e}"),
    }
}
