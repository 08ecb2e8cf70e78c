//! The cross-PR latency gate, end to end: the committed
//! `BENCH_service_latency.json` baseline must parse, carry the span
//! attribution and online-audit fields the observability layer emits, and
//! self-compare clean through `hi_bench::delta` — the exact pipeline the
//! CI `bench-delta` job runs against a fresh measurement. The committed
//! `BENCH_api_throughput.json` shares the schema and goes through the same
//! self-compare.

use hi_concurrent::bench::delta::{delta, parse_bench_doc, render_table, GATED_METRICS};
use hi_concurrent::bench::json::workspace_root;

fn committed(bench: &str) -> String {
    let path = workspace_root().join(format!("BENCH_{bench}.json"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed baseline {}: {e}", path.display()))
}

#[test]
fn committed_baseline_parses_with_observability_fields() {
    let doc = parse_bench_doc(&committed("service_latency")).expect("committed baseline parses");
    assert_eq!(doc.bench, "service_latency");
    assert!(!doc.revision.is_empty());
    assert!(doc.rows.len() >= 8, "one row per soak scenario");
    for row in &doc.rows {
        assert!(row.scenario.starts_with("soak/"), "{}", row.scenario);
        for field in [
            "ops",
            "ops_per_sec",
            "ops_per_sec_load",
            "p50_ns",
            "p99_ns",
            "p999_ns",
            "queue_wait_p50_ns",
            "queue_wait_p99_ns",
            "queue_wait_p999_ns",
            "service_p50_ns",
            "service_p99_ns",
            "service_p999_ns",
            "audit_pause_ns",
            "online_probes",
            "online_probes_passed",
        ] {
            assert!(
                row.metric(field).is_some(),
                "{}: baseline row lacks {field}",
                row.scenario
            );
        }
        // Honest online auditing: probes all passed, and only the
        // perfect-HI backends report any.
        assert_eq!(
            row.metric("online_probes"),
            row.metric("online_probes_passed"),
            "{}",
            row.scenario
        );
        let perfect = matches!(row.scenario.as_str(), "soak/set-zipf" | "soak/llsc-zipf");
        assert_eq!(
            row.metric("online_probes").unwrap() > 0.0,
            perfect,
            "{}: online probes run exactly on perfect-HI backends",
            row.scenario
        );
        // The reject scenario sheds load; every other scenario applies its
        // full submission.
        let rejected = row.metric("rejected").expect("rejected field");
        if row.scenario == "soak/universal-counter-reject" {
            assert!(rejected > 0.0, "shedding scenario rejected nothing");
        } else {
            assert_eq!(rejected, 0.0, "{}", row.scenario);
        }
    }
    // The gate's metrics all exist in the baseline, so the CI comparison
    // can never silently compare nothing.
    for (metric, _) in GATED_METRICS {
        assert!(doc.rows.iter().all(|r| r.metric(metric).is_some()));
    }
}

#[test]
fn baseline_self_delta_is_clean() {
    for bench in ["service_latency", "api_throughput"] {
        let doc = parse_bench_doc(&committed(bench)).expect("parses");
        assert_eq!(doc.bench, bench);
        let report = delta(&doc, &doc, 0.0);
        assert!(
            !report.has_regressions(),
            "{bench}: self-comparison regressed: {:?}",
            report.regressions()
        );
        assert!(report.added.is_empty() && report.removed.is_empty());
        // Every row compares its throughput, so the self-compare cannot
        // pass by comparing nothing.
        assert_eq!(report.scenarios.len(), doc.rows.len(), "{bench}");
        assert!(
            report
                .scenarios
                .iter()
                .all(|s| s.metrics.iter().any(|m| m.metric == "ops_per_sec")),
            "{bench}: a row lacks ops_per_sec"
        );
        let table = render_table(&report);
        assert!(table.contains("no regressions"), "{table}");
        for row in &doc.rows {
            assert!(table.contains(&row.scenario), "{table}");
        }
    }
}

#[test]
fn synthetic_slowdown_trips_the_gate() {
    let base = parse_bench_doc(&committed("service_latency")).expect("parses");
    let mut slow = base.clone();
    for row in &mut slow.rows {
        for (name, v) in row.metrics.iter_mut() {
            if name.ends_with("_ns") {
                *v *= 3.0;
            } else if name == "ops_per_sec" || name == "ops_per_sec_load" {
                *v /= 3.0;
            }
        }
    }
    let report = delta(&base, &slow, 0.5);
    let regs = report.regressions();
    // Every scenario trips on every gated metric: 3x is far past 50%.
    assert_eq!(
        regs.len(),
        base.rows.len() * GATED_METRICS.len(),
        "{regs:?}"
    );
    assert!(render_table(&report).contains("REGRESSED"));
    // And the same movement in the *good* direction is not a regression.
    assert!(!delta(&slow, &base, 0.5).has_regressions());
}
