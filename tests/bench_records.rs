//! The committed `BENCH_*.json` files are records of one host at one
//! revision: each must carry its provenance, and the service-latency
//! record must carry the span attribution and online-audit fields the
//! observability layer emits, with honest values.

use hi_concurrent::bench::json::{workspace_root, Json, Provenance};

fn committed(bench: &str) -> Vec<Json> {
    let path = workspace_root().join(format!("BENCH_{bench}.json"));
    let text = std::fs::read_to_string(&path).expect("committed record");
    let doc = Json::parse(&text).expect("record parses");
    assert_eq!(doc.get("bench").and_then(Json::as_str), Some(bench));
    let prov = doc.get("provenance").expect("record without provenance");
    let p = Provenance::from_json(prov).unwrap_or_else(|e| panic!("{bench}: {e}"));
    assert!(matches!(prov.get("dirty"), Some(Json::Bool(_))), "{bench}");
    assert!(!p.revision.is_empty() && !p.revision.ends_with("-dirty"));
    assert!(
        p.nproc > 0 && p.rustc.starts_with("rustc "),
        "{bench}: {p:?}"
    );
    match doc.get("results") {
        Some(Json::Arr(rows)) if !rows.is_empty() => rows.clone(),
        _ => panic!("{bench}: no results"),
    }
}

#[test]
fn committed_records_carry_provenance() {
    committed("api_throughput");
    committed("service_latency");
}

#[test]
fn committed_records_carry_observability_fields() {
    let rows = committed("service_latency");
    assert!(rows.len() >= 8, "one row per soak scenario");
    for row in &rows {
        let scenario = row.get("scenario").and_then(Json::as_str).unwrap_or("");
        assert!(scenario.starts_with("soak/"), "{scenario}");
        let num = |field: &str| {
            let v = row.get(field).and_then(Json::as_num);
            v.unwrap_or_else(|| panic!("{scenario}: record row lacks {field}"))
        };
        let fields = "ops ops_per_sec ops_per_sec_load p50_ns p99_ns p999_ns \
                      queue_wait_p50_ns queue_wait_p99_ns queue_wait_p999_ns \
                      service_p50_ns service_p99_ns service_p999_ns audit_pause_ns";
        for field in fields.split_whitespace() {
            num(field);
        }
        // Honest online auditing: probes all passed, and only the
        // perfect-HI backends report any.
        assert_eq!(
            num("online_probes"),
            num("online_probes_passed"),
            "{scenario}"
        );
        let perfect = matches!(scenario, "soak/set-zipf" | "soak/llsc-zipf");
        assert_eq!(num("online_probes") > 0.0, perfect, "{scenario}");
        // The reject scenario sheds load; every other scenario applies its
        // full submission.
        let shedding = scenario == "soak/universal-counter-reject";
        assert_eq!(num("rejected") > 0.0, shedding, "{scenario}");
    }
}
