//! Service-harness soak conformance: every scenario in
//! `hi_service::soak_registry()` is soaked at CI scale through the
//! watchdogged runner, with the mid-soak drain-barrier HI audits on and
//! the report's accounting invariants pinned.
//!
//! Set `HI_CONFORMANCE_SEED=<u64>` to add one more seed to every loop —
//! the CI seed matrix drives this, exactly as in `api_conformance`.

use std::time::Duration;

use hi_concurrent::bench::hist::Histogram;
use hi_concurrent::service::{
    soak_registry, soak_scenario, Backpressure, OnlineAudit, SoakConfig, SoakError, WorkerStats,
};

/// Base seeds per scenario, extended by `HI_CONFORMANCE_SEED` if set.
fn seeds() -> Vec<u64> {
    let mut seeds = vec![11, 0x50a6_u64];
    if let Ok(raw) = std::env::var("HI_CONFORMANCE_SEED") {
        // Panic rather than skip: a CI matrix job whose seed does not parse
        // must fail loudly, not silently rerun the base seeds.
        let extra: u64 = raw
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("HI_CONFORMANCE_SEED={raw:?} is not a u64: {e}"));
        if !seeds.contains(&extra) {
            seeds.push(extra);
        }
    }
    seeds
}

/// CI-scale soak: enough traffic to churn every queue and cross several
/// drain barriers, small enough to keep the whole matrix fast.
fn ci_cfg(seed: u64) -> SoakConfig {
    SoakConfig {
        clients: 8,
        client_threads: 4,
        total_ops: 3_000,
        queue_depth: 64,
        mid_audits: 3,
        seed,
        deadline: Duration::from_secs(60),
        ..SoakConfig::default()
    }
}

#[test]
fn every_soak_scenario_survives_with_mid_soak_audits() {
    for scenario in soak_registry() {
        for seed in seeds() {
            let cfg = ci_cfg(seed);
            let report = scenario
                .run(&cfg)
                .unwrap_or_else(|e| panic!("{} (seed {seed}): {e}", scenario.name));

            if scenario.backpressure == Some(Backpressure::Reject) {
                // Open-loop shedding scenario: every op is accepted or
                // rejected (never lost), accepted ops are all applied, and
                // the shallow scenario queue guarantees real rejections.
                assert_eq!(
                    report.ops_submitted + report.ops_rejected,
                    cfg.total_ops,
                    "{}: an op was neither accepted nor rejected",
                    scenario.name
                );
                assert_eq!(
                    report.ops_applied, report.ops_submitted,
                    "{}",
                    scenario.name
                );
                assert!(
                    report.ops_rejected > 0,
                    "{}: depth-{:?} shedding queue rejected nothing",
                    scenario.name,
                    scenario.queue_depth
                );
                assert_eq!(
                    report.sends_blocked, 0,
                    "{}: Reject mode never blocks",
                    scenario.name
                );
            } else {
                // Closed-loop (Block) accounting: everything submitted is
                // applied, nothing is shed.
                assert_eq!(report.ops_applied, cfg.total_ops, "{}", scenario.name);
                assert_eq!(report.ops_submitted, cfg.total_ops, "{}", scenario.name);
                assert_eq!(report.ops_rejected, 0, "{}", scenario.name);
            }
            // Every applied op is one latency sample, and — since tracing
            // is on by default — one queue-wait and one service-time span.
            assert_eq!(
                report.latency.count(),
                report.ops_applied as u64,
                "{}",
                scenario.name
            );
            assert_eq!(
                report.queue_wait.count(),
                report.ops_applied as u64,
                "{}",
                scenario.name
            );
            assert_eq!(
                report.service.count(),
                report.ops_applied as u64,
                "{}",
                scenario.name
            );
            assert_eq!(
                report.workers.iter().map(|w| w.applied).sum::<usize>(),
                report.ops_applied,
                "{}",
                scenario.name
            );
            // Per-worker span attribution is a partition of the merged
            // histograms: worker counts sum to the report's.
            let worker_sum = |pick: fn(&WorkerStats) -> &Histogram| {
                report.workers.iter().map(|w| pick(w).count()).sum::<u64>()
            };
            assert_eq!(
                worker_sum(|w| &w.latency),
                report.latency.count(),
                "{}",
                scenario.name
            );
            assert_eq!(
                worker_sum(|w| &w.queue_wait),
                report.queue_wait.count(),
                "{}",
                scenario.name
            );
            assert_eq!(
                worker_sum(|w| &w.service),
                report.service.count(),
                "{}",
                scenario.name
            );
            // Audit-excluded throughput can only exceed the gross figure.
            assert!(
                report.ops_per_sec_load() >= report.ops_per_sec(),
                "{}",
                scenario.name
            );
            // Per-epoch metrics cover every drain barrier.
            assert_eq!(
                report.metrics.epochs.len(),
                cfg.mid_audits + 1,
                "{}",
                scenario.name
            );
            assert_eq!(
                report
                    .metrics
                    .epochs
                    .iter()
                    .map(|e| e.ops_applied)
                    .sum::<usize>(),
                report.ops_applied,
                "{}",
                scenario.name
            );

            // Drain barriers: one per epoch, all HI-audited (every soak
            // scenario wraps an auditable backend), cumulative counts
            // strictly increasing up to the full op count.
            assert_eq!(report.audits.len(), cfg.mid_audits + 1, "{}", scenario.name);
            assert!(
                report.audits.iter().all(|a| a.audited),
                "{}: a drain barrier skipped its HI audit",
                scenario.name
            );
            assert!(
                report
                    .audits
                    .windows(2)
                    .all(|w| w[0].applied < w[1].applied),
                "{}: audit points not strictly increasing: {:?}",
                scenario.name,
                report.audits
            );
            assert_eq!(
                report.audits.last().expect("at least one audit").applied,
                report.ops_applied,
                "{}",
                scenario.name
            );
        }
    }
}

#[test]
fn soak_registry_names_are_unique_and_resolvable() {
    let registry = soak_registry();
    assert!(registry.len() >= 8, "soak registry shrank");
    let mut names: Vec<_> = registry.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), registry.len(), "duplicate soak scenario names");
    for s in &registry {
        assert!(
            s.name.starts_with("soak/"),
            "{}: soak names are soak/family-shape",
            s.name
        );
        assert!(soak_scenario(s.name).is_some());
    }
    // The acceptance bar names these two specifically: the hash table under
    // Zipfian skew and the universal construction.
    assert!(soak_scenario("soak/hashtable-zipf").is_some());
    assert!(soak_scenario("soak/universal-counter-bursty").is_some());
    assert!(soak_scenario("soak/nonexistent").is_none());
    // The observability additions: a scenario whose identity is the reject
    // path, and the second perfect-HI backend for online probing.
    let reject = soak_scenario("soak/universal-counter-reject").expect("registered");
    assert_eq!(reject.backpressure, Some(Backpressure::Reject));
    assert!(reject.queue_depth.is_some());
    assert!(soak_scenario("soak/llsc-zipf").is_some());
}

#[test]
fn soak_dispatch_is_deterministic_per_seed() {
    let cfg = ci_cfg(0xd157);
    let run = || {
        soak_scenario("soak/hashtable-zipf")
            .expect("registered")
            .run(&cfg)
            .expect("soak")
    };
    let (a, b) = (run(), run());
    // Timing differs run to run; the sharded dispatch must not. The same
    // seed routes the same multiset of operations to the same workers.
    let applied = |r: &hi_concurrent::service::SoakReport| {
        r.workers.iter().map(|w| w.applied).collect::<Vec<_>>()
    };
    assert_eq!(applied(&a), applied(&b));
    assert_eq!(a.ops_submitted, b.ops_submitted);
}

#[test]
fn zipfian_skew_concentrates_load_within_a_shard() {
    // Under θ=1.1 Zipfian skew the hottest worker must see strictly more
    // traffic than the coldest — the skew survives sharding. (Both runs
    // are deterministic per seed, so this cannot flake.)
    let report = soak_scenario("soak/hashtable-zipf")
        .expect("registered")
        .run(&ci_cfg(21))
        .expect("soak");
    let max = report.workers.iter().map(|w| w.applied).max().unwrap();
    let min = report.workers.iter().map(|w| w.applied).min().unwrap();
    assert!(
        max > min,
        "Zipfian load landed perfectly uniform across workers: {:?}",
        report.workers
    );
}

#[test]
fn reject_backpressure_accounts_for_every_submission() {
    // Open-loop shedding: a tiny queue in front of slow multi-word objects
    // may reject; whatever happens, the accounting identity holds and the
    // audits still pass at every barrier.
    let cfg = SoakConfig {
        queue_depth: 1,
        backpressure: Backpressure::Reject,
        ..ci_cfg(3)
    };
    let report = soak_scenario("soak/universal-counter-bursty")
        .expect("registered")
        .run(&cfg)
        .expect("soak");
    assert_eq!(
        report.ops_submitted + report.ops_rejected,
        cfg.total_ops,
        "an op was neither accepted nor rejected"
    );
    assert_eq!(report.ops_applied, report.ops_submitted);
    assert_eq!(report.latency.count(), report.ops_applied as u64);
    assert_eq!(report.sends_blocked, 0, "Reject mode never blocks");
    assert_eq!(report.audits.len(), cfg.mid_audits + 1);
    assert!(report.audits.iter().all(|a| a.audited));
}

#[test]
fn shallow_queues_hand_off_one_op_at_a_time() {
    // Below depth 16 the hand-off batch size is 1, so every hand-off is one
    // op and a rejection drops exactly one op, as before batching: the
    // registry's shedding scenario (depth 4, Reject) and a Block queue at
    // the largest one-op depth.
    let block_15 = SoakConfig {
        queue_depth: 15,
        ..ci_cfg(5)
    };
    for (name, cfg) in [
        ("soak/universal-counter-reject", ci_cfg(5)),
        ("soak/universal-counter-bursty", block_15),
    ] {
        let report = soak_scenario(name)
            .expect("registered")
            .run(&cfg)
            .expect("soak");
        assert_eq!(
            report.ops_submitted + report.ops_rejected,
            cfg.total_ops,
            "{name}"
        );
        for w in &report.workers {
            assert_eq!(w.handoffs, w.applied, "{name}: worker {}", w.worker);
        }
    }
}

#[test]
fn online_probes_sample_perfect_hi_backends_mid_flight() {
    // The two perfect-HI backends (the §5.1 set and the Algorithm 6 LL/SC
    // word) admit the canonical-memory audit at *any* configuration, so the
    // soak samples them online, mid-epoch, without a drain barrier. Every
    // sample that found non-canonical memory would have failed the run, so
    // a passing report's probes all passed — and the prober takes its first
    // sample immediately, so every epoch contributes at least one.
    for name in ["soak/set-zipf", "soak/llsc-zipf"] {
        let report = soak_scenario(name)
            .expect("registered")
            .run(&ci_cfg(17))
            .expect("soak");
        assert_eq!(report.metrics.online, OnlineAudit::Sampled, "{name}");
        assert!(
            report.metrics.probes() >= report.metrics.epochs.len(),
            "{name}: {} probes over {} epochs",
            report.metrics.probes(),
            report.metrics.epochs.len()
        );
        assert_eq!(
            report.metrics.probes_passed(),
            report.metrics.probes(),
            "{name}: a passing soak cannot have failed probes"
        );
    }
}

#[test]
fn online_probes_are_honestly_unsupported_on_state_quiescent_backends() {
    // State-quiescent HI only promises canonical memory in *quiescent*
    // configurations — a mid-flight snapshot may legitimately differ, so
    // probing one would be unsound. The report says Unsupported rather
    // than silently claiming coverage.
    let report = soak_scenario("soak/hashtable-zipf")
        .expect("registered")
        .run(&ci_cfg(17))
        .expect("soak");
    assert_eq!(report.metrics.online, OnlineAudit::Unsupported);
    assert_eq!(report.metrics.probes(), 0);
}

#[test]
fn online_probes_can_be_disabled() {
    let cfg = SoakConfig {
        online_probes: 0,
        ..ci_cfg(17)
    };
    let report = soak_scenario("soak/set-zipf")
        .expect("registered")
        .run(&cfg)
        .expect("soak");
    assert_eq!(report.metrics.online, OnlineAudit::Disabled);
    assert_eq!(report.metrics.probes(), 0);
}

#[test]
fn soak_errors_render_their_diagnosis() {
    // The Wedged arm is exercised end-to-end in `service_drain`; here pin
    // the Display surface the CI log shows.
    let e = SoakError::NotCanonical {
        epoch: 2,
        state: "7".into(),
        mem: vec![1, 2],
        canonical: vec![1, 3],
    };
    let msg = e.to_string();
    assert!(msg.contains("epoch 2"), "{msg}");
    assert!(msg.contains("[1, 2]") && msg.contains("[1, 3]"), "{msg}");

    let e = SoakError::ProbeNotCanonical {
        epoch: 1,
        state: "0x3".into(),
        mem: vec![9],
    };
    let msg = e.to_string();
    assert!(
        msg.contains("online probe") && msg.contains("epoch 1"),
        "{msg}"
    );
    assert!(msg.contains("[9]") && msg.contains("0x3"), "{msg}");
}
