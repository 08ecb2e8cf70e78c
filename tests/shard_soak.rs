//! Scale-out soak conformance: the big-domain sharded scenarios
//! (`soak/sharded-*`, key domains 2^20 and 2^16) run through the
//! watchdogged service harness with mid-soak drain barriers, and must
//!
//! * perform at least one **online resize mid-epoch** (capacity
//!   migrations happen under load, between barriers — the barrier itself
//!   applies no operations), with the pause time attributed per epoch,
//! * certify every drain barrier through the **composed sampled audit**
//!   (k seed-chosen shards exhaustively canonical, the rest spot-checked)
//!   rather than the full-image comparison — the audit mode the 2^20
//!   domain exists to exercise,
//! * and write the per-barrier sampled-audit ledger to `target/soak/`,
//!   which CI uploads as an artifact.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use hi_concurrent::api::{MetricsSnapshot, SampledAudit};
use hi_concurrent::bench::hist::Histogram;
use hi_concurrent::bench::json::Json;
use hi_concurrent::service::{
    soak_scenario, EpochMetrics, OnlineAudit, ServiceMetrics, SoakConfig, SoakReport,
};

/// The sharded soak entries and the shard count their backends declare.
const SHARDED: [(&str, usize); 2] = [("soak/sharded-zipf-1m", 8), ("soak/sharded-uniform", 4)];

/// CI-scale soak: enough distinct keys to force capacity migrations in
/// every shard, small enough for the debug-mode test lane.
fn ci_cfg(seed: u64) -> SoakConfig {
    SoakConfig {
        clients: 8,
        client_threads: 4,
        total_ops: 20_000,
        queue_depth: 64,
        mid_audits: 3,
        seed,
        deadline: Duration::from_secs(120),
        ..SoakConfig::default()
    }
}

fn artifact_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/soak");
    fs::create_dir_all(&dir).expect("create target/soak");
    dir
}

/// The sampled-audit ledger of one soak, as the JSON artifact CI uploads:
/// one row per drain barrier, plus the maintenance totals.
fn ledger(name: &str, seed: u64, report: &SoakReport) -> Json {
    let barriers = report.sampled_audits.iter().enumerate().map(|(i, audit)| {
        Json::obj([
            ("epoch", i.into()),
            ("shards_total", audit.shards_total.into()),
            ("shards_exhaustive", audit.shards_exhaustive.into()),
            ("cells_spot_checked", audit.cells_spot_checked.into()),
            ("passed", audit.passed().into()),
        ])
    });
    Json::obj([
        ("scenario", name.into()),
        ("seed", seed.into()),
        ("ops", report.ops_applied.into()),
        ("resizes", report.metrics.resizes().into()),
        (
            "resize_pause_ns",
            report.metrics.resize_pause_total().as_nanos().into(),
        ),
        ("barriers", Json::Arr(barriers.collect())),
    ])
}

/// A hand-built report of a 2-epoch, 20k-op soak over 4 shards: 2s of wall
/// time, 100ms of audit pause per epoch, 7 resizes, and three sampled
/// audits of which the last failed.
fn fixed_report() -> SoakReport {
    let epoch = |epoch, resizes, resize_pause| EpochMetrics {
        epoch,
        ops_applied: 10_000,
        load: Duration::from_millis(900),
        audit_pause: Duration::from_millis(100),
        probes: 0,
        probes_passed: 0,
        resizes,
        resize_pause,
    };
    let audit = |shards_exhaustive, cells_spot_checked, failure: Option<&str>| SampledAudit {
        shards_total: 4,
        shards_exhaustive,
        cells_spot_checked,
        failure: failure.map(str::to_string),
    };
    SoakReport {
        ops_submitted: 20_000,
        ops_applied: 20_000,
        ops_rejected: 0,
        sends_blocked: 0,
        audits: Vec::new(),
        elapsed: Duration::from_secs(2),
        latency: Histogram::new(),
        queue_wait: Histogram::new(),
        service: Histogram::new(),
        workers: Vec::new(),
        sampled_audits: vec![
            audit(1, 37, None),
            audit(2, 20, None),
            audit(1, 5, Some("cell 3 not canonical")),
        ],
        metrics: ServiceMetrics {
            progress: MetricsSnapshot {
                handles: Vec::new(),
            },
            epochs: vec![
                epoch(0, 5, Duration::from_micros(1_200)),
                epoch(1, 2, Duration::from_nanos(345_678)),
            ],
            online: OnlineAudit::Disabled,
        },
    }
}

fn run(name: &str, cfg: &SoakConfig) -> SoakReport {
    soak_scenario(name)
        .unwrap_or_else(|| panic!("{name} not in the soak registry"))
        .run(cfg)
        .unwrap_or_else(|e| panic!("{name} (seed {}): {e}", cfg.seed))
}

#[test]
fn sharded_soaks_resize_online_and_pass_sampled_audits() {
    let dir = artifact_dir();
    for (name, shards) in SHARDED {
        let cfg = ci_cfg(11);
        let report = run(name, &cfg);
        assert_eq!(report.ops_applied, cfg.total_ops, "{name}");

        // Online resize happened, and happened *mid-epoch*: the per-epoch
        // maintenance deltas are measured across the load phase, so a
        // nonzero count in an epoch that applied operations is a capacity
        // migration under live traffic, not at a barrier.
        assert!(
            report.metrics.resizes() > 0,
            "{name}: a 20k-op churn over base-2 shards must migrate"
        );
        assert!(
            report
                .metrics
                .epochs
                .iter()
                .any(|e| e.resizes > 0 && e.ops_applied > 0),
            "{name}: no epoch resized while applying load: {:?}",
            report.metrics.epochs
        );
        assert!(
            report.metrics.resize_pause_total() > Duration::ZERO,
            "{name}: migrations take nonzero time"
        );

        // Every drain barrier (mid-soak and final) audited through the
        // composed per-shard sample — the run would have failed otherwise,
        // so presence of the ledger entries is what certifies the mode.
        assert_eq!(
            report.sampled_audits.len(),
            cfg.mid_audits + 1,
            "{name}: big domains must take the sampled-audit path at every barrier"
        );
        for audit in &report.sampled_audits {
            assert!(audit.passed(), "{name}: {:?}", audit.failure);
            assert_eq!(audit.shards_total, shards, "{name}");
            assert!(
                audit.shards_exhaustive >= 1 && audit.shards_exhaustive < shards,
                "{name}: the sample must check some but not all shards exhaustively"
            );
            assert!(
                audit.cells_spot_checked > 0,
                "{name}: unsampled shards must still be spot-checked"
            );
        }

        let path = dir.join(format!("{}-sampled.json", name.replace('/', "_")));
        fs::write(&path, format!("{}\n", ledger(name, cfg.seed, &report)))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
}

/// The ledger's fields, order and values are pinned: the fixed report
/// renders to the committed golden ledger.
#[test]
fn ledger_matches_golden() {
    let doc = ledger("soak/sharded-uniform", 11, &fixed_report());
    let golden = Json::parse(include_str!("golden/soak_ledger.json")).unwrap();
    assert_eq!(Json::parse(&doc.to_string()), Ok(golden));
}

#[test]
fn ops_per_sec_load_excludes_audit_pause() {
    let mut report = fixed_report();
    report.ops_applied = 1000;
    for epoch in &mut report.metrics.epochs {
        epoch.audit_pause = Duration::from_millis(500);
    }
    assert!((report.ops_per_sec() - 500.0).abs() < 1e-6);
    assert!((report.ops_per_sec_load() - 1000.0).abs() < 1e-6);
    assert!(report.ops_per_sec_load() >= report.ops_per_sec());
}

#[test]
fn sampled_audit_seeds_rotate_the_exhaustive_shards() {
    // Two soaks under different seeds both pass; the barrier audit derives
    // its shard choice from the soak seed and the epoch, so coverage
    // rotates across runs. (Which shards were chosen is internal; what is
    // pinned is that the choice is seed-dependent yet always passing.)
    for seed in [11, 0x50a6] {
        let report = run("soak/sharded-uniform", &ci_cfg(seed));
        assert!(report.sampled_audits.iter().all(SampledAudit::passed));
    }
}
