//! Registry-wide exhaustive certification: every scenario's downsized sim
//! instance goes through the schedule-space model checker
//! (`hi_spec::check_sim_object_exhaustive`) — *all* schedules of a short
//! role-mirrored workload, HI-audited at every reachable permitted
//! configuration against one shared canonical map, linearized at every
//! distinct maximal path, with sleep-set partial-order reduction and
//! configuration dedup keeping the tree tractable.
//!
//! Each certification writes its `ExhaustiveReport` as one JSON object to
//! `target/modelcheck/` (plus a combined `summary.json`), which CI uploads
//! as an artifact. Failures print a `HI_CONFORMANCE_SEED`-style one-line
//! repro, like every other seeded suite.

use std::fs;
use std::path::PathBuf;

use hi_concurrent::api::{registry, repro_command, ExhaustiveConfig, ExhaustiveReport};
use hi_concurrent::bench::json::Json;
use hi_concurrent::spec::ExploreStats;

/// Base seed of the lane. The explorer quantifies over *schedules*, so the
/// seed only picks the workload's operation values; one seed per CI run is
/// enough, and the conformance seed matrix can widen it.
fn seed() -> u64 {
    match std::env::var("HI_CONFORMANCE_SEED") {
        Ok(raw) => raw
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("HI_CONFORMANCE_SEED={raw:?} is not a u64: {e}")),
        Err(_) => 7,
    }
}

/// Operations per process. Exploration is exponential in this; 2 per
/// process already yields thousands-to-millions of schedules per scenario.
const OPS_PER_PID: usize = 2;

fn artifact_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/modelcheck");
    fs::create_dir_all(&dir).expect("create target/modelcheck");
    dir
}

/// One certification as the JSON object CI uploads, tagged with the
/// scenario name and its downsized parameters.
fn report_json(scenario: &str, params: &str, report: &ExhaustiveReport) -> Json {
    let s = &report.stats;
    Json::obj([
        ("scenario", scenario.into()),
        ("params", params.into()),
        ("ops", report.ops.into()),
        ("paths", s.paths.into()),
        ("certified_paths", s.certified_paths.into()),
        ("truncated", s.truncated.into()),
        ("transitions", s.transitions.into()),
        ("distinct_configs", s.distinct_configs.into()),
        ("dedup_hits", s.dedup_hits.into()),
        ("sleep_skips", s.sleep_skips.into()),
        ("cycles", s.cycles.into()),
        ("crash_branches", s.crash_branches.into()),
        ("hi_points", report.hi_points.into()),
        ("audited", report.audited.into()),
        ("distinct_states", report.distinct_states.into()),
        ("linearized", report.linearized.into()),
        ("reduction_ratio", Json::fixed(report.reduction_ratio(), 2)),
    ])
}

fn certify(seed: u64) -> Vec<(&'static str, ExhaustiveReport)> {
    let cfg = ExhaustiveConfig::new(seed, OPS_PER_PID);
    registry()
        .iter()
        .map(|s| {
            let report = s.check_exhaustive(&cfg).unwrap_or_else(|e| {
                panic!(
                    "exhaustive certification of {} ({}) failed: {e}\nrepro: {}",
                    s.name,
                    s.small_params(),
                    repro_command("model_check", seed)
                )
            });
            (s.name, report)
        })
        .collect()
}

/// The headline lane: all scenarios certify, with sane stats, and the
/// per-scenario reports land in `target/modelcheck/`.
#[test]
fn registry_certifies_exhaustively() {
    let seed = seed();
    let dir = artifact_dir();
    let mut summary = Vec::new();
    for (name, report) in certify(seed) {
        let s = &report.stats;
        assert!(s.paths > 0, "{name}: no maximal path executed");
        assert_eq!(
            s.truncated, 0,
            "{name}: the reduced lane has no depth bound"
        );
        assert!(
            !s.aborted,
            "{name}: exploration aborted without a violation"
        );
        assert!(
            s.certified_paths >= s.paths,
            "{name}: certified fewer schedules than it executed"
        );
        assert!(s.distinct_configs > 0, "{name}: dedup recorded no configs");
        assert!(
            report.linearized > 0 && report.linearized <= s.paths,
            "{name}: linearized {} of {} executed paths",
            report.linearized,
            s.paths
        );
        if report.audited {
            assert!(report.hi_points > 0, "{name}: vacuous HI audit");
        }
        // The universal and hashtable entries are pinned by their own
        // tests below; every other entry is pinned here.
        let own_test = name.starts_with("universal/") || name.starts_with("hashtable/");
        if seed == 7 && !own_test {
            let pinned = OTHER_PINNED
                .iter()
                .find(|p| p.0 == name)
                .unwrap_or_else(|| panic!("{name}: no certification pin"));
            assert_eq!(
                (
                    s.certified_paths,
                    s.distinct_configs,
                    report.hi_points,
                    report.linearized
                ),
                (pinned.1, pinned.2, pinned.3, pinned.4),
                "{name}: (certified_paths, distinct_configs, hi_points, linearized) moved"
            );
        }
        let scenario = registry()
            .into_iter()
            .find(|s| s.name == name)
            .expect("scenario exists");
        let json = report_json(name, scenario.small_params(), &report);
        let file = dir.join(format!("{}.json", name.replace('/', "_")));
        fs::write(&file, json.to_string())
            .unwrap_or_else(|e| panic!("write {}: {e}", file.display()));
        summary.push(json);
    }
    fs::write(
        dir.join("summary.json"),
        format!("{}\n", Json::Arr(summary)),
    )
    .expect("write summary.json");
}

/// The certification at the default seed 7 of every scenario that
/// `universal_certification_is_pinned` and
/// `hashtable_certification_is_pinned` do not cover:
/// (name, certified_paths, distinct_configs, hi_points, linearized). A
/// change to the explorer, the auditor or a step machine that alters the
/// model shows up here as a reviewed diff.
const OTHER_PINNED: [(&str, u64, u64, u64, u64); 7] = [
    ("register/vidyasankar-k5", 786, 481, 0, 70),
    ("register/lockfree-hi-k5", 786, 481, 319, 70),
    ("register/waitfree-hi-k5", 21_595_707, 6_155, 156, 102),
    ("queue/positional-t3", 606, 494, 319, 70),
    ("register/max-k6", 358, 350, 319, 70),
    ("set/hi-t6-n3", 70, 181, 250, 70),
    ("llsc/packed-v8-n3", 70, 181, 250, 70),
];

/// The report documents' fields, order and values are pinned: a fixed
/// pair of reports renders to the committed golden summary.
#[test]
fn report_json_matches_golden() {
    let certified = ExhaustiveReport {
        ops: 4,
        stats: ExploreStats {
            paths: 12,
            truncated: 0,
            transitions: 345,
            certified_paths: 31,
            certified_truncated: 0,
            distinct_configs: 100,
            dedup_hits: 7,
            cycles: 1,
            sleep_skips: 9,
            crash_branches: 0,
            aborted: false,
        },
        hi_points: 50,
        audited: true,
        distinct_states: 6,
        linearized: 10,
    };
    let empty = ExhaustiveReport {
        ops: 2,
        stats: ExploreStats::default(),
        hi_points: 0,
        audited: false,
        distinct_states: 0,
        linearized: 0,
    };
    let summary = Json::Arr(vec![
        report_json(
            "register/lockfree-hi-k5",
            "MultiRegisterSpec { k: 3, initial: 1 }",
            &certified,
        ),
        report_json(
            "queue/positional-t3",
            "BoundedQueueSpec { t: 2, k: 2 }",
            &empty,
        ),
    ]);
    let golden = Json::parse(include_str!("golden/modelcheck_summary.json")).unwrap();
    assert_eq!(Json::parse(&summary.to_string()), Ok(golden));
}

/// The reduction must actually reduce: across the registry, the certified
/// schedule count strictly exceeds the executed one (dedup merges real
/// subtrees), and sleep sets skip real choices.
#[test]
fn reduction_certifies_more_than_it_executes() {
    let reports = certify(seed());
    let executed: u64 = reports.iter().map(|(_, r)| r.stats.paths).sum();
    let certified: u64 = reports.iter().map(|(_, r)| r.stats.certified_paths).sum();
    assert!(
        certified > executed,
        "dedup merged no subtree anywhere: certified {certified}, executed {executed}"
    );
    let sleep_skips: u64 = reports.iter().map(|(_, r)| r.stats.sleep_skips).sum();
    assert!(sleep_skips > 0, "sleep sets never skipped a choice");
}

/// Certification is deterministic: same seed, same report, byte for byte.
#[test]
fn certification_is_deterministic() {
    let cfg = ExhaustiveConfig::new(seed(), OPS_PER_PID);
    let scenario = registry()
        .into_iter()
        .find(|s| s.name == "register/lockfree-hi-k5")
        .expect("scenario exists");
    let a = scenario
        .check_exhaustive(&cfg)
        .expect("first run certifies");
    let b = scenario
        .check_exhaustive(&cfg)
        .expect("second run certifies");
    assert_eq!(a, b);
}

/// The small-scope certification of Algorithm 5's registry entries, pinned
/// at the default seed. The codec fixes every word the construction writes,
/// so any change to it or to the step machines that alters the model —
/// the words, the step boundaries, the helping order — shows up here as a
/// reviewed diff of these figures.
#[test]
fn universal_certification_is_pinned() {
    // (name, certified_paths, distinct_configs, hi_points, linearized)
    const PINNED: [(&str, u64, u64, u64, u64); 4] = [
        ("universal/counter-n3", 40_920, 786, 309, 94),
        (
            "universal/register-k4-n2",
            33_968_244_107_655_216,
            249_197,
            295,
            90,
        ),
        ("universal/queue-t3-n3", 40_920, 2_519, 224, 102),
        ("universal/counter-no-release", 35_960, 761, 0, 94),
    ];
    assert_pinned(&PINNED);
}

/// The hash-table entries' exploration figures, pinned like the universal
/// construction's, so a change to the engine's sim twin (an extra read, a
/// reordered write) moves these numbers and has to be explained in review.
/// The robinhood entries run that twin at one shard: its lock holder scans
/// the whole arena instead of walking one probe run, and its lookups read
/// the capacity word, so it has more interleaving points than the threaded
/// shard's fast paths while writing exactly their writes.
#[test]
fn hashtable_certification_is_pinned() {
    // (name, certified_paths, distinct_configs, hi_points, linearized)
    const PINNED: [(&str, u64, u64, u64, u64); 3] = [
        ("hashtable/robinhood-t8-n3", 19_432, 1_576, 1_453, 94),
        ("hashtable/robinhood-dense-t6-n2", 25_737, 1_353, 1_228, 74),
        ("hashtable/sharded-s4-t8", 34_423, 1_351, 1_214, 74),
    ];
    assert_pinned(&PINNED);
}

/// Certifies each named scenario at seed 7 and checks its
/// (certified_paths, distinct_configs, hi_points, linearized) figures.
fn assert_pinned(pinned: &[(&str, u64, u64, u64, u64)]) {
    let cfg = ExhaustiveConfig::new(7, OPS_PER_PID);
    let registry = registry();
    for &(name, certified, configs, hi_points, linearized) in pinned {
        let scenario = registry
            .iter()
            .find(|s| s.name == name)
            .expect("scenario exists");
        let r = scenario
            .check_exhaustive(&cfg)
            .unwrap_or_else(|e| panic!("{name} failed to certify: {e}"));
        assert_eq!(
            (
                r.stats.certified_paths,
                r.stats.distinct_configs,
                r.hi_points,
                r.linearized
            ),
            (certified, configs, hi_points, linearized),
            "{name}: (certified_paths, distinct_configs, hi_points, linearized) moved"
        );
    }
}

/// The single-crash lane: wait-free scenarios also certify when every
/// choice point of the fault-free prefix branches into a variant where one
/// mid-operation process crashes forever (the paper's adversary). Blocking
/// scenarios are exempt — a crash inside a critical section legitimately
/// wedges the survivors into (pruned) cycles, but lock-free retries against
/// a dead CAS holder still certify.
#[test]
fn wait_free_scenarios_certify_under_single_crash() {
    let seed = seed();
    let cfg = ExhaustiveConfig::new(seed, 1).with_crashes();
    for name in [
        "register/waitfree-hi-k5",
        "set/hi-t6-n3",
        "universal/counter-n3",
    ] {
        let scenario = registry()
            .into_iter()
            .find(|s| s.name == name)
            .expect("scenario exists");
        let report = scenario.check_exhaustive(&cfg).unwrap_or_else(|e| {
            panic!(
                "single-crash certification of {name} failed: {e}\nrepro: {}",
                repro_command("model_check", seed)
            )
        });
        assert!(
            report.stats.crash_branches > 0,
            "{name}: no crash branch taken"
        );
        assert!(report.stats.paths > 0);
    }
}
