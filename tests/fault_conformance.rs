//! Fault conformance: every scenario in `hi_api::registry()` runs through
//! the generic crash/stall sweep (`Scenario::run_fault_sweep`, i.e.
//! `hi_spec::check_sim_object_faults`) under every seed — each role crashed
//! at sampled points of its own transition count, each role as the sole
//! survivor, each role stalled mid-run — with the declared `Progress` class
//! enforced and the HI audit re-run at the post-crash observation points
//! (the paper's memory-observing adversary).
//!
//! On failure the sweep's rendered diagnostic is written to
//! `target/fault_diagnostics/` and the panic message carries the one-line
//! reproduction command.
//!
//! Set `HI_CONFORMANCE_SEED=<u64>` to add one more seed to every loop — the
//! CI fault-matrix job drives this.

use std::io::Write as _;
use std::path::PathBuf;

use hi_concurrent::api::{registry, repro_command, Progress, Scenario};
use hi_concurrent::spec::FaultSweepReport;

/// The seed at which every scenario's sweep is pinned.
const PINNED_SEED: u64 = 5;

/// Each scenario's full sweep report at [`PINNED_SEED`] with [`OPS`]
/// operations per role: [crash_plans, stall_plans, crashed_mid_op, wedged,
/// hi_points, post_crash_hi_points, exactly_once_checks, ops]. Plans,
/// schedules and audits are a pure function of the seed, so a change to
/// the runner, the auditor or a step machine shows up here as a reviewed
/// diff.
const SWEEP_PINNED: [(&str, [usize; 8]); 14] = [
    ("register/vidyasankar-k5", [15, 2, 12, 0, 0, 0, 0, 212]),
    ("register/lockfree-hi-k5", [16, 2, 8, 0, 257, 72, 0, 226]),
    ("register/waitfree-hi-k5", [16, 2, 13, 0, 32, 20, 0, 217]),
    ("queue/positional-t3", [16, 2, 12, 0, 200, 51, 0, 241]),
    ("register/max-k6", [15, 2, 12, 0, 344, 94, 0, 206]),
    ("set/hi-t6-n3", [23, 3, 7, 0, 1017, 453, 0, 512]),
    (
        "hashtable/robinhood-t8-n3",
        [24, 3, 20, 6, 235, 119, 0, 496],
    ),
    (
        "hashtable/robinhood-dense-t6-n2",
        [16, 2, 12, 1, 274, 72, 0, 231],
    ),
    ("hashtable/sharded-s4-t8", [24, 3, 20, 7, 124, 64, 0, 527]),
    ("llsc/packed-v8-n3", [21, 3, 10, 0, 1049, 450, 0, 467]),
    ("universal/counter-n3", [24, 3, 19, 0, 98, 34, 27, 540]),
    ("universal/register-k4-n2", [16, 2, 14, 0, 38, 23, 18, 217]),
    ("universal/queue-t3-n3", [24, 3, 19, 0, 24, 15, 27, 530]),
    ("universal/counter-no-release", [24, 3, 21, 0, 0, 0, 0, 545]),
];

/// The pinned report of `name`.
fn pinned_sweep(name: &str) -> FaultSweepReport {
    let [crash_plans, stall_plans, crashed_mid_op, wedged, hi, post_crash, exactly_once, ops] =
        SWEEP_PINNED
            .iter()
            .find(|p| p.0 == name)
            .unwrap_or_else(|| panic!("{name}: no sweep pin"))
            .1;
    FaultSweepReport {
        crash_plans,
        stall_plans,
        crashed_mid_op,
        wedged,
        hi_points: hi as u64,
        post_crash_hi_points: post_crash as u64,
        exactly_once_checks: exactly_once,
        ops,
    }
}

/// Base seeds per scenario, extended by `HI_CONFORMANCE_SEED` if set.
fn seeds() -> Vec<u64> {
    let mut seeds = vec![5, 0xfa17];
    if let Ok(raw) = std::env::var("HI_CONFORMANCE_SEED") {
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

/// Operations per role in the faulted workloads. Smaller than the fault-free
/// conformance budget: every scenario runs dozens of plans per seed, each a
/// full run plus linearization.
const OPS: usize = 8;

/// Writes the rendered sweep failure where CI uploads artifacts from, then
/// panics with the reproduction command.
fn fail_sweep(scenario: &Scenario, seed: u64, err: &str) -> ! {
    let dir = PathBuf::from("target/fault_diagnostics");
    let path = dir.join(format!(
        "{}-seed{seed}.txt",
        scenario.name.replace('/', "_")
    ));
    let saved = std::fs::create_dir_all(&dir)
        .and_then(|()| {
            let mut f = std::fs::File::create(&path)?;
            writeln!(f, "scenario: {}", scenario.name)?;
            writeln!(f, "seed: {seed}, ops per role: {OPS}")?;
            writeln!(f, "repro: {}", repro_command("fault_conformance", seed))?;
            writeln!(f, "\n{err}")
        })
        .is_ok();
    panic!(
        "{} (fault sweep, seed {seed}): {err}\n  repro: {}{}",
        scenario.name,
        repro_command("fault_conformance", seed),
        if saved {
            format!("\n  diagnostic dump: {}", path.display())
        } else {
            String::new()
        }
    );
}

fn sweep(scenario: &Scenario, seed: u64) -> FaultSweepReport {
    scenario
        .run_fault_sweep(seed, OPS)
        .unwrap_or_else(|e| fail_sweep(scenario, seed, &e))
}

/// The progress class each scenario must declare — the spectrum the fault
/// sweep enforces. Pinned by name so an adapter silently downgrading (or
/// upgrading) its class fails here, not just in whatever sweep behavior
/// changes.
fn expected_progress(name: &str) -> Progress {
    match name {
        // Seqlock updates / a spinning Peek: a crashed mutator can wedge
        // the survivors, and the sweep tolerates (only) that. The sharded
        // table pays per shard: a crash wedges one shard, not the table.
        "queue/positional-t3"
        | "hashtable/robinhood-t8-n3"
        | "hashtable/robinhood-dense-t6-n2"
        | "hashtable/sharded-s4-t8" => Progress::Blocking,
        // Algorithm 5: announce-and-help, with or without release.
        n if n.starts_with("universal/") => Progress::Helping,
        // Algorithm 2's reader retries; a *static* writer cannot starve it.
        "register/lockfree-hi-k5" => Progress::LockFree,
        _ => Progress::WaitFree,
    }
}

#[test]
fn every_scenario_survives_its_crash_and_stall_sweep() {
    for scenario in registry() {
        let n = scenario.roles().num_handles();
        for seed in seeds() {
            let report = sweep(&scenario, seed);
            if seed == PINNED_SEED {
                assert_eq!(
                    report,
                    pinned_sweep(scenario.name),
                    "{} (seed {seed}): the sweep report moved",
                    scenario.name
                );
            }
            // The sweep shape the issue demands: at least one crash plan
            // per role (the checker samples several per role plus the
            // sole-survivor plans), and one stall plan per role.
            assert!(
                report.crash_plans >= n,
                "{} (seed {seed}): {} crash plans for {n} roles",
                scenario.name,
                report.crash_plans
            );
            assert_eq!(
                report.stall_plans, n,
                "{} (seed {seed}): one stall plan per role",
                scenario.name
            );
            assert!(
                report.crashed_mid_op > 0,
                "{} (seed {seed}): no crash landed mid-operation — the sweep \
                 never exercised the adversary's interesting points",
                scenario.name
            );
            assert!(
                report.ops > 0,
                "{} (seed {seed}): the faulted runs completed no operations",
                scenario.name
            );
            if scenario.hi_level().auditable() {
                assert!(
                    report.post_crash_hi_points > 0,
                    "{} (seed {seed}): the adversary never examined memory \
                     after a crash",
                    scenario.name
                );
            } else {
                assert_eq!(
                    report.hi_points, 0,
                    "{} (seed {seed}): non-HI scenarios have no observation \
                     points to audit",
                    scenario.name
                );
            }
        }
    }
}

#[test]
fn progress_spectrum_is_declared_and_enforced() {
    // Every class of the spectrum must be represented in the registry —
    // the sweep's per-class enforcement is only as good as the registry's
    // coverage of classes.
    let mut seen = Vec::new();
    let mut blocking_wedges = 0;
    for scenario in registry() {
        let expected = expected_progress(scenario.name);
        assert_eq!(
            scenario.progress(),
            expected,
            "{}: declared progress class drifted",
            scenario.name
        );
        seen.push(expected);
        let report = sweep(&scenario, seeds()[0]);
        match expected {
            Progress::Blocking => {
                blocking_wedges += report.wedged;
                // Every sampled crash inside a hashtable update's seqlock
                // critical section wedges the surviving updaters, so the
                // two table entries pay the class's price at every seed.
                // (The queue's wedge window — mid-dequeue with Peeks left —
                // is narrow; `tests/crash_tolerance.rs` demonstrates it
                // deterministically.)
                if scenario.name.starts_with("hashtable/") {
                    assert!(
                        report.wedged > 0,
                        "{}: a crashed updater must wedge the seqlock \
                         somewhere in the sweep",
                        scenario.name
                    );
                }
            }
            Progress::Helping => {
                assert_eq!(
                    report.wedged, 0,
                    "{}: Helping forbids wedging",
                    scenario.name
                );
                // Exactly-once needs a state decode, which comes with the
                // audit; the no-release ablation is NotHi and has none.
                if scenario.hi_level().auditable() {
                    assert!(
                        report.exactly_once_checks > 0,
                        "{}: Helping plans must run the exactly-once check",
                        scenario.name
                    );
                }
            }
            Progress::WaitFree | Progress::LockFree => {
                assert_eq!(
                    report.wedged, 0,
                    "{}: {:?} forbids wedging",
                    scenario.name, expected
                );
            }
        }
    }
    for class in [
        Progress::WaitFree,
        Progress::LockFree,
        Progress::Helping,
        Progress::Blocking,
    ] {
        assert!(
            seen.contains(&class),
            "no registry scenario declares {class:?} — the sweep's \
             enforcement of that class is untested"
        );
    }
    assert!(
        blocking_wedges > 0,
        "no Blocking scenario wedged: the tolerated-wedge path of the \
         checker is untested"
    );
}

#[test]
fn fault_sweeps_are_deterministic_per_seed() {
    // The sweep is a deterministic function of the seed: workload, schedule
    // and sampled crash points all derive from it, so two sweeps must agree
    // byte-for-byte — the property that makes the repro command a repro.
    for scenario in registry() {
        let a = sweep(&scenario, 23);
        let b = sweep(&scenario, 23);
        assert_eq!(
            a, b,
            "{}: two sweeps under the same seed diverged",
            scenario.name
        );
    }
}
