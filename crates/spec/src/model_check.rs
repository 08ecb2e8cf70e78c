//! Exhaustive small-scope certification of [`SimObject`]s.
//!
//! [`check_sim_object`](crate::check_sim_object) drives one seeded schedule;
//! [`check_sim_object_exhaustive`] drives **all** of them. It runs the
//! reduced schedule-space explorer ([`crate::explore`]) over a role-mirrored
//! workload and applies the full oracle stack along the way:
//!
//! * the object's [`SimAudit`](crate::SimAudit) at *every* reachable
//!   configuration its observation model permits — the auditor the seeded
//!   lanes run, shared across all branches, which is exactly the paper's
//!   definition: history independence quantifies over *pairs* of
//!   executions, so observations from different schedules must agree on a
//!   single canonical map;
//! * Wing–Gong linearization of every distinct maximal-path history;
//! * optionally ([`ExhaustiveConfig::with_crashes`]) a single-crash variant
//!   branched at every choice point of the fault-free prefix.
//!
//! The result is an [`ExhaustiveReport`] carrying the exploration stats
//! (distinct configurations, certified schedules, reduction ratio) next to
//! the oracle counts — the per-scenario artifact the registry's model-check
//! lane serializes for CI.

use std::collections::HashSet;

use hi_core::{EnumerableSpec, FingerprintWriter, ObjectSpec};
use hi_sim::{Executor, Implementation, Workload};

use crate::audit::{preflight, Auditor};
use crate::explore::{explore_with, ExploreConfig, ExploreStats, ExploreVisitor};
use crate::lin::{linearize, LinOptions};
use crate::sim_object::{sim_workload, SimObject};

/// How [`check_sim_object_exhaustive`] generates and explores its workload.
#[derive(Clone, Copy, Debug)]
pub struct ExhaustiveConfig {
    /// Seed of the role-mirrored workload (same generation as
    /// [`check_sim_object`](crate::check_sim_object), so a failing instance
    /// reproduces from its seed).
    pub seed: u64,
    /// Operations per process. Exhaustive exploration is exponential in
    /// this; 1–2 is the small-scope regime.
    pub ops_per_pid: usize,
    /// The exploration strategy; defaults to [`ExploreConfig::reduced`].
    pub explore: ExploreConfig,
}

impl ExhaustiveConfig {
    /// The standard small-scope lane: reduced exploration of `ops_per_pid`
    /// operations per process under `seed`.
    pub fn new(seed: u64, ops_per_pid: usize) -> Self {
        ExhaustiveConfig {
            seed,
            ops_per_pid,
            explore: ExploreConfig::reduced(),
        }
    }

    /// Additionally branches a single crash at every choice point of the
    /// fault-free prefix (disables sleep sets — see
    /// [`ExploreConfig::single_crash`]).
    pub fn with_crashes(mut self) -> Self {
        self.explore.single_crash = true;
        self
    }
}

/// Result of a successful exhaustive certification. `Eq`, so determinism
/// suites can compare runs verbatim.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExhaustiveReport {
    /// Operations in the generated workload (across all processes).
    pub ops: usize,
    /// The exploration statistics (executed/certified paths, transitions,
    /// distinct configurations, reduction counters).
    pub stats: ExploreStats,
    /// Observation points the HI audit examined (0 iff not audited).
    pub hi_points: u64,
    /// Whether an HI audit ran (`false` only for
    /// [`SimAudit::LinOnly`](crate::SimAudit::LinOnly)).
    pub audited: bool,
    /// Distinct abstract states the monitor observed (0 for direct or
    /// lin-only audits, which keep no state map).
    pub distinct_states: u64,
    /// Distinct maximal-path histories handed to the linearizer. Histories
    /// are deduplicated by fingerprint: schedule reduction makes many paths
    /// end in the same history.
    pub linearized: u64,
}

impl ExhaustiveReport {
    /// Schedules certified per schedule executed — the partial-order /
    /// dedup reduction factor (1.0 means no reduction).
    pub fn reduction_ratio(&self) -> f64 {
        if self.stats.paths == 0 {
            return 1.0;
        }
        self.stats.certified_paths as f64 / self.stats.paths as f64
    }
}

/// Drives the explorer and applies the oracle stack at every callback.
struct ExhaustiveVisitor<S: ObjectSpec, I: Implementation<S>> {
    spec: S,
    auditor: Auditor<'static, S, I>,
    /// Fingerprints of maximal-path histories already linearized.
    lin_seen: HashSet<u128>,
    linearized: u64,
    /// The first maximal path that does not linearize.
    violation: Option<String>,
}

impl<S: ObjectSpec, I: Implementation<S>> ExploreVisitor<S, I> for ExhaustiveVisitor<S, I> {
    fn on_config(&mut self, exec: &Executor<S, I>) {
        self.auditor.observe(exec, || false);
    }

    fn on_path_end(&mut self, exec: &Executor<S, I>) {
        let mut w = FingerprintWriter::new();
        w.write_debug(&exec.history().events());
        if !self.lin_seen.insert(w.finish().0) {
            return;
        }
        self.linearized += 1;
        if let Err(e) = linearize(&self.spec, exec.history(), &LinOptions::default()) {
            self.violation = Some(format!("maximal path is not linearizable: {e}"));
        }
    }

    fn on_truncated(&mut self, _exec: &Executor<S, I>) {
        // Truncated paths are reported in the stats; the reduced lane runs
        // without a depth bound, so they only occur under explicit bounds.
    }

    fn abort(&self) -> bool {
        self.violation.is_some() || self.auditor.violation.is_some()
    }
}

/// Exhaustively certifies a [`SimObject`] on a small-scope instance: every
/// schedule of a role-mirrored workload is explored (up to provably
/// behavior-preserving reduction), the HI audit runs at every permitted
/// reachable configuration against one shared canonical map, and every
/// distinct maximal-path history is linearized.
///
/// # Panics
///
/// Panics if the object's metadata is inconsistent: role count ≠ process
/// count, or audit model ≠ [`model_for`](crate::model_for) of the declared
/// [`HiLevel`](hi_core::HiLevel).
///
/// # Errors
///
/// The first failure among: the transition valve (instance too large), an
/// HI violation at any reachable permitted configuration, a vacuous audit
/// (zero observation points while claiming an HI level), a
/// non-linearizable maximal path, or an exploration that executed no
/// maximal path at all — rendered, so heterogeneous scenarios surface them
/// uniformly.
pub fn check_sim_object_exhaustive<S, O>(
    obj: &O,
    cfg: &ExhaustiveConfig,
) -> Result<ExhaustiveReport, String>
where
    S: EnumerableSpec,
    O: SimObject<S>,
{
    let auditor = preflight(obj);
    let workload: Workload<S> = sim_workload(obj.spec(), obj.roles(), cfg.ops_per_pid, cfg.seed);
    let ops = workload.remaining();
    let exec = Executor::new(obj.implementation().clone());
    let mut visitor = ExhaustiveVisitor {
        spec: obj.spec().clone(),
        auditor,
        lin_seen: HashSet::new(),
        linearized: 0,
        violation: None,
    };
    let stats =
        explore_with(&exec, &workload, &cfg.explore, &mut visitor).map_err(|e| e.to_string())?;
    if let Some(v) = visitor.violation {
        return Err(v);
    }
    let hi_points = visitor.auditor.verdict()?;
    if stats.paths == 0 {
        return Err("the exploration executed no maximal path".to_string());
    }
    Ok(ExhaustiveReport {
        ops,
        stats,
        hi_points,
        audited: visitor.auditor.audited(),
        distinct_states: visitor.auditor.distinct_states(),
        linearized: visitor.linearized,
    })
}
