//! The one audited-run core behind every simulator lane.
//!
//! [`check_run`](crate::check_run), [`check_sim_object`](crate::check_sim_object),
//! [`run_fault_plan`](crate::run_fault_plan) and
//! [`check_sim_object_exhaustive`](crate::check_sim_object_exhaustive) audit
//! history independence the same way: an [`Auditor`] watches every
//! transition, examines `mem(C)` at the configurations its observation model
//! permits (Definitions 5, 7 and 8 of the paper), and keeps the first
//! violation. The lanes differ only in who schedules (a caller's scheduler,
//! a seeded one with a fault plan, or the explorer) and in what the history
//! is linearized against.

use hi_core::{EnumerableSpec, HiViolation, ObjectSpec};
use hi_sim::{
    run_workload_with_faults, Executor, FaultPlan, Faulty, Implementation, MemSnapshot, RunError,
    Seeded,
};

use crate::hi::{HiMonitor, ObservationModel};
use crate::sim_object::{model_for, sim_workload, CanonicalOracle, SimAudit, SimObject};

/// A [`StateOracle`](crate::StateOracle) that may borrow for `'a`.
type StateFn<'a, S, I> = Box<dyn FnMut(&Executor<S, I>) -> <S as ObjectSpec>::State + 'a>;

/// What an [`Auditor`] examines at each permitted point.
enum Oracle<'a, S: ObjectSpec, I: Implementation<S>> {
    /// Same state, same memory: the abstract state of each point, fed to
    /// one [`HiMonitor`].
    State {
        oracle: StateFn<'a, S, I>,
        monitor: HiMonitor<S::State>,
    },
    /// Direct canonicity: the observed representation against the
    /// canonical one of the decoded state.
    Canonical(CanonicalOracle),
}

/// The step observer every lane audits through: built once from a
/// [`SimAudit`] (or, for [`check_run`](crate::check_run), from a bare state
/// oracle), it counts the permitted observation points and those in the
/// post-crash world, and keeps the first violation.
pub(crate) struct Auditor<'a, S: ObjectSpec, I: Implementation<S>> {
    /// `None` audits nothing ([`SimAudit::LinOnly`]).
    check: Option<(ObservationModel, Oracle<'a, S, I>)>,
    /// Permitted observation points examined.
    pub(crate) points: u64,
    /// The subset of `points` observed after a crash.
    pub(crate) post_crash_points: u64,
    /// The first violation found, rendered.
    pub(crate) violation: Option<String>,
}

impl<'a, S: ObjectSpec, I: Implementation<S>> Auditor<'a, S, I> {
    /// The auditor of `audit` — the one place its variants are told apart.
    pub(crate) fn new(audit: SimAudit<S, I>) -> Self {
        match audit {
            SimAudit::LinOnly => Auditor::with(None),
            SimAudit::Monitor { model, oracle } => Auditor::monitor(model, oracle),
            SimAudit::DirectCanonical { model, oracle } => {
                Auditor::with(Some((model, Oracle::Canonical(oracle))))
            }
        }
    }

    /// Same-state-same-memory monitoring under `model`, with the abstract
    /// state supplied by `oracle`.
    pub(crate) fn monitor(model: ObservationModel, oracle: StateFn<'a, S, I>) -> Self {
        let monitor = HiMonitor::new(model);
        Auditor::with(Some((model, Oracle::State { oracle, monitor })))
    }

    fn with(check: Option<(ObservationModel, Oracle<'a, S, I>)>) -> Self {
        Auditor {
            check,
            points: 0,
            post_crash_points: 0,
            violation: None,
        }
    }

    /// Examines the current configuration if the model permits it;
    /// `post_crash` tells whether a crash is already active there.
    pub(crate) fn observe(&mut self, exec: &Executor<S, I>, post_crash: impl FnOnce() -> bool) {
        let Some((model, oracle)) = &mut self.check else {
            return;
        };
        if !model.permits(exec) {
            return;
        }
        self.points += 1;
        if post_crash() {
            self.post_crash_points += 1;
        }
        if self.violation.is_some() {
            return;
        }
        self.violation = match oracle {
            Oracle::State { oracle, monitor } => {
                monitor.record(oracle(exec), exec.snapshot());
                monitor.violation().map(ToString::to_string)
            }
            Oracle::Canonical(oracle) => {
                let view = oracle(&exec.snapshot());
                (view.observed != view.canonical).then(|| {
                    format!(
                        "at a permitted ({model:?}) point, memory {:?} is not the canonical \
                         representation {:?} of state {}",
                        view.observed, view.canonical, view.state
                    )
                })
            }
        };
    }

    /// Whether the auditor audits at all.
    pub(crate) fn audited(&self) -> bool {
        self.check.is_some()
    }

    /// Distinct abstract states a state-oracle audit observed (0 for the
    /// others, which keep no state map).
    pub(crate) fn distinct_states(&self) -> u64 {
        match &self.check {
            Some((_, Oracle::State { monitor, .. })) => monitor.canonical_map().len() as u64,
            _ => 0,
        }
    }

    /// The abstract state of `exec`, when the audit has a state oracle.
    pub(crate) fn decode(&mut self, exec: &Executor<S, I>) -> Option<S::State> {
        match &mut self.check {
            Some((_, Oracle::State { oracle, .. })) => Some(oracle(exec)),
            _ => None,
        }
    }

    /// The first same-state-same-memory violation, typed, if any.
    pub(crate) fn hi_violation(&self) -> Option<&HiViolation<S::State, MemSnapshot>> {
        match &self.check {
            Some((_, Oracle::State { monitor, .. })) => monitor.violation(),
            _ => None,
        }
    }

    /// The audit's verdict on one run: `Ok(points)`, or the first
    /// violation, or a vacuous audit (zero points while auditing).
    pub(crate) fn verdict(&self) -> Result<u64, String> {
        if let Some(v) = &self.violation {
            return Err(v.clone());
        }
        if self.audited() && self.points == 0 {
            return Err("the HI audit examined no observation point".to_string());
        }
        Ok(self.points)
    }
}

/// Checks a [`SimObject`]'s metadata and builds the auditor of its
/// [`SimObject::hi_audit`].
///
/// # Panics
///
/// If the role count differs from the step machine's process count, or the
/// audit's observation model is not [`model_for`] of the declared level.
pub(crate) fn preflight<S, O>(obj: &O) -> Auditor<'static, S, O::Machine>
where
    S: ObjectSpec,
    O: SimObject<S>,
{
    let roles = obj.roles();
    assert_eq!(
        roles.num_handles(),
        obj.implementation().num_processes(),
        "role discipline {roles:?} disagrees with the step machine's process count"
    );
    let auditor = Auditor::new(obj.hi_audit());
    assert_eq!(
        auditor.check.as_ref().map(|(model, _)| *model),
        model_for(obj.hi_level()),
        "audit model {:?} does not match the declared HI level {:?}",
        auditor.check.as_ref().map(|(model, _)| *model),
        obj.hi_level()
    );
    auditor
}

/// One audited run of a [`SimObject`]: what [`run_plan`] leaves behind.
pub(crate) struct PlanRun<S: ObjectSpec, I: Implementation<S>> {
    pub(crate) exec: Executor<S, I>,
    pub(crate) faulty: Faulty<Seeded>,
    pub(crate) auditor: Auditor<'static, S, I>,
    pub(crate) run: Result<(), RunError>,
}

/// Runs `obj`'s role-mirrored workload under `seed` with `plan`'s faults
/// injected, audited by its [`SimObject::hi_audit`]. The empty plan is the
/// fault-free seeded run of [`check_sim_object`](crate::check_sim_object).
///
/// # Panics
///
/// On inconsistent object metadata (see [`preflight`]).
pub(crate) fn run_plan<S, O>(
    obj: &O,
    plan: &FaultPlan,
    seed: u64,
    ops_per_pid: usize,
    budget: u64,
) -> PlanRun<S, O::Machine>
where
    S: EnumerableSpec,
    O: SimObject<S>,
{
    let mut auditor = preflight(obj);
    let roles = obj.roles();
    let workload = sim_workload(obj.spec(), roles, ops_per_pid, seed);
    let mut faulty = Faulty::new(Seeded::new(seed), plan.clone(), roles.num_handles());
    let mut exec = Executor::new(obj.implementation().clone());
    let run = run_workload_with_faults(
        &mut exec,
        workload,
        &mut faulty,
        |e, f| auditor.observe(e, || f.any_crash_active()),
        budget,
    );
    PlanRun {
        exec,
        faulty,
        auditor,
        run,
    }
}
