//! The caller-scheduled lane: run a hand-built workload under any
//! scheduler, monitor history independence at every permitted observation
//! point through the auditor the other lanes share, then verify the
//! history linearizes.

use std::error::Error;
use std::fmt;

use hi_core::{HiViolation, ObjectSpec};
use hi_sim::{run_workload, Executor, Implementation, MemSnapshot, RunError, Scheduler, Workload};

use crate::audit::Auditor;
use crate::hi::{single_mutator_state, ObservationModel};
use crate::lin::{linearize, LinError, LinOptions, Linearization};

/// Result of a successful [`check_run`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckReport<Q> {
    /// The linearization witness for the produced history.
    pub lin: Linearization<Q>,
    /// Number of observation points the HI monitor examined.
    pub hi_points: u64,
    /// Total steps taken by the execution.
    pub steps: u64,
    /// `mem(C)` of the final (quiescent) configuration.
    pub final_snapshot: MemSnapshot,
}

/// Why a [`check_run`] failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckError<Q> {
    /// The execution did not finish within the step budget.
    Run(RunError),
    /// The produced history is not linearizable (or the check gave up).
    Lin(LinError),
    /// History independence was violated.
    Hi(HiViolation<Q, MemSnapshot>),
}

impl<Q: fmt::Debug> fmt::Display for CheckError<Q> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Run(e) => write!(f, "run error: {e}"),
            CheckError::Lin(e) => write!(f, "linearizability: {e}"),
            CheckError::Hi(v) => write!(f, "history independence: {v}"),
        }
    }
}

impl<Q: fmt::Debug> Error for CheckError<Q> {}

/// Runs `workload` on a fresh executor of `imp` under `sched`, monitoring HI
/// under `model` with the abstract state supplied by `oracle` at each
/// permitted point, and finally checks linearizability of the full history.
///
/// # Errors
///
/// The first failure among: step-budget exhaustion, an HI violation, or a
/// non-linearizable history.
pub fn check_run<S, I, Sch, F>(
    imp: &I,
    workload: Workload<S>,
    sched: &mut Sch,
    model: ObservationModel,
    max_steps: u64,
    oracle: F,
) -> Result<CheckReport<S::State>, CheckError<S::State>>
where
    S: ObjectSpec,
    I: Implementation<S>,
    Sch: Scheduler,
    F: FnMut(&Executor<S, I>) -> S::State,
{
    let mut auditor = Auditor::monitor(model, Box::new(oracle));
    let mut exec = Executor::new(imp.clone());
    let mut observer = |e: &Executor<S, I>| auditor.observe(e, || false);
    run_workload(&mut exec, workload, sched, &mut observer, max_steps).map_err(CheckError::Run)?;
    if let Some(v) = auditor.hi_violation() {
        return Err(CheckError::Hi(v.clone()));
    }
    let lin =
        linearize(exec.spec(), exec.history(), &LinOptions::default()).map_err(CheckError::Lin)?;
    Ok(CheckReport {
        lin,
        hi_points: auditor.points,
        steps: exec.steps(),
        final_snapshot: exec.snapshot(),
    })
}

/// [`check_run`] specialized to single-mutator implementations (SWSR
/// registers, the positional queue): the abstract state at any
/// state-quiescent point is the fold of the completed state-changing
/// operations in invocation order.
pub fn check_run_single_mutator<S, I, Sch>(
    imp: &I,
    workload: Workload<S>,
    sched: &mut Sch,
    model: ObservationModel,
    max_steps: u64,
) -> Result<CheckReport<S::State>, CheckError<S::State>>
where
    S: ObjectSpec,
    I: Implementation<S>,
    Sch: Scheduler,
{
    let spec = imp.spec().clone();
    check_run(
        imp,
        workload,
        sched,
        model,
        max_steps,
        move |exec: &Executor<S, I>| single_mutator_state(&spec, exec.history()),
    )
}
