//! Workloads and the scheduling loop.

use std::collections::VecDeque;

use hi_core::{ObjectSpec, Pid};

use crate::exec::{Executor, RunError};
use crate::process::Implementation;
use crate::sched::{FaultPlan, Faulty, Scheduler};

/// A per-process queue of operations to run.
///
/// # Example
///
/// ```
/// use hi_core::objects::{MultiRegisterSpec, RegisterOp};
/// use hi_sim::Workload;
///
/// let mut w: Workload<MultiRegisterSpec> = Workload::new(2);
/// w.push(0, RegisterOp::Write(3));
/// w.push(1, RegisterOp::Read);
/// assert!(!w.is_done());
/// ```
#[derive(Clone, Debug)]
pub struct Workload<S: ObjectSpec> {
    queues: Vec<VecDeque<S::Op>>,
}

impl<S: ObjectSpec> Workload<S> {
    /// Creates an empty workload for `n` processes.
    pub fn new(n: usize) -> Self {
        Workload {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Creates a workload from per-process operation lists.
    pub fn from_vecs(queues: Vec<Vec<S::Op>>) -> Self {
        Workload {
            queues: queues.into_iter().map(VecDeque::from).collect(),
        }
    }

    /// Appends `op` to process `pid`'s queue.
    pub fn push(&mut self, pid: usize, op: S::Op) {
        self.queues[pid].push_back(op);
    }

    /// Whether all queues are empty.
    pub fn is_done(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.queues.len()
    }

    /// Total operations remaining.
    pub fn remaining(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Removes and returns the next operation of `pid`, if any. Exposed for
    /// external driving loops such as the exhaustive explorer.
    pub fn pop(&mut self, pid: Pid) -> Option<S::Op> {
        self.queues[pid.0].pop_front()
    }

    /// Whether `pid` has operations left to invoke.
    pub fn has_next(&self, pid: Pid) -> bool {
        !self.queues[pid.0].is_empty()
    }

    /// The operations `pid` has yet to invoke, in invocation order — the
    /// workload *cursor*, which the model checker folds into configuration
    /// fingerprints.
    pub fn remaining_of(&self, pid: Pid) -> impl Iterator<Item = &S::Op> {
        self.queues[pid.0].iter()
    }
}

/// Observes the execution after every transition (invocation or step).
///
/// The history-independence checkers are observers: they snapshot `mem(C)`
/// at the configurations their observation model allows.
pub trait StepObserver<S: ObjectSpec, I: Implementation<S>> {
    /// Called after each invocation and after each step.
    fn observe(&mut self, exec: &Executor<S, I>);
}

impl<S, I, F> StepObserver<S, I> for F
where
    S: ObjectSpec,
    I: Implementation<S>,
    F: FnMut(&Executor<S, I>),
{
    fn observe(&mut self, exec: &Executor<S, I>) {
        self(exec)
    }
}

/// An observer that does nothing.
impl<S: ObjectSpec, I: Implementation<S>> StepObserver<S, I> for () {
    fn observe(&mut self, _exec: &Executor<S, I>) {}
}

/// Drives `exec` until the workload is exhausted and all operations have
/// returned, scheduling with `sched` and reporting every transition to
/// `observer` — the fault-free case of [`run_workload_with_faults`]: the
/// same loop under the empty [`FaultPlan`], which leaves `sched`'s schedule
/// unchanged.
///
/// # Errors
///
/// Returns [`RunError::StepLimit`] if more than `max_steps` transitions
/// occur — the guard that turns a starved lock-free loop (e.g. Algorithm 2's
/// reader under a hostile schedule) into a reportable outcome instead of a
/// hang.
pub fn run_workload<S, I, Sch, Obs>(
    exec: &mut Executor<S, I>,
    workload: Workload<S>,
    sched: &mut Sch,
    observer: &mut Obs,
    max_steps: u64,
) -> Result<(), RunError>
where
    S: ObjectSpec,
    I: Implementation<S>,
    Sch: Scheduler,
    Obs: StepObserver<S, I>,
{
    let mut faulty = Faulty::new(sched, FaultPlan::none(), exec.num_processes());
    run_workload_with_faults(
        exec,
        workload,
        &mut faulty,
        |e, _| observer.observe(e),
        max_steps,
    )
}

/// The scheduling loop: drives `exec` until every non-crashed process is
/// idle with an empty queue, scheduling with `faulty` (which injects its
/// [`FaultPlan`]) and reporting every transition to `observer` together
/// with the fault state, so HI checkers can tell which observation points
/// lie in the post-crash world.
///
/// A process is *enabled* if it is not crashed and has a pending operation
/// (it can step) or an operation waiting in its queue (it can invoke). Each
/// scheduler turn performs one transition: an invocation if the chosen
/// process is idle, otherwise one step. A crashed process's queued
/// operations are abandoned and a pending operation stays pending forever
/// (its memory contribution is frozen — the paper's crash model).
///
/// Until the first fault activates, the schedule is identical to the
/// fault-free one under the same base scheduler, so a crash point sampled
/// from a fault-free baseline run lands exactly where intended.
///
/// # Errors
///
/// Returns [`RunError::StepLimit`] after `max_steps` transitions — for
/// blocking implementations a crash inside a critical section legitimately
/// wedges the survivors, and the caller decides whether that is tolerable
/// for the declared progress class.
pub fn run_workload_with_faults<S, I, Sch, F>(
    exec: &mut Executor<S, I>,
    mut workload: Workload<S>,
    faulty: &mut Faulty<Sch>,
    mut observer: F,
    max_steps: u64,
) -> Result<(), RunError>
where
    S: ObjectSpec,
    I: Implementation<S>,
    Sch: Scheduler,
    F: FnMut(&Executor<S, I>, &Faulty<Sch>),
{
    assert_eq!(
        workload.num_processes(),
        exec.num_processes(),
        "workload/process count mismatch"
    );
    let mut transitions = 0u64;
    loop {
        let enabled: Vec<Pid> = (0..exec.num_processes())
            .map(Pid)
            .filter(|&p| !faulty.crashed(p) && (exec.can_step(p) || workload.has_next(p)))
            .collect();
        if enabled.is_empty() {
            return Ok(());
        }
        if transitions >= max_steps {
            return Err(RunError::StepLimit {
                pid: enabled[0],
                steps: max_steps,
            });
        }
        transitions += 1;
        let pid = faulty.next_pid(&enabled);
        if exec.can_step(pid) {
            exec.step(pid);
        } else {
            let op = workload
                .pop(pid)
                .expect("scheduler chose a process with no work");
            exec.invoke(pid, op);
        }
        observer(exec, faulty);
    }
}
