//! Schedulers: who takes the next step.
//!
//! The asynchronous model places no fairness constraints on the adversary
//! scheduler; these schedulers cover the spectrum used by the test suites:
//! deterministic rotation, seeded randomness (for reproducible stress), and
//! fully scripted schedules (for reproducing the paper's figures).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hi_core::Pid;

/// Chooses the next process to step among the enabled ones.
pub trait Scheduler {
    /// Picks one of `enabled` (never empty).
    fn next_pid(&mut self, enabled: &[Pid]) -> Pid;
}

impl<Sch: Scheduler + ?Sized> Scheduler for &mut Sch {
    fn next_pid(&mut self, enabled: &[Pid]) -> Pid {
        (**self).next_pid(enabled)
    }
}

/// Rotates through processes in pid order.
#[derive(Clone, Debug, Default)]
pub struct RoundRobin {
    last: Option<Pid>,
}

impl RoundRobin {
    /// Creates a round-robin scheduler.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl Scheduler for RoundRobin {
    fn next_pid(&mut self, enabled: &[Pid]) -> Pid {
        assert!(!enabled.is_empty(), "no enabled process");
        let next = match self.last {
            None => enabled[0],
            Some(last) => *enabled.iter().find(|p| p.0 > last.0).unwrap_or(&enabled[0]),
        };
        self.last = Some(next);
        next
    }
}

/// Picks uniformly at random among enabled processes, from a seed.
///
/// Equal seeds give equal schedules, so stress-test failures are
/// reproducible from the reported seed alone.
#[derive(Clone, Debug)]
pub struct Seeded {
    rng: StdRng,
}

impl Seeded {
    /// Creates a seeded random scheduler.
    pub fn new(seed: u64) -> Self {
        Seeded {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for Seeded {
    fn next_pid(&mut self, enabled: &[Pid]) -> Pid {
        assert!(!enabled.is_empty(), "no enabled process");
        enabled[self.rng.gen_range(0..enabled.len())]
    }
}

/// Follows an explicit schedule, then falls back to round-robin.
///
/// Scripted entries naming a process that is not enabled are skipped; this
/// makes figure scripts robust to the exact number of steps an operation
/// takes.
#[derive(Clone, Debug)]
pub struct Scripted {
    script: Vec<Pid>,
    pos: usize,
    fallback: RoundRobin,
}

impl Scripted {
    /// Creates a scheduler following `script`.
    pub fn new(script: Vec<Pid>) -> Self {
        Scripted {
            script,
            pos: 0,
            fallback: RoundRobin::new(),
        }
    }

    /// Convenience: a script of `(pid, repeat)` runs.
    ///
    /// # Example
    ///
    /// ```
    /// use hi_sim::{Scripted, Pid};
    /// // 3 steps of p0, then 2 of p1, then 1 of p0.
    /// let sched = Scripted::runs(&[(0, 3), (1, 2), (0, 1)]);
    /// # let _ = sched;
    /// ```
    pub fn runs(runs: &[(usize, usize)]) -> Self {
        let mut script = Vec::new();
        for &(pid, n) in runs {
            script.extend(std::iter::repeat(Pid(pid)).take(n));
        }
        Scripted::new(script)
    }

    /// Whether the script has been fully consumed.
    pub fn exhausted(&self) -> bool {
        self.pos >= self.script.len()
    }
}

impl Scheduler for Scripted {
    fn next_pid(&mut self, enabled: &[Pid]) -> Pid {
        while self.pos < self.script.len() {
            let pid = self.script[self.pos];
            self.pos += 1;
            if enabled.contains(&pid) {
                return pid;
            }
        }
        self.fallback.next_pid(enabled)
    }
}

/// A single injected fault.
///
/// Fault points are counted in *transitions of the affected process* (its
/// invocations plus its steps, as taken under the wrapped scheduler), not in
/// global time — so "crash the writer after 3 of its transitions" means the
/// same thing under every base schedule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// `pid` crashes once it has taken `after` transitions: it never takes
    /// another step, and its memory contribution stays static forever.
    /// `after = 0` crashes the process before it does anything at all.
    Crash {
        /// The crashing process.
        pid: Pid,
        /// How many of its own transitions it takes before crashing.
        after: u64,
    },
    /// `pid` stalls once it has taken `after` transitions, and resumes after
    /// `hold` further *global* transitions have elapsed — a scheduling
    /// perturbation (a long page fault), not a failure. Unlike a crash, a
    /// stall must be survivable by every progress class.
    Stall {
        /// The stalling process.
        pid: Pid,
        /// How many of its own transitions it takes before stalling.
        after: u64,
        /// For how many global transitions it stays off the schedule.
        hold: u64,
    },
}

impl Fault {
    /// The process this fault affects.
    pub fn pid(&self) -> Pid {
        match self {
            Fault::Crash { pid, .. } | Fault::Stall { pid, .. } => *pid,
        }
    }
}

/// A set of faults to inject into one run: the adversary's script.
///
/// Build plans with [`FaultPlan::crash`]/[`FaultPlan::stall`] and chain more
/// faults with [`FaultPlan::and_crash`]/[`FaultPlan::and_stall`]; realize
/// them by wrapping any [`Scheduler`] in a [`Faulty`] combinator.
///
/// # Example
///
/// ```
/// use hi_sim::{FaultPlan, Pid};
/// // Crash p0 after 3 of its transitions, and stall p2 for 16 transitions
/// // right at its start.
/// let plan = FaultPlan::crash(Pid(0), 3).and_stall(Pid(2), 0, 16);
/// assert_eq!(plan.faults().len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: no faults (the wrapped scheduler runs unchanged).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan with a single crash of `pid` after `after` of its transitions.
    pub fn crash(pid: Pid, after: u64) -> Self {
        FaultPlan::none().and_crash(pid, after)
    }

    /// A plan with a single stall of `pid` after `after` of its transitions,
    /// held for `hold` global transitions.
    pub fn stall(pid: Pid, after: u64, hold: u64) -> Self {
        FaultPlan::none().and_stall(pid, after, hold)
    }

    /// A plan crashing every process except `survivor` at the given per-pid
    /// points (`points[p]` is ignored for the survivor) — the wait-freedom
    /// scenario: everyone else dies mid-operation.
    pub fn crash_all_except(survivor: Pid, points: &[u64]) -> Self {
        let mut plan = FaultPlan::none();
        for (p, &after) in points.iter().enumerate() {
            if p != survivor.0 {
                plan = plan.and_crash(Pid(p), after);
            }
        }
        plan
    }

    /// Adds a crash fault.
    pub fn and_crash(mut self, pid: Pid, after: u64) -> Self {
        self.faults.push(Fault::Crash { pid, after });
        self
    }

    /// Adds a stall fault.
    pub fn and_stall(mut self, pid: Pid, after: u64, hold: u64) -> Self {
        self.faults.push(Fault::Stall { pid, after, hold });
        self
    }

    /// The faults in this plan.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Whether the plan contains any crash fault.
    pub fn has_crash(&self) -> bool {
        self.faults.iter().any(|f| matches!(f, Fault::Crash { .. }))
    }
}

/// A scheduler combinator injecting the faults of a [`FaultPlan`] into any
/// base [`Scheduler`].
///
/// `Faulty` counts each process's transitions (every pid it returns) and a
/// global transition clock. A process whose crash point has been reached is
/// removed from the enabled set before the base scheduler picks; a stalled
/// process is removed until its hold expires. If *every* enabled process is
/// merely stalled, the global clock fast-forwards to the earliest resume
/// point, so stalls cannot deadlock a run.
///
/// Determinism: the combinator is pure bookkeeping over the base scheduler,
/// so equal `(base scheduler state, plan)` give equal schedules — and until
/// the first fault activates, the schedule is *identical* to the fault-free
/// one, which is what makes sampled crash points meaningful.
///
/// Use with [`run_workload_with_faults`](crate::run_workload_with_faults),
/// which also excludes crashed processes' queued operations.
///
/// # Panics
///
/// [`Scheduler::next_pid`] panics if every enabled process is *crashed* —
/// the runner never lets that happen (crashed processes are not enabled),
/// but a caller handing it an enabled set of its own can.
#[derive(Clone, Debug)]
pub struct Faulty<Sch> {
    inner: Sch,
    plan: FaultPlan,
    /// Transitions taken per pid.
    taken: Vec<u64>,
    /// Global transition clock.
    global: u64,
    /// Per-fault stall activation: `Some(resume_at)` once triggered.
    stall_until: Vec<Option<u64>>,
    /// The unblocked subset of the enabled set, reused across turns.
    alive: Vec<Pid>,
}

impl<Sch> Faulty<Sch> {
    /// Wraps `inner`, injecting `plan`, for `n` processes.
    pub fn new(inner: Sch, plan: FaultPlan, n: usize) -> Self {
        for f in plan.faults() {
            assert!(f.pid().0 < n, "fault plan names pid {:?} >= n={n}", f.pid());
        }
        let stall_until = vec![None; plan.faults().len()];
        Faulty {
            inner,
            plan,
            taken: vec![0; n],
            global: 0,
            stall_until,
            alive: Vec::with_capacity(n),
        }
    }

    /// The plan being injected.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// How many transitions `pid` has taken.
    pub fn taken(&self, pid: Pid) -> u64 {
        self.taken[pid.0]
    }

    /// The global transition count.
    pub fn global(&self) -> u64 {
        self.global
    }

    /// Whether `pid`'s crash point has been reached: it will never be
    /// scheduled again.
    pub fn crashed(&self, pid: Pid) -> bool {
        self.plan.faults().iter().any(|f| match f {
            Fault::Crash { pid: p, after } => *p == pid && self.taken[pid.0] >= *after,
            Fault::Stall { .. } => false,
        })
    }

    /// Whether any crash is active yet — i.e. the configuration already
    /// contains a crashed process (the adversary's post-crash world).
    pub fn any_crash_active(&self) -> bool {
        (0..self.taken.len()).any(|p| self.crashed(Pid(p)))
    }

    /// Whether `pid` is currently blocked (crashed, or inside an active
    /// stall window).
    pub fn blocked(&self, pid: Pid) -> bool {
        if self.crashed(pid) {
            return true;
        }
        self.plan
            .faults()
            .iter()
            .zip(&self.stall_until)
            .any(|(f, until)| f.pid() == pid && matches!(until, Some(t) if self.global < *t))
    }

    /// Activates any stall whose trigger point has been reached.
    fn refresh_stalls(&mut self) {
        for (i, f) in self.plan.faults().iter().enumerate() {
            if let Fault::Stall { pid, after, hold } = f {
                if self.stall_until[i].is_none() && self.taken[pid.0] >= *after {
                    self.stall_until[i] = Some(self.global + hold);
                }
            }
        }
    }

    /// Advances the global clock to the earliest active stall resume point.
    /// Returns `false` if there is none (every blocked process is crashed).
    fn fast_forward(&mut self) -> bool {
        let next = self
            .stall_until
            .iter()
            .filter_map(|u| *u)
            .filter(|&t| t > self.global)
            .min();
        match next {
            Some(t) => {
                self.global = t;
                true
            }
            None => false,
        }
    }
}

impl<Sch: Scheduler> Scheduler for Faulty<Sch> {
    fn next_pid(&mut self, enabled: &[Pid]) -> Pid {
        assert!(!enabled.is_empty(), "no enabled process");
        loop {
            self.refresh_stalls();
            let mut alive = std::mem::take(&mut self.alive);
            alive.clear();
            alive.extend(enabled.iter().copied().filter(|&p| !self.blocked(p)));
            let pick = (!alive.is_empty()).then(|| self.inner.next_pid(&alive));
            self.alive = alive;
            if let Some(pid) = pick {
                self.taken[pid.0] += 1;
                self.global += 1;
                return pid;
            }
            assert!(
                self.fast_forward(),
                "fault plan crashed every enabled process: {:?}",
                self.plan
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_rotates() {
        let mut rr = RoundRobin::new();
        let enabled = [Pid(0), Pid(1), Pid(2)];
        let picks: Vec<_> = (0..6).map(|_| rr.next_pid(&enabled).0).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_disabled() {
        let mut rr = RoundRobin::new();
        assert_eq!(rr.next_pid(&[Pid(0), Pid(2)]), Pid(0));
        assert_eq!(rr.next_pid(&[Pid(0), Pid(2)]), Pid(2));
        assert_eq!(rr.next_pid(&[Pid(0), Pid(2)]), Pid(0));
    }

    #[test]
    fn seeded_is_reproducible() {
        let enabled = [Pid(0), Pid(1), Pid(2), Pid(3)];
        let a: Vec<_> = {
            let mut s = Seeded::new(42);
            (0..32).map(|_| s.next_pid(&enabled).0).collect()
        };
        let b: Vec<_> = {
            let mut s = Seeded::new(42);
            (0..32).map(|_| s.next_pid(&enabled).0).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn scripted_skips_and_falls_back() {
        let mut s = Scripted::runs(&[(1, 2), (0, 1)]);
        assert_eq!(s.next_pid(&[Pid(0), Pid(1)]), Pid(1));
        // p1 disabled: the scripted p1 entry is skipped, p0 served.
        assert_eq!(s.next_pid(&[Pid(0)]), Pid(0));
        assert!(s.exhausted());
        // Fallback round-robin afterwards, starting from the first enabled.
        assert_eq!(s.next_pid(&[Pid(0), Pid(1)]), Pid(0));
        assert_eq!(s.next_pid(&[Pid(0), Pid(1)]), Pid(1));
    }

    #[test]
    fn faulty_with_empty_plan_matches_base_schedule() {
        let enabled = [Pid(0), Pid(1), Pid(2)];
        let base: Vec<_> = {
            let mut s = Seeded::new(7);
            (0..64).map(|_| s.next_pid(&enabled).0).collect()
        };
        let wrapped: Vec<_> = {
            let mut s = Faulty::new(Seeded::new(7), FaultPlan::none(), 3);
            (0..64).map(|_| s.next_pid(&enabled).0).collect()
        };
        assert_eq!(base, wrapped);
    }

    #[test]
    fn crash_removes_pid_after_its_point() {
        let enabled = [Pid(0), Pid(1)];
        let mut s = Faulty::new(RoundRobin::new(), FaultPlan::crash(Pid(0), 2), 2);
        let picks: Vec<_> = (0..6).map(|_| s.next_pid(&enabled).0).collect();
        // p0 takes exactly 2 transitions, then only p1 is ever scheduled.
        assert_eq!(picks.iter().filter(|&&p| p == 0).count(), 2);
        assert_eq!(&picks[3..], &[1, 1, 1]);
        assert!(s.crashed(Pid(0)));
        assert!(!s.crashed(Pid(1)));
        assert!(s.any_crash_active());
    }

    #[test]
    fn crash_at_zero_is_active_immediately() {
        let s = Faulty::new(RoundRobin::new(), FaultPlan::crash(Pid(1), 0), 2);
        assert!(s.crashed(Pid(1)));
        assert!(s.any_crash_active());
    }

    #[test]
    fn stall_holds_then_resumes() {
        let enabled = [Pid(0), Pid(1)];
        // p0 stalls immediately for 4 global transitions, then resumes.
        let mut s = Faulty::new(RoundRobin::new(), FaultPlan::stall(Pid(0), 0, 4), 2);
        let picks: Vec<_> = (0..8).map(|_| s.next_pid(&enabled).0).collect();
        assert_eq!(&picks[..4], &[1, 1, 1, 1], "p0 held off the schedule");
        assert!(picks[4..].contains(&0), "p0 resumes after the hold");
        assert!(!s.blocked(Pid(0)));
    }

    #[test]
    fn lone_stalled_process_fast_forwards() {
        // Only p0 is enabled and it is stalled: the clock jumps to the
        // resume point instead of deadlocking.
        let mut s = Faulty::new(RoundRobin::new(), FaultPlan::stall(Pid(0), 0, 100), 1);
        assert_eq!(s.next_pid(&[Pid(0)]), Pid(0));
        assert!(s.global() > 100);
    }

    #[test]
    #[should_panic(expected = "crashed every enabled process")]
    fn all_crashed_enabled_panics() {
        let mut s = Faulty::new(RoundRobin::new(), FaultPlan::crash(Pid(0), 0), 2);
        s.next_pid(&[Pid(0)]);
    }
}
