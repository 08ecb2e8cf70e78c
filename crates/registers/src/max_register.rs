//! The max register (paper §5.1): wait-free *and* state-quiescent HI from
//! binary registers — possible because the max register is not in `C_t`.
//!
//! The implementation is the paper's "simple modification to Algorithm 1":
//! the writer only touches `A` when the new value exceeds everything it has
//! written before, then sets `A[v]` and clears downwards. Since values only
//! grow, the stale-1s-above problem of Algorithm 1 cannot arise: when no
//! write is pending, exactly `A[max] = 1` — a canonical representation at
//! every state-quiescent point, with no retry loop anywhere.

use hi_core::objects::{MaxRegisterOp, MaxRegisterSpec, RegisterResp};
use hi_core::{HiLevel, Pid, Progress, Roles};
use hi_sim::{CellDomain, CellId, Cells, Implementation, ProcessHandle, SharedMem};
use hi_spec::{Layout, ObservationModel, SimAudit, SimObject};

use crate::{in_range, lowest_set, nth, Role, Scanned, Sweep, TryRead};

/// The §5.1 max register. pid 0 writes, pid 1 reads; both wait-free;
/// state-quiescent HI.
#[derive(Clone, Debug)]
pub struct MaxRegister {
    spec: MaxRegisterSpec,
    mem: SharedMem,
}

impl MaxRegister {
    /// Creates a max register over `1..=k` (initial maximum 1).
    pub fn new(k: u64) -> Self {
        let spec = MaxRegisterSpec::new(k);
        let mut mem = SharedMem::new();
        for v in 1..=k {
            mem.alloc(format!("A[{v}]"), CellDomain::Binary, u64::from(v == 1));
        }
        MaxRegister { spec, mem }
    }

    /// The canonical memory representation of maximum `m`.
    pub fn canonical(&self, m: u64) -> Vec<u64> {
        (1..=self.spec.k()).map(|i| u64::from(i == m)).collect()
    }
}

/// Program counter of one max-register operation.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Pc {
    Idle,
    /// Set `A[v]`, clear below it (only reached when `v` exceeds the local
    /// maximum).
    Write {
        v: u64,
        sweep: Sweep,
    },
    /// The two-pass scan of `A`, as in Algorithm 1's reader.
    Read(TryRead),
}

/// The per-process step machine of [`MaxRegister`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MaxRegisterProcess {
    role: Role,
    k: u64,
    /// `A[1]`; `A[v]` is `v - 1` cells on.
    a: CellId,
    /// Writer-local maximum written so far.
    local_max: u64,
    pc: Pc,
    /// A `WriteMax` not exceeding `local_max` completes without any
    /// primitive; this flag marks that pending-but-trivial state.
    trivial_ack: bool,
}

impl ProcessHandle<MaxRegisterSpec> for MaxRegisterProcess {
    fn invoke(&mut self, op: MaxRegisterOp) {
        assert!(self.is_idle(), "operation already pending");
        match (self.role, op) {
            (Role::Writer, MaxRegisterOp::WriteMax(v)) => {
                if in_range(v, self.k) > self.local_max {
                    self.pc = Pc::Write {
                        v,
                        sweep: Sweep::Set,
                    };
                } else {
                    self.trivial_ack = true;
                }
            }
            (Role::Reader, MaxRegisterOp::ReadMax) => self.pc = Pc::Read(TryRead::START),
            (role, op) => panic!("{role:?} cannot invoke {op:?}"),
        }
    }

    fn is_idle(&self) -> bool {
        self.pc == Pc::Idle && !self.trivial_ack
    }

    #[inline]
    fn step<C: Cells>(&mut self, ctx: &mut C) -> Option<RegisterResp> {
        if self.trivial_ack {
            self.trivial_ack = false;
            return Some(RegisterResp::Ack);
        }
        match self.pc {
            Pc::Idle => panic!("step of idle process"),
            Pc::Write { v, sweep } => {
                if sweep == Sweep::Set {
                    self.local_max = v;
                }
                match sweep.step(ctx, self.a, v, self.k, false) {
                    Some(sweep) => {
                        self.pc = Pc::Write { v, sweep };
                        None
                    }
                    None => {
                        self.pc = Pc::Idle;
                        Some(RegisterResp::Ack)
                    }
                }
            }
            Pc::Read(scan) => match scan.step(ctx, self.a, self.k) {
                Scanned::More(next) => {
                    self.pc = Pc::Read(next);
                    None
                }
                Scanned::Value(v) => {
                    self.pc = Pc::Idle;
                    Some(RegisterResp::Value(v))
                }
                Scanned::Bottom => panic!("max register invariant broken: no 1 in A"),
            },
        }
    }

    fn peeked_cell(&self) -> Option<CellId> {
        match &self.pc {
            Pc::Idle => None,
            Pc::Write { v, sweep } => Some(nth(self.a, sweep.j(*v))),
            Pc::Read(scan) => Some(nth(self.a, scan.j())),
        }
    }
}

impl Implementation<MaxRegisterSpec> for MaxRegister {
    type Process = MaxRegisterProcess;

    fn spec(&self) -> &MaxRegisterSpec {
        &self.spec
    }

    fn num_processes(&self) -> usize {
        2
    }

    fn init_memory(&self) -> SharedMem {
        self.mem.clone()
    }

    fn make_process(&self, pid: Pid) -> MaxRegisterProcess {
        MaxRegisterProcess {
            role: Role::of_pid(pid),
            k: self.spec.k(),
            a: CellId(0),
            local_max: 1,
            pc: Pc::Idle,
            trivial_ack: false,
        }
    }
}

impl Layout<MaxRegisterSpec> for MaxRegister {
    fn canonical_image(&self, state: &u64) -> Option<Vec<u64>> {
        Some(self.canonical(*state))
    }

    fn state_of(&self, mem: &[u64]) -> u64 {
        lowest_set(&mem[..self.spec.k() as usize])
    }
}

impl SimObject<MaxRegisterSpec> for MaxRegister {
    type Machine = Self;

    fn spec(&self) -> &MaxRegisterSpec {
        &self.spec
    }

    fn roles(&self) -> Roles {
        Roles::SingleWriterSingleReader
    }

    fn hi_level(&self) -> HiLevel {
        HiLevel::StateQuiescent
    }

    fn progress(&self) -> Progress {
        // One primitive per WriteMax step and a bounded scan per ReadMax.
        Progress::WaitFree
    }

    fn implementation(&self) -> &Self {
        self
    }

    fn hi_audit(&self) -> SimAudit<MaxRegisterSpec, Self> {
        SimAudit::single_mutator(ObservationModel::StateQuiescent, self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hi_sim::Executor;

    const W: Pid = Pid(0);
    const R: Pid = Pid(1);

    #[test]
    fn returns_running_maximum() {
        let mut exec = Executor::new(MaxRegister::new(6));
        for (write, expect) in [(3, 3), (2, 3), (5, 5), (1, 5)] {
            exec.run_op_solo(W, MaxRegisterOp::WriteMax(write), 100)
                .unwrap();
            assert_eq!(
                exec.run_op_solo(R, MaxRegisterOp::ReadMax, 100).unwrap(),
                RegisterResp::Value(expect)
            );
        }
    }

    #[test]
    fn state_quiescent_memory_is_canonical() {
        let imp = MaxRegister::new(5);
        let mut exec = Executor::new(imp.clone());
        for (write, max) in [(2, 2), (4, 4), (3, 4), (5, 5)] {
            exec.run_op_solo(W, MaxRegisterOp::WriteMax(write), 100)
                .unwrap();
            assert_eq!(
                exec.snapshot(),
                imp.canonical(max),
                "after WriteMax({write})"
            );
        }
    }

    #[test]
    fn smaller_write_leaves_memory_untouched() {
        let imp = MaxRegister::new(4);
        let mut exec = Executor::new(imp);
        exec.run_op_solo(W, MaxRegisterOp::WriteMax(3), 100)
            .unwrap();
        let before = exec.snapshot();
        let steps_before = exec.steps();
        exec.run_op_solo(W, MaxRegisterOp::WriteMax(2), 100)
            .unwrap();
        assert_eq!(exec.snapshot(), before);
        assert_eq!(
            exec.steps(),
            steps_before + 1,
            "one local step, no primitives"
        );
    }

    #[test]
    fn reader_is_wait_free_under_increasing_writes() {
        // Monotone writes cannot starve the reader: at most K write phases
        // exist in total.
        let k = 8;
        let mut exec = Executor::new(MaxRegister::new(k));
        exec.invoke(R, MaxRegisterOp::ReadMax);
        let mut returned = false;
        for v in 2..=k {
            if exec.step(R).is_some() {
                returned = true;
                break;
            }
            exec.run_op_solo(W, MaxRegisterOp::WriteMax(v), 100)
                .unwrap();
        }
        if !returned {
            // Writer has exhausted its domain; reader finishes solo.
            exec.run_solo(R, 10 * k).unwrap();
        }
    }
}
