//! Algorithm 1: Vidyasankar's wait-free SWSR multi-valued register from
//! binary registers — the paper's *non*-history-independent baseline.
//!
//! The value is the smallest index `v` with `A[v] = 1`. A `Write(v)` sets
//! `A[v]` and clears only *below* `v`, so indices above the current value
//! keep stale 1s: after `Write(2); Write(1)` the memory is `[1,1,0]`, after
//! just `Write(1)` it is `[1,0,0]` — the memory reveals the history even in
//! sequential executions (paper §4).

use hi_core::objects::{MultiRegisterSpec, RegisterOp, RegisterResp};
use hi_core::{HiLevel, Pid, Progress, Roles};
use hi_sim::{CellDomain, CellId, Cells, Implementation, ProcessHandle, SharedMem};
use hi_spec::{Layout, SimAudit, SimObject};

use crate::{in_range, lowest_set, nth, Role, Scanned, Sweep, TryRead};

/// Algorithm 1. pid 0 writes, pid 1 reads. Wait-free, linearizable, not HI.
#[derive(Clone, Debug)]
pub struct VidyasankarRegister {
    spec: MultiRegisterSpec,
    mem: SharedMem,
}

impl VidyasankarRegister {
    /// Creates a `K`-valued register with initial value `v0`, laid out as
    /// binary cells `A[1..=K]` with `A[v0] = 1`.
    pub fn new(k: u64, v0: u64) -> Self {
        let spec = MultiRegisterSpec::new(k, v0);
        let mut mem = SharedMem::new();
        for v in 1..=k {
            mem.alloc(format!("A[{v}]"), CellDomain::Binary, u64::from(v == v0));
        }
        VidyasankarRegister { spec, mem }
    }
}

/// Program counter of one Algorithm 1 operation.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Pc {
    Idle,
    /// Lines 7–8: set `A[v]`, clear below it.
    Write {
        v: u64,
        sweep: Sweep,
    },
    /// Lines 1–5: the two-pass scan of `A`.
    Read(TryRead),
}

/// The per-process step machine of [`VidyasankarRegister`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VidyasankarProcess {
    role: Role,
    k: u64,
    /// `A[1]`; `A[v]` is `v - 1` cells on.
    a: CellId,
    pc: Pc,
}

impl ProcessHandle<MultiRegisterSpec> for VidyasankarProcess {
    fn invoke(&mut self, op: RegisterOp) {
        assert_eq!(self.pc, Pc::Idle, "operation already pending");
        self.pc = match (self.role, op) {
            (Role::Writer, RegisterOp::Write(v)) => Pc::Write {
                v: in_range(v, self.k),
                sweep: Sweep::Set,
            },
            (Role::Reader, RegisterOp::Read) => Pc::Read(TryRead::START),
            (role, op) => panic!("{role:?} cannot invoke {op:?}"),
        };
    }

    fn is_idle(&self) -> bool {
        self.pc == Pc::Idle
    }

    #[inline]
    fn step<C: Cells>(&mut self, ctx: &mut C) -> Option<RegisterResp> {
        match self.pc {
            Pc::Idle => panic!("step of idle process"),
            Pc::Write { v, sweep } => match sweep.step(ctx, self.a, v, self.k, false) {
                Some(sweep) => {
                    self.pc = Pc::Write { v, sweep };
                    None
                }
                None => {
                    self.pc = Pc::Idle;
                    Some(RegisterResp::Ack)
                }
            },
            Pc::Read(scan) => match scan.step(ctx, self.a, self.k) {
                Scanned::More(next) => {
                    self.pc = Pc::Read(next);
                    None
                }
                Scanned::Value(v) => {
                    self.pc = Pc::Idle;
                    Some(RegisterResp::Value(v))
                }
                Scanned::Bottom => panic!("Algorithm 1 invariant broken: no 1 in A"),
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

impl Implementation<MultiRegisterSpec> for VidyasankarRegister {
    type Process = VidyasankarProcess;

    fn spec(&self) -> &MultiRegisterSpec {
        &self.spec
    }

    fn num_processes(&self) -> usize {
        2
    }

    fn init_memory(&self) -> SharedMem {
        self.mem.clone()
    }

    fn make_process(&self, pid: Pid) -> VidyasankarProcess {
        VidyasankarProcess {
            role: Role::of_pid(pid),
            k: self.spec.k(),
            a: CellId(0),
            pc: Pc::Idle,
        }
    }
}

impl Layout<MultiRegisterSpec> for VidyasankarRegister {
    fn canonical_image(&self, _state: &u64) -> Option<Vec<u64>> {
        None // Algorithm 1 leaks history; there is no canonical form.
    }

    /// The smallest set index of `A`: what a solo `Read` returns.
    fn state_of(&self, mem: &[u64]) -> u64 {
        lowest_set(&mem[..self.spec.k() as usize])
    }
}

impl SimObject<MultiRegisterSpec> for VidyasankarRegister {
    type Machine = Self;

    fn spec(&self) -> &MultiRegisterSpec {
        &self.spec
    }

    fn roles(&self) -> Roles {
        Roles::SingleWriterSingleReader
    }

    fn hi_level(&self) -> HiLevel {
        HiLevel::NotHi
    }

    fn progress(&self) -> Progress {
        // Both roles take a bounded number of steps per operation.
        Progress::WaitFree
    }

    fn implementation(&self) -> &Self {
        self
    }

    fn hi_audit(&self) -> SimAudit<MultiRegisterSpec, Self> {
        // Algorithm 1 leaks history; only linearizability is checkable.
        SimAudit::LinOnly
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hi_sim::Executor;

    const W: Pid = Pid(0);
    const R: Pid = Pid(1);

    #[test]
    fn sequential_write_read() {
        let mut exec = Executor::new(VidyasankarRegister::new(5, 1));
        exec.run_op_solo(W, RegisterOp::Write(4), 100).unwrap();
        assert_eq!(
            exec.run_op_solo(R, RegisterOp::Read, 100).unwrap(),
            RegisterResp::Value(4)
        );
    }

    #[test]
    fn initial_value_readable() {
        let mut exec = Executor::new(VidyasankarRegister::new(3, 2));
        assert_eq!(
            exec.run_op_solo(R, RegisterOp::Read, 100).unwrap(),
            RegisterResp::Value(2)
        );
    }

    #[test]
    fn leaks_history_in_sequential_execution() {
        // The paper's §4 example: Write(2);Write(1) vs Write(1) reach the
        // same abstract state with different memory.
        let imp = VidyasankarRegister::new(3, 3);
        let mut e1 = Executor::new(imp.clone());
        e1.run_op_solo(W, RegisterOp::Write(2), 100).unwrap();
        e1.run_op_solo(W, RegisterOp::Write(1), 100).unwrap();
        let mut e2 = Executor::new(imp);
        e2.run_op_solo(W, RegisterOp::Write(1), 100).unwrap();
        assert_ne!(
            e1.snapshot(),
            e2.snapshot(),
            "Algorithm 1 must leak (paper §4)"
        );
        // Yet both read back the same value.
        assert_eq!(
            e1.run_op_solo(R, RegisterOp::Read, 100).unwrap(),
            e2.run_op_solo(R, RegisterOp::Read, 100).unwrap()
        );
    }

    #[test]
    fn write_is_wait_free_bounded_steps() {
        // A Write(v) takes exactly v steps (1 set + v-1 clears).
        let mut exec = Executor::new(VidyasankarRegister::new(6, 1));
        exec.invoke(W, RegisterOp::Write(6));
        let mut steps = 0;
        while exec.can_step(W) {
            exec.step(W);
            steps += 1;
        }
        assert_eq!(steps, 6);
    }

    #[test]
    #[should_panic(expected = "cannot invoke")]
    fn reader_cannot_write() {
        let mut exec = Executor::new(VidyasankarRegister::new(3, 1));
        exec.invoke(R, RegisterOp::Write(2));
    }
}
