//! Algorithms 2 + 3: the lock-free state-quiescent HI SWSR multi-valued
//! register from binary registers.
//!
//! The writer behaves like Algorithm 1 but additionally clears *upwards*
//! (`v+1 .. K`), so whenever no write is pending the array has exactly one 1
//! — the canonical representation. The price: a reader overlapping a stream
//! of writes may find no 1 in its scan (`TryRead` returns ⊥, Algorithm 3)
//! and must retry, so reads are lock-free rather than wait-free. This is
//! exactly the trade-off cell of Table 1 row 2.

use hi_core::objects::{MultiRegisterSpec, RegisterOp, RegisterResp};
use hi_core::{HiLevel, Pid, Progress, Roles};
use hi_sim::{CellDomain, CellId, Cells, Implementation, ProcessHandle, SharedMem};
use hi_spec::{Layout, ObservationModel, SimAudit, SimObject};

use crate::{in_range, lowest_set, nth, Role, Scanned, Sweep, TryRead};

/// Algorithms 2+3. pid 0 writes (wait-free), pid 1 reads (lock-free).
/// State-quiescent HI.
#[derive(Clone, Debug)]
pub struct LockFreeHiRegister {
    spec: MultiRegisterSpec,
    mem: SharedMem,
}

impl LockFreeHiRegister {
    /// Creates a `K`-valued register with initial value `v0`: binary cells
    /// `A[1..=K]`, `A[v0] = 1`.
    pub fn new(k: u64, v0: u64) -> Self {
        let spec = MultiRegisterSpec::new(k, v0);
        let mut mem = SharedMem::new();
        for v in 1..=k {
            mem.alloc(format!("A[{v}]"), CellDomain::Binary, u64::from(v == v0));
        }
        LockFreeHiRegister { spec, mem }
    }

    /// The canonical memory representation of value `v`: all zeros except
    /// `A[v] = 1`.
    pub fn canonical(&self, v: u64) -> Vec<u64> {
        (1..=self.spec.k()).map(|i| u64::from(i == v)).collect()
    }
}

/// Program counter of one Algorithm 2 operation.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Pc {
    Idle,
    /// Lines 5–7: set `A[v]`, clear below it, then above it.
    Write {
        v: u64,
        sweep: Sweep,
    },
    /// Algorithm 3's scan of `A`, restarted whenever it returns ⊥ (the
    /// lock-free loop of Algorithm 2 lines 2–3).
    Read(TryRead),
}

/// The per-process step machine of [`LockFreeHiRegister`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LockFreeHiProcess {
    role: Role,
    k: u64,
    /// `A[1]`; `A[v]` is `v - 1` cells on.
    a: CellId,
    pc: Pc,
}

impl ProcessHandle<MultiRegisterSpec> for LockFreeHiProcess {
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

    fn step<C: Cells>(&mut self, ctx: &mut C) -> Option<RegisterResp> {
        match self.pc {
            Pc::Idle => panic!("step of idle process"),
            Pc::Write { v, sweep } => match sweep.step(ctx, self.a, v, self.k, true) {
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
                Scanned::Bottom => {
                    // TryRead returned ⊥: restart (lock-free retry).
                    ctx.backoff();
                    self.pc = Pc::Read(TryRead::START);
                    None
                }
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

impl Implementation<MultiRegisterSpec> for LockFreeHiRegister {
    type Process = LockFreeHiProcess;

    fn spec(&self) -> &MultiRegisterSpec {
        &self.spec
    }

    fn num_processes(&self) -> usize {
        2
    }

    fn init_memory(&self) -> SharedMem {
        self.mem.clone()
    }

    fn make_process(&self, pid: Pid) -> LockFreeHiProcess {
        LockFreeHiProcess {
            role: Role::of_pid(pid),
            k: self.spec.k(),
            a: CellId(0),
            pc: Pc::Idle,
        }
    }
}

impl Layout<MultiRegisterSpec> for LockFreeHiRegister {
    fn canonical_image(&self, state: &u64) -> Option<Vec<u64>> {
        Some(self.canonical(*state))
    }

    fn state_of(&self, mem: &[u64]) -> u64 {
        lowest_set(&mem[..self.spec.k() as usize])
    }
}

impl SimObject<MultiRegisterSpec> for LockFreeHiRegister {
    type Machine = Self;

    fn spec(&self) -> &MultiRegisterSpec {
        &self.spec
    }

    fn roles(&self) -> Roles {
        Roles::SingleWriterSingleReader
    }

    fn hi_level(&self) -> HiLevel {
        HiLevel::StateQuiescent
    }

    fn progress(&self) -> Progress {
        // Algorithm 2: an *active* writer can starve the reader's scan
        // loop, but a static (crashed) writer cannot — the array always
        // contains a 1.
        Progress::LockFree
    }

    fn implementation(&self) -> &Self {
        self
    }

    fn hi_audit(&self) -> SimAudit<MultiRegisterSpec, Self> {
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
    fn sequential_write_read() {
        let mut exec = Executor::new(LockFreeHiRegister::new(5, 1));
        exec.run_op_solo(W, RegisterOp::Write(3), 100).unwrap();
        assert_eq!(
            exec.run_op_solo(R, RegisterOp::Read, 100).unwrap(),
            RegisterResp::Value(3)
        );
    }

    #[test]
    fn canonical_memory_after_each_write() {
        let imp = LockFreeHiRegister::new(4, 2);
        let mut exec = Executor::new(imp.clone());
        for v in [3, 1, 4, 1, 2] {
            exec.run_op_solo(W, RegisterOp::Write(v), 100).unwrap();
            assert_eq!(exec.snapshot(), imp.canonical(v), "after Write({v})");
        }
    }

    #[test]
    fn no_leak_on_paper_example() {
        // Write(2);Write(1) and Write(1) now leave identical memory.
        let imp = LockFreeHiRegister::new(3, 3);
        let mut e1 = Executor::new(imp.clone());
        e1.run_op_solo(W, RegisterOp::Write(2), 100).unwrap();
        e1.run_op_solo(W, RegisterOp::Write(1), 100).unwrap();
        let mut e2 = Executor::new(imp);
        e2.run_op_solo(W, RegisterOp::Write(1), 100).unwrap();
        assert_eq!(e1.snapshot(), e2.snapshot());
    }

    #[test]
    fn reader_starves_under_hostile_writer() {
        // Keep the register's single 1 one step ahead of the reader's scan
        // cursor: before the reader reads A[j], write any value != j. The
        // read never returns (lock-free, not wait-free) even though the
        // writer completes every write.
        let k = 4;
        let mut exec = Executor::new(LockFreeHiRegister::new(k, 2));
        exec.invoke(R, RegisterOp::Read);
        for round in 0..200u64 {
            // The reader's scan index at round r is (r mod K) + 1; the
            // current value differs from it, so this step reads 0.
            assert!(
                exec.step(R).is_none(),
                "read must not return under this schedule"
            );
            let next_j = (round + 1) % k + 1;
            let dodge = next_j % k + 1;
            exec.run_op_solo(W, RegisterOp::Write(dodge), 100).unwrap();
        }
        assert!(exec.can_step(R), "read still pending after 200 rounds");
    }

    #[test]
    fn writer_is_wait_free_bounded_steps() {
        // A Write takes exactly K steps (set + K-1 clears), independent of
        // the reader: the writer side of Algorithm 2 is wait-free.
        let k = 5;
        let mut exec = Executor::new(LockFreeHiRegister::new(k, 1));
        for v in 1..=k {
            exec.invoke(W, RegisterOp::Write(v));
            let mut steps = 0;
            while exec.can_step(W) {
                exec.step(W);
                steps += 1;
            }
            assert_eq!(steps, k, "Write({v}) must take exactly K primitives");
        }
    }

    #[test]
    fn reader_returns_when_run_solo() {
        // Lock-freedom: once the writer stops, the reader finishes.
        let mut exec = Executor::new(LockFreeHiRegister::new(4, 2));
        exec.invoke(R, RegisterOp::Read);
        exec.step(R); // reads A[1] = 0 while the value is 2
        exec.run_op_solo(W, RegisterOp::Write(4), 100).unwrap();
        let (_, resp) = exec.run_solo(R, 100).unwrap();
        assert_eq!(resp, RegisterResp::Value(4));
    }
}
