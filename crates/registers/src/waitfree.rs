//! Algorithm 4: the wait-free quiescent HI SWSR multi-valued register from
//! binary registers.
//!
//! Circumventing Theorem 17 costs history independence strength: the reader
//! *announces itself* (`flag[1] <- 1`) and the writer, on seeing the
//! announcement, *helps* by publishing its previous value `last-val` in a
//! scratch array `B` that the reader may fall back to when two `TryRead`
//! scans of `A` fail. Both sides then carefully erase their footprints
//! (`B`, `flag[1]`, `flag[2]`) so that every *quiescent* configuration is
//! canonical — but configurations with a pending read are not, which is why
//! this implementation is quiescent HI and not state-quiescent HI.

use hi_core::objects::{MultiRegisterSpec, RegisterOp, RegisterResp};
use hi_core::{HiLevel, Pid, Progress, Roles};
use hi_sim::{CellDomain, CellId, Cells, Implementation, ProcessHandle, SharedMem};
use hi_spec::{Layout, ObservationModel, SimAudit, SimObject};

use crate::{in_range, lowest_set, nth, Role, Scanned, Sweep, TryRead};

/// Algorithm 4. pid 0 writes, pid 1 reads; both wait-free. Quiescent HI.
#[derive(Clone, Debug)]
pub struct WaitFreeHiRegister {
    spec: MultiRegisterSpec,
    flag1: CellId,
    flag2: CellId,
    mem: SharedMem,
}

impl WaitFreeHiRegister {
    /// Creates a `K`-valued register with initial value `v0`. Layout:
    /// `A[1..=K]` (with `A[v0] = 1`), `B[1..=K]` (all 0), `flag[1]`,
    /// `flag[2]` (both 0).
    pub fn new(k: u64, v0: u64) -> Self {
        let spec = MultiRegisterSpec::new(k, v0);
        let mut mem = SharedMem::new();
        for v in 1..=k {
            mem.alloc(format!("A[{v}]"), CellDomain::Binary, u64::from(v == v0));
        }
        for v in 1..=k {
            mem.alloc(format!("B[{v}]"), CellDomain::Binary, 0);
        }
        let flag1 = mem.alloc("flag[1]", CellDomain::Binary, 0);
        let flag2 = mem.alloc("flag[2]", CellDomain::Binary, 0);
        WaitFreeHiRegister {
            spec,
            flag1,
            flag2,
            mem,
        }
    }

    /// The canonical memory representation of value `v`: `A[v] = 1`, all
    /// other cells (rest of `A`, all of `B`, both flags) zero.
    pub fn canonical(&self, v: u64) -> Vec<u64> {
        let k = self.spec.k();
        let mut snap = vec![0u64; (2 * k + 2) as usize];
        snap[(v - 1) as usize] = 1;
        snap
    }
}

/// Writer program counter (Algorithm 4 lines 11–19).
#[derive(Clone, PartialEq, Eq, Debug)]
enum WPc {
    Idle,
    /// Line 11: read `B[j]`, scanning for a non-zero cell.
    CheckB {
        v: u64,
        j: u64,
    },
    /// Line 12: read `flag[1]`.
    ReadFlag1 {
        v: u64,
    },
    /// Line 13: write `B[last-val] <- 1`.
    WriteB {
        v: u64,
    },
    /// Line 14, first conjunct: read `flag[2]`.
    ReadFlag2 {
        v: u64,
    },
    /// Line 14, second conjunct: read `flag[1]` again.
    ReadFlag1Again {
        v: u64,
    },
    /// Line 15: write `B[last-val] <- 0`.
    ClearB {
        v: u64,
    },
    /// Lines 16–18: set `A[v]`, clear below it, then above it.
    WriteA {
        v: u64,
        sweep: Sweep,
    },
}

impl WPc {
    /// Line 16, the sweep of `A` for `Write(v)` about to start.
    fn write_a(v: u64) -> WPc {
        WPc::WriteA {
            v,
            sweep: Sweep::Set,
        }
    }
}

/// Reader program counter (Algorithm 4 lines 1–10; `TryRead` is Algorithm 3).
#[derive(Clone, PartialEq, Eq, Debug)]
enum RPc {
    Idle,
    /// Line 1: write `flag[1] <- 1`.
    SetFlag1,
    /// Lines 2–4: Algorithm 3's scan of `A`, in attempt `it` (1 or 2).
    Try {
        it: u8,
        scan: TryRead,
    },
    /// Lines 5–6: scan `B` keeping the *largest* index read as 1.
    ScanB {
        j: u64,
        val: Option<u64>,
    },
    /// Line 7: write `flag[2] <- 1`.
    SetFlag2 {
        val: u64,
    },
    /// Line 8: clear `B[j]`.
    ClearB {
        val: u64,
        j: u64,
    },
    /// Line 9 first half: write `flag[1] <- 0`.
    ClearFlag1 {
        val: u64,
    },
    /// Line 9 second half: write `flag[2] <- 0`.
    ClearFlag2 {
        val: u64,
    },
}

/// The per-process step machine of [`WaitFreeHiRegister`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WaitFreeHiProcess {
    role: Role,
    k: u64,
    /// `A[1]` and `B[1]`; `A[v]` and `B[v]` are `v - 1` cells on.
    a: CellId,
    b: CellId,
    flag1: CellId,
    flag2: CellId,
    /// Writer-local `last-val` (persists across operations; not in `mem(C)`).
    last_val: u64,
    wpc: WPc,
    rpc: RPc,
}

impl WaitFreeHiProcess {
    fn step_writer(&mut self, ctx: &mut impl Cells) -> Option<RegisterResp> {
        match self.wpc {
            WPc::Idle => panic!("step of idle writer"),
            WPc::CheckB { v, j } => {
                if ctx.read(nth(self.b, j)) == 1 {
                    // B is non-empty: skip the helping block entirely.
                    self.wpc = WPc::write_a(v);
                } else if j < self.k {
                    self.wpc = WPc::CheckB { v, j: j + 1 };
                } else {
                    self.wpc = WPc::ReadFlag1 { v };
                }
                None
            }
            WPc::ReadFlag1 { v } => {
                self.wpc = if ctx.read(self.flag1) == 1 {
                    WPc::WriteB { v }
                } else {
                    WPc::write_a(v)
                };
                None
            }
            WPc::WriteB { v } => {
                ctx.write(nth(self.b, self.last_val), 1);
                self.wpc = WPc::ReadFlag2 { v };
                None
            }
            WPc::ReadFlag2 { v } => {
                self.wpc = if ctx.read(self.flag2) == 1 {
                    WPc::ClearB { v }
                } else {
                    WPc::ReadFlag1Again { v }
                };
                None
            }
            WPc::ReadFlag1Again { v } => {
                self.wpc = if ctx.read(self.flag1) == 0 {
                    WPc::ClearB { v }
                } else {
                    // The reader is still present and not done with B: leave
                    // the help in place.
                    WPc::write_a(v)
                };
                None
            }
            WPc::ClearB { v } => {
                ctx.write(nth(self.b, self.last_val), 0);
                self.wpc = WPc::write_a(v);
                None
            }
            WPc::WriteA { v, sweep } => {
                match sweep.step(ctx, self.a, v, self.k, true) {
                    Some(sweep) => {
                        self.wpc = WPc::WriteA { v, sweep };
                        None
                    }
                    None => {
                        self.wpc = WPc::Idle;
                        self.last_val = v; // line 19
                        Some(RegisterResp::Ack)
                    }
                }
            }
        }
    }

    fn step_reader(&mut self, ctx: &mut impl Cells) -> Option<RegisterResp> {
        match self.rpc {
            RPc::Idle => panic!("step of idle reader"),
            RPc::SetFlag1 => {
                ctx.write(self.flag1, 1);
                self.rpc = RPc::Try {
                    it: 1,
                    scan: TryRead::START,
                };
                None
            }
            RPc::Try { it, scan } => {
                self.rpc = match scan.step(ctx, self.a, self.k) {
                    Scanned::More(scan) => RPc::Try { it, scan },
                    Scanned::Value(val) => RPc::SetFlag2 { val },
                    // First TryRead returned ⊥: second attempt (line 2).
                    Scanned::Bottom if it == 1 => RPc::Try {
                        it: 2,
                        scan: TryRead::START,
                    },
                    // Second ⊥: fall back to B (lines 5–6).
                    Scanned::Bottom => RPc::ScanB { j: 1, val: None },
                };
                None
            }
            RPc::ScanB { j, val } => {
                let val = if ctx.read(nth(self.b, j)) == 1 {
                    Some(j)
                } else {
                    val
                };
                self.rpc = if j < self.k {
                    RPc::ScanB { j: j + 1, val }
                } else {
                    // Lemma 10: after two failed TryReads an overlapping
                    // write has published a value in B.
                    let val =
                        val.expect("Lemma 10 violated: no value in B after two failed TryReads");
                    RPc::SetFlag2 { val }
                };
                None
            }
            RPc::SetFlag2 { val } => {
                ctx.write(self.flag2, 1);
                self.rpc = RPc::ClearB { val, j: 1 };
                None
            }
            RPc::ClearB { val, j } => {
                ctx.write(nth(self.b, j), 0);
                self.rpc = if j < self.k {
                    RPc::ClearB { val, j: j + 1 }
                } else {
                    RPc::ClearFlag1 { val }
                };
                None
            }
            RPc::ClearFlag1 { val } => {
                ctx.write(self.flag1, 0);
                self.rpc = RPc::ClearFlag2 { val };
                None
            }
            RPc::ClearFlag2 { val } => {
                ctx.write(self.flag2, 0);
                self.rpc = RPc::Idle;
                Some(RegisterResp::Value(val))
            }
        }
    }
}

impl ProcessHandle<MultiRegisterSpec> for WaitFreeHiProcess {
    fn invoke(&mut self, op: RegisterOp) {
        assert!(self.is_idle(), "operation already pending");
        match (self.role, op) {
            (Role::Writer, RegisterOp::Write(v)) => {
                self.wpc = WPc::CheckB {
                    v: in_range(v, self.k),
                    j: 1,
                }
            }
            (Role::Reader, RegisterOp::Read) => self.rpc = RPc::SetFlag1,
            (role, op) => panic!("{role:?} cannot invoke {op:?}"),
        }
    }

    fn is_idle(&self) -> bool {
        self.wpc == WPc::Idle && self.rpc == RPc::Idle
    }

    #[inline]
    fn step<C: Cells>(&mut self, ctx: &mut C) -> Option<RegisterResp> {
        match self.role {
            Role::Writer => self.step_writer(ctx),
            Role::Reader => self.step_reader(ctx),
        }
    }

    fn peeked_cell(&self) -> Option<CellId> {
        match self.role {
            Role::Writer => match &self.wpc {
                WPc::Idle => None,
                WPc::CheckB { j, .. } => Some(nth(self.b, *j)),
                WPc::ReadFlag1 { .. } | WPc::ReadFlag1Again { .. } => Some(self.flag1),
                WPc::ReadFlag2 { .. } => Some(self.flag2),
                WPc::WriteB { .. } | WPc::ClearB { .. } => Some(nth(self.b, self.last_val)),
                WPc::WriteA { v, sweep } => Some(nth(self.a, sweep.j(*v))),
            },
            Role::Reader => match &self.rpc {
                RPc::Idle => None,
                RPc::SetFlag1 | RPc::ClearFlag1 { .. } => Some(self.flag1),
                RPc::SetFlag2 { .. } | RPc::ClearFlag2 { .. } => Some(self.flag2),
                RPc::Try { scan, .. } => Some(nth(self.a, scan.j())),
                RPc::ScanB { j, .. } | RPc::ClearB { j, .. } => Some(nth(self.b, *j)),
            },
        }
    }
}

impl Implementation<MultiRegisterSpec> for WaitFreeHiRegister {
    type Process = WaitFreeHiProcess;

    fn spec(&self) -> &MultiRegisterSpec {
        &self.spec
    }

    fn num_processes(&self) -> usize {
        2
    }

    fn init_memory(&self) -> SharedMem {
        self.mem.clone()
    }

    fn make_process(&self, pid: Pid) -> WaitFreeHiProcess {
        WaitFreeHiProcess {
            role: Role::of_pid(pid),
            k: self.spec.k(),
            a: CellId(0),
            b: CellId(self.spec.k() as usize),
            flag1: self.flag1,
            flag2: self.flag2,
            last_val: self.spec.initial_value(),
            wpc: WPc::Idle,
            rpc: RPc::Idle,
        }
    }
}

impl Layout<MultiRegisterSpec> for WaitFreeHiRegister {
    fn canonical_image(&self, state: &u64) -> Option<Vec<u64>> {
        Some(self.canonical(*state))
    }

    fn state_of(&self, mem: &[u64]) -> u64 {
        lowest_set(&mem[..self.spec.k() as usize])
    }
}

impl SimObject<MultiRegisterSpec> for WaitFreeHiRegister {
    type Machine = Self;

    fn spec(&self) -> &MultiRegisterSpec {
        &self.spec
    }

    fn roles(&self) -> Roles {
        Roles::SingleWriterSingleReader
    }

    fn hi_level(&self) -> HiLevel {
        // Pending reads leave announcement footprints: quiescent HI only.
        HiLevel::Quiescent
    }

    fn progress(&self) -> Progress {
        // Algorithm 4: the announcement handshake bounds both roles' steps
        // regardless of the peer, crashed or not.
        Progress::WaitFree
    }

    fn implementation(&self) -> &Self {
        self
    }

    fn hi_audit(&self) -> SimAudit<MultiRegisterSpec, Self> {
        SimAudit::single_mutator(ObservationModel::Quiescent, self.spec)
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
        let mut exec = Executor::new(WaitFreeHiRegister::new(5, 1));
        exec.run_op_solo(W, RegisterOp::Write(4), 1000).unwrap();
        assert_eq!(
            exec.run_op_solo(R, RegisterOp::Read, 1000).unwrap(),
            RegisterResp::Value(4)
        );
    }

    #[test]
    fn quiescent_memory_is_canonical() {
        let imp = WaitFreeHiRegister::new(4, 2);
        let mut exec = Executor::new(imp.clone());
        for v in [3, 1, 4, 2, 2] {
            exec.run_op_solo(W, RegisterOp::Write(v), 1000).unwrap();
            exec.run_op_solo(R, RegisterOp::Read, 1000).unwrap();
            assert_eq!(exec.snapshot(), imp.canonical(v), "after Write({v}) + Read");
        }
    }

    #[test]
    fn reader_is_wait_free_under_hostile_writer() {
        // The schedule that starves Algorithm 2's reader: alternate writes
        // moving the 1 away from the scan. Algorithm 4's reader must finish
        // anyway (with the writer's help through B).
        let k = 4;
        let mut exec = Executor::new(WaitFreeHiRegister::new(k, 1));
        exec.invoke(R, RegisterOp::Read);
        let mut next = k;
        let mut returned = None;
        for _ in 0..10_000 {
            if let Some((_, resp)) = exec.step(R) {
                returned = Some(resp);
                break;
            }
            exec.run_op_solo(W, RegisterOp::Write(next), 1000).unwrap();
            next = if next == 1 { k } else { 1 };
        }
        let resp = returned.expect("Algorithm 4 read must be wait-free");
        assert!(matches!(resp, RegisterResp::Value(_)));
    }

    #[test]
    fn read_solo_does_not_touch_b_values() {
        // A solo read leaves memory canonical again afterwards.
        let imp = WaitFreeHiRegister::new(3, 2);
        let mut exec = Executor::new(imp.clone());
        exec.run_op_solo(R, RegisterOp::Read, 1000).unwrap();
        assert_eq!(exec.snapshot(), imp.canonical(2));
    }

    #[test]
    fn write_step_count_is_bounded() {
        // Wait-freedom with a concrete bound: a write takes at most
        // K (check B) + 2 (flags) + 2 (B write/clear) + K (A writes) steps.
        let k = 6;
        let mut exec = Executor::new(WaitFreeHiRegister::new(k, 1));
        exec.invoke(W, RegisterOp::Write(3));
        let mut steps = 0u64;
        while exec.can_step(W) {
            exec.step(W);
            steps += 1;
            assert!(steps <= 2 * k + 4, "write exceeded its wait-free bound");
        }
    }
}
