//! Simulator step machines for Algorithm 6.
//!
//! [`LlscOp`] is a *sub-machine*: one R-LLSC operation over one cell,
//! advanced one primitive at a time. It is used standalone by [`SimRLlsc`]
//! (to check Algorithm 6 itself against [`RLlscSpec`]) and embedded by
//! `hi-universal` inside Algorithm 5's apply loop.

use hi_core::{HiLevel, Pid, Progress, Roles};
use hi_sim::{CellDomain, CellId, Cells, Implementation, ProcessHandle, SharedMem};
use hi_spec::{ObservationModel, SimAudit, SimObject};

use crate::pack::LlscLayout;
use crate::spec::{RLlscOp, RLlscResp, RLlscSpec};

/// The result of a completed R-LLSC sub-operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LlscResult {
    /// Returned by `LL`/`Load`.
    Val(u64),
    /// Returned by `VL`/`SC`/`RL`/`Store`.
    Bool(bool),
}

impl LlscResult {
    /// Unwraps a value result.
    ///
    /// # Panics
    ///
    /// Panics on a boolean result.
    pub fn val(self) -> u64 {
        match self {
            LlscResult::Val(v) => v,
            LlscResult::Bool(b) => panic!("expected value result, got Bool({b})"),
        }
    }

    /// Unwraps a boolean result.
    ///
    /// # Panics
    ///
    /// Panics on a value result.
    pub fn bool(self) -> bool {
        match self {
            LlscResult::Bool(b) => b,
            LlscResult::Val(v) => panic!("expected boolean result, got Val({v})"),
        }
    }
}

/// One in-flight R-LLSC operation on one cell, as a resumable sub-machine.
/// Each [`step`](LlscOp::step) performs exactly one primitive (a read, a
/// write, or a CAS) following Algorithm 6 line by line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LlscOp {
    /// Algorithm 6 lines 1–6: read, then CAS in the caller's context bit.
    Ll {
        /// Invoking process.
        pid: usize,
        /// Target cell.
        cell: CellId,
        /// The last read value, if the next step is the CAS.
        cur: Option<u64>,
    },
    /// Lines 12–13: one read.
    Vl {
        /// Invoking process.
        pid: usize,
        /// Target cell.
        cell: CellId,
    },
    /// Lines 7–11: read; fail fast if unlinked, else CAS to `(new, ∅)`.
    Sc {
        /// Invoking process.
        pid: usize,
        /// Target cell.
        cell: CellId,
        /// Value to install.
        new_val: u64,
        /// The last read value, if the next step is the CAS.
        cur: Option<u64>,
    },
    /// Lines 14–20: read; succeed fast if already unlinked, else CAS the
    /// caller's bit away.
    Rl {
        /// Invoking process.
        pid: usize,
        /// Target cell.
        cell: CellId,
        /// The last read value, if the next step is the CAS.
        cur: Option<u64>,
    },
    /// Lines 21–22: one read.
    Load {
        /// Target cell.
        cell: CellId,
    },
    /// Lines 23–24: one write.
    Store {
        /// Target cell.
        cell: CellId,
        /// Value to install.
        new_val: u64,
    },
}

impl LlscOp {
    /// Starts an `LL` by `pid` on `cell`.
    pub fn ll(pid: usize, cell: CellId) -> Self {
        LlscOp::Ll {
            pid,
            cell,
            cur: None,
        }
    }

    /// Starts a `VL` by `pid` on `cell`.
    pub fn vl(pid: usize, cell: CellId) -> Self {
        LlscOp::Vl { pid, cell }
    }

    /// Starts an `SC` by `pid` on `cell` installing `new_val`.
    pub fn sc(pid: usize, cell: CellId, new_val: u64) -> Self {
        LlscOp::Sc {
            pid,
            cell,
            new_val,
            cur: None,
        }
    }

    /// Starts an `RL` by `pid` on `cell`.
    pub fn rl(pid: usize, cell: CellId) -> Self {
        LlscOp::Rl {
            pid,
            cell,
            cur: None,
        }
    }

    /// Starts a `Load` on `cell`.
    pub fn load(cell: CellId) -> Self {
        LlscOp::Load { cell }
    }

    /// Starts a `Store` on `cell` installing `new_val`.
    pub fn store(cell: CellId, new_val: u64) -> Self {
        LlscOp::Store { cell, new_val }
    }

    /// The cell this operation targets (also the cell its next step
    /// accesses).
    pub fn cell(&self) -> CellId {
        match self {
            LlscOp::Ll { cell, .. }
            | LlscOp::Vl { cell, .. }
            | LlscOp::Sc { cell, .. }
            | LlscOp::Rl { cell, .. }
            | LlscOp::Load { cell }
            | LlscOp::Store { cell, .. } => *cell,
        }
    }

    /// Advances the operation by one primitive. Returns the result when the
    /// operation completes.
    pub fn step(&mut self, layout: &LlscLayout, ctx: &mut impl Cells) -> Option<LlscResult> {
        match self {
            LlscOp::Ll { pid, cell, cur } => match cur.take() {
                None => {
                    *cur = Some(ctx.read(*cell));
                    None
                }
                Some(old) => {
                    if ctx.cas(*cell, old, layout.with_pid(old, *pid)) {
                        Some(LlscResult::Val(layout.val(old)))
                    } else {
                        None // re-read on the next step
                    }
                }
            },
            LlscOp::Vl { pid, cell } => {
                let v = ctx.read(*cell);
                Some(LlscResult::Bool(layout.has(v, *pid)))
            }
            LlscOp::Sc {
                pid,
                cell,
                new_val,
                cur,
            } => match cur.take() {
                None => {
                    let v = ctx.read(*cell);
                    if layout.has(v, *pid) {
                        *cur = Some(v);
                        None
                    } else {
                        Some(LlscResult::Bool(false))
                    }
                }
                Some(old) => {
                    if ctx.cas(*cell, old, layout.reset(*new_val)) {
                        Some(LlscResult::Bool(true))
                    } else {
                        None
                    }
                }
            },
            LlscOp::Rl { pid, cell, cur } => match cur.take() {
                None => {
                    let v = ctx.read(*cell);
                    if layout.has(v, *pid) {
                        *cur = Some(v);
                        None
                    } else {
                        Some(LlscResult::Bool(true))
                    }
                }
                Some(old) => {
                    if ctx.cas(*cell, old, layout.without_pid(old, *pid)) {
                        Some(LlscResult::Bool(true))
                    } else {
                        None
                    }
                }
            },
            LlscOp::Load { cell } => {
                let v = ctx.read(*cell);
                Some(LlscResult::Val(layout.val(v)))
            }
            LlscOp::Store { cell, new_val } => {
                ctx.write(*cell, layout.reset(*new_val));
                Some(LlscResult::Bool(true))
            }
        }
    }
}

/// Algorithm 6 as a standalone [`Implementation`] of [`RLlscSpec`]: one
/// `Word` cell, `n` processes, each operation an [`LlscOp`] sub-machine.
/// Perfect HI: the cell is a fixed bijection of the abstract state.
#[derive(Clone, Debug)]
pub struct SimRLlsc {
    spec: RLlscSpec,
    layout: LlscLayout,
    cell: CellId,
    mem: SharedMem,
}

impl SimRLlsc {
    /// Creates an R-LLSC object over values `0..v` with initial value `v0`
    /// for `n` processes.
    pub fn new(v: u64, v0: u64, n: usize) -> Self {
        let spec = RLlscSpec::new(v, v0, n);
        let val_bits = 64 - (v - 1).leading_zeros().max(1);
        let layout = LlscLayout::new(val_bits.max(1), n);
        let mut mem = SharedMem::new();
        let domain = match layout.states() {
            Some(s) => CellDomain::Bounded(s),
            None => CellDomain::Word,
        };
        let cell = mem.alloc("X", domain, layout.reset(v0));
        SimRLlsc {
            spec,
            layout,
            cell,
            mem,
        }
    }

    /// The packing layout (shared with embedding algorithms).
    pub fn layout(&self) -> LlscLayout {
        self.layout
    }

    /// Decodes a memory snapshot into the abstract `(val, context)` state.
    pub fn decode(&self, snapshot: &[u64]) -> (u64, u64) {
        let cell = snapshot[self.cell.0];
        (self.layout.val(cell), self.layout.context(cell))
    }
}

/// The per-process step machine of [`SimRLlsc`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SimRLlscProcess {
    pid: usize,
    cell: CellId,
    layout: LlscLayout,
    pending: Option<LlscOp>,
}

impl ProcessHandle<RLlscSpec> for SimRLlscProcess {
    fn invoke(&mut self, op: RLlscOp) {
        assert!(self.pending.is_none(), "operation already pending");
        if let Some(pid) = op.pid() {
            assert_eq!(
                pid, self.pid,
                "operation pid must match the invoking process"
            );
        }
        self.pending = Some(match op {
            RLlscOp::Ll { pid } => LlscOp::ll(pid, self.cell),
            RLlscOp::Vl { pid } => LlscOp::vl(pid, self.cell),
            RLlscOp::Sc { pid, new } => LlscOp::sc(pid, self.cell, new),
            RLlscOp::Rl { pid } => LlscOp::rl(pid, self.cell),
            RLlscOp::Load => LlscOp::load(self.cell),
            RLlscOp::Store { new } => LlscOp::store(self.cell, new),
        });
    }

    fn is_idle(&self) -> bool {
        self.pending.is_none()
    }

    fn step<C: Cells>(&mut self, ctx: &mut C) -> Option<RLlscResp> {
        let op = self.pending.as_mut().expect("step of idle process");
        match op.step(&self.layout, ctx) {
            Some(LlscResult::Val(v)) => {
                self.pending = None;
                Some(RLlscResp::Val(v))
            }
            Some(LlscResult::Bool(b)) => {
                self.pending = None;
                Some(RLlscResp::Bool(b))
            }
            None => None,
        }
    }

    fn peeked_cell(&self) -> Option<CellId> {
        self.pending.as_ref().map(LlscOp::cell)
    }
}

impl Implementation<RLlscSpec> for SimRLlsc {
    type Process = SimRLlscProcess;

    fn spec(&self) -> &RLlscSpec {
        &self.spec
    }

    fn num_processes(&self) -> usize {
        self.spec.n()
    }

    fn init_memory(&self) -> SharedMem {
        self.mem.clone()
    }

    fn make_process(&self, pid: Pid) -> SimRLlscProcess {
        assert!(pid.0 < self.spec.n());
        SimRLlscProcess {
            pid: pid.0,
            cell: self.cell,
            layout: self.layout,
            pending: None,
        }
    }
}

impl SimObject<RLlscSpec> for SimRLlsc {
    type Machine = Self;

    fn spec(&self) -> &RLlscSpec {
        &self.spec
    }

    fn roles(&self) -> Roles {
        Roles::MultiProcess { n: self.spec.n() }
    }

    fn hi_level(&self) -> HiLevel {
        HiLevel::Perfect
    }

    fn progress(&self) -> Progress {
        // Every R-LLSC operation is a bounded number of primitives on the
        // packed word; a failed SC reports failure instead of retrying.
        Progress::WaitFree
    }

    fn implementation(&self) -> &Self {
        self
    }

    fn hi_audit(&self) -> SimAudit<RLlscSpec, Self> {
        // The packed word is a bijection of `(val, context)`: decode it at
        // every configuration.
        let oracle = self.clone();
        SimAudit::from_snapshot(ObservationModel::Perfect, move |snap| oracle.decode(snap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hi_sim::Executor;

    #[test]
    fn ll_sc_solo() {
        let mut exec = Executor::new(SimRLlsc::new(8, 3, 2));
        assert_eq!(
            exec.run_op_solo(Pid(0), RLlscOp::Ll { pid: 0 }, 10)
                .unwrap(),
            RLlscResp::Val(3)
        );
        assert_eq!(
            exec.run_op_solo(Pid(0), RLlscOp::Sc { pid: 0, new: 5 }, 10)
                .unwrap(),
            RLlscResp::Bool(true)
        );
        assert_eq!(
            exec.run_op_solo(Pid(1), RLlscOp::Load, 10).unwrap(),
            RLlscResp::Val(5)
        );
    }

    #[test]
    fn sc_without_link_fails_fast() {
        let mut exec = Executor::new(SimRLlsc::new(4, 0, 2));
        exec.invoke(Pid(0), RLlscOp::Sc { pid: 0, new: 1 });
        let (_, resp) = exec.run_solo(Pid(0), 10).unwrap();
        assert_eq!(resp, RLlscResp::Bool(false));
        assert_eq!(exec.steps(), 1, "unlinked SC fails after one read");
    }

    #[test]
    fn interference_between_ll_and_sc() {
        // p0 LLs, p1 Stores, p0's SC must fail.
        let mut exec = Executor::new(SimRLlsc::new(4, 0, 2));
        exec.run_op_solo(Pid(0), RLlscOp::Ll { pid: 0 }, 10)
            .unwrap();
        exec.run_op_solo(Pid(1), RLlscOp::Store { new: 2 }, 10)
            .unwrap();
        assert_eq!(
            exec.run_op_solo(Pid(0), RLlscOp::Sc { pid: 0, new: 3 }, 10)
                .unwrap(),
            RLlscResp::Bool(false)
        );
    }

    #[test]
    fn memory_always_decodes_to_packed_state() {
        // Perfect HI: the single cell *is* the state, at every step of any
        // schedule. Drive a few interleaved operations and decode.
        let imp = SimRLlsc::new(4, 1, 3);
        let mut exec = Executor::new(imp.clone());
        exec.invoke(Pid(0), RLlscOp::Ll { pid: 0 });
        exec.invoke(Pid(1), RLlscOp::Ll { pid: 1 });
        exec.invoke(Pid(2), RLlscOp::Store { new: 3 });
        for pid in [0, 1, 0, 2, 1, 0, 1] {
            if exec.can_step(Pid(pid)) {
                exec.step(Pid(pid));
            }
            let (val, ctx) = imp.decode(&exec.snapshot());
            assert!(val < 4);
            assert!(ctx < 8);
        }
    }

    #[test]
    fn rl_on_empty_context_is_one_step() {
        let mut exec = Executor::new(SimRLlsc::new(4, 0, 2));
        exec.invoke(Pid(1), RLlscOp::Rl { pid: 1 });
        assert!(exec.step(Pid(1)).is_some());
    }
}
