//! The perfect-HI set over `{1..t}` (paper §5.1).
//!
//! The set is not in `C_t` — its operations cannot distinguish its `2^t`
//! states — and the obvious implementation from `t` binary registers is
//! *perfect* HI: every operation is a single primitive, so every reachable
//! configuration's memory is the characteristic vector of the current
//! abstract state, with no intermediate representations at all.

use hi_core::objects::{SetOp, SetResp, SetSpec};
use hi_core::{HiLevel, Pid, Progress, Roles};
use hi_sim::{CellDomain, CellId, Cells, Implementation, ProcessHandle, SharedMem};
use hi_spec::{Layout, ObservationModel, SimAudit, SimObject};

/// The §5.1 set: `S[e] = 1` iff `e` is a member. Any process may run any
/// operation; all operations are single-primitive, wait-free and perfect HI.
#[derive(Clone, Debug)]
pub struct HiSet {
    spec: SetSpec,
    n: usize,
    mem: SharedMem,
}

impl HiSet {
    /// Creates a set over `{1..=t}` shared by `n` processes.
    pub fn new(t: u32, n: usize) -> Self {
        let spec = SetSpec::new(t);
        let mut mem = SharedMem::new();
        for e in 1..=t {
            mem.alloc(format!("S[{e}]"), CellDomain::Binary, 0);
        }
        HiSet { spec, n, mem }
    }

    /// The canonical representation of a state (bitmask over bits `1..=t`).
    pub fn canonical(&self, state: u64) -> Vec<u64> {
        (1..=self.spec.t())
            .map(|e| u64::from(state & (1 << e) != 0))
            .collect()
    }
}

/// The per-process step machine of [`HiSet`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HiSetProcess {
    /// `S[1]`; `S[e]` is `e - 1` cells on.
    s: CellId,
    t: u32,
    pending: Option<SetOp>,
}

impl HiSetProcess {
    fn cell(&self, e: u32) -> CellId {
        CellId(self.s.0 + (e - 1) as usize)
    }
}

impl ProcessHandle<SetSpec> for HiSetProcess {
    fn invoke(&mut self, op: SetOp) {
        assert!(self.pending.is_none(), "operation already pending");
        let (SetOp::Insert(e) | SetOp::Remove(e) | SetOp::Contains(e)) = op;
        assert!((1..=self.t).contains(&e), "element {e} out of domain");
        self.pending = Some(op);
    }

    fn is_idle(&self) -> bool {
        self.pending.is_none()
    }

    #[inline]
    fn step<C: Cells>(&mut self, ctx: &mut C) -> Option<SetResp> {
        match self.pending.take().expect("step of idle process") {
            SetOp::Insert(e) => {
                ctx.write(self.cell(e), 1);
                Some(SetResp::Ack)
            }
            SetOp::Remove(e) => {
                ctx.write(self.cell(e), 0);
                Some(SetResp::Ack)
            }
            SetOp::Contains(e) => Some(SetResp::Bool(ctx.read(self.cell(e)) == 1)),
        }
    }

    fn peeked_cell(&self) -> Option<CellId> {
        self.pending.as_ref().map(|op| match op {
            SetOp::Insert(e) | SetOp::Remove(e) | SetOp::Contains(e) => self.cell(*e),
        })
    }
}

impl Implementation<SetSpec> for HiSet {
    type Process = HiSetProcess;

    fn spec(&self) -> &SetSpec {
        &self.spec
    }

    fn num_processes(&self) -> usize {
        self.n
    }

    fn init_memory(&self) -> SharedMem {
        self.mem.clone()
    }

    fn make_process(&self, _pid: Pid) -> HiSetProcess {
        HiSetProcess {
            s: CellId(0),
            t: self.spec.t(),
            pending: None,
        }
    }
}

impl Layout<SetSpec> for HiSet {
    fn canonical_image(&self, state: &u64) -> Option<Vec<u64>> {
        Some(self.canonical(*state))
    }

    fn state_of(&self, mem: &[u64]) -> u64 {
        hi_core::cells::mask_of_bits(mem)
    }
}

impl SimObject<SetSpec> for HiSet {
    type Machine = Self;

    fn spec(&self) -> &SetSpec {
        &self.spec
    }

    fn roles(&self) -> Roles {
        Roles::MultiProcess { n: self.n }
    }

    fn hi_level(&self) -> HiLevel {
        HiLevel::Perfect
    }

    fn progress(&self) -> Progress {
        // One primitive per operation.
        Progress::WaitFree
    }

    fn implementation(&self) -> &Self {
        self
    }

    fn hi_audit(&self) -> SimAudit<SetSpec, Self> {
        // Perfect HI: the characteristic vector *is* the state.
        SimAudit::from_snapshot(ObservationModel::Perfect, |snap| {
            hi_core::cells::mask_of_bits(snap)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hi_sim::Executor;

    #[test]
    fn membership_round_trip() {
        let mut exec = Executor::new(HiSet::new(5, 2));
        exec.run_op_solo(Pid(0), SetOp::Insert(3), 10).unwrap();
        exec.run_op_solo(Pid(0), SetOp::Insert(5), 10).unwrap();
        exec.run_op_solo(Pid(0), SetOp::Remove(3), 10).unwrap();
        assert_eq!(
            exec.run_op_solo(Pid(1), SetOp::Contains(5), 10).unwrap(),
            SetResp::Bool(true)
        );
        assert_eq!(
            exec.run_op_solo(Pid(1), SetOp::Contains(3), 10).unwrap(),
            SetResp::Bool(false)
        );
    }

    #[test]
    fn every_configuration_is_canonical() {
        // Perfect HI: memory equals the characteristic vector at *every*
        // step, not just at quiescence.
        let imp = HiSet::new(4, 1);
        let mut exec = Executor::new(imp.clone());
        let mut state = 0u64;
        for op in [
            SetOp::Insert(2),
            SetOp::Insert(4),
            SetOp::Remove(2),
            SetOp::Insert(1),
            SetOp::Remove(4),
        ] {
            exec.run_op_solo(Pid(0), op, 10).unwrap();
            state = exec.spec().apply(&state, &op).0;
            assert_eq!(exec.snapshot(), imp.canonical(state));
        }
    }

    #[test]
    fn operations_are_single_step() {
        let mut exec = Executor::new(HiSet::new(3, 1));
        exec.invoke(Pid(0), SetOp::Insert(1));
        assert!(
            exec.step(Pid(0)).is_some(),
            "insert completes in one primitive"
        );
    }

    use hi_core::ObjectSpec;
}
