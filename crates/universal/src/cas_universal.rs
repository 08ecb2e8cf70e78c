//! The §6 intro baseline: a single CAS cell holding the encoded state.
//!
//! "When the full state of the object can be stored in a single memory cell,
//! there is a simple lock-free universal implementation": read the cell,
//! compute the new state, CAS it in, retry on interference. The memory is a
//! fixed bijection of the abstract state, so the implementation is *perfect*
//! HI — but a process can fail its CAS forever, so it is only lock-free.
//! Algorithm 5 exists to add wait-freedom without giving up HI.

use std::sync::Arc;

use hi_core::{EnumerableSpec, Pid};
use hi_sim::{CellDomain, CellId, Cells, Implementation, MemSnapshot, ProcessHandle, SharedMem};

use crate::codec::Codec;

/// The lock-free perfect-HI single-cell universal construction.
#[derive(Clone, Debug)]
pub struct CasUniversal<S: EnumerableSpec> {
    spec: S,
    codec: Arc<Codec<S>>,
    cell: CellId,
    mem: SharedMem,
    n: usize,
}

impl<S: EnumerableSpec> CasUniversal<S> {
    /// Creates the object for `spec` shared by `n` processes.
    pub fn new(spec: S, n: usize) -> Self {
        // Reuse the head encoding with resp = ⊥; only state bits are used.
        let codec = Arc::new(Codec::new(&spec, n.max(1)));
        let mut mem = SharedMem::new();
        let states = spec.states().len() as u64;
        let cell = mem.alloc(
            "state",
            CellDomain::Bounded(states.next_power_of_two().max(2)),
            codec.enc_head(&spec.initial_state(), None),
        );
        CasUniversal {
            spec,
            codec,
            cell,
            mem,
            n,
        }
    }

    /// Decodes the abstract state from a snapshot.
    pub fn abstract_state(&self, snap: &MemSnapshot) -> S::State {
        self.codec.dec_head(snap[self.cell.0]).0
    }

    /// The canonical (and only possible) representation of state `q`.
    pub fn canonical(&self, q: &S::State) -> MemSnapshot {
        vec![self.codec.enc_head(q, None)]
    }
}

/// Program counter of one [`CasUniversal`] operation.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Pc<O> {
    Idle,
    /// Read the cell (for a read-only op: compute and return).
    Read {
        op: O,
    },
    /// CAS `old -> new`; on failure go back to `Read`.
    Swap {
        op: O,
        old: u64,
        new: u64,
    },
}

/// The per-process step machine of [`CasUniversal`].
#[derive(Clone, Debug)]
pub struct CasUniversalProcess<S: EnumerableSpec> {
    spec: S,
    codec: Arc<Codec<S>>,
    cell: CellId,
    pc: Pc<S::Op>,
}

impl<S: EnumerableSpec> PartialEq for CasUniversalProcess<S> {
    fn eq(&self, other: &Self) -> bool {
        self.cell == other.cell && self.pc == other.pc
    }
}

impl<S: EnumerableSpec> ProcessHandle<S> for CasUniversalProcess<S> {
    fn invoke(&mut self, op: S::Op) {
        assert_eq!(self.pc, Pc::Idle, "operation already pending");
        self.pc = Pc::Read { op };
    }

    fn is_idle(&self) -> bool {
        self.pc == Pc::Idle
    }

    fn step<C: Cells>(&mut self, ctx: &mut C) -> Option<S::Resp> {
        match std::mem::replace(&mut self.pc, Pc::Idle) {
            Pc::Idle => panic!("step of idle process"),
            Pc::Read { op } => {
                let old = ctx.read(self.cell);
                let (q, _) = self.codec.dec_head(old);
                let (q2, rsp) = self.spec.apply(&q, &op);
                if self.spec.is_read_only(&op) || q2 == q {
                    // No state change needed: done after one read.
                    return Some(rsp);
                }
                let new = self.codec.enc_head(&q2, None);
                self.pc = Pc::Swap { op, old, new };
                None
            }
            Pc::Swap { op, old, new } => {
                if ctx.cas(self.cell, old, new) {
                    let (q, _) = self.codec.dec_head(old);
                    let (_, rsp) = self.spec.apply(&q, &op);
                    Some(rsp)
                } else {
                    self.pc = Pc::Read { op }; // lock-free retry
                    None
                }
            }
        }
    }

    fn peeked_cell(&self) -> Option<CellId> {
        match self.pc {
            Pc::Idle => None,
            _ => Some(self.cell),
        }
    }
}

impl<S: EnumerableSpec> Implementation<S> for CasUniversal<S> {
    type Process = CasUniversalProcess<S>;

    fn spec(&self) -> &S {
        &self.spec
    }

    fn num_processes(&self) -> usize {
        self.n
    }

    fn init_memory(&self) -> SharedMem {
        self.mem.clone()
    }

    fn make_process(&self, _pid: Pid) -> CasUniversalProcess<S> {
        CasUniversalProcess {
            spec: self.spec.clone(),
            codec: Arc::clone(&self.codec),
            cell: self.cell,
            pc: Pc::Idle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hi_core::objects::{CounterOp, CounterResp, CounterSpec};
    use hi_sim::Executor;

    fn counter(n: usize) -> CasUniversal<CounterSpec> {
        CasUniversal::new(CounterSpec::new(0, 10, 0), n)
    }

    #[test]
    fn solo_round_trip() {
        let mut exec = Executor::new(counter(2));
        exec.run_op_solo(Pid(0), CounterOp::Inc, 10).unwrap();
        exec.run_op_solo(Pid(1), CounterOp::Inc, 10).unwrap();
        assert_eq!(
            exec.run_op_solo(Pid(0), CounterOp::Read, 10).unwrap(),
            CounterResp::Value(2)
        );
    }

    #[test]
    fn memory_is_always_canonical() {
        // Perfect HI: even mid-operation, the single cell holds exactly the
        // current abstract state.
        let imp = counter(2);
        let mut exec = Executor::new(imp.clone());
        exec.invoke(Pid(0), CounterOp::Inc);
        exec.invoke(Pid(1), CounterOp::Inc);
        for pid in [0, 1, 0, 1, 0, 1, 0, 1] {
            if exec.can_step(Pid(pid)) {
                exec.step(Pid(pid));
            }
            let q = imp.abstract_state(&exec.snapshot());
            assert_eq!(exec.snapshot(), imp.canonical(&q));
        }
    }

    #[test]
    fn cas_retry_on_interference() {
        // p0 reads, p1 completes an Inc, p0's CAS fails and retries.
        let mut exec = Executor::new(counter(2));
        exec.invoke(Pid(0), CounterOp::Inc);
        exec.step(Pid(0)); // p0 read 0
        exec.run_op_solo(Pid(1), CounterOp::Inc, 10).unwrap(); // p1: 0 -> 1
        exec.run_solo(Pid(0), 10).unwrap(); // p0 retries and lands 1 -> 2
        assert_eq!(
            exec.run_op_solo(Pid(1), CounterOp::Read, 10).unwrap(),
            CounterResp::Value(2)
        );
    }

    #[test]
    fn saturating_op_with_no_state_change_is_one_step() {
        let spec = CounterSpec::new(0, 1, 0);
        let mut exec = Executor::new(CasUniversal::new(spec, 1));
        exec.run_op_solo(Pid(0), CounterOp::Inc, 10).unwrap();
        exec.invoke(Pid(0), CounterOp::Inc); // saturates: no state change
        assert!(exec.step(Pid(0)).is_some());
    }
}
