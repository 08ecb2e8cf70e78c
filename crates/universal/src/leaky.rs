//! A deliberately non-HI universal construction, for contrast.
//!
//! The paper notes that prior universal constructions [19, 26–28] "keep
//! information about completed operations, such as their responses" and are
//! therefore not history independent. [`LeakyUniversal`] models that defect
//! minimally: it is [`CasUniversal`](crate::CasUniversal)'s CAS loop plus a
//! per-process *operation ledger* — a cell each process bumps after every
//! successful state change and never clears. The ledger wrecks every notion
//! of HI (two histories reaching the same state leave different counters),
//! which is exactly what the HI monitors in `hi-spec` detect; see the
//! `universal_hi` integration tests and the `forensic_audit` example.

use std::sync::Arc;

use hi_core::{EnumerableSpec, Pid};
use hi_sim::{CellDomain, CellId, Cells, Implementation, MemSnapshot, ProcessHandle, SharedMem};

use crate::codec::Codec;

/// The leaky universal construction: lock-free, linearizable, **not** HI.
#[derive(Clone, Debug)]
pub struct LeakyUniversal<S: EnumerableSpec> {
    spec: S,
    codec: Arc<Codec<S>>,
    cell: CellId,
    ledger: Vec<CellId>,
    mem: SharedMem,
    n: usize,
}

impl<S: EnumerableSpec> LeakyUniversal<S> {
    /// Creates the object for `spec` shared by `n` processes.
    pub fn new(spec: S, n: usize) -> Self {
        let codec = Arc::new(Codec::new(&spec, n.max(1)));
        let mut mem = SharedMem::new();
        let states = spec.states().len() as u64;
        let cell = mem.alloc(
            "state",
            CellDomain::Bounded(states.next_power_of_two().max(2)),
            codec.enc_head(&spec.initial_state(), None),
        );
        let ledger: Vec<CellId> = (0..n)
            .map(|i| mem.alloc(format!("ops[{i}]"), CellDomain::Word, 0))
            .collect();
        LeakyUniversal {
            spec,
            codec,
            cell,
            ledger,
            mem,
            n,
        }
    }

    /// Decodes the abstract state from a snapshot.
    pub fn abstract_state(&self, snap: &MemSnapshot) -> S::State {
        self.codec.dec_head(snap[self.cell.0]).0
    }

    /// The per-process operation counts visible in a snapshot — the leak.
    pub fn ledger(&self, snap: &MemSnapshot) -> Vec<u64> {
        self.ledger.iter().map(|c| snap[c.0]).collect()
    }
}

/// Program counter of one [`LeakyUniversal`] operation.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Pc<O> {
    Idle,
    Read {
        op: O,
    },
    Swap {
        op: O,
        old: u64,
        new: u64,
    },
    /// The leak: record the completed operation in the invoker's ledger.
    Bump {
        resp_new_count: u64,
    },
}

/// The per-process step machine of [`LeakyUniversal`].
#[derive(Clone, Debug)]
pub struct LeakyUniversalProcess<S: EnumerableSpec> {
    spec: S,
    codec: Arc<Codec<S>>,
    cell: CellId,
    my_ledger: CellId,
    applied: u64,
    pc: Pc<S::Op>,
    staged_resp: Option<S::Resp>,
}

impl<S: EnumerableSpec> PartialEq for LeakyUniversalProcess<S> {
    fn eq(&self, other: &Self) -> bool {
        self.cell == other.cell
            && self.my_ledger == other.my_ledger
            && self.applied == other.applied
            && self.pc == other.pc
            && self.staged_resp == other.staged_resp
    }
}

impl<S: EnumerableSpec> ProcessHandle<S> for LeakyUniversalProcess<S> {
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
                if self.spec.is_read_only(&op) {
                    return Some(rsp);
                }
                if q2 == q {
                    // Still bump the ledger: the op completed.
                    self.staged_resp = Some(rsp);
                    self.pc = Pc::Bump {
                        resp_new_count: self.applied + 1,
                    };
                    return None;
                }
                let new = self.codec.enc_head(&q2, None);
                self.pc = Pc::Swap { op, old, new };
                None
            }
            Pc::Swap { op, old, new } => {
                if ctx.cas(self.cell, old, new) {
                    let (q, _) = self.codec.dec_head(old);
                    let (_, rsp) = self.spec.apply(&q, &op);
                    self.staged_resp = Some(rsp);
                    self.pc = Pc::Bump {
                        resp_new_count: self.applied + 1,
                    };
                } else {
                    self.pc = Pc::Read { op };
                }
                None
            }
            Pc::Bump { resp_new_count } => {
                ctx.write(self.my_ledger, resp_new_count);
                self.applied = resp_new_count;
                Some(self.staged_resp.take().expect("staged response missing"))
            }
        }
    }

    fn peeked_cell(&self) -> Option<CellId> {
        match self.pc {
            Pc::Idle => None,
            Pc::Bump { .. } => Some(self.my_ledger),
            _ => Some(self.cell),
        }
    }
}

impl<S: EnumerableSpec> Implementation<S> for LeakyUniversal<S> {
    type Process = LeakyUniversalProcess<S>;

    fn spec(&self) -> &S {
        &self.spec
    }

    fn num_processes(&self) -> usize {
        self.n
    }

    fn init_memory(&self) -> SharedMem {
        self.mem.clone()
    }

    fn make_process(&self, pid: Pid) -> LeakyUniversalProcess<S> {
        assert!(pid.0 < self.n);
        LeakyUniversalProcess {
            spec: self.spec.clone(),
            codec: Arc::clone(&self.codec),
            cell: self.cell,
            my_ledger: self.ledger[pid.0],
            applied: 0,
            pc: Pc::Idle,
            staged_resp: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hi_core::objects::{CounterOp, CounterResp, CounterSpec};
    use hi_sim::Executor;

    #[test]
    fn linearizable_but_leaky() {
        let imp = LeakyUniversal::new(CounterSpec::new(0, 10, 0), 2);
        // History 1: inc, dec (back to 0).
        let mut busy = Executor::new(imp.clone());
        busy.run_op_solo(Pid(0), CounterOp::Inc, 10).unwrap();
        busy.run_op_solo(Pid(0), CounterOp::Dec, 10).unwrap();
        // History 2: nothing.
        let idle = Executor::new(imp.clone());
        // Same abstract state...
        assert_eq!(
            imp.abstract_state(&busy.snapshot()),
            imp.abstract_state(&idle.snapshot())
        );
        // ...different memory: the ledger reveals the two operations.
        assert_ne!(busy.snapshot(), idle.snapshot());
        assert_eq!(imp.ledger(&busy.snapshot()), vec![2, 0]);
    }

    #[test]
    fn responses_are_correct() {
        let imp = LeakyUniversal::new(CounterSpec::new(0, 10, 0), 2);
        let mut exec = Executor::new(imp);
        exec.run_op_solo(Pid(0), CounterOp::Inc, 10).unwrap();
        exec.run_op_solo(Pid(1), CounterOp::Inc, 10).unwrap();
        assert_eq!(
            exec.run_op_solo(Pid(0), CounterOp::Read, 10).unwrap(),
            CounterResp::Value(2)
        );
    }
}
