#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! A lock-free, state-quiescent history-independent queue with `Peek` from
//! binary registers.
//!
//! The paper's §5.4 proves that no *wait-free* state-quiescent HI queue with
//! `Peek` can be built from small base objects. This crate provides the
//! companion possibility result in the style of Algorithm 2: a queue that
//! *is* state-quiescent HI from binary registers, at the price of a
//! lock-free (starvable) `Peek` — the concrete target that the executable
//! Theorem 20 adversary in `hi-lowerbound` starves.
//!
//! # Representation
//!
//! For a queue over elements `{1..=t}` with capacity `cap`:
//!
//! * `Q[s][e]` (binary, `cap × t` cells): 1 iff slot `s` holds element `e`;
//!   slot 0 is the front, occupied slots are a prefix.
//! * `LEN[l]` (binary, `cap` cells): 1 iff the queue holds more than `l`
//!   elements (unary prefix encoding of the length).
//!
//! Both are functions of the abstract state alone, so every state-quiescent
//! configuration is canonical. The mutator (pid 0) keeps a local mirror of
//! the queue — it is the only process that changes state, so the mirror is
//! always exact — and shifts elements front-ward on dequeue, *moving each
//! element before clearing its old slot* so that no element ever vanishes
//! from the memory mid-operation.
//!
//! The reader (pid 1) implements `Peek` as a retry loop: read `LEN[0]`
//! (empty ⇒ return `Empty`), scan the front slot's `t` bits, retry if the
//! front moved away mid-scan. Exactly like Algorithm 2's reader, the loop is
//! lock-free but not wait-free.
//!
//! This step machine is the only text of the queue: `hi_api::QueueObject`
//! runs it on real threads over an [`hi_sim::AtomicMem`] arena, so the
//! model checker, the fault sweep and the Theorem 20 adversary certify the
//! code that ships. `Enqueue` of an element outside `1..=t` panics
//! ("element … out of domain") before any primitive runs.

use hi_core::objects::{BoundedQueueSpec, QueueOp, QueueResp};
use hi_core::{HiLevel, Pid, Progress, Roles};
use hi_sim::{CellDomain, CellId, Cells, Implementation, ProcessHandle, SharedMem};
use hi_spec::{Layout, ObservationModel, SimAudit, SimObject};

/// The positional HI queue. pid 0 is the mutator (`Enqueue`/`Dequeue`,
/// wait-free), pid 1 the observer (`Peek`, lock-free). State-quiescent HI.
#[derive(Clone, Debug)]
pub struct PositionalQueue {
    spec: BoundedQueueSpec,
    mem: SharedMem,
}

impl PositionalQueue {
    /// Creates a queue over `{1..=t}` with capacity `cap`, initially empty.
    pub fn new(t: u32, cap: usize) -> Self {
        let spec = BoundedQueueSpec::new(t, cap);
        let mut mem = SharedMem::new();
        for s in 0..cap {
            for e in 1..=t {
                mem.alloc(format!("Q[{s}][{e}]"), CellDomain::Binary, 0);
            }
        }
        for l in 0..cap {
            mem.alloc(format!("LEN[{l}]"), CellDomain::Binary, 0);
        }
        PositionalQueue { spec, mem }
    }

    /// The canonical memory representation of an abstract queue state.
    pub fn canonical(&self, state: &[u32]) -> Vec<u64> {
        let t = self.spec.t() as usize;
        let cap = self.spec.cap();
        let mut snap = vec![0u64; cap * t + cap];
        for (s, &e) in state.iter().enumerate() {
            snap[s * t + (e as usize - 1)] = 1;
        }
        for l in 0..state.len() {
            snap[cap * t + l] = 1;
        }
        snap
    }
}

/// Mutator program counter.
#[derive(Clone, PartialEq, Eq, Debug)]
enum MutPc {
    Idle,
    /// Respond without touching memory (`Enqueue` on full, `Dequeue` on
    /// empty).
    Trivial {
        resp: QueueResp,
    },
    /// Enqueue: write `Q[len][v] <- 1`.
    EnqElem {
        v: u32,
    },
    /// Enqueue: write `LEN[len] <- 1`.
    EnqLen {
        v: u32,
    },
    /// Dequeue: write `LEN[len-1] <- 0`.
    DeqLen,
    /// Dequeue: write `Q[0][front] <- 0`.
    DeqClearFront,
    /// Dequeue: write `Q[s-1][mirror[s]] <- 1` (move before clear).
    DeqMove {
        s: usize,
    },
    /// Dequeue: write `Q[s][mirror[s]] <- 0`.
    DeqClearOld {
        s: usize,
    },
}

/// Reader program counter (`Peek` retry loop).
#[derive(Clone, PartialEq, Eq, Debug)]
enum ReadPc {
    Idle,
    /// Read `LEN[0]`; 0 means empty.
    CheckLen,
    /// Read `Q[0][e]`, scanning the front slot.
    ScanFront {
        e: u32,
    },
}

/// The per-process step machine of [`PositionalQueue`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PositionalQueueProcess {
    t: u32,
    cap: usize,
    /// `Q[0][1]`; `Q[s][e]` is `s * t + e - 1` cells on, and `LEN[l]` is
    /// `cap * t + l` cells on.
    slots: CellId,
    is_mutator: bool,
    /// Mutator-local mirror of the abstract state (front first).
    mirror: Vec<u32>,
    mpc: MutPc,
    rpc: ReadPc,
}

impl PositionalQueueProcess {
    fn q(&self, s: usize, e: u32) -> CellId {
        CellId(self.slots.0 + s * self.t as usize + (e - 1) as usize)
    }

    fn len_cell(&self, l: usize) -> CellId {
        CellId(self.slots.0 + self.cap * self.t as usize + l)
    }

    /// The front-slot element index the reader is about to probe, if it is
    /// mid-scan (used by tests and the adversary).
    pub fn scanning_elem(&self) -> Option<u32> {
        match self.rpc {
            ReadPc::ScanFront { e } => Some(e),
            _ => None,
        }
    }
}

impl ProcessHandle<BoundedQueueSpec> for PositionalQueueProcess {
    fn invoke(&mut self, op: QueueOp) {
        assert!(self.is_idle(), "operation already pending");
        match (self.is_mutator, op) {
            (true, QueueOp::Enqueue(v)) => {
                assert!((1..=self.t).contains(&v), "element {v} out of domain");
                self.mpc = if self.mirror.len() >= self.cap {
                    MutPc::Trivial {
                        resp: QueueResp::Full,
                    }
                } else {
                    MutPc::EnqElem { v }
                };
            }
            (true, QueueOp::Dequeue) => {
                self.mpc = if self.mirror.is_empty() {
                    MutPc::Trivial {
                        resp: QueueResp::Empty,
                    }
                } else {
                    MutPc::DeqLen
                };
            }
            (false, QueueOp::Peek) => self.rpc = ReadPc::CheckLen,
            (is_mutator, op) => {
                let role = if is_mutator { "mutator" } else { "observer" };
                panic!("{role} cannot invoke {op:?}");
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.mpc == MutPc::Idle && self.rpc == ReadPc::Idle
    }

    #[inline]
    fn step<C: Cells>(&mut self, ctx: &mut C) -> Option<QueueResp> {
        if self.is_mutator {
            self.step_mutator(ctx)
        } else {
            self.step_reader(ctx)
        }
    }

    fn peeked_cell(&self) -> Option<CellId> {
        if self.is_mutator {
            match &self.mpc {
                MutPc::Idle | MutPc::Trivial { .. } => None,
                MutPc::EnqElem { v } => Some(self.q(self.mirror.len(), *v)),
                MutPc::EnqLen { .. } => Some(self.len_cell(self.mirror.len())),
                MutPc::DeqLen => Some(self.len_cell(self.mirror.len() - 1)),
                MutPc::DeqClearFront => Some(self.q(0, self.mirror[0])),
                MutPc::DeqMove { s } => Some(self.q(*s - 1, self.mirror[*s])),
                MutPc::DeqClearOld { s } => Some(self.q(*s, self.mirror[*s])),
            }
        } else {
            match &self.rpc {
                ReadPc::Idle => None,
                ReadPc::CheckLen => Some(self.len_cell(0)),
                ReadPc::ScanFront { e } => Some(self.q(0, *e)),
            }
        }
    }
}

impl PositionalQueueProcess {
    fn step_mutator(&mut self, ctx: &mut impl Cells) -> Option<QueueResp> {
        match self.mpc {
            MutPc::Idle => panic!("step of idle mutator"),
            MutPc::Trivial { resp } => {
                self.mpc = MutPc::Idle;
                Some(resp)
            }
            MutPc::EnqElem { v } => {
                ctx.write(self.q(self.mirror.len(), v), 1);
                self.mpc = MutPc::EnqLen { v };
                None
            }
            MutPc::EnqLen { v } => {
                ctx.write(self.len_cell(self.mirror.len()), 1);
                self.mirror.push(v);
                self.mpc = MutPc::Idle;
                Some(QueueResp::Empty)
            }
            MutPc::DeqLen => {
                ctx.write(self.len_cell(self.mirror.len() - 1), 0);
                self.mpc = MutPc::DeqClearFront;
                None
            }
            MutPc::DeqClearFront => {
                ctx.write(self.q(0, self.mirror[0]), 0);
                self.mpc = if self.mirror.len() > 1 {
                    MutPc::DeqMove { s: 1 }
                } else {
                    MutPc::Idle
                };
                self.maybe_finish_dequeue()
            }
            MutPc::DeqMove { s } => {
                ctx.write(self.q(s - 1, self.mirror[s]), 1);
                self.mpc = MutPc::DeqClearOld { s };
                None
            }
            MutPc::DeqClearOld { s } => {
                ctx.write(self.q(s, self.mirror[s]), 0);
                self.mpc = if s + 1 < self.mirror.len() {
                    MutPc::DeqMove { s: s + 1 }
                } else {
                    MutPc::Idle
                };
                self.maybe_finish_dequeue()
            }
        }
    }

    fn maybe_finish_dequeue(&mut self) -> Option<QueueResp> {
        if self.mpc == MutPc::Idle {
            let front = self.mirror.remove(0);
            Some(QueueResp::Value(front))
        } else {
            None
        }
    }

    fn step_reader(&mut self, ctx: &mut impl Cells) -> Option<QueueResp> {
        match self.rpc {
            ReadPc::Idle => panic!("step of idle reader"),
            ReadPc::CheckLen => {
                if ctx.read(self.len_cell(0)) == 0 {
                    self.rpc = ReadPc::Idle;
                    Some(QueueResp::Empty)
                } else {
                    self.rpc = ReadPc::ScanFront { e: 1 };
                    None
                }
            }
            ReadPc::ScanFront { e } => {
                if ctx.read(self.q(0, e)) == 1 {
                    self.rpc = ReadPc::Idle;
                    Some(QueueResp::Value(e))
                } else if e < self.t {
                    self.rpc = ReadPc::ScanFront { e: e + 1 };
                    None
                } else {
                    // Front moved mid-scan: retry (lock-free loop).
                    ctx.backoff();
                    self.rpc = ReadPc::CheckLen;
                    None
                }
            }
        }
    }
}

impl Implementation<BoundedQueueSpec> for PositionalQueue {
    type Process = PositionalQueueProcess;

    fn spec(&self) -> &BoundedQueueSpec {
        &self.spec
    }

    fn num_processes(&self) -> usize {
        2
    }

    fn init_memory(&self) -> SharedMem {
        self.mem.clone()
    }

    fn make_process(&self, pid: Pid) -> PositionalQueueProcess {
        assert!(pid.0 < 2, "the positional queue has exactly two processes");
        PositionalQueueProcess {
            t: self.spec.t(),
            cap: self.spec.cap(),
            slots: CellId(0),
            is_mutator: pid.0 == 0,
            mirror: Vec::new(),
            mpc: MutPc::Idle,
            rpc: ReadPc::Idle,
        }
    }
}

impl Layout<BoundedQueueSpec> for PositionalQueue {
    fn canonical_image(&self, state: &Vec<u32>) -> Option<Vec<u64>> {
        Some(self.canonical(state))
    }

    /// At state-quiescent points `LEN` is a unary prefix and each occupied
    /// slot holds exactly one element bit.
    fn state_of(&self, mem: &[u64]) -> Vec<u32> {
        let t = self.spec.t() as usize;
        let (q, len) = mem.split_at(self.spec.cap() * t);
        let occupied = len.iter().take_while(|&&l| l == 1).count();
        q.chunks(t)
            .take(occupied)
            .map(|slot| {
                let i = slot.iter().position(|&b| b == 1);
                i.expect("invariant broken: occupied slot with no element bit") as u32 + 1
            })
            .collect()
    }
}

impl SimObject<BoundedQueueSpec> for PositionalQueue {
    type Machine = Self;

    fn spec(&self) -> &BoundedQueueSpec {
        &self.spec
    }

    fn roles(&self) -> Roles {
        Roles::SingleWriterSingleReader
    }

    fn hi_level(&self) -> HiLevel {
        HiLevel::StateQuiescent
    }

    fn progress(&self) -> Progress {
        // Peek spins while LEN says non-empty but the front slot is clear:
        // a mutator crash between the front clear and the move-up wedges it
        // forever (see `tests/crash_tolerance.rs`).
        Progress::Blocking
    }

    fn implementation(&self) -> &Self {
        self
    }

    fn hi_audit(&self) -> SimAudit<BoundedQueueSpec, Self> {
        SimAudit::single_mutator(ObservationModel::StateQuiescent, self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hi_core::ObjectSpec;
    use hi_sim::Executor;

    const M: Pid = Pid(0);
    const R: Pid = Pid(1);

    #[test]
    fn fifo_round_trip() {
        let mut exec = Executor::new(PositionalQueue::new(3, 4));
        exec.run_op_solo(M, QueueOp::Enqueue(2), 100).unwrap();
        exec.run_op_solo(M, QueueOp::Enqueue(3), 100).unwrap();
        exec.run_op_solo(M, QueueOp::Enqueue(1), 100).unwrap();
        assert_eq!(
            exec.run_op_solo(R, QueueOp::Peek, 100).unwrap(),
            QueueResp::Value(2)
        );
        assert_eq!(
            exec.run_op_solo(M, QueueOp::Dequeue, 100).unwrap(),
            QueueResp::Value(2)
        );
        assert_eq!(
            exec.run_op_solo(R, QueueOp::Peek, 100).unwrap(),
            QueueResp::Value(3)
        );
        assert_eq!(
            exec.run_op_solo(M, QueueOp::Dequeue, 100).unwrap(),
            QueueResp::Value(3)
        );
        assert_eq!(
            exec.run_op_solo(M, QueueOp::Dequeue, 100).unwrap(),
            QueueResp::Value(1)
        );
        assert_eq!(
            exec.run_op_solo(M, QueueOp::Dequeue, 100).unwrap(),
            QueueResp::Empty
        );
        assert_eq!(
            exec.run_op_solo(R, QueueOp::Peek, 100).unwrap(),
            QueueResp::Empty
        );
    }

    #[test]
    fn memory_is_canonical_after_each_mutation() {
        let imp = PositionalQueue::new(3, 3);
        let mut exec = Executor::new(imp.clone());
        let script = [
            QueueOp::Enqueue(1),
            QueueOp::Enqueue(3),
            QueueOp::Dequeue,
            QueueOp::Enqueue(2),
            QueueOp::Enqueue(2),
            QueueOp::Dequeue,
            QueueOp::Dequeue,
            QueueOp::Dequeue,
        ];
        let mut state: Vec<u32> = Vec::new();
        for op in script {
            exec.run_op_solo(M, op, 100).unwrap();
            state = exec.spec().apply(&state, &op).0;
            assert_eq!(exec.snapshot(), imp.canonical(&state), "after {op:?}");
        }
    }

    #[test]
    fn same_state_same_memory_different_histories() {
        // [2] reached via Enq(2) vs via Enq(1),Enq(2),Deq: identical memory.
        let imp = PositionalQueue::new(3, 3);
        let mut e1 = Executor::new(imp.clone());
        e1.run_op_solo(M, QueueOp::Enqueue(2), 100).unwrap();
        let mut e2 = Executor::new(imp);
        e2.run_op_solo(M, QueueOp::Enqueue(1), 100).unwrap();
        e2.run_op_solo(M, QueueOp::Enqueue(2), 100).unwrap();
        e2.run_op_solo(M, QueueOp::Dequeue, 100).unwrap();
        assert_eq!(e1.snapshot(), e2.snapshot());
    }

    #[test]
    fn peek_starves_under_hostile_mutator() {
        // §5.4's phenomenon: S(i,j) = Enqueue(j), Dequeue sequences keep the
        // front element away from the reader's scan cursor.
        let t = 3;
        let mut exec = Executor::new(PositionalQueue::new(t, 2));
        exec.run_op_solo(M, QueueOp::Enqueue(2), 100).unwrap(); // front = 2
        exec.invoke(R, QueueOp::Peek);
        let mut front = 2u32;
        for _ in 0..300 {
            assert!(
                exec.step(R).is_none(),
                "peek must not return under this schedule"
            );
            // Move the front to a value the reader is not about to read.
            let avoid = exec.process(R).scanning_elem().unwrap_or(0);
            let next = (1..=t).find(|v| *v != avoid && *v != front).unwrap();
            exec.run_op_solo(M, QueueOp::Enqueue(next), 100).unwrap();
            exec.run_op_solo(M, QueueOp::Dequeue, 100).unwrap();
            front = next;
        }
        assert!(exec.can_step(R), "peek still pending after 300 rounds");
    }

    #[test]
    fn peek_returns_when_run_solo() {
        let mut exec = Executor::new(PositionalQueue::new(3, 2));
        exec.run_op_solo(M, QueueOp::Enqueue(1), 100).unwrap();
        exec.invoke(R, QueueOp::Peek);
        exec.step(R);
        exec.run_op_solo(M, QueueOp::Enqueue(3), 100).unwrap();
        exec.run_op_solo(M, QueueOp::Dequeue, 100).unwrap();
        let (_, resp) = exec.run_solo(R, 100).unwrap();
        assert_eq!(resp, QueueResp::Value(3));
    }

    #[test]
    fn full_and_empty_are_single_local_steps() {
        let mut exec = Executor::new(PositionalQueue::new(2, 1));
        assert_eq!(
            exec.run_op_solo(M, QueueOp::Dequeue, 1).unwrap(),
            QueueResp::Empty
        );
        exec.run_op_solo(M, QueueOp::Enqueue(1), 100).unwrap();
        assert_eq!(
            exec.run_op_solo(M, QueueOp::Enqueue(2), 1).unwrap(),
            QueueResp::Full
        );
    }
}
