//! Step machines: algorithm code in resumable, one-primitive-per-step form.

use hi_core::{ObjectSpec, Pid};

use crate::mem::{CellId, SharedMem};
use crate::trace::{PrimKind, Trace};

/// How a step touched its base object, as far as the memory is concerned.
///
/// This is the independence relation's raw material: two steps of different
/// processes commute when their footprints are compatible (see
/// `hi_spec::explore`). A failed CAS leaves the cell unchanged, so it
/// counts as a [`AccessKind::Read`]; a successful CAS counts as a
/// [`AccessKind::Write`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// The step observed the cell without changing it (read, failed CAS).
    Read,
    /// The step changed — or may have changed — the cell (write,
    /// successful CAS).
    Write,
}

/// The single memory access of one step: which base object, and whether it
/// was mutated. The `MemCtx` one-primitive-per-step discipline guarantees
/// every step has at most one footprint; steps that perform only local
/// computation have none.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Footprint {
    /// The base object accessed.
    pub cell: CellId,
    /// Whether the access mutated the cell.
    pub kind: AccessKind,
}

/// The simulator's step context handed to [`ProcessHandle::step`]. It wraps
/// the shared memory and enforces the model's "one primitive per step" rule:
/// at most one [`Cells`] primitive may be called per step.
///
/// All primitives are recorded in the executor's [`Trace`] when tracing is
/// enabled, and the step's [`Footprint`] is exposed to the executor for
/// the model checker's independence relation.
#[derive(Debug)]
pub struct MemCtx<'a> {
    mem: &'a mut SharedMem,
    trace: Option<&'a mut Trace>,
    pid: Pid,
    step: u64,
    used: bool,
    footprint: Option<Footprint>,
}

impl<'a> MemCtx<'a> {
    /// Creates a context for one step of `pid` at global step index `step`.
    pub(crate) fn new(
        mem: &'a mut SharedMem,
        trace: Option<&'a mut Trace>,
        pid: Pid,
        step: u64,
    ) -> Self {
        MemCtx {
            mem,
            trace,
            pid,
            step,
            used: false,
            footprint: None,
        }
    }

    /// Whether this step already performed its primitive.
    pub fn primitive_used(&self) -> bool {
        self.used
    }

    /// The memory access this step performed, if any.
    pub fn footprint(&self) -> Option<Footprint> {
        self.footprint
    }

    /// The stepping process.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    fn use_primitive(&mut self) {
        assert!(!self.used, "a step may perform at most one primitive");
        self.used = true;
    }

    fn record(&mut self, cell: CellId, kind: PrimKind, value: u64) {
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.record(self.step, self.pid, cell, kind, value);
        }
    }
}

/// The three primitives a step machine may apply to a base object.
///
/// A step machine is written once against this trait and runs in both
/// worlds: on [`MemCtx`] in the simulator, which allows one primitive per
/// step and records footprints and traces, and on an
/// [`AtomicMem`](crate::AtomicMem)'s [`Arena`](crate::Arena) on real
/// threads, where each primitive is one sequentially consistent atomic
/// instruction.
pub trait Cells {
    /// Primitive read of a base object.
    fn read(&mut self, cell: CellId) -> u64;

    /// Primitive write of a base object.
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside the cell's declared domain.
    fn write(&mut self, cell: CellId, value: u64);

    /// Primitive compare-and-swap: if the cell holds `expected`, replace it
    /// with `new` and return `true`; otherwise return `false`.
    ///
    /// # Panics
    ///
    /// Panics if `new` is outside the cell's declared domain.
    fn cas(&mut self, cell: CellId, expected: u64, new: u64) -> bool;

    /// Not a primitive: the machine has abandoned an attempt and starts it
    /// over (a lock-free retry loop). The simulator ignores it; on real
    /// threads it is a spin-loop hint, so a spinning reader yields
    /// pipeline resources to the writer it waits on.
    #[inline]
    fn backoff(&mut self) {}
}

impl Cells for MemCtx<'_> {
    fn read(&mut self, cell: CellId) -> u64 {
        self.use_primitive();
        let v = self.mem.read(cell);
        self.footprint = Some(Footprint {
            cell,
            kind: AccessKind::Read,
        });
        self.record(cell, PrimKind::Read, v);
        v
    }

    fn write(&mut self, cell: CellId, value: u64) {
        self.use_primitive();
        self.mem.write(cell, value);
        self.footprint = Some(Footprint {
            cell,
            kind: AccessKind::Write,
        });
        self.record(cell, PrimKind::Write, value);
    }

    fn cas(&mut self, cell: CellId, expected: u64, new: u64) -> bool {
        self.use_primitive();
        let ok = self.mem.cas(cell, expected, new);
        self.footprint = Some(Footprint {
            cell,
            // A failed CAS is observationally a read: the cell is unchanged.
            kind: if ok {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        });
        self.record(
            cell,
            PrimKind::Cas { expected, new, ok },
            self.mem.read(cell),
        );
        ok
    }
}

/// The per-process half of an implementation: a resumable step machine with
/// persistent local state.
///
/// A process alternates between *idle* (no pending operation) and *busy*
/// (executing one operation one primitive at a time). Local state — the
/// paper's "local private variables held by each process", e.g. Algorithm
/// 4's `last-val` or Algorithm 5's `priority_i` — lives in the handle and
/// survives across operations, but is *not* part of `mem(C)`.
///
/// Handles are `Clone + PartialEq` so executions can be forked and compared,
/// which the exhaustive explorer and the §5 lower-bound adversary (which
/// checks *indistinguishability* of reader states across executions) rely
/// on.
pub trait ProcessHandle<S: ObjectSpec>: Clone + PartialEq + std::fmt::Debug {
    /// Begins an operation.
    ///
    /// # Panics
    ///
    /// Panics if the process is busy.
    fn invoke(&mut self, op: S::Op);

    /// Whether the process has no pending operation.
    fn is_idle(&self) -> bool;

    /// Executes one step (at most one primitive). Returns `Some(resp)` when
    /// the pending operation completes, `None` otherwise.
    ///
    /// The same text runs in both worlds: the executor passes a [`MemCtx`],
    /// a threaded handle an [`AtomicMem`](crate::AtomicMem)'s
    /// [`Arena`](crate::Arena).
    ///
    /// # Panics
    ///
    /// Panics if the process is idle.
    fn step<C: Cells>(&mut self, mem: &mut C) -> Option<S::Resp>;

    /// The cell the *next* step will access, if the machine knows it.
    ///
    /// The Lemma 16 adversary uses this to pick the two states whose
    /// canonical representations agree on the cell the reader is about to
    /// read. Machines that cannot predict their next access return `None`
    /// (the adversary then refuses to run).
    fn peeked_cell(&self) -> Option<CellId> {
        None
    }
}

/// A complete implementation of an abstract object from base objects: the
/// memory layout plus a step machine per process.
///
/// The memory layout is fixed at construction ([`init_memory`]
/// returns the same layout every time), which is precisely the
/// "canonical representation determined at initialization" requirement of
/// Proposition 3.
///
/// [`init_memory`]: Implementation::init_memory
pub trait Implementation<S: ObjectSpec>: Clone + std::fmt::Debug {
    /// The per-process step machine.
    type Process: ProcessHandle<S>;

    /// The abstract object being implemented.
    fn spec(&self) -> &S;

    /// Number of processes this implementation serves.
    fn num_processes(&self) -> usize;

    /// The initial shared memory (layout + initial values). Must be
    /// identical on every call.
    fn init_memory(&self) -> SharedMem;

    /// Creates the step machine for process `pid`.
    ///
    /// Role conventions (e.g. "pid 0 is the writer" for SWSR registers) are
    /// documented per implementation; machines panic when invoked with an
    /// operation their role does not allow.
    fn make_process(&self, pid: Pid) -> Self::Process;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::CellDomain;

    #[test]
    fn ctx_allows_one_primitive() {
        let mut mem = SharedMem::new();
        let c = mem.alloc("x", CellDomain::Word, 0);
        let mut ctx = MemCtx::new(&mut mem, None, Pid(0), 0);
        ctx.write(c, 3);
        assert!(ctx.primitive_used());
    }

    #[test]
    fn ctx_exposes_footprints() {
        let mut mem = SharedMem::new();
        let c = mem.alloc("x", CellDomain::Word, 0);
        {
            let mut ctx = MemCtx::new(&mut mem, None, Pid(0), 0);
            assert_eq!(ctx.footprint(), None, "no primitive yet");
            ctx.write(c, 3);
            assert_eq!(
                ctx.footprint(),
                Some(Footprint {
                    cell: c,
                    kind: AccessKind::Write
                })
            );
        }
        {
            let mut ctx = MemCtx::new(&mut mem, None, Pid(0), 1);
            ctx.read(c);
            assert_eq!(ctx.footprint().unwrap().kind, AccessKind::Read);
        }
        {
            // Failed CAS leaves the cell unchanged: a read footprint.
            let mut ctx = MemCtx::new(&mut mem, None, Pid(0), 2);
            assert!(!ctx.cas(c, 99, 1));
            assert_eq!(ctx.footprint().unwrap().kind, AccessKind::Read);
        }
        {
            let mut ctx = MemCtx::new(&mut mem, None, Pid(0), 3);
            assert!(ctx.cas(c, 3, 1));
            assert_eq!(ctx.footprint().unwrap().kind, AccessKind::Write);
        }
    }

    #[test]
    #[should_panic(expected = "at most one primitive")]
    fn ctx_rejects_two_primitives() {
        let mut mem = SharedMem::new();
        let c = mem.alloc("x", CellDomain::Word, 0);
        let mut ctx = MemCtx::new(&mut mem, None, Pid(0), 0);
        ctx.write(c, 3);
        ctx.read(c);
    }

    #[test]
    fn ctx_records_trace() {
        let mut mem = SharedMem::new();
        let c = mem.alloc("x", CellDomain::Word, 0);
        let mut trace = Trace::new();
        {
            let mut ctx = MemCtx::new(&mut mem, Some(&mut trace), Pid(1), 5);
            assert!(!ctx.cas(c, 9, 1));
        }
        assert_eq!(trace.events().len(), 1);
        let ev = &trace.events()[0];
        assert_eq!(ev.pid, Pid(1));
        assert_eq!(ev.step, 5);
        assert!(matches!(ev.kind, PrimKind::Cas { ok: false, .. }));
    }
}
