#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! A deterministic simulator of the asynchronous shared-memory model.
//!
//! The paper's model (§2): `n` processes communicate through shared base
//! objects; each step consists of local computation plus a single primitive
//! operation on one base object; a configuration `C` records every process's
//! state and every base object's state, and `mem(C)` is the vector of base
//! object states. This crate implements that model literally:
//!
//! * [`SharedMem`] — the base objects. Every cell holds a `u64` and carries a
//!   [`CellDomain`] declaring its state space (binary registers, bounded
//!   cells, full words). `mem(C)` is [`SharedMem::snapshot`].
//! * [`ProcessHandle`] / [`Implementation`] — algorithm code as resumable
//!   *step machines*: each call to [`ProcessHandle::step`] performs at most
//!   one primitive (enforced by [`MemCtx`]).
//! * [`Cells`] / [`AtomicMem`] — the primitives a step machine is written
//!   against, and the atomic arena (one byte per cell) that runs the same
//!   machine on real threads (the register, set and queue families ship
//!   this way).
//! * [`Executor`] — drives processes step by step, records the induced
//!   [`History`], tracks quiescence and state-quiescence,
//!   and can snapshot `mem(C)` at any configuration. Executors are `Clone`,
//!   which is what makes exhaustive schedule exploration and the §5
//!   lower-bound adversary (which forks executions) possible.
//! * [`Scheduler`]s — round-robin, seeded random, and scripted schedules
//!   (the scripted one reproduces the paper's figures exactly).
//! * [`Trace`] — a step-level record of primitives for rendering executions.
//!
//! # Example: a trivial register implementation
//!
//! ```
//! use hi_core::objects::{MultiRegisterSpec, RegisterOp, RegisterResp};
//! use hi_sim::{
//!     CellDomain, CellId, Cells, Executor, Implementation, Pid, ProcessHandle, SharedMem,
//! };
//!
//! // One big cell holding the whole value: trivially history independent.
//! #[derive(Clone, Debug)]
//! struct BigCellRegister {
//!     spec: MultiRegisterSpec,
//!     cell: CellId,
//!     mem: SharedMem,
//! }
//!
//! #[derive(Clone, Debug, PartialEq, Eq)]
//! struct Proc {
//!     cell: CellId,
//!     pending: Option<RegisterOp>,
//! }
//!
//! impl ProcessHandle<MultiRegisterSpec> for Proc {
//!     fn invoke(&mut self, op: RegisterOp) {
//!         assert!(self.pending.is_none());
//!         self.pending = Some(op);
//!     }
//!     fn is_idle(&self) -> bool {
//!         self.pending.is_none()
//!     }
//!     fn step<C: Cells>(&mut self, mem: &mut C) -> Option<RegisterResp> {
//!         match self.pending.take().expect("no pending op") {
//!             RegisterOp::Read => Some(RegisterResp::Value(mem.read(self.cell))),
//!             RegisterOp::Write(v) => {
//!                 mem.write(self.cell, v);
//!                 Some(RegisterResp::Ack)
//!             }
//!         }
//!     }
//!     fn peeked_cell(&self) -> Option<CellId> {
//!         self.pending.as_ref().map(|_| self.cell)
//!     }
//! }
//!
//! impl Implementation<MultiRegisterSpec> for BigCellRegister {
//!     type Process = Proc;
//!     fn spec(&self) -> &MultiRegisterSpec { &self.spec }
//!     fn num_processes(&self) -> usize { 2 }
//!     fn init_memory(&self) -> SharedMem { self.mem.clone() }
//!     fn make_process(&self, _pid: Pid) -> Proc {
//!         Proc { cell: self.cell, pending: None }
//!     }
//! }
//!
//! let spec = MultiRegisterSpec::new(8, 3);
//! let mut mem = SharedMem::new();
//! let cell = mem.alloc("R", CellDomain::Bounded(9), 3);
//! let imp = BigCellRegister { spec, cell, mem };
//! let mut exec = Executor::new(imp);
//! exec.run_op_solo(Pid(0), RegisterOp::Write(7), 10).unwrap();
//! assert_eq!(
//!     exec.run_op_solo(Pid(1), RegisterOp::Read, 10).unwrap(),
//!     RegisterResp::Value(7)
//! );
//! ```

pub mod atomic;
pub mod exec;
#[cfg(test)]
mod exec_tests;
pub mod lanes;
pub mod mem;
pub mod process;
pub mod runner;
pub mod sched;
pub mod trace;

pub use atomic::AtomicMem;
pub use exec::{Executor, RunError};
pub use hi_core::{History, OpId, Pid};
pub use lanes::render_lanes;
pub use mem::{CellDomain, CellId, CellInfo, MemSnapshot, SharedMem};
pub use process::{AccessKind, Cells, Footprint, Implementation, MemCtx, ProcessHandle};
pub use runner::{run_workload, run_workload_with_faults, StepObserver, Workload};
pub use sched::{Fault, FaultPlan, Faulty, RoundRobin, Scheduler, Scripted, Seeded};
pub use trace::{PrimKind, Trace, TraceEvent};
