#![forbid(unsafe_code)]
//! Umbrella crate for the history-independent concurrent objects workspace.
//!
//! This crate re-exports the workspace's public API so that examples,
//! integration tests and downstream users need a single dependency. The
//! pieces:
//!
//! * [`api`] — the unified [`ConcurrentObject`](hi_api::ConcurrentObject)
//!   facade over every threaded backend, with the generic
//!   [`drive`](hi_api::drive()) stress/HI-audit driver and the scenario
//!   [`registry`](hi_api::registry()).
//! * [`core`] — abstract objects `(Q, q0, O, R, Δ)`, histories, the `C_t`
//!   class and canonical-representation bookkeeping.
//! * [`sim`] — a deterministic asynchronous shared-memory simulator whose
//!   configurations and `mem(C)` snapshots match the paper's model exactly.
//! * [`spec`] — linearizability and history-independence checkers, a
//!   bounded exhaustive schedule explorer, and the
//!   [`SimObject`](hi_spec::SimObject) facade with its generic
//!   [`check_sim_object`](hi_spec::check_sim_object) driver — the
//!   simulator twin of [`api`]'s threaded surface.
//! * [`registers`] — Algorithms 1–4 of the paper (Vidyasankar's register,
//!   the lock-free state-quiescent HI register, the wait-free quiescent HI
//!   register), the max register and the perfect-HI set.
//! * [`queue`] — a lock-free state-quiescent HI queue with `Peek`.
//! * [`llsc`] — Algorithm 6: a lock-free perfect-HI releasable LL/SC object
//!   from atomic CAS.
//! * [`universal`] — Algorithm 5: the wait-free state-quiescent HI universal
//!   construction, plus baselines.
//! * [`hashtable`] — HI hash tables: the shared Robin Hood primitives, the
//!   sequential canonical table and the phase-concurrent table of [42].
//! * [`shard`] — the phase-free concurrent Robin Hood engine
//!   (arXiv:2503.21016 direction; a fixed-capacity table is one shard) and
//!   its scale-out: the sharded table-of-tables with per-shard seqlocks
//!   and **online resize** (capacity as part of the canonical
//!   representation, never-absent in-place migration), plus its simulator
//!   twin with a composed per-shard `DirectCanonical` audit.
//! * [`lowerbound`] — the executable §5.2/§5.4 impossibility adversaries.
//! * [`service`] — the heavy-traffic service harness: sharded `mpsc`
//!   ingress over any [`ConcurrentObject`](hi_api::ConcurrentObject),
//!   drain-barrier mid-soak HI audits, online (mid-flight) HI probes on
//!   perfect-HI backends, and per-span tail-latency histograms over the
//!   [`soak_registry`](hi_service::soak_registry) scenarios.
//! * [`bench`] — the log-scale latency histogram, the revision-keyed
//!   `BENCH_*.json` writers, and the cross-PR latency
//!   [`delta`](hi_bench::delta) gate behind the `bench_delta` CLI.
//!
//! # Quickstart
//!
//! ```
//! use hi_concurrent::registers::waitfree::WaitFreeHiRegister;
//! use hi_concurrent::sim::{Executor, Pid};
//! use hi_core::objects::RegisterOp;
//!
//! // A wait-free quiescent-HI 5-valued register from binary registers
//! // (Algorithm 4), run in the simulator.
//! let imp = WaitFreeHiRegister::new(5, 1);
//! let mut exec = Executor::new(imp);
//! exec.run_op_solo(Pid(0), RegisterOp::Write(4), 1_000).unwrap();
//! let resp = exec.run_op_solo(Pid(1), RegisterOp::Read, 1_000).unwrap();
//! assert_eq!(resp, hi_core::objects::RegisterResp::Value(4));
//! ```

pub use hi_api as api;
pub use hi_bench as bench;
pub use hi_core as core;
pub use hi_hashtable as hashtable;
pub use hi_llsc as llsc;
pub use hi_lowerbound as lowerbound;
pub use hi_queue as queue;
pub use hi_randomized as randomized;
pub use hi_registers as registers;
pub use hi_service as service;
pub use hi_shard as shard;
pub use hi_sim as sim;
pub use hi_spec as spec;
pub use hi_universal as universal;
