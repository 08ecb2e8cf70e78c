#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Correctness checkers for concurrent object implementations.
//!
//! Three tools, corresponding to the paper's three correctness dimensions:
//!
//! * **Linearizability** ([`lin`]): a Wing–Gong-style search with
//!   memoization that decides whether a concurrent [`History`] has a
//!   linearization against an [`ObjectSpec`] — pending operations may be
//!   completed or dropped, real-time order is respected.
//! * **History independence** ([`hi`]): observers implementing
//!   Definitions 5, 7 and 8 (perfect, state-quiescent and quiescent HI).
//!   They snapshot `mem(C)` at the configurations their observation model
//!   permits and feed a [`CanonicalMap`](hi_core::CanonicalMap); any state
//!   observed with two distinct representations is a violation.
//! * **Exhaustive exploration** ([`explore`](mod@explore)): a schedule-space model
//!   checker over *all* schedules of a small workload, with sleep-set
//!   partial-order reduction and configuration deduplication
//!   ([`explore::explore_with`]) that preserve exactly the properties the
//!   oracles check — small-scope model checking for the algorithms'
//!   trickiest interleavings. [`check_sim_object_exhaustive`] wraps the
//!   explorer and the full oracle stack (HI audit at every reachable
//!   permitted configuration, linearization of every distinct maximal
//!   path, optional single-crash variants) into one registry-drivable
//!   certification call.
//!
//! Every simulator lane audits through one core (a private `audit`
//! module): one auditor, built from a [`SimAudit`], examines `mem(C)` at
//! the points its observation model permits and keeps the first violation,
//! and one scheduling loop (`hi_sim::run_workload_with_faults`) drives the
//! run. The lanes keep only what differs between them:
//!
//! * [`check_run`] ([`harness`]): a hand-built workload under the caller's
//!   scheduler, monitored by a state oracle;
//! * [`check_sim_object`] ([`sim_object`]): a [`SimObject`] — the simulator
//!   twin of the threaded `ConcurrentObject` facade — under its
//!   role-mirrored seeded workload; the one generic driver every sim twin
//!   in the scenario registry runs through;
//! * [`run_fault_plan`] / [`check_sim_object_faults`] ([`fault`]): the same
//!   seeded run with crashes and stalls injected, enforcing each object's
//!   declared [`Progress`](hi_core::Progress) class, auditing the
//!   post-crash memory, and checking helped operations apply exactly once;
//! * [`check_sim_object_exhaustive`] ([`model_check`]): every schedule of a
//!   small instance, through the explorer.
//!
//! [`History`]: hi_core::History
//! [`ObjectSpec`]: hi_core::ObjectSpec

mod audit;
pub mod explore;
pub mod fault;
pub mod harness;
pub mod hi;
pub mod lin;
pub mod model_check;
pub mod sim_object;

pub use explore::{
    explore, explore_with, ExploreConfig, ExploreError, ExploreStats, ExploreVisitor,
};
pub use fault::{
    check_sim_object_faults, run_fault_plan, FaultSweepConfig, FaultSweepReport, PlanOutcome,
};
pub use harness::{check_run, check_run_single_mutator, CheckError, CheckReport};
pub use hi::{single_mutator_state, HiMonitor, ObservationModel};
pub use lin::{linearize, linearize_to, LinError, LinOptions, Linearization};
pub use model_check::{check_sim_object_exhaustive, ExhaustiveConfig, ExhaustiveReport};
pub use sim_object::{
    check_sim_object, model_for, sim_workload, CanonicalOracle, CanonicalView, Layout, SimAudit,
    SimObject, SimObjectReport, StateOracle,
};
