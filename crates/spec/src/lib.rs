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
//! * **Exhaustive exploration** ([`explore`]): a schedule-space model
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
//! The [`harness`] module bundles the three into one-call checks used
//! throughout the workspace's test suites, and the [`sim_object`] module
//! defines [`SimObject`] — the simulator twin of the threaded
//! `ConcurrentObject` facade — together with [`check_sim_object`], the one
//! generic role-aware driver every sim twin in the scenario registry runs
//! through. The [`fault`] module is that driver's adversarial sibling:
//! [`check_sim_object_faults`] crashes and stalls every role at sampled
//! points and enforces each object's declared [`Progress`](hi_core::Progress)
//! class, audits the post-crash memory, and checks helped operations apply
//! exactly once.
//!
//! [`History`]: hi_core::History
//! [`ObjectSpec`]: hi_core::ObjectSpec

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
    check_sim_object, model_for, sim_workload, CanonicalOracle, CanonicalView,
    DirectCanonicalObserver, Layout, SimAudit, SimObject, SimObjectReport, StateOracle,
};
