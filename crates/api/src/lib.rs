#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! One object API to drive them all: the unified [`ConcurrentObject`]
//! facade over the workspace's threaded backends.
//!
//! The paper defines every algorithm against one abstract interface — an
//! object `(Q, q0, O, R, Δ)` with a memory representation `mem(C)` whose
//! canonical form is fixed at initialization (Proposition 3) — but each
//! threaded backend historically exposed a bespoke surface
//! (`split()` pairs, per-pid `handle(i)` claims, ad-hoc
//! `snapshot()`/`canonical()` conventions). This crate closes that gap:
//!
//! * [`ConcurrentObject`] / [`ObjectHandle`] — the facade: uniform
//!   construction ([`ConcurrentObject::handles`]), operation application,
//!   role metadata ([`Roles`]), HI classification ([`HiLevel`]) and
//!   quiescent-point auditing (`mem_snapshot()` vs `canonical(state)`).
//! * [`adapters`] — implementations for every threaded backend: the §4
//!   register algorithms, the positional HI queue, the releasable LL/SC
//!   word, and the universal construction over any
//!   [`EnumerableSpec`](hi_core::EnumerableSpec).
//! * [`threaded`] — the one generic threaded handle of the register, set,
//!   queue and LL/SC adapters: the simulator's certified step machines,
//!   run on an [`AtomicMem`](hi_sim::AtomicMem) arena.
//! * [`drive`](crate::drive()) — a generic threaded stress driver: random
//!   role-respecting workload in, linearizability verdict plus quiescent
//!   memory audit out.
//! * [`registry`](crate::registry()) — named object×spec scenarios, each
//!   declared once from shared data ([`Scenario::of`]): a threaded backend
//!   behind [`ConcurrentObject`] next to its simulator twin behind
//!   `hi_spec::SimObject`, both driven by one generic checker pair on
//!   mirrored role-aware workloads, so conformance suites and benches
//!   iterate a list instead of accreting per-object glue.
//!
//! # Example
//!
//! Drive two different algorithms through the same code path:
//!
//! ```
//! use hi_api::adapters::{LockFreeHiObject, WaitFreeHiObject};
//! use hi_api::{drive, ConcurrentObject, DriveConfig};
//! use hi_core::objects::MultiRegisterSpec;
//!
//! let cfg = DriveConfig { ops_per_handle: 50, ..DriveConfig::default() };
//! let spec = MultiRegisterSpec::new(4, 1);
//! let report2 = drive(&mut LockFreeHiObject::new(spec), &cfg).unwrap();
//! let report4 = drive(&mut WaitFreeHiObject::new(spec), &cfg).unwrap();
//! assert!(report2.audited && report4.audited);
//! ```

pub mod adapters;
pub mod drive;
pub mod object;
pub mod registry;
pub mod threaded;

pub use adapters::{
    HashTableObject, HiSetObject, LlscObject, LockFreeHiObject, MaxRegisterObject, QueueObject,
    ShardedTableObject, UniversalObject, VidyasankarObject, WaitFreeHiObject,
};
pub use drive::{
    drive, drive_watchdogged, panic_message, random_script, throughput, watchdog, DriveConfig,
    DriveError, DriveReport, HandleProgress, MetricsSnapshot, ProgressCounters, Watched,
};
pub use hi_spec::{ExhaustiveConfig, ExhaustiveReport};
pub use object::{
    ConcurrentObject, HiLevel, MaintenanceSnapshot, ObjectHandle, OnlineProbe, ProbeVerdict,
    Progress, Roles, SampledAudit,
};
pub use registry::{registry, repro_command, scenario, Scenario, ScenarioMeta, ScenarioReport};
