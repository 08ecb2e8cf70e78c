#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! A heavy-traffic service harness over every
//! [`ConcurrentObject`](hi_api::ConcurrentObject): N logical clients
//! multiplexed over one worker thread per role, with bounded `mpsc`
//! ingress queues fed in batches while a worker is busy, hash-sharded
//! dispatch, explicit backpressure, periodic drain-barrier HI audits, and
//! tail-latency observability.
//!
//! The conformance driver ([`hi_api::drive`](fn@hi_api::drive)) answers *"is the object
//! correct under adversarial interleavings?"*; this crate answers the
//! complementary service-shaped question: *"does the history-independence
//! guarantee survive sustained, skewed, bursty production-like load — and
//! what does its tail latency look like?"*. Concretely:
//!
//! * [`service`] — the runner: [`service::run_soak`] drives an
//!   object through epochs of sharded client load, bringing it
//!   state-quiescent at every epoch boundary (a *drain barrier*) so the
//!   `mem(C) == canonical(state)` audit runs mid-soak; quiescence at the
//!   barrier is enforced by the borrow checker, not by timing.
//!   [`service::soak_watchdogged`] wraps a whole soak in
//!   the deadline watchdog so wedges fail structured in CI.
//! * [`soak`] — the registry: named scenarios pairing objects with load
//!   shapes (uniform / Zipfian / bursty), iterated by the soak suites, the
//!   `service_latency` bench and the CI `service-soak` job.
//!
//! Every applied operation is traced through three spans — submission →
//! dequeue (`queue_wait`), dequeue → completion (`service`), and the
//! end-to-end interval — into the log-scale histograms of
//! [`hi_bench::hist`], merged and per worker, so a fat tail is
//! attributable to the queue or the backend. An op is stamped when its
//! client draws it and dequeued when its worker starts it, so
//! `queue_wait` covers the time it waits in its client thread's pending
//! batch as well as in the channel, even when it crossed the channel in
//! a batch of up to 32. [`SoakReport`] also carries
//! a [`ServiceMetrics`] block (per-epoch load vs audit-pause time, the
//! watchdog's progress snapshot, and the online-audit verdict): backends
//! declaring [`HiLevel::Perfect`](hi_api::HiLevel) are additionally
//! probed *mid-flight*, between barriers, via
//! [`handles_with_probe`](hi_api::ConcurrentObject::handles_with_probe).
//!
//! Threads and `std::sync::mpsc` only — no async runtime, nothing
//! vendored.
//!
//! # Example
//!
//! ```
//! use hi_api::UniversalObject;
//! use hi_core::objects::CounterSpec;
//! use hi_service::{run_soak, SoakConfig};
//!
//! let mut obj = UniversalObject::new(CounterSpec::new(-10, 10, 0), 2);
//! let cfg = SoakConfig { total_ops: 600, clients: 4, mid_audits: 2, ..SoakConfig::default() };
//! let report = run_soak(&mut obj, &cfg).unwrap();
//! assert_eq!(report.ops_applied, 600);
//! assert_eq!(report.audits.len(), 3, "two mid-soak barriers plus the final audit");
//! assert!(report.audits.iter().all(|a| a.audited));
//! ```

pub mod metrics;
pub mod service;
pub mod soak;

pub use metrics::{EpochMetrics, OnlineAudit, ServiceMetrics};
pub use service::{
    run_soak, run_soak_with, soak_watchdogged, AuditPoint, AuditRecord, Backpressure, SoakConfig,
    SoakError, SoakReport, WorkerStats,
};
pub use soak::{soak_registry, soak_scenario, SoakScenario};
