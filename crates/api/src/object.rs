//! The unified object facade: one trait for every threaded backend.

use hi_core::ObjectSpec;

// The role discipline, HI classification and progress classification now
// live in `hi_core`, where the simulator twin (`hi_spec::SimObject`) shares
// them; re-exported here so the facade's historical paths (`hi_api::Roles`,
// `hi_api::HiLevel`) keep working.
pub use hi_core::{HiLevel, Progress, Roles};

/// One process's capability on a [`ConcurrentObject`]: apply operations of
/// the object's [`ObjectSpec`] and get responses back.
///
/// Handles are `Send` (they move into threads) but not `Sync` or `Clone`:
/// a handle is a *role*, and the single-mutator algorithms are correct only
/// because their mutator handle cannot be duplicated.
pub trait ObjectHandle<S: ObjectSpec> {
    /// Applies `op` and returns its response.
    ///
    /// # Panics
    ///
    /// Panics if this handle's role does not support `op` (see
    /// [`supports`](ObjectHandle::supports)).
    fn apply(&mut self, op: S::Op) -> S::Resp;

    /// Whether this handle's role may invoke `op`. Generic drivers use this
    /// to build per-handle operation menus.
    fn supports(&self, op: &S::Op) -> bool;
}

/// What one online (non-barrier) history-independence probe observed: a
/// point-in-time read of the object's memory, judged against the canonical
/// form of the abstract state it decodes to.
///
/// Only meaningful for [`HiLevel::Perfect`] implementations — the paper's
/// Definition 5 promises canonical memory in *every* configuration, so a
/// memory-observing adversary (and this probe) may look mid-operation.
/// Implementations of lower levels never hand out a probe: observing them
/// mid-flight would report spurious violations the spec does not forbid.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProbeVerdict {
    /// Whether the observed memory is the canonical representation of a
    /// legal abstract state.
    pub canonical: bool,
    /// The observed memory, cell reads in `mem_snapshot` order.
    pub mem: Vec<u64>,
    /// The decoded abstract state, rendered (diagnostic).
    pub state: String,
}

/// A sampling observer over a live [`HiLevel::Perfect`] object: reads the
/// memory representation at an arbitrary configuration — concurrent
/// operations in full flight — and audits it for canonicality.
///
/// Obtained from [`ConcurrentObject::handles_with_probe`] alongside the
/// role handles; the probe borrows the object for the same region the
/// handles do, so it is exactly as long-lived as the epoch it observes.
/// Sampling is safe at any moment by the Perfect-HI contract; each
/// implementation's closure does its own per-cell atomic reads.
pub struct OnlineProbe<'a> {
    sample: Box<dyn Fn() -> ProbeVerdict + Send + 'a>,
}

impl<'a> OnlineProbe<'a> {
    /// Wraps an implementation's sampling closure.
    pub fn new(sample: impl Fn() -> ProbeVerdict + Send + 'a) -> Self {
        OnlineProbe {
            sample: Box::new(sample),
        }
    }

    /// Takes one sample: read memory now, decode, audit.
    pub fn sample(&self) -> ProbeVerdict {
        (self.sample)()
    }
}

impl std::fmt::Debug for OnlineProbe<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineProbe").finish_non_exhaustive()
    }
}

/// The result of one **sampled** big-domain HI audit: `k` randomly chosen
/// segments of the memory representation checked exhaustively against
/// their canonical images, the rest spot-checked for the cheap structural
/// invariants (capacity words, routing, displacement sanity) without
/// recomputing canonical layouts.
///
/// Offered by implementations whose full canonical comparison stops being
/// a sensible drain-barrier check at scale (see
/// [`ConcurrentObject::sampled_audit`]); the soak harness prefers it over
/// the full-image audit exactly when the implementation offers it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SampledAudit {
    /// How many independently auditable segments (shards) the memory
    /// representation decomposes into.
    pub shards_total: usize,
    /// How many of them were compared exhaustively against their canonical
    /// image this sample.
    pub shards_exhaustive: usize,
    /// Memory cells covered by the structural spot checks in the remaining
    /// segments.
    pub cells_spot_checked: usize,
    /// The first violation found, rendered — `None` when the sample passed.
    pub failure: Option<String>,
}

impl SampledAudit {
    /// Whether the sample found no violation.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

/// Cumulative background-maintenance counters of an implementation that
/// reorganizes its own memory (e.g. online capacity migrations): how often
/// it happened and how long operations stalled inside it. Totals since
/// construction; callers diff snapshots to attribute maintenance cost to
/// an epoch.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MaintenanceSnapshot {
    /// Completed reorganizations (for the sharded table: capacity
    /// migrations, grows and shrinks alike).
    pub resizes: u64,
    /// Total wall time operations spent performing reorganizations.
    pub resize_pause: std::time::Duration,
}

/// A concurrent implementation of an abstract object `(Q, q0, O, R, Δ)` on
/// real threads, with a uniform surface for construction, operation
/// application, and quiescent-point history-independence auditing.
///
/// Every threaded backend in this workspace implements this trait via an
/// adapter in [`crate::adapters`], which is what lets the generic driver
/// ([`crate::drive()`]) and the scenario registry ([`crate::registry()`]) treat
/// Algorithm 1 registers and the Algorithm 5 universal object identically.
///
/// # Example
///
/// The universal construction over a counter, driven purely through the
/// trait (mirroring the `AtomicUniversal` doctest it replaces):
///
/// ```
/// use hi_api::{ConcurrentObject, ObjectHandle, UniversalObject};
/// use hi_core::objects::{CounterOp, CounterResp, CounterSpec};
///
/// let mut counter = UniversalObject::new(CounterSpec::new(0, 100, 0), 2);
/// {
///     let mut handles = counter.handles();
///     let mut h1 = handles.pop().unwrap();
///     let mut h0 = handles.pop().unwrap();
///     h0.apply(CounterOp::Inc);
///     h1.apply(CounterOp::Inc);
///     assert_eq!(h0.apply(CounterOp::Read), CounterResp::Value(2));
/// }
/// assert_eq!(counter.abstract_state(), 2);
/// assert_eq!(
///     Some(counter.mem_snapshot()),
///     counter.canonical(&2),
///     "quiescent memory is the canonical representation of 2"
/// );
/// ```
pub trait ConcurrentObject<S: ObjectSpec> {
    /// The per-role handle type. Handles borrow the object, so all handles
    /// must be dropped before the object is observed or re-split.
    type Handle<'a>: ObjectHandle<S> + Send
    where
        Self: 'a;

    /// The object's sequential specification.
    fn spec(&self) -> &S;

    /// The role discipline of this implementation.
    fn roles(&self) -> Roles;

    /// The history-independence guarantee of this implementation.
    fn hi_level(&self) -> HiLevel;

    /// The progress guarantee of this implementation — what a crashed
    /// process is allowed to break. The fault checker enforces the declared
    /// class on the simulator twin (`hi_spec::check_sim_object_faults`), and
    /// the conformance suite asserts both worlds declare the same class.
    fn progress(&self) -> Progress;

    /// Hands out one handle per role ([`Roles::num_handles`] of them, in
    /// role order). The `&mut` receiver proves quiescence — no handle from
    /// an earlier split is outstanding — so re-splitting mid-lifetime is
    /// sound: the step-machine adapters ([`crate::threaded`]) hand out the
    /// same persistent process machines again, local state included.
    fn handles(&mut self) -> Vec<Self::Handle<'_>>;

    /// Hands out the role handles *plus* an [`OnlineProbe`] when this
    /// implementation is [`HiLevel::Perfect`] — i.e. when its memory is
    /// canonical in every configuration, so a non-barrier observer may
    /// sample it while the handles are live. The default declines the
    /// probe, which is the honest answer for every lower [`HiLevel`]:
    /// their contract only fixes memory at (state-)quiescent points, and
    /// a mid-flight sample would report violations the spec permits.
    fn handles_with_probe(&mut self) -> (Vec<Self::Handle<'_>>, Option<OnlineProbe<'_>>) {
        (self.handles(), None)
    }

    /// `mem(C)`: the object's memory representation, one `u64` per base
    /// object, in a fixed per-implementation order. Cell reads are atomic
    /// but the vector is not an atomic snapshot; it equals `mem(C)` only at
    /// configurations the object's [`HiLevel`] permits observing.
    fn mem_snapshot(&self) -> Vec<u64>;

    /// The canonical representation of abstract state `state` under
    /// [`mem_snapshot`](ConcurrentObject::mem_snapshot), fixed at
    /// initialization (Proposition 3). `None` if the implementation fixes no
    /// canonical form (i.e. [`HiLevel::NotHi`]).
    fn canonical(&self, state: &S::State) -> Option<Vec<u64>>;

    /// The object's current abstract state, decoded from memory. Only
    /// meaningful at quiescent points (the `&self` receiver cannot enforce
    /// this; callers of a live object must pause their handles first).
    fn abstract_state(&self) -> S::State;

    /// A **sampled** audit for big-domain implementations: `Some` when the
    /// implementation's memory decomposes into independently auditable
    /// segments *and* its domain is large enough that the full
    /// `mem_snapshot` vs [`canonical`](ConcurrentObject::canonical)
    /// comparison stops being the sensible barrier check. Like
    /// [`abstract_state`](ConcurrentObject::abstract_state), only
    /// meaningful at (state-)quiescent points. `seed` drives the segment
    /// selection, so repeated barriers sample different segments.
    ///
    /// The default declines — the honest answer for every implementation
    /// whose full canonical image is small enough to compare outright.
    fn sampled_audit(&self, _seed: u64) -> Option<SampledAudit> {
        None
    }

    /// Cumulative background-maintenance counters, `Some` only for
    /// implementations that reorganize their own memory (e.g. online
    /// resize). The soak harness diffs snapshots across epochs to
    /// attribute maintenance pauses in its metrics.
    fn maintenance(&self) -> Option<MaintenanceSnapshot> {
        None
    }
}
