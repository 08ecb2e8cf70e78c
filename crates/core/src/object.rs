//! The abstract object model: `(Q, q0, O, R, Δ)`.

use std::fmt;
use std::hash::Hash;

/// An abstract object in the sense of the paper's §2: a deterministic state
/// machine `(Q, q0, O, R, Δ)`.
///
/// `State`, `Op` and `Resp` correspond to `Q`, `O` and `R`;
/// [`initial_state`](ObjectSpec::initial_state) is `q0` and
/// [`apply`](ObjectSpec::apply) is `Δ : Q × O → Q × R`.
///
/// All states are assumed reachable from the initial state (the paper makes
/// the same assumption); the model checkers in `hi-spec` verify this for the
/// concrete specs in this crate.
///
/// # Example
///
/// ```
/// use hi_core::ObjectSpec;
/// use hi_core::objects::{CounterSpec, CounterOp, CounterResp};
///
/// let spec = CounterSpec::new(0, 3, 0);
/// let (q, r) = spec.apply(&spec.initial_state(), &CounterOp::Inc);
/// assert_eq!((q, r), (1, CounterResp::Ack));
/// ```
pub trait ObjectSpec: Clone + fmt::Debug {
    /// The state space `Q`.
    type State: Clone + Eq + Hash + fmt::Debug;
    /// The operation set `O`.
    type Op: Clone + Eq + Hash + fmt::Debug;
    /// The response set `R`.
    type Resp: Clone + Eq + Hash + fmt::Debug;

    /// The designated initial state `q0`.
    fn initial_state(&self) -> Self::State;

    /// The sequential specification `Δ(q, o) = (q', r)`.
    fn apply(&self, state: &Self::State, op: &Self::Op) -> (Self::State, Self::Resp);

    /// Whether `op` is *read-only*: it never changes the state of the object,
    /// from any state.
    ///
    /// The paper calls an operation *state-changing* if there exist states
    /// `q ≠ q'` such that the operation moves the object from `q` to `q'`;
    /// read-only is the negation. This distinction defines *state-quiescent*
    /// configurations (Definition 7): no state-changing operation pending.
    fn is_read_only(&self, op: &Self::Op) -> bool;

    /// Whether `op` belongs to the *mutator* role under a single-writer
    /// discipline ([`Roles::SingleWriterSingleReader`]).
    ///
    /// Defaults to "every state-changing operation". Override only for
    /// operations that are write-shaped yet provably never change state —
    /// `WriteMax(1)` of the max register is read-only in the paper's sense
    /// (it can never raise the state above the minimum) but still belongs
    /// to the writer.
    fn is_mutator_op(&self, op: &Self::Op) -> bool {
        !self.is_read_only(op)
    }

    /// The process that owns `op`, if the operation set is process-relative
    /// (`None` means any process may invoke it).
    ///
    /// Most objects are process-agnostic and keep the default. The R-LLSC
    /// object of §6.1 is the exception: `LL`/`VL`/`SC`/`RL` carry the
    /// invoking process because their semantics reference *the caller's*
    /// reservation. Role-aware workload builders
    /// ([`workload::menus_for`](crate::workload::menus_for)) use this to
    /// hand each process exactly the operations it may invoke.
    fn op_owner(&self, _op: &Self::Op) -> Option<usize> {
        None
    }

    /// Applies a sequence of operations from the initial state and returns
    /// the resulting state, discarding responses.
    fn run<'a, I>(&self, ops: I) -> Self::State
    where
        I: IntoIterator<Item = &'a Self::Op>,
        Self::Op: 'a,
    {
        let mut q = self.initial_state();
        for op in ops {
            q = self.apply(&q, op).0;
        }
        q
    }
}

/// How many handles (threaded world) or processes (simulated world) an
/// implementation serves, and what each may do.
///
/// The paper's algorithms fall into two disciplines: the §4/§5 constructions
/// are *single-writer single-reader* (their correctness proofs lean on the
/// mutator being alone), while Algorithm 5 is symmetric over `n` processes.
/// Keeping the by-construction discipline visible lets generic drivers route
/// operations only to the roles that may perform them — identically for a
/// `ConcurrentObject` on real threads and a `SimObject` in the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Roles {
    /// Exactly two roles: role 0 is the single mutator (writer), role 1 the
    /// single observer (reader). Covers the SWSR registers and the
    /// positional queue (whose "writer" is the enqueue/dequeue mutator and
    /// "reader" the peeker).
    SingleWriterSingleReader,
    /// `n` symmetric roles; every role may invoke every operation it owns
    /// (see [`ObjectSpec::op_owner`]).
    MultiProcess {
        /// The number of processes sharing the object.
        n: usize,
    },
}

impl Roles {
    /// The number of handles (threaded) or processes (simulated) of this
    /// role discipline.
    pub fn num_handles(&self) -> usize {
        match self {
            Roles::SingleWriterSingleReader => 2,
            Roles::MultiProcess { n } => *n,
        }
    }

    /// Whether `role` may invoke `op` of `spec` under this discipline: the
    /// mutator (role 0) owns exactly the mutator operations
    /// ([`ObjectSpec::is_mutator_op`]); a symmetric role owns every
    /// operation [`ObjectSpec::op_owner`] does not assign elsewhere.
    pub fn allows<S: ObjectSpec>(&self, spec: &S, role: usize, op: &S::Op) -> bool {
        match self {
            Roles::SingleWriterSingleReader => spec.is_mutator_op(op) == (role == 0),
            Roles::MultiProcess { .. } => spec.op_owner(op).map_or(true, |owner| owner == role),
        }
    }
}

/// The history-independence guarantee an implementation provides, i.e. at
/// which configurations its memory representation must equal the canonical
/// representation of its abstract state.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum HiLevel {
    /// No guarantee: the memory may leak operation history (Algorithm 1).
    NotHi,
    /// Canonical whenever no operation at all is pending (Definition 8,
    /// Algorithm 4).
    Quiescent,
    /// Canonical whenever no *state-changing* operation is pending
    /// (Definition 7; Algorithms 2+3, the positional queue, Algorithm 5).
    StateQuiescent,
    /// Canonical in every configuration (Definition 5, Algorithm 6).
    Perfect,
}

impl HiLevel {
    /// Whether a quiescent-point audit (`memory == canonical`) is
    /// meaningful for this level. Every level except [`HiLevel::NotHi`]
    /// promises canonical memory at full quiescence.
    pub fn auditable(&self) -> bool {
        *self != HiLevel::NotHi
    }
}

/// The progress guarantee an implementation provides, i.e. what a crash of
/// some processes is allowed to break for the survivors.
///
/// In the asynchronous model a crashed process is one that never takes
/// another step; its memory contribution stays static. The fault checkers
/// use this class to decide how hard to push an implementation:
///
/// - wait-free operations must complete within a bounded step budget even
///   with *every* other process crashed mid-operation;
/// - lock-free operations must complete once the crashed peers are static
///   (a static memory cannot starve a retry loop);
/// - helping constructions additionally promise that a crashed process's
///   announced operation is applied *exactly once* by the survivors;
/// - blocking operations may wedge forever when a crash lands inside a
///   critical section — a crash may legitimately prevent completion, and
///   the checker only verifies that whatever did complete linearizes and
///   that the memory stays canonical at the permitted observation points.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Progress {
    /// Every operation completes in a bounded number of its own steps,
    /// regardless of what other processes do — including crashing
    /// (Algorithms 3, 4, 6; the max register; the HI set).
    WaitFree,
    /// Some operation may be starved by *active* interference, but every
    /// operation completes once all other processes are static
    /// (Algorithm 2's reader loop).
    LockFree,
    /// Lock-free via announce-and-help (Algorithm 5): survivors complete a
    /// crashed process's announced operation on its behalf, exactly once.
    Helping,
    /// A crash inside a critical section can block other operations forever
    /// (the positional queue's Peek across a crashed dequeue; the hash
    /// table's seqlock held by a crashed updater).
    Blocking,
}

impl Progress {
    /// Whether survivors are guaranteed to complete after peers crash:
    /// `true` for every class except [`Progress::Blocking`].
    pub fn completes_under_crashes(&self) -> bool {
        *self != Progress::Blocking
    }

    /// Whether the implementation helps crashed peers' announced operations
    /// to completion (the exactly-once obligation the fault checker
    /// enforces for [`Progress::Helping`]).
    pub fn helps(&self) -> bool {
        *self == Progress::Helping
    }
}

/// An [`ObjectSpec`] whose state, operation and response spaces are finite
/// and enumerable.
///
/// Enumerability is what allows an implementation to fix a canonical
/// representation for every state *at initialization* (the requirement that
/// Proposition 3 of the paper places on deterministic history-independent
/// implementations), and what lets the exhaustive checkers in `hi-spec`
/// cover the whole state space.
///
/// Implementations must enumerate deterministically: two calls return the
/// same ordering. The universal construction's codec relies on this to
/// assign the same bit pattern to the same state in every execution.
pub trait EnumerableSpec: ObjectSpec {
    /// All states of the object, in a deterministic order. The initial state
    /// must be included.
    fn states(&self) -> Vec<Self::State>;

    /// All operations of the object, in a deterministic order.
    fn ops(&self) -> Vec<Self::Op>;

    /// All responses of the object, in a deterministic order. Every response
    /// reachable via `apply` from an enumerated state must be included.
    fn responses(&self) -> Vec<Self::Resp>;

    /// Sanity-check the enumeration: every `apply` on an enumerated state
    /// stays within the enumerated state/response sets.
    ///
    /// Returns the number of `(state, op)` pairs checked.
    ///
    /// # Panics
    ///
    /// Panics if the enumeration is not closed under `apply`, if the initial
    /// state is missing, or if the enumeration contains duplicates.
    fn check_closed(&self) -> usize {
        use std::collections::HashSet;
        let states = self.states();
        let ops = self.ops();
        let resps = self.responses();
        let state_set: HashSet<_> = states.iter().cloned().collect();
        let resp_set: HashSet<_> = resps.iter().cloned().collect();
        assert_eq!(
            state_set.len(),
            states.len(),
            "duplicate states in enumeration"
        );
        assert_eq!(
            resp_set.len(),
            resps.len(),
            "duplicate responses in enumeration"
        );
        assert!(
            state_set.contains(&self.initial_state()),
            "initial state missing from enumeration"
        );
        let mut checked = 0;
        for q in &states {
            for op in &ops {
                let (q2, r) = self.apply(q, op);
                assert!(
                    state_set.contains(&q2),
                    "apply({q:?}, {op:?}) leaves state space"
                );
                assert!(
                    resp_set.contains(&r),
                    "apply({q:?}, {op:?}) response {r:?} not enumerated"
                );
                if self.is_read_only(op) {
                    assert_eq!(q2, *q, "read-only op {op:?} changed state {q:?}");
                }
                checked += 1;
            }
        }
        checked
    }
}
