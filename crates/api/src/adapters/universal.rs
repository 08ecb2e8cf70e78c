//! [`ConcurrentObject`] adapter for the universal construction
//! (Algorithm 5): any enumerable object, wait-free and state-quiescent HI.
//! Its metadata is its simulator twin's (`SimUniversal`), whose memory
//! layout the threaded backend runs on.

use hi_core::EnumerableSpec;
use hi_sim::Implementation;
use hi_spec::SimObject;
use hi_universal::{AtomicUniversal, UniversalHandle};

use crate::object::{ConcurrentObject, HiLevel, ObjectHandle, Progress, Roles};

/// Algorithm 5 over any [`EnumerableSpec`], through the unified facade:
/// `n` symmetric wait-free handles, state-quiescent HI.
#[derive(Debug)]
pub struct UniversalObject<S: EnumerableSpec> {
    u: AtomicUniversal<S>,
}

impl<S: EnumerableSpec> UniversalObject<S> {
    /// Creates the object implementing `spec`, shared by `n` processes.
    pub fn new(spec: S, n: usize) -> Self {
        UniversalObject {
            u: AtomicUniversal::new(spec, n),
        }
    }

    /// The §6.1 ablation — Algorithm 5 without the `RL` clearing lines.
    /// Still linearizable and wait-free, but no longer HI: leftover context
    /// bits leak history, so [`ConcurrentObject::canonical`] returns `None`
    /// and drivers skip the audit.
    pub fn without_release(spec: S, n: usize) -> Self {
        UniversalObject {
            u: AtomicUniversal::without_release(spec, n),
        }
    }

    /// The underlying backend, for backend-specific inspection.
    pub fn backend(&self) -> &AtomicUniversal<S> {
        &self.u
    }
}

/// Per-process handle of [`UniversalObject`]; every handle may invoke every
/// operation (helping makes the roles symmetric).
#[derive(Debug)]
pub struct UniversalObjectHandle<'a, S: EnumerableSpec> {
    h: UniversalHandle<'a, S>,
}

impl<S: EnumerableSpec> ObjectHandle<S> for UniversalObjectHandle<'_, S> {
    fn apply(&mut self, op: S::Op) -> S::Resp {
        self.h.apply(op)
    }

    fn supports(&self, _op: &S::Op) -> bool {
        true
    }
}

impl<S> ConcurrentObject<S> for UniversalObject<S>
where
    S: EnumerableSpec + Send + Sync + 'static,
    S::State: Send + Sync,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
{
    type Handle<'a> = UniversalObjectHandle<'a, S>;

    fn spec(&self) -> &S {
        Implementation::spec(self.u.sim())
    }

    fn roles(&self) -> Roles {
        SimObject::roles(self.u.sim())
    }

    fn progress(&self) -> Progress {
        SimObject::progress(self.u.sim())
    }

    fn hi_level(&self) -> HiLevel {
        SimObject::hi_level(self.u.sim())
    }

    fn handles(&mut self) -> Vec<UniversalObjectHandle<'_, S>> {
        let handles = self.u.handles().into_iter();
        handles.map(|h| UniversalObjectHandle { h }).collect()
    }

    fn mem_snapshot(&self) -> Vec<u64> {
        self.u.snapshot()
    }

    fn canonical(&self, state: &S::State) -> Option<Vec<u64>> {
        self.hi_level().auditable().then(|| self.u.canonical(state))
    }

    fn abstract_state(&self) -> S::State {
        self.u.abstract_state()
    }
}
