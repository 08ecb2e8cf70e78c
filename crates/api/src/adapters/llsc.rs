//! [`ConcurrentObject`](crate::ConcurrentObject) adapter for the releasable
//! LL/SC object (Algorithm 6), the perfect-HI building block of the
//! universal construction: its simulator step machine on an atomic arena
//! ([`crate::threaded`]).

use hi_core::ObjectSpec;
use hi_llsc::{RLlscSpec, SimRLlsc};

use crate::threaded::{machine_adapter, Machines};

machine_adapter! {
    /// Algorithm 6 through the unified facade: one packed word, `n`
    /// symmetric handles, perfect HI (the word *is* a fixed bijection of the
    /// abstract `(value, context)` state). Operations carrying a pid are
    /// accepted only by the matching handle: the R-LLSC semantics are
    /// process-relative.
    LlscObject(RLlscSpec, SimRLlsc)
}

impl LlscObject {
    /// Creates the object implementing `spec`.
    pub fn new(spec: RLlscSpec) -> Self {
        let sim = SimRLlsc::new(spec.v(), spec.initial_state().0, spec.n());
        LlscObject(Machines::new(sim))
    }
}
