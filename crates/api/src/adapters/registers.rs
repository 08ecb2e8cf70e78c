//! [`ConcurrentObject`](crate::ConcurrentObject) adapters for the §4 SWSR
//! registers, the §5.1 max register and the §5.1 perfect-HI set: each runs
//! its simulator step machine on an atomic arena ([`crate::threaded`]).

use hi_core::objects::{MaxRegisterSpec, MultiRegisterSpec, SetSpec};
use hi_registers::{
    HiSet, LockFreeHiRegister, MaxRegister, VidyasankarRegister, WaitFreeHiRegister,
};

use crate::threaded::{machine_adapter, Machines};

machine_adapter! {
    /// Algorithm 1 (Vidyasankar) through the unified facade: wait-free,
    /// linearizable, **not** history independent —
    /// [`canonical`](crate::ConcurrentObject::canonical) returns `None` and
    /// drivers skip the memory audit.
    VidyasankarObject(MultiRegisterSpec, VidyasankarRegister)
}

machine_adapter! {
    /// Algorithms 2+3 through the unified facade: writer wait-free, reader
    /// lock-free, state-quiescent HI.
    LockFreeHiObject(MultiRegisterSpec, LockFreeHiRegister)
}

machine_adapter! {
    /// Algorithm 4 through the unified facade: wait-free, quiescent HI.
    WaitFreeHiObject(MultiRegisterSpec, WaitFreeHiRegister)
}

machine_adapter! {
    /// The §5.1 max register through the unified facade: wait-free on both
    /// roles, state-quiescent HI — the possibility result for objects
    /// outside `C_t`, sitting right next to the §4 registers it circumvents.
    MaxRegisterObject(MaxRegisterSpec, MaxRegister)
}

machine_adapter! {
    /// The §5.1 perfect-HI set through the unified facade: `n` symmetric
    /// handles, every operation a single primitive, canonical memory in
    /// *every* configuration (so it offers an online probe).
    HiSetObject(SetSpec, HiSet)
}

impl VidyasankarObject {
    /// Creates the register implementing `spec`.
    pub fn new(spec: MultiRegisterSpec) -> Self {
        let sim = VidyasankarRegister::new(spec.k(), spec.initial_value());
        VidyasankarObject(Machines::new(sim))
    }
}

impl LockFreeHiObject {
    /// Creates the register implementing `spec`.
    pub fn new(spec: MultiRegisterSpec) -> Self {
        let sim = LockFreeHiRegister::new(spec.k(), spec.initial_value());
        LockFreeHiObject(Machines::new(sim))
    }
}

impl WaitFreeHiObject {
    /// Creates the register implementing `spec`.
    pub fn new(spec: MultiRegisterSpec) -> Self {
        let sim = WaitFreeHiRegister::new(spec.k(), spec.initial_value());
        WaitFreeHiObject(Machines::new(sim))
    }
}

impl MaxRegisterObject {
    /// Creates the max register implementing `spec` (initial maximum 1).
    pub fn new(spec: MaxRegisterSpec) -> Self {
        MaxRegisterObject(Machines::new(MaxRegister::new(spec.k())))
    }
}

impl HiSetObject {
    /// Creates the set implementing `spec`, shared by `n` handles.
    pub fn new(spec: SetSpec, n: usize) -> Self {
        assert!(n >= 1, "at least one handle");
        HiSetObject(Machines::new(HiSet::new(spec.t(), n)))
    }
}
