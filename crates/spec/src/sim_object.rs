//! [`SimObject`]: the simulator twin of the threaded `ConcurrentObject`
//! facade, and the one generic checker that drives every twin.
//!
//! The paper defines each algorithm against a single abstract interface, and
//! `hi_api` gives the *threaded* backends that uniform surface. This module
//! does the same for the *simulated* step machines: a [`SimObject`] names its
//! spec, role discipline and HI guarantee, hands over its step machine
//! ([`SimObject::implementation`]), and declares how its history-independence
//! promise is audited ([`SimAudit`]). [`check_sim_object`] then runs any twin
//! under a seeded scheduler with the same role-aware workload generation the
//! threaded driver uses (`hi_core::workload`), audits it, and linearizes the
//! induced history — no per-implementation driver glue.
//!
//! # Example
//!
//! A trivially history-independent one-cell register, declared as a
//! [`SimObject`] and checked end to end:
//!
//! ```
//! use hi_core::objects::{MultiRegisterSpec, RegisterOp, RegisterResp};
//! use hi_core::{HiLevel, Progress, Roles};
//! use hi_sim::{
//!     CellDomain, CellId, Implementation, Cells, Pid, ProcessHandle, SharedMem,
//! };
//! use hi_spec::{check_sim_object, ObservationModel, SimAudit, SimObject};
//!
//! // One big cell holding the whole value: perfectly history independent.
//! #[derive(Clone, Debug)]
//! struct BigCellRegister {
//!     spec: MultiRegisterSpec,
//!     cell: CellId,
//!     mem: SharedMem,
//! }
//!
//! #[derive(Clone, Debug, PartialEq, Eq)]
//! struct Proc {
//!     cell: CellId,
//!     pending: Option<RegisterOp>,
//! }
//!
//! impl ProcessHandle<MultiRegisterSpec> for Proc {
//!     fn invoke(&mut self, op: RegisterOp) {
//!         self.pending = Some(op);
//!     }
//!     fn is_idle(&self) -> bool {
//!         self.pending.is_none()
//!     }
//!     fn step<C: Cells>(&mut self, ctx: &mut C) -> Option<RegisterResp> {
//!         match self.pending.take().expect("no pending op") {
//!             RegisterOp::Read => Some(RegisterResp::Value(ctx.read(self.cell))),
//!             RegisterOp::Write(v) => {
//!                 ctx.write(self.cell, v);
//!                 Some(RegisterResp::Ack)
//!             }
//!         }
//!     }
//!     fn peeked_cell(&self) -> Option<CellId> {
//!         self.pending.as_ref().map(|_| self.cell)
//!     }
//! }
//!
//! impl Implementation<MultiRegisterSpec> for BigCellRegister {
//!     type Process = Proc;
//!     fn spec(&self) -> &MultiRegisterSpec { &self.spec }
//!     fn num_processes(&self) -> usize { 2 }
//!     fn init_memory(&self) -> SharedMem { self.mem.clone() }
//!     fn make_process(&self, _pid: Pid) -> Proc {
//!         Proc { cell: self.cell, pending: None }
//!     }
//! }
//!
//! impl SimObject<MultiRegisterSpec> for BigCellRegister {
//!     type Machine = Self;
//!     fn spec(&self) -> &MultiRegisterSpec { &self.spec }
//!     fn roles(&self) -> Roles { Roles::SingleWriterSingleReader }
//!     fn hi_level(&self) -> HiLevel { HiLevel::Perfect }
//!     fn progress(&self) -> Progress { Progress::WaitFree }
//!     fn implementation(&self) -> &Self { self }
//!     fn hi_audit(&self) -> SimAudit<MultiRegisterSpec, Self> {
//!         // The cell *is* the state: audit it at every configuration.
//!         SimAudit::from_snapshot(ObservationModel::Perfect, |snap| snap[0])
//!     }
//! }
//!
//! let spec = MultiRegisterSpec::new(4, 1);
//! let mut mem = SharedMem::new();
//! let cell = mem.alloc("R", CellDomain::Bounded(5), 1);
//! let obj = BigCellRegister { spec, cell, mem };
//! let report = check_sim_object(&obj, 0x5eed, 20, 10_000).unwrap();
//! assert!(report.audited && report.hi_points > 0 && report.ops > 0);
//! ```

use hi_core::{
    handle_seed, menus_for, random_script, EnumerableSpec, HiLevel, ObjectSpec, Progress, Roles,
};
use hi_sim::{Executor, FaultPlan, Implementation, MemSnapshot, Workload};

use crate::audit::{run_plan, PlanRun};
use crate::hi::{single_mutator_state, ObservationModel};
use crate::lin::{linearize, LinOptions};

/// A state oracle: the abstract state of the current configuration, for
/// feeding an [`HiMonitor`](crate::HiMonitor).
pub type StateOracle<S, I> = Box<dyn FnMut(&Executor<S, I>) -> <S as ObjectSpec>::State>;

/// One direct-canonicity observation: the memory representation proper
/// extracted from `mem(C)` next to the canonical representation of the
/// decoded abstract state. Produced by a [`CanonicalOracle`] at each
/// permitted observation point; any mismatch is an HI violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CanonicalView {
    /// The observed memory representation (synchronization-only cells
    /// already excluded, with the same justification the threaded
    /// adapter's `mem_snapshot` uses).
    pub observed: Vec<u64>,
    /// The canonical representation of the decoded abstract state.
    pub canonical: Vec<u64>,
    /// The decoded abstract state, rendered for error messages.
    pub state: String,
}

/// A direct-canonicity oracle: maps `mem(C)` to a [`CanonicalView`].
pub type CanonicalOracle = Box<dyn FnMut(&MemSnapshot) -> CanonicalView>;

/// How a [`SimObject`]'s history-independence promise is audited while the
/// workload runs. Linearizability of the full history is always checked
/// afterwards, whatever the variant.
pub enum SimAudit<S: ObjectSpec, I: Implementation<S>> {
    /// Linearizability only: the implementation fixes no canonical form
    /// ([`HiLevel::NotHi`]), so memory monitoring would be meaningless.
    LinOnly,
    /// Same-state-same-memory monitoring ([`HiMonitor`](crate::HiMonitor))
    /// at every point the model permits, with the abstract state supplied
    /// by the oracle.
    Monitor {
        /// The observation model matching the object's [`HiLevel`].
        model: ObservationModel,
        /// The abstract state of the current configuration.
        oracle: StateOracle<S, I>,
    },
    /// Direct canonicity at every point the model permits: the observed
    /// representation must equal the canonical representation of the
    /// decoded state. Strictly stronger than [`SimAudit::Monitor`] (which
    /// only compares observations against each other), and what lets an
    /// audit exclude synchronization-only cells.
    DirectCanonical {
        /// The observation model matching the object's [`HiLevel`].
        model: ObservationModel,
        /// The per-point observed/canonical pair.
        oracle: CanonicalOracle,
    },
}

impl<S: ObjectSpec, I: Implementation<S>> SimAudit<S, I> {
    /// [`SimAudit::Monitor`] with the single-mutator state oracle: at any
    /// state-quiescent point the abstract state is the fold of the
    /// completed state-changing operations in invocation order (valid for
    /// SWSR implementations — see [`single_mutator_state`]).
    pub fn single_mutator(model: ObservationModel, spec: S) -> Self
    where
        S: 'static,
    {
        SimAudit::Monitor {
            model,
            oracle: Box::new(move |exec: &Executor<S, I>| {
                single_mutator_state(&spec, exec.history())
            }),
        }
    }

    /// [`SimAudit::Monitor`] with a snapshot-decoding state oracle (for
    /// implementations whose memory encodes the state directly).
    pub fn from_snapshot(
        model: ObservationModel,
        mut decode: impl FnMut(&MemSnapshot) -> S::State + 'static,
    ) -> Self {
        SimAudit::Monitor {
            model,
            oracle: Box::new(move |exec: &Executor<S, I>| decode(&exec.snapshot())),
        }
    }

    /// [`SimAudit::DirectCanonical`] from a snapshot-level oracle.
    pub fn direct_canonical(
        model: ObservationModel,
        mut view: impl FnMut(&MemSnapshot) -> CanonicalView + 'static,
    ) -> Self {
        SimAudit::DirectCanonical {
            model,
            oracle: Box::new(move |snap: &MemSnapshot| view(snap)),
        }
    }
}

/// The observation model a [`HiLevel`] is audited under: the exact set of
/// configurations at which the level promises canonical memory. `None` for
/// [`HiLevel::NotHi`], which promises nothing.
pub fn model_for(level: HiLevel) -> Option<ObservationModel> {
    match level {
        HiLevel::NotHi => None,
        HiLevel::Quiescent => Some(ObservationModel::Quiescent),
        HiLevel::StateQuiescent => Some(ObservationModel::StateQuiescent),
        HiLevel::Perfect => Some(ObservationModel::Perfect),
    }
}

/// A simulated implementation of an abstract object `(Q, q0, O, R, Δ)`, with
/// a uniform surface for construction metadata and history-independence
/// auditing — the `hi_sim` twin of `hi_api::ConcurrentObject`.
///
/// Every sim step machine in this workspace implements this trait directly
/// (the machine is its own [`SimObject::Machine`]), which is what lets the
/// scenario registry pair each threaded backend with its twin and drive both
/// through one generic checker pair (`hi_api::drive` / [`check_sim_object`])
/// instead of hand-rolling per-scenario workload and oracle glue.
pub trait SimObject<S: ObjectSpec> {
    /// The step machine driven by the executor (usually `Self`).
    type Machine: Implementation<S>;

    /// The object's sequential specification.
    fn spec(&self) -> &S;

    /// The role discipline of this implementation. Must agree with the
    /// threaded twin of the same scenario.
    fn roles(&self) -> Roles;

    /// The history-independence guarantee of this implementation. Must
    /// agree with the threaded twin of the same scenario.
    fn hi_level(&self) -> HiLevel;

    /// The progress guarantee of this implementation — what a crash of some
    /// processes may break for the survivors. Must agree with the threaded
    /// twin of the same scenario; the fault-sweep checker
    /// ([`check_sim_object_faults`](crate::check_sim_object_faults))
    /// enforces it.
    fn progress(&self) -> Progress;

    /// The step machine to execute.
    fn implementation(&self) -> &Self::Machine;

    /// How the [`SimObject::hi_level`] promise is audited. The audit's
    /// observation model must be exactly [`model_for`]`(self.hi_level())`;
    /// [`check_sim_object`] asserts this.
    fn hi_audit(&self) -> SimAudit<S, Self::Machine>;
}

/// How a simulated implementation's memory layout reads: the canonical
/// image of a state, and the state an image decodes to. The threaded world
/// (`hi_api::threaded`) lays the same `init_memory()` out on atomics and
/// audits and decodes its arena through this.
pub trait Layout<S: ObjectSpec> {
    /// The canonical memory image of `state`, or `None` if the
    /// implementation fixes no canonical form ([`HiLevel::NotHi`]).
    fn canonical_image(&self, state: &S::State) -> Option<Vec<u64>>;

    /// The abstract state a memory image decodes to. Only meaningful at the
    /// points the implementation's [`HiLevel`] lets an observer look.
    fn state_of(&self, mem: &[u64]) -> S::State;
}

/// Result of a successful [`check_sim_object`] run. `Eq`, so determinism
/// suites can compare two runs under the same seed verbatim.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SimObjectReport {
    /// Operations in the induced history.
    pub ops: usize,
    /// Total steps taken by the execution.
    pub steps: u64,
    /// Observation points the HI audit examined (0 iff not audited).
    pub hi_points: u64,
    /// Whether an HI audit ran (`false` only for [`SimAudit::LinOnly`]).
    pub audited: bool,
    /// `mem(C)` of the final (quiescent) configuration.
    pub final_snapshot: MemSnapshot,
}

/// The role-mirrored workload of a [`SimObject`] under `seed`: per-role
/// scripts drawn from [`menus_for`] with [`random_script`] — byte-for-byte
/// the generation the threaded driver uses for the twin scenario.
pub fn sim_workload<S: EnumerableSpec>(
    spec: &S,
    roles: Roles,
    ops_per_pid: usize,
    seed: u64,
) -> Workload<S> {
    let menus = menus_for(spec, roles);
    let mut workload = Workload::new(menus.len());
    for (pid, menu) in menus.iter().enumerate() {
        if menu.is_empty() {
            continue; // a role with nothing to do
        }
        for op in random_script(menu, ops_per_pid, handle_seed(seed, pid)) {
            workload.push(pid, op);
        }
    }
    workload
}

/// Drives a [`SimObject`] through a role-mirrored random workload under a
/// seeded scheduler, audits its history-independence promise per
/// [`SimObject::hi_audit`], and checks the induced history linearizes
/// against [`SimObject::spec`] — the simulator half of the registry's
/// generic driver pair. It is the fault-free case of
/// [`run_fault_plan`](crate::run_fault_plan): the same audited run under the
/// empty [`FaultPlan`].
///
/// # Panics
///
/// Panics if the object's metadata is inconsistent: role count ≠ process
/// count, or audit model ≠ [`model_for`] of the declared [`HiLevel`].
///
/// # Errors
///
/// The first failure among: step-budget exhaustion, an HI violation, a
/// vacuous audit (zero observation points), or a non-linearizable history —
/// rendered, so heterogeneous scenarios can surface them uniformly.
pub fn check_sim_object<S, O>(
    obj: &O,
    seed: u64,
    ops_per_pid: usize,
    max_steps: u64,
) -> Result<SimObjectReport, String>
where
    S: EnumerableSpec,
    O: SimObject<S>,
{
    let PlanRun {
        exec, auditor, run, ..
    } = run_plan(obj, &FaultPlan::none(), seed, ops_per_pid, max_steps);
    run.map_err(|e| e.to_string())?;
    let hi_points = auditor.verdict()?;
    linearize(exec.spec(), exec.history(), &LinOptions::default()).map_err(|e| e.to_string())?;
    Ok(SimObjectReport {
        ops: exec.history().records().len(),
        steps: exec.steps(),
        hi_points,
        audited: auditor.audited(),
        final_snapshot: exec.snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hi_core::objects::{MultiRegisterSpec, RegisterOp, RegisterResp};
    use hi_core::Pid;
    use hi_sim::{CellDomain, CellId, Cells, ProcessHandle, SharedMem};

    /// A register whose writer leaks a running write count into a second
    /// cell: linearizable, but history independent at no level. Declared
    /// with a configurable claim so the suite can check both the honest
    /// (`LinOnly`) and the lying (`Monitor`/`DirectCanonical`) paths.
    #[derive(Clone, Debug)]
    struct LeakyRegister {
        spec: MultiRegisterSpec,
        claim: HiLevel,
        direct: bool,
        val: CellId,
        count: CellId,
        mem: SharedMem,
    }

    impl LeakyRegister {
        fn new(k: u64, claim: HiLevel, direct: bool) -> Self {
            let mut mem = SharedMem::new();
            let val = mem.alloc("val", CellDomain::Bounded(k + 1), 1);
            let count = mem.alloc("count", CellDomain::Word, 0);
            LeakyRegister {
                spec: MultiRegisterSpec::new(k, 1),
                claim,
                direct,
                val,
                count,
                mem,
            }
        }
    }

    #[derive(Clone, PartialEq, Eq, Debug)]
    enum Pc {
        Idle,
        Read,
        WriteVal(u64),
        Bump,
    }

    #[derive(Clone, PartialEq, Eq, Debug)]
    struct LeakyProc {
        val: CellId,
        count: CellId,
        writes: u64,
        pc: Pc,
    }

    impl ProcessHandle<MultiRegisterSpec> for LeakyProc {
        fn invoke(&mut self, op: RegisterOp) {
            assert_eq!(self.pc, Pc::Idle);
            self.pc = match op {
                RegisterOp::Read => Pc::Read,
                RegisterOp::Write(v) => Pc::WriteVal(v),
            };
        }

        fn is_idle(&self) -> bool {
            self.pc == Pc::Idle
        }

        fn step<C: Cells>(&mut self, ctx: &mut C) -> Option<RegisterResp> {
            match self.pc.clone() {
                Pc::Idle => panic!("no pending op"),
                Pc::Read => {
                    self.pc = Pc::Idle;
                    Some(RegisterResp::Value(ctx.read(self.val)))
                }
                Pc::WriteVal(v) => {
                    ctx.write(self.val, v);
                    self.pc = Pc::Bump;
                    None
                }
                Pc::Bump => {
                    // The leak: publish how many writes have happened.
                    self.writes += 1;
                    ctx.write(self.count, self.writes);
                    self.pc = Pc::Idle;
                    Some(RegisterResp::Ack)
                }
            }
        }

        fn peeked_cell(&self) -> Option<CellId> {
            match self.pc {
                Pc::Idle => None,
                Pc::Read | Pc::WriteVal(_) => Some(self.val),
                Pc::Bump => Some(self.count),
            }
        }
    }

    impl Implementation<MultiRegisterSpec> for LeakyRegister {
        type Process = LeakyProc;

        fn spec(&self) -> &MultiRegisterSpec {
            &self.spec
        }

        fn num_processes(&self) -> usize {
            2
        }

        fn init_memory(&self) -> SharedMem {
            self.mem.clone()
        }

        fn make_process(&self, _pid: Pid) -> LeakyProc {
            LeakyProc {
                val: self.val,
                count: self.count,
                writes: 0,
                pc: Pc::Idle,
            }
        }
    }

    impl SimObject<MultiRegisterSpec> for LeakyRegister {
        type Machine = Self;

        fn spec(&self) -> &MultiRegisterSpec {
            &self.spec
        }

        fn roles(&self) -> Roles {
            Roles::SingleWriterSingleReader
        }

        fn hi_level(&self) -> HiLevel {
            self.claim
        }

        fn progress(&self) -> Progress {
            Progress::WaitFree
        }

        fn implementation(&self) -> &Self {
            self
        }

        fn hi_audit(&self) -> SimAudit<MultiRegisterSpec, Self> {
            let Some(model) = model_for(self.claim) else {
                return SimAudit::LinOnly;
            };
            if self.direct {
                let (val, count) = (self.val, self.count);
                SimAudit::direct_canonical(model, move |snap: &MemSnapshot| CanonicalView {
                    observed: snap.clone(),
                    // The canonical form fixes count = 0; the leak never
                    // restores it, so any audited point after a write fails.
                    canonical: vec![snap[val.0], 0],
                    state: format!("{} (count cell {})", snap[val.0], snap[count.0]),
                })
            } else {
                SimAudit::single_mutator(model, self.spec)
            }
        }
    }

    /// Enough operations that the two-valued writer repeats a value, so the
    /// monitor sees one state with two different count cells.
    const OPS: usize = 20;

    #[test]
    fn honest_leaky_register_passes_lin_only() {
        let obj = LeakyRegister::new(2, HiLevel::NotHi, false);
        let report = check_sim_object(&obj, 11, OPS, 100_000).unwrap();
        assert!(!report.audited);
        assert_eq!(report.hi_points, 0);
    }

    /// Runs `obj` through every lane that takes a [`SimObject`] — seeded,
    /// fault plan (empty and with a reader crash) and exhaustive — and
    /// asserts each fails with an error naming `expected`.
    fn assert_every_lane_fails(obj: &LeakyRegister, expected: &str) {
        let faults = crate::FaultSweepConfig::new(11, OPS, 100_000);
        let lanes = [
            ("seeded", check_sim_object(obj, 11, OPS, 100_000).map(drop)),
            (
                "empty plan",
                crate::run_fault_plan(obj, &FaultPlan::none(), &faults, 100_000).map(drop),
            ),
            (
                "crash plan",
                crate::run_fault_plan(obj, &FaultPlan::crash(Pid(1), 3), &faults, 100_000)
                    .map(drop),
            ),
            (
                "exhaustive",
                crate::check_sim_object_exhaustive(obj, &crate::ExhaustiveConfig::new(11, 2))
                    .map(drop),
            ),
        ];
        for (lane, result) in lanes {
            let err = result.expect_err(lane);
            assert!(
                err.contains(expected),
                "{lane}: expected {expected:?}, got: {err}"
            );
        }
    }

    #[test]
    fn monitor_audit_catches_the_leak() {
        let obj = LeakyRegister::new(2, HiLevel::StateQuiescent, false);
        assert_every_lane_fails(&obj, "observed with two memory representations");
    }

    #[test]
    fn direct_canonical_audit_catches_the_leak() {
        let obj = LeakyRegister::new(2, HiLevel::StateQuiescent, true);
        assert_every_lane_fails(&obj, "is not the canonical representation");
    }

    #[test]
    fn check_run_catches_the_leak() {
        // `check_run` audits through a state oracle only, so this is the
        // monitor control; its violation stays typed.
        let obj = LeakyRegister::new(2, HiLevel::StateQuiescent, false);
        let workload = sim_workload(&obj.spec, obj.roles(), OPS, 11);
        let err = crate::check_run_single_mutator(
            &obj,
            workload,
            &mut hi_sim::Seeded::new(11),
            ObservationModel::StateQuiescent,
            100_000,
        )
        .unwrap_err();
        let crate::CheckError::Hi(v) = err else {
            panic!("expected an HI violation, got: {err}");
        };
        assert!(v
            .to_string()
            .contains("observed with two memory representations"));
    }

    #[test]
    #[should_panic(expected = "does not match the declared HI level")]
    fn mismatched_audit_model_is_rejected() {
        #[derive(Clone, Debug)]
        struct Mismatched(LeakyRegister);
        impl SimObject<MultiRegisterSpec> for Mismatched {
            type Machine = LeakyRegister;
            fn spec(&self) -> &MultiRegisterSpec {
                &self.0.spec
            }
            fn roles(&self) -> Roles {
                Roles::SingleWriterSingleReader
            }
            fn hi_level(&self) -> HiLevel {
                HiLevel::Perfect
            }
            fn progress(&self) -> Progress {
                Progress::WaitFree
            }
            fn implementation(&self) -> &LeakyRegister {
                &self.0
            }
            fn hi_audit(&self) -> SimAudit<MultiRegisterSpec, LeakyRegister> {
                SimAudit::LinOnly // claims Perfect but audits nothing
            }
        }
        let obj = Mismatched(LeakyRegister::new(2, HiLevel::Perfect, false));
        let _ = check_sim_object(&obj, 1, 4, 10_000);
    }
}
