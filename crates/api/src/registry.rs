//! A registry of named object×spec scenarios, each declared **once** from
//! shared data and drivable in both worlds: the threaded backend through
//! the unified [`ConcurrentObject`] facade and the simulator twin through
//! [`hi_spec::SimObject`].
//!
//! Every [`Scenario`] is built by one generic constructor ([`Scenario::of`])
//! from a name, a description and the two constructors; the threaded run,
//! the sim check and the throughput run all derive from the same generic
//! driver pair ([`crate::drive`] / [`hi_spec::check_sim_object`]) and the
//! same role-aware workload generation ([`hi_core::menus_for`]), so the two
//! worlds are workload-mirrored *by construction* — there is no per-family
//! driver or menu glue to keep in sync. Adding a workload is one registry
//! entry, not a new test file.

use hi_core::objects::{
    BoundedQueueSpec, CounterSpec, HashSetSpec, MaxRegisterSpec, MultiRegisterSpec, SetSpec,
};
use hi_core::{EnumerableSpec, HiLevel, Progress, Roles};
use hi_llsc::{RLlscSpec, SimRLlsc};
use hi_queue::PositionalQueue;
use hi_registers::{
    HiSet, LockFreeHiRegister, MaxRegister, VidyasankarRegister, WaitFreeHiRegister,
};
use hi_shard::SimShardedTable;
use hi_sim::{render_lanes, run_workload, Executor, Seeded};
use hi_spec::{
    check_sim_object, check_sim_object_exhaustive, check_sim_object_faults, sim_workload,
    ExhaustiveConfig, ExhaustiveReport, FaultSweepConfig, FaultSweepReport, SimObject,
    SimObjectReport,
};
use hi_universal::SimUniversal;

use crate::adapters::{
    HashTableObject, HiSetObject, LlscObject, LockFreeHiObject, MaxRegisterObject, QueueObject,
    ShardedTableObject, UniversalObject, VidyasankarObject, WaitFreeHiObject,
};
use crate::drive::{drive_watchdogged, throughput, DriveConfig, DriveError};
use crate::object::ConcurrentObject;

/// Step budget of the simulator twins (generous: the seeded scheduler must
/// get every lock-free retry loop through a bounded workload).
const SIM_MAX_STEPS: u64 = 2_000_000;

/// Transition cap of the sim-twin diagnostic rendered when a threaded run
/// wedges: enough lanes to see the shape of the schedule without drowning
/// the failure message.
const DIAGNOSE_TRANSITIONS: u64 = 120;

/// The one-line reproduction command printed with every seeded
/// conformance/fault-check failure. The vendored proptest stand-in does no
/// shrinking, so replaying the seed is the debugging path.
pub fn repro_command(test: &str, seed: u64) -> String {
    format!("HI_CONFORMANCE_SEED={seed} cargo test --test {test}")
}

/// Summary of one threaded scenario run, monomorphic so the registry can be
/// iterated without knowing each scenario's spec types.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ScenarioReport {
    /// Completed operations across all handles.
    pub ops: usize,
    /// Whether the quiescent memory audit ran (false only for non-HI
    /// backends).
    pub audited: bool,
}

/// The uniform metadata of one world of a scenario, surfaced so suites can
/// assert the threaded backend and the sim twin implement the *same*
/// abstract object under the same discipline without running either.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScenarioMeta {
    /// The role discipline.
    pub roles: Roles,
    /// The history-independence guarantee.
    pub hi_level: HiLevel,
    /// The progress guarantee — what the fault checker lets a crash break.
    pub progress: Progress,
    /// Rendered spec parameters (the `Debug` form of the `ObjectSpec`).
    pub params: String,
    /// The adapter's Rust type, for registry-completeness suites.
    pub adapter: &'static str,
}

/// The monomorphic threaded driver of a scenario (captures only the entry's
/// constructor, a fn pointer).
type ThreadedDriver = Box<dyn Fn(&DriveConfig) -> Result<ScenarioReport, String> + Send + Sync>;
/// The monomorphic sim driver of a scenario.
type SimDriver = Box<dyn Fn(u64, usize) -> Result<SimObjectReport, String> + Send + Sync>;
/// The monomorphic throughput runner of a scenario.
type ThroughputDriver = Box<dyn Fn(usize, u64) -> usize + Send + Sync>;
/// The monomorphic fault-sweep driver of a scenario (crash/stall plans over
/// the simulator twin).
type FaultDriver = Box<dyn Fn(u64, usize) -> Result<FaultSweepReport, String> + Send + Sync>;
/// The monomorphic exhaustive-certification driver of a scenario (the
/// schedule-space model checker over the downsized sim instance).
type ExhaustiveDriver =
    Box<dyn Fn(&ExhaustiveConfig) -> Result<ExhaustiveReport, String> + Send + Sync>;

/// A named object×spec configuration: a threaded backend behind
/// [`ConcurrentObject`] plus its simulator twin behind
/// [`hi_spec::SimObject`], declared once from shared data.
pub struct Scenario {
    /// Stable name, `family/variant` style (e.g. `"register/waitfree-hi-k5"`).
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    threaded_meta: ScenarioMeta,
    sim_meta: ScenarioMeta,
    small_params: String,
    threaded: ThreadedDriver,
    sim: SimDriver,
    throughput: ThroughputDriver,
    fault: FaultDriver,
    exhaustive: ExhaustiveDriver,
}

impl Scenario {
    /// Declares a scenario from its shared data: the two worlds'
    /// constructors, plus a *downsized* sim instance (`small_sim`, same
    /// machine type at exhaustively explorable parameters — t ≤ 3, n ≤ 2)
    /// for the schedule-space model checker. Everything else — workloads,
    /// oracles, menus, checks, metadata — derives generically.
    pub fn of<S, T, M>(
        name: &'static str,
        about: &'static str,
        threaded: fn() -> T,
        sim: fn() -> M,
        small_sim: fn() -> M,
    ) -> Scenario
    where
        S: EnumerableSpec + 'static,
        S::Op: Send,
        S::Resp: Send,
        S::State: Send,
        T: ConcurrentObject<S> + 'static,
        M: SimObject<S> + 'static,
    {
        let threaded_meta = {
            let obj = threaded();
            ScenarioMeta {
                roles: obj.roles(),
                hi_level: obj.hi_level(),
                progress: obj.progress(),
                params: format!("{:?}", obj.spec()),
                adapter: std::any::type_name::<T>(),
            }
        };
        let sim_meta = {
            let obj = sim();
            ScenarioMeta {
                roles: obj.roles(),
                hi_level: obj.hi_level(),
                progress: obj.progress(),
                params: format!("{:?}", SimObject::spec(&obj)),
                adapter: std::any::type_name::<M>(),
            }
        };
        let small_params = format!("{:?}", SimObject::spec(&small_sim()));
        Scenario {
            name,
            about,
            threaded_meta,
            sim_meta,
            small_params,
            threaded: Box::new(move |cfg| {
                // Watchdogged: a wedged backend resolves to a structured
                // error within cfg.deadline instead of hanging the suite;
                // the sim twin's lane rendering is appended as the mid-run
                // diagnostic the leaked threaded object cannot give.
                match drive_watchdogged(threaded, cfg) {
                    Ok(report) => Ok(ScenarioReport {
                        ops: report.history.records().len(),
                        audited: report.audited,
                    }),
                    Err(e) => {
                        let mut msg = e.to_string();
                        if matches!(e, DriveError::Wedged { .. }) {
                            msg.push_str("\nsim twin under the same seed:\n");
                            msg.push_str(&diagnose_sim(sim, cfg.seed, cfg.ops_per_handle));
                        }
                        Err(msg)
                    }
                }
            }),
            sim: Box::new(move |seed, ops_per_pid| {
                check_sim_object(&sim(), seed, ops_per_pid, SIM_MAX_STEPS)
            }),
            throughput: Box::new(move |ops, seed| throughput(&mut threaded(), ops, seed)),
            fault: Box::new(move |seed, ops_per_pid| {
                check_sim_object_faults(
                    &sim(),
                    &FaultSweepConfig::new(seed, ops_per_pid, SIM_MAX_STEPS),
                )
            }),
            exhaustive: Box::new(move |cfg| check_sim_object_exhaustive(&small_sim(), cfg)),
        }
    }

    /// The role discipline of the scenario (as declared by the threaded
    /// adapter; the conformance suite asserts the sim twin agrees).
    pub fn roles(&self) -> Roles {
        self.threaded_meta.roles
    }

    /// The history-independence guarantee of the scenario (as declared by
    /// the threaded adapter; the conformance suite asserts the sim twin
    /// agrees).
    pub fn hi_level(&self) -> HiLevel {
        self.threaded_meta.hi_level
    }

    /// The progress guarantee of the scenario (as declared by the threaded
    /// adapter; the conformance suite asserts the sim twin agrees).
    pub fn progress(&self) -> Progress {
        self.threaded_meta.progress
    }

    /// Rendered spec parameters of the scenario.
    pub fn params(&self) -> &str {
        &self.threaded_meta.params
    }

    /// The threaded world's metadata.
    pub fn threaded_meta(&self) -> &ScenarioMeta {
        &self.threaded_meta
    }

    /// The sim world's metadata.
    pub fn sim_meta(&self) -> &ScenarioMeta {
        &self.sim_meta
    }

    /// Drives the threaded backend through [`drive`]: random role-aware
    /// workload, linearizability check, quiescent memory audit.
    ///
    /// # Errors
    ///
    /// The rendered [`crate::drive::DriveError`], if any.
    pub fn run_threaded(&self, cfg: &DriveConfig) -> Result<ScenarioReport, String> {
        (self.threaded)(cfg)
    }

    /// Runs the simulator twin through [`check_sim_object`] on the mirrored
    /// workload under a seeded scheduler: HI audit per the twin's declared
    /// [`SimAudit`](hi_spec::SimAudit) strategy, then linearizability
    /// against the same spec.
    ///
    /// # Errors
    ///
    /// The rendered check failure, if any.
    pub fn check_sim(&self, seed: u64, ops_per_pid: usize) -> Result<SimObjectReport, String> {
        (self.sim)(seed, ops_per_pid)
    }

    /// Pure throughput run of the threaded backend (no history, no checks):
    /// applies `ops_per_handle` operations per handle and returns the number
    /// completed. The unit the `api_throughput` bench measures.
    pub fn run_throughput(&self, ops_per_handle: usize, seed: u64) -> usize {
        (self.throughput)(ops_per_handle, seed)
    }

    /// Rendered spec parameters of the downsized exhaustive instance.
    pub fn small_params(&self) -> &str {
        &self.small_params
    }

    /// Exhaustively certifies the scenario's *downsized* sim instance with
    /// the schedule-space model checker
    /// ([`hi_spec::check_sim_object_exhaustive`]): every schedule of a
    /// small role-mirrored workload, HI-audited at every reachable
    /// permitted configuration and linearized at every distinct maximal
    /// path, with partial-order reduction and configuration dedup doing
    /// the heavy lifting.
    ///
    /// # Errors
    ///
    /// The rendered certification failure, if any.
    pub fn check_exhaustive(&self, cfg: &ExhaustiveConfig) -> Result<ExhaustiveReport, String> {
        (self.exhaustive)(cfg)
    }

    /// Runs the crash/stall sweep ([`hi_spec::check_sim_object_faults`])
    /// over the simulator twin: every role crashed at sampled points of its
    /// own transition count, every role as the sole survivor, every role
    /// stalled mid-run — with the declared [`Progress`] class enforced and
    /// the HI audit re-run at the post-crash observation points.
    ///
    /// # Errors
    ///
    /// The rendered sweep failure, if any.
    pub fn run_fault_sweep(
        &self,
        seed: u64,
        ops_per_pid: usize,
    ) -> Result<FaultSweepReport, String> {
        (self.fault)(seed, ops_per_pid)
    }
}

/// Renders a bounded sim-twin run as the diagnostic attached to a wedged
/// threaded drive: the per-process lanes of the first transitions under the
/// same seed, plus the final sim memory.
fn diagnose_sim<S, M>(sim: fn() -> M, seed: u64, ops_per_pid: usize) -> String
where
    S: EnumerableSpec,
    M: SimObject<S>,
{
    let obj = sim();
    let n = obj.roles().num_handles();
    let mut exec = Executor::new(obj.implementation().clone());
    exec.enable_trace();
    let workload = sim_workload(SimObject::spec(&obj), obj.roles(), ops_per_pid, seed);
    let mut sched = Seeded::new(seed);
    let mut out = String::new();
    match run_workload(
        &mut exec,
        workload,
        &mut sched,
        &mut (),
        DIAGNOSE_TRANSITIONS,
    ) {
        Ok(()) => out.push_str("sim twin drained the mirrored workload under this seed\n"),
        Err(e) => out.push_str(&format!(
            "sim twin stopped after {DIAGNOSE_TRANSITIONS} transitions ({e})\n"
        )),
    }
    if let Some(trace) = exec.trace() {
        out.push_str(&render_lanes(trace, exec.mem(), n));
    }
    out.push_str(&format!("\nfinal sim memory: {:?}", exec.snapshot()));
    out
}

// ---------------------------------------------------------------------------
// Scenario parameters (shared by both worlds of each entry).
// ---------------------------------------------------------------------------

const REG_K: u64 = 5;
const QUEUE_T: u32 = 3;
const QUEUE_CAP: usize = 6;
const LLSC_V: u64 = 8;
const LLSC_N: usize = 3;
const COUNTER_N: usize = 3;
const UREG_K: u64 = 4;
const UREG_N: usize = 2;
const UQUEUE_T: u32 = 3;
const UQUEUE_CAP: usize = 4;
const UQUEUE_N: usize = 3;
const MAXREG_K: u64 = 6;
const SET_T: u32 = 6;
const SET_N: usize = 3;
const HT_T: u32 = 8;
const HT_CAP: usize = 13;
const HT_N: usize = 3;
const HT_DENSE_T: u32 = 6;
const HT_DENSE_CAP: usize = 8;
const HT_DENSE_N: usize = 2;
const SHARD_T: u32 = 8;
const SHARD_S: usize = 4;
const SHARD_BASE: usize = 2;
const SHARD_N: usize = 3;

// Downsized parameters of the exhaustive (model-checked) instances: value
// domains of 2–3 and at most two processes keep every scenario's full
// schedule space within the explorer's budget while still exercising the
// algorithms' real interleavings (overwrites, duplicate rewrites, failed
// CAS retries, helping).
const SMALL_REG_K: u64 = 2;
const SMALL_QUEUE_T: u32 = 2;
const SMALL_QUEUE_CAP: usize = 2;
const SMALL_LLSC_V: u64 = 2;
const SMALL_LLSC_N: usize = 2;
const SMALL_U_N: usize = 2;
const SMALL_UREG_K: u64 = 2;
const SMALL_MAXREG_K: u64 = 2;
const SMALL_SET_T: u32 = 2;
const SMALL_SET_N: usize = 2;
const SMALL_HT_T: u32 = 2;
const SMALL_HT_CAP: usize = 5;
const SMALL_HT_N: usize = 2;
const SMALL_HT_DENSE_T: u32 = 3;
const SMALL_HT_DENSE_CAP: usize = 4;
// base = 1 forces the very first insert into a shard across a capacity
// boundary, so even the model checker's two-op workloads certify a resize.
const SMALL_SHARD_T: u32 = 3;
const SMALL_SHARD_S: usize = 2;
const SMALL_SHARD_BASE: usize = 1;
const SMALL_SHARD_N: usize = 2;

fn reg_spec() -> MultiRegisterSpec {
    MultiRegisterSpec::new(REG_K, 1)
}

fn queue_spec() -> BoundedQueueSpec {
    BoundedQueueSpec::new(QUEUE_T, QUEUE_CAP)
}

fn llsc_spec() -> RLlscSpec {
    RLlscSpec::new(LLSC_V, 0, LLSC_N)
}

fn counter_spec() -> CounterSpec {
    CounterSpec::new(-300, 300, 0)
}

fn small_counter_spec() -> CounterSpec {
    CounterSpec::new(-2, 2, 0)
}

// ---------------------------------------------------------------------------
// The registry.
// ---------------------------------------------------------------------------

/// All registered scenarios. Every threaded backend in the workspace is
/// represented, each next to its simulator twin; conformance tests, stress
/// tests and the throughput bench iterate this list instead of hand-writing
/// per-object drivers.
pub fn registry() -> Vec<Scenario> {
    vec![
        Scenario::of(
            "register/vidyasankar-k5",
            "Algorithm 1: wait-free SWSR register, linearizable, not HI",
            || VidyasankarObject::new(reg_spec()),
            || VidyasankarRegister::new(REG_K, 1),
            || VidyasankarRegister::new(SMALL_REG_K, 1),
        ),
        Scenario::of(
            "register/lockfree-hi-k5",
            "Algorithms 2+3: state-quiescent HI SWSR register, reader lock-free",
            || LockFreeHiObject::new(reg_spec()),
            || LockFreeHiRegister::new(REG_K, 1),
            || LockFreeHiRegister::new(SMALL_REG_K, 1),
        ),
        Scenario::of(
            "register/waitfree-hi-k5",
            "Algorithm 4: quiescent HI SWSR register, wait-free",
            || WaitFreeHiObject::new(reg_spec()),
            || WaitFreeHiRegister::new(REG_K, 1),
            || WaitFreeHiRegister::new(SMALL_REG_K, 1),
        ),
        Scenario::of(
            "queue/positional-t3",
            "§5.4 companion: state-quiescent HI queue with lock-free Peek",
            || QueueObject::new(queue_spec()),
            || PositionalQueue::new(QUEUE_T, QUEUE_CAP),
            || PositionalQueue::new(SMALL_QUEUE_T, SMALL_QUEUE_CAP),
        ),
        Scenario::of(
            "register/max-k6",
            "§5.1 max register: wait-free, state-quiescent HI outside C_t",
            || MaxRegisterObject::new(MaxRegisterSpec::new(MAXREG_K)),
            || MaxRegister::new(MAXREG_K),
            || MaxRegister::new(SMALL_MAXREG_K),
        ),
        Scenario::of(
            "set/hi-t6-n3",
            "§5.1 set: one primitive per op, perfect HI, every role symmetric",
            || HiSetObject::new(SetSpec::new(SET_T), SET_N),
            || HiSet::new(SET_T, SET_N),
            || HiSet::new(SMALL_SET_T, SMALL_SET_N),
        ),
        Scenario::of(
            "hashtable/robinhood-t8-n3",
            "follow-up paper direction: phase-free Robin Hood HI hash table",
            || HashTableObject::new(HashSetSpec::new(HT_T), HT_CAP, HT_N),
            || SimShardedTable::new(HT_T, 1, HT_CAP, HT_N),
            || SimShardedTable::new(SMALL_HT_T, 1, SMALL_HT_CAP, SMALL_HT_N),
        ),
        Scenario::of(
            "hashtable/robinhood-dense-t6-n2",
            "the same table at 0.75 max load factor: long probe chains, heavy shifting",
            || HashTableObject::new(HashSetSpec::new(HT_DENSE_T), HT_DENSE_CAP, HT_DENSE_N),
            || SimShardedTable::new(HT_DENSE_T, 1, HT_DENSE_CAP, HT_DENSE_N),
            || SimShardedTable::new(SMALL_HT_DENSE_T, 1, SMALL_HT_DENSE_CAP, SMALL_HT_N),
        ),
        Scenario::of(
            "hashtable/sharded-s4-t8",
            "scale-out: sharded table-of-tables with online capacity-changing resize",
            || ShardedTableObject::new(HashSetSpec::new(SHARD_T), SHARD_S, SHARD_BASE, SHARD_N),
            || SimShardedTable::new(SHARD_T, SHARD_S, SHARD_BASE, SHARD_N),
            || {
                SimShardedTable::new(
                    SMALL_SHARD_T,
                    SMALL_SHARD_S,
                    SMALL_SHARD_BASE,
                    SMALL_SHARD_N,
                )
            },
        ),
        Scenario::of(
            "llsc/packed-v8-n3",
            "Algorithm 6: releasable LL/SC on one word, perfect HI",
            || LlscObject::new(llsc_spec()),
            || SimRLlsc::new(LLSC_V, 0, LLSC_N),
            || SimRLlsc::new(SMALL_LLSC_V, 0, SMALL_LLSC_N),
        ),
        Scenario::of(
            "universal/counter-n3",
            "Algorithm 5 over a bounded counter: wait-free, state-quiescent HI",
            || UniversalObject::new(counter_spec(), COUNTER_N),
            || SimUniversal::new(counter_spec(), COUNTER_N),
            || SimUniversal::new(small_counter_spec(), SMALL_U_N),
        ),
        Scenario::of(
            "universal/register-k4-n2",
            "Algorithm 5 over a multi-valued register (multi-writer, unlike §4)",
            || UniversalObject::new(MultiRegisterSpec::new(UREG_K, 1), UREG_N),
            || SimUniversal::new(MultiRegisterSpec::new(UREG_K, 1), UREG_N),
            || SimUniversal::new(MultiRegisterSpec::new(SMALL_UREG_K, 1), SMALL_U_N),
        ),
        Scenario::of(
            "universal/queue-t3-n3",
            "Algorithm 5 over the bounded queue: every role symmetric",
            || UniversalObject::new(BoundedQueueSpec::new(UQUEUE_T, UQUEUE_CAP), UQUEUE_N),
            || SimUniversal::new(BoundedQueueSpec::new(UQUEUE_T, UQUEUE_CAP), UQUEUE_N),
            || {
                SimUniversal::new(
                    BoundedQueueSpec::new(SMALL_QUEUE_T, SMALL_QUEUE_CAP),
                    SMALL_U_N,
                )
            },
        ),
        Scenario::of(
            "universal/counter-no-release",
            "§6.1 ablation: Algorithm 5 without RL — linearizable but not HI",
            || UniversalObject::without_release(counter_spec(), COUNTER_N),
            || SimUniversal::without_release(counter_spec(), COUNTER_N),
            || SimUniversal::without_release(small_counter_spec(), SMALL_U_N),
        ),
    ]
}

/// Looks up a scenario by name.
pub fn scenario(name: &str) -> Option<Scenario> {
    registry().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hi_shard::cap_for;

    #[test]
    fn robinhood_sim_twins_never_migrate() {
        // The robinhood entries model the fixed-capacity table as a
        // one-shard sim at its base capacity. Every instance, the downsized
        // ones only the model checker runs included, must keep its whole
        // domain under the 3/4 load bound, so the twin never takes a
        // capacity-changing path the threaded adapter cannot.
        for (t, cap) in [
            (HT_T, HT_CAP),
            (HT_DENSE_T, HT_DENSE_CAP),
            (SMALL_HT_T, SMALL_HT_CAP),
            (SMALL_HT_DENSE_T, SMALL_HT_DENSE_CAP),
        ] {
            assert_eq!(cap_for(t as usize, cap), cap, "t = {t}, capacity {cap}");
        }
    }
}
