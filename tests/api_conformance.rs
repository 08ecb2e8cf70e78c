//! Cross-backend conformance: every scenario in `hi_api::registry()` is run
//! through the generic threaded driver (`hi_api::drive`) *and* its simulator
//! twin (`hi_spec::check_sim_object`), and both must linearize against the
//! same `ObjectSpec` — with the HI audit wherever the implementation
//! promises a canonical form.
//!
//! New object×spec workloads get covered by adding a registry entry, not a
//! new test. The suite also enforces the dual-world contract itself: the
//! threaded adapter and the sim adapter of every entry must agree on role
//! discipline, HI level, progress class and spec parameters, every adapter
//! exported from
//! `hi_api::adapters` must appear in the registry, and `check_sim` must be
//! deterministic under a fixed seed.
//!
//! Set `HI_CONFORMANCE_SEED=<u64>` to add one more seed to every loop — the
//! CI seed matrix drives this.

use hi_concurrent::api::{registry, repro_command, DriveConfig, HiLevel, Roles};
use hi_concurrent::api::{ConcurrentObject, ObjectHandle};

/// Base seeds exercised per scenario (each seed changes both the workload
/// and the sim schedule), extended by `HI_CONFORMANCE_SEED` if set.
fn seeds() -> Vec<u64> {
    let mut seeds = vec![7, 0xfeed_beef];
    if let Ok(raw) = std::env::var("HI_CONFORMANCE_SEED") {
        // Panic rather than skip: a CI matrix job whose seed does not parse
        // must fail loudly, not silently rerun the base seeds.
        let extra: u64 = raw
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("HI_CONFORMANCE_SEED={raw:?} is not a u64: {e}"));
        if !seeds.contains(&extra) {
            seeds.push(extra);
        }
    }
    seeds
}

/// Operations per handle. Small enough that the Wing–Gong search settles
/// every history quickly, large enough to mix roles thoroughly.
const OPS: usize = 60;

#[test]
fn every_registry_entry_drives_threaded_and_sim() {
    for scenario in registry() {
        for seed in seeds() {
            let cfg = DriveConfig {
                ops_per_handle: OPS,
                seed,
                ..DriveConfig::default()
            };
            let report = scenario.run_threaded(&cfg).unwrap_or_else(|e| {
                panic!(
                    "{} (threaded, seed {seed}): {e}\n  repro: {}",
                    scenario.name,
                    repro_command("api_conformance", seed)
                )
            });
            assert!(
                report.ops > 0,
                "{} (threaded, seed {seed}): no operations completed",
                scenario.name
            );
            let sim = scenario.check_sim(seed, OPS / 2).unwrap_or_else(|e| {
                panic!(
                    "{} (sim, seed {seed}): {e}\n  repro: {}",
                    scenario.name,
                    repro_command("api_conformance", seed)
                )
            });
            assert!(
                sim.ops > 0,
                "{} (sim, seed {seed}): no operations completed",
                scenario.name
            );
            assert_eq!(
                sim.audited,
                scenario.hi_level().auditable(),
                "{} (sim, seed {seed}): audit ran iff the level promises one",
                scenario.name
            );
            if seed == PINNED_SEED {
                let pinned = SIM_PINNED
                    .iter()
                    .find(|p| p.0 == scenario.name)
                    .unwrap_or_else(|| panic!("{}: no sim pin", scenario.name));
                let got = (
                    sim.ops,
                    sim.steps,
                    sim.hi_points,
                    fnv(&sim.final_snapshot),
                    sim.audit_digest.0,
                );
                assert_eq!(
                    got,
                    (pinned.1, pinned.2, pinned.3, pinned.4, pinned.5),
                    "{} (sim, seed {seed}): (ops, steps, hi_points, final memory digest, \
                     audited-point digest) moved",
                    scenario.name
                );
            }
        }
    }
}

/// The seed at which every scenario's seeded sim run is pinned.
const PINNED_SEED: u64 = 7;

/// Each scenario's seeded sim run at [`PINNED_SEED`] with `OPS / 2`
/// operations per role: (name, ops, steps, hi_points, FNV-1a digest of the
/// final memory, `audit_digest` of the audited (state, memory) points). The
/// run's schedule, audit and memory are a pure function of the seed, so a
/// change to the runner, the auditor or a step machine that alters any of
/// them shows up here as a reviewed diff.
#[rustfmt::skip]
const SIM_PINNED: [(&str, usize, u64, u64, u64, u128); 14] = [
    ("register/vidyasankar-k5",         60,  223,   0,   0xc1355c4b89130bc5, 0x6c62272e07bb014262b821756295c58d),
    ("register/lockfree-hi-k5",         60,  290,   66,  0xa23a95427e23c1a4, 0x08ad4851d328d41bd5f3738178c2f005),
    ("register/waitfree-hi-k5",         60,  792,   6,   0x1afb549d9954d924, 0xa758347e3689160e6d7c3e7cc94c2cd9),
    ("queue/positional-t3",             60,  194,   53,  0x57753145a6dcb125, 0x28354f82804b72dd04dbd4c9e455ce5f),
    ("register/max-k6",                 60,  345,   324, 0x81a2cd5111e98cc4, 0xce8219c26ea3b869ccfc53cec2710f2a),
    ("set/hi-t6-n3",                    90,  90,    180, 0x98f0b2276a5e36a5, 0x7c7eace5a17c12b86d39a68b7052f237),
    ("hashtable/robinhood-t8-n3",       90,  2_290, 104, 0xee2be913de754643, 0xa528a6fcd1576fce4600a0d724761aef),
    ("hashtable/robinhood-dense-t6-n2", 60,  797,   127, 0xaf20df65f839b170, 0xe89e4b9566c41e8b90adbbe3d2a8911b),
    ("hashtable/sharded-s4-t8",         90,  936,   36,  0x71742b2c6a650f2e, 0x1aa5aa236cc8bcb5a8536e2a86707d70),
    ("llsc/packed-v8-n3",               90,  100,   190, 0xd669f6d4eced7017, 0x9b6caca587a0b831288f6ecd5d9ff73a),
    ("universal/counter-n3",            90,  2_169, 14,  0x7082f12f8bef4111, 0x7a9c9c8ab14dcb5a30425f14fecd70cd),
    ("universal/register-k4-n2",        60,  2_014, 3,   0xa879e912bda60d66, 0x13a03f73fc04b9798fbd1185a1073b3c),
    ("universal/queue-t3-n3",           90,  3_440, 4,   0x273d8ef97c5a382a, 0x705d122345b4d614750350dd24e44f13),
    ("universal/counter-no-release",    90,  2_281, 0,   0x7082f12f8bef4111, 0x6c62272e07bb014262b821756295c58d),
];

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn threaded_and_sim_worlds_agree_on_every_contract() {
    // The dual-world contract: each entry is one abstract object, so its
    // two adapters must declare the same role discipline, the same HI
    // guarantee and the same spec parameters — asserted here, not assumed.
    for scenario in registry() {
        let t = scenario.threaded_meta();
        let s = scenario.sim_meta();
        assert_eq!(
            t.roles, s.roles,
            "{}: threaded and sim roles disagree",
            scenario.name
        );
        assert_eq!(
            t.hi_level, s.hi_level,
            "{}: threaded and sim HI levels disagree",
            scenario.name
        );
        assert_eq!(
            t.progress, s.progress,
            "{}: threaded and sim progress classes disagree",
            scenario.name
        );
        assert_eq!(
            t.params, s.params,
            "{}: threaded and sim specs disagree",
            scenario.name
        );
        // And the scenario-level accessors surface the (agreed) metadata.
        assert_eq!(scenario.roles(), t.roles);
        assert_eq!(scenario.hi_level(), t.hi_level);
        assert_eq!(scenario.progress(), t.progress);
        assert_eq!(scenario.params(), t.params);
        assert!(
            !scenario.params().is_empty(),
            "{}: parameter summary is empty",
            scenario.name
        );
    }
}

#[test]
fn every_exported_adapter_appears_in_the_registry() {
    // Registry completeness: every adapter type exported from
    // `hi_api::adapters` (and every sim machine with a SimObject impl)
    // backs at least one entry, so nothing is drivable-but-unregistered.
    let threaded: Vec<&str> = registry()
        .iter()
        .map(|s| s.threaded_meta().adapter)
        .collect();
    for adapter in [
        "VidyasankarObject",
        "LockFreeHiObject",
        "WaitFreeHiObject",
        "QueueObject",
        "MaxRegisterObject",
        "HiSetObject",
        "HashTableObject",
        "ShardedTableObject",
        "LlscObject",
        "UniversalObject",
    ] {
        assert!(
            threaded.iter().any(|t| t.contains(adapter)),
            "no registry entry uses threaded adapter {adapter}: {threaded:?}"
        );
    }
    let sims: Vec<&str> = registry().iter().map(|s| s.sim_meta().adapter).collect();
    for machine in [
        "VidyasankarRegister",
        "LockFreeHiRegister",
        "WaitFreeHiRegister",
        "PositionalQueue",
        "MaxRegister",
        "HiSet",
        "SimShardedTable",
        "SimRLlsc",
        "SimUniversal",
    ] {
        assert!(
            sims.iter().any(|s| s.contains(machine)),
            "no registry entry uses sim machine {machine}: {sims:?}"
        );
    }
}

#[test]
fn check_sim_is_deterministic_per_seed() {
    // The sim twin is a deterministic function of the seed: same seed, same
    // schedule, same history, same audit — byte-for-byte equal reports.
    for seed in [3u64, 41, 0xdead_cafe] {
        for scenario in registry() {
            let a = scenario
                .check_sim(seed, OPS / 3)
                .unwrap_or_else(|e| panic!("{} (seed {seed}): {e}", scenario.name));
            let b = scenario
                .check_sim(seed, OPS / 3)
                .unwrap_or_else(|e| panic!("{} (seed {seed}, rerun): {e}", scenario.name));
            assert_eq!(
                a, b,
                "{} (seed {seed}): two runs under the same seed diverged",
                scenario.name
            );
        }
    }
}

#[test]
fn audited_scenarios_match_their_hi_promise() {
    // The registry carries both HI and deliberately non-HI entries; the
    // driver must audit exactly the ones that fix a canonical form.
    let cfg = DriveConfig {
        ops_per_handle: 40,
        seed: 3,
        ..DriveConfig::default()
    };
    let mut audited = 0;
    let mut unaudited = Vec::new();
    for scenario in registry() {
        let report = scenario
            .run_threaded(&cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        assert_eq!(
            report.audited,
            scenario.hi_level().auditable(),
            "{}: surfaced HI level must predict the audit",
            scenario.name
        );
        if report.audited {
            audited += 1;
        } else {
            unaudited.push(scenario.name);
        }
    }
    assert!(
        audited >= 10,
        "expected most scenarios to be HI-audited, got {audited}"
    );
    assert_eq!(
        unaudited,
        vec!["register/vidyasankar-k5", "universal/counter-no-release"],
        "exactly the two deliberately non-HI entries skip the audit"
    );
}

#[test]
fn registry_covers_the_big_state_workloads() {
    // PR 4's additions: the phase-free hash table (threaded + sim pair),
    // the max register and the perfect-HI set are all registry entries.
    let names: Vec<&str> = registry().iter().map(|s| s.name).collect();
    for required in [
        "hashtable/robinhood-t8-n3",
        "hashtable/robinhood-dense-t6-n2",
        "register/max-k6",
        "set/hi-t6-n3",
    ] {
        assert!(
            names.contains(&required),
            "registry is missing {required}: {names:?}"
        );
    }
}

#[test]
#[should_panic(expected = "out of domain")]
fn hash_table_handles_enforce_the_spec_domain() {
    // The backend accepts any nonzero u32, but the facade must reject
    // elements outside the spec's domain exactly as `HashSetSpec::apply`
    // does — an out-of-domain key would corrupt the mask decode.
    use hi_concurrent::api::HashTableObject;
    use hi_core::objects::{HashSetOp, HashSetSpec};

    let mut table = HashTableObject::new(HashSetSpec::new(8), 13, 2);
    table.handles()[0].apply(HashSetOp::Insert(70));
}

#[test]
fn hash_table_facade_exposes_array_valued_memory() {
    use hi_concurrent::api::HashTableObject;
    use hi_core::objects::{HashSetOp, HashSetResp, HashSetSpec};

    let mut table = HashTableObject::new(HashSetSpec::new(8), 13, 3);
    assert_eq!(table.roles(), Roles::MultiProcess { n: 3 });
    assert_eq!(table.hi_level(), HiLevel::StateQuiescent);
    assert_eq!(table.roles().num_handles(), table.handles().len());
    {
        let mut handles = table.handles();
        assert_eq!(
            handles[0].apply(HashSetOp::Insert(5)),
            HashSetResp::Bool(true)
        );
        assert_eq!(
            handles[1].apply(HashSetOp::Insert(5)),
            HashSetResp::Bool(false)
        );
        assert_eq!(
            handles[2].apply(HashSetOp::Contains(5)),
            HashSetResp::Bool(true)
        );
        assert_eq!(
            handles[1].apply(HashSetOp::Remove(5)),
            HashSetResp::Bool(true)
        );
        assert_eq!(
            handles[0].apply(HashSetOp::Insert(3)),
            HashSetResp::Bool(true)
        );
    }
    assert_eq!(table.abstract_state(), 1 << 3);
    assert_eq!(
        Some(table.mem_snapshot()),
        table.canonical(&(1 << 3)),
        "quiescent slot array is the canonical Robin Hood layout"
    );
}

#[test]
fn roles_and_hi_levels_are_exposed_uniformly() {
    use hi_concurrent::api::{LlscObject, QueueObject, UniversalObject, VidyasankarObject};
    use hi_core::objects::{BoundedQueueSpec, CounterSpec, MultiRegisterSpec};
    use hi_llsc::RLlscSpec;

    let mut reg = VidyasankarObject::new(MultiRegisterSpec::new(3, 1));
    assert_eq!(reg.roles(), Roles::SingleWriterSingleReader);
    assert_eq!(reg.roles().num_handles(), reg.handles().len());
    assert_eq!(reg.hi_level(), HiLevel::NotHi);
    assert!(reg.canonical(&1).is_none());

    let q = QueueObject::new(BoundedQueueSpec::new(3, 4));
    assert_eq!(q.roles(), Roles::SingleWriterSingleReader);
    assert_eq!(q.hi_level(), HiLevel::StateQuiescent);

    let mut x = LlscObject::new(RLlscSpec::new(4, 0, 2));
    assert_eq!(x.roles(), Roles::MultiProcess { n: 2 });
    assert_eq!(x.hi_level(), HiLevel::Perfect);
    assert_eq!(x.roles().num_handles(), x.handles().len());

    let mut u = UniversalObject::new(CounterSpec::new(0, 5, 0), 3);
    assert_eq!(u.roles(), Roles::MultiProcess { n: 3 });
    assert_eq!(u.hi_level(), HiLevel::StateQuiescent);
    assert_eq!(u.roles().num_handles(), u.handles().len());
}

#[test]
fn resplitting_preserves_state_across_handle_generations() {
    // The facade's `&mut self` handles() contract: a second generation of
    // handles picks up exactly where the first left off.
    use hi_concurrent::api::QueueObject;
    use hi_core::objects::{BoundedQueueSpec, QueueOp, QueueResp};

    let mut q = QueueObject::new(BoundedQueueSpec::new(4, 4));
    {
        let mut handles = q.handles();
        assert_eq!(handles[0].apply(QueueOp::Enqueue(3)), QueueResp::Empty);
        assert_eq!(handles[0].apply(QueueOp::Enqueue(1)), QueueResp::Empty);
    }
    assert_eq!(q.abstract_state(), vec![3, 1]);
    {
        let mut handles = q.handles();
        assert_eq!(handles[1].apply(QueueOp::Peek), QueueResp::Value(3));
        assert_eq!(handles[0].apply(QueueOp::Dequeue), QueueResp::Value(3));
        assert_eq!(handles[0].apply(QueueOp::Dequeue), QueueResp::Value(1));
        assert_eq!(handles[0].apply(QueueOp::Dequeue), QueueResp::Empty);
    }
    assert_eq!(q.abstract_state(), Vec::<u32>::new());
}

/// Applies one seeded solo script through the adapter `obj` and through an
/// executor of its simulator twin `sim`: after every op the two worlds must
/// agree on the response and on every memory word.
fn solo_scripts_agree<S, O, M>(name: &str, obj: O, sim: M, seed: u64)
where
    S: hi_core::EnumerableSpec,
    O: ConcurrentObject<S>,
    M: hi_concurrent::sim::Implementation<S>,
{
    solo_scripts_agree_but(name, obj, sim, seed, 0);
}

/// [`solo_scripts_agree`], except that the adapter may also set the bits
/// `head_leak` of memory word 0.
fn solo_scripts_agree_but<S, O, M>(name: &str, mut obj: O, sim: M, seed: u64, head_leak: u64)
where
    S: hi_core::EnumerableSpec,
    O: ConcurrentObject<S>,
    M: hi_concurrent::sim::Implementation<S>,
{
    use hi_concurrent::sim::{Executor, Pid};
    use hi_core::workload::SplitMix64;

    let menus = hi_core::menus_for(obj.spec(), obj.roles());
    let mut exec = Executor::new(sim);
    assert_eq!(
        obj.mem_snapshot(),
        exec.snapshot(),
        "{name}: initial memory"
    );
    let mut rng = SplitMix64::new(seed);
    for i in 0..200 {
        let role = rng.below(menus.len());
        let op = menus[role][rng.below(menus[role].len())].clone();
        let threaded = obj.handles()[role].apply(op.clone());
        let simulated = exec.run_op_solo(Pid(role), op.clone(), 10_000).unwrap();
        assert_eq!(threaded, simulated, "{name}: response of op {i} ({op:?})");
        let mut mem = obj.mem_snapshot();
        mem[0] &= !head_leak;
        assert_eq!(mem, exec.snapshot(), "{name}: memory after op {i} ({op:?})");
    }
}

#[test]
fn threaded_arena_matches_the_sim_memory_word_for_word() {
    // The register, set, queue and LL/SC adapters run their simulator step
    // machines on an atomic arena laid out by the same `init_memory()`: the
    // certified machine and the shipped one are one text on one layout.
    // The universal construction's hand loop runs on the arena
    // `SimUniversal` lays out, with the same primitives as its machine.
    use hi_concurrent::api::{
        HiSetObject, LlscObject, LockFreeHiObject, MaxRegisterObject, QueueObject, UniversalObject,
        VidyasankarObject, WaitFreeHiObject,
    };
    use hi_concurrent::llsc::{RLlscSpec, SimRLlsc};
    use hi_concurrent::queue::PositionalQueue;
    use hi_concurrent::registers::{
        HiSet, LockFreeHiRegister, MaxRegister, VidyasankarRegister, WaitFreeHiRegister,
    };
    use hi_concurrent::universal::SimUniversal;
    use hi_core::objects::{
        BoundedQueueSpec, CounterSpec, MaxRegisterSpec, MultiRegisterSpec, SetSpec,
    };

    let reg = MultiRegisterSpec::new(5, 1);
    for seed in seeds() {
        solo_scripts_agree(
            "register/vidyasankar-k5",
            VidyasankarObject::new(reg),
            VidyasankarRegister::new(5, 1),
            seed,
        );
        solo_scripts_agree(
            "register/lockfree-hi-k5",
            LockFreeHiObject::new(reg),
            LockFreeHiRegister::new(5, 1),
            seed,
        );
        solo_scripts_agree(
            "register/waitfree-hi-k5",
            WaitFreeHiObject::new(reg),
            WaitFreeHiRegister::new(5, 1),
            seed,
        );
        solo_scripts_agree(
            "queue/positional-t3",
            QueueObject::new(BoundedQueueSpec::new(3, 6)),
            PositionalQueue::new(3, 6),
            seed,
        );
        solo_scripts_agree(
            "register/max-k6",
            MaxRegisterObject::new(MaxRegisterSpec::new(6)),
            MaxRegister::new(6),
            seed,
        );
        solo_scripts_agree(
            "set/hi-t6-n3",
            HiSetObject::new(SetSpec::new(6), 3),
            HiSet::new(6, 3),
            seed,
        );
        solo_scripts_agree(
            "llsc/packed-v8-n3",
            LlscObject::new(RLlscSpec::new(8, 0, 3)),
            SimRLlsc::new(8, 0, 3),
            seed,
        );
        let counter = CounterSpec::new(-300, 300, 0);
        solo_scripts_agree(
            "universal/counter-n3",
            UniversalObject::new(counter, 3),
            SimUniversal::new(counter, 3),
            seed,
        );
        let ureg = MultiRegisterSpec::new(4, 1);
        solo_scripts_agree(
            "universal/register-k4-n2",
            UniversalObject::new(ureg, 2),
            SimUniversal::new(ureg, 2),
            seed,
        );
        let uqueue = BoundedQueueSpec::new(3, 4);
        solo_scripts_agree(
            "universal/queue-t3-n3",
            UniversalObject::new(uqueue, 3),
            SimUniversal::new(uqueue, 3),
            seed,
        );
        // Without RL, line 25's LL leaves its context bit on `head`. The
        // hand loop's `||` polls take the LL's read and CAS before each
        // escape check, so a solo LL at line 25 lands; the machine checks
        // between the two steps and escapes first. The context bits of
        // `head` are the one place the two may differ.
        let ablated = SimUniversal::without_release(counter, 3);
        let context = ablated.codec().head_layout().pack(0, (1 << 3) - 1);
        solo_scripts_agree_but(
            "universal/counter-no-release",
            UniversalObject::without_release(counter, 3),
            ablated,
            seed,
            context,
        );
    }
}
