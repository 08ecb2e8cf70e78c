//! Property-based stress of the phase-free concurrent HI hash table at a
//! fixed capacity — one `ResizableHiShard` whose base capacity fits every
//! key the test uses, so it never migrates: random concurrent
//! insert/remove/lookup schedules on real threads, with the quiescent
//! memory checked against the canonical `HiHashTable` layout of the
//! surviving key set, and the full histories checked for linearizability
//! through `hi_api::drive`.

use hi_concurrent::api::{drive, ConcurrentObject, DriveConfig, HashTableObject};
use hi_concurrent::hashtable::canonical_layout;
use hi_concurrent::shard::ResizableHiShard;
use hi_core::objects::HashSetSpec;
use proptest::prelude::*;

/// A shard fixed at `capacity` slots: provisioned for the most keys that
/// capacity holds under the 3/4 load bound, so it can never resize.
fn fixed_table(capacity: usize) -> ResizableHiShard {
    let table = ResizableHiShard::new(capacity, 3 * capacity / 4);
    assert_eq!(table.arena_len(), capacity, "the capacity must stay fixed");
    table
}

/// The slot array: the shard's view minus its capacity word.
fn memory(table: &ResizableHiShard) -> Vec<u32> {
    table.view()[1..].iter().map(|&v| v as u32).collect()
}

/// The sorted keys the slot array holds.
fn sorted_keys(table: &ResizableHiShard) -> Vec<u32> {
    let mut keys: Vec<u32> = memory(table).into_iter().filter(|&k| k != 0).collect();
    keys.sort_unstable();
    keys
}

/// The canonical layout of whatever key set `mem` holds.
fn canonical_of(mem: &[u32], capacity: usize) -> Vec<u32> {
    canonical_layout(capacity, mem.iter().copied().filter(|&k| k != 0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the interleaving of a random concurrent schedule, the
    /// quiescent memory is the unique canonical Robin Hood layout of the
    /// surviving key set, and membership answers match that set.
    #[test]
    fn concurrent_schedules_end_canonical(
        scripts in prop::collection::vec(
            prop::collection::vec((0u8..3, 1u32..20), 10..60),
            2..5,
        ),
    ) {
        let capacity = 32;
        let table = fixed_table(capacity);
        std::thread::scope(|s| {
            for script in &scripts {
                let table = &table;
                s.spawn(move || {
                    for &(kind, key) in script {
                        match kind {
                            0 => {
                                table.insert(key);
                            }
                            1 => {
                                table.remove(key);
                            }
                            _ => {
                                table.contains(key);
                            }
                        }
                    }
                });
            }
        });
        let mem = memory(&table);
        prop_assert_eq!(
            &mem,
            &canonical_of(&mem, capacity),
            "quiescent memory is not canonical for its own key set"
        );
        // Membership must agree with the decoded set at quiescence.
        let keys = sorted_keys(&table);
        for k in 1u32..20 {
            prop_assert_eq!(table.contains(k), keys.contains(&k));
        }
    }

    /// History independence across real-thread histories: any two schedules
    /// whose surviving key sets coincide leave bit-identical memory.
    #[test]
    fn equal_key_sets_leave_equal_memory(
        keys in prop::collection::hash_set(1u32..24, 1..10),
        detours in prop::collection::vec(24u32..48, 0..8),
    ) {
        let capacity = 32;
        let direct = fixed_table(capacity);
        for &k in &keys {
            direct.insert(k);
        }
        let noisy = fixed_table(capacity);
        std::thread::scope(|s| {
            let noisy = &noisy;
            let keys = &keys;
            let detours = &detours;
            s.spawn(move || {
                for &k in keys.iter() {
                    noisy.insert(k);
                }
            });
            s.spawn(move || {
                for &d in detours.iter() {
                    noisy.insert(d);
                }
                for &d in detours.iter() {
                    noisy.remove(d);
                }
            });
        });
        prop_assert_eq!(memory(&direct), memory(&noisy));
    }

    /// The full facade audit: random threaded workloads linearize against
    /// `HashSetSpec` and pass the quiescent canonical-memory audit, across
    /// load factors.
    #[test]
    fn driven_workloads_linearize_and_audit(seed: u64, dense in proptest::bool::ANY) {
        let (t, cap) = if dense { (6, 8) } else { (8, 13) };
        let mut obj = HashTableObject::new(HashSetSpec::new(t), cap, 3);
        let cfg = DriveConfig {
            ops_per_handle: 40,
            seed,
            ..DriveConfig::default()
        };
        let report = drive(&mut obj, &cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        prop_assert!(report.audited, "the hash table promises a canonical form");
        prop_assert_eq!(report.final_state, obj.abstract_state());
    }
}

#[test]
fn lookups_stay_lock_free_under_update_storms() {
    // A dedicated non-proptest stress: two updaters churn the table while a
    // third thread issues lookups for a pinned key and for a never-present
    // key; every answer must be exact, and the lookup thread must finish
    // (lock-freedom in practice: no lookup spins forever).
    let table = fixed_table(64);
    assert!(table.insert(50));
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let table = &table;
        let stop = &stop;
        for t in 0..2u32 {
            s.spawn(move || {
                let mut x = 7u32 + t;
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    // Cheap xorshift over churn keys 1..=40.
                    x ^= x << 5;
                    x ^= x >> 9;
                    let k = x % 40 + 1;
                    if x % 3 == 0 {
                        table.remove(k);
                    } else {
                        table.insert(k);
                    }
                }
            });
        }
        s.spawn(move || {
            for _ in 0..30_000 {
                assert!(table.contains(50), "pinned key missed");
                assert!(!table.contains(60), "phantom key sighted");
            }
            stop.store(true, std::sync::atomic::Ordering::SeqCst);
        });
    });
    let mem = memory(&table);
    assert_eq!(mem, canonical_of(&mem, 64));
}
