//! Phase-concurrent vs phase-free: the two concurrent HI hash tables side
//! by side.
//!
//! The Shun–Blelloch style [`AtomicHashTable`] (the paper's reference [42])
//! only allows *same-type* phases — all-inserts, or all-lookups, with
//! deletions sequential. The [`ResizableHiShard`] follows the authors'
//! follow-up, *History-Independent Concurrent Hash Tables*
//! (arXiv:2503.21016), and drops the restriction: inserts, removes and
//! lock-free lookups interleave arbitrarily, and the slot array still
//! converges to the one canonical Robin Hood layout of the surviving key
//! set. Here it runs at a fixed capacity: its base of 16 slots already
//! fits every key the demo uses, so it never resizes.
//!
//! ```sh
//! cargo run --example concurrent_hashtable
//! ```

use hi_concurrent::api::{drive, ConcurrentObject, DriveConfig, HashTableObject};
use hi_concurrent::hashtable::{canonical_layout, AtomicHashTable};
use hi_concurrent::shard::ResizableHiShard;
use hi_core::objects::HashSetSpec;

fn main() {
    let keys = [12u32, 45, 7, 33, 91, 28, 64, 5];

    println!("== phase-concurrent (same-type phases only) ==");
    let phased = AtomicHashTable::new(16);
    // Phase 1: concurrent inserts. Phase 2: concurrent lookups. Deletions
    // would need a third, *sequential* phase — the caller coordinates all
    // of this by hand.
    std::thread::scope(|s| {
        for chunk in keys.chunks(2) {
            let t = &phased;
            s.spawn(move || {
                for &k in chunk {
                    t.insert(k);
                }
            });
        }
    });
    std::thread::scope(|s| {
        for chunk in keys.chunks(4) {
            let t = &phased;
            s.spawn(move || {
                for &k in chunk {
                    assert!(t.contains(k));
                }
            });
        }
    });
    println!("after insert phase + lookup phase: {:?}", phased.memory());

    println!("\n== phase-free (arXiv:2503.21016 direction) ==");
    // Up to 8 keys plus 4 in-flight detours: 12 keys fit 16 slots at 3/4.
    let free = ResizableHiShard::new(16, 12);
    // No phases: every thread mixes inserts, removes and lookups at will.
    std::thread::scope(|s| {
        for (i, chunk) in keys.chunks(2).enumerate() {
            let t = &free;
            s.spawn(move || {
                for &k in chunk {
                    t.insert(k);
                    // A detour insert+remove of a thread-private key, mid
                    // everyone else's traffic.
                    let detour = 100 + i as u32;
                    t.insert(detour);
                    assert!(t.contains(detour));
                    t.remove(detour);
                }
            });
        }
    });
    let slots: Vec<u32> = free.view()[1..].iter().map(|&v| v as u32).collect();
    println!("after one mixed melee            : {slots:?}");

    let canonical = canonical_layout(16, keys.iter().copied());
    assert_eq!(slots, canonical);
    assert_eq!(free.resizes(), 0, "the capacity stayed fixed");
    assert_eq!(phased.memory(), canonical);
    println!("sequential canonical layout      : {canonical:?}");
    println!("=> same canonical array, with or without phase discipline\n");

    println!("== the same table through the unified facade ==");
    let mut obj = HashTableObject::new(HashSetSpec::new(8), 13, 4);
    let cfg = DriveConfig {
        ops_per_handle: 200,
        ..DriveConfig::default()
    };
    let report = drive(&mut obj, &cfg).expect("linearizable and canonical");
    println!(
        "drove {} random ops over 4 symmetric handles: linearizable, audited = {}",
        report.history.records().len(),
        report.audited
    );
    println!(
        "final key set mask {:#b}, quiescent slots {:?}",
        report.final_state, report.mem
    );
    assert_eq!(Some(report.mem.clone()), obj.canonical(&report.final_state));
    println!("=> quiescent memory == canonical(final key set), under a random mixed workload");
}
