//! The related-work comparison (paper reference [42]): cost of history
//! independence in a hash table.
//!
//! Shape to reproduce: the canonical Robin-Hood table's inserts cost a
//! small constant factor over first-fit tombstone probing (displacement
//! chains), and its deletes cost the backward shift; the concurrent insert
//! phase scales with threads.

use hi_bench::Group;
use hi_hashtable::{AtomicHashTable, HiHashTable, TombstoneHashTable};

const N_KEYS: u32 = 512;
const CAPACITY: usize = 1024;

fn key(k: u32) -> u32 {
    k.wrapping_mul(2654435761) % 100_000 + 1
}

fn main() {
    let mut group = Group::new("hashtable_sequential");
    group.throughput(u64::from(N_KEYS));
    group.bench("hi_insert_all", || {
        let mut t = HiHashTable::new(CAPACITY);
        for k in 1..=N_KEYS {
            t.insert(key(k));
        }
        t.len()
    });
    group.bench("tombstone_insert_all", || {
        let mut t = TombstoneHashTable::new(CAPACITY);
        for k in 1..=N_KEYS {
            t.insert(key(k));
        }
        t.memory().len()
    });
    group.bench("hi_insert_delete_churn", || {
        let mut t = HiHashTable::new(CAPACITY);
        for k in 1..=N_KEYS {
            let x = key(k);
            t.insert(x);
            if k % 2 == 0 {
                t.remove(x);
            }
        }
        t.len()
    });

    let mut group = Group::new("hashtable_insert_phase").samples(20);
    group.throughput(u64::from(N_KEYS));
    for threads in [1usize, 2, 4] {
        group.bench(format!("threads/{threads}"), || {
            let table = AtomicHashTable::new(CAPACITY);
            let keys: Vec<u32> = (1..=N_KEYS).map(key).collect();
            std::thread::scope(|s| {
                for chunk in keys.chunks(keys.len().div_ceil(threads)) {
                    let table = &table;
                    s.spawn(move || {
                        for &k in chunk {
                            table.insert(k);
                        }
                    });
                }
            });
            table.capacity()
        });
    }
}
