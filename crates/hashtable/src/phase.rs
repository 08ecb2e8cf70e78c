//! The phase-concurrent table: concurrent insert phases and lookup phases
//! on atomic slots, sequential delete phases.
//!
//! The insert phase runs the Robin Hood displacement rule with per-slot CAS:
//! a thread claims an empty slot, or evicts a lower-priority incumbent and
//! continues inserting the evictee. Because the priority rule is a fixed
//! total order (no arrival-time tie-breaks), the final array is the unique
//! canonical layout of the inserted key set *regardless of interleaving* —
//! the determinism Shun and Blelloch prove for their phase-concurrent
//! tables, checked here empirically against the sequential layout.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::seq::HiHashTable;
use crate::{incumbent_wins, slot_of};

const ORD: Ordering = Ordering::SeqCst;

/// The phase-concurrent HI hash set. Within one phase, any number of
/// threads may call the phase's operation concurrently; phases are switched
/// by the single owner of the `&mut` reference (the *phase-concurrent*
/// discipline of \[42\]).
#[derive(Debug)]
pub struct AtomicHashTable {
    slots: Box<[AtomicU32]>,
}

impl AtomicHashTable {
    /// Creates an empty table with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        AtomicHashTable {
            slots: (0..capacity).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Capacity in slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The memory representation. An atomic snapshot only between phases.
    pub fn memory(&self) -> Vec<u32> {
        self.slots.iter().map(|s| s.load(ORD)).collect()
    }

    /// Insert-phase operation: adds `key`, callable concurrently from any
    /// number of threads. Lock-free; the caller must ensure the table cannot
    /// fill (keys inserted < capacity), as a full table would spin.
    ///
    /// # Contract (enforced at phase boundaries)
    ///
    /// Within one phase, each key must be inserted by at most one thread:
    /// a duplicate insert racing an eviction that momentarily holds the
    /// first copy out of memory could double-place the key. (Re-inserting a
    /// key in a later phase, or repeatedly from the same thread, is fine
    /// and idempotent.) A violation cannot be detected reliably *during*
    /// the phase — a slot-by-slot scan can sight a key twice while an
    /// eviction legally moves it forward past the scan front — so
    /// enforcement happens where the table is quiescent: every phase switch
    /// through [`remove`](AtomicHashTable::remove) (whose `&mut self` proves
    /// exclusivity) checks the whole table, and drivers can call
    /// [`debug_enforce_unique`](AtomicHashTable::debug_enforce_unique)
    /// between phases. Callers that need racing duplicate inserts should
    /// use the phase-free `hi_shard::ResizableHiShard`, which serializes
    /// updates and handles them by construction.
    ///
    /// # Panics
    ///
    /// Panics if `key == 0`.
    pub fn insert(&self, key: u32) {
        assert!(key != 0, "key 0 is reserved");
        let cap = self.slots.len();
        let mut cur = key;
        let mut i = slot_of(cur, cap);
        let mut travelled = 0usize;
        loop {
            assert!(
                travelled <= 2 * cap,
                "insert of {key} probed {travelled} slots: table over-full?"
            );
            let occupant = self.slots[i].load(ORD);
            if occupant == cur {
                return; // duplicate already placed
            }
            if occupant == 0 {
                match self.slots[i].compare_exchange(0, cur, ORD, ORD) {
                    Ok(_) => return,
                    Err(_) => continue, // slot changed under us: re-examine it
                }
            }
            if !incumbent_wins(occupant, cur, i, cap) {
                // Evict the incumbent and carry it forward.
                match self.slots[i].compare_exchange(occupant, cur, ORD, ORD) {
                    Ok(_) => {
                        cur = occupant;
                        i = (i + 1) % cap;
                        travelled += 1;
                    }
                    Err(_) => continue,
                }
            } else {
                i = (i + 1) % cap;
                travelled += 1;
            }
        }
    }

    /// The number of slots currently holding `key`. **Exact only while no
    /// insert is in flight** (between phases): no instant ever has two
    /// copies of a key in memory, but this is a slot-by-slot scan, and a
    /// key legally evicted from behind the scan front and re-placed ahead
    /// of it can be sighted twice mid-phase.
    pub fn copies_of(&self, key: u32) -> usize {
        assert!(key != 0);
        self.slots.iter().filter(|s| s.load(ORD) == key).count()
    }

    /// Enforcement of the insert-phase contract: panics if `key` is
    /// double-placed. Call **between phases** (no insert in flight), where
    /// [`copies_of`](AtomicHashTable::copies_of) is exact;
    /// [`remove`](AtomicHashTable::remove) runs the table-wide equivalent
    /// automatically at every delete-phase entry.
    pub fn debug_enforce_unique(&self, key: u32) {
        let copies = self.copies_of(key);
        assert!(
            copies <= 1,
            "phase contract violated: key {key} occupies {copies} slots \
             (racing duplicate inserts within one phase?)"
        );
    }

    /// Table-wide duplicate check, used by the phase-boundary enforcement:
    /// the first key occupying two slots, if any.
    fn first_duplicate(&self) -> Option<u32> {
        let mut seen = std::collections::HashSet::new();
        self.slots
            .iter()
            .map(|s| s.load(ORD))
            .find(|&k| k != 0 && !seen.insert(k))
    }

    /// Lookup-phase operation: membership test, callable concurrently.
    ///
    /// Sound only within a lookup phase (no concurrent inserts/deletes),
    /// exactly the same-type restriction the paper describes for \[42\].
    pub fn contains(&self, key: u32) -> bool {
        assert!(key != 0);
        let cap = self.slots.len();
        let mut i = slot_of(key, cap);
        loop {
            let occupant = self.slots[i].load(ORD);
            if occupant == key {
                return true;
            }
            if occupant == 0 || !incumbent_wins(occupant, key, i, cap) {
                return false;
            }
            i = (i + 1) % cap;
        }
    }

    /// Delete-phase operation: sequential (requires `&mut self`), using the
    /// canonical backward-shift of the sequential table.
    ///
    /// # Panics
    ///
    /// Panics if the preceding insert phase double-placed a key (the
    /// `&mut self` receiver proves the table is quiescent here, so the
    /// table-wide scan is exact — see [`insert`](AtomicHashTable::insert)'s
    /// contract). The scan is O(capacity), like the rebuild that follows.
    pub fn remove(&mut self, key: u32) -> bool {
        if let Some(dup) = self.first_duplicate() {
            panic!(
                "phase contract violated: key {dup} occupies multiple slots \
                 (racing duplicate inserts in the preceding phase?)"
            );
        }
        let mut seq = self.to_sequential();
        let removed = seq.remove(key);
        if removed {
            for (slot, &v) in self.slots.iter().zip(seq.memory()) {
                slot.store(v, ORD);
            }
        }
        removed
    }

    /// Copies the current contents into a sequential [`HiHashTable`]
    /// (between phases the layouts agree bit for bit).
    pub fn to_sequential(&self) -> HiHashTable {
        let mut seq = HiHashTable::new(self.capacity());
        for slot in self.slots.iter() {
            let v = slot.load(ORD);
            if v != 0 {
                seq.insert(v);
            }
        }
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    #[test]
    fn sequential_equivalence_single_thread() {
        let table = AtomicHashTable::new(32);
        let mut reference = HiHashTable::new(32);
        for k in [5u32, 21, 37, 9, 13, 45] {
            table.insert(k);
            reference.insert(k);
        }
        assert_eq!(table.memory(), reference.memory());
    }

    #[test]
    fn concurrent_insert_phase_is_deterministic() {
        // The headline property: whatever the thread interleaving, the
        // insert phase converges to the canonical layout.
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut keys: Vec<u32> = (1..=48).collect();
            keys.shuffle(&mut rng);
            let table = AtomicHashTable::new(64);
            std::thread::scope(|s| {
                for chunk in keys.chunks(12) {
                    let table = &table;
                    s.spawn(move || {
                        for &k in chunk {
                            table.insert(k);
                        }
                    });
                }
            });
            let mut reference = HiHashTable::new(64);
            for k in 1..=48 {
                reference.insert(k);
            }
            assert_eq!(table.memory(), reference.memory(), "seed {seed}");
        }
    }

    #[test]
    fn lookup_phase_finds_everything() {
        let table = AtomicHashTable::new(64);
        std::thread::scope(|s| {
            for base in [1u32, 17, 33] {
                let table = &table;
                s.spawn(move || {
                    for k in base..base + 16 {
                        table.insert(k);
                    }
                });
            }
        });
        std::thread::scope(|s| {
            for base in [1u32, 17, 33] {
                let table = &table;
                s.spawn(move || {
                    for k in base..base + 16 {
                        assert!(table.contains(k));
                        assert!(!table.contains(k + 100));
                    }
                });
            }
        });
    }

    #[test]
    fn delete_phase_restores_canonical_layout() {
        let mut table = AtomicHashTable::new(32);
        for k in [5u32, 21, 37, 9] {
            table.insert(k);
        }
        table.insert(53);
        assert!(table.remove(53));
        let mut reference = HiHashTable::new(32);
        for k in [5u32, 21, 37, 9] {
            reference.insert(k);
        }
        assert_eq!(table.memory(), reference.memory());
    }

    #[test]
    fn copies_of_counts_and_the_debug_check_accepts_unique_keys() {
        let table = AtomicHashTable::new(16);
        for k in [3u32, 7, 11] {
            table.insert(k);
        }
        assert_eq!(table.copies_of(3), 1);
        assert_eq!(table.copies_of(5), 0);
        for k in [3u32, 7, 11] {
            table.debug_enforce_unique(k); // must not panic
        }
    }

    #[test]
    #[should_panic(expected = "phase contract violated")]
    fn debug_check_detects_a_double_placed_key() {
        // Regression test for the documented duplicate-insert hazard: build
        // the corrupted layout a racing duplicate insert can produce (the
        // same key placed in two slots) and verify the detector fires.
        let table = AtomicHashTable::new(8);
        table.slots[1].store(7, ORD);
        table.slots[5].store(7, ORD);
        table.debug_enforce_unique(7);
    }

    #[test]
    #[should_panic(expected = "phase contract violated")]
    fn delete_phase_rejects_a_double_placed_table() {
        // The automatic boundary enforcement: entering a delete phase with
        // a double-placed key must refuse rather than bake the corruption
        // into a "canonical" rebuild.
        let mut table = AtomicHashTable::new(8);
        table.slots[1].store(7, ORD);
        table.slots[5].store(7, ORD);
        table.remove(7);
    }

    #[test]
    fn racing_duplicate_inserts_never_corrupt_silently() {
        // Hammer the exact race the contract forbids: two threads inserting
        // the same fresh key amid contract-clean filler inserts. At the
        // phase boundary (threads joined, so the scan is exact) the outcome
        // must be accounted for: either the key sits in exactly one slot,
        // or it was double-placed — and then both the explicit check and
        // the delete-phase entry must report the violation rather than let
        // it corrupt the canonical layout silently.
        use std::panic::{catch_unwind, AssertUnwindSafe};

        for round in 0..200u32 {
            let mut table = AtomicHashTable::new(16);
            let dup_key = 4 + (round % 3); // vary collision patterns
            std::thread::scope(|s| {
                for t in 0..2 {
                    let table = &table;
                    s.spawn(move || {
                        // Per-thread distinct filler keys (contract-clean),
                        // then the contested duplicate.
                        let base = 20 + t * 8;
                        for k in base..base + 3 {
                            table.insert(k);
                        }
                        table.insert(dup_key);
                    });
                }
            });
            let copies = table.copies_of(dup_key);
            if copies > 1 {
                assert!(
                    catch_unwind(AssertUnwindSafe(|| table.debug_enforce_unique(dup_key))).is_err(),
                    "round {round}: double-place of {dup_key} went undetected"
                );
                assert!(
                    catch_unwind(AssertUnwindSafe(|| table.remove(dup_key))).is_err(),
                    "round {round}: the delete phase accepted a double-placed table"
                );
            } else {
                assert_eq!(copies, 1, "round {round}: key {dup_key} lost entirely");
            }
        }
    }

    #[test]
    fn repeated_inserts_by_one_thread_are_idempotent() {
        let table = AtomicHashTable::new(16);
        std::thread::scope(|s| {
            let table = &table;
            // Distinct key ranges per thread (the phase contract); each
            // thread re-inserts its own keys several times.
            for base in [1u32, 5, 9] {
                s.spawn(move || {
                    for _ in 0..3 {
                        for k in base..base + 4 {
                            table.insert(k);
                        }
                    }
                });
            }
        });
        let mut reference = HiHashTable::new(16);
        for k in 1..=12 {
            reference.insert(k);
        }
        assert_eq!(table.memory(), reference.memory());
        assert_eq!(table.to_sequential().len(), 12);
    }
}
