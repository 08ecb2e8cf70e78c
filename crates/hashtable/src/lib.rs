#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! A phase-concurrent history-independent hash table, after Shun and
//! Blelloch — the only prior work on concurrent history independence the
//! paper identifies (§1, related work, reference [42]).
//!
//! The table stores keys by linear probing with the **Robin Hood** rule and
//! a deterministic tie-break, which makes the layout a *function of the key
//! set*: whatever the insertion order, and whatever interleaving a
//! concurrent insert phase takes, the memory converges to the same canonical
//! array — history independence by unique representability (the
//! Hartline et al. characterization the paper builds on).
//!
//! *Phase-concurrent* means only operations of the same type run
//! concurrently (the restriction the paper points out in [42]): the
//! [`phase::AtomicHashTable`] allows a concurrent **insert phase** and a
//! concurrent **lookup phase**; deletions are a sequential phase
//! (backward-shift deletion, canonical again afterwards). The paper's own
//! universal construction (Algorithm 5) is exactly what removes this
//! same-type restriction — at the cost of serializing through `head`.
//!
//! The phase-free table of the authors' follow-up *History-Independent
//! Concurrent Hash Tables* (arXiv:2503.21016) — insert, remove and lookup
//! interleaving arbitrarily over the same canonical layout — lives in
//! `hi_shard`: one Robin Hood engine whose single-table form is a
//! one-shard table at its base capacity. This crate keeps the pure
//! primitives it and every oracle share ([`slot_of`], [`incumbent_wins`],
//! [`carry_writes`], [`canonical_layout`]), and [`Ring`], the same probe
//! arithmetic without per-step division that the engine's hot path walks
//! with.
//!
//! [`seq::TombstoneHashTable`] is the contrast: classic tombstone deletion
//! leaks deleted keys' past presence — the table equivalent of the §4
//! register leak.

pub mod phase;
pub mod seq;

pub use phase::AtomicHashTable;
pub use seq::{HiHashTable, TombstoneHashTable};

/// The hash function shared by all tables: a fixed multiplicative hash.
/// Fixed (not randomized) so the canonical layout is determined at
/// initialization, as Proposition 3 requires of deterministic HI structures.
pub fn slot_of(key: u32, capacity: usize) -> usize {
    debug_assert!(key != 0, "key 0 is reserved for empty slots");
    probe_hash(key) as usize % capacity
}

/// The 32-bit probe hash [`slot_of`] reduces modulo the capacity.
fn probe_hash(key: u32) -> u32 {
    (u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32
}

/// The probe distance of `key` if stored at `slot` (wrapping).
pub fn displacement(key: u32, slot: usize, capacity: usize) -> usize {
    let home = slot_of(key, capacity);
    (slot + capacity - home) % capacity
}

/// The Robin Hood priority rule with deterministic tie-break: does `incumbent`
/// keep its slot against `candidate` probing at this slot?
///
/// An incumbent keeps the slot if its displacement is strictly larger, or on
/// equal displacement if its key is larger. (Any fixed total order works;
/// what matters for unique representability is that ties never depend on
/// arrival order.)
pub fn incumbent_wins(incumbent: u32, candidate: u32, slot: usize, capacity: usize) -> bool {
    let di = displacement(incumbent, slot, capacity);
    let dc = displacement(candidate, slot, capacity);
    di > dc || (di == dc && incumbent >= candidate)
}

/// The probe arithmetic of one capacity, reduced by multiplication instead
/// of `%`: built once per operation (one division), then every probe step
/// is division-free. Bit-identical to the reference functions —
/// [`home`](Ring::home) to [`slot_of`], [`displacement`](Ring::displacement)
/// to [`displacement`], [`incumbent_wins`](Ring::incumbent_wins) to
/// [`incumbent_wins`] — for every key and every capacity up to
/// `u32::MAX`, which a test pins.
///
/// [`reduce`](Ring::reduce) is Lemire's exact *fastmod* of a 32-bit value:
/// with `m = ⌊(2^64 − 1)/cap⌋ + 1`, `x mod cap` is the high word of
/// `(m·x mod 2^64)·cap` (Lemire, Kaser and Kurz, *Faster Remainder by
/// Direct Computation*, arXiv:1902.01961).
#[derive(Clone, Copy, Debug)]
pub struct Ring {
    cap: usize,
    m: u64,
}

impl Ring {
    /// The arithmetic of `cap` slots.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is 0 or exceeds `u32::MAX` (where the 64-bit
    /// fastmod stops being exact).
    pub fn new(cap: usize) -> Self {
        assert!(
            (1..=u32::MAX as usize).contains(&cap),
            "capacity {cap} outside 1..=u32::MAX"
        );
        // m wraps to 0 at cap = 1, which reduces everything to 0 as it must.
        let m = (u64::MAX / cap as u64).wrapping_add(1);
        Ring { cap, m }
    }

    /// The capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// `x % cap`, without a division.
    pub fn reduce(&self, x: u32) -> usize {
        let low = self.m.wrapping_mul(u64::from(x));
        ((u128::from(low) * self.cap as u128) >> 64) as usize
    }

    /// `key`'s home slot: [`slot_of`]`(key, cap)`.
    pub fn home(&self, key: u32) -> usize {
        debug_assert!(key != 0, "key 0 is reserved for empty slots");
        self.reduce(probe_hash(key))
    }

    /// The slot after `i < cap`, wrapping.
    pub fn next(&self, i: usize) -> usize {
        if i + 1 == self.cap {
            0
        } else {
            i + 1
        }
    }

    /// The slot before `i < cap`, wrapping.
    pub fn prev(&self, i: usize) -> usize {
        if i == 0 {
            self.cap - 1
        } else {
            i - 1
        }
    }

    /// The probe distance of `key` if stored at `slot < cap`:
    /// [`displacement`]`(key, slot, cap)`.
    pub fn displacement(&self, key: u32, slot: usize) -> usize {
        let home = self.home(key);
        if slot >= home {
            slot - home
        } else {
            slot + self.cap - home
        }
    }

    /// [`incumbent_wins`]`(incumbent, candidate, slot, cap)`, given the
    /// candidate's displacement at `slot`: a probe walk knows it as its
    /// step count, so only the incumbent's home is computed.
    pub fn incumbent_wins(
        &self,
        incumbent: u32,
        candidate: u32,
        candidate_displacement: usize,
        slot: usize,
    ) -> bool {
        let di = self.displacement(incumbent, slot);
        di > candidate_displacement || (di == candidate_displacement && incumbent >= candidate)
    }
}

/// The canonical Robin Hood layout of a key set: every key inserted into a
/// fresh sequential [`HiHashTable`] — the unique representation the
/// concurrent backends, the sim twin and the test oracles all compare
/// against.
///
/// # Panics
///
/// Panics if any key is 0 or the keys do not fit in `capacity`.
pub fn canonical_layout(capacity: usize, keys: impl IntoIterator<Item = u32>) -> Vec<u32> {
    let mut oracle = HiHashTable::new(capacity);
    for k in keys {
        oracle.insert(k);
    }
    oracle.memory().to_vec()
}

/// The Robin Hood carry of `key` through the contiguous occupied `run`
/// starting at slot `a` (the run must end just before an empty slot): the
/// `(slot, value)` writes that turn the run into the post-insert layout.
///
/// The writes come **far-end first** — the duplicate-then-overwrite order:
/// the carry moves each displaced incumbent strictly forward, so every write
/// lands a key *before* the write that overwrites its old copy, and no
/// present key is ever absent from memory mid-rewrite.
///
/// This is the reference the engine is pinned to. On a canonical run the
/// carry is a shift of the whole run right by one slot with `key` landing
/// at `a`, so the threaded shard's off-boundary insert performs exactly
/// these writes, in this order, in place and without allocating; the sim
/// twin's migration planner emits the same ones. Both equivalences are
/// tests in `hi_shard::resize`.
pub fn carry_writes(key: u32, a: usize, run: &[u32], capacity: usize) -> Vec<(usize, u32)> {
    // new[j] is the post-insert content of slot (a + j) % capacity.
    let mut new = Vec::with_capacity(run.len() + 1);
    let mut cur = key;
    for (j, &occ) in run.iter().enumerate() {
        let slot = (a + j) % capacity;
        if incumbent_wins(occ, cur, slot, capacity) {
            new.push(occ);
        } else {
            new.push(cur);
            cur = occ;
        }
    }
    new.push(cur); // lands in the empty slot after the run
    let mut writes = Vec::new();
    for j in (0..new.len()).rev() {
        let old = if j < run.len() { run[j] } else { 0 };
        if new[j] != old {
            writes.push(((a + j) % capacity, new[j]));
        }
    }
    writes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displacement_wraps() {
        let cap = 8;
        for key in 1..100u32 {
            let home = slot_of(key, cap);
            assert_eq!(displacement(key, home, cap), 0);
            assert_eq!(displacement(key, (home + 3) % cap, cap), 3);
        }
    }

    /// Asserts every `Ring` operation at `(key, slot)` equals its `%`
    /// reference, with `other` as the priority rule's second key.
    fn assert_ring_matches(ring: Ring, key: u32, other: u32, slot: usize) {
        let cap = ring.cap();
        let at = || format!("cap {cap}, key {key}, slot {slot}");
        assert_eq!(ring.home(key), slot_of(key, cap), "home: {}", at());
        assert_eq!(
            ring.displacement(key, slot),
            displacement(key, slot, cap),
            "displacement: {}",
            at()
        );
        assert_eq!(ring.next(slot), (slot + 1) % cap, "next: {}", at());
        assert_eq!(ring.prev(ring.next(slot)), slot, "prev: {}", at());
        for (incumbent, candidate) in [(key, other), (other, key)] {
            let dc = displacement(candidate, slot, cap);
            assert_eq!(
                ring.incumbent_wins(incumbent, candidate, dc, slot),
                incumbent_wins(incumbent, candidate, slot, cap),
                "priority of {incumbent} over {candidate}: {}",
                at()
            );
        }
    }

    #[test]
    fn ring_matches_the_reference_arithmetic() {
        // Every small capacity against a dense key range...
        for cap in 1..=1024usize {
            let ring = Ring::new(cap);
            for key in 1..=4096u32 {
                assert_ring_matches(ring, key, 4097 - key, key as usize * 7 % cap);
            }
        }
        // ...and large and non-power-of-two capacities (29 is the service
        // table's) against pseudo-random keys, plus the largest key.
        let mut state = 0x0123_4567_89ab_cdefu64;
        let mut splitmix = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let caps = [29usize, 1 << 20, 1 << 31]
            .into_iter()
            .chain((0..=20).map(|k| 3usize << k));
        for cap in caps {
            let ring = Ring::new(cap);
            for _ in 0..1 << 16 {
                let r = splitmix();
                let key = (r as u32).max(1);
                let slot = (r >> 32) as usize % cap;
                assert_ring_matches(ring, key, (r >> 40) as u32 + 1, slot);
            }
            assert_ring_matches(ring, u32::MAX, 1, cap - 1);
        }
    }

    #[test]
    fn carry_writes_reproduce_the_sequential_insert() {
        // Applying the shared carry to a canonical array must yield exactly
        // the canonical array of the enlarged key set, for every insertion
        // point the probe can find.
        let cap = 16;
        let keys = [7u32, 15, 23, 31, 2, 18, 34];
        for new_key in (1..=40).filter(|k| !keys.contains(k)) {
            let mut mem = canonical_layout(cap, keys.iter().copied());
            // Find the insertion point and run exactly as the backends do.
            let mut a = slot_of(new_key, cap);
            while mem[a] != 0 && incumbent_wins(mem[a], new_key, a, cap) {
                a = (a + 1) % cap;
            }
            let mut run = Vec::new();
            let mut z = a;
            while mem[z] != 0 {
                run.push(mem[z]);
                z = (z + 1) % cap;
            }
            for (slot, val) in carry_writes(new_key, a, &run, cap) {
                mem[slot] = val;
            }
            let expected = canonical_layout(cap, keys.iter().copied().chain([new_key]));
            assert_eq!(mem, expected, "inserting {new_key}");
        }
    }

    #[test]
    fn priority_is_total_and_antisymmetric() {
        let cap = 16;
        for a in 1..40u32 {
            for b in 1..40u32 {
                if a == b {
                    continue;
                }
                for slot in 0..cap {
                    let ab = incumbent_wins(a, b, slot, cap);
                    let ba = incumbent_wins(b, a, slot, cap);
                    assert!(ab != ba, "exactly one of {a},{b} wins slot {slot}");
                }
            }
        }
    }
}
