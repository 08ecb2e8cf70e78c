//! The phase-free concurrent HI hash table — the workspace's one Robin
//! Hood engine, following the direction of the authors' follow-up
//! *History-Independent Concurrent Hash Tables* (arXiv:2503.21016):
//! inserts, removes and lookups interleave arbitrarily from any number of
//! threads. [`ResizableHiShard`] is the engine; [`ShardedHiHashTable`]
//! composes independently locked, independently **resizable** shards
//! (updates to *different* shards run fully in parallel). A single
//! fixed-capacity table is one shard whose base capacity already fits its
//! whole domain (`cap_for(t, base) == base`), so it never migrates —
//! `hi_api`'s `HashTableObject` is exactly that.
//!
//! # Protocol
//!
//! The memory representation is the canonical Robin Hood array of
//! [`HiHashTable`](hi_hashtable::HiHashTable): linear probing, the fixed
//! priority rule of [`incumbent_wins`](hi_hashtable::incumbent_wins),
//! backward-shift deletion, no tombstones. Concurrency is split by
//! operation kind:
//!
//! * **Lookups never block and never write.** A `contains` walks the probe
//!   sequence; sighting the key anywhere is a valid *present* verdict at
//!   the instant of that read. An *absent* verdict is accepted only if the
//!   shard's seqlock word (`seq`) is even and unchanged across the whole
//!   walk, i.e. the walk ran inside an update-free window where the array
//!   is canonical and the Robin Hood terminator genuinely proves absence.
//!   Otherwise the walk retries, so lookups are lock-free.
//! * **Updates serialize through `seq`** (CAS even→odd to acquire, store
//!   +2 to release) and rewrite slots in a *duplicate-then-overwrite*
//!   order, so **no present key is ever absent from the array
//!   mid-update**: an insert's displacement chain is written far-end first
//!   ([`carry_writes`](hi_hashtable::carry_writes)), a removal's backward
//!   shift near-end first.
//!
//! The off-boundary fast paths allocate nothing and do one division per
//! operation: the insert carry is an in-place shift of the probe run
//! (pinned write for write to `carry_writes`), and every probe step
//! reduces through a [`Ring`] built once from the capacity the operation
//! read, instead of `%`.
//!
//! An update waiting for `seq`, or a lookup retrying, spins 64 times and
//! then yields its CPU on each further try, so a holder preempted
//! mid-update does not cost its waiters a whole timeslice.
//!
//! Two extensions make a shard resizable:
//!
//! * **Logical capacity.** The shard owns a fixed physical arena (sized
//!   once, from the worst-case key count of its domain slice) but uses
//!   only a prefix `0..cap`, where `cap` is [`cap_for`]`(len, base)` — a
//!   pure function of the key count. `cap` lives in an atomic read by
//!   lookups; it only changes inside the seqlock critical section, so the
//!   lookup's existing `seq` validation covers it for free.
//! * **Online resize.** When an update crosses a capacity boundary it
//!   migrates the shard *before* finishing: it snapshots the arena,
//!   computes the target canonical image at the new capacity, and applies
//!   [`crate::resize::rewrite_plan`]'s never-absent write
//!   order, then publishes the new `cap`. Lookups running through the
//!   migration can still sight every surviving key; absent verdicts retry
//!   because `seq` is odd. Off-boundary updates take the O(probe-run)
//!   fast paths above.
//!
//! The shard map ([`shard_of`]) is fixed, so the **global** memory
//! representation — per shard, the capacity word followed by the live
//! arena prefix — is a pure function of the abstract key set: canonical
//! layouts per shard, concatenated in shard order. That is what
//! [`ShardedHiHashTable::memory`] exposes and
//! [`ShardedHiHashTable::canonical_memory`] predicts.
//!
//! Honest reductions, mirrored in the ROADMAP: updates within one shard
//! are mutually exclusive (`Progress::Blocking`) where the follow-up
//! paper's are lock-free; a resize serializes its own shard (other shards
//! proceed; lookups of present keys proceed); the per-shard seqlock words
//! are operation counters, so they leak an update count (the paper's
//! bounded-timestamp machinery would be needed to remove it); and the
//! shard *count* is fixed at construction — only capacity scales online,
//! not the shard map itself.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use hi_hashtable::{canonical_layout, Ring};

use crate::resize::rewrite_plan;
use crate::{cap_for, shard_hash, shard_of};

const ORD: Ordering = Ordering::SeqCst;

/// Spin-wait steps before a thread waiting on a held seqlock starts
/// yielding its CPU.
const SPINS_BEFORE_YIELD: u32 = 64;

/// One wait step on a held seqlock: spin briefly, then yield. When the
/// threads outnumber the cores, the holder can be preempted mid-update;
/// a waiter that only spins then burns its whole timeslice before the
/// holder runs again.
fn backoff(spins: &mut u32) {
    if *spins < SPINS_BEFORE_YIELD {
        *spins += 1;
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// One shard: a seqlock-protected Robin Hood arena with a logical
/// capacity that tracks [`cap_for`] of its key count. Keys are routed to
/// shards by [`ShardedHiHashTable`]; the shard itself accepts any nonzero
/// key that fits its arena.
#[derive(Debug)]
pub struct ResizableHiShard {
    /// The smallest capacity this shard ever uses.
    base: usize,
    /// The physical slot array; only `0..cap` is live, the tail is zero.
    arena: Box<[AtomicU32]>,
    /// Logical capacity: always `cap_for(len, base)`. Changed only inside
    /// the seqlock critical section.
    cap: AtomicUsize,
    /// Seqlock over updates: odd while an update is rewriting slots.
    seq: AtomicU64,
    /// Number of stored keys; only updated under the seqlock.
    len: AtomicUsize,
    /// Completed capacity migrations (grows and shrinks).
    resizes: AtomicU64,
    /// Total nanoseconds update operations spent inside migrations.
    resize_nanos: AtomicU64,
}

impl ResizableHiShard {
    /// Creates an empty shard that can hold up to `max_keys` keys: the
    /// physical arena is provisioned at `cap_for(max_keys, base)` once, so
    /// a migration never allocates (and never fails).
    ///
    /// # Panics
    ///
    /// Panics if `base == 0`.
    pub fn new(base: usize, max_keys: usize) -> Self {
        let arena_len = cap_for(max_keys, base);
        ResizableHiShard {
            base,
            arena: (0..arena_len).map(|_| AtomicU32::new(0)).collect(),
            cap: AtomicUsize::new(cap_for(0, base)),
            seq: AtomicU64::new(0),
            len: AtomicUsize::new(0),
            resizes: AtomicU64::new(0),
            resize_nanos: AtomicU64::new(0),
        }
    }

    /// Current logical capacity. Exact at state-quiescent points.
    pub fn capacity(&self) -> usize {
        self.cap.load(ORD)
    }

    /// The smallest capacity this shard ever uses ([`cap_for`]'s floor).
    pub fn base(&self) -> usize {
        self.base
    }

    /// Physical arena length (the capacity ceiling).
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Number of keys stored. Exact at state-quiescent points.
    pub fn len(&self) -> usize {
        self.len.load(ORD)
    }

    /// Whether the shard is empty. Exact at state-quiescent points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Completed capacity migrations so far.
    pub fn resizes(&self) -> u64 {
        self.resizes.load(ORD)
    }

    /// Total nanoseconds updates have spent migrating this shard.
    pub fn resize_nanos(&self) -> u64 {
        self.resize_nanos.load(ORD)
    }

    /// Whether no update is in flight (the seqlock word is even).
    pub fn is_quiescent(&self) -> bool {
        self.seq.load(ORD) % 2 == 0
    }

    /// The shard's memory representation: the capacity word followed by
    /// the live arena prefix. A consistent snapshot only at
    /// state-quiescent points, where it equals
    /// `[cap_for(len, base)] ++ canonical_layout(cap, keys)`.
    pub fn view(&self) -> Vec<u64> {
        let cap = self.cap.load(ORD);
        let mut view = Vec::with_capacity(cap + 1);
        view.push(cap as u64);
        view.extend(self.arena[..cap].iter().map(|s| u64::from(s.load(ORD))));
        view
    }

    /// The canonical [`view`](Self::view) of a key set this shard would
    /// hold: what an audit compares against.
    pub fn canonical_view(&self, keys: impl IntoIterator<Item = u32>) -> Vec<u64> {
        let keys: Vec<u32> = keys.into_iter().collect();
        let cap = cap_for(keys.len(), self.base);
        let mut view = Vec::with_capacity(cap + 1);
        view.push(cap as u64);
        view.extend(canonical_layout(cap, keys).into_iter().map(u64::from));
        view
    }

    /// Acquires the update seqlock; returns the odd value now in `seq`.
    fn acquire(&self) -> u64 {
        let mut spins = 0;
        loop {
            let s = self.seq.load(ORD);
            if s % 2 == 0 && self.seq.compare_exchange(s, s + 1, ORD, ORD).is_ok() {
                return s + 1;
            }
            backoff(&mut spins);
        }
    }

    /// Releases the update seqlock acquired at odd value `s`.
    fn release(&self, s: u64) {
        self.seq.store(s + 1, ORD);
    }

    /// Walks `key`'s probe sequence in the live prefix under the held
    /// lock. `Ok(i)`: `key` sits at slot `i`; `Err(i)`: first slot where
    /// it would be stored.
    fn probe_locked(&self, key: u32, ring: Ring) -> Result<usize, usize> {
        let mut i = ring.home(key);
        for d in 0..ring.cap() {
            let occ = self.arena[i].load(ORD);
            if occ == key {
                return Ok(i);
            }
            if occ == 0 || !ring.incumbent_wins(occ, key, d, i) {
                return Err(i);
            }
            i = ring.next(i);
        }
        panic!("probe of {key} found no terminator: shard over-full?");
    }

    /// Migrates the live image from `cap` to `new_cap` in place (both
    /// directions), leaving the arena holding the canonical layout of
    /// `keys` at `new_cap` and publishing the new capacity. Runs under
    /// the held seqlock; every individual write keeps surviving keys
    /// present ([`rewrite_plan`]'s contract).
    fn migrate(&self, cap: usize, new_cap: usize, keys: impl IntoIterator<Item = u32>) {
        let started = Instant::now();
        let span = cap.max(new_cap);
        let current: Vec<u32> = self.arena[..span].iter().map(|s| s.load(ORD)).collect();
        let mut target = canonical_layout(new_cap, keys);
        target.resize(span, 0);
        for (slot, val) in rewrite_plan(&current, &target) {
            self.arena[slot].store(val, ORD);
        }
        self.cap.store(new_cap, ORD);
        self.resizes.fetch_add(1, ORD);
        self.resize_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, ORD);
    }

    /// Adds `key`. Returns `true` if newly added. Grows the shard first
    /// when the insert crosses the load boundary.
    ///
    /// # Panics
    ///
    /// Panics if `key == 0` or the shard's provisioned arena cannot hold
    /// another key (a routing bug: more keys than the domain slice).
    pub fn insert(&self, key: u32) -> bool {
        assert!(key != 0, "key 0 is reserved");
        let s = self.acquire();
        let cap = self.cap.load(ORD);
        let ring = Ring::new(cap);
        let a = match self.probe_locked(key, ring) {
            Ok(_) => {
                self.release(s);
                return false;
            }
            Err(a) => a,
        };
        let new_len = self.len.load(ORD) + 1;
        let new_cap = cap_for(new_len, self.base);
        assert!(
            new_cap <= self.arena.len(),
            "insert of {key} overflows the provisioned arena \
             ({new_len} keys in a {}-slot shard): key routed to the wrong shard?",
            self.arena.len()
        );
        if new_cap == cap {
            // Off-boundary fast path: the Robin Hood carry.
            carry_in_place(
                ring,
                key,
                a,
                |i| self.arena[i].load(ORD),
                |i, v| self.arena[i].store(v, ORD),
            );
        } else {
            let keys = self.live_keys(cap).into_iter().chain([key]);
            self.migrate(cap, new_cap, keys);
        }
        self.len.store(new_len, ORD);
        self.release(s);
        true
    }

    /// Removes `key`. Returns `true` if it was present. Shrinks the shard
    /// when the removal crosses the load boundary.
    ///
    /// # Panics
    ///
    /// Panics if `key == 0`.
    pub fn remove(&self, key: u32) -> bool {
        assert!(key != 0, "key 0 is reserved");
        let s = self.acquire();
        let cap = self.cap.load(ORD);
        let ring = Ring::new(cap);
        let p = match self.probe_locked(key, ring) {
            Ok(p) => p,
            Err(_) => {
                self.release(s);
                return false;
            }
        };
        let new_len = self.len.load(ORD) - 1;
        let new_cap = cap_for(new_len, self.base);
        if new_cap == cap {
            // Off-boundary fast path: backward shift, near-end first.
            let mut hole = p;
            loop {
                let next = ring.next(hole);
                let occ = self.arena[next].load(ORD);
                if occ == 0 || ring.displacement(occ, next) == 0 {
                    break;
                }
                self.arena[hole].store(occ, ORD);
                hole = next;
            }
            self.arena[hole].store(0, ORD);
        } else {
            let keys = self.live_keys(cap).into_iter().filter(|&k| k != key);
            self.migrate(cap, new_cap, keys);
        }
        self.len.store(new_len, ORD);
        self.release(s);
        true
    }

    /// Membership test: lock-free, never blocks updates, valid across
    /// migrations (sightings are instantaneous truths; absent verdicts
    /// revalidate `seq`, which also pins `cap`).
    ///
    /// # Panics
    ///
    /// Panics if `key == 0`.
    pub fn contains(&self, key: u32) -> bool {
        assert!(key != 0, "key 0 is reserved");
        let mut spins = 0;
        'retry: loop {
            let s1 = self.seq.load(ORD);
            // cap changes only inside the critical section, so an even,
            // unchanged seq at the verdict also certifies this read.
            let ring = Ring::new(self.cap.load(ORD));
            let mut i = ring.home(key);
            for d in 0..ring.cap() {
                let occ = self.arena[i].load(ORD);
                if occ == key {
                    return true;
                }
                if occ == 0 || !ring.incumbent_wins(occ, key, d, i) {
                    if s1 % 2 == 0 && self.seq.load(ORD) == s1 {
                        return false;
                    }
                    backoff(&mut spins);
                    continue 'retry;
                }
                i = ring.next(i);
            }
            // Full turn without a terminator: a migration rewrote under
            // us. Retry with a fresh seq/cap pair.
            backoff(&mut spins);
        }
    }

    /// The keys in the live prefix. Only called under the held seqlock.
    fn live_keys(&self, cap: usize) -> Vec<u32> {
        self.arena[..cap]
            .iter()
            .map(|s| s.load(ORD))
            .filter(|&k| k != 0)
            .collect()
    }
}

/// The off-boundary Robin Hood carry of absent `key` into the canonical
/// run starting at its insertion point `a`, in place: walk to the run's
/// empty slot, shift the run right by one slot far-end first, write `key`
/// at `a` last. On a canonical run this is exactly the write sequence of
/// [`carry_writes`](hi_hashtable::carry_writes) (a test in `resize` pins
/// it), so no present key is ever absent mid-carry. Every slot is loaded
/// before it is stored.
pub(crate) fn carry_in_place(
    ring: Ring,
    key: u32,
    a: usize,
    load: impl Fn(usize) -> u32,
    mut store: impl FnMut(usize, u32),
) {
    let mut z = a;
    while load(z) != 0 {
        z = ring.next(z);
    }
    while z != a {
        let prev = ring.prev(z);
        store(z, load(prev));
        z = prev;
    }
    store(a, key);
}

/// The sharded HI hash set over `{1..=t}`: keys route to [`ResizableHiShard`]s
/// through the fixed [`shard_of`] map. All operations take `&self` and may
/// run from any number of threads in any mix; updates to different shards
/// do not contend.
#[derive(Debug)]
pub struct ShardedHiHashTable {
    t: u32,
    shards: Vec<ResizableHiShard>,
    /// [`shard_of`]'s reduction modulo the shard count, fixed at
    /// construction.
    map: Ring,
}

impl ShardedHiHashTable {
    /// Creates an empty table over `{1..=t}` with `shards` shards, each
    /// starting at logical capacity `base` and physically provisioned for
    /// its worst-case domain slice.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`, `shards == 0` or `base == 0`.
    pub fn new(t: u32, shards: usize, base: usize) -> Self {
        assert!(t >= 1, "domain must be nonempty");
        assert!(shards >= 1, "need at least one shard");
        assert!(base >= 1, "capacity base must be at least 1");
        let mut counts = vec![0usize; shards];
        for key in 1..=t {
            counts[shard_of(key, shards)] += 1;
        }
        ShardedHiHashTable {
            t,
            shards: counts
                .into_iter()
                .map(|max_keys| ResizableHiShard::new(base, max_keys))
                .collect(),
            map: Ring::new(shards),
        }
    }

    /// The domain bound `t`.
    pub fn t(&self) -> u32 {
        self.t
    }

    /// The number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Direct access to shard `i` (for per-shard audits).
    pub fn shard(&self, i: usize) -> &ResizableHiShard {
        &self.shards[i]
    }

    /// The shard `key` routes to.
    pub fn shard_index(&self, key: u32) -> usize {
        self.map.reduce(shard_hash(key))
    }

    fn route(&self, key: u32) -> &ResizableHiShard {
        assert!((1..=self.t).contains(&key), "element {key} out of domain");
        &self.shards[self.shard_index(key)]
    }

    /// Total number of keys stored. Exact at state-quiescent points.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether the table is empty. Exact at state-quiescent points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds `key`. Returns `true` if newly added.
    pub fn insert(&self, key: u32) -> bool {
        self.route(key).insert(key)
    }

    /// Removes `key`. Returns `true` if it was present.
    pub fn remove(&self, key: u32) -> bool {
        self.route(key).remove(key)
    }

    /// Membership test: lock-free.
    pub fn contains(&self, key: u32) -> bool {
        self.route(key).contains(key)
    }

    /// Completed capacity migrations across all shards.
    pub fn resizes(&self) -> u64 {
        self.shards.iter().map(|s| s.resizes()).sum()
    }

    /// Total nanoseconds updates have spent inside migrations, across all
    /// shards.
    pub fn resize_nanos(&self) -> u64 {
        self.shards.iter().map(|s| s.resize_nanos()).sum()
    }

    /// Whether no update is in flight in any shard.
    pub fn is_quiescent(&self) -> bool {
        self.shards.iter().all(|s| s.is_quiescent())
    }

    /// The keys currently stored, sorted (the abstract state). Only
    /// meaningful at state-quiescent points.
    pub fn keys(&self) -> Vec<u32> {
        let mut keys: Vec<u32> = self
            .shards
            .iter()
            .flat_map(|s| s.view().into_iter().skip(1))
            .filter(|&k| k != 0)
            .map(|k| k as u32)
            .collect();
        keys.sort_unstable();
        keys
    }

    /// The global memory representation: each shard's [`view`]
    /// (capacity word + live arena prefix), concatenated in shard order.
    /// At state-quiescent points this equals
    /// [`canonical_memory`](Self::canonical_memory) of the abstract key
    /// set — the shard map and every per-shard layout are pure functions
    /// of the key set.
    ///
    /// [`view`]: ResizableHiShard::view
    pub fn memory(&self) -> Vec<u64> {
        self.shards.iter().flat_map(|s| s.view()).collect()
    }

    /// The canonical [`memory`](Self::memory) image of a key set: the
    /// composed per-shard oracle every audit compares against.
    pub fn canonical_memory(&self, keys: impl IntoIterator<Item = u32>) -> Vec<u64> {
        let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); self.shards.len()];
        for key in keys {
            per_shard[shard_of(key, self.shards.len())].push(key);
        }
        self.shards
            .iter()
            .zip(per_shard)
            .flat_map(|(shard, keys)| shard.canonical_view(keys))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hi_hashtable::HiHashTable;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use std::collections::BTreeSet;

    #[test]
    fn sequential_equivalence_with_resizes() {
        // Base 2 keeps every capacity a power of two; base 3 makes none.
        for base in [2usize, 3] {
            let table = ShardedHiHashTable::new(64, 4, base);
            let mut reference: BTreeSet<u32> = BTreeSet::new();
            let mut rng = StdRng::seed_from_u64(7);
            for _ in 0..2_000 {
                let k = rng.gen_range(1u32..=64);
                match rng.gen_range(0u8..3) {
                    0 => assert_eq!(table.insert(k), reference.insert(k), "insert {k}"),
                    1 => assert_eq!(table.remove(k), reference.remove(&k), "remove {k}"),
                    _ => assert_eq!(table.contains(k), reference.contains(&k), "contains {k}"),
                }
                assert_eq!(table.len(), reference.len());
            }
            assert_eq!(table.keys(), reference.iter().copied().collect::<Vec<_>>());
            assert_eq!(
                table.memory(),
                table.canonical_memory(reference.iter().copied()),
                "base {base}: quiescent memory must be the composed canonical image"
            );
            assert!(
                table.resizes() > 0,
                "a 2k-op churn over 64 keys must cross capacity boundaries"
            );
        }
    }

    #[test]
    fn capacity_is_a_function_of_the_key_count() {
        // Two very different histories reaching the same key set must agree
        // on every shard's capacity word (no resize hysteresis).
        let a = ShardedHiHashTable::new(32, 2, 2);
        for k in 1..=10u32 {
            a.insert(k);
        }
        let b = ShardedHiHashTable::new(32, 2, 2);
        for k in 1..=32u32 {
            b.insert(k);
        }
        for k in 11..=32u32 {
            b.remove(k);
        }
        assert!(b.resizes() > a.resizes(), "the detour must have migrated");
        assert_eq!(a.memory(), b.memory(), "capacity words must converge too");
    }

    #[test]
    fn growth_and_shrink_pass_through_every_boundary() {
        let table = ShardedHiHashTable::new(128, 2, 2);
        for k in 1..=128u32 {
            table.insert(k);
        }
        let grown = table.resizes();
        assert!(grown >= 8, "128 keys into base-2 shards: many grows");
        for k in 1..=128u32 {
            table.remove(k);
        }
        assert!(table.resizes() > grown, "removal must shrink back");
        assert!(table.is_empty());
        for shard in 0..table.num_shards() {
            assert_eq!(
                table.shard(shard).capacity(),
                2,
                "an empty shard is back at base capacity"
            );
        }
        assert_eq!(table.memory(), table.canonical_memory([]));
    }

    #[test]
    fn mixed_concurrent_workload_converges_to_canonical() {
        // The phase-free headline: inserts, removes and lookups from all
        // threads at once, no phase discipline anywhere — across resizing
        // shards, and in one shard at a fixed capacity.
        for (domain, shards, base, seeds) in [(96u32, 4usize, 2usize, 0..8u64), (39, 1, 64, 8..20)]
        {
            for seed in seeds {
                let table = ShardedHiHashTable::new(domain, shards, base);
                mixed_workload(&table, seed);
                assert!(table.is_quiescent());
                assert_eq!(
                    table.memory(),
                    table.canonical_memory(table.keys()),
                    "seed {seed}: quiescent memory is not canonical for its own key set"
                );
            }
        }
    }

    /// Four threads apply 600 random inserts, removes and lookups each.
    fn mixed_workload(table: &ShardedHiHashTable, seed: u64) {
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed * 17 + t);
                    for _ in 0..600 {
                        let k = rng.gen_range(1u32..=table.t());
                        match rng.gen_range(0u8..3) {
                            0 => {
                                table.insert(k);
                            }
                            1 => {
                                table.remove(k);
                            }
                            _ => {
                                table.contains(k);
                            }
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn lookups_never_miss_a_stable_key_across_migrations() {
        // Key 1 stays put while its own shard is forced through grow and
        // shrink migrations by churning keys routed to the same shard.
        let table = ShardedHiHashTable::new(512, 2, 2);
        assert!(table.insert(1));
        let home = table.shard_index(1);
        let churn: Vec<u32> = (2..=512u32)
            .filter(|&k| table.shard_index(k) == home)
            .collect();
        assert!(churn.len() > 32, "need churn keys in key 1's shard");
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let table = &table;
            let stop = &stop;
            let churn = &churn;
            s.spawn(move || {
                while !stop.load(ORD) {
                    // Fill and drain in waves so capacity keeps crossing
                    // boundaries in both directions.
                    for &k in churn.iter().take(48) {
                        table.insert(k);
                    }
                    for &k in churn.iter().take(48) {
                        table.remove(k);
                    }
                }
            });
            s.spawn(move || {
                for _ in 0..20_000 {
                    assert!(table.contains(1), "a present key was missed");
                }
                stop.store(true, ORD);
            });
        });
        assert!(table.resizes() > 0, "the churn never migrated");
    }

    #[test]
    fn racing_duplicate_inserts_place_exactly_one_copy() {
        // Updates serialize per shard, so exactly one of the racing
        // inserts reports success — with or without a resize on the way.
        for (t, shards, base) in [(32u32, 2usize, 2usize), (12, 1, 16)] {
            for _ in 0..50 {
                let table = ShardedHiHashTable::new(t, shards, base);
                let successes = std::sync::atomic::AtomicUsize::new(0);
                std::thread::scope(|s| {
                    for _ in 0..4 {
                        let table = &table;
                        let successes = &successes;
                        s.spawn(move || {
                            if table.insert(7) {
                                successes.fetch_add(1, ORD);
                            }
                        });
                    }
                });
                assert_eq!(successes.load(ORD), 1, "exactly one insert wins");
                let copies = table.memory().into_iter().filter(|&v| v == 7).count();
                assert_eq!(copies, 1, "exactly one copy in memory");
            }
        }
    }

    #[test]
    fn updates_in_distinct_shards_do_not_contend() {
        // Smoke check of the scale-out point: concurrent updates to
        // different shards proceed in parallel (no global lock), and the
        // end state is canonical.
        let table = ShardedHiHashTable::new(1 << 12, 8, 2);
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let table = &table;
                s.spawn(move || {
                    for k in 1..=(1u32 << 12) {
                        if table.shard_index(k) == t as usize % table.num_shards() {
                            table.insert(k);
                        }
                    }
                });
            }
        });
        assert_eq!(table.len(), 1 << 12);
        assert_eq!(table.memory(), table.canonical_memory(1..=(1u32 << 12)));
    }

    /// A shard's slot array: its view minus the capacity word.
    fn slots(shard: &ResizableHiShard) -> Vec<u32> {
        shard.view()[1..].iter().map(|&v| v as u32).collect()
    }

    #[test]
    fn sequential_equivalence_single_thread() {
        // At a fixed capacity (base 32 fits 24 keys, so it never moves) the
        // shard is the sequential table, slot for slot.
        let shard = ResizableHiShard::new(32, 24);
        let mut reference = HiHashTable::new(32);
        for k in [5u32, 21, 37, 9, 13, 45] {
            assert!(shard.insert(k));
            reference.insert(k);
        }
        assert!(!shard.insert(21), "duplicate rejected");
        assert_eq!(slots(&shard), reference.memory());
        assert!(shard.contains(37));
        assert!(!shard.contains(99));
        assert!(shard.remove(21));
        assert!(!shard.remove(21));
        reference.remove(21);
        assert_eq!(slots(&shard), reference.memory());
        assert_eq!(shard.resizes(), 0);
        // The same at capacities that are not powers of two (29 is the
        // service table's): a seeded churn, filled to the load bound,
        // compared slot for slot after every operation.
        for (cap, max_keys) in [(32usize, 24usize), (29, 21), (3, 2)] {
            let shard = ResizableHiShard::new(cap, max_keys);
            let mut reference = HiHashTable::new(cap);
            let mut rng = StdRng::seed_from_u64(cap as u64);
            for _ in 0..2_000 {
                let k = rng.gen_range(1u32..=4 * cap as u32);
                match rng.gen_range(0u8..3) {
                    0 if reference.len() < max_keys => {
                        assert_eq!(shard.insert(k), reference.insert(k), "insert {k}")
                    }
                    1 => assert_eq!(shard.remove(k), reference.remove(k), "remove {k}"),
                    _ => assert_eq!(shard.contains(k), reference.contains(k), "contains {k}"),
                }
                assert_eq!(slots(&shard), reference.memory(), "cap {cap}");
            }
            assert_eq!(shard.resizes(), 0, "cap {cap} never migrates");
        }
    }

    #[test]
    fn len_tracks_the_key_count() {
        let shard = ResizableHiShard::new(8, 6);
        assert!(shard.is_empty());
        for (i, k) in [4u32, 9, 13].into_iter().enumerate() {
            shard.insert(k);
            assert_eq!(shard.len(), i + 1);
        }
        shard.insert(9); // duplicate: no growth
        assert_eq!(shard.len(), 3);
        shard.remove(4);
        shard.remove(4); // absent: no shrink
        assert_eq!(shard.len(), 2);
    }

    #[test]
    fn capacity_minus_one_keys_still_work() {
        // 3 keys in 4 slots is the 3/4 load bound: one slot stays empty, so
        // every probe walk (an absent lookup's included) terminates.
        let shard = ResizableHiShard::new(4, 3);
        for k in 1..=3u32 {
            assert!(shard.insert(k));
        }
        assert!(shard.contains(2));
        assert!(
            !shard.contains(9),
            "absent lookup terminates at the reserved empty slot"
        );
        assert!(shard.remove(2));
        assert!(shard.insert(9));
        assert_eq!(slots(&shard).iter().filter(|&&k| k == 0).count(), 1);
        assert_eq!(shard.capacity(), 4);
    }

    #[test]
    #[should_panic(expected = "overflows the provisioned arena")]
    fn filling_the_last_slot_is_rejected() {
        // The arena must never become full: a full array has no probe
        // terminator, which would livelock concurrent lookups and leave
        // probe_locked without an answer. A 4-slot arena provisioned for 3
        // keys cannot grow, so the 4th key is refused.
        let shard = ResizableHiShard::new(4, 3);
        for k in 1..=4u32 {
            shard.insert(k);
        }
    }

    #[test]
    fn lookups_never_miss_a_stable_key() {
        // Key 1 is inserted once and never removed; all other keys churn in
        // one shard at a fixed capacity (base 32 fits 24 keys, so it never
        // migrates). Every contains(1) must return true, however the carries
        // and backward shifts move the array around it.
        let shard = ResizableHiShard::new(32, 24);
        assert!(shard.insert(1));
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let shard = &shard;
            let stop = &stop;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(99);
                while !stop.load(ORD) {
                    let k = rng.gen_range(2u32..24);
                    if rng.gen_bool(0.5) {
                        shard.insert(k);
                    } else {
                        shard.remove(k);
                    }
                }
            });
            s.spawn(move || {
                for _ in 0..20_000 {
                    assert!(shard.contains(1), "a present key was missed");
                }
                stop.store(true, ORD);
            });
        });
        assert_eq!(shard.resizes(), 0, "a fixed capacity never migrates");
    }

    #[test]
    fn detour_histories_share_memory() {
        // History independence across real-thread histories at a fixed
        // capacity: a shard that took detours (inserted and removed extra
        // keys, concurrently) ends with the same memory as one built
        // directly.
        let direct = ResizableHiShard::new(32, 24);
        for k in [3u32, 11, 19, 27] {
            direct.insert(k);
        }
        let detour = ResizableHiShard::new(32, 24);
        std::thread::scope(|s| {
            let detour = &detour;
            s.spawn(move || {
                for k in [3u32, 11, 19, 27] {
                    detour.insert(k);
                }
            });
            s.spawn(move || {
                for k in 40u32..60 {
                    detour.insert(k);
                    detour.remove(k);
                }
            });
        });
        assert_eq!(direct.view(), detour.view());
        assert_eq!(detour.resizes(), 0, "a fixed capacity never migrates");
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn out_of_domain_keys_are_rejected() {
        ShardedHiHashTable::new(8, 2, 2).insert(9);
    }
}
