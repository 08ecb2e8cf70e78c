#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! The workspace's one phase-free Robin Hood HI engine, and its scale-out:
//! a hash-partitioned **table of tables** over the canonical Robin Hood
//! layout, with **online resize** — memory whose capacity changes at run
//! time while staying history-independent. The single fixed-capacity table
//! is the degenerate case: one [`ResizableHiShard`] whose base capacity
//! fits its whole domain never migrates, and one-shard [`SimShardedTable`]
//! is its simulator twin.
//!
//! # Why sharding composes with history independence
//!
//! One shard serializes all updates, and auditing it at scale means
//! linearizing the whole table at once. Partitioning the domain by a fixed
//! **shard map**
//! ([`shard_of`]: split-hash → shard) makes each shard an independent HI
//! object over its slice of the key set, in the style of segmented
//! invariant confluence: the global canonical representation is the
//! concatenation of the shards' canonical representations, because
//!
//! * the shard map is a *fixed function of the key* (no history in the
//!   routing), and
//! * each shard's layout is a pure function of the key subset it owns
//!   (unique representability, per shard).
//!
//! Audits therefore compose: checking every shard against its own
//! canonical layout *is* checking the global object, and a big-domain
//! deployment can trade audit latency for coverage by checking a random
//! subset of shards exhaustively (the sampled audit in `hi_api`).
//!
//! # Why resize preserves it
//!
//! Capacity is **part of the representation**, so it must itself be a
//! pure function of the abstract state: each shard's capacity is
//! [`cap_for`]`(len, base)` — the smallest `base << i` keeping load at or
//! under 3/4 — with *no hysteresis* (hysteresis would make capacity depend
//! on the history of the occupancy curve, a textbook HI leak). When an
//! update crosses a capacity boundary, the updating thread rewrites the
//! shard in place under the shard's update lock, using the same
//! duplicate-then-overwrite hazard discipline as the Robin Hood carries:
//! the [`resize::rewrite_plan`] write order guarantees a surviving key is
//! **never absent from the arena at any write prefix**, so concurrent
//! lock-free lookups can sight present keys all the way through a
//! migration (absent verdicts already revalidate the seqlock).
//!
//! The pieces:
//!
//! * [`shard_of`] / [`cap_for`] — the pure routing and capacity rules.
//! * [`resize::rewrite_plan`] — the canonical-to-canonical in-place
//!   migration order (chains and cycles, far-end first).
//! * [`threaded::ResizableHiShard`] — the engine: one seqlocked,
//!   resizable Robin Hood arena with lock-free lookups.
//! * [`threaded::ShardedHiHashTable`] — the concurrent table of tables.
//! * [`sim::SimShardedTable`] — its slot-level simulator twin, whose
//!   `hi_audit` composes per-shard `DirectCanonical` views.

pub mod resize;
pub mod sim;
pub mod threaded;

pub use resize::rewrite_plan;
pub use sim::SimShardedTable;
pub use threaded::{ResizableHiShard, ShardedHiHashTable};

/// The shard map: a fixed multiplicative split-hash, decorrelated from the
/// in-shard probe hash ([`hi_hashtable::slot_of`]) by a different odd
/// constant so a shard does not concentrate its keys on few home slots.
/// Fixed (not randomized) for the same reason as the probe hash: the
/// canonical representation must be determined at initialization.
pub fn shard_of(key: u32, shards: usize) -> usize {
    shard_hash(key) as usize % shards
}

/// The 32-bit split-hash [`shard_of`] reduces modulo the shard count.
fn shard_hash(key: u32) -> u32 {
    debug_assert!(key != 0, "key 0 is reserved for empty slots");
    (u64::from(key).wrapping_mul(0xD6E8_FEB8_6659_FD93) >> 32) as u32
}

/// The capacity a shard holding `count` keys must have: the smallest
/// `base << i` with `4 * count <= 3 * cap` (load factor at most 3/4, so at
/// least one slot is always empty and every probe walk terminates). A pure
/// function of the key count — *the* property that keeps capacity inside
/// the canonical representation instead of leaking resize history.
pub fn cap_for(count: usize, base: usize) -> usize {
    assert!(base >= 1, "capacity base must be at least 1");
    let mut cap = base;
    while 4 * count > 3 * cap {
        cap *= 2;
    }
    cap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_is_total_and_fixed() {
        for shards in 1..=8 {
            let table = ShardedHiHashTable::new(1_000, shards, 2);
            for key in 1..=1_000u32 {
                let s = shard_of(key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(key, shards), "routing must be stable");
                assert_eq!(s, table.shard_index(key), "the table routes by shard_of");
            }
        }
    }

    #[test]
    fn shard_map_spreads_a_dense_domain() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for key in 1..=4096u32 {
            counts[shard_of(key, shards)] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(
            max - min < 4096 / shards,
            "shard occupancy {counts:?} is badly unbalanced"
        );
    }

    #[test]
    fn cap_is_a_pure_step_function_of_count() {
        assert_eq!(cap_for(0, 1), 1);
        assert_eq!(cap_for(1, 1), 2);
        assert_eq!(cap_for(2, 1), 4);
        assert_eq!(cap_for(3, 1), 4);
        assert_eq!(cap_for(4, 1), 8);
        assert_eq!(cap_for(0, 2), 2);
        assert_eq!(cap_for(1, 2), 2);
        assert_eq!(cap_for(2, 2), 4);
        for count in 0..10_000 {
            let cap = cap_for(count, 2);
            assert!(4 * count <= 3 * cap, "load bound violated at {count}");
            assert!(cap > count, "no empty slot left at {count}");
            // Minimality: the next level down would break the load bound.
            if cap > 2 {
                assert!(
                    4 * count > 3 * (cap / 2),
                    "cap {cap} not minimal at {count}"
                );
            }
        }
    }

    #[test]
    fn single_op_moves_capacity_at_most_one_level() {
        // An insert or remove changes the count by one; the capacity rule
        // must then move by at most one doubling, which is what bounds a
        // migration to one rewrite.
        for base in [1usize, 2, 4] {
            for count in 1..5_000usize {
                let here = cap_for(count, base);
                let below = cap_for(count - 1, base);
                assert!(
                    here == below || here == below * 2,
                    "count {count} base {base}: cap jumped {below} -> {here}"
                );
            }
        }
    }
}
