//! The online-migration write planner: turns one canonical arena image
//! into another **in place**, in an order that never makes a surviving key
//! absent — the resize-sized generalization of the Robin Hood carry's
//! duplicate-then-overwrite discipline
//! ([`carry_writes`](hi_hashtable::carry_writes)).
//!
//! # The hazard, and the order that avoids it
//!
//! A capacity change rehashes every key, so a migration is an arbitrary
//! rearrangement of the arena, not a single probe-run shift. The invariant
//! concurrent lookups rely on is unchanged though: a key present in both
//! the old and the new image must be **somewhere in the arena after every
//! individual write** (lookups sight keys; only absent verdicts revalidate
//! the seqlock). [`rewrite_plan`] achieves this by writing each key's new
//! cell *before* overwriting its old cell:
//!
//! * Cell `j` (holding surviving key `k`) may only be overwritten after
//!   the write that places `k` at its target cell. Since canonical images
//!   hold no duplicates, that dependency relation has in- and out-degree
//!   at most one: the changed cells decompose into **chains** (emitted
//!   far-end first, exactly like the carry) and **cycles**.
//! * A cycle of keys displacing one another has no safe first write; it is
//!   broken by parking the first key in a **spare cell** (empty in both
//!   images — one always exists when a cycle does, because the 3/4 load
//!   bound and the one-empty-slot rule leave both images under-full),
//!   walking the cycle, then clearing the spare.
//!
//! The planner is pure and shared verbatim by the threaded backend and the
//! simulator twin, so the two can never drift — the same
//! one-source-of-truth discipline `carry_writes` established.

use std::collections::HashMap;

/// The in-place migration order from arena image `current` to arena image
/// `target` (equal lengths; 0 = empty): the `(cell, value)` writes, in an
/// order such that
///
/// * after every write prefix, every key present in **both** images is
///   somewhere in the arena (never-absent),
/// * every intermediate nonzero cell value is a key of `current` or
///   `target` (no invented keys), and
/// * after the final write the arena equals `target`.
///
/// Cells equal in both images are never touched. Deterministic: the same
/// image pair always yields the same write sequence.
///
/// # Panics
///
/// Panics if the images' lengths differ, if either contains a duplicate
/// key, or if a displacement cycle exists but no cell is empty in both
/// images (impossible for images respecting the `cap_for` load bound).
pub fn rewrite_plan(current: &[u32], target: &[u32]) -> Vec<(usize, u32)> {
    assert_eq!(
        current.len(),
        target.len(),
        "migration images must have equal padded lengths"
    );
    let n = current.len();
    let mut target_pos: HashMap<u32, usize> = HashMap::new();
    for (j, &k) in target.iter().enumerate() {
        if k != 0 {
            assert!(
                target_pos.insert(k, j).is_none(),
                "duplicate key {k} in target image"
            );
        }
    }
    let changed: Vec<usize> = (0..n).filter(|&j| current[j] != target[j]).collect();
    // pred[j] = the cell that must be written before cell j is overwritten
    // (the target cell of j's current key); succ is its inverse. Both are
    // partial and injective because canonical images hold each key once.
    let mut pred: Vec<Option<usize>> = vec![None; n];
    let mut succ: Vec<Option<usize>> = vec![None; n];
    for &j in &changed {
        let k = current[j];
        if k == 0 {
            continue;
        }
        if let Some(&p) = target_pos.get(&k) {
            debug_assert_ne!(p, j, "unchanged cell classified as changed");
            debug_assert!(
                current[p] != target[p],
                "a surviving key's target cell must itself change"
            );
            pred[j] = Some(p);
            assert!(
                succ[p].replace(j).is_none(),
                "duplicate key {k} in current image"
            );
        }
    }
    let mut writes = Vec::with_capacity(changed.len());
    let mut done = vec![false; n];
    // Chains: start at cells whose current content needs no preservation
    // (empty, or a key absent from the target image) and walk forward —
    // each write lands a key before the next write overwrites its old copy.
    for &root in &changed {
        if pred[root].is_some() {
            continue;
        }
        let mut j = root;
        loop {
            writes.push((j, target[j]));
            done[j] = true;
            match succ[j] {
                Some(next) => j = next,
                None => break,
            }
        }
    }
    // Cycles: everything not reached from a chain root. Park the entry
    // key in a spare cell (empty in both images), walk the cycle, clear
    // the spare. The spare is reused serially across cycles.
    let mut spare: Option<usize> = None;
    for &entry in &changed {
        if done[entry] {
            continue;
        }
        let spare = *spare.get_or_insert_with(|| {
            (0..n).find(|&e| current[e] == 0 && target[e] == 0).expect(
                "no spare cell for a cyclic migration: \
                     both images exceed the load bound",
            )
        });
        writes.push((spare, current[entry]));
        let mut j = entry;
        loop {
            writes.push((j, target[j]));
            done[j] = true;
            let next = succ[j].expect("cycle cell lost its successor");
            if next == entry {
                break;
            }
            j = next;
        }
        writes.push((spare, 0));
    }
    writes
}

#[cfg(test)]
mod tests {
    use super::*;
    use hi_core::SplitMix64;
    use hi_hashtable::{
        canonical_layout, carry_writes, displacement, incumbent_wins, slot_of, Ring,
    };

    /// Applies `plan` to a copy of `current`, asserting the never-absent
    /// and no-invented-keys invariants at every write prefix. Returns the
    /// final image and whether any cell was written twice (the spare-cell
    /// signature of a cycle).
    fn apply_checked(current: &[u32], target: &[u32], plan: &[(usize, u32)]) -> (Vec<u32>, bool) {
        use std::collections::HashSet;
        let keep: HashSet<u32> = current
            .iter()
            .filter(|k| **k != 0 && target.contains(k))
            .copied()
            .collect();
        let legal: HashSet<u32> = current
            .iter()
            .chain(target.iter())
            .copied()
            .filter(|&k| k != 0)
            .collect();
        let mut mem = current.to_vec();
        let mut touched = vec![0usize; mem.len()];
        for &(cell, val) in plan {
            mem[cell] = val;
            touched[cell] += 1;
            for k in &keep {
                assert!(
                    mem.contains(k),
                    "surviving key {k} absent after writing {val} to cell {cell}"
                );
            }
            for &v in mem.iter().filter(|&&v| v != 0) {
                assert!(v == val || legal.contains(&v), "invented key {v}");
            }
        }
        (mem, touched.iter().any(|&c| c > 1))
    }

    #[test]
    fn identical_images_need_no_writes() {
        let img = canonical_layout(8, [3u32, 9, 17]);
        assert!(rewrite_plan(&img, &img).is_empty());
    }

    #[test]
    fn grow_and_shrink_migrations_are_prefix_safe() {
        // Random key sets, random single-key delta, both directions of a
        // doubling: the plan must reach the target with the never-absent
        // invariant held at every prefix. (The cycle/spare path is pinned
        // separately by the hand-built permutation test below — random
        // rehash migrations almost never produce pure cycles.)
        let mut rng = SplitMix64::new(0x5a5a);
        for _ in 0..400 {
            let old_cap = 1usize << (2 + rng.below(4)); // 4..=32
            let count = rng.below(3 * old_cap / 4);
            let mut keys: Vec<u32> = Vec::new();
            while keys.len() < count {
                let k = 1 + rng.below(200) as u32;
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
            for (new_cap, delta_insert) in [(old_cap * 2, true), (old_cap, true), (old_cap, false)]
            {
                let mut new_keys = keys.clone();
                if delta_insert {
                    let mut k = 1 + rng.below(200) as u32;
                    while new_keys.contains(&k) {
                        k += 1;
                    }
                    new_keys.push(k);
                } else if let Some(victim) = keys.first() {
                    new_keys.retain(|k| k != victim);
                } else {
                    continue;
                }
                if new_keys.len() + 1 > new_cap {
                    continue;
                }
                let n = old_cap.max(new_cap);
                let mut current = canonical_layout(old_cap, keys.iter().copied());
                current.resize(n, 0);
                let mut target = canonical_layout(new_cap, new_keys.iter().copied());
                target.resize(n, 0);
                let plan = rewrite_plan(&current, &target);
                let (image, _) = apply_checked(&current, &target, &plan);
                assert_eq!(image, target, "migration did not reach the target image");
            }
        }
    }

    #[test]
    fn plans_are_deterministic() {
        let current = canonical_layout(8, [1u32, 5, 9, 13]);
        let mut target = canonical_layout(16, [1u32, 5, 9, 13, 21]);
        let mut cur = current.clone();
        cur.resize(16, 0);
        target.truncate(16);
        assert_eq!(rewrite_plan(&cur, &target), rewrite_plan(&cur, &target));
    }

    #[test]
    fn pure_permutation_cycles_resolve_through_the_spare() {
        // A hand-built 3-cycle: keys rotate cells between two images of
        // equal capacity. No chain roots exist, so the plan must park a
        // key in a spare cell and clear it at the end.
        let current = vec![1u32, 2, 3, 0];
        let target = vec![2u32, 3, 1, 0];
        let plan = rewrite_plan(&current, &target);
        let (image, cycled) = apply_checked(&current, &target, &plan);
        assert_eq!(image, target);
        assert!(cycled, "the spare cell was never used");
        assert_eq!(plan.first(), Some(&(3, 1)), "entry key parked in the spare");
        assert_eq!(plan.last(), Some(&(3, 0)), "spare cleared at the end");
    }

    /// The insert fast path's writes: probe for absent `key`'s insertion
    /// point in the canonical image `mem` and record the writes of the
    /// shipped in-place carry, after asserting they are the reference
    /// carry's — [`carry_writes`] over the occupied run behind the point.
    fn carry_of(mem: &[u32], key: u32) -> Vec<(usize, u32)> {
        let cap = mem.len();
        let mut a = slot_of(key, cap);
        while mem[a] != 0 && incumbent_wins(mem[a], key, a, cap) {
            a = (a + 1) % cap;
        }
        let mut run = Vec::new();
        let mut z = a;
        while mem[z] != 0 {
            run.push(mem[z]);
            z = (z + 1) % cap;
        }
        let mut shipped = Vec::new();
        crate::threaded::carry_in_place(
            Ring::new(cap),
            key,
            a,
            |i| mem[i],
            |i, v| shipped.push((i, v)),
        );
        assert_eq!(
            shipped,
            carry_writes(key, a, &run, cap),
            "cap {cap}, image {mem:?}: the in-place carry of {key} left the reference"
        );
        shipped
    }

    /// The remove fast path's writes: the backward shift from the hole at
    /// `p`, near-end first, then the clear of the run's last slot —
    /// exactly as `ResizableHiShard::remove` does off-boundary.
    fn shift_of(mem: &[u32], p: usize) -> Vec<(usize, u32)> {
        let cap = mem.len();
        let mut writes = Vec::new();
        let mut hole = p;
        loop {
            let next = (hole + 1) % cap;
            let occ = mem[next];
            if occ == 0 || displacement(occ, next, cap) == 0 {
                break;
            }
            writes.push((hole, occ));
            hole = next;
        }
        writes.push((hole, 0));
        writes
    }

    #[test]
    fn off_boundary_plans_equal_the_fast_paths() {
        // The sim twin always plans with `rewrite_plan`; the threaded shard
        // takes the carry / backward-shift fast paths whenever the capacity
        // stays put. Over random canonical images at arbitrary capacities,
        // every capacity-preserving insert and remove must plan the fast
        // path's writes in the fast path's order — what lets the one twin
        // model both threaded paths write for write.
        let mut rng = SplitMix64::new(0x0ff_b0da);
        let (mut inserts, mut removes) = (0usize, 0usize);
        for _ in 0..300 {
            let cap = 2 + rng.below(38); // 2..=39
            let domain = 4 * cap as u32;
            let count = rng.below(3 * cap / 4 + 1);
            let mut keys: Vec<u32> = Vec::new();
            while keys.len() < count {
                let k = 1 + rng.below(domain as usize) as u32;
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
            let current = canonical_layout(cap, keys.iter().copied());
            for k in 1..=domain {
                let with_or_without: Vec<u32> = if keys.contains(&k) {
                    keys.iter().copied().filter(|&x| x != k).collect()
                } else if 4 * (count + 1) <= 3 * cap {
                    keys.iter().copied().chain([k]).collect()
                } else {
                    continue; // the insert would cross a capacity boundary
                };
                let target = canonical_layout(cap, with_or_without);
                let fast = match current.iter().position(|&x| x == k) {
                    Some(p) => {
                        removes += 1;
                        shift_of(&current, p)
                    }
                    None => {
                        inserts += 1;
                        carry_of(&current, k)
                    }
                };
                assert_eq!(
                    rewrite_plan(&current, &target),
                    fast,
                    "cap {cap}, keys {keys:?}: update of {k} planned off the fast path"
                );
            }
        }
        assert!(
            inserts > 10_000 && removes > 1_000,
            "too few updates compared: {inserts} inserts, {removes} removes"
        );
    }
}
