//! [`ConcurrentObject`] adapter for the phase-free concurrent HI hash table
//! (the arXiv:2503.21016 direction) at a fixed capacity: one
//! [`ResizableHiShard`] whose base capacity already fits the whole domain,
//! so it never migrates. The first big-state, array-valued memory
//! representation behind the facade.

use hi_core::objects::{HashSetOp, HashSetResp, HashSetSpec};
use hi_shard::{cap_for, ResizableHiShard};

use crate::object::{ConcurrentObject, HiLevel, ObjectHandle, Progress, Roles};

/// The phase-free Robin Hood HI hash table through the unified facade:
/// `n` symmetric handles, each free to insert, remove and look up
/// concurrently; lookups lock-free; state-quiescent HI over the slot array.
#[derive(Debug)]
pub struct HashTableObject {
    spec: HashSetSpec,
    n: usize,
    table: ResizableHiShard,
}

impl HashTableObject {
    /// Creates the table implementing `spec` with `capacity` slots, shared
    /// by `n` handles. The capacity is fixed: it must keep the load at or
    /// under 3/4 even with the whole domain present
    /// (`4 * spec.t() <= 3 * capacity`), so the shard never resizes.
    ///
    /// # Panics
    ///
    /// Panics unless `cap_for(spec.t(), capacity) == capacity`, and
    /// unless `n >= 1`.
    pub fn new(spec: HashSetSpec, capacity: usize, n: usize) -> Self {
        let t = spec.t() as usize;
        assert!(
            cap_for(t, capacity) == capacity,
            "capacity {capacity} cannot stay fixed for a domain of {t} keys: \
             a full domain needs 4 * {t} <= 3 * capacity"
        );
        assert!(n >= 1, "at least one handle");
        HashTableObject {
            spec,
            n,
            table: ResizableHiShard::new(capacity, t),
        }
    }

    /// The underlying backend, for backend-specific inspection. The backend
    /// accepts any nonzero `u32` key that fits its arena; mutating it
    /// directly with keys outside the spec's domain breaks the facade's
    /// state decode, which
    /// [`abstract_state`](ConcurrentObject::abstract_state) reports loudly.
    pub fn backend(&self) -> &ResizableHiShard {
        &self.table
    }
}

/// Role handle of [`HashTableObject`]: all handles are symmetric.
#[derive(Debug)]
pub struct HashTableHandle<'a> {
    table: &'a ResizableHiShard,
    t: u32,
}

impl ObjectHandle<HashSetSpec> for HashTableHandle<'_> {
    fn apply(&mut self, op: HashSetOp) -> HashSetResp {
        // Enforce the spec's domain exactly as `HashSetSpec::apply` does:
        // the backend accepts any nonzero `u32`, but an out-of-domain key
        // would not survive the mask decode in `abstract_state`.
        let (HashSetOp::Insert(e) | HashSetOp::Remove(e) | HashSetOp::Contains(e)) = op;
        assert!((1..=self.t).contains(&e), "element {e} out of domain");
        let b = match op {
            HashSetOp::Insert(_) => self.table.insert(e),
            HashSetOp::Remove(_) => self.table.remove(e),
            HashSetOp::Contains(_) => self.table.contains(e),
        };
        HashSetResp::Bool(b)
    }

    fn supports(&self, _op: &HashSetOp) -> bool {
        true
    }
}

impl ConcurrentObject<HashSetSpec> for HashTableObject {
    type Handle<'a> = HashTableHandle<'a>;

    fn spec(&self) -> &HashSetSpec {
        &self.spec
    }

    fn roles(&self) -> Roles {
        Roles::MultiProcess { n: self.n }
    }

    fn hi_level(&self) -> HiLevel {
        HiLevel::StateQuiescent
    }

    fn progress(&self) -> Progress {
        // Updates serialize through the shard's seqlock: an updater crashed
        // mid-critical-section leaves the sequence word odd forever and
        // wedges every later lookup's validation loop. The ROADMAP's
        // lock-free-updates migration is exactly the move of this class to
        // `LockFree`.
        Progress::Blocking
    }

    fn handles(&mut self) -> Vec<HashTableHandle<'_>> {
        (0..self.n)
            .map(|_| HashTableHandle {
                table: &self.table,
                t: self.spec.t(),
            })
            .collect()
    }

    fn mem_snapshot(&self) -> Vec<u64> {
        // The slot array is the memory representation: the shard's view
        // minus its capacity word, which never moves here. The seqlock word
        // is synchronization state (see the backend's module docs).
        self.table.view().split_off(1)
    }

    fn canonical(&self, state: &u64) -> Option<Vec<u64>> {
        let keys = (1..=self.spec.t()).filter(|e| state & (1 << e) != 0);
        Some(self.table.canonical_view(keys).split_off(1))
    }

    fn abstract_state(&self) -> u64 {
        self.mem_snapshot()
            .into_iter()
            .filter(|&k| k != 0)
            .fold(0u64, |mask, k| {
                assert!(
                    (1..=u64::from(self.spec.t())).contains(&k),
                    "backend holds out-of-domain key {k} (domain 1..={}): \
                     was it mutated through backend() with unchecked keys?",
                    self.spec.t()
                );
                mask | (1 << k)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_densest_fixed_capacity_is_accepted() {
        // 6 keys in 8 slots is exactly the 3/4 bound.
        let obj = HashTableObject::new(HashSetSpec::new(6), 8, 2);
        assert_eq!(obj.backend().capacity(), 8);
        assert_eq!(obj.backend().arena_len(), 8, "no room to ever migrate");
    }

    #[test]
    #[should_panic(expected = "cannot stay fixed for a domain of 7 keys")]
    fn a_capacity_the_domain_could_outgrow_is_rejected() {
        // 7 keys would push 8 slots past 3/4 load and force a resize.
        HashTableObject::new(HashSetSpec::new(7), 8, 2);
    }
}
