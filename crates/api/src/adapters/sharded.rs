//! [`ConcurrentObject`] adapter for the sharded table-of-tables
//! ([`hi_shard::ShardedHiHashTable`]): the scale-out backend, generic over
//! any [`KeySetSpec`] so the same adapter serves the registry's small
//! enumerable instance ([`HashSetSpec`](hi_core::objects::HashSetSpec))
//! and the soak harness's big-domain instances
//! ([`BigHashSetSpec`](hi_core::objects::BigHashSetSpec)).
//!
//! Two facade hooks come alive here:
//!
//! * [`ConcurrentObject::maintenance`] — the table's online resizes are
//!   background maintenance; the adapter surfaces their count and total
//!   pause so the soak harness can attribute them per epoch.
//! * [`ConcurrentObject::sampled_audit`] — above
//!   [`SAMPLED_AUDIT_DOMAIN`], the drain-barrier audit switches from the
//!   full-image comparison to a composed per-shard sample: `k`
//!   seed-selected shards compared exhaustively against their canonical
//!   images, every other shard scanned for the cheap structural
//!   invariants (capacity word correct for its key count, every key
//!   in-domain and routed home, Robin Hood runs gap-free) without
//!   recomputing canonical layouts.

use std::marker::PhantomData;
use std::time::Duration;

use hi_core::objects::{HashSetOp, HashSetResp, KeySetSpec};
use hi_core::SplitMix64;
use hi_hashtable::displacement;
use hi_shard::{cap_for, ShardedHiHashTable};

use crate::object::{
    ConcurrentObject, HiLevel, MaintenanceSnapshot, ObjectHandle, Progress, Roles, SampledAudit,
};

/// Domain bound up to which the full-image barrier audit is considered
/// cheap; above it [`ShardedTableObject::sampled_audit`] offers the
/// composed per-shard sample instead.
pub const SAMPLED_AUDIT_DOMAIN: u32 = 4096;

/// Shards compared exhaustively per sample (clamped to the shard count).
const EXHAUSTIVE_SHARDS_PER_SAMPLE: usize = 2;

/// Decorrelates the audit's shard selection from other users of the seed.
const SAMPLE_SALT: u64 = 0xa0d1_7b65_93c5_2f11;

/// The sharded HI hash table through the unified facade: `n` symmetric
/// handles over independently locked, independently resizable Robin Hood
/// shards; lookups lock-free; state-quiescent HI over the concatenation of
/// every shard's capacity word and live arena prefix.
#[derive(Debug)]
pub struct ShardedTableObject<S: KeySetSpec> {
    spec: S,
    n: usize,
    table: ShardedHiHashTable,
}

impl<S: KeySetSpec> ShardedTableObject<S> {
    /// Creates the table implementing `spec` with `shards` shards, each
    /// starting at logical capacity `base`, shared by `n` handles.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`, `base == 0` or `n == 0`.
    pub fn new(spec: S, shards: usize, base: usize, n: usize) -> Self {
        assert!(n >= 1, "at least one handle");
        let table = ShardedHiHashTable::new(spec.domain(), shards, base);
        ShardedTableObject { spec, n, table }
    }

    /// The underlying backend, for backend-specific inspection. Mutating a
    /// shard directly with keys it does not own corrupts the shard map,
    /// which both audits report loudly.
    pub fn backend(&self) -> &ShardedHiHashTable {
        &self.table
    }

    /// Runs one sampled audit unconditionally (the
    /// [`ConcurrentObject::sampled_audit`] hook gates this on the domain
    /// size). Only meaningful at state-quiescent points.
    pub fn audit_sample(&self, seed: u64) -> SampledAudit {
        let shards = self.table.num_shards();
        let k = EXHAUSTIVE_SHARDS_PER_SAMPLE.min(shards);
        let mut rng = SplitMix64::new(seed ^ SAMPLE_SALT);
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        while chosen.len() < k {
            let s = rng.below(shards);
            if !chosen.contains(&s) {
                chosen.push(s);
            }
        }
        let mut failure: Option<String> = None;
        let mut cells_spot_checked = 0usize;
        for s in 0..shards {
            let shard = self.table.shard(s);
            let view = shard.view();
            let cap = view[0] as usize;
            let cells = &view[1..];
            let keys: Vec<u32> = cells
                .iter()
                .filter(|&&v| v != 0)
                .map(|&v| v as u32)
                .collect();
            // Routing and domain hold in every shard, sampled or not: a
            // misplaced key can hide from the canonical comparison of its
            // *home* shard, so this scan is what catches cross-shard
            // corruption.
            for &key in &keys {
                if failure.is_some() {
                    break;
                }
                if !(1..=self.spec.domain()).contains(&key) {
                    failure = Some(format!("shard {s}: out-of-domain key {key}"));
                } else if self.table.shard_index(key) != s {
                    failure = Some(format!(
                        "shard {s}: key {key} belongs to shard {}",
                        self.table.shard_index(key)
                    ));
                }
            }
            if failure.is_some() {
                continue;
            }
            if chosen.contains(&s) {
                let canonical = shard.canonical_view(keys.iter().copied());
                if view != canonical {
                    failure = Some(format!(
                        "shard {s}: observed {view:?} != canonical {canonical:?}"
                    ));
                }
            } else {
                // Structural spot checks, no canonical-layout recomputation:
                // the capacity word is the pure function of the key count,
                // and every stored key heads a gap-free Robin Hood run.
                cells_spot_checked += cells.len();
                if cap != cap_for(keys.len(), shard.base()) {
                    failure = Some(format!(
                        "shard {s}: capacity word {cap} for {} keys (want {})",
                        keys.len(),
                        cap_for(keys.len(), shard.base())
                    ));
                    continue;
                }
                for (i, &v) in cells.iter().enumerate() {
                    if v == 0 {
                        continue;
                    }
                    let d = displacement(v as u32, i, cap);
                    let prev = cells[(i + cap - 1) % cap];
                    if d > 0 && prev == 0 {
                        failure = Some(format!(
                            "shard {s}: key {v} displaced {d} past an empty cell"
                        ));
                        break;
                    }
                }
            }
        }
        SampledAudit {
            shards_total: shards,
            shards_exhaustive: k,
            cells_spot_checked,
            failure,
        }
    }
}

/// Role handle of [`ShardedTableObject`]: all handles are symmetric.
#[derive(Debug)]
pub struct ShardedTableHandle<'a, S> {
    table: &'a ShardedHiHashTable,
    _spec: PhantomData<fn() -> S>,
}

impl<S: KeySetSpec> ObjectHandle<S> for ShardedTableHandle<'_, S> {
    fn apply(&mut self, op: HashSetOp) -> HashSetResp {
        // The table's router enforces the spec's domain exactly as the
        // spec's own `apply` does ("element {e} out of domain").
        let b = match op {
            HashSetOp::Insert(e) => self.table.insert(e),
            HashSetOp::Remove(e) => self.table.remove(e),
            HashSetOp::Contains(e) => self.table.contains(e),
        };
        HashSetResp::Bool(b)
    }

    fn supports(&self, _op: &HashSetOp) -> bool {
        true
    }
}

impl<S: KeySetSpec> ConcurrentObject<S> for ShardedTableObject<S> {
    type Handle<'a>
        = ShardedTableHandle<'a, S>
    where
        Self: 'a;

    fn spec(&self) -> &S {
        &self.spec
    }

    fn roles(&self) -> Roles {
        Roles::MultiProcess { n: self.n }
    }

    fn hi_level(&self) -> HiLevel {
        HiLevel::StateQuiescent
    }

    fn progress(&self) -> Progress {
        // Updates serialize through their shard's seqlock (though shards
        // are independent: a crash wedges one shard, not the table) — the
        // same class as the fixed-capacity table, for the same reason.
        Progress::Blocking
    }

    fn handles(&mut self) -> Vec<ShardedTableHandle<'_, S>> {
        (0..self.n)
            .map(|_| ShardedTableHandle {
                table: &self.table,
                _spec: PhantomData,
            })
            .collect()
    }

    fn mem_snapshot(&self) -> Vec<u64> {
        // Per shard: the capacity word then the live arena prefix. The
        // seqlock words are synchronization state and excluded, as in the
        // fixed-capacity adapter.
        self.table.memory()
    }

    fn canonical(&self, state: &S::State) -> Option<Vec<u64>> {
        Some(self.table.canonical_memory(self.spec.keys_of_state(state)))
    }

    fn abstract_state(&self) -> S::State {
        self.spec.state_from_keys(&self.table.keys())
    }

    fn sampled_audit(&self, seed: u64) -> Option<SampledAudit> {
        if self.spec.domain() <= SAMPLED_AUDIT_DOMAIN {
            // Small domain: the full-image barrier audit is cheap and
            // strictly stronger — decline the sample.
            return None;
        }
        Some(self.audit_sample(seed))
    }

    fn maintenance(&self) -> Option<MaintenanceSnapshot> {
        Some(MaintenanceSnapshot {
            resizes: self.table.resizes(),
            resize_pause: Duration::from_nanos(self.table.resize_nanos()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hi_core::objects::{BigHashSetSpec, HashSetSpec};

    fn churn<S: KeySetSpec>(obj: &mut ShardedTableObject<S>, keys: impl Iterator<Item = u32>) {
        let mut handles = obj.handles();
        for (i, k) in keys.enumerate() {
            let h = handles.len();
            handles[i % h].apply(HashSetOp::Insert(k));
            if i % 3 == 0 {
                handles[i % h].apply(HashSetOp::Remove(k));
            }
        }
    }

    #[test]
    fn quiescent_memory_is_the_composed_canonical_image() {
        let mut obj = ShardedTableObject::new(HashSetSpec::new(32), 4, 2, 3);
        churn(&mut obj, 1..=32u32);
        let state = obj.abstract_state();
        assert_eq!(Some(obj.mem_snapshot()), obj.canonical(&state));
        let m = obj.maintenance().expect("resizable backends report");
        assert!(m.resizes > 0, "32 keys into base-2 shards must migrate");
    }

    #[test]
    fn small_domains_decline_the_sampled_audit() {
        let obj = ShardedTableObject::new(HashSetSpec::new(8), 4, 2, 2);
        assert!(obj.sampled_audit(7).is_none());
        // ... but the sample itself still runs and passes on demand.
        assert!(obj.audit_sample(7).passed());
    }

    #[test]
    fn big_domains_offer_a_passing_sample() {
        let mut obj = ShardedTableObject::new(BigHashSetSpec::new(1 << 13), 8, 2, 2);
        churn(&mut obj, (1..=2048u32).map(|k| k * 3));
        let audit = obj.sampled_audit(41).expect("domain exceeds the bound");
        assert!(audit.passed(), "clean table failed: {:?}", audit.failure);
        assert_eq!(audit.shards_total, 8);
        assert_eq!(audit.shards_exhaustive, 2);
        assert!(audit.cells_spot_checked > 0, "rest must be spot-checked");
        // Different seeds choose different shards, same verdict.
        assert!(obj.audit_sample(42).passed());
    }

    #[test]
    fn misrouted_keys_fail_the_sampled_audit() {
        let obj = ShardedTableObject::new(BigHashSetSpec::new(1 << 13), 4, 2, 1);
        let key = 17u32;
        let wrong = (obj.backend().shard_index(key) + 1) % 4;
        obj.backend().shard(wrong).insert(key);
        let audit = obj.audit_sample(3);
        let failure = audit.failure.expect("corruption must be caught");
        assert!(failure.contains("belongs to shard"), "got: {failure}");
    }
}
