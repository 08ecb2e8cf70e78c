//! Simulator twin of [`ShardedHiHashTable`](crate::threaded::ShardedHiHashTable):
//! the per-shard seqlock protocol with online resize as a slot-level step
//! machine over [`hi_sim`]'s shared memory, one primitive per step, so the
//! seeded scheduler can interleave operations — including a migration in
//! mid-flight — and `hi_spec` can audit linearizability and canonical
//! memory.
//!
//! Memory layout, per shard in shard order: the seqlock word, the
//! **capacity word**, then the physical arena cells. The seqlock words are
//! synchronization state and excluded from the canonical representation;
//! the capacity words are *included* — capacity is part of the
//! representation and must itself be history-independent. Use
//! [`SimShardedTable::observed_view`] to project a snapshot onto the
//! composed `[cap] ++ live-prefix` view before comparing against
//! [`SimShardedTable::canonical_view_of`].
//!
//! One deliberate simplification versus the threaded backend: updates
//! here always take the migration path (snapshot the arena cell by cell,
//! plan with [`crate::resize::rewrite_plan`], write the
//! difference) instead of branching into the carry and backward-shift fast
//! paths. Off-boundary, the plan emits exactly the fast paths' writes in
//! exactly their order (pinned by `off_boundary_plans_equal_the_fast_paths`
//! in [`resize`](crate::resize)); on-boundary, the machine exercises
//! precisely the never-absent migration order the threaded resize uses. So
//! the one twin models every threaded write sequence, write for write;
//! only the lock holder's reads differ (a full arena scan instead of a
//! probe walk). At one shard whose base capacity fits the whole domain it
//! is the twin of the single fixed-capacity table.

use hi_core::objects::{HashSetOp, HashSetResp, HashSetSpec};
use hi_core::{HiLevel, Pid, Progress, Roles};
use hi_hashtable::{canonical_layout, incumbent_wins, slot_of};
use hi_sim::{CellDomain, CellId, Cells, Implementation, ProcessHandle, SharedMem};
use hi_spec::{CanonicalView, ObservationModel, SimAudit, SimObject};

use crate::resize::rewrite_plan;
use crate::{cap_for, shard_of};

/// The shared-memory cells of one shard.
#[derive(Clone, PartialEq, Eq, Debug)]
struct ShardCells {
    seq: CellId,
    cap: CellId,
    arena: Vec<CellId>,
}

/// The sharded resizable HI hash table as a simulator implementation of
/// [`HashSetSpec`]. Any of the `n` processes may run any operation.
#[derive(Clone, Debug)]
pub struct SimShardedTable {
    spec: HashSetSpec,
    n: usize,
    base: usize,
    shards: Vec<ShardCells>,
    mem: SharedMem,
}

impl SimShardedTable {
    /// Creates a table over `{1..=t}` with `shards` shards starting at
    /// logical capacity `base`, shared by `n` processes. Each shard's
    /// physical arena is provisioned for its worst-case domain slice, as
    /// in the threaded backend.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`, `shards == 0` or `base == 0`.
    pub fn new(t: u32, shards: usize, base: usize, n: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(base >= 1, "capacity base must be at least 1");
        let spec = HashSetSpec::new(t);
        let mut counts = vec![0usize; shards];
        for key in 1..=t {
            counts[shard_of(key, shards)] += 1;
        }
        let mut mem = SharedMem::new();
        let cells = counts
            .iter()
            .enumerate()
            .map(|(s, &max_keys)| {
                let seq = mem.alloc(format!("S{s}.seq"), CellDomain::Word, 0);
                let cap = mem.alloc(
                    format!("S{s}.cap"),
                    CellDomain::Word,
                    cap_for(0, base) as u64,
                );
                let arena = (0..cap_for(max_keys, base))
                    .map(|i| {
                        mem.alloc(
                            format!("S{s}.H[{i}]"),
                            CellDomain::Bounded(u64::from(t) + 1),
                            0,
                        )
                    })
                    .collect();
                ShardCells { seq, cap, arena }
            })
            .collect();
        SimShardedTable {
            spec,
            n,
            base,
            shards: cells,
            mem,
        }
    }

    /// The number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Projects a full memory snapshot onto the composed representation:
    /// per shard, the capacity word followed by the live arena prefix
    /// (seqlock words dropped, dead arena tails dropped).
    pub fn observed_view(&self, snap: &[u64]) -> Vec<u64> {
        let mut view = Vec::new();
        let mut off = 0;
        for cells in &self.shards {
            let cap = snap[off + 1] as usize;
            view.push(snap[off + 1]);
            view.extend_from_slice(&snap[off + 2..off + 2 + cap]);
            off += 2 + cells.arena.len();
        }
        view
    }

    /// The abstract state (bitmask) decoded from a snapshot's arena
    /// cells. Only meaningful at state-quiescent points.
    pub fn decode_state(&self, snap: &[u64]) -> u64 {
        let mut off = 0;
        let mut state = 0u64;
        for cells in &self.shards {
            for &v in &snap[off + 2..off + 2 + cells.arena.len()] {
                if v != 0 {
                    state |= 1 << v;
                }
            }
            off += 2 + cells.arena.len();
        }
        state
    }

    /// The canonical composed view of abstract state `state`: per shard,
    /// `cap_for` of its key count followed by the canonical layout of its
    /// key slice — the same oracle the threaded
    /// [`canonical_memory`](crate::threaded::ShardedHiHashTable::canonical_memory)
    /// computes.
    pub fn canonical_view_of(&self, state: u64) -> Vec<u64> {
        let shards = self.shards.len();
        let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); shards];
        for key in (1..=self.spec.t()).filter(|e| state & (1 << e) != 0) {
            per_shard[shard_of(key, shards)].push(key);
        }
        let mut view = Vec::new();
        for keys in per_shard {
            let cap = cap_for(keys.len(), self.base);
            view.push(cap as u64);
            view.extend(canonical_layout(cap, keys).into_iter().map(u64::from));
        }
        view
    }
}

/// What an update does once it has scanned its shard.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum UpdateKind {
    Insert(u32),
    Remove(u32),
}

impl UpdateKind {
    fn key(&self) -> u32 {
        match self {
            UpdateKind::Insert(k) | UpdateKind::Remove(k) => *k,
        }
    }
}

/// Program counter of one table operation.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Pc {
    Idle,
    /// Update path: read the shard's `seq`, hoping for an even value.
    AcquireRead {
        op: UpdateKind,
    },
    /// Update path: CAS the shard's `seq` from even `s` to `s + 1`.
    AcquireCas {
        op: UpdateKind,
        s: u64,
    },
    /// Update path: read the shard's capacity word under the held lock.
    ReadCap {
        op: UpdateKind,
        s: u64,
    },
    /// Update path: snapshot the shard's arena, one cell per step; the
    /// final step plans the rewrite.
    Scan {
        op: UpdateKind,
        s: u64,
        cap: usize,
        cells: Vec<u32>,
    },
    /// Apply the planned cell writes (arena, then possibly the capacity
    /// word), one per step; the step after the last write batches the
    /// seqlock release with the response.
    Write {
        shard: usize,
        s: u64,
        writes: Vec<(CellId, u64)>,
        idx: usize,
        resp: bool,
    },
    /// Lookup: read the shard's `seq` to open the validation window.
    LookSeq {
        key: u32,
    },
    /// Lookup: read the capacity word.
    LookCap {
        key: u32,
        s1: u64,
    },
    /// Lookup: probe walk over the live prefix.
    LookScan {
        key: u32,
        s1: u64,
        cap: usize,
        i: usize,
        travelled: usize,
    },
    /// Lookup: re-read `seq`; absent verdict stands only if
    /// unchanged+even (which also certifies the capacity read).
    LookValidate {
        key: u32,
        s1: u64,
    },
}

/// The per-process step machine of [`SimShardedTable`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SimShardedTableProcess {
    base: usize,
    shards: Vec<ShardCells>,
    pc: Pc,
}

impl SimShardedTableProcess {
    fn shard_for(&self, key: u32) -> usize {
        shard_of(key, self.shards.len())
    }

    fn cells_for(&self, key: u32) -> &ShardCells {
        &self.shards[self.shard_for(key)]
    }
}

impl ProcessHandle<HashSetSpec> for SimShardedTableProcess {
    fn invoke(&mut self, op: HashSetOp) {
        assert!(self.is_idle(), "operation already pending");
        self.pc = match op {
            HashSetOp::Insert(e) => Pc::AcquireRead {
                op: UpdateKind::Insert(e),
            },
            HashSetOp::Remove(e) => Pc::AcquireRead {
                op: UpdateKind::Remove(e),
            },
            HashSetOp::Contains(e) => Pc::LookSeq { key: e },
        };
    }

    fn is_idle(&self) -> bool {
        self.pc == Pc::Idle
    }

    fn step<C: Cells>(&mut self, ctx: &mut C) -> Option<HashSetResp> {
        match self.pc.clone() {
            Pc::Idle => panic!("step of idle process"),
            Pc::AcquireRead { op } => {
                let s = ctx.read(self.cells_for(op.key()).seq);
                self.pc = if s % 2 == 0 {
                    Pc::AcquireCas { op, s }
                } else {
                    Pc::AcquireRead { op }
                };
                None
            }
            Pc::AcquireCas { op, s } => {
                self.pc = if ctx.cas(self.cells_for(op.key()).seq, s, s + 1) {
                    Pc::ReadCap { op, s: s + 1 }
                } else {
                    Pc::AcquireRead { op }
                };
                None
            }
            Pc::ReadCap { op, s } => {
                let cap = ctx.read(self.cells_for(op.key()).cap) as usize;
                self.pc = Pc::Scan {
                    op,
                    s,
                    cap,
                    cells: Vec::new(),
                };
                None
            }
            Pc::Scan {
                op,
                s,
                cap,
                mut cells,
            } => {
                let shard = self.shard_for(op.key());
                let sc = &self.shards[shard];
                let occ = ctx.read(sc.arena[cells.len()]) as u32;
                cells.push(occ);
                if cells.len() < sc.arena.len() {
                    self.pc = Pc::Scan { op, s, cap, cells };
                    return None;
                }
                // Arena snapshot complete (we hold the lock, so it is the
                // canonical live image plus a zero tail): decide, plan.
                let key = op.key();
                let mut keys: Vec<u32> = cells.iter().copied().filter(|&k| k != 0).collect();
                let present = keys.contains(&key);
                let (resp, mutate) = match op {
                    UpdateKind::Insert(_) => {
                        if present {
                            (false, false)
                        } else {
                            keys.push(key);
                            (true, true)
                        }
                    }
                    UpdateKind::Remove(_) => {
                        if present {
                            keys.retain(|&k| k != key);
                            (true, true)
                        } else {
                            (false, false)
                        }
                    }
                };
                let mut writes: Vec<(CellId, u64)> = Vec::new();
                if mutate {
                    let new_cap = cap_for(keys.len(), self.base);
                    let mut target = canonical_layout(new_cap, keys);
                    target.resize(sc.arena.len(), 0);
                    writes = rewrite_plan(&cells, &target)
                        .into_iter()
                        .map(|(i, v)| (sc.arena[i], u64::from(v)))
                        .collect();
                    if new_cap != cap {
                        writes.push((sc.cap, new_cap as u64));
                    }
                }
                self.pc = Pc::Write {
                    shard,
                    s,
                    writes,
                    idx: 0,
                    resp,
                };
                None
            }
            Pc::Write {
                shard,
                s,
                writes,
                idx,
                resp,
            } => {
                if idx < writes.len() {
                    let (cell, val) = writes[idx];
                    ctx.write(cell, val);
                    self.pc = Pc::Write {
                        shard,
                        s,
                        writes,
                        idx: idx + 1,
                        resp,
                    };
                    None
                } else {
                    // No primitive left to batch with the release; fall
                    // through to the release store on this step.
                    ctx.write(self.shards[shard].seq, s + 1);
                    self.pc = Pc::Idle;
                    Some(HashSetResp::Bool(resp))
                }
            }
            Pc::LookSeq { key } => {
                let s1 = ctx.read(self.cells_for(key).seq);
                self.pc = Pc::LookCap { key, s1 };
                None
            }
            Pc::LookCap { key, s1 } => {
                let cap = ctx.read(self.cells_for(key).cap) as usize;
                self.pc = Pc::LookScan {
                    key,
                    s1,
                    cap,
                    i: slot_of(key, cap),
                    travelled: 0,
                };
                None
            }
            Pc::LookScan {
                key,
                s1,
                cap,
                i,
                travelled,
            } => {
                if travelled >= cap {
                    // Full turn without a terminator: interference; retry.
                    self.pc = Pc::LookSeq { key };
                    return None;
                }
                let occ = ctx.read(self.cells_for(key).arena[i]) as u32;
                if occ == key {
                    self.pc = Pc::Idle;
                    return Some(HashSetResp::Bool(true));
                }
                if occ == 0 || !incumbent_wins(occ, key, i, cap) {
                    self.pc = Pc::LookValidate { key, s1 };
                } else {
                    self.pc = Pc::LookScan {
                        key,
                        s1,
                        cap,
                        i: (i + 1) % cap,
                        travelled: travelled + 1,
                    };
                }
                None
            }
            Pc::LookValidate { key, s1 } => {
                let s2 = ctx.read(self.cells_for(key).seq);
                if s1 % 2 == 0 && s2 == s1 {
                    self.pc = Pc::Idle;
                    Some(HashSetResp::Bool(false))
                } else {
                    self.pc = Pc::LookSeq { key };
                    None
                }
            }
        }
    }

    fn peeked_cell(&self) -> Option<CellId> {
        match &self.pc {
            Pc::Idle => None,
            Pc::AcquireRead { op } | Pc::AcquireCas { op, .. } => {
                Some(self.cells_for(op.key()).seq)
            }
            Pc::ReadCap { op, .. } => Some(self.cells_for(op.key()).cap),
            Pc::Scan { op, cells, .. } => Some(self.cells_for(op.key()).arena[cells.len()]),
            Pc::Write {
                shard, writes, idx, ..
            } => Some(if *idx < writes.len() {
                writes[*idx].0
            } else {
                self.shards[*shard].seq
            }),
            Pc::LookSeq { key } | Pc::LookValidate { key, .. } => Some(self.cells_for(*key).seq),
            Pc::LookCap { key, .. } => Some(self.cells_for(*key).cap),
            Pc::LookScan { key, i, .. } => Some(self.cells_for(*key).arena[*i]),
        }
    }
}

impl Implementation<HashSetSpec> for SimShardedTable {
    type Process = SimShardedTableProcess;

    fn spec(&self) -> &HashSetSpec {
        &self.spec
    }

    fn num_processes(&self) -> usize {
        self.n
    }

    fn init_memory(&self) -> SharedMem {
        self.mem.clone()
    }

    fn make_process(&self, _pid: Pid) -> SimShardedTableProcess {
        SimShardedTableProcess {
            base: self.base,
            shards: self.shards.clone(),
            pc: Pc::Idle,
        }
    }
}

impl SimObject<HashSetSpec> for SimShardedTable {
    type Machine = Self;

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
        // Per-shard seqlocks: an updater crashing inside a critical
        // section (worst case: mid-migration) wedges that shard's updates
        // and absent-verdict lookups forever. Migrating updates to
        // lock-free helping (arXiv:2503.21016) is the ROADMAP follow-up
        // this class will graduate from.
        Progress::Blocking
    }

    fn implementation(&self) -> &Self {
        self
    }

    /// Direct canonicity of the **composed** representation: at every
    /// state-quiescent point, each shard's capacity word and live arena
    /// prefix must equal `cap_for` and the canonical layout of its slice
    /// of the decoded key set. Seqlock words are excluded (synchronization
    /// state); capacity words are included — capacity is representation,
    /// and auditing it is what certifies resize history does not leak.
    fn hi_audit(&self) -> SimAudit<HashSetSpec, Self> {
        let oracle = self.clone();
        SimAudit::direct_canonical(ObservationModel::StateQuiescent, move |snap| {
            let state = oracle.decode_state(snap);
            CanonicalView {
                observed: oracle.observed_view(snap),
                canonical: oracle.canonical_view_of(state),
                state: format!("{state:#b}"),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hi_core::ObjectSpec;
    use hi_sim::Executor;

    #[test]
    fn solo_ops_match_the_sequential_oracle() {
        let imp = SimShardedTable::new(6, 2, 1, 2);
        let mut exec = Executor::new(imp.clone());
        let script = [
            (HashSetOp::Insert(3), true),
            (HashSetOp::Insert(3), false),
            (HashSetOp::Insert(5), true),
            (HashSetOp::Contains(5), true),
            (HashSetOp::Remove(3), true),
            (HashSetOp::Remove(3), false),
            (HashSetOp::Contains(3), false),
        ];
        let mut state = 0u64;
        for (op, expect) in script {
            let resp = exec.run_op_solo(Pid(0), op, 10_000).unwrap();
            assert_eq!(resp, HashSetResp::Bool(expect), "{op:?}");
            state = exec.spec().apply(&state, &op).0;
            assert_eq!(
                imp.observed_view(&exec.snapshot()),
                imp.canonical_view_of(state),
                "state-quiescent composed view canonical after {op:?}"
            );
            assert_eq!(imp.decode_state(&exec.snapshot()), state);
        }
    }

    #[test]
    fn capacity_words_track_the_key_count_through_grow_and_shrink() {
        // base = 1: the very first insert into a shard forces a grow
        // (cap_for(1,1) = 2), and the last remove shrinks back to 1. The
        // capacity word must follow cap_for exactly at every quiescent
        // point — that is the no-hysteresis property.
        let imp = SimShardedTable::new(6, 2, 1, 1);
        let mut exec = Executor::new(imp.clone());
        let mut state = 0u64;
        let script = [
            HashSetOp::Insert(1),
            HashSetOp::Insert(2),
            HashSetOp::Insert(4),
            HashSetOp::Remove(2),
            HashSetOp::Remove(1),
            HashSetOp::Remove(4),
        ];
        for op in script {
            exec.run_op_solo(Pid(0), op, 10_000).unwrap();
            state = exec.spec().apply(&state, &op).0;
            let view = imp.observed_view(&exec.snapshot());
            assert_eq!(view, imp.canonical_view_of(state), "after {op:?}");
        }
        // Empty again: every capacity word is back at base, so the final
        // composed view equals the initial one — resize history erased.
        assert_eq!(
            imp.observed_view(&exec.snapshot()),
            imp.canonical_view_of(0)
        );
    }

    #[test]
    fn lookup_retries_while_an_update_is_in_flight() {
        // One shard at a fixed capacity (base 8 fits all 6 keys): the
        // insert below is an off-boundary carry, not a migration.
        let imp = SimShardedTable::new(6, 1, 8, 2);
        let mut exec = Executor::new(imp);
        exec.run_op_solo(Pid(0), HashSetOp::Insert(2), 10_000)
            .unwrap();
        // Start an insert on pid 0 and stall it right after lock acquisition.
        exec.invoke(Pid(0), HashSetOp::Insert(5));
        for _ in 0..3 {
            assert!(exec.step(Pid(0)).is_none());
        }
        // A lookup for an absent key cannot produce a verdict while the
        // seqlock is odd: it keeps cycling through its retry loop.
        exec.invoke(Pid(1), HashSetOp::Contains(4));
        for _ in 0..40 {
            assert!(
                exec.step(Pid(1)).is_none(),
                "absent verdict accepted while an update was in flight"
            );
        }
        // Present keys are still sighted mid-update.
        let resp = exec.run_solo(Pid(0), 10_000).unwrap().1;
        assert_eq!(resp, HashSetResp::Bool(true));
        let resp = exec.run_solo(Pid(1), 10_000).unwrap().1;
        assert_eq!(resp, HashSetResp::Bool(false));
    }

    #[test]
    fn lookup_retries_while_a_migration_is_in_flight() {
        let imp = SimShardedTable::new(6, 1, 1, 2);
        let mut exec = Executor::new(imp);
        exec.run_op_solo(Pid(0), HashSetOp::Insert(2), 10_000)
            .unwrap();
        // Start an insert that will migrate (cap 2 -> 4) and stall it
        // mid-critical-section.
        exec.invoke(Pid(0), HashSetOp::Insert(5));
        for _ in 0..4 {
            assert!(exec.step(Pid(0)).is_none());
        }
        // An absent verdict cannot be produced while the shard's seqlock
        // is odd: the lookup cycles through its retry loop.
        exec.invoke(Pid(1), HashSetOp::Contains(4));
        for _ in 0..40 {
            assert!(
                exec.step(Pid(1)).is_none(),
                "absent verdict accepted while a migration was in flight"
            );
        }
        // Present keys are still sighted mid-migration.
        let resp = exec.run_solo(Pid(0), 10_000).unwrap().1;
        assert_eq!(resp, HashSetResp::Bool(true));
        let resp = exec.run_solo(Pid(1), 10_000).unwrap().1;
        assert_eq!(resp, HashSetResp::Bool(false));
    }
}
