//! Dedicated crash sweep for the phase-free HI hash table at a fixed
//! capacity (one shard whose base capacity is 9): the updater is
//! crashed at **every** transition of a multi-slot rewrite, and the
//! duplicate-then-overwrite write order must keep every surviving key
//! visible in memory at every intermediate step — the paper's
//! memory-observing adversary, pointed at the one backend whose updates
//! rewrite many cells.
//!
//! Domain `t = 8`, capacity 9: keys 2, 4, 6 and 8 all share home slot 8,
//! so the key set `{8, 6, 4, 2}` packs into one wrap-around Robin Hood run
//! at slots 8, 0, 1, 2. Removing 8 backward-shifts three keys (4 slot
//! writes); re-inserting it carries three incumbents forward (4 slot
//! writes). Both sweeps crash the updater at every point of those
//! rewrites. Four keys stay under the 3/4 load bound of 9 slots, so the
//! capacity never moves and both updates are the off-boundary carry and
//! backward shift.

use hi_concurrent::hashtable::slot_of;
use hi_concurrent::shard::SimShardedTable;
use hi_concurrent::sim::{
    run_workload_with_faults, Executor, FaultPlan, Faulty, Pid, Scripted, Workload,
};
use hi_concurrent::spec::{linearize, run_fault_plan, FaultSweepConfig, LinOptions};
use hi_core::objects::{HashSetOp, HashSetResp};

const T: u32 = 8;
const CAP: usize = 9;
/// Upper bound on the updater's transition count through one rewrite:
/// invocation 1, acquire 2, capacity read 1, a scan of the whole arena
/// (provisioned at `cap_for(8, 9) = 18` cells), 4 writes and the release —
/// 27 in all. Sweeping past it also covers "crash after completion".
const SWEEP: u64 = 32;

const UPDATER: Pid = Pid(0);

/// The packed run: all four keys share home slot 8, so every key after the
/// first lands displaced and removing or inserting at the run's head
/// rewrites every slot behind it.
fn run_keys() -> Vec<u32> {
    vec![8, 6, 4, 2]
}

fn table() -> SimShardedTable {
    let imp = SimShardedTable::new(T, 1, CAP, 2);
    // The collision structure the whole file depends on; if the hash ever
    // changes, fail here with a clear message rather than in a sweep.
    for k in [4, 6, 8] {
        assert_eq!(
            slot_of(2, CAP),
            slot_of(k, CAP),
            "keys 2 and {k} must collide for the multi-slot rewrite"
        );
    }
    imp
}

/// Seeds the table with `keys` via solo (quiescent) operations.
fn seed_table(exec: &mut Executor<hi_core::objects::HashSetSpec, SimShardedTable>, keys: &[u32]) {
    for &k in keys {
        let resp = exec
            .run_op_solo(UPDATER, HashSetOp::Insert(k), 10_000)
            .expect("quiescent insert");
        assert_eq!(resp, HashSetResp::Bool(true));
    }
}

/// Crashes the updater at transition `crash_after` of `update`, then drains
/// the reader's `Contains` queries. Returns the final snapshot.
///
/// Asserts, at **every** transition of the faulty run, that each key of
/// `witnesses` appears somewhere in the slot array — the
/// duplicate-then-overwrite invariant, checked against raw memory exactly
/// as the crash adversary would.
fn crash_rewrite(
    imp: &SimShardedTable,
    setup: &[u32],
    update: HashSetOp,
    witnesses: &[u32],
    crash_after: u64,
) -> Vec<u64> {
    let mut exec = Executor::new(imp.clone());
    seed_table(&mut exec, setup);
    let queries: Vec<HashSetOp> = witnesses.iter().map(|&k| HashSetOp::Contains(k)).collect();
    let workload: Workload<_> = Workload::from_vecs(vec![vec![update], queries]);
    // The updater runs first so the crash point lands inside its rewrite;
    // the reader drains afterwards against the frozen memory.
    let mut faulty = Faulty::new(
        Scripted::runs(&[(0, SWEEP as usize)]),
        FaultPlan::crash(UPDATER, crash_after),
        2,
    );
    let mut absent = None;
    run_workload_with_faults(
        &mut exec,
        workload,
        &mut faulty,
        |e, _f| {
            let snap = e.snapshot();
            for &k in witnesses {
                if !arena(&snap).contains(&u64::from(k)) {
                    absent = Some((k, snap.clone()));
                }
            }
        },
        20_000,
    )
    .unwrap_or_else(|e| panic!("crash at {crash_after}: reader failed to drain: {e}"));
    if let Some((k, snap)) = absent {
        panic!(
            "crash at {crash_after}: present key {k} vanished mid-rewrite \
             (duplicate-then-overwrite violated): slots {:?}",
            imp.observed_view(&snap)
        );
    }
    // Every Contains over a present key must have sighted it — even with
    // the seqlock held by the crashed updater, present verdicts need no
    // validation.
    for rec in exec.history().records() {
        if let HashSetOp::Contains(k) = rec.op {
            assert_eq!(
                rec.resp,
                Some(HashSetResp::Bool(true)),
                "crash at {crash_after}: Contains({k}) did not sight a surviving key"
            );
        }
    }
    linearize(exec.spec(), exec.history(), &LinOptions::default())
        .unwrap_or_else(|e| panic!("crash at {crash_after}: truncated history: {e}"));
    exec.snapshot()
}

/// If the crash landed outside the seqlock critical section the memory is
/// state-quiescent: the slot array must be the canonical Robin Hood layout
/// of the decoded key set — the DirectCanonical audit at the adversary's
/// observation point. (An odd seqlock word means the crash wedged the
/// update mid-critical-section; `Progress::Blocking` tolerates that, and no
/// state-quiescent point ever comes.)
fn audit_if_quiescent(imp: &SimShardedTable, snap: &[u64], crash_after: u64) -> bool {
    let seq = snap[0];
    if seq % 2 != 0 {
        return false;
    }
    let state = imp.decode_state(snap);
    assert_eq!(
        imp.observed_view(snap),
        imp.canonical_view_of(state),
        "crash at {crash_after}: state-quiescent memory is not canonical for {state:#b}"
    );
    true
}

/// The arena cells of a snapshot: the one shard's seqlock and capacity
/// words dropped.
fn arena(snap: &[u64]) -> &[u64] {
    &snap[2..]
}

/// Whether the crash-free tail of the sweep ran the update to completion:
/// the last crash point must leave a quiescent image in which `key`'s
/// presence is `present` — otherwise `SWEEP` is too small to reach
/// "crash after completion".
fn completed(imp: &SimShardedTable, snap: &[u64], key: u32, present: bool) -> bool {
    snap[0] % 2 == 0 && (imp.decode_state(snap) & (1 << key) != 0) == present
}

#[test]
fn remove_crashed_at_every_step_never_hides_a_surviving_key() {
    let imp = table();
    let setup = run_keys();
    // Removing the run's head (8) backward-shifts 6, 4, 2 — all of which
    // must stay visible at every intermediate configuration.
    let witnesses = [6, 4, 2];
    let mut quiescent_points = 0;
    let mut wedged_points = 0;
    for crash_after in 0..=SWEEP {
        let snap = crash_rewrite(&imp, &setup, HashSetOp::Remove(8), &witnesses, crash_after);
        if crash_after == SWEEP {
            assert!(
                completed(&imp, &snap, 8, false),
                "the sweep stops short of completion"
            );
        }
        if audit_if_quiescent(&imp, &snap, crash_after) {
            quiescent_points += 1;
        } else {
            wedged_points += 1;
        }
    }
    assert!(
        quiescent_points > 0,
        "some crash points must land outside the critical section"
    );
    assert!(
        wedged_points > 0,
        "some crash points must land mid-rewrite — otherwise the sweep proves nothing"
    );
}

#[test]
fn insert_crashed_at_every_step_never_hides_a_surviving_key() {
    let imp = table();
    // Inserting 8 at the head of the run {6, 4, 2} carries all three
    // incumbents one slot forward (far-end-first writes).
    let setup = [6, 4, 2];
    let witnesses = [6, 4, 2];
    let mut quiescent_points = 0;
    for crash_after in 0..=SWEEP {
        let snap = crash_rewrite(&imp, &setup, HashSetOp::Insert(8), &witnesses, crash_after);
        if crash_after == SWEEP {
            assert!(
                completed(&imp, &snap, 8, true),
                "the sweep stops short of completion"
            );
        }
        if audit_if_quiescent(&imp, &snap, crash_after) {
            quiescent_points += 1;
        }
    }
    assert!(quiescent_points > 0);
}

/// The generic single-plan checker on the same table: a crash mid-update
/// may wedge the survivors (`Progress::Blocking` tolerates `completed:
/// false`), but the truncated history must still linearize and the HI audit
/// must hold at whatever observation points remain.
#[test]
fn generic_fault_plans_tolerate_blocking_wedges_only() {
    let imp = table();
    let cfg = FaultSweepConfig::new(21, 5, 200_000);
    let mut wedged = 0;
    let mut drained = 0;
    for crash_after in 0..=SWEEP {
        let plan = FaultPlan::crash(UPDATER, crash_after);
        let outcome = run_fault_plan(&imp, &plan, &cfg, 50_000)
            .unwrap_or_else(|e| panic!("crash at {crash_after}: {e}"));
        if outcome.completed {
            drained += 1;
        } else {
            wedged += 1;
        }
    }
    assert!(
        drained > 0,
        "crashes outside the critical section must let survivors drain"
    );
    assert!(
        wedged > 0,
        "a mid-critical-section crash must wedge the seqlock — the Blocking class's price"
    );
}
