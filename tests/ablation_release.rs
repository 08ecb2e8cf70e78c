//! The §6.1 ablation: Algorithm 5 without the red `RL` lines is not history
//! independent — leftover R-LLSC context bits betray past activity — while
//! the full algorithm leaves canonical memory on the *same* schedules.
//!
//! This is the paper's motivating example for extending LL/SC with release:
//! "it could reveal that a counter … whose value is currently zero, was
//! non-zero in the past, because the observer can see that some
//! state-changing operation was performed on it."

use hi_concurrent::api::{ConcurrentObject, ObjectHandle, UniversalObject};
use hi_concurrent::sim::{run_workload, Executor, Pid, Seeded, Workload};
use hi_concurrent::spec::{linearize, LinOptions};
use hi_concurrent::universal::SimUniversal;
use hi_core::objects::{CounterOp, CounterResp, CounterSpec};

const MAX_STEPS: u64 = 500_000;

/// Drives the leak schedule from §6.1: p0 reads `head` while it still holds
/// p1's response `⟨r, 1⟩`, stalls, lets p1 finish completely (announce[1]
/// back to ⊥), then resumes — p0's `LL(announce[1])` finds ⊥ and, without
/// line 22's `RL`, leaves its context bit on a cell p1 never touches again.
fn run_leak_schedule(imp: &SimUniversal<CounterSpec>) -> Vec<u64> {
    let mut exec = Executor::new(imp.clone());

    // p1 starts an Inc and runs until head enters mode B (its op applied).
    exec.invoke(Pid(1), CounterOp::Inc);
    while imp.head_value(&exec.snapshot()).1.is_none() {
        exec.step(Pid(1));
    }

    // p0 starts its own Inc and runs until it has read head's mode-B value
    // and is about to LL announce[1] (it stops making progress on its own op
    // once it enters the help path; we just advance it a fixed few steps:
    // announce, loop-check, LL(head) read, escape-check, LL(head) CAS).
    exec.invoke(Pid(0), CounterOp::Inc);
    for _ in 0..5 {
        exec.step(Pid(0));
    }

    // p1 finishes completely: second and third stages, response pickup,
    // announce[1] cleared to ⊥. It never runs again.
    while exec.can_step(Pid(1)) {
        exec.step(Pid(1));
    }

    // p0 resumes and completes its operation solo.
    while exec.can_step(Pid(0)) {
        exec.step(Pid(0));
    }
    assert!(exec.is_quiescent());

    // Sanity: the run is still linearizable in both variants.
    linearize(exec.spec(), exec.history(), &LinOptions::default())
        .expect("the ablation only affects HI, not correctness");
    exec.snapshot()
}

#[test]
fn release_lines_make_the_difference() {
    let spec = CounterSpec::new(0, 8, 0);

    let full = SimUniversal::new(spec, 2);
    let snap = run_leak_schedule(&full);
    assert_eq!(
        snap,
        full.canonical(&2),
        "with RL, the quiescent memory is canonical"
    );

    let ablated = SimUniversal::without_release(spec, 2);
    assert!(!ablated.release_enabled());
    let snap = run_leak_schedule(&ablated);
    assert_ne!(
        snap,
        ablated.canonical(&2),
        "without RL, a leftover context bit betrays the helping attempt"
    );
}

#[test]
fn ablated_variant_still_linearizes_under_random_schedules() {
    // Dropping RL hurts only history independence; correctness and progress
    // survive. (This is why the leak is insidious: nothing functional fails.)
    for seed in 0..20u64 {
        let imp = SimUniversal::without_release(CounterSpec::new(-4, 4, 0), 3);
        let mut w: Workload<CounterSpec> = Workload::new(3);
        for pid in 0..3 {
            w.push(pid, CounterOp::Inc);
            w.push(pid, CounterOp::Dec);
            w.push(pid, CounterOp::Read);
        }
        let mut exec = Executor::new(imp);
        run_workload(&mut exec, w, &mut Seeded::new(seed), &mut (), MAX_STEPS)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        linearize(exec.spec(), exec.history(), &LinOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn ablated_variant_leaks_under_some_random_schedule() {
    // Across seeds, at least one schedule must leave non-canonical quiescent
    // memory in the ablated variant (and none may in the full one).
    let spec = CounterSpec::new(-4, 4, 0);
    let mut leaked = false;
    for seed in 0..40u64 {
        let mk_workload = || {
            let mut w: Workload<CounterSpec> = Workload::new(3);
            for pid in 0..3 {
                w.push(pid, CounterOp::Inc);
                w.push(pid, CounterOp::Dec);
            }
            w
        };

        let full = SimUniversal::new(spec, 3);
        let mut exec = Executor::new(full.clone());
        run_workload(
            &mut exec,
            mk_workload(),
            &mut Seeded::new(seed),
            &mut (),
            MAX_STEPS,
        )
        .unwrap();
        let q = full.abstract_state(&exec.snapshot());
        assert_eq!(
            exec.snapshot(),
            full.canonical(&q),
            "full variant, seed {seed}"
        );

        let ablated = SimUniversal::without_release(spec, 3);
        let mut exec = Executor::new(ablated.clone());
        run_workload(
            &mut exec,
            mk_workload(),
            &mut Seeded::new(seed),
            &mut (),
            MAX_STEPS,
        )
        .unwrap();
        let q = ablated.abstract_state(&exec.snapshot());
        if exec.snapshot() != ablated.canonical(&q) {
            leaked = true;
        }
    }
    assert!(
        leaked,
        "no random schedule exhibited the context leak — suspicious"
    );
}

#[test]
fn threaded_ablation_leaks_a_context_bit() {
    // The threaded twin of `release_lines_make_the_difference`: one solo
    // Inc through the facade. Without line 27's RL, the LL of line 25 leaves
    // its context bit on `head`; with it, memory is canonical.
    let run = |obj: &mut UniversalObject<CounterSpec>| {
        let mut handles = obj.handles();
        assert_eq!(handles[0].apply(CounterOp::Inc), CounterResp::Ack);
        drop(handles);
        let q = obj.abstract_state();
        assert_eq!(q, 1);
        (obj.mem_snapshot(), obj.backend().canonical(&q))
    };

    let mut full = UniversalObject::new(CounterSpec::new(0, 10, 0), 1);
    let (mem, canonical) = run(&mut full);
    assert_eq!(mem, canonical, "with RL, the quiescent memory is canonical");
    assert_eq!(full.canonical(&1), Some(canonical));

    let mut ablated = UniversalObject::without_release(CounterSpec::new(0, 10, 0), 1);
    let (mem, canonical) = run(&mut ablated);
    assert_ne!(
        mem, canonical,
        "without RL, a leftover context bit betrays the operation"
    );
    assert_eq!(
        mem[1..],
        canonical[1..],
        "the leak is in head alone: announce[0] is back to ⊥"
    );
}
