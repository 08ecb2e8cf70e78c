//! Figures 1–5 as measurable harnesses.
//!
//! Figure 1 (observation models): cost of monitoring HI at perfect /
//! state-quiescent / quiescent points — the series shows how many points
//! each model admits per execution.
//! Figure 2 / 4 / 5 (Algorithm 4 scenarios): cost of a read forced through
//! the B fallback vs. one served from A.
//! Figure 3 (mode transitions): overhead of tracking Invariant 22 on a live
//! universal execution.
//!
//! The `repro_fig*` examples print the corresponding traces; these benches
//! regenerate the figures' quantitative side (who pays how much where).

use hi_bench::Group;
use hi_core::objects::{CounterOp, CounterSpec, MultiRegisterSpec, RegisterOp};
use hi_registers::WaitFreeHiRegister;
use hi_sim::Implementation;
use hi_sim::{run_workload, Executor, RoundRobin, Seeded, Workload};
use hi_spec::{single_mutator_state, HiMonitor, ObservationModel};
use hi_universal::{ModeTracker, SimUniversal};

fn register_workload(k: u64, pairs: usize) -> Workload<MultiRegisterSpec> {
    let mut w = Workload::new(2);
    for i in 0..pairs {
        w.push(0, RegisterOp::Write((i as u64 % k) + 1));
        w.push(1, RegisterOp::Read);
    }
    w
}

fn bench_fig1_observation_models() {
    let group = Group::new("fig1_observation");
    let k = 6;
    for (name, model) in [
        ("perfect", ObservationModel::Perfect),
        ("state_quiescent", ObservationModel::StateQuiescent),
        ("quiescent", ObservationModel::Quiescent),
    ] {
        let imp = WaitFreeHiRegister::new(k, 1);
        let spec = *imp.spec();
        group.bench(format!("monitor/{name}"), || {
            let mut exec = Executor::new(imp.clone());
            let mut monitor = HiMonitor::new(model);
            let mut observer = |e: &Executor<MultiRegisterSpec, WaitFreeHiRegister>| {
                if monitor.model().permits(e) {
                    let q = single_mutator_state(&spec, e.history());
                    monitor.observe(e, q);
                }
            };
            run_workload(
                &mut exec,
                register_workload(k, 16),
                &mut Seeded::new(7),
                &mut observer,
                1 << 20,
            )
            .unwrap();
            monitor.points()
        });
    }
}

fn bench_fig2_fig4_read_paths() {
    // A read served from A (solo) vs. a read pushed into the B fallback by
    // hostile writes (the Figure 4 / Lemma 10 scenario).
    let group = Group::new("fig2_fig4_read_paths");
    let k = 4;
    let imp = WaitFreeHiRegister::new(k, 2);
    group.bench("read_from_a_solo", || {
        let mut exec = Executor::new(imp.clone());
        exec.run_op_solo(hi_core::Pid(1), RegisterOp::Read, 1_000)
            .unwrap()
    });
    let imp = WaitFreeHiRegister::new(k, 1);
    group.bench("read_from_b_forced", || {
        let mut exec = Executor::new(imp.clone());
        exec.invoke(hi_core::Pid(1), RegisterOp::Read);
        let mut next = k;
        let mut out = None;
        for _ in 0..10_000 {
            if let Some((_, resp)) = exec.step(hi_core::Pid(1)) {
                out = Some(resp);
                break;
            }
            exec.run_op_solo(hi_core::Pid(0), RegisterOp::Write(next), 1_000)
                .unwrap();
            next = if next == 1 { k } else { 1 };
        }
        out.expect("Algorithm 4 reads are wait-free")
    });
}

fn bench_fig3_mode_tracking() {
    let group = Group::new("fig3_mode_tracking");
    let n = 3;
    for (name, track) in [("untracked", false), ("tracked", true)] {
        let imp = SimUniversal::new(CounterSpec::new(-16, 16, 0), n);
        group.bench(format!("universal_run/{name}"), || {
            let mut exec = Executor::new(imp.clone());
            let mut w: Workload<CounterSpec> = Workload::new(n);
            for pid in 0..n {
                for _ in 0..8 {
                    w.push(pid, CounterOp::Inc);
                }
            }
            if track {
                let init = imp.head_value(&exec.snapshot());
                let mut tracker = ModeTracker::new((init.0 + 32) as u64, init.1.is_some());
                let imp2 = imp.clone();
                let mut observer = |e: &Executor<CounterSpec, SimUniversal<CounterSpec>>| {
                    let (q, r) = imp2.head_value(&e.snapshot());
                    tracker.observe((q + 32) as u64, r.is_some()).unwrap();
                };
                run_workload(&mut exec, w, &mut RoundRobin::new(), &mut observer, 1 << 22).unwrap();
                tracker.linearized_ops()
            } else {
                run_workload(&mut exec, w, &mut RoundRobin::new(), &mut (), 1 << 22).unwrap();
                exec.steps()
            }
        });
    }
}

fn main() {
    bench_fig1_observation_models();
    bench_fig2_fig4_read_paths();
    bench_fig3_mode_tracking();
}
