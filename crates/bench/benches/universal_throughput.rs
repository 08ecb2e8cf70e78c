//! The universal construction: cost of wait-freedom + HI (§6).
//!
//! Shape to reproduce: the single-cell CAS baseline is cheapest (no
//! announce/helping); Algorithm 5 pays a constant factor for the three-stage
//! protocol and its clearing; the leaky variant sits between (helping-free
//! but with an extra ledger write). Under multi-thread contention Algorithm
//! 5's throughput degrades gracefully (helping), while the CAS loop's
//! retries burn cycles.

use hi_api::{ConcurrentObject, ObjectHandle, UniversalObject};
use hi_bench::{run_to_completion, Group};
use hi_core::objects::{CounterOp, CounterSpec};
use hi_sim::{Implementation, RoundRobin, Workload};
use hi_universal::{CasUniversal, LeakyUniversal, SimUniversal};

fn counter_workload(n: usize, ops: usize) -> Workload<CounterSpec> {
    let mut w = Workload::new(n);
    for pid in 0..n {
        for i in 0..ops {
            w.push(
                pid,
                if i % 2 == 0 {
                    CounterOp::Inc
                } else {
                    CounterOp::Dec
                },
            );
        }
    }
    w
}

fn spec() -> CounterSpec {
    CounterSpec::new(-64, 64, 0)
}

fn bench_sim<I: Implementation<CounterSpec>>(group: &Group, name: &str, n: usize, imp: I) {
    group.bench(format!("{name}/{n}"), || {
        run_to_completion(
            &imp,
            counter_workload(n, 16),
            &mut RoundRobin::new(),
            1 << 22,
        )
    });
}

fn bench_sim_universal() {
    let mut group = Group::new("universal_sim_steps");
    for n in [2usize, 4, 8] {
        group.throughput((n * 16) as u64);
        bench_sim(&group, "algorithm5", n, SimUniversal::new(spec(), n));
        bench_sim(&group, "cas_baseline", n, CasUniversal::new(spec(), n));
        bench_sim(&group, "leaky", n, LeakyUniversal::new(spec(), n));
        // Ablation: Algorithm 5 without the RL clearing lines — measures the
        // price of the §6.1 context hygiene (it should be small; the point
        // of the paper's design is that HI costs little here).
        let no_release = SimUniversal::without_release(spec(), n);
        bench_sim(&group, "algorithm5_no_release", n, no_release);
    }
}

fn bench_threaded_universal() {
    let mut group = Group::new("universal_threaded").samples(15);
    group.throughput(2_000);
    for n in [1usize, 2, 4] {
        group.bench(format!("algorithm5_threads/{n}"), || {
            // Through the unified facade: uniform handle fan-out.
            let mut u = UniversalObject::new(CounterSpec::new(-2_000, 2_000, 0), n);
            let handles = u.handles();
            std::thread::scope(|s| {
                for mut h in handles {
                    s.spawn(move || {
                        for i in 0..(2_000 / n) {
                            h.apply(if i % 2 == 0 {
                                CounterOp::Inc
                            } else {
                                CounterOp::Dec
                            });
                        }
                    });
                }
            });
            u.abstract_state()
        });
    }
}

fn main() {
    bench_sim_universal();
    bench_threaded_universal();
}
