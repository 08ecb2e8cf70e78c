//! Table 1: the cost of each feasible cell of the possibility matrix for
//! SWSR multi-valued registers from binary registers.
//!
//! | HI strength | wait-free | lock-free |
//! |---|---|---|
//! | perfect | impossible | impossible |
//! | state-quiescent | impossible | Algorithm 2 |
//! | quiescent | Algorithm 4 | Algorithm 2/4 |
//!
//! For the possible cells we measure solo and contended operation cost; the
//! impossible cells are covered by `adversary_growth` (starvation rounds)
//! and the `repro_table1` example (verdicts). The *shape* to reproduce:
//! Algorithm 4's writes cost a constant factor more than Algorithm 2's
//! (the B/flag helping protocol), and both scale linearly in K, while the
//! non-HI baseline (Algorithm 1) writes in O(v) only.

use hi_bench::{run_to_completion, Group};
use hi_core::objects::{MultiRegisterSpec, RegisterOp};
use hi_registers::{LockFreeHiRegister, VidyasankarRegister, WaitFreeHiRegister};
use hi_sim::{Implementation, RoundRobin, Workload};

fn write_read_workload(k: u64, pairs: usize) -> Workload<MultiRegisterSpec> {
    let mut w = Workload::new(2);
    for i in 0..pairs {
        w.push(0, RegisterOp::Write((i as u64 % k) + 1));
        w.push(1, RegisterOp::Read);
    }
    w
}

fn bench_cell<I: Implementation<MultiRegisterSpec>>(group: &Group, name: &str, k: u64, imp: I) {
    group.bench(format!("{name}/{k}"), || {
        run_to_completion(
            &imp,
            write_read_workload(k, 32),
            &mut RoundRobin::new(),
            1 << 20,
        )
    });
}

fn main() {
    let k = 8;
    let group = Group::new("table1");
    bench_cell(
        &group,
        "alg1_waitfree_not_hi",
        k,
        VidyasankarRegister::new(k, 1),
    );
    bench_cell(
        &group,
        "alg2_lockfree_state_quiescent_hi",
        k,
        LockFreeHiRegister::new(k, 1),
    );
    bench_cell(
        &group,
        "alg4_waitfree_quiescent_hi",
        k,
        WaitFreeHiRegister::new(k, 1),
    );
}
