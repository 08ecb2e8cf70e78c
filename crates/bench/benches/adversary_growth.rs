//! Theorems 17 and 20, quantitatively: the adversary extends starvation
//! executions at linear cost per round, without bound.
//!
//! Shape to reproduce: cost grows linearly in the round budget for the
//! starvable implementations (Algorithm 2, the positional queue) — there is
//! no knee where the reader escapes — while Algorithm 4 terminates the run
//! early at some small round count regardless of the budget.

use hi_bench::Group;
use hi_core::objects::{BoundedQueueSpec, MultiRegisterSpec};
use hi_lowerbound::{run_adversary, CtScript, QueuePeekScript};
use hi_queue::PositionalQueue;
use hi_registers::{LockFreeHiRegister, WaitFreeHiRegister};

fn main() {
    let group = Group::new("adversary_growth");
    for rounds in [10u64, 100, 1_000] {
        let imp = LockFreeHiRegister::new(4, 1);
        let script = CtScript::new(MultiRegisterSpec::new(4, 1));
        group.bench(format!("alg2_register_k4/{rounds}"), || {
            run_adversary(&imp, &script, rounds, 10_000).unwrap().rounds
        });
        let imp = PositionalQueue::new(3, 2);
        let script = QueuePeekScript::new(BoundedQueueSpec::new(3, 2));
        group.bench(format!("queue_peek_t3/{rounds}"), || {
            run_adversary(&imp, &script, rounds, 10_000).unwrap().rounds
        });
        let imp = WaitFreeHiRegister::new(4, 1);
        let script = CtScript::new(MultiRegisterSpec::new(4, 1));
        group.bench(format!("alg4_escapes/{rounds}"), || {
            run_adversary(&imp, &script, rounds, 10_000).unwrap().rounds
        });
    }
}
