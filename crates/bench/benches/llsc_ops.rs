//! Algorithm 6 primitive costs: LL / VL / SC / RL / Load / Store on the
//! packed `AtomicU64` R-LLSC, solo and under contention.
//!
//! Shape to reproduce: Load/VL/Store are single atomic ops; LL/SC/RL are a
//! read + CAS when uncontended; under contention LL/SC retry (lock-free, not
//! wait-free) — the reason Algorithm 5 layers helping on top.

use std::sync::atomic::{AtomicBool, Ordering};

use hi_bench::Group;
use hi_llsc::{LlscLayout, PackedRLlsc};

fn main() {
    let group = Group::new("llsc_solo");
    let x = PackedRLlsc::new(LlscLayout::new(32, 8), 0);
    group.bench("load", || x.load());
    group.bench("vl", || x.vl(0));
    group.bench("store", || x.store(7));
    group.bench("ll_rl", || {
        x.ll(0);
        x.rl(0)
    });
    group.bench("ll_sc", || {
        x.ll(0);
        x.sc(0, 9)
    });

    let group = Group::new("llsc_contended").samples(15);
    for threads in [2usize, 4] {
        let x = PackedRLlsc::new(LlscLayout::new(32, 8), 0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for pid in 1..threads {
                let (x, stop) = (&x, &stop);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        x.ll(pid);
                        x.sc(pid, pid as u64);
                    }
                });
            }
            group.bench(format!("ll_sc_interference/{threads}"), || {
                x.ll(0);
                x.sc(0, 42)
            });
            stop.store(true, Ordering::Relaxed);
        });
    }
}
