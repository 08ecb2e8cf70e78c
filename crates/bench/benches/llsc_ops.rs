//! Algorithm 6 primitive costs: LL / VL / SC / RL / Load / Store through
//! `LlscObject` handles (the certified step machine on an `AtomicU64`
//! arena word), solo and under contention.
//!
//! Shape to reproduce: Load/VL/Store are single atomic ops; LL/SC/RL are a
//! read + CAS when uncontended; under contention LL/SC retry (lock-free, not
//! wait-free) — the reason Algorithm 5 layers helping on top.

use std::sync::atomic::{AtomicBool, Ordering};

use hi_api::{ConcurrentObject, LlscObject, ObjectHandle};
use hi_bench::Group;
use hi_llsc::{RLlscOp, RLlscSpec};

/// 32-bit values, 8 processes.
fn object() -> LlscObject {
    LlscObject::new(RLlscSpec::new(1 << 32, 0, 8))
}

fn main() {
    let group = Group::new("llsc_solo");
    let mut x = object();
    let mut h = x.handles().swap_remove(0);
    group.bench("load", || h.apply(RLlscOp::Load));
    group.bench("vl", || h.apply(RLlscOp::Vl { pid: 0 }));
    group.bench("store", || h.apply(RLlscOp::Store { new: 7 }));
    group.bench("ll_rl", || {
        h.apply(RLlscOp::Ll { pid: 0 });
        h.apply(RLlscOp::Rl { pid: 0 })
    });
    group.bench("ll_sc", || {
        h.apply(RLlscOp::Ll { pid: 0 });
        h.apply(RLlscOp::Sc { pid: 0, new: 9 })
    });

    let group = Group::new("llsc_contended").samples(15);
    for threads in [2usize, 4] {
        let mut x = object();
        let mut handles = x.handles().into_iter().enumerate();
        let (_, mut h) = handles.next().expect("handle 0");
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for (pid, mut h) in handles.take(threads - 1) {
                let stop = &stop;
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        h.apply(RLlscOp::Ll { pid });
                        h.apply(RLlscOp::Sc {
                            pid,
                            new: pid as u64,
                        });
                    }
                });
            }
            group.bench(format!("ll_sc_interference/{threads}"), || {
                h.apply(RLlscOp::Ll { pid: 0 });
                h.apply(RLlscOp::Sc { pid: 0, new: 42 })
            });
            stop.store(true, Ordering::Relaxed);
        });
    }
}
