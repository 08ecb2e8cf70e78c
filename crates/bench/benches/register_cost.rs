//! Ablation: the price of history independence in the register algorithms,
//! as a function of K — driven through the unified `ConcurrentObject`
//! facade (one bench body per algorithm family, not per bespoke API).
//!
//! Shape to reproduce: Algorithm 1's `Write(v)` costs `O(v)` primitives
//! (clear below only); Algorithms 2/4 cost `O(K)` (the upward clearing that
//! buys state-quiescent canonicity); Algorithm 4 adds a constant B/flag
//! overhead on top. Reads are `O(K)` for all three when uncontended.

use std::sync::atomic::{AtomicBool, Ordering};

use hi_api::{ConcurrentObject, ObjectHandle};
use hi_api::{LockFreeHiObject, VidyasankarObject, WaitFreeHiObject};
use hi_bench::Group;
use hi_core::objects::{MultiRegisterSpec, RegisterOp};

/// Benches one operation of any SWSR facade object through the handle at
/// `handle_idx`.
fn bench_register_op<O>(
    group: &Group,
    label: &str,
    k: u64,
    mut obj: O,
    op: RegisterOp,
    handle_idx: usize,
) where
    O: ConcurrentObject<MultiRegisterSpec>,
{
    let mut handles = obj.handles();
    let h = &mut handles[handle_idx];
    group.bench(format!("{label}/{k}"), || h.apply(op));
}

fn bench_write_cost() {
    let mut group = Group::new("register_write_cost");
    for k in [4u64, 8, 16, 32, 64] {
        group.throughput(k);
        let spec = MultiRegisterSpec::new(k, 1);
        // Writing a low value: Algorithm 1 clears almost nothing, while
        // Algorithms 2/4 must clear all the way up to K: O(K) regardless.
        let w = RegisterOp::Write(2);
        let g = &group;
        bench_register_op(g, "alg1_write_low", k, VidyasankarObject::new(spec), w, 0);
        bench_register_op(g, "alg2_write_low", k, LockFreeHiObject::new(spec), w, 0);
        bench_register_op(g, "alg4_write_low", k, WaitFreeHiObject::new(spec), w, 0);
    }
}

fn bench_read_cost() {
    let group = Group::new("register_read_cost");
    for k in [4u64, 16, 64] {
        let spec = MultiRegisterSpec::new(k, k);
        let (g, r) = (&group, RegisterOp::Read);
        bench_register_op(g, "alg1_read", k, VidyasankarObject::new(spec), r, 1);
        bench_register_op(g, "alg2_read", k, LockFreeHiObject::new(spec), r, 1);
        bench_register_op(g, "alg4_read", k, WaitFreeHiObject::new(spec), r, 1);
    }
}

fn bench_contended() {
    // Reader latency while a writer thread cycles values: Algorithm 2's
    // reader retries, Algorithm 4's reader is helped — the wait-free read
    // has bounded cost even under maximal write pressure.
    let group = Group::new("register_contended_read").samples(20);
    for k in [8u64, 32] {
        let mut reg = WaitFreeHiObject::new(MultiRegisterSpec::new(k, 1));
        let mut handles = reg.handles().into_iter();
        let mut w = handles.next().unwrap();
        let mut r = handles.next().unwrap();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut v = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    v = v % k + 1;
                    w.apply(RegisterOp::Write(v));
                }
            });
            group.bench(format!("alg4_read_vs_writer/{k}"), || {
                r.apply(RegisterOp::Read)
            });
            stop.store(true, Ordering::Relaxed);
        });
    }
}

fn main() {
    bench_write_cost();
    bench_read_cost();
    bench_contended();
}
