//! The threaded backend of Algorithm 5 over [`PackedRLlsc`] words.
//!
//! The `||` interleavings of lines 6, 18 and 25 become poll loops over the
//! single-attempt R-LLSC operations: one `ll_attempt` (one read + one CAS),
//! then one escape check, repeated — each iteration makes progress exactly
//! like the simulator's left/right alternation.

use std::sync::atomic::{AtomicBool, Ordering};

use hi_core::EnumerableSpec;
use hi_llsc::PackedRLlsc;

use crate::codec::{Codec, ANN_BOT, ANN_OP, ANN_RESP};

/// The wait-free state-quiescent HI universal object, threaded.
///
/// # Example
///
/// ```
/// use hi_core::objects::{CounterSpec, CounterOp, CounterResp};
/// use hi_universal::AtomicUniversal;
///
/// let u = AtomicUniversal::new(CounterSpec::new(0, 100, 0), 2);
/// let mut h0 = u.handle(0);
/// let mut h1 = u.handle(1);
/// h0.apply(CounterOp::Inc);
/// h1.apply(CounterOp::Inc);
/// assert_eq!(h0.apply(CounterOp::Read), CounterResp::Value(2));
/// assert_eq!(u.snapshot(), u.canonical(&2));
/// ```
#[derive(Debug)]
pub struct AtomicUniversal<S: EnumerableSpec> {
    spec: S,
    codec: Codec<S>,
    head: PackedRLlsc,
    ann: Vec<PackedRLlsc>,
    claimed: Vec<AtomicBool>,
    n: usize,
    release: bool,
}

impl<S: EnumerableSpec> AtomicUniversal<S> {
    /// Creates the object for `spec`, shared by `n` processes.
    pub fn new(spec: S, n: usize) -> Self {
        let codec = Codec::new(&spec, n);
        let head = PackedRLlsc::new(
            codec.head_layout(),
            codec.initial_head(&spec.initial_state()),
        );
        let ann = (0..n)
            .map(|_| PackedRLlsc::new(codec.ann_layout(), codec.enc_ann_bot()))
            .collect();
        let claimed = (0..n).map(|_| AtomicBool::new(false)).collect();
        AtomicUniversal {
            spec,
            codec,
            head,
            ann,
            claimed,
            n,
            release: true,
        }
    }

    /// The §6.1 ablation: Algorithm 5 without the red `RL` lines. Still
    /// linearizable and wait-free, but leftover context bits leak history —
    /// see `SimUniversal::without_release` for the simulator twin and the
    /// `ablation_release` integration tests.
    pub fn without_release(spec: S, n: usize) -> Self {
        let mut u = AtomicUniversal::new(spec, n);
        u.release = false;
        u
    }

    /// The object's specification.
    pub fn spec(&self) -> &S {
        &self.spec
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether the `RL` clearing lines are enabled (false only for the
    /// [`without_release`](AtomicUniversal::without_release) ablation).
    pub fn releases(&self) -> bool {
        self.release
    }

    /// Claims the handle of process `pid` (each pid may be claimed once).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range or already claimed.
    pub fn handle(&self, pid: usize) -> UniversalHandle<'_, S> {
        assert!(pid < self.n, "pid {pid} out of range");
        assert!(
            !self.claimed[pid].swap(true, Ordering::SeqCst),
            "handle for pid {pid} already claimed"
        );
        UniversalHandle {
            u: self,
            pid,
            priority: pid,
        }
    }

    /// Claims all `n` handles at once, releasing any earlier claims first —
    /// sound because the `&mut` receiver proves no handle is outstanding.
    /// This is the construction surface the `hi-api` facade drives.
    pub fn handles(&mut self) -> Vec<UniversalHandle<'_, S>> {
        for c in &self.claimed {
            c.store(false, Ordering::SeqCst);
        }
        let this: &Self = self;
        (0..this.n).map(|pid| this.handle(pid)).collect()
    }

    /// Raw memory snapshot: the head word then the announce words. Only an
    /// atomic snapshot at state-quiescent points of the caller's protocol.
    pub fn snapshot(&self) -> Vec<u64> {
        let mut snap = vec![self.head.raw()];
        snap.extend(self.ann.iter().map(PackedRLlsc::raw));
        snap
    }

    /// The canonical representation of state `q` under
    /// [`snapshot`](AtomicUniversal::snapshot).
    pub fn canonical(&self, q: &S::State) -> Vec<u64> {
        let mut snap = vec![self.codec.head_layout().reset(self.codec.enc_head(q, None))];
        snap.extend(std::iter::repeat(0).take(self.n));
        snap
    }

    /// Decodes the current abstract state from `head`.
    pub fn abstract_state(&self) -> S::State {
        self.codec.dec_head(self.head.load()).0
    }
}

/// A per-process handle on an [`AtomicUniversal`] object.
#[derive(Debug)]
pub struct UniversalHandle<'a, S: EnumerableSpec> {
    u: &'a AtomicUniversal<S>,
    pid: usize,
    priority: usize,
}

impl<S: EnumerableSpec> UniversalHandle<'_, S> {
    /// Applies `op` and returns its response. Wait-free for state-changing
    /// operations (via announce/helping), one load for read-only ones.
    ///
    /// After one `op → index` lookup everything runs on the codec's indices
    /// and transition table; the response value is cloned once, at return.
    pub fn apply(&mut self, op: S::Op) -> S::Resp {
        let c = &self.u.codec;
        let o = c.op_index(&op);
        let r = if c.is_read_only(o) {
            let (q, _) = c.unpack_head(self.u.head.load());
            c.transition(q, o).1
        } else {
            self.apply_state_changing(o)
        };
        c.resp(r).clone()
    }

    /// Lines 4–28 of Algorithm 5 for the op with index `o`; returns the
    /// index of its response.
    fn apply_state_changing(&mut self, o: u64) -> u64 {
        let i = self.pid;
        let u = self.u;
        let c = &u.codec;
        let ann_tag = |j: usize| c.unpack_ann(u.ann[j].load()).0;
        u.ann[i].store(c.pack_ann(ANN_OP, o)); // line 4
        'outer: loop {
            if ann_tag(i) == ANN_RESP {
                break 'outer; // line 5
            }
            // Line 6: LL(head) ∥ response check.
            let head_val = loop {
                if let Some(v) = u.head.ll_attempt(i) {
                    break v;
                }
                if ann_tag(i) == ANN_RESP {
                    break 'outer; // 6R: goto line 24
                }
            };
            let (q, pending) = c.unpack_head(head_val);
            match pending {
                None => {
                    // Lines 8–15: pick an operation (helped or own), apply.
                    let (apply_op, j) = match c.unpack_ann(u.ann[self.priority].load()) {
                        (ANN_OP, help) => (help, self.priority),
                        _ => {
                            if ann_tag(i) != ANN_OP {
                                continue 'outer; // line 11
                            }
                            (o, i)
                        }
                    };
                    let (state, rsp) = c.transition(q, apply_op);
                    if u.head.sc(i, c.pack_head(state, Some((rsp, j)))) {
                        self.priority = (self.priority + 1) % u.n; // line 15
                    }
                }
                Some((rsp, j)) => {
                    // Line 18: LL(announce[j]) ∥ response check.
                    let a_val = loop {
                        if let Some(a) = u.ann[j].ll_attempt(i) {
                            break Some(a);
                        }
                        if ann_tag(i) == ANN_RESP {
                            if u.release {
                                u.ann[j].rl(i); // 18R.2
                            }
                            break None;
                        }
                    };
                    let Some(a_val) = a_val else { break 'outer };
                    let (a_tag, _) = c.unpack_ann(a_val);
                    if u.head.vl(i) {
                        // line 19
                        if a_tag == ANN_OP {
                            u.ann[j].sc(i, c.pack_ann(ANN_RESP, rsp)); // line 20
                        }
                        u.head.sc(i, c.pack_head(q, None)); // line 21
                    }
                    if a_tag == ANN_BOT && u.release {
                        u.ann[j].rl(i); // line 22
                    }
                }
            }
        }
        // Line 24.
        let ann = u.ann[i].load();
        let response = match c.unpack_ann(ann) {
            (ANN_RESP, r) => r,
            _ => panic!(
                "announce[{i}] held {:?} at line 24, expected a response",
                c.dec_ann(ann)
            ),
        };
        let mine = |v: u64| matches!(c.unpack_head(v).1, Some((_, j)) if j == i);
        // Line 25: LL(head) ∥ "my response is gone" check.
        let ll_result = loop {
            if let Some(v) = u.head.ll_attempt(i) {
                break Some(v);
            }
            if !mine(u.head.load()) {
                break None; // 25R.2: goto line 27
            }
        };
        match ll_result {
            Some(v) if mine(v) => {
                u.head.sc(i, c.pack_head(c.unpack_head(v).0, None)); // line 26
            }
            _ => {
                if u.release {
                    u.head.rl(i); // line 27
                }
            }
        }
        u.ann[i].store(c.enc_ann_bot()); // line 28
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hi_core::objects::{
        BoundedQueueSpec, CounterOp, CounterResp, CounterSpec, QueueOp, QueueResp,
    };

    #[test]
    fn sequential_counter() {
        let u = AtomicUniversal::new(CounterSpec::new(-5, 5, 0), 2);
        let mut h = u.handle(0);
        h.apply(CounterOp::Inc);
        h.apply(CounterOp::Inc);
        h.apply(CounterOp::Dec);
        assert_eq!(h.apply(CounterOp::Read), CounterResp::Value(1));
        assert_eq!(u.snapshot(), u.canonical(&1));
    }

    #[test]
    #[should_panic(expected = "already claimed")]
    fn double_claim_rejected() {
        let u = AtomicUniversal::new(CounterSpec::new(0, 1, 0), 2);
        let _a = u.handle(0);
        let _b = u.handle(0);
    }

    #[test]
    fn concurrent_increments_all_count() {
        let n = 4;
        let per_thread = 500;
        let u = AtomicUniversal::new(CounterSpec::new(0, (n * per_thread) as i64, 0), n);
        std::thread::scope(|s| {
            for pid in 0..n {
                let mut h = u.handle(pid);
                s.spawn(move || {
                    for _ in 0..per_thread {
                        h.apply(CounterOp::Inc);
                    }
                });
            }
        });
        assert_eq!(u.abstract_state(), (n * per_thread) as i64);
        assert_eq!(u.snapshot(), u.canonical(&((n * per_thread) as i64)));
    }

    #[test]
    fn concurrent_queue_preserves_elements() {
        // Two producers, one consumer thread over a universal queue.
        let spec = BoundedQueueSpec::new(4, 8);
        let u = AtomicUniversal::new(spec, 3);
        let consumed: Vec<u32> = std::thread::scope(|s| {
            for pid in 0..2u32 {
                let mut h = u.handle(pid as usize);
                s.spawn(move || {
                    for _ in 0..200 {
                        h.apply(QueueOp::Enqueue(pid + 1));
                    }
                });
            }
            let mut h = u.handle(2);
            let consumer = s.spawn(move || {
                let mut got = Vec::new();
                let mut empties = 0;
                while got.len() < 400 && empties < 1_000_000 {
                    match h.apply(QueueOp::Dequeue) {
                        QueueResp::Value(v) => got.push(v),
                        _ => empties += 1,
                    }
                }
                got
            });
            consumer.join().unwrap()
        });
        // Not all 400 are guaranteed (the bounded queue drops on full), but
        // everything consumed must be a produced value.
        assert!(consumed.iter().all(|v| *v == 1 || *v == 2));
        assert!(!consumed.is_empty());
    }

    #[test]
    fn quiescent_memory_identical_across_histories() {
        let mk = || {
            let u = AtomicUniversal::new(CounterSpec::new(0, 10, 0), 2);
            {
                let mut h = u.handle(0);
                h.apply(CounterOp::Inc);
            }
            u
        };
        let u1 = mk();
        // Second history: up, down, up via both handles.
        let u2 = AtomicUniversal::new(CounterSpec::new(0, 10, 0), 2);
        {
            let mut h0 = u2.handle(0);
            let mut h1 = u2.handle(1);
            h0.apply(CounterOp::Inc);
            h1.apply(CounterOp::Inc);
            h0.apply(CounterOp::Dec);
        }
        assert_eq!(u1.snapshot(), u2.snapshot());
    }
}
