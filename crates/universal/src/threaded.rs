//! The threaded backend of Algorithm 5: lines 4–28 as one hand-written
//! loop on an [`AtomicMem`] laid out by [`SimUniversal`], every R-LLSC call
//! in it an [`LlscOp`] sub-machine — the text the simulator certifies as
//! Algorithm 6.
//!
//! The `||` interleavings of lines 6, 18 and 25 become poll loops: one `LL`
//! attempt (the sub-machine's read step, then its CAS step), then one
//! escape check, repeated — each iteration makes progress exactly like the
//! simulator's left/right alternation.

use hi_core::EnumerableSpec;
use hi_llsc::{LlscLayout, LlscOp, LlscResult};
use hi_sim::{Arena, AtomicMem, CellId, Implementation};

use crate::codec::{ANN_BOT, ANN_OP, ANN_RESP};
use crate::sim::SimUniversal;

/// The wait-free state-quiescent HI universal object, threaded.
///
/// # Example
///
/// ```
/// use hi_core::objects::{CounterSpec, CounterOp, CounterResp};
/// use hi_universal::AtomicUniversal;
///
/// let mut u = AtomicUniversal::new(CounterSpec::new(0, 100, 0), 2);
/// let mut h = u.handles();
/// h[0].apply(CounterOp::Inc);
/// h[1].apply(CounterOp::Inc);
/// assert_eq!(h[0].apply(CounterOp::Read), CounterResp::Value(2));
/// drop(h);
/// assert_eq!(u.snapshot(), u.canonical(&2));
/// ```
#[derive(Debug)]
pub struct AtomicUniversal<S: EnumerableSpec> {
    sim: SimUniversal<S>,
    mem: AtomicMem,
}

impl<S: EnumerableSpec> AtomicUniversal<S> {
    /// Creates the object for `spec`, shared by `n` processes.
    pub fn new(spec: S, n: usize) -> Self {
        AtomicUniversal::on(SimUniversal::new(spec, n))
    }

    /// The §6.1 ablation: Algorithm 5 without the red `RL` lines. Still
    /// linearizable and wait-free, but leftover context bits leak history —
    /// see [`SimUniversal::without_release`] for the simulator twin and the
    /// `ablation_release` integration tests.
    pub fn without_release(spec: S, n: usize) -> Self {
        AtomicUniversal::on(SimUniversal::without_release(spec, n))
    }

    /// Lays `sim`'s memory out on atomics.
    fn on(sim: SimUniversal<S>) -> Self {
        let head = sim.head.0;
        assert!(
            sim.ann.iter().enumerate().all(|(j, a)| a.0 == head + 1 + j),
            "announce[j] is the word at head + 1 + j"
        );
        AtomicUniversal {
            mem: AtomicMem::new(sim.init_memory()),
            sim,
        }
    }

    /// The simulator twin whose memory layout this object runs on.
    pub fn sim(&self) -> &SimUniversal<S> {
        &self.sim
    }

    /// The `n` per-process handles, each starting its helping priority at
    /// its own pid.
    pub fn handles(&mut self) -> Vec<UniversalHandle<'_, S>> {
        let u: &Self = self;
        (0..u.sim.n)
            .map(|pid| UniversalHandle {
                u,
                pid,
                priority: pid,
            })
            .collect()
    }

    /// Raw memory snapshot: the head word then the announce words. Only an
    /// atomic snapshot at state-quiescent points of the caller's protocol.
    pub fn snapshot(&self) -> Vec<u64> {
        self.mem.snapshot()
    }

    /// The canonical representation of state `q` under
    /// [`snapshot`](AtomicUniversal::snapshot).
    pub fn canonical(&self, q: &S::State) -> Vec<u64> {
        self.sim.canonical(q)
    }

    /// Decodes the current abstract state from `head`.
    pub fn abstract_state(&self) -> S::State {
        self.sim.abstract_state(&self.mem.snapshot())
    }
}

/// A per-process handle on an [`AtomicUniversal`] object.
#[derive(Debug)]
pub struct UniversalHandle<'a, S: EnumerableSpec> {
    u: &'a AtomicUniversal<S>,
    pid: usize,
    priority: usize,
}

/// One operation's reach into the arena: the cell view, taken once per
/// apply, and the two R-LLSC layouts. Announce words sit right after
/// `head`, so their cell ids are arithmetic.
struct Words<'a> {
    cells: Arena<'a>,
    head: CellId,
    head_layout: LlscLayout,
    ann_layout: LlscLayout,
    pid: usize,
}

impl Words<'_> {
    fn ann(&self, j: usize) -> CellId {
        CellId(self.head.0 + 1 + j)
    }

    fn layout(&self, cell: CellId) -> LlscLayout {
        if cell == self.head {
            self.head_layout
        } else {
            self.ann_layout
        }
    }

    /// One R-LLSC call, its sub-machine stepped until it responds.
    #[inline(always)]
    fn call(&mut self, mut op: LlscOp) -> LlscResult {
        let layout = self.layout(op.cell());
        loop {
            if let Some(result) = op.step(&layout, &mut self.cells) {
                return result;
            }
        }
    }

    /// One `LL` attempt on `cell`: the sub-machine's read step, then its
    /// CAS step. `None` if the CAS met interference.
    #[inline(always)]
    fn ll_attempt(&mut self, cell: CellId) -> Option<u64> {
        let layout = self.layout(cell);
        let mut ll = LlscOp::ll(self.pid, cell);
        let read = ll.step(&layout, &mut self.cells);
        debug_assert!(read.is_none(), "an LL's first step is its read");
        ll.step(&layout, &mut self.cells).map(LlscResult::val)
    }
}

impl<S: EnumerableSpec> UniversalHandle<'_, S> {
    /// Applies `op` and returns its response. Wait-free for state-changing
    /// operations (via announce/helping), one load for read-only ones.
    ///
    /// After one `op → index` lookup everything runs on the codec's indices
    /// and transition table; the response value is cloned once, at return.
    pub fn apply(&mut self, op: S::Op) -> S::Resp {
        let c = &*self.u.sim.codec;
        let o = c.op_index(&op);
        let mut w = Words {
            cells: self.u.mem.cells(),
            head: self.u.sim.head,
            head_layout: c.head_layout(),
            ann_layout: c.ann_layout(),
            pid: self.pid,
        };
        let r = if c.is_read_only(o) {
            let (q, _) = c.unpack_head(w.call(LlscOp::load(w.head)).val());
            c.transition(q, o).1
        } else {
            self.apply_state_changing(o, w)
        };
        c.resp(r).clone()
    }

    /// Lines 4–28 of Algorithm 5 for the op with index `o`; returns the
    /// index of its response.
    fn apply_state_changing(&mut self, o: u64, mut w: Words<'_>) -> u64 {
        let w = &mut w;
        let (i, head) = (self.pid, w.head);
        let (c, release) = (&*self.u.sim.codec, self.u.sim.release);
        let ann_tag = |w: &mut Words<'_>, j| c.unpack_ann(w.call(LlscOp::load(w.ann(j))).val()).0;
        w.call(LlscOp::store(w.ann(i), c.pack_ann(ANN_OP, o))); // line 4
        'outer: loop {
            if ann_tag(w, i) == ANN_RESP {
                break 'outer; // line 5
            }
            // Line 6: LL(head) ∥ response check.
            let head_val = loop {
                if let Some(v) = w.ll_attempt(head) {
                    break v;
                }
                if ann_tag(w, i) == ANN_RESP {
                    break 'outer; // 6R: goto line 24
                }
            };
            let (q, pending) = c.unpack_head(head_val);
            match pending {
                None => {
                    // Lines 8–15: pick an operation (helped or own), apply.
                    let help = w.call(LlscOp::load(w.ann(self.priority))).val();
                    let (apply_op, j) = match c.unpack_ann(help) {
                        (ANN_OP, help) => (help, self.priority),
                        _ => {
                            if ann_tag(w, i) != ANN_OP {
                                continue 'outer; // line 11
                            }
                            (o, i)
                        }
                    };
                    let (state, rsp) = c.transition(q, apply_op);
                    let new = c.pack_head(state, Some((rsp, j)));
                    if w.call(LlscOp::sc(i, head, new)).bool() {
                        self.priority = (self.priority + 1) % self.u.sim.n; // line 15
                    }
                }
                Some((rsp, j)) => {
                    // Line 18: LL(announce[j]) ∥ response check.
                    let a_val = loop {
                        if let Some(a) = w.ll_attempt(w.ann(j)) {
                            break a;
                        }
                        if ann_tag(w, i) == ANN_RESP {
                            if release {
                                w.call(LlscOp::rl(i, w.ann(j))); // 18R.2
                            }
                            break 'outer;
                        }
                    };
                    let (a_tag, _) = c.unpack_ann(a_val);
                    if w.call(LlscOp::vl(i, head)).bool() {
                        // line 19
                        if a_tag == ANN_OP {
                            let resp = c.pack_ann(ANN_RESP, rsp);
                            w.call(LlscOp::sc(i, w.ann(j), resp)); // line 20
                        }
                        w.call(LlscOp::sc(i, head, c.pack_head(q, None))); // line 21
                    }
                    if a_tag == ANN_BOT && release {
                        w.call(LlscOp::rl(i, w.ann(j))); // line 22
                    }
                }
            }
        }
        // Line 24.
        let ann = w.call(LlscOp::load(w.ann(i))).val();
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
            if let Some(v) = w.ll_attempt(head) {
                break Some(v);
            }
            if !mine(w.call(LlscOp::load(head)).val()) {
                break None; // 25R.2: goto line 27
            }
        };
        match ll_result {
            Some(v) if mine(v) => {
                let q = c.unpack_head(v).0;
                w.call(LlscOp::sc(i, head, c.pack_head(q, None))); // line 26
            }
            _ => {
                if release {
                    w.call(LlscOp::rl(i, head)); // line 27
                }
            }
        }
        w.call(LlscOp::store(w.ann(i), c.enc_ann_bot())); // line 28
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
        let mut u = AtomicUniversal::new(CounterSpec::new(-5, 5, 0), 2);
        let mut h = u.handles();
        h[0].apply(CounterOp::Inc);
        h[0].apply(CounterOp::Inc);
        h[0].apply(CounterOp::Dec);
        assert_eq!(h[0].apply(CounterOp::Read), CounterResp::Value(1));
        drop(h);
        assert_eq!(u.snapshot(), u.canonical(&1));
    }

    #[test]
    fn concurrent_increments_all_count() {
        let n = 4;
        let per_thread = 500;
        let mut u = AtomicUniversal::new(CounterSpec::new(0, (n * per_thread) as i64, 0), n);
        std::thread::scope(|s| {
            for mut h in u.handles() {
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
        let mut u = AtomicUniversal::new(spec, 3);
        let consumed: Vec<u32> = std::thread::scope(|s| {
            let mut handles = u.handles();
            let mut h = handles.pop().expect("three handles");
            for (pid, mut h) in (0..2u32).zip(handles) {
                s.spawn(move || {
                    for _ in 0..200 {
                        h.apply(QueueOp::Enqueue(pid + 1));
                    }
                });
            }
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
        let mut u1 = AtomicUniversal::new(CounterSpec::new(0, 10, 0), 2);
        u1.handles()[0].apply(CounterOp::Inc);
        // Second history: up, down, up via both handles.
        let mut u2 = AtomicUniversal::new(CounterSpec::new(0, 10, 0), 2);
        let mut h = u2.handles();
        h[0].apply(CounterOp::Inc);
        h[1].apply(CounterOp::Inc);
        h[0].apply(CounterOp::Dec);
        drop(h);
        assert_eq!(u1.snapshot(), u2.snapshot());
    }
}
