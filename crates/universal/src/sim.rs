//! Algorithm 5 as simulator step machines.
//!
//! Every numbered line of the paper's pseudocode maps to a program-counter
//! variant;
//! the R-LLSC operations are [`LlscOp`] sub-machines advanced one primitive
//! per step; the `||` interleavings of lines 6, 18 and 25 alternate strictly
//! between their left (LL attempt) and right (escape check) sides — a legal
//! instantiation of the paper's "unspecified but finite" interleaving.

use std::fmt;
use std::sync::Arc;

use hi_core::{EnumerableSpec, HiLevel, Pid, Progress, Roles};
use hi_llsc::{LlscLayout, LlscOp};
use hi_sim::{CellDomain, CellId, Cells, Implementation, MemSnapshot, ProcessHandle, SharedMem};
use hi_spec::{ObservationModel, SimAudit, SimObject};

use crate::codec::{AnnValue, Codec, ANN_BOT, ANN_OP, ANN_RESP};

/// Program counter of one `Apply`/`ApplyReadOnly`. States, operations and
/// responses are held as [`Codec`] indices (`q`, `op`, `rsp`/`resp`), like
/// the threaded backend's hot path.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Pc {
    Idle,
    /// `ApplyReadOnly` lines 1–3: one `Load(head)`.
    ReadOnly {
        op: u64,
    },
    /// Line 4: `Store(announce[i], op)`.
    Announce {
        op: u64,
    },
    /// Line 5: `Load(announce[i])`, loop while not a response.
    LoopCheck {
        op: u64,
    },
    /// Line 6: `LL(head)` ∥ response check.
    Ll6 {
        op: u64,
        sub: LlscOp,
        right: bool,
    },
    /// Line 8: `Load(announce[priority])`.
    LoadHelp {
        op: u64,
        q: u64,
    },
    /// Line 11: `Load(announce[i])`.
    LoadOwn {
        op: u64,
        q: u64,
    },
    /// Line 14: `SC(head, ⟨state, ⟨rsp, j⟩⟩)`.
    Sc14 {
        op: u64,
        sub: LlscOp,
    },
    /// Line 18: `LL(announce[j])` ∥ response check.
    Ll18 {
        op: u64,
        q: u64,
        j: usize,
        rsp: u64,
        sub: LlscOp,
        right: bool,
    },
    /// Line 18R.2: `RL(announce[j])` before escaping to line 24.
    Rl18 {
        op: u64,
        sub: LlscOp,
    },
    /// Line 19: `VL(head)` (one read), with `a ∈ O` so line 20 follows on
    /// success.
    Vl19 {
        op: u64,
        q: u64,
        j: usize,
        rsp: u64,
    },
    /// Line 19 when `a ∉ O`: line 20 will be skipped either way.
    Vl19NonOp {
        op: u64,
        q: u64,
        j: usize,
        a_bot: bool,
    },
    /// Line 20: `SC(announce[j], rsp)`.
    Sc20 {
        op: u64,
        q: u64,
        j: usize,
        a_bot: bool,
        sub: LlscOp,
    },
    /// Line 21: `SC(head, ⟨q, ⊥⟩)`.
    Sc21 {
        op: u64,
        j: usize,
        a_bot: bool,
        sub: LlscOp,
    },
    /// Line 22: `RL(announce[j])`.
    Rl22 {
        op: u64,
        sub: LlscOp,
    },
    /// Line 24: `Load(announce[i])` — the response.
    ReadResp,
    /// Line 25: `LL(head)` ∥ "my response gone" check.
    Ll25 {
        resp: u64,
        sub: LlscOp,
        right: bool,
    },
    /// Line 26: `SC(head, ⟨q, ⊥⟩)` clearing our own response.
    Sc26 {
        resp: u64,
        sub: LlscOp,
    },
    /// Line 27: `RL(head)`.
    Rl27 {
        resp: u64,
        sub: LlscOp,
    },
    /// Line 28: `Store(announce[i], ⊥)`.
    ClearAnn {
        resp: u64,
    },
}

/// Algorithm 5 over `n` processes: `head` plus `announce[0..n]`, all R-LLSC
/// cells implemented by Algorithm 6 over single CAS words.
///
/// Wait-free, linearizable and state-quiescent HI (Theorem 32) for any
/// enumerable object spec.
#[derive(Clone, Debug)]
pub struct SimUniversal<S: EnumerableSpec> {
    spec: S,
    pub(crate) codec: Arc<Codec<S>>,
    pub(crate) head: CellId,
    pub(crate) ann: Vec<CellId>,
    mem: SharedMem,
    pub(crate) n: usize,
    pub(crate) release: bool,
}

impl<S: EnumerableSpec> SimUniversal<S> {
    /// Creates the universal object for `spec` shared by `n` processes.
    pub fn new(spec: S, n: usize) -> Self {
        let codec = Arc::new(Codec::new(&spec, n));
        let mut mem = SharedMem::new();
        let head_domain = match codec.head_layout().states() {
            Some(s) => CellDomain::Bounded(s),
            None => CellDomain::Word,
        };
        let ann_domain = match codec.ann_layout().states() {
            Some(s) => CellDomain::Bounded(s),
            None => CellDomain::Word,
        };
        let initial = codec
            .head_layout()
            .reset(codec.initial_head(&spec.initial_state()));
        let head = mem.alloc("head", head_domain, initial);
        let ann: Vec<CellId> = (0..n)
            .map(|i| mem.alloc(format!("announce[{i}]"), ann_domain, 0))
            .collect();
        SimUniversal {
            spec,
            codec,
            head,
            ann,
            mem,
            n,
            release: true,
        }
    }

    /// The ablation of the paper's §6.1 red lines: Algorithm 5 *without*
    /// the `RL` operations (lines 18R.2, 22 and 27). The construction stays
    /// linearizable and wait-free, but leftover R-LLSC context bits reveal
    /// that operations were attempted — it is not even quiescent HI, which
    /// is exactly why the paper extends LL/SC with release.
    pub fn without_release(spec: S, n: usize) -> Self {
        let mut imp = SimUniversal::new(spec, n);
        imp.release = false;
        imp
    }

    /// Whether the `RL` clearing lines are enabled (they are, except for the
    /// [`without_release`](SimUniversal::without_release) ablation).
    pub fn release_enabled(&self) -> bool {
        self.release
    }

    /// The shared codec (for threaded twins and tests).
    pub fn codec(&self) -> &Codec<S> {
        &self.codec
    }

    /// Decodes the `head` cell of a snapshot into
    /// `(state, pending response)`.
    pub fn head_value(&self, snap: &MemSnapshot) -> (S::State, Option<(S::Resp, usize)>) {
        let raw = snap[self.head.0];
        self.codec.dec_head(self.codec.head_layout().val(raw))
    }

    /// The abstract state recorded in `head` — the state oracle for the HI
    /// monitors (Lemma 25: `state(h_uc(α))` is the state component of
    /// `head`).
    pub fn abstract_state(&self, snap: &MemSnapshot) -> S::State {
        self.head_value(snap).0
    }

    /// Decodes the `announce[pid]` cell of a snapshot.
    pub fn announce_value(&self, snap: &MemSnapshot, pid: usize) -> AnnValue<S> {
        let raw = snap[self.ann[pid].0];
        self.codec.dec_ann(self.codec.ann_layout().val(raw))
    }

    /// The canonical memory representation of state `q`: `head = ⟨q, ⊥⟩`
    /// with empty context, all announce cells `⊥` with empty context.
    pub fn canonical(&self, q: &S::State) -> MemSnapshot {
        let mut snap = vec![0u64; self.n + 1];
        snap[self.head.0] = self.codec.head_layout().reset(self.codec.enc_head(q, None));
        snap
    }
}

/// The per-process step machine of [`SimUniversal`].
#[derive(Clone)]
pub struct UniversalProcess<S: EnumerableSpec> {
    codec: Arc<Codec<S>>,
    head: CellId,
    ann: Vec<CellId>,
    pid: usize,
    n: usize,
    /// Algorithm 5's rotating helping priority (local, persists across
    /// operations).
    priority: usize,
    /// Whether the RL clearing lines are enabled (§6.1 red lines).
    release: bool,
    pc: Pc,
}

impl<S: EnumerableSpec> PartialEq for UniversalProcess<S> {
    fn eq(&self, other: &Self) -> bool {
        // The codec is identical by construction; local state is what
        // distinguishes two processes.
        self.pid == other.pid && self.priority == other.priority && self.pc == other.pc
    }
}

impl<S: EnumerableSpec> fmt::Debug for UniversalProcess<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The local state only, as in `eq`: the codec (with its transition
        // table) is the same fixed value in every process, and the model
        // checker fingerprints this rendering at every node.
        f.debug_struct("UniversalProcess")
            .field("pid", &self.pid)
            .field("priority", &self.priority)
            .field("pc", &self.pc)
            .finish()
    }
}

impl<S: EnumerableSpec> UniversalProcess<S> {
    fn hl(&self) -> LlscLayout {
        self.codec.head_layout()
    }

    fn al(&self) -> LlscLayout {
        self.codec.ann_layout()
    }

    /// Reads `announce[who]` (one primitive) and unpacks it into
    /// `(tag, payload)`.
    fn load_ann(&self, ctx: &mut impl Cells, who: usize) -> (u64, u64) {
        let raw = ctx.read(self.ann[who]);
        self.codec.unpack_ann(self.al().val(raw))
    }

    /// The rotating helping priority (exposed for progress tests).
    pub fn priority(&self) -> usize {
        self.priority
    }
}

impl<S: EnumerableSpec> ProcessHandle<S> for UniversalProcess<S> {
    fn invoke(&mut self, op: S::Op) {
        assert_eq!(self.pc, Pc::Idle, "operation already pending");
        let op = self.codec.op_index(&op);
        self.pc = if self.codec.is_read_only(op) {
            Pc::ReadOnly { op }
        } else {
            Pc::Announce { op }
        };
    }

    fn is_idle(&self) -> bool {
        self.pc == Pc::Idle
    }

    fn step<C: Cells>(&mut self, ctx: &mut C) -> Option<S::Resp> {
        let i = self.pid;
        match std::mem::replace(&mut self.pc, Pc::Idle) {
            Pc::Idle => panic!("step of idle process"),

            Pc::ReadOnly { op } => {
                let raw = ctx.read(self.head);
                let (q, _) = self.codec.unpack_head(self.hl().val(raw));
                let (_, rsp) = self.codec.transition(q, op);
                return Some(self.codec.resp(rsp).clone());
            }

            Pc::Announce { op } => {
                ctx.write(
                    self.ann[i],
                    self.al().reset(self.codec.pack_ann(ANN_OP, op)),
                );
                self.pc = Pc::LoopCheck { op };
            }

            Pc::LoopCheck { op } => {
                if self.load_ann(ctx, i).0 == ANN_RESP {
                    self.pc = Pc::ReadResp;
                } else {
                    self.pc = Pc::Ll6 {
                        op,
                        sub: LlscOp::ll(i, self.head),
                        right: false,
                    };
                }
            }

            Pc::Ll6 { op, mut sub, right } => {
                if right {
                    if self.load_ann(ctx, i).0 == ANN_RESP {
                        self.pc = Pc::ReadResp; // 6R.2: goto line 24
                    } else {
                        self.pc = Pc::Ll6 {
                            op,
                            sub,
                            right: false,
                        };
                    }
                } else {
                    match sub.step(&self.hl(), ctx) {
                        Some(res) => {
                            let (q, r) = self.codec.unpack_head(res.val());
                            self.pc = match r {
                                None => Pc::LoadHelp { op, q },
                                Some((rsp, j)) => Pc::Ll18 {
                                    op,
                                    q,
                                    j,
                                    rsp,
                                    sub: LlscOp::ll(i, self.ann[j]),
                                    right: false,
                                },
                            };
                        }
                        None => {
                            self.pc = Pc::Ll6 {
                                op,
                                sub,
                                right: true,
                            }
                        }
                    }
                }
            }

            Pc::LoadHelp { op, q } => {
                if let (ANN_OP, help) = self.load_ann(ctx, self.priority) {
                    let (state, rsp) = self.codec.transition(q, help);
                    let new = self.codec.pack_head(state, Some((rsp, self.priority)));
                    self.pc = Pc::Sc14 {
                        op,
                        sub: LlscOp::sc(i, self.head, new),
                    };
                } else {
                    self.pc = Pc::LoadOwn { op, q };
                }
            }

            Pc::LoadOwn { op, q } => {
                if self.load_ann(ctx, i).0 == ANN_OP {
                    let (state, rsp) = self.codec.transition(q, op);
                    let new = self.codec.pack_head(state, Some((rsp, i)));
                    self.pc = Pc::Sc14 {
                        op,
                        sub: LlscOp::sc(i, self.head, new),
                    };
                } else {
                    self.pc = Pc::LoopCheck { op }; // line 11: continue
                }
            }

            Pc::Sc14 { op, mut sub } => match sub.step(&self.hl(), ctx) {
                Some(res) => {
                    if res.bool() {
                        self.priority = (self.priority + 1) % self.n; // line 15
                    }
                    self.pc = Pc::LoopCheck { op }; // line 23: continue
                }
                None => self.pc = Pc::Sc14 { op, sub },
            },

            Pc::Ll18 {
                op,
                q,
                j,
                rsp,
                mut sub,
                right,
            } => {
                if right {
                    if self.load_ann(ctx, i).0 == ANN_RESP {
                        // 18R.2: RL(announce[j]), then goto line 24.
                        self.pc = if self.release {
                            Pc::Rl18 {
                                op,
                                sub: LlscOp::rl(i, self.ann[j]),
                            }
                        } else {
                            Pc::ReadResp
                        };
                    } else {
                        self.pc = Pc::Ll18 {
                            op,
                            q,
                            j,
                            rsp,
                            sub,
                            right: false,
                        };
                    }
                } else {
                    match sub.step(&self.al(), ctx) {
                        Some(res) => {
                            // Stash membership; line 19 is next.
                            let (a_tag, _) = self.codec.unpack_ann(res.val());
                            let a_bot = a_tag == ANN_BOT;
                            self.pc = if a_tag == ANN_OP {
                                Pc::Vl19 { op, q, j, rsp }
                            } else {
                                // a ∉ O: line 20 will be skipped; remember ⊥-ness.
                                Pc::Vl19NonOp { op, q, j, a_bot }
                            };
                        }
                        None => {
                            self.pc = Pc::Ll18 {
                                op,
                                q,
                                j,
                                rsp,
                                sub,
                                right: true,
                            }
                        }
                    }
                }
            }

            Pc::Rl18 { op, mut sub } => match sub.step(&self.al(), ctx) {
                Some(_) => self.pc = Pc::ReadResp,
                None => self.pc = Pc::Rl18 { op, sub },
            },

            Pc::Vl19 { op, q, j, rsp } => {
                let raw = ctx.read(self.head);
                if self.hl().has(raw, i) {
                    let new = self.codec.pack_ann(ANN_RESP, rsp);
                    self.pc = Pc::Sc20 {
                        op,
                        q,
                        j,
                        a_bot: false,
                        sub: LlscOp::sc(i, self.ann[j], new),
                    };
                } else {
                    // VL failed and a ∈ O: no RL (line 22 skipped).
                    self.pc = Pc::LoopCheck { op };
                }
            }

            Pc::Vl19NonOp { op, q, j, a_bot } => {
                let raw = ctx.read(self.head);
                if self.hl().has(raw, i) {
                    // a ∉ O: skip line 20, go straight to line 21.
                    let new = self.codec.pack_head(q, None);
                    self.pc = Pc::Sc21 {
                        op,
                        j,
                        a_bot,
                        sub: LlscOp::sc(i, self.head, new),
                    };
                } else if a_bot && self.release {
                    self.pc = Pc::Rl22 {
                        op,
                        sub: LlscOp::rl(i, self.ann[j]),
                    };
                } else {
                    self.pc = Pc::LoopCheck { op };
                }
            }

            Pc::Sc20 {
                op,
                q,
                j,
                a_bot,
                mut sub,
            } => match sub.step(&self.al(), ctx) {
                Some(_) => {
                    let new = self.codec.pack_head(q, None);
                    self.pc = Pc::Sc21 {
                        op,
                        j,
                        a_bot,
                        sub: LlscOp::sc(i, self.head, new),
                    };
                }
                None => {
                    self.pc = Pc::Sc20 {
                        op,
                        q,
                        j,
                        a_bot,
                        sub,
                    }
                }
            },

            Pc::Sc21 {
                op,
                j,
                a_bot,
                mut sub,
            } => match sub.step(&self.hl(), ctx) {
                Some(_) => {
                    self.pc = if a_bot && self.release {
                        Pc::Rl22 {
                            op,
                            sub: LlscOp::rl(i, self.ann[j]),
                        }
                    } else {
                        Pc::LoopCheck { op }
                    };
                }
                None => self.pc = Pc::Sc21 { op, j, a_bot, sub },
            },

            Pc::Rl22 { op, mut sub } => match sub.step(&self.al(), ctx) {
                Some(_) => self.pc = Pc::LoopCheck { op },
                None => self.pc = Pc::Rl22 { op, sub },
            },

            Pc::ReadResp => {
                let ann = self.al().val(ctx.read(self.ann[i]));
                match self.codec.unpack_ann(ann) {
                    (ANN_RESP, resp) => {
                        self.pc = Pc::Ll25 {
                            resp,
                            sub: LlscOp::ll(i, self.head),
                            right: false,
                        };
                    }
                    _ => panic!(
                        "announce[{i}] held {:?} at line 24, expected a response",
                        self.codec.dec_ann(ann)
                    ),
                }
            }

            Pc::Ll25 {
                resp,
                mut sub,
                right,
            } => {
                if right {
                    let raw = ctx.read(self.head);
                    let (_, r) = self.codec.unpack_head(self.hl().val(raw));
                    if !matches!(r, Some((_, j)) if j == i) {
                        // 25R.2: our response is gone; goto line 27.
                        self.pc = if self.release {
                            Pc::Rl27 {
                                resp,
                                sub: LlscOp::rl(i, self.head),
                            }
                        } else {
                            Pc::ClearAnn { resp }
                        };
                    } else {
                        self.pc = Pc::Ll25 {
                            resp,
                            sub,
                            right: false,
                        };
                    }
                } else {
                    match sub.step(&self.hl(), ctx) {
                        Some(res) => {
                            let (q, r) = self.codec.unpack_head(res.val());
                            self.pc = if matches!(r, Some((_, j)) if j == i) {
                                let new = self.codec.pack_head(q, None);
                                Pc::Sc26 {
                                    resp,
                                    sub: LlscOp::sc(i, self.head, new),
                                }
                            } else if self.release {
                                Pc::Rl27 {
                                    resp,
                                    sub: LlscOp::rl(i, self.head),
                                }
                            } else {
                                Pc::ClearAnn { resp }
                            };
                        }
                        None => {
                            self.pc = Pc::Ll25 {
                                resp,
                                sub,
                                right: true,
                            }
                        }
                    }
                }
            }

            Pc::Sc26 { resp, mut sub } => match sub.step(&self.hl(), ctx) {
                Some(_) => self.pc = Pc::ClearAnn { resp },
                None => self.pc = Pc::Sc26 { resp, sub },
            },

            Pc::Rl27 { resp, mut sub } => match sub.step(&self.hl(), ctx) {
                Some(_) => self.pc = Pc::ClearAnn { resp },
                None => self.pc = Pc::Rl27 { resp, sub },
            },

            Pc::ClearAnn { resp } => {
                ctx.write(self.ann[i], self.al().reset(self.codec.enc_ann_bot()));
                return Some(self.codec.resp(resp).clone());
            }
        }
        None
    }

    fn peeked_cell(&self) -> Option<CellId> {
        let i = self.pid;
        Some(match &self.pc {
            Pc::Idle => return None,
            Pc::ReadOnly { .. } | Pc::Vl19 { .. } | Pc::Vl19NonOp { .. } => self.head,
            Pc::Announce { .. }
            | Pc::LoopCheck { .. }
            | Pc::LoadOwn { .. }
            | Pc::ReadResp
            | Pc::ClearAnn { .. } => self.ann[i],
            Pc::LoadHelp { .. } => self.ann[self.priority],
            Pc::Ll6 { sub, right, .. } => {
                if *right {
                    self.ann[i]
                } else {
                    sub.cell()
                }
            }
            Pc::Ll18 { sub, right, .. } => {
                if *right {
                    self.ann[i]
                } else {
                    sub.cell()
                }
            }
            Pc::Ll25 { sub, right, .. } => {
                if *right {
                    self.head
                } else {
                    sub.cell()
                }
            }
            Pc::Sc14 { sub, .. }
            | Pc::Rl18 { sub, .. }
            | Pc::Sc20 { sub, .. }
            | Pc::Sc21 { sub, .. }
            | Pc::Rl22 { sub, .. }
            | Pc::Sc26 { sub, .. }
            | Pc::Rl27 { sub, .. } => sub.cell(),
        })
    }
}

impl<S: EnumerableSpec> Implementation<S> for SimUniversal<S> {
    type Process = UniversalProcess<S>;

    fn spec(&self) -> &S {
        &self.spec
    }

    fn num_processes(&self) -> usize {
        self.n
    }

    fn init_memory(&self) -> SharedMem {
        self.mem.clone()
    }

    fn make_process(&self, pid: Pid) -> UniversalProcess<S> {
        assert!(pid.0 < self.n);
        UniversalProcess {
            codec: Arc::clone(&self.codec),
            head: self.head,
            ann: self.ann.clone(),
            pid: pid.0,
            n: self.n,
            priority: pid.0,
            release: self.release,
            pc: Pc::Idle,
        }
    }
}

impl<S: EnumerableSpec + 'static> SimObject<S> for SimUniversal<S> {
    type Machine = Self;

    fn spec(&self) -> &S {
        &self.spec
    }

    fn roles(&self) -> Roles {
        Roles::MultiProcess { n: self.n }
    }

    fn hi_level(&self) -> HiLevel {
        // `without_release` drops the RL clearing that buys HI (§6.1).
        if self.release {
            HiLevel::StateQuiescent
        } else {
            HiLevel::NotHi
        }
    }

    fn progress(&self) -> Progress {
        // Algorithm 5 announces every operation and helps the whole
        // announce array before swinging the head: a crashed process's
        // announced operation is completed (exactly once) by any survivor,
        // with or without the RL clearing.
        Progress::Helping
    }

    fn implementation(&self) -> &Self {
        self
    }

    fn hi_audit(&self) -> SimAudit<S, Self> {
        if !self.release {
            return SimAudit::LinOnly;
        }
        // Lemma 25: the state component of `head` is the abstract state.
        let oracle = self.clone();
        SimAudit::from_snapshot(ObservationModel::StateQuiescent, move |snap| {
            oracle.abstract_state(snap)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hi_core::objects::{CounterOp, CounterResp, CounterSpec};
    use hi_sim::Executor;

    fn counter(n: usize) -> SimUniversal<CounterSpec> {
        SimUniversal::new(CounterSpec::new(0, 10, 0), n)
    }

    #[test]
    fn solo_ops_round_trip() {
        let mut exec = Executor::new(counter(2));
        assert_eq!(
            exec.run_op_solo(Pid(0), CounterOp::Inc, 200).unwrap(),
            CounterResp::Ack
        );
        assert_eq!(
            exec.run_op_solo(Pid(1), CounterOp::Inc, 200).unwrap(),
            CounterResp::Ack
        );
        assert_eq!(
            exec.run_op_solo(Pid(0), CounterOp::Read, 10).unwrap(),
            CounterResp::Value(2)
        );
    }

    #[test]
    fn memory_canonical_after_solo_ops() {
        let imp = counter(3);
        let mut exec = Executor::new(imp.clone());
        exec.run_op_solo(Pid(0), CounterOp::Inc, 200).unwrap();
        exec.run_op_solo(Pid(1), CounterOp::Inc, 200).unwrap();
        exec.run_op_solo(Pid(2), CounterOp::Dec, 200).unwrap();
        assert_eq!(exec.snapshot(), imp.canonical(&1));
    }

    #[test]
    fn counter_back_at_zero_leaves_no_trace() {
        // The paper's §6 motivating leak: a counter that was non-zero in the
        // past must be indistinguishable from one that never moved.
        let imp = counter(2);
        let mut busy = Executor::new(imp.clone());
        for _ in 0..3 {
            busy.run_op_solo(Pid(0), CounterOp::Inc, 200).unwrap();
            busy.run_op_solo(Pid(1), CounterOp::Dec, 200).unwrap();
        }
        let mut idle = Executor::new(imp.clone());
        idle.run_op_solo(Pid(1), CounterOp::Read, 10).unwrap();
        assert_eq!(busy.snapshot(), idle.snapshot());
        assert_eq!(busy.snapshot(), imp.canonical(&0));
    }

    #[test]
    fn helping_completes_a_stalled_operation() {
        // p0 announces Inc and stalls right after the announce store; p1's
        // operation applies p0's op for it (priority helping).
        let imp = counter(2);
        let mut exec = Executor::new(imp.clone());
        exec.invoke(Pid(0), CounterOp::Inc);
        exec.step(Pid(0)); // line 4: announce
                           // p1 runs a full Inc solo; since priority_1 = 1 initially it applies
                           // its own op first, but within bounded steps it must rotate and help.
        exec.run_op_solo(Pid(1), CounterOp::Inc, 500).unwrap();
        // After p1's operations, p0's op may or may not yet be applied; run
        // one more p1 op to force the rotation through p0.
        exec.run_op_solo(Pid(1), CounterOp::Inc, 500).unwrap();
        // p0 finishes: its announce already holds a response or its op gets
        // applied now.
        let (_, resp) = exec.run_solo(Pid(0), 500).unwrap();
        assert_eq!(resp, CounterResp::Ack);
        assert_eq!(
            exec.run_op_solo(Pid(1), CounterOp::Read, 10).unwrap(),
            CounterResp::Value(3)
        );
    }

    #[test]
    fn read_only_op_is_single_step_and_writes_nothing() {
        let imp = counter(2);
        let mut exec = Executor::new(imp.clone());
        exec.run_op_solo(Pid(0), CounterOp::Inc, 200).unwrap();
        let before = exec.snapshot();
        exec.invoke(Pid(1), CounterOp::Read);
        let done = exec.step(Pid(1));
        assert_eq!(done.map(|(_, r)| r), Some(CounterResp::Value(1)));
        assert_eq!(exec.snapshot(), before, "read-only ops leave no trace");
    }

    #[test]
    fn abstract_state_decodes_head() {
        let imp = counter(2);
        let mut exec = Executor::new(imp.clone());
        exec.run_op_solo(Pid(0), CounterOp::Inc, 200).unwrap();
        assert_eq!(imp.abstract_state(&exec.snapshot()), 1);
        let (q, r) = imp.head_value(&exec.snapshot());
        assert_eq!((q, r), (1, None));
    }
}
