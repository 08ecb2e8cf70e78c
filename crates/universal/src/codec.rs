//! Bit-level canonical representations for the universal construction.
//!
//! The codec enumerates the object's states, operations and responses once,
//! at construction, and never again — so the mapping from abstract values to
//! bit patterns is fixed at initialization, exactly the form of canonical
//! representation that Proposition 3 requires of deterministic HI
//! implementations. (An interning table extended lazily during execution
//! would order entries by first use and thereby leak the history.)
//!
//! The same enumeration also fixes a *transition table*: for every state
//! index `q` and operation index `o`, the row `q · |ops| + o` holds the
//! indices `(q', r)` of `spec.apply(states[q], ops[o])`, plus one read-only
//! bit per operation. Algorithm 5's hot path then runs on `u64` indices —
//! it looks its operation up once, steps through the table, and clones the
//! response value once, at return — while the words it writes stay the
//! ones [`Codec::enc_head`] and [`Codec::enc_ann_op`] define. The table
//! keeps Proposition 3's argument intact because it is
//!
//! * **private** — a process-local constant, never a shared object, so it
//!   is not part of the memory representation an observer dumps;
//! * **fixed** — built once, before the first operation, and never written
//!   again, so no execution can leave a trace in it;
//! * **spec-only** — a function of the spec and its enumeration order
//!   alone, so two objects of the same spec hold identical tables whatever
//!   their histories.
//!
//! It costs `O(s · |ops|)` words, the same order as
//! [`EnumerableSpec::check_closed`]'s sweep: 601 × 3 rows for a counter on
//! `[-300, 300]`.
//!
//! Both word layouts are implemented once, by the index-level packers
//! ([`Codec::pack_head`], [`Codec::pack_ann`] and their inverses); the
//! value-level `enc_*`/`dec_*` functions are thin wrappers over them.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use hi_core::EnumerableSpec;
use hi_llsc::LlscLayout;

/// Announce tag of `⊥`: with a zero payload, the all-zero idle word.
pub const ANN_BOT: u64 = 0;
/// Announce tag of an announced operation (payload: its op index).
pub const ANN_OP: u64 = 1;
/// Announce tag of a delivered response (payload: its response index).
pub const ANN_RESP: u64 = 2;
/// Head tag of `⟨q, ⟨rsp, pid⟩⟩`: a response awaiting delivery (the tag of
/// `⟨q, ⊥⟩` is 0).
const HEAD_PENDING: u64 = 1;

/// The multiplicative (rotate, xor, multiply) hasher of the codec's
/// value→index maps. Their keys are the spec's own enumeration, fixed at
/// construction; a caller's value is only ever looked up, never inserted,
/// so SipHash's resistance to chosen keys buys nothing here.
#[derive(Default, Clone, Copy)]
struct MulHasher(u64);

impl MulHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.mix(i.into());
    }

    fn write_u32(&mut self, i: u32) {
        self.mix(i.into());
    }

    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A value→index map of the enumeration.
type IndexMap<K> = HashMap<K, u64, BuildHasherDefault<MulHasher>>;

fn index_map<K: std::hash::Hash + Eq + Clone>(values: &[K], what: &str) -> IndexMap<K> {
    let map: IndexMap<K> = (0u64..)
        .zip(values.iter().cloned())
        .map(|(i, k)| (k, i))
        .collect();
    assert_eq!(map.len(), values.len(), "duplicate {what}");
    map
}

/// Decoded contents of an `announce` cell.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AnnValue<S: EnumerableSpec> {
    /// `⊥`: no pending operation.
    Bot,
    /// An announced operation awaiting application.
    Op(S::Op),
    /// The response of an applied operation awaiting delivery.
    Resp(S::Resp),
}

fn bits_for(count: usize) -> u32 {
    debug_assert!(count >= 1);
    (usize::BITS - (count - 1).leading_zeros()).max(1)
}

/// The fixed encoder/decoder for one object spec and process count.
///
/// `head` values encode `⟨state, ⊥⟩` or `⟨state, ⟨resp, pid⟩⟩`; `announce`
/// values encode `⊥`, an operation, or a response. Both include the R-LLSC
/// context bits via their [`LlscLayout`]s.
///
/// # Example
///
/// ```
/// use hi_core::objects::{CounterSpec, CounterResp, CounterOp};
/// use hi_universal::Codec;
///
/// let spec = CounterSpec::new(0, 7, 0);
/// let codec = Codec::new(&spec, 4);
/// let h = codec.enc_head(&5, Some((&CounterResp::Ack, 2)));
/// let (q, r) = codec.dec_head(h);
/// assert_eq!(q, 5);
/// assert_eq!(r, Some((CounterResp::Ack, 2)));
///
/// // The same word, built from indices through the transition table.
/// let inc = codec.op_index(&CounterOp::Inc);
/// let (q, r) = codec.transition(codec.state_index(&4), inc);
/// assert_eq!(codec.pack_head(q, Some((r, 2))), h);
/// ```
#[derive(Clone, Debug)]
pub struct Codec<S: EnumerableSpec> {
    states: Vec<S::State>,
    state_idx: IndexMap<S::State>,
    ops: Vec<S::Op>,
    op_idx: IndexMap<S::Op>,
    resps: Vec<S::Resp>,
    resp_idx: IndexMap<S::Resp>,
    /// `Δ` over indices: row `q · |ops| + o` is `(q', r)`.
    table: Vec<(u64, u64)>,
    /// Per op index: whether the spec calls the op read-only.
    read_only: Vec<bool>,
    n: usize,
    state_bits: u32,
    resp_bits: u32,
    pid_bits: u32,
    payload_bits: u32,
    head_layout: LlscLayout,
    ann_layout: LlscLayout,
}

impl<S: EnumerableSpec> Codec<S> {
    /// Builds the codec for `spec` shared by `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if the head or announce encoding (value bits + `n` context
    /// bits) does not fit in 64 bits — the construction requires base
    /// objects with `O(s · 2^n)` states and refuses to truncate — or if
    /// `spec.apply` leaves the enumerated states or responses.
    pub fn new(spec: &S, n: usize) -> Self {
        assert!(n >= 1, "at least one process required");
        let states = spec.states();
        let ops = spec.ops();
        let resps = spec.responses();
        let state_idx = index_map(&states, "states");
        let op_idx = index_map(&ops, "ops");
        let resp_idx = index_map(&resps, "responses");

        let table = states
            .iter()
            .flat_map(|q| ops.iter().map(move |o| (q, o)))
            .map(|(q, o)| {
                let (q2, r) = spec.apply(q, o);
                match (state_idx.get(&q2), resp_idx.get(&r)) {
                    (Some(&q2), Some(&r)) => (q2, r),
                    _ => panic!("apply({q:?}, {o:?}) = ({q2:?}, {r:?}) leaves the enumeration"),
                }
            })
            .collect();
        let read_only = ops.iter().map(|o| spec.is_read_only(o)).collect();

        let state_bits = bits_for(states.len());
        let resp_bits = bits_for(resps.len());
        let pid_bits = bits_for(n);
        let payload_bits = bits_for(ops.len()).max(resp_bits);
        // head value: tag(1) | pid | resp | state
        let head_val_bits = 1 + pid_bits + resp_bits + state_bits;
        // announce value: tag(2) | payload
        let ann_val_bits = 2 + payload_bits;
        let head_layout = LlscLayout::new(head_val_bits, n);
        let ann_layout = LlscLayout::new(ann_val_bits, n);
        Codec {
            states,
            state_idx,
            ops,
            op_idx,
            resps,
            resp_idx,
            table,
            read_only,
            n,
            state_bits,
            resp_bits,
            pid_bits,
            payload_bits,
            head_layout,
            ann_layout,
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The R-LLSC layout of the `head` cell.
    pub fn head_layout(&self) -> LlscLayout {
        self.head_layout
    }

    /// The R-LLSC layout of the `announce` cells.
    pub fn ann_layout(&self) -> LlscLayout {
        self.ann_layout
    }

    /// The index of `state` in the enumeration.
    pub fn state_index(&self, state: &S::State) -> u64 {
        self.state_idx[state]
    }

    /// The index of `op` in the enumeration — the one value→index lookup
    /// an operation of Algorithm 5 pays.
    pub fn op_index(&self, op: &S::Op) -> u64 {
        self.op_idx[op]
    }

    /// The index of `resp` in the enumeration.
    pub fn resp_index(&self, resp: &S::Resp) -> u64 {
        self.resp_idx[resp]
    }

    /// The response with index `r`.
    pub fn resp(&self, r: u64) -> &S::Resp {
        &self.resps[r as usize]
    }

    /// Whether the operation with index `o` is read-only.
    pub fn is_read_only(&self, o: u64) -> bool {
        self.read_only[o as usize]
    }

    /// `Δ` over indices: the indices `(q', r)` of
    /// `spec.apply(states[q], ops[o])`, read from the table.
    pub fn transition(&self, q: u64, o: u64) -> (u64, u64) {
        self.table[q as usize * self.ops.len() + o as usize]
    }

    /// Packs a `head` value from indices: `⟨q, ⊥⟩`, or `⟨q, ⟨r, pid⟩⟩`.
    pub fn pack_head(&self, q: u64, pending: Option<(u64, usize)>) -> u64 {
        match pending {
            None => q,
            Some((r, pid)) => {
                debug_assert!(pid < self.n);
                let pid_shift = self.state_bits + self.resp_bits;
                (HEAD_PENDING << (pid_shift + self.pid_bits))
                    | ((pid as u64) << pid_shift)
                    | (r << self.state_bits)
                    | q
            }
        }
    }

    /// Unpacks a `head` value into indices (the inverse of
    /// [`pack_head`](Codec::pack_head)).
    pub fn unpack_head(&self, v: u64) -> (u64, Option<(u64, usize)>) {
        let pid_shift = self.state_bits + self.resp_bits;
        let q = v & ((1u64 << self.state_bits) - 1);
        if v >> (pid_shift + self.pid_bits) != HEAD_PENDING {
            return (q, None);
        }
        let r = (v >> self.state_bits) & ((1u64 << self.resp_bits) - 1);
        let pid = (v >> pid_shift) & ((1u64 << self.pid_bits) - 1);
        (q, Some((r, pid as usize)))
    }

    /// Packs an `announce` value: `tag` ([`ANN_BOT`], [`ANN_OP`] or
    /// [`ANN_RESP`]) over an op or response index.
    pub fn pack_ann(&self, tag: u64, payload: u64) -> u64 {
        (tag << self.payload_bits) | payload
    }

    /// Unpacks an `announce` value into `(tag, payload)`.
    pub fn unpack_ann(&self, v: u64) -> (u64, u64) {
        (
            v >> self.payload_bits,
            v & ((1u64 << self.payload_bits) - 1),
        )
    }

    /// Encodes a `head` value `⟨state, ⊥⟩` or `⟨state, ⟨resp, pid⟩⟩`.
    pub fn enc_head(&self, state: &S::State, resp: Option<(&S::Resp, usize)>) -> u64 {
        let pending = resp.map(|(r, pid)| {
            assert!(pid < self.n);
            (self.resp_index(r), pid)
        });
        self.pack_head(self.state_index(state), pending)
    }

    /// Decodes a `head` value.
    pub fn dec_head(&self, v: u64) -> (S::State, Option<(S::Resp, usize)>) {
        let (q, pending) = self.unpack_head(v);
        let pending = pending.map(|(r, pid)| (self.resp(r).clone(), pid));
        (self.states[q as usize].clone(), pending)
    }

    /// The encoding of `announce = ⊥` (all-zero value).
    pub fn enc_ann_bot(&self) -> u64 {
        self.pack_ann(ANN_BOT, 0)
    }

    /// Encodes an announced operation.
    pub fn enc_ann_op(&self, op: &S::Op) -> u64 {
        self.pack_ann(ANN_OP, self.op_index(op))
    }

    /// Encodes a delivered response.
    pub fn enc_ann_resp(&self, resp: &S::Resp) -> u64 {
        self.pack_ann(ANN_RESP, self.resp_index(resp))
    }

    /// Decodes an `announce` value.
    pub fn dec_ann(&self, v: u64) -> AnnValue<S> {
        match self.unpack_ann(v) {
            (ANN_BOT, _) => AnnValue::Bot,
            (ANN_OP, o) => AnnValue::Op(self.ops[o as usize].clone()),
            (ANN_RESP, r) => AnnValue::Resp(self.resp(r).clone()),
            (tag, _) => panic!("corrupt announce tag {tag}"),
        }
    }

    /// The initial `head` value: `⟨q0, ⊥⟩` for the given initial state.
    pub fn initial_head(&self, initial: &S::State) -> u64 {
        self.enc_head(initial, None)
    }

    /// The enumerated states (in canonical index order).
    pub fn states(&self) -> &[S::State] {
        &self.states
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hi_core::objects::{CounterOp, CounterResp, CounterSpec, SetOp, SetSpec};

    #[test]
    fn head_round_trip_all_states() {
        let spec = CounterSpec::new(-2, 4, 0);
        let codec = Codec::new(&spec, 3);
        for q in spec_states(&spec) {
            let v = codec.enc_head(&q, None);
            assert_eq!(codec.dec_head(v), (q, None));
            for pid in 0..3 {
                for r in [
                    CounterResp::Ack,
                    CounterResp::Value(-2),
                    CounterResp::Value(4),
                ] {
                    let v = codec.enc_head(&q, Some((&r, pid)));
                    assert_eq!(codec.dec_head(v), (q, Some((r, pid))));
                }
            }
        }
    }

    fn spec_states(spec: &CounterSpec) -> Vec<i64> {
        use hi_core::EnumerableSpec;
        spec.states()
    }

    #[test]
    fn announce_round_trip() {
        let spec = SetSpec::new(4);
        let codec = Codec::new(&spec, 2);
        assert_eq!(codec.dec_ann(codec.enc_ann_bot()), AnnValue::Bot);
        let op = SetOp::Insert(3);
        assert_eq!(codec.dec_ann(codec.enc_ann_op(&op)), AnnValue::Op(op));
        let r = hi_core::objects::SetResp::Bool(true);
        assert_eq!(codec.dec_ann(codec.enc_ann_resp(&r)), AnnValue::Resp(r));
    }

    #[test]
    fn bot_encoding_is_zero() {
        // The all-zero announce cell is ⊥ with empty context: the canonical
        // idle representation.
        let codec = Codec::new(&SetSpec::new(2), 2);
        assert_eq!(codec.enc_ann_bot(), 0);
    }

    #[test]
    fn distinct_encodings() {
        let spec = CounterSpec::new(0, 3, 0);
        let codec = Codec::new(&spec, 2);
        let mut seen = std::collections::HashSet::new();
        for q in [0i64, 1, 2, 3] {
            assert!(seen.insert(codec.enc_head(&q, None)));
            for pid in 0..2 {
                for r in [CounterResp::Ack, CounterResp::Value(1)] {
                    assert!(seen.insert(codec.enc_head(&q, Some((&r, pid)))));
                }
            }
        }
    }

    #[test]
    fn op_is_not_resp() {
        let spec = CounterSpec::new(0, 1, 0);
        let codec = Codec::new(&spec, 1);
        let v = codec.enc_ann_op(&CounterOp::Inc);
        assert_eq!(codec.unpack_ann(v).0, ANN_OP);
        assert_eq!(codec.dec_ann(v), AnnValue::Op(CounterOp::Inc));
    }
}
