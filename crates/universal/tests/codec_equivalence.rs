//! The index-level codec against the value-level one it replaced.
//!
//! For each spec and process count: the transition table equals
//! `spec.apply` on every `(state, op)` pair; the index-level packers
//! produce exactly the words of the original value-level layout, which is
//! restated here independently and pinned by a digest; and every word
//! round-trips through decode.

use hi_core::objects::{BoundedQueueSpec, CounterSpec, MultiRegisterSpec, SetSpec};
use hi_core::EnumerableSpec;
use hi_universal::codec::{AnnValue, Codec, ANN_BOT, ANN_OP, ANN_RESP};

/// `bits_for` of the original layout: bits to index `count` values.
fn bits(count: usize) -> u32 {
    (usize::BITS - (count - 1).leading_zeros()).max(1)
}

/// Every word the codec defines for `spec` at `n` processes, checked
/// against the original layout, in a fixed order: per state its `⟨q, ⊥⟩`
/// word, that word with empty context, and every `⟨q, ⟨r, pid⟩⟩`; then every
/// announced op, every delivered response, and `⊥`.
fn check<S: EnumerableSpec>(spec: &S, n: usize) -> Vec<u64> {
    let c = Codec::new(spec, n);
    let (states, ops, resps) = (spec.states(), spec.ops(), spec.responses());
    let (sb, rb, pb) = (bits(states.len()), bits(resps.len()), bits(n));
    let payload_bits = bits(ops.len()).max(rb);
    let mut words = Vec::new();

    for (q, state) in (0u64..).zip(&states) {
        assert_eq!(c.state_index(state), q);
        for (o, op) in (0u64..).zip(&ops) {
            let (next, resp) = spec.apply(state, op);
            assert_eq!(
                c.transition(q, o),
                (c.state_index(&next), c.resp_index(&resp)),
                "table row ({state:?}, {op:?})"
            );
            assert_eq!(c.is_read_only(o), spec.is_read_only(op));
        }

        let idle = c.enc_head(state, None);
        assert_eq!(idle, q, "⟨q, ⊥⟩ is the bare state index");
        assert_eq!(c.pack_head(q, None), idle);
        assert_eq!(c.unpack_head(idle), (q, None));
        assert_eq!(c.dec_head(idle), (state.clone(), None));
        words.push(idle);
        words.push(c.head_layout().reset(idle));
        for pid in 0..n {
            for (r, resp) in (0u64..).zip(&resps) {
                let v = c.enc_head(state, Some((resp, pid)));
                let layout = (1 << (sb + rb + pb)) | ((pid as u64) << (sb + rb)) | (r << sb) | q;
                assert_eq!(v, layout, "⟨{state:?}, ⟨{resp:?}, {pid}⟩⟩");
                assert_eq!(c.pack_head(q, Some((r, pid))), v);
                assert_eq!(c.unpack_head(v), (q, Some((r, pid))));
                assert_eq!(c.dec_head(v), (state.clone(), Some((resp.clone(), pid))));
                words.push(v);
            }
        }
    }
    for (o, op) in (0u64..).zip(&ops) {
        let v = c.enc_ann_op(op);
        assert_eq!(v, (1 << payload_bits) | o, "announced {op:?}");
        assert_eq!(c.pack_ann(ANN_OP, o), v);
        assert_eq!(c.unpack_ann(v), (ANN_OP, o));
        assert!(matches!(c.dec_ann(v), AnnValue::Op(ref x) if x == op));
        words.push(v);
    }
    for (r, resp) in (0u64..).zip(&resps) {
        let v = c.enc_ann_resp(resp);
        assert_eq!(v, (2 << payload_bits) | r, "delivered {resp:?}");
        assert_eq!(c.pack_ann(ANN_RESP, r), v);
        assert_eq!(c.unpack_ann(v), (ANN_RESP, r));
        assert_eq!(c.resp(r), resp);
        assert!(matches!(c.dec_ann(v), AnnValue::Resp(ref x) if x == resp));
        words.push(v);
    }
    assert_eq!(c.enc_ann_bot(), 0);
    assert_eq!(c.pack_ann(ANN_BOT, 0), 0);
    assert!(matches!(c.dec_ann(0), AnnValue::Bot));
    words.push(c.enc_ann_bot());
    words
}

/// FNV-1a over the word values.
fn digest(words: &[u64]) -> (usize, u64) {
    let h = words.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &w| {
        (h ^ w).wrapping_mul(0x0100_0000_01b3)
    });
    (words.len(), h)
}

/// `(words, digest)` of [`check`]'s word list per spec, for n = 1, 2, 3,
/// recorded from the value-level codec before the transition table was
/// introduced: every word the construction writes is unchanged.
#[test]
fn words_match_the_value_level_codec() {
    let pinned: [(&str, [(usize, u64); 3]); 4] = [
        (
            "counter",
            [
                (122, 2_381_233_100_486_065_393),
                (212, 12_509_158_004_884_809_017),
                (302, 14_130_074_003_596_938_945),
            ],
        ),
        (
            "queue",
            [
                (858, 12_611_462_683_418_894_389),
                (1_463, 3_751_150_900_629_808_055),
                (2_068, 12_466_592_244_484_802_549),
            ],
        ),
        (
            "multi-register",
            [
                (39, 336_174_184_246_596_611),
                (59, 12_681_001_497_223_223_359),
                (79, 8_843_475_198_614_579_491),
            ],
        ),
        (
            "set",
            [
                (96, 15_926_728_871_865_270_636),
                (144, 3_696_293_337_621_466_444),
                (192, 7_371_624_890_333_447_836),
            ],
        ),
    ];
    for (name, per_n) in pinned {
        for (n, expected) in (1..=3).zip(per_n) {
            let words = match name {
                "counter" => check(&CounterSpec::new(-4, 4, 0), n),
                "queue" => check(&BoundedQueueSpec::new(3, 4), n),
                "multi-register" => check(&MultiRegisterSpec::new(4, 1), n),
                _ => check(&SetSpec::new(4), n),
            };
            assert_eq!(digest(&words), expected, "{name} at n = {n}");
        }
    }
}
