//! Property-based tests (proptest) over random parameters, operation
//! sequences, and schedules.

use hi_concurrent::bench::json::Json;
use hi_concurrent::llsc::{LlscLayout, RLlscOp, RLlscSpec, SimRLlsc};
use hi_concurrent::queue::PositionalQueue;
use hi_concurrent::registers::{LockFreeHiRegister, WaitFreeHiRegister};
use hi_concurrent::sim::{run_workload, Executor, Pid, Seeded, Workload};
use hi_concurrent::spec::{check_run_single_mutator, linearize, LinOptions, ObservationModel};
use hi_concurrent::universal::{Codec, SimUniversal};
use hi_core::objects::{
    BoundedQueueSpec, CounterOp, CounterResp, CounterSpec, MultiRegisterSpec, QueueOp, RegisterOp,
};
use hi_core::{History, ObjectSpec, SplitMix64};
use proptest::prelude::*;

/// A random JSON value: strings mixing quotes, backslashes, control
/// characters and non-ASCII; integral, fractional and arbitrary finite
/// numbers; arrays and objects nested up to `depth` levels.
fn arbitrary_json(rng: &mut SplitMix64, depth: u32) -> Json {
    const CHARS: [char; 10] = ['a', 'Z', '"', '\\', '\n', '\u{1}', '\u{1f}', 'é', '∀', '😀'];
    let string = |rng: &mut SplitMix64| -> String {
        (0..rng.below(6))
            .map(|_| CHARS[rng.below(CHARS.len())])
            .collect()
    };
    match rng.below(if depth == 0 { 6 } else { 8 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 1),
        2 => Json::Str(string(rng)),
        3 => Json::Num((rng.next_u64() >> 11) as f64 - (1u64 << 52) as f64),
        4 => Json::Num((rng.unit() - 0.5) * 10f64.powi(rng.below(24) as i32 - 8)),
        5 => Json::Num(
            Some(f64::from_bits(rng.next_u64()))
                .filter(|x| x.is_finite())
                .unwrap_or(0.5),
        ),
        6 => Json::Arr(
            (0..rng.below(4))
                .map(|_| arbitrary_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(4))
                .map(|_| (string(rng), arbitrary_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LLSC bit-packing round-trips for arbitrary layouts and fields.
    #[test]
    fn llsc_pack_round_trip(val_bits in 1u32..32, n in 1usize..16, val_seed: u64, ctx_seed: u64) {
        let layout = LlscLayout::new(val_bits, n);
        let val = val_seed & ((1u64 << val_bits) - 1);
        let ctx = ctx_seed & ((1u64 << n) - 1);
        let cell = layout.pack(val, ctx);
        prop_assert_eq!(layout.val(cell), val);
        prop_assert_eq!(layout.context(cell), ctx);
        for pid in 0..n {
            prop_assert_eq!(layout.has(cell, pid), ctx & (1 << pid) != 0);
        }
        prop_assert_eq!(layout.reset(val), layout.pack(val, 0));
    }

    /// The universal codec round-trips every (state, resp, pid) head value
    /// and every announce value for random counter specs.
    #[test]
    fn codec_round_trip(lo in -8i64..0, hi in 1i64..8, n in 1usize..6) {
        let spec = CounterSpec::new(lo, hi, 0);
        let codec = Codec::new(&spec, n);
        for q in lo..=hi {
            prop_assert_eq!(codec.dec_head(codec.enc_head(&q, None)), (q, None));
            for pid in 0..n {
                let r = CounterResp::Value(q);
                let v = codec.enc_head(&q, Some((&r, pid)));
                prop_assert_eq!(codec.dec_head(v), (q, Some((r, pid))));
            }
        }
    }

    /// Sequential runs of the positional queue agree with the abstract spec
    /// on every response.
    #[test]
    fn positional_queue_matches_spec_sequentially(ops in prop::collection::vec(0u8..3, 1..30)) {
        let t = 3u32;
        let spec = BoundedQueueSpec::new(t, 4);
        let imp = PositionalQueue::new(t, 4);
        let mut exec = Executor::new(imp);
        let mut model = spec.initial_state();
        for (i, kind) in ops.iter().enumerate() {
            let op = match kind {
                0 => QueueOp::Enqueue((i as u32 % t) + 1),
                1 => QueueOp::Dequeue,
                _ => QueueOp::Peek,
            };
            let pid = if spec.is_read_only(&op) { Pid(1) } else { Pid(0) };
            let got = exec.run_op_solo(pid, op, 1_000).unwrap();
            let (next, expect) = spec.apply(&model, &op);
            prop_assert_eq!(got, expect);
            model = next;
        }
    }

    /// Algorithm 2 under arbitrary seeds: linearizable + state-quiescent HI.
    #[test]
    fn lockfree_register_any_seed(seed: u64, k in 3u64..7, writes in prop::collection::vec(1u64..7, 1..10)) {
        let imp = LockFreeHiRegister::new(k, 1);
        let mut w: Workload<MultiRegisterSpec> = Workload::new(2);
        for v in &writes {
            w.push(0, RegisterOp::Write((v - 1) % k + 1));
            w.push(1, RegisterOp::Read);
        }
        check_run_single_mutator(
            &imp,
            w,
            &mut Seeded::new(seed),
            ObservationModel::StateQuiescent,
            500_000,
        ).map_err(|e| TestCaseError::fail(format!("{e}")))?;
    }

    /// Algorithm 4 under arbitrary seeds: linearizable + quiescent HI.
    #[test]
    fn waitfree_register_any_seed(seed: u64, k in 3u64..7, writes in prop::collection::vec(1u64..7, 1..10)) {
        let imp = WaitFreeHiRegister::new(k, 1);
        let mut w: Workload<MultiRegisterSpec> = Workload::new(2);
        for v in &writes {
            w.push(0, RegisterOp::Write((v - 1) % k + 1));
            w.push(1, RegisterOp::Read);
        }
        check_run_single_mutator(
            &imp,
            w,
            &mut Seeded::new(seed),
            ObservationModel::Quiescent,
            500_000,
        ).map_err(|e| TestCaseError::fail(format!("{e}")))?;
    }

    /// Sequential histories generated from the spec always linearize.
    #[test]
    fn sequential_histories_linearize(ops in prop::collection::vec(0u8..3, 0..40)) {
        let spec = CounterSpec::new(-20, 20, 0);
        let mut h: History<CounterOp, CounterResp> = History::new();
        let mut q = spec.initial_state();
        for kind in ops {
            let op = match kind {
                0 => CounterOp::Inc,
                1 => CounterOp::Dec,
                _ => CounterOp::Read,
            };
            let id = h.invoke(hi_core::Pid(0), op);
            let (q2, r) = spec.apply(&q, &op);
            h.ret(id, r);
            q = q2;
        }
        let lin = linearize(&spec, &h, &LinOptions::default())
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(lin.final_state, q);
    }

    /// The R-LLSC simulator linearizes for arbitrary interleavings of a
    /// fixed op mix.
    #[test]
    fn rllsc_any_seed(seed: u64) {
        let n = 3;
        let imp = SimRLlsc::new(4, 0, n);
        let mut w: Workload<RLlscSpec> = Workload::new(n);
        for pid in 0..n {
            w.push(pid, RLlscOp::Ll { pid });
            w.push(pid, RLlscOp::Sc { pid, new: pid as u64 + 1 });
            w.push(pid, RLlscOp::Rl { pid });
            w.push(pid, RLlscOp::Load);
        }
        let mut exec = Executor::new(imp);
        run_workload(&mut exec, w, &mut Seeded::new(seed), &mut (), 100_000)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        linearize(exec.spec(), exec.history(), &LinOptions::default())
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
    }

    /// The one JSON layer round-trips: parsing a rendered value gives the
    /// value back.
    #[test]
    fn json_parse_inverts_render(seed: u64) {
        let value = arbitrary_json(&mut SplitMix64::new(seed), 3);
        let text = value.to_string();
        prop_assert_eq!(Json::parse(&text), Ok(value));
    }

    /// The universal construction over a counter linearizes and ends
    /// canonical for arbitrary seeds.
    #[test]
    fn universal_any_seed(seed: u64, n in 2usize..4) {
        let imp = SimUniversal::new(CounterSpec::new(-6, 6, 0), n);
        let mut w: Workload<CounterSpec> = Workload::new(n);
        for pid in 0..n {
            w.push(pid, CounterOp::Inc);
            w.push(pid, if pid % 2 == 0 { CounterOp::Dec } else { CounterOp::Inc });
            w.push(pid, CounterOp::Read);
        }
        let mut exec = Executor::new(imp.clone());
        run_workload(&mut exec, w, &mut Seeded::new(seed), &mut (), 500_000)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let lin = linearize(exec.spec(), exec.history(), &LinOptions::default())
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(exec.snapshot(), imp.canonical(&lin.final_state));
    }
}
