//! The direct sharded workload: one thread applies a Zipf-skewed script to
//! the sharded table-of-tables through `ObjectHandle::apply`, with no
//! service in between, and stamps every call.
//!
//! The table spans 2^13 keys in 8 shards that start at 2 slots each, so a
//! run makes ~120 online resizes (grows and shrinks) and the domain is past
//! the 4096-key gate above which the table offers its composed sampled
//! audit. Everything stays in the per-core cache. Soaking it through the
//! service instead put one client thread and one worker at about the same
//! cost per op, and the queue flipped between empty and full from run to
//! run (see the README).

use std::hint::black_box;
use std::time::Instant;

use hi_api::adapters::ShardedTableObject;
use hi_api::{ConcurrentObject, ObjectHandle};
use hi_core::objects::{BigHashSetSpec, HashSetOp};
use hi_core::{handle_seed, seeded_shuffle, EnumerableSpec, KeyDist, KeySampler, SplitMix64};

use crate::service::{layout_stats, Layout};
use crate::stats::{five_numbers, median_of, percentile};
use crate::trace::Tracer;
use crate::{facade, fnv, rep_seed, repeat, Args, Outcome};

/// Zipf skew of the op ranks, as in the harness's sharded soaks.
const THETA: f64 = 1.05;

fn make() -> ShardedTableObject<BigHashSetSpec> {
    ShardedTableObject::new(BigHashSetSpec::new(1 << 13), 8, 2, 1)
}

/// `len` ops drawn as the service harness draws them: a Zipf rank over the
/// op space, mapped through a seeded shuffle of it. Returns the ops and a
/// digest of the ranks.
fn script(spec: &BigHashSetSpec, len: usize, seed: u64) -> (Vec<HashSetOp>, u64) {
    let mut ops = spec.ops();
    seeded_shuffle(&mut ops, seed);
    let sampler = KeySampler::new(KeyDist::Zipfian { theta: THETA }, ops.len());
    let mut rng = SplitMix64::new(handle_seed(seed, 1));
    let ranks: Vec<usize> = (0..len).map(|_| sampler.sample(&mut rng)).collect();
    let digest = fnv(ranks.iter().map(|&r| r as u64));
    (ranks.into_iter().map(|r| ops[r]).collect(), digest)
}

/// One checked run.
struct Rep {
    setup_s: f64,
    ops_per_s: f64,
    p50: f64,
    p99: f64,
    resizes: f64,
    resize_pause_ms: f64,
}

/// Reads one figure off a run.
type Figure = fn(&Rep) -> f64;

/// Builds the table and a script of `ops`, applies it, and checks that the
/// memory is canonical afterwards. Returns the run, the table and the
/// digest of the script.
fn run_once(
    ops: usize,
    seed: u64,
    tracer: Option<(&mut Tracer, usize)>,
) -> (Result<Rep, String>, ShardedTableObject<BigHashSetSpec>, u64) {
    let t0 = Instant::now();
    let mut obj = make();
    let built = Instant::now();
    let (script, digest) = script(obj.spec(), ops, seed);
    let mut lat = Vec::with_capacity(ops);
    let mut handles = obj.handles();
    let start = Instant::now();
    for &op in &script {
        let a = Instant::now();
        black_box(handles[0].apply(op));
        lat.push(a.elapsed().as_nanos() as u64);
    }
    let done = Instant::now();
    drop(handles);
    if let Some((t, run)) = tracer {
        t.record("object.new", None, run, t0, built);
        t.record("direct.run", None, run, start, done);
    }

    let state = obj.abstract_state();
    let rep = if obj.canonical(&state) == Some(obj.mem_snapshot()) {
        let maint = obj.maintenance().unwrap_or_default();
        Ok(Rep {
            setup_s: (start - t0).as_secs_f64(),
            ops_per_s: ops as f64 / (done - start).as_secs_f64(),
            p50: percentile(&mut lat, 0.5),
            p99: percentile(&mut lat, 0.99),
            resizes: maint.resizes as f64,
            resize_pause_ms: maint.resize_pause.as_secs_f64() * 1e3,
        })
    } else {
        Err(format!(
            "memory after the run is not canonical (seed {seed:#x})"
        ))
    };
    (rep, obj, digest)
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let ops = if args.smoke { 20_000 } else { 1_000_000 };
    let mut out = Outcome::default();
    let budget = if args.trace {
        args.budget / 2
    } else {
        args.budget
    };

    let mut digest = 0;
    let plain = repeat(budget, |r| {
        let (rep, _, d) = run_once(ops, rep_seed(args.seed, r), None);
        if r == 0 {
            digest = d;
        }
        rep
    });
    out.digest = digest;
    let plain = out.settle(plain, ops);
    let ops_per_s = median_of(&plain, |r| r.ops_per_s);
    out.notes.push(format!(
        "{} runs of 1 thread x {ops} ops; exact latency samples per run: {ops}",
        plain.len()
    ));
    let figures: [(&str, Figure); 5] = [
        ("ops/s", |r| r.ops_per_s),
        ("p50 ns", |r| r.p50),
        ("p99 ns", |r| r.p99),
        ("set-up s", |r| r.setup_s),
        ("resizes", |r| r.resizes),
    ];
    for (name, f) in figures {
        let values: Vec<f64> = plain.iter().map(f).collect();
        out.notes
            .push(format!("per run {name}: {}", five_numbers(&values)));
    }
    if !args.trace {
        out.metrics.insert("ops_per_s", ops_per_s);
        out.metrics
            .insert("latency_p50_ns", median_of(&plain, |r| r.p50));
        out.metrics
            .insert("latency_p99_ns", median_of(&plain, |r| r.p99));
        out.metrics
            .insert("setup_s", median_of(&plain, |r| r.setup_s));
        return out;
    }

    let mut first = None;
    let traced = repeat(budget, |r| {
        let (rep, obj, _) = run_once(ops, rep_seed(args.seed, r), Some((&mut *tracer, r)));
        if r == 0 {
            first = Some(obj);
        }
        rep
    });
    let run = traced.len();
    // Exact for a seed: the first traced run replays the first untraced
    // run's inputs.
    let resizes = traced
        .first()
        .and_then(|r| r.as_ref().ok())
        .map_or(0.0, |r| r.resizes);
    let traced = out.settle(traced, ops);
    out.metrics.insert("shard.resizes", resizes);
    out.metrics.insert(
        "shard.resize_pause_ms",
        median_of(&traced, |r| r.resize_pause_ms),
    );
    if let Some(obj) = first {
        let mem = facade::audit(&obj, args.seed, tracer, run, &mut out);
        let (keys, probes) = layout_stats(&mem, &Layout::Sharded);
        out.metrics.insert("hashtable.mean_displacement", probes);
        out.metrics.insert(
            "shard.mem_words_per_key",
            mem.len() as f64 / keys.max(1) as f64,
        );
    }
    facade::bare(
        make,
        ops,
        rep_seed(args.seed, 0),
        ops_per_s,
        tracer,
        run,
        &mut out,
    );
    out
}
