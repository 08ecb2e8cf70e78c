//! The direct workload: the universal construction (Algorithm 5) over a
//! bounded counter, driven through `ObjectHandle::apply` with no service in
//! between. Seeded scripts (Inc, Dec and Read in 4:4:1) are applied back
//! to back and every `apply` is stamped.
//!
//! The end-to-end metrics come from one thread on a 1-handle object: the
//! construction's own cost. Two threads contending on a 2-handle object
//! (each pinned to a CPU of its own, see [`crate::affinity`]) run in the
//! traced run only: how much two vCPUs of a shared host really overlap
//! moves from minute to minute, and with it every contended figure (ten
//! runs spread .22 in `ops_per_s` and .26 in p50), wider than any bound
//! the benchmark can hold. Per-layer metrics carry no bound.

use std::hint::black_box;
use std::time::Instant;

use hi_api::{ConcurrentObject, ObjectHandle, UniversalObject};
use hi_core::objects::{CounterOp, CounterSpec};
use hi_core::{handle_seed, menus_for, random_script};

use crate::stats::{five_numbers, median_of, percentile};
use crate::trace::Tracer;
use crate::{affinity, facade, fnv, rep_seed, repeat, Args, Outcome};

/// Benchmark threads, one per handle.
const THREADS: usize = 2;

/// Copies of each update in a thread's menu against one of Read: Inc, Dec
/// and Read in 4:4:1, so that the median op lies inside the updates. With
/// ⅓ reads the contended median sat on the edge between reads (~200 ns)
/// and updates (~1 µs): over five seeds, alternating the two mixes, its
/// spread was .185 of the median with ⅓ reads and .075 with 1/9.
const UPDATE_WEIGHT: usize = 4;

/// `menu` with every update repeated [`UPDATE_WEIGHT`] times.
fn weighted(menu: &[CounterOp]) -> Vec<CounterOp> {
    menu.iter()
        .flat_map(|&op| {
            let copies = match op {
                CounterOp::Read => 1,
                CounterOp::Inc | CounterOp::Dec => UPDATE_WEIGHT,
            };
            std::iter::repeat_n(op, copies)
        })
        .collect()
}

fn spec() -> CounterSpec {
    CounterSpec::new(-300, 300, 0)
}

/// One checked run, its latencies from exact per-op samples.
struct Rep {
    setup_s: f64,
    ops_per_s: f64,
    p50: f64,
    p99: f64,
    /// Per kind, from traced runs only: (update p50, update p99, read p50).
    by_kind: Option<(f64, f64, f64)>,
    /// Threads the kernel did not pin.
    unpinned: usize,
}

/// Reads one figure off a run.
type Figure = fn(&Rep) -> f64;

/// Builds an `n`-handle object and scripts of `ops` per handle, then runs
/// one thread per handle, thread `i` pinned to `cpus[i]` when there is
/// one. Returns the run, the object and the digest of the scripts.
fn run_threads(
    n: usize,
    ops: usize,
    seed: u64,
    cpus: &[usize],
    tracer: Option<(&mut Tracer, usize)>,
) -> (Result<Rep, String>, UniversalObject<CounterSpec>, u64) {
    let t0 = Instant::now();
    let mut obj = UniversalObject::new(spec(), n);
    let built = Instant::now();
    let menus = menus_for(obj.spec(), obj.roles());
    let scripts: Vec<Vec<CounterOp>> = menus
        .iter()
        .enumerate()
        .map(|(i, menu)| random_script(&weighted(menu), ops, handle_seed(seed, i)))
        .collect();
    let digest = fnv(scripts.iter().flatten().map(|op| *op as u64));
    let mut lats: Vec<Vec<u64>> = (0..n).map(|_| Vec::with_capacity(ops)).collect();
    let handles = obj.handles();
    let start = Instant::now();
    let threads: Vec<Option<(Instant, Instant, bool)>> = std::thread::scope(|s| {
        let joins: Vec<_> = handles
            .into_iter()
            .zip(&scripts)
            .zip(&mut lats)
            .enumerate()
            .map(|(i, ((mut h, script), lat))| {
                let cpu = cpus.get(i).copied();
                s.spawn(move || {
                    let pinned = cpu.is_some_and(affinity::pin_current);
                    let begin = Instant::now();
                    for &op in script {
                        let a = Instant::now();
                        black_box(h.apply(op));
                        lat.push(a.elapsed().as_nanos() as u64);
                    }
                    (begin, Instant::now(), pinned)
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().ok()).collect()
    });
    let done = Instant::now();
    let traced = tracer.is_some();
    if let Some((t, run)) = tracer {
        t.record("object.new", None, run, t0, built);
        let call = t.record("direct.run", None, run, start, done);
        for &(a, b, _) in threads.iter().flatten() {
            t.record("direct.thread", Some(call), run, a, b);
        }
    }

    let checked = (|| {
        if threads.iter().any(Option::is_none) {
            return Err(format!("a direct thread panicked (seed {seed:#x})"));
        }
        if let Some(lat) = lats.iter().find(|l| l.len() != ops) {
            return Err(format!("{} of {ops} scripted ops applied", lat.len()));
        }
        let state = obj.abstract_state();
        if obj.canonical(&state) != Some(obj.mem_snapshot()) {
            return Err(format!(
                "memory after the run is not canonical for state {state} (seed {seed:#x})"
            ));
        }
        Ok(())
    })();
    let rep = checked.map(|()| {
        let by_kind = traced.then(|| {
            let (mut update, mut read) = (Vec::new(), Vec::new());
            for (script, lat) in scripts.iter().zip(&lats) {
                for (op, &ns) in script.iter().zip(lat) {
                    match op {
                        CounterOp::Read => read.push(ns),
                        CounterOp::Inc | CounterOp::Dec => update.push(ns),
                    }
                }
            }
            (
                percentile(&mut update, 0.5),
                percentile(&mut update, 0.99),
                percentile(&mut read, 0.5),
            )
        });
        let mut all: Vec<u64> = lats.concat();
        Rep {
            setup_s: (start - t0).as_secs_f64(),
            ops_per_s: (n * ops) as f64 / (done - start).as_secs_f64(),
            p50: percentile(&mut all, 0.5),
            p99: percentile(&mut all, 0.99),
            by_kind,
            unpinned: threads.iter().flatten().filter(|t| !t.2).count(),
        }
    });
    (rep, obj, digest)
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let ops = if args.smoke { 2_000 } else { 50_000 };
    let mut out = Outcome::default();
    let budget = if args.trace {
        args.budget / 2
    } else {
        args.budget
    };
    let cpus = affinity::allowed_cpus();

    // Untraced runs of one thread on a 1-handle object: the end-to-end
    // metrics, the construction's own cost without contention.
    let mut digest = 0;
    let plain = repeat(budget, |r| {
        let (rep, _, d) = run_threads(1, THREADS * ops, rep_seed(args.seed, r), &cpus, None);
        if r == 0 {
            digest = d;
        }
        rep
    });
    out.digest = digest;
    let plain = out.settle(plain, THREADS * ops);
    let ops_per_s = median_of(&plain, |r| r.ops_per_s);
    out.notes.push(format!(
        "{} runs of 1 thread x {} ops on a 1-handle object; exact latency samples per run: {}",
        plain.len(),
        THREADS * ops,
        THREADS * ops
    ));
    let figures: [(&str, Figure); 4] = [
        ("ops/s", |r| r.ops_per_s),
        ("p50 ns", |r| r.p50),
        ("p99 ns", |r| r.p99),
        ("set-up s", |r| r.setup_s),
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

    // Traced runs of THREADS threads, one handle each: the construction
    // under contention, reported per layer only (see the README for why).
    let mut first = None;
    let traced = repeat(budget, |r| {
        let (rep, obj, _) = run_threads(
            THREADS,
            ops,
            rep_seed(args.seed, r),
            &cpus,
            Some((&mut *tracer, r)),
        );
        if r == 0 {
            first = Some(obj);
        }
        rep
    });
    let run = traced.len();
    let traced = out.settle(traced, THREADS * ops);
    out.notes.push(format!(
        "{} contended runs of {THREADS} threads x {ops} ops, pinned one per CPU to {:?} \
         of {:?}; runs with a thread left unpinned: {}",
        traced.len(),
        &cpus[..cpus.len().min(THREADS)],
        cpus,
        traced.iter().filter(|r| r.unpinned > 0).count()
    ));
    let contended = median_of(&traced, |r| r.ops_per_s);
    let m = &mut out.metrics;
    let kind = |f: fn((f64, f64, f64)) -> f64| median_of(&traced, |r| r.by_kind.map_or(0.0, f));
    m.insert("universal.update_p50_ns", kind(|k| k.0));
    m.insert("universal.update_p99_ns", kind(|k| k.1));
    m.insert("universal.read_p50_ns", kind(|k| k.2));
    m.insert("universal.uncontended_ops_per_s", ops_per_s);
    m.insert("universal.contention_slowdown", ops_per_s / contended);

    if let Some(obj) = first {
        facade::audit(&obj, args.seed, tracer, run, &mut out);
    }

    let make = || UniversalObject::new(spec(), 1);
    let seed = rep_seed(args.seed, 0);
    facade::bare(make, THREADS * ops, seed, ops_per_s, tracer, run, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn updates_outweigh_reads_four_to_one() {
        let menu = weighted(&[CounterOp::Inc, CounterOp::Dec, CounterOp::Read]);
        let count = |k: CounterOp| menu.iter().filter(|&&op| op == k).count();
        assert_eq!(
            [
                count(CounterOp::Inc),
                count(CounterOp::Dec),
                count(CounterOp::Read)
            ],
            [UPDATE_WEIGHT, UPDATE_WEIGHT, 1]
        );
    }
}
