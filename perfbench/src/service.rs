//! The service workload: `run_soak` over a hash table, one worker fed by
//! eight logical clients on one client thread, so a soak runs exactly two
//! busy threads.

use std::time::{Duration, Instant};

use hi_api::ConcurrentObject;
use hi_core::{Arrival, EnumerableSpec, KeyDist};
use hi_hashtable::displacement;
use hi_service::{run_soak, run_soak_with, Backpressure, SoakConfig, SoakReport};

use crate::stats::{five_numbers, hist_quantile, median_of};
use crate::trace::Tracer;
use crate::{facade, fnv, rep_seed, repeat, Args, Outcome};

/// Mid-soak drain barriers; every soak audits `MID_AUDITS + 1` times.
const MID_AUDITS: usize = 3;

/// How the object's `mem_snapshot` is laid out.
pub enum Layout {
    /// One Robin Hood slot array.
    Flat,
    /// Per shard: the capacity word, then that many slots.
    Sharded,
}

/// Capacity of the worker's ingress queue. Client and worker cost about
/// the same per op, so the queue either drains or fills: at the harness
/// default of 1024 some hash-table soaks ran with an empty queue and a
/// p50 of ~5 us, others full at ~350 us, and a run's median p50 moved
/// with their mix. At 256 it stays full in every soak.
const QUEUE_DEPTH: usize = 256;

/// The soak's size and key skew.
pub struct Shape {
    pub total_ops: usize,
    pub theta: f64,
}

fn config(shape: &Shape, seed: u64, trace: bool) -> SoakConfig {
    SoakConfig {
        clients: 8,
        client_threads: 1,
        total_ops: shape.total_ops,
        queue_depth: QUEUE_DEPTH,
        backpressure: Backpressure::Block,
        key_dist: KeyDist::Zipfian { theta: shape.theta },
        arrival: Arrival::Steady,
        mid_audits: MID_AUDITS,
        seed,
        // Read only by the watchdogged runner, which the benchmark does
        // not use.
        deadline: Duration::from_secs(120),
        trace,
        online_probes: 0,
    }
}

/// One checked soak, reduced to the figures the benchmark reports. The
/// span figures are 0 for an untraced soak.
struct Rep {
    /// Object construction plus the harness's set-up before its first op.
    setup_s: f64,
    /// The harness's part of that: `run_soak` wall time minus
    /// `SoakReport::elapsed` (dispatch table and planned-per-worker dry run).
    harness_setup_s: f64,
    ops_per_s: f64,
    p50: f64,
    p99: f64,
    queue_wait_p50: f64,
    queue_wait_p99: f64,
    apply_p50: f64,
    apply_p99: f64,
    /// Load wall time per op minus the mean apply time.
    harness_ns_per_op: f64,
    sends_blocked_frac: f64,
    max_queue_depth: f64,
    barrier_pause_ms: f64,
}

impl Rep {
    fn new(r: &SoakReport, setup_s: f64, harness_setup_s: f64) -> Rep {
        let load_ns = r.metrics.load_total().as_nanos() as f64;
        Rep {
            setup_s,
            harness_setup_s,
            ops_per_s: r.ops_per_sec(),
            p50: hist_quantile(&r.latency, 0.5),
            p99: hist_quantile(&r.latency, 0.99),
            queue_wait_p50: hist_quantile(&r.queue_wait, 0.5),
            queue_wait_p99: hist_quantile(&r.queue_wait, 0.99),
            apply_p50: hist_quantile(&r.service, 0.5),
            apply_p99: hist_quantile(&r.service, 0.99),
            harness_ns_per_op: load_ns / r.ops_applied as f64 - r.service.mean(),
            sends_blocked_frac: r.sends_blocked as f64 / r.ops_submitted as f64,
            max_queue_depth: r
                .workers
                .iter()
                .map(|w| w.max_queue_depth)
                .max()
                .unwrap_or(0) as f64,
            barrier_pause_ms: r.metrics.audit_pause_total().as_secs_f64() * 1e3,
        }
    }
}

/// Reads one figure off a soak.
type Figure = fn(&Rep) -> f64;

/// The output checks every soak must pass.
fn check(report: &SoakReport, cfg: &SoakConfig) -> Result<(), String> {
    if report.ops_rejected != 0 {
        return Err(format!("{} ops rejected", report.ops_rejected));
    }
    if report.ops_applied != report.ops_submitted {
        return Err(format!(
            "ops_applied {} != ops_submitted {}",
            report.ops_applied, report.ops_submitted
        ));
    }
    if report.ops_applied != cfg.total_ops {
        return Err(format!(
            "ops_applied {} != ops scripted {}",
            report.ops_applied, cfg.total_ops
        ));
    }
    if report.audits.len() != cfg.mid_audits + 1 {
        return Err(format!(
            "{} audits, expected {}",
            report.audits.len(),
            cfg.mid_audits + 1
        ));
    }
    Ok(())
}

/// Builds the object and soaks it. With a tracer, runs `run_soak_with`
/// and records the call, its set-up and one span per epoch, each epoch
/// ending at its drain-barrier callback.
fn soak<S, O>(
    make: &impl Fn() -> O,
    cfg: &SoakConfig,
    tracer: Option<(&mut Tracer, usize)>,
) -> (Result<Rep, String>, O)
where
    S: EnumerableSpec,
    S::Op: Send + Sync,
    O: ConcurrentObject<S>,
{
    let t0 = Instant::now();
    let mut obj = make();
    let built = Instant::now();
    let mut barriers = Vec::with_capacity(cfg.mid_audits + 1);
    let result = if tracer.is_some() {
        run_soak_with(&mut obj, cfg, |_| barriers.push(Instant::now()))
    } else {
        run_soak(&mut obj, cfg)
    };
    let done = Instant::now();
    let report = result
        .map_err(|e| format!("soak (seed {:#x}) failed: {e}", cfg.seed))
        .and_then(|r| {
            check(&r, cfg).map_err(|e| format!("soak (seed {:#x}): {e}", cfg.seed))?;
            Ok(r)
        });
    let elapsed = report.as_ref().map_or(Duration::ZERO, |r| r.elapsed);
    let harness = (done - built).saturating_sub(elapsed);
    if let Some((t, run)) = tracer {
        t.record("object.new", None, run, t0, built);
        let call = t.record("service.run_soak_with", None, run, built, done);
        let mut start = built + harness;
        t.record("service.setup", Some(call), run, built, start);
        for &barrier in &barriers {
            t.record("service.epoch", Some(call), run, start, barrier);
            start = barrier;
        }
    }
    let setup = (built - t0 + harness).as_secs_f64();
    let rep = report.map(|r| Rep::new(&r, setup, harness.as_secs_f64()));
    (rep, obj)
}

/// Live keys and mean slots a successful lookup examines (displacement
/// plus one), over every table in `mem`.
pub fn layout_stats(mem: &[u64], layout: &Layout) -> (usize, f64) {
    let mut tables: Vec<&[u64]> = Vec::new();
    match layout {
        Layout::Flat => tables.push(mem),
        Layout::Sharded => {
            let mut rest = mem;
            while let Some((&cap, tail)) = rest.split_first() {
                let (cells, next) = tail.split_at(cap as usize);
                tables.push(cells);
                rest = next;
            }
        }
    }
    let (mut keys, mut probes) = (0usize, 0usize);
    for cells in tables {
        for (slot, &k) in cells.iter().enumerate() {
            if k != 0 {
                keys += 1;
                probes += displacement(k as u32, slot, cells.len()) + 1;
            }
        }
    }
    (keys, probes as f64 / keys.max(1) as f64)
}

pub fn run<S, O>(args: &Args, tracer: &mut Tracer, shape: &Shape, make: impl Fn() -> O) -> Outcome
where
    S: EnumerableSpec,
    S::Op: Send + Sync,
    O: ConcurrentObject<S>,
{
    let mut out = Outcome::default();
    let budget = if args.trace {
        args.budget / 2
    } else {
        args.budget
    };

    // Untraced soaks: the end-to-end metrics.
    let mut digest = 0;
    let plain: Vec<Result<Rep, String>> = repeat(budget, |r| {
        let (rep, obj) = soak(&make, &config(shape, rep_seed(args.seed, r), false), None);
        if r == 0 {
            // One worker fed by one client thread applies the ops in a
            // fixed order, so the final memory is a function of the seed.
            digest = fnv(obj.mem_snapshot());
        }
        rep
    });
    out.digest = digest;
    let plain = out.settle(plain, shape.total_ops);
    let ops_per_s = median_of(&plain, |r| r.ops_per_s);
    out.notes.push(format!(
        "{} soaks of {} ops each (8 clients on 1 client thread, 1 worker, depth \
         {QUEUE_DEPTH}, {MID_AUDITS} mid audits), one latency sample per op",
        plain.len(),
        shape.total_ops
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
            .push(format!("per soak {name}: {}", five_numbers(&values)));
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

    // Traced soaks: the service layer's own spans, split per op into queue
    // wait and apply time.
    let mut first = None;
    let traced: Vec<Result<Rep, String>> = repeat(budget, |r| {
        let cfg = config(shape, rep_seed(args.seed, r), true);
        let (rep, obj) = soak(&make, &cfg, Some((&mut *tracer, r)));
        if r == 0 {
            first = Some(obj);
        }
        rep
    });
    let run = traced.len();
    let traced = out.settle(traced, shape.total_ops);
    let per_soak: [(&str, Figure); 9] = [
        ("service.queue_wait_p50_ns", |r| r.queue_wait_p50),
        ("service.queue_wait_p99_ns", |r| r.queue_wait_p99),
        ("service.apply_p50_ns", |r| r.apply_p50),
        ("service.apply_p99_ns", |r| r.apply_p99),
        ("service.harness_ns_per_op", |r| r.harness_ns_per_op),
        ("service.sends_blocked_frac", |r| r.sends_blocked_frac),
        ("service.max_queue_depth", |r| r.max_queue_depth),
        ("service.barrier_pause_ms", |r| r.barrier_pause_ms),
        ("service.setup_s", |r| r.harness_setup_s),
    ];
    for (name, f) in per_soak {
        out.metrics.insert(name, median_of(&traced, f));
    }
    out.metrics.insert(
        "service.trace_overhead_frac",
        1.0 - median_of(&traced, |r| r.ops_per_s) / ops_per_s,
    );

    // The audit surface, timed on the first traced soak's quiescent
    // object, whose contents the seed fixes.
    if let Some(obj) = first {
        let mem = facade::audit(&obj, args.seed, tracer, run, &mut out);
        let (_, probes) = layout_stats(&mem, &Layout::Flat);
        out.metrics.insert("hashtable.mean_displacement", probes);
    }
    // The bare object, with the first soak's seed and op count.
    let seed = rep_seed(args.seed, 0);
    facade::bare(
        make,
        shape.total_ops,
        seed,
        ops_per_s,
        tracer,
        run,
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_layout_walks_capacity_words() {
        // Two shards of capacity 2 and 4; keys 0 are empty slots.
        let mem = [2, 5, 0, 4, 0, 7, 9, 0];
        let (keys, probes) = layout_stats(&mem, &Layout::Sharded);
        assert_eq!(keys, 3);
        assert!(probes >= 1.0);
        let (flat_keys, _) = layout_stats(&mem[1..3], &Layout::Flat);
        assert_eq!(flat_keys, 1);
    }
}
