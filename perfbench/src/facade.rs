//! The object facade as a layer of its own: the bare `hi_api::throughput`
//! and the audit surface, timed around their public calls on objects the
//! workloads build.

use std::time::Instant;

use hi_api::{throughput, ConcurrentObject};
use hi_core::EnumerableSpec;

use crate::stats::median;
use crate::trace::Tracer;
use crate::Outcome;

/// Calls per timed measurement; each figure is their median.
const CALLS: usize = 3;

/// Times `mem_snapshot`, `abstract_state` plus `canonical`, and (when the
/// object offers one) `sampled_audit` on a quiescent object, checks that
/// its memory is canonical, and returns that memory.
pub fn audit<S, O>(
    obj: &O,
    seed: u64,
    tracer: &mut Tracer,
    run: usize,
    out: &mut Outcome,
) -> Vec<u64>
where
    S: EnumerableSpec,
    O: ConcurrentObject<S>,
{
    let (stamps, mem) = stamp_calls(CALLS, || obj.mem_snapshot());
    tracer.record_calls("audit.mem_snapshot", run, &stamps);
    out.metrics
        .insert("audit.mem_snapshot_us", median_us(&stamps));
    let (stamps, canonical) = stamp_calls(CALLS, || {
        let state = obj.abstract_state();
        obj.canonical(&state)
    });
    tracer.record_calls("audit.canonical", run, &stamps);
    out.metrics.insert("audit.canonical_us", median_us(&stamps));
    if canonical.as_ref() != Some(&mem) {
        out.failures
            .push("final memory of the first traced run is not canonical".into());
    }
    let (stamps, sampled) = stamp_calls(CALLS, || obj.sampled_audit(seed));
    if let Some(sample) = sampled {
        tracer.record_calls("audit.sampled", run, &stamps);
        out.metrics.insert("audit.sampled_us", median_us(&stamps));
        if let Some(f) = sample.failure {
            out.failures
                .push(format!("sampled audit of the final memory: {f}"));
        }
    }
    mem
}

/// Runs `hi_api::throughput` on freshly built objects with `ops` in total
/// and `seed`, and records `api.bare_ops_per_s` and `api.harness_share`
/// against the workload's end-to-end `ops_per_s`.
#[allow(clippy::too_many_arguments)]
pub fn bare<S, O>(
    make: impl Fn() -> O,
    ops: usize,
    seed: u64,
    ops_per_s: f64,
    tracer: &mut Tracer,
    run: usize,
    out: &mut Outcome,
) where
    S: EnumerableSpec,
    S::Op: Send,
    O: ConcurrentObject<S>,
{
    let mut rates = Vec::with_capacity(CALLS);
    for _ in 0..CALLS {
        let mut obj = make();
        let per_handle = ops / obj.roles().num_handles();
        let start = Instant::now();
        let done = throughput(&mut obj, per_handle, seed);
        let end = Instant::now();
        tracer.record("api.throughput", None, run, start, end);
        rates.push(done as f64 / (end - start).as_secs_f64());
    }
    let bare = median(&rates);
    out.metrics.insert("api.bare_ops_per_s", bare);
    out.metrics
        .insert("api.harness_share", 1.0 - ops_per_s / bare);
}

/// Calls `f` `reps` times, stamping each call; returns the stamps and the
/// last result.
fn stamp_calls<T>(reps: usize, mut f: impl FnMut() -> T) -> (Vec<(Instant, Instant)>, T) {
    let mut stamps = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        last = Some(std::hint::black_box(f()));
        stamps.push((start, Instant::now()));
    }
    (stamps, last.expect("reps > 0"))
}

/// The median duration of stamped calls, in microseconds.
fn median_us(stamps: &[(Instant, Instant)]) -> f64 {
    let us: Vec<f64> = stamps
        .iter()
        .map(|(a, b)| (*b - *a).as_secs_f64() * 1e6)
        .collect();
    median(&us)
}
