//! Non-interference of the harness's own machinery: turning per-op
//! tracing off, or batching ingress hand-offs, must not change *what* the
//! service harness does — the same seed drives the same operations to the
//! same results — only what it measures and how ops travel. The proof is
//! a transcript-recording fake object soaked twice (spans on / off, or
//! one-op / batched hand-offs) under a single worker and a single client
//! thread, so the application order itself is deterministic and the two
//! transcripts can be compared byte for byte.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use hi_concurrent::api::{ConcurrentObject, HiLevel, ObjectHandle, Progress, Roles};
use hi_concurrent::core::objects::{CounterOp, CounterResp, CounterSpec};
use hi_concurrent::core::ObjectSpec;
use hi_concurrent::service::{run_soak, SoakConfig};

fn encode(state: i64) -> Vec<u64> {
    vec![(state + 1_000) as u64]
}

/// A counter that records every `(op, resp)` it applies, in application
/// order, sleeping `pause` per op when it is non-zero (a slow backend that
/// lets its ingress queue fill). `Mutex`-based so the static guard's
/// atomic-ordering allowlist stays untouched.
struct TranscriptCounter {
    spec: CounterSpec,
    state: Mutex<i64>,
    transcript: Arc<Mutex<Vec<(CounterOp, CounterResp)>>>,
    pause: Duration,
}

impl TranscriptCounter {
    fn new(transcript: Arc<Mutex<Vec<(CounterOp, CounterResp)>>>, pause: Duration) -> Self {
        TranscriptCounter {
            spec: CounterSpec::new(-500, 500, 0),
            state: Mutex::new(0),
            transcript,
            pause,
        }
    }
}

struct TranscriptHandle<'a> {
    obj: &'a TranscriptCounter,
}

impl ObjectHandle<CounterSpec> for TranscriptHandle<'_> {
    fn apply(&mut self, op: CounterOp) -> CounterResp {
        if !self.obj.pause.is_zero() {
            std::thread::sleep(self.obj.pause);
        }
        let mut s = self.obj.state.lock().unwrap();
        let (next, resp) = self.obj.spec.apply(&s, &op);
        *s = next;
        self.obj.transcript.lock().unwrap().push((op, resp));
        resp
    }

    fn supports(&self, _op: &CounterOp) -> bool {
        true
    }
}

impl ConcurrentObject<CounterSpec> for TranscriptCounter {
    type Handle<'a> = TranscriptHandle<'a>;

    fn spec(&self) -> &CounterSpec {
        &self.spec
    }

    fn roles(&self) -> Roles {
        // One worker: with one client thread feeding it, the mpsc channel
        // makes the application order a pure function of the seed.
        Roles::MultiProcess { n: 1 }
    }

    fn hi_level(&self) -> HiLevel {
        HiLevel::StateQuiescent
    }

    fn progress(&self) -> Progress {
        Progress::WaitFree
    }

    fn handles(&mut self) -> Vec<TranscriptHandle<'_>> {
        vec![TranscriptHandle { obj: self }]
    }

    fn mem_snapshot(&self) -> Vec<u64> {
        encode(*self.state.lock().unwrap())
    }

    fn canonical(&self, state: &i64) -> Option<Vec<u64>> {
        Some(encode(*state))
    }

    fn abstract_state(&self) -> i64 {
        *self.state.lock().unwrap()
    }
}

/// The transcript soak: 4 clients on one client thread, 2 000 ops.
fn base_cfg() -> SoakConfig {
    SoakConfig {
        clients: 4,
        client_threads: 1,
        total_ops: 2_000,
        mid_audits: 2,
        seed: 0x7ace,
        ..SoakConfig::default()
    }
}

fn soak_transcript(
    cfg: &SoakConfig,
    pause: Duration,
) -> (
    Vec<(CounterOp, CounterResp)>,
    hi_concurrent::service::SoakReport,
) {
    let transcript = Arc::new(Mutex::new(Vec::new()));
    let mut obj = TranscriptCounter::new(Arc::clone(&transcript), pause);
    let report = run_soak(&mut obj, cfg).expect("soak");
    let transcript = transcript.lock().unwrap().clone();
    (transcript, report)
}

fn soak_with_tracing(
    trace: bool,
) -> (
    Vec<(CounterOp, CounterResp)>,
    hi_concurrent::service::SoakReport,
) {
    soak_transcript(
        &SoakConfig {
            trace,
            ..base_cfg()
        },
        Duration::ZERO,
    )
}

#[test]
fn disabling_spans_does_not_change_what_the_service_does() {
    let (traced_ops, traced) = soak_with_tracing(true);
    let (untraced_ops, untraced) = soak_with_tracing(false);

    // Identical behavior: the same operations applied in the same order
    // with the same responses, byte for byte.
    assert_eq!(traced_ops.len(), 2_000);
    assert_eq!(
        format!("{traced_ops:?}"),
        format!("{untraced_ops:?}"),
        "tracing changed the operation stream"
    );

    // Identical accounting: both runs applied everything and recorded one
    // end-to-end latency sample per op.
    for report in [&traced, &untraced] {
        assert_eq!(report.ops_applied, 2_000);
        assert_eq!(report.ops_rejected, 0);
        assert_eq!(report.latency.count(), 2_000);
    }

    // Only the span histograms differ: populated when tracing, empty (not
    // approximated, not partially filled) when not.
    assert_eq!(traced.queue_wait.count(), 2_000);
    assert_eq!(traced.service.count(), 2_000);
    assert_eq!(untraced.queue_wait.count(), 0);
    assert_eq!(untraced.service.count(), 0);
}

#[test]
fn traced_spans_decompose_the_end_to_end_latency() {
    let (_, report) = soak_with_tracing(true);
    // Each span histogram holds exactly one sample per applied op, and the
    // spans are genuine sub-intervals: no queue wait or service time can
    // exceed the longest end-to-end latency.
    let (wait, serve, total) = (
        report.queue_wait.summary(),
        report.service.summary(),
        report.latency.summary(),
    );
    assert_eq!(wait.count, total.count);
    assert_eq!(serve.count, total.count);
    assert!(
        wait.max <= total.max && serve.max <= total.max,
        "a sub-span outlived the end-to-end op: wait {} serve {} total {}",
        wait.max,
        serve.max,
        total.max
    );
}

#[test]
fn batching_hand_offs_does_not_change_what_the_service_does() {
    // Depth 4 hands off one op at a time; depth 1024 batches up to 32 ops
    // per hand-off. A 1 µs pause per op keeps the worker busy, so the deep
    // queue really does batch.
    let pause = Duration::from_micros(1);
    let soak = |queue_depth| {
        soak_transcript(
            &SoakConfig {
                queue_depth,
                ..base_cfg()
            },
            pause,
        )
    };
    let (one_op_ops, one_op) = soak(4);
    let (batched_ops, batched) = soak(1024);

    assert_eq!(one_op_ops.len(), 2_000);
    assert_eq!(
        format!("{one_op_ops:?}"),
        format!("{batched_ops:?}"),
        "batching changed the operation stream"
    );
    assert_eq!(one_op.workers[0].handoffs, 2_000, "depth 4 batched");
    assert!(
        batched.workers[0].handoffs < 2_000,
        "depth 1024 never batched: {} hand-offs",
        batched.workers[0].handoffs
    );

    // Every op keeps its own stamps inside a batch: one sample per op in
    // each histogram, and no sub-span outlives the longest latency.
    for report in [&one_op, &batched] {
        assert_eq!(report.ops_applied, 2_000);
        let (wait, serve, total) = (
            report.queue_wait.summary(),
            report.service.summary(),
            report.latency.summary(),
        );
        assert_eq!(total.count, 2_000);
        assert_eq!(wait.count, total.count);
        assert_eq!(serve.count, total.count);
        assert!(
            wait.max <= total.max && serve.max <= total.max,
            "a sub-span outlived the end-to-end op: wait {} serve {} total {}",
            wait.max,
            serve.max,
            total.max
        );
    }
}

#[test]
fn a_busy_worker_receives_batches_of_at_most_b_ops() {
    // Depth 256 gives B = 32 and 8 channel slots. A worker that sleeps per
    // op lets the client thread fill the queue, so ops travel in batches.
    // The worker asserts on every hand-off (release builds too) that it
    // carries at most B ops, so one oversized hand-off fails the soak.
    let cfg = SoakConfig {
        queue_depth: 256,
        mid_audits: 0,
        ..base_cfg()
    };
    let (_, report) = soak_transcript(&cfg, Duration::from_micros(20));
    let worker = &report.workers[0];
    assert_eq!(worker.applied, 2_000);
    assert!(report.sends_blocked > 0, "the queue never filled");
    assert!(
        worker.handoffs < worker.applied,
        "a full queue still got one-op hand-offs: {} for {} ops",
        worker.handoffs,
        worker.applied
    );
    assert!(
        worker.applied <= worker.handoffs * 32,
        "{} ops in {} hand-offs of at most 32",
        worker.applied,
        worker.handoffs
    );
}
