//! The service runner: N logical clients multiplexed over M worker
//! threads driving one [`ConcurrentObject`], with bounded ingress queues,
//! hash-sharded dispatch, per-operation latency recording, and periodic
//! drain barriers at which the object is *state-quiescent by construction*
//! so the history-independence audit can run mid-soak.
//!
//! # Architecture
//!
//! ```text
//!   client threads                  ingress (bounded mpsc)          workers (M = one per handle)
//!   ┌──────────────────────┐  1..B ┌───────────────────────────┐ recv ┌───────────────────────┐
//!   │ clients: rng+KeyDist │  ops  │ sync_channel(depth / B)   │      │ per op of a hand-off: │
//!   │  + ArrivalGen        │──────▶│ of hand-offs, ≤ depth ops │─────▶│ stamp, handle.apply,  │
//!   │ one pending batch    │ shard └───────────────────────────┘      │ latency histo         │
//!   │  per worker          │                  ...                     └───────────────────────┘
//!   └──────────────────────┘
//!        (each client thread round-robins its logical clients; an op for
//!         a given rank always lands on the same worker — the one whose
//!         role menu owns it, hash-picked among the eligible)
//!
//!   every epoch: clients exhaust their budget → senders drop → workers
//!   drain and exit → the thread scope ends → *all handles are dropped* →
//!   drain barrier: mem_snapshot() vs canonical(abstract_state()), then
//!   handles are re-split and the next epoch begins.
//! ```
//!
//! A client thread collects each worker's ops in a pending batch and
//! hands the batch off whole: one channel hop, one queue-depth gauge
//! update and one progress bump per hand-off, not per op. The batch size
//! is `B = clamp(queue_depth / 8, 1, 32)` and the channel has
//! `queue_depth / B` slots, so a queue never holds more than
//! `queue_depth` ops and any depth below 16 hands off one op at a time.
//! A pending batch goes out when it reaches `B`, when its worker's queue
//! is empty at a push (so an op for an idle worker is not held back), or
//! when the thread is about to wait: an arrival gap, the end of its
//! budget, or a blocking send — before which it first tries, without
//! blocking, to hand off every other worker's pending batch. Each op carries the `Instant`
//! taken when its client drew it, and the worker stamps `dequeued` per op
//! right before `apply`, so time spent in a pending batch counts as queue
//! wait and `queue_wait + service` is still each op's latency.
//!
//! The drain barrier leans on the facade's contract: handles borrow the
//! object, and [`ConcurrentObject::handles`] takes `&mut self`, so the
//! audit — which needs `&mut`-level quiet access — *cannot compile* while
//! any operation is in flight. "Audit observed a non-quiescent point" is a
//! type error here, not a runtime race.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hi_api::{
    ConcurrentObject, MetricsSnapshot, ObjectHandle, ProbeVerdict, ProgressCounters, SampledAudit,
};
use hi_bench::hist::Histogram;

use crate::metrics::{EpochMetrics, OnlineAudit, ServiceMetrics};
use hi_core::workload::{
    handle_seed, seeded_shuffle, Arrival, ArrivalGen, KeyDist, KeySampler, SplitMix64,
};
use hi_core::{menus_for, EnumerableSpec};

/// Decorrelates the drain barrier's sampled-audit shard selection from the
/// workload seed's other derivations.
const SAMPLED_AUDIT_SALT: u64 = 0x5a3d_a0d1_7b65_93c5;

/// The one memory ordering of this crate: the gauges and flags here are
/// monitoring data (queue depths, abort latches), never a publication
/// channel for object state — the objects under test do their own
/// synchronization.
const GAUGE_ORD: Ordering = Ordering::Relaxed;

/// What a client does when the ingress queue of the owning worker is full.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backpressure {
    /// Wait for space: closed-loop load, every submitted operation is
    /// eventually applied, the queue wait shows up as latency.
    Block,
    /// Drop the hand-off and record its ops as rejected: open-loop load
    /// shedding, the reject count shows up in the report. A hand-off is
    /// one op whenever the queue depth is below 16.
    Reject,
}

/// Configuration of one soak run.
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    /// Logical clients (each with its own deterministic op stream).
    pub clients: usize,
    /// OS threads multiplexing the clients (clamped to `clients`).
    pub client_threads: usize,
    /// Total operations submitted across the whole soak (split evenly
    /// over epochs, then over clients).
    pub total_ops: usize,
    /// Ingress queue bound per worker, in operations. It also fixes the
    /// hand-off batch size `B = clamp(queue_depth / 8, 1, 32)`.
    pub queue_depth: usize,
    /// Full-queue policy.
    pub backpressure: Backpressure,
    /// Popularity curve of the operation space.
    pub key_dist: KeyDist,
    /// Arrival process of each client.
    pub arrival: Arrival,
    /// Mid-soak drain barriers; the run has `mid_audits + 1` epochs and
    /// audits at the end of every one (so `mid_audits + 1` audit points,
    /// the last at full completion).
    pub mid_audits: usize,
    /// Workload seed: fixes every client's op stream and the rank→worker
    /// sharding.
    pub seed: u64,
    /// Wall-clock budget of a [`soak_watchdogged`] run.
    pub deadline: Duration,
    /// Per-op span tracing: when `true` every envelope is stamped at
    /// ingress, dequeue and completion, and the report splits end-to-end
    /// latency into queue wait + service time (per scenario and per
    /// worker). When `false` the workers run the untraced PR-8 path — one
    /// end-to-end sample per op, no extra clock reads — and the span
    /// histograms stay empty.
    pub trace: bool,
    /// Upper bound on online (non-barrier) HI probe samples per epoch, for
    /// backends that hand out an [`hi_api::OnlineProbe`]
    /// ([`hi_api::HiLevel::Perfect`] only). `0` disables probing.
    pub online_probes: usize,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            clients: 32,
            client_threads: 4,
            total_ops: 40_000,
            queue_depth: 1024,
            backpressure: Backpressure::Block,
            key_dist: KeyDist::Uniform,
            arrival: Arrival::Steady,
            mid_audits: 3,
            seed: 0x5eed,
            deadline: Duration::from_secs(120),
            trace: true,
            online_probes: 32,
        }
    }
}

impl SoakConfig {
    fn validate(&self) {
        assert!(self.clients > 0, "a soak needs at least one client");
        assert!(self.queue_depth > 0, "a bounded queue needs capacity");
    }

    /// Operations of epoch `e` out of `epochs`.
    fn epoch_ops(&self, e: usize, epochs: usize) -> usize {
        self.total_ops / epochs + usize::from(e < self.total_ops % epochs)
    }

    /// Operations of client `c` within an epoch of `epoch_ops` total.
    fn client_ops(&self, epoch_ops: usize, c: usize) -> usize {
        epoch_ops / self.clients + usize::from(c < epoch_ops % self.clients)
    }

    /// The RNG of client `c` in epoch `e` — also what the watchdog's
    /// dry-run uses to precompute per-worker planned totals, so the two
    /// must never drift.
    fn client_rng(&self, e: usize, c: usize) -> SplitMix64 {
        // Epoch-salted so re-split epochs draw fresh streams.
        let epoch_seed = self.seed.wrapping_add((e as u64).wrapping_mul(0x9e37_79b9));
        SplitMix64::new(handle_seed(epoch_seed, c))
    }
}

/// One audit point of a soak: the drain barrier at the end of an epoch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AuditRecord {
    /// The epoch this barrier closed (0-based).
    pub epoch: usize,
    /// Cumulative operations applied when the barrier was reached.
    pub applied: usize,
    /// Whether the mem==canonical comparison ran (`false` only for
    /// objects whose [`hi_api::HiLevel`] fixes no canonical form).
    pub audited: bool,
}

/// What an audit observer sees at a drain barrier, while the object is
/// state-quiescent and before the next epoch begins.
#[derive(Debug)]
pub struct AuditPoint<'a> {
    /// The epoch this barrier closed (0-based).
    pub epoch: usize,
    /// Cumulative operations applied so far.
    pub applied: usize,
    /// Whether the mem==canonical comparison ran.
    pub audited: bool,
    /// The quiescent `mem(C)`.
    pub mem: &'a [u64],
}

/// Per-worker counters and span histograms of one soak.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WorkerStats {
    /// The worker index (= handle index, role order).
    pub worker: usize,
    /// Operations this worker applied.
    pub applied: usize,
    /// Ingress hand-offs it dequeued: equal to `applied` when the queue
    /// depth is below 16 (one-op hand-offs), fewer when client threads
    /// batched ops while it was busy.
    pub handoffs: usize,
    /// The deepest its ingress queue ever got, in operations, sampled at
    /// dequeue. It counts every op handed off and not yet dequeued, a
    /// hand-off still waiting on a full queue included, so it can exceed
    /// the configured depth by what the client threads hold in flight.
    pub max_queue_depth: usize,
    /// End-to-end latency of this worker's operations, nanoseconds.
    pub latency: Histogram,
    /// Ingress-to-dequeue wait of this worker's operations (empty when
    /// tracing is off).
    pub queue_wait: Histogram,
    /// Dequeue-to-completion service time of this worker's operations
    /// (empty when tracing is off).
    pub service: Histogram,
}

/// Result of a successful soak.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Operations accepted into an ingress queue.
    pub ops_submitted: usize,
    /// Operations applied by workers (== submitted unless a run is cut
    /// short).
    pub ops_applied: usize,
    /// Operations dropped by [`Backpressure::Reject`]. A rejection drops a
    /// whole hand-off, which is one op whenever the queue depth is below
    /// 16.
    pub ops_rejected: usize,
    /// Operations in hand-offs that found a full queue under
    /// [`Backpressure::Block`] (they still went through after the wait).
    pub sends_blocked: usize,
    /// Every drain barrier, in order; the last entry is the final audit.
    pub audits: Vec<AuditRecord>,
    /// Wall-clock time of the whole soak (epochs + barriers).
    pub elapsed: Duration,
    /// Submission-to-response latency of every applied op, nanoseconds.
    pub latency: Histogram,
    /// Ingress-to-dequeue wait of every applied op (empty when
    /// [`SoakConfig::trace`] is off): how long ops sat in the bounded
    /// queues before a worker picked them up.
    pub queue_wait: Histogram,
    /// Dequeue-to-completion service time of every applied op (empty when
    /// tracing is off): what the object itself cost, queue wait excluded.
    pub service: Histogram,
    /// Per-worker throughput, queue-depth gauges and span histograms.
    pub workers: Vec<WorkerStats>,
    /// One entry per drain barrier at which the backend offered a
    /// **sampled** big-domain audit instead of the full-image comparison
    /// (see [`hi_api::ConcurrentObject::sampled_audit`]); empty for
    /// backends whose full canonical image is compared outright.
    pub sampled_audits: Vec<SampledAudit>,
    /// Wall-clock attribution (load vs audit pause, per epoch), final
    /// progress counters and the online-audit ledger.
    pub metrics: ServiceMetrics,
}

impl SoakReport {
    /// Gross applied throughput in operations per second: the whole
    /// wall-clock, drain-barrier audit pauses included.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops_applied as f64 / self.elapsed.max(Duration::from_nanos(1)).as_secs_f64()
    }

    /// Audit-excluded throughput: operations per second of *load* time
    /// only, so the cost of the drain-barrier audits is visible as the gap
    /// to [`ops_per_sec`](SoakReport::ops_per_sec) instead of smeared into
    /// it.
    pub fn ops_per_sec_load(&self) -> f64 {
        let load = self
            .elapsed
            .saturating_sub(self.metrics.audit_pause_total())
            .max(Duration::from_nanos(1));
        self.ops_applied as f64 / load.as_secs_f64()
    }
}

/// Why a soak failed.
#[derive(Clone, Debug)]
pub enum SoakError {
    /// A drain barrier found non-canonical memory: the HI guarantee broke
    /// under service load.
    NotCanonical {
        /// The epoch whose barrier failed.
        epoch: usize,
        /// The decoded abstract state, rendered.
        state: String,
        /// The observed quiescent memory.
        mem: Vec<u64>,
        /// The expected canonical representation.
        canonical: Vec<u64>,
    },
    /// A drain barrier's **sampled** big-domain audit found a violation:
    /// an exhaustively-checked shard off its canonical image, or a
    /// spot-checked structural invariant (capacity word, routing,
    /// displacement) broken.
    SampledNotCanonical {
        /// The epoch whose barrier failed.
        epoch: usize,
        /// The first violation, rendered by the backend.
        detail: String,
    },
    /// An online (non-barrier) probe observed non-canonical memory on a
    /// [`hi_api::HiLevel::Perfect`] backend: the perfect-HI guarantee —
    /// canonical memory in *every* configuration — broke mid-flight.
    ProbeNotCanonical {
        /// The epoch whose load phase the probe sampled.
        epoch: usize,
        /// The decoded abstract state, rendered.
        state: String,
        /// The observed mid-flight memory.
        mem: Vec<u64>,
    },
    /// A worker or client thread panicked.
    Panicked {
        /// The worker index, when a worker; `None` for a client thread or
        /// the driver itself.
        worker: Option<usize>,
        /// The rendered panic payload.
        message: String,
    },
    /// The watchdog fired: the soak did not finish within the deadline.
    /// The wedged driver thread is abandoned; this is what CI reports
    /// instead of a hang.
    Wedged {
        /// The expired deadline.
        after: Duration,
        /// Per-worker applied/planned progress at wedge time (the
        /// [`MetricsSnapshot`] the metrics API exposes).
        progress: MetricsSnapshot,
    },
}

impl fmt::Display for SoakError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoakError::NotCanonical {
                epoch,
                state,
                mem,
                canonical,
            } => write!(
                f,
                "drain barrier of epoch {epoch}: quiescent memory of state {state} is {mem:?}, \
                 expected canonical {canonical:?}"
            ),
            SoakError::SampledNotCanonical { epoch, detail } => write!(
                f,
                "sampled audit at the drain barrier of epoch {epoch}: {detail}"
            ),
            SoakError::ProbeNotCanonical { epoch, state, mem } => write!(
                f,
                "online probe in epoch {epoch}: mid-flight memory {mem:?} is not the canonical \
                 representation of any state (decoded {state}) on a Perfect-HI backend"
            ),
            SoakError::Panicked { worker, message } => match worker {
                Some(w) => write!(f, "worker {w} panicked: {message}"),
                None => write!(f, "client/driver thread panicked: {message}"),
            },
            SoakError::Wedged { after, progress } => {
                write!(
                    f,
                    "soak wedged: not drained after {after:?}; progress {}/{} ops;",
                    progress.applied(),
                    progress.planned()
                )?;
                for hp in progress.stalled() {
                    write!(f, " worker {} ({}/{})", hp.handle, hp.applied, hp.planned)?;
                }
                Ok(())
            }
        }
    }
}

impl Error for SoakError {}

/// An operation in flight from a client to its worker, stamped when its
/// client drew it, so the recorded latency covers the time in the
/// client's pending batch and the queue wait plus service.
struct Envelope<Op> {
    op: Op,
    submitted: Instant,
}

/// Most operations one ingress hand-off carries.
const MAX_BATCH: usize = 32;

/// The hand-off size `B` for an ingress bound: `queue_depth / 8` clamped
/// to `1..=MAX_BATCH`, so a depth below 16 keeps one-op hand-offs. The
/// channel gets `queue_depth / B` slots and so never holds more than
/// `queue_depth` operations.
fn batch_size(queue_depth: usize) -> usize {
    (queue_depth / 8).clamp(1, MAX_BATCH)
}

/// What crosses an ingress channel. A single operation travels unboxed,
/// so the one-op hand-offs of a shallow or idle queue allocate nothing.
enum Handoff<Op> {
    One(Envelope<Op>),
    Batch(Vec<Envelope<Op>>),
}

impl<Op> Handoff<Op> {
    fn len(&self) -> usize {
        match self {
            Handoff::One(_) => 1,
            Handoff::Batch(ops) => ops.len(),
        }
    }

    fn for_each(self, mut f: impl FnMut(Envelope<Op>)) {
        match self {
            Handoff::One(env) => f(env),
            Handoff::Batch(ops) => ops.into_iter().for_each(f),
        }
    }
}

/// One client thread's side of the ingress: a sender and a pending batch
/// per worker, and the thread's submission accounting.
struct Ingress<'a, Op> {
    txs: Vec<SyncSender<Handoff<Op>>>,
    pending: Vec<Vec<Envelope<Op>>>,
    depth: &'a [AtomicUsize],
    abort: &'a AtomicBool,
    batch: usize,
    backpressure: Backpressure,
    submitted: usize,
    rejected: usize,
    blocked: usize,
}

impl<Op> Ingress<'_, Op> {
    /// Adds an op to worker `w`'s pending batch and hands the batch off
    /// once it is full or `w`'s queue is empty.
    fn push(&mut self, w: usize, env: Envelope<Op>) {
        let pending = &mut self.pending[w];
        if pending.capacity() == 0 {
            pending.reserve_exact(self.batch);
        }
        pending.push(env);
        if pending.len() >= self.batch || self.depth[w].load(GAUGE_ORD) == 0 {
            self.hand_off(w, true);
        }
    }

    /// Hands off every pending batch: the thread is about to wait.
    fn flush(&mut self) {
        for w in 0..self.pending.len() {
            self.hand_off(w, true);
        }
    }

    /// Hands worker `w`'s pending batch, if any, to [`Ingress::send`].
    fn hand_off(&mut self, w: usize, wait: bool) {
        let pending = &mut self.pending[w];
        let handoff = match pending.len() {
            0 => return,
            1 => Handoff::One(pending.pop().expect("one pending op")),
            _ => Handoff::Batch(std::mem::take(pending)),
        };
        self.send(w, handoff, wait);
    }

    /// Sends a hand-off to worker `w`. When `w`'s queue is full,
    /// [`Backpressure::Reject`] drops it whole. Under `Block` a hand-off
    /// that may `wait` does so, after trying every other worker's pending
    /// batch without waiting; one that may not goes back to pending.
    fn send(&mut self, w: usize, handoff: Handoff<Op>, wait: bool) {
        let n = handoff.len();
        // Gauge bumped before the send so the worker's decrement can never
        // underflow.
        self.depth[w].fetch_add(n, GAUGE_ORD);
        let full = match self.txs[w].try_send(handoff) {
            Ok(()) => {
                self.submitted += n;
                return;
            }
            Err(TrySendError::Disconnected(_)) => {
                self.lost(w, n);
                return;
            }
            Err(TrySendError::Full(handoff)) => handoff,
        };
        match (self.backpressure, wait) {
            (Backpressure::Reject, _) => {
                self.depth[w].fetch_sub(n, GAUGE_ORD);
                self.rejected += n;
            }
            (Backpressure::Block, false) => {
                self.depth[w].fetch_sub(n, GAUGE_ORD);
                match full {
                    Handoff::One(env) => self.pending[w].push(env),
                    Handoff::Batch(ops) => self.pending[w] = ops,
                }
            }
            (Backpressure::Block, true) => {
                self.blocked += n;
                for v in (0..self.txs.len()).filter(|&v| v != w) {
                    self.hand_off(v, false);
                }
                match self.txs[w].send(full) {
                    Ok(()) => self.submitted += n,
                    Err(_) => self.lost(w, n),
                }
            }
        }
    }

    /// The worker died (panicked): stop, and let the join surface its
    /// payload.
    fn lost(&mut self, w: usize, n: usize) {
        self.depth[w].fetch_sub(n, GAUGE_ORD);
        self.abort.store(true, GAUGE_ORD);
    }
}

/// The precomputed dispatch table: entry `r` is the operation of rank `r`
/// (after a seeded shuffle of the op space) and the worker that owns it.
/// A given operation always lands on the same worker — required for
/// role-restricted ops, and what makes a hot rank a hot *shard* for the
/// symmetric ones.
fn dispatch_table<S: EnumerableSpec>(
    spec: &S,
    menus: &[Vec<S::Op>],
    seed: u64,
) -> Vec<(S::Op, usize)> {
    let mut ops = spec.ops();
    seeded_shuffle(&mut ops, seed);
    // Fully-symmetric fast path: when every role's menu spans the whole op
    // space, the eligibility filter below always yields `0..workers` in
    // order, so `eligible[pick] == pick` — same table, without the
    // O(|ops|² · workers) membership scan, which the big-domain sharded
    // scenarios (millions of ops) cannot afford.
    let symmetric = menus.iter().all(|menu| menu.len() == ops.len());
    ops.into_iter()
        .enumerate()
        .map(|(r, op)| {
            let w = if symmetric {
                SplitMix64::new(handle_seed(seed, r)).below(menus.len())
            } else {
                let eligible: Vec<usize> = menus
                    .iter()
                    .enumerate()
                    .filter(|(_, menu)| menu.contains(&op))
                    .map(|(w, _)| w)
                    .collect();
                assert!(
                    !eligible.is_empty(),
                    "no worker role owns operation {op:?}; menus_for() should cover every op"
                );
                let pick = SplitMix64::new(handle_seed(seed, r)).below(eligible.len());
                eligible[pick]
            };
            (op, w)
        })
        .collect()
}

/// What a soak derives from the object and the config before its first
/// op: the role menus, the dispatch table and the rank sampler. Built once
/// per soak (for the big-domain scenarios a multi-million-entry table, and
/// under Zipfian skew a CDF with its guide table, so each draw is one
/// guide lookup and a short bracket search).
struct Plan<S: EnumerableSpec> {
    menus: Vec<Vec<S::Op>>,
    table: Vec<(S::Op, usize)>,
    sampler: KeySampler,
}

impl<S: EnumerableSpec> Plan<S> {
    fn new<O: ConcurrentObject<S>>(obj: &O, cfg: &SoakConfig) -> Self {
        cfg.validate();
        let menus = menus_for(obj.spec(), obj.roles());
        let table = dispatch_table(obj.spec(), &menus, cfg.seed);
        let sampler = KeySampler::new(cfg.key_dist, table.len());
        Plan {
            menus,
            table,
            sampler,
        }
    }

    /// Dry-runs every client's sampling (no object, no threads) to count
    /// the operations the soak will route to each worker — the `planned`
    /// side of the watchdog's [`ProgressCounters`]. Exact under
    /// [`Backpressure::Block`]; an upper bound under `Reject`.
    fn progress_counters(&self, cfg: &SoakConfig) -> ProgressCounters {
        let epochs = cfg.mid_audits + 1;
        let mut planned = vec![0usize; self.menus.len()];
        for e in 0..epochs {
            let epoch_ops = cfg.epoch_ops(e, epochs);
            for c in 0..cfg.clients {
                let mut rng = cfg.client_rng(e, c);
                for _ in 0..cfg.client_ops(epoch_ops, c) {
                    planned[self.table[self.sampler.sample(&mut rng)].1] += 1;
                }
            }
        }
        ProgressCounters::new(planned)
    }
}

/// What one worker thread hands back when its shard drains.
#[derive(Default)]
struct WorkerOut {
    latency: Histogram,
    queue_wait: Histogram,
    service: Histogram,
    applied: usize,
    handoffs: usize,
    max_depth: usize,
}

/// What the prober thread (online non-barrier HI audits) hands back.
struct ProbeOut {
    taken: usize,
    passed: usize,
    first_failure: Option<ProbeVerdict>,
}

/// What one epoch hands back to the soak loop.
struct EpochOut {
    submitted: usize,
    rejected: usize,
    blocked: usize,
    applied: usize,
    latency: Histogram,
    queue_wait: Histogram,
    service: Histogram,
    workers: Vec<WorkerOut>,
    probes: ProbeOut,
}

/// Per-client submission state within an epoch.
struct ClientState {
    rng: SplitMix64,
    arrival: ArrivalGen,
    left: usize,
}

/// Runs one epoch: split handles, pump `epoch_ops` operations through the
/// sharded queues, drain, and return with every handle dropped.
fn run_epoch<S, O>(
    obj: &mut O,
    plan: &Plan<S>,
    cfg: &SoakConfig,
    epoch: usize,
    epoch_ops: usize,
    progress: &ProgressCounters,
) -> Result<EpochOut, SoakError>
where
    S: EnumerableSpec,
    S::Op: Send + Sync,
    O: ConcurrentObject<S>,
{
    let Plan {
        menus,
        table,
        sampler,
    } = plan;
    let (handles, probe) = obj.handles_with_probe();
    assert_eq!(
        handles.len(),
        menus.len(),
        "handles() disagrees with the declared role discipline"
    );
    let workers = handles.len();
    let batch = batch_size(cfg.queue_depth);
    let mut txs = Vec::with_capacity(workers);
    let mut rxs = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (tx, rx) = mpsc::sync_channel::<Handoff<S::Op>>(cfg.queue_depth / batch);
        txs.push(tx);
        rxs.push(rx);
    }
    // Per-worker queue-depth gauges, in operations: everything handed off
    // and not yet dequeued, a hand-off still waiting on a full queue
    // included.
    let depth: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
    let abort = AtomicBool::new(false);
    let probing_done = AtomicBool::new(false);

    let mut out = EpochOut {
        submitted: 0,
        rejected: 0,
        blocked: 0,
        applied: 0,
        latency: Histogram::new(),
        queue_wait: Histogram::new(),
        service: Histogram::new(),
        workers: Vec::with_capacity(workers),
        probes: ProbeOut {
            taken: 0,
            passed: 0,
            first_failure: None,
        },
    };

    let verdict: Result<(), SoakError> = std::thread::scope(|s| {
        // --- workers: one per handle, draining their shard until every
        // client sender is gone.
        let trace = cfg.trace;
        let mut worker_joins = Vec::with_capacity(workers);
        for ((w, mut handle), rx) in handles.into_iter().enumerate().zip(rxs) {
            assert!(
                menus[w].iter().all(|op| handle.supports(op)),
                "worker {w} does not support its role menu"
            );
            let depth = &depth[w];
            worker_joins.push(s.spawn(move || {
                let mut wo = WorkerOut::default();
                while let Ok(handoff) = rx.recv() {
                    let n = handoff.len();
                    assert!(n <= batch, "a hand-off of {n} ops exceeds B = {batch}");
                    // Gauge read at dequeue: depth including this hand-off.
                    wo.max_depth = wo.max_depth.max(depth.fetch_sub(n, GAUGE_ORD));
                    handoff.for_each(|env| {
                        if trace {
                            // Span stamps: ingress (on the envelope),
                            // dequeue, complete — so the end-to-end latency
                            // splits into queue wait + service time, per op.
                            let dequeued = Instant::now();
                            let _resp = handle.apply(env.op);
                            let completed = Instant::now();
                            let wait = dequeued.duration_since(env.submitted);
                            let serve = completed.duration_since(dequeued);
                            wo.queue_wait.record(wait.as_nanos() as u64);
                            wo.service.record(serve.as_nanos() as u64);
                            wo.latency
                                .record(completed.duration_since(env.submitted).as_nanos() as u64);
                        } else {
                            // The untraced path: identical op application,
                            // one clock read per op, end-to-end only.
                            let _resp = handle.apply(env.op);
                            wo.latency.record(env.submitted.elapsed().as_nanos() as u64);
                        }
                    });
                    wo.applied += n;
                    wo.handoffs += 1;
                    progress.bump_by(w, n);
                }
                wo
            }));
        }

        // --- online prober: for Perfect-HI backends only, sample the
        // memory representation at seeded non-barrier points while the
        // workers are mid-flight, and audit each sample for canonicality.
        // The first sample is immediate (every epoch gets at least one);
        // later samples sit behind seeded yield backoffs so they land at
        // arbitrary interleaving points rather than a fixed cadence.
        let prober_join = probe.filter(|_| cfg.online_probes > 0).map(|p| {
            let probing_done = &probing_done;
            let mut rng = SplitMix64::new(handle_seed(cfg.seed ^ 0x0b5e_9ed5, epoch));
            s.spawn(move || {
                let mut po = ProbeOut {
                    taken: 0,
                    passed: 0,
                    first_failure: None,
                };
                loop {
                    let verdict = p.sample();
                    po.taken += 1;
                    if verdict.canonical {
                        po.passed += 1;
                    } else if po.first_failure.is_none() {
                        po.first_failure = Some(verdict);
                    }
                    if po.taken >= cfg.online_probes || probing_done.load(GAUGE_ORD) {
                        return po;
                    }
                    for _ in 0..rng.below(4096) {
                        std::thread::yield_now();
                    }
                }
            })
        });

        // --- client threads: each multiplexes a contiguous slice of the
        // logical clients, round-robin, with per-client rank sampling and
        // arrival gaps, and batches their ops per worker.
        let threads = cfg.client_threads.clamp(1, cfg.clients);
        let mut client_joins = Vec::with_capacity(threads);
        for t in 0..threads {
            let mut ingress = Ingress {
                txs: txs.clone(),
                pending: (0..workers).map(|_| Vec::new()).collect(),
                depth: &depth,
                abort: &abort,
                batch,
                backpressure: cfg.backpressure,
                submitted: 0,
                rejected: 0,
                blocked: 0,
            };
            let abort = &abort;
            let my_clients: Vec<usize> = (0..cfg.clients).filter(|c| c % threads == t).collect();
            client_joins.push(s.spawn(move || {
                let mut states: Vec<ClientState> = my_clients
                    .iter()
                    .map(|&c| ClientState {
                        rng: cfg.client_rng(epoch, c),
                        arrival: ArrivalGen::new(cfg.arrival, handle_seed(cfg.seed, c)),
                        left: cfg.client_ops(epoch_ops, c),
                    })
                    .collect();
                loop {
                    let mut all_done = true;
                    for cs in &mut states {
                        if cs.left == 0 {
                            continue;
                        }
                        if abort.load(GAUGE_ORD) {
                            return (ingress.submitted, ingress.rejected, ingress.blocked);
                        }
                        all_done = false;
                        cs.left -= 1;
                        let gap = cs.arrival.next_gap();
                        if gap > 0 {
                            // About to idle: nothing waits in a batch
                            // meanwhile.
                            ingress.flush();
                            for _ in 0..gap {
                                std::thread::yield_now();
                            }
                        }
                        let (op, w) = &table[sampler.sample(&mut cs.rng)];
                        let env = Envelope {
                            op: op.clone(),
                            submitted: Instant::now(),
                        };
                        ingress.push(*w, env);
                    }
                    if all_done {
                        ingress.flush();
                        return (ingress.submitted, ingress.rejected, ingress.blocked);
                    }
                }
            }));
        }
        // Only the clients hold senders now; when they finish, the
        // channels disconnect and the workers drain out.
        drop(txs);

        let mut client_panic: Option<String> = None;
        for j in client_joins {
            match j.join() {
                Ok((submitted, rejected, blocked)) => {
                    out.submitted += submitted;
                    out.rejected += rejected;
                    out.blocked += blocked;
                }
                Err(payload) => {
                    abort.store(true, GAUGE_ORD);
                    client_panic = Some(panic_message(payload));
                }
            }
        }
        let mut worker_panic: Option<(usize, String)> = None;
        for (w, j) in worker_joins.into_iter().enumerate() {
            match j.join() {
                Ok(wo) => {
                    out.latency.merge(&wo.latency);
                    out.queue_wait.merge(&wo.queue_wait);
                    out.service.merge(&wo.service);
                    out.applied += wo.applied;
                    out.workers.push(wo);
                }
                Err(payload) => {
                    out.workers.push(WorkerOut::default());
                    worker_panic = Some((w, panic_message(payload)));
                }
            }
        }
        // The epoch is drained; release the prober (it may also have
        // stopped on its own after exhausting its sample budget).
        probing_done.store(true, GAUGE_ORD);
        if let Some(j) = prober_join {
            match j.join() {
                Ok(po) => out.probes = po,
                Err(payload) => {
                    if worker_panic.is_none() {
                        return Err(SoakError::Panicked {
                            worker: None,
                            message: panic_message(payload),
                        });
                    }
                }
            }
        }
        // A worker panic explains a client abort, so it wins the report.
        if let Some((w, message)) = worker_panic {
            return Err(SoakError::Panicked {
                worker: Some(w),
                message,
            });
        }
        if let Some(message) = client_panic {
            return Err(SoakError::Panicked {
                worker: None,
                message,
            });
        }
        Ok(())
    });
    verdict.map(|()| out)
}

/// Renders a panic payload the way the default hook would.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`run_soak`] with an observer invoked at every drain barrier, while
/// the object is state-quiescent (all handles dropped) and before the
/// next epoch re-splits them. This is the hook the drain-barrier tests
/// use to prove the audit point is quiet by construction.
///
/// # Errors
///
/// [`SoakError::NotCanonical`] if a barrier's HI audit fails,
/// [`SoakError::Panicked`] if a worker or client thread panics.
pub fn run_soak_with<S, O, F>(
    obj: &mut O,
    cfg: &SoakConfig,
    mut observe: F,
) -> Result<SoakReport, SoakError>
where
    S: EnumerableSpec,
    S::Op: Send + Sync,
    O: ConcurrentObject<S>,
    F: FnMut(&AuditPoint<'_>),
{
    let plan = Plan::new(obj, cfg);
    let counters = plan.progress_counters(cfg);
    run_soak_core(obj, cfg, &plan, &counters, &mut observe)
}

/// Drives `obj` through a full soak: `mid_audits + 1` epochs of sharded
/// service load with a drain-barrier HI audit after each. See the module
/// docs for the architecture.
///
/// # Errors
///
/// As [`run_soak_with`].
pub fn run_soak<S, O>(obj: &mut O, cfg: &SoakConfig) -> Result<SoakReport, SoakError>
where
    S: EnumerableSpec,
    S::Op: Send + Sync,
    O: ConcurrentObject<S>,
{
    run_soak_with(obj, cfg, |_| {})
}

/// The soak loop over a prepared [`Plan`]. `counters` carry the
/// per-worker applied/planned progress into the report's metrics; the
/// watchdogged path shares them with its watchdog.
fn run_soak_core<S, O>(
    obj: &mut O,
    cfg: &SoakConfig,
    plan: &Plan<S>,
    counters: &ProgressCounters,
    observe: &mut dyn FnMut(&AuditPoint<'_>),
) -> Result<SoakReport, SoakError>
where
    S: EnumerableSpec,
    S::Op: Send + Sync,
    O: ConcurrentObject<S>,
{
    let auditable = obj.hi_level().auditable();
    let epochs = cfg.mid_audits + 1;

    let start = Instant::now();
    let mut report = SoakReport {
        ops_submitted: 0,
        ops_applied: 0,
        ops_rejected: 0,
        sends_blocked: 0,
        audits: Vec::with_capacity(epochs),
        elapsed: Duration::ZERO,
        latency: Histogram::new(),
        queue_wait: Histogram::new(),
        service: Histogram::new(),
        workers: (0..plan.menus.len())
            .map(|w| WorkerStats {
                worker: w,
                applied: 0,
                handoffs: 0,
                max_queue_depth: 0,
                latency: Histogram::new(),
                queue_wait: Histogram::new(),
                service: Histogram::new(),
            })
            .collect(),
        sampled_audits: Vec::new(),
        metrics: ServiceMetrics {
            progress: counters.snapshot(),
            epochs: Vec::with_capacity(epochs),
            online: if cfg.online_probes == 0 {
                OnlineAudit::Disabled
            } else {
                // Refined to Sampled below, the first time an epoch
                // actually hands back probe samples.
                OnlineAudit::Unsupported
            },
        },
    };

    // Maintenance (online resize) totals at the last barrier, so each
    // epoch's metrics carry the delta — what *this* epoch's load paid.
    let mut maint_prev = obj.maintenance().unwrap_or_default();

    for epoch in 0..epochs {
        let epoch_ops = cfg.epoch_ops(epoch, epochs);
        let load_start = Instant::now();
        let out = run_epoch(obj, plan, cfg, epoch, epoch_ops, counters)?;
        let load = load_start.elapsed();
        report.ops_submitted += out.submitted;
        report.ops_rejected += out.rejected;
        report.sends_blocked += out.blocked;
        report.ops_applied += out.applied;
        report.latency.merge(&out.latency);
        report.queue_wait.merge(&out.queue_wait);
        report.service.merge(&out.service);
        for (ws, wo) in report.workers.iter_mut().zip(&out.workers) {
            ws.applied += wo.applied;
            ws.handoffs += wo.handoffs;
            ws.max_queue_depth = ws.max_queue_depth.max(wo.max_depth);
            ws.latency.merge(&wo.latency);
            ws.queue_wait.merge(&wo.queue_wait);
            ws.service.merge(&wo.service);
        }

        // Online probe verdicts: a failed sample on a Perfect backend is a
        // mid-flight HI violation, reported like a failed barrier audit.
        if let Some(v) = out.probes.first_failure {
            return Err(SoakError::ProbeNotCanonical {
                epoch,
                state: v.state,
                mem: v.mem,
            });
        }
        if out.probes.taken > 0 {
            report.metrics.online = OnlineAudit::Sampled;
        }

        // Drain barrier: the epoch scope has ended, so every handle is
        // dropped and the object is state-quiescent. The borrow checker
        // enforces this — `mem_snapshot()` here cannot alias a live
        // worker.
        let pause_start = Instant::now();
        let mem = obj.mem_snapshot();
        if auditable {
            // Big-domain backends offer a sampled composed audit; prefer
            // it exactly when offered — the full-image comparison stays
            // the barrier check everywhere else.
            if let Some(sample) =
                obj.sampled_audit(handle_seed(cfg.seed ^ SAMPLED_AUDIT_SALT, epoch))
            {
                if let Some(detail) = sample.failure.clone() {
                    return Err(SoakError::SampledNotCanonical { epoch, detail });
                }
                report.sampled_audits.push(sample);
            } else {
                let state = obj.abstract_state();
                let canonical = obj
                    .canonical(&state)
                    .expect("auditable HiLevel must fix a canonical form");
                if mem != canonical {
                    return Err(SoakError::NotCanonical {
                        epoch,
                        state: format!("{state:?}"),
                        mem,
                        canonical,
                    });
                }
            }
        }
        observe(&AuditPoint {
            epoch,
            applied: report.ops_applied,
            audited: auditable,
            mem: &mem,
        });
        report.audits.push(AuditRecord {
            epoch,
            applied: report.ops_applied,
            audited: auditable,
        });
        let maint_now = obj.maintenance().unwrap_or_default();
        report.metrics.epochs.push(EpochMetrics {
            epoch,
            ops_applied: out.applied,
            load,
            audit_pause: pause_start.elapsed(),
            probes: out.probes.taken,
            probes_passed: out.probes.passed,
            resizes: maint_now.resizes - maint_prev.resizes,
            resize_pause: maint_now
                .resize_pause
                .saturating_sub(maint_prev.resize_pause),
        });
        maint_prev = maint_now;
    }
    report.elapsed = start.elapsed();
    report.metrics.progress = counters.snapshot();
    Ok(report)
}

/// What the watchdogged driver thread reports before soaking: the live
/// per-worker counters the watchdog diagnoses a wedge from.
struct Preflight {
    counters: Arc<ProgressCounters>,
}

/// [`run_soak`], but un-hangable: the object is constructed and soaked
/// inside a detached driver thread and the caller waits at most
/// `cfg.deadline` for the verdict; on expiry the wedged thread is
/// abandoned and [`SoakError::Wedged`] carries the per-worker
/// [`MetricsSnapshot`]. The soak-registry path runs through this, so a
/// backend that wedges under service load fails structured in CI instead
/// of hanging the job.
///
/// # Errors
///
/// As [`run_soak`], plus [`SoakError::Wedged`] on deadline expiry and
/// [`SoakError::Panicked`] for a panicking constructor.
pub fn soak_watchdogged<S, O>(
    make: impl FnOnce() -> O + Send + 'static,
    cfg: &SoakConfig,
) -> Result<SoakReport, SoakError>
where
    S: EnumerableSpec + 'static,
    S::Op: Send + Sync,
    S::State: Send,
    O: ConcurrentObject<S>,
{
    let (pre_tx, pre_rx) = mpsc::channel::<Preflight>();
    let (done_tx, done_rx) = mpsc::channel::<Result<SoakReport, SoakError>>();
    let cfg = *cfg;
    std::thread::Builder::new()
        .name("hi-soak-watchdogged".into())
        .spawn(move || {
            let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut obj = make();
                let plan = Plan::new(&obj, &cfg);
                let counters = Arc::new(plan.progress_counters(&cfg));
                let _ = pre_tx.send(Preflight {
                    counters: Arc::clone(&counters),
                });
                run_soak_core(&mut obj, &cfg, &plan, &counters, &mut |_| {})
            }));
            let _ = done_tx.send(verdict.unwrap_or_else(|payload| {
                Err(SoakError::Panicked {
                    worker: None,
                    message: panic_message(payload),
                })
            }));
        })
        .expect("spawn watchdogged soak driver thread");

    let start = Instant::now();
    let pre = pre_rx.recv_timeout(cfg.deadline).ok();
    let remaining = cfg.deadline.saturating_sub(start.elapsed());
    match done_rx.recv_timeout(remaining) {
        Ok(verdict) => verdict,
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(SoakError::Panicked {
            worker: None,
            message: "soak driver thread died without reporting".into(),
        }),
        Err(mpsc::RecvTimeoutError::Timeout) => Err(SoakError::Wedged {
            after: cfg.deadline,
            progress: pre.map_or(
                MetricsSnapshot {
                    handles: Vec::new(),
                },
                |p| p.counters.snapshot(),
            ),
        }),
    }
}
