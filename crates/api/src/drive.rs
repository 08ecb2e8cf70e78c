//! A generic threaded stress/HI-audit driver over [`ConcurrentObject`]:
//! random workload in, linearizability verdict + quiescent-point memory
//! audit out.
//!
//! This replaces the per-object glue that each threaded stress test used to
//! carry: one thread per handle applies randomly chosen supported
//! operations, every invocation/response is stamped from a global sequence
//! counter (widening intervals can only make *more* histories acceptable,
//! so any violation reported is real), the rebuilt [`History`] is checked
//! with the same linearizability search used for simulated executions, and
//! finally — at full quiescence — `mem_snapshot()` is compared against
//! `canonical(abstract_state())` whenever the object's
//! [`HiLevel`](crate::HiLevel) fixes a
//! canonical form.

use std::any::Any;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use hi_core::{menus_for, EnumerableSpec, History, ObjectSpec, Pid};
use hi_spec::{linearize, LinError, LinOptions, Linearization};

// The workload generation (script RNG, per-role seeds) lives in
// `hi_core::workload`, shared verbatim with the sim checker so both worlds
// face mirrored workloads; re-exported here for the facade's historical
// paths.
pub use hi_core::workload::{handle_seed, random_script};

use crate::object::{ConcurrentObject, ObjectHandle};

/// Configuration of a [`drive`] run.
#[derive(Clone, Copy, Debug)]
pub struct DriveConfig {
    /// Operations each handle applies.
    pub ops_per_handle: usize,
    /// Seed of the per-handle workload generators.
    pub seed: u64,
    /// Options of the final linearizability search.
    pub lin: LinOptions,
    /// Wall-clock budget of a [`drive_watchdogged`] run; on expiry the run
    /// resolves to [`DriveError::Wedged`] instead of hanging. Ignored by the
    /// plain (borrowing) [`drive`], which cannot abandon its workers.
    pub deadline: Duration,
}

impl Default for DriveConfig {
    fn default() -> Self {
        DriveConfig {
            ops_per_handle: 100,
            seed: 0x5eed,
            lin: LinOptions::default(),
            deadline: Duration::from_secs(30),
        }
    }
}

/// Result of a successful [`drive`] run.
#[derive(Clone, Debug)]
pub struct DriveReport<S: ObjectSpec> {
    /// The rebuilt concurrent history.
    pub history: History<S::Op, S::Resp>,
    /// The linearization witness of that history.
    pub lin: Linearization<S::State>,
    /// The abstract state decoded from the quiescent memory.
    pub final_state: S::State,
    /// The quiescent `mem(C)`.
    pub mem: Vec<u64>,
    /// Whether the memory audit ran (`false` only for
    /// [`HiLevel::NotHi`](crate::HiLevel::NotHi)
    /// objects, which fix no canonical form).
    pub audited: bool,
}

/// How far one handle's worker got before the run ended — the per-handle
/// diagnostic a [`DriveError::Wedged`] carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HandleProgress {
    /// The handle index (role order, as returned by
    /// [`ConcurrentObject::handles`]).
    pub handle: usize,
    /// Operations the worker completed.
    pub applied: usize,
    /// Operations its script planned.
    pub planned: usize,
}

/// Live per-handle completion counters: one planned total and one atomic
/// applied counter per handle, shared between the workers that bump them
/// and whoever watches from outside (the [`drive_watchdogged`] watchdog,
/// the `hi_service` soak harness's wedge diagnostics). Reading is always
/// safe; the numbers are a monotone under-approximation of true progress.
#[derive(Debug)]
pub struct ProgressCounters {
    planned: Vec<usize>,
    applied: Vec<AtomicUsize>,
}

impl ProgressCounters {
    /// Counters for handles with the given planned operation totals, all
    /// starting at zero applied.
    pub fn new(planned: Vec<usize>) -> Self {
        let applied = planned.iter().map(|_| AtomicUsize::new(0)).collect();
        ProgressCounters { planned, applied }
    }

    /// The number of handles tracked.
    pub fn num_handles(&self) -> usize {
        self.planned.len()
    }

    /// Records one completed operation on `handle`.
    pub fn bump(&self, handle: usize) {
        self.bump_by(handle, 1);
    }

    /// Records `n` completed operations on `handle` in one update, for a
    /// worker that applies a batch between bumps.
    pub fn bump_by(&self, handle: usize, n: usize) {
        self.applied[handle].fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            handles: self
                .applied
                .iter()
                .enumerate()
                .map(|(i, done)| HandleProgress {
                    handle: i,
                    applied: done.load(Ordering::Relaxed),
                    planned: self.planned[i],
                })
                .collect(),
        }
    }
}

/// A point-in-time view of a driver's per-handle progress — the one struct
/// the watchdog, the service harness and future tools read instead of
/// re-counting.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MetricsSnapshot {
    /// One entry per handle, in role order.
    pub handles: Vec<HandleProgress>,
}

impl MetricsSnapshot {
    /// Total operations applied across all handles.
    pub fn applied(&self) -> usize {
        self.handles.iter().map(|h| h.applied).sum()
    }

    /// Total operations planned across all handles.
    pub fn planned(&self) -> usize {
        self.handles.iter().map(|h| h.planned).sum()
    }

    /// The handles that have not completed their planned operations.
    pub fn stalled(&self) -> Vec<HandleProgress> {
        self.handles
            .iter()
            .copied()
            .filter(|hp| hp.applied < hp.planned)
            .collect()
    }

    /// Whether every handle completed its plan.
    pub fn is_drained(&self) -> bool {
        self.stalled().is_empty()
    }
}

/// Why a [`drive`] run failed.
#[derive(Clone, Debug)]
pub enum DriveError<S: ObjectSpec> {
    /// The rebuilt history does not linearize (or the search gave up).
    Lin(LinError),
    /// The quiescent memory is not the canonical representation of the
    /// final abstract state.
    NotCanonical {
        /// The decoded final state.
        state: S::State,
        /// The observed memory.
        mem: Vec<u64>,
        /// The expected canonical representation.
        canonical: Vec<u64>,
    },
    /// The watchdog fired: the workers did not finish within the deadline.
    /// The wedged driver thread is abandoned (its memory is reclaimed at
    /// process exit), and this diagnostic is what CI reports instead of a
    /// hang.
    Wedged {
        /// The expired deadline.
        after: Duration,
        /// The handles that had not drained their scripts, with how far
        /// each got. Empty only if the run wedged before the object handed
        /// out handles.
        stalled: Vec<HandleProgress>,
        /// The object's memory at drive start (the canonical initial
        /// memory). The wedge-time memory of a live threaded object is not
        /// observable without aliasing it; the registry appends the sim
        /// twin's lane rendering for the mid-run view.
        mem: Vec<u64>,
    },
    /// A worker (or the driver itself) panicked.
    Panicked {
        /// The panicking handle index, when a worker; `None` when the
        /// driver thread itself panicked (e.g. during construction).
        handle: Option<usize>,
        /// The rendered panic payload.
        message: String,
    },
}

impl<S: ObjectSpec> fmt::Display for DriveError<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriveError::Lin(e) => write!(f, "linearizability: {e}"),
            DriveError::NotCanonical {
                state,
                mem,
                canonical,
            } => write!(
                f,
                "quiescent memory of state {state:?} is {mem:?}, expected canonical {canonical:?}"
            ),
            DriveError::Wedged {
                after,
                stalled,
                mem,
            } => {
                write!(f, "drive wedged: workers still running after {after:?};")?;
                if stalled.is_empty() {
                    write!(f, " no handle ever reported progress;")?;
                } else {
                    write!(f, " stalled handles:")?;
                    for hp in stalled {
                        write!(f, " {} ({}/{} ops)", hp.handle, hp.applied, hp.planned)?;
                    }
                    write!(f, ";")?;
                }
                write!(f, " memory at drive start: {mem:?}")
            }
            DriveError::Panicked { handle, message } => match handle {
                Some(i) => write!(f, "worker thread of handle {i} panicked: {message}"),
                None => write!(f, "driver thread panicked: {message}"),
            },
        }
    }
}

impl<S: ObjectSpec> Error for DriveError<S> {}

/// Renders a panic payload the way the default hook would.
pub fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// An invocation/response pair stamped from the global sequence counter.
struct StampedOp<O, R> {
    pid: usize,
    invoked: u64,
    returned: u64,
    op: O,
    resp: R,
}

/// Rebuilds a [`History`] from per-thread stamped records.
fn rebuild_history<O: Clone, R: Clone>(ops: Vec<StampedOp<O, R>>) -> History<O, R> {
    // (stamp, is_return, record index); stamps are unique (fetch_add).
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(ops.len() * 2);
    for (idx, op) in ops.iter().enumerate() {
        events.push((op.invoked, false, idx));
        events.push((op.returned, true, idx));
    }
    events.sort_unstable();
    let mut history = History::new();
    let mut pending: std::collections::HashMap<usize, hi_core::OpId> =
        std::collections::HashMap::new();
    for (_, is_return, idx) in events {
        let rec = &ops[idx];
        if is_return {
            let id = pending.remove(&idx).expect("return before invoke");
            history.ret(id, rec.resp.clone());
        } else {
            pending.insert(idx, history.invoke(Pid(rec.pid), rec.op.clone()));
        }
    }
    history
}

/// Drives `obj` with a random threaded workload and audits the result.
///
/// One OS thread per handle applies `cfg.ops_per_handle` operations drawn
/// uniformly from the operations its role supports. After the threads join:
///
/// 1. the stamped history is rebuilt and checked for linearizability
///    against `obj.spec()`;
/// 2. if the object's [`HiLevel`](crate::HiLevel) fixes a canonical form, the quiescent
///    `mem_snapshot()` is compared against `canonical(abstract_state())`.
///
/// # Errors
///
/// [`DriveError::Lin`] if the history does not linearize,
/// [`DriveError::NotCanonical`] if the memory audit fails.
pub fn drive<S, O>(obj: &mut O, cfg: &DriveConfig) -> Result<DriveReport<S>, DriveError<S>>
where
    S: EnumerableSpec,
    S::Op: Send,
    S::Resp: Send,
    O: ConcurrentObject<S>,
{
    drive_core(obj, cfg, None)
}

/// The shared drive core: what [`drive`] runs directly and what the
/// [`drive_watchdogged`] driver thread runs behind the watchdog. When
/// `progress` is given (one counter per handle, role order), workers bump
/// their counter after every completed operation so the watchdog can report
/// *which* handles stalled.
fn drive_core<S, O>(
    obj: &mut O,
    cfg: &DriveConfig,
    progress: Option<&ProgressCounters>,
) -> Result<DriveReport<S>, DriveError<S>>
where
    S: EnumerableSpec,
    S::Op: Send,
    S::Resp: Send,
    O: ConcurrentObject<S>,
{
    let spec = obj.spec().clone();
    // The same role-aware menus the sim checker derives for the twin
    // scenario: both worlds are workload-mirrored by construction.
    let menus = menus_for(&spec, obj.roles());
    if let Some(p) = progress {
        assert_eq!(
            p.num_handles(),
            menus.len(),
            "one progress counter per handle"
        );
    }
    let audit = obj.hi_level().auditable();
    // Worker panics are caught, not propagated: a propagated panic would
    // abort the scope join and lose the handle index, and under the
    // watchdog it must surface as a structured DriveError, not a dead
    // channel.
    let panics: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    let log = {
        let handles = obj.handles();
        assert_eq!(
            handles.len(),
            menus.len(),
            "handles() disagrees with the declared role discipline"
        );
        let clock = AtomicU64::new(0);
        let log: Mutex<Vec<StampedOp<S::Op, S::Resp>>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for ((i, mut h), menu) in handles.into_iter().enumerate().zip(&menus) {
                assert!(
                    menu.iter().all(|op| h.supports(op)),
                    "handle {i} does not support its role menu"
                );
                if menu.is_empty() {
                    continue; // a role with nothing to do
                }
                let script = random_script(menu, cfg.ops_per_handle, handle_seed(cfg.seed, i));
                let clock = &clock;
                let log = &log;
                let panics = &panics;
                s.spawn(move || {
                    let body = catch_unwind(AssertUnwindSafe(|| {
                        let mut local = Vec::with_capacity(script.len());
                        for op in script {
                            let invoked = clock.fetch_add(1, Ordering::SeqCst);
                            let resp = h.apply(op.clone());
                            let returned = clock.fetch_add(1, Ordering::SeqCst);
                            local.push(StampedOp {
                                pid: i,
                                invoked,
                                returned,
                                op,
                                resp,
                            });
                            if let Some(p) = progress {
                                p.bump(i);
                            }
                        }
                        local
                    }));
                    match body {
                        Ok(local) => log.lock().unwrap().extend(local),
                        Err(payload) => panics.lock().unwrap().push((i, panic_message(payload))),
                    }
                });
            }
        });
        log.into_inner().unwrap()
    };

    if let Some((handle, message)) = panics.into_inner().unwrap().into_iter().next() {
        return Err(DriveError::Panicked {
            handle: Some(handle),
            message,
        });
    }

    let history = rebuild_history(log);
    let lin = linearize(&spec, &history, &cfg.lin).map_err(DriveError::Lin)?;
    let final_state = obj.abstract_state();
    let mem = obj.mem_snapshot();
    if audit {
        let canonical = obj
            .canonical(&final_state)
            .expect("auditable HiLevel must fix a canonical form");
        if mem != canonical {
            return Err(DriveError::NotCanonical {
                state: final_state,
                mem,
                canonical,
            });
        }
    }
    Ok(DriveReport {
        history,
        lin,
        final_state,
        mem,
        audited: audit,
    })
}

/// [`drive`], but un-hangable: the object is constructed and driven inside
/// a detached driver thread, and the caller waits at most `cfg.deadline`
/// for the verdict.
///
/// - On time: the ordinary [`DriveReport`] / [`DriveError`].
/// - A worker or the driver panics: [`DriveError::Panicked`] with the
///   handle index and rendered payload.
/// - The deadline expires (a wedged backend, e.g. a blocking algorithm
///   whose lock holder a test deliberately stalled): [`DriveError::Wedged`]
///   carrying each stalled handle's progress and the drive-start memory.
///   The wedged thread is *abandoned*, not killed — its handles may spin
///   until process exit — so CI gets a structured diagnostic instead of a
///   hang, at the cost of a leaked thread in the failing process.
///
/// Takes a constructor rather than a `&mut` borrow because the object must
/// move into (and possibly die with) the driver thread.
pub fn drive_watchdogged<S, O>(
    make: impl FnOnce() -> O + Send + 'static,
    cfg: &DriveConfig,
) -> Result<DriveReport<S>, DriveError<S>>
where
    S: EnumerableSpec + 'static,
    S::Op: Send,
    S::Resp: Send,
    S::State: Send,
    O: ConcurrentObject<S>,
{
    let cfg = *cfg;
    let watched = watchdog("hi-drive-watchdogged", cfg.deadline, move |preflight| {
        let mut obj = make();
        let menus = menus_for(&obj.spec().clone(), obj.roles());
        let planned: Vec<usize> = menus
            .iter()
            .map(|m| if m.is_empty() { 0 } else { cfg.ops_per_handle })
            .collect();
        let progress = Arc::new(ProgressCounters::new(planned));
        // Enough to diagnose a wedge from outside: the drive-start memory
        // and the live per-handle completion counters.
        preflight((obj.mem_snapshot(), Arc::clone(&progress)));
        drive_core(&mut obj, &cfg, Some(&progress))
    });
    match watched {
        Watched::Done(verdict) => verdict,
        Watched::Panicked(message) => Err(DriveError::Panicked {
            handle: None,
            message: message.unwrap_or_else(|| "driver thread died without reporting".into()),
        }),
        Watched::Wedged(pre) => {
            let (stalled, mem) = match pre {
                Some((mem0, progress)) => (progress.snapshot().stalled(), mem0),
                None => (Vec::new(), Vec::new()),
            };
            Err(DriveError::Wedged {
                after: cfg.deadline,
                stalled,
                mem,
            })
        }
    }
}

/// How a [`watchdog`]ed body ended.
#[derive(Debug)]
pub enum Watched<P, T> {
    /// The body returned within the deadline.
    Done(T),
    /// The body panicked (the rendered payload), or its thread died
    /// without reporting (`None`).
    Panicked(Option<String>),
    /// The deadline expired. The wedged thread is abandoned, not killed;
    /// this carries what the body reported before it started, if anything.
    Wedged(Option<P>),
}

/// Runs `body` on a detached thread named `name` and waits at most
/// `deadline` for it — the un-hangable core of [`drive_watchdogged`] and
/// the service's soak watchdog. `body` may hand the watchdog a preflight
/// report (once, before its long-running part) through the callback it is
/// given, for diagnosing a wedge from outside.
///
/// # Panics
///
/// If the thread cannot be spawned.
pub fn watchdog<P, T>(
    name: &str,
    deadline: Duration,
    body: impl FnOnce(&dyn Fn(P)) -> T + Send + 'static,
) -> Watched<P, T>
where
    P: Send + 'static,
    T: Send + 'static,
{
    let (pre_tx, pre_rx) = mpsc::channel::<P>();
    let (done_tx, done_rx) = mpsc::channel::<Result<T, String>>();
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            let preflight = move |p: P| {
                let _ = pre_tx.send(p);
            };
            let verdict = catch_unwind(AssertUnwindSafe(|| body(&preflight)));
            let _ = done_tx.send(verdict.map_err(panic_message));
        })
        .unwrap_or_else(|e| panic!("spawn {name}: {e}"));

    let start = Instant::now();
    let pre = pre_rx.recv_timeout(deadline).ok();
    let remaining = deadline.saturating_sub(start.elapsed());
    match done_rx.recv_timeout(remaining) {
        Ok(Ok(done)) => Watched::Done(done),
        Ok(Err(message)) => Watched::Panicked(Some(message)),
        Err(mpsc::RecvTimeoutError::Disconnected) => Watched::Panicked(None),
        Err(mpsc::RecvTimeoutError::Timeout) => Watched::Wedged(pre),
    }
}

/// Pure throughput run: one thread per handle applies `ops_per_handle`
/// random supported operations with no stamping, history or checking.
/// Returns the number of operations completed (the benchmarks' unit).
pub fn throughput<S, O>(obj: &mut O, ops_per_handle: usize, seed: u64) -> usize
where
    S: EnumerableSpec,
    S::Op: Send,
    O: ConcurrentObject<S>,
{
    let spec = obj.spec().clone();
    let menus = menus_for(&spec, obj.roles());
    let handles = obj.handles();
    assert_eq!(
        handles.len(),
        menus.len(),
        "handles() disagrees with the declared role discipline"
    );
    let mut total = 0;
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for ((i, mut h), menu) in handles.into_iter().enumerate().zip(&menus) {
            if menu.is_empty() {
                continue;
            }
            let script = random_script(menu, ops_per_handle, handle_seed(seed, i));
            joins.push(s.spawn(move || {
                let n = script.len();
                for op in script {
                    h.apply(op);
                }
                n
            }));
        }
        total = joins
            .into_iter()
            .map(|j| j.join().expect("driver thread panicked"))
            .sum();
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the public metrics snapshot surface: field names, role order,
    /// totals, stalled filtering and the drained predicate. The service
    /// layer and future tools read this struct instead of re-counting;
    /// changing its shape is a reviewed API break, not drift.
    #[test]
    fn metrics_snapshot_pins_its_fields() {
        let counters = ProgressCounters::new(vec![10, 0, 5]);
        assert_eq!(counters.num_handles(), 3);
        counters.bump(0);
        counters.bump(0);
        counters.bump(2);
        let snap = counters.snapshot();
        assert_eq!(
            snap.handles,
            vec![
                HandleProgress {
                    handle: 0,
                    applied: 2,
                    planned: 10,
                },
                HandleProgress {
                    handle: 1,
                    applied: 0,
                    planned: 0,
                },
                HandleProgress {
                    handle: 2,
                    applied: 1,
                    planned: 5,
                },
            ]
        );
        assert_eq!(snap.applied(), 3);
        assert_eq!(snap.planned(), 15);
        assert_eq!(
            snap.stalled().iter().map(|h| h.handle).collect::<Vec<_>>(),
            vec![0, 2],
            "handle 1 planned nothing, so it is never stalled"
        );
        assert!(!snap.is_drained());
        // A batch lands in one update, exactly as that many single bumps.
        counters.bump_by(0, 8);
        for _ in 0..4 {
            counters.bump(2);
        }
        assert!(counters.snapshot().is_drained());
    }
}
