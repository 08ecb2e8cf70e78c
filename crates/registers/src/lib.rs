#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! History-independent SWSR multi-valued registers from binary registers,
//! plus the max register and the perfect-HI set (paper §4 and §5.1).
//!
//! Each implementation is written once, as a step machine over
//! [`hi_sim::Cells`], and that one text runs in both worlds:
//!
//! * in [`hi_sim::Executor`], one primitive per step, for deterministic
//!   scheduling, exhaustive checking, the fault sweep and the lower-bound
//!   adversary;
//! * on real threads over an [`hi_sim::AtomicMem`] arena built from the
//!   same `init_memory()`, which is how `hi_api`'s adapters ship it to the
//!   stress tests, the service and the benchmarks.
//!
//! Every writer's `invoke` rejects values outside `1..=K` ("write of
//! out-of-range value") and the set rejects elements outside `1..=t`
//! ("element … out of domain") before any primitive runs.
//!
//! The four register implementations and their guarantees:
//!
//! | Type | Paper | Progress | History independence |
//! |---|---|---|---|
//! | [`VidyasankarRegister`] | Algorithm 1 | wait-free | **none** (leaks past writes) |
//! | [`LockFreeHiRegister`] | Algorithms 2+3 | writer wait-free, reader lock-free | state-quiescent |
//! | [`WaitFreeHiRegister`] | Algorithm 4 | wait-free | quiescent |
//! | [`MaxRegister`] | §5.1 | wait-free | state-quiescent |
//!
//! Role convention for the SWSR registers: **pid 0 is the writer, pid 1 is
//! the reader**; machines panic when invoked with the wrong operation for
//! their role.
//!
//! The [`HiSet`] (§5.1) is multi-process: every pid may run every operation.

use hi_sim::{CellId, Cells};

pub mod hi_set;
pub mod lockfree;
pub mod max_register;
pub mod vidyasankar;
pub mod waitfree;

pub use hi_set::HiSet;
pub use lockfree::LockFreeHiRegister;
pub use max_register::MaxRegister;
pub use vidyasankar::VidyasankarRegister;
pub use waitfree::WaitFreeHiRegister;

/// The role of a process in a single-writer single-reader implementation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// pid 0: may invoke `Write`.
    Writer,
    /// pid 1: may invoke `Read`.
    Reader,
}

/// Asserts that `v` is one of a register's values `1..=k`, the domain check
/// every writer's `invoke` makes before any primitive.
fn in_range(v: u64, k: u64) -> u64 {
    assert!((1..=k).contains(&v), "write of out-of-range value {v}");
    v
}

/// `A[i]` of an array `A[1..]` whose cells were allocated consecutively
/// from `a`.
fn nth(a: CellId, i: u64) -> CellId {
    CellId(a.0 + (i - 1) as usize)
}

/// A `Write(v)`'s sweep of `A`, one write per step: set `A[v]`, clear
/// `A[v-1..1]` downwards, then, in the history-independent registers, clear
/// `A[v+1..K]` upwards (Algorithm 2 lines 5–7; Algorithm 1 and the max
/// register stop after clearing down).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Sweep {
    /// Write `A[v] <- 1`.
    Set,
    /// Write `A[j] <- 0`, `j` descending to 1.
    Down { j: u64 },
    /// Write `A[j] <- 0`, `j` ascending to `K`.
    Up { j: u64 },
}

impl Sweep {
    /// The index of the cell of `A` the next step writes.
    fn j(self, v: u64) -> u64 {
        match self {
            Sweep::Set => v,
            Sweep::Down { j } | Sweep::Up { j } => j,
        }
    }

    /// One step of `Write(v)` over `A[1..=k]`, whose cells start at `a`;
    /// `up` says whether the sweep clears above `v`. Returns the next step,
    /// or `None` once the write is done.
    #[inline]
    fn step(self, ctx: &mut impl Cells, a: CellId, v: u64, k: u64, up: bool) -> Option<Sweep> {
        let below = match self {
            Sweep::Set => {
                ctx.write(nth(a, v), 1);
                v
            }
            Sweep::Down { j } => {
                ctx.write(nth(a, j), 0);
                j
            }
            Sweep::Up { j } => {
                ctx.write(nth(a, j), 0);
                return (j < k).then_some(Sweep::Up { j: j + 1 });
            }
        };
        if below > 1 {
            Some(Sweep::Down { j: below - 1 })
        } else {
            (up && v < k).then_some(Sweep::Up { j: v + 1 })
        }
    }
}

/// Algorithm 3's `TryRead` as a step machine, one read of `A` per step:
/// scan up to the first 1, then back down keeping the smallest 1 (stale 1s
/// above it come from writes the read overlaps). Every register reader here
/// runs it: Algorithm 1's and the max register's once, Algorithm 2's until
/// it returns a value, Algorithm 4's at most twice before falling back to
/// `B`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TryRead {
    /// Lines 1–2: read `A[j]`, scanning up for the first 1.
    Up { j: u64 },
    /// Lines 4–5: read `A[j]`, scanning down keeping the smallest 1.
    Down { j: u64, val: u64 },
}

/// What one step of a [`TryRead`] leads to.
enum Scanned {
    /// The scan goes on from here.
    More(TryRead),
    /// `TryRead` returns this value.
    Value(u64),
    /// The up-scan read `A[K] = 0`: `TryRead` returns ⊥.
    Bottom,
}

impl TryRead {
    const START: TryRead = TryRead::Up { j: 1 };

    /// The index of the cell of `A` the next step reads.
    fn j(self) -> u64 {
        match self {
            TryRead::Up { j } | TryRead::Down { j, .. } => j,
        }
    }

    /// One step over `A[1..=k]`, whose cells start at `a`.
    #[inline]
    fn step(self, ctx: &mut impl Cells, a: CellId, k: u64) -> Scanned {
        match self {
            TryRead::Up { j } => {
                if ctx.read(nth(a, j)) != 1 {
                    if j < k {
                        Scanned::More(TryRead::Up { j: j + 1 })
                    } else {
                        Scanned::Bottom
                    }
                } else if j > 1 {
                    Scanned::More(TryRead::Down { j: j - 1, val: j })
                } else {
                    Scanned::Value(1)
                }
            }
            TryRead::Down { j, val } => {
                let val = if ctx.read(nth(a, j)) == 1 { j } else { val };
                if j > 1 {
                    Scanned::More(TryRead::Down { j: j - 1, val })
                } else {
                    Scanned::Value(val)
                }
            }
        }
    }
}

/// The smallest index `v` with `A[v] = 1` in a memory image whose first
/// cells are `A[1..]`: at quiescent points of every register here, the
/// value a solo reader returns.
fn lowest_set(a: &[u64]) -> u64 {
    let i = a.iter().position(|&b| b == 1);
    i.expect("invariant broken: no 1 in A at quiescence") as u64 + 1
}

impl Role {
    /// The role of `pid` under the SWSR convention.
    ///
    /// # Panics
    ///
    /// Panics for pids other than 0 and 1.
    pub fn of_pid(pid: hi_core::Pid) -> Role {
        match pid.0 {
            0 => Role::Writer,
            1 => Role::Reader,
            other => panic!("SWSR implementations have exactly two processes, got pid {other}"),
        }
    }
}
