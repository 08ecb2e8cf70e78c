//! The threaded world's memory: one atomic byte or one atomic word per base
//! object.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::mem::{CellId, MemSnapshot, SharedMem};
use crate::process::Cells;

/// Every primitive is sequentially consistent: the paper assumes atomic base
/// objects, which is exactly the simulator's interleaving model.
const ORD: Ordering = Ordering::SeqCst;

/// A shared memory on real atomics, laid out and initialized by a
/// [`SharedMem`] (an implementation's `init_memory()`).
///
/// Threads share it by reference and step machines on its
/// [`cells`](AtomicMem::cells) view, which implements [`Cells`]: a step
/// machine written for the simulator runs on it unchanged, one atomic
/// instruction per primitive. Writes and CASes keep [`SharedMem`]'s domain
/// checks, against a compact table of each cell's largest legal value.
///
/// The cell width follows from the layout. When every domain fits in a
/// byte, each cell is an `AtomicU8`: the register, set and queue algorithms
/// use binary or small cells, and a byte each puts a whole small object on
/// one cache line, which matters when threads stepping different roles
/// share it. Otherwise each cell is an `AtomicU64`, as the R-LLSC words of
/// Algorithms 5 and 6 need.
///
/// # Example
///
/// ```
/// use hi_sim::{AtomicMem, CellDomain, Cells, SharedMem};
///
/// let mut init = SharedMem::new();
/// let a = init.alloc_array("A", 2, CellDomain::Binary, 0);
/// let w = init.alloc("W", CellDomain::Word, 7);
/// let mem = AtomicMem::new(init);
/// let mut cells = mem.cells();
/// cells.write(a[1], 1);
/// assert!(cells.cas(a[1], 1, 0));
/// assert!(cells.cas(w, 7, u64::MAX));
/// assert_eq!(mem.snapshot(), vec![0, 0, u64::MAX]);
/// ```
#[derive(Debug)]
pub struct AtomicMem {
    cells: Slab,
    /// The largest legal value of each cell.
    max: Box<[u64]>,
    layout: SharedMem,
}

/// The cells of an [`AtomicMem`], at the width its layout picked.
#[derive(Debug)]
enum Slab {
    Bytes(Box<[AtomicU8]>),
    Words(Box<[AtomicU64]>),
}

/// A borrowed [`Slab`].
#[derive(Clone, Copy, Debug)]
enum Slice<'a> {
    Bytes(&'a [AtomicU8]),
    Words(&'a [AtomicU64]),
}

impl AtomicMem {
    /// Allocates one atomic cell per cell of `init`, holding its initial
    /// value: bytes if every domain fits in a byte, words otherwise.
    pub fn new(init: SharedMem) -> Self {
        let max: Box<[u64]> = init
            .iter()
            .map(|(_, info, _)| info.domain.states().map_or(u64::MAX, |s| s - 1))
            .collect();
        // Initial values lie in their domains, so they fit the width too.
        let values = init.iter().map(|(_, _, v)| v);
        let cells = if max.iter().all(|&m| m <= u64::from(u8::MAX)) {
            Slab::Bytes(values.map(|v| AtomicU8::new(v as u8)).collect())
        } else {
            Slab::Words(values.map(AtomicU64::new).collect())
        };
        AtomicMem {
            cells,
            max,
            layout: init,
        }
    }

    /// The [`Cells`] view of the arena. Take it once per operation, so the
    /// step loop holds the cell slice and the bound table in registers.
    #[inline]
    pub fn cells(&self) -> Arena<'_> {
        let cells = match &self.cells {
            Slab::Bytes(cells) => Slice::Bytes(cells),
            Slab::Words(cells) => Slice::Words(cells),
        };
        Arena {
            cells,
            max: &self.max,
            layout: &self.layout,
        }
    }

    /// `mem(C)`, one load per cell in layout order. The loads are atomic but
    /// the vector is not an atomic snapshot: it equals `mem(C)` only where
    /// no primitive runs concurrently.
    pub fn snapshot(&self) -> MemSnapshot {
        let mut cells = self.cells();
        (0..self.max.len()).map(|i| cells.read(CellId(i))).collect()
    }
}

/// The [`Cells`] view of an [`AtomicMem`]: its cells and their domain
/// bounds, by value.
#[derive(Clone, Copy, Debug)]
pub struct Arena<'a> {
    cells: Slice<'a>,
    max: &'a [u64],
    layout: &'a SharedMem,
}

impl Arena<'_> {
    /// The domain check of a write or CAS of `value` to `cell`; once it
    /// passes, `value` fits in the cell.
    #[inline]
    fn check(&self, cell: CellId, value: u64, prim: &str) {
        if value > self.max[cell.0] {
            self.layout.assert_in_domain(cell, value, prim);
        }
    }
}

// `#[inline]`: a threaded handle's step loop runs in the adapter's crate.
// `write` and `cas` are `#[inline(always)]`: the domain check's panic path
// otherwise keeps them out of line in Algorithm 5's hand loop.
impl Cells for Arena<'_> {
    #[inline]
    fn read(&mut self, cell: CellId) -> u64 {
        match self.cells {
            Slice::Bytes(cells) => u64::from(cells[cell.0].load(ORD)),
            Slice::Words(cells) => cells[cell.0].load(ORD),
        }
    }

    #[inline(always)]
    fn write(&mut self, cell: CellId, value: u64) {
        self.check(cell, value, "write of");
        match self.cells {
            Slice::Bytes(cells) => cells[cell.0].store(value as u8, ORD),
            Slice::Words(cells) => cells[cell.0].store(value, ORD),
        }
    }

    #[inline(always)]
    fn cas(&mut self, cell: CellId, expected: u64, new: u64) -> bool {
        self.check(cell, new, "CAS to");
        match self.cells {
            // A byte cell never holds an `expected` wider than a byte.
            Slice::Bytes(cells) => u8::try_from(expected).is_ok_and(|expected| {
                let cell = &cells[cell.0];
                cell.compare_exchange(expected, new as u8, ORD, ORD).is_ok()
            }),
            Slice::Words(cells) => cells[cell.0]
                .compare_exchange(expected, new, ORD, ORD)
                .is_ok(),
        }
    }

    #[inline]
    fn backoff(&mut self) {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::CellDomain;

    #[test]
    #[should_panic(expected = "write of 2 outside domain of b")]
    fn writes_keep_the_domain_check() {
        let mut init = SharedMem::new();
        let b = init.alloc("b", CellDomain::Binary, 0);
        let mem = AtomicMem::new(init);
        mem.cells().write(b, 2);
    }

    #[test]
    #[should_panic(expected = "CAS to 10 outside domain of x")]
    fn cas_keeps_the_domain_check() {
        let mut init = SharedMem::new();
        let x = init.alloc("x", CellDomain::Bounded(10), 0);
        let mem = AtomicMem::new(init);
        mem.cells().cas(x, 0, 10);
    }

    #[test]
    #[should_panic(expected = "CAS to 300 outside domain of w")]
    fn word_cells_keep_the_domain_check() {
        let mut init = SharedMem::new();
        let w = init.alloc("w", CellDomain::Bounded(300), 0);
        let mem = AtomicMem::new(init);
        assert!(matches!(mem.cells, Slab::Words(_)));
        mem.cells().cas(w, 0, 300);
    }

    #[test]
    fn the_widest_domain_picks_the_width() {
        let mut init = SharedMem::new();
        init.alloc("b", CellDomain::Bounded(256), 255);
        let mem = AtomicMem::new(init.clone());
        assert!(matches!(mem.cells, Slab::Bytes(_)));
        init.alloc("w", CellDomain::Word, u64::MAX);
        let mem = AtomicMem::new(init);
        assert!(matches!(mem.cells, Slab::Words(_)));
        assert_eq!(mem.snapshot(), vec![255, u64::MAX]);
    }

    #[test]
    fn primitives_match_shared_mem() {
        for domain in [CellDomain::Bounded(10), CellDomain::Word] {
            let mut init = SharedMem::new();
            let c = init.alloc("x", domain, 5);
            let mut sim = init.clone();
            let mem = AtomicMem::new(init);
            for (expected, new) in [(5, 6), (5, 7), (6, 9), (9 + 256, 0), (9, 0)] {
                let ok = mem.cells().cas(c, expected, new);
                assert_eq!(ok, sim.cas(c, expected, new), "{domain:?}");
                assert_eq!(mem.snapshot(), sim.snapshot(), "{domain:?}");
            }
        }
    }
}
