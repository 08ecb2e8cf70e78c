//! The threaded world's memory: one atomic byte per base object.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::mem::{CellId, MemSnapshot, SharedMem};
use crate::process::Cells;

/// Every primitive is sequentially consistent: the paper assumes atomic base
/// objects, which is exactly the simulator's interleaving model.
const ORD: Ordering = Ordering::SeqCst;

/// A shared memory on real atomics, laid out and initialized by a
/// [`SharedMem`] (an implementation's `init_memory()`).
///
/// Threads share it by reference: `&AtomicMem` implements [`Cells`], so a
/// step machine written for the simulator runs on it unchanged, one atomic
/// instruction per primitive. Writes and CASes keep [`SharedMem`]'s domain
/// checks, against a compact table of each cell's largest legal value.
///
/// Each cell is one byte, so every domain must fit in a byte. The register,
/// set and queue algorithms that run here use binary cells, and a byte each
/// puts a whole small object on one cache line, which matters when threads
/// stepping different roles share it.
///
/// # Example
///
/// ```
/// use hi_sim::{AtomicMem, CellDomain, Cells, SharedMem};
///
/// let mut init = SharedMem::new();
/// let a = init.alloc_array("A", 2, CellDomain::Binary, 0);
/// let mem = AtomicMem::new(init);
/// let mut cells = &mem;
/// cells.write(a[1], 1);
/// assert!(cells.cas(a[1], 1, 0));
/// assert_eq!(mem.snapshot(), vec![0, 0]);
/// ```
#[derive(Debug)]
pub struct AtomicMem {
    cells: Box<[AtomicU8]>,
    /// The largest legal value of each cell.
    max: Box<[u8]>,
    layout: SharedMem,
}

impl AtomicMem {
    /// Allocates one atomic byte per cell of `init`, holding its initial
    /// value.
    ///
    /// # Panics
    ///
    /// Panics if a cell's domain does not fit in a byte.
    pub fn new(init: SharedMem) -> Self {
        let max = init
            .iter()
            .map(|(_, info, _)| {
                let max = info.domain.states().and_then(|s| u8::try_from(s - 1).ok());
                max.unwrap_or_else(|| panic!("domain of {} does not fit in a byte", info.name))
            })
            .collect();
        // Initial values lie in their domains, so they fit too.
        let cells = init.iter().map(|(_, _, v)| AtomicU8::new(v as u8));
        AtomicMem {
            cells: cells.collect(),
            max,
            layout: init,
        }
    }

    /// The domain check of a write or CAS of `value` to `cell`; once it
    /// passes, `value` fits in the cell's byte.
    #[inline]
    fn check(&self, cell: CellId, value: u64, prim: &str) {
        if value > u64::from(self.max[cell.0]) {
            self.layout.assert_in_domain(cell, value, prim);
        }
    }

    /// `mem(C)`, one load per cell in layout order. The loads are atomic but
    /// the vector is not an atomic snapshot: it equals `mem(C)` only where
    /// no primitive runs concurrently.
    pub fn snapshot(&self) -> MemSnapshot {
        self.cells.iter().map(|c| u64::from(c.load(ORD))).collect()
    }
}

// `#[inline]`: a threaded handle's step loop runs in the adapter's crate.
impl Cells for &AtomicMem {
    #[inline]
    fn read(&mut self, cell: CellId) -> u64 {
        u64::from(self.cells[cell.0].load(ORD))
    }

    #[inline]
    fn write(&mut self, cell: CellId, value: u64) {
        self.check(cell, value, "write of");
        self.cells[cell.0].store(value as u8, ORD);
    }

    #[inline]
    fn cas(&mut self, cell: CellId, expected: u64, new: u64) -> bool {
        self.check(cell, new, "CAS to");
        // A cell never holds an `expected` wider than a byte.
        u8::try_from(expected).is_ok_and(|expected| {
            self.cells[cell.0]
                .compare_exchange(expected, new as u8, ORD, ORD)
                .is_ok()
        })
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
        (&mem).write(b, 2);
    }

    #[test]
    #[should_panic(expected = "CAS to 10 outside domain of x")]
    fn cas_keeps_the_domain_check() {
        let mut init = SharedMem::new();
        let x = init.alloc("x", CellDomain::Bounded(10), 0);
        let mem = AtomicMem::new(init);
        (&mem).cas(x, 0, 10);
    }

    #[test]
    #[should_panic(expected = "domain of w does not fit in a byte")]
    fn word_cells_are_rejected() {
        let mut init = SharedMem::new();
        init.alloc("w", CellDomain::Word, 0);
        AtomicMem::new(init);
    }

    #[test]
    fn primitives_match_shared_mem() {
        let mut init = SharedMem::new();
        let c = init.alloc("x", CellDomain::Bounded(10), 5);
        let mut sim = init.clone();
        let mem = AtomicMem::new(init);
        let mut cells = &mem;
        for (expected, new) in [(5, 6), (5, 7), (6, 9), (9 + 256, 0)] {
            assert_eq!(cells.cas(c, expected, new), sim.cas(c, expected, new));
            assert_eq!(mem.snapshot(), sim.snapshot());
        }
    }
}
