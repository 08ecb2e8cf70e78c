//! Shared base objects and memory snapshots.

use std::fmt;

/// Index of a base object in the shared memory.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CellId(pub usize);

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The declared state space of a base object.
///
/// The paper's impossibility results hinge on the number of states a base
/// object can take (e.g. binary registers have 2 states; Theorem 17 applies
/// when every base object has fewer than `t` states). Declaring the domain
/// lets the simulator enforce it and lets the lower-bound adversary inspect
/// it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CellDomain {
    /// A binary register: values in `{0, 1}`.
    Binary,
    /// A bounded object with the given number of states: values in
    /// `0..states`.
    Bounded(u64),
    /// An unconstrained 64-bit word (used by the universal construction,
    /// whose base objects are deliberately large).
    Word,
}

impl CellDomain {
    /// The number of states, if bounded.
    #[inline]
    pub fn states(&self) -> Option<u64> {
        match self {
            CellDomain::Binary => Some(2),
            CellDomain::Bounded(s) => Some(*s),
            CellDomain::Word => None,
        }
    }

    /// Whether `value` is legal for this domain.
    #[inline]
    pub fn contains(&self, value: u64) -> bool {
        match self.states() {
            Some(s) => value < s,
            None => true,
        }
    }
}

/// Metadata of one base object.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CellInfo {
    /// Human-readable name (e.g. `A[3]`), used in traces.
    pub name: String,
    /// Declared state space.
    pub domain: CellDomain,
}

/// The memory representation `mem(C)`: the states of all base objects.
pub type MemSnapshot = Vec<u64>;

/// The shared memory: a vector of base objects, each a `u64` with declared
/// domain.
///
/// Implementations allocate their cells once at construction time (fixing
/// the memory layout, as required for canonical representations) and the
/// executor clones the initial memory for each run.
///
/// # Example
///
/// ```
/// use hi_sim::{CellDomain, SharedMem};
///
/// let mut mem = SharedMem::new();
/// let a = mem.alloc_array("A", 3, CellDomain::Binary, 0);
/// mem.write(a[1], 1);
/// assert_eq!(mem.snapshot(), vec![0, 1, 0]);
/// assert!(mem.cas(a[1], 1, 0));
/// assert!(!mem.cas(a[1], 1, 0), "CAS fails on stale expected value");
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SharedMem {
    cells: Vec<u64>,
    info: Vec<CellInfo>,
}

impl SharedMem {
    /// Creates an empty memory.
    pub fn new() -> Self {
        SharedMem::default()
    }

    /// Allocates one cell with the given name, domain and initial value.
    ///
    /// # Panics
    ///
    /// Panics if `init` is outside `domain`.
    pub fn alloc(&mut self, name: impl Into<String>, domain: CellDomain, init: u64) -> CellId {
        assert!(domain.contains(init), "initial value out of domain");
        let id = CellId(self.cells.len());
        self.cells.push(init);
        self.info.push(CellInfo {
            name: name.into(),
            domain,
        });
        id
    }

    /// Allocates `n` cells named `prefix[0] … prefix[n-1]`, all with the same
    /// domain and initial value.
    pub fn alloc_array(
        &mut self,
        prefix: &str,
        n: usize,
        domain: CellDomain,
        init: u64,
    ) -> Vec<CellId> {
        (0..n)
            .map(|i| self.alloc(format!("{prefix}[{i}]"), domain, init))
            .collect()
    }

    /// Number of base objects.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the memory has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Reads the state of a base object.
    pub fn read(&self, cell: CellId) -> u64 {
        self.cells[cell.0]
    }

    /// Writes the state of a base object.
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside the cell's declared domain.
    pub fn write(&mut self, cell: CellId, value: u64) {
        self.assert_in_domain(cell, value, "write of");
        self.cells[cell.0] = value;
    }

    /// Compare-and-swap: if the cell holds `expected`, replace it with `new`
    /// and return `true`; otherwise leave it unchanged and return `false`.
    ///
    /// # Panics
    ///
    /// Panics if `new` is outside the cell's declared domain.
    pub fn cas(&mut self, cell: CellId, expected: u64, new: u64) -> bool {
        self.assert_in_domain(cell, new, "CAS to");
        if self.cells[cell.0] == expected {
            self.cells[cell.0] = new;
            true
        } else {
            false
        }
    }

    /// The domain check of [`write`](SharedMem::write) and
    /// [`cas`](SharedMem::cas), shared with [`AtomicMem`](crate::AtomicMem).
    #[inline]
    pub(crate) fn assert_in_domain(&self, cell: CellId, value: u64, prim: &str) {
        let info = &self.info[cell.0];
        assert!(
            info.domain.contains(value),
            "{prim} {value} outside domain of {}",
            info.name
        );
    }

    /// The memory representation `mem(C)` of the current configuration.
    pub fn snapshot(&self) -> MemSnapshot {
        self.cells.clone()
    }

    /// Metadata of one cell.
    pub fn info(&self, cell: CellId) -> &CellInfo {
        &self.info[cell.0]
    }

    /// The name of one cell (convenience for trace rendering).
    pub fn name(&self, cell: CellId) -> &str {
        &self.info[cell.0].name
    }

    /// Iterates over `(id, info, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, &CellInfo, u64)> {
        self.info
            .iter()
            .zip(self.cells.iter())
            .enumerate()
            .map(|(i, (info, v))| (CellId(i), info, *v))
    }

    /// Renders a snapshot against this memory's layout, e.g.
    /// `A[0]=1 A[1]=0 flag=1`.
    pub fn render_snapshot(&self, snap: &MemSnapshot) -> String {
        assert_eq!(snap.len(), self.cells.len(), "snapshot/layout mismatch");
        self.info
            .iter()
            .zip(snap.iter())
            .map(|(info, v)| format!("{}={}", info.name, v))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The Hamming distance between two snapshots: the number of base
    /// objects on which they differ (the paper's `distance` in Proposition 6).
    pub fn distance(a: &MemSnapshot, b: &MemSnapshot) -> usize {
        assert_eq!(a.len(), b.len(), "snapshots of different layouts");
        a.iter().zip(b.iter()).filter(|(x, y)| x != y).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_rw() {
        let mut mem = SharedMem::new();
        let c = mem.alloc("x", CellDomain::Word, 42);
        assert_eq!(mem.read(c), 42);
        mem.write(c, 7);
        assert_eq!(mem.read(c), 7);
        assert_eq!(mem.name(c), "x");
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn binary_rejects_two() {
        let mut mem = SharedMem::new();
        let c = mem.alloc("b", CellDomain::Binary, 0);
        mem.write(c, 2);
    }

    #[test]
    fn cas_semantics() {
        let mut mem = SharedMem::new();
        let c = mem.alloc("x", CellDomain::Bounded(10), 5);
        assert!(mem.cas(c, 5, 6));
        assert_eq!(mem.read(c), 6);
        assert!(!mem.cas(c, 5, 7));
        assert_eq!(mem.read(c), 6);
    }

    #[test]
    fn snapshot_distance() {
        assert_eq!(SharedMem::distance(&vec![1, 0, 1], &vec![1, 1, 0]), 2);
        assert_eq!(SharedMem::distance(&vec![], &vec![]), 0);
    }

    #[test]
    fn array_names() {
        let mut mem = SharedMem::new();
        let a = mem.alloc_array("A", 2, CellDomain::Binary, 0);
        assert_eq!(mem.name(a[0]), "A[0]");
        assert_eq!(mem.name(a[1]), "A[1]");
    }

    #[test]
    fn render() {
        let mut mem = SharedMem::new();
        mem.alloc("x", CellDomain::Word, 1);
        mem.alloc("y", CellDomain::Word, 2);
        assert_eq!(mem.render_snapshot(&mem.snapshot()), "x=1 y=2");
    }
}
