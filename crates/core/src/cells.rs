//! Decoding arrays of binary cells.
//!
//! The paper's constructions (§4, §5) build multi-valued objects from arrays
//! of *binary* base registers. Those arrays now live in one place: the
//! simulator's step machines lay them out in a `hi_sim::SharedMem`, and the
//! threaded world runs the same machines on a `hi_sim::AtomicMem` built
//! from it. What stays here is the characteristic-vector decode that the
//! §5.1 set's sim audit and its `Layout::state_of` (which the threaded
//! adapter reads its arena through) share.

/// Decodes a characteristic-vector snapshot (entry `e-1` holds element `e`'s
/// bit) into the `SetSpec`/`HashSetSpec` state shape: a bitmask with bit `e`
/// set iff element `e` is present.
pub fn mask_of_bits(snap: &[u64]) -> u64 {
    snap.iter().enumerate().fold(0u64, |mask, (i, &b)| {
        if b == 1 {
            mask | (1 << (i as u64 + 1))
        } else {
            mask
        }
    })
}
