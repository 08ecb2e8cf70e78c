//! Bit packing of `(val, context)` R-LLSC states into one `u64` word.

/// The layout of an R-LLSC cell: `val` in the low `val_bits` bits, one
/// context bit per process above them.
///
/// The paper's Algorithm 6 stores the state `(v, c_1, …, c_n)` in a single
/// CAS object; this is the concrete encoding. The constructor refuses
/// layouts that do not fit in 64 bits rather than truncating.
///
/// # Example
///
/// ```
/// use hi_llsc::LlscLayout;
///
/// let layout = LlscLayout::new(8, 4); // 8-bit values, 4 processes
/// let cell = layout.pack(0x7f, 0b0101);
/// assert_eq!(layout.val(cell), 0x7f);
/// assert!(layout.has(cell, 0) && layout.has(cell, 2));
/// assert!(!layout.has(cell, 1));
/// assert_eq!(layout.val(layout.with_pid(cell, 1)), 0x7f);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LlscLayout {
    val_bits: u32,
    n: usize,
}

impl LlscLayout {
    /// Creates a layout with `val_bits` value bits and `n` context bits.
    ///
    /// # Panics
    ///
    /// Panics if `val_bits + n > 64`, if `val_bits == 0`, or if `n == 0`.
    pub fn new(val_bits: u32, n: usize) -> Self {
        assert!(val_bits > 0, "values need at least one bit");
        assert!(n > 0, "at least one process required");
        assert!(
            val_bits as usize + n <= 64,
            "layout overflows 64 bits: {val_bits} value bits + {n} context bits"
        );
        LlscLayout { val_bits, n }
    }

    /// Number of value bits.
    pub fn val_bits(&self) -> u32 {
        self.val_bits
    }

    /// Number of processes (context bits).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of distinct cell states, if representable (`None` for 64-bit
    /// layouts). Used by impossibility audits that need base-object sizes.
    pub fn states(&self) -> Option<u64> {
        let bits = self.val_bits as usize + self.n;
        (bits < 64).then(|| 1u64 << bits)
    }

    #[inline]
    fn val_mask(&self) -> u64 {
        if self.val_bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.val_bits) - 1
        }
    }

    #[inline]
    fn pid_bit(&self, pid: usize) -> u64 {
        assert!(pid < self.n, "pid {pid} out of range (n = {})", self.n);
        1u64 << (self.val_bits as usize + pid)
    }

    /// Packs `(val, context)`; `context` is a bitmask over pids.
    ///
    /// # Panics
    ///
    /// Panics if `val` or `context` overflow their fields.
    #[inline]
    pub fn pack(&self, val: u64, context: u64) -> u64 {
        assert!(
            val <= self.val_mask(),
            "value {val} overflows {} bits",
            self.val_bits
        );
        assert!(
            context < (1u64 << self.n),
            "context {context:#b} overflows {} bits",
            self.n
        );
        val | (context << self.val_bits)
    }

    /// The value field of a cell.
    #[inline]
    pub fn val(&self, cell: u64) -> u64 {
        cell & self.val_mask()
    }

    /// The context field of a cell, as a bitmask over pids.
    #[inline]
    pub fn context(&self, cell: u64) -> u64 {
        cell >> self.val_bits
    }

    /// Whether `pid` is in the cell's context.
    #[inline]
    pub fn has(&self, cell: u64, pid: usize) -> bool {
        cell & self.pid_bit(pid) != 0
    }

    /// The cell with `pid` added to the context.
    #[inline]
    pub fn with_pid(&self, cell: u64, pid: usize) -> u64 {
        cell | self.pid_bit(pid)
    }

    /// The cell with `pid` removed from the context.
    #[inline]
    pub fn without_pid(&self, cell: u64, pid: usize) -> u64 {
        cell & !self.pid_bit(pid)
    }

    /// A cell holding `val` with an empty context (the result of `SC` and
    /// `Store`).
    #[inline]
    pub fn reset(&self, val: u64) -> u64 {
        self.pack(val, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let l = LlscLayout::new(10, 6);
        for val in [0u64, 1, 555, 1023] {
            for ctx in [0u64, 1, 0b101010, 0b111111] {
                let cell = l.pack(val, ctx);
                assert_eq!(l.val(cell), val);
                assert_eq!(l.context(cell), ctx);
            }
        }
    }

    #[test]
    fn pid_membership() {
        let l = LlscLayout::new(4, 3);
        let mut cell = l.reset(9);
        assert_eq!(l.context(cell), 0);
        cell = l.with_pid(cell, 2);
        assert!(l.has(cell, 2));
        assert!(!l.has(cell, 0));
        cell = l.without_pid(cell, 2);
        assert_eq!(cell, l.reset(9));
    }

    #[test]
    fn states_counts() {
        assert_eq!(LlscLayout::new(2, 2).states(), Some(16));
        assert_eq!(LlscLayout::new(60, 4).states(), None);
    }

    #[test]
    #[should_panic(expected = "overflows 64 bits")]
    fn oversized_layout_rejected() {
        LlscLayout::new(60, 5);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn oversized_value_rejected() {
        LlscLayout::new(3, 2).pack(8, 0);
    }
}
