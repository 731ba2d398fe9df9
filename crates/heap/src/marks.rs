//! The heap's slot bitmaps: one bit per slot, held outside the slot table.
//!
//! Keeping mark state in a dense `u64` bitmap (rather than as a `bool`
//! inside each slot) makes `clear_marks` at cycle start a word-wise zeroing
//! pass instead of a walk over every slot, and makes the marked-object count
//! a popcount instead of a slot scan. The heap keeps a second bitmap of the
//! same type for its allocated slots, so the sweep reads `allocated & !marked`
//! a word at a time.

/// A growable bitmap indexed by slot index: the heap's mark bits and its
/// allocated bits, and the collector's per-cycle sets of goroutine and heap
/// slots.
#[derive(Debug, Clone, Default)]
pub struct MarkBits {
    words: Vec<u64>,
}

impl MarkBits {
    /// An empty bitmap.
    pub fn new() -> Self {
        MarkBits::default()
    }

    /// Grows the bitmap until it covers at least `slots` slots.
    pub fn ensure(&mut self, slots: usize) {
        let words = slots.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    /// Sets the bit for `index`, returning `true` exactly when it was
    /// previously clear. Grows the bitmap on demand.
    pub fn try_set(&mut self, index: usize) -> bool {
        self.ensure(index + 1);
        let word = &mut self.words[index >> 6];
        let bit = 1u64 << (index & 63);
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        true
    }

    /// Clears the bit for `index` (no-op beyond the covered range).
    pub fn clear(&mut self, index: usize) {
        if let Some(word) = self.words.get_mut(index >> 6) {
            *word &= !(1u64 << (index & 63));
        }
    }

    /// Whether the bit for `index` is set (`false` beyond the covered
    /// range).
    pub fn is_set(&self, index: usize) -> bool {
        self.words.get(index >> 6).is_some_and(|w| w & (1u64 << (index & 63)) != 0)
    }

    /// The 64 bits for slots `64 * word ..`, zero beyond the covered range.
    pub(crate) fn word(&self, word: usize) -> u64 {
        self.words.get(word).copied().unwrap_or(0)
    }

    /// Number of words the bitmap covers.
    pub(crate) fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Zeroes every bit.
    pub fn clear_all(&mut self) {
        // `fill` on a never-grown bitmap still calls `memset` on the empty
        // `Vec`'s dangling pointer, which measured ~160 ns per call on a
        // 2-vCPU VM: more than a tenth of a small heap's whole GC pause.
        if !self.words.is_empty() {
            self.words.fill(0);
        }
    }

    /// Total set bits (a popcount).
    pub fn set_count(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_roundtrip() {
        let mut m = MarkBits::new();
        assert!(!m.is_set(0));
        assert!(m.try_set(0));
        assert!(!m.try_set(0), "second set reports already-set");
        assert!(m.is_set(0));
        m.clear(0);
        assert!(!m.is_set(0));
    }

    #[test]
    fn grows_on_demand() {
        let mut m = MarkBits::new();
        assert!(m.try_set(64)); // second word
        assert!(!m.is_set(63), "bits in the grown range start clear");
        assert!(!m.is_set(10_000), "beyond covered range reads as clear");
        m.clear(10_000); // beyond covered range: no-op
    }

    #[test]
    fn clear_all_and_popcount() {
        let mut m = MarkBits::new();
        for i in [0usize, 1, 63, 64, 130, 700] {
            m.try_set(i);
        }
        assert_eq!(m.set_count(), 6);
        m.clear_all();
        assert_eq!(m.set_count(), 0);
        assert!(!m.is_set(700));
    }

    #[test]
    fn words_expose_the_bits() {
        let mut m = MarkBits::new();
        m.try_set(1);
        m.try_set(65);
        assert_eq!(m.word_count(), 2);
        assert_eq!(m.word(0), 0b10);
        assert_eq!(m.word(1), 0b10);
        assert_eq!(m.word(5), 0, "beyond covered range reads as zero");
    }
}
