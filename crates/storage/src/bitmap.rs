//! A plain bitset used for row selections and validity masks.

/// A fixed-length bitmap over row positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-one bitmap covering `len` rows.
    pub(crate) fn ones(len: usize) -> Bitmap {
        let mut b = Bitmap {
            words: vec![!0u64; len.div_ceil(64)],
            len,
        };
        b.clear_tail();
        b
    }

    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(w) = self.words.last_mut() {
                *w &= (1u64 << tail) - 1;
            }
        }
    }

    /// Get bit `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i` to `v`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, v: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_ones(b: &Bitmap) -> usize {
        b.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    #[test]
    fn zeros_and_ones() {
        let o = Bitmap::ones(70);
        assert_eq!(count_ones(&o), 70);
        assert!(o.get(69));
        let mut z = Bitmap::ones(70);
        for i in 0..70 {
            z.set(i, false);
        }
        assert_eq!(count_ones(&z), 0);
    }

    #[test]
    fn ones_tail_is_clean() {
        // No garbage bits beyond `len`: equality and counts see only rows.
        let o = Bitmap::ones(3);
        assert_eq!(count_ones(&o), 3);
        let o = Bitmap::ones(64);
        assert_eq!(count_ones(&o), 64);
        let o = Bitmap::ones(65);
        assert_eq!(count_ones(&o), 65);
    }

    #[test]
    fn set_get() {
        let mut b = Bitmap::ones(100);
        b.set(1, false);
        b.set(63, false);
        assert!(b.get(0) && b.get(64) && b.get(99));
        assert!(!b.get(1) && !b.get(63));
        b.set(63, true);
        assert!(b.get(63));
        assert_eq!(count_ones(&b), 99);
    }

    #[test]
    fn empty() {
        let b = Bitmap::ones(0);
        assert!(b.words.is_empty());
        assert_eq!(count_ones(&b), 0);
    }
}
