//! A plain bitset used for row selections and validity masks.

/// A fixed-length bitmap over row positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zero bitmap covering `len` rows.
    pub fn zeros(len: usize) -> Bitmap {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-one bitmap covering `len` rows.
    pub fn ones(len: usize) -> Bitmap {
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

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Get bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i` to `v`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterator over the positions of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let tz = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = Bitmap::zeros(70);
        assert_eq!(z.count_ones(), 0);
        let o = Bitmap::ones(70);
        assert_eq!(o.count_ones(), 70);
        assert!(o.get(69));
    }

    #[test]
    fn ones_tail_is_clean() {
        // count_ones must not count garbage beyond `len`
        let o = Bitmap::ones(3);
        assert_eq!(o.count_ones(), 3);
        let o = Bitmap::ones(64);
        assert_eq!(o.count_ones(), 64);
        let o = Bitmap::ones(65);
        assert_eq!(o.count_ones(), 65);
    }

    #[test]
    fn set_get() {
        let mut b = Bitmap::zeros(100);
        b.set(0, true);
        b.set(63, true);
        b.set(64, true);
        b.set(99, true);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(99));
        assert!(!b.get(1));
        b.set(63, false);
        assert!(!b.get(63));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn iter_ones_order() {
        let mut b = Bitmap::zeros(200);
        for i in [0usize, 5, 64, 128, 199] {
            b.set(i, true);
        }
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, vec![0, 5, 64, 128, 199]);
    }

    #[test]
    fn empty() {
        let b = Bitmap::zeros(0);
        assert!(b.is_empty());
        assert_eq!(b.iter_ones().count(), 0);
    }
}
