//! Fast, non-cryptographic hashing for hot paths.
//!
//! The Rust standard library defaults to SipHash 1-3, which is robust
//! against HashDoS but slow for the short integer keys that dominate this
//! system (row ids, dictionary codes, tuple-index vectors). We vendor a
//! ~40-line FxHash-style multiply-rotate hasher instead of pulling in an
//! extra dependency; the algorithm is the one used by rustc (`rustc-hash`).
//!
//! All inputs hashed with this hasher are system-generated (row ids,
//! dictionary codes), never attacker-controlled strings, so HashDoS
//! resistance is not required.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc Fx hash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style streaming hasher: for each machine word, `hash = (hash
/// rotl 5) ^ word) * SEED`.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf) ^ rem.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` replacement using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` replacement using [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// Hash a single `u64` without constructing a map (used by the raw
/// open-addressing tables in the execution engines).
#[inline]
pub fn hash_u64(x: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(x);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash_u64(42), hash_u64(42));
        assert_ne!(hash_u64(42), hash_u64(43));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        for i in 0..1000 {
            assert_eq!(m.get(&i), Some(&(i * 2)));
        }
    }

    #[test]
    fn bytes_vs_words_differ_by_length() {
        // Same prefix, different lengths must hash differently with high
        // probability (the remainder path xors in the length).
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 0]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn set_dedups() {
        let mut s: FxHashSet<Vec<u32>> = FxHashSet::default();
        assert!(s.insert(vec![1, 2, 3]));
        assert!(!s.insert(vec![1, 2, 3]));
        assert!(s.insert(vec![1, 2, 4]));
        assert_eq!(s.len(), 2);
    }
}
