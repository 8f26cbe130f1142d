//! Join indexes on join-key columns.
//!
//! SkinnerDB's pre-processor creates hash tables "on all columns subject to
//! equality predicates" (§4.5). The custom multi-way join then replaces the
//! naive `index += 1` tuple advance with a *jump* "directly to the next
//! highest tuple index that satisfies at least all applicable equality
//! predicates" — here [`HashIndex::next_ge`], a binary search over a sorted
//! posting list.
//!
//! Postings are positions within the *filtered* tuple space handed to
//! [`HashIndex::build`] (only tuples surviving unary predicates are hashed,
//! as in the paper), which keeps the index small and probe results directly
//! usable as Skinner-C tuple indices. A table no unary predicate filters
//! has filtered positions equal to its base rows, so its index does not
//! depend on the query: [`Table::join_index`](crate::Table::join_index)
//! builds it once per column and shares it between queries.
//!
//! An index has one of two layouts, fixed by the keys alone. When the
//! non-NULL keys span at most twice as many values as there are entries
//! (`max − min + 1 ≤ 2n`, as id and foreign-key columns usually do), a
//! counting sort fills an offset array indexed by `key − min` and a
//! probe is one subtraction and two loads. Any other key
//! set — sparse integers, string and fused composite keys, which are
//! hashes — keeps a key → span hash map. Both layouts hold the same
//! posting lists in the same ascending order, so every probe answers
//! identically whichever layout was chosen.

use crate::column::Column;
use crate::hash::FxHashMap;

/// Where each key's span of the posting buffer is found.
#[derive(Debug, Clone)]
enum Spans {
    /// Keys span `offsets.len() - 1` values from `min`: key `k`'s postings
    /// are `offsets[k - min]..offsets[k - min + 1]`.
    Dense { min: i64, offsets: Vec<u32> },
    /// key → (start, len).
    Hashed(FxHashMap<i64, (u32, u32)>),
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::Hashed(FxHashMap::default())
    }
}

/// A value → sorted-posting-list index over one column.
///
/// Postings for all keys live in one buffer; the per-key lookup yields a
/// span of it. Compared to one `Vec<u32>` per key this halves the probe's
/// pointer chasing and keeps the whole index in two allocations — the
/// layout the compiled join kernel probes on every descent. The lookup is
/// an offset array when the keys are dense (span ≤ 2 × entries) and a
/// hash map otherwise (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    spans: Spans,
    /// All posting lists, concatenated; each span is sorted ascending.
    postings: Vec<u32>,
    /// Number of non-empty spans.
    distinct: usize,
}

impl HashIndex {
    /// Build an index over `col`.
    ///
    /// If `positions` is given, entry `i` of the index corresponds to base
    /// row `positions[i]` and postings contain *filtered positions*
    /// `0..positions.len()`; otherwise postings are base row ids. NULL rows
    /// are not indexed (NULL never matches an equality predicate).
    pub fn build(col: &Column, positions: Option<&[u32]>) -> HashIndex {
        // An i64-backed column without NULLs: its values are its keys.
        if let Some(vals) = col.i64s().filter(|_| !col.nullable()) {
            return match positions {
                Some(rows) => HashIndex::index(|| rows.iter().map(|&r| Some(vals[r as usize]))),
                None => HashIndex::index(|| vals.iter().map(|&v| Some(v))),
            };
        }
        let n = positions.map_or(col.len(), <[u32]>::len);
        // Keys computed once per row (string keys hash the value).
        let keys: Vec<Option<i64>> = (0..n)
            .map(|i| match positions {
                Some(rows) => col.join_key(rows[i] as usize),
                None => col.join_key(i),
            })
            .collect();
        HashIndex::from_keys(&keys)
    }

    /// Build from precomputed per-entry keys (`None` = not indexed).
    /// Entry `i` of `keys` becomes posting `i`; postings per key come out
    /// sorted ascending.
    ///
    /// This is also the *composite-key* build path: the engine fuses
    /// multi-column keys once per row
    /// ([`fused_join_key`](crate::column::fused_join_key)) and indexes
    /// the fused keys of its filtered rows directly. Fused keys are
    /// hashes, so consumers re-verify the underlying equality conjuncts
    /// after a probe — collisions cost extra checks, never wrong
    /// results.
    pub fn from_keys(keys: &[Option<i64>]) -> HashIndex {
        HashIndex::index(|| keys.iter().copied())
    }

    /// Index the entries `keys()` yields (it is called once per pass),
    /// choosing the layout by the span rule.
    fn index<I>(keys: impl Fn() -> I) -> HashIndex
    where
        I: DoubleEndedIterator<Item = Option<i64>> + ExactSizeIterator,
    {
        let (mut lo, mut hi, mut total) = (i64::MAX, i64::MIN, 0usize);
        for k in keys().flatten() {
            lo = lo.min(k);
            hi = hi.max(k);
            total += 1;
        }
        if total == 0 {
            return HashIndex::default();
        }
        // i128: the span of an i64::MIN..=i64::MAX column overflows i64.
        let span = i128::from(hi) - i128::from(lo) + 1;
        if span > 2 * total as i128 {
            return HashIndex::hashed(keys, total);
        }
        // Counting sort. Count each key into its slot, turn the counts
        // into inclusive prefix sums (slot k = the end of k's postings;
        // the extra last slot, counted 0, ends up as `total`), then
        // scatter from the last entry back, decrementing the slot as the
        // write cursor: each key's postings fill back to front, so they
        // come out ascending and every slot ends at its start.
        let mut offsets = vec![0u32; span as usize + 1];
        for k in keys().flatten() {
            offsets[(k - lo) as usize] += 1;
        }
        let (mut end, mut distinct) = (0u32, 0usize);
        for o in &mut offsets {
            distinct += usize::from(*o > 0);
            end += *o;
            *o = end;
        }
        let mut postings = vec![0u32; total];
        for (i, k) in keys().enumerate().rev() {
            if let Some(k) = k {
                let o = &mut offsets[(k - lo) as usize];
                *o -= 1;
                postings[*o as usize] = i as u32;
            }
        }
        debug_assert!(offsets.windows(2).all(|w| {
            postings[w[0] as usize..w[1] as usize]
                .windows(2)
                .all(|p| p[0] < p[1])
        }));
        HashIndex {
            spans: Spans::Dense { min: lo, offsets },
            postings,
            distinct,
        }
    }

    /// The hash-map layout over `total` non-NULL entries.
    fn hashed<I>(keys: impl Fn() -> I, total: usize) -> HashIndex
    where
        I: Iterator<Item = Option<i64>>,
    {
        // Pass 1: count entries per key (len field doubles as counter).
        let mut spans: FxHashMap<i64, (u32, u32)> = FxHashMap::default();
        for k in keys().flatten() {
            spans.entry(k).or_insert((0, 0)).1 += 1;
        }
        // Carve spans; reset len to 0 to reuse as the write cursor.
        let mut cursor = 0u32;
        for span in spans.values_mut() {
            span.0 = cursor;
            cursor += span.1;
            span.1 = 0;
        }
        // Pass 2: scatter. Rows are visited in ascending position order,
        // so each key's postings come out sorted; len is restored to the
        // count by the time the pass ends.
        let mut postings = vec![0u32; total];
        for (i, k) in keys().enumerate() {
            if let Some(k) = k {
                let span = spans.get_mut(&k).expect("counted key");
                postings[(span.0 + span.1) as usize] = i as u32;
                span.1 += 1;
            }
        }
        debug_assert!(spans.values().all(|&(s, l)| {
            postings[s as usize..(s + l) as usize]
                .windows(2)
                .all(|w| w[0] < w[1])
        }));
        HashIndex {
            distinct: spans.len(),
            spans: Spans::Hashed(spans),
            postings,
        }
    }

    /// All positions whose join key equals `key` (ascending). String keys
    /// are hashes, so callers must re-verify the underlying predicate.
    #[inline]
    pub fn probe(&self, key: i64) -> &[u32] {
        let (start, end) = match &self.spans {
            Spans::Dense { min, offsets } => {
                // Keys below `min` wrap to huge offsets and miss too.
                let i = key.wrapping_sub(*min) as u64;
                if i >= (offsets.len() - 1) as u64 {
                    return &[];
                }
                (offsets[i as usize], offsets[i as usize + 1])
            }
            Spans::Hashed(spans) => match spans.get(&key) {
                Some(&(start, len)) => (start, start + len),
                None => return &[],
            },
        };
        &self.postings[start as usize..end as usize]
    }

    /// Smallest indexed position `>= min` with the given key — the §4.5
    /// "jump". Returns `None` when the key's posting list is exhausted.
    #[inline]
    pub fn next_ge(&self, key: i64, min: u32) -> Option<u32> {
        let list = self.probe(key);
        let i = list.partition_point(|&p| p < min);
        list.get(i).copied()
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.distinct
    }

    /// Number of indexed entries (non-NULL rows).
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// True if nothing was indexed.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// Approximate heap footprint in bytes: the posting buffer plus the
    /// offset array or the hash map's entries (reported per query as
    /// `ExecMetrics::index_bytes`).
    pub fn approx_bytes(&self) -> usize {
        let lookup = match &self.spans {
            Spans::Dense { offsets, .. } => offsets.len() * std::mem::size_of::<u32>(),
            Spans::Hashed(spans) => {
                spans.len() * (std::mem::size_of::<i64>() + std::mem::size_of::<(u32, u32)>())
            }
        };
        lookup + self.postings.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{fused_join_key, ColumnBuilder};
    use crate::value::{Value, ValueType};

    #[test]
    fn build_over_all_rows() {
        let col = Column::from_ints(vec![5, 7, 5, 5, 7]);
        let idx = HashIndex::build(&col, None);
        assert_eq!(idx.probe(5), &[0, 2, 3]);
        assert_eq!(idx.probe(7), &[1, 4]);
        assert_eq!(idx.probe(9), &[] as &[u32]);
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.len(), 5);
    }

    fn is_dense(idx: &HashIndex) -> bool {
        matches!(idx.spans, Spans::Dense { .. })
    }

    #[test]
    fn dense_keys_get_the_offset_array() {
        // Span 3 over 3 entries.
        let idx = HashIndex::build(&Column::from_ints(vec![5, 7, 5]), None);
        assert!(is_dense(&idx));
        assert_eq!(idx.probe(5), &[0, 2]);
        assert_eq!(idx.probe(6), &[] as &[u32]);
        assert_eq!(idx.probe(7), &[1]);
        for miss in [4, 8, i64::MIN, i64::MAX] {
            assert_eq!(idx.probe(miss), &[] as &[u32], "key {miss}");
        }
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.approx_bytes(), 4 * 4 + 3 * 4);
    }

    #[test]
    fn sparse_keys_stay_hashed() {
        let idx = HashIndex::build(&Column::from_ints(vec![0, 1 << 40]), None);
        assert!(!is_dense(&idx));
        assert_eq!(idx.probe(1 << 40), &[1]);
        assert_eq!(idx.probe(1), &[] as &[u32]);
    }

    #[test]
    fn full_i64_range_is_hashed_without_overflow() {
        let idx = HashIndex::build(&Column::from_ints(vec![i64::MIN, i64::MAX]), None);
        assert!(!is_dense(&idx));
        assert_eq!(idx.probe(i64::MIN), &[0]);
        assert_eq!(idx.probe(i64::MAX), &[1]);
        let idx = HashIndex::from_keys(&[Some(i64::MAX), None, Some(i64::MIN)]);
        assert!(!is_dense(&idx));
        assert_eq!(idx.probe(i64::MAX), &[0]);
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn build_over_filtered_positions() {
        let col = Column::from_ints(vec![5, 7, 5, 5, 7]);
        // filtered space keeps base rows 1,2,4 → positions 0,1,2
        let idx = HashIndex::build(&col, Some(&[1, 2, 4]));
        assert_eq!(idx.probe(7), &[0, 2]);
        assert_eq!(idx.probe(5), &[1]);
    }

    #[test]
    fn next_ge_jumps() {
        let col = Column::from_ints(vec![5, 7, 5, 5, 7, 5]);
        let idx = HashIndex::build(&col, None);
        assert_eq!(idx.next_ge(5, 0), Some(0));
        assert_eq!(idx.next_ge(5, 1), Some(2));
        assert_eq!(idx.next_ge(5, 3), Some(3));
        assert_eq!(idx.next_ge(5, 4), Some(5));
        assert_eq!(idx.next_ge(5, 6), None);
        assert_eq!(idx.next_ge(42, 0), None);
    }

    #[test]
    fn nulls_not_indexed() {
        let mut b = ColumnBuilder::new(ValueType::Int);
        b.push(&Value::Int(1));
        b.push(&Value::Null);
        b.push(&Value::Int(1));
        let col = b.finish();
        let idx = HashIndex::build(&col, None);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.probe(1), &[0, 2]);
    }

    #[test]
    fn string_keys_probe() {
        let col = Column::from_strs(["x", "y", "x"]);
        let idx = HashIndex::build(&col, None);
        let key = col.join_key(0).unwrap();
        assert_eq!(idx.probe(key), &[0, 2]);
    }

    /// Composite build as the engine does it: fuse per-row keys, index
    /// the fused keys of the (possibly filtered) rows with `from_keys`.
    fn composite_index(cols: &[&Column], positions: Option<&[u32]>) -> HashIndex {
        let n = positions.map_or(cols[0].len(), <[u32]>::len);
        let keys: Vec<Option<i64>> = (0..n)
            .map(|i| {
                let row = match positions {
                    Some(rows) => rows[i] as usize,
                    None => i,
                };
                fused_join_key(cols.iter().copied(), row)
            })
            .collect();
        HashIndex::from_keys(&keys)
    }

    #[test]
    fn composite_from_keys_and_probe() {
        // (k1, k2) pairs; rows 0 and 3 collide on the pair, row 1 shares
        // only k1 and row 2 only k2 — the composite key must separate
        // them where a single-column index could not.
        let k1 = Column::from_ints(vec![1, 1, 9, 1]);
        let k2 = Column::from_ints(vec![5, 6, 5, 5]);
        let idx = composite_index(&[&k1, &k2], None);
        let key = fused_join_key([&k1, &k2], 0).unwrap();
        assert_eq!(idx.probe(key), &[0, 3]);
        assert_eq!(idx.next_ge(key, 1), Some(3));
        assert_eq!(idx.next_ge(key, 4), None);
        assert_eq!(idx.distinct_keys(), 3);
        assert_eq!(idx.len(), 4);
    }

    #[test]
    fn composite_over_filtered_positions_skips_nulls() {
        let k1 = Column::from_ints(vec![1, 2, 1, 1]);
        let mut b = ColumnBuilder::new(ValueType::Int);
        for v in [Value::Int(5), Value::Int(5), Value::Null, Value::Int(5)] {
            b.push(&v);
        }
        let k2 = b.finish();
        // Filtered space keeps base rows 0, 2, 3 → positions 0, 1, 2;
        // base row 2 has a NULL component and must not be indexed.
        let idx = composite_index(&[&k1, &k2], Some(&[0, 2, 3]));
        let key = fused_join_key([&k1, &k2], 0).unwrap();
        assert_eq!(idx.probe(key), &[0, 2]);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn composite_dates_participate() {
        let d = Column::from_dates(vec![100, 200, 100]);
        let k = Column::from_ints(vec![1, 1, 1]);
        let idx = composite_index(&[&d, &k], None);
        let key = fused_join_key([&d, &k], 0).unwrap();
        assert_eq!(idx.probe(key), &[0, 2]);
    }
}
