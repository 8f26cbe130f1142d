//! Kernel shape keys: what makes two (query, order) pairs share a
//! compiled kernel.
//!
//! A compiled kernel is specialized on the *shape* of a bound order plan
//! — how many tables it joins, what kind of index jump drives each
//! position, and the structural fingerprint of each position's predicate
//! set — not on the data or the constants. [`KernelKey`] captures exactly
//! that shape, so the [`KernelCache`](crate::KernelCache) can recognize a
//! repeated shape across slices, across orders, and across queries (a
//! warm service-layer template produces the same keys as its first
//! execution).

use crate::kernel::KernelPosition;
use skinner_query::BoundPred;
use skinner_storage::hash::FxHasher;
use std::fmt;
use std::hash::Hasher;

/// Smallest join-order arity with a compiled kernel: every non-empty
/// order compiles, a single table to a one-position scan. Kept only for
/// `benchmark/`, whose ROADMAP item 2 `[benchmark]` commit removes it.
pub const MIN_KERNEL_TABLES: usize = 1;

/// The kind of tuple advance at one join-order position: the shape-level
/// projection of a [`KernelJump`](crate::KernelJump).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum JumpKind {
    /// No hash-index jump: candidates are consecutive filtered positions.
    #[default]
    Scan,
    /// Index jump keyed by a non-nullable `i64` column. Postings are
    /// exact (integer keys are their own join keys), so the driving
    /// equality predicate can be elided when it compiled to the exact
    /// integer fast path.
    Int,
    /// Index jump keyed by a non-nullable `f64` column (bit-pattern
    /// keys). Postings enumerate the right candidates but predicates are
    /// always re-verified (NaN never equals itself even when the bits do).
    Float,
    /// Index jump keyed by a precomputed fused composite-key vector
    /// (`Option<i64>` per base row, see the engine's
    /// `CompositeKeyGroup`). Fused keys are hash-derived, so the driving
    /// conjuncts are always re-verified (never elided); a `None` entry is
    /// a NULL component and the jump rejects it outright (no candidates).
    Fused,
    /// Index jump keyed by `Column::join_key` — string and nullable key
    /// columns. String keys are content hashes (dictionary codes are
    /// per-column and incomparable across tables), so predicates are
    /// always re-verified; a `None` key (NULL) yields no candidates.
    Key,
}

/// Shape identity of a compiled kernel: per-position jump kinds (their
/// count is the table count) and a fingerprint of the per-position
/// predicate shapes (variant tags plus elision flags, no constants).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KernelKey {
    /// Jump kind per join-order position.
    jumps: Box<[JumpKind]>,
    /// Structural fingerprint of the per-position predicate sets.
    pred_fp: u64,
}

impl KernelKey {
    /// The key of an order's compiled positions.
    pub fn of(positions: &[KernelPosition<'_>]) -> KernelKey {
        KernelKey::new(
            positions
                .iter()
                .map(|p| (p.jump.kind(), p.preds.as_slice(), p.elided)),
        )
    }

    /// Build the key of an order from its per-position `(jump kind,
    /// predicate set, jump-predicate elided)` descriptions, one per
    /// join-order position.
    pub(crate) fn new<'a, I>(positions: I) -> KernelKey
    where
        I: IntoIterator<Item = (JumpKind, &'a [BoundPred<'a>], bool)>,
    {
        let mut jumps = Vec::new();
        let mut h = FxHasher::default();
        for (kind, preds, elided) in positions {
            jumps.push(kind);
            h.write_u8(kind as u8);
            h.write_u8(u8::from(elided));
            h.write_usize(preds.len());
            for p in preds {
                h.write_u8(p.shape_tag());
            }
        }
        KernelKey {
            jumps: jumps.into_boxed_slice(),
            pred_fp: h.finish(),
        }
    }

    /// Number of joined tables.
    pub fn tables(&self) -> usize {
        self.jumps.len()
    }

    /// The per-position jump kinds: the projection of this key that
    /// [`supported`](KernelKey::supported) depends on, and so what the
    /// [`KernelCache`](crate::KernelCache) memoizes.
    pub(crate) fn jumps(&self) -> &[JumpKind] {
        &self.jumps
    }

    /// Whether a compiled kernel exists for this shape: every shape of
    /// at least one table has one.
    pub fn supported(&self) -> bool {
        !self.jumps.is_empty()
    }
}

impl fmt::Display for KernelKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}[", self.tables())?;
        for k in self.jumps.iter() {
            let c = match k {
                JumpKind::Scan => 's',
                JumpKind::Int => 'i',
                JumpKind::Float => 'f',
                JumpKind::Fused => 'u',
                JumpKind::Key => 'k',
            };
            f.write_fmt(format_args!("{c}"))?;
        }
        write!(f, "]#{:08x}", self.pred_fp as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(kinds: &[JumpKind]) -> KernelKey {
        KernelKey::new(kinds.iter().map(|&k| (k, &[][..], false)))
    }

    #[test]
    fn supported_range_and_kinds() {
        assert!(key(&[JumpKind::Scan, JumpKind::Int]).supported());
        assert!(key(&[JumpKind::Scan; 6]).supported());
        // A single table compiles to a one-position scan; only the empty
        // order has no kernel.
        assert!(key(&[JumpKind::Scan]).supported());
        assert!(!key(&[]).supported());
        // No arity ceiling: long orders compile as one kernel.
        assert!(key(&[JumpKind::Scan; 7]).supported());
        assert!(key(&[JumpKind::Int; 12]).supported());
        // Fused and string/nullable keys compile.
        assert!(key(&[JumpKind::Scan, JumpKind::Fused]).supported());
        assert!(key(&[JumpKind::Scan, JumpKind::Key, JumpKind::Fused]).supported());
    }

    #[test]
    fn display_covers_all_kinds() {
        let k = key(&[
            JumpKind::Scan,
            JumpKind::Int,
            JumpKind::Float,
            JumpKind::Fused,
            JumpKind::Key,
        ]);
        assert_eq!(
            format!("{k}"),
            format!("m5[sifuk]#{:08x}", k.pred_fp as u32)
        );
    }

    #[test]
    fn keys_distinguish_shapes() {
        let a = key(&[JumpKind::Scan, JumpKind::Int, JumpKind::Int]);
        let b = key(&[JumpKind::Scan, JumpKind::Int, JumpKind::Float]);
        let c = key(&[JumpKind::Scan, JumpKind::Int, JumpKind::Int, JumpKind::Int]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, key(&[JumpKind::Scan, JumpKind::Int, JumpKind::Int]));
        assert_eq!(a.tables(), 3);
        assert_eq!(a.jumps()[2], JumpKind::Int);
        assert_eq!(format!("{a}"), format!("m3[sii]#{:08x}", a.pred_fp as u32));
    }
}
