//! Cache keys: which `(source, tree, tolerance, backend, precision)`
//! combinations share one factorization.
//!
//! Two requests may share a cached factorization only when every knob that
//! shapes the factors matches: the logical matrix (a caller-chosen
//! `source_id`), the cluster-tree policy, the compression tolerance, the
//! backend and the precision policy.  The same tenant served at `1e-6` and
//! `1e-10`, or on [`Backend::Serial`] and [`Backend::Batched`], is two
//! cache entries — the factors genuinely differ.

use hodlr::{Backend, Precision, TreePolicy};
use hodlr_tree::ClusterTree;

/// A [`TreePolicy`] reduced to cheap, hashable key material.
///
/// The policy enum itself holds a full [`ClusterTree`] in its `Explicit`
/// variant, too heavy (and not `Hash`) for a map key; explicit trees are
/// fingerprinted over their structure instead.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TreeKey {
    /// [`TreePolicy::LeafSize`].
    LeafSize(usize),
    /// [`TreePolicy::Levels`].
    Levels(usize),
    /// [`TreePolicy::Explicit`], reduced to the tree's size and a
    /// structural fingerprint (FNV-1a over level count and leaf ranges).
    Explicit {
        /// Number of indices the tree partitions.
        n: usize,
        /// Structural fingerprint; equal trees hash equal, and a collision
        /// between *different* trees of the same `n` merely merges two
        /// cache slots for tenants that already share a `source_id`.
        fingerprint: u64,
    },
}

impl TreeKey {
    /// Reduce a builder [`TreePolicy`] to key material.
    pub fn from_policy(policy: &TreePolicy) -> Self {
        match policy {
            TreePolicy::LeafSize(s) => TreeKey::LeafSize(*s),
            TreePolicy::Levels(l) => TreeKey::Levels(*l),
            TreePolicy::Explicit(tree) => TreeKey::Explicit {
                n: tree.n(),
                fingerprint: fingerprint_tree(tree),
            },
        }
    }
}

/// FNV-1a over the structure that determines the factorization's shape:
/// level count plus every leaf range, in tree order.  Deterministic across
/// processes (unlike `DefaultHasher` seeds would be if randomized), so key
/// material can be logged and compared between runs.
fn fingerprint_tree(tree: &ClusterTree) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(tree.levels() as u64);
    for leaf in tree.leaves() {
        let r = tree.range(leaf);
        mix(r.start as u64);
        mix(r.end as u64);
    }
    h
}

/// The full cache key: one entry per distinct factorization.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Caller-chosen identity of the logical matrix (tenant + dataset
    /// version); the cache never inspects matrix entries, so callers must
    /// change the id when the underlying operator changes.
    pub source_id: String,
    /// Cluster-tree policy key material.
    pub tree: TreeKey,
    /// Compression tolerance, compared bitwise (`f64::to_bits`) — key
    /// equality must be exact, and `NaN`-safe hashing falls out for free.
    pub tol_bits: u64,
    /// Factorization backend.
    pub backend: Backend,
    /// Precision policy.
    pub precision: Precision,
}

impl CacheKey {
    /// Assemble a key from builder-level configuration.
    pub fn new(
        source_id: impl Into<String>,
        tree: &TreePolicy,
        tol: f64,
        backend: Backend,
        precision: Precision,
    ) -> Self {
        CacheKey {
            source_id: source_id.into(),
            tree: TreeKey::from_policy(tree),
            tol_bits: tol.to_bits(),
            backend,
            precision,
        }
    }

    /// The compression tolerance this key was built from.
    pub fn tolerance(&self) -> f64 {
        f64::from_bits(self.tol_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tol: f64, backend: Backend) -> CacheKey {
        CacheKey::new(
            "tenant-a",
            &TreePolicy::LeafSize(64),
            tol,
            backend,
            Precision::Full,
        )
    }

    #[test]
    fn every_knob_separates_entries() {
        let base = key(1e-8, Backend::Serial);
        assert_eq!(base, key(1e-8, Backend::Serial));
        assert_ne!(base, key(1e-6, Backend::Serial));
        assert_ne!(base, key(1e-8, Backend::Batched));
        let other_tree = CacheKey::new(
            "tenant-a",
            &TreePolicy::LeafSize(32),
            1e-8,
            Backend::Serial,
            Precision::Full,
        );
        assert_ne!(base, other_tree);
        let mixed = CacheKey {
            precision: Precision::MixedRefine,
            ..base.clone()
        };
        let compact = CacheKey {
            precision: Precision::CompactLower,
            ..base.clone()
        };
        assert_ne!(base, mixed);
        assert_ne!(base, compact);
        assert_ne!(mixed, compact);
        assert_eq!(base.tolerance(), 1e-8);
    }

    #[test]
    fn explicit_trees_fingerprint_by_structure() {
        let a = ClusterTree::with_leaf_size(256, 32);
        let b = ClusterTree::with_leaf_size(256, 32);
        let c = ClusterTree::with_leaf_size(256, 64);
        let ka = TreeKey::from_policy(&TreePolicy::Explicit(a));
        let kb = TreeKey::from_policy(&TreePolicy::Explicit(b));
        let kc = TreeKey::from_policy(&TreePolicy::Explicit(c));
        assert_eq!(ka, kb, "identical structure, identical key");
        assert_ne!(ka, kc, "different leaf granularity, different key");
    }
}
