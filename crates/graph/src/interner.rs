//! Vertex-id interning for streams with non-integer node identifiers.
//!
//! Paper §2.2: "even if nodes are identified in the input stream as
//! arbitrary strings instead of integer IDs in the range \[V\], we can use a
//! hash function with range \[O(U²)\] to ensure that every node gets a unique
//! integer ID with high probability." This module provides both flavors:
//!
//! - [`VertexInterner`] — exact assignment (hash map to dense ids), the
//!   right tool when the id set fits in memory;
//! - [`hashed_vertex_id`] — the paper's stateless hashing variant, for
//!   pipelines that cannot keep a dictionary (collision probability
//!   `≈ k²/2·2^-61` for `k` distinct names).

use crate::edge::VertexId;
use std::collections::HashMap;

/// Dense, exact string→vertex-id assignment.
#[derive(Debug, Default, Clone)]
pub struct VertexInterner {
    ids: HashMap<String, VertexId>,
    names: Vec<String>,
}

impl VertexInterner {
    /// Empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Id for `name`, assigning the next dense id on first sight.
    pub fn intern(&mut self, name: &str) -> VertexId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as VertexId;
        self.ids.insert(name.to_string(), id);
        self.names.push(name.to_string());
        id
    }

    /// Id for `name` if already assigned.
    pub fn get(&self, name: &str) -> Option<VertexId> {
        self.ids.get(name).copied()
    }

    /// Name for an id.
    pub fn name(&self, id: VertexId) -> Option<&str> {
        self.names.get(id as usize).map(|s| s.as_str())
    }

    /// Number of distinct vertices seen.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Stateless hashed vertex id in `[0, universe)` (the paper's w.h.p.
/// scheme). `universe` should be `Ω(k²)` for `k` expected distinct names.
pub fn hashed_vertex_id(name: &str, universe: u64, seed: u64) -> u64 {
    let h = gz_hash::xxh64(name.as_bytes(), seed);
    gz_hash::hash_to_range(h, universe)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_assigns_dense_stable_ids() {
        let mut it = VertexInterner::new();
        let a = it.intern("alice");
        let b = it.intern("bob");
        assert_eq!((a, b), (0, 1));
        assert_eq!(it.intern("alice"), 0, "repeat lookups stable");
        assert_eq!(it.len(), 2);
        assert_eq!(it.name(1), Some("bob"));
        assert_eq!(it.get("carol"), None);
    }

    #[test]
    fn hashed_ids_in_range_and_deterministic() {
        let universe = 1 << 30;
        let a = hashed_vertex_id("node-42", universe, 7);
        assert!(a < universe);
        assert_eq!(a, hashed_vertex_id("node-42", universe, 7));
        assert_ne!(a, hashed_vertex_id("node-43", universe, 7));
    }

    #[test]
    fn hashed_ids_rarely_collide_at_quadratic_universe() {
        // k = 1000 names in a k² universe: expected collisions ≈ 0.5.
        let k = 1000u64;
        let universe = k * k;
        let mut seen = std::collections::HashSet::new();
        let mut collisions = 0;
        for i in 0..k {
            if !seen.insert(hashed_vertex_id(&format!("v{i}"), universe, 1)) {
                collisions += 1;
            }
        }
        assert!(collisions <= 3, "{collisions} collisions");
    }
}
