//! Per-vertex sketch stacks.
//!
//! A *node sketch* (paper §2.2) is `O(log V)` independent ℓ0-sketches of the
//! vertex's characteristic edge-vector — one per Boruvka round, because
//! adaptivity forbids reusing a sketch after its randomness has been
//! revealed (paper footnote 1). The stack is generic over the sampler so the
//! same machinery runs GraphZeppelin (CubeSketch) and the StreamingCC
//! baseline (general ℓ0-sampler).

use gz_graph::{edge_index, Edge, VertexId};
use gz_hash::{SplitMix64, Xxh64Hasher};
use gz_sketch::cube::{CubeSketch, CubeSketchFamily};
use gz_sketch::geometry::SketchGeometry;
use gz_sketch::{L0Sampler, SampleResult};
use std::sync::Arc;

/// A stack of per-round ℓ0-sketches for one vertex (or supernode).
#[derive(Debug, Clone)]
pub struct NodeSketch<S: L0Sampler> {
    rounds: Box<[S]>,
}

impl<S: L0Sampler> NodeSketch<S> {
    /// Build a stack of `num_rounds` sketches via a per-round factory.
    pub fn new_with(num_rounds: usize, mut make: impl FnMut(usize) -> S) -> Self {
        NodeSketch { rounds: (0..num_rounds).map(&mut make).collect() }
    }

    /// Number of rounds (sketches) in the stack.
    #[inline]
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// The round-`r` sketch.
    #[inline]
    pub fn round(&self, r: usize) -> &S {
        &self.rounds[r]
    }

    /// Mutable access to all rounds — lets the ingestion pipeline split a
    /// batch across a worker's thread group (*sketch-level parallelism*,
    /// paper §5.1: rounds are independent, so "a CubeSketch is only modified
    /// by one thread in a group \[and\] no locking is necessary at the sketch
    /// level").
    #[inline]
    pub fn rounds_mut(&mut self) -> &mut [S] {
        &mut self.rounds
    }

    /// Apply a signed coordinate update to **every** round's sketch (each
    /// stream update costs `O(log V)` subsketch updates; §2.2).
    #[inline]
    pub fn update_signed(&mut self, idx: u64, delta: i32) {
        for s in self.rounds.iter_mut() {
            s.update_signed(idx, delta);
        }
    }

    /// Merge another stack round-by-round (supernode formation in Boruvka).
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.rounds.len(), other.rounds.len(), "round count mismatch");
        for (a, b) in self.rounds.iter_mut().zip(other.rounds.iter()) {
            a.merge_from(b);
        }
    }

    /// Sample from the round-`r` sketch.
    pub fn sample_round(&self, r: usize) -> SampleResult {
        self.rounds[r].sample()
    }

    /// Reset every round to the zero sketch (scratch reuse in the ingestion
    /// pipeline's delta-sketch path).
    pub fn clear_all(&mut self) {
        for s in self.rounds.iter_mut() {
            s.clear();
        }
    }

    /// Total payload bytes across rounds.
    pub fn payload_bytes(&self) -> usize {
        self.rounds.iter().map(|s| s.payload_bytes()).sum()
    }
}

impl<H: gz_hash::Hasher64> NodeSketch<CubeSketch<H>> {
    /// Apply one *prepared* batch of characteristic-vector toggles — decoded
    /// to indices and run through the self-cancellation pre-pass
    /// ([`gz_sketch::cancel_duplicates`]) exactly once — to every round via
    /// the column-major batch kernel. The pre-pass is hash-independent, so
    /// one pass serves all `O(log V)` rounds; bit-identical to looping
    /// [`Self::update_signed`] over the raw records.
    #[inline]
    pub fn update_batch_prepared(&mut self, indices: &[u64]) {
        for s in self.rounds.iter_mut() {
            s.update_batch_prepared(indices);
        }
    }
}

/// The GraphZeppelin node sketch: CubeSketches over the characteristic
/// vector index space.
pub type CubeNodeSketch = NodeSketch<CubeSketch<Xxh64Hasher>>;

/// One round of a [`CubeNodeSketch`] — the slice the streaming query engine
/// moves (round `r` of the query touches only round `r`'s column data).
pub type CubeRoundSketch = CubeSketch<Xxh64Hasher>;

/// Shared per-round CubeSketch families for a whole system.
///
/// All vertices share the same per-round hash functions — required for
/// supernode merging — so families are constructed once and handed to every
/// store/worker.
#[derive(Debug, Clone)]
pub struct SketchParams {
    /// Number of vertices the characteristic vectors are defined over.
    pub num_nodes: u64,
    /// Per-round sketch families (hash functions + geometry).
    pub families: Vec<Arc<CubeSketchFamily<Xxh64Hasher>>>,
}

impl SketchParams {
    /// Families for `num_nodes` vertices, `rounds` rounds, `columns` sketch
    /// columns, derived deterministically from `seed`.
    pub fn new(num_nodes: u64, rounds: u32, columns: u32, seed: u64) -> Self {
        let vector_len = gz_graph::edge_index_count(num_nodes).max(1);
        let geometry = SketchGeometry::with_columns(vector_len, columns);
        let families = (0..rounds as u64)
            .map(|r| CubeSketchFamily::new(geometry, SplitMix64::derive(seed, r)))
            .collect();
        SketchParams { num_nodes, families }
    }

    /// Number of rounds.
    pub fn rounds(&self) -> usize {
        self.families.len()
    }

    /// A fresh all-zero node sketch.
    pub fn new_node_sketch(&self) -> CubeNodeSketch {
        NodeSketch::new_with(self.families.len(), |r| self.families[r].new_sketch())
    }

    /// Bytes of one node sketch under the paper's accounting.
    pub fn node_sketch_bytes(&self) -> usize {
        self.families.iter().map(|f| f.geometry().cube_sketch_bytes()).sum()
    }

    /// Serialized size of one node sketch (for the disk store layout).
    pub fn node_sketch_serialized_bytes(&self) -> usize {
        self.families.iter().map(|f| CubeSketch::<Xxh64Hasher>::serialized_size(f.geometry())).sum()
    }

    /// Serialize a node sketch into `out` (rounds concatenated).
    pub fn serialize_node_sketch(&self, sketch: &CubeNodeSketch, out: &mut Vec<u8>) {
        for r in 0..sketch.num_rounds() {
            sketch.round(r).serialize_into(out);
        }
    }

    /// Serialized size of the round-`round` slice of a node sketch.
    pub fn round_serialized_bytes(&self, round: usize) -> usize {
        CubeSketch::<Xxh64Hasher>::serialized_size(self.families[round].geometry())
    }

    /// Byte offset of round `round` within a serialized node sketch (the
    /// rounds-concatenated layout of [`Self::serialize_node_sketch`]).
    pub fn round_serialized_offset(&self, round: usize) -> usize {
        (0..round).map(|r| self.round_serialized_bytes(r)).sum()
    }

    /// Serialize only the round-`round` slice of a node sketch — the unit
    /// the streaming query engine moves (one round of one vertex).
    pub fn serialize_round(&self, sketch: &CubeNodeSketch, round: usize, out: &mut Vec<u8>) {
        sketch.round(round).serialize_into(out);
    }

    /// Deserialize a round slice previously produced by
    /// [`Self::serialize_round`].
    pub fn deserialize_round(&self, round: usize, bytes: &[u8]) -> CubeSketch<Xxh64Hasher> {
        CubeSketch::deserialize(Arc::clone(&self.families[round]), bytes)
    }

    /// Deserialize a node sketch previously produced by
    /// [`Self::serialize_node_sketch`].
    pub fn deserialize_node_sketch(&self, bytes: &[u8]) -> CubeNodeSketch {
        let mut offset = 0;
        NodeSketch::new_with(self.families.len(), |r| {
            let sz = CubeSketch::<Xxh64Hasher>::serialized_size(self.families[r].geometry());
            let s =
                CubeSketch::deserialize(Arc::clone(&self.families[r]), &bytes[offset..offset + sz]);
            offset += sz;
            s
        })
    }
}

/// Test support: assert two node sketch stacks are bit-identical, round by
/// round (the batch-kernel == singles invariant the store and ingest tests
/// pin).
#[cfg(test)]
pub(crate) fn assert_rounds_bitwise_equal(a: &CubeNodeSketch, b: &CubeNodeSketch, ctx: &str) {
    assert_eq!(a.num_rounds(), b.num_rounds(), "{ctx}: round count");
    for r in 0..a.num_rounds() {
        let (mut ab, mut bb) = (Vec::new(), Vec::new());
        a.round(r).serialize_into(&mut ab);
        b.round(r).serialize_into(&mut bb);
        assert_eq!(ab, bb, "{ctx}: round {r}");
    }
}

/// Encode the other endpoint plus a deletion flag into one `u32` batch
/// record. GraphZeppelin itself ignores the flag (Z_2 toggles), but the
/// StreamingCC baseline needs signed updates, and both share the buffering
/// layer.
#[inline]
pub fn encode_other(other: VertexId, is_delete: bool) -> u32 {
    debug_assert!(other < (1 << 31), "vertex ids must fit in 31 bits");
    other | ((is_delete as u32) << 31)
}

/// Inverse of [`encode_other`]: `(other, is_delete)`.
#[inline]
pub fn decode_other(record: u32) -> (VertexId, bool) {
    (record & 0x7FFF_FFFF, record >> 31 == 1)
}

/// The characteristic-vector index toggled by an update `(node, other)`.
#[inline]
pub fn update_index(node: VertexId, other: VertexId, num_nodes: u64) -> u64 {
    edge_index(Edge::new(node, other), num_nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(v: u64) -> SketchParams {
        SketchParams::new(v, 6, 7, 42)
    }

    #[test]
    fn node_sketch_round_count() {
        let p = params(64);
        let s = p.new_node_sketch();
        assert_eq!(s.num_rounds(), 6);
    }

    #[test]
    fn update_touches_every_round() {
        let p = params(64);
        let mut s = p.new_node_sketch();
        let idx = update_index(3, 9, 64);
        s.update_signed(idx, 1);
        for r in 0..s.num_rounds() {
            assert_eq!(s.sample_round(r), SampleResult::Index(idx), "round {r}");
        }
    }

    #[test]
    fn rounds_are_independent_families() {
        // Same vector, different hash functions per round: the bucket
        // payloads must differ (otherwise adaptivity is broken).
        let p = params(64);
        let mut s = p.new_node_sketch();
        s.update_signed(update_index(0, 1, 64), 1);
        let mut a = Vec::new();
        s.round(0).serialize_into(&mut a);
        let mut b = Vec::new();
        s.round(1).serialize_into(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn merge_cancels_shared_edges() {
        let p = params(64);
        let (mut su, mut sv) = (p.new_node_sketch(), p.new_node_sketch());
        // Edge (3, 9) present: appears in both endpoint vectors; after
        // merging the supernode {3, 9}, it must cancel.
        let idx = update_index(3, 9, 64);
        su.update_signed(idx, 1);
        sv.update_signed(idx, 1);
        // Edge (3, 20) crosses the cut: only in node 3's vector.
        let cross = update_index(3, 20, 64);
        su.update_signed(cross, 1);
        su.merge(&sv);
        assert_eq!(su.sample_round(0), SampleResult::Index(cross));
    }

    #[test]
    fn serialization_round_trip() {
        let p = params(32);
        let mut s = p.new_node_sketch();
        for (a, b) in [(0u32, 1u32), (5, 9), (30, 31)] {
            s.update_signed(update_index(a, b, 32), 1);
        }
        let mut bytes = Vec::new();
        p.serialize_node_sketch(&s, &mut bytes);
        assert_eq!(bytes.len(), p.node_sketch_serialized_bytes());
        let t = p.deserialize_node_sketch(&bytes);
        for r in 0..s.num_rounds() {
            assert_eq!(t.sample_round(r), s.sample_round(r));
        }
    }

    #[test]
    fn round_slices_tile_the_node_record() {
        let p = params(32);
        let mut s = p.new_node_sketch();
        s.update_signed(update_index(1, 2, 32), 1);
        s.update_signed(update_index(5, 30, 32), 1);
        let mut whole = Vec::new();
        p.serialize_node_sketch(&s, &mut whole);
        for r in 0..s.num_rounds() {
            let off = p.round_serialized_offset(r);
            let len = p.round_serialized_bytes(r);
            let mut slice = Vec::new();
            p.serialize_round(&s, r, &mut slice);
            assert_eq!(&whole[off..off + len], &slice[..], "round {r}");
            assert_eq!(p.deserialize_round(r, &slice).query(), s.sample_round(r));
        }
        assert_eq!(p.round_serialized_offset(s.num_rounds()), whole.len());
    }

    #[test]
    fn encode_decode_other() {
        for (v, d) in [(0u32, false), (7, true), ((1 << 31) - 1, true)] {
            assert_eq!(decode_other(encode_other(v, d)), (v, d));
        }
    }

    #[test]
    fn params_deterministic_in_seed() {
        let a = SketchParams::new(64, 4, 7, 1);
        let b = SketchParams::new(64, 4, 7, 1);
        // Same seed -> compatible families (sketches mergeable).
        let mut sa = a.new_node_sketch();
        let sb = b.new_node_sketch();
        sa.merge(&sb); // would panic if families were incompatible
    }

    #[test]
    fn payload_matches_model() {
        let p = params(128);
        let s = p.new_node_sketch();
        assert_eq!(s.payload_bytes(), p.node_sketch_bytes());
    }
}
