//! Leaf-only gutters (paper §5.1).
//!
//! One in-RAM buffer ("gutter") per graph node, used when memory allows
//! (`M > V·B`): `buffer_insert((u, v))` appends `v` to `u`'s gutter, and a
//! full gutter is emitted to the work queue as one batch. The gutter
//! capacity is a configurable fraction `f` of the node-sketch size — the
//! knob swept by the paper's Figure 15.

use crate::work_queue::{Batch, WorkQueue};
use crate::BufferingSystem;
use std::sync::Arc;

/// Per-node in-RAM gutters.
pub struct LeafGutters {
    gutters: Vec<Vec<u32>>,
    capacity: usize,
    queue: Arc<WorkQueue>,
    buffered: usize,
    emitted_batches: u64,
}

impl LeafGutters {
    /// Create gutters for `num_nodes` nodes, each holding up to
    /// `capacity_updates` records before flushing to `queue`.
    pub fn new(num_nodes: usize, capacity_updates: usize, queue: Arc<WorkQueue>) -> Self {
        let capacity = capacity_updates.max(1);
        LeafGutters {
            gutters: vec![Vec::new(); num_nodes],
            capacity,
            queue,
            buffered: 0,
            emitted_batches: 0,
        }
    }

    /// The paper's default sizing: each gutter holds `f ×` the node-sketch
    /// size worth of updates (`sketch_bytes × f / 4` four-byte records);
    /// the default `f` is 1/2 (§5.1 "each leaf gutter is 1/2 the size of a
    /// node sketch").
    pub fn sized_to_sketch(
        num_nodes: usize,
        sketch_bytes: usize,
        factor: f64,
        queue: Arc<WorkQueue>,
    ) -> Self {
        let capacity = ((sketch_bytes as f64 * factor) / 4.0).ceil() as usize;
        Self::new(num_nodes, capacity, queue)
    }

    /// Per-gutter capacity in records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of batches emitted so far.
    pub fn emitted_batches(&self) -> u64 {
        self.emitted_batches
    }

    /// Number of nodes this gutter set covers.
    pub fn num_nodes(&self) -> usize {
        self.gutters.len()
    }

    /// Emit one node's gutter (if nonempty) regardless of fill level — the
    /// incremental form of [`BufferingSystem::force_flush`]. A single-thread
    /// consumer (the shard router) interleaves `flush_node` with queue
    /// drains, so the staging queue never has to hold more than one node's
    /// batch at a time.
    pub fn flush_node(&mut self, node: u32) {
        self.emit(node);
    }

    fn emit(&mut self, node: u32) {
        let gutter = &mut self.gutters[node as usize];
        if gutter.is_empty() {
            return;
        }
        let others = std::mem::take(gutter);
        self.buffered -= others.len();
        self.emitted_batches += 1;
        self.queue.push(Batch { node, others });
    }
}

impl BufferingSystem for LeafGutters {
    fn insert(&mut self, dst: u32, other: u32) {
        // No up-front reservation: a gutter grows with its contents, so a
        // node touched once between emits costs a few bytes, not a
        // capacity-sized buffer.
        let gutter = &mut self.gutters[dst as usize];
        gutter.push(other);
        self.buffered += 1;
        if gutter.len() >= self.capacity {
            self.emit(dst);
        }
    }

    fn force_flush(&mut self) {
        for node in 0..self.gutters.len() as u32 {
            self.emit(node);
        }
    }

    fn buffered_len(&self) -> usize {
        self.buffered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(nodes: usize, cap: usize) -> (LeafGutters, Arc<WorkQueue>) {
        let queue = Arc::new(WorkQueue::with_capacity(1024));
        (LeafGutters::new(nodes, cap, Arc::clone(&queue)), queue)
    }

    #[test]
    fn emits_exactly_at_capacity() {
        let (mut g, q) = setup(4, 3);
        g.insert(1, 10);
        g.insert(1, 11);
        assert!(q.is_empty());
        assert_eq!(g.buffered_len(), 2);
        g.insert(1, 12); // third record fills the gutter
        let batch = q.try_pop().unwrap();
        assert_eq!(batch.node, 1);
        assert_eq!(batch.others, vec![10, 11, 12]);
        assert_eq!(g.buffered_len(), 0);
    }

    #[test]
    fn gutters_are_independent() {
        let (mut g, q) = setup(4, 2);
        g.insert(0, 1);
        g.insert(1, 0);
        g.insert(2, 3);
        assert!(q.is_empty(), "no gutter full yet");
        g.insert(0, 2);
        assert_eq!(q.try_pop().unwrap().node, 0);
    }

    #[test]
    fn force_flush_emits_all_nonempty() {
        let (mut g, q) = setup(5, 100);
        g.insert(0, 1);
        g.insert(3, 4);
        g.insert(3, 2);
        g.force_flush();
        let mut nodes = Vec::new();
        while let Some(b) = q.try_pop() {
            nodes.push((b.node, b.others.len()));
        }
        assert_eq!(nodes, vec![(0, 1), (3, 2)]);
        assert_eq!(g.buffered_len(), 0);
        // Second flush is a no-op.
        g.force_flush();
        assert!(q.try_pop().is_none());
    }

    #[test]
    fn flush_node_emits_one_partial_gutter() {
        let (mut g, q) = setup(4, 100);
        g.insert(2, 7);
        g.insert(2, 8);
        g.insert(1, 9);
        g.flush_node(2);
        let b = q.try_pop().unwrap();
        assert_eq!((b.node, b.others), (2, vec![7, 8]));
        assert!(q.try_pop().is_none(), "other gutters untouched");
        assert_eq!(g.buffered_len(), 1);
        // Flushing an empty gutter emits nothing.
        g.flush_node(2);
        assert!(q.try_pop().is_none());
    }

    #[test]
    fn partial_gutter_batch_is_sized_to_its_contents() {
        let (mut g, q) = setup(2, 5072);
        g.insert(0, 1);
        g.force_flush();
        let batch = q.try_pop().unwrap();
        assert_eq!(batch.others, vec![1]);
        assert!(
            batch.others.capacity() <= 16,
            "one buffered record allocated {} slots",
            batch.others.capacity()
        );
    }

    #[test]
    fn capacity_of_zero_clamped_to_one() {
        let (mut g, q) = setup(2, 0);
        g.insert(0, 1); // immediately emitted
        assert_eq!(q.try_pop().unwrap().others, vec![1]);
    }

    #[test]
    fn sketch_sized_capacity() {
        let queue = Arc::new(WorkQueue::with_capacity(16));
        // 8000-byte sketch at f = 0.5 -> 1000 records.
        let g = LeafGutters::sized_to_sketch(2, 8000, 0.5, queue);
        assert_eq!(g.capacity(), 1000);
    }

    #[test]
    fn counts_emitted_batches() {
        let (mut g, q) = setup(2, 2);
        for i in 0..10 {
            g.insert(0, i);
        }
        assert_eq!(g.emitted_batches(), 5);
        while q.try_pop().is_some() {}
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Leaf gutters deliver the exact inserted multiset per node, in
        /// arrival order, in batches no larger than capacity (except the
        /// force-flush tail which may be smaller).
        #[test]
        fn delivers_in_order_batches(
            num_nodes in 1u32..30,
            capacity in 1usize..20,
            inserts in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..300)
        ) {
            let queue = Arc::new(WorkQueue::with_capacity(1 << 16));
            let mut gutters = LeafGutters::new(num_nodes as usize, capacity, Arc::clone(&queue));
            let mut expected: HashMap<u32, Vec<u32>> = HashMap::new();
            for (dst, other) in inserts {
                let dst = dst % num_nodes;
                gutters.insert(dst, other);
                expected.entry(dst).or_default().push(other);
            }
            gutters.force_flush();
            prop_assert_eq!(gutters.buffered_len(), 0);

            let mut got: HashMap<u32, Vec<u32>> = HashMap::new();
            while let Some(b) = queue.try_pop() {
                prop_assert!(b.others.len() <= capacity.max(1));
                got.entry(b.node).or_default().extend(b.others);
            }
            prop_assert_eq!(got, expected);
        }
    }
}
