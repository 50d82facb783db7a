//! The [`GraphZeppelin`] facade: the paper's user-facing API
//! (`edge_update()` / `list_spanning_forest()`, Figures 8–9).

use crate::boruvka::{boruvka_rounds_with_pool, BoruvkaOutcome};
use crate::config::{BufferStrategy, GzConfig, StoreBackend};
use crate::error::GzError;
use crate::ingest::{IngestCounters, WorkerPool};
use crate::node_sketch::{encode_other, SketchParams};
use crate::store::epoch::EpochCache;
use crate::store::{RepStats, SketchEpoch, SketchStore, StoreRoundSource};
use gz_graph::Edge;
use gz_gutters::{BufferingSystem, GutterTree, GutterTreeConfig, IoStats, LeafGutters, WorkQueue};
use std::sync::Arc;

/// A connectivity answer: component labels plus the spanning forest that
/// witnesses them.
#[derive(Debug, Clone)]
pub struct ConnectedComponents {
    outcome: BoruvkaOutcome,
}

impl ConnectedComponents {
    /// Component label of vertex `v` (normalized to the minimum member id).
    pub fn label(&self, v: u32) -> u32 {
        self.outcome.labels[v as usize]
    }

    /// All labels, indexed by vertex.
    pub fn labels(&self) -> &[u32] {
        &self.outcome.labels
    }

    /// True if `a` and `b` are in the same component.
    pub fn same_component(&self, a: u32, b: u32) -> bool {
        self.label(a) == self.label(b)
    }

    /// Number of components.
    pub fn num_components(&self) -> usize {
        self.outcome.num_components()
    }

    /// The spanning forest (the streaming problem's required output).
    pub fn spanning_forest(&self) -> &[Edge] {
        &self.outcome.forest
    }

    /// Boruvka rounds used and sketch failures survived.
    pub fn query_stats(&self) -> (usize, usize) {
        (self.outcome.rounds_used, self.outcome.sketch_failures)
    }
}

/// The GraphZeppelin system: buffered, parallel sketch ingestion plus
/// sketch-space Boruvka queries.
pub struct GraphZeppelin {
    config: GzConfig,
    params: Arc<SketchParams>,
    store: Arc<SketchStore>,
    queue: Arc<WorkQueue>,
    buffering: Box<dyn BufferingSystem + Send>,
    workers: Option<WorkerPool>,
    counters: Arc<IngestCounters>,
    updates_ingested: u64,
    gutter_io: Option<Arc<IoStats>>,
    buffer_capacity_bytes: usize,
    /// The epoch bounded-staleness queries reuse
    /// (`config.query_staleness`).
    epochs: EpochCache<SketchEpoch>,
    /// The query worker pool, built lazily for the resolved thread count
    /// and reused across queries (and across the rounds of each query)
    /// instead of spawning `query_threads` OS threads per call. Rebuilt
    /// when [`Self::set_query_threads`] changes the count.
    query_pool: Option<(usize, gz_gutters::WorkerPool)>,
}

impl GraphZeppelin {
    /// Build the system described by `config` and start its Graph Workers.
    pub fn new(config: GzConfig) -> Result<Self, GzError> {
        config.validate()?;
        let params = Arc::new(SketchParams::new(
            config.num_nodes,
            config.rounds(),
            config.num_columns,
            config.seed,
        ));
        let store = Arc::new(SketchStore::build(&config, Arc::clone(&params))?);
        let queue = Arc::new(WorkQueue::for_workers(config.num_workers));

        let node_sketch_bytes = params.node_sketch_bytes();
        let (buffering, gutter_io, buffer_capacity_bytes): (
            Box<dyn BufferingSystem + Send>,
            Option<Arc<IoStats>>,
            usize,
        ) = match &config.buffering {
            BufferStrategy::LeafOnly { capacity } => {
                let cap = capacity.resolve(node_sketch_bytes);
                let gutters = LeafGutters::new(config.num_nodes as usize, cap, Arc::clone(&queue));
                let bytes = cap * 4 * config.num_nodes as usize;
                (Box::new(gutters), None, bytes)
            }
            BufferStrategy::GutterTree { buffer_bytes, fanout, leaf_capacity, dir } => {
                let leaf_cap = leaf_capacity.resolve(node_sketch_bytes);
                let path =
                    dir.join(format!("gz_gutter_tree_{}_{}.bin", std::process::id(), config.seed));
                let tree_config = GutterTreeConfig {
                    num_nodes: config.num_nodes as u32,
                    leaf_capacity_updates: leaf_cap,
                    buffer_bytes: *buffer_bytes,
                    fanout: *fanout,
                    path,
                };
                let tree = GutterTree::new(tree_config, Arc::clone(&queue))?;
                let io = tree.stats();
                // RAM cost of the tree is just the root buffer.
                (Box::new(tree), Some(io), *buffer_bytes)
            }
        };

        let workers = WorkerPool::spawn(
            config.num_workers,
            config.group_threads,
            Arc::clone(&queue),
            Arc::clone(&store),
        );
        let counters = workers.counters();
        let epochs = EpochCache::new(config.query_staleness);

        Ok(GraphZeppelin {
            config,
            params,
            store,
            queue,
            buffering,
            workers: Some(workers),
            counters,
            updates_ingested: 0,
            gutter_io,
            buffer_capacity_bytes,
            epochs,
            query_pool: None,
        })
    }

    /// The cached query pool for the resolved thread count, built (or
    /// rebuilt) if the count changed.
    fn query_pool(&mut self) -> &gz_gutters::WorkerPool {
        let threads = self.config.query_threads();
        if self.query_pool.as_ref().map(|(t, _)| *t) != Some(threads) {
            self.query_pool = Some((threads, gz_gutters::WorkerPool::new(threads)));
        }
        &self.query_pool.as_ref().expect("pool built above").1
    }

    /// Ingest one stream update — a *toggle* of edge `(u, v)` (paper
    /// Figure 8's `edge_update`). Inserting an absent edge and deleting a
    /// present one are the same operation over Z_2.
    #[inline]
    pub fn edge_update(&mut self, u: u32, v: u32) {
        self.update(u, v, false)
    }

    /// Ingest one update with an explicit insert/delete tag. GraphZeppelin's
    /// sketches ignore the tag (Z_2), but it is preserved through the
    /// buffering layer for systems that need signs (StreamingCC) and for
    /// debugging.
    pub fn update(&mut self, u: u32, v: u32, is_delete: bool) {
        assert!(u != v, "self-loop ({u},{v}) is not a valid stream update");
        assert!(
            (u as u64) < self.config.num_nodes && (v as u64) < self.config.num_nodes,
            "vertex out of range"
        );
        // Figure 8: buffer_insert({u,v}) and buffer_insert({v,u}).
        self.buffering.insert(u, encode_other(v, is_delete));
        self.buffering.insert(v, encode_other(u, is_delete));
        self.updates_ingested += 1;
        self.epochs.note_update(self.updates_ingested);
    }

    /// Ingest a whole stream of `(u, v, is_delete)` updates.
    pub fn ingest(&mut self, updates: impl IntoIterator<Item = (u32, u32, bool)>) {
        for (u, v, d) in updates {
            self.update(u, v, d);
        }
    }

    /// Drain all buffered updates into the sketches (paper Figure 9's
    /// `cleanup()`): force-flush the buffering system, then wait until the
    /// Graph Workers have acknowledged every batch.
    pub fn flush(&mut self) {
        self.buffering.force_flush();
        self.queue.wait_idle();
    }

    /// Compute a spanning forest of the current graph (paper
    /// `list_spanning_forest()`); leaves the system ready for more updates.
    /// The query streams round slices straight out of the store, keeping
    /// only per-live-supernode accumulators resident — partitioned across
    /// `query_threads` workers (slot ranges in RAM; concurrent positioned
    /// group reads on disk, single-threaded prefetch pipeline at one
    /// thread). Answers are bit-identical at any thread count.
    ///
    /// With `config.query_staleness = Some(n)`, the query folds
    /// [`Self::query_epoch`] through the epoch read path instead —
    /// ingestion is never stopped, and the answer reflects the sealed cut.
    pub fn spanning_forest(&mut self) -> Result<BoruvkaOutcome, GzError> {
        if self.epochs.budget().is_some() {
            let epoch = self.query_epoch()?;
            return epoch.spanning_forest_with_pool(self.query_pool());
        }
        self.flush();
        let (num_nodes, rounds) = (self.config.num_nodes, self.params.rounds());
        let store = Arc::clone(&self.store);
        let pool = self.query_pool();
        let mut source = StoreRoundSource::new(&store);
        boruvka_rounds_with_pool(&mut source, num_nodes, rounds, pool)
    }

    /// The epoch a bounded-staleness query answers from: the cached one
    /// while it lags at most `config.query_staleness` updates, else a
    /// freshly sealed one (which is cached in turn). A stale cached epoch
    /// is released before the new seal's flush, and [`Self::update`]
    /// releases it as soon as the stream moves past the budget, so only
    /// handles a caller still holds keep capturing pre-images (DESIGN.md
    /// §11). With `query_staleness = None` every call seals afresh.
    pub fn query_epoch(&mut self) -> Result<Arc<SketchEpoch>, GzError> {
        if let Some(epoch) = self.epochs.fresh(self.updates_ingested) {
            return Ok(epoch);
        }
        let epoch = self.begin_epoch()?;
        Ok(self.epochs.keep(epoch, self.updates_ingested))
    }

    /// Seal the current sketch state into an epoch: flush buffered updates,
    /// then hand back a self-contained [`SketchEpoch`] whose queries return
    /// answers bit-identical to a stop-the-world query right now — even
    /// while this system keeps ingesting. The handle is `Send + Sync`, so a
    /// query thread can run `epoch.spanning_forest()` concurrently with
    /// further [`Self::update`] calls; dropping the handle releases the
    /// sealed groups it pinned (DESIGN.md §11).
    pub fn begin_epoch(&mut self) -> Result<SketchEpoch, GzError> {
        self.flush();
        let (id, overlay) = self.store.begin_epoch()?;
        Ok(SketchEpoch::new(Arc::clone(&self.store), overlay, id, self.config.query_threads()))
    }

    /// Change the query-thread count (a performance knob: answers are
    /// bit-identical at any setting — DESIGN.md §10). Drops the cached
    /// query pool; the next query rebuilds it at the new width.
    pub fn set_query_threads(&mut self, query_threads: usize) {
        assert!(query_threads >= 1, "query_threads must be ≥ 1");
        self.config.query_threads = Some(query_threads);
        self.query_pool = None;
    }

    /// Compute connected components of the current graph.
    pub fn connected_components(&mut self) -> Result<ConnectedComponents, GzError> {
        Ok(ConnectedComponents { outcome: self.spanning_forest()? })
    }

    /// Number of stream updates ingested so far.
    pub fn updates_ingested(&self) -> u64 {
        self.updates_ingested
    }

    /// Batches applied by the workers so far.
    pub fn batches_applied(&self) -> u64 {
        self.counters.batches.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Total sketch bytes (the paper's Figure 11 memory accounting). With a
    /// hybrid store (`config.sketch_threshold > 0`) this is the *resident*
    /// payload: dense bytes for promoted nodes plus the exact toggle-sets
    /// of the still-sparse ones.
    pub fn sketch_bytes(&self) -> usize {
        self.store.sketch_bytes()
    }

    /// Representation census of the store: promoted vs sparse node counts
    /// and sparse entries (`gz components --stats`, memory accounting).
    pub fn rep_stats(&self) -> RepStats {
        self.store.rep_stats()
    }

    /// Approximate total memory footprint: sketches (when in RAM) plus
    /// buffering capacity. The disk backend keeps dense sketches on disk,
    /// but its sparse toggle-sets live in RAM and are counted here.
    pub fn memory_bytes(&self) -> usize {
        let sketch_ram = match self.config.store {
            StoreBackend::Ram => self.store.sketch_bytes(),
            StoreBackend::Disk { .. } => self.store.rep_stats().sparse_bytes(),
        };
        sketch_ram + self.buffer_capacity_bytes
    }

    /// I/O counters of the sketch store (disk backend only).
    pub fn store_io(&self) -> Option<Arc<IoStats>> {
        self.store.io_stats()
    }

    /// Name of the disk store's resolved I/O backend (`"pread"`,
    /// `"uring"`, with `"+direct"` when O_DIRECT reads are live); `None`
    /// for RAM stores.
    pub fn io_backend_name(&self) -> Option<String> {
        self.store.io_backend_name()
    }

    /// The sketch store (group layout, I/O accounting — the experiment
    /// suite inspects it to verify the streaming query's I/O bounds).
    pub fn store(&self) -> &SketchStore {
        &self.store
    }

    /// I/O counters of the gutter tree (gutter-tree buffering only).
    pub fn gutter_io(&self) -> Option<Arc<IoStats>> {
        self.gutter_io.clone()
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &GzConfig {
        &self.config
    }

    /// Shared sketch parameters (geometry, rounds).
    pub fn params(&self) -> &Arc<SketchParams> {
        &self.params
    }

    /// Flush, then serialize every node's sketch (indexed by node id).
    /// Serialization is a pure function of the ingested update multiset, so
    /// any two deployments fed the same stream — whatever their buffering,
    /// store, worker count, or sharding — produce bit-identical output;
    /// the equivalence suite and the multi-process sharding demo compare
    /// against this.
    pub fn snapshot_serialized(&mut self) -> Vec<Vec<u8>> {
        self.flush();
        let params = Arc::clone(&self.params);
        self.snapshot_sketches()
            .iter()
            .map(|sketch| {
                let mut bytes = Vec::with_capacity(params.node_sketch_serialized_bytes());
                params.serialize_node_sketch(sketch, &mut bytes);
                bytes
            })
            .collect()
    }

    /// Owned copies of all node sketches (checkpointing). Callers should
    /// [`Self::flush`] first so buffered updates are included.
    pub(crate) fn snapshot_sketches(&self) -> Vec<crate::node_sketch::CubeNodeSketch> {
        self.store
            .snapshot()
            .into_iter()
            .map(|s| s.expect("store snapshot holds every node"))
            .collect()
    }

    /// Replace all sketch state (checkpoint restore).
    pub(crate) fn load_sketches(
        &mut self,
        sketches: Vec<crate::node_sketch::CubeNodeSketch>,
        updates_ingested: u64,
    ) {
        self.store.load_all(sketches);
        self.updates_ingested = updates_ingested;
        // A restore rewrites history; a cached staleness epoch would serve
        // pre-restore answers.
        self.epochs.clear();
    }

    /// Shut down: close the queue and join the Graph Workers. Called
    /// automatically on drop; explicit form surfaces worker panics.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.queue.close();
        if let Some(workers) = self.workers.take() {
            workers.join();
        }
    }
}

impl Drop for GraphZeppelin {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GutterCapacity, LockingStrategy};

    fn tiny_config(num_nodes: u64) -> GzConfig {
        let mut c = GzConfig::in_ram(num_nodes);
        c.num_workers = 2;
        c
    }

    #[test]
    fn empty_graph_is_all_singletons() {
        let mut gz = GraphZeppelin::new(tiny_config(8)).unwrap();
        let cc = gz.connected_components().unwrap();
        assert_eq!(cc.num_components(), 8);
        assert!(cc.spanning_forest().is_empty());
    }

    #[test]
    fn triangle_plus_edge() {
        let mut gz = GraphZeppelin::new(tiny_config(16)).unwrap();
        gz.edge_update(0, 1);
        gz.edge_update(1, 2);
        gz.edge_update(2, 0);
        gz.edge_update(9, 10);
        let cc = gz.connected_components().unwrap();
        assert!(cc.same_component(0, 2));
        assert!(cc.same_component(9, 10));
        assert!(!cc.same_component(0, 9));
        // 11 singletons + the triangle + the pair.
        assert_eq!(cc.num_components(), 13);
        assert_eq!(cc.spanning_forest().len(), 3);
    }

    #[test]
    fn deletion_disconnects() {
        let mut gz = GraphZeppelin::new(tiny_config(8)).unwrap();
        gz.update(0, 1, false);
        gz.update(1, 2, false);
        let cc1 = gz.connected_components().unwrap();
        assert!(cc1.same_component(0, 2));
        // Delete the bridge (toggle it off).
        gz.update(1, 2, true);
        let cc2 = gz.connected_components().unwrap();
        assert!(cc2.same_component(0, 1));
        assert!(!cc2.same_component(1, 2));
    }

    #[test]
    fn queries_are_repeatable_and_nondestructive() {
        let mut gz = GraphZeppelin::new(tiny_config(8)).unwrap();
        gz.edge_update(3, 4);
        let a = gz.connected_components().unwrap();
        let b = gz.connected_components().unwrap();
        assert_eq!(a.labels(), b.labels());
        // And ingestion continues to work after queries.
        gz.edge_update(4, 5);
        let c = gz.connected_components().unwrap();
        assert!(c.same_component(3, 5));
    }

    #[test]
    fn update_counts() {
        let mut gz = GraphZeppelin::new(tiny_config(8)).unwrap();
        gz.edge_update(0, 1);
        gz.edge_update(0, 2);
        assert_eq!(gz.updates_ingested(), 2);
        gz.flush();
        assert!(gz.batches_applied() > 0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loops() {
        let mut gz = GraphZeppelin::new(tiny_config(8)).unwrap();
        gz.edge_update(3, 3);
    }

    #[test]
    fn tiny_buffers_behave_like_unbuffered() {
        let mut c = tiny_config(8);
        c.buffering = BufferStrategy::LeafOnly { capacity: GutterCapacity::Updates(1) };
        let mut gz = GraphZeppelin::new(c).unwrap();
        gz.edge_update(0, 1);
        gz.edge_update(1, 2);
        let cc = gz.connected_components().unwrap();
        assert!(cc.same_component(0, 2));
    }

    #[test]
    fn direct_locking_matches_delta() {
        let mut ca = tiny_config(12);
        ca.locking = LockingStrategy::Direct;
        let mut cb = tiny_config(12);
        cb.locking = LockingStrategy::DeltaSketch;
        let edges = [(0u32, 1u32), (1, 2), (3, 4), (5, 6), (6, 7), (7, 5)];
        let mut a = GraphZeppelin::new(ca).unwrap();
        let mut b = GraphZeppelin::new(cb).unwrap();
        for &(u, v) in &edges {
            a.edge_update(u, v);
            b.edge_update(u, v);
        }
        assert_eq!(
            a.connected_components().unwrap().labels(),
            b.connected_components().unwrap().labels()
        );
    }

    #[test]
    fn query_matches_exact_oracle() {
        use gz_graph::connectivity::{connected_components_dsu, is_spanning_forest};
        let edges = [(0u32, 1u32), (1, 2), (2, 3), (5, 6), (8, 9), (9, 10), (10, 8)];
        let mut gz = GraphZeppelin::new(tiny_config(24)).unwrap();
        for &(u, v) in &edges {
            gz.edge_update(u, v);
        }
        let mirror = gz_graph::AdjacencyList::from_edges(24, edges);
        let got = gz.spanning_forest().unwrap();
        assert_eq!(got.labels, connected_components_dsu(&mirror));
        assert!(is_spanning_forest(&mirror, &got.forest));
        assert_eq!(got.sketch_failures, 0);
    }

    #[test]
    fn streaming_query_on_disk_store_keeps_less_resident() {
        let dir = gz_testutil::TempDir::new("gz-system-streamq");
        let mut c = tiny_config(64);
        c.store = StoreBackend::Disk {
            dir: dir.path().to_path_buf(),
            block_bytes: 1 << 13,
            cache_groups: 2,
        };
        let mut gz = GraphZeppelin::new(c).unwrap();
        for i in 0..63u32 {
            gz.edge_update(i, i + 1);
        }
        let got = gz.spanning_forest().unwrap();
        assert_eq!(got.labels, vec![0; 64], "a path is one component");
        let full_sketches = 64 * gz.params().node_sketch_bytes();
        assert!(
            got.peak_sketch_bytes < full_sketches,
            "streaming resident {} must undercut all {full_sketches} sketch bytes",
            got.peak_sketch_bytes
        );
    }

    #[test]
    fn memory_accounting_positive() {
        let gz = GraphZeppelin::new(tiny_config(32)).unwrap();
        assert!(gz.sketch_bytes() > 0);
        assert!(gz.memory_bytes() >= gz.sketch_bytes());
    }

    #[test]
    fn hybrid_store_matches_dense_and_shrinks_memory() {
        // τ=4 hybrid vs τ=0 dense on a sparse star: identical serialized
        // state (promotion-by-replay), answers, and a strictly smaller
        // resident sketch footprint while most nodes stay sparse.
        let mut dense_cfg = tiny_config(64);
        dense_cfg.sketch_threshold = 0;
        let mut hybrid_cfg = tiny_config(64);
        hybrid_cfg.sketch_threshold = 4;
        let mut dense = GraphZeppelin::new(dense_cfg).unwrap();
        let mut hybrid = GraphZeppelin::new(hybrid_cfg).unwrap();
        for i in 1..20u32 {
            dense.edge_update(0, i); // hub 0 crosses τ, leaves stay sparse
            hybrid.edge_update(0, i);
        }
        assert_eq!(dense.snapshot_serialized(), hybrid.snapshot_serialized());
        let (a, b) =
            (dense.connected_components().unwrap(), hybrid.connected_components().unwrap());
        assert_eq!(a.labels(), b.labels());
        let stats = hybrid.rep_stats();
        assert_eq!(stats.promoted, 1, "only the hub crosses τ");
        assert_eq!(stats.sparse, 63);
        assert!(hybrid.sketch_bytes() * 5 <= dense.sketch_bytes(), "≥5× resident reduction");
        // Queries synthesize sparse nodes' slices by replay.
        assert_eq!(a.spanning_forest(), b.spanning_forest());
    }

    #[test]
    fn query_pool_survives_thread_count_changes() {
        let mut gz = GraphZeppelin::new(tiny_config(16)).unwrap();
        gz.edge_update(0, 1);
        let a = gz.connected_components().unwrap();
        gz.set_query_threads(3);
        let b = gz.connected_components().unwrap();
        gz.set_query_threads(1);
        let c = gz.connected_components().unwrap();
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.labels(), c.labels());
    }

    #[test]
    fn second_toggle_deletes() {
        // The invariant tests/equivalence.rs relies on: repeating an
        // `edge_update` toggles the edge back out of the graph.
        let mut gz = GraphZeppelin::new(tiny_config(8)).unwrap();
        gz.edge_update(0, 1);
        gz.edge_update(1, 2);
        gz.edge_update(0, 1); // second toggle = deletion
        let cc = gz.connected_components().unwrap();
        assert!(cc.same_component(1, 2));
        assert!(!cc.same_component(0, 1));
        // A third toggle re-inserts.
        gz.edge_update(0, 1);
        let cc = gz.connected_components().unwrap();
        assert!(cc.same_component(0, 2));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use gz_graph::connectivity::{connected_components_dsu, same_partition};
    use gz_graph::{AdjacencyList, Edge};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// edge_update toggle semantics against an explicit mirror: applying
        /// an arbitrary pair sequence (with repeats, so second toggles occur)
        /// must leave GraphZeppelin's partition equal to the partition of the
        /// toggled adjacency list.
        #[test]
        fn toggle_stream_matches_adjacency_mirror(
            raw in proptest::collection::vec((0u32..12, 0u32..12), 1..120)
        ) {
            let n = 12u64;
            let mut gz = GraphZeppelin::new(GzConfig::in_ram(n)).unwrap();
            let mut mirror = AdjacencyList::new(n as usize);
            for &(a, b) in raw.iter().filter(|(a, b)| a != b) {
                gz.edge_update(a, b);
                mirror.toggle(Edge::new(a, b));
            }
            let cc = gz.connected_components().unwrap();
            let truth = connected_components_dsu(&mirror);
            prop_assert!(
                same_partition(cc.labels(), &truth),
                "gz={:?} truth={:?}",
                cc.labels(),
                truth
            );
        }
    }
}
