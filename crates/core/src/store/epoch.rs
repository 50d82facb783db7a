//! Epoch-versioned reads: sealed generations with copy-on-write overlays.
//!
//! A query that wants a consistent cut of the sketch state no longer has to
//! stop the world. [`SketchStore::begin_epoch`] *seals* the current
//! generation — every sketch value as of the seal — and hands back an
//! [`EpochOverlay`]. Ingestion keeps writing into the open generation; the
//! first time a node group is dirtied after a seal, its pre-image is
//! captured into every live overlay that does not have one yet
//! (copy-on-write at node-group granularity, so an epoch's memory cost is
//! proportional to how much the stream touched while the query ran, not to
//! `V`). A reader pinned to an epoch sees the sealed value for captured
//! groups and the live value for untouched ones — which *is* the sealed
//! value, by construction. Overlays are reference-counted; when the last
//! reader drops its [`SketchEpoch`], the captured groups are freed.
//!
//! Determinism: folding is XOR over the sealed values, and the sealed
//! values are exactly the store contents after the seal's flush — so a
//! query at epoch E is bit-identical to a stop-the-world query issued at
//! the moment E was sealed, regardless of how many batches land while the
//! query runs. The equivalence suite (`tests/epochs.rs`) pins this.

use crate::boruvka::{boruvka_rounds_parallel, BoruvkaOutcome, RoundSink};
use crate::error::GzError;
use crate::node_sketch::{CubeNodeSketch, CubeRoundSketch};
use crate::sparse::SparseSet;
use crate::store::{SketchSource, SketchStore};
use gz_gutters::WorkerPool;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

/// The copy-on-write side table of one sealed generation: node groups
/// dirtied after the seal, keyed by group id, each holding the group's
/// sealed sketches. Entries are only ever added (a group is captured at
/// most once per epoch); the whole overlay is freed when the last
/// [`SketchEpoch`] holding it drops.
pub struct EpochOverlay {
    map: Mutex<HashMap<u32, Arc<Vec<CubeNodeSketch>>>>,
    /// Sealed pre-images of vertices that were *sparse* (exact toggle sets,
    /// DESIGN.md §12) at mutation time, keyed by **slot**. A slot captured
    /// here outranks any dense group pre-image covering the same slot: a
    /// sparse vertex has no meaningful dense bytes (its file/slot region is
    /// all-zero by construction), so the dense capture can only hold
    /// placeholder zeros or post-promotion state.
    sparse: Mutex<HashMap<u32, Arc<SparseSet>>>,
}

impl EpochOverlay {
    fn new() -> Self {
        EpochOverlay { map: Mutex::new(HashMap::new()), sparse: Mutex::new(HashMap::new()) }
    }

    /// The sealed pre-image of `group`, if ingestion dirtied it after the
    /// seal.
    pub(crate) fn get(&self, group: u32) -> Option<Arc<Vec<CubeNodeSketch>>> {
        self.map.lock().get(&group).cloned()
    }

    /// The sealed sparse pre-image of `slot`, if the vertex was sparse at
    /// seal and mutated (or promoted) afterwards.
    pub(crate) fn get_sparse(&self, slot: u32) -> Option<Arc<SparseSet>> {
        self.sparse.lock().get(&slot).cloned()
    }

    /// Node groups captured so far (dense captures only).
    pub fn captured_groups(&self) -> usize {
        self.map.lock().len()
    }

    /// Sparse vertices captured so far.
    pub fn captured_sparse(&self) -> usize {
        self.sparse.lock().len()
    }

    /// Node sketches captured so far (groups × nodes per group).
    pub(crate) fn captured_sketches(&self) -> usize {
        self.map.lock().values().map(|g| g.len()).sum()
    }

    /// Resident bytes of the captured sparse pre-images.
    pub(crate) fn captured_sparse_bytes(&self) -> usize {
        self.sparse.lock().values().map(|s| s.resident_bytes()).sum()
    }
}

/// Per-store bookkeeping of live epochs. Ingestion consults it immediately
/// before mutating a group's sealed value; when no epoch is live (the
/// common case) that consultation is a single atomic load.
pub(crate) struct EpochRegistry {
    inner: Mutex<RegistryInner>,
    /// Fast-path flag: false ⇒ `inner.live` is empty and capture can be
    /// skipped without locking. Set on registration; cleared when a prune
    /// finds every overlay dead.
    maybe_live: AtomicBool,
}

struct RegistryInner {
    next_id: u64,
    live: Vec<(u64, Weak<EpochOverlay>)>,
}

impl EpochRegistry {
    pub(crate) fn new() -> Self {
        EpochRegistry {
            inner: Mutex::new(RegistryInner { next_id: 0, live: Vec::new() }),
            maybe_live: AtomicBool::new(false),
        }
    }

    /// Seal the current generation: register a fresh overlay and return its
    /// epoch id. The caller must have quiesced ingestion (and, for disk
    /// stores, flushed) so "the current generation" is well defined.
    pub(crate) fn register(&self) -> (u64, Arc<EpochOverlay>) {
        let mut inner = self.inner.lock();
        inner.live.retain(|(_, weak)| weak.strong_count() > 0);
        let id = inner.next_id;
        inner.next_id += 1;
        let overlay = Arc::new(EpochOverlay::new());
        inner.live.push((id, Arc::downgrade(&overlay)));
        self.maybe_live.store(true, Ordering::Release);
        (id, overlay)
    }

    /// Called by ingestion right before the first mutation of `group` since
    /// the store's sealed values last changed hands: insert `group`'s
    /// pre-image (produced by `make`, invoked at most once) into every live
    /// overlay that lacks it. An overlay that already holds `group` keeps
    /// its own, older pre-image — the current value is exactly what epochs
    /// sealed *after* that earlier capture need.
    pub(crate) fn capture_group(&self, group: u32, make: &mut dyn FnMut() -> Vec<CubeNodeSketch>) {
        if !self.maybe_live.load(Ordering::Acquire) {
            return;
        }
        let mut inner = self.inner.lock();
        inner.live.retain(|(_, weak)| weak.strong_count() > 0);
        if inner.live.is_empty() {
            self.maybe_live.store(false, Ordering::Release);
            return;
        }
        let mut pre_image: Option<Arc<Vec<CubeNodeSketch>>> = None;
        for (_, weak) in &inner.live {
            let Some(overlay) = weak.upgrade() else { continue };
            let mut map = overlay.map.lock();
            if let std::collections::hash_map::Entry::Vacant(slot) = map.entry(group) {
                slot.insert(Arc::clone(pre_image.get_or_insert_with(|| Arc::new(make()))));
            }
        }
    }

    /// Sparse twin of [`Self::capture_group`]: called right before the
    /// first mutation (toggle or promotion) of a *sparse* vertex at `slot`
    /// since the seal. The caller must hold the lock that guards the
    /// vertex's sparse state, so readers checking overlay-then-live under
    /// the same lock see either the pre-image or the unmutated live set.
    pub(crate) fn capture_sparse(&self, slot: u32, make: &mut dyn FnMut() -> SparseSet) {
        if !self.maybe_live.load(Ordering::Acquire) {
            return;
        }
        let mut inner = self.inner.lock();
        inner.live.retain(|(_, weak)| weak.strong_count() > 0);
        if inner.live.is_empty() {
            self.maybe_live.store(false, Ordering::Release);
            return;
        }
        let mut pre_image: Option<Arc<SparseSet>> = None;
        for (_, weak) in &inner.live {
            let Some(overlay) = weak.upgrade() else { continue };
            let mut map = overlay.sparse.lock();
            if let std::collections::hash_map::Entry::Vacant(entry) = map.entry(slot) {
                entry.insert(Arc::clone(pre_image.get_or_insert_with(|| Arc::new(make()))));
            }
        }
    }
}

/// A handle pinning one sealed generation of a [`SketchStore`]: queries
/// through it fold the sealed values while ingestion keeps applying batches
/// to the open generation. The handle is self-contained (`Send` + `Sync`),
/// so a query thread can run [`Self::spanning_forest`] on a shared
/// reference while the owning thread keeps calling
/// [`crate::GraphZeppelin::update`]. Dropping the last handle to an epoch
/// frees its captured groups.
pub struct SketchEpoch {
    store: Arc<SketchStore>,
    overlay: Arc<EpochOverlay>,
    id: u64,
    query_threads: usize,
}

impl SketchEpoch {
    pub(crate) fn new(
        store: Arc<SketchStore>,
        overlay: Arc<EpochOverlay>,
        id: u64,
        query_threads: usize,
    ) -> Self {
        SketchEpoch { store, overlay, id, query_threads }
    }

    /// The store-assigned epoch id (monotonic per store).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Query workers [`Self::spanning_forest`] folds with (answers are
    /// bit-identical at any setting).
    pub fn set_query_threads(&mut self, query_threads: usize) {
        assert!(query_threads >= 1, "query_threads must be ≥ 1");
        self.query_threads = query_threads;
    }

    /// Node groups this epoch has pinned (copy-on-write captures so far).
    pub fn captured_groups(&self) -> usize {
        self.overlay.captured_groups()
    }

    /// Bytes of sealed pre-images this epoch holds resident — the
    /// reclamation bound: at most `captured groups × group bytes`, and zero
    /// until ingestion dirties something the epoch covers.
    pub fn overlay_resident_bytes(&self) -> usize {
        self.overlay.captured_sketches() * self.store.params().node_sketch_bytes()
            + self.overlay.captured_sparse_bytes()
    }

    /// Compute a spanning forest of the sealed generation — bit-identical
    /// to a stop-the-world query at the moment this epoch was sealed, no
    /// matter how much the stream has moved since.
    pub fn spanning_forest(&self) -> Result<BoruvkaOutcome, GzError> {
        let params = self.store.params();
        let (num_nodes, rounds) = (params.num_nodes, params.rounds());
        let mut source = EpochRoundSource::new(&self.store, &self.overlay);
        boruvka_rounds_parallel(&mut source, num_nodes, rounds, self.query_threads)
    }

    /// [`Self::spanning_forest`] folding with a caller-provided pool — the
    /// hot path for repeated staleness-bounded queries, which reuse
    /// [`crate::GraphZeppelin`]'s cached pool instead of spawning one per
    /// query.
    pub fn spanning_forest_with_pool(&self, pool: &WorkerPool) -> Result<BoruvkaOutcome, GzError> {
        let params = self.store.params();
        let (num_nodes, rounds) = (params.num_nodes, params.rounds());
        let mut source = EpochRoundSource::new(&self.store, &self.overlay);
        crate::boruvka::boruvka_rounds_with_pool(&mut source, num_nodes, rounds, pool)
    }
}

/// The bounded-staleness cache of one sealed epoch, shared by both system
/// facades (`query_staleness`, DESIGN.md §11). It holds at most one epoch
/// together with the update count at its seal, and never keeps it past
/// the budget: a cached epoch keeps capturing pre-images (one node's full
/// sketch per first touch) for as long as it lives, so one no reader can
/// be handed any more must go at once. The cache drops its handle
///
/// - in [`Self::note_update`], as soon as the stream is more than
///   `budget` updates past the seal, and
/// - in [`Self::fresh`], when a query finds it stale — before the caller
///   seals a replacement, so the seal's flush captures nothing for it.
///
/// A reader still holding its own `Arc` keeps that epoch alive and
/// capturing, so its answers stay bit-identical to the seal. With no
/// budget (`None`) nothing is ever cached.
pub(crate) struct EpochCache<E> {
    budget: Option<u64>,
    cached: Option<(Arc<E>, u64)>,
}

impl<E> EpochCache<E> {
    pub(crate) fn new(budget: Option<u64>) -> Self {
        EpochCache { budget, cached: None }
    }

    /// The staleness budget, in updates (`None`: queries never reuse).
    pub(crate) fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Record that the stream now stands at `updates`: drop the cached
    /// epoch once it lags more than the budget.
    #[inline]
    pub(crate) fn note_update(&mut self, updates: u64) {
        if let (Some((_, sealed_at)), Some(budget)) = (&self.cached, self.budget) {
            if updates - sealed_at > budget {
                self.cached = None;
            }
        }
    }

    /// The cached epoch if it lags at most the budget at `updates`;
    /// otherwise drop it and return `None`, so the caller seals a fresh one
    /// and hands it to [`Self::keep`].
    pub(crate) fn fresh(&mut self, updates: u64) -> Option<Arc<E>> {
        self.note_update(updates);
        self.cached.as_ref().map(|(epoch, _)| Arc::clone(epoch))
    }

    /// Cache `epoch`, sealed at `updates`, when there is a budget to reuse
    /// it within; return the caller's handle either way.
    pub(crate) fn keep(&mut self, epoch: E, updates: u64) -> Arc<E> {
        let epoch = Arc::new(epoch);
        if self.budget.is_some() {
            self.cached = Some((Arc::clone(&epoch), updates));
        }
        epoch
    }

    /// Drop the cached epoch (restore, shutdown).
    pub(crate) fn clear(&mut self) {
        self.cached = None;
    }
}

/// The epoch-pinned streaming source: round slices come from the store's
/// open generation, masked by the overlay's sealed pre-images — same
/// storage-friendly access pattern as [`crate::StoreRoundSource`], without
/// quiescing ingestion.
pub struct EpochRoundSource<'a> {
    store: &'a SketchStore,
    overlay: &'a EpochOverlay,
    resident: usize,
}

impl<'a> EpochRoundSource<'a> {
    /// Wrap a store pinned to `overlay`'s epoch.
    pub fn new(store: &'a SketchStore, overlay: &'a EpochOverlay) -> Self {
        EpochRoundSource { store, overlay, resident: 0 }
    }
}

impl SketchSource for EpochRoundSource<'_> {
    type Sampler = CubeRoundSketch;

    fn num_rounds(&self) -> usize {
        self.store.params().rounds()
    }

    fn resident_bytes(&self) -> usize {
        self.resident
    }

    fn stream_round(
        &mut self,
        round: usize,
        live: &(dyn Fn(u32) -> bool + Sync),
        sink: &mut dyn FnMut(u32, &Self::Sampler),
    ) -> Result<(), GzError> {
        self.resident = self.store.round_stream_resident_bytes(round, 1);
        self.store.stream_round_at(round, live, self.overlay, sink)
    }

    fn stream_round_into(
        &mut self,
        round: usize,
        live: &(dyn Fn(u32) -> bool + Sync),
        pool: &WorkerPool,
        sinks: &[Mutex<RoundSink<'_, Self::Sampler>>],
    ) -> Result<(), GzError> {
        self.resident = self.store.round_stream_resident_bytes(round, sinks.len());
        if sinks.len() == 1 {
            let mut sink = sinks[0].lock();
            return self.store.stream_round_at(round, live, self.overlay, &mut |node, slice| {
                sink.fold(node, slice)
            });
        }
        self.store.stream_round_parallel_at(round, live, self.overlay, pool, sinks)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::GzConfig;
    use crate::system::GraphZeppelin;

    /// The tentpole invariant at its smallest: seal, record the
    /// stop-the-world answer, mutate the stream heavily, and the epoch
    /// still answers bit-for-bit as of its seal.
    #[test]
    fn epoch_pins_the_sealed_answer_under_further_ingest() {
        let mut gz = GraphZeppelin::new(GzConfig::in_ram(24)).unwrap();
        for &(u, v) in &[(0u32, 1u32), (1, 2), (5, 6), (8, 9)] {
            gz.edge_update(u, v);
        }
        let epoch = gz.begin_epoch().unwrap();
        let reference = gz.spanning_forest().unwrap();
        assert_eq!(epoch.overlay_resident_bytes(), 0, "nothing dirtied yet");

        // Rewrite a large part of the graph after the seal.
        for &(u, v) in &[(0u32, 1u32), (2, 3), (3, 4), (8, 9), (10, 11), (11, 12)] {
            gz.edge_update(u, v);
        }
        gz.flush();

        let at_epoch = epoch.spanning_forest().unwrap();
        assert_eq!(at_epoch.labels, reference.labels);
        assert_eq!(at_epoch.forest, reference.forest);
        assert_eq!(at_epoch.rounds_used, reference.rounds_used);
        assert_eq!(at_epoch.sketch_failures, reference.sketch_failures);
        assert!(epoch.captured_groups() > 0, "post-seal writes must capture");
        assert!(epoch.overlay_resident_bytes() > 0);

        // And the live system sees the new graph.
        let live = gz.spanning_forest().unwrap();
        assert_ne!(live.labels, reference.labels, "stream moved on");
    }

    /// Staleness routing: `Some(n)` reuses the sealed epoch until more
    /// than `n` updates have landed, then reseals.
    #[test]
    fn staleness_knob_reuses_then_reseals() {
        let mut c = GzConfig::in_ram(16);
        c.query_staleness = Some(3);
        let mut gz = GraphZeppelin::new(c).unwrap();
        gz.edge_update(0, 1);
        let first = gz.spanning_forest().unwrap();
        assert!(first.labels[0] == first.labels[1]);

        // Within the staleness budget: the answer may legally be stale.
        gz.edge_update(2, 3);
        let stale = gz.spanning_forest().unwrap();
        assert_eq!(stale.labels, first.labels, "within budget: epoch reused");

        // Blow the budget: the next query must reseal and see everything.
        for &(u, v) in &[(4u32, 5u32), (6, 7), (8, 9)] {
            gz.edge_update(u, v);
        }
        let fresh = gz.spanning_forest().unwrap();
        assert_eq!(fresh.labels[2], fresh.labels[3], "reseal sees (2,3)");
        assert_eq!(fresh.labels[4], fresh.labels[5]);
    }
}
