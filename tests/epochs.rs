//! Epoch-versioned query tests: the keystone invariant is that a query
//! pinned to epoch E is *bit-identical* to a stop-the-world query issued at
//! the moment E was sealed — labels, forest (with edge order), rounds used,
//! and sketch-failure counts — no matter how much the stream moves while
//! the query runs, which store serves the rounds (RAM or disk), how the
//! vertex set is sharded, or how many threads fold the answer. The
//! satellite half pins reclamation: an epoch's copy-on-write overlay is
//! bounded by the touched set, captures each group at most once, and does
//! not accumulate across seal/query/drop cycles, and the bounded-staleness
//! cache (`query_epoch`) holds an epoch no longer than its budget.

use graph_zeppelin::{
    BoruvkaOutcome, GraphZeppelin, GzConfig, ShardConfig, ShardedEpoch, ShardedGraphZeppelin,
    SketchEpoch, StoreBackend,
};
use gz_testutil::TempDir;
use std::sync::{Arc, Weak};

fn ingest_single(gz: &mut GraphZeppelin, updates: &[(u32, u32, bool)]) {
    for &(u, v, d) in updates {
        gz.update(u, v, d);
    }
}

fn ingest_sharded(gz: &mut ShardedGraphZeppelin, updates: &[(u32, u32, bool)]) {
    for &(u, v, d) in updates {
        gz.update(u, v, d).expect("routed update");
    }
}

/// The concurrent-ingest stress test: a query thread folds a pinned epoch
/// while the owning thread keeps landing batches — ≥ 10 of them, each
/// force-flushed so the store really does move under the reader — and every
/// fold must still match the answer recorded at the seal.
#[test]
fn epoch_query_is_stable_under_concurrent_ingest() {
    let n = 64u64;
    let mut gz = GraphZeppelin::new(GzConfig::in_ram(n)).expect("system");
    for i in 0..n as u32 - 1 {
        if i % 3 != 0 {
            gz.edge_update(i, i + 1);
        }
    }

    let epoch = gz.begin_epoch().expect("seal");
    let reference = gz.spanning_forest().expect("stop-the-world reference");

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            // Repeated folds while batches land: each must pin the seal.
            for pass in 0..6 {
                let got = epoch.spanning_forest().expect("epoch query");
                assert_eq!(got.labels, reference.labels, "labels moved (pass {pass})");
                assert_eq!(got.forest, reference.forest, "forest moved (pass {pass})");
                assert_eq!(got.rounds_used, reference.rounds_used, "rounds moved (pass {pass})");
                assert_eq!(
                    got.sketch_failures, reference.sketch_failures,
                    "failures moved (pass {pass})"
                );
            }
        });

        // 12 concurrent batches rewriting much of the graph.
        for batch in 0..12u32 {
            for i in 0..16u32 {
                let u = (batch * 5 + i * 7) % n as u32;
                let v = (batch * 11 + i * 13 + 1) % n as u32;
                if u != v {
                    gz.edge_update(u, v);
                }
            }
            gz.flush();
        }
        handle.join().expect("query thread");
    });

    assert!(epoch.captured_groups() > 0, "concurrent batches must have captured pre-images");
    // The live system answers for the moved stream, not the seal.
    let live = gz.spanning_forest().expect("live query");
    assert_ne!(live.labels, reference.labels, "stream should have moved");
}

/// Same stress against a shard fleet: the `ShardedEpoch` handle shares the
/// transport with the coordinator, so gathers and ingestion interleave at
/// message granularity — and the pinned answer still must not move.
#[test]
fn sharded_epoch_query_is_stable_under_concurrent_ingest() {
    let n = 48u64;
    let mut gz =
        ShardedGraphZeppelin::in_process(ShardConfig::in_ram(n, 3)).expect("sharded system");
    for i in 0..n as u32 - 1 {
        if i % 4 != 0 {
            gz.update(i, i + 1, false).expect("routed update");
        }
    }

    let epoch = gz.begin_epoch().expect("seal");
    let reference = gz.spanning_forest().expect("stop-the-world reference");

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            for pass in 0..4 {
                let got = epoch.spanning_forest().expect("epoch query");
                assert_eq!(got.labels, reference.labels, "labels moved (pass {pass})");
                assert_eq!(got.forest, reference.forest, "forest moved (pass {pass})");
            }
        });

        for batch in 0..10u32 {
            for i in 0..12u32 {
                let u = (batch * 7 + i * 5) % n as u32;
                let v = (batch * 3 + i * 11 + 1) % n as u32;
                if u != v {
                    gz.update(u, v, false).expect("routed update");
                }
            }
            gz.flush().expect("flush");
        }
        handle.join().expect("query thread");
    });

    drop(epoch);
    let live = gz.spanning_forest().expect("live query");
    assert_ne!(live.labels, reference.labels, "stream should have moved");
    gz.shutdown().expect("clean shutdown");
}

/// Reclamation: the overlay starts empty, grows only on first-touch (each
/// group captured at most once per epoch, so re-dirtying the same groups is
/// free), and a fresh epoch after the old one drops starts from zero again
/// — repeated seal/ingest/query/drop cycles hold resident bytes flat
/// instead of accumulating.
#[test]
fn epoch_overlay_is_bounded_and_reclaimed() {
    let n = 32u64;
    let everything: Vec<(u32, u32, bool)> = (0..n as u32 - 1).map(|i| (i, i + 1, false)).collect();

    let mut gz = GraphZeppelin::new(GzConfig::in_ram(n)).expect("system");
    ingest_single(&mut gz, &everything);

    let mut per_cycle = Vec::new();
    for cycle in 0..4 {
        let epoch = gz.begin_epoch().expect("seal");
        assert_eq!(epoch.overlay_resident_bytes(), 0, "fresh epoch holds nothing (cycle {cycle})");
        assert_eq!(epoch.captured_groups(), 0, "fresh epoch pins nothing (cycle {cycle})");
        let reference = gz.spanning_forest().expect("reference");

        // Dirty every node the stream knows about.
        ingest_single(&mut gz, &everything);
        gz.flush();
        let first_touch = epoch.overlay_resident_bytes();
        assert!(first_touch > 0, "post-seal writes must capture (cycle {cycle})");

        // Re-dirtying the same groups must not grow the overlay: capture
        // happens at most once per (epoch, group).
        ingest_single(&mut gz, &everything);
        gz.flush();
        assert_eq!(
            epoch.overlay_resident_bytes(),
            first_touch,
            "re-dirtying captured groups grew the overlay (cycle {cycle})"
        );

        let got = epoch.spanning_forest().expect("epoch query");
        assert_eq!(got.labels, reference.labels, "cycle {cycle}");
        per_cycle.push(first_touch);
        // `epoch` drops here: the captured pre-images are freed.
    }

    // No cross-cycle accumulation: every cycle captured exactly the same
    // amount, because each epoch starts from an empty overlay.
    assert!(per_cycle.windows(2).all(|w| w[0] == w[1]), "resident bytes drifted: {per_cycle:?}");
}

/// With no epoch live (all handles dropped), ingestion must not capture
/// anything — the copy-on-write machinery gets out of the way entirely.
#[test]
fn dropped_epochs_stop_capturing() {
    let n = 16u64;
    let mut gz = GraphZeppelin::new(GzConfig::in_ram(n)).expect("system");
    gz.edge_update(0, 1);

    let epoch = gz.begin_epoch().expect("seal");
    let second = gz.begin_epoch().expect("second seal");
    assert!(second.id() > epoch.id(), "epoch ids are monotonic");
    drop(epoch);
    drop(second);

    // Both readers are gone; a later epoch sees a quiet overlay even
    // though the stream keeps moving between its seal and its queries.
    let third = gz.begin_epoch().expect("third seal");
    for i in 0..n as u32 - 1 {
        gz.edge_update(i, i + 1);
    }
    gz.flush();
    assert!(third.captured_groups() > 0, "live epoch still captures");
}

/// The two system facades, seen through what the staleness-cache tests
/// need: ingest one update, take the bounded-staleness epoch, fold it.
trait Facade {
    type Epoch;
    fn push(&mut self, u: u32, v: u32);
    fn query_epoch(&mut self) -> Arc<Self::Epoch>;
    fn fold(epoch: &Self::Epoch) -> BoruvkaOutcome;
}

impl Facade for GraphZeppelin {
    type Epoch = SketchEpoch;
    fn push(&mut self, u: u32, v: u32) {
        self.edge_update(u, v);
    }
    fn query_epoch(&mut self) -> Arc<SketchEpoch> {
        GraphZeppelin::query_epoch(self).expect("query epoch")
    }
    fn fold(epoch: &SketchEpoch) -> BoruvkaOutcome {
        epoch.spanning_forest().expect("epoch query")
    }
}

impl Facade for ShardedGraphZeppelin {
    type Epoch = ShardedEpoch;
    fn push(&mut self, u: u32, v: u32) {
        self.update(u, v, false).expect("routed update");
    }
    fn query_epoch(&mut self) -> Arc<ShardedEpoch> {
        ShardedGraphZeppelin::query_epoch(self).expect("query epoch")
    }
    fn fold(epoch: &ShardedEpoch) -> BoruvkaOutcome {
        epoch.spanning_forest().expect("epoch query")
    }
}

const CACHE_NODES: u64 = 32;
const BUDGET: u64 = 4;

/// The `i`-th update of the cache tests' stream (never a self-loop).
fn cache_edge(i: u32) -> (u32, u32) {
    let n = CACHE_NODES as u32;
    let u = (i * 7) % n;
    (u, (u + 1 + (i * 5) % (n - 1)) % n)
}

/// The stop-the-world answer after the first `count` updates, from a
/// plain single-node system (sharded state is bit-identical to it).
fn stop_the_world(count: u32) -> BoruvkaOutcome {
    let mut gz = GraphZeppelin::new(GzConfig::in_ram(CACHE_NODES)).expect("reference system");
    for i in 0..count {
        let (u, v) = cache_edge(i);
        gz.edge_update(u, v);
    }
    gz.spanning_forest().expect("reference query")
}

fn assert_same_answer(got: &BoruvkaOutcome, want: &BoruvkaOutcome, what: &str) {
    assert_eq!(got.labels, want.labels, "{what}: labels");
    assert_eq!(got.forest, want.forest, "{what}: forest");
    assert_eq!(got.rounds_used, want.rounds_used, "{what}: rounds used");
    assert_eq!(got.sketch_failures, want.sketch_failures, "{what}: sketch failures");
}

/// The cache lifecycle on one facade built with `query_staleness =
/// Some(BUDGET)`:
///
/// (a) within the budget `query_epoch` hands back the very same epoch;
/// (b) once the caller drops its handle, the cache lets go of the epoch as
///     soon as `BUDGET + 1` more updates land — before any reseal — so
///     nothing keeps capturing pre-images for it;
/// (c) an epoch a caller still holds stays alive across a reseal and more
///     ingest, and answers bit-identically to the stop-the-world query at
///     its own seal.
fn check_cache_lifecycle<F: Facade>(sys: &mut F, what: &str) {
    let mut pushed = 0u32;
    let push = |sys: &mut F, pushed: &mut u32, count: u64| {
        for _ in 0..count {
            let (u, v) = cache_edge(*pushed);
            sys.push(u, v);
            *pushed += 1;
        }
    };
    push(sys, &mut pushed, 20);

    // (a) Within the budget: the same Arc, however many times we ask.
    let first = sys.query_epoch();
    push(sys, &mut pushed, BUDGET);
    let again = sys.query_epoch();
    assert!(Arc::ptr_eq(&first, &again), "{what}: a lag of exactly the budget reuses");

    // (b) Drop every caller handle: only the cache holds the epoch now.
    let weak: Weak<F::Epoch> = Arc::downgrade(&first);
    drop((first, again));
    assert!(weak.upgrade().is_some(), "{what}: the cache still holds the epoch");
    push(sys, &mut pushed, 1);
    assert!(
        weak.upgrade().is_none(),
        "{what}: the cache must release its epoch once the stream moves past the budget"
    );

    // (c) A caller-held epoch outlives its supersession.
    let sealed_at = pushed;
    let held = sys.query_epoch();
    push(sys, &mut pushed, BUDGET + 3);
    let resealed = sys.query_epoch();
    assert!(!Arc::ptr_eq(&held, &resealed), "{what}: past the budget the query reseals");
    drop(resealed);
    push(sys, &mut pushed, 40);
    let reference = stop_the_world(sealed_at);
    assert_same_answer(&F::fold(&held), &reference, what);
    let live = F::fold(&sys.query_epoch());
    assert_same_answer(&live, &stop_the_world(pushed), &format!("{what} (fresh seal)"));
}

#[test]
fn single_node_query_epoch_cache_lifecycle() {
    let mut config = GzConfig::in_ram(CACHE_NODES);
    config.query_staleness = Some(BUDGET);
    let mut gz = GraphZeppelin::new(config).expect("system");
    check_cache_lifecycle(&mut gz, "single-node");
}

#[test]
fn sharded_query_epoch_cache_lifecycle_in_process_and_socket() {
    let mut config = ShardConfig::in_ram(CACHE_NODES, 3);
    config.query_staleness = Some(BUDGET);
    let mut in_process = ShardedGraphZeppelin::in_process(config.clone()).expect("in-process");
    check_cache_lifecycle(&mut in_process, "in-process shards");
    in_process.shutdown().expect("clean shutdown");
    let mut socket = ShardedGraphZeppelin::local_socket(config).expect("socket fleet");
    check_cache_lifecycle(&mut socket, "socket shards");
    socket.shutdown().expect("clean shutdown");
}

mod epoch_equivalence_proptests {
    use super::*;
    use proptest::prelude::*;

    fn toggles(n: u64, raw: Vec<(u32, u32)>) -> Vec<(u32, u32, bool)> {
        raw.into_iter()
            .map(|(a, b)| ((a as u64 % n) as u32, (b as u64 % n) as u32))
            .filter(|(a, b)| a != b)
            .map(|(a, b)| (a, b, false))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        /// The keystone: on arbitrary toggle streams split at an arbitrary
        /// point, "query at epoch E" equals "stop-the-world query right
        /// after E's flush" bit for bit — labels, forest, rounds used,
        /// sketch failures — across Ram/Disk stores × shard counts {1, 3}
        /// × query_threads {1, 4}, with the suffix of the stream ingested
        /// between the seal and the epoch queries.
        #[test]
        fn epoch_query_equals_stop_the_world_at_seal(
            n in 4u64..24,
            raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..100),
            split in 0usize..100
        ) {
            let updates = toggles(n, raw);
            let cut = split.min(updates.len());
            let (prefix, suffix) = updates.split_at(cut);

            // RAM store.
            let mut ram = GraphZeppelin::new(GzConfig::in_ram(n)).unwrap();
            ingest_single(&mut ram, prefix);
            let mut epoch = ram.begin_epoch().unwrap();
            let reference = ram.spanning_forest().unwrap();
            ingest_single(&mut ram, suffix);
            ram.flush();
            for threads in [1usize, 4] {
                epoch.set_query_threads(threads);
                let got = epoch.spanning_forest().unwrap();
                prop_assert_eq!(&reference.labels, &got.labels, "ram labels t={}", threads);
                prop_assert_eq!(&reference.forest, &got.forest, "ram forest t={}", threads);
                prop_assert_eq!(reference.rounds_used, got.rounds_used, "ram rounds t={}", threads);
                prop_assert_eq!(
                    reference.sketch_failures, got.sketch_failures,
                    "ram failures t={}", threads
                );
            }
            drop(epoch);

            // Disk store under a tight cache: captures ride the clean→dirty
            // transition and epoch reads prefer the overlay.
            let dir = TempDir::new("gz-epoch-prop");
            let mut disk_cfg = GzConfig::in_ram(n);
            disk_cfg.store = StoreBackend::Disk {
                dir: dir.path().to_path_buf(),
                block_bytes: 512,
                cache_groups: 2,
            };
            let mut disk = GraphZeppelin::new(disk_cfg).unwrap();
            ingest_single(&mut disk, prefix);
            let mut epoch = disk.begin_epoch().unwrap();
            let disk_reference = disk.spanning_forest().unwrap();
            prop_assert_eq!(&reference.labels, &disk_reference.labels, "disk seal-time labels");
            ingest_single(&mut disk, suffix);
            disk.flush();
            for threads in [1usize, 4] {
                epoch.set_query_threads(threads);
                let got = epoch.spanning_forest().unwrap();
                prop_assert_eq!(&reference.labels, &got.labels, "disk labels t={}", threads);
                prop_assert_eq!(&reference.forest, &got.forest, "disk forest t={}", threads);
                prop_assert_eq!(
                    reference.rounds_used, got.rounds_used,
                    "disk rounds t={}", threads
                );
                prop_assert_eq!(
                    reference.sketch_failures, got.sketch_failures,
                    "disk failures t={}", threads
                );
            }
            drop(epoch);

            // Shard fleets: per-shard seals gathered through the transport.
            for shards in [1u32, 3] {
                let mut gz = ShardedGraphZeppelin::in_process(ShardConfig::in_ram(n, shards))
                    .unwrap();
                ingest_sharded(&mut gz, prefix);
                let mut epoch = gz.begin_epoch().unwrap();
                ingest_sharded(&mut gz, suffix);
                gz.flush().unwrap();
                for threads in [1usize, 4] {
                    epoch.set_query_threads(threads);
                    let got = epoch.spanning_forest().unwrap();
                    prop_assert_eq!(
                        &reference.labels, &got.labels,
                        "labels {} shards t={}", shards, threads
                    );
                    prop_assert_eq!(
                        &reference.forest, &got.forest,
                        "forest {} shards t={}", shards, threads
                    );
                    prop_assert_eq!(
                        reference.rounds_used, got.rounds_used,
                        "rounds {} shards t={}", shards, threads
                    );
                    prop_assert_eq!(
                        reference.sketch_failures, got.sketch_failures,
                        "failures {} shards t={}", shards, threads
                    );
                }
                drop(epoch);
                gz.shutdown().unwrap();
            }
        }
    }
}
