//! Sharded (cluster-model) sketch ingestion — the paper's §8 outlook made
//! concrete: "Since GraphZeppelin's sketches can be updated independently
//! (Section 5.1), we believe that they can be partitioned throughout a
//! distributed cluster without sacrificing stream ingestion rate."
//!
//! The subsystem has four layers (DESIGN.md §7):
//!
//! - [`ShardRouter`] — coordinator-side inter-shard batching: per-node
//!   gutters (reusing `gz_gutters`) accumulate updates and emit node-keyed
//!   batches, replacing the old per-update routing hot path.
//! - the wire protocol (`gz_stream::wire`) — framed, versioned messages
//!   (`Hello`, `Batch`, `Flush`, `GatherSketches`, `GatherRound`,
//!   `Shutdown`) between coordinator and shard workers.
//! - [`ShardTransport`] — how batches travel and how a query round is
//!   gathered: [`InProcessTransport`] (queue pushes, the single-process
//!   deployment; round slices fold straight from each shard's store) or
//!   [`SocketTransport`] (TCP/Unix sockets to worker processes running
//!   [`serve_shard_connection`]; the wire codec runs only here). The
//!   coordinator is transport-agnostic.
//! - [`ShardPipeline`] — a full per-shard ingestion stack: work queue,
//!   Graph Worker pool, and a pluggable RAM/disk store covering only the
//!   shard's owned vertices.
//!
//! The routing contract is unchanged: shard `i` owns every vertex `v` with
//! `v % num_shards == i`, each update touches at most two shards, and
//! shards never communicate until query time. Each Borůvka round folds
//! only that round's slices into the round-driven engine — socket shards
//! ship one `GatherRound` frame (a `rounds`-fold smaller message than the
//! full sketch stack), in-process shards stream their stores in place —
//! so the coordinator never materializes the universe. The crucial
//! invariant — proved by the equivalence suite and the multi-process
//! example — is that a sharded system's gathered sketch state is
//! *bit-identical* to a single-node system's on the same stream, and so are
//! its answers.

mod pipeline;
mod router;
mod transport;

pub use pipeline::{shard_checkpoint_file_name, ShardPipeline};
pub use router::{ReplayLog, ShardRouter};
pub use transport::{
    connect_shard_tcp, new_pipeline_resuming, serve_shard_connection, spawn_local_socket_workers,
    InProcessTransport, RecoveringTransport, RetryPolicy, ShardLink, ShardServeStats,
    ShardTransport, SocketTransport, TransportTimeouts,
};

use crate::boruvka::{boruvka_rounds_parallel, BoruvkaOutcome};
use crate::config::{GutterCapacity, LockingStrategy, StoreBackend};
use crate::error::GzError;
use crate::node_sketch::{CubeRoundSketch, SketchParams};
use crate::store::epoch::EpochCache;
use crate::store::io_backend::IoBackendConfig;
use crate::store::SketchSource;
use gz_gutters::WorkerPool;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Configuration shared by the coordinator and every shard worker. Both
/// sides must agree on all sketch-defining fields — enforced at connection
/// time by the [`Self::params_digest`] handshake.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Vertex universe size.
    pub num_nodes: u64,
    /// Number of shards; shard `i` owns `{v : v % num_shards == i}`.
    pub num_shards: u32,
    /// Master seed (all shards must share it for mergeable sketches).
    pub seed: u64,
    /// Boruvka rounds; `None` = the paper's `⌈log_{3/2} V⌉`.
    pub num_rounds: Option<u32>,
    /// CubeSketch columns.
    pub num_columns: u32,
    /// Graph Workers per shard pipeline.
    pub workers_per_shard: usize,
    /// Batch-level locking discipline inside each shard.
    pub locking: LockingStrategy,
    /// Per-shard sketch store placement (RAM or disk).
    pub store: StoreBackend,
    /// Hybrid-representation promotion threshold τ, mirroring
    /// [`crate::config::GzConfig::sketch_threshold`]: each owned node keeps
    /// an exact toggle-set until it exceeds τ live neighbors, then is
    /// replayed into a dense sketch. 0 = always dense. Not part of the
    /// parameter digest: promotion-by-replay is bit-identical, so shards
    /// with different thresholds still gather mergeable state.
    pub sketch_threshold: u32,
    /// Router gutter capacity (the inter-shard batch size knob).
    pub router_capacity: GutterCapacity,
    /// Worker threads the coordinator's Borůvka engine folds and samples
    /// with; `None` = the per-shard ingestion worker count. Coordinator-side
    /// only — answers are bit-identical at any thread count.
    pub query_threads: Option<usize>,
    /// Bounded staleness for streaming queries (DESIGN.md §11), mirroring
    /// [`crate::config::GzConfig::query_staleness`]: `None` (the default)
    /// keeps the stop-the-world behavior; `Some(n)` lets a streaming query
    /// reuse the last sealed epoch while at most `n` updates were routed
    /// since its seal. Coordinator-side only — not part of the parameter
    /// digest.
    pub query_staleness: Option<u64>,
    /// Disk-store I/O backend tunables for each shard's store, mirroring
    /// [`crate::config::GzConfig::io`]. Ignored by RAM stores and not part
    /// of the parameter digest — the backend changes how bytes move, never
    /// which bytes exist, so shards with different backends still gather
    /// mergeable state.
    pub io: IoBackendConfig,
    /// Directory where each shard persists its `GZS2` checkpoint
    /// (DESIGN.md §14). `None` disables checkpointing. Worker-side (and
    /// used by in-process pipelines); not part of the parameter digest —
    /// where durable state lands cannot change the sketch bytes.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Coordinator-side checkpoint cadence: after every `n` routed batches
    /// the coordinator asks all shards to checkpoint, which prunes the
    /// recovery replay log. `None` = only explicit
    /// [`ShardedGraphZeppelin::checkpoint_shards`] calls. Not part of the
    /// parameter digest.
    pub checkpoint_every: Option<u64>,
}

impl ShardConfig {
    /// In-RAM defaults matching [`crate::config::GzConfig::in_ram`], so a
    /// sharded system with the same seed is bit-identical to a single-node
    /// one.
    pub fn in_ram(num_nodes: u64, num_shards: u32) -> Self {
        ShardConfig {
            num_nodes,
            num_shards,
            seed: 0x5EED_1E55,
            num_rounds: None,
            num_columns: gz_sketch::geometry::DEFAULT_COLUMNS,
            workers_per_shard: 2,
            locking: LockingStrategy::DeltaSketch,
            store: StoreBackend::Ram,
            sketch_threshold: 0,
            router_capacity: GutterCapacity::SketchFactor(0.5),
            query_threads: None,
            query_staleness: None,
            io: IoBackendConfig::default(),
            checkpoint_dir: None,
            checkpoint_every: None,
        }
    }

    /// Number of Boruvka rounds (= sketches per node).
    pub fn rounds(&self) -> u32 {
        self.num_rounds.unwrap_or_else(|| crate::config::default_rounds(self.num_nodes))
    }

    /// Worker threads the coordinator queries with (defaults to the
    /// ingestion worker count).
    pub fn query_threads(&self) -> usize {
        self.query_threads.unwrap_or(self.workers_per_shard).max(1)
    }

    /// The shared sketch parameters every shard derives.
    pub fn params(&self) -> SketchParams {
        SketchParams::new(self.num_nodes, self.rounds(), self.num_columns, self.seed)
    }

    /// Digest of every sketch-defining field, exchanged in the wire
    /// handshake: a worker whose digest differs would build unmergeable
    /// sketches, so the connection is refused.
    pub fn params_digest(&self) -> u64 {
        let mut bytes = [0u8; 28];
        bytes[0..8].copy_from_slice(&self.num_nodes.to_le_bytes());
        bytes[8..16].copy_from_slice(&self.seed.to_le_bytes());
        bytes[16..20].copy_from_slice(&self.rounds().to_le_bytes());
        bytes[20..24].copy_from_slice(&self.num_columns.to_le_bytes());
        bytes[24..28].copy_from_slice(&self.num_shards.to_le_bytes());
        gz_hash::xxh64(&bytes, u64::from(gz_stream::PROTOCOL_VERSION))
    }

    /// Validate invariants the subsystem relies on.
    pub fn validate(&self) -> Result<(), GzError> {
        if self.num_nodes < 2 {
            return Err(GzError::InvalidConfig("need at least 2 nodes".into()));
        }
        if self.num_nodes > u32::MAX as u64 {
            return Err(GzError::InvalidConfig("vertex ids must fit in u32".into()));
        }
        if self.num_shards == 0 {
            return Err(GzError::InvalidConfig("need at least one shard".into()));
        }
        if self.workers_per_shard == 0 {
            return Err(GzError::InvalidConfig("need at least one worker per shard".into()));
        }
        if self.query_threads == Some(0) {
            return Err(GzError::InvalidConfig("query_threads must be ≥ 1".into()));
        }
        if self.num_columns == 0 {
            return Err(GzError::InvalidConfig("need at least one sketch column".into()));
        }
        if self.io.queue_depth == 0 {
            return Err(GzError::InvalidConfig("io queue_depth must be ≥ 1".into()));
        }
        if self.checkpoint_every == Some(0) {
            return Err(GzError::InvalidConfig("checkpoint_every must be ≥ 1".into()));
        }
        Ok(())
    }
}

/// A sharded GraphZeppelin: a batching router in front of `k` shard
/// pipelines behind a pluggable transport, plus a query coordinator.
///
/// The transport sits behind a mutex shared with any [`ShardedEpoch`]
/// handles from [`Self::begin_epoch`]: epoch-pinned gathers and ingestion
/// batches interleave at message granularity on the same links, so a query
/// thread folds a sealed snapshot while this system keeps routing updates.
pub struct ShardedGraphZeppelin {
    params: Arc<SketchParams>,
    router: ShardRouter,
    transport: Arc<parking_lot::Mutex<Box<dyn ShardTransport + Send>>>,
    /// Local worker threads (socket transports spawned in-process); joined
    /// on shutdown.
    local_workers: Vec<JoinHandle<Result<ShardServeStats, GzError>>>,
    num_nodes: u64,
    updates: u64,
    query_threads: usize,
    /// The epoch bounded-staleness queries reuse
    /// (`ShardConfig::query_staleness`).
    epochs: EpochCache<ShardedEpoch>,
    /// Checkpoint cadence in routed batches (`ShardConfig::checkpoint_every`).
    checkpoint_every: Option<u64>,
    /// Router batch count at the last fleet checkpoint.
    last_checkpoint_batches: u64,
    shut_down: bool,
}

impl ShardedGraphZeppelin {
    /// Single-process sharded system with default parameters — the
    /// convenience form (`num_shards` shards over `num_nodes` vertices,
    /// deterministic in `seed`).
    pub fn new(num_nodes: u64, num_shards: u32, seed: u64) -> Result<Self, GzError> {
        let mut config = ShardConfig::in_ram(num_nodes, num_shards);
        config.seed = seed;
        Self::in_process(config)
    }

    /// Single-process deployment: shards are pipelines in this process
    /// behind an [`InProcessTransport`].
    pub fn in_process(config: ShardConfig) -> Result<Self, GzError> {
        let transport = InProcessTransport::new(&config)?;
        Self::with_transport(config, Box::new(transport))
    }

    /// Shards on local threads behind Unix-socket pairs: the full wire
    /// protocol without OS processes (useful for tests and for exercising
    /// the socket path on one machine).
    pub fn local_socket(config: ShardConfig) -> Result<Self, GzError> {
        let (transport, workers) = spawn_local_socket_workers(&config)?;
        let mut system = Self::with_transport(config, Box::new(transport))?;
        system.local_workers = workers;
        Ok(system)
    }

    /// The general form: any transport whose shard count matches
    /// `config.num_shards` (e.g. [`SocketTransport::connect_tcp`] to
    /// worker processes).
    pub fn with_transport(
        config: ShardConfig,
        transport: Box<dyn ShardTransport + Send>,
    ) -> Result<Self, GzError> {
        config.validate()?;
        if transport.num_shards() != config.num_shards {
            return Err(GzError::InvalidConfig(format!(
                "transport has {} shards, config wants {}",
                transport.num_shards(),
                config.num_shards
            )));
        }
        let params = Arc::new(config.params());
        let router = ShardRouter::new(
            config.num_nodes,
            config.num_shards,
            config.router_capacity,
            params.node_sketch_bytes(),
        );
        Ok(ShardedGraphZeppelin {
            params,
            router,
            transport: Arc::new(parking_lot::Mutex::new(transport)),
            local_workers: Vec::new(),
            num_nodes: config.num_nodes,
            updates: 0,
            query_threads: config.query_threads(),
            epochs: EpochCache::new(config.query_staleness),
            checkpoint_every: config.checkpoint_every,
            last_checkpoint_batches: 0,
            shut_down: false,
        })
    }

    /// Change the coordinator's query-thread count (answers are
    /// bit-identical at any setting; this is a performance knob).
    pub fn set_query_threads(&mut self, query_threads: usize) {
        assert!(query_threads >= 1, "query_threads must be ≥ 1");
        self.query_threads = query_threads;
    }

    /// Number of shards.
    pub fn num_shards(&self) -> u32 {
        self.transport.lock().num_shards()
    }

    /// The shard owning vertex `v`.
    pub fn shard_of(&self, v: u32) -> u32 {
        self.router.shard_of(v)
    }

    /// Route one stream update through the batching router: at most two
    /// shards are (eventually) contacted, and neither needs to know about
    /// the other.
    pub fn update(&mut self, u: u32, v: u32, is_delete: bool) -> Result<(), GzError> {
        assert!(u != v, "self-loop");
        assert!((u as u64) < self.num_nodes && (v as u64) < self.num_nodes, "vertex out of range");
        {
            let mut transport = self.transport.lock();
            self.router.route_update(u, v, is_delete, &mut |shard, batch| {
                transport.send_batch(shard, batch)
            })?;
        }
        self.updates += 1;
        // Outside the transport lock: a dropped epoch releases over it.
        self.epochs.note_update(self.updates);
        if let Some(every) = self.checkpoint_every {
            if self.router.batches_emitted() - self.last_checkpoint_batches >= every {
                self.checkpoint_shards()?;
            }
        }
        Ok(())
    }

    /// Flush, then persist every shard's owned state to its checkpoint
    /// path, pruning the transport's replay log (DESIGN.md §14). Returns
    /// the per-shard sequence numbers the checkpoints cover. Runs
    /// automatically every `ShardConfig::checkpoint_every` routed batches.
    pub fn checkpoint_shards(&mut self) -> Result<Vec<u64>, GzError> {
        self.flush()?;
        let seqs = self.transport.lock().checkpoint_shards()?;
        self.last_checkpoint_batches = self.router.batches_emitted();
        Ok(seqs)
    }

    /// Flush, then persist every shard's owned state to `paths[i]` (one
    /// path per shard), regardless of any cadence-configured destination.
    /// `gz serve` cuts its versioned checkpoint rounds through this.
    pub fn checkpoint_shards_to(
        &mut self,
        paths: &[std::path::PathBuf],
    ) -> Result<Vec<u64>, GzError> {
        self.flush()?;
        let seqs = self.transport.lock().checkpoint_shards_to(paths)?;
        self.last_checkpoint_batches = self.router.batches_emitted();
        Ok(seqs)
    }

    /// Restore every shard's owned state from `paths[i]`. Must run before
    /// any updates are ingested: the router's batch counters restart at
    /// zero either way, so resuming into a half-ingested system would
    /// desynchronize checkpoint sequence numbers.
    pub fn resume_shards_from(
        &mut self,
        paths: &[std::path::PathBuf],
    ) -> Result<Vec<u64>, GzError> {
        self.transport.lock().resume_shards_from(paths)
    }

    /// Recovery counters (checkpoints, replays, reconnects), if the
    /// transport tracks them ([`transport::RecoveringTransport`] does;
    /// plain transports return `None`).
    pub fn recovery_stats(&self) -> Option<Arc<gz_gutters::IoStats>> {
        self.transport.lock().recovery_stats()
    }

    /// Ingest a whole stream of `(u, v, is_delete)` updates.
    pub fn ingest(
        &mut self,
        updates: impl IntoIterator<Item = (u32, u32, bool)>,
    ) -> Result<(), GzError> {
        for (u, v, d) in updates {
            self.update(u, v, d)?;
        }
        Ok(())
    }

    /// Drain the router and make every batch visible in the shards'
    /// sketches (the distributed `cleanup()`).
    pub fn flush(&mut self) -> Result<(), GzError> {
        let mut transport = self.transport.lock();
        self.router.flush(&mut |shard, batch| transport.send_batch(shard, batch))?;
        transport.flush()
    }

    /// Gather every node's serialized sketch at the coordinator, indexed by
    /// node id. Bit-identical to a single-node system's
    /// [`crate::GraphZeppelin::snapshot_serialized`] on the same stream.
    pub fn gather_serialized(&mut self) -> Result<Vec<Vec<u8>>, GzError> {
        self.flush()?;
        let gathered = self.transport.lock().gather()?;
        let mut all: Vec<Option<Vec<u8>>> = vec![None; self.num_nodes as usize];
        for entry in gathered {
            let slot = all.get_mut(entry.node as usize).ok_or_else(|| {
                GzError::Protocol(format!("gathered sketch for out-of-range node {}", entry.node))
            })?;
            if slot.replace(entry.bytes).is_some() {
                return Err(GzError::Protocol(format!(
                    "node {} gathered from two shards",
                    entry.node
                )));
            }
        }
        all.into_iter()
            .enumerate()
            .map(|(node, bytes)| {
                bytes.ok_or_else(|| {
                    GzError::Protocol(format!("no shard gathered a sketch for node {node}"))
                })
            })
            .collect()
    }

    /// Query a spanning forest: each Borůvka round gathers only that
    /// round's sketch slices from the shards (`GatherRound` frames,
    /// `rounds`-fold smaller than a full gather), so the coordinator never
    /// materializes the whole universe.
    ///
    /// With `ShardConfig::query_staleness = Some(n)` the query folds
    /// [`Self::query_epoch`] instead — the sharded form of
    /// [`crate::GraphZeppelin::spanning_forest`]'s knob.
    pub fn spanning_forest(&mut self) -> Result<BoruvkaOutcome, GzError> {
        if self.epochs.budget().is_some() {
            return self.query_epoch()?.spanning_forest();
        }
        self.flush()?;
        gather_query(&self.transport, &self.params, None, self.query_threads)
    }

    /// The epoch a bounded-staleness query answers from: the cached one
    /// while at most `ShardConfig::query_staleness` updates were routed
    /// since its seal, else a freshly sealed one (which is cached in
    /// turn). A stale cached epoch is released before the new seal's
    /// flush, and [`Self::update`] releases it as soon as the stream moves
    /// past the budget, so only handles a caller still holds keep the
    /// shards capturing pre-images (DESIGN.md §11). With
    /// `query_staleness = None` every call seals afresh. `gz serve` takes
    /// this under its ingest lock and folds the handle outside it.
    pub fn query_epoch(&mut self) -> Result<Arc<ShardedEpoch>, GzError> {
        if let Some(epoch) = self.epochs.fresh(self.updates) {
            return Ok(epoch);
        }
        let epoch = self.begin_epoch()?;
        Ok(self.epochs.keep(epoch, self.updates))
    }

    /// Flush, then seal one epoch on every shard and hand back a query
    /// handle pinned to it (DESIGN.md §11). The handle answers
    /// [`ShardedEpoch::spanning_forest`] from the sealed state — bit-
    /// identical to a stop-the-world query at the seal — while this system
    /// keeps ingesting; dropping it releases every shard's captures.
    pub fn begin_epoch(&mut self) -> Result<ShardedEpoch, GzError> {
        self.flush()?;
        let epoch_ids = self.transport.lock().seal_epoch()?;
        Ok(ShardedEpoch {
            transport: Arc::clone(&self.transport),
            params: Arc::clone(&self.params),
            query_threads: self.query_threads,
            epoch_ids,
        })
    }

    /// Component labels.
    pub fn connected_components(&mut self) -> Result<Vec<u32>, GzError> {
        Ok(self.spanning_forest()?.labels)
    }

    /// Updates routed so far.
    pub fn updates_ingested(&self) -> u64 {
        self.updates
    }

    /// Node-keyed batches shipped to shards so far (the inter-shard message
    /// count — the quantity batching minimizes).
    pub fn batches_shipped(&self) -> u64 {
        self.router.batches_emitted()
    }

    /// Shut down: stop the shards and join any local worker threads.
    /// Surfaces worker errors, unlike the best-effort drop.
    pub fn shutdown(mut self) -> Result<(), GzError> {
        self.shutdown_inner()?;
        for handle in std::mem::take(&mut self.local_workers) {
            handle.join().expect("shard worker panicked")?;
        }
        Ok(())
    }

    fn shutdown_inner(&mut self) -> Result<(), GzError> {
        if self.shut_down {
            return Ok(());
        }
        self.shut_down = true;
        // Release the cached epoch while the shards still serve — its Drop
        // sends ReleaseEpoch, which must precede Shutdown on the links.
        self.epochs.clear();
        self.transport.lock().shutdown()
    }
}

impl Drop for ShardedGraphZeppelin {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
        for handle in std::mem::take(&mut self.local_workers) {
            let _ = handle.join();
        }
    }
}

/// A query handle pinned to one sealed epoch across every shard
/// ([`ShardedGraphZeppelin::begin_epoch`]). The handle shares the
/// coordinator's transport mutex, so its gathers interleave with ingestion
/// batches at message granularity — e.g. a `std::thread::scope` can run
/// [`Self::spanning_forest`] on one thread while the owning system ingests
/// on another. Dropping the handle sends a best-effort `ReleaseEpoch` to
/// every shard so their copy-on-write captures are reclaimed.
pub struct ShardedEpoch {
    transport: Arc<parking_lot::Mutex<Box<dyn ShardTransport + Send>>>,
    params: Arc<SketchParams>,
    query_threads: usize,
    epoch_ids: Vec<u64>,
}

impl ShardedEpoch {
    /// The per-shard epoch ids this handle is pinned to, indexed by shard.
    pub fn epoch_ids(&self) -> &[u64] {
        &self.epoch_ids
    }

    /// Change the handle's query-thread count (answers are bit-identical
    /// at any setting).
    pub fn set_query_threads(&mut self, query_threads: usize) {
        assert!(query_threads >= 1, "query_threads must be ≥ 1");
        self.query_threads = query_threads;
    }

    /// Query a spanning forest of the graph as it stood at the seal —
    /// bit-identical to a stop-the-world streaming query at that instant,
    /// no matter how much the shards have ingested since (pinned by the
    /// epoch equivalence suite).
    pub fn spanning_forest(&self) -> Result<BoruvkaOutcome, GzError> {
        gather_query(&self.transport, &self.params, Some(&self.epoch_ids), self.query_threads)
    }
}

impl Drop for ShardedEpoch {
    fn drop(&mut self) {
        // Best-effort: a shard that is already gone (or a link that is
        // already shut down) must not turn reclamation into a panic.
        let _ = self.transport.lock().release_epoch(&self.epoch_ids);
    }
}

/// Round-slice source over the shard transport: Borůvka round `r` asks the
/// transport to fold round `r` of every shard straight into the engine's
/// sinks ([`ShardTransport::gather_round_into`]) — in-process shards from
/// their stores, socket shards from validated wire replies — so the
/// coordinator never materializes the universe.
///
/// The transport is locked per round, not for the query's lifetime, so an
/// epoch-pinned source (`epochs = Some`) shares the links with concurrent
/// ingestion.
struct GatherRoundSource<'a> {
    transport: &'a parking_lot::Mutex<Box<dyn ShardTransport + Send>>,
    params: &'a SketchParams,
    epochs: Option<&'a [u64]>,
    resident: usize,
}

/// Run the Borůvka engine over round gathers from `transport`, pinned to
/// per-shard `epochs` when set.
fn gather_query(
    transport: &parking_lot::Mutex<Box<dyn ShardTransport + Send>>,
    params: &SketchParams,
    epochs: Option<&[u64]>,
    query_threads: usize,
) -> Result<BoruvkaOutcome, GzError> {
    let mut source = GatherRoundSource { transport, params, epochs, resident: 0 };
    boruvka_rounds_parallel(&mut source, params.num_nodes, params.rounds(), query_threads)
}

impl SketchSource for GatherRoundSource<'_> {
    type Sampler = CubeRoundSketch;

    fn num_rounds(&self) -> usize {
        self.params.rounds()
    }

    fn resident_bytes(&self) -> usize {
        self.resident
    }

    /// Shard gathers fold only into the engine's per-worker sinks (the
    /// engine calls [`Self::stream_round_into`]); there is no serial
    /// per-node delivery to offer.
    fn stream_round(
        &mut self,
        _round: usize,
        _live: &(dyn Fn(u32) -> bool + Sync),
        _sink: &mut dyn FnMut(u32, &Self::Sampler),
    ) -> Result<(), GzError> {
        Err(GzError::InvalidConfig("shard gathers fold only through stream_round_into".into()))
    }

    fn stream_round_into(
        &mut self,
        round: usize,
        live: &(dyn Fn(u32) -> bool + Sync),
        pool: &WorkerPool,
        sinks: &[parking_lot::Mutex<crate::boruvka::RoundSink<'_, Self::Sampler>>],
    ) -> Result<(), GzError> {
        self.resident = self.transport.lock().gather_round_into(
            round,
            self.epochs,
            self.params,
            live,
            pool,
            sinks,
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GzConfig;
    use crate::system::GraphZeppelin;

    fn demo_updates(n: u32, count: usize, seed: u64) -> Vec<(u32, u32, bool)> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut present = std::collections::HashSet::new();
        let mut out = Vec::new();
        while out.len() < count {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a == b {
                continue;
            }
            let key = (a.min(b), a.max(b));
            if present.remove(&key) {
                out.push((a, b, true));
            } else {
                present.insert(key);
                out.push((a, b, false));
            }
        }
        out
    }

    fn single_node_labels(n: u64, seed: u64, updates: &[(u32, u32, bool)]) -> Vec<u32> {
        let mut config = GzConfig::in_ram(n);
        config.seed = seed;
        let mut single = GraphZeppelin::new(config).unwrap();
        for &(u, v, d) in updates {
            single.update(u, v, d);
        }
        single.connected_components().unwrap().labels().to_vec()
    }

    #[test]
    fn sharded_matches_single_node_system() {
        let n = 64u32;
        let updates = demo_updates(n, 500, 1);
        let seed = 99;

        let mut sharded = ShardedGraphZeppelin::new(n as u64, 4, seed).unwrap();
        sharded.ingest(updates.iter().copied()).unwrap();
        assert_eq!(
            sharded.connected_components().unwrap(),
            single_node_labels(n as u64, seed, &updates)
        );
    }

    #[test]
    fn checkpoint_cadence_fires_midstream_and_a_fresh_system_resumes_the_state() {
        let dir = gz_testutil::TempDir::new("gz-cadence");
        let n = 32u64;
        let updates = demo_updates(32, 240, 5);
        let mut config = ShardConfig::in_ram(n, 2);
        config.checkpoint_dir = Some(dir.path().to_path_buf());
        config.checkpoint_every = Some(8);
        // Tiny gutters so batches (the cadence's unit) actually flow
        // mid-stream instead of pooling until the final flush.
        config.router_capacity = GutterCapacity::Updates(2);

        let mut sharded = ShardedGraphZeppelin::in_process(config.clone()).unwrap();
        let file0 = dir.path().join(shard_checkpoint_file_name(0, 2, config.seed));
        let mut fired_midstream = false;
        for &(u, v, d) in &updates {
            sharded.update(u, v, d).unwrap();
            fired_midstream |= file0.exists();
        }
        assert!(fired_midstream, "the cadence must checkpoint during ingest, not only at the end");
        // Checkpointing is transparent: answers match the single-node system.
        assert_eq!(
            sharded.connected_components().unwrap(),
            single_node_labels(n, config.seed, &updates)
        );
        let want = sharded.gather_serialized().unwrap();
        let seqs = sharded.checkpoint_shards().unwrap();
        assert_eq!(seqs.iter().sum::<u64>(), sharded.batches_shipped());
        sharded.shutdown().unwrap();

        // A fresh local-socket deployment over the same checkpoint dir
        // auto-resumes every shard (the thread-level `--resume` path) and
        // reports the exact pre-shutdown state.
        let mut resumed = ShardedGraphZeppelin::local_socket(config).unwrap();
        assert_eq!(resumed.gather_serialized().unwrap(), want);
        resumed.shutdown().unwrap();
    }

    #[test]
    fn clean_shutdown_cuts_a_final_checkpoint_without_a_cadence() {
        // No `checkpoint_every`, no explicit `checkpoint_shards()` call:
        // the only checkpoint is the one the workers write on the clean
        // `Shutdown` frame. Before that fix, everything since the last
        // cadence checkpoint (here: the entire stream) was silently
        // dropped on clean exit.
        let dir = gz_testutil::TempDir::new("gz-final-ckpt");
        let n = 32u64;
        let updates = demo_updates(32, 200, 11);
        let mut config = ShardConfig::in_ram(n, 2);
        config.checkpoint_dir = Some(dir.path().to_path_buf());

        let mut sharded = ShardedGraphZeppelin::local_socket(config.clone()).unwrap();
        sharded.ingest(updates.iter().copied()).unwrap();
        let want = sharded.gather_serialized().unwrap();
        let files: Vec<_> = (0..2)
            .map(|i| dir.path().join(shard_checkpoint_file_name(i, 2, config.seed)))
            .collect();
        assert!(files.iter().all(|f| !f.exists()), "no checkpoint may exist before shutdown");
        sharded.shutdown().unwrap();
        assert!(files.iter().all(|f| f.exists()), "clean shutdown must leave a checkpoint");

        let mut resumed = ShardedGraphZeppelin::local_socket(config).unwrap();
        assert_eq!(resumed.gather_serialized().unwrap(), want);
        resumed.shutdown().unwrap();
    }

    #[test]
    fn targeted_checkpoint_round_trips_through_a_fresh_system() {
        // The serve daemon's versioned-round path: checkpoint to explicit
        // paths, restore a brand-new system from them, and the restored
        // system both matches bit-for-bit and keeps answering correctly
        // for the rest of the stream.
        let dir = gz_testutil::TempDir::new("gz-targeted-ckpt");
        let n = 48u64;
        let updates = demo_updates(48, 400, 21);
        let (first, rest) = updates.split_at(250);
        let config = ShardConfig::in_ram(n, 3);

        let mut sharded = ShardedGraphZeppelin::in_process(config.clone()).unwrap();
        sharded.ingest(first.iter().copied()).unwrap();
        let paths: Vec<_> = (0..3).map(|i| dir.path().join(format!("round-1-{i}.gzs2"))).collect();
        let seqs = sharded.checkpoint_shards_to(&paths).unwrap();
        assert_eq!(seqs.iter().sum::<u64>(), sharded.batches_shipped());
        let want = sharded.gather_serialized().unwrap();

        let mut restored = ShardedGraphZeppelin::in_process(config.clone()).unwrap();
        let resumed_seqs = restored.resume_shards_from(&paths).unwrap();
        assert_eq!(resumed_seqs, seqs);
        assert_eq!(restored.gather_serialized().unwrap(), want);
        restored.ingest(rest.iter().copied()).unwrap();
        assert_eq!(
            restored.connected_components().unwrap(),
            single_node_labels(n, config.seed, &updates)
        );

        // Mismatched path count is refused before touching anything.
        assert!(sharded.checkpoint_shards_to(&paths[..2]).is_err());
        assert!(restored.resume_shards_from(&paths[..1]).is_err());
    }

    #[test]
    fn sharded_sketch_state_is_bit_identical_to_single_node() {
        let n = 48u64;
        let updates = demo_updates(n as u32, 400, 2);
        let seed = 0x5EED_1E55; // ShardConfig::in_ram default

        let mut sharded = ShardedGraphZeppelin::in_process(ShardConfig::in_ram(n, 3)).unwrap();
        sharded.ingest(updates.iter().copied()).unwrap();
        let gathered = sharded.gather_serialized().unwrap();

        let mut single = GraphZeppelin::new(GzConfig::in_ram(n)).unwrap();
        assert_eq!(single.config().seed, seed, "defaults must stay aligned");
        for &(u, v, d) in &updates {
            single.update(u, v, d);
        }
        assert_eq!(gathered, single.snapshot_serialized(), "gathered state must be bit-identical");
    }

    #[test]
    fn local_socket_transport_matches_in_process() {
        let n = 40u64;
        let updates = demo_updates(n as u32, 300, 3);

        let mut in_proc = ShardedGraphZeppelin::in_process(ShardConfig::in_ram(n, 3)).unwrap();
        in_proc.ingest(updates.iter().copied()).unwrap();
        let a = in_proc.gather_serialized().unwrap();

        let mut socket = ShardedGraphZeppelin::local_socket(ShardConfig::in_ram(n, 3)).unwrap();
        socket.ingest(updates.iter().copied()).unwrap();
        let b = socket.gather_serialized().unwrap();

        assert_eq!(a, b);
        socket.shutdown().unwrap();
    }

    #[test]
    fn shard_count_does_not_change_answers() {
        let n = 40u32;
        let updates = demo_updates(n, 300, 3);
        let mut labels = Vec::new();
        for shards in [1u32, 2, 7] {
            let mut sys = ShardedGraphZeppelin::new(n as u64, shards, 5).unwrap();
            sys.ingest(updates.iter().copied()).unwrap();
            labels.push(sys.connected_components().unwrap());
        }
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
    }

    #[test]
    fn batching_ships_fewer_messages_than_updates() {
        let n = 32u32;
        let updates = demo_updates(n, 2000, 7);
        let mut sys = ShardedGraphZeppelin::new(n as u64, 4, 5).unwrap();
        sys.ingest(updates.iter().copied()).unwrap();
        sys.flush().unwrap();
        let shipped = sys.batches_shipped();
        assert!(shipped > 0);
        assert!(
            shipped < updates.len() as u64,
            "batching must ship fewer messages ({shipped}) than updates ({})",
            updates.len()
        );
    }

    #[test]
    fn queries_are_repeatable_and_ingestion_continues() {
        let mut sys = ShardedGraphZeppelin::new(16, 2, 1).unwrap();
        sys.update(0, 1, false).unwrap();
        let a = sys.connected_components().unwrap();
        let b = sys.connected_components().unwrap();
        assert_eq!(a, b);
        sys.update(1, 2, false).unwrap();
        let c = sys.connected_components().unwrap();
        assert_eq!(c[0], c[2]);
    }

    #[test]
    fn each_update_touches_at_most_two_shards() {
        let sys = ShardedGraphZeppelin::new(100, 5, 1).unwrap();
        for (u, v) in [(0u32, 1u32), (5, 10), (99, 3)] {
            let touched: std::collections::HashSet<u32> =
                [sys.shard_of(u), sys.shard_of(v)].into_iter().collect();
            assert!(touched.len() <= 2);
        }
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(ShardedGraphZeppelin::new(1, 2, 0).is_err());
        assert!(ShardedGraphZeppelin::new(10, 0, 0).is_err());
        let mut bad = ShardConfig::in_ram(10, 2);
        bad.workers_per_shard = 0;
        assert!(ShardedGraphZeppelin::in_process(bad).is_err());
    }

    #[test]
    fn params_digest_separates_configs() {
        let base = ShardConfig::in_ram(64, 4);
        let mut other_seed = base.clone();
        other_seed.seed ^= 1;
        let mut other_shards = base.clone();
        other_shards.num_shards = 5;
        assert_eq!(base.params_digest(), base.clone().params_digest());
        assert_ne!(base.params_digest(), other_seed.params_digest());
        assert_ne!(base.params_digest(), other_shards.params_digest());
    }

    #[test]
    fn query_matches_oracle_across_transports() {
        use gz_graph::connectivity::{connected_components_dsu, is_spanning_forest};
        let n = 40u64;
        let updates = demo_updates(n as u32, 300, 11);
        let mut mirror = gz_graph::AdjacencyList::new(n as usize);
        for &(u, v, _) in &updates {
            mirror.toggle(gz_graph::Edge::new(u, v));
        }
        let truth = connected_components_dsu(&mirror);
        type Maker = fn(ShardConfig) -> Result<ShardedGraphZeppelin, GzError>;
        let makers: [Maker; 2] =
            [ShardedGraphZeppelin::in_process, ShardedGraphZeppelin::local_socket];
        let mut forests = Vec::new();
        for make in makers {
            let config = ShardConfig::in_ram(n, 3);
            let full_sketches = n as usize * config.params().node_sketch_bytes();
            let mut sys = make(config).unwrap();
            sys.ingest(updates.iter().copied()).unwrap();
            let got = sys.spanning_forest().unwrap();
            assert_eq!(got.labels, truth);
            assert!(is_spanning_forest(&mirror, &got.forest));
            // A round frame is `rounds`-fold smaller than the full gather.
            assert!(got.peak_sketch_bytes < full_sketches);
            forests.push((got.forest, got.rounds_used));
            sys.shutdown().unwrap();
        }
        assert_eq!(forests[0], forests[1], "transports must agree bit for bit");
    }

    #[test]
    fn sharded_epoch_pins_the_sealed_answer_across_transports() {
        let n = 32u64;
        let updates = demo_updates(n as u32, 200, 17);
        let more = demo_updates(n as u32, 100, 18);
        type Maker = fn(ShardConfig) -> Result<ShardedGraphZeppelin, GzError>;
        let makers: [Maker; 2] =
            [ShardedGraphZeppelin::in_process, ShardedGraphZeppelin::local_socket];
        for make in makers {
            let mut sys = make(ShardConfig::in_ram(n, 3)).unwrap();
            sys.ingest(updates.iter().copied()).unwrap();
            let epoch = sys.begin_epoch().unwrap();
            // Stop-the-world reference taken right after the seal.
            let reference = sys.spanning_forest().unwrap();
            sys.ingest(more.iter().copied()).unwrap();
            sys.flush().unwrap();
            // The epoch still answers as of the seal, and repeatably so.
            for _ in 0..2 {
                let pinned = epoch.spanning_forest().unwrap();
                assert_eq!(pinned.labels, reference.labels);
                assert_eq!(pinned.forest, reference.forest);
                assert_eq!(pinned.rounds_used, reference.rounds_used);
            }
            drop(epoch); // releases every shard's captures over the links
                         // The system is still fully usable after the release.
            sys.connected_components().unwrap();
            sys.shutdown().unwrap();
        }
    }

    #[test]
    fn sharded_staleness_knob_reuses_then_reseals() {
        let n = 24u64;
        let mut config = ShardConfig::in_ram(n, 2);
        config.query_staleness = Some(10);
        let mut sys = ShardedGraphZeppelin::in_process(config).unwrap();
        sys.update(0, 1, false).unwrap();
        let first = sys.connected_components().unwrap();
        // Within budget: the cached epoch answers, blind to the new edge.
        sys.update(1, 2, false).unwrap();
        let stale = sys.connected_components().unwrap();
        assert_eq!(stale, first);
        // Blow the budget: the reseal sees everything routed so far.
        for i in 3..14u32 {
            sys.update(2, i, false).unwrap();
        }
        let fresh = sys.connected_components().unwrap();
        assert_eq!(fresh[0], fresh[2]);
        assert_eq!(fresh[0], fresh[13]);
    }

    #[test]
    fn hybrid_shards_match_dense_shards_bitwise() {
        let n = 48u64;
        let updates = demo_updates(n as u32, 400, 21);
        let dense_cfg = ShardConfig::in_ram(n, 3);
        let mut hybrid_cfg = ShardConfig::in_ram(n, 3);
        hybrid_cfg.sketch_threshold = 4;
        let mut dense = ShardedGraphZeppelin::in_process(dense_cfg).unwrap();
        let mut hybrid = ShardedGraphZeppelin::in_process(hybrid_cfg).unwrap();
        dense.ingest(updates.iter().copied()).unwrap();
        hybrid.ingest(updates.iter().copied()).unwrap();
        // Full gathers densify by replay: bit-identical serialized state.
        assert_eq!(dense.gather_serialized().unwrap(), hybrid.gather_serialized().unwrap());
        // Streaming gathers ship tagged frames (sparse sets for
        // sub-threshold nodes); answers must still be bit-identical.
        let a = dense.spanning_forest().unwrap();
        let b = hybrid.spanning_forest().unwrap();
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.forest, b.forest);
        assert_eq!(a.rounds_used, b.rounds_used);
    }

    #[test]
    fn hybrid_sharded_epoch_pins_across_promotions() {
        let n = 32u64;
        let mut config = ShardConfig::in_ram(n, 2);
        config.sketch_threshold = 3;
        let mut sys = ShardedGraphZeppelin::in_process(config).unwrap();
        // Everything sparse at the seal.
        for i in 1..4u32 {
            sys.update(0, i, false).unwrap();
        }
        let epoch = sys.begin_epoch().unwrap();
        let reference = sys.spanning_forest().unwrap();
        // Post-seal churn pushes node 0 over τ — the pinned answer must
        // still serve the sealed sparse sets.
        for i in 4..12u32 {
            sys.update(0, i, false).unwrap();
        }
        sys.flush().unwrap();
        let pinned = epoch.spanning_forest().unwrap();
        assert_eq!(pinned.labels, reference.labels);
        assert_eq!(pinned.forest, reference.forest);
    }

    #[test]
    fn more_shards_than_nodes_still_answers() {
        // Shards with empty residue classes simply gather nothing.
        let mut sys = ShardedGraphZeppelin::new(3, 7, 1).unwrap();
        sys.update(0, 1, false).unwrap();
        let labels = sys.connected_components().unwrap();
        assert_eq!(labels[0], labels[1]);
        assert_ne!(labels[0], labels[2]);
    }
}
