//! `gz serve` — a crash-safe long-running front door (DESIGN.md §15).
//!
//! One resident [`ShardedGraphZeppelin`] serves many concurrent TCP or
//! Unix-socket clients speaking the wire protocol's front-door dialect
//! (`ClientHello`/`UpdateBatch`/`Query`, wire v7). The daemon's robustness
//! contract:
//!
//! - **Backpressure, not collapse.** Ingest flows through the shard
//!   pipelines' bounded gutter work queues; when they are full the
//!   *ingesting* connection blocks inside its own `UpdateBatch` round trip.
//!   No socket I/O ever happens under the ingest lock, so a slow or hung
//!   client cannot stall anyone else's replies.
//! - **Admission control.** Past `--max-clients`, new connections get a
//!   typed `Busy` frame and are dropped instead of being accepted and
//!   starved.
//! - **Deadlines.** Per-connection read/write timeouts
//!   ([`TransportTimeouts`]) turn half-open peers and stalled readers into
//!   clean connection kills instead of pinned serve threads.
//! - **Malformed frames kill the offender only.** A garbage frame or
//!   protocol violation gets a best-effort `ErrorReply` and the connection
//!   dies; the daemon keeps serving everyone else.
//! - **Durability.** With `--dir`, every acked batch is first fsynced to an
//!   [`UpdateWal`]; a background thread periodically cuts versioned GZS2
//!   checkpoint rounds ([`ShardedGraphZeppelin::checkpoint_shards_to`]) and
//!   flips a [`ServeManifest`] atomically, then rotates the WAL. Restart
//!   with `--resume` restores the manifest's round and replays the WAL
//!   tail: every acked update is recovered, bit-identically, because the
//!   sketches are linear and the WAL is replayed in append order on top of
//!   a checkpoint that covers exactly the updates before it.
//! - **Graceful shutdown.** SIGINT/SIGTERM (or
//!   [`ServeHandle::shutdown`]) stops admissions, force-closes clients,
//!   cuts one final checkpoint round, and exits 0.
//!
//! Queries run on sealed epochs ([`ShardedGraphZeppelin::query_epoch`]) so
//! they overlap ingestion from other connections; an epoch is reused while
//! it lags at most `--staleness` acked updates, and the system drops its
//! cached epoch as soon as the stream moves past that budget.

use graph_zeppelin::{
    GzError, ServeManifest, ShardConfig, ShardedGraphZeppelin, TransportTimeouts, UpdateWal,
};
use gz_gutters::ServeStats;
use gz_stream::wire::{QueryAnswer, QueryKind, WireMessage, WireUpdate};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeListen {
    /// TCP `host:port` (port 0 picks a free port).
    Tcp(String),
    /// Unix domain socket path.
    Unix(PathBuf),
}

/// Everything `gz serve` needs, parsed or constructed.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Listen address.
    pub listen: ServeListen,
    /// Vertex universe size.
    pub nodes: u64,
    /// Shard count of the resident system.
    pub shards: u32,
    /// Master seed.
    pub seed: u64,
    /// Graph Workers per shard.
    pub workers: usize,
    /// Admission limit: connections past this are shed with `Busy`.
    pub max_clients: u32,
    /// Durability directory (`None` = in-memory only, nothing survives).
    pub dir: Option<PathBuf>,
    /// Resume from existing state under `dir`.
    pub resume: bool,
    /// Background checkpoint period in milliseconds.
    pub checkpoint_ms: u64,
    /// Per-connection read/write deadline in milliseconds (`None` = block
    /// forever).
    pub timeout_ms: Option<u64>,
    /// Reuse a sealed query epoch while it lags at most this many acked
    /// updates (0 = reseal whenever anything new was acked).
    pub staleness: u64,
    /// Print per-connection counters in the shutdown summary.
    pub stats: bool,
}

impl ServeOptions {
    /// Defaults for everything but the listen address and universe size.
    pub fn new(listen: ServeListen, nodes: u64) -> ServeOptions {
        ServeOptions {
            listen,
            nodes,
            shards: 1,
            seed: 0x5EED_1E55,
            workers: 2,
            max_clients: 64,
            dir: None,
            resume: false,
            checkpoint_ms: 1000,
            timeout_ms: Some(30_000),
            staleness: 0,
            stats: false,
        }
    }

    fn timeouts(&self) -> TransportTimeouts {
        match self.timeout_ms {
            // 0 = explicit "no deadline".
            None | Some(0) => TransportTimeouts::default(),
            Some(ms) => {
                let d = Duration::from_millis(ms);
                TransportTimeouts { connect: Some(d), read: Some(d), write: Some(d) }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Client streams and listeners (TCP or Unix, one code path)
// ---------------------------------------------------------------------------

/// An accepted client connection.
#[derive(Debug)]
pub enum ClientStream {
    /// TCP client.
    Tcp(TcpStream),
    /// Unix-socket client.
    Unix(UnixStream),
}

impl ClientStream {
    fn apply_timeouts(&self, t: &TransportTimeouts) -> std::io::Result<()> {
        match self {
            ClientStream::Tcp(s) => {
                s.set_read_timeout(t.read)?;
                s.set_write_timeout(t.write)
            }
            ClientStream::Unix(s) => {
                s.set_read_timeout(t.read)?;
                s.set_write_timeout(t.write)
            }
        }
    }

    fn try_clone(&self) -> std::io::Result<ClientStream> {
        Ok(match self {
            ClientStream::Tcp(s) => ClientStream::Tcp(s.try_clone()?),
            ClientStream::Unix(s) => ClientStream::Unix(s.try_clone()?),
        })
    }

    fn shutdown_both(&self) -> std::io::Result<()> {
        match self {
            ClientStream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            ClientStream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.read(buf),
            ClientStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.write(buf),
            ClientStream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            ClientStream::Tcp(s) => s.flush(),
            ClientStream::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl Listener {
    fn bind(listen: &ServeListen) -> Result<Listener, GzError> {
        match listen {
            ServeListen::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr)?)),
            ServeListen::Unix(path) => {
                let listener = match UnixListener::bind(path) {
                    Ok(l) => l,
                    // A SIGKILLed daemon leaves its socket file behind;
                    // nothing can be listening on it (we just failed to
                    // bind *because the inode exists*, not because a
                    // process owns it), so replace it.
                    Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                        std::fs::remove_file(path)?;
                        UnixListener::bind(path)?
                    }
                    Err(e) => return Err(GzError::Io(e)),
                };
                Ok(Listener::Unix(listener, path.clone()))
            }
        }
    }

    fn accept(&self) -> std::io::Result<ClientStream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(ClientStream::Tcp(s))
            }
            Listener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                Ok(ClientStream::Unix(s))
            }
        }
    }

    /// The address clients should dial, as announced on stdout.
    fn addr(&self) -> String {
        match self {
            Listener::Tcp(l) => {
                l.local_addr().map(|a| a.to_string()).unwrap_or_else(|_| "<unknown>".to_string())
            }
            Listener::Unix(_, path) => path.display().to_string(),
        }
    }

    /// Poke the accept loop awake (used once, at shutdown).
    fn wake(&self) {
        match self {
            Listener::Tcp(l) => {
                if let Ok(addr) = l.local_addr() {
                    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
                }
            }
            Listener::Unix(_, path) => {
                let _ = UnixStream::connect(path);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Durability state
// ---------------------------------------------------------------------------

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("serve.manifest")
}

fn wal_path(dir: &Path, round: u64) -> PathBuf {
    dir.join(format!("serve-wal-{round}.gzw"))
}

fn shard_paths(dir: &Path, round: u64, shards: u32) -> Vec<PathBuf> {
    (0..shards).map(|i| dir.join(format!("serve-round-{round}-shard-{i}.gzs2"))).collect()
}

/// Best-effort removal of shard/WAL files from rounds other than `keep`:
/// leftovers of a crash between writing a round's files and flipping the
/// manifest (or between the flip and the old round's cleanup).
fn prune_stale_rounds(dir: &Path, keep: u64) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let keep_wal = wal_path(dir, keep);
    let keep_prefix = format!("serve-round-{keep}-");
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale_round = name.starts_with("serve-round-") && !name.starts_with(&keep_prefix);
        let stale_wal =
            name.starts_with("serve-wal-") && entry.path() != keep_wal && name.ends_with(".gzw");
        if stale_round || stale_wal {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// The daemon's durability state, always mutated under the ingest lock.
struct Durability {
    dir: PathBuf,
    wal: UpdateWal,
    /// Current checkpoint round (0 = only the WAL exists).
    round: u64,
    /// Acked updates the round's shard files cover.
    covered: u64,
}

/// Core mutable state: the resident system plus its WAL. One lock guards
/// both so WAL append order always equals sketch apply order. `None`
/// system means the daemon is shutting down.
struct IngestState {
    system: Option<ShardedGraphZeppelin>,
    durability: Option<Durability>,
    /// Checkpoint rounds cut so far (for the shutdown summary).
    rounds_cut: u64,
}

// ---------------------------------------------------------------------------
// Shared daemon state
// ---------------------------------------------------------------------------

struct ServeShared {
    ingest: Mutex<IngestState>,
    /// Updates acked so far. Written only under the ingest lock; read
    /// lock-free by queries and hello replies.
    acked: AtomicU64,
    stats: Arc<ServeStats>,
    active: AtomicU32,
    shutting_down: AtomicBool,
    /// Clones of live client streams, for force-closing at shutdown.
    conns: Mutex<HashMap<u64, ClientStream>>,
    next_conn: AtomicU64,
    num_nodes: u64,
    num_shards: u32,
    seed: u64,
    max_clients: u32,
    timeouts: TransportTimeouts,
}

impl ServeShared {
    /// Durably log (when configured) and apply one validated batch.
    /// Returns the new acked count. Blocks on gutter backpressure — which
    /// blocks only this client's round trip, by design.
    fn apply_batch(&self, updates: &[WireUpdate]) -> Result<u64, GzError> {
        let mut ingest = self.ingest.lock().unwrap();
        let state = &mut *ingest;
        let Some(system) = state.system.as_mut() else {
            return Err(GzError::Protocol("daemon is shutting down".into()));
        };
        if let Some(d) = state.durability.as_mut() {
            let tuples: Vec<(u32, u32, bool)> =
                updates.iter().map(|u| (u.u, u.v, u.is_delete)).collect();
            d.wal.append(&tuples)?;
        }
        for u in updates {
            system.update(u.u, u.v, u.is_delete)?;
        }
        let acked = self.acked.load(Ordering::Relaxed) + updates.len() as u64;
        self.acked.store(acked, Ordering::Release);
        Ok(acked)
    }

    /// Answer one query: take the system's staleness-bounded epoch (cached,
    /// or sealed now) under the ingest lock, then fold it outside the lock.
    fn answer(&self, kind: QueryKind) -> Result<QueryAnswer, GzError> {
        let epoch = {
            let mut ingest = self.ingest.lock().unwrap();
            let Some(system) = ingest.system.as_mut() else {
                return Err(GzError::Protocol("daemon is shutting down".into()));
            };
            system.query_epoch()?
        };
        let outcome = epoch.spanning_forest()?;
        Ok(match kind {
            QueryKind::NumComponents => QueryAnswer::NumComponents(outcome.num_components() as u64),
            QueryKind::Components => QueryAnswer::Components(outcome.labels),
            QueryKind::SpanningForest => {
                QueryAnswer::SpanningForest(outcome.forest.iter().map(|e| (e.u(), e.v())).collect())
            }
        })
    }

    /// Cut one versioned checkpoint round if anything was acked since the
    /// last one. Ordering is the crash-safety argument: shard files land
    /// at *new* paths first, the manifest flip makes them current
    /// atomically, and only then is the WAL rotated and the old round
    /// removed. A crash anywhere leaves a consistent (round, WAL) pair
    /// covering at least every acked update.
    fn cut_round(&self) -> Result<bool, GzError> {
        let mut ingest = self.ingest.lock().unwrap();
        let state = &mut *ingest;
        let (Some(system), Some(d)) = (state.system.as_mut(), state.durability.as_mut()) else {
            return Ok(false);
        };
        let acked = self.acked.load(Ordering::Relaxed);
        if acked == d.covered {
            return Ok(false);
        }
        let next = d.round + 1;
        system.checkpoint_shards_to(&shard_paths(&d.dir, next, self.num_shards))?;
        ServeManifest {
            round: next,
            covered: acked,
            num_nodes: self.num_nodes,
            seed: self.seed,
            num_shards: self.num_shards,
        }
        .save(&manifest_path(&d.dir))?;
        d.wal = UpdateWal::create(&wal_path(&d.dir, next))?;
        for old in shard_paths(&d.dir, d.round, self.num_shards) {
            let _ = std::fs::remove_file(old);
        }
        let _ = std::fs::remove_file(wal_path(&d.dir, d.round));
        d.round = next;
        d.covered = acked;
        state.rounds_cut += 1;
        Ok(true)
    }
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

enum ReadOutcome {
    Msg(WireMessage),
    Disconnect,
    Malformed(String),
    TimedOut,
}

fn read_frame(stream: &mut ClientStream, stats: &ServeStats) -> ReadOutcome {
    match WireMessage::read_from(stream) {
        Ok(msg) => {
            stats.record_frames_in(1);
            ReadOutcome::Msg(msg)
        }
        Err(e) => match e.kind() {
            std::io::ErrorKind::InvalidData => ReadOutcome::Malformed(e.to_string()),
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => ReadOutcome::TimedOut,
            _ => ReadOutcome::Disconnect,
        },
    }
}

enum WriteEnd {
    Disconnect,
    TimedOut,
}

fn write_frame(
    stream: &mut ClientStream,
    msg: &WireMessage,
    stats: &ServeStats,
) -> Result<(), WriteEnd> {
    match msg.write_to(stream) {
        Ok(()) => {
            stats.record_frames_out(1);
            Ok(())
        }
        Err(e) => match e.kind() {
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                Err(WriteEnd::TimedOut)
            }
            _ => Err(WriteEnd::Disconnect),
        },
    }
}

/// Kill a connection over a malformed or protocol-violating frame: typed
/// reply (best-effort — the peer may already be gone) and count it.
fn kill_malformed(stream: &mut ClientStream, stats: &ServeStats, message: String) {
    stats.record_killed_malformed();
    if write_frame(stream, &WireMessage::ErrorReply { message }, stats).is_ok() {
        let _ = stream.flush();
    }
}

/// Reject a batch before anything is logged or applied: the resident
/// system's invariants (`u != v`, both endpoints in range) must hold for
/// every update or the whole batch is refused.
fn validate_batch(updates: &[WireUpdate], num_nodes: u64) -> Result<(), String> {
    for u in updates {
        if u.u == u.v {
            return Err(format!("self-loop {}-{} rejected", u.u, u.v));
        }
        if u.u as u64 >= num_nodes || u.v as u64 >= num_nodes {
            return Err(format!(
                "vertex {} out of range (universe is {num_nodes} nodes)",
                u.u.max(u.v)
            ));
        }
    }
    Ok(())
}

/// Drive one admitted client connection to completion.
fn serve_client(shared: &ServeShared, stream: &mut ClientStream, stats: &ServeStats) {
    // The first frame must be ClientHello.
    match read_frame(stream, stats) {
        ReadOutcome::Msg(WireMessage::ClientHello) => {}
        ReadOutcome::Msg(other) => {
            return kill_malformed(
                stream,
                stats,
                format!("expected ClientHello, got {}", other.name()),
            );
        }
        ReadOutcome::Malformed(m) => return kill_malformed(stream, stats, m),
        ReadOutcome::TimedOut => return stats.record_timed_out(),
        ReadOutcome::Disconnect => return,
    }
    let hello = WireMessage::ClientHelloAck {
        num_nodes: shared.num_nodes,
        acked: shared.acked.load(Ordering::Acquire),
    };
    match write_frame(stream, &hello, stats) {
        Ok(()) => {}
        Err(WriteEnd::TimedOut) => return stats.record_timed_out(),
        Err(WriteEnd::Disconnect) => return,
    }

    loop {
        match read_frame(stream, stats) {
            ReadOutcome::Msg(WireMessage::UpdateBatch { updates }) => {
                if let Err(msg) = validate_batch(&updates, shared.num_nodes) {
                    return kill_malformed(stream, stats, msg);
                }
                let acked = match shared.apply_batch(&updates) {
                    Ok(acked) => acked,
                    Err(e) => {
                        return kill_malformed(stream, stats, format!("ingest failed: {e}"));
                    }
                };
                match write_frame(stream, &WireMessage::UpdateAck { acked }, stats) {
                    Ok(()) => {}
                    Err(WriteEnd::TimedOut) => return stats.record_timed_out(),
                    Err(WriteEnd::Disconnect) => return,
                }
            }
            ReadOutcome::Msg(WireMessage::Query { kind }) => {
                let answer = match shared.answer(kind) {
                    Ok(answer) => answer,
                    Err(e) => {
                        return kill_malformed(stream, stats, format!("query failed: {e}"));
                    }
                };
                match write_frame(stream, &WireMessage::QueryResult { answer }, stats) {
                    Ok(()) => {}
                    Err(WriteEnd::TimedOut) => return stats.record_timed_out(),
                    Err(WriteEnd::Disconnect) => return,
                }
            }
            // A client's clean goodbye.
            ReadOutcome::Msg(WireMessage::Shutdown) => return,
            ReadOutcome::Msg(other) => {
                return kill_malformed(
                    stream,
                    stats,
                    format!("unexpected {} on a serve connection", other.name()),
                );
            }
            ReadOutcome::Malformed(m) => return kill_malformed(stream, stats, m),
            ReadOutcome::TimedOut => return stats.record_timed_out(),
            ReadOutcome::Disconnect => return,
        }
    }
}

// ---------------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------------

/// A running in-process daemon, as handed out by [`serve_start`]. Tests
/// and the load-generator bench drive it directly; the CLI wraps it with a
/// signal watcher.
pub struct ServeHandle {
    shared: Arc<ServeShared>,
    addr: String,
    unix_path: Option<PathBuf>,
    listener_wake: Arc<Listener>,
    accept_thread: std::thread::JoinHandle<()>,
    checkpoint_thread: Option<std::thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    stats_in_summary: bool,
}

impl ServeHandle {
    /// The address clients should dial (host:port, or a socket path).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Daemon-wide connection counters.
    pub fn stats(&self) -> Arc<ServeStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Client updates acked so far.
    pub fn acked(&self) -> u64 {
        self.shared.acked.load(Ordering::Acquire)
    }

    /// Connections currently admitted and not yet finished.
    pub fn active_clients(&self) -> u32 {
        self.shared.active.load(Ordering::Acquire)
    }

    /// Graceful shutdown: stop admissions, force-close clients, cut one
    /// final checkpoint round, tear the resident system down. Returns the
    /// shutdown summary the CLI prints.
    pub fn shutdown(self) -> Result<String, GzError> {
        let ServeHandle {
            shared,
            addr: _,
            unix_path,
            listener_wake,
            accept_thread,
            checkpoint_thread,
            handlers,
            stats_in_summary,
        } = self;
        shared.shutting_down.store(true, Ordering::Release);
        listener_wake.wake();
        accept_thread.join().expect("accept thread panicked");
        if let Some(t) = checkpoint_thread {
            t.join().expect("checkpoint thread panicked");
        }
        // Wake every handler blocked in a socket read/write; they exit as
        // disconnects.
        for (_, conn) in shared.conns.lock().unwrap().iter() {
            let _ = conn.shutdown_both();
        }
        for handle in std::mem::take(&mut *handlers.lock().unwrap()) {
            handle.join().expect("connection handler panicked");
        }
        // One final round so the durable state covers every acked update
        // without any WAL tail to replay.
        shared.cut_round()?;
        let (system, rounds) = {
            let mut ingest = shared.ingest.lock().unwrap();
            (ingest.system.take(), ingest.rounds_cut)
        };
        if let Some(system) = system {
            system.shutdown()?;
        }
        if let Some(path) = unix_path {
            let _ = std::fs::remove_file(path);
        }
        let mut out = format!(
            "serve shut down: {} updates acked, {rounds} checkpoint rounds",
            shared.acked.load(Ordering::Acquire),
        );
        if stats_in_summary {
            out.push_str(&format!("\nconnections: {}", shared.stats));
        }
        Ok(out)
    }
}

/// Build the resident system, recovering durable state when configured.
/// Returns the system, its durability bookkeeping, and how many updates
/// are already acked (manifest coverage plus the replayed WAL tail).
fn build_system(
    options: &ServeOptions,
) -> Result<(ShardedGraphZeppelin, Option<Durability>, u64), GzError> {
    let mut config = ShardConfig::in_ram(options.nodes, options.shards);
    config.seed = options.seed;
    config.workers_per_shard = options.workers;
    config.query_staleness = Some(options.staleness);
    let mut system = ShardedGraphZeppelin::in_process(config)?;

    let Some(dir) = &options.dir else { return Ok((system, None, 0)) };
    std::fs::create_dir_all(dir)?;
    let manifest_file = manifest_path(dir);

    let (round, covered) = if manifest_file.exists() {
        if !options.resume {
            return Err(GzError::InvalidConfig(format!(
                "{} holds existing serve state; pass --resume to continue from it \
                 or point --dir elsewhere",
                dir.display()
            )));
        }
        let m = ServeManifest::load(&manifest_file)?;
        if m.num_nodes != options.nodes || m.seed != options.seed || m.num_shards != options.shards
        {
            return Err(GzError::InvalidConfig(format!(
                "serve state at {} was written for {} nodes / seed {:#x} / {} shards, \
                 not the requested {} / {:#x} / {}",
                dir.display(),
                m.num_nodes,
                m.seed,
                m.num_shards,
                options.nodes,
                options.seed,
                options.shards,
            )));
        }
        prune_stale_rounds(dir, m.round);
        if m.round > 0 {
            system.resume_shards_from(&shard_paths(dir, m.round, options.shards))?;
        }
        (m.round, m.covered)
    } else {
        // Fresh state: publish round 0 immediately so a restart without
        // --resume is refused even before the first checkpoint.
        prune_stale_rounds(dir, 0);
        ServeManifest {
            round: 0,
            covered: 0,
            num_nodes: options.nodes,
            seed: options.seed,
            num_shards: options.shards,
        }
        .save(&manifest_file)?;
        (0, 0)
    };

    // Replay the WAL tail on top of the round's state. The WAL was
    // validated at ingest time, so replay applies it verbatim.
    let mut tail: Vec<(u32, u32, bool)> = Vec::new();
    let (wal, replayed) = UpdateWal::recover(&wal_path(dir, round), &mut |u, v, d| {
        tail.push((u, v, d));
    })?;
    for (u, v, d) in tail {
        system.update(u, v, d)?;
    }
    let durability = Durability { dir: dir.clone(), wal, round, covered };
    Ok((system, Some(durability), covered + replayed))
}

/// Start the daemon in this process and return a handle to it. The CLI
/// calls this and then waits for a signal; tests and benches drive the
/// handle directly.
pub fn serve_start(options: &ServeOptions) -> Result<ServeHandle, GzError> {
    let (system, durability, acked) = build_system(options)?;
    let listener = Arc::new(Listener::bind(&options.listen)?);
    let addr = listener.addr();
    let unix_path = match &options.listen {
        ServeListen::Unix(path) => Some(path.clone()),
        ServeListen::Tcp(_) => None,
    };

    let shared = Arc::new(ServeShared {
        ingest: Mutex::new(IngestState { system: Some(system), durability, rounds_cut: 0 }),
        acked: AtomicU64::new(acked),
        stats: Arc::new(ServeStats::new()),
        active: AtomicU32::new(0),
        shutting_down: AtomicBool::new(false),
        conns: Mutex::new(HashMap::new()),
        next_conn: AtomicU64::new(0),
        num_nodes: options.nodes,
        num_shards: options.shards,
        seed: options.seed,
        max_clients: options.max_clients,
        timeouts: options.timeouts(),
    });

    let handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept_thread = {
        let shared = Arc::clone(&shared);
        let listener = Arc::clone(&listener);
        let handlers = Arc::clone(&handlers);
        std::thread::spawn(move || accept_loop(&shared, &listener, &handlers))
    };

    let checkpoint_thread = if options.dir.is_some() {
        let shared = Arc::clone(&shared);
        let period = Duration::from_millis(options.checkpoint_ms.max(1));
        Some(std::thread::spawn(move || checkpoint_loop(&shared, period)))
    } else {
        None
    };

    Ok(ServeHandle {
        shared,
        addr,
        unix_path,
        listener_wake: listener,
        accept_thread,
        checkpoint_thread,
        handlers,
        stats_in_summary: options.stats,
    })
}

fn accept_loop(
    shared: &Arc<ServeShared>,
    listener: &Listener,
    handlers: &Mutex<Vec<std::thread::JoinHandle<()>>>,
) {
    loop {
        let stream = match listener.accept() {
            _ if shared.shutting_down.load(Ordering::Acquire) => return,
            Ok(stream) => stream,
            // Transient accept failures (EMFILE, aborted handshakes) must
            // not kill the daemon.
            Err(_) => continue,
        };
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        // Admission control: past the limit, answer Busy and drop —
        // never accept-then-starve. The reply happens off-thread so a
        // flood of connections cannot stall admission of legitimate ones,
        // and the client's hello is drained first: closing a socket with
        // unread data RSTs the Busy reply away.
        let active = shared.active.load(Ordering::Acquire);
        if active >= shared.max_clients {
            shared.stats.record_shed();
            let stats = Arc::clone(&shared.stats);
            let timeouts = shared.timeouts;
            let busy = WireMessage::Busy { active, max_clients: shared.max_clients };
            std::thread::spawn(move || {
                let mut stream = stream;
                let _ = stream.apply_timeouts(&timeouts);
                // A ClientHello is one bare 8-byte frame header.
                let mut hello = [0u8; 8];
                let _ = stream.read_exact(&mut hello);
                if busy.write_to(&mut stream).is_ok() {
                    stats.record_frames_out(1);
                    let _ = stream.flush();
                }
            });
            continue;
        }
        shared.active.fetch_add(1, Ordering::AcqRel);
        shared.stats.record_accepted();

        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().unwrap().insert(conn_id, clone);
        }
        let shared_for_conn = Arc::clone(shared);
        let handle = std::thread::spawn(move || {
            let mut stream = stream;
            let local = ServeStats::new();
            if stream.apply_timeouts(&shared_for_conn.timeouts).is_ok() {
                serve_client(&shared_for_conn, &mut stream, &local);
            }
            shared_for_conn.stats.merge_from(&local);
            shared_for_conn.conns.lock().unwrap().remove(&conn_id);
            shared_for_conn.active.fetch_sub(1, Ordering::AcqRel);
        });
        handlers.lock().unwrap().push(handle);
    }
}

fn checkpoint_loop(shared: &ServeShared, period: Duration) {
    let step = Duration::from_millis(25).min(period);
    let mut elapsed = Duration::ZERO;
    loop {
        std::thread::sleep(step);
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        elapsed += step;
        if elapsed < period {
            continue;
        }
        elapsed = Duration::ZERO;
        if let Err(e) = shared.cut_round() {
            // Disk trouble must not take queries and ingest down with it;
            // the next period retries, and shutdown surfaces the error.
            eprintln!("gz serve: checkpoint round failed: {e}");
        }
    }
}

// ---------------------------------------------------------------------------
// Signals (CLI path only)
// ---------------------------------------------------------------------------

/// SIGINT/SIGTERM handling via `signalfd(2)`, declared directly against
/// the libc ABI like the `io_uring` backend does for its syscalls.
mod signals {
    use std::os::raw::{c_int, c_void};

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct SigSet {
        bits: [u64; 16],
    }

    extern "C" {
        fn sigemptyset(set: *mut SigSet) -> c_int;
        fn sigaddset(set: *mut SigSet, signum: c_int) -> c_int;
        fn pthread_sigmask(how: c_int, set: *const SigSet, old: *mut SigSet) -> c_int;
        fn signalfd(fd: c_int, mask: *const SigSet, flags: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    const SIG_BLOCK: c_int = 0;
    /// Interactive interrupt (Ctrl-C).
    pub const SIGINT: c_int = 2;
    /// Termination request.
    pub const SIGTERM: c_int = 15;

    /// A file descriptor that becomes readable when SIGINT or SIGTERM
    /// arrives.
    pub struct SignalFd {
        fd: c_int,
    }

    /// Block SIGINT/SIGTERM process-wide and open a signalfd for them.
    /// Must run on the main thread *before* any other thread spawns, so
    /// every thread inherits the mask and the signal is only ever
    /// delivered through the fd.
    pub fn block_and_open() -> std::io::Result<SignalFd> {
        unsafe {
            let mut set = SigSet { bits: [0; 16] };
            if sigemptyset(&mut set) != 0
                || sigaddset(&mut set, SIGINT) != 0
                || sigaddset(&mut set, SIGTERM) != 0
            {
                return Err(std::io::Error::last_os_error());
            }
            if pthread_sigmask(SIG_BLOCK, &set, std::ptr::null_mut()) != 0 {
                return Err(std::io::Error::last_os_error());
            }
            let fd = signalfd(-1, &set, 0);
            if fd < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(SignalFd { fd })
        }
    }

    impl SignalFd {
        /// Block until a masked signal arrives; returns its number (the
        /// `ssi_signo` leading a 128-byte `signalfd_siginfo`).
        pub fn wait(&self) -> std::io::Result<c_int> {
            let mut info = [0u8; 128];
            let n = unsafe { read(self.fd, info.as_mut_ptr() as *mut c_void, info.len()) };
            if n < 4 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(i32::from_ne_bytes([info[0], info[1], info[2], info[3]]))
        }
    }

    impl Drop for SignalFd {
        fn drop(&mut self) {
            unsafe {
                close(self.fd);
            }
        }
    }
}

/// The CLI entry point: start the daemon, announce the bound address,
/// block until SIGINT/SIGTERM, then checkpoint and exit cleanly.
pub fn run_serve(options: ServeOptions) -> Result<String, String> {
    // Before any thread exists, so the mask is inherited everywhere.
    let signals = signals::block_and_open().map_err(|e| e.to_string())?;
    let handle = serve_start(&options).map_err(|e| e.to_string())?;
    // The exact "listening on " prefix scripts and the chaos harness parse.
    println!("gz serve listening on {}", handle.addr());
    std::io::stdout().flush().ok();

    let sig = signals.wait().map_err(|e| e.to_string())?;
    let name = match sig {
        signals::SIGINT => "SIGINT",
        signals::SIGTERM => "SIGTERM",
        _ => "signal",
    };
    eprintln!("gz serve: {name} received, checkpointing and shutting down");
    handle.shutdown().map_err(|e| e.to_string())
}
