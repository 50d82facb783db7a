//! Shard transports: how coordinator batches reach shard pipelines.
//!
//! The [`ShardTransport`] trait abstracts the coordinator/shard boundary so
//! the *same* coordinator code (router + round gather + Boruvka) runs
//! single-process or multi-process:
//!
//! - [`InProcessTransport`] — shards are [`ShardPipeline`]s owned by the
//!   coordinator; "sending" a batch is a queue push, and a query round
//!   folds every shard's slices straight from its store into the engine's
//!   sinks — no bytes are serialized.
//! - [`SocketTransport`] — shards live behind byte streams (`TcpStream`,
//!   `UnixStream`, or anything `Read + Write`) speaking the
//!   [`gz_stream::wire`] protocol; the remote end runs
//!   [`serve_shard_connection`]'s event loop. Only this path (and
//!   [`RecoveringTransport`] over it) runs the wire codec: each round reply
//!   is validated, decoded and folded as it arrives.
//!
//! Every transport starts with a `Hello`/`HelloAck` digest handshake: two
//! sides whose sketch parameters differ would produce unmergeable sketches,
//! so mismatches are refused before any batch flows.
//!
//! Fault tolerance (DESIGN.md §14) layers on top: [`RecoveringTransport`]
//! wraps a [`SocketTransport`], keeps a bounded [`ReplayLog`] of batches per
//! shard, and when a link fails with a *recoverable* [`TransportError`]
//! (timeout or peer-gone) it respawns the worker, resyncs from the worker's
//! last checkpoint sequence, and replays the missing tail. Because the
//! sketches are linear (XOR), replaying exactly the un-absorbed batches
//! reproduces the lost state bit-for-bit.

use crate::boruvka::RoundSink;
use crate::error::{GzError, TransportError};
use crate::node_sketch::{CubeRoundSketch, SketchParams};
use crate::sharding::router::ReplayLog;
use crate::sharding::{ShardConfig, ShardPipeline};
use crate::sparse::SparseSet;
use gz_gutters::{Batch, IoStats, WorkerPool};
use gz_hash::SplitMix64;
use gz_stream::wire::{SketchEntry, WireMessage};
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Link hardening: timeouts, retry policy, classified errors
// ---------------------------------------------------------------------------

/// Socket deadlines for a shard link. `None` means block forever — the
/// default, and the right call for in-process `UnixStream` pairs where the
/// peer cannot silently vanish. Multi-process deployments set `read` (and
/// usually `write`) so a SIGKILLed worker surfaces as a
/// [`TransportErrorKind::Timeout`](crate::error::TransportErrorKind) instead
/// of a hang.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportTimeouts {
    /// Deadline for establishing a TCP connection.
    pub connect: Option<Duration>,
    /// Deadline for each blocking read on an established link.
    pub read: Option<Duration>,
    /// Deadline for each blocking write on an established link.
    pub write: Option<Duration>,
}

impl TransportTimeouts {
    /// One deadline for everything — the common case.
    pub fn all(d: Duration) -> Self {
        TransportTimeouts { connect: Some(d), read: Some(d), write: Some(d) }
    }
}

/// Bounded exponential backoff with deterministic jitter for reconnect /
/// respawn attempts. Jitter comes from [`SplitMix64`] keyed by
/// `jitter_seed`, the shard index, and the attempt number, so retry timing
/// is reproducible run-to-run (the same discipline as every other use of
/// randomness in this codebase).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts before giving up (at least 1 is always made).
    pub attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base: Duration,
    /// Ceiling on any single backoff.
    pub max: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base: Duration::from_millis(50),
            max: Duration::from_secs(2),
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// Sleep before attempt `attempt` (0-based; attempt 0 never sleeps).
    /// The delay is `base * 2^(attempt-1)` capped at `max`, then jittered
    /// into `[delay/2, delay]` so a fleet of recovering coordinators does
    /// not stampede a respawning worker in lockstep.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let shift = (attempt - 1).min(16);
        let delay = self.base.saturating_mul(1u32 << shift).min(self.max);
        let half = delay / 2;
        let span_ms = half.as_millis().max(1) as u64;
        let jitter = SplitMix64::derive(self.jitter_seed ^ salt, attempt as u64) % span_ms;
        half + Duration::from_millis(jitter)
    }
}

/// A byte stream that can carry shard traffic and (where the OS supports
/// it) enforce [`TransportTimeouts`]. The default `apply_timeouts` is a
/// no-op so in-memory test streams qualify without ceremony.
pub trait ShardLink: Read + Write + Send {
    /// Install socket deadlines. Streams without kernel timeout support
    /// accept and ignore them.
    fn apply_timeouts(&mut self, _timeouts: &TransportTimeouts) -> std::io::Result<()> {
        Ok(())
    }
}

impl ShardLink for TcpStream {
    fn apply_timeouts(&mut self, timeouts: &TransportTimeouts) -> std::io::Result<()> {
        self.set_read_timeout(timeouts.read)?;
        self.set_write_timeout(timeouts.write)
    }
}

impl ShardLink for UnixStream {
    fn apply_timeouts(&mut self, timeouts: &TransportTimeouts) -> std::io::Result<()> {
        self.set_read_timeout(timeouts.read)?;
        self.set_write_timeout(timeouts.write)
    }
}

impl<T: ShardLink + ?Sized> ShardLink for &mut T {
    fn apply_timeouts(&mut self, timeouts: &TransportTimeouts) -> std::io::Result<()> {
        (**self).apply_timeouts(timeouts)
    }
}

/// Write `msg` on shard `shard`'s link, classifying any I/O failure into a
/// typed [`TransportError`] carrying the shard index.
fn send_msg<S: Read + Write>(link: &mut S, shard: u32, msg: &WireMessage) -> Result<(), GzError> {
    msg.write_to(link).map_err(|e| GzError::Transport(TransportError::from_io(shard, &e)))
}

/// Read one frame from shard `shard`'s link, classifying failures the same
/// way (`UnexpectedEof` → peer gone, `TimedOut`/`WouldBlock` → timeout,
/// `InvalidData` → malformed).
fn recv_msg<S: Read + Write>(link: &mut S, shard: u32) -> Result<WireMessage, GzError> {
    WireMessage::read_from(link).map_err(|e| GzError::Transport(TransportError::from_io(shard, &e)))
}

/// The `Hello`/`HelloAck` digest handshake on shard `shard`'s link: a
/// worker whose digest differs would build unmergeable sketches.
fn hello<S: Read + Write>(link: &mut S, shard: u32, params_digest: u64) -> Result<(), GzError> {
    send_msg(link, shard, &WireMessage::Hello { params_digest })?;
    match recv_msg(link, shard)? {
        WireMessage::HelloAck { params_digest: theirs } if theirs == params_digest => Ok(()),
        WireMessage::HelloAck { params_digest: theirs } => Err(GzError::Protocol(format!(
            "shard {shard} parameter digest {theirs:#x} != coordinator {params_digest:#x}"
        ))),
        other => {
            Err(GzError::Protocol(format!("shard {shard} answered Hello with {}", other.name())))
        }
    }
}

/// True for errors a [`RecoveringTransport`] may heal by respawning the
/// worker: timeouts and dead peers. Malformed frames and protocol
/// violations are bugs, not outages — they propagate.
fn recoverable(err: &GzError) -> bool {
    matches!(err, GzError::Transport(te) if te.kind.is_recoverable())
}

/// A coordinator's view of its shards.
pub trait ShardTransport {
    /// Number of shards behind this transport.
    fn num_shards(&self) -> u32;

    /// Ship a node-keyed batch to `shard`.
    fn send_batch(&mut self, shard: u32, batch: Batch) -> Result<(), GzError>;

    /// Make every shipped batch visible in the shards' sketches (the
    /// distributed form of the paper's `cleanup()`).
    fn flush(&mut self) -> Result<(), GzError>;

    /// Collect every shard's serialized sketches at the coordinator (the
    /// byte-level state oracle behind
    /// [`super::ShardedGraphZeppelin::gather_serialized`]; queries gather
    /// round slices instead).
    fn gather(&mut self) -> Result<Vec<SketchEntry>, GzError>;

    /// Fold round `round`'s slice of every shard's sketches into the
    /// query engine's per-worker `sinks` (one node → one fold, in any sink),
    /// skipping nodes whose supernode is no longer `live`. With
    /// `epochs = None` each shard flushes and answers from its live
    /// sketches; with `Some(ids)` shard `i` answers from its sealed epoch
    /// `ids[i]` **without** flushing, so the gather runs concurrently with
    /// ingestion (DESIGN.md §11). `params` decodes wire replies. Returns the
    /// sketch bytes the gather held resident (gathered frames or store
    /// read buffers) for the engine's peak-memory accounting.
    fn gather_round_into(
        &mut self,
        round: usize,
        epochs: Option<&[u64]>,
        params: &SketchParams,
        live: &(dyn Fn(u32) -> bool + Sync),
        pool: &WorkerPool,
        sinks: &[Mutex<RoundSink<'_, CubeRoundSketch>>],
    ) -> Result<usize, GzError>;

    /// Seal one epoch on every shard — each shard flushes its pipeline and
    /// freezes the sealed state behind copy-on-write — and return the
    /// per-shard epoch ids, indexed by shard. The ids are what epoch-pinned
    /// gathers and [`Self::release_epoch`] quote back.
    fn seal_epoch(&mut self) -> Result<Vec<u64>, GzError>;

    /// Release previously sealed epochs (`epochs[i]` on shard `i`), letting
    /// each shard reclaim its copy-on-write captures. Idempotent: releasing
    /// an already-released id is not an error.
    fn release_epoch(&mut self, epochs: &[u64]) -> Result<(), GzError>;

    /// Ask every shard to durably checkpoint its owned sketch state, and
    /// return the per-shard batch sequence numbers the checkpoints cover
    /// (indexed by shard). Transports that track a replay log prune it
    /// here. The default refuses: a transport must opt in to durability.
    fn checkpoint_shards(&mut self) -> Result<Vec<u64>, GzError> {
        Err(GzError::InvalidConfig("this transport does not support shard checkpoints".into()))
    }

    /// Durably checkpoint every shard's owned state to `paths[i]` (one path
    /// per shard), overriding any cadence-configured destination. `gz
    /// serve` uses this to write *versioned* checkpoint rounds: each round
    /// lands at fresh paths, and only after every shard file is complete
    /// does a manifest flip make the round current — so a crash mid-round
    /// can never mix old and new shard state. The default refuses, like
    /// [`checkpoint_shards`](Self::checkpoint_shards).
    fn checkpoint_shards_to(&mut self, paths: &[std::path::PathBuf]) -> Result<Vec<u64>, GzError> {
        let _ = paths;
        Err(GzError::InvalidConfig(
            "this transport does not support targeted shard checkpoints".into(),
        ))
    }

    /// Restore every shard's owned state from `paths[i]`, validating each
    /// file's topology header against the shard it lands on. Returns the
    /// per-shard sequence numbers the restored state covers. The default
    /// refuses.
    fn resume_shards_from(&mut self, paths: &[std::path::PathBuf]) -> Result<Vec<u64>, GzError> {
        let _ = paths;
        Err(GzError::InvalidConfig("this transport does not support shard resume".into()))
    }

    /// Recovery counters, if this transport keeps them
    /// ([`RecoveringTransport`] does; plain transports return `None`).
    fn recovery_stats(&self) -> Option<Arc<IoStats>> {
        None
    }

    /// Tear the shards down.
    fn shutdown(&mut self) -> Result<(), GzError>;
}

// ---------------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------------

/// All shards in this process: the single-process deployment, now expressed
/// as a transport so it shares every line of coordinator code with the
/// multi-process one.
pub struct InProcessTransport {
    shards: Vec<ShardPipeline>,
}

impl InProcessTransport {
    /// Build `config.num_shards` pipelines in this process.
    pub fn new(config: &ShardConfig) -> Result<Self, GzError> {
        let shards = (0..config.num_shards)
            .map(|i| ShardPipeline::new(config, i))
            .collect::<Result<Vec<_>, GzError>>()?;
        Ok(InProcessTransport { shards })
    }
}

impl ShardTransport for InProcessTransport {
    fn num_shards(&self) -> u32 {
        self.shards.len() as u32
    }

    fn send_batch(&mut self, shard: u32, batch: Batch) -> Result<(), GzError> {
        self.shards[shard as usize].enqueue(batch.node, batch.others)
    }

    fn flush(&mut self) -> Result<(), GzError> {
        for shard in &self.shards {
            shard.flush();
        }
        Ok(())
    }

    fn gather(&mut self) -> Result<Vec<SketchEntry>, GzError> {
        let mut entries = Vec::new();
        for shard in &self.shards {
            entries.extend(shard.gather_serialized());
        }
        Ok(entries)
    }

    fn gather_round_into(
        &mut self,
        round: usize,
        epochs: Option<&[u64]>,
        _params: &SketchParams,
        live: &(dyn Fn(u32) -> bool + Sync),
        pool: &WorkerPool,
        sinks: &[Mutex<RoundSink<'_, CubeRoundSketch>>],
    ) -> Result<usize, GzError> {
        check_epochs(epochs, self.shards.len())?;
        // Each shard streams its own store into the sinks in turn, fanned
        // out across the whole pool; owned node sets partition the
        // universe, so every node is folded exactly once. Shards stream one
        // after another, so the resident peak is the largest shard's.
        let mut resident = 0;
        for (i, shard) in self.shards.iter().enumerate() {
            let epoch = epochs.map(|ids| ids[i]);
            resident = resident.max(shard.stream_round_into(round, epoch, live, pool, sinks)?);
        }
        Ok(resident)
    }

    fn seal_epoch(&mut self) -> Result<Vec<u64>, GzError> {
        self.shards.iter().map(|shard| shard.seal_epoch()).collect()
    }

    fn release_epoch(&mut self, epochs: &[u64]) -> Result<(), GzError> {
        check_epochs(Some(epochs), self.shards.len())?;
        for (i, shard) in self.shards.iter().enumerate() {
            shard.release_epoch(epochs[i]);
        }
        Ok(())
    }

    fn checkpoint_shards(&mut self) -> Result<Vec<u64>, GzError> {
        self.shards.iter().map(|shard| shard.save_checkpoint()).collect()
    }

    fn checkpoint_shards_to(&mut self, paths: &[std::path::PathBuf]) -> Result<Vec<u64>, GzError> {
        check_paths("checkpoint_shards_to", paths, self.shards.len())?;
        self.shards
            .iter()
            .zip(paths)
            .map(|(shard, path)| {
                shard.set_checkpoint_path(path.clone());
                shard.save_checkpoint()
            })
            .collect()
    }

    fn resume_shards_from(&mut self, paths: &[std::path::PathBuf]) -> Result<Vec<u64>, GzError> {
        check_paths("resume_shards_from", paths, self.shards.len())?;
        self.shards.iter().zip(paths).map(|(shard, path)| shard.resume_from(path)).collect()
    }

    fn shutdown(&mut self) -> Result<(), GzError> {
        self.shards.clear(); // Drop closes queues and joins workers.
        Ok(())
    }
}

/// A targeted checkpoint or resume must name exactly one path per shard.
fn check_paths(op: &str, paths: &[std::path::PathBuf], num_shards: usize) -> Result<(), GzError> {
    if paths.len() != num_shards {
        return Err(GzError::InvalidConfig(format!(
            "{op} needs one path per shard: got {} for {num_shards} shards",
            paths.len()
        )));
    }
    Ok(())
}

/// An epoch-pinned request must carry exactly one epoch id per shard.
fn check_epochs(epochs: Option<&[u64]>, num_shards: usize) -> Result<(), GzError> {
    match epochs {
        Some(ids) if ids.len() != num_shards => {
            Err(GzError::Protocol(format!("{} epoch ids for {num_shards} shards", ids.len())))
        }
        _ => Ok(()),
    }
}

/// The coordinator side of a wire round gather: every shard's
/// `RoundSketches` reply is validated, decoded and folded into the
/// engine's sinks as it arrives. A reply that fails validation stops all
/// further folding, but the caller still hands over every remaining reply:
/// each link owes exactly one, and leaving it unread would desynchronize
/// the framing for whatever the coordinator does next.
struct WireRoundFold<'a, 's> {
    params: &'a SketchParams,
    round: usize,
    live: &'a (dyn Fn(u32) -> bool + Sync),
    pool: &'a WorkerPool,
    sinks: &'a [Mutex<RoundSink<'s, CubeRoundSketch>>],
    seen: Vec<bool>,
    resident: usize,
    result: Result<(), GzError>,
}

impl<'a, 's> WireRoundFold<'a, 's> {
    fn new(
        params: &'a SketchParams,
        round: usize,
        live: &'a (dyn Fn(u32) -> bool + Sync),
        pool: &'a WorkerPool,
        sinks: &'a [Mutex<RoundSink<'s, CubeRoundSketch>>],
    ) -> Self {
        let seen = vec![false; params.num_nodes as usize];
        WireRoundFold { params, round, live, pool, sinks, seen, resident: 0, result: Ok(()) }
    }

    /// Take one shard's reply, folding it unless an earlier reply failed
    /// (that failure surfaces from [`Self::finish`]). Anything but this
    /// round's `RoundSketches` is handed back as unexpected.
    fn reply(&mut self, reply: WireMessage) -> Result<(), WireMessage> {
        match reply {
            WireMessage::RoundSketches { round, entries } if round as usize == self.round => {
                if self.result.is_ok() {
                    self.result = self.fold(&entries);
                }
                Ok(())
            }
            other => Err(other),
        }
    }

    /// Validate one reply, then fold it across the pool: contiguous entry
    /// chunks, one per worker, into that worker's sink.
    fn fold(&mut self, entries: &[SketchEntry]) -> Result<(), GzError> {
        let expect_bytes = self.params.round_serialized_bytes(self.round);
        for e in entries {
            validate_round_entry(&mut self.seen, e, self.round, expect_bytes)?;
        }
        self.resident += entries.iter().map(|e| e.bytes.len()).sum::<usize>();
        let (params, round, live, pool, sinks) =
            (self.params, self.round, self.live, self.pool, self.sinks);
        pool.run(&|w| {
            let range = pool.partition(entries.len(), w);
            if range.is_empty() {
                return;
            }
            let mut sink = sinks[w].lock();
            for e in &entries[range] {
                if live(e.node) {
                    sink.fold(e.node, &decode_round_entry(params, round, e));
                }
            }
        });
        Ok(())
    }

    /// The first reply's error, else a check that every node of the
    /// universe arrived; returns the gathered frame bytes.
    fn finish(self) -> Result<usize, GzError> {
        self.result?;
        if let Some(node) = self.seen.iter().position(|s| !*s) {
            return Err(GzError::Protocol(format!(
                "no shard gathered a round slice for node {node}"
            )));
        }
        Ok(self.resident)
    }
}

/// Validation for gathered round entries: each in-range node arrives
/// exactly once, with a valid representation tag — `0` followed by exactly
/// one round's dense bytes, or `1` followed by a well-formed sparse
/// neighbor-set (wire protocol v5).
fn validate_round_entry(
    seen: &mut [bool],
    e: &SketchEntry,
    round: usize,
    expect_bytes: usize,
) -> Result<(), GzError> {
    let slot = seen.get_mut(e.node as usize).ok_or_else(|| {
        GzError::Protocol(format!("gathered round slice for out-of-range node {}", e.node))
    })?;
    if std::mem::replace(slot, true) {
        return Err(GzError::Protocol(format!("node {} gathered from two shards", e.node)));
    }
    match e.bytes.first() {
        Some(0) => {
            if e.bytes.len() != 1 + expect_bytes {
                return Err(GzError::Protocol(format!(
                    "round {round} dense slice for node {} is {} bytes, want {}",
                    e.node,
                    e.bytes.len() - 1,
                    expect_bytes
                )));
            }
        }
        Some(1) => {
            if SparseSet::decode_wire(&e.bytes[1..]).is_none() {
                return Err(GzError::Protocol(format!(
                    "round {round} sparse set for node {} is malformed",
                    e.node
                )));
            }
        }
        tag => {
            return Err(GzError::Protocol(format!(
                "round {round} entry for node {} has bad representation tag {tag:?}",
                e.node
            )));
        }
    }
    Ok(())
}

/// Decode a *validated* v5 round entry into its round slice: tag 0 carries
/// the dense serialization; tag 1 carries a sparse neighbor-set the
/// coordinator replays through the batch kernel — bit-identical to the
/// dense slice the shard would hold had the node been promoted.
fn decode_round_entry(params: &SketchParams, round: usize, e: &SketchEntry) -> CubeRoundSketch {
    match e.bytes[0] {
        0 => params.deserialize_round(round, &e.bytes[1..]),
        1 => {
            let set = SparseSet::decode_wire(&e.bytes[1..]).expect("entry validated");
            set.synthesize_round(e.node, params, round)
        }
        tag => unreachable!("entry validated, got tag {tag}"),
    }
}

// ---------------------------------------------------------------------------
// Wire round trips shared by the socket transports
// ---------------------------------------------------------------------------

/// Request/reply access to a fleet's wire links — plain for
/// [`SocketTransport`], respawning for [`RecoveringTransport`] — so both
/// run the same pipelined round trips.
trait WireLinks {
    fn num_links(&self) -> usize;

    fn send(&mut self, shard: usize, msg: &WireMessage) -> Result<(), GzError>;

    /// Read `shard`'s reply to `request` (a recovering link re-sends the
    /// request after replacing a dead link).
    fn recv(&mut self, shard: usize, request: &WireMessage) -> Result<WireMessage, GzError>;

    /// One pipelined round trip: `request(i)` goes to every shard before any
    /// reply is read, so the shards work concurrently; each reply is then
    /// handed to `take` as its link delivers it, in shard order (a shard
    /// that finishes early is buffered by the transport until its turn).
    /// `take` hands back a reply it did not expect, which fails the round
    /// trip as a protocol violation.
    fn exchange<T>(
        &mut self,
        request: impl Fn(usize) -> WireMessage,
        mut take: impl FnMut(WireMessage) -> Result<T, WireMessage>,
    ) -> Result<Vec<T>, GzError> {
        let n = self.num_links();
        for i in 0..n {
            self.send(i, &request(i))?;
        }
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let request = request(i);
            let reply = self.recv(i, &request)?;
            out.push(take(reply).map_err(|other| {
                GzError::Protocol(format!(
                    "shard {i} answered {} with {}",
                    request.name(),
                    other.name()
                ))
            })?);
        }
        Ok(out)
    }

    fn wire_flush(&mut self) -> Result<(), GzError> {
        self.exchange(
            |_| WireMessage::Flush,
            |reply| match reply {
                WireMessage::FlushAck => Ok(()),
                other => Err(other),
            },
        )?;
        Ok(())
    }

    fn wire_gather(&mut self) -> Result<Vec<SketchEntry>, GzError> {
        let replies = self.exchange(
            |_| WireMessage::GatherSketches,
            |reply| match reply {
                WireMessage::Sketches { entries } => Ok(entries),
                other => Err(other),
            },
        )?;
        Ok(replies.into_iter().flatten().collect())
    }

    /// Every shard serializes its slice concurrently, and each reply is
    /// validated and folded while later shards are still working. After a
    /// bad reply the remaining ones are still read — every link owes
    /// exactly one, and leaving it unread would desynchronize the framing
    /// for whatever the coordinator does next.
    fn wire_gather_round(
        &mut self,
        round: usize,
        epochs: Option<&[u64]>,
        params: &SketchParams,
        live: &(dyn Fn(u32) -> bool + Sync),
        pool: &WorkerPool,
        sinks: &[Mutex<RoundSink<'_, CubeRoundSketch>>],
    ) -> Result<usize, GzError> {
        check_epochs(epochs, self.num_links())?;
        let mut fold = WireRoundFold::new(params, round, live, pool, sinks);
        self.exchange(
            |i| WireMessage::GatherRound { round: round as u32, epoch: epochs.map(|ids| ids[i]) },
            |reply| fold.reply(reply),
        )?;
        fold.finish()
    }

    /// Every shard flushes and seals concurrently; returns the per-shard
    /// epoch ids in shard order.
    fn wire_seal_epoch(&mut self) -> Result<Vec<u64>, GzError> {
        self.exchange(
            |_| WireMessage::SealEpoch,
            |reply| match reply {
                WireMessage::EpochSealed { epoch } => Ok(epoch),
                other => Err(other),
            },
        )
    }

    /// `CheckpointShard` is an in-stream frame, so each shard's checkpoint
    /// covers exactly the batches framed before it — no coordinator-side
    /// flush or barrier needed. Returns the per-shard covered sequences.
    fn wire_checkpoint(&mut self) -> Result<Vec<u64>, GzError> {
        self.exchange(
            |_| WireMessage::CheckpointShard,
            |reply| match reply {
                WireMessage::CheckpointAck { seq } => Ok(seq),
                other => Err(other),
            },
        )
    }
}

// ---------------------------------------------------------------------------
// Socket transport
// ---------------------------------------------------------------------------

/// Shards behind byte streams speaking the wire protocol. Stream `i`
/// connects to the worker serving shard `i`.
pub struct SocketTransport<S: Read + Write> {
    links: Vec<S>,
}

impl SocketTransport<TcpStream> {
    /// Connect to TCP shard workers at `addrs` (one per shard, in shard
    /// order) and run the parameter handshake. No deadlines, default retry
    /// — see [`Self::connect_tcp_with`] for the hardened form.
    pub fn connect_tcp(addrs: &[String], params_digest: u64) -> Result<Self, GzError> {
        Self::connect_tcp_with(
            addrs,
            params_digest,
            &TransportTimeouts::default(),
            &RetryPolicy::default(),
        )
    }

    /// Connect with explicit deadlines and a bounded retry policy: each
    /// link gets up to `retry.attempts` connection attempts with
    /// exponential backoff (a worker still binding its listener looks like
    /// `ConnectionRefused`), and the configured read/write timeouts are
    /// installed before the handshake.
    pub fn connect_tcp_with(
        addrs: &[String],
        params_digest: u64,
        timeouts: &TransportTimeouts,
        retry: &RetryPolicy,
    ) -> Result<Self, GzError> {
        let mut links = Vec::with_capacity(addrs.len());
        for (i, addr) in addrs.iter().enumerate() {
            links.push(connect_shard_tcp(addr, i as u32, timeouts, retry)?);
        }
        Self::handshake(links, params_digest)
    }
}

/// Dial one shard worker over TCP with deadlines and bounded retry. Public
/// because respawn closures (the CLI's `--respawn` policy) dial single
/// shards the same way the initial [`SocketTransport::connect_tcp_with`]
/// does.
pub fn connect_shard_tcp(
    addr: &str,
    shard: u32,
    timeouts: &TransportTimeouts,
    retry: &RetryPolicy,
) -> Result<TcpStream, GzError> {
    let mut last: Option<GzError> = None;
    for attempt in 0..retry.attempts.max(1) {
        let pause = retry.backoff(attempt, shard as u64);
        if !pause.is_zero() {
            std::thread::sleep(pause);
        }
        match tcp_connect_once(addr, timeouts.connect) {
            Ok(mut stream) => {
                // Frames are written whole; disabling Nagle keeps the
                // request/reply turns (Flush, Gather) from stalling on
                // delayed ACKs.
                let setup = stream.set_nodelay(true).and_then(|()| stream.apply_timeouts(timeouts));
                match setup {
                    Ok(()) => return Ok(stream),
                    Err(e) => last = Some(GzError::Transport(TransportError::from_io(shard, &e))),
                }
            }
            Err(e) => last = Some(GzError::Transport(TransportError::from_io(shard, &e))),
        }
    }
    Err(last.expect("at least one connection attempt is always made"))
}

/// One connection attempt, honoring the connect deadline when set
/// (`TcpStream::connect_timeout` needs resolved addresses, so the deadline
/// applies per resolved candidate).
fn tcp_connect_once(addr: &str, deadline: Option<Duration>) -> std::io::Result<TcpStream> {
    use std::net::ToSocketAddrs;
    match deadline {
        None => TcpStream::connect(addr),
        Some(d) => {
            let mut last = std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("{addr} resolved to no addresses"),
            );
            for candidate in addr.to_socket_addrs()? {
                match TcpStream::connect_timeout(&candidate, d) {
                    Ok(stream) => return Ok(stream),
                    Err(e) => last = e,
                }
            }
            Err(last)
        }
    }
}

impl<S: Read + Write> SocketTransport<S> {
    /// Take ownership of connected streams (one per shard, in shard order)
    /// and run the `Hello`/`HelloAck` handshake on each.
    pub fn handshake(mut links: Vec<S>, params_digest: u64) -> Result<Self, GzError> {
        if links.is_empty() {
            return Err(GzError::InvalidConfig("need at least one shard link".into()));
        }
        for (i, link) in links.iter_mut().enumerate() {
            hello(link, i as u32, params_digest)?;
        }
        Ok(SocketTransport { links })
    }
}

impl<S: Read + Write> WireLinks for SocketTransport<S> {
    fn num_links(&self) -> usize {
        self.links.len()
    }

    fn send(&mut self, shard: usize, msg: &WireMessage) -> Result<(), GzError> {
        send_msg(&mut self.links[shard], shard as u32, msg)
    }

    fn recv(&mut self, shard: usize, _request: &WireMessage) -> Result<WireMessage, GzError> {
        recv_msg(&mut self.links[shard], shard as u32)
    }
}

impl<S: Read + Write> ShardTransport for SocketTransport<S> {
    fn num_shards(&self) -> u32 {
        self.links.len() as u32
    }

    fn send_batch(&mut self, shard: u32, batch: Batch) -> Result<(), GzError> {
        send_msg(
            &mut self.links[shard as usize],
            shard,
            &WireMessage::Batch { node: batch.node, records: batch.others },
        )
    }

    fn flush(&mut self) -> Result<(), GzError> {
        self.wire_flush()
    }

    fn gather(&mut self) -> Result<Vec<SketchEntry>, GzError> {
        self.wire_gather()
    }

    fn gather_round_into(
        &mut self,
        round: usize,
        epochs: Option<&[u64]>,
        params: &SketchParams,
        live: &(dyn Fn(u32) -> bool + Sync),
        pool: &WorkerPool,
        sinks: &[Mutex<RoundSink<'_, CubeRoundSketch>>],
    ) -> Result<usize, GzError> {
        self.wire_gather_round(round, epochs, params, live, pool, sinks)
    }

    fn seal_epoch(&mut self) -> Result<Vec<u64>, GzError> {
        self.wire_seal_epoch()
    }

    fn release_epoch(&mut self, epochs: &[u64]) -> Result<(), GzError> {
        check_epochs(Some(epochs), self.links.len())?;
        self.exchange(
            |i| WireMessage::ReleaseEpoch { epoch: epochs[i] },
            |reply| match reply {
                WireMessage::EpochReleased => Ok(()),
                other => Err(other),
            },
        )?;
        Ok(())
    }

    fn checkpoint_shards(&mut self) -> Result<Vec<u64>, GzError> {
        self.wire_checkpoint()
    }

    fn shutdown(&mut self) -> Result<(), GzError> {
        // Attempt every link even if some fail: a dead shard must not leave
        // its siblings waiting for a Shutdown that never arrives (their
        // serve loops block in read, and a coordinator joining worker
        // threads would hang forever).
        let mut first_err = None;
        for (i, link) in self.links.iter_mut().enumerate() {
            if let Err(e) = send_msg(link, i as u32, &WireMessage::Shutdown) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Recovering transport: replay log + worker respawn
// ---------------------------------------------------------------------------

/// A [`SocketTransport`] that survives worker death (DESIGN.md §14).
///
/// Every batch shipped to a shard is also appended to that shard's
/// [`ReplayLog`]; the log is pruned when the shard acknowledges a durable
/// checkpoint. When an operation fails with a recoverable
/// [`TransportError`] (timeout, peer gone), the transport calls the
/// `respawn` closure to obtain a fresh link to a restarted worker, runs the
/// `Hello` handshake, asks `Resync` — the worker answers with the batch
/// sequence its restored checkpoint covers — and replays exactly the logged
/// batches after that sequence. Linearity makes this sound: XOR updates
/// commute, and replaying only the un-absorbed tail reproduces the lost
/// state bit-for-bit. The interrupted operation is then re-issued on the
/// fresh link (once; a second failure propagates).
///
/// What recovery does **not** preserve: epochs sealed on a worker die with
/// it. An epoch-pinned gather that names a lost epoch fails on the respawned
/// worker too, so long-running epoch readers must tolerate
/// re-sealing after a crash.
pub struct RecoveringTransport<S: ShardLink> {
    inner: SocketTransport<S>,
    /// Per-shard batches since the last acknowledged checkpoint.
    logs: Vec<ReplayLog>,
    /// Produces a fresh, connected (but un-handshaken) link to shard `i` —
    /// respawning the worker process first if the deployment needs that.
    respawn: Box<dyn FnMut(u32) -> Result<S, GzError> + Send>,
    timeouts: TransportTimeouts,
    retry: RetryPolicy,
    params_digest: u64,
    stats: Arc<IoStats>,
    /// Per-shard replay-log entry bound; exceeding it forces a checkpoint
    /// round so coordinator memory stays proportional to the checkpoint
    /// cadence, never the stream length.
    replay_log_cap: Option<usize>,
}

impl<S: ShardLink> RecoveringTransport<S> {
    /// Wrap an already-handshaken transport. `respawn(i)` must return a
    /// fresh connected link to a live worker for shard `i` (the transport
    /// runs the handshake and resync itself). The configured `timeouts`
    /// are installed on the existing links immediately — a transport that
    /// can't detect a dead peer can't recover from one.
    pub fn new(
        mut inner: SocketTransport<S>,
        params_digest: u64,
        timeouts: TransportTimeouts,
        retry: RetryPolicy,
        respawn: Box<dyn FnMut(u32) -> Result<S, GzError> + Send>,
    ) -> Result<Self, GzError> {
        for (i, link) in inner.links.iter_mut().enumerate() {
            link.apply_timeouts(&timeouts)
                .map_err(|e| GzError::Transport(TransportError::from_io(i as u32, &e)))?;
        }
        let logs = (0..inner.links.len()).map(|_| ReplayLog::new()).collect();
        Ok(RecoveringTransport {
            inner,
            logs,
            respawn,
            timeouts,
            retry,
            params_digest,
            stats: Arc::new(IoStats::default()),
            replay_log_cap: None,
        })
    }

    /// Bound each shard's replay log to `cap` entries; exceeding the bound
    /// triggers an inline checkpoint round (which prunes the logs).
    pub fn with_replay_log_cap(mut self, cap: usize) -> Self {
        self.replay_log_cap = Some(cap.max(1));
        self
    }

    /// Recovery counters: checkpoints acknowledged, replays performed,
    /// batches replayed, reconnect attempts.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// Replace shard `shard`'s dead link: respawn (with bounded, jittered
    /// backoff), handshake, resync, replay the missing tail. `cause` is
    /// returned if every attempt fails.
    fn recover(&mut self, shard: u32, cause: GzError) -> Result<(), GzError> {
        let mut last_err = cause;
        for attempt in 0..self.retry.attempts.max(1) {
            let pause = self.retry.backoff(attempt, shard as u64);
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
            self.stats.record_reconnect_attempt();
            let mut link = match (self.respawn)(shard) {
                Ok(link) => link,
                Err(e) => {
                    last_err = e;
                    continue;
                }
            };
            match self.resync(shard, &mut link) {
                Ok(()) => {
                    self.inner.links[shard as usize] = link;
                    return Ok(());
                }
                // A protocol violation (digest mismatch, resync gap) will
                // not heal by retrying — the deployment is misconfigured.
                Err(e @ GzError::Protocol(_)) => return Err(e),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Handshake + resync + replay on a fresh link (not yet installed).
    fn resync(&mut self, shard: u32, link: &mut S) -> Result<(), GzError> {
        link.apply_timeouts(&self.timeouts)
            .map_err(|e| GzError::Transport(TransportError::from_io(shard, &e)))?;
        hello(link, shard, self.params_digest)?;
        send_msg(link, shard, &WireMessage::Resync)?;
        let seq = match recv_msg(link, shard)? {
            WireMessage::ResyncFrom { seq } => seq,
            other => {
                return Err(GzError::Protocol(format!(
                    "respawned shard {shard} answered Resync with {}",
                    other.name()
                )));
            }
        };
        let log = &self.logs[shard as usize];
        if !log.covers(seq) {
            return Err(GzError::Protocol(format!(
                "shard {shard} resumed at seq {seq}, outside the replay log \
                 [{}, {}] — its checkpoint predates the last acknowledged one",
                log.next_seq() - log.len() as u64,
                log.next_seq()
            )));
        }
        let missing = log.next_seq() - seq;
        for batch in log.iter_from(seq) {
            send_msg(
                link,
                shard,
                &WireMessage::Batch { node: batch.node, records: batch.others.clone() },
            )?;
        }
        self.stats.record_replay(missing);
        Ok(())
    }
}

impl<S: ShardLink> WireLinks for RecoveringTransport<S> {
    fn num_links(&self) -> usize {
        self.inner.links.len()
    }

    /// Write `msg` to `shard`, recovering once. A fresh link has no pending
    /// requests, so the write is simply re-issued after recovery.
    fn send(&mut self, shard: usize, msg: &WireMessage) -> Result<(), GzError> {
        match self.inner.send(shard, msg) {
            Err(e) if recoverable(&e) => {
                self.recover(shard as u32, e)?;
                self.inner.send(shard, msg)
            }
            other => other,
        }
    }

    /// Read `shard`'s reply to `request`, recovering once. Recovery
    /// replaces the link wholesale, so the fresh worker never saw the
    /// request — it is re-sent before the reply is read again.
    fn recv(&mut self, shard: usize, request: &WireMessage) -> Result<WireMessage, GzError> {
        match self.inner.recv(shard, request) {
            Err(e) if recoverable(&e) => {
                self.recover(shard as u32, e)?;
                self.inner.send(shard, request)?;
                self.inner.recv(shard, request)
            }
            other => other,
        }
    }
}

impl<S: ShardLink> ShardTransport for RecoveringTransport<S> {
    fn num_shards(&self) -> u32 {
        self.inner.links.len() as u32
    }

    fn send_batch(&mut self, shard: u32, batch: Batch) -> Result<(), GzError> {
        // Log first: if the write fails, recovery's replay delivers the
        // batch (it is part of the tail), so no explicit retry is needed.
        // A "successful" write only proves the bytes entered a socket
        // buffer — the log keeps the batch until a checkpoint proves the
        // worker absorbed it durably.
        let msg = WireMessage::Batch { node: batch.node, records: batch.others.clone() };
        self.logs[shard as usize].append(batch);
        match send_msg(&mut self.inner.links[shard as usize], shard, &msg) {
            Ok(()) => {}
            Err(e) if recoverable(&e) => self.recover(shard, e)?,
            Err(e) => return Err(e),
        }
        if let Some(cap) = self.replay_log_cap {
            if self.logs[shard as usize].len() >= cap {
                self.checkpoint_shards()?;
            }
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), GzError> {
        self.wire_flush()
    }

    fn gather(&mut self) -> Result<Vec<SketchEntry>, GzError> {
        self.wire_gather()
    }

    fn gather_round_into(
        &mut self,
        round: usize,
        epochs: Option<&[u64]>,
        params: &SketchParams,
        live: &(dyn Fn(u32) -> bool + Sync),
        pool: &WorkerPool,
        sinks: &[Mutex<RoundSink<'_, CubeRoundSketch>>],
    ) -> Result<usize, GzError> {
        self.wire_gather_round(round, epochs, params, live, pool, sinks)
    }

    fn seal_epoch(&mut self) -> Result<Vec<u64>, GzError> {
        self.wire_seal_epoch()
    }

    fn release_epoch(&mut self, epochs: &[u64]) -> Result<(), GzError> {
        // No recovery: a worker that died since sealing has already lost
        // the epoch, and respawning one just to release nothing would turn
        // every post-crash cleanup into a reconnect storm.
        self.inner.release_epoch(epochs)
    }

    fn checkpoint_shards(&mut self) -> Result<Vec<u64>, GzError> {
        let seqs = self.wire_checkpoint()?;
        for (log, &seq) in self.logs.iter_mut().zip(&seqs) {
            // The checkpoint durably covers batches `..seq`; the replay
            // log no longer needs them.
            log.prune_through(seq);
            self.stats.record_checkpoint();
        }
        Ok(seqs)
    }

    fn recovery_stats(&self) -> Option<Arc<IoStats>> {
        Some(Arc::clone(&self.stats))
    }

    fn shutdown(&mut self) -> Result<(), GzError> {
        // No recovery on the way out: respawning a worker to tell it to
        // shut down is pure churn.
        self.inner.shutdown()
    }
}

// ---------------------------------------------------------------------------
// Shard-worker event loop
// ---------------------------------------------------------------------------

/// Counters a worker reports when its connection ends.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardServeStats {
    /// `Batch` messages received.
    pub batches: u64,
    /// Update records inside those batches.
    pub records: u64,
    /// `Flush` round trips served.
    pub flushes: u64,
    /// `GatherSketches`/`GatherRound` round trips served.
    pub gathers: u64,
    /// `SealEpoch` round trips served.
    pub seals: u64,
    /// `CheckpointShard` round trips served (durable checkpoints written).
    pub checkpoints: u64,
}

/// Drive one coordinator connection over `stream` against `pipeline`:
/// the shard-worker event loop. Returns when the coordinator sends
/// `Shutdown`; errors end the loop (and should end the worker).
pub fn serve_shard_connection<S: Read + Write>(
    stream: &mut S,
    pipeline: &ShardPipeline,
    params_digest: u64,
) -> Result<ShardServeStats, GzError> {
    let mut stats = ShardServeStats::default();
    loop {
        match WireMessage::read_from(stream)? {
            WireMessage::Hello { params_digest: theirs } => {
                // Always answer with our digest; a mismatched coordinator
                // sees the difference, and we refuse to ingest for it.
                WireMessage::HelloAck { params_digest }.write_to(stream)?;
                if theirs != params_digest {
                    return Err(GzError::Protocol(format!(
                        "coordinator digest {theirs:#x} != shard {params_digest:#x}"
                    )));
                }
            }
            WireMessage::Batch { node, records } => {
                stats.batches += 1;
                stats.records += records.len() as u64;
                pipeline.enqueue(node, records)?;
            }
            WireMessage::Flush => {
                stats.flushes += 1;
                pipeline.flush();
                WireMessage::FlushAck.write_to(stream)?;
            }
            WireMessage::GatherSketches => {
                stats.gathers += 1;
                let entries = pipeline.gather_serialized();
                WireMessage::Sketches { entries }.write_to(stream)?;
            }
            WireMessage::GatherRound { round, epoch } => {
                stats.gathers += 1;
                // An epoch-pinned gather must NOT flush — answering from the
                // sealed snapshot while ingestion runs is the whole point.
                let entries = pipeline.gather_round_serialized(round as usize, epoch)?;
                WireMessage::RoundSketches { round, entries }.write_to(stream)?;
            }
            WireMessage::SealEpoch => {
                stats.seals += 1;
                let epoch = pipeline.seal_epoch()?;
                WireMessage::EpochSealed { epoch }.write_to(stream)?;
            }
            WireMessage::CheckpointShard => {
                stats.checkpoints += 1;
                // Flushes, then persists atomically; the returned sequence
                // number tells the coordinator which replay-log prefix the
                // checkpoint makes redundant. A worker started without a
                // checkpoint path fails here — the coordinator should not
                // have asked.
                let seq = pipeline.save_checkpoint()?;
                WireMessage::CheckpointAck { seq }.write_to(stream)?;
            }
            WireMessage::Resync => {
                // A recovering coordinator asks where we stand; we answer
                // with the batch count our restored state already covers so
                // it replays strictly after (replaying an absorbed batch
                // would XOR it out again).
                WireMessage::ResyncFrom { seq: pipeline.seq() }.write_to(stream)?;
            }
            WireMessage::ReleaseEpoch { epoch } => {
                pipeline.release_epoch(epoch);
                WireMessage::EpochReleased.write_to(stream)?;
            }
            WireMessage::Shutdown => {
                // A clean goodbye must not silently drop the updates
                // absorbed since the last cadence checkpoint: when this
                // worker has a checkpoint destination configured, cut one
                // final checkpoint so a later `--resume` starts from the
                // state the coordinator last saw, not an older one.
                if pipeline.checkpoint_path().is_some() {
                    stats.checkpoints += 1;
                    pipeline.save_checkpoint()?;
                }
                return Ok(stats);
            }
            other => {
                return Err(GzError::Protocol(format!(
                    "unexpected {} on a shard-worker connection",
                    other.name()
                )));
            }
        }
    }
}

/// Join handle of a shard worker spawned by [`spawn_local_socket_workers`].
pub type LocalWorkerHandle = std::thread::JoinHandle<Result<ShardServeStats, GzError>>;

/// Spawn `config.num_shards` shard workers on local threads connected by
/// `UnixStream` pairs, and hand back the coordinator-side transport plus
/// the worker join handles. This exercises the *entire* wire path (framing,
/// handshake, event loop) without OS processes — the form the equivalence
/// suite uses; the multi-process example does the same over TCP with real
/// processes.
///
/// When `config.checkpoint_dir` is set and a shard's checkpoint file
/// already exists, the worker resumes from it before serving — the
/// thread-level analogue of `gz shard-worker --resume`.
pub fn spawn_local_socket_workers(
    config: &ShardConfig,
) -> Result<(SocketTransport<UnixStream>, Vec<LocalWorkerHandle>), GzError> {
    let digest = config.params_digest();
    let mut coordinator_ends = Vec::with_capacity(config.num_shards as usize);
    let mut handles = Vec::with_capacity(config.num_shards as usize);
    for index in 0..config.num_shards {
        let (ours, theirs) = UnixStream::pair()?;
        coordinator_ends.push(ours);
        let worker_config = config.clone();
        handles.push(std::thread::spawn(move || {
            let pipeline = new_pipeline_resuming(&worker_config, index)?;
            let mut stream = theirs;
            serve_shard_connection(&mut stream, &pipeline, worker_config.params_digest())
        }));
    }
    let transport = SocketTransport::handshake(coordinator_ends, digest)?;
    Ok((transport, handles))
}

/// Build shard `index`'s pipeline, resuming from its configured checkpoint
/// file when one exists on disk. A missing file is a fresh start, not an
/// error; a present-but-corrupt file is.
pub fn new_pipeline_resuming(config: &ShardConfig, index: u32) -> Result<ShardPipeline, GzError> {
    let pipeline = ShardPipeline::new(config, index)?;
    if let Some(path) = pipeline.checkpoint_path() {
        if path.exists() {
            pipeline.resume_from(&path)?;
        }
    }
    Ok(pipeline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TransportErrorKind;
    use crate::node_sketch::encode_other;

    #[test]
    fn handshake_rejects_digest_mismatch() {
        let config = ShardConfig::in_ram(16, 1);
        let digest = config.params_digest();
        let (mut ours, theirs) = std::os::unix::net::UnixStream::pair().unwrap();
        let worker = std::thread::spawn(move || {
            let pipeline = ShardPipeline::new(&config, 0).unwrap();
            let mut stream = theirs;
            serve_shard_connection(&mut stream, &pipeline, digest)
        });
        // Coordinator advertises a different digest: both sides must refuse.
        let result = SocketTransport::handshake(vec![&mut ours], digest ^ 1);
        assert!(matches!(result, Err(GzError::Protocol(_))));
        assert!(matches!(worker.join().unwrap(), Err(GzError::Protocol(_))));
    }

    #[test]
    fn socket_and_in_process_transports_gather_identically() {
        let config = ShardConfig::in_ram(12, 3);
        let updates: Vec<(u32, u32)> =
            (0..30u32).map(|i| (i % 12, (i * 5 + 1) % 12)).filter(|&(a, b)| a != b).collect();

        let mut in_proc = InProcessTransport::new(&config).unwrap();
        let (mut socket, handles) = spawn_local_socket_workers(&config).unwrap();

        for &(u, v) in &updates {
            for (dst, other) in [(u, v), (v, u)] {
                let batch = Batch { node: dst, others: vec![encode_other(other, false)] };
                in_proc.send_batch(dst % 3, batch.clone()).unwrap();
                socket.send_batch(dst % 3, batch).unwrap();
            }
        }
        in_proc.flush().unwrap();
        socket.flush().unwrap();

        let sort = |mut v: Vec<SketchEntry>| {
            v.sort_by_key(|e| e.node);
            v
        };
        let a = sort(in_proc.gather().unwrap());
        let b = sort(socket.gather().unwrap());
        assert_eq!(a, b, "wire transport must not change sketch state");

        in_proc.shutdown().unwrap();
        socket.shutdown().unwrap();
        for h in handles {
            let stats = h.join().unwrap().unwrap();
            assert!(stats.batches > 0);
            assert_eq!(stats.flushes, 1);
            assert_eq!(stats.gathers, 1);
        }
    }

    /// Identity supernodes (every node its own root, none retired) make a
    /// round sink's accumulators exactly the per-node slices folded into it.
    fn identity_roots(n: u32) -> (Vec<u32>, Vec<bool>) {
        ((0..n).collect(), vec![false; n as usize])
    }

    fn sinks_for<'a>(
        roots: &'a (Vec<u32>, Vec<bool>),
        threads: usize,
    ) -> Vec<Mutex<RoundSink<'a, CubeRoundSketch>>> {
        (0..threads).map(|_| Mutex::new(RoundSink::new(&roots.0, &roots.1))).collect()
    }

    /// The serialized slice folded for each node, asserting that no node
    /// landed in two sinks.
    fn folded(sinks: Vec<Mutex<RoundSink<'_, CubeRoundSketch>>>) -> Vec<Option<Vec<u8>>> {
        let mut out: Vec<Option<Vec<u8>>> = Vec::new();
        for sink in sinks {
            let acc = sink.into_inner().accumulators();
            out.resize(acc.len(), None);
            for (node, slice) in acc.into_iter().enumerate() {
                let Some(slice) = slice else { continue };
                let mut bytes = Vec::new();
                slice.serialize_into(&mut bytes);
                assert!(out[node].replace(bytes).is_none(), "node {node} folded twice");
            }
        }
        out
    }

    #[test]
    fn gather_round_into_folds_every_shard_exactly_once() {
        // A 4-shard fleet over either transport must fold exactly the round
        // slices one shard holding every node folds — every node once, in
        // whichever worker's sink — with one round trip per socket shard.
        let config = ShardConfig::in_ram(20, 4);
        let params = config.params();
        let mut reference = InProcessTransport::new(&ShardConfig::in_ram(20, 1)).unwrap();
        let mut in_proc = InProcessTransport::new(&config).unwrap();
        let (mut socket, handles) = spawn_local_socket_workers(&config).unwrap();
        for node in 0..20u32 {
            let batch = Batch { node, others: vec![encode_other((node + 1) % 20, false)] };
            reference.send_batch(0, batch.clone()).unwrap();
            in_proc.send_batch(node % 4, batch.clone()).unwrap();
            socket.send_batch(node % 4, batch).unwrap();
        }

        let roots = identity_roots(20);
        let pool = WorkerPool::new(2);
        let gather = |transport: &mut dyn ShardTransport| {
            let sinks = sinks_for(&roots, 2);
            transport.gather_round_into(1, None, &params, &|_| true, &pool, &sinks).unwrap();
            folded(sinks)
        };
        let want = gather(&mut reference);
        assert!(want.iter().all(Option::is_some), "every node has a slice");
        assert_eq!(gather(&mut in_proc), want);
        assert_eq!(gather(&mut socket), want);

        in_proc.shutdown().unwrap();
        socket.shutdown().unwrap();
        for h in handles {
            assert_eq!(h.join().unwrap().unwrap().gathers, 1, "one reply per shard");
        }
    }

    #[test]
    fn gather_round_into_stops_folding_at_a_bad_reply_but_drains_every_link() {
        let config = ShardConfig::in_ram(8, 2);
        let params = config.params();
        let digest = config.params_digest();
        // Shard 0 answers the round with a bad representation tag, then
        // serves a Flush; shard 1 is a healthy worker.
        let (ours0, theirs0) = UnixStream::pair().unwrap();
        let bad = handshake_then(theirs0, |mut stream| {
            let round = match WireMessage::read_from(&mut stream).unwrap() {
                WireMessage::GatherRound { round, .. } => round,
                other => panic!("expected GatherRound, got {}", other.name()),
            };
            let entries = vec![SketchEntry { node: 0, bytes: vec![7] }];
            WireMessage::RoundSketches { round, entries }.write_to(&mut stream).unwrap();
            assert!(matches!(WireMessage::read_from(&mut stream).unwrap(), WireMessage::Flush));
            WireMessage::FlushAck.write_to(&mut stream).unwrap();
            assert!(matches!(WireMessage::read_from(&mut stream).unwrap(), WireMessage::Shutdown));
        });
        let (ours1, theirs1) = UnixStream::pair().unwrap();
        let config1 = config.clone();
        let good = std::thread::spawn(move || {
            let pipeline = ShardPipeline::new(&config1, 1).unwrap();
            let mut stream = theirs1;
            serve_shard_connection(&mut stream, &pipeline, digest)
        });
        let mut transport = SocketTransport::handshake(vec![ours0, ours1], digest).unwrap();

        let roots = identity_roots(8);
        let sinks = sinks_for(&roots, 1);
        let result =
            transport.gather_round_into(0, None, &params, &|_| true, &WorkerPool::new(1), &sinks);
        assert!(matches!(result, Err(GzError::Protocol(_))), "bad tag is a typed error");
        assert!(folded(sinks).iter().all(Option::is_none), "folding must stop at the first error");
        // Shard 1's reply was drained: the next exchange on its link reads
        // a FlushAck, not a stale RoundSketches.
        transport.flush().unwrap();
        transport.shutdown().unwrap();
        bad.join().unwrap();
        good.join().unwrap().unwrap();
    }

    #[test]
    fn validate_round_entry_rejects_bad_frames() {
        let check = |bytes: Vec<u8>| {
            let mut seen = vec![false; 4];
            validate_round_entry(&mut seen, &SketchEntry { node: 1, bytes }, 0, 8)
        };
        assert!(check(vec![]).is_err(), "empty entry");
        assert!(check(vec![7, 0, 0]).is_err(), "unknown tag");
        assert!(check(vec![0; 8]).is_err(), "dense payload one byte short");
        assert!(check(vec![0; 9]).is_ok(), "dense tag + 8 payload bytes");
        assert!(check(vec![1, 2, 0, 0, 0, 5, 0, 0, 0]).is_err(), "sparse count over-claims");
        assert!(
            check(vec![1, 1, 0, 0, 0, 5, 0, 0, 0]).is_ok(),
            "well-formed single-neighbor sparse set"
        );
        assert!(
            check(vec![1, 2, 0, 0, 0, 5, 0, 0, 0, 5, 0, 0, 0]).is_err(),
            "duplicate neighbors are malformed"
        );
    }

    #[test]
    fn shutdown_reaches_live_shards_past_a_dead_one() {
        let config = ShardConfig::in_ram(16, 2);
        let digest = config.params_digest();

        // Shard 0: a worker that dies right after the handshake.
        let (ours0, theirs0) = std::os::unix::net::UnixStream::pair().unwrap();
        let dead = std::thread::spawn(move || {
            let mut stream = theirs0;
            match WireMessage::read_from(&mut stream).unwrap() {
                WireMessage::Hello { params_digest } => {
                    WireMessage::HelloAck { params_digest }.write_to(&mut stream).unwrap();
                }
                other => panic!("expected Hello, got {}", other.name()),
            }
            // Dropping the stream here simulates a crashed shard worker.
        });
        // Shard 1: a healthy worker.
        let (ours1, theirs1) = std::os::unix::net::UnixStream::pair().unwrap();
        let config1 = config.clone();
        let live = std::thread::spawn(move || {
            let pipeline = ShardPipeline::new(&config1, 1).unwrap();
            let mut stream = theirs1;
            serve_shard_connection(&mut stream, &pipeline, digest)
        });

        let mut transport = SocketTransport::handshake(vec![ours0, ours1], digest).unwrap();
        dead.join().unwrap();
        // Shutdown fails on the dead link but must still reach shard 1 —
        // otherwise the live worker blocks in read forever and this test
        // hangs on join.
        assert!(transport.shutdown().is_err());
        live.join().unwrap().unwrap();
    }

    #[test]
    fn serve_loop_rejects_coordinator_only_messages() {
        let config = ShardConfig::in_ram(8, 1);
        let pipeline = ShardPipeline::new(&config, 0).unwrap();
        let mut buf = Vec::new();
        WireMessage::FlushAck.write_to(&mut buf).unwrap();
        let mut stream = ReadWriteBuf { read: buf, at: 0, written: Vec::new() };
        assert!(matches!(
            serve_shard_connection(&mut stream, &pipeline, config.params_digest()),
            Err(GzError::Protocol(_))
        ));
    }

    // -- link hardening: typed errors at every protocol state ---------------

    /// Spawn a thread that answers the `Hello` handshake, then hands the
    /// stream to `after` (which decides how the "worker" misbehaves).
    fn handshake_then<F>(theirs: UnixStream, after: F) -> std::thread::JoinHandle<()>
    where
        F: FnOnce(UnixStream) + Send + 'static,
    {
        std::thread::spawn(move || {
            let mut stream = theirs;
            match WireMessage::read_from(&mut stream).unwrap() {
                WireMessage::Hello { params_digest } => {
                    WireMessage::HelloAck { params_digest }.write_to(&mut stream).unwrap();
                }
                other => panic!("expected Hello, got {}", other.name()),
            }
            after(stream);
        })
    }

    fn assert_kind(err: GzError, want: crate::error::TransportErrorKind, ctx: &str) {
        match err {
            GzError::Transport(te) => {
                assert_eq!(te.kind, want, "{ctx}: {te}");
                assert_eq!(te.shard, 0, "{ctx}: wrong shard index");
            }
            other => panic!("{ctx}: expected a transport error, got {other}"),
        }
    }

    #[test]
    fn peer_disconnect_mid_batch_is_typed_peer_gone() {
        let config = ShardConfig::in_ram(16, 1);
        let digest = config.params_digest();
        let (ours, theirs) = UnixStream::pair().unwrap();
        let worker = handshake_then(theirs, drop); // dies right after Hello
        let mut transport = SocketTransport::handshake(vec![ours], digest).unwrap();
        worker.join().unwrap();
        // Writes land in the socket buffer until the kernel notices the
        // peer closed; keep sending until the failure surfaces. It must be
        // a typed PeerGone, never a panic or hang.
        let mut failure = None;
        for i in 0..100_000u32 {
            let batch = Batch { node: i % 16, others: vec![encode_other((i + 1) % 16, false)] };
            if let Err(e) = transport.send_batch(0, batch) {
                failure = Some(e);
                break;
            }
        }
        assert_kind(
            failure.expect("a dead peer must fail sends"),
            TransportErrorKind::PeerGone,
            "mid-batch",
        );
    }

    #[test]
    fn peer_disconnect_awaiting_flush_ack_is_typed_peer_gone() {
        let config = ShardConfig::in_ram(16, 1);
        let digest = config.params_digest();
        let (ours, theirs) = UnixStream::pair().unwrap();
        // Worker reads the Flush, then dies without acking.
        let worker = handshake_then(theirs, |mut stream| {
            assert!(matches!(WireMessage::read_from(&mut stream).unwrap(), WireMessage::Flush));
        });
        let mut transport = SocketTransport::handshake(vec![ours], digest).unwrap();
        let err = transport.flush().expect_err("no ack is coming");
        assert_kind(err, TransportErrorKind::PeerGone, "awaiting FlushAck");
        worker.join().unwrap();
    }

    #[test]
    fn peer_disconnect_mid_gather_round_reply_is_typed_peer_gone() {
        let config = ShardConfig::in_ram(16, 1);
        let digest = config.params_digest();
        let (ours, theirs) = UnixStream::pair().unwrap();
        // Worker starts a RoundSketches reply but dies mid-frame: the
        // coordinator sees EOF inside a frame body, which must classify as
        // peer-gone (connection truncation), not a protocol parse error.
        let worker = handshake_then(theirs, |mut stream| {
            assert!(matches!(
                WireMessage::read_from(&mut stream).unwrap(),
                WireMessage::GatherRound { .. }
            ));
            let mut frame = Vec::new();
            WireMessage::RoundSketches { round: 0, entries: vec![] }.write_to(&mut frame).unwrap();
            use std::io::Write as _;
            stream.write_all(&frame[..frame.len() - 1]).unwrap();
        });
        let mut transport = SocketTransport::handshake(vec![ours], digest).unwrap();
        let roots = identity_roots(16);
        let err = transport
            .gather_round_into(
                0,
                None,
                &config.params(),
                &|_| true,
                &WorkerPool::new(1),
                &sinks_for(&roots, 1),
            )
            .expect_err("truncated reply");
        assert_kind(err, TransportErrorKind::PeerGone, "mid-GatherRound");
        worker.join().unwrap();
    }

    #[test]
    fn stalled_worker_surfaces_as_timeout_not_hang() {
        let config = ShardConfig::in_ram(16, 1);
        let digest = config.params_digest();
        let (mut ours, theirs) = UnixStream::pair().unwrap();
        // Worker swallows every request without answering, until EOF.
        let worker = handshake_then(
            theirs,
            |mut stream| {
                while WireMessage::read_from(&mut stream).is_ok() {}
            },
        );
        ours.apply_timeouts(&TransportTimeouts {
            connect: None,
            read: Some(Duration::from_millis(50)),
            write: Some(Duration::from_millis(50)),
        })
        .unwrap();
        let mut transport = SocketTransport::handshake(vec![ours], digest).unwrap();
        let err = transport.flush().expect_err("worker never acks");
        assert_kind(err, TransportErrorKind::Timeout, "stalled worker");
        drop(transport); // EOF ends the worker's swallow loop
        worker.join().unwrap();
    }

    #[test]
    fn retry_backoff_is_deterministic_bounded_and_jittered() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff(0, 3), Duration::ZERO, "first attempt is immediate");
        for attempt in 1..12 {
            for salt in 0..4 {
                let d = policy.backoff(attempt, salt);
                assert_eq!(d, policy.backoff(attempt, salt), "jitter must be deterministic");
                assert!(d <= policy.max, "backoff {d:?} exceeds cap");
                assert!(d >= policy.base / 2, "backoff {d:?} below half the base");
            }
        }
        // Jitter separates shards retrying in lockstep.
        assert_ne!(policy.backoff(3, 0), policy.backoff(3, 1));
    }

    // -- checkpoints over the wire ------------------------------------------

    #[test]
    fn checkpoint_over_sockets_acks_seq_and_writes_files() {
        let dir = gz_testutil::TempDir::new("gz-wire-ckpt");
        let mut config = ShardConfig::in_ram(16, 2);
        config.checkpoint_dir = Some(dir.path().to_path_buf());
        let (mut socket, handles) = spawn_local_socket_workers(&config).unwrap();
        for node in 0..16u32 {
            let batch = Batch { node, others: vec![encode_other((node + 1) % 16, false)] };
            socket.send_batch(node % 2, batch).unwrap();
        }
        let seqs = socket.checkpoint_shards().unwrap();
        assert_eq!(seqs, vec![8, 8], "each shard acked its own batch count");
        for index in 0..2u32 {
            let path =
                dir.path().join(crate::sharding::shard_checkpoint_file_name(index, 2, config.seed));
            assert!(path.exists(), "shard {index} checkpoint file missing");
        }
        socket.shutdown().unwrap();
        for h in handles {
            // The explicit round plus the final checkpoint every worker
            // with a configured path cuts on a clean `Shutdown`.
            assert_eq!(h.join().unwrap().unwrap().checkpoints, 2);
        }
    }

    // -- recovery: respawn, resync, replay ----------------------------------

    /// A stream that injects a worker crash: after `budget` bytes have been
    /// read, every read fails. Dropping the stream (when the serve loop
    /// errors out) closes the socket — exactly what a SIGKILLed process
    /// does, minus the process.
    struct DyingStream {
        inner: UnixStream,
        budget: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Read for DyingStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            use std::sync::atomic::Ordering;
            let left = self.budget.load(Ordering::SeqCst);
            if left == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "injected worker crash",
                ));
            }
            let want = buf.len().min(left);
            let n = self.inner.read(&mut buf[..want])?;
            self.budget.fetch_sub(n, Ordering::SeqCst);
            Ok(n)
        }
    }

    impl Write for DyingStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.inner.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    #[test]
    fn recovering_transport_replays_after_worker_death() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::{Arc, Mutex};

        let dir = gz_testutil::TempDir::new("gz-recover");
        let mut config = ShardConfig::in_ram(16, 2);
        config.checkpoint_dir = Some(dir.path().to_path_buf());
        let digest = config.params_digest();

        fn spawn_worker(
            config: &ShardConfig,
            index: u32,
            budget: Arc<AtomicUsize>,
        ) -> (UnixStream, LocalWorkerHandle) {
            let (ours, theirs) = UnixStream::pair().unwrap();
            let cfg = config.clone();
            let handle = std::thread::spawn(move || {
                let pipeline = new_pipeline_resuming(&cfg, index)?;
                let mut stream = DyingStream { inner: theirs, budget };
                serve_shard_connection(&mut stream, &pipeline, cfg.params_digest())
            });
            (ours, handle)
        }

        let unlimited = || Arc::new(AtomicUsize::new(usize::MAX));
        let shard0_budget = Arc::new(AtomicUsize::new(usize::MAX));
        let (ours0, doomed_handle) = spawn_worker(&config, 0, Arc::clone(&shard0_budget));
        let (ours1, handle1) = spawn_worker(&config, 1, unlimited());
        let respawned: Arc<Mutex<Vec<LocalWorkerHandle>>> = Arc::new(Mutex::new(Vec::new()));

        let inner = SocketTransport::handshake(vec![ours0, ours1], digest).unwrap();
        let respawned_for_closure = Arc::clone(&respawned);
        let respawn_config = config.clone();
        let mut transport = RecoveringTransport::new(
            inner,
            digest,
            TransportTimeouts {
                connect: None,
                read: Some(Duration::from_secs(5)),
                write: Some(Duration::from_secs(5)),
            },
            RetryPolicy {
                attempts: 3,
                base: Duration::from_millis(1),
                max: Duration::from_millis(10),
                jitter_seed: 7,
            },
            Box::new(move |index| {
                let budget = Arc::new(AtomicUsize::new(usize::MAX));
                let (ours, handle) = spawn_worker(&respawn_config, index, budget);
                respawned_for_closure.lock().unwrap().push(handle);
                Ok(ours)
            }),
        )
        .unwrap();
        let stats = transport.stats();

        // Reference: the same batches through an uninterrupted transport.
        let phase1: Vec<(u32, u32)> = (0..16u32).map(|n| (n, (n + 1) % 16)).collect();
        let phase2: Vec<(u32, u32)> = (0..16u32).map(|n| (n, (n + 5) % 16)).collect();
        let mut reference = InProcessTransport::new(&ShardConfig::in_ram(16, 2)).unwrap();
        for &(node, other) in phase1.iter().chain(&phase2) {
            let batch = Batch { node, others: vec![encode_other(other, false)] };
            reference.send_batch(node % 2, batch).unwrap();
        }
        reference.flush().unwrap();

        // Phase 1, then a checkpoint round (prunes both replay logs).
        for &(node, other) in &phase1 {
            let batch = Batch { node, others: vec![encode_other(other, false)] };
            transport.send_batch(node % 2, batch).unwrap();
        }
        assert_eq!(transport.checkpoint_shards().unwrap(), vec![8, 8]);
        assert_eq!(stats.checkpoints(), 2);

        // Kill shard 0's worker a few dozen bytes into phase 2.
        shard0_budget.store(64, std::sync::atomic::Ordering::SeqCst);
        for &(node, other) in &phase2 {
            let batch = Batch { node, others: vec![encode_other(other, false)] };
            transport.send_batch(node % 2, batch).unwrap();
        }
        transport.flush().unwrap();

        // The recovered state must be bit-identical to the uninterrupted run.
        let sort = |mut v: Vec<SketchEntry>| {
            v.sort_by_key(|e| e.node);
            v
        };
        assert_eq!(
            sort(transport.gather().unwrap()),
            sort(reference.gather().unwrap()),
            "post-recovery sketches must match an uninterrupted run exactly"
        );

        // Exactly one death: one replay, one reconnect attempt, and the
        // replayed tail is bounded by phase 2's shard-0 share.
        assert_eq!(stats.replays(), 1);
        assert_eq!(stats.reconnect_attempts(), 1);
        assert!(
            (1..=8).contains(&stats.batches_replayed()),
            "replayed {} batches, expected within phase 2's shard-0 share",
            stats.batches_replayed()
        );

        transport.shutdown().unwrap();
        reference.shutdown().unwrap();
        assert!(
            doomed_handle.join().unwrap().is_err(),
            "the doomed worker dies of its injected crash"
        );
        handle1.join().unwrap().unwrap();
        let handles: Vec<LocalWorkerHandle> = respawned.lock().unwrap().drain(..).collect();
        for h in handles {
            h.join().unwrap().unwrap();
        }
    }

    #[test]
    fn recovery_gives_up_after_the_retry_budget() {
        let config = ShardConfig::in_ram(16, 1);
        let digest = config.params_digest();
        let (ours, theirs) = UnixStream::pair().unwrap();
        let worker = handshake_then(theirs, drop);
        let inner = SocketTransport::handshake(vec![ours], digest).unwrap();
        let mut transport = RecoveringTransport::new(
            inner,
            digest,
            TransportTimeouts::default(),
            RetryPolicy {
                attempts: 2,
                base: Duration::from_millis(1),
                max: Duration::from_millis(2),
                jitter_seed: 1,
            },
            Box::new(|_| Err(GzError::InvalidConfig("respawn disabled".into()))),
        )
        .unwrap();
        let stats = transport.stats();
        worker.join().unwrap();

        let mut failure = None;
        for i in 0..100_000u32 {
            let batch = Batch { node: i % 16, others: vec![encode_other((i + 1) % 16, false)] };
            if let Err(e) = transport.send_batch(0, batch) {
                failure = Some(e);
                break;
            }
        }
        assert!(
            matches!(failure, Some(GzError::InvalidConfig(_))),
            "the respawn closure's refusal is the final error"
        );
        assert_eq!(stats.reconnect_attempts(), 2, "both budgeted attempts were spent");
        assert_eq!(stats.replays(), 0);
    }

    #[test]
    fn replay_log_cap_forces_inline_checkpoints() {
        let dir = gz_testutil::TempDir::new("gz-cap");
        let mut config = ShardConfig::in_ram(16, 1);
        config.checkpoint_dir = Some(dir.path().to_path_buf());
        let digest = config.params_digest();
        let (ours, theirs) = UnixStream::pair().unwrap();
        let cfg = config.clone();
        let worker = std::thread::spawn(move || {
            let pipeline = new_pipeline_resuming(&cfg, 0)?;
            let mut stream = theirs;
            serve_shard_connection(&mut stream, &pipeline, cfg.params_digest())
        });
        let inner = SocketTransport::handshake(vec![ours], digest).unwrap();
        let mut transport = RecoveringTransport::new(
            inner,
            digest,
            TransportTimeouts::default(),
            RetryPolicy::default(),
            Box::new(|_| Err(GzError::InvalidConfig("no respawn in this test".into()))),
        )
        .unwrap()
        .with_replay_log_cap(4);
        let stats = transport.stats();

        for i in 0..12u32 {
            let batch = Batch { node: i % 16, others: vec![encode_other((i + 1) % 16, false)] };
            transport.send_batch(0, batch).unwrap();
        }
        // 12 batches with a cap of 4: the log hit the cap three times, each
        // forcing a checkpoint round that pruned it.
        assert_eq!(stats.checkpoints(), 3);
        transport.shutdown().unwrap();
        worker.join().unwrap().unwrap();
    }

    /// An in-memory Read + Write stream for driving the serve loop directly.
    struct ReadWriteBuf {
        read: Vec<u8>,
        at: usize,
        written: Vec<u8>,
    }

    impl Read for ReadWriteBuf {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.read.len() - self.at);
            buf[..n].copy_from_slice(&self.read[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    impl Write for ReadWriteBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
}
