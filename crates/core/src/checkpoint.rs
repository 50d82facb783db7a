//! Checkpointing: persist the entire sketch state and resume later.
//!
//! Linear sketches make this trivial in principle — the whole system state
//! is the `V × O(log V)` bucket arrays plus the seeds that define the hash
//! functions — and very useful in practice: a stream can be ingested across
//! process restarts, or sketches shipped from an ingestion machine to a
//! query machine (the coordinator/shard split of [`crate::sharding`]).
//!
//! Layout (little-endian):
//!
//! ```text
//! magic    [u8;4] = b"GZC2"   — v2: single-hash column derivation (DESIGN.md §9)
//! num_nodes u64, seed u64, rounds u32, columns u32
//! updates   u64      — updates ingested so far (informational)
//! payload   num_nodes × node_sketch_serialized_bytes
//! ```
//!
//! A second format, `GZS2`, checkpoints a *single shard* of the sharded
//! system (DESIGN.md §14): the same per-node payload but restricted to the
//! shard's owned vertices (in owned-slot order), plus the shard topology
//! and the batch sequence number the state covers — the durable point the
//! coordinator's replay log resumes from after a worker dies:
//!
//! ```text
//! magic    [u8;4] = b"GZS2"
//! num_nodes u64, seed u64, rounds u32, columns u32
//! shard_index u32, num_shards u32
//! seq        u64  — coordinator batches absorbed when the checkpoint was cut
//! owned      u64  — sketches that follow
//! payload    owned × node_sketch_serialized_bytes (owned-slot order)
//! ```
//!
//! Both readers validate the *exact* file length against the header before
//! allocating or deserializing anything: a truncated file, a short sketch
//! payload, and trailing garbage all surface as a clean
//! [`GzError::InvalidConfig`], never a panic or a partial restore. Every
//! checkpoint and manifest is written to a temp file, fsynced, and
//! atomically renamed into place (then the directory is fsynced), so a
//! failed or crashed save never destroys the previous checkpoint — nor
//! regresses the durable state a prior `CheckpointAck` promised.

use crate::config::GzConfig;
use crate::error::GzError;
use crate::node_sketch::{CubeNodeSketch, SketchParams};
use crate::system::GraphZeppelin;
use gz_hash::xxh64;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

// v1 checkpoints ("GZC1") predate the single-hash column derivation
// (DESIGN.md §9): their bucket payloads were built from the old `h1`/`h2`
// pair and cannot merge with sketches hashed under the current scheme, so
// the magic refuses them instead of silently restoring corrupt state.
const MAGIC: [u8; 4] = *b"GZC2";
const SHARD_MAGIC: [u8; 4] = *b"GZS2";

/// Byte size of the fixed GZC2 header.
const HEADER_BYTES: u64 = 4 + 8 + 8 + 4 + 4 + 8;
/// Byte size of the fixed GZS2 header.
const SHARD_HEADER_BYTES: u64 = 4 + 8 + 8 + 4 + 4 + 4 + 4 + 8 + 8;

/// Sanity caps on header fields: real configs sit orders of magnitude
/// below these, so anything larger is a corrupt or hostile file — refuse
/// it before a `Vec::with_capacity` turns the lie into an allocation.
const MAX_ROUNDS: u32 = 1 << 12;
const MAX_COLUMNS: u32 = 1 << 20;

fn corrupt(path: &Path, what: impl std::fmt::Display) -> GzError {
    GzError::InvalidConfig(format!("corrupt checkpoint {}: {what}", path.display()))
}

/// Check that `path`'s length is exactly `header + count × node_bytes`.
/// Catches truncation (short sketch payloads) and trailing garbage alike,
/// before anything is allocated from untrusted counts.
fn check_payload_len(
    path: &Path,
    header_bytes: u64,
    count: u64,
    node_bytes: usize,
) -> Result<(), GzError> {
    let expected = count
        .checked_mul(node_bytes as u64)
        .and_then(|p| p.checked_add(header_bytes))
        .ok_or_else(|| corrupt(path, "node count overflows the payload size"))?;
    let actual = std::fs::metadata(path)?.len();
    if actual != expected {
        return Err(corrupt(
            path,
            format!(
                "file is {actual} bytes, expected {expected} \
                 ({count} sketches of {node_bytes} bytes)"
            ),
        ));
    }
    Ok(())
}

/// Durably replace `path` with the bytes `write` produces — the one write
/// path of every checkpoint and manifest. The bytes land in a sibling
/// `.tmp` file, which is fsynced and renamed over `path`; then the parent
/// directory is fsynced so the rename itself survives power loss. A
/// failure or crash at any point leaves the previous file intact (a failed
/// write also removes its temp file).
fn write_durably(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<std::fs::File>) -> Result<(), GzError>,
) -> Result<(), GzError> {
    let tmp: PathBuf = {
        let mut os = path.as_os_str().to_os_string();
        os.push(".tmp");
        os.into()
    };
    let written = (|| {
        let mut w = BufWriter::with_capacity(1 << 20, std::fs::File::create(&tmp)?);
        write(&mut w)?;
        let file = w.into_inner().map_err(|e| GzError::Io(e.into_error()))?;
        file.sync_all()?;
        Ok(())
    })();
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path)
}

/// Fsync the directory holding `path`, making a create or rename in it
/// durable.
fn sync_parent_dir(path: &Path) -> Result<(), GzError> {
    let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty()).unwrap_or(Path::new("."));
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// Header of a checkpoint file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Vertex universe size.
    pub num_nodes: u64,
    /// Master seed (hash functions are derived from it).
    pub seed: u64,
    /// Rounds per node sketch.
    pub rounds: u32,
    /// Sketch columns.
    pub columns: u32,
    /// Updates ingested when the checkpoint was taken.
    pub updates_ingested: u64,
}

impl GraphZeppelin {
    /// Flush all buffered updates and durably write the sketch state to
    /// `path` (through `write_durably`: a failed save keeps the previous
    /// checkpoint).
    pub fn save_checkpoint(&mut self, path: &Path) -> Result<CheckpointHeader, GzError> {
        self.flush();
        let params = self.params().clone();
        let header = CheckpointHeader {
            num_nodes: self.config().num_nodes,
            seed: self.config().seed,
            rounds: params.rounds() as u32,
            columns: self.config().num_columns,
            updates_ingested: self.updates_ingested(),
        };

        let sketches = self.snapshot_sketches();
        write_durably(path, |w| {
            w.write_all(&MAGIC)?;
            w.write_all(&header.num_nodes.to_le_bytes())?;
            w.write_all(&header.seed.to_le_bytes())?;
            w.write_all(&header.rounds.to_le_bytes())?;
            w.write_all(&header.columns.to_le_bytes())?;
            w.write_all(&header.updates_ingested.to_le_bytes())?;
            let mut buf = Vec::with_capacity(params.node_sketch_serialized_bytes());
            for sketch in &sketches {
                buf.clear();
                params.serialize_node_sketch(sketch, &mut buf);
                w.write_all(&buf)?;
            }
            Ok(())
        })?;
        Ok(header)
    }

    /// Read just the header of a checkpoint file.
    pub fn checkpoint_header(path: &Path) -> Result<CheckpointHeader, GzError> {
        let file = std::fs::File::open(path)?;
        let mut r = BufReader::new(file);
        read_header(&mut r)
    }

    /// Restore a system from a checkpoint with default runtime settings
    /// (in-RAM store, default buffering/workers).
    pub fn restore(path: &Path) -> Result<GraphZeppelin, GzError> {
        let header = Self::checkpoint_header(path)?;
        let mut config = GzConfig::in_ram(header.num_nodes);
        config.seed = header.seed;
        config.num_rounds = Some(header.rounds);
        config.num_columns = header.columns;
        Self::restore_with_config(path, config)
    }

    /// Restore with explicit runtime settings. The config's sketch-defining
    /// fields (`num_nodes`, `seed`, rounds, `num_columns`) must match the
    /// checkpoint or an [`GzError::InvalidConfig`] is returned.
    pub fn restore_with_config(path: &Path, config: GzConfig) -> Result<GraphZeppelin, GzError> {
        let file = std::fs::File::open(path)?;
        let mut r = BufReader::with_capacity(1 << 20, file);
        let header = read_header(&mut r)?;

        if config.num_nodes != header.num_nodes
            || config.seed != header.seed
            || config.rounds() != header.rounds
            || config.num_columns != header.columns
        {
            return Err(GzError::InvalidConfig(format!(
                "config does not match checkpoint header {header:?}"
            )));
        }

        let params =
            SketchParams::new(header.num_nodes, header.rounds, header.columns, header.seed);
        let node_bytes = params.node_sketch_serialized_bytes();
        check_payload_len(path, HEADER_BYTES, header.num_nodes, node_bytes)?;

        let mut gz = GraphZeppelin::new(config)?;
        let mut buf = vec![0u8; node_bytes];
        let mut sketches = Vec::with_capacity(header.num_nodes as usize);
        for _ in 0..header.num_nodes {
            r.read_exact(&mut buf).map_err(|e| corrupt(path, format!("short payload: {e}")))?;
            sketches.push(params.deserialize_node_sketch(&buf));
        }
        gz.load_sketches(sketches, header.updates_ingested);
        Ok(gz)
    }
}

/// Reader helpers that turn a short read into a clean "truncated" error
/// rather than a bare `UnexpectedEof`.
struct HeaderReader<'a, R: Read> {
    r: &'a mut R,
}

impl<R: Read> HeaderReader<'_, R> {
    fn u32(&mut self) -> Result<u32, GzError> {
        let mut buf = [0u8; 4];
        self.r.read_exact(&mut buf).map_err(truncated_header)?;
        Ok(u32::from_le_bytes(buf))
    }

    fn u64(&mut self) -> Result<u64, GzError> {
        let mut buf = [0u8; 8];
        self.r.read_exact(&mut buf).map_err(truncated_header)?;
        Ok(u64::from_le_bytes(buf))
    }
}

fn truncated_header(e: std::io::Error) -> GzError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        GzError::InvalidConfig("truncated checkpoint header".into())
    } else {
        GzError::Io(e)
    }
}

/// Bounds-check the sketch-defining header fields shared by both formats.
fn check_header_fields(num_nodes: u64, rounds: u32, columns: u32) -> Result<(), GzError> {
    if num_nodes < 2 || num_nodes > u64::from(u32::MAX) {
        return Err(GzError::InvalidConfig(format!(
            "checkpoint num_nodes {num_nodes} outside [2, 2^32)"
        )));
    }
    if rounds == 0 || rounds > MAX_ROUNDS {
        return Err(GzError::InvalidConfig(format!(
            "checkpoint rounds {rounds} outside [1, {MAX_ROUNDS}]"
        )));
    }
    if columns == 0 || columns > MAX_COLUMNS {
        return Err(GzError::InvalidConfig(format!(
            "checkpoint columns {columns} outside [1, {MAX_COLUMNS}]"
        )));
    }
    Ok(())
}

fn read_header(r: &mut impl Read) -> Result<CheckpointHeader, GzError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).map_err(truncated_header)?;
    if magic != MAGIC {
        return Err(GzError::InvalidConfig("not a GraphZeppelin checkpoint".into()));
    }
    let mut hr = HeaderReader { r };
    let num_nodes = hr.u64()?;
    let seed = hr.u64()?;
    let rounds = hr.u32()?;
    let columns = hr.u32()?;
    let updates_ingested = hr.u64()?;
    check_header_fields(num_nodes, rounds, columns)?;
    Ok(CheckpointHeader { num_nodes, seed, rounds, columns, updates_ingested })
}

/// Header of a per-shard (`GZS2`) checkpoint file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCheckpointHeader {
    /// Vertex universe size (the whole graph's, not the shard's).
    pub num_nodes: u64,
    /// Master seed.
    pub seed: u64,
    /// Rounds per node sketch.
    pub rounds: u32,
    /// Sketch columns.
    pub columns: u32,
    /// Which shard this state belongs to.
    pub shard_index: u32,
    /// Fleet size the shard was partitioned for.
    pub num_shards: u32,
    /// Coordinator batches the state covers — the replay log resumes
    /// strictly after this point.
    pub seq: u64,
    /// Owned sketches in the payload.
    pub owned_count: u64,
}

fn read_shard_header(r: &mut impl Read) -> Result<ShardCheckpointHeader, GzError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).map_err(truncated_header)?;
    if magic != SHARD_MAGIC {
        return Err(GzError::InvalidConfig("not a GraphZeppelin shard checkpoint".into()));
    }
    let mut hr = HeaderReader { r };
    let num_nodes = hr.u64()?;
    let seed = hr.u64()?;
    let rounds = hr.u32()?;
    let columns = hr.u32()?;
    let shard_index = hr.u32()?;
    let num_shards = hr.u32()?;
    let seq = hr.u64()?;
    let owned_count = hr.u64()?;
    check_header_fields(num_nodes, rounds, columns)?;
    if num_shards == 0 || shard_index >= num_shards {
        return Err(GzError::InvalidConfig(format!(
            "shard checkpoint names shard {shard_index} of {num_shards}"
        )));
    }
    if owned_count > num_nodes {
        return Err(GzError::InvalidConfig(format!(
            "shard checkpoint owns {owned_count} of {num_nodes} nodes"
        )));
    }
    Ok(ShardCheckpointHeader {
        num_nodes,
        seed,
        rounds,
        columns,
        shard_index,
        num_shards,
        seq,
        owned_count,
    })
}

/// Read just the header of a shard checkpoint file.
pub fn read_shard_checkpoint_header(path: &Path) -> Result<ShardCheckpointHeader, GzError> {
    let file = std::fs::File::open(path)?;
    let mut r = BufReader::new(file);
    read_shard_header(&mut r)
}

/// Persist a shard's owned sketch state (already densified by
/// `snapshot_owned`) to `path` through `write_durably`: a crash at any
/// point leaves either the old checkpoint or the new one — never a torn
/// file that would silently regress the durable `seq`.
pub fn save_shard_checkpoint(
    path: &Path,
    header: &ShardCheckpointHeader,
    params: &SketchParams,
    sketches: &[(u32, CubeNodeSketch)],
) -> Result<(), GzError> {
    debug_assert_eq!(sketches.len() as u64, header.owned_count);
    write_durably(path, |w| {
        w.write_all(&SHARD_MAGIC)?;
        w.write_all(&header.num_nodes.to_le_bytes())?;
        w.write_all(&header.seed.to_le_bytes())?;
        w.write_all(&header.rounds.to_le_bytes())?;
        w.write_all(&header.columns.to_le_bytes())?;
        w.write_all(&header.shard_index.to_le_bytes())?;
        w.write_all(&header.num_shards.to_le_bytes())?;
        w.write_all(&header.seq.to_le_bytes())?;
        w.write_all(&header.owned_count.to_le_bytes())?;
        let mut buf = Vec::with_capacity(params.node_sketch_serialized_bytes());
        for (_, sketch) in sketches {
            buf.clear();
            params.serialize_node_sketch(sketch, &mut buf);
            w.write_all(&buf)?;
        }
        Ok(())
    })
}

/// Load a shard checkpoint, validating every identity field against
/// `expect` (whose `seq` is ignored — that is the answer, not a
/// precondition). Returns the owned sketches in owned-slot order plus the
/// sequence number the state covers.
pub fn load_shard_checkpoint(
    path: &Path,
    params: &SketchParams,
    expect: &ShardCheckpointHeader,
) -> Result<(Vec<CubeNodeSketch>, u64), GzError> {
    let file = std::fs::File::open(path)?;
    let mut r = BufReader::with_capacity(1 << 20, file);
    let header = read_shard_header(&mut r)?;

    if header.num_nodes != expect.num_nodes
        || header.seed != expect.seed
        || header.rounds != expect.rounds
        || header.columns != expect.columns
        || header.shard_index != expect.shard_index
        || header.num_shards != expect.num_shards
        || header.owned_count != expect.owned_count
    {
        return Err(GzError::InvalidConfig(format!(
            "shard checkpoint {} does not match this shard's parameters: \
             file has {header:?}, expected {expect:?}",
            path.display()
        )));
    }

    let node_bytes = params.node_sketch_serialized_bytes();
    check_payload_len(path, SHARD_HEADER_BYTES, header.owned_count, node_bytes)?;

    let mut buf = vec![0u8; node_bytes];
    let mut sketches = Vec::with_capacity(header.owned_count as usize);
    for _ in 0..header.owned_count {
        r.read_exact(&mut buf).map_err(|e| corrupt(path, format!("short payload: {e}")))?;
        sketches.push(params.deserialize_node_sketch(&buf));
    }
    Ok((sketches, header.seq))
}

// ---------------------------------------------------------------------------
// Serve durability: update WAL + round manifest
// ---------------------------------------------------------------------------

const WAL_MAGIC: [u8; 4] = *b"GZW1";
const MANIFEST_MAGIC: [u8; 4] = *b"GZSM";

/// Bytes one WAL update occupies: `u` + `v` + the delete flag.
const WAL_UPDATE_BYTES: usize = 9;
/// Bytes of a WAL record header: update count + payload checksum.
const WAL_RECORD_HEADER_BYTES: usize = 4 + 8;

/// Append-only write-ahead log of client edge updates, the durability layer
/// `gz serve` acks against (DESIGN.md §15). Each append is one record:
///
/// ```text
/// count    u32  — updates in this record
/// checksum u64  — xxh64 of the payload, seeded with `count`
/// payload  count × (u u32, v u32, is_delete u8)
/// ```
///
/// and is fsynced before the daemon acks the batch, so an acked update is
/// durable by definition. Recovery replays records until the first torn or
/// corrupt one — a crash mid-append — truncates the tail there, and leaves
/// the file positioned for further appends. Because the WAL is replayed in
/// append order on top of a checkpoint that covers everything before it,
/// the recovered stream is a prefix-preserving superset of the acked
/// prefix: acked updates are always recovered, unacked in-flight ones may
/// be.
#[derive(Debug)]
pub struct UpdateWal {
    file: std::fs::File,
    buf: Vec<u8>,
}

impl UpdateWal {
    /// Create (or truncate) the WAL at `path`, writing and syncing the
    /// magic so recovery can tell "fresh log" from "not a log", and
    /// syncing the directory so the new log's name survives power loss.
    pub fn create(path: &Path) -> Result<UpdateWal, GzError> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(&WAL_MAGIC)?;
        file.sync_data()?;
        sync_parent_dir(path)?;
        Ok(UpdateWal { file, buf: Vec::new() })
    }

    /// Durably append one batch of updates: a single `write_all` followed
    /// by `sync_data`. After this returns the batch may be acked.
    pub fn append(&mut self, updates: &[(u32, u32, bool)]) -> Result<(), GzError> {
        let mut payload = std::mem::take(&mut self.buf);
        payload.clear();
        payload.reserve(WAL_RECORD_HEADER_BYTES + updates.len() * WAL_UPDATE_BYTES);
        payload.extend_from_slice(&(updates.len() as u32).to_le_bytes());
        payload.extend_from_slice(&[0u8; 8]); // checksum patched below
        for &(u, v, is_delete) in updates {
            payload.extend_from_slice(&u.to_le_bytes());
            payload.extend_from_slice(&v.to_le_bytes());
            payload.push(is_delete as u8);
        }
        let checksum =
            xxh64(&payload[WAL_RECORD_HEADER_BYTES..], updates.len() as u64).to_le_bytes();
        payload[4..12].copy_from_slice(&checksum);
        let result = self.file.write_all(&payload).and_then(|()| self.file.sync_data());
        self.buf = payload;
        result.map_err(GzError::Io)
    }

    /// Open the WAL at `path`, replay every intact record into `sink`
    /// (in append order), truncate the first torn or corrupt tail, and
    /// return the log positioned for appends plus the number of updates
    /// replayed. A missing or torn-at-the-magic file is a fresh log, not an
    /// error — the only crash that produces one is a crash during
    /// [`create`](Self::create), before anything could have been acked
    /// against it.
    pub fn recover(
        path: &Path,
        sink: &mut dyn FnMut(u32, u32, bool),
    ) -> Result<(UpdateWal, u64), GzError> {
        let mut file = match std::fs::OpenOptions::new().read(true).write(true).open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((UpdateWal::create(path)?, 0));
            }
            Err(e) => return Err(GzError::Io(e)),
        };
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.len() < WAL_MAGIC.len() {
            drop(file);
            return Ok((UpdateWal::create(path)?, 0));
        }
        if bytes[..4] != WAL_MAGIC {
            return Err(corrupt(path, "not an update WAL (bad magic)"));
        }

        let mut at = WAL_MAGIC.len();
        let mut replayed = 0u64;
        while let Some(header) = bytes.get(at..at + WAL_RECORD_HEADER_BYTES) {
            let count = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
            let checksum = u64::from_le_bytes(header[4..12].try_into().unwrap());
            let payload_at = at + WAL_RECORD_HEADER_BYTES;
            let Some(payload) = count
                .checked_mul(WAL_UPDATE_BYTES)
                .and_then(|len| bytes.get(payload_at..payload_at + len))
            else {
                break; // torn mid-payload
            };
            if xxh64(payload, count as u64) != checksum {
                break; // torn mid-header or bit-rotted — either way, not acked-intact
            }
            for update in payload.chunks_exact(WAL_UPDATE_BYTES) {
                let u = u32::from_le_bytes(update[..4].try_into().unwrap());
                let v = u32::from_le_bytes(update[4..8].try_into().unwrap());
                sink(u, v, update[8] != 0);
            }
            replayed += count as u64;
            at = payload_at + payload.len();
        }

        file.set_len(at as u64)?;
        file.seek(SeekFrom::Start(at as u64))?;
        file.sync_data()?;
        Ok((UpdateWal { file, buf: Vec::new() }, replayed))
    }
}

/// The manifest naming `gz serve`'s current durable round (DESIGN.md §15):
/// which versioned shard-checkpoint files are authoritative and how many
/// client updates they cover. Written atomically *after* every shard file
/// of the round is complete, so the round it names is always fully on
/// disk; the WAL segment of the same round holds the updates that arrived
/// since.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeManifest {
    /// Checkpoint round this manifest names (0 = fresh, no shard files).
    pub round: u64,
    /// Client updates the round's shard files cover.
    pub covered: u64,
    /// Vertex universe size — resume refuses a mismatched restart.
    pub num_nodes: u64,
    /// Master seed.
    pub seed: u64,
    /// Shard count the round's files were cut for.
    pub num_shards: u32,
}

impl ServeManifest {
    fn encode_fields(&self) -> [u8; 36] {
        let mut out = [0u8; 36];
        out[..8].copy_from_slice(&self.round.to_le_bytes());
        out[8..16].copy_from_slice(&self.covered.to_le_bytes());
        out[16..24].copy_from_slice(&self.num_nodes.to_le_bytes());
        out[24..32].copy_from_slice(&self.seed.to_le_bytes());
        out[32..36].copy_from_slice(&self.num_shards.to_le_bytes());
        out
    }

    /// Atomically publish this manifest at `path` (`write_durably`): a
    /// crash leaves either the previous round current or this one — never
    /// a torn manifest.
    pub fn save(&self, path: &Path) -> Result<(), GzError> {
        let fields = self.encode_fields();
        write_durably(path, |w| {
            w.write_all(&MANIFEST_MAGIC)?;
            w.write_all(&fields)?;
            w.write_all(&xxh64(&fields, 0).to_le_bytes())?;
            Ok(())
        })
    }

    /// Load and validate the manifest at `path`.
    pub fn load(path: &Path) -> Result<ServeManifest, GzError> {
        let bytes = std::fs::read(path)?;
        if bytes.len() != 4 + 36 + 8 {
            return Err(corrupt(path, format!("manifest is {} bytes, expected 48", bytes.len())));
        }
        if bytes[..4] != MANIFEST_MAGIC {
            return Err(corrupt(path, "not a serve manifest (bad magic)"));
        }
        let fields = &bytes[4..40];
        let checksum = u64::from_le_bytes(bytes[40..48].try_into().unwrap());
        if xxh64(fields, 0) != checksum {
            return Err(corrupt(path, "manifest checksum mismatch"));
        }
        Ok(ServeManifest {
            round: u64::from_le_bytes(fields[..8].try_into().unwrap()),
            covered: u64::from_le_bytes(fields[8..16].try_into().unwrap()),
            num_nodes: u64::from_le_bytes(fields[16..24].try_into().unwrap()),
            seed: u64::from_le_bytes(fields[24..32].try_into().unwrap()),
            num_shards: u32::from_le_bytes(fields[32..36].try_into().unwrap()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> gz_testutil::TempPath {
        gz_testutil::TempPath::new(&format!("gz-ckpt-{name}"), ".gzc")
    }

    #[test]
    fn save_restore_round_trip_preserves_answers() {
        let path = tmp("round_trip");
        let mut gz = GraphZeppelin::new(GzConfig::in_ram(32)).unwrap();
        for &(a, b) in &[(0u32, 1u32), (1, 2), (5, 6), (6, 7), (7, 5)] {
            gz.edge_update(a, b);
        }
        let expected = gz.connected_components().unwrap().labels().to_vec();
        let header = gz.save_checkpoint(path.path()).unwrap();
        assert_eq!(header.updates_ingested, 5);
        drop(gz);

        let mut restored = GraphZeppelin::restore(path.path()).unwrap();
        assert_eq!(restored.updates_ingested(), 5);
        assert_eq!(restored.connected_components().unwrap().labels(), &expected[..]);
    }

    #[test]
    fn restored_system_continues_streaming() {
        let path = tmp("continue");
        let mut gz = GraphZeppelin::new(GzConfig::in_ram(16)).unwrap();
        gz.edge_update(0, 1);
        gz.edge_update(2, 3);
        gz.save_checkpoint(path.path()).unwrap();
        drop(gz);

        let mut restored = GraphZeppelin::restore(path.path()).unwrap();
        // Delete an old edge and add a new one across the components.
        restored.update(2, 3, true);
        restored.edge_update(1, 2);
        let cc = restored.connected_components().unwrap();
        assert!(cc.same_component(0, 2));
        assert!(!cc.same_component(2, 3));
    }

    #[test]
    fn hybrid_checkpoint_bitwise_equals_dense_and_round_trips() {
        // A hybrid store (sketch_threshold > 0) densifies on save, so its
        // checkpoint must be byte-for-byte the file an always-dense system
        // writes for the same stream — and restoring it is lossless.
        let edges: Vec<(u32, u32)> =
            vec![(0, 1), (1, 2), (2, 0), (5, 6), (0, 1), (3, 0), (4, 0), (7, 0), (8, 0)];

        let dense_path = tmp("hybrid_dense");
        let mut dense = GraphZeppelin::new(GzConfig::in_ram(24)).unwrap();
        for &(a, b) in &edges {
            dense.update(a, b, false);
        }
        dense.save_checkpoint(dense_path.path()).unwrap();

        let hybrid_path = tmp("hybrid");
        let mut config = GzConfig::in_ram(24);
        config.sketch_threshold = 3; // node 0 crosses τ mid-stream
        let mut hybrid = GraphZeppelin::new(config.clone()).unwrap();
        for &(a, b) in &edges {
            hybrid.update(a, b, false);
        }
        hybrid.flush();
        assert!(hybrid.rep_stats().promoted >= 1, "node 0 should have promoted");
        assert!(hybrid.rep_stats().sparse > 0, "most nodes should still be sparse");
        let expected = hybrid.connected_components().unwrap().labels().to_vec();
        hybrid.save_checkpoint(hybrid_path.path()).unwrap();

        assert_eq!(
            std::fs::read(hybrid_path.path()).unwrap(),
            std::fs::read(dense_path.path()).unwrap(),
            "hybrid checkpoint must densify to the always-dense byte stream"
        );

        // Restore back into a hybrid config: state loads dense (sparse sets
        // are retired), answers are preserved, and streaming continues.
        let mut restored = GraphZeppelin::restore_with_config(hybrid_path.path(), config).unwrap();
        assert_eq!(restored.rep_stats().sparse, 0, "restored state is fully dense");
        assert_eq!(restored.connected_components().unwrap().labels(), &expected[..]);
        restored.update(5, 6, true);
        let cc = restored.connected_components().unwrap();
        assert!(!cc.same_component(5, 6));
    }

    #[test]
    fn mismatched_config_rejected() {
        let path = tmp("mismatch");
        let mut gz = GraphZeppelin::new(GzConfig::in_ram(16)).unwrap();
        gz.edge_update(0, 1);
        gz.save_checkpoint(path.path()).unwrap();

        let mut wrong = GzConfig::in_ram(16);
        wrong.seed = 12345; // different hash functions: must refuse
        assert!(matches!(
            GraphZeppelin::restore_with_config(path.path(), wrong),
            Err(GzError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rejects_non_checkpoint_files() {
        let path = tmp("garbage");
        std::fs::write(path.path(), b"definitely not a checkpoint").unwrap();
        assert!(GraphZeppelin::restore(path.path()).is_err());
    }

    #[test]
    fn header_readable_without_payload_scan() {
        let path = tmp("header");
        let mut gz = GraphZeppelin::new(GzConfig::in_ram(64)).unwrap();
        gz.edge_update(3, 4);
        gz.save_checkpoint(path.path()).unwrap();
        let h = GraphZeppelin::checkpoint_header(path.path()).unwrap();
        assert_eq!(h.num_nodes, 64);
        assert_eq!(h.updates_ingested, 1);
    }

    /// Write a valid checkpoint and return its bytes.
    fn valid_checkpoint_bytes(path: &Path) -> Vec<u8> {
        let mut gz = GraphZeppelin::new(GzConfig::in_ram(16)).unwrap();
        gz.edge_update(0, 1);
        gz.edge_update(2, 3);
        gz.save_checkpoint(path).unwrap();
        std::fs::read(path).unwrap()
    }

    #[test]
    fn truncated_header_is_a_clean_error() {
        let path = tmp("trunc_header");
        let bytes = valid_checkpoint_bytes(path.path());
        // Every prefix of the header must fail cleanly — magic-only,
        // mid-field, and the full-header-no-payload boundary.
        for cut in [0usize, 3, 4, 11, 20, 35] {
            std::fs::write(path.path(), &bytes[..cut]).unwrap();
            let err = GraphZeppelin::restore(path.path()).err().expect("must fail");
            assert!(matches!(err, GzError::InvalidConfig(_)), "cut {cut}: {err}");
        }
    }

    #[test]
    fn short_sketch_payload_is_a_clean_error() {
        let path = tmp("trunc_payload");
        let bytes = valid_checkpoint_bytes(path.path());
        // Cut mid-payload: header parses, the length check must refuse.
        let cut = 36 + (bytes.len() - 36) / 2;
        std::fs::write(path.path(), &bytes[..cut]).unwrap();
        let err = GraphZeppelin::restore(path.path()).err().expect("must fail");
        assert!(matches!(err, GzError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("bytes"), "should name the size mismatch: {err}");
    }

    #[test]
    fn trailing_garbage_is_a_clean_error() {
        let path = tmp("trailing");
        let mut bytes = valid_checkpoint_bytes(path.path());
        bytes.extend_from_slice(b"junk");
        std::fs::write(path.path(), &bytes).unwrap();
        let err = GraphZeppelin::restore(path.path()).err().expect("must fail");
        assert!(matches!(err, GzError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn absurd_header_fields_are_refused_before_allocation() {
        let path = tmp("absurd");
        let bytes = valid_checkpoint_bytes(path.path());
        // num_nodes = u64::MAX: must fail on the bounds check, not OOM.
        let mut huge = bytes.clone();
        huge[4..12].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(path.path(), &huge).unwrap();
        assert!(matches!(GraphZeppelin::restore(path.path()), Err(GzError::InvalidConfig(_))));
        // rounds = u32::MAX likewise.
        let mut huge = bytes;
        huge[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(path.path(), &huge).unwrap();
        assert!(matches!(GraphZeppelin::restore(path.path()), Err(GzError::InvalidConfig(_))));
    }

    fn shard_fixture() -> (SketchParams, ShardCheckpointHeader, Vec<(u32, CubeNodeSketch)>) {
        let params = SketchParams::new(32, 6, 3, 0xABCD);
        // Shard 1 of 2 owns the odd nodes.
        let sketches: Vec<(u32, CubeNodeSketch)> =
            (0..16u32).map(|i| (2 * i + 1, params.new_node_sketch())).collect();
        let header = ShardCheckpointHeader {
            num_nodes: 32,
            seed: 0xABCD,
            rounds: 6,
            columns: 3,
            shard_index: 1,
            num_shards: 2,
            seq: 41,
            owned_count: sketches.len() as u64,
        };
        (params, header, sketches)
    }

    #[test]
    fn shard_checkpoint_round_trips_and_reports_seq() {
        let path = tmp("shard_rt");
        let (params, header, sketches) = shard_fixture();
        save_shard_checkpoint(path.path(), &header, &params, &sketches).unwrap();

        assert_eq!(read_shard_checkpoint_header(path.path()).unwrap(), header);
        let (restored, seq) = load_shard_checkpoint(path.path(), &params, &header).unwrap();
        assert_eq!(seq, 41);
        assert_eq!(restored.len(), sketches.len());
        let mut a = Vec::new();
        let mut b = Vec::new();
        for (got, (_, want)) in restored.iter().zip(&sketches) {
            a.clear();
            b.clear();
            params.serialize_node_sketch(got, &mut a);
            params.serialize_node_sketch(want, &mut b);
            assert_eq!(a, b, "restored sketch must be bit-identical");
        }
        // The atomic-rename temp file must not linger.
        let mut tmp_os = path.path().as_os_str().to_os_string();
        tmp_os.push(".tmp");
        assert!(!PathBuf::from(tmp_os).exists());
    }

    #[test]
    fn shard_checkpoint_rejects_wrong_shard_and_malformed_files() {
        let path = tmp("shard_bad");
        let (params, header, sketches) = shard_fixture();
        save_shard_checkpoint(path.path(), &header, &params, &sketches).unwrap();

        // Wrong shard identity: same file, different expectation.
        let mut other = header;
        other.shard_index = 0;
        assert!(matches!(
            load_shard_checkpoint(path.path(), &params, &other),
            Err(GzError::InvalidConfig(_))
        ));

        // GZC2 magic on a shard-restore path is refused.
        let gzc2 = tmp("shard_bad_gzc2");
        valid_checkpoint_bytes(gzc2.path());
        assert!(read_shard_checkpoint_header(gzc2.path()).is_err());

        // Truncation and trailing garbage are clean errors.
        let bytes = std::fs::read(path.path()).unwrap();
        for cut in [0usize, 7, 30, 51, bytes.len() - 5] {
            std::fs::write(path.path(), &bytes[..cut]).unwrap();
            let err = load_shard_checkpoint(path.path(), &params, &header).unwrap_err();
            assert!(matches!(err, GzError::InvalidConfig(_)), "cut {cut}: {err}");
        }
        let mut garbage = bytes.clone();
        garbage.push(0xFF);
        std::fs::write(path.path(), &garbage).unwrap();
        assert!(matches!(
            load_shard_checkpoint(path.path(), &params, &header),
            Err(GzError::InvalidConfig(_))
        ));
    }

    fn recover_all(path: &Path) -> (UpdateWal, u64, Vec<(u32, u32, bool)>) {
        let mut got = Vec::new();
        let (wal, replayed) = UpdateWal::recover(path, &mut |u, v, d| got.push((u, v, d))).unwrap();
        (wal, replayed, got)
    }

    #[test]
    fn wal_round_trips_batches_in_order() {
        let path = tmp("wal_round_trip");
        let mut wal = UpdateWal::create(path.path()).unwrap();
        wal.append(&[(0, 1, false), (1, 2, false)]).unwrap();
        wal.append(&[]).unwrap();
        wal.append(&[(0, 1, true)]).unwrap();
        drop(wal);

        let (mut wal, replayed, got) = recover_all(path.path());
        assert_eq!(replayed, 3);
        assert_eq!(got, vec![(0, 1, false), (1, 2, false), (0, 1, true)]);

        // Recovery leaves the log appendable: new records land after the
        // replayed ones.
        wal.append(&[(5, 6, false)]).unwrap();
        drop(wal);
        let (_, replayed, got) = recover_all(path.path());
        assert_eq!(replayed, 4);
        assert_eq!(got.last(), Some(&(5, 6, false)));
    }

    #[test]
    fn wal_missing_file_is_a_fresh_log() {
        let path = tmp("wal_missing");
        let (mut wal, replayed, got) = recover_all(path.path());
        assert_eq!((replayed, got.len()), (0, 0));
        wal.append(&[(1, 2, false)]).unwrap();
        drop(wal);
        let (_, replayed, _) = recover_all(path.path());
        assert_eq!(replayed, 1);
    }

    #[test]
    fn wal_truncates_torn_tail_but_keeps_intact_prefix() {
        let path = tmp("wal_torn");
        let mut wal = UpdateWal::create(path.path()).unwrap();
        wal.append(&[(0, 1, false)]).unwrap();
        wal.append(&[(2, 3, false), (3, 4, false)]).unwrap();
        drop(wal);
        let full = std::fs::read(path.path()).unwrap();

        // Tear the file at every byte boundary inside the second record:
        // the first must always survive, the second never half-apply.
        let first_record_end = 4 + 12 + 9;
        for cut in first_record_end..full.len() {
            std::fs::write(path.path(), &full[..cut]).unwrap();
            let (_, replayed, got) = recover_all(path.path());
            assert_eq!(replayed, 1, "cut {cut}");
            assert_eq!(got, vec![(0, 1, false)], "cut {cut}");
            // ...and the torn tail is gone: recovery is idempotent.
            assert_eq!(std::fs::metadata(path.path()).unwrap().len(), first_record_end as u64);
        }

        // A tear inside the magic is a fresh log.
        std::fs::write(path.path(), &full[..2]).unwrap();
        let (_, replayed, _) = recover_all(path.path());
        assert_eq!(replayed, 0);
    }

    #[test]
    fn wal_detects_checksum_corruption() {
        let path = tmp("wal_bitrot");
        let mut wal = UpdateWal::create(path.path()).unwrap();
        wal.append(&[(0, 1, false)]).unwrap();
        wal.append(&[(2, 3, false)]).unwrap();
        drop(wal);

        // Flip one payload byte in the second record: replay stops before
        // it.
        let mut bytes = std::fs::read(path.path()).unwrap();
        let second_payload = 4 + 12 + 9 + 12;
        bytes[second_payload] ^= 0x40;
        std::fs::write(path.path(), &bytes).unwrap();
        let (_, replayed, got) = recover_all(path.path());
        assert_eq!(replayed, 1);
        assert_eq!(got, vec![(0, 1, false)]);
    }

    #[test]
    fn wal_refuses_foreign_files() {
        let path = tmp("wal_foreign");
        std::fs::write(path.path(), b"definitely not a WAL").unwrap();
        let err = UpdateWal::recover(path.path(), &mut |_, _, _| {}).unwrap_err();
        assert!(matches!(err, GzError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn serve_manifest_round_trips_and_rejects_corruption() {
        let path = tmp("manifest");
        let manifest = ServeManifest {
            round: 7,
            covered: 123_456,
            num_nodes: 1 << 20,
            seed: 0x5EED,
            num_shards: 4,
        };
        manifest.save(path.path()).unwrap();
        assert_eq!(ServeManifest::load(path.path()).unwrap(), manifest);

        // Overwrites are atomic replacements of the whole manifest.
        let next = ServeManifest { round: 8, covered: 200_000, ..manifest };
        next.save(path.path()).unwrap();
        assert_eq!(ServeManifest::load(path.path()).unwrap(), next);

        // Any single-byte corruption is caught by length, magic, or
        // checksum.
        let bytes = std::fs::read(path.path()).unwrap();
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            std::fs::write(path.path(), &bad).unwrap();
            assert!(ServeManifest::load(path.path()).is_err(), "byte {at}");
        }
        std::fs::write(path.path(), &bytes[..20]).unwrap();
        assert!(ServeManifest::load(path.path()).is_err());
    }
}
