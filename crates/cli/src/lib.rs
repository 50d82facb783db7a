//! `gz` — command-line front end for the GraphZeppelin reproduction.
//!
//! ```text
//! gz generate --dataset kron10 --seed 42 --out stream.gzs
//! gz generate --er 1000x5000 --out er.gzs
//! gz info stream.gzs
//! gz components stream.gzs [--workers 4] [--store ram|disk] \
//!     [--buffering leaf|tree] [--dir /tmp/gzwork] [--forest] \
//!     [--query-threads N] [--staleness U] [--threshold T] \
//!     [--io-backend auto|pread|uring] \
//!     [--stats] [--shards K [--connect host:port,host:port,...]] \
//!     [--checkpoint-every N] [--batch-updates N] [--respawn]
//! gz checkpoint save ckpt.gzc --from stream.gzs [--workers 4] [--seed S]
//! gz checkpoint restore ckpt.gzc [--forest] [--query-threads N]
//! gz shard-worker --listen 127.0.0.1:7001 --nodes 1024 --shards 2 --index 0 \
//!     [--checkpoint shard.ckpt | --resume shard.ckpt]
//! gz serve (--listen host:port | --unix sock.path) --nodes 1024 \
//!     [--shards K] [--workers N] [--max-clients C] [--dir state/ [--resume]] \
//!     [--checkpoint-ms MS] [--timeout-ms MS] [--staleness U] [--stats]
//! gz bipartite stream.gzs
//! ```
//!
//! Fault tolerance (DESIGN.md §14): `--checkpoint-every N` makes the
//! sharded coordinator ask every shard for a durable checkpoint each `N`
//! routed batches; `--respawn` (with `--connect`) keeps a replay log and,
//! when a worker dies, reconnects with bounded backoff, resyncs from the
//! worker's restored checkpoint, and replays the missing batches. A killed
//! worker is restarted (by its supervisor) as
//! `gz shard-worker --resume <ckpt>`.
//!
//! `gz serve` (DESIGN.md §15) keeps one resident sharded system alive and
//! serves many concurrent clients over the wire protocol's front-door
//! dialect, with WAL-backed acks, periodic checkpoint rounds, overload
//! shedding, and graceful signal-driven shutdown; see [`serve`] and the
//! [`client`] library.
//!
//! All logic lives in this library so it is unit-testable; `main.rs` is a
//! thin shell.

pub mod client;
pub mod serve;

use graph_zeppelin::{
    connect_shard_tcp, serve_shard_connection, BipartitenessTester, BufferStrategy, GraphZeppelin,
    GutterCapacity, GzConfig, IoBackendKind, RecoveringTransport, RetryPolicy, ShardConfig,
    ShardPipeline, ShardedGraphZeppelin, SocketTransport, StoreBackend, TransportTimeouts,
};
use gz_stream::format::{StreamReader, StreamWriter};
use gz_stream::{Dataset, GeneratorSpec, StreamifyConfig, UpdateKind};
use std::io::Write as _;
use std::path::PathBuf;

/// Sketch store placement selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreArg {
    /// Sketches in RAM.
    Ram,
    /// Sketches in a file under `--dir`.
    Disk,
}

impl StoreArg {
    fn parse(s: &str) -> Result<StoreArg, String> {
        match s {
            "ram" => Ok(StoreArg::Ram),
            "disk" => Ok(StoreArg::Disk),
            other => Err(format!("unknown store {other} (want ram|disk)")),
        }
    }
}

/// Parse an `--io-backend` value straight into the config type (the CLI
/// needs no intermediate enum: auto/pread/uring map 1:1 onto
/// [`IoBackendKind`]).
fn parse_io_backend(s: &str) -> Result<IoBackendKind, String> {
    IoBackendKind::parse(s).ok_or_else(|| format!("unknown io backend {s} (want auto|pread|uring)"))
}

/// Buffering system selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferingArg {
    /// In-RAM leaf gutters.
    Leaf,
    /// On-disk gutter tree under `--dir`.
    Tree,
}

impl BufferingArg {
    fn parse(s: &str) -> Result<BufferingArg, String> {
        match s {
            "leaf" => Ok(BufferingArg::Leaf),
            "tree" => Ok(BufferingArg::Tree),
            other => Err(format!("unknown buffering {other} (want leaf|tree)")),
        }
    }
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a dataset stream into a file.
    Generate {
        /// Dataset spec.
        dataset: DatasetArg,
        /// RNG seed.
        seed: u64,
        /// Output path.
        out: PathBuf,
    },
    /// Print a stream file's header and statistics.
    Info {
        /// Stream file.
        path: PathBuf,
    },
    /// Compute connected components of a stream file.
    Components {
        /// Stream file.
        path: PathBuf,
        /// Graph Workers (per shard, when sharded).
        workers: usize,
        /// Sketch store placement.
        store: StoreArg,
        /// Buffering system.
        buffering: BufferingArg,
        /// Directory for on-disk stores / gutter trees.
        dir: Option<PathBuf>,
        /// Also print the spanning forest.
        forest: bool,
        /// Borůvka query-engine threads (`None` = the worker count).
        query_threads: Option<usize>,
        /// Bounded staleness for queries: reuse a sealed epoch
        /// while it lags at most this many updates (`None` = always
        /// query fresh state).
        staleness: Option<u64>,
        /// Hybrid-representation promotion threshold τ: nodes stay exact
        /// sparse sets until they exceed this many live neighbors (`None`
        /// or 0 = always-dense sketches).
        threshold: Option<u32>,
        /// Disk-store I/O backend (`None` = auto: probe io_uring, fall
        /// back to pread). Ignored by RAM stores.
        io_backend: Option<IoBackendKind>,
        /// Print a representation census (sparse/promoted node counts and
        /// resident bytes) after the query.
        stats: bool,
        /// Shard the system `k` ways (in-process unless `connect` names
        /// remote workers).
        shards: Option<u32>,
        /// `host:port` shard-worker addresses, one per shard in shard
        /// order; empty = in-process shards.
        connect: Vec<String>,
        /// Ask every shard for a durable checkpoint each `N` routed
        /// batches (`None` = never checkpoint mid-stream).
        checkpoint_every: Option<u64>,
        /// Absolute router batch size in updates (`None` = the paper's
        /// sketch-factor default). Small batches tighten the recovery
        /// replay bound at the cost of more wire round trips.
        batch_updates: Option<usize>,
        /// On worker death, reconnect with bounded backoff and replay the
        /// batches the worker lost (requires `--connect`).
        respawn: bool,
    },
    /// Ingest a stream, then persist the whole sketch state to a file.
    CheckpointSave {
        /// Stream file to ingest.
        stream: PathBuf,
        /// Checkpoint output path.
        out: PathBuf,
        /// Graph Workers for the ingesting system.
        workers: usize,
        /// Master seed (must match any system the checkpoint is later
        /// merged or compared with).
        seed: u64,
    },
    /// Restore a checkpoint and answer a connectivity query from it.
    CheckpointRestore {
        /// Checkpoint file.
        path: PathBuf,
        /// Also print the spanning forest.
        forest: bool,
        /// Borůvka query-engine threads (`None` = the worker count).
        query_threads: Option<usize>,
        /// Disk-store I/O backend for the restored system (`None` = auto).
        /// Accepted for flag parity with `components`; the restored store
        /// is RAM-resident today, so this only takes effect if restore
        /// grows a disk mode.
        io_backend: Option<IoBackendKind>,
    },
    /// Serve one shard over TCP: bind, accept one coordinator connection,
    /// run the shard-worker event loop until `Shutdown`.
    ShardWorker {
        /// `host:port` to listen on (port 0 picks a free port).
        listen: String,
        /// Vertex universe size (must match the coordinator).
        nodes: u64,
        /// Total shard count.
        shards: u32,
        /// This worker's shard index.
        index: u32,
        /// Master seed (must match the coordinator).
        seed: u64,
        /// Graph Workers in this shard's pipeline.
        workers: usize,
        /// Sketch store placement for this shard.
        store: StoreArg,
        /// Directory for an on-disk store.
        dir: Option<PathBuf>,
        /// Hybrid-representation promotion threshold τ for this shard's
        /// store (`None` or 0 = always-dense sketches).
        threshold: Option<u32>,
        /// Disk-store I/O backend for this shard's store (`None` = auto).
        io_backend: Option<IoBackendKind>,
        /// Write coordinator-requested checkpoints to this file.
        checkpoint: Option<PathBuf>,
        /// Restore state from this checkpoint before serving; later
        /// checkpoints overwrite the same file.
        resume: Option<PathBuf>,
    },
    /// Run the long-lived serve daemon (DESIGN.md §15).
    Serve {
        /// Everything the daemon needs; see [`serve::ServeOptions`].
        options: serve::ServeOptions,
    },
    /// Test bipartiteness of a stream file.
    Bipartite {
        /// Stream file.
        path: PathBuf,
    },
}

/// Dataset selection for `generate`.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetArg {
    /// `kronN` from the paper catalog.
    Kron(u32),
    /// Erdős–Rényi `G(n, m)` written as `NxM`.
    ErdosRenyi(u64, u64),
    /// Preferential attachment written as `NxM`.
    Preferential(u64, u64),
}

impl DatasetArg {
    fn to_dataset(&self) -> Dataset {
        match *self {
            DatasetArg::Kron(scale) => Dataset::kron(scale),
            DatasetArg::ErdosRenyi(nodes, edges) => Dataset {
                name: format!("er-{nodes}x{edges}"),
                num_vertices: nodes,
                nominal_edges: edges,
                spec: GeneratorSpec::ErdosRenyi { nodes, edges },
            },
            DatasetArg::Preferential(nodes, edges) => Dataset {
                name: format!("pa-{nodes}x{edges}"),
                num_vertices: nodes,
                nominal_edges: edges,
                spec: GeneratorSpec::Preferential { nodes, edges },
            },
        }
    }
}

/// Parse `NxM` pairs.
fn parse_pair(s: &str) -> Result<(u64, u64), String> {
    let (a, b) = s.split_once('x').ok_or_else(|| format!("expected NxM, got {s}"))?;
    Ok((
        a.parse().map_err(|_| format!("bad node count {a}"))?,
        b.parse().map_err(|_| format!("bad edge count {b}"))?,
    ))
}

fn parse_num<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    it.next()
        .ok_or(format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("bad value for {flag}"))
}

/// Parse a flag whose value must be a positive count: `0` is refused with
/// the same error shape as `--query-threads 0`, instead of being silently
/// clamped downstream.
fn parse_positive<T: std::str::FromStr + Default + PartialEq>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    let n: T = parse_num(it, flag)?;
    if n == T::default() {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

/// Parse `--query-threads`: a positive thread count (0 is refused — a query
/// cannot run on no threads; omit the flag to default to the worker count).
fn parse_query_threads(it: &mut std::slice::Iter<'_, String>) -> Result<usize, String> {
    let n: usize = parse_num(it, "--query-threads")?;
    if n == 0 {
        return Err("--query-threads must be at least 1 (omit the flag to default to the \
             worker count)"
            .into());
    }
    Ok(n)
}

/// Set-once guard for flag values: a repeated flag is an explicit error,
/// never a silent last-one-wins.
fn set_once<T>(slot: &mut Option<T>, value: T, flag: &str) -> Result<(), String> {
    if slot.replace(value).is_some() {
        return Err(format!("duplicate flag {flag}"));
    }
    Ok(())
}

/// Set-once guard for boolean switches (`--forest` twice is a typo worth
/// flagging, not a no-op).
fn set_switch(slot: &mut bool, flag: &str) -> Result<(), String> {
    if std::mem::replace(slot, true) {
        return Err(format!("duplicate flag {flag}"));
    }
    Ok(())
}

/// Parse a full argument vector (without `argv[0]`).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let sub = it.next().ok_or(
        "missing subcommand (generate|info|components|checkpoint|shard-worker|serve|bipartite)",
    )?;
    match sub.as_str() {
        "generate" => {
            let mut dataset = None;
            let mut seed = None;
            let mut out = None;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--dataset" => {
                        let v = it.next().ok_or("--dataset needs a value")?;
                        let scale = v
                            .strip_prefix("kron")
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| format!("unknown dataset {v} (try kron10)"))?;
                        set_once(&mut dataset, DatasetArg::Kron(scale), arg)?;
                    }
                    "--er" => {
                        let v = it.next().ok_or("--er needs NxM")?;
                        let (n, m) = parse_pair(v)?;
                        set_once(&mut dataset, DatasetArg::ErdosRenyi(n, m), arg)?;
                    }
                    "--pa" => {
                        let v = it.next().ok_or("--pa needs NxM")?;
                        let (n, m) = parse_pair(v)?;
                        set_once(&mut dataset, DatasetArg::Preferential(n, m), arg)?;
                    }
                    "--seed" => set_once(&mut seed, parse_num(&mut it, arg)?, arg)?,
                    "--out" => {
                        let v = PathBuf::from(it.next().ok_or("--out needs a path")?);
                        set_once(&mut out, v, arg)?;
                    }
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            Ok(Command::Generate {
                dataset: dataset.ok_or("need one of --dataset/--er/--pa")?,
                seed: seed.unwrap_or(42),
                out: out.ok_or("need --out")?,
            })
        }
        "info" => {
            let path = it.next().ok_or("info needs a stream file")?;
            Ok(Command::Info { path: PathBuf::from(path) })
        }
        "components" => {
            let path = PathBuf::from(it.next().ok_or("components needs a stream file")?);
            let mut workers = None;
            let mut store = None;
            let mut buffering = None;
            let mut dir = None;
            let mut forest = false;
            let mut query_threads = None;
            let mut staleness = None;
            let mut threshold = None;
            let mut io_backend = None;
            let mut stats = false;
            let mut shards = None;
            let mut connect = None;
            let mut checkpoint_every = None;
            let mut batch_updates = None;
            let mut respawn = false;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--workers" => set_once(&mut workers, parse_positive(&mut it, arg)?, arg)?,
                    "--query-threads" => {
                        set_once(&mut query_threads, parse_query_threads(&mut it)?, arg)?;
                    }
                    "--store" => {
                        let v = StoreArg::parse(it.next().ok_or("--store needs ram|disk")?)?;
                        set_once(&mut store, v, arg)?;
                    }
                    "--buffering" => {
                        let v =
                            BufferingArg::parse(it.next().ok_or("--buffering needs leaf|tree")?)?;
                        set_once(&mut buffering, v, arg)?;
                    }
                    "--dir" => {
                        let v = PathBuf::from(it.next().ok_or("--dir needs a dir")?);
                        set_once(&mut dir, v, arg)?;
                    }
                    // Back-compat: `--disk DIR` = the full on-disk deployment.
                    // It claims --dir/--store/--buffering, so mixing it with
                    // any of those is reported as a duplicate.
                    "--disk" => {
                        let v = PathBuf::from(it.next().ok_or("--disk needs a dir")?);
                        set_once(&mut dir, v, arg)?;
                        set_once(&mut store, StoreArg::Disk, arg)?;
                        set_once(&mut buffering, BufferingArg::Tree, arg)?;
                    }
                    "--forest" => set_switch(&mut forest, arg)?,
                    // `--staleness 0` is meaningful (reseal on every query),
                    // so a plain parse — not parse_positive — is correct.
                    "--staleness" => set_once(&mut staleness, parse_num(&mut it, arg)?, arg)?,
                    // `--threshold 0` is meaningful (force always-dense),
                    // so a plain parse here too.
                    "--threshold" => set_once(&mut threshold, parse_num(&mut it, arg)?, arg)?,
                    "--io-backend" => {
                        let v = parse_io_backend(it.next().ok_or("--io-backend needs a value")?)?;
                        set_once(&mut io_backend, v, arg)?;
                    }
                    "--stats" => set_switch(&mut stats, arg)?,
                    "--shards" => set_once(&mut shards, parse_positive(&mut it, arg)?, arg)?,
                    "--connect" => {
                        let v = it.next().ok_or("--connect needs addr,addr,...")?;
                        let addrs: Vec<String> =
                            v.split(',').map(|s| s.trim().to_string()).collect();
                        set_once(&mut connect, addrs, arg)?;
                    }
                    "--checkpoint-every" => {
                        set_once(&mut checkpoint_every, parse_positive(&mut it, arg)?, arg)?;
                    }
                    "--batch-updates" => {
                        set_once(&mut batch_updates, parse_positive(&mut it, arg)?, arg)?;
                    }
                    "--respawn" => set_switch(&mut respawn, arg)?,
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            if connect.is_some() && shards.is_none() {
                return Err("--connect requires --shards".into());
            }
            if checkpoint_every.is_some() && shards.is_none() {
                return Err("--checkpoint-every requires --shards".into());
            }
            if batch_updates.is_some() && shards.is_none() {
                return Err("--batch-updates requires --shards (single-node gutters are \
                     sized by the paper's sketch-factor knob)"
                    .into());
            }
            if respawn && connect.is_none() {
                return Err("--respawn requires --connect (in-process shards share the \
                     coordinator's fate; there is nothing to reconnect to)"
                    .into());
            }
            Ok(Command::Components {
                path,
                workers: workers.unwrap_or(2),
                store: store.unwrap_or(StoreArg::Ram),
                buffering: buffering.unwrap_or(BufferingArg::Leaf),
                dir,
                forest,
                query_threads,
                staleness,
                threshold,
                io_backend,
                stats,
                shards,
                connect: connect.unwrap_or_default(),
                checkpoint_every,
                batch_updates,
                respawn,
            })
        }
        "checkpoint" => {
            let action = it.next().ok_or("checkpoint needs save|restore")?;
            match action.as_str() {
                "save" => {
                    let out = PathBuf::from(it.next().ok_or("checkpoint save needs a path")?);
                    let mut stream = None;
                    let mut workers = None;
                    let mut seed = None;
                    while let Some(arg) = it.next() {
                        match arg.as_str() {
                            "--from" => {
                                let v =
                                    PathBuf::from(it.next().ok_or("--from needs a stream file")?);
                                set_once(&mut stream, v, arg)?;
                            }
                            "--workers" => {
                                set_once(&mut workers, parse_positive(&mut it, arg)?, arg)?;
                            }
                            "--seed" => set_once(&mut seed, parse_num(&mut it, arg)?, arg)?,
                            other => return Err(format!("unknown flag {other}")),
                        }
                    }
                    Ok(Command::CheckpointSave {
                        stream: stream.ok_or("need --from <stream.gzs>")?,
                        out,
                        workers: workers.unwrap_or(2),
                        seed: seed.unwrap_or(0x5EED_1E55),
                    })
                }
                "restore" => {
                    let path = PathBuf::from(it.next().ok_or("checkpoint restore needs a path")?);
                    let mut forest = false;
                    let mut query_threads = None;
                    let mut io_backend = None;
                    while let Some(arg) = it.next() {
                        match arg.as_str() {
                            "--forest" => set_switch(&mut forest, arg)?,
                            "--query-threads" => {
                                set_once(&mut query_threads, parse_query_threads(&mut it)?, arg)?;
                            }
                            "--io-backend" => {
                                let v = parse_io_backend(
                                    it.next().ok_or("--io-backend needs a value")?,
                                )?;
                                set_once(&mut io_backend, v, arg)?;
                            }
                            other => return Err(format!("unknown flag {other}")),
                        }
                    }
                    Ok(Command::CheckpointRestore { path, forest, query_threads, io_backend })
                }
                other => Err(format!("unknown checkpoint action {other} (want save|restore)")),
            }
        }
        "shard-worker" => {
            let mut listen = None;
            let mut nodes = None;
            let mut shards = None;
            let mut index = None;
            let mut seed = None;
            let mut workers = None;
            let mut store = None;
            let mut dir = None;
            let mut threshold = None;
            let mut io_backend = None;
            let mut checkpoint = None;
            let mut resume = None;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--listen" => {
                        let v = it.next().ok_or("--listen needs host:port")?.clone();
                        set_once(&mut listen, v, arg)?;
                    }
                    "--nodes" => set_once(&mut nodes, parse_num(&mut it, arg)?, arg)?,
                    "--shards" => set_once(&mut shards, parse_positive(&mut it, arg)?, arg)?,
                    "--index" => set_once(&mut index, parse_num(&mut it, arg)?, arg)?,
                    "--seed" => set_once(&mut seed, parse_num(&mut it, arg)?, arg)?,
                    "--workers" => set_once(&mut workers, parse_positive(&mut it, arg)?, arg)?,
                    "--store" => {
                        let v = StoreArg::parse(it.next().ok_or("--store needs ram|disk")?)?;
                        set_once(&mut store, v, arg)?;
                    }
                    "--dir" => {
                        let v = PathBuf::from(it.next().ok_or("--dir needs a dir")?);
                        set_once(&mut dir, v, arg)?;
                    }
                    "--threshold" => set_once(&mut threshold, parse_num(&mut it, arg)?, arg)?,
                    "--io-backend" => {
                        let v = parse_io_backend(it.next().ok_or("--io-backend needs a value")?)?;
                        set_once(&mut io_backend, v, arg)?;
                    }
                    "--checkpoint" => {
                        let v = PathBuf::from(it.next().ok_or("--checkpoint needs a path")?);
                        set_once(&mut checkpoint, v, arg)?;
                    }
                    "--resume" => {
                        let v = PathBuf::from(it.next().ok_or("--resume needs a path")?);
                        set_once(&mut resume, v, arg)?;
                    }
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            if checkpoint.is_some() && resume.is_some() {
                return Err("--resume already names the checkpoint file (later \
                     checkpoints overwrite it); drop --checkpoint"
                    .into());
            }
            Ok(Command::ShardWorker {
                listen: listen.ok_or("need --listen")?,
                nodes: nodes.ok_or("need --nodes")?,
                shards: shards.ok_or("need --shards")?,
                index: index.ok_or("need --index")?,
                seed: seed.unwrap_or(0x5EED_1E55),
                workers: workers.unwrap_or(2),
                store: store.unwrap_or(StoreArg::Ram),
                dir,
                threshold,
                io_backend,
                checkpoint,
                resume,
            })
        }
        "serve" => {
            let mut listen = None;
            let mut unix = None;
            let mut nodes = None;
            let mut shards = None;
            let mut seed = None;
            let mut workers = None;
            let mut max_clients = None;
            let mut dir = None;
            let mut resume = false;
            let mut checkpoint_ms = None;
            let mut timeout_ms = None;
            let mut staleness = None;
            let mut stats = false;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--listen" => {
                        let v = it.next().ok_or("--listen needs host:port")?.clone();
                        set_once(&mut listen, v, arg)?;
                    }
                    "--unix" => {
                        let v = PathBuf::from(it.next().ok_or("--unix needs a socket path")?);
                        set_once(&mut unix, v, arg)?;
                    }
                    "--nodes" => set_once(&mut nodes, parse_num(&mut it, arg)?, arg)?,
                    "--shards" => set_once(&mut shards, parse_positive(&mut it, arg)?, arg)?,
                    "--seed" => set_once(&mut seed, parse_num(&mut it, arg)?, arg)?,
                    "--workers" => set_once(&mut workers, parse_positive(&mut it, arg)?, arg)?,
                    "--max-clients" => {
                        set_once(&mut max_clients, parse_positive(&mut it, arg)?, arg)?
                    }
                    "--dir" => {
                        let v = PathBuf::from(it.next().ok_or("--dir needs a dir")?);
                        set_once(&mut dir, v, arg)?;
                    }
                    "--resume" => set_switch(&mut resume, arg)?,
                    "--checkpoint-ms" => {
                        set_once(&mut checkpoint_ms, parse_positive(&mut it, arg)?, arg)?
                    }
                    // 0 disables the deadline entirely (block forever).
                    "--timeout-ms" => set_once(&mut timeout_ms, parse_num(&mut it, arg)?, arg)?,
                    "--staleness" => set_once(&mut staleness, parse_num(&mut it, arg)?, arg)?,
                    "--stats" => set_switch(&mut stats, arg)?,
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            let listen = match (listen, unix) {
                (Some(addr), None) => serve::ServeListen::Tcp(addr),
                (None, Some(path)) => serve::ServeListen::Unix(path),
                (None, None) => return Err("need --listen host:port or --unix path".into()),
                (Some(_), Some(_)) => {
                    return Err("pick one of --listen and --unix, not both".into());
                }
            };
            if resume && dir.is_none() {
                return Err("--resume needs --dir (there is no state to resume without one)".into());
            }
            let mut options = serve::ServeOptions::new(listen, nodes.ok_or("need --nodes")?);
            options.shards = shards.unwrap_or(1);
            options.seed = seed.unwrap_or(0x5EED_1E55);
            options.workers = workers.unwrap_or(2);
            options.max_clients = max_clients.unwrap_or(64);
            options.dir = dir;
            options.resume = resume;
            options.checkpoint_ms = checkpoint_ms.unwrap_or(1000);
            // Some(0) is the typed spelling of "no deadline".
            options.timeout_ms = Some(timeout_ms.unwrap_or(30_000));
            options.staleness = staleness.unwrap_or(0);
            options.stats = stats;
            Ok(Command::Serve { options })
        }
        "bipartite" => {
            let path = it.next().ok_or("bipartite needs a stream file")?;
            Ok(Command::Bipartite { path: PathBuf::from(path) })
        }
        other => Err(format!("unknown subcommand {other}")),
    }
}

/// Resolve `--store`/`--dir` into a [`StoreBackend`], creating the
/// directory.
fn store_backend(store: StoreArg, dir: &Option<PathBuf>) -> Result<StoreBackend, String> {
    match store {
        StoreArg::Ram => Ok(StoreBackend::Ram),
        StoreArg::Disk => {
            let dir = dir.clone().ok_or("--store disk needs --dir")?;
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            Ok(StoreBackend::Disk { dir, block_bytes: 16 << 10, cache_groups: 1024 })
        }
    }
}

/// Build the single-node config selected by the components flags.
#[allow(clippy::too_many_arguments)] // mirrors the Components flag set
fn build_config(
    num_nodes: u64,
    workers: usize,
    store: StoreArg,
    buffering: BufferingArg,
    dir: &Option<PathBuf>,
    query_threads: Option<usize>,
    staleness: Option<u64>,
    threshold: Option<u32>,
    io_backend: Option<IoBackendKind>,
) -> Result<GzConfig, String> {
    let mut config = GzConfig::in_ram(num_nodes);
    config.num_workers = workers;
    config.store = store_backend(store, dir)?;
    config.query_threads = query_threads;
    config.query_staleness = staleness;
    config.sketch_threshold = threshold.unwrap_or(0);
    config.io.kind = io_backend.unwrap_or_default();
    config.buffering = match buffering {
        BufferingArg::Leaf => {
            BufferStrategy::LeafOnly { capacity: GutterCapacity::SketchFactor(0.5) }
        }
        BufferingArg::Tree => {
            let dir = dir.clone().ok_or("--buffering tree needs --dir")?;
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            BufferStrategy::GutterTree {
                buffer_bytes: 1 << 20,
                fanout: 64,
                leaf_capacity: GutterCapacity::SketchFactor(2.0),
                dir,
            }
        }
    };
    Ok(config)
}

/// Stream every update of a file into `apply`.
fn feed_stream(
    reader: &mut StreamReader,
    mut apply: impl FnMut(u32, u32, bool) -> Result<(), String>,
) -> Result<u64, String> {
    let mut batch = Vec::new();
    let mut total = 0u64;
    loop {
        let n = reader.read_batch(&mut batch, 1 << 16).map_err(|e| e.to_string())?;
        if n == 0 {
            return Ok(total);
        }
        total += n as u64;
        for u in &batch {
            apply(u.u, u.v, u.kind == UpdateKind::Delete)?;
        }
    }
}

#[allow(clippy::too_many_arguments)] // mirrors the Components flag set
fn components_sharded(
    path: &std::path::Path,
    workers: usize,
    store: StoreArg,
    buffering: BufferingArg,
    dir: &Option<PathBuf>,
    forest: bool,
    query_threads: Option<usize>,
    staleness: Option<u64>,
    threshold: Option<u32>,
    io_backend: Option<IoBackendKind>,
    stats: bool,
    num_shards: u32,
    connect: &[String],
    checkpoint_every: Option<u64>,
    batch_updates: Option<usize>,
    respawn: bool,
) -> Result<String, String> {
    // Refuse flag combinations that would silently not take effect.
    if buffering == BufferingArg::Tree {
        return Err("--buffering tree is not supported with --shards (the sharded router \
             batches through in-RAM gutters)"
            .into());
    }
    if !connect.is_empty() && store == StoreArg::Disk {
        return Err("with --connect, sketch stores live in the shard workers; pass \
             --store/--dir to each `gz shard-worker` instead"
            .into());
    }
    if !connect.is_empty() && io_backend.is_some() {
        return Err("with --connect, sketch stores live in the shard workers; pass \
             --io-backend to each `gz shard-worker` instead"
            .into());
    }
    if checkpoint_every.is_some() && connect.is_empty() && dir.is_none() {
        return Err("--checkpoint-every with in-process shards needs --dir for the \
             checkpoint files (remote workers use their own --checkpoint paths)"
            .into());
    }

    let mut reader = StreamReader::open(path).map_err(|e| e.to_string())?;
    let header = reader.header();
    let mut config = ShardConfig::in_ram(header.num_vertices, num_shards);
    config.workers_per_shard = workers;
    config.store = store_backend(store, dir)?;
    config.query_threads = query_threads;
    config.query_staleness = staleness;
    config.sketch_threshold = threshold.unwrap_or(0);
    config.io.kind = io_backend.unwrap_or_default();
    config.checkpoint_every = checkpoint_every;
    if checkpoint_every.is_some() && connect.is_empty() {
        config.checkpoint_dir = dir.clone();
    }
    if let Some(n) = batch_updates {
        config.router_capacity = GutterCapacity::Updates(n);
    }

    let mut gz = if connect.is_empty() {
        ShardedGraphZeppelin::in_process(config).map_err(|e| e.to_string())?
    } else {
        if connect.len() != num_shards as usize {
            return Err(format!(
                "--connect names {} workers but --shards is {num_shards}",
                connect.len()
            ));
        }
        let digest = config.params_digest();
        if respawn {
            // Detect dead peers instead of hanging on them, and give an
            // externally restarted worker a few seconds to come back up.
            let timeouts = TransportTimeouts {
                connect: Some(std::time::Duration::from_secs(5)),
                read: Some(std::time::Duration::from_secs(30)),
                write: Some(std::time::Duration::from_secs(30)),
            };
            let retry = RetryPolicy {
                attempts: 10,
                base: std::time::Duration::from_millis(100),
                ..RetryPolicy::default()
            };
            let inner = SocketTransport::connect_tcp_with(connect, digest, &timeouts, &retry)
                .map_err(|e| e.to_string())?;
            let addrs: Vec<String> = connect.to_vec();
            let (dial_timeouts, dial_retry) = (timeouts, retry);
            let transport = RecoveringTransport::new(
                inner,
                digest,
                timeouts,
                retry,
                Box::new(move |shard| {
                    connect_shard_tcp(&addrs[shard as usize], shard, &dial_timeouts, &dial_retry)
                }),
            )
            .map_err(|e| e.to_string())?;
            ShardedGraphZeppelin::with_transport(config, Box::new(transport))
                .map_err(|e| e.to_string())?
        } else {
            let transport =
                SocketTransport::connect_tcp(connect, digest).map_err(|e| e.to_string())?;
            ShardedGraphZeppelin::with_transport(config, Box::new(transport))
                .map_err(|e| e.to_string())?
        }
    };

    feed_stream(&mut reader, |u, v, d| gz.update(u, v, d).map_err(|e| e.to_string()))?;
    // A checkpointing run always ends with one final checkpoint round, so
    // the end-of-stream state is durable regardless of cadence alignment.
    if checkpoint_every.is_some() {
        gz.checkpoint_shards().map_err(|e| e.to_string())?;
    }
    let outcome = gz.spanning_forest().map_err(|e| e.to_string())?;
    let mut out = format!(
        "{} components over {} nodes ({} updates ingested, {} shards, {} batches shipped)\n",
        outcome.num_components(),
        header.num_vertices,
        gz.updates_ingested(),
        num_shards,
        gz.batches_shipped(),
    );
    if stats {
        match gz.recovery_stats() {
            Some(rs) => out.push_str(&format!(
                "recovery: {} checkpoints, {} replays ({} batches replayed), \
                 {} reconnect attempts\n",
                rs.checkpoints(),
                rs.replays(),
                rs.batches_replayed(),
                rs.reconnect_attempts(),
            )),
            None => out.push_str(
                "recovery: counters require --connect with --respawn (the census \
                 is per-store; query each shard worker for representation stats)\n",
            ),
        }
    }
    if forest {
        for e in &outcome.forest {
            out.push_str(&format!("{} {}\n", e.u(), e.v()));
        }
    }
    gz.shutdown().map_err(|e| e.to_string())?;
    Ok(out)
}

fn run_shard_worker(
    listen: &str,
    config: ShardConfig,
    index: u32,
    checkpoint: Option<PathBuf>,
    resume: Option<PathBuf>,
) -> Result<String, String> {
    let shards = config.num_shards;
    let pipeline = ShardPipeline::new(&config, index).map_err(|e| e.to_string())?;
    if let Some(path) = resume {
        // A worker killed before its first checkpoint has nothing to
        // restore; starting empty is correct (the coordinator's replay log
        // covers everything since seq 0), so a missing file is not fatal.
        if path.exists() {
            let seq = pipeline.resume_from(&path).map_err(|e| e.to_string())?;
            println!("shard-worker {index}/{shards} resumed {} at batch seq {seq}", path.display());
        } else {
            println!(
                "shard-worker {index}/{shards} found no checkpoint at {}; starting empty",
                path.display()
            );
            pipeline.set_checkpoint_path(path);
        }
    } else if let Some(path) = checkpoint {
        pipeline.set_checkpoint_path(path);
    }

    let listener = std::net::TcpListener::bind(listen).map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // Announce the bound address before blocking so a coordinator script
    // can discover an ephemeral port.
    println!("shard-worker {index}/{shards} listening on {addr}");
    std::io::stdout().flush().ok();

    let (mut stream, peer) = listener.accept().map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let stats = serve_shard_connection(&mut stream, &pipeline, config.params_digest())
        .map_err(|e| e.to_string())?;
    Ok(format!(
        "shard {index}/{shards}: served {peer} — {} batches, {} records, {} flushes, \
         {} gathers, {} checkpoints",
        stats.batches, stats.records, stats.flushes, stats.gathers, stats.checkpoints
    ))
}

/// Execute a command; returns the text to print.
pub fn execute(cmd: Command) -> Result<String, String> {
    match cmd {
        Command::Generate { dataset, seed, out } => {
            let d = dataset.to_dataset();
            let result = d.stream(seed, &StreamifyConfig::default());
            let mut writer =
                StreamWriter::create(&out, d.num_vertices).map_err(|e| e.to_string())?;
            writer.write_all(&result.updates).map_err(|e| e.to_string())?;
            let header = writer.finish().map_err(|e| e.to_string())?;
            Ok(format!(
                "wrote {}: {} nodes, {} updates, {} final edges, {} nodes disconnected",
                out.display(),
                header.num_vertices,
                header.num_updates,
                result.final_edge_count,
                result.disconnected.len(),
            ))
        }
        Command::Info { path } => {
            let mut reader = StreamReader::open(&path).map_err(|e| e.to_string())?;
            let header = reader.header();
            let mut inserts = 0u64;
            let mut deletes = 0u64;
            let updates = reader.read_all().map_err(|e| e.to_string())?;
            for u in &updates {
                match u.kind {
                    UpdateKind::Insert => inserts += 1,
                    UpdateKind::Delete => deletes += 1,
                }
            }
            let final_edges =
                gz_stream::update::validate_stream(header.num_vertices, updates.iter().copied())
                    .map_err(|v| format!("invalid stream: {v:?}"))?;
            Ok(format!(
                "{}: {} nodes, {} updates ({} inserts, {} deletes), {} final edges, valid",
                path.display(),
                header.num_vertices,
                header.num_updates,
                inserts,
                deletes,
                final_edges.len(),
            ))
        }
        Command::Components {
            path,
            workers,
            store,
            buffering,
            dir,
            forest,
            query_threads,
            staleness,
            threshold,
            io_backend,
            stats,
            shards,
            connect,
            checkpoint_every,
            batch_updates,
            respawn,
        } => {
            if let Some(num_shards) = shards {
                return components_sharded(
                    &path,
                    workers,
                    store,
                    buffering,
                    &dir,
                    forest,
                    query_threads,
                    staleness,
                    threshold,
                    io_backend,
                    stats,
                    num_shards,
                    &connect,
                    checkpoint_every,
                    batch_updates,
                    respawn,
                );
            }
            let mut reader = StreamReader::open(&path).map_err(|e| e.to_string())?;
            let header = reader.header();
            let config = build_config(
                header.num_vertices,
                workers,
                store,
                buffering,
                &dir,
                query_threads,
                staleness,
                threshold,
                io_backend,
            )?;
            let mut gz = GraphZeppelin::new(config).map_err(|e| e.to_string())?;
            feed_stream(&mut reader, |u, v, d| {
                gz.update(u, v, d);
                Ok(())
            })?;
            let cc = gz.connected_components().map_err(|e| e.to_string())?;
            let mut out = format!(
                "{} components over {} nodes ({} updates ingested)\n",
                cc.num_components(),
                header.num_vertices,
                gz.updates_ingested(),
            );
            if stats {
                let rep = gz.rep_stats();
                out.push_str(&format!(
                    "representation: {} promoted, {} sparse ({} neighbor entries, {} sparse \
                     bytes); sketch memory {} bytes\n",
                    rep.promoted,
                    rep.sparse,
                    rep.sparse_entries,
                    rep.sparse_bytes(),
                    gz.sketch_bytes(),
                ));
                if let (Some(io), Some(name)) = (gz.store_io(), gz.io_backend_name()) {
                    out.push_str(&format!(
                        "io backend {name}: {} reads ({} bytes), {} writes ({} bytes), \
                         {} submissions, {} completions, batch depth max {} mean {:.2}\n",
                        io.reads(),
                        io.bytes_read(),
                        io.writes(),
                        io.bytes_written(),
                        io.submissions(),
                        io.completions(),
                        io.max_depth(),
                        io.mean_depth(),
                    ));
                }
            }
            if forest {
                for e in cc.spanning_forest() {
                    out.push_str(&format!("{} {}\n", e.u(), e.v()));
                }
            }
            Ok(out)
        }
        Command::CheckpointSave { stream, out, workers, seed } => {
            let mut reader = StreamReader::open(&stream).map_err(|e| e.to_string())?;
            let header = reader.header();
            let mut config = GzConfig::in_ram(header.num_vertices);
            config.num_workers = workers;
            config.seed = seed;
            let mut gz = GraphZeppelin::new(config).map_err(|e| e.to_string())?;
            feed_stream(&mut reader, |u, v, d| {
                gz.update(u, v, d);
                Ok(())
            })?;
            let ckpt = gz.save_checkpoint(&out).map_err(|e| e.to_string())?;
            Ok(format!(
                "checkpoint {}: {} nodes, {} updates, {} rounds, seed {:#x}",
                out.display(),
                ckpt.num_nodes,
                ckpt.updates_ingested,
                ckpt.rounds,
                ckpt.seed,
            ))
        }
        Command::CheckpointRestore { path, forest, query_threads, io_backend } => {
            let header = GraphZeppelin::checkpoint_header(&path).map_err(|e| e.to_string())?;
            let mut config = GzConfig::in_ram(header.num_nodes);
            config.seed = header.seed;
            config.num_rounds = Some(header.rounds);
            config.num_columns = header.columns;
            config.query_threads = query_threads;
            config.io.kind = io_backend.unwrap_or_default();
            let mut gz =
                GraphZeppelin::restore_with_config(&path, config).map_err(|e| e.to_string())?;
            let cc = gz.connected_components().map_err(|e| e.to_string())?;
            let mut out = format!(
                "{} components over {} nodes ({} updates restored from {})\n",
                cc.num_components(),
                header.num_nodes,
                gz.updates_ingested(),
                path.display(),
            );
            if forest {
                for e in cc.spanning_forest() {
                    out.push_str(&format!("{} {}\n", e.u(), e.v()));
                }
            }
            Ok(out)
        }
        Command::ShardWorker {
            listen,
            nodes,
            shards,
            index,
            seed,
            workers,
            store,
            dir,
            threshold,
            io_backend,
            checkpoint,
            resume,
        } => {
            let mut config = ShardConfig::in_ram(nodes, shards);
            config.seed = seed;
            config.workers_per_shard = workers;
            config.store = store_backend(store, &dir)?;
            config.sketch_threshold = threshold.unwrap_or(0);
            config.io.kind = io_backend.unwrap_or_default();
            run_shard_worker(&listen, config, index, checkpoint, resume)
        }
        Command::Serve { options } => serve::run_serve(options),
        Command::Bipartite { path } => {
            let mut reader = StreamReader::open(&path).map_err(|e| e.to_string())?;
            let header = reader.header();
            let mut tester =
                BipartitenessTester::new(header.num_vertices, 7).map_err(|e| e.to_string())?;
            let updates = reader.read_all().map_err(|e| e.to_string())?;
            for u in &updates {
                tester.update(u.u, u.v, u.kind == UpdateKind::Delete);
            }
            let ans = tester.query().map_err(|e| e.to_string())?;
            Ok(if ans.bipartite {
                "bipartite".to_string()
            } else {
                format!("NOT bipartite ({} odd components)", ans.odd_components.len())
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    fn tmp(name: &str) -> gz_testutil::TempPath {
        gz_testutil::TempPath::new(&format!("gz-cli-{name}"), ".gzs")
    }

    fn parse_components(s: &str) -> Command {
        parse_args(&argv(s)).unwrap()
    }

    #[test]
    fn parses_generate() {
        let cmd = parse_args(&argv("generate --dataset kron9 --seed 7 --out /tmp/x.gzs")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                dataset: DatasetArg::Kron(9),
                seed: 7,
                out: PathBuf::from("/tmp/x.gzs"),
            }
        );
    }

    #[test]
    fn parses_er_and_pa_specs() {
        assert_eq!(
            parse_args(&argv("generate --er 100x500 --out o.gzs")).unwrap(),
            Command::Generate {
                dataset: DatasetArg::ErdosRenyi(100, 500),
                seed: 42,
                out: PathBuf::from("o.gzs"),
            }
        );
        assert!(matches!(
            parse_args(&argv("generate --pa 50x100 --out o.gzs")).unwrap(),
            Command::Generate { dataset: DatasetArg::Preferential(50, 100), .. }
        ));
    }

    #[test]
    fn parses_workers_flag() {
        match parse_components("components s.gzs --workers 8") {
            Command::Components { workers, .. } => assert_eq!(workers, 8),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&argv("components s.gzs --workers nope")).is_err());
    }

    #[test]
    fn parses_store_flag() {
        match parse_components("components s.gzs --store disk --dir /tmp/d") {
            Command::Components { store, dir, .. } => {
                assert_eq!(store, StoreArg::Disk);
                assert_eq!(dir, Some(PathBuf::from("/tmp/d")));
            }
            other => panic!("{other:?}"),
        }
        match parse_components("components s.gzs --store ram") {
            Command::Components { store, .. } => assert_eq!(store, StoreArg::Ram),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&argv("components s.gzs --store floppy")).is_err());
    }

    #[test]
    fn parses_buffering_flag() {
        match parse_components("components s.gzs --buffering tree --dir /tmp/d") {
            Command::Components { buffering, .. } => assert_eq!(buffering, BufferingArg::Tree),
            other => panic!("{other:?}"),
        }
        match parse_components("components s.gzs --buffering leaf") {
            Command::Components { buffering, .. } => assert_eq!(buffering, BufferingArg::Leaf),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&argv("components s.gzs --buffering ring")).is_err());
    }

    #[test]
    fn parses_shards_and_connect_flags() {
        match parse_components("components s.gzs --shards 3") {
            Command::Components { shards, connect, .. } => {
                assert_eq!(shards, Some(3));
                assert!(connect.is_empty());
            }
            other => panic!("{other:?}"),
        }
        match parse_components(
            "components s.gzs --shards 2 --connect 127.0.0.1:7001,127.0.0.1:7002",
        ) {
            Command::Components { shards, connect, .. } => {
                assert_eq!(shards, Some(2));
                assert_eq!(connect, vec!["127.0.0.1:7001", "127.0.0.1:7002"]);
            }
            other => panic!("{other:?}"),
        }
        assert!(
            parse_args(&argv("components s.gzs --connect 127.0.0.1:7001")).is_err(),
            "--connect without --shards must be rejected"
        );
    }

    #[test]
    fn parses_query_threads_flag() {
        match parse_components("components s.gzs --query-threads 8") {
            Command::Components { query_threads, .. } => assert_eq!(query_threads, Some(8)),
            other => panic!("{other:?}"),
        }
        // Default: derive from the worker count.
        match parse_components("components s.gzs") {
            Command::Components { query_threads, .. } => assert_eq!(query_threads, None),
            other => panic!("{other:?}"),
        }
        // Composes with the other query flags and with sharding.
        match parse_components("components s.gzs --staleness 3 --query-threads 4 --shards 2") {
            Command::Components { staleness, query_threads, shards, .. } => {
                assert_eq!(staleness, Some(3));
                assert_eq!(query_threads, Some(4));
                assert_eq!(shards, Some(2));
            }
            other => panic!("{other:?}"),
        }
        // And on checkpoint restore.
        assert!(matches!(
            parse_args(&argv("checkpoint restore c.gzc --query-threads 2")).unwrap(),
            Command::CheckpointRestore { query_threads: Some(2), .. }
        ));
        // Zero is refused with a pointed message; garbage is refused too.
        let err = parse_args(&argv("components s.gzs --query-threads 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse_args(&argv("checkpoint restore c.gzc --query-threads 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        assert!(parse_args(&argv("components s.gzs --query-threads lots")).is_err());
        assert!(parse_args(&argv("components s.gzs --query-threads")).is_err());
    }

    #[test]
    fn parses_io_backend_flag() {
        use graph_zeppelin::IoBackendKind;
        for (value, kind) in [
            ("auto", IoBackendKind::Auto),
            ("pread", IoBackendKind::Pread),
            ("uring", IoBackendKind::Uring),
        ] {
            match parse_components(&format!("components s.gzs --io-backend {value}")) {
                Command::Components { io_backend, .. } => assert_eq!(io_backend, Some(kind)),
                other => panic!("{other:?}"),
            }
        }
        // Default: auto-probe downstream.
        match parse_components("components s.gzs") {
            Command::Components { io_backend, .. } => assert_eq!(io_backend, None),
            other => panic!("{other:?}"),
        }
        // Composes with the disk store and sharding flags.
        match parse_components("components s.gzs --store disk --dir /tmp/d --io-backend uring") {
            Command::Components { store, io_backend, .. } => {
                assert_eq!(store, StoreArg::Disk);
                assert_eq!(io_backend, Some(IoBackendKind::Uring));
            }
            other => panic!("{other:?}"),
        }
        // And on checkpoint restore and shard-worker, like --query-threads.
        assert!(matches!(
            parse_args(&argv("checkpoint restore c.gzc --io-backend pread")).unwrap(),
            Command::CheckpointRestore { io_backend: Some(IoBackendKind::Pread), .. }
        ));
        assert!(matches!(
            parse_args(&argv(
                "shard-worker --listen 127.0.0.1:0 --nodes 8 --shards 2 --index 0 \
                 --io-backend uring"
            ))
            .unwrap(),
            Command::ShardWorker { io_backend: Some(IoBackendKind::Uring), .. }
        ));
        // Unknown values and a missing value are refused with a pointed
        // message, like --query-threads.
        let err = parse_args(&argv("components s.gzs --io-backend rdma")).unwrap_err();
        assert!(err.contains("unknown io backend rdma"), "{err}");
        assert!(err.contains("auto|pread|uring"), "{err}");
        let err = parse_args(&argv("checkpoint restore c.gzc --io-backend sync")).unwrap_err();
        assert!(err.contains("unknown io backend"), "{err}");
        assert!(parse_args(&argv("components s.gzs --io-backend")).is_err());
    }

    #[test]
    fn zero_counts_rejected_like_query_threads() {
        // --workers 0 and --shards 0 fail the same way --query-threads 0
        // does, instead of being silently clamped to 1 downstream.
        for argv_s in [
            "components s.gzs --workers 0",
            "components s.gzs --shards 0",
            "checkpoint save c.gzc --from s.gzs --workers 0",
            "shard-worker --listen 127.0.0.1:0 --nodes 8 --shards 0 --index 0",
            "shard-worker --listen 127.0.0.1:0 --nodes 8 --shards 2 --index 0 --workers 0",
            "components s.gzs --shards 2 --checkpoint-every 0",
            "components s.gzs --shards 2 --batch-updates 0",
        ] {
            let err = parse_args(&argv(argv_s)).unwrap_err();
            assert!(err.contains("at least 1"), "{argv_s}: {err}");
        }
    }

    #[test]
    fn duplicate_flags_are_explicit_errors() {
        for argv_s in [
            "generate --dataset kron5 --er 10x20 --out o.gzs",
            "generate --dataset kron5 --seed 1 --seed 2 --out o.gzs",
            "components s.gzs --workers 2 --workers 3",
            "components s.gzs --forest --forest",
            "components s.gzs --store ram --store disk",
            "components s.gzs --disk /tmp/d --dir /tmp/e",
            "components s.gzs --staleness 5 --staleness 6",
            "checkpoint save c.gzc --from a.gzs --from b.gzs",
            "checkpoint restore c.gzc --forest --forest",
            "components s.gzs --threshold 4 --threshold 8",
            "components s.gzs --stats --stats",
            "shard-worker --listen a:1 --listen b:2 --nodes 8 --shards 2 --index 0",
            "shard-worker --listen a:1 --nodes 8 --shards 2 --index 0 --threshold 4 --threshold 8",
            "components s.gzs --io-backend pread --io-backend uring",
            "checkpoint restore c.gzc --io-backend auto --io-backend auto",
            "shard-worker --listen a:1 --nodes 8 --shards 2 --index 0 --io-backend uring \
             --io-backend pread",
            "components s.gzs --shards 2 --checkpoint-every 4 --checkpoint-every 8",
            "components s.gzs --shards 2 --batch-updates 64 --batch-updates 128",
            "components s.gzs --shards 2 --connect a:1,b:2 --respawn --respawn",
            "shard-worker --listen a:1 --nodes 8 --shards 2 --index 0 --checkpoint a.ckpt \
             --checkpoint b.ckpt",
            "shard-worker --listen a:1 --nodes 8 --shards 2 --index 0 --resume a.ckpt \
             --resume b.ckpt",
        ] {
            let err = parse_args(&argv(argv_s)).unwrap_err();
            assert!(err.contains("duplicate flag"), "{argv_s}: {err}");
        }
    }

    #[test]
    fn parses_staleness_flag() {
        // Zero is meaningful: reseal on every query.
        match parse_components("components s.gzs --staleness 0") {
            Command::Components { staleness, .. } => assert_eq!(staleness, Some(0)),
            other => panic!("{other:?}"),
        }
        // Default: no epoch reuse at all.
        match parse_components("components s.gzs") {
            Command::Components { staleness, .. } => assert_eq!(staleness, None),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&argv("components s.gzs --staleness lots")).is_err());
    }

    #[test]
    fn staleness_is_accepted_on_its_own() {
        // Every query streams round slices, so the epoch-reuse budget
        // needs no companion flag.
        match parse_components("components s.gzs --staleness 100") {
            Command::Components { staleness, .. } => assert_eq!(staleness, Some(100)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_threshold_and_stats_flags() {
        match parse_components("components s.gzs --threshold 16 --stats") {
            Command::Components { threshold, stats, .. } => {
                assert_eq!(threshold, Some(16));
                assert!(stats);
            }
            other => panic!("{other:?}"),
        }
        // Zero is meaningful: force the always-dense representation.
        match parse_components("components s.gzs --threshold 0") {
            Command::Components { threshold, .. } => assert_eq!(threshold, Some(0)),
            other => panic!("{other:?}"),
        }
        // Defaults: no threshold (always-dense), no census.
        match parse_components("components s.gzs") {
            Command::Components { threshold, stats, .. } => {
                assert_eq!(threshold, None);
                assert!(!stats);
            }
            other => panic!("{other:?}"),
        }
        // Threshold composes with sharding, and so does --stats (sharded
        // runs report the recovery counters instead of the store census).
        match parse_components("components s.gzs --threshold 8 --stats --shards 2") {
            Command::Components { threshold, stats, shards, .. } => {
                assert_eq!(threshold, Some(8));
                assert!(stats);
                assert_eq!(shards, Some(2));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&argv("components s.gzs --threshold lots")).is_err());
        assert!(parse_args(&argv("components s.gzs --threshold")).is_err());
    }

    #[test]
    fn parses_fault_tolerance_flags() {
        match parse_components(
            "components s.gzs --shards 2 --connect a:1,b:2 --checkpoint-every 64 \
             --batch-updates 128 --respawn",
        ) {
            Command::Components {
                shards,
                connect,
                checkpoint_every,
                batch_updates,
                respawn,
                ..
            } => {
                assert_eq!(shards, Some(2));
                assert_eq!(connect.len(), 2);
                assert_eq!(checkpoint_every, Some(64));
                assert_eq!(batch_updates, Some(128));
                assert!(respawn);
            }
            other => panic!("{other:?}"),
        }
        // Defaults: no mid-stream checkpoints, no reconnect policy.
        match parse_components("components s.gzs --shards 2") {
            Command::Components { checkpoint_every, batch_updates, respawn, .. } => {
                assert_eq!(checkpoint_every, None);
                assert_eq!(batch_updates, None);
                assert!(!respawn);
            }
            other => panic!("{other:?}"),
        }
        // These knobs only make sense where they can take effect.
        let err = parse_args(&argv("components s.gzs --checkpoint-every 8")).unwrap_err();
        assert!(err.contains("requires --shards"), "{err}");
        let err = parse_args(&argv("components s.gzs --batch-updates 64")).unwrap_err();
        assert!(err.contains("requires --shards"), "{err}");
        let err = parse_args(&argv("components s.gzs --shards 2 --respawn")).unwrap_err();
        assert!(err.contains("requires --connect"), "{err}");

        // Worker side: --checkpoint / --resume are paths, mutually exclusive.
        match parse_args(&argv(
            "shard-worker --listen 127.0.0.1:0 --nodes 8 --shards 2 --index 1 \
             --checkpoint /tmp/s1.ckpt",
        ))
        .unwrap()
        {
            Command::ShardWorker { checkpoint, resume, .. } => {
                assert_eq!(checkpoint, Some(PathBuf::from("/tmp/s1.ckpt")));
                assert_eq!(resume, None);
            }
            other => panic!("{other:?}"),
        }
        match parse_args(&argv(
            "shard-worker --listen 127.0.0.1:0 --nodes 8 --shards 2 --index 1 \
             --resume /tmp/s1.ckpt",
        ))
        .unwrap()
        {
            Command::ShardWorker { checkpoint, resume, .. } => {
                assert_eq!(checkpoint, None);
                assert_eq!(resume, Some(PathBuf::from("/tmp/s1.ckpt")));
            }
            other => panic!("{other:?}"),
        }
        let err = parse_args(&argv(
            "shard-worker --listen 127.0.0.1:0 --nodes 8 --shards 2 --index 1 \
             --checkpoint a.ckpt --resume a.ckpt",
        ))
        .unwrap_err();
        assert!(err.contains("drop --checkpoint"), "{err}");
        assert!(parse_args(&argv("components s.gzs --shards 2 --checkpoint-every")).is_err());
    }

    #[test]
    fn hybrid_threshold_matches_dense_end_to_end() {
        // Through the whole CLI: a hybrid run answers exactly like a dense
        // run, and the census reports the representation split.
        let path = tmp("hybrid");
        execute(Command::Generate {
            dataset: DatasetArg::Kron(5),
            seed: 17,
            out: path.to_path_buf(),
        })
        .unwrap();
        let dense = execute(components_cmd(&path, None)).unwrap();
        let count =
            |s: &str| s.lines().next().unwrap().split_whitespace().next().unwrap().to_string();
        for (threshold, shards) in [(4u32, None), (64, None), (4, Some(2))] {
            let mut cmd = components_cmd(&path, shards);
            if let Command::Components { threshold: t, .. } = &mut cmd {
                *t = Some(threshold);
            }
            let got = execute(cmd).unwrap();
            assert_eq!(count(&got), count(&dense), "threshold={threshold} shards={shards:?}");
        }
        // The census line appears on request and adds up to the universe.
        let mut cmd = components_cmd(&path, None);
        if let Command::Components { threshold, stats, .. } = &mut cmd {
            *threshold = Some(4);
            *stats = true;
        }
        let out = execute(cmd).unwrap();
        let census = out.lines().find(|l| l.starts_with("representation:")).unwrap();
        let nums: Vec<u64> = census
            .split_whitespace()
            .filter_map(|w| w.trim_start_matches('(').parse().ok())
            .collect();
        assert_eq!(nums[0] + nums[1], 32, "promoted + sparse covers kron5: {census}");
    }

    #[test]
    fn staleness_reuses_epochs_end_to_end() {
        // Through the whole CLI: a huge staleness budget still answers the
        // full stream correctly, because the epoch is sealed after ingest.
        let path = tmp("staleness");
        execute(Command::Generate {
            dataset: DatasetArg::Kron(5),
            seed: 21,
            out: path.to_path_buf(),
        })
        .unwrap();
        let reference = execute(components_cmd(&path, None)).unwrap();
        let count = |s: &str| s.split_whitespace().next().unwrap().to_string();
        for shards in [None, Some(2)] {
            let mut cmd = components_cmd(&path, shards);
            if let Command::Components { staleness, .. } = &mut cmd {
                *staleness = Some(u64::MAX);
            }
            let got = execute(cmd).unwrap();
            assert_eq!(count(&got), count(&reference), "shards={shards:?}");
        }
    }

    #[test]
    fn query_threads_change_no_answers() {
        // End to end through the CLI: thread counts are a performance knob,
        // never a correctness one.
        let path = tmp("qthreads");
        execute(Command::Generate {
            dataset: DatasetArg::Kron(5),
            seed: 12,
            out: path.to_path_buf(),
        })
        .unwrap();
        let reference = execute(components_cmd(&path, None)).unwrap();
        for threads in [1usize, 3] {
            for shards in [None, Some(2)] {
                let mut cmd = components_cmd(&path, shards);
                if let Command::Components { query_threads, .. } = &mut cmd {
                    *query_threads = Some(threads);
                }
                let got = execute(cmd).unwrap();
                let count = |s: &str| s.split_whitespace().next().unwrap().to_string();
                assert_eq!(count(&got), count(&reference), "threads={threads} {shards:?}");
            }
        }
    }

    #[test]
    fn parses_checkpoint_save_and_restore() {
        assert_eq!(
            parse_args(&argv("checkpoint save c.gzc --from s.gzs --workers 3 --seed 9")).unwrap(),
            Command::CheckpointSave {
                stream: PathBuf::from("s.gzs"),
                out: PathBuf::from("c.gzc"),
                workers: 3,
                seed: 9,
            }
        );
        assert_eq!(
            parse_args(&argv("checkpoint restore c.gzc --forest")).unwrap(),
            Command::CheckpointRestore {
                path: PathBuf::from("c.gzc"),
                forest: true,
                query_threads: None,
                io_backend: None,
            }
        );
        // Defaults.
        assert!(matches!(
            parse_args(&argv("checkpoint restore c.gzc")).unwrap(),
            Command::CheckpointRestore { forest: false, query_threads: None, .. }
        ));
        // Malformed forms are refused.
        assert!(parse_args(&argv("checkpoint")).is_err(), "missing action");
        assert!(parse_args(&argv("checkpoint frobnicate c.gzc")).is_err());
        assert!(parse_args(&argv("checkpoint save c.gzc")).is_err(), "missing --from");
        assert!(parse_args(&argv("checkpoint save c.gzc --from s.gzs --seed nope")).is_err());
        assert!(parse_args(&argv("checkpoint restore")).is_err(), "missing path");
        assert!(parse_args(&argv("checkpoint restore c.gzc --bogus")).is_err());
    }

    #[test]
    fn checkpoint_save_restore_round_trip() {
        let stream = tmp("ckpt-stream");
        execute(Command::Generate {
            dataset: DatasetArg::Kron(5),
            seed: 8,
            out: stream.to_path_buf(),
        })
        .unwrap();
        let ckpt = gz_testutil::TempPath::new("gz-cli-ckpt", ".gzc");
        let saved = execute(Command::CheckpointSave {
            stream: stream.to_path_buf(),
            out: ckpt.to_path_buf(),
            workers: 2,
            seed: 0x5EED_1E55,
        })
        .unwrap();
        assert!(saved.contains("32 nodes"), "{saved}");

        // The restored answer must match running components directly.
        let direct = execute(components_cmd(&stream, None)).unwrap();
        let count = |s: &str| s.split_whitespace().next().unwrap().to_string();
        let restored = execute(Command::CheckpointRestore {
            path: ckpt.to_path_buf(),
            forest: false,
            query_threads: None,
            io_backend: None,
        })
        .unwrap();
        assert_eq!(count(&restored), count(&direct));
    }

    /// Exact component count of a stream file's final graph.
    fn oracle_components(path: &gz_testutil::TempPath) -> usize {
        let mut reader = StreamReader::open(path.path()).unwrap();
        let num_vertices = reader.header().num_vertices;
        let updates = reader.read_all().unwrap();
        let edges = gz_stream::update::validate_stream(num_vertices, updates).unwrap();
        let labels = gz_graph::connectivity::components_from_edges(
            num_vertices as usize,
            edges.iter().map(|e| (e.u(), e.v())),
        );
        gz_graph::connectivity::count_components(&labels)
    }

    #[test]
    fn components_match_exact_oracle() {
        let path = tmp("oracle");
        execute(Command::Generate {
            dataset: DatasetArg::Kron(5),
            seed: 6,
            out: path.to_path_buf(),
        })
        .unwrap();
        let truth = oracle_components(&path).to_string();
        let count = |s: &str| s.split_whitespace().next().unwrap().to_string();
        for shards in [None, Some(3)] {
            let out = execute(components_cmd(&path, shards)).unwrap();
            assert_eq!(count(&out), truth, "shards={shards:?}: {out}");
        }
    }

    #[test]
    fn disk_flag_is_back_compat_shorthand() {
        // `--disk DIR` still means the paper's full on-disk deployment.
        match parse_components("components s.gzs --disk /tmp/d") {
            Command::Components { store, buffering, dir, .. } => {
                assert_eq!(store, StoreArg::Disk);
                assert_eq!(buffering, BufferingArg::Tree);
                assert_eq!(dir, Some(PathBuf::from("/tmp/d")));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_shard_worker() {
        let cmd = parse_args(&argv(
            "shard-worker --listen 127.0.0.1:0 --nodes 1024 --shards 4 --index 2 \
             --seed 9 --workers 3 --store ram",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::ShardWorker {
                listen: "127.0.0.1:0".into(),
                nodes: 1024,
                shards: 4,
                index: 2,
                seed: 9,
                workers: 3,
                store: StoreArg::Ram,
                dir: None,
                threshold: None,
                io_backend: None,
                checkpoint: None,
                resume: None,
            }
        );
        assert!(matches!(
            parse_args(&argv(
                "shard-worker --listen 127.0.0.1:0 --nodes 8 --shards 2 --index 0 --threshold 16"
            ))
            .unwrap(),
            Command::ShardWorker { threshold: Some(16), .. }
        ));
        assert!(parse_args(&argv("shard-worker --listen 127.0.0.1:0 --nodes 8")).is_err());
    }

    #[test]
    fn parses_serve() {
        // Full flag set.
        let cmd = parse_args(&argv(
            "serve --listen 127.0.0.1:7070 --nodes 1024 --shards 2 --seed 9 --workers 3 \
             --max-clients 8 --dir /tmp/state --resume --checkpoint-ms 250 --timeout-ms 0 \
             --staleness 64 --stats",
        ))
        .unwrap();
        let mut expected =
            serve::ServeOptions::new(serve::ServeListen::Tcp("127.0.0.1:7070".into()), 1024);
        expected.shards = 2;
        expected.seed = 9;
        expected.workers = 3;
        expected.max_clients = 8;
        expected.dir = Some(PathBuf::from("/tmp/state"));
        expected.resume = true;
        expected.checkpoint_ms = 250;
        expected.timeout_ms = Some(0); // 0 = no deadline, typed as Some(0)
        expected.staleness = 64;
        expected.stats = true;
        assert_eq!(cmd, Command::Serve { options: expected });

        // Defaults and the unix listener.
        match parse_args(&argv("serve --unix /tmp/gz.sock --nodes 64")).unwrap() {
            Command::Serve { options } => {
                assert_eq!(options.listen, serve::ServeListen::Unix(PathBuf::from("/tmp/gz.sock")));
                assert_eq!(options.shards, 1);
                assert_eq!(options.max_clients, 64);
                assert_eq!(options.checkpoint_ms, 1000);
                assert_eq!(options.timeout_ms, Some(30_000));
                assert!(!options.resume && !options.stats);
            }
            other => panic!("{other:?}"),
        }

        // Typed refusals.
        let err = parse_args(&argv("serve --nodes 64")).unwrap_err();
        assert!(err.contains("--listen host:port or --unix"), "{err}");
        let err = parse_args(&argv("serve --listen 127.0.0.1:0 --unix /tmp/gz.sock --nodes 64"))
            .unwrap_err();
        assert!(err.contains("not both"), "{err}");
        let err = parse_args(&argv("serve --listen 127.0.0.1:0 --nodes 64 --resume")).unwrap_err();
        assert!(err.contains("--resume needs --dir"), "{err}");
        assert!(parse_args(&argv("serve --listen 127.0.0.1:0")).is_err(), "missing --nodes");
        let err =
            parse_args(&argv("serve --listen 127.0.0.1:0 --nodes 64 --max-clients 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse_args(&argv("serve --listen a --listen b --nodes 64")).unwrap_err();
        assert!(err.contains("duplicate flag"), "{err}");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&argv("")).is_err());
        assert!(parse_args(&argv("frobnicate x")).is_err());
        assert!(parse_args(&argv("generate --out x.gzs")).is_err(), "no dataset");
        assert!(parse_args(&argv("generate --dataset kronfoo --out x")).is_err());
        assert!(parse_args(&argv("generate --er 100y500 --out x")).is_err());
    }

    #[test]
    fn end_to_end_generate_info_components() {
        let path = tmp("e2e");
        let msg = execute(Command::Generate {
            dataset: DatasetArg::Kron(6),
            seed: 3,
            out: path.to_path_buf(),
        })
        .unwrap();
        assert!(msg.contains("64 nodes"), "{msg}");

        let info = execute(Command::Info { path: path.to_path_buf() }).unwrap();
        assert!(info.contains("valid"), "{info}");

        let comps = execute(components_cmd(&path, None)).unwrap();
        assert!(comps.contains("components over 64 nodes"), "{comps}");
    }

    fn components_cmd(path: &gz_testutil::TempPath, shards: Option<u32>) -> Command {
        Command::Components {
            path: path.to_path_buf(),
            workers: 2,
            store: StoreArg::Ram,
            buffering: BufferingArg::Leaf,
            dir: None,
            forest: false,
            query_threads: None,
            staleness: None,
            threshold: None,
            io_backend: None,
            stats: false,
            shards,
            connect: Vec::new(),
            checkpoint_every: None,
            batch_updates: None,
            respawn: false,
        }
    }

    #[test]
    fn sharded_components_match_unsharded() {
        let path = tmp("shards");
        execute(Command::Generate {
            dataset: DatasetArg::Kron(5),
            seed: 4,
            out: path.to_path_buf(),
        })
        .unwrap();
        let single = execute(components_cmd(&path, None)).unwrap();
        let sharded = execute(components_cmd(&path, Some(3))).unwrap();
        let count = |s: &str| s.split_whitespace().next().unwrap().to_string();
        assert_eq!(count(&single), count(&sharded), "single={single} sharded={sharded}");
        assert!(sharded.contains("3 shards"), "{sharded}");
    }

    #[test]
    fn sharded_checkpoint_cadence_end_to_end() {
        let path = tmp("ckpt-cadence");
        execute(Command::Generate {
            dataset: DatasetArg::Kron(5),
            seed: 11,
            out: path.to_path_buf(),
        })
        .unwrap();
        let reference = execute(components_cmd(&path, Some(2))).unwrap();

        // --checkpoint-every with in-process shards needs a directory.
        let mut cmd = components_cmd(&path, Some(2));
        if let Command::Components { checkpoint_every, .. } = &mut cmd {
            *checkpoint_every = Some(4);
        }
        assert!(execute(cmd).unwrap_err().contains("--dir"), "cadence without --dir");

        let ckpt_dir = gz_testutil::TempDir::new("gz-cli-ckpt-cadence");
        let mut cmd = components_cmd(&path, Some(2));
        if let Command::Components { checkpoint_every, dir, stats, .. } = &mut cmd {
            *checkpoint_every = Some(4);
            *dir = Some(ckpt_dir.path().to_path_buf());
            *stats = true;
        }
        let out = execute(cmd).unwrap();
        let count = |s: &str| s.split_whitespace().next().unwrap().to_string();
        assert_eq!(count(&reference), count(&out), "reference={reference} out={out}");
        // In-process shards have no recovering transport; --stats says so
        // instead of silently printing nothing.
        assert!(out.contains("recovery: counters require --connect"), "{out}");
        // The cadence actually wrote per-shard checkpoint files.
        let files = std::fs::read_dir(ckpt_dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".ckpt"))
            .count();
        assert_eq!(files, 2, "one checkpoint file per shard");
    }

    #[test]
    fn sharded_rejects_silently_ignored_flags() {
        let path = tmp("shard-flags");
        execute(Command::Generate {
            dataset: DatasetArg::Kron(4),
            seed: 1,
            out: path.to_path_buf(),
        })
        .unwrap();
        // --buffering tree has no sharded implementation: must be refused,
        // not ignored.
        let mut cmd = components_cmd(&path, Some(2));
        if let Command::Components { buffering, dir, .. } = &mut cmd {
            *buffering = BufferingArg::Tree;
            *dir = Some(std::env::temp_dir());
        }
        assert!(execute(cmd).unwrap_err().contains("--buffering tree"));
        // --store disk with --connect configures nothing on the remote
        // workers: must be refused.
        let mut cmd = components_cmd(&path, Some(1));
        if let Command::Components { store, dir, connect, .. } = &mut cmd {
            *store = StoreArg::Disk;
            *dir = Some(std::env::temp_dir());
            *connect = vec!["127.0.0.1:1".into()];
        }
        assert!(execute(cmd).unwrap_err().contains("shard-worker"));
        // --io-backend with --connect configures nothing on the remote
        // workers either: must be refused the same way.
        let mut cmd = components_cmd(&path, Some(1));
        if let Command::Components { io_backend, connect, .. } = &mut cmd {
            *io_backend = Some(graph_zeppelin::IoBackendKind::Pread);
            *connect = vec!["127.0.0.1:1".into()];
        }
        let err = execute(cmd).unwrap_err();
        assert!(err.contains("--io-backend") && err.contains("shard-worker"), "{err}");
    }

    #[test]
    fn io_backend_is_a_performance_knob_end_to_end() {
        // Through the whole CLI: every backend answers a disk-store query
        // identically, and --stats reports which backend actually ran with
        // its batch-depth counters.
        use graph_zeppelin::IoBackendKind;
        let path = tmp("io-backend");
        execute(Command::Generate {
            dataset: DatasetArg::Kron(5),
            seed: 23,
            out: path.to_path_buf(),
        })
        .unwrap();
        let reference = execute(components_cmd(&path, None)).unwrap();
        let count = |s: &str| s.split_whitespace().next().unwrap().to_string();
        let kinds: &[IoBackendKind] = if graph_zeppelin::uring_available() {
            &[IoBackendKind::Auto, IoBackendKind::Pread, IoBackendKind::Uring]
        } else {
            eprintln!("skipping uring lane: io_uring unavailable on this host");
            &[IoBackendKind::Auto, IoBackendKind::Pread]
        };
        for &kind in kinds {
            let workdir = gz_testutil::TempPath::new("gz-cli-io-backend", ".d");
            let mut cmd = components_cmd(&path, None);
            if let Command::Components { store, dir, io_backend, stats, .. } = &mut cmd {
                *store = StoreArg::Disk;
                *dir = Some(workdir.to_path_buf());
                *io_backend = Some(kind);
                *stats = true;
            }
            let out = execute(cmd).unwrap();
            assert_eq!(count(&out), count(&reference), "{kind:?}");
            let io_line = out
                .lines()
                .find(|l| l.starts_with("io backend "))
                .unwrap_or_else(|| panic!("no io line for {kind:?}: {out}"));
            if kind == IoBackendKind::Pread {
                assert!(io_line.contains("io backend pread"), "{io_line}");
            }
            if kind == IoBackendKind::Uring {
                assert!(io_line.contains("io backend uring"), "{io_line}");
            }
            assert!(io_line.contains("submissions"), "{io_line}");
        }
        // The flag parses and runs on checkpoint restore too (the restored
        // store is RAM-resident, so it is accepted for parity and ignored).
        let ckpt = gz_testutil::TempPath::new("gz-cli-io-ckpt", ".gzc");
        execute(Command::CheckpointSave {
            stream: path.to_path_buf(),
            out: ckpt.to_path_buf(),
            workers: 2,
            seed: 0x5EED_1E55,
        })
        .unwrap();
        let restored = execute(Command::CheckpointRestore {
            path: ckpt.to_path_buf(),
            forest: false,
            query_threads: None,
            io_backend: Some(IoBackendKind::Pread),
        })
        .unwrap();
        assert_eq!(count(&restored), count(&reference));
    }

    #[test]
    fn end_to_end_bipartite() {
        // An even cycle stream: bipartite.
        let path = tmp("bip");
        let updates: Vec<gz_stream::EdgeUpdate> =
            (0..10u32).map(|i| gz_stream::EdgeUpdate::insert(i, (i + 1) % 10)).collect();
        gz_stream::format::write_stream(path.path(), 10, &updates).unwrap();
        let out = execute(Command::Bipartite { path: path.to_path_buf() }).unwrap();
        assert_eq!(out, "bipartite");
    }

    #[test]
    fn components_with_forest_lists_edges() {
        let path = tmp("forest");
        let updates =
            vec![gz_stream::EdgeUpdate::insert(0, 1), gz_stream::EdgeUpdate::insert(1, 2)];
        gz_stream::format::write_stream(path.path(), 4, &updates).unwrap();
        let out = execute(Command::Components {
            path: path.to_path_buf(),
            workers: 1,
            store: StoreArg::Ram,
            buffering: BufferingArg::Leaf,
            dir: None,
            forest: true,
            query_threads: None,
            staleness: None,
            threshold: None,
            io_backend: None,
            stats: false,
            shards: None,
            connect: Vec::new(),
            checkpoint_every: None,
            batch_updates: None,
            respawn: false,
        })
        .unwrap();
        assert!(out.lines().count() >= 3, "{out}");
    }
}
