//! `serve-mixed`: a `gz serve` child process (one shard, in memory) driven
//! over two connections — one open-loop writer sending the kron12 stream
//! prefix as 64-update batches at a fixed rate, and one closed-loop
//! `Components` reader with a fixed think time.
//!
//! After the window the writer is quiesced and one fresh query is checked
//! against the oracle over the acked prefix. The traced run replays the
//! daemon's call sequence in process on the same batches at the same rate
//! (`ShardedGraphZeppelin::update` and `begin_epoch` under one lock,
//! `ShardedEpoch::spanning_forest` outside it) with a span around each call,
//! then times the layers `gz serve --dir` adds on the same state: fsynced
//! `UpdateWal::append`s and checkpoint rounds.

use crate::loadgen::{OpenLoop, Recorder};
use crate::stats::{median, percentile, percentile_of_parts, TAIL_PARTS};
use crate::support::{
    check_labels, end_to_end, oracle_labels, peak_rss_mib, secs, Ctx, Metric, RunResult,
    ScratchDir, Tally, Update, NUM_NODES,
};
use crate::trace::{SpanLog, Trace, Tracer};
use graph_zeppelin::{
    GraphZeppelin, GzConfig, GzError, ServeManifest, ShardConfig, ShardedEpoch,
    ShardedGraphZeppelin, TransportTimeouts, UpdateWal,
};
use gz_cli::client::{ClientError, ServeClient};
use gz_cli::serve::{ServeListen, ServeOptions};
use gz_stream::wire::{QueryAnswer, WireMessage, WireUpdate};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Updates per `UpdateBatch`.
const BATCH: usize = 64;
/// Offered load, in batches per second (32 k updates/s).
const RATE: u32 = 500;
/// The reader's pause between a reply and its next query. A seal holds the
/// ingest lock for about 150 ms on a 2-core host; with a 100 ms pause the
/// lock is wanted nearly all of the time and acks queue behind seals.
const THINK: Duration = Duration::from_millis(1000);
/// Fsynced WAL appends (enough for a p99) and checkpoint rounds the traced
/// run times on the replayed state.
const WAL_APPENDS: usize = 2000;
const CHECKPOINT_ROUNDS: u64 = 3;
/// Daemons started only to time `setup_s`, before the measured one and
/// again after it, so the samples straddle the window.
const SETUP_REPS: usize = 5;
/// Quiesced queries timed per system for the single-node comparison.
const QUIESCED_REPS: usize = 3;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

fn client_timeouts() -> TransportTimeouts {
    let d = Some(Duration::from_secs(30));
    TransportTimeouts { connect: d, read: d, write: d }
}

/// A `gz serve` child. Dropping it sends SIGTERM and reaps it, so the
/// daemon never outlives the run, whichever way the run ends.
struct Daemon {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<String>>,
}

impl Daemon {
    /// Start a daemon and wait for its address.
    fn spawn(ctx: &Ctx) -> Result<Daemon, String> {
        let mut child = Command::new(&ctx.gz)
            .args(["serve", "--listen", "127.0.0.1:0", "--nodes", &NUM_NODES.to_string()])
            .arg("--stats")
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", ctx.gz.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon { child, addr: String::new(), drain: None };
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    return Err("gz serve exited before announcing its address".into())
                }
                Ok(_) => {}
            }
            if let Some(idx) = line.find("listening on ") {
                daemon.addr = line[idx + "listening on ".len()..].trim_end().to_string();
                break;
            }
        }
        daemon.drain = Some(std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = reader.read_to_string(&mut rest);
            rest
        }));
        Ok(daemon)
    }

    fn connect(&self) -> Result<ServeClient, ClientError> {
        ServeClient::connect_tcp(&self.addr, &client_timeouts())
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGTERM, then reap; SIGKILL if it has not exited within a minute.
    fn terminate(&mut self) -> std::io::Result<ExitStatus> {
        if let Some(status) = self.child.try_wait()? {
            return Ok(status);
        }
        // SAFETY: `kill` has no memory-safety preconditions; the pid is our
        // own unreaped child, so it cannot have been recycled.
        unsafe { kill(self.child.id() as i32, SIGTERM) };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return Ok(status);
            }
            if Instant::now() > deadline {
                self.child.kill()?;
                return self.child.wait();
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Shut down gracefully; the exit status and the shutdown summary.
    fn stop(mut self) -> Result<(ExitStatus, String), String> {
        let status = self.terminate().map_err(|e| format!("reap gz serve: {e}"))?;
        let summary = self.drain.take().map(|d| d.join().unwrap_or_default()).unwrap_or_default();
        Ok((status, summary))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.terminate();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// What the open-loop writer saw.
struct Writer {
    rec: Recorder,
    acked_updates: usize,
    elapsed: Duration,
    tally: Tally,
}

/// Send `stream` in `BATCH`-update batches on the `RATE` schedule until
/// `window` is over, each through `send` (which returns once acked).
fn open_loop(
    stream: &[Update],
    window: Duration,
    mut send: impl FnMut(&[Update]) -> Result<(), &'static str>,
) -> Writer {
    let schedule = OpenLoop::per_second(RATE);
    let start = Instant::now();
    let mut w = Writer {
        rec: Recorder::default(),
        acked_updates: 0,
        elapsed: Duration::ZERO,
        tally: Tally::default(),
    };
    for (i, batch) in stream.chunks_exact(BATCH).enumerate() {
        let due = schedule.due(i as u32);
        if due >= window {
            break;
        }
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let sent = start.elapsed();
        w.tally.attempted += 1;
        if let Err(kind) = send(batch) {
            w.tally.fail(kind);
            break;
        }
        w.rec.record(due, sent, start.elapsed());
        w.acked_updates += batch.len();
    }
    w.elapsed = start.elapsed();
    w
}

/// What the closed-loop reader saw.
struct Reader {
    query_ms: Vec<f64>,
    tally: Tally,
}

/// Query through `query` (returning the label count) until `window` is
/// over, pausing `THINK` after each reply.
fn closed_loop(window: Duration, mut query: impl FnMut() -> Result<usize, &'static str>) -> Reader {
    let start = Instant::now();
    let mut r = Reader { query_ms: Vec::new(), tally: Tally::default() };
    while start.elapsed() < window {
        r.tally.attempted += 1;
        let t = Instant::now();
        match query() {
            Ok(n) if n == NUM_NODES as usize => r.query_ms.push(secs(t) * 1e3),
            Ok(_) => r.tally.fail("short_labels"),
            Err(kind) => {
                r.tally.fail(kind);
                break;
            }
        }
        std::thread::sleep(THINK);
    }
    r
}

fn client_failure(e: ClientError) -> &'static str {
    eprintln!("serve-mixed: {e}");
    match e {
        ClientError::Busy { .. } => "busy",
        ClientError::Rejected(_) => "error_reply",
        ClientError::Io(_) => "client_error",
    }
}

/// End-to-end numbers of one pass, before they become metrics.
struct Pass {
    setup_s: Vec<f64>,
    writer: Writer,
    reader: Reader,
    peak_rss_mib: f64,
}

impl Pass {
    fn end_to_end(&self) -> Result<Vec<Metric>, String> {
        let acks = &self.writer.rec.latencies_ms;
        let ack_p99 = percentile_of_parts(acks, 99.0, TAIL_PARTS)
            .ok_or_else(|| format!("{} acked batches cannot support a p99", acks.len()))?;
        let med = |v: &[f64]| median(v).ok_or("no samples");
        let elapsed = self.writer.elapsed.as_secs_f64();
        Ok(end_to_end([
            med(&self.setup_s)?,
            self.writer.acked_updates as f64 / elapsed / 1e6,
            med(&self.reader.query_ms)?,
            med(acks)?,
            ack_p99,
            self.peak_rss_mib,
        ]))
    }

    fn print(&self, label: &str) {
        println!(
            "{label} pass: setup {} | acked {} updates in {:.3}s | ack {} | query {} | \
             generator late by at most {:.3} ms",
            crate::stats::describe(&self.setup_s, "s"),
            self.writer.acked_updates,
            self.writer.elapsed.as_secs_f64(),
            crate::stats::describe(&self.writer.rec.latencies_ms, "ms"),
            crate::stats::describe(&self.reader.query_ms, "ms"),
            self.writer.rec.late_max_ms,
        );
    }
}

/// The daemon's `--stats` shutdown counters.
#[derive(Debug, Default)]
struct ServeCounters {
    shed: f64,
    killed: f64,
    timed_out: f64,
}

fn parse_counters(summary: &str) -> Option<ServeCounters> {
    let line = summary.lines().find(|l| l.starts_with("connections:"))?;
    let field = |key: &str| -> Option<f64> {
        line.split_whitespace().find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
    };
    Some(ServeCounters {
        shed: field("shed")?,
        killed: field("killed_malformed")?,
        timed_out: field("timed_out")?,
    })
}

fn stop_daemon(daemon: Daemon, tally: &mut Tally) -> Result<String, String> {
    let (status, summary) = daemon.stop()?;
    tally.attempted += 1;
    if !status.success() {
        eprintln!("serve-mixed: gz serve exited with {status}");
        tally.fail("daemon_exit");
    }
    Ok(summary)
}

/// Start `SETUP_REPS` daemons, timing each from spawn to `ClientHelloAck`.
fn time_setups(ctx: &Ctx, setup_s: &mut Vec<f64>, tally: &mut Tally) -> Result<(), String> {
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let daemon = Daemon::spawn(ctx)?;
        let client = daemon.connect().map_err(|e| format!("connect: {e}"))?;
        setup_s.push(secs(t));
        let _ = client.shutdown();
        stop_daemon(daemon, tally)?;
    }
    Ok(())
}

/// The untraced pass: the real daemon over real sockets.
fn daemon_pass(ctx: &Ctx, stream: &[Update]) -> Result<(Pass, Tally, ServeCounters), String> {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    time_setups(ctx, &mut setup_s, &mut tally)?;

    let t = Instant::now();
    let daemon = Daemon::spawn(ctx)?;
    let mut writer = daemon.connect().map_err(|e| format!("connect writer: {e}"))?;
    setup_s.push(secs(t));
    let mut reader = daemon.connect().map_err(|e| format!("connect reader: {e}"))?;

    let window = Duration::from_secs(ctx.seconds);
    let (w, r) = std::thread::scope(|scope| {
        let r = scope.spawn(|| {
            closed_loop(window, || {
                reader.query_components().map(|l| l.len()).map_err(client_failure)
            })
        });
        let w = open_loop(stream, window, |batch| {
            writer.send_updates(batch).map(|_| ()).map_err(client_failure)
        });
        (w, r.join().expect("reader thread panicked"))
    });
    tally.absorb(&w.tally);
    tally.absorb(&r.tally);

    // The writer is quiesced: one fresh query must match the oracle over
    // exactly the acked prefix.
    tally.attempted += 1;
    if writer.acked() != w.acked_updates as u64 {
        tally.fail("ack_count");
    }
    match reader.query_components() {
        Ok(labels) => check_labels(&mut tally, &labels, &oracle_labels(&stream[..w.acked_updates])),
        Err(e) => tally.fail(client_failure(e)),
    }
    let peak = peak_rss_mib(daemon.pid())?;
    let _ = writer.shutdown();
    let _ = reader.shutdown();
    let summary = stop_daemon(daemon, &mut tally)?;
    let counters = parse_counters(&summary).ok_or("no --stats counters in the daemon summary")?;
    time_setups(ctx, &mut setup_s, &mut tally)?;
    Ok((Pass { setup_s, writer: w, reader: r, peak_rss_mib: peak }, tally, counters))
}

fn manifest(options: &ServeOptions, round: u64, covered: u64) -> ServeManifest {
    ServeManifest {
        round,
        covered,
        num_nodes: options.nodes,
        seed: options.seed,
        num_shards: options.shards,
    }
}

fn shard_paths(dir: &Path, round: u64, shards: u32) -> Vec<PathBuf> {
    (0..shards).map(|i| dir.join(format!("serve-round-{round}-shard-{i}.gzs2"))).collect()
}

fn wal_path(dir: &Path, round: u64) -> PathBuf {
    dir.join(format!("serve-wal-{round}.gzw"))
}

/// The resident system, as `gz serve` builds it.
fn build_system(options: &ServeOptions) -> Result<ShardedGraphZeppelin, GzError> {
    let mut config = ShardConfig::in_ram(options.nodes, options.shards);
    config.seed = options.seed;
    config.workers_per_shard = options.workers;
    ShardedGraphZeppelin::in_process(config)
}

/// What `gz serve --dir` adds, timed on `system`'s state: fsynced WAL
/// appends of the stream's batches, then checkpoint rounds in the daemon's
/// order (shard files, manifest flip, new WAL, old round removed). Returns
/// the bytes each round wrote.
fn durability_probe(
    options: &ServeOptions,
    system: &mut ShardedGraphZeppelin,
    acked: u64,
    stream: &[Update],
    dir: &Path,
    log: &mut SpanLog,
) -> Result<Vec<f64>, GzError> {
    let manifest_path = dir.join("serve.manifest");
    manifest(options, 0, 0).save(&manifest_path)?;
    let mut wal = UpdateWal::create(&wal_path(dir, 0))?;
    for batch in stream.chunks_exact(BATCH).take(WAL_APPENDS) {
        log.time("wal.append", None, || wal.append(batch))?;
    }
    let size = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
    let mut round_bytes = Vec::new();
    for round in 1..=CHECKPOINT_ROUNDS {
        let paths = shard_paths(dir, round, options.shards);
        log.time("checkpoint.round", None, || -> Result<(), GzError> {
            system.checkpoint_shards_to(&paths)?;
            manifest(options, round, acked).save(&manifest_path)?;
            wal = UpdateWal::create(&wal_path(dir, round))?;
            for old in shard_paths(dir, round - 1, options.shards) {
                let _ = std::fs::remove_file(old);
            }
            let _ = std::fs::remove_file(wal_path(dir, round - 1));
            Ok(())
        })?;
        round_bytes
            .push((paths.iter().map(|p| size(p)).sum::<u64>() + size(&manifest_path)) as f64);
    }
    Ok(round_bytes)
}

/// What only the replay measures.
struct ReplayExtras {
    round_bytes: Vec<f64>,
    quiesced_query_ms: Vec<f64>,
    single_node_query_ms: Vec<f64>,
    sketch_bytes: f64,
    outcome: graph_zeppelin::BoruvkaOutcome,
}

/// The traced pass: the daemon's call sequence replayed in process, then
/// the quiesced and single-node queries and the durability probe.
fn replay_pass(
    ctx: &Ctx,
    stream: &[Update],
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<(Pass, ReplayExtras, Trace), String> {
    let options = ServeOptions::new(ServeListen::Tcp("127.0.0.1:0".into()), NUM_NODES);
    let mut setup_s = Vec::new();
    for _ in 0..=2 * SETUP_REPS {
        let t = Instant::now();
        let system = build_system(&options).map_err(|e| e.to_string())?;
        setup_s.push(secs(t));
        system.shutdown().map_err(|e| e.to_string())?;
    }
    // The resident system and the acked count, under one lock as in the
    // daemon.
    let state = Mutex::new((build_system(&options).map_err(|e| e.to_string())?, 0u64));

    let window = Duration::from_secs(ctx.seconds);
    let (mut wlog, mut rlog) = (tracer.log(), tracer.log());
    let (w, r) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut cache: Option<(Arc<ShardedEpoch>, u64)> = None;
            closed_loop(window, || {
                let epoch = {
                    let guard = state.lock().expect("replay state lock poisoned");
                    match &cache {
                        Some((epoch, at)) if *at == guard.1 => Arc::clone(epoch),
                        _ => {
                            let mut guard = guard;
                            let sealed = rlog
                                .time("sharding.seal", None, || guard.0.begin_epoch())
                                .map_err(|_| "seal_error")?;
                            let (sealed, at) = (Arc::new(sealed), guard.1);
                            drop(guard);
                            // The replaced epoch is released outside the
                            // lock, as the daemon does.
                            cache = Some((Arc::clone(&sealed), at));
                            sealed
                        }
                    }
                };
                let outcome = rlog
                    .time("sharding.epoch_query", None, || epoch.spanning_forest())
                    .map_err(|_| "query_error")?;
                Ok(outcome.labels.len())
            })
        });
        let w = open_loop(stream, window, |batch| {
            let mut guard = state.lock().expect("replay state lock poisoned");
            let (system, acked) = &mut *guard;
            wlog.time("sharding.update", None, || {
                batch.iter().try_for_each(|&(u, v, is_delete)| system.update(u, v, is_delete))
            })
            .map_err(|_| "ingest_error")?;
            *acked += batch.len() as u64;
            Ok(())
        });
        (w, reader.join().expect("replay reader panicked"))
    });
    tally.absorb(&w.tally);
    tally.absorb(&r.tally);

    let (mut system, acked) = state.into_inner().expect("replay state lock poisoned");
    let prefix = &stream[..w.acked_updates];
    let oracle = oracle_labels(prefix);
    let mut quiesced_query_ms = Vec::new();
    let mut outcome = None;
    for _ in 0..QUIESCED_REPS {
        tally.attempted += 1;
        let t = Instant::now();
        match system.begin_epoch().and_then(|e| e.spanning_forest()) {
            Ok(o) => {
                quiesced_query_ms.push(secs(t) * 1e3);
                check_labels(tally, &o.labels, &oracle);
                outcome = Some(o);
            }
            Err(_) => tally.fail("query_error"),
        }
    }
    let dir = ScratchDir::new(&ctx.scratch, "durability")?;
    let mut dlog = tracer.log();
    tally.attempted += 1;
    let round_bytes =
        match durability_probe(&options, &mut system, acked, stream, dir.path(), &mut dlog) {
            Ok(bytes) => bytes,
            Err(e) => {
                eprintln!("serve-mixed: durability probe failed: {e}");
                tally.fail("durability_error");
                Vec::new()
            }
        };
    system.shutdown().map_err(|e| e.to_string())?;

    // The floor a single-node system sets on the same state.
    let mut config = GzConfig::in_ram(NUM_NODES);
    config.seed = options.seed;
    config.num_workers = options.workers;
    let mut single = GraphZeppelin::new(config).map_err(|e| e.to_string())?;
    for &(u, v, is_delete) in prefix {
        single.update(u, v, is_delete);
    }
    single.flush();
    let mut single_node_query_ms = Vec::new();
    for _ in 0..QUIESCED_REPS {
        tally.attempted += 1;
        let t = Instant::now();
        match single.begin_epoch().and_then(|e| e.spanning_forest()) {
            Ok(o) => {
                single_node_query_ms.push(secs(t) * 1e3);
                check_labels(tally, &o.labels, &oracle);
            }
            Err(_) => tally.fail("query_error"),
        }
    }
    let extras = ReplayExtras {
        round_bytes,
        quiesced_query_ms,
        single_node_query_ms,
        sketch_bytes: single.sketch_bytes() as f64,
        outcome: outcome.ok_or("every quiesced replay query failed")?,
    };
    let pass =
        Pass { setup_s, writer: w, reader: r, peak_rss_mib: peak_rss_mib(std::process::id())? };
    Ok((pass, extras, Trace::merge([wlog, rlog, dlog])))
}

/// Median time to encode and decode `msg`, in seconds.
fn codec_s(msg: &WireMessage, reps: usize, tally: &mut Tally) -> f64 {
    let mut buf = Vec::new();
    let mut samples = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..reps {
            buf.clear();
            msg.write_to(&mut buf).expect("encoding into a Vec cannot fail");
            std::hint::black_box(WireMessage::read_from(&mut buf.as_slice()).ok());
        }
        samples.push(secs(t) / reps as f64);
    }
    tally.attempted += 1;
    if WireMessage::read_from(&mut buf.as_slice()).ok().as_ref() != Some(msg) {
        tally.fail("codec_mismatch");
    }
    median(&samples).expect("five samples")
}

/// Run `serve-mixed`; `traced` selects the per-layer run.
pub fn run(ctx: &Ctx, traced: bool) -> RunResult {
    if ctx.nproc() < 2 {
        return Err("serve-mixed drives two generator threads and needs 2 cores".into());
    }
    let stream = crate::support::kron12_stream(ctx)?;
    let options = ServeOptions::new(ServeListen::Tcp("127.0.0.1:0".into()), NUM_NODES);
    ctx.print_record(
        "serve-mixed",
        &[
            ("offered_batches_per_s", RATE.to_string()),
            ("batch_updates", BATCH.to_string()),
            ("think_ms", THINK.as_millis().to_string()),
            ("generator_threads", "2".to_string()),
            ("connections", "2".to_string()),
            ("shards", options.shards.to_string()),
            ("workers_per_shard", options.workers.to_string()),
            ("daemon_dir", "none".to_string()),
            ("io_backend", "none_(RAM_store)".to_string()),
            ("traced", traced.to_string()),
        ],
    );
    let (daemon, mut tally, counters) = daemon_pass(ctx, &stream)?;
    daemon.print("untraced");
    let e2e = daemon.end_to_end()?;
    if !traced {
        return Ok((tally, e2e, BTreeMap::new()));
    }

    let tracer = Tracer::default();
    let (replay, extras, trace) = replay_pass(ctx, &stream, &tracer, &mut tally)?;
    replay.print("traced replay");
    let trace_path = ctx.out_dir.join(format!("trace-serve-mixed-seed{}.tsv", ctx.seed));
    trace.write_tsv(&trace_path).map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    println!("trace: {} spans written to {}", trace.len(), trace_path.display());

    let batch: Vec<WireUpdate> =
        stream[..BATCH].iter().map(|&(u, v, is_delete)| WireUpdate { u, v, is_delete }).collect();
    let batch_msg = WireMessage::UpdateBatch { updates: batch };
    let labels = extras.outcome.labels.clone();
    let components_msg = WireMessage::QueryResult { answer: QueryAnswer::Components(labels) };

    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let wal_ms = trace.durations_ms("wal.append");
    let mut layers = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        layers.insert(k.to_string(), v);
    };
    put(
        "sharding.update_ns",
        trace.total_s("sharding.update") * 1e9 / replay.writer.acked_updates.max(1) as f64,
    );
    put("sharding.seal_ms", med(&trace.durations_ms("sharding.seal")));
    put("sharding.epoch_query_ms", med(&trace.durations_ms("sharding.epoch_query")));
    put("sharding.quiesced_query_ms", med(&extras.quiesced_query_ms));
    put("sharding.single_node_query_ms", med(&extras.single_node_query_ms));
    put("wal.append_ms_p50", med(&wal_ms));
    put("wal.append_ms_p99", percentile(&wal_ms, 99.0).unwrap_or(0.0));
    put("checkpoint.round_ms", med(&trace.durations_ms("checkpoint.round")));
    put("checkpoint.round_bytes", med(&extras.round_bytes));
    put("wire.batch_codec_us", codec_s(&batch_msg, 2000, &mut tally) * 1e6);
    put("wire.components_codec_ms", codec_s(&components_msg, 50, &mut tally) * 1e3);
    put("serve.shed", counters.shed);
    put("serve.killed", counters.killed);
    put("serve.timed_out", counters.timed_out);
    put("loadgen.late_max_ms", daemon.writer.rec.late_max_ms);
    put("store.sketch_bytes", extras.sketch_bytes);
    put("boruvka.rounds_used", extras.outcome.rounds_used as f64);
    put("boruvka.sketch_failures", extras.outcome.sketch_failures as f64);
    put("boruvka.peak_sketch_bytes", extras.outcome.peak_sketch_bytes as f64);
    crate::overhead(&mut layers, &e2e, &replay.end_to_end()?, trace.memory_bytes());
    Ok((tally, e2e, layers))
}
