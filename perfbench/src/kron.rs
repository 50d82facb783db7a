//! `kron-ram`: the whole kron12 stream through the `GraphZeppelin` facade
//! with its in-RAM defaults (workers capped at the core count), then
//! repeated `connected_components()` on the final state. Every answer is
//! checked against the oracle.
//!
//! The traced run adds passes: the same facade calls wrapped in spans, and
//! the same pipeline assembled from the public layer calls (buffering →
//! work queue → `SketchStore::apply_batch` → Borůvka over a timed
//! `SketchSource`) so each layer's time is seen on its own — once with the
//! in-RAM defaults and once with the on-disk defaults (gutter tree, file
//! store), whose I/O counters stand in for the disk layers.

use crate::stats::{median, percentile_of_parts, TAIL_PARTS};
use crate::support::{
    check_labels, end_to_end, peak_rss_mib, secs, Ctx, Metric, OnDrop, RunResult, ScratchDir,
    Tally, Update, NUM_NODES,
};
use crate::trace::{SpanLog, Trace, Tracer};
use graph_zeppelin::node_sketch::{encode_other, SketchParams};
use graph_zeppelin::store::SketchStore;
use graph_zeppelin::{
    boruvka_rounds_parallel, BoruvkaOutcome, BufferStrategy, GraphZeppelin, GzConfig, GzError,
    RoundSink, SketchSource, StoreRoundSource,
};
use gz_gutters::{BufferingSystem, GutterTree, GutterTreeConfig, LeafGutters, WorkQueue};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Updates per `facade.update` span in the traced pass.
const SLICE: usize = 4096;
/// Updates per batch of the applied-latency probe, the size of a serve
/// batch. Each direction of the probe times at least half the batches that
/// give every one of the `TAIL_PARTS` parts a p99, and more while it fits
/// in half the budget.
const ACK_BATCH: usize = 64;
const ACK_MIN_BATCHES: usize = 1000 * TAIL_PARTS;
const ACK_BUDGET_S: f64 = 10.0;
/// The probe's updates stay among this many lowest-numbered vertices, a hot
/// working set, so the probe measures the flush path on warm sketches.
const ACK_HOT_NODES: u32 = 1024;
/// Bounds on each burst of constructions timed for `setup_s`: at least the
/// minimum, then more while they fit in the budget. A burst runs before
/// each ingest, while no other system is alive, so the samples spread over
/// the run and never add to its peak memory.
const SETUP_MIN: usize = 4;
const SETUP_MAX: usize = 70;
const SETUP_BUDGET_S: f64 = 0.7;
/// Ingests of the whole stream per pass, at least.
const MIN_INGESTS: usize = 2;
/// Queries per pass, at least.
const MIN_QUERIES: usize = 5;
/// Queries the assembled pipeline runs.
const PIPELINE_QUERIES: usize = 3;

/// Where the sketches live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// `GzConfig::in_ram` defaults.
    Ram,
    /// `GzConfig::on_disk` defaults.
    Disk,
}

fn config(ctx: &Ctx, placement: Placement, dir: &Path) -> GzConfig {
    let mut config = match placement {
        Placement::Ram => GzConfig::in_ram(NUM_NODES),
        Placement::Disk => GzConfig::on_disk(NUM_NODES, dir.to_path_buf()),
    };
    config.num_workers = config.num_workers.min(ctx.nproc());
    config
}

/// What one facade pass measured.
#[derive(Debug, Default)]
struct Pass {
    setup_s: Vec<f64>,
    ingest_ups: Vec<f64>,
    ack_ms: Vec<f64>,
    query_ms: Vec<f64>,
    flush_s: Vec<f64>,
    tally: Tally,
    /// Counters of the last ingest.
    batches: u64,
    sketch_bytes: u64,
}

fn timed<R>(log: &mut Option<&mut SpanLog>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match log {
        Some(log) => log.time(name, None, f),
        None => f(),
    }
}

fn construct(ctx: &Ctx, log: &mut Option<&mut SpanLog>) -> Result<(GraphZeppelin, f64), String> {
    let config = config(ctx, Placement::Ram, &ctx.scratch);
    let t = Instant::now();
    let gz = timed(log, "facade.new", || GraphZeppelin::new(config))
        .map_err(|e| format!("GraphZeppelin::new: {e}"))?;
    Ok((gz, secs(t)))
}

fn query(gz: &mut GraphZeppelin, oracle: &[u32], pass: &mut Pass, log: &mut Option<&mut SpanLog>) {
    pass.tally.attempted += 1;
    let t = Instant::now();
    match timed(log, "facade.query", || gz.connected_components()) {
        Ok(cc) => {
            pass.query_ms.push(secs(t) * 1e3);
            check_labels(&mut pass.tally, cc.labels(), oracle);
        }
        Err(_) => pass.tally.fail("query_error"),
    }
}

/// How long a batch takes to be applied: `update` × 64 then `flush`, one
/// batch at a time, on the fully ingested system — the latency until a
/// caller's batch is visible to queries. The batches re-toggle stream
/// updates among the first `ACK_HOT_NODES` vertices, then toggle the same
/// batches back (timed as well), so the graph the queries see is unchanged.
fn ack_probe(
    gz: &mut GraphZeppelin,
    stream: &[Update],
    pass: &mut Pass,
    log: &mut Option<&mut SpanLog>,
) {
    let hot: Vec<Update> =
        stream.iter().copied().filter(|&(u, v, _)| u.max(v) < ACK_HOT_NODES).collect();
    let mut apply = |batch: &[Update]| {
        let t = Instant::now();
        timed(log, "facade.apply_batch", || {
            for &(u, v, is_delete) in batch {
                gz.update(u, v, is_delete);
            }
            gz.flush();
        });
        pass.ack_ms.push(secs(t) * 1e3);
    };
    let start = Instant::now();
    let mut forward = 0;
    for batch in hot.chunks_exact(ACK_BATCH) {
        if forward >= ACK_MIN_BATCHES / 2 && secs(start) >= ACK_BUDGET_S / 2.0 {
            break;
        }
        apply(batch);
        forward += 1;
    }
    for batch in hot.chunks_exact(ACK_BATCH).take(forward) {
        apply(batch);
    }
    pass.tally.attempted += 2 * forward as u64;
}

/// Ingest the stream into fresh systems, each after a burst of timed
/// constructions, until half the window is gone; time the applied latency
/// of single batches on the last one, then query it until the window ends.
fn facade_pass(
    ctx: &Ctx,
    stream: &[Update],
    oracle: &[u32],
    mut log: Option<&mut SpanLog>,
) -> Result<Pass, String> {
    let start = Instant::now();
    let window = ctx.seconds as f64;
    let mut pass = Pass::default();
    let mut gz = loop {
        let burst = Instant::now();
        for n in 0..SETUP_MAX {
            if n >= SETUP_MIN && secs(burst) >= SETUP_BUDGET_S {
                break;
            }
            let (gz, s) = construct(ctx, &mut log)?;
            pass.setup_s.push(s);
            drop(gz);
        }
        let (mut gz, _) = construct(ctx, &mut log)?;
        let t = Instant::now();
        for slice in stream.chunks(SLICE) {
            timed(&mut log, "facade.update", || {
                for &(u, v, is_delete) in slice {
                    gz.update(u, v, is_delete);
                }
            });
        }
        let f = Instant::now();
        timed(&mut log, "facade.flush", || gz.flush());
        pass.tally.attempted += stream.len() as u64 + 1;
        pass.ingest_ups.push(stream.len() as f64 / secs(t));
        pass.flush_s.push(secs(f));
        pass.batches = gz.batches_applied();
        pass.sketch_bytes = gz.sketch_bytes() as u64;

        query(&mut gz, oracle, &mut pass, &mut log);
        if secs(start) >= window / 2.0 && pass.ingest_ups.len() >= MIN_INGESTS {
            break gz;
        }
    };
    ack_probe(&mut gz, stream, &mut pass, &mut log);
    while secs(start) < window || pass.query_ms.len() < MIN_QUERIES {
        query(&mut gz, oracle, &mut pass, &mut log);
    }
    Ok(pass)
}

fn pass_metrics(pass: &Pass) -> Result<Vec<Metric>, String> {
    let ack_p99 = percentile_of_parts(&pass.ack_ms, 99.0, TAIL_PARTS)
        .ok_or_else(|| format!("{} batches cannot support a p99", pass.ack_ms.len()))?;
    let med = |v: &[f64]| median(v).ok_or("no samples");
    Ok(end_to_end([
        med(&pass.setup_s)?,
        med(&pass.ingest_ups)? / 1e6,
        med(&pass.query_ms)?,
        med(&pass.ack_ms)?,
        ack_p99,
        peak_rss_mib(std::process::id())?,
    ]))
}

/// A [`SketchSource`] that records a `store.round_stream` span around every
/// round it serves. The engine's sinks fold slices as they arrive, so the
/// span holds the store's delivery plus that fold; the query's self time is
/// what the engine does outside it (merging sinks, sampling, the DSU).
struct TimedSource<'a, S> {
    inner: S,
    log: &'a mut SpanLog,
    parent: u64,
}

impl<S: SketchSource> SketchSource for TimedSource<'_, S> {
    type Sampler = S::Sampler;

    fn num_rounds(&self) -> usize {
        self.inner.num_rounds()
    }

    fn resident_bytes(&self) -> usize {
        self.inner.resident_bytes()
    }

    fn stream_round(
        &mut self,
        round: usize,
        live: &(dyn Fn(u32) -> bool + Sync),
        sink: &mut dyn FnMut(u32, &Self::Sampler),
    ) -> Result<(), GzError> {
        let inner = &mut self.inner;
        self.log
            .time("store.round_stream", Some(self.parent), || inner.stream_round(round, live, sink))
    }

    fn stream_round_into(
        &mut self,
        round: usize,
        live: &(dyn Fn(u32) -> bool + Sync),
        pool: &gz_gutters::WorkerPool,
        sinks: &[Mutex<RoundSink<'_, Self::Sampler>>],
    ) -> Result<(), GzError> {
        let inner = &mut self.inner;
        self.log.time("store.round_stream", Some(self.parent), || {
            inner.stream_round_into(round, live, pool, sinks)
        })
    }
}

/// What the assembled pipeline measured.
struct PipelineStats {
    records: u64,
    /// Store reads, writes, bytes read and bytes written over the ingest.
    ingest_io: (u64, u64, u64, u64),
    io_mean_depth: f64,
    io_backend: Option<String>,
    tree_bytes_written: u64,
    query_bytes_read: Vec<f64>,
    outcome: BoruvkaOutcome,
}

/// The facade's pipeline rebuilt from public layer calls, with a span
/// around each call.
fn pipeline_pass(
    ctx: &Ctx,
    placement: Placement,
    stream: &[Update],
    oracle: &[u32],
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<(PipelineStats, Vec<SpanLog>), String> {
    let dir = ScratchDir::new(&ctx.scratch, "kron-pipeline")?;
    let config = config(ctx, placement, dir.path());
    let params =
        Arc::new(SketchParams::new(NUM_NODES, config.rounds(), config.num_columns, config.seed));
    let store = SketchStore::build(&config, Arc::clone(&params))
        .map_err(|e| format!("SketchStore::build: {e}"))?;
    let queue = Arc::new(WorkQueue::for_workers(config.num_workers));
    let sketch_bytes = params.node_sketch_bytes();
    let (mut buffering, tree_io): (Box<dyn BufferingSystem>, _) = match &config.buffering {
        BufferStrategy::LeafOnly { capacity } => {
            let leaves = LeafGutters::new(
                NUM_NODES as usize,
                capacity.resolve(sketch_bytes),
                Arc::clone(&queue),
            );
            (Box::new(leaves), None)
        }
        BufferStrategy::GutterTree { buffer_bytes, fanout, leaf_capacity, dir } => {
            let tree = GutterTreeConfig {
                num_nodes: NUM_NODES as u32,
                leaf_capacity_updates: leaf_capacity.resolve(sketch_bytes),
                buffer_bytes: *buffer_bytes,
                fanout: *fanout,
                path: dir.join("pipeline-gutter-tree.bin"),
            };
            let tree = GutterTree::new(tree, Arc::clone(&queue))
                .map_err(|e| format!("GutterTree: {e}"))?;
            let io = tree.stats();
            (Box::new(tree), Some(io))
        }
    };
    let io_snapshot =
        |store: &SketchStore| store.io_stats().map_or((0, 0, 0, 0), |io| io.snapshot());
    let io_before = io_snapshot(&store);

    let mut main = tracer.log();
    let ingest = main.begin("pipeline.ingest", None);
    let root = ingest.id();
    let (store, queue) = (&store, &*queue);
    std::thread::scope(|scope| {
        let _close = OnDrop(|| queue.close());
        let workers: Vec<_> = (0..config.num_workers)
            .map(|_| {
                let mut log = tracer.log();
                scope.spawn(move || {
                    let mut records = 0u64;
                    while let Some(batch) = queue.pop() {
                        log.time("kernel.apply", Some(root), || {
                            store.apply_batch(batch.node, &batch.others)
                        });
                        records += batch.others.len() as u64;
                        queue.task_done();
                    }
                    (log, records)
                })
            })
            .collect();

        for chunk in stream.chunks(SLICE) {
            main.time("gutters.insert", Some(root), || {
                for &(u, v, is_delete) in chunk {
                    buffering.insert(u, encode_other(v, is_delete));
                    buffering.insert(v, encode_other(u, is_delete));
                }
            });
        }
        main.time("gutters.drain", Some(root), || {
            buffering.force_flush();
            queue.wait_idle();
        });
        main.end(ingest);
        let io_after = io_snapshot(store);
        let ingest_io = (
            io_after.0 - io_before.0,
            io_after.1 - io_before.1,
            io_after.2 - io_before.2,
            io_after.3 - io_before.3,
        );
        let io_mean_depth = store.io_stats().map_or(0.0, |io| io.mean_depth());

        let mut query_bytes_read = Vec::new();
        let mut outcome = None;
        for _ in 0..PIPELINE_QUERIES {
            tally.attempted += 1;
            let bytes_before = store.io_stats().map_or(0, |io| io.bytes_read());
            let q = main.begin("pipeline.query", None);
            let mut source =
                TimedSource { inner: StoreRoundSource::new(store), log: &mut main, parent: q.id() };
            let result = boruvka_rounds_parallel(
                &mut source,
                NUM_NODES,
                params.rounds(),
                config.query_threads(),
            );
            main.end(q);
            let bytes_after = store.io_stats().map_or(0, |io| io.bytes_read());
            query_bytes_read.push((bytes_after - bytes_before) as f64);
            match result {
                Ok(o) => {
                    check_labels(tally, &o.labels, oracle);
                    outcome = Some(o);
                }
                Err(_) => tally.fail("query_error"),
            }
        }
        queue.close();
        let mut logs = vec![main];
        let mut records = 0;
        for w in workers {
            let (log, r) = w.join().expect("pipeline worker panicked");
            logs.push(log);
            records += r;
        }
        let outcome = outcome.ok_or("every pipeline query failed")?;
        let stats = PipelineStats {
            records,
            ingest_io,
            io_mean_depth,
            io_backend: store.io_backend_name(),
            tree_bytes_written: tree_io.map_or(0, |io| io.bytes_written()),
            query_bytes_read,
            outcome,
        };
        Ok((stats, logs))
    })
}

/// Run `kron-ram`; `traced` selects the per-layer run.
pub fn run(ctx: &Ctx, traced: bool) -> RunResult {
    let stream = crate::support::kron12_stream(ctx)?;
    let oracle = crate::support::oracle_labels(&stream);

    let untraced = facade_pass(ctx, &stream, &oracle, None)?;
    let e2e = pass_metrics(&untraced)?;
    let config = config(ctx, Placement::Ram, &ctx.scratch);
    ctx.print_record(
        "kron-ram",
        &[
            ("stream_updates", stream.len().to_string()),
            ("num_workers", config.num_workers.to_string()),
            ("query_threads", config.query_threads().to_string()),
            ("io_backend", "none_(RAM_store)".to_string()),
            ("traced", traced.to_string()),
        ],
    );
    print_pass("untraced", &untraced);
    let mut tally = untraced.tally.clone();
    if !traced {
        return Ok((tally, e2e, BTreeMap::new()));
    }

    let tracer = Tracer::default();
    let mut facade_log = tracer.log();
    let traced_pass = facade_pass(ctx, &stream, &oracle, Some(&mut facade_log))?;
    print_pass("traced", &traced_pass);
    tally.absorb(&traced_pass.tally);
    let traced_e2e = pass_metrics(&traced_pass)?;
    let (ram, mut logs) =
        pipeline_pass(ctx, Placement::Ram, &stream, &oracle, &tracer, &mut tally)?;
    logs.push(facade_log);
    // The on-disk pipeline feeds only its I/O counters; its spans would mix
    // with the in-RAM pipeline's, so they go to a tracer of their own.
    let (disk, _) =
        pipeline_pass(ctx, Placement::Disk, &stream, &oracle, &Tracer::default(), &mut tally)?;
    println!(
        "on-disk pipeline: io_backend={} tree_bytes_written={} store_io={:?}",
        disk.io_backend.as_deref().unwrap_or("none"),
        disk.tree_bytes_written,
        disk.ingest_io
    );
    let trace = Trace::merge(logs);
    let trace_path = ctx.out_dir.join(format!("trace-kron-ram-seed{}.tsv", ctx.seed));
    trace.write_tsv(&trace_path).map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    println!("trace: {} spans written to {}", trace.len(), trace_path.display());

    let updates = stream.len() as f64;
    let p = &traced_pass;
    let med = |v: Vec<f64>| median(&v).unwrap_or(0.0);
    let query_ms = trace.durations_ms("pipeline.query");
    let self_ms = trace.self_times_ms("pipeline.query");
    let stream_ms: Vec<f64> = query_ms.iter().zip(&self_ms).map(|(q, s)| q - s).collect();
    let kernel_s = trace.total_s("kernel.apply");
    let mut layers = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        layers.insert(k.to_string(), v);
    };
    let ingests = p.ingest_ups.len() as f64;
    put("gutters.insert_ns", trace.total_s("facade.update") * 1e9 / (updates * ingests));
    put("gutters.drain_s", med(p.flush_s.clone()));
    put("gutters.batches", p.batches as f64);
    put("gutters.records_per_batch", 2.0 * updates / p.batches.max(1) as f64);
    put("gutters.tree_bytes_written", disk.tree_bytes_written as f64);
    put("kernel.apply_s", kernel_s);
    put("kernel.ns_per_record", kernel_s * 1e9 / ram.records.max(1) as f64);
    put("store.read_bytes_per_update", disk.ingest_io.2 as f64 / updates);
    put("store.write_bytes_per_update", disk.ingest_io.3 as f64 / updates);
    put("store.reads", disk.ingest_io.0 as f64);
    put("store.writes", disk.ingest_io.1 as f64);
    put("store.io_mean_depth", disk.io_mean_depth);
    put("store.round_stream_s", med(stream_ms) / 1e3);
    put("store.query_bytes_read", med(disk.query_bytes_read));
    put("store.sketch_bytes", p.sketch_bytes as f64);
    put("boruvka.self_s", med(self_ms) / 1e3);
    put("boruvka.rounds_used", ram.outcome.rounds_used as f64);
    put("boruvka.sketch_failures", ram.outcome.sketch_failures as f64);
    put("boruvka.peak_sketch_bytes", ram.outcome.peak_sketch_bytes as f64);
    crate::overhead(&mut layers, &e2e, &traced_e2e, trace.memory_bytes());
    Ok((tally, e2e, layers))
}

fn print_pass(label: &str, p: &Pass) {
    println!(
        "{label} pass: setup {} | ingest Mupd/s {:.4?} | applied batch {} | query {} | flush {}",
        crate::stats::describe(&p.setup_s, "s"),
        p.ingest_ups.iter().map(|u| u / 1e6).collect::<Vec<_>>(),
        crate::stats::describe(&p.ack_ms, "ms"),
        crate::stats::describe(&p.query_ms, "ms"),
        crate::stats::describe(&p.flush_s, "s"),
    );
}
