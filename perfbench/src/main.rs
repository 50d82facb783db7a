//! `gzperf` — the repository benchmark.
//!
//! ```text
//! gzperf --workload kron-ram|serve-mixed --seed N --seconds S --trace 0|1
//!        --gz PATH --scratch DIR --source-digest HEX
//! ```
//!
//! Prints the run record, a line per metric, the failure breakdown, and as
//! its last line one JSON object: with `--trace 0` the end-to-end metrics,
//! with `--trace 1` the per-layer metrics (layers a workload does not
//! exercise read 0). Exits 1 when any answer disagrees with the oracle or
//! any operation failed, 2 on bad arguments. `perfbench/run.py` builds the
//! binaries and supplies `--gz`, `--scratch` and `--source-digest`.

mod kron;
mod loadgen;
mod serve;
mod stats;
mod support;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use support::{metric, Ctx, Metric};

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("gutters.insert_ns", "ns"),
    ("gutters.drain_s", "s"),
    ("gutters.batches", "count"),
    ("gutters.records_per_batch", "count"),
    ("gutters.tree_bytes_written", "bytes"),
    ("kernel.apply_s", "s"),
    ("kernel.ns_per_record", "ns"),
    ("store.read_bytes_per_update", "bytes"),
    ("store.write_bytes_per_update", "bytes"),
    ("store.reads", "count"),
    ("store.writes", "count"),
    ("store.io_mean_depth", "count"),
    ("store.round_stream_s", "s"),
    ("store.query_bytes_read", "bytes"),
    ("store.sketch_bytes", "bytes"),
    ("boruvka.self_s", "s"),
    ("boruvka.rounds_used", "count"),
    ("boruvka.sketch_failures", "count"),
    ("boruvka.peak_sketch_bytes", "bytes"),
    ("sharding.update_ns", "ns"),
    ("sharding.seal_ms", "ms"),
    ("sharding.epoch_query_ms", "ms"),
    ("sharding.quiesced_query_ms", "ms"),
    ("sharding.single_node_query_ms", "ms"),
    ("wal.append_ms_p50", "ms"),
    ("wal.append_ms_p99", "ms"),
    ("checkpoint.round_ms", "ms"),
    ("checkpoint.round_bytes", "bytes"),
    ("wire.batch_codec_us", "us"),
    ("wire.components_codec_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.killed", "count"),
    ("serve.timed_out", "count"),
    ("loadgen.late_max_ms", "ms"),
    ("overhead.setup_s", "s"),
    ("overhead.ingest_mups", "Mupd/s"),
    ("overhead.query_p50_ms", "ms"),
    ("overhead.ack_p50_ms", "ms"),
    ("overhead.ack_p99_ms", "ms"),
    ("overhead.peak_rss_mib", "MiB"),
];

/// Tracing overhead: the traced pass's end-to-end metrics minus the
/// untraced pass's, per metric. Peak RSS is a high-water mark that the
/// earlier pass already set, so its entry is the memory the spans occupy.
pub fn overhead(
    layers: &mut BTreeMap<String, f64>,
    untraced: &[Metric],
    traced: &[Metric],
    span_bytes: usize,
) {
    for (u, t) in untraced.iter().zip(traced) {
        debug_assert_eq!(u.name, t.name);
        layers.insert(format!("overhead.{}", u.name), t.value - u.value);
    }
    layers.insert("overhead.peak_rss_mib".to_string(), span_bytes as f64 / (1 << 20) as f64);
}

struct Args {
    workload: String,
    trace: bool,
    ctx: Ctx,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut map: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if map.insert(key, value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |key: &str| map.remove(key).ok_or_else(|| format!("missing --{key}"));
    let workload = take("workload")?.to_string();
    if !["kron-ram", "serve-mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = take("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match take("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let gz = PathBuf::from(take("gz")?);
    let out_dir = PathBuf::from(take("scratch")?);
    let source_digest = take("source-digest")?.to_string();
    if let Some(extra) = map.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    let ctx = Ctx { gz, scratch: out_dir.clone(), out_dir, seed, seconds, source_digest };
    Ok(Args { workload, trace, ctx })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gzperf: {e}");
            std::process::exit(2);
        }
    };
    let scratch = match support::ScratchDir::new(&args.ctx.out_dir, "run") {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("gzperf: {e}");
            std::process::exit(2);
        }
    };
    let ctx = Ctx { scratch: scratch.path().to_path_buf(), ..args.ctx };
    let result = match args.workload.as_str() {
        "kron-ram" => kron::run(&ctx, args.trace),
        _ => serve::run(&ctx, args.trace),
    };
    drop(scratch);
    let (tally, e2e, layers) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gzperf: {e}");
            std::process::exit(1);
        }
    };
    for m in &e2e {
        println!("end-to-end {} = {} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<Metric> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = layers.get(name).copied();
                let note =
                    if value.is_some() { "" } else { " (layer not on this workload's path)" };
                let m = metric(name, unit, value.unwrap_or(0.0));
                println!("per-layer {name} = {} {unit}{note}", m.value);
                m
            })
            .collect()
    } else {
        e2e
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("gzperf: metric {} is not finite", bad.name);
        std::process::exit(1);
    }
    println!("{}", tally.breakdown());
    println!("{}", support::result_json(&tally, &metrics));
    std::process::exit(if tally.failed() == 0 { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    #[test]
    fn benchmark_json_lists_every_metric_the_harness_reports() {
        let json = include_str!("../../BENCHMARK.json");
        let names = json.matches("\"name\": ").count();
        let workloads = json.matches("\"why\": ").count();
        let metrics = super::PER_LAYER.iter().chain(&crate::support::END_TO_END);
        for (name, unit) in metrics.clone() {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {name} in {unit}");
        }
        assert_eq!(names, metrics.count() + workloads, "BENCHMARK.json lists metrics gzperf omits");
    }
}
