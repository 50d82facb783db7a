//! Shared experiment machinery: scales, timing, tables, workloads.

use gz_stream::{Dataset, EdgeUpdate, StreamifyConfig, UpdateKind};
use std::time::{Duration, Instant};

/// Experiment scale. The paper ran kron13–kron18 (up to 1.8·10^10 updates)
/// on a 24-core/64 GB workstation; the reproduction defaults to sizes that
/// finish on a laptop while preserving the comparisons' shape. EXPERIMENTS.md
/// records which scale produced each number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-per-figure: kron8–kron12 class inputs.
    Small,
    /// Minutes-per-figure: up to kron13 (the paper's smallest dataset).
    Medium,
}

impl Scale {
    /// Parse from a CLI string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            _ => None,
        }
    }

    /// Kronecker scales (log2 of node count) used for dataset sweeps.
    pub fn kron_scales(self) -> Vec<u32> {
        match self {
            Scale::Small => vec![8, 9, 10, 11],
            Scale::Medium => vec![9, 10, 11, 12, 13],
        }
    }

    /// The single "reference" kron scale for one-dataset experiments
    /// (standing in for the paper's kron17).
    pub fn reference_kron(self) -> u32 {
        match self {
            Scale::Small => 10,
            Scale::Medium => 12,
        }
    }

    /// Reliability-trial count (paper §6.3 runs 1000 per dataset).
    pub fn reliability_trials(self) -> usize {
        match self {
            Scale::Small => 25,
            Scale::Medium => 200,
        }
    }
}

/// A prepared workload: vertex universe plus update stream.
pub struct Workload {
    /// Dataset name.
    pub name: String,
    /// Vertex universe size.
    pub num_nodes: u64,
    /// Edges in the generated graph (before streamification).
    pub graph_edges: u64,
    /// The insert/delete stream.
    pub updates: Vec<EdgeUpdate>,
}

/// True when benches should run at tiny scale (the CI smoke mode,
/// `GZ_BENCH_SMOKE=1`). One definition shared by every bench target.
pub fn smoke() -> bool {
    std::env::var("GZ_BENCH_SMOKE").is_ok()
}

/// Generate the kron dataset at `scale` and streamify it.
pub fn kron_workload(scale: u32, seed: u64) -> Workload {
    let dataset = Dataset::kron(scale);
    dataset_workload(&dataset, seed)
}

/// Generate any catalog dataset and streamify it.
pub fn dataset_workload(dataset: &Dataset, seed: u64) -> Workload {
    let edges = dataset.generate(seed);
    let graph_edges = edges.len() as u64;
    let result = gz_stream::streamify(
        dataset.num_vertices,
        &edges,
        &StreamifyConfig { seed: seed ^ 0x5EED, ..StreamifyConfig::default() },
    );
    Workload {
        name: dataset.name.clone(),
        num_nodes: dataset.num_vertices,
        graph_edges,
        updates: result.updates,
    }
}

/// Time a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Updates per second, guarding division by ~zero.
pub fn rate(updates: usize, d: Duration) -> f64 {
    updates as f64 / d.as_secs_f64().max(1e-9)
}

/// Format a rate as "N.NN M/s" style.
pub fn fmt_rate(r: f64) -> String {
    if r >= 1e6 {
        format!("{:.2}M/s", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.1}K/s", r / 1e3)
    } else {
        format!("{r:.0}/s")
    }
}

/// Format bytes human-readably.
pub fn fmt_bytes(b: u64) -> String {
    const GIB: f64 = (1u64 << 30) as f64;
    const MIB: f64 = (1u64 << 20) as f64;
    const KIB: f64 = 1024.0;
    let b = b as f64;
    if b >= GIB {
        format!("{:.2}GiB", b / GIB)
    } else if b >= MIB {
        format!("{:.2}MiB", b / MIB)
    } else if b >= KIB {
        format!("{:.2}KiB", b / KIB)
    } else {
        format!("{b:.0}B")
    }
}

/// Minimal aligned-column table printer for experiment output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                out.push_str(&format!("{:<width$}", cell, width = widths[i] + 2));
                if i + 1 == cols {
                    out.push('\n');
                }
            }
        };
        line(&self.headers, &mut out);
        for (i, w) in widths.iter().enumerate() {
            out.push_str(&"-".repeat(*w));
            out.push_str(if i + 1 == cols { "\n" } else { "--" });
        }
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Split a stream into the insert-only / delete-only batch arrays the paper
/// feeds Aspen and Terrace (§6.2: "we group the input stream into batches
/// \[of\] insertions and deletions … whenever one of these arrays fills, we
/// feed it into the appropriate batch update function").
pub fn batch_for_baselines(
    updates: &[EdgeUpdate],
    batch_size: usize,
) -> Vec<(bool, Vec<(u32, u32)>)> {
    let mut batches = Vec::new();
    let mut inserts: Vec<(u32, u32)> = Vec::new();
    let mut deletes: Vec<(u32, u32)> = Vec::new();
    for upd in updates {
        match upd.kind {
            UpdateKind::Insert => {
                inserts.push((upd.u, upd.v));
                if inserts.len() >= batch_size {
                    batches.push((false, std::mem::take(&mut inserts)));
                }
            }
            UpdateKind::Delete => {
                deletes.push((upd.u, upd.v));
                if deletes.len() >= batch_size {
                    batches.push((true, std::mem::take(&mut deletes)));
                }
            }
        }
    }
    if !inserts.is_empty() {
        batches.push((false, inserts));
    }
    if !deletes.is_empty() {
        batches.push((true, deletes));
    }
    batches
}

/// Drive a baseline system through a stream using the paper's batching.
pub fn run_baseline(
    system: &mut dyn gz_baselines::DynamicGraphSystem,
    updates: &[EdgeUpdate],
    batch_size: usize,
) -> Duration {
    let batches = batch_for_baselines(updates, batch_size);
    let (_, d) = time(|| {
        for (is_delete, edges) in &batches {
            if *is_delete {
                system.batch_delete(edges);
            } else {
                system.batch_insert(edges);
            }
        }
    });
    d
}

/// Drive GraphZeppelin through a stream.
pub fn run_graphzeppelin(
    gz: &mut graph_zeppelin::GraphZeppelin,
    updates: &[EdgeUpdate],
) -> Duration {
    let (_, d) = time(|| {
        for upd in updates {
            gz.update(upd.u, upd.v, upd.kind == UpdateKind::Delete);
        }
        gz.flush();
    });
    d
}

/// A scratch directory for on-disk experiments: a `gz_testutil::TempDir`,
/// unique per call and removed (recursively) when the guard drops — panic or
/// assertion failure included. Keep the guard alive for the experiment.
pub fn scratch_dir(tag: &str) -> gz_testutil::TempDir {
    gz_testutil::TempDir::new(&format!("gz-bench-{tag}"))
}

/// Drain every benchmark measurement recorded so far and write them as
/// `BENCH_<bench>.json` — a machine-readable perf baseline (best/mean ns
/// per case) committed alongside EXPERIMENTS.md so future PRs have a
/// trajectory to compare against, not just prose. The directory comes from
/// `GZ_BENCH_JSON_DIR`; by default full runs write to the workspace root
/// (the committed baselines) while smoke runs write under `target/` — a
/// tiny-scale CI smoke pass must never silently replace a committed
/// full-run baseline in a developer's checkout. Returns the path written.
pub fn write_bench_json(bench: &str) -> std::io::Result<std::path::PathBuf> {
    // CARGO_MANIFEST_DIR is crates/bench at compile time; the workspace
    // root is two levels up. cwd would be wrong: cargo runs benches from
    // the package directory.
    let default_dir = if smoke() {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../..")
    };
    let dir = std::env::var("GZ_BENCH_JSON_DIR").unwrap_or_else(|_| default_dir.into());
    let path = std::path::Path::new(&dir).join(format!("BENCH_{bench}.json"));
    let cases = criterion::take_recorded();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": \"{}\",\n", json_escape(bench)));
    out.push_str(&format!("  \"smoke\": {},\n", smoke()));
    out.push_str("  \"cases\": [\n");
    for (i, case) in cases.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"best_ns\": {:.1}, \"mean_ns\": {:.1}}}{}\n",
            json_escape(&case.name),
            case.best_ns,
            case.mean_ns,
            if i + 1 == cases.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Minimal JSON string escaping for benchmark names (quotes, backslashes,
/// control characters — names are ASCII identifiers in practice).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer-name".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("longer-name"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(2_500_000.0), "2.50M/s");
        assert_eq!(fmt_rate(1_500.0), "1.5K/s");
        assert_eq!(fmt_rate(42.0), "42/s");
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.00KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.00MiB");
        assert_eq!(fmt_bytes(5 << 30), "5.00GiB");
    }

    #[test]
    fn baseline_batching_separates_types() {
        let updates = vec![
            EdgeUpdate::insert(0, 1),
            EdgeUpdate::insert(1, 2),
            EdgeUpdate::delete(0, 1),
            EdgeUpdate::insert(2, 3),
        ];
        let batches = batch_for_baselines(&updates, 2);
        // First insert batch fills at 2; remaining insert and the delete
        // flush at the end.
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0], (false, vec![(0, 1), (1, 2)]));
        // Flush order: inserts then deletes.
        assert!(batches.iter().any(|(d, v)| !d && v == &vec![(2, 3)]));
        assert!(batches.iter().any(|(d, v)| *d && v == &vec![(0, 1)]));
    }

    #[test]
    fn bench_json_round_trips_through_disk() {
        // Record one fake measurement through the shim, emit the JSON, and
        // sanity-check its shape (no serde in-tree: the emitter is
        // hand-rolled, so pin the field names a future parser relies on).
        let dir = gz_testutil::TempDir::new("gz-bench-json");
        let _ = criterion::take_recorded();
        let mut c = criterion::Criterion::default()
            .sample_size(2)
            .measurement_time(Duration::from_millis(2))
            .warm_up_time(Duration::from_millis(1));
        c.bench_function("json/smoke-case", |b| b.iter(|| std::hint::black_box(1 + 1)));
        std::env::set_var("GZ_BENCH_JSON_DIR", dir.path());
        let path = write_bench_json("harness_test").unwrap();
        std::env::remove_var("GZ_BENCH_JSON_DIR");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(path.file_name().unwrap().to_str().unwrap() == "BENCH_harness_test.json");
        assert!(text.contains("\"bench\": \"harness_test\""), "{text}");
        assert!(text.contains("\"name\": \"json/smoke-case\""), "{text}");
        assert!(text.contains("\"best_ns\":"), "{text}");
        assert!(text.contains("\"mean_ns\":"), "{text}");
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain/name_1"), "plain/name_1");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
    }

    #[test]
    fn kron_workload_generates() {
        let w = kron_workload(6, 1);
        assert_eq!(w.num_nodes, 64);
        assert!(w.updates.len() as u64 >= w.graph_edges);
    }

    #[test]
    fn scales_have_sensible_parameters() {
        assert!(Scale::Small.kron_scales().len() >= 3);
        assert!(Scale::Medium.reference_kron() > Scale::Small.reference_kron());
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("bogus"), None);
    }
}
