//! What every workload shares: the run context and record, scratch
//! directories, the generated stream, the exact-answer oracle, and the
//! result line.

use gz_dsu::Dsu;
use gz_graph::{edge_index, Edge};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Vertices in the kron12 stream every workload is generated from.
pub const NUM_NODES: u64 = 1 << 12;

/// The seed baselines are recorded with.
pub const BASELINE_SEED: u64 = 1;

/// A seed kept out of tuning, on which a gain claimed on the baseline seed
/// is rechecked.
pub const HELD_OUT_SEED: u64 = 1009;

/// One stream update: `(u, v, is_delete)`.
pub type Update = (u32, u32, bool);

/// Everything a workload run needs from the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The `gz` binary built from this checkout.
    pub gz: PathBuf,
    /// Directory every temporary file of the run is created under; removed
    /// when the run ends.
    pub scratch: PathBuf,
    /// Directory the run's trace is written to.
    pub out_dir: PathBuf,
    /// Input seed.
    pub seed: u64,
    /// Length of one measurement window, in seconds.
    pub seconds: u64,
    /// Digest of the sources the binaries were built from.
    pub source_digest: String,
}

impl Ctx {
    /// Cores the run may use: load generators and worker pools stay within it.
    pub fn nproc(&self) -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    /// Print the run record that every result is reported next to.
    pub fn print_record(&self, workload: &str, extra: &[(&str, String)]) {
        let role = match self.seed {
            BASELINE_SEED => "baseline",
            HELD_OUT_SEED => "held-out",
            _ => "other",
        };
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
        let mut line = format!(
            "record: workload={workload} seed={} seed_role={role} nproc={} kernel={kernel} \
             source={} seconds={}",
            self.seed,
            self.nproc(),
            self.source_digest,
            self.seconds,
        );
        for (k, v) in extra {
            line.push_str(&format!(" {k}={v}"));
        }
        println!("{line}");
    }
}

/// A directory under the run's scratch root, removed with everything in it
/// when dropped — on every exit path, a panic included.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create a fresh, uniquely named directory under `root`.
    pub fn new(root: &Path, prefix: &str) -> Result<ScratchDir, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let name =
            format!("{prefix}-{}-{}", std::process::id(), SEQ.fetch_add(1, Ordering::Relaxed));
        let path = root.join(name);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Runs its closure when dropped: on every path out of a scope, a panic
/// included, so threads waiting on a shutdown signal are never stranded.
pub struct OnDrop<F: FnMut()>(pub F);

impl<F: FnMut()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)()
    }
}

/// Generate the kron12 stream for `seed` with `gz generate` in a child
/// process, so the generator's memory never counts toward this process's
/// peak RSS, and read it back.
pub fn kron12_stream(ctx: &Ctx) -> Result<Vec<Update>, String> {
    let dir = ScratchDir::new(&ctx.scratch, "stream")?;
    let file = dir.path().join("kron12.gzs");
    let out = Command::new(&ctx.gz)
        .args(["generate", "--dataset", "kron12", "--seed", &ctx.seed.to_string(), "--out"])
        .arg(&file)
        .output()
        .map_err(|e| format!("spawn {}: {e}", ctx.gz.display()))?;
    if !out.status.success() {
        return Err(format!(
            "gz generate failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let mut reader = gz_stream::format::StreamReader::open(&file)
        .map_err(|e| format!("open {}: {e}", file.display()))?;
    if reader.header().num_vertices != NUM_NODES {
        return Err(format!(
            "stream has {} vertices, not {NUM_NODES}",
            reader.header().num_vertices
        ));
    }
    let updates = reader.read_all().map_err(|e| format!("read {}: {e}", file.display()))?;
    Ok(updates.into_iter().map(|u| (u.u, u.v, u.kind == gz_stream::UpdateKind::Delete)).collect())
}

/// Exact component labels (minimum member id) of the graph the stream
/// `updates` leaves: edges toggled an odd number of times, joined by a DSU.
pub fn oracle_labels(updates: &[Update]) -> Vec<u32> {
    let n = NUM_NODES;
    let mut present = vec![0u64; (gz_graph::edge_index_count(n) as usize).div_ceil(64)];
    for &(u, v, _) in updates {
        let i = edge_index(Edge::new(u, v), n) as usize;
        present[i / 64] ^= 1 << (i % 64);
    }
    let mut dsu = Dsu::new(n as usize);
    for (w, &word) in present.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let i = (w * 64 + bits.trailing_zeros() as usize) as u64;
            let (a, b) = gz_graph::index_to_edge(i, n).endpoints();
            dsu.union(a, b);
            bits &= bits - 1;
        }
    }
    dsu.normalized_labels()
}

/// Peak resident set (VmHWM) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Operations attempted, and the failures among them by kind.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    failures: Vec<(&'static str, u64)>,
}

impl Tally {
    /// Count one failure of `kind`.
    pub fn fail(&mut self, kind: &'static str) {
        self.add(kind, 1);
    }

    fn add(&mut self, kind: &'static str, n: u64) {
        match self.failures.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, count)) => *count += n,
            None => self.failures.push((kind, n)),
        }
    }

    /// Failures of every kind.
    pub fn failed(&self) -> u64 {
        self.failures.iter().map(|(_, n)| n).sum()
    }

    /// Add another tally's counts.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        for &(kind, n) in &other.failures {
            self.add(kind, n);
        }
    }

    /// `failures: total=N kind=n ...` for the run log.
    pub fn breakdown(&self) -> String {
        let mut s = format!(
            "failures: attempted={} failed={} failed_frac={}",
            self.attempted,
            self.failed(),
            self.failed() as f64 / self.attempted.max(1) as f64
        );
        for (kind, n) in &self.failures {
            s.push_str(&format!(" {kind}={n}"));
        }
        s
    }
}

/// Compare an answer against the oracle, counting a short vector and a
/// wrong labeling as distinct failures.
pub fn check_labels(tally: &mut Tally, got: &[u32], want: &[u32]) {
    if got.len() != want.len() {
        tally.fail("short_labels");
    } else if got != want {
        tally.fail("wrong_answer");
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// What a workload run reports: its tally, its end-to-end metrics, and (in
/// a traced run) its per-layer metrics by name.
pub type RunResult = Result<(Tally, Vec<Metric>, BTreeMap<String, f64>), String>;

/// The end-to-end metrics, in `BENCHMARK.json` order, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ingest_mups", "Mupd/s"),
    ("query_p50_ms", "ms"),
    ("ack_p50_ms", "ms"),
    ("ack_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// The end-to-end metrics from their values, in [`END_TO_END`] order.
pub fn end_to_end(values: [f64; 6]) -> Vec<Metric> {
    END_TO_END.iter().zip(values).map(|(&(name, unit), value)| metric(name, unit, value)).collect()
}

/// Shorthand for a [`Metric`].
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The result line: the last line of standard output.
pub fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed() == 0,
        tally.attempted,
        tally.failed(),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_applies_toggles() {
        // 0-1 inserted, 1-2 inserted then deleted, 3-4 toggled three times.
        let updates = [
            (0, 1, false),
            (1, 2, false),
            (2, 1, true),
            (3, 4, false),
            (4, 3, true),
            (3, 4, false),
        ];
        let labels = oracle_labels(&updates);
        assert_eq!(labels.len(), NUM_NODES as usize);
        assert_eq!(&labels[..5], &[0, 0, 2, 3, 3]);
    }

    #[test]
    fn tally_counts_failures_by_kind() {
        let mut t = Tally { attempted: 4, ..Tally::default() };
        check_labels(&mut t, &[0, 0], &[0, 0]);
        check_labels(&mut t, &[0], &[0, 0]);
        check_labels(&mut t, &[0, 1], &[0, 0]);
        t.fail("wrong_answer");
        assert_eq!(t.failed(), 3);
        assert!(t.breakdown().contains("short_labels=1 wrong_answer=2"));
        assert!(result_json(&t, &[]).starts_with("{\"correct\": false, \"attempted\": 4"));
    }

    #[test]
    fn scratch_dirs_are_removed_on_drop() {
        let root = std::env::temp_dir();
        let dir = ScratchDir::new(&root, "gzperf-selftest").expect("create");
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("f"), b"x").expect("write");
        drop(dir);
        assert!(!path.exists());
    }
}
