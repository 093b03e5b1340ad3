//! Shared pieces: seeded draws, percentiles, the metric/report types,
//! output digests, peak memory, and run provenance.

use std::time::Duration;

/// SplitMix64: a tiny seeded generator, so the benchmark's inputs depend
/// on `--seed` alone and not on any crate's random-number stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of run seed `seed` (one stream
    /// per operation keeps each operation's draw independent of how many
    /// operations ran before it).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in [0, n).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`
    /// events per second, in seconds.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// A seeded low-discrepancy sequence over `dims` dimensions: coordinate
/// `k` of point `i` is `frac(shift_k + i * alpha_k)` (the R-sequence,
/// shifted at random by the seed). A run's draws then cover the input
/// space evenly, so its percentiles vary far less from seed to seed than
/// with independent draws, while one seed still gives one set of inputs.
#[derive(Debug, Clone)]
pub struct Lds {
    shift: Vec<f64>,
    alpha: Vec<f64>,
}

impl Lds {
    pub fn new(seed: u64, dims: usize) -> Self {
        // The generalized golden ratio: the positive root of
        // x^(dims+1) = x + 1.
        let mut phi = 2.0f64;
        for _ in 0..64 {
            phi = (1.0 + phi).powf(1.0 / (dims as f64 + 1.0));
        }
        let mut r = Rng::new(seed, 0x1d5);
        Lds {
            shift: (0..dims).map(|_| r.unit()).collect(),
            alpha: (1..=dims)
                .map(|k| (1.0 / phi).powi(k as i32).fract())
                .collect(),
        }
    }

    /// Coordinate `k` of point `i`, in [0, 1).
    pub fn at(&self, i: u64, k: usize) -> f64 {
        (self.shift[k] + i as f64 * self.alpha[k]).fract()
    }
}

/// Map a uniform `u` in [0, 1) onto [lo, hi) linearly or log-uniformly.
pub fn lerp(u: f64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * u
}

pub fn log_lerp(u: f64, lo: f64, hi: f64) -> f64 {
    (lo.ln() + (hi.ln() - lo.ln()) * u).exp()
}

/// Percentile `q` (in (0, 1)) of an ascending slice: the mean of the
/// order statistics whose ranks lie within `w = min(0.05, (1 - q) / 2)`
/// of `q`. Averaging over that band keeps a percentile from jumping
/// between neighbouring order statistics when a few values move; with a
/// band of one value it is the nearest-rank percentile.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let w = (0.05f64).min((1.0 - q) / 2.0);
    let rank = |p: f64| ((p * n as f64).ceil() as usize).clamp(1, n);
    let (lo, hi) = (rank(q - w), rank(q + w));
    sorted[lo - 1..hi].iter().sum::<f64>() / (hi - lo + 1) as f64
}

/// Sort a copy and take `percentile`.
pub fn pct_of(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, q)
}

pub fn median(values: &[f64]) -> f64 {
    pct_of(values, 0.5)
}

/// The least-disturbed tenth of repeated measurements of one time: their
/// tenth percentile, a band mean (see [`percentile`]). The host can only
/// slow a measurement down (CPU steal, a busy neighbour on a shared
/// machine), so the fast end of the repeats estimates the program's own
/// cost; a band rather than the least keeps one lucky repeat from
/// deciding it.
pub fn least_disturbed_time(values: &[f64]) -> f64 {
    pct_of(values, 0.1)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a percentile or mean, when there are several.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples: None,
        }
    }

    pub fn n(mut self, samples: usize) -> Self {
        self.samples = Some(samples);
        self
    }
}

/// Everything one run produces, before it is printed.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed (error reply, error result, or a check
    /// mismatch).
    pub failed: u64,
    /// Descriptions of failed checks (printed to stderr).
    pub failures: Vec<String>,
    /// The gated end-to-end metrics (names in `BENCHMARK.json`).
    pub e2e: Vec<Metric>,
    /// The same measurements under their workload-specific names, plus
    /// workload-specific extras (accuracy, serve steps).
    pub named: Vec<Metric>,
    /// Per-layer metrics from the traced replay, by name (units and
    /// order come from `crate::LAYER_METRICS`).
    pub layers: std::collections::BTreeMap<&'static str, f64>,
    /// Output digest over the workload's fixed-size output prefix.
    pub digest: Digest,
    /// Threads the workload ran its operations on.
    pub threads: usize,
    /// Free-form lines for the human-readable part of the output.
    pub notes: Vec<String>,
}

impl Report {
    /// Record a failed check against one operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    pub fn e2e(&mut self, m: Metric) {
        self.e2e.push(m);
    }

    pub fn named(&mut self, m: Metric) {
        self.named.push(m);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}

/// FNV-1a over output bits, so two commits can be compared for
/// bit-identity of what a seed produces.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Cumulative (steal, total) CPU ticks of the machine, from `/proc/stat`.
/// Steal is time a hypervisor ran something else while the virtual
/// machine's CPUs were ready; it shows as noise in every timing.
pub fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Where and with what the run was made.
#[derive(Debug)]
pub struct Provenance {
    pub commit: String,
    pub source_digest: String,
    pub cpu: String,
    pub nproc: usize,
    pub rustc: String,
}

impl Provenance {
    pub fn collect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Provenance {
            commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into()),
            source_digest: source_digest(),
            cpu,
            nproc: nproc(),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// First line of a command's standard output, if it ran and succeeded.
/// `output` waits for the child, so nothing is left running.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .next()
        .map(|l| l.trim().to_string())
        .filter(|l| !l.is_empty())
}

/// A digest of the program's sources (the workspace manifests and every
/// file under `crates/`), standing in for the commit id where the
/// checkout is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut d = Digest::default();
    for f in &files {
        let Ok(bytes) = std::fs::read(f) else {
            continue;
        };
        d.bytes(f.to_string_lossy().as_bytes());
        d.bytes(&bytes);
    }
    d.hex()
}
