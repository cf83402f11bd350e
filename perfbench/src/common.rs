//! Shared pieces: metrics, the correctness ledger, latency samples,
//! percentiles, seeded generators and process facts.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::time::{Duration, Instant};

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What one workload run produced.
pub struct Outcome {
    /// End-to-end metrics (untraced run), in print order.
    pub metrics: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    pub ledger: Ledger,
}

/// Every checked output: attempted and failed counts, plus the first
/// few failure reasons for stderr.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Ledger {
    /// Records one checked output; `Err` carries why it was wrong.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.fail(why);
        }
    }

    /// Records `count` outputs that share one verdict.
    pub fn check_many(&mut self, count: u64, result: Result<(), String>) {
        self.attempted += count;
        if let Err(why) = result {
            self.failed += count - 1;
            self.fail(why);
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(why);
        }
    }

    pub fn absorb(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for why in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(why);
            }
        }
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A uniform sample of at most `cap` latencies (reservoir sampling), in
/// a buffer touched up front so its footprint does not depend on how
/// many operations a run completes, plus per-second totals of operations
/// and busy time for the throughput.
pub struct Samples {
    buf: Vec<u64>,
    len: usize,
    seen: u64,
    rng: StdRng,
    start: Instant,
    /// Per one-second window since `start`: operations and busy seconds.
    windows: Vec<(u64, f64)>,
}

impl Samples {
    pub fn new(cap: usize, seed: u64) -> Self {
        // Filled with a non-zero value so every page is resident now: the
        // footprint then does not depend on how many samples arrive.
        Samples {
            buf: vec![u64::MAX; cap.max(1)],
            len: 0,
            seen: 0,
            rng: StdRng::seed_from_u64(seed ^ 0x5A3F_0D1E),
            start: Instant::now(),
            windows: Vec::new(),
        }
    }

    fn record(&mut self, value: u64) {
        self.seen += 1;
        if self.len < self.buf.len() {
            self.buf[self.len] = value;
            self.len += 1;
        } else {
            let slot = self.rng.next_u64() % self.seen;
            if let Some(cell) = self.buf.get_mut(slot as usize) {
                *cell = value;
            }
        }
    }

    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_nanos() as u64);
        let k = self.start.elapsed().as_secs() as usize;
        if self.windows.len() <= k {
            self.windows.resize(k + 1, (0, 0.0));
        }
        self.windows[k].0 += 1;
        self.windows[k].1 += d.as_secs_f64();
    }

    /// Operations per busy second of each of `clients` side-by-side
    /// callers: the median over one-second windows, leaving out the last,
    /// partial one. The median keeps a burst of interference from the
    /// rest of the machine from deciding a run's figure.
    pub fn ops_per_s(&self, clients: usize) -> f64 {
        let full = match self.windows.len() {
            0 | 1 => &self.windows[..],
            n => &self.windows[..n - 1],
        };
        let rates: Vec<f64> = full
            .iter()
            .filter(|w| w.1 > 0.0)
            .map(|&(ops, busy)| ops as f64 / (busy / clients as f64))
            .collect();
        median_f64(&rates)
    }

    /// Operations observed, kept or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept samples, sorted ascending.
    pub fn sorted(&self) -> Vec<u64> {
        let mut v = self.buf[..self.len].to_vec();
        v.sort_unstable();
        v
    }

    pub fn merge(&mut self, other: &Samples) {
        for &v in &other.buf[..other.len] {
            self.record(v);
        }
        // Merged reservoirs count what their sources saw, and their
        // windows add up by index.
        self.seen += other.seen - other.len as u64;
        if self.windows.len() < other.windows.len() {
            self.windows.resize(other.windows.len(), (0, 0.0));
        }
        for (mine, theirs) in self.windows.iter_mut().zip(&other.windows) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
    }
}

/// Nearest-rank percentile (`p` in 0..=1) of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Samples strictly above the nearest-rank percentile `p`.
pub fn beyond(sorted: &[u64], p: f64) -> usize {
    let cut = percentile(sorted, p) as u64;
    sorted.len() - sorted.partition_point(|&v| v <= cut)
}

pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn median_ns(values: &[u64]) -> f64 {
    let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    median_f64(&v)
}

pub const GIB: f64 = (1u64 << 30) as f64;

/// Bytes per second expressed in GiB/s.
pub fn gibps(bytes: f64, seconds: f64) -> f64 {
    bytes / GIB / seconds.max(1e-12)
}

/// A derived seed: independent streams for every purpose and index.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(derive(seed, stream))
}

/// Inverse-CDF sampler over ranks `0..n` with weight `1 / (rank+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n.max(1))
            .map(|rank| {
                acc += 1.0 / (rank as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The process high-water resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Builds the workload state again and again, timing each build: at
/// least 5 times and until a second has passed, at most 50 times. Keeps
/// the last result; earlier ones are dropped before the next build
/// starts, so the footprint of one set-up is what the high-water mark
/// sees. `setup_s` is the median, and cheap set-ups get more samples.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    const MIN: usize = 5;
    const MAX: usize = 50;
    const BUDGET: Duration = Duration::from_secs(1);
    let started = Instant::now();
    let mut seconds = Vec::with_capacity(MAX);
    loop {
        let t = Instant::now();
        let built = build();
        seconds.push(t.elapsed().as_secs_f64());
        let enough = seconds.len() >= MIN && started.elapsed() >= BUDGET;
        if enough || seconds.len() == MAX {
            return (built, seconds);
        }
        drop(built);
    }
}

/// Latency metrics over one sample set: median, p99 and the counts that
/// say how far to trust the tail.
pub fn latency_metrics(samples: &Samples, out: &mut Vec<Metric>) {
    let sorted = samples.sorted();
    out.push(metric("op_p50_us", percentile(&sorted, 0.50) / 1e3, "us"));
    out.push(metric("op_p99_us", percentile(&sorted, 0.99) / 1e3, "us"));
    out.push(metric("op_samples", sorted.len() as f64, "count"));
    out.push(metric(
        "op_beyond_p99",
        beyond(&sorted, 0.99) as f64,
        "count",
    ));
}
