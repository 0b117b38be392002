//! Sample summaries: nearest-rank percentiles that are only trusted with
//! at least ten samples beyond them, medians, and process memory.

use crate::calib::Speed;
use crate::specs::Rng;

/// Samples kept per [`Samples`] by default.
const KEEP: usize = 50_000;

/// Latency samples of one op class, in milliseconds.
///
/// At most `cap` values are kept, as a uniform random sample of all
/// pushed (reservoir sampling), so the benchmark's own memory does not
/// grow with the program's throughput and skew `peak_rss_mb`. Count and
/// mean cover every value.
#[derive(Clone)]
pub struct Samples {
    ms: Vec<f64>,
    cap: usize,
    count: u64,
    sum: f64,
    sorted: bool,
    rng: Rng,
}

impl Default for Samples {
    fn default() -> Self {
        Samples::with_cap(KEEP)
    }
}

impl Samples {
    pub fn with_cap(cap: usize) -> Self {
        Samples {
            ms: Vec::new(),
            cap: cap.max(1),
            count: 0,
            sum: 0.0,
            sorted: false,
            rng: Rng::new(cap as u64),
        }
    }

    pub fn push(&mut self, ms: f64) {
        self.count += 1;
        self.sum += ms;
        self.sorted = false;
        if self.ms.len() < self.cap && self.count == self.ms.len() as u64 + 1 {
            self.ms.push(ms);
        } else {
            let j = self.rng.below(self.count) as usize;
            if j < self.ms.len() {
                self.ms[j] = ms;
            }
        }
    }

    /// Pushed values per kept value.
    fn stride(&self) -> f64 {
        self.count as f64 / self.ms.len().max(1) as f64
    }

    /// Keeps a uniform random `keep` of the kept values.
    fn thin(&mut self, keep: usize) {
        let mut rng = self.rng.clone();
        rng.shuffle(&mut self.ms);
        self.ms.truncate(keep);
        self.rng = rng;
    }

    /// Adds `other`'s values, thinning whichever side is sampled more
    /// densely so every kept value stands for the same number of pushes.
    pub fn extend(&mut self, other: &Samples) {
        if other.count == 0 {
            return;
        }
        let mut theirs = other.clone();
        if self.count > 0 {
            let (mine, their) = (self.stride(), other.stride());
            if mine < their {
                self.thin((self.count as f64 / their).round() as usize);
            } else if their < mine {
                theirs.thin((other.count as f64 / mine).round() as usize);
            }
        }
        self.ms.extend_from_slice(&theirs.ms);
        self.count += other.count;
        self.sum += other.sum;
        self.sorted = false;
        if self.ms.len() > self.cap {
            self.thin(self.cap);
        }
    }

    /// Values pushed.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum / self.count as f64
    }

    /// Nearest-rank percentile `q` in (0, 1).
    pub fn percentile(&mut self, q: f64) -> f64 {
        if self.ms.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.ms.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        self.ms[rank(self.ms.len(), q) - 1]
    }

    /// Every value multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> Samples {
        let mut s = self.clone();
        for v in &mut s.ms {
            *v *= factor;
        }
        s.sum *= factor;
        s
    }

    /// Whether at least ten samples lie beyond percentile `q`.
    pub fn reportable(&self, q: f64) -> bool {
        self.ms.len() >= rank(self.ms.len(), q) + 10
    }
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// One stretch of a closed-loop window: ops completed, its wall time,
/// their latencies, and the host speed over it.
#[derive(Default)]
pub struct Slice {
    pub ops: u64,
    pub seconds: f64,
    pub latency: Samples,
    pub speed: Speed,
}

impl Slice {
    /// An empty slice of `seconds` keeping at most `keep` latencies.
    pub fn new(seconds: f64, keep: usize) -> Self {
        Slice {
            ops: 0,
            seconds,
            latency: Samples::with_cap(keep),
            speed: Speed::default(),
        }
    }

    /// This slice at the reference host speed (see `calib`).
    pub fn at_reference(&self) -> Slice {
        let f = self.speed.scale();
        Slice {
            ops: self.ops,
            seconds: self.seconds * f,
            latency: self.latency.scaled(f),
            speed: Speed::default(),
        }
    }
}

/// `slices` as one slice, each at the reference host speed (see `calib`).
/// The pooled slice keeps every kernel time, so its `speed` tells how fast
/// the host ran over the whole window.
pub fn at_reference(slices: &[Slice]) -> Slice {
    let mut all = pooled(&slices.iter().map(Slice::at_reference).collect::<Vec<_>>());
    for s in slices {
        all.speed.extend(&s.speed);
    }
    all
}

/// `slices` as one slice.
pub fn pooled(slices: &[Slice]) -> Slice {
    let mut all = Slice::default();
    for s in slices {
        all.ops += s.ops;
        all.seconds += s.seconds;
        all.latency.extend(&s.latency);
        all.speed.extend(&s.speed);
    }
    all
}

/// Median of a small list (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}
