//! Host-speed calibration.
//!
//! The shared 2-vCPU hosts this runs on change speed by up to 1.8× for
//! seconds to minutes at a time, and the change shows in thread CPU time as
//! much as in wall time (it is contention for the physical core, not
//! stolen time). No window length averages that out: a whole run can fall
//! in a slow phase. So the benchmark times a fixed kernel of its own beside
//! the program's ops, and scales each stretch's timings by how fast the
//! kernel ran in that stretch: a timing `t` measured while the kernel took
//! `k` ms is reported as `t * REFERENCE_MS / k`, the time at the speed at
//! which the kernel takes `REFERENCE_MS`. The kernel is the benchmark's
//! own code, so a change to the program moves the scaled figures as much
//! as the raw ones; the raw figures are printed beside them.

use crate::stats::median;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time at the reference speed, ms.
pub const REFERENCE_MS: f64 = 0.25;

/// A fixed piece of work shaped like the program's: a min-max partition
/// DP over float costs (the planner), then a JSON-like document rendered
/// from its table and scanned back into an ordered map (the server's
/// decode and render). Returns a checksum so none of it is optimised away.
fn kernel() -> u64 {
    const N: usize = 128;
    const STAGES: usize = 8;
    let cost: Vec<f64> = (0..N)
        .map(|i| 1.0 + ((i * 7919) % 97) as f64 / 13.0)
        .collect();
    let mut prefix = vec![0.0; N + 1];
    for i in 0..N {
        prefix[i + 1] = prefix[i] + cost[i];
    }
    // best[s][j]: the least max stage cost covering the first j layers in s stages.
    let mut best = vec![vec![f64::INFINITY; N + 1]; STAGES + 1];
    best[0][0] = 0.0;
    for s in 1..=STAGES {
        for j in 1..=N {
            let mut b = f64::INFINITY;
            for k in (s - 1)..j {
                let c = best[s - 1][k].max(prefix[j] - prefix[k]);
                if c < b {
                    b = c;
                }
            }
            best[s][j] = b;
        }
    }
    let mut h = 0u64;
    for round in 0..1 {
        let mut doc = String::from("{");
        for (s, row) in best.iter().enumerate() {
            for (j, v) in row.iter().enumerate().step_by(8) {
                let v = if v.is_finite() { *v } else { -1.0 };
                doc.push_str(&format!("\"s{s}_{j}_{round}\":{v:.6},"));
            }
        }
        doc.pop();
        doc.push('}');
        let mut map = BTreeMap::new();
        for field in doc[1..doc.len() - 1].split(',') {
            if let Some((key, value)) = field.split_once(':') {
                map.insert(
                    key.trim_matches('"').to_owned(),
                    value.parse::<f64>().unwrap_or(0.0),
                );
            }
        }
        for (k, v) in &map {
            h = h
                .wrapping_mul(31)
                .wrapping_add(k.len() as u64 ^ v.to_bits());
        }
    }
    h ^ best[STAGES][N].to_bits()
}

/// Times one run of the kernel, ms.
pub fn probe() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_secs_f64() * 1e3
}

/// Kernel runs timed just before and just after a timed set-up.
const AROUND_SETUP: usize = 8;

/// Runs `f` and returns what it made and its wall time in seconds at the
/// reference speed, timing the kernel just before and after it (outside
/// the returned time).
pub fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut speed = Speed::default();
    speed.sample(AROUND_SETUP);
    let t = Instant::now();
    let made = f()?;
    let seconds = t.elapsed().as_secs_f64();
    speed.sample(AROUND_SETUP);
    Ok((made, seconds * speed.scale()))
}

/// Kernel times of one stretch, ms.
#[derive(Clone, Default)]
pub struct Speed {
    ms: Vec<f64>,
}

impl Speed {
    /// Times `n` kernel runs into this stretch; returns the time spent.
    pub fn sample(&mut self, n: usize) -> f64 {
        let t = Instant::now();
        for _ in 0..n {
            self.ms.push(probe());
        }
        t.elapsed().as_secs_f64()
    }

    pub fn push(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    pub fn is_empty(&self) -> bool {
        self.ms.is_empty()
    }

    pub fn extend(&mut self, other: &Speed) {
        self.ms.extend_from_slice(&other.ms);
    }

    /// What a timing of this stretch is multiplied by to give it at the
    /// reference speed: `REFERENCE_MS` over the median kernel time.
    pub fn scale(&self) -> f64 {
        if self.ms.is_empty() {
            return 1.0;
        }
        REFERENCE_MS / median(&self.ms)
    }
}
