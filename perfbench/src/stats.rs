//! Order statistics, peak memory, and the reference-scaled clock.

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples lying strictly above the `p`th percentile.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    let cut = percentile(samples, p);
    samples.iter().filter(|&&x| x > cut).count()
}

/// Split `len` consecutive calls into `n` windows of (near) equal count.
pub fn windows(len: usize, n: usize) -> Vec<std::ops::Range<usize>> {
    let n = n.min(len).max(1);
    (0..n).map(|w| w * len / n..(w + 1) * len / n).collect()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What the reference kernel co-timed with each call exercises. Each
/// workload picks the one closest to its own bottleneck.
#[derive(Debug, Clone, Copy)]
pub enum Kernel {
    /// Sort 8192 pseudo-random u64s: cache-resident, CPU-bound work.
    Cache,
    /// Map a 1M-entry u64 column to distances and select the 64 smallest:
    /// a miniature of the full-shard scan, bound by memory bandwidth.
    Stream,
}

impl Kernel {
    /// The kernel's time at the host speed every scaled timing is reported
    /// at: its time in the fast phase of a 2-vCPU cloud host.
    fn nominal_s(self) -> f64 {
        match self {
            Kernel::Cache => 130e-6,
            Kernel::Stream => STREAM_NOMINAL_S,
        }
    }

    fn run(self) -> f64 {
        match self {
            Kernel::Cache => {
                let mut v: Vec<u64> = (0..8192u64)
                    .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
                    .collect();
                let t = std::time::Instant::now();
                v.sort_unstable();
                std::hint::black_box(&v);
                t.elapsed().as_secs_f64()
            }
            Kernel::Stream => STREAM.with(|cell| {
                let (column, keys) = &mut *cell.borrow_mut();
                let t = std::time::Instant::now();
                keys.clear();
                keys.extend(column.iter().map(|&x| x.abs_diff(1 << 31)));
                keys.select_nth_unstable(64);
                std::hint::black_box(&keys[..64]);
                t.elapsed().as_secs_f64()
            }),
        }
    }
}

const STREAM_NOMINAL_S: f64 = 3.5e-3;

thread_local! {
    /// The stream kernel's column and its reused output buffer.
    static STREAM: std::cell::RefCell<(Vec<u64>, Vec<u64>)> = std::cell::RefCell::new((
        (0..1u64 << 20).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32).collect(),
        Vec::with_capacity(1 << 20),
    ));
}

/// One call's wall time, and where its co-timed reference sample sits.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub raw: f64,
    at: usize,
}

/// Wall-clock timer that runs a reference kernel after every timed call.
///
/// Shared cloud hosts change single-thread speed by up to ~1.6x in phases
/// lasting seconds, and memory bandwidth with their neighbours' load. Each
/// call's time is scaled by the kernel's nominal time over its median time
/// around that call (the nine nearest samples), which cancels the host's
/// phase while keeping any change in the program's own work.
#[derive(Debug)]
pub struct Clock {
    kernel: Kernel,
    reference: Vec<f64>,
}

impl Clock {
    pub fn new(kernel: Kernel) -> Self {
        Clock { kernel, reference: Vec::new() }
    }

    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let t = std::time::Instant::now();
        let out = f();
        let raw = t.elapsed().as_secs_f64();
        self.reference.push(self.kernel.run());
        (out, Timed { raw, at: self.reference.len() - 1 })
    }

    /// `t`'s wall time at the nominal host speed.
    pub fn scaled(&self, t: &Timed) -> f64 {
        let window = &self.reference[t.at.saturating_sub(4)..(t.at + 5).min(self.reference.len())];
        t.raw * self.kernel.nominal_s() / median(window)
    }

    pub fn reference_us(&self) -> Vec<f64> {
        self.reference.iter().map(|r| r * 1e6).collect()
    }
}

/// Medians of `n` equal windows of consecutive samples.
pub fn window_medians(samples: &[f64], n: usize) -> Vec<f64> {
    windows(samples.len(), n).into_iter().map(|w| median(&samples[w])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(beyond(&v, 95.0), 5);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn windows_cover_every_call_once() {
        let w = windows(23, 10);
        assert_eq!(w.len(), 10);
        assert_eq!(w.first().unwrap().start, 0);
        assert_eq!(w.last().unwrap().end, 23);
        assert!(w.windows(2).all(|p| p[0].end == p[1].start));
    }
}
