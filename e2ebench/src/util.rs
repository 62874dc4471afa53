//! Small shared pieces: seeded randomness, order statistics, process
//! memory, and the locations of the programs under test.

use std::path::{Path, PathBuf};

use lhr_trace::{Rng64, SplitMix64};

/// The benchmark's only source of randomness, so one seed fixes every
/// generated input: `lhr_trace`'s SplitMix64, split per stream, plus the
/// draws the generators need.
#[derive(Debug, Clone)]
pub struct Rng(SplitMix64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(SplitMix64::new(seed).split(stream))
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.0.next_f64()
    }

    /// Uniform in `0..n` (`n > 0`).
    #[allow(clippy::cast_possible_truncation)]
    pub fn below(&mut self, n: usize) -> usize {
        self.0.next_below(n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// A Zipf(1) rank in `0..n`: rank 0 is the most popular.
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    pub fn zipf(&mut self, n: usize) -> usize {
        // Inverse of the continuous approximation of the harmonic CDF.
        let h = (n as f64 + 1.0).ln();
        let r = (self.unit() * h).exp() - 1.0;
        (r as usize).min(n - 1)
    }
}

/// The `q`-quantile (`0..=1`) of `values` by linear interpolation
/// between order statistics; `NaN` when empty.
#[must_use]
#[allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The directory cargo builds into: `$CARGO_TARGET_DIR`, or
/// `.bench_build` under the checkout when unset.
#[must_use]
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
}

/// A release binary of the repository's workspace.
///
/// # Errors
///
/// A message naming the missing binary.
pub fn program(name: &str) -> Result<PathBuf, String> {
    let path = target_dir().join("release").join(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} is not built (run e2ebench/run.sh)",
            path.display()
        ))
    }
}

/// A fresh, empty work directory for one run under the build directory.
///
/// # Errors
///
/// Filesystem errors creating it.
pub fn fresh_dir(tag: &str) -> Result<PathBuf, String> {
    // Unique per call, so runs in one process (the tests) never share one.
    static CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = target_dir()
        .join("e2ebench-work")
        .join(format!("{tag}-{}-{call}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Removes a work directory, ignoring errors (it lives under the build
/// directory, which is disposable).
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// The `VmHWM` (peak resident set) of a live process, in MiB.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// The largest peak resident set of any child process this process has
/// waited for, in MiB (`getrusage(RUSAGE_CHILDREN)`).
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn children_peak_rss_mib() -> f64 {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the x86-64
    // and aarch64 Linux layout (two timevals, then fourteen longs), which
    // is all `getrusage` writes; the call has no other preconditions.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert!((median(&v) - 2.5).abs() < 1e-12);
        assert!((quantile(&v, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&v, 1.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rng_repeats_per_seed_and_zipf_favours_low_ranks() {
        let a: Vec<usize> = (0..4).map(|_| Rng::new(7, 1).below(1 << 30)).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).below(1 << 30), Rng::new(7, 3).below(1 << 30));
        let mut r = Rng::new(7, 2);
        let low = (0..10_000).filter(|_| r.zipf(1000) < 10).count();
        assert!(
            low > 2_000,
            "Zipf(1) puts ~1/3 of mass on the top 10 of 1000, got {low}"
        );
    }
}
