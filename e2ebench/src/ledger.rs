//! Outside-in spans and the layer ledger they add up to.
//!
//! The traced pass replays a workload's own cells through each crate's
//! public entry points, one call at a time on one thread. Every call is
//! timed by [`Tracer::time`], which takes `&mut self`: a span cannot
//! open while another is open, so spans never overlap and the wall time
//! of the replay splits exactly into per-layer busy time plus a
//! non-negative residual (the benchmark's own glue between calls).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer the called entry point belongs to (`uarch`, `sensors`,
    /// `core`, `bench`, `store`).
    pub layer: &'static str,
    /// The entry point, e.g. `ChipSimulator::run_with_scratch`.
    pub call: &'static str,
    /// Start, in nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Keeps spans in memory until [`Tracer::write_jsonl`].
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Starts the ledger's wall clock.
    #[must_use]
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Times one call into `layer`.
    #[allow(clippy::cast_possible_truncation)]
    pub fn time<T>(&mut self, layer: &'static str, call: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            layer,
            call,
            start_ns: start.duration_since(self.t0).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        });
        out
    }

    /// Busy milliseconds of every span matching `call`.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn call_ms(&self, call: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.call == call)
            .map(|s| s.dur_ns as f64 / 1e6)
            .sum()
    }

    /// Closes the ledger: per-layer busy time and the residual, against
    /// the wall time since [`Tracer::new`].
    #[must_use]
    #[allow(clippy::cast_possible_truncation)]
    pub fn ledger(&self) -> Ledger {
        let wall_ns = self.t0.elapsed().as_nanos() as u64;
        let mut layers: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &self.spans {
            *layers.entry(s.layer).or_default() += s.dur_ns;
        }
        Ledger { wall_ns, layers }
    }

    /// Writes the spans as JSON lines (one object per span) to
    /// `$CARGO_TARGET_DIR/e2ebench-spans/<workload>-seed<seed>.jsonl`,
    /// which outlives the run's work directory.
    ///
    /// # Errors
    ///
    /// The write error.
    pub fn write_jsonl(&self, workload: &str, seed: u64) -> Result<(), String> {
        let dir = crate::util::target_dir().join("e2ebench-spans");
        let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
        let mut out = String::with_capacity(96 * self.spans.len());
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"layer\":\"{}\",\"call\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.layer, s.call, s.start_ns, s.dur_ns
            );
        }
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, out))
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// The replay's wall time split by layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ledger {
    /// Wall time of the whole replay.
    pub wall_ns: u64,
    /// Busy time per layer.
    pub layers: BTreeMap<&'static str, u64>,
}

impl Ledger {
    /// Wall time minus every layer's busy time: the benchmark's own work
    /// between calls. Never negative, because spans never overlap.
    #[must_use]
    pub fn residual_ns(&self) -> i128 {
        i128::from(self.wall_ns) - self.layers.values().map(|&v| i128::from(v)).sum::<i128>()
    }

    /// Busy milliseconds of one layer (0 when it was never called).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn layer_ms(&self, layer: &str) -> f64 {
        self.layers.get(layer).map_or(0.0, |&ns| ns as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_add_up_to_the_wall_with_a_non_negative_residual() {
        let mut t = Tracer::new();
        let spin = |n: u64| (0..n).fold(0u64, |a, b| std::hint::black_box(a ^ b));
        t.time("uarch", "a", || spin(200_000));
        t.time("sensors", "b", || spin(100_000));
        t.time("uarch", "a", || spin(50_000));
        let l = t.ledger();
        let sum: u64 = l.layers.values().sum();
        assert!(l.residual_ns() >= 0);
        assert_eq!(i128::from(sum) + l.residual_ns(), i128::from(l.wall_ns));
        assert_eq!(l.layers.len(), 2);
    }
}
