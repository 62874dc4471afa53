//! Metric names, the end-to-end summary every workload shares, and the
//! one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::ledger::Tracer;
use crate::replay::{ReplayCounts, SIM, WARM_SIM};
use crate::util::{median, quantile};

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const E2E: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cells_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("req_per_s", "1/s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The sixteen experiments `repro_all` renders, in its order.
pub const EXPERIMENTS: [&str; 16] = lhr_bench::EXPERIMENTS;

/// Per-layer metrics of the traced pass, besides the sixteen
/// `core.exp.<name>_ms`: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("uarch.runs", "count"),
    ("uarch.busy_ms", "ms"),
    ("uarch.minst_per_s", "Minst/s"),
    ("uarch.ns_per_slice", "ns"),
    ("sensors.runs", "count"),
    ("sensors.samples", "count"),
    ("sensors.busy_ms", "ms"),
    ("sensors.calibrate_ms", "ms"),
    ("core.measurements", "count"),
    ("core.cache_hits", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.retries", "count"),
    ("core.measure_busy_ms", "ms"),
    ("core.overhead_ms", "ms"),
    ("core.busy_cores", "cores"),
    ("core.reference_ms", "ms"),
    ("core.late_measurements", "count"),
    ("core.exp_ms", "ms"),
    ("bench.prepass_ms", "ms"),
    ("bench.journal_appends", "count"),
    ("bench.journal_ms", "ms"),
    ("bench.write_ms", "ms"),
    ("bench.process_ms", "ms"),
    ("bench.unattributed_ms", "ms"),
    ("store.upserts", "count"),
    ("store.rows", "count"),
    ("store.upsert_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.query_ms", "ms"),
    ("serve.floor_ms", "ms"),
    ("serve.hit_ms", "ms"),
    ("serve.miss_ms", "ms"),
    ("serve.query_ms", "ms"),
    ("serve.cells_measured", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.coalesce_hits", "count"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("serve.request_busy_ms", "ms"),
    ("serve.measure_busy_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.campaign_cells", "count"),
    ("serve.quota_deferrals", "count"),
    ("serve.journal_errors", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("ledger.wall_ms", "ms"),
    ("ledger.uarch_ms", "ms"),
    ("ledger.sensors_ms", "ms"),
    ("ledger.core_ms", "ms"),
    ("ledger.bench_ms", "ms"),
    ("ledger.store_ms", "ms"),
    ("ledger.residual_ms", "ms"),
    ("ledger.replay_mismatches", "count"),
];

/// Every per-layer metric name with its unit, the experiment timings
/// included, in `BENCHMARK.json` order.
#[must_use]
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for (name, unit) in PER_LAYER {
        out.push((name.to_owned(), unit));
        if name == "core.exp_ms" {
            out.extend(
                EXPERIMENTS
                    .iter()
                    .map(|e| (format!("core.exp.{e}_ms"), "ms")),
            );
        }
    }
    out
}

/// The layers a replay's spans are attributed to.
pub const LAYERS: [&str; 5] = ["uarch", "sensors", "core", "bench", "store"];

/// Deterministic counts: identical across two traced runs at one seed.
pub const DETERMINISTIC: [&str; 7] = [
    "uarch.runs",
    "core.measurements",
    "core.late_measurements",
    "sensors.samples",
    "bench.journal_appends",
    "serve.cells_measured",
    "store.upserts",
];

/// Which percentile a workload reports as `tail_ms`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tail {
    /// A fixed percentile, for workloads with hundreds of samples.
    Quantile(f64),
    /// The slowest op, for batch workloads with a handful of ops.
    Max,
}

/// What a timed window observed; every workload reduces to this.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Set-up times (launch to first timed op), one per set-up.
    pub setups_s: Vec<f64>,
    /// Wall time of each completed op.
    pub op_walls_s: Vec<f64>,
    /// Latency of each request the p50/tail describe, in ms.
    pub latencies_ms: Vec<f64>,
    /// Requests completed in the closed loop.
    pub requests: u64,
    /// Uncached cells resolved.
    pub cells: u64,
    /// Length of the measured window.
    pub window_s: f64,
    /// Ops attempted (requests, regenerations, sweeps, campaigns).
    pub attempted: u64,
    /// Ops that failed or whose output check did not pass.
    pub failed: u64,
    /// Peak resident set of the process doing the work.
    pub peak_rss_mib: f64,
}

/// The result a run prints.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// Metric name to `(value, unit)`.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    /// The end-to-end metrics of a window.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn from_window(w: &Window, tail: Tail) -> Self {
        let mut r = Report {
            attempted: w.attempted,
            failed: w.failed,
            metrics: BTreeMap::new(),
        };
        let ok = w.attempted.saturating_sub(w.failed) as f64;
        let tail_ms = match tail {
            Tail::Quantile(q) => quantile(&w.latencies_ms, q),
            Tail::Max => w.latencies_ms.iter().copied().fold(f64::NAN, f64::max),
        };
        let values = [
            median(&w.setups_s),
            median(&w.op_walls_s),
            w.cells as f64 / w.window_s,
            median(&w.latencies_ms),
            tail_ms,
            w.requests as f64 / w.window_s,
            ok / w.attempted.max(1) as f64,
            w.peak_rss_mib,
        ];
        for ((name, unit), v) in E2E.iter().zip(values) {
            r.metrics.insert((*name).to_owned(), (v, unit));
        }
        r
    }

    /// Sets one metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_owned(), (value, unit));
    }

    /// A metric's value, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|(v, _)| *v)
    }

    /// Keeps exactly the per-layer metrics, filling those a workload
    /// does not exercise with 0.
    #[must_use]
    pub fn into_per_layer(self) -> Self {
        let mut metrics = BTreeMap::new();
        for (name, unit) in per_layer_names() {
            let v = self.metrics.get(&name).map_or(0.0, |(v, _)| *v);
            metrics.insert(name, (v, unit));
        }
        Report { metrics, ..self }
    }

    /// Keeps exactly the end-to-end metrics.
    #[must_use]
    pub fn into_e2e(self) -> Self {
        let metrics = self
            .metrics
            .into_iter()
            .filter(|(name, _)| E2E.iter().any(|(n, _)| n == name))
            .collect();
        Report { metrics, ..self }
    }

    /// Whether every op passed and every value is a finite number.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.metrics.values().all(|(v, _)| v.is_finite())
    }

    /// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// Adds the replay's uarch, sensors, core-overhead and ledger numbers
    /// (`uarch.busy_ms` counts first simulator calls only; the ledger's
    /// uarch layer also holds the warm re-runs).
    #[allow(clippy::cast_precision_loss)]
    pub fn add_replay(&mut self, t: &Tracer, counts: &ReplayCounts) {
        let ledger = t.ledger();
        let uarch_ms = t.call_ms(SIM);
        let sensors_ms = ledger.layer_ms("sensors");
        let measure_ms = t.call_ms("Runner::try_measure");
        self.set("uarch.runs", counts.uarch_runs as f64, "count");
        self.set("uarch.busy_ms", uarch_ms, "ms");
        self.set(
            "uarch.minst_per_s",
            counts.instructions as f64 / (uarch_ms * 1e3).max(1e-9),
            "Minst/s",
        );
        self.set(
            "uarch.ns_per_slice",
            uarch_ms * 1e6 / (counts.slices.max(1) as f64),
            "ns",
        );
        self.set("sensors.runs", counts.sensor_runs as f64, "count");
        self.set("sensors.samples", counts.sensor_samples as f64, "count");
        self.set("sensors.busy_ms", sensors_ms, "ms");
        self.set(
            "sensors.calibrate_ms",
            t.call_ms("MeasurementRig::for_max_power"),
            "ms",
        );
        self.set("core.measure_busy_ms", measure_ms, "ms");
        self.set(
            "core.overhead_ms",
            measure_ms - t.call_ms(WARM_SIM) - sensors_ms,
            "ms",
        );
        self.set("ledger.wall_ms", ledger.wall_ns as f64 / 1e6, "ms");
        for layer in LAYERS {
            self.set(&format!("ledger.{layer}_ms"), ledger.layer_ms(layer), "ms");
        }
        self.set(
            "ledger.residual_ms",
            ledger.residual_ns() as f64 / 1e6,
            "ms",
        );
        self.set(
            "ledger.replay_mismatches",
            counts.mismatches as f64,
            "count",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_list_has_every_experiment_and_unique_names() {
        let names = per_layer_names();
        assert_eq!(names.len(), PER_LAYER.len() + 16);
        let mut sorted: Vec<&String> = names.iter().map(|(n, _)| n).collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        for d in DETERMINISTIC {
            assert!(
                names.iter().any(|(n, _)| n == d),
                "{d} is not a per-layer metric"
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the checkout root");
        let listed = |section: &str| -> Vec<(String, String)> {
            let body = text.split(&format!("\"{section}\"")).nth(1).expect(section);
            let body = &body[..body.find(']').expect("array end")];
            body.split('{')
                .skip(1)
                .map(|obj| {
                    let field = |key: &str| {
                        let rest = obj.split(&format!("\"{key}\": \"")).nth(1).expect(key);
                        rest[..rest.find('"').expect("closing quote")].to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = E2E
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn a_failed_op_lowers_ok_ratio_and_marks_the_run_incorrect() {
        let w = Window {
            setups_s: vec![0.5],
            op_walls_s: vec![1.0, 2.0],
            latencies_ms: vec![1.0, 2.0],
            requests: 2,
            cells: 10,
            window_s: 3.0,
            attempted: 4,
            failed: 1,
            peak_rss_mib: 12.0,
        };
        let r = Report::from_window(&w, Tail::Max);
        assert!((r.get("ok_ratio").unwrap() - 0.75).abs() < 1e-12);
        assert!(!r.correct());
        assert!(r
            .to_json()
            .starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1"));
    }
}
