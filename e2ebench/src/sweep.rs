//! `sweep_standard`: an in-process Standard-fidelity `Harness` (61
//! workloads, 3 invocations, `with_jobs(2)`) sweeping one figure-7 chip
//! row -- the i7 (45) with Turbo off at evenly spaced clocks. The seed
//! fixes the order the row is swept in. Each op evaluates one
//! configuration; it is ok when its `GroupMetrics` digest matches
//! `e2ebench/reference/sweep_standard.txt`.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use lhr_bench::artifact::fnv64;
use lhr_core::{GroupMetrics, Harness};
use lhr_obs::{MemoryRecorder, Obs, Recorder};
use lhr_uarch::{ChipConfig, ProcessorId};
use lhr_units::Hertz;

use crate::ledger::Tracer;
use crate::regen::load_reference;
use crate::replay::CellReplay;
use crate::report::{Report, Tail, Window};
use crate::util::{median, peak_rss_mib, Rng};
use crate::Args;
use lhr_bench::Fidelity;

/// Where the reference digests live, relative to the checkout root.
pub const REFERENCE: &str = "e2ebench/reference/sweep_standard.txt";

/// Operating points in the swept row.
const POINTS: usize = 8;

/// Cells the traced pass replays, and the configurations at the end of
/// the sweep order they are drawn from.
const REPLAY_CELLS: usize = 6;
const REPLAY_CONFIGS: usize = 2;

/// The swept row: the i7 (45), Turbo off, `POINTS` clocks from its
/// minimum to its base clock.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn row() -> Vec<ChipConfig> {
    let spec = ProcessorId::CoreI7_920.spec();
    let (lo, hi) = (spec.min_clock.value(), spec.base_clock.value());
    (0..POINTS)
        .map(|i| {
            let f = lo + (hi - lo) * i as f64 / (POINTS - 1) as f64;
            ChipConfig::stock(spec)
                .with_clock(Hertz::new(f))
                .and_then(|c| c.with_turbo(false))
                .expect("clock within the chip's range")
        })
        .collect()
}

/// The digest of a configuration's group metrics.
#[must_use]
pub fn digest(metrics: &GroupMetrics) -> u64 {
    fnv64(format!("{metrics:?}").as_bytes())
}

fn harness() -> Harness {
    Fidelity::Standard.harness().with_jobs(2)
}

/// Evaluates one configuration; returns `(wall, cells, ok)`.
fn op(
    harness: &Harness,
    config: &ChipConfig,
    reference: &BTreeMap<String, u64>,
) -> (f64, u64, bool) {
    let t = Instant::now();
    let report = harness.try_evaluate_config(config);
    let wall = t.elapsed().as_secs_f64();
    let cells = report.successes().len() as u64;
    let ok = report.failures().next().is_none()
        && report
            .metrics()
            .is_some_and(|m| reference.get(&config.label()) == Some(&digest(&m)));
    (wall, cells, ok)
}

/// Runs the workload.
///
/// # Errors
///
/// A missing reference file or a failed reference computation.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut configs = row();
    if args.record {
        let h = harness();
        let mut text =
            String::from("# fnv64 of each swept configuration's GroupMetrics (Debug form)\n");
        for c in &configs {
            let m = h.try_evaluate_config(c).metrics().ok_or("a cell failed")?;
            text.push_str(&format!("{} {:016x}\n", c.label(), digest(&m)));
        }
        std::fs::write(REFERENCE, text).map_err(|e| format!("write {REFERENCE}: {e}"))?;
        return Ok(Report {
            attempted: 1,
            ..Report::default()
        });
    }
    let reference = load_reference(Path::new(REFERENCE))?;
    Rng::new(args.seed, 21).shuffle(&mut configs);

    let t = Instant::now();
    let h = harness();
    h.try_reference().map_err(|e| format!("reference: {e}"))?;
    let setup_s = t.elapsed().as_secs_f64();

    if args.trace {
        return traced(args, h, &configs, &reference, setup_s);
    }
    let mut w = Window {
        setups_s: vec![setup_s],
        ..Window::default()
    };
    let t0 = Instant::now();
    #[allow(clippy::cast_precision_loss)]
    for config in &configs {
        if w.attempted > 0 && t0.elapsed().as_secs_f64() >= args.seconds as f64 {
            break;
        }
        let (wall, cells, ok) = op(&h, config, &reference);
        w.attempted += 1;
        if ok {
            w.op_walls_s.push(wall);
            w.latencies_ms.push(wall * 1e3);
            w.cells += cells;
            w.requests += 1;
        } else {
            w.failed += 1;
        }
    }
    w.window_s = t0.elapsed().as_secs_f64();
    w.peak_rss_mib = peak_rss_mib("self").unwrap_or(f64::NAN);
    Ok(Report::from_window(&w, Tail::Max).into_e2e())
}

#[allow(clippy::cast_precision_loss)]
fn traced(
    args: &Args,
    plain_h: Harness,
    configs: &[ChipConfig],
    reference: &BTreeMap<String, u64>,
    setup_s: f64,
) -> Result<Report, String> {
    // A second harness with an observer armed from the start, its
    // reference set preloaded from the first; the two alternate ops.
    let memory = Arc::new(MemoryRecorder::default());
    let obs = Obs::fanout(vec![Arc::clone(&memory) as Arc<dyn Recorder>]);
    let traced_h = Fidelity::Standard.harness().with_observer(obs).with_jobs(2);
    for w in plain_h.workloads() {
        for id in lhr_core::REFERENCE_PROCESSORS {
            let config = ChipConfig::stock(id.spec());
            let (m, health) = plain_h
                .runner()
                .try_measure(&config, w)
                .map_err(|e| e.to_string())?;
            traced_h.runner().preload(&config, w, m, health);
        }
    }
    traced_h
        .try_reference()
        .map_err(|e| format!("reference: {e}"))?;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first = None;
    let t0 = Instant::now();
    for config in configs {
        if !traced.is_empty() && t0.elapsed().as_secs_f64() >= args.seconds as f64 {
            break;
        }
        let with_trace = attempted % 2 == 1;
        let before = memory.snapshot();
        let (wall, _, ok) = op(
            if with_trace { &traced_h } else { &plain_h },
            config,
            reference,
        );
        attempted += 1;
        failed += u64::from(!ok);
        if with_trace {
            traced.push(wall);
            first.get_or_insert_with(|| (before, memory.snapshot()));
        } else {
            plain.push(wall);
        }
    }
    let mut r = Report {
        attempted,
        failed,
        ..Report::default()
    };
    r.set(
        "obs.trace_overhead_ratio",
        median(&traced) / median(&plain) - 1.0,
        "ratio",
    );
    r.set("core.reference_ms", setup_s * 1e3, "ms");
    let Some((before, after)) = &first else {
        return Ok(r.into_per_layer());
    };
    // Counts over the first traced op: one configuration's 61 cells.
    let count = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    let span_ns = |name: &str| {
        let ns = |s: &lhr_obs::MetricsSnapshot| s.spans.get(name).map_or(0, |s| s.total_nanos);
        (ns(after) - ns(before)) as f64
    };
    let (measurements, hits) = (count("runner.measurements"), count("runner.cache_hits"));
    r.set("core.measurements", measurements, "count");
    r.set("core.cache_hits", hits, "count");
    r.set(
        "core.cache_hit_ratio",
        hits / (hits + measurements).max(1.0),
        "ratio",
    );
    r.set("core.retries", count("runner.retries"), "count");
    r.set(
        "core.busy_cores",
        span_ns("runner.measure") / span_ns("harness.cell").max(1.0),
        "cores",
    );

    // Replay a seeded sample of the row's cells outside in, from the
    // configurations at the end of the sweep order: a window shorter
    // than the whole row never reaches them, so their interval-model
    // memos are as cold as a configuration's first sweep finds them.
    let workloads = plain_h.workloads().to_vec();
    let mut rng = Rng::new(args.seed, 22);
    let unswept = &configs[configs.len() - REPLAY_CONFIGS..];
    let sample: Vec<_> = (0..REPLAY_CELLS)
        .map(|_| {
            (
                &unswept[rng.below(unswept.len())],
                workloads[rng.below(workloads.len())],
            )
        })
        .collect();
    let mut replay = CellReplay::new(Fidelity::Standard);
    let mut t = Tracer::new();
    for (config, w) in sample {
        replay.cell(&mut t, config, w)?;
    }
    r.add_replay(&t, &replay.counts);
    t.write_jsonl(&args.workload, args.seed)?;
    Ok(r.into_per_layer())
}
