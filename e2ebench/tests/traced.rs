//! The traced pass, end to end: two traced runs per workload at one seed.
//!
//! These tests drive the real programs, so build them first and point
//! the tests at the same build directory:
//!
//! ```text
//! bash e2ebench/run.sh --workload regen_quick --seed 1 --seconds 1 --trace 0
//! CARGO_TARGET_DIR=.bench_build cargo test --release --manifest-path e2ebench/Cargo.toml
//! ```
//!
//! `sweep_standard` computes a Standard reference set (about 37 s) per
//! run, so its test takes a few minutes.

use std::sync::Once;

use lhr_e2ebench::regen::{load_reference, run_against, REFERENCE};
use lhr_e2ebench::report::{DETERMINISTIC, LAYERS};
use lhr_e2ebench::{run, Args, Report};

/// The benchmark runs from the checkout root.
fn at_root() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        std::env::set_current_dir(root).expect("checkout root");
    });
}

fn traced_args(workload: &str, seconds: u64) -> Args {
    Args {
        workload: workload.to_owned(),
        seed: 7,
        seconds,
        trace: true,
        record: false,
    }
}

fn traced(workload: &str, seconds: u64) -> Report {
    at_root();
    let args = traced_args(workload, seconds);
    let report = run(&args).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(report.correct(), "{workload}: {}", report.to_json());
    report
}

fn value(r: &Report, name: &str) -> f64 {
    r.get(name)
        .unwrap_or_else(|| panic!("{name} missing from {}", r.to_json()))
}

/// The named layers plus the named residual add up to the replay's wall
/// time, the residual is not negative, and the replay reproduced the
/// program's own measurements.
fn ledger_adds_up(r: &Report) {
    let wall = value(r, "ledger.wall_ms");
    let residual = value(r, "ledger.residual_ms");
    assert!(residual >= 0.0, "negative residual {residual}");
    let layers: f64 = LAYERS
        .iter()
        .map(|l| value(r, &format!("ledger.{l}_ms")))
        .sum();
    assert!(
        (layers + residual - wall).abs() <= 1e-6 * wall,
        "layers {layers} + residual {residual} != wall {wall}"
    );
    assert!(
        residual < 0.2 * wall,
        "the replay's glue dominates: {residual} of {wall} ms"
    );
    assert_eq!(value(r, "ledger.replay_mismatches"), 0.0);
    assert!(value(r, "uarch.runs") > 0.0 && value(r, "uarch.busy_ms") > 0.0);
    assert!(value(r, "sensors.samples") > 0.0);
}

/// The server's own split: every measurement runs inside a request or a
/// campaign cell, so the serving layer's overhead is not negative.
fn server_split_holds(r: &Report) {
    assert!(value(r, "serve.measure_busy_ms") > 0.0);
    let overhead = value(r, "serve.overhead_ms");
    assert!(overhead >= 0.0, "negative serve.overhead_ms {overhead}");
}

/// Both runs report the same deterministic counts.
fn counts_repeat(workload: &str, a: &Report, b: &Report) {
    for name in DETERMINISTIC {
        assert_eq!(
            value(a, name),
            value(b, name),
            "{workload}: {name} differs between two traced runs"
        );
    }
}

#[test]
fn regen_quick_ledger_and_counts() {
    let (a, b) = (traced("regen_quick", 3), traced("regen_quick", 3));
    counts_repeat("regen_quick", &a, &b);
    for r in [&a, &b] {
        ledger_adds_up(r);
        // The op's own split: process + pre-pass + experiments + main's
        // residual, none of them negative.
        for name in [
            "bench.process_ms",
            "bench.prepass_ms",
            "core.exp_ms",
            "bench.unattributed_ms",
        ] {
            assert!(value(r, name) >= 0.0, "{name} = {}", value(r, name));
        }
        assert!(value(r, "core.measurements") > 0.0);
        assert!(value(r, "core.late_measurements") > 0.0);
        assert!(value(r, "bench.journal_appends") > 0.0);
    }
}

#[test]
fn sweep_standard_ledger_and_counts() {
    let (a, b) = (traced("sweep_standard", 1), traced("sweep_standard", 1));
    counts_repeat("sweep_standard", &a, &b);
    for r in [&a, &b] {
        ledger_adds_up(r);
        assert_eq!(
            value(r, "core.measurements"),
            61.0,
            "one swept configuration"
        );
    }
}

#[test]
fn serve_cells_ledger_and_counts() {
    let (a, b) = (traced("serve_cells", 4), traced("serve_cells", 4));
    counts_repeat("serve_cells", &a, &b);
    for r in [&a, &b] {
        ledger_adds_up(r);
        server_split_holds(r);
        assert!(value(r, "serve.cells_measured") > 0.0);
        assert!(value(r, "store.upserts") > 0.0);
        // A first touch simulates; a re-read and the health check do not.
        let miss = value(r, "serve.miss_ms");
        for name in ["serve.floor_ms", "serve.hit_ms"] {
            assert!(
                value(r, name) < miss,
                "{name} {} >= miss {miss}",
                value(r, name)
            );
        }
    }
}

#[test]
fn serve_campaign_ledger_and_counts() {
    let (a, b) = (traced("serve_campaign", 4), traced("serve_campaign", 4));
    counts_repeat("serve_campaign", &a, &b);
    for r in [&a, &b] {
        ledger_adds_up(r);
        server_split_holds(r);
        assert!(value(r, "serve.campaign_cells") > 0.0);
        assert!(value(r, "bench.journal_appends") > 0.0);
    }
}

#[test]
fn a_traced_regeneration_against_a_corrupted_reference_ends_and_fails() {
    at_root();
    let mut reference = load_reference(std::path::Path::new(REFERENCE)).expect("reference");
    *reference.get_mut("figure7.txt").expect("figure7") ^= 1;
    // Every op fails its digest check, so no traced op is kept; the pass
    // must still end and report the failures.
    let r = run_against(&traced_args("regen_quick", 1), &reference).expect("the pass runs");
    assert!(r.attempted >= 2, "a traced op was attempted");
    assert_eq!(r.failed, r.attempted, "every op failed its check");
    assert!(!r.correct());
}
