//! Output checks: a corrupted artifact or response body is a failed op,
//! and failed ops drive `ok_ratio` below 1. These run in process; no
//! program needs to be built.

use lhr_e2ebench::report::{Report, Tail, Window};
use lhr_e2ebench::serve::{
    check_artifacts, check_samples, expected_artifact, CampaignGen, CampaignSpec, Cell, Oracle,
};

fn ok_ratio(attempted: u64, failed: u64) -> f64 {
    let w = Window {
        setups_s: vec![1.0],
        op_walls_s: vec![1.0],
        latencies_ms: vec![1.0],
        requests: 1,
        cells: 1,
        window_s: 1.0,
        attempted,
        failed,
        peak_rss_mib: 1.0,
    };
    Report::from_window(&w, Tail::Max)
        .get("ok_ratio")
        .expect("ok_ratio")
}

fn flip_a_digit(body: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    let at = out
        .iter()
        .rposition(u8::is_ascii_digit)
        .expect("a number in the body");
    out[at] = if out[at] == b'9' { b'8' } else { out[at] + 1 };
    out
}

#[test]
fn a_corrupted_cell_body_is_a_failed_op() {
    let mut oracle = Oracle::new();
    let cell = Cell {
        chip: "c2d-65",
        config: "2C1T@2.000".to_owned(),
        workload: "jess",
    };
    let good = oracle
        .cell(&cell)
        .expect("in-process measurement")
        .2
        .clone()
        .into_bytes();
    let samples = vec![(cell.clone(), good.clone()), (cell, flip_a_digit(&good))];
    let bad = check_samples(&mut oracle, &samples).expect("oracle");
    assert_eq!(bad, 1);
    assert!(ok_ratio(samples.len() as u64, bad) < 1.0);
}

#[test]
fn a_corrupted_campaign_artifact_is_a_failed_op() {
    let mut oracle = Oracle::new();
    let spec = CampaignGen::new(3).batch().remove(0);
    let good = expected_artifact(&mut oracle, "c0001", &spec)
        .expect("render")
        .into_bytes();
    let bad = flip_a_digit(&good);
    let served: Vec<(&str, &CampaignSpec, &[u8])> =
        vec![("c0001", &spec, &good), ("c0001", &spec, &bad)];
    let failed = check_artifacts(&mut oracle, &served).expect("oracle");
    assert_eq!(failed, 1);
    assert!(ok_ratio(served.len() as u64, failed) < 1.0);
}

#[test]
fn campaign_batches_span_three_tenants_on_fresh_configurations() {
    let mut gen = CampaignGen::new(5);
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..20 {
        let batch = gen.batch();
        let tenants: std::collections::BTreeSet<_> = batch.iter().map(|c| c.tenant).collect();
        assert_eq!(tenants.len(), 3);
        for spec in &batch {
            for cell in spec.cells() {
                assert!(
                    seen.insert(cell.clone()),
                    "cell {cell:?} repeats, so it would be cached"
                );
            }
        }
    }
    assert_eq!(
        CampaignGen::new(5).batch(),
        CampaignGen::new(5).batch(),
        "same seed, same inputs"
    );
}
