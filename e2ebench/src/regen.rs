//! `regen_quick`: the shipped `repro_all --quick --jobs 2`, one fresh
//! process per regeneration into a fresh out-dir, so process-global
//! memos and the scratch pool start cold as they do for users.
//!
//! An op is ok when the process exits 0 and all sixteen artifacts match
//! the digests recorded in `e2ebench/reference/regen_quick.txt`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use lhr_bench::artifact::fnv64;
use lhr_bench::campaign::{parse_num, parse_str};
use lhr_uarch::ChipConfig;

use crate::ledger::Tracer;
use crate::replay::{replay_journal, replay_writes, CellReplay};
use crate::report::{Report, Tail, Window, EXPERIMENTS};
use crate::util::{children_peak_rss_mib, fresh_dir, median, program, remove_dir, Rng};
use crate::Args;
use lhr_bench::Fidelity;

/// Where the reference digests live, relative to the checkout root.
pub const REFERENCE: &str = "e2ebench/reference/regen_quick.txt";

/// Set-ups per run; the reported `setup_s` is their median.
const SETUPS: usize = 5;

/// Cells of the run's journal the traced pass replays.
const REPLAY_CELLS: usize = 64;

/// One `repro_all` process, timed from outside.
#[derive(Debug, Clone)]
pub struct Launch {
    /// Spawn to exit.
    pub wall_s: f64,
    /// Exit code (`None` when killed by a signal).
    pub code: Option<i32>,
    /// Spawn to the first stdout line (printed just before `main`
    /// starts its own clock).
    pub first_line_s: f64,
    /// Spawn to the `total:` line (printed when `main` stops it).
    pub total_line_s: f64,
}

/// Runs `repro_all` with `args`, reading its stdout as it goes (it is
/// line-buffered, so line arrival times bracket `main`'s own clock).
///
/// # Errors
///
/// A spawn or wait failure.
pub fn launch(bin: &Path, args: &[&str]) -> Result<Launch, String> {
    let t = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let (mut first, mut total) = (None, None);
    for line in BufReader::new(stdout).lines() {
        let Ok(line) = line else { break };
        let at = t.elapsed().as_secs_f64();
        first.get_or_insert(at);
        if line.starts_with("total: ") {
            total = Some(at);
        }
    }
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    let wall_s = t.elapsed().as_secs_f64();
    Ok(Launch {
        wall_s,
        code: status.code(),
        first_line_s: first.unwrap_or(wall_s),
        total_line_s: total.unwrap_or(wall_s),
    })
}

/// Loads `name digest` lines.
///
/// # Errors
///
/// A missing or malformed reference file.
pub fn load_reference(path: &Path) -> Result<BTreeMap<String, u64>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let (name, hex) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("bad reference line {line:?}"))?;
        let digest =
            u64::from_str_radix(hex.trim(), 16).map_err(|e| format!("bad digest {hex:?}: {e}"))?;
        out.insert(name.to_owned(), digest);
    }
    Ok(out)
}

/// The digest of every experiment's artifact in `out` (missing files
/// are absent from the map).
#[must_use]
pub fn artifact_digests(out: &Path) -> BTreeMap<String, u64> {
    EXPERIMENTS
        .iter()
        .filter_map(|name| {
            let file = format!("{name}.txt");
            std::fs::read(out.join(&file))
                .ok()
                .map(|b| (file, fnv64(&b)))
        })
        .collect()
}

/// Whether `out` holds exactly the reference artifacts.
#[must_use]
pub fn artifacts_match(out: &Path, reference: &BTreeMap<String, u64>) -> bool {
    reference.len() == EXPERIMENTS.len() && artifact_digests(out) == *reference
}

/// Resolved cells in a campaign journal.
#[must_use]
pub fn journal_cells(journal: &Path) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(journal).unwrap_or_default();
    text.lines()
        .filter(|l| l.contains("\"status\":\"ok\""))
        .filter_map(|l| Some((parse_str(l, "cell")?, parse_str(l, "workload")?)))
        .collect()
}

fn regen_args(out: &Path) -> Vec<String> {
    ["--quick", "--jobs", "2", "--out-dir"]
        .iter()
        .map(|s| (*s).to_owned())
        .chain([out.display().to_string()])
        .collect()
}

fn as_strs(v: &[String]) -> Vec<&str> {
    v.iter().map(String::as_str).collect()
}

/// Measures set-up: launch to the first resolved cell, i.e. a
/// `repro_all` aborted after one cell (exit 3), median of [`SETUPS`].
fn setups(bin: &Path, work: &Path) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS {
        let dir = work.join(format!("setup-{i}"));
        let mut a = regen_args(&dir);
        a.extend(["--abort-after".to_owned(), "1".to_owned()]);
        let l = launch(bin, &as_strs(&a))?;
        if l.code != Some(lhr_bench::campaign::EXIT_ABORTED) {
            return Err(format!(
                "set-up launch exited {:?}, expected {}",
                l.code,
                lhr_bench::campaign::EXIT_ABORTED
            ));
        }
        out.push(l.wall_s);
        remove_dir(&dir);
    }
    Ok(out)
}

/// Runs the workload, or with `--record` re-records the reference.
///
/// # Errors
///
/// A missing program or reference, or a set-up that does not behave.
pub fn run(args: &Args) -> Result<Report, String> {
    if args.record {
        return record();
    }
    run_against(args, &load_reference(Path::new(REFERENCE))?)
}

/// Writes the digests of one regeneration to [`REFERENCE`].
fn record() -> Result<Report, String> {
    let bin = program("repro_all")?;
    let work = fresh_dir("regen_quick")?;
    let out = work.join("record");
    let l = launch(&bin, &as_strs(&regen_args(&out)))?;
    if l.code != Some(0) {
        return Err(format!("repro_all exited {:?}", l.code));
    }
    let mut text = String::from("# fnv64 of each `repro_all --quick` artifact\n");
    for (name, d) in artifact_digests(&out) {
        text.push_str(&format!("{name} {d:016x}\n"));
    }
    std::fs::write(REFERENCE, text).map_err(|e| format!("write {REFERENCE}: {e}"))?;
    remove_dir(&work);
    Ok(Report {
        attempted: 1,
        ..Report::default()
    })
}

/// Runs the workload, checking every op's artifacts against `reference`.
///
/// # Errors
///
/// A missing program, or a set-up that does not behave.
pub fn run_against(args: &Args, reference: &BTreeMap<String, u64>) -> Result<Report, String> {
    let bin = program("repro_all")?;
    let work = fresh_dir("regen_quick")?;
    let report = if args.trace {
        traced(args, &bin, &work, reference)
    } else {
        untraced(args, &bin, &work, reference)
    };
    remove_dir(&work);
    report
}

/// One timed regeneration; returns the launch and whether it was ok.
fn op(
    bin: &Path,
    out: &Path,
    trace: Option<&Path>,
    reference: &BTreeMap<String, u64>,
) -> Result<(Launch, bool), String> {
    let mut a = regen_args(out);
    if let Some(t) = trace {
        a.extend(["--trace".to_owned(), t.display().to_string()]);
    }
    let l = launch(bin, &as_strs(&a))?;
    let ok = l.code == Some(0) && artifacts_match(out, reference);
    Ok((l, ok))
}

fn untraced(
    args: &Args,
    bin: &Path,
    work: &Path,
    reference: &BTreeMap<String, u64>,
) -> Result<Report, String> {
    let mut w = Window {
        setups_s: setups(bin, work)?,
        ..Window::default()
    };
    let t0 = Instant::now();
    #[allow(clippy::cast_precision_loss)]
    while w.attempted == 0 || t0.elapsed().as_secs_f64() < args.seconds as f64 {
        let out = work.join(format!("op-{}", w.attempted));
        let (l, ok) = op(bin, &out, None, reference)?;
        w.attempted += 1;
        if ok {
            w.cells += journal_cells(&out.join("campaign.jsonl")).len() as u64;
            w.op_walls_s.push(l.wall_s);
            w.latencies_ms.push(l.wall_s * 1e3);
            w.requests += 1;
        } else {
            w.failed += 1;
        }
        remove_dir(&out);
    }
    w.window_s = t0.elapsed().as_secs_f64();
    w.peak_rss_mib = children_peak_rss_mib();
    Ok(Report::from_window(&w, Tail::Max).into_e2e())
}

/// What one traced `repro_all` exported through `--trace`.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ProgramTrace {
    /// `campaign.run` (the supervised pre-pass), ms.
    pub prepass_ms: f64,
    /// `experiment.<name>` spans, ms.
    pub experiments_ms: BTreeMap<String, f64>,
    /// `runner.measure` spans: count and total ms, split at the end of
    /// the pre-pass.
    pub prepass_measures: u64,
    /// Total ms of pre-pass `runner.measure` spans (across workers).
    pub prepass_measure_ms: f64,
    /// `runner.measure` spans started after the pre-pass ended.
    pub late_measures: u64,
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
}

/// Parses a `--trace` JSON-lines stream.
#[must_use]
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
pub fn parse_trace(text: &str) -> ProgramTrace {
    let mut p = ProgramTrace::default();
    let mut prepass_done = false;
    for line in text.lines() {
        let (Some(ev), Some(name)) = (parse_str(line, "ev"), parse_str(line, "name")) else {
            continue;
        };
        match (ev.as_str(), name.as_str()) {
            ("span_start", "runner.measure") => {
                if prepass_done {
                    p.late_measures += 1;
                } else {
                    p.prepass_measures += 1;
                }
            }
            ("span_end", "runner.measure") if !prepass_done => {
                p.prepass_measure_ms += parse_num(line, "ns").unwrap_or(0.0) / 1e6;
            }
            ("span_end", "campaign.run") => {
                p.prepass_ms = parse_num(line, "ns").unwrap_or(0.0) / 1e6;
                prepass_done = true;
            }
            ("span_end", n) if n.starts_with("experiment.") => {
                let ms = parse_num(line, "ns").unwrap_or(0.0) / 1e6;
                *p.experiments_ms
                    .entry(n["experiment.".len()..].to_owned())
                    .or_default() += ms;
            }
            ("counter", n) => {
                *p.counters.entry(n.to_owned()).or_default() +=
                    parse_num(line, "delta").unwrap_or(0.0) as u64;
            }
            _ => {}
        }
    }
    p
}

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn traced(
    args: &Args,
    bin: &Path,
    work: &Path,
    reference: &BTreeMap<String, u64>,
) -> Result<Report, String> {
    // Alternate untraced and traced regenerations over the window, so
    // both see the same host conditions; keep the first traced op that
    // passed. The window ends once a traced op was attempted, ok or not.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut kept: Option<(PathBuf, PathBuf, Launch)> = None;
    let t0 = Instant::now();
    while attempted < 2 || t0.elapsed().as_secs_f64() < args.seconds as f64 {
        let with_trace = attempted % 2 == 1;
        let out = work.join(format!("op-{attempted}"));
        let trace_file = work.join(format!("op-{attempted}.trace"));
        let (l, ok) = op(
            bin,
            &out,
            with_trace.then_some(trace_file.as_path()),
            reference,
        )?;
        attempted += 1;
        if !ok {
            failed += 1;
        } else if with_trace {
            traced.push(l.wall_s);
            if kept.is_none() {
                kept = Some((out.clone(), trace_file.clone(), l));
                continue;
            }
        } else {
            plain.push(l.wall_s);
        }
        remove_dir(&out);
        let _ = std::fs::remove_file(&trace_file);
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
    let Some((out, trace_file, launch)) = kept else {
        return Ok(r.into_per_layer());
    };

    // The program's own spans and counters from the kept traced op.
    let p =
        parse_trace(&std::fs::read_to_string(&trace_file).map_err(|e| format!("read trace: {e}"))?);
    let exp_ms: f64 = p.experiments_ms.values().sum();
    let in_process_ms = (launch.total_line_s - launch.first_line_s) * 1e3;
    r.set("bench.prepass_ms", p.prepass_ms, "ms");
    r.set(
        "bench.process_ms",
        launch.wall_s * 1e3 - in_process_ms,
        "ms",
    );
    r.set(
        "bench.unattributed_ms",
        in_process_ms - p.prepass_ms - exp_ms,
        "ms",
    );
    r.set("core.exp_ms", exp_ms, "ms");
    for (name, ms) in &p.experiments_ms {
        r.set(&format!("core.exp.{name}_ms"), *ms, "ms");
    }
    let measurements = p.counters.get("runner.measurements").copied().unwrap_or(0);
    let hits = p.counters.get("runner.cache_hits").copied().unwrap_or(0);
    r.set("core.measurements", measurements as f64, "count");
    r.set("core.cache_hits", hits as f64, "count");
    r.set(
        "core.cache_hit_ratio",
        hits as f64 / (hits + measurements).max(1) as f64,
        "ratio",
    );
    r.set(
        "core.retries",
        p.counters.get("runner.retries").copied().unwrap_or(0) as f64,
        "count",
    );
    r.set("core.late_measurements", p.late_measures as f64, "count");
    r.set(
        "core.busy_cores",
        p.prepass_measure_ms / p.prepass_ms.max(1e-9),
        "cores",
    );

    // The outside-in replay of a seeded sample of the op's own cells.
    let journal = out.join("campaign.jsonl");
    // Two workers journal in completion order; sort before sampling.
    let mut cells = journal_cells(&journal);
    cells.sort();
    Rng::new(args.seed, 11).shuffle(&mut cells);
    let configs: BTreeMap<String, ChipConfig> = lhr_core::configs::all_study_configs()
        .into_iter()
        .map(|c| (c.label(), c))
        .collect();
    let mut sample = Vec::with_capacity(REPLAY_CELLS);
    for (label, workload) in cells.iter().take(REPLAY_CELLS) {
        let config = configs
            .get(label)
            .ok_or_else(|| format!("no study config {label:?}"))?;
        let w =
            lhr_workloads::by_name(workload).ok_or_else(|| format!("no workload {workload:?}"))?;
        sample.push((config, w));
    }
    let mut cells_replay = CellReplay::new(Fidelity::Quick);
    let mut t = Tracer::new();
    let harness = Fidelity::Quick.harness();
    t.time("core", "Harness::try_reference", || harness.try_reference())
        .map_err(|e| format!("reference: {e}"))?;
    for (config, w) in sample {
        cells_replay.cell(&mut t, config, w)?;
    }
    let appends = replay_journal(&mut t, &journal, &work.join("replay.jsonl"))?;
    let files: Vec<(String, Vec<u8>)> = EXPERIMENTS
        .iter()
        .filter_map(|n| {
            let f = format!("{n}.txt");
            std::fs::read(out.join(&f)).ok().map(|b| (f, b))
        })
        .collect();
    let replay_out = work.join("replay-out");
    std::fs::create_dir_all(&replay_out).map_err(|e| e.to_string())?;
    replay_writes(&mut t, &files, &replay_out)?;

    r.set(
        "core.reference_ms",
        t.call_ms("Harness::try_reference"),
        "ms",
    );
    r.set("bench.journal_appends", appends as f64, "count");
    r.set(
        "bench.journal_ms",
        t.call_ms("JournalWriter::create") + t.call_ms("JournalWriter::record_raw"),
        "ms",
    );
    r.set("bench.write_ms", t.call_ms("artifact::write_atomic"), "ms");
    // The core layer's busy time in the ledger also holds the reference;
    // the per-cell measure time is the Runner::try_measure spans alone.
    r.add_replay(&t, &cells_replay.counts);
    t.write_jsonl(&args.workload, args.seed)?;
    Ok(r.into_per_layer())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_parser_splits_measurements_at_the_end_of_the_prepass() {
        let text = concat!(
            "{\"ev\":\"span_start\",\"name\":\"campaign.run\",\"id\":1}\n",
            "{\"ev\":\"span_start\",\"name\":\"runner.measure\",\"id\":2,\"parent\":1}\n",
            "{\"ev\":\"span_end\",\"name\":\"runner.measure\",\"id\":2,\"ns\":2000000}\n",
            "{\"ev\":\"counter\",\"name\":\"runner.measurements\",\"delta\":1}\n",
            "{\"ev\":\"span_end\",\"name\":\"campaign.run\",\"id\":1,\"ns\":4000000}\n",
            "{\"ev\":\"span_start\",\"name\":\"experiment.figure1\",\"id\":3}\n",
            "{\"ev\":\"span_start\",\"name\":\"runner.measure\",\"id\":4}\n",
            "{\"ev\":\"span_end\",\"name\":\"runner.measure\",\"id\":4,\"ns\":1000000}\n",
            "{\"ev\":\"counter\",\"name\":\"runner.measurements\",\"delta\":1}\n",
            "{\"ev\":\"span_end\",\"name\":\"experiment.figure1\",\"id\":3,\"ns\":3000000}\n",
        );
        let p = parse_trace(text);
        assert_eq!(p.prepass_measures, 1);
        assert_eq!(p.late_measures, 1);
        assert!((p.prepass_ms - 4.0).abs() < 1e-9);
        assert!((p.prepass_measure_ms - 2.0).abs() < 1e-9);
        assert!((p.experiments_ms["figure1"] - 3.0).abs() < 1e-9);
        assert_eq!(p.counters["runner.measurements"], 2);
    }

    #[test]
    fn a_corrupted_artifact_fails_the_digest_check() {
        let dir = fresh_dir("test-regen-digests").unwrap();
        for name in EXPERIMENTS {
            std::fs::write(dir.join(format!("{name}.txt")), name.as_bytes()).unwrap();
        }
        let reference = artifact_digests(&dir);
        assert!(artifacts_match(&dir, &reference));
        std::fs::write(dir.join("figure7.txt"), b"figure7 with one changed byte").unwrap();
        assert!(!artifacts_match(&dir, &reference));
        std::fs::remove_file(dir.join("table1.txt")).unwrap();
        assert!(!artifacts_match(&dir, &reference));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
