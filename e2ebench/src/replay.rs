//! The outside-in replay behind every per-layer number.
//!
//! A cell (configuration x workload) is replayed twice, back to back:
//! once leaf by leaf -- `ChipSimulator::run_with_scratch` then
//! `MeasurementRig::try_measure` for each invocation, on the seeds the
//! runner's documented seed policy gives -- and once whole, through
//! `Runner::try_measure` on a fresh runner of the workload's fidelity.
//! The whole call must reproduce the leaf replay's numbers, which
//! checks that the replay times the same work the program does.
//!
//! The simulator memoizes miss rates and interval-model results process
//! wide, so the whole call finds the memos the leaf pass filled. To split
//! its time fairly, the simulator leaves are then run once more on the
//! same warm memos (`WARM_SIM`); the core layer's own overhead is the
//! whole call minus that warm simulation time and the sensor time.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use lhr_bench::Fidelity;
use lhr_core::{Evaluation, Harness};
use lhr_obs::{MemoryRecorder, Obs, Recorder};
use lhr_sensors::MeasurementRig;
use lhr_uarch::{ChipConfig, ChipSimulator, ProcessorId, SimScratch};
use lhr_units::Watts;
use lhr_workloads::Workload;

use crate::ledger::Tracer;

/// The first simulator call of a cell: what the program pays.
pub const SIM: &str = "ChipSimulator::run_with_scratch";

/// The same call again after the whole runner call, memos warm.
pub const WARM_SIM: &str = "ChipSimulator::run_with_scratch (memo warm)";

/// The simulator a fidelity's runner drives (`Runner::fast()` shortens
/// it to 80 slices).
fn simulator(fidelity: Fidelity) -> ChipSimulator {
    match fidelity {
        Fidelity::Quick => ChipSimulator::new().with_target_slices(80),
        Fidelity::Standard | Fidelity::Paper => ChipSimulator::new(),
    }
}

/// The instruction scale a fidelity's runner applies to every workload.
fn instruction_scale(fidelity: Fidelity) -> f64 {
    match fidelity {
        Fidelity::Quick => 0.02,
        Fidelity::Standard | Fidelity::Paper => 1.0,
    }
}

/// The runner's seed policy (`lhr_core::runner`): base seed, FNV over
/// workload and configuration label, invocation mixed in.
fn seed_for(workload: &str, config: &str, invocation: usize) -> u64 {
    let mut h = 0x1bad_b002_u64 ^ 0xcbf2_9ce4_8422_2325;
    for b in workload.bytes().chain(config.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^ (invocation as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Counts the replay accumulates beside its spans.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ReplayCounts {
    /// `run_with_scratch` calls.
    pub uarch_runs: u64,
    /// Instructions retired across those runs.
    pub instructions: u64,
    /// Waveform slices simulated.
    pub slices: u64,
    /// `try_measure` calls on the rig.
    pub sensor_runs: u64,
    /// Power samples the rig reconstructed.
    pub sensor_samples: u64,
    /// Cells whose whole-call result differed from the leaf replay.
    pub mismatches: u64,
}

/// Replays cells leaf by leaf and whole, recording spans on a tracer.
pub struct CellReplay {
    fidelity: Fidelity,
    sim: ChipSimulator,
    scratch: SimScratch,
    rigs: HashMap<ProcessorId, MeasurementRig>,
    harness: Harness,
    memory: Arc<MemoryRecorder>,
    /// What the replay counted.
    pub counts: ReplayCounts,
}

impl CellReplay {
    /// A replay at `fidelity`, with a fresh runner observed in memory.
    #[must_use]
    pub fn new(fidelity: Fidelity) -> Self {
        let memory = Arc::new(MemoryRecorder::default());
        let obs = Obs::fanout(vec![Arc::clone(&memory) as Arc<dyn Recorder>]);
        Self {
            fidelity,
            sim: simulator(fidelity),
            scratch: SimScratch::default(),
            rigs: HashMap::new(),
            harness: fidelity.harness().with_observer(obs),
            memory,
            counts: ReplayCounts::default(),
        }
    }

    /// The replay runner's counters (`runner.measurements`, ...).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.memory.snapshot().counter(name)
    }

    /// Replays one cell: leaves first, then the whole runner call.
    ///
    /// # Errors
    ///
    /// A rig that cannot be built, a rejected sample, or a failed
    /// runner measurement.
    #[allow(clippy::cast_precision_loss)]
    pub fn cell(
        &mut self,
        t: &mut Tracer,
        config: &ChipConfig,
        workload: &Workload,
    ) -> Result<(), String> {
        let spec = config.spec();
        if let std::collections::hash_map::Entry::Vacant(slot) = self.rigs.entry(spec.id) {
            let rig = t
                .time("sensors", "MeasurementRig::for_max_power", || {
                    MeasurementRig::for_max_power(
                        Watts::new(spec.power.tdp_w),
                        0x0d1e_5ee0 ^ spec.id as u64,
                    )
                })
                .map_err(|e| format!("calibrate {}: {e}", spec.short))?;
            slot.insert(rig);
        }
        let label = config.label();
        let mut scaled = workload.clone();
        let scale = instruction_scale(self.fidelity);
        if (scale - 1.0).abs() > 1e-12 {
            scaled.scale_trace(scale);
        }
        let n = self.harness.runner().invocations_for(workload);
        let (mut time_sum, mut power_sum) = (0.0, 0.0);
        for k in 0..n {
            let seed = seed_for(workload.name(), &label, k);
            let (sim, scratch) = (&self.sim, &mut self.scratch);
            let run = t.time("uarch", SIM, || {
                sim.run_with_scratch(config, &scaled, seed, scratch)
            });
            self.counts.uarch_runs += 1;
            self.counts.instructions += run.instructions;
            self.counts.slices += run.waveform.len() as u64;
            let rig = self.rigs.get_mut(&spec.id).expect("inserted above");
            let m = t
                .time("sensors", "MeasurementRig::try_measure", || {
                    rig.try_measure(&run.waveform, seed ^ 0x50_c3)
                })
                .map_err(|e| format!("rig {}: {e}", spec.short))?;
            self.counts.sensor_runs += 1;
            self.counts.sensor_samples += m.samples.len() as u64;
            time_sum += run.time.value();
            power_sum += m.average_power.value();
        }
        let runner = self.harness.runner();
        let (whole, _) = t
            .time("core", "Runner::try_measure", || {
                runner.try_measure(config, workload)
            })
            .map_err(|e| e.to_string())?;
        for k in 0..n {
            let seed = seed_for(workload.name(), &label, k);
            let (sim, scratch) = (&self.sim, &mut self.scratch);
            t.time("uarch", WARM_SIM, || {
                sim.run_with_scratch(config, &scaled, seed, scratch)
            });
        }
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
        if !close(whole.time.mean(), time_sum / n as f64)
            || !close(whole.power.mean(), power_sum / n as f64)
        {
            self.counts.mismatches += 1;
        }
        Ok(())
    }
}

/// Re-appends `journal`'s records through the campaign journal's public
/// append (each line sealed and fsynced) into `dest`; returns the count.
///
/// # Errors
///
/// Read, open or append failures, or a record whose seal does not open.
pub fn replay_journal(t: &mut Tracer, journal: &Path, dest: &Path) -> Result<u64, String> {
    use lhr_bench::campaign::{open_line, JournalWriter};
    let text =
        std::fs::read_to_string(journal).map_err(|e| format!("read {}: {e}", journal.display()))?;
    let writer = t
        .time("bench", "JournalWriter::create", || {
            JournalWriter::create(dest)
        })
        .map_err(|e| format!("create {}: {e}", dest.display()))?;
    let mut appends = 0;
    for line in text.lines() {
        let body = open_line(line)
            .ok_or_else(|| format!("unsealed journal line in {}", journal.display()))?;
        t.time("bench", "JournalWriter::record_raw", || {
            writer.record_raw(body.to_owned())
        })
        .map_err(|e| format!("append: {e}"))?;
        appends += 1;
    }
    Ok(appends)
}

/// Rewrites every file of `src` into `dest` through
/// `artifact::write_atomic`; returns the count.
///
/// # Errors
///
/// Read or write failures.
pub fn replay_writes(
    t: &mut Tracer,
    files: &[(String, Vec<u8>)],
    dest: &Path,
) -> Result<u64, String> {
    for (name, bytes) in files {
        let path = dest.join(name);
        t.time("bench", "artifact::write_atomic", || {
            lhr_bench::artifact::write_atomic(&path, bytes)
        })
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(files.len() as u64)
}

/// What the store replay measured.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct StoreCounts {
    /// `Store::upsert` calls (one cell each, as the server records them).
    pub upserts: u64,
    /// Live rows after reopening.
    pub rows: u64,
}

/// Upserts `cells` one by one into a fresh store in `dir` (one sealed,
/// fsynced line per column each, as the server's resolve path does),
/// reopens it -- recovering every segment from disk -- and runs every
/// query over it.
///
/// # Errors
///
/// Store I/O or query failures.
pub fn replay_store(
    t: &mut Tracer,
    dir: &Path,
    cells: &[(ChipConfig, Evaluation)],
    queries: &[(String, String)],
) -> Result<StoreCounts, String> {
    use lhr_store::{CellRow, Store};
    let open = |t: &mut Tracer| {
        t.time("store", "Store::open", || Store::open(dir))
            .map_err(|e| format!("open {}: {e}", dir.display()))
    };
    let store = open(t)?;
    for (config, eval) in cells {
        let row = [CellRow::from_evaluation(config, eval)];
        t.time("store", "Store::upsert", || store.upsert(&row))
            .map_err(|e| format!("upsert: {e}"))?;
    }
    drop(store);
    let store = open(t)?;
    for (name, text) in queries {
        t.time("store", "Store::query", || store.query(text))
            .map_err(|e| format!("query {name}: {e}"))?;
    }
    Ok(StoreCounts {
        upserts: cells.len() as u64,
        rows: store.len() as u64,
    })
}

/// The repository's query files (`queries/*.lhq`), sorted by name.
///
/// # Errors
///
/// A missing or unreadable directory.
pub fn load_queries() -> Result<Vec<(String, String)>, String> {
    let dir = Path::new("queries");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "lhq") {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let name = path
                .file_stem()
                .map_or_else(String::new, |s| s.to_string_lossy().into_owned());
            out.push((name, text));
        }
    }
    out.sort();
    if out.is_empty() {
        return Err("no queries/*.lhq".to_owned());
    }
    Ok(out)
}
