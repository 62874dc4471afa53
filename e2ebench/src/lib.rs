//! End-to-end benchmark of the lhr reproduction.
//!
//! Four seeded workloads, each driven from one process with at most two
//! threads and two connections:
//!
//! - `regen_quick`: the shipped `repro_all --quick --jobs 2`, one fresh
//!   process per regeneration, every artifact digest-checked.
//! - `sweep_standard`: an in-process Standard-fidelity `Harness` sweeping
//!   one figure-7 chip row, every `GroupMetrics` digest-checked.
//! - `serve_cells`: the shipped `lhr_serve` under two closed-loop clients
//!   whose requests are mostly cold `/v1/cell` measurements.
//! - `serve_campaign`: the same server running seeded multi-tenant
//!   campaigns beside an interactive reader.
//!
//! `--trace 0` measures the end-to-end metrics ([`E2E`]) with tracing
//! off. `--trace 1` runs the workload traced, then replays its own cells
//! through each crate's public entry points ([`replay`]) and reports the
//! per-layer metrics ([`PER_LAYER`]) and the layer ledger ([`ledger`]).
//! See `e2ebench/README.md`.

pub mod ledger;
pub mod regen;
pub mod replay;
pub mod report;
pub mod serve;
pub mod sweep;
pub mod util;

pub use report::{Report, E2E, PER_LAYER};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "regen_quick",
    "sweep_standard",
    "serve_cells",
    "serve_campaign",
];

/// The command line the benchmark is driven with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: u64,
    /// Whether this is the traced pass.
    pub trace: bool,
    /// Re-record the reference digests instead of measuring.
    pub record: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>
    /// [--record]`.
    ///
    /// # Errors
    ///
    /// A message for a missing, unknown or malformed flag.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 20,
            trace: false,
            record: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                    }
                }
                "--record" => args.record = true,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, got {:?}",
                args.workload
            ));
        }
        if args.seconds == 0 {
            return Err("--seconds must be at least 1".to_owned());
        }
        Ok(args)
    }
}

/// Runs one workload.
///
/// # Errors
///
/// A message when the workload cannot run at all (a program missing, a
/// server that will not start); wrong outputs are not errors, they are
/// counted as failed ops.
pub fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "regen_quick" => regen::run(args),
        "sweep_standard" => sweep::run(args),
        "serve_cells" => serve::run_cells(args),
        "serve_campaign" => serve::run_campaign(args),
        other => Err(format!("unknown workload {other:?}")),
    }
}
