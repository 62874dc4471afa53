//! `lhr-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Exits 1,
//! printing no result, when the workload cannot run at all.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match lhr_e2ebench::Args::parse(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match lhr_e2ebench::run(&args) {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{}: {msg}", args.workload);
            ExitCode::FAILURE
        }
    }
}
