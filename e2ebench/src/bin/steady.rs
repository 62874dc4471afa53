//! Steadiness report: repeats one workload on consecutive seeds and
//! prints, for every end-to-end metric, its median, quartiles and
//! spread (quartile distance over median) against the bound in
//! `BENCHMARK.json`.
//!
//! ```text
//! bash e2ebench/run.sh --workload serve_cells --seed 1 --seconds 1 --trace 0   # builds
//! .bench_build/release/steady --workload serve_cells [--runs 10] [--seed 1] [--seconds 20]
//! ```
//!
//! Run from the root of a checkout. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the exclusive method).

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

fn flag(argv: &[String], name: &str) -> Option<String> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1).cloned())
}

/// `statistics.quantiles(values, n=4)`, method `exclusive`.
#[allow(clippy::cast_precision_loss)]
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return [v.first().copied().unwrap_or(f64::NAN); 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// `(name, bound)` of each end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let e2e = text
        .split("\"end_to_end\"")
        .nth(1)
        .and_then(|t| t.split(']').next())
        .ok_or("no end_to_end")?;
    let field = |obj: &str, key: &str| -> Option<String> {
        let rest = obj.split(&format!("\"{key}\"")).nth(1)?;
        let rest = rest.trim_start().strip_prefix(':')?.trim_start();
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().trim_matches('"').to_owned())
    };
    Ok(e2e
        .split('{')
        .skip(1)
        .filter_map(|obj| Some((field(obj, "name")?, field(obj, "bound")?.parse().ok()?)))
        .collect())
}

/// The `metrics` values of a result line.
fn metrics(line: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Some(body) = line.split("\"metrics\":").nth(1) else {
        return out;
    };
    for part in body
        .split("}, \"")
        .map(|p| p.trim_start_matches(['{', ' ', '"']))
    {
        let Some((name, rest)) = part.split_once('"') else {
            continue;
        };
        if let Some(v) = rest
            .split("\"value\": ")
            .nth(1)
            .and_then(|v| v.split(',').next())
        {
            if let Ok(v) = v.trim().parse() {
                out.insert(name.to_owned(), v);
            }
        }
    }
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(workload) = flag(&argv, "--workload") else {
        eprintln!("usage: steady --workload <name> [--runs N] [--seed S] [--seconds T]");
        return ExitCode::FAILURE;
    };
    let runs: u64 = flag(&argv, "--runs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let seed: u64 = flag(&argv, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let seconds = flag(&argv, "--seconds").unwrap_or_else(|| "20".to_owned());
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let bench = std::env::current_exe()
        .expect("own path")
        .with_file_name("lhr-e2ebench");
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in seed..seed + runs {
        let out = Command::new(&bench)
            .args([
                "--workload",
                &workload,
                "--seed",
                &s.to_string(),
                "--seconds",
                &seconds,
                "--trace",
                "0",
            ])
            .output()
            .expect("run the benchmark");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        if !out.status.success() || !last.contains("\"correct\": true") {
            eprintln!("seed {s}: exit {:?}: {last}", out.status.code());
            return ExitCode::FAILURE;
        }
        println!("seed {s}: {last}");
        for (k, v) in metrics(last) {
            values.entry(k).or_default().push(v);
        }
    }
    let mut steady = true;
    println!(
        "\n{workload}: {runs} runs, seeds {seed}..{}",
        seed + runs - 1
    );
    println!(
        "{:<16} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "metric", "median", "q1", "q3", "spread", "bound"
    );
    for (name, v) in &values {
        let [q1, med, q3] = quartiles(v);
        let spread = (q3 - q1) / med.abs().max(f64::MIN_POSITIVE);
        let bound = bounds.iter().find(|(n, _)| n == name).map(|(_, b)| *b);
        let verdict = match bound {
            Some(b) if spread <= b / 3.0 => "steady",
            Some(b) if spread <= b => "within bound",
            Some(_) => {
                steady = false;
                "TOO NOISY"
            }
            None => "",
        };
        println!(
            "{name:<16} {med:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4} {:>6}  {verdict}",
            bound.map_or_else(String::new, |b| format!("{b}"))
        );
    }
    if steady {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
    }

    #[test]
    fn parses_result_lines() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}";
        let m = metrics(line);
        assert_eq!(m["p50_ms"], 1.5);
        assert_eq!(m["setup_s"], 0.25);
    }
}
