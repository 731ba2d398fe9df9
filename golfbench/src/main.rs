//! Runs one workload of the GOLF benchmark and prints its metrics.
//!
//! ```text
//! golfbench --workload <service_leak|heap_churn|corpus_sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines come first; the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.

use golfbench::{json_line, run, RunConfig};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !golfbench::workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            golfbench::workloads::NAMES
        ));
    }
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(0.0..=3600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 0..=3600"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(RunConfig { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("golfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(&config).expect("workload name was validated");
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    if let Some(bad) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("golfbench: metric {} is not a number ({})", bad.name, bad.value);
        return ExitCode::FAILURE;
    }
    println!("{}", json_line(&report));
    ExitCode::SUCCESS
}
