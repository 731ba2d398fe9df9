//! A short run of each workload, untraced and traced: it must pass its
//! correctness checks, run at least 200 collections, and print every metric
//! `BENCHMARK.json` lists for that kind of run, with its unit.

use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// which lists one metric per line.
fn listed_metrics(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let end = start + text[start..].find(']').expect("section is a list");
    let field = |line: &str, key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    text[start..end].lines().filter_map(|l| Some((field(l, "name")?, field(l, "unit")?))).collect()
}

fn short_run(workload: &str, trace: bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_golfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload}: {stdout}\n{}", String::from_utf8_lossy(&out.stderr));

    let json = stdout.lines().last().expect("output has a last line");
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{workload}: {json}");
    let collections: u64 = stdout
        .lines()
        .find_map(|l| l.strip_suffix(" measured collections")?.rsplit(' ').next()?.parse().ok())
        .expect("collection count is printed");
    assert!(collections >= 200, "{workload}: only {collections} collections");
    assert!(stdout.contains("# error_rate "), "{workload}: error rate not printed");

    let section = if trace { "per_layer" } else { "end_to_end" };
    let listed = listed_metrics(section);
    assert!(!listed.is_empty());
    for (name, unit) in &listed {
        let entry = format!("\"{name}\": {{\"value\": ");
        assert!(json.contains(&entry), "{workload}: {name} missing from {json}");
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("{name} ")) && l.ends_with(&format!(" {unit}"))),
            "{workload}: {name} not printed with unit {unit}"
        );
    }
    assert_eq!(json.matches("\"unit\"").count(), listed.len(), "{workload}: unlisted metrics");
}

#[test]
fn service_leak_short_runs() {
    short_run("service_leak", false);
    short_run("service_leak", true);
}

#[test]
fn heap_churn_short_runs() {
    short_run("heap_churn", false);
    short_run("heap_churn", true);
}

#[test]
fn corpus_sweep_short_runs() {
    short_run("corpus_sweep", false);
    short_run("corpus_sweep", true);
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "heap_churn", "--seed", "x", "--seconds", "1", "--trace", "0"],
        &["--workload", "heap_churn", "--seed", "1", "--seconds", "1", "--trace", "2"],
        &["--workload", "heap_churn", "--seed", "1", "--seconds", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_golfbench")).args(args).output().expect("runs");
        assert!(!out.status.success(), "{args:?} accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
