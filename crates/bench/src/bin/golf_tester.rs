//! Artifact-parity tester: mirrors the workflow of the paper artifact's
//! `./tester/golf-tester` binary (Appendix A.4.2/A.6) — run the
//! microbenchmark corpus, validate `deadlocks:`-style expectations, and
//! write a coverage or performance report.
//!
//! Flag correspondence with the artifact:
//!
//! | artifact flag       | here                                  |
//! |---------------------|---------------------------------------|
//! | `-match <regex>`    | `--match <substring>` (`-` ≡ `_`)     |
//! | `-repeats <n>`      | `--repeats <n>`                       |
//! | `-report <path>`    | `--report <path>` (coverage table)    |
//! | `-perf`             | `--perf` (Mark clock ON/OFF CSV)      |
//! | (GOMAXPROCS sweep)  | `--procs 1,2,4,10`                    |
//! | (no equivalent)     | `--trace <path>` (JSONL event trace)  |
//! | (no equivalent)     | `--seed <n>` (base seed)              |
//! | (no equivalent)     | `--full-gc` (disable incremental GC)  |
//!
//! ```text
//! cargo run --release -p golf-bench --bin golf_tester -- \
//!     --match cockroach --repeats 20 --report results.txt
//! ```

use golf_bench::{arg_value, parse_list};
use golf_core::GolfConfig;
use golf_micro::{corpus, run_perf_comparison, PerfSettings, Table1Config};
use golf_trace::SharedJsonlSink;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let repeats: u32 = arg_value(&args, "--repeats").and_then(|v| v.parse().ok()).unwrap_or(100);
    let procs = arg_value(&args, "--procs").map(|v| parse_list(&v)).unwrap_or(vec![1, 2, 4, 10]);
    let pattern = arg_value(&args, "--match");
    let report_path = arg_value(&args, "--report");
    let perf_mode = args.iter().any(|a| a == "--perf");
    let base_seed: u64 = arg_value(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(Table1Config::default().base_seed);
    // Incremental cycles are on by default; --full-gc forces every cycle to
    // re-mark from scratch. Results and traces are identical either way.
    let golf =
        GolfConfig { incremental: !args.iter().any(|a| a == "--full-gc"), ..GolfConfig::default() };
    let trace = arg_value(&args, "--trace").map(|path| {
        let sink = SharedJsonlSink::create(&path)
            .unwrap_or_else(|e| panic!("golf-tester: cannot create trace file {path}: {e}"));
        eprintln!("golf-tester: streaming trace to {path}");
        sink
    });

    if perf_mode {
        if trace.is_some() {
            eprintln!("golf-tester: --trace is ignored in --perf mode (it would skew timings)");
        }
        // Performance mode: the artifact's results-perf.csv, with baseline
        // (OFF) and GOLF (ON) mark-clock columns.
        eprintln!("golf-tester: performance mode ({repeats} repeats)…");
        let rows = run_perf_comparison(&PerfSettings {
            repetitions: repeats.min(20),
            ..PerfSettings::default()
        });
        let mut csv = String::from(
            "Benchmark,Mark clock OFF (us),Mark clock ON (us),Slowdown,GC cycles OFF,GC cycles ON\n",
        );
        for r in &rows {
            csv.push_str(&format!(
                "{},{:.3},{:.3},{:.4},{},{}\n",
                r.name,
                r.baseline_mark_us,
                r.golf_mark_us,
                r.slowdown,
                r.baseline_cycles,
                r.golf_cycles
            ));
        }
        match &report_path {
            Some(path) => {
                std::fs::write(path, &csv).expect("write perf report");
                eprintln!("golf-tester: perf report written to {path}");
            }
            None => print!("{csv}"),
        }
        return;
    }

    // Coverage mode: the artifact's ./results report.
    let mut benchmarks = corpus();
    if let Some(pat) = &pattern {
        benchmarks.retain(|b| b.matches(pat));
        if benchmarks.is_empty() {
            eprintln!("golf-tester: no benchmarks match {pat:?}");
            std::process::exit(2);
        }
    }
    eprintln!(
        "golf-tester: coverage mode — {} benchmarks, {} repeats x {:?} cores…",
        benchmarks.len(),
        repeats,
        procs
    );
    eprintln!(
        "golf-tester: seeds — root {base_seed:#x}, table1 stream {:#x} (seed_for)",
        golf_runtime::seed_for(base_seed, "table1"),
    );
    let table = golf_micro::run_table1_on(
        &benchmarks,
        &Table1Config { procs, runs: repeats, trace, base_seed, golf, ..Table1Config::default() },
    );

    let mut out = table.render();
    out.push('\n');
    if table.unexpected_reports > 0 {
        out.push_str(&format!("Unexpected DL: {} reports\n", table.unexpected_reports));
    }
    if table.runtime_failures > 0 {
        out.push_str(&format!("[runtime failure]: {} runs\n", table.runtime_failures));
    }
    out.push_str(&format!(
        "Total detection rate: {:.2}% (expected > 90%, median ~94%)\n",
        table.aggregated_total_pct()
    ));

    match &report_path {
        Some(path) => {
            std::fs::write(path, &out).expect("write coverage report");
            eprintln!("golf-tester: coverage report written to {path}");
        }
        None => print!("{out}"),
    }
}
