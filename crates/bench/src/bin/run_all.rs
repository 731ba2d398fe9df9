//! One-command reproduction — the analogue of the paper artifact's
//! `./run.sh`: executes every experiment at full scale and writes each
//! table/figure into `results/`.
//!
//! Usage:
//! ```text
//! cargo run --release -p golf-bench --bin run_all [-- --out results --quick]
//! ```
//!
//! `--quick` trades statistical resolution for a fast smoke run (Table 1 at
//! 10 repetitions instead of 100, shorter service windows). `--seed <n>`
//! sets the root seed; per-component streams (Table 1 runs, exploration
//! strategies) derive from it via `golf_runtime::seed_for` and the
//! effective streams are printed in the run header. `--trace <path>`
//! streams a structured JSONL execution trace of the Table 1 sweep.
//! `--full-gc` disables incremental cycle replay; every result stays
//! byte-identical, only the collector's wall-clock time changes.

use golf_bench::arg_value;
use golf_metrics::BoxPlot;
use golf_micro::{run_perf_comparison, run_table1, summarize_groups, PerfSettings, Table1Config};
use golf_service::longrun::{run_longrun, sparkline, LongRunConfig};
use golf_service::production::{render_table3, run_production, ProductionConfig};
use golf_service::rq1c::{run_rq1c, Rq1cConfig};
use golf_service::table2::{run_table2, Table2Config};
use golf_service::testcorpus::{run_corpus, CorpusConfig};
use std::fmt::Write as _;
use std::path::Path;

fn save(dir: &Path, name: &str, content: &str) {
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("run_all: wrote {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out = arg_value(&args, "--out").unwrap_or_else(|| "results".into());
    let quick = args.iter().any(|a| a == "--quick");
    let base_seed: u64 = arg_value(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(Table1Config::default().base_seed);
    let trace = arg_value(&args, "--trace").map(|path| {
        let sink = golf_trace::SharedJsonlSink::create(&path)
            .unwrap_or_else(|e| panic!("run_all: cannot create trace file {path}: {e}"));
        eprintln!("run_all: streaming Table 1 trace to {path}");
        sink
    });
    let golf = golf_core::GolfConfig {
        incremental: !args.iter().any(|a| a == "--full-gc"),
        ..golf_core::GolfConfig::default()
    };
    let dir = Path::new(&out);
    std::fs::create_dir_all(dir).expect("create results dir");
    eprintln!(
        "run_all: seeds — root {base_seed:#x}, table1 stream {:#x}, strategy stream {:#x} (seed_for)",
        golf_runtime::seed_for(base_seed, "table1"),
        golf_runtime::seed_for(base_seed, "strategy"),
    );
    let t0 = std::time::Instant::now();

    // -- Table 1 ----------------------------------------------------------
    eprintln!("run_all: Table 1 (RQ1a)…");
    let table1 = run_table1(&Table1Config {
        runs: if quick { 10 } else { 100 },
        trace,
        golf,
        base_seed,
        ..Table1Config::default()
    });
    let mut s = table1.render();
    let _ = writeln!(
        s,
        "\nruntime failures: {}   unexpected reports: {}",
        table1.runtime_failures, table1.unexpected_reports
    );
    save(dir, "table1.txt", &s);

    // -- Figure 3 / RQ1(b) -------------------------------------------------
    eprintln!("run_all: Figure 3 (RQ1b)…");
    let corpus = run_corpus(&CorpusConfig {
        packages: if quick { 400 } else { 3_111 },
        ..CorpusConfig::default()
    });
    let mut s = String::new();
    let _ =
        writeln!(s, "GOLEAK: {} individual / {} dedup", corpus.goleak_total, corpus.goleak_dedup);
    let _ = writeln!(s, "GOLF:   {} individual / {} dedup", corpus.golf_total, corpus.golf_dedup);
    let _ = writeln!(
        s,
        "AUC: {:.0}%   fully caught: {} / {}",
        corpus.auc * 100.0,
        corpus.fully_caught,
        corpus.golf_dedup
    );
    let _ = writeln!(s, "\nratio curve (sorted):");
    for (i, r) in corpus.ratio_curve.iter().enumerate() {
        let _ = writeln!(s, "{},{:.4}", i + 1, r);
    }
    save(dir, "fig3.txt", &s);

    // -- RQ1(c) -------------------------------------------------------------
    eprintln!("run_all: RQ1(c) deployment…");
    let rq1c = run_rq1c(&Rq1cConfig { hours: if quick { 6 } else { 24 }, ..Rq1cConfig::default() });
    let mut s = String::new();
    let _ = writeln!(s, "individual partial deadlocks: {} (paper: 252)", rq1c.individual_reports);
    let _ = writeln!(s, "distinct errors: {} (paper: 3)", rq1c.by_location.len());
    for ((block, spawn), n) in &rq1c.by_location {
        let _ = writeln!(s, "  {n:>5}  {block}  <- {spawn}");
    }
    save(dir, "rq1c.txt", &s);

    // -- Table 2 -------------------------------------------------------------
    eprintln!("run_all: Table 2 (controlled service)…");
    let table2 = run_table2(&Table2Config {
        run_ticks: if quick { 8_000 } else { 30_000 },
        ..Table2Config::default()
    });
    save(dir, "table2.txt", &table2.render());
    save(dir, "table2_metrics.txt", &table2.metrics().to_string());

    // -- Table 3 -------------------------------------------------------------
    eprintln!("run_all: Table 3 (production-like)…");
    let prod_config =
        ProductionConfig { windows: if quick { 40 } else { 160 }, ..ProductionConfig::default() };
    let base = run_production(&prod_config, false);
    let golf = run_production(&prod_config, true);
    save(dir, "table3.txt", &render_table3(&base, &golf));

    // -- Figure 1 -------------------------------------------------------------
    eprintln!("run_all: Figure 1 (blocked over time)…");
    let lr_config = LongRunConfig { days: if quick { 14 } else { 28 }, ..LongRunConfig::default() };
    let baseline = run_longrun(&lr_config);
    let with_golf = run_longrun(&LongRunConfig { golf: true, ..lr_config.clone() });
    let mut s = String::new();
    let _ = writeln!(
        s,
        "baseline  max {:>5.0}  {}",
        baseline.max().unwrap_or(0.0),
        sparkline(&baseline, 84)
    );
    let _ = writeln!(
        s,
        "with GOLF max {:>5.0}  {}",
        with_golf.max().unwrap_or(0.0),
        sparkline(&with_golf, 84)
    );
    s.push_str("\nbaseline series CSV:\n");
    s.push_str(&baseline.to_csv());
    save(dir, "fig1.txt", &s);

    // -- Figure 4 -------------------------------------------------------------
    eprintln!("run_all: Figure 4 (mark slowdown)…");
    let rows = run_perf_comparison(&PerfSettings {
        repetitions: if quick { 2 } else { 5 },
        ..PerfSettings::default()
    });
    let mut s = String::new();
    for group in summarize_groups(&rows) {
        let b: BoxPlot = group.slowdown;
        let _ = writeln!(
            s,
            "{:<12} n={:<3} min {:.2}x q1 {:.2}x median {:.2}x q3 {:.2}x max {:.2}x",
            group.label, b.n, b.min, b.q1, b.median, b.q3, b.max
        );
    }
    s.push_str("\nname,buggy,mark_off_us,mark_on_us,slowdown\n");
    for r in &rows {
        let _ = writeln!(
            s,
            "{},{},{:.3},{:.3},{:.4}",
            r.name, r.buggy, r.baseline_mark_us, r.golf_mark_us, r.slowdown
        );
    }
    save(dir, "fig4.txt", &s);

    eprintln!(
        "run_all: all experiments completed in {:.1}s — see {}/",
        t0.elapsed().as_secs_f64(),
        out
    );
    println!("Summary:");
    println!("  Table 1 aggregate detection: {:.2}% (paper 94.75%)", table1.aggregated_total_pct());
    println!(
        "  Fig 3: GOLF/GOLEAK {:.0}% individual, {:.0}% dedup, AUC {:.0}% (paper 60/50/82)",
        100.0 * corpus.golf_total as f64 / corpus.goleak_total.max(1) as f64,
        100.0 * corpus.golf_dedup as f64 / corpus.goleak_dedup.max(1) as f64,
        100.0 * corpus.auc
    );
    println!(
        "  RQ1(c): {} deadlocks -> {} errors (paper 252 -> 3)",
        rq1c.individual_reports,
        rq1c.by_location.len()
    );
}
