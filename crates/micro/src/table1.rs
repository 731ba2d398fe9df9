//! The RQ1(a) experiment: detection counts per leaky `go` site across
//! `GOMAXPROCS` configurations — the paper's Table 1.

use crate::corpus::{corpus, Microbenchmark};
use crate::harness::{run_benchmark_with_sink, RunSettings};
use crate::par::par_map;
use golf_core::GolfConfig;
use golf_metrics::{Align, Table};
use golf_trace::BufferSink;

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Table1Config {
    /// The virtual-core counts to sweep (the paper uses 1, 2, 4, 10).
    pub procs: Vec<usize>,
    /// Repetitions per (benchmark, core-count) cell (the paper uses 100).
    pub runs: u32,
    /// Tick budget per run.
    pub tick_budget: u64,
    /// Base seed. The sweep anchors its stream at
    /// `seed_for(base_seed, "table1")` and run `r` of cell `(b, p)` offsets
    /// that stream, so Table 1 seeds are independent of every other
    /// component derived from the same root seed.
    pub base_seed: u64,
    /// Cap on concurrent instances for flaky benchmarks.
    pub max_instances: usize,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// When set, every run records trace events into its benchmark's
    /// buffer and [`Table1::trace`] returns the buffers in benchmark order,
    /// each in (core-count, run) order — byte-identical for any `threads`
    /// value.
    pub trace: bool,
    /// GOLF collector options applied to every run (`--full-gc` clears
    /// `incremental`).
    pub golf: GolfConfig,
}

impl Default for Table1Config {
    fn default() -> Self {
        Table1Config {
            procs: vec![1, 2, 4, 10],
            runs: 100,
            tick_budget: 3_000,
            base_seed: 0x601F,
            max_instances: 24,
            threads: 0,
            trace: false,
            golf: GolfConfig::default(),
        }
    }
}

/// Detection counts for one leaky `go` site.
#[derive(Debug, Clone)]
pub struct SiteRow {
    /// The benchmark owning the site.
    pub bench: String,
    /// The site label (`bench:line`).
    pub site: String,
    /// Runs (out of `runs`) in which the site was reported, per core count.
    pub per_proc: Vec<u32>,
    /// Repetitions per cell.
    pub runs: u32,
}

impl SiteRow {
    /// Detection percentage across all core counts (the `Total` column).
    pub fn total_pct(&self) -> f64 {
        let total: u32 = self.per_proc.iter().sum();
        100.0 * f64::from(total) / (self.runs as f64 * self.per_proc.len() as f64)
    }

    /// Whether the site was detected in every run of every configuration.
    pub fn perfect(&self) -> bool {
        self.per_proc.iter().all(|&c| c == self.runs)
    }
}

/// The assembled Table 1.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// One row per leaky site, corpus order.
    pub rows: Vec<SiteRow>,
    /// The core counts swept.
    pub procs: Vec<usize>,
    /// Repetitions per cell.
    pub runs: u32,
    /// Runs that ended in a runtime failure (panic), as the artifact notes
    /// for `etcd/7443`'s inherent send-on-closed race.
    pub runtime_failures: u64,
    /// Reports at sites not annotated as expected ("Unexpected DL").
    pub unexpected_reports: u64,
    /// With [`Table1Config::trace`] on, one JSONL trace block per
    /// benchmark, in the order of the swept benchmarks; empty otherwise.
    pub trace: Vec<String>,
}

impl Table1 {
    /// Aggregated detection percentage for one core-count column.
    pub fn aggregated_pct(&self, proc_idx: usize) -> f64 {
        let detected: u32 = self.rows.iter().map(|r| r.per_proc[proc_idx]).sum();
        100.0 * f64::from(detected) / (self.runs as f64 * self.rows.len() as f64)
    }

    /// Aggregated detection percentage across every cell (the paper's
    /// 94.75% headline).
    pub fn aggregated_total_pct(&self) -> f64 {
        let s: f64 = (0..self.procs.len()).map(|i| self.aggregated_pct(i)).sum();
        s / self.procs.len() as f64
    }

    /// Renders the paper-style table: imperfect sites listed individually,
    /// perfect sites folded into the "Remaining" row.
    pub fn render(&self) -> String {
        let mut headers = vec!["Benchmark line".to_string()];
        headers.extend(self.procs.iter().map(|p| p.to_string()));
        headers.push("Total".to_string());
        let mut t = Table::new(headers.iter().map(String::as_str).collect());
        for i in 1..headers.len() {
            t.align(i, Align::Right);
        }
        let mut perfect_sites = 0usize;
        let mut perfect_benches = std::collections::BTreeSet::new();
        let mut imperfect_benches = std::collections::BTreeSet::new();
        for row in &self.rows {
            if row.perfect() {
                perfect_sites += 1;
                perfect_benches.insert(row.bench.clone());
            } else {
                imperfect_benches.insert(row.bench.clone());
                let mut cells = vec![row.site.clone()];
                cells.extend(row.per_proc.iter().map(|c| c.to_string()));
                cells.push(format!("{:.2}%", row.total_pct()));
                t.row(cells);
            }
        }
        let remaining_benches = perfect_benches.difference(&imperfect_benches).count();
        let mut remaining = vec![format!(
            "Remaining {remaining_benches} benchmarks ({perfect_sites} go instructions)"
        )];
        remaining.extend(self.procs.iter().map(|_| self.runs.to_string()));
        remaining.push("100.00%".to_string());
        t.row(remaining);
        let mut agg = vec!["Aggregated (%)".to_string()];
        agg.extend((0..self.procs.len()).map(|i| format!("{:.0}", self.aggregated_pct(i))));
        agg.push(format!("{:.2}%", self.aggregated_total_pct()));
        t.row(agg);
        t.render()
    }
}

/// Runs the full Table 1 sweep over the given corpus subset (pass
/// [`corpus()`]'s output, or a filtered subset for quick runs).
pub fn run_table1_on(benchmarks: &[Microbenchmark], config: &Table1Config) -> Table1 {
    // Work items: one per benchmark; each runs the full (procs × runs) grid.
    // When tracing, each work item records into its own in-memory buffer —
    // the buffers come back in benchmark order after the sweep, so the
    // trace is a pure function of the seed no matter how many worker
    // threads ran.
    let stream = golf_runtime::seed_for(config.base_seed, "table1");
    let collected = par_map(benchmarks, config.threads, |idx, mb| {
        let buffer = config.trace.then(BufferSink::new);
        let mut per_site: Vec<SiteRow> = mb
            .sites
            .iter()
            .map(|s| SiteRow {
                bench: mb.name.to_string(),
                site: (*s).to_string(),
                per_proc: vec![0; config.procs.len()],
                runs: config.runs,
            })
            .collect();
        let mut failures = 0u64;
        let mut unexpected = 0u64;
        for (pi, &procs) in config.procs.iter().enumerate() {
            for run in 0..config.runs {
                let seed = stream
                    .wrapping_add((idx as u64) << 32)
                    .wrapping_add((pi as u64) << 24)
                    .wrapping_add(u64::from(run));
                let res = run_benchmark_with_sink(
                    mb,
                    &RunSettings {
                        procs,
                        seed,
                        tick_budget: config.tick_budget,
                        max_instances: config.max_instances,
                        golf: config.golf,
                    },
                    buffer.clone(),
                );
                for row in per_site.iter_mut() {
                    if res.detected_sites.contains(&row.site) {
                        row.per_proc[pi] += 1;
                    }
                }
                failures += u64::from(res.runtime_failure);
                unexpected += res.unexpected_sites.len() as u64;
            }
        }
        (per_site, failures, unexpected, buffer.map(|b| b.contents()))
    });

    let mut rows = Vec::new();
    let mut runtime_failures = 0;
    let mut unexpected_reports = 0;
    let mut trace = Vec::new();
    for (site_rows, failures, unexpected, block) in collected {
        rows.extend(site_rows);
        runtime_failures += failures;
        unexpected_reports += unexpected;
        trace.extend(block);
    }
    Table1 {
        rows,
        procs: config.procs.clone(),
        runs: config.runs,
        runtime_failures,
        unexpected_reports,
        trace,
    }
}

/// Runs Table 1 over the full corpus.
pub fn run_table1(config: &Table1Config) -> Table1 {
    run_table1_on(&corpus(), config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_row_percentages() {
        let row = SiteRow {
            bench: "x".into(),
            site: "x:1".into(),
            per_proc: vec![100, 50, 100, 50],
            runs: 100,
        };
        assert_eq!(row.total_pct(), 75.0);
        assert!(!row.perfect());
        let perfect =
            SiteRow { bench: "x".into(), site: "x:1".into(), per_proc: vec![10, 10], runs: 10 };
        assert!(perfect.perfect());
        assert_eq!(perfect.total_pct(), 100.0);
    }

    #[test]
    fn quick_subset_detects_deterministic_sites() {
        let all = corpus();
        let subset: Vec<_> = all.into_iter().filter(|b| b.name == "cgo/unused-done").collect();
        let t = run_table1_on(
            &subset,
            &Table1Config {
                procs: vec![1, 2],
                runs: 3,
                tick_budget: 3_000,
                threads: 2,
                ..Table1Config::default()
            },
        );
        assert_eq!(t.rows.len(), 1);
        assert!(t.rows[0].perfect(), "{:?}", t.rows[0]);
        let rendered = t.render();
        assert!(rendered.contains("Remaining"));
        assert!(rendered.contains("Aggregated"));
    }
}
