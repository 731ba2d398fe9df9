//! One renderer per table or figure of the paper's evaluation (§6), plus
//! the §5.3 strategy comparison and the leak-rate sweep. Each returns the
//! whole text of one file in `results/`; `run_all` runs the experiments and
//! writes what these functions render.
//!
//! Renderers of experiments whose results `run_all` also summarizes take
//! those results as arguments. The three small experiments nothing else
//! consumes ([`fig2`], [`sweep_leak_rate`], [`expansion_costs`]) run
//! themselves.

use golf_core::{ExpansionStrategy, GcEngine, GcMode, GolfConfig, PhaseEvent};
use golf_metrics::{Align, Table, TimeSeries};
use golf_micro::{summarize_groups, PerfRow, Table1, Table1Config};
use golf_runtime::{FuncBuilder, ProgramSet, Vm, VmConfig};
use golf_service::longrun::{sparkline, LongRunConfig};
use golf_service::production::{render_table3, ProductionResult};
use golf_service::rq1c::{Rq1cConfig, Rq1cResult};
use golf_service::table2::{run_scenario, Table2, Table2Config};
use golf_service::testcorpus::{CorpusConfig, CorpusResult};
use std::fmt::Write as _;

/// `results/table1.txt`: detection counts per leaky `go` site across
/// `GOMAXPROCS` (RQ1(a)).
pub fn table1(config: &Table1Config, t: &Table1) -> String {
    let mut benches: Vec<&str> = t.rows.iter().map(|r| r.bench.as_str()).collect();
    benches.dedup();
    let mut s = String::new();
    let _ = writeln!(s, "Table 1 — RQ1(a): partial deadlocks detected per leaky go site");
    let _ = writeln!(
        s,
        "({} benchmarks, {} sites; {} runs x GOMAXPROCS {:?}; root seed {:#x}, table1 stream {:#x})\n",
        benches.len(),
        t.rows.len(),
        t.runs,
        t.procs,
        config.base_seed,
        golf_runtime::seed_for(config.base_seed, "table1"),
    );
    s.push_str(&t.render());
    let _ =
        writeln!(s, "\naggregated detection: {:.2}%   (paper: 94.75%)", t.aggregated_total_pct());
    let _ = writeln!(
        s,
        "runtime failures: {}   unexpected deadlock reports: {}",
        t.runtime_failures, t.unexpected_reports
    );
    s
}

/// `results/fig3.txt`: GOLF vs GOLEAK over the package test suites
/// (RQ1(b)), ending with the full Figure 3 ratio curve as CSV.
pub fn fig3(config: &CorpusConfig, r: &CorpusResult) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "RQ1(b) — GOLF vs GOLEAK on {} package test suites\n", config.packages);
    let _ = writeln!(s, "                      individual   deduplicated");
    let _ = writeln!(s, "GOLEAK reports        {:>10}   {:>12}", r.goleak_total, r.goleak_dedup);
    let _ = writeln!(s, "GOLF reports          {:>10}   {:>12}", r.golf_total, r.golf_dedup);
    let _ = writeln!(
        s,
        "GOLF / GOLEAK         {:>9.0}%   {:>11.0}%",
        100.0 * r.golf_total as f64 / r.goleak_total.max(1) as f64,
        100.0 * r.golf_dedup as f64 / r.goleak_dedup.max(1) as f64,
    );
    let _ = writeln!(s, "(paper: GOLEAK 29513 / 357, GOLF 17872 / 180, i.e. 60% / 50%)\n");
    let _ = writeln!(s, "area under the ratio curve: {:.0}%   (paper: 82%)", 100.0 * r.auc);
    let _ = writeln!(
        s,
        "reports where GOLF finds everything GOLEAK finds: {} of {} ({:.0}%)   (paper: 103 of 180, 55%)",
        r.fully_caught,
        r.golf_dedup,
        100.0 * r.fully_caught as f64 / r.golf_dedup.max(1) as f64
    );

    let _ = writeln!(s, "\nFigure 3 — GOLF/GOLEAK ratio per deduplicated GOLF report (sorted):");
    let n = r.ratio_curve.len();
    for decile in 0..=10 {
        let idx = ((decile as f64 / 10.0) * (n.saturating_sub(1)) as f64).round() as usize;
        if let Some(ratio) = r.ratio_curve.get(idx) {
            let bar = "#".repeat((ratio * 50.0).round() as usize);
            let _ = writeln!(s, "report #{:>4}  {:>5.1}%  {bar}", idx + 1, ratio * 100.0);
        }
    }
    let _ = writeln!(s, "\nratio curve (CSV):\nreport_index,ratio");
    for (i, ratio) in r.ratio_curve.iter().enumerate() {
        let _ = writeln!(s, "{},{ratio}", i + 1);
    }
    s
}

/// `results/rq1c.txt`: GOLF deployed on a service for a simulated day
/// (RQ1(c)).
pub fn rq1c(config: &Rq1cConfig, r: &Rq1cResult) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "RQ1(c) — GOLF on a real service ({} instances, {} h)\n",
        config.instances, config.hours
    );
    let _ = writeln!(s, "requests served:              {:>8}", r.requests_served);
    let _ = writeln!(
        s,
        "individual partial deadlocks: {:>8}   (paper: 252 over 24 h)",
        r.individual_reports
    );
    let _ = writeln!(s, "distinct programming errors:  {:>8}   (paper: 3)\n", r.by_location.len());
    let _ = writeln!(s, "by source location:");
    let mut rows: Vec<_> = r.by_location.iter().collect();
    rows.sort_by(|a, b| b.1.cmp(a.1));
    for ((block, spawn), count) in rows {
        let _ =
            writeln!(s, "  {count:>5}  blocked at {block:<18} created by go statement at {spawn}");
    }
    s
}

/// `results/table2.txt`: the controlled service at each leak rate, baseline
/// vs GOLF (RQ2).
pub fn table2(t: &Table2) -> String {
    let title = "Table 2 — performance impact of GOLF on the controlled service";
    format!("{title}\n(1 tick ≈ 1 ms of simulated time)\n\n{}", t.render())
}

/// `results/table3.txt`: the service under production-like load, baseline
/// vs GOLF (RQ2).
pub fn table3(base: &ProductionResult, golf: &ProductionResult) -> String {
    format!(
        "Table 3 — performance impact of GOLF on a production-like service\n\n{}\n\
         GOLF detected {} partial deadlocks over the observation period (baseline: {}).\n",
        render_table3(base, golf),
        golf.deadlocks_detected,
        base.deadlocks_detected
    )
}

/// `results/fig1.txt`: blocked goroutines over time with and without GOLF,
/// the baseline's per-day means, and the baseline series as CSV.
pub fn fig1(config: &LongRunConfig, baseline: &TimeSeries, golf: &TimeSeries) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Figure 1 — blocked goroutines over time ({}-day simulation)", config.days);
    let _ = writeln!(s, "(weekday mornings redeploy; weekends accumulate)\n");
    let _ = writeln!(
        s,
        "baseline  max {:>6.0}  {}",
        baseline.max().unwrap_or(0.0),
        sparkline(baseline, 84)
    );
    let _ =
        writeln!(s, "with GOLF max {:>6.0}  {}", golf.max().unwrap_or(0.0), sparkline(golf, 84));

    let _ = writeln!(s, "\nday  weekday  mean blocked (baseline)");
    for (i, (_, mean)) in baseline.windowed_mean(config.day_ticks).iter().enumerate() {
        let wd = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"][i % 7];
        let _ = writeln!(s, "{i:>3}  {wd}      {mean:>8.1}");
    }
    let _ = writeln!(s, "\nbaseline series (CSV):");
    s.push_str(&baseline.to_csv());
    s
}

/// Figure 2's program: a live 3-link daisy chain (forcing several mark
/// iterations) plus a pair of deadlocked senders.
fn fig2_program() -> ProgramSet {
    let mut p = ProgramSet::new();
    let leak_site = p.site("worker:leak");
    let live_site = p.site("worker:live");

    let mut b = FuncBuilder::new("link", 2);
    let mine = b.param(0);
    b.recv(mine, None);
    b.ret(None);
    let link = p.define(b);

    let mut b = FuncBuilder::new("leaky", 1);
    let ch = b.param(0);
    let v = b.int(1);
    b.send(ch, v);
    let leaky = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let chans: Vec<_> = (0..4).map(|i| b.var(&format!("ch{i}"))).collect();
    for &ch in &chans {
        b.make_chan(ch, 0);
    }
    for i in 0..3 {
        b.go(link, &[chans[i], chans[i + 1]], live_site);
    }
    let orphan1 = b.var("o1");
    let orphan2 = b.var("o2");
    b.make_chan(orphan1, 0);
    b.make_chan(orphan2, 0);
    b.go(leaky, &[orphan1], leak_site);
    b.go(leaky, &[orphan2], leak_site);
    for &ch in &chans[1..] {
        b.clear(ch);
    }
    b.clear(orphan1);
    b.clear(orphan2);
    // Main stays alive holding the head of the chain, so the links are
    // reachably live (root expansion) while the orphan senders deadlock.
    b.sleep(1_000_000);
    b.ret(None);
    p.define(b);
    p
}

/// `results/fig2.txt`: the phase trace of one GOLF collection on a 3-link
/// live chain plus 2 deadlocked senders, with GOLF's extra phases marked.
pub fn fig2() -> String {
    let mut vm = Vm::boot(fig2_program(), VmConfig::default());
    vm.run(500);
    let mut gc = GcEngine::golf();
    let stats = gc.collect(&mut vm);

    let mut s = String::from("Figure 2 — one GOLF garbage-collection cycle\n");
    s.push_str("(▞ marks the phases the GOLF extension adds to the regular GC)\n\n");
    for event in &stats.phases {
        let line = match event {
            PhaseEvent::Init => "   Initialization: unmark all objects".to_string(),
            PhaseEvent::RootsPrepared { goroutine_roots, restricted: true } => format!(
                " ▞ Restricted root preparation: {goroutine_roots} runnable/internal goroutines (blocked goroutines withheld)"
            ),
            PhaseEvent::RootsPrepared { goroutine_roots, restricted: false } => {
                format!("   Root preparation: {goroutine_roots} goroutines")
            }
            PhaseEvent::MarkIteration { iteration, newly_marked } => {
                format!("   Marking (iteration {iteration}): {newly_marked} objects marked")
            }
            PhaseEvent::RootExpansion { goroutines_added } => {
                format!(" ▞ Root expansion: +{goroutines_added} reachably-live goroutines")
            }
            PhaseEvent::MarkDone => "   Marking done (stop-the-world)".to_string(),
            PhaseEvent::DeadlocksDetected { count } => {
                format!(" ▞ Deadlock detection: {count} goroutines reported")
            }
            PhaseEvent::Reclaimed { count } => {
                format!(" ▞ Recovery: {count} deadlocked goroutines shut down")
            }
            PhaseEvent::PreservedForFinalizers { count } => {
                format!(" ▞ Preserved for finalizers: {count} goroutines kept live")
            }
            PhaseEvent::Sweep { objects, bytes } => {
                format!("   Sweep: {objects} objects / {bytes} bytes reclaimed")
            }
        };
        let _ = writeln!(s, "{line}");
    }
    let _ =
        writeln!(
        s,
        "\ncycle summary: {} mark iterations, {} objects marked, {} liveness checks, {} reports",
        stats.mark_iterations, stats.objects_marked, stats.liveness_checks, stats.deadlocks_detected
    );
    for report in gc.reports() {
        let _ = write!(s, "\n{report}");
    }
    s
}

/// `results/fig4.txt`: the distribution of marking-phase slowdowns, GOLF
/// over baseline (RQ2), its extremes, and the per-program rows as CSV.
/// Every column with `us` in it is wall-clock time.
pub fn fig4(rows: &[PerfRow]) -> String {
    let mut s = String::from("Figure 4 — GC marking-phase slowdown (GOLF / baseline), 1 core\n");
    s.push_str("(paper: correct median 0.96x, max 4.8x; deadlocking median 0.71x, min 0.04x, max 5.87x)\n\n");
    for group in summarize_groups(rows) {
        let b = group.slowdown;
        let _ = writeln!(
            s,
            "{:<12} n={:<3}  min {:.2}x  q1 {:.2}x  median {:.2}x  q3 {:.2}x  max {:.2}x   (worst GOLF mark: {:.3}µs)",
            group.label, b.n, b.min, b.q1, b.median, b.q3, b.max, group.max_golf_mark_us
        );
        // ASCII box plot on a linear scale 0..max.
        let scale = 60.0 / b.max.max(1.0);
        let pos = |x: f64| (x * scale).round() as usize;
        let mut line = vec![' '; 62];
        let (q1, q3) = (pos(b.q1), pos(b.q3).min(61));
        line[q1..=q3].fill('=');
        line[pos(b.min).min(61)] = '|';
        line[pos(b.max).min(61)] = '|';
        line[pos(b.median).min(61)] = 'M';
        let _ = writeln!(s, "             0x {} {:.1}x\n", line.iter().collect::<String>(), b.max);
    }

    let mut sorted = rows.to_vec();
    sorted.sort_by(|a, b| a.slowdown.partial_cmp(&b.slowdown).expect("NaN slowdown"));
    let extreme = |s: &mut String, r: &PerfRow| {
        let _ = writeln!(
            s,
            "  {:<28} {:.2}x  ({:.3}µs -> {:.3}µs)",
            r.name, r.slowdown, r.baseline_mark_us, r.golf_mark_us
        );
    };
    let _ = writeln!(s, "largest speedups (GOLF unburdened by leaked memory):");
    sorted.iter().take(3).for_each(|r| extreme(&mut s, r));
    let _ = writeln!(s, "largest slowdowns:");
    sorted.iter().rev().take(3).for_each(|r| extreme(&mut s, r));

    let _ = writeln!(
        s,
        "\nper-program rows (CSV):\nname,buggy,mark_off_us,mark_on_us,slowdown,cycles_off,cycles_on"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{},{},{:.3},{:.3},{:.4},{},{}",
            r.name,
            r.buggy,
            r.baseline_mark_us,
            r.golf_mark_us,
            r.slowdown,
            r.baseline_cycles,
            r.golf_cycles
        );
    }
    s
}

/// `results/sweep_leak_rate.txt` (extension, not in the paper): the Table 2
/// service across leak rates. The paper evaluates only 0% and 10%; the sweep
/// shows that any nonzero rate separates baseline from GOLF.
pub fn sweep_leak_rate() -> String {
    let config = Table2Config {
        warmup_ticks: 2_000,
        run_ticks: 15_000,
        leak_rates: vec![0, 20, 50, 100, 200],
        ..Table2Config::default()
    };
    let mut t = Table::new(vec![
        "Leak ‰",
        "Base heap MB",
        "GOLF heap MB",
        "Base P99 ms",
        "GOLF P99 ms",
        "Base blocked",
        "GOLF reclaimed",
    ]);
    for i in 1..7 {
        t.align(i, Align::Right);
    }
    for &rate in &config.leak_rates {
        let base = run_scenario(&config, rate, false);
        let golf = run_scenario(&config, rate, true);
        t.row(vec![
            rate.to_string(),
            format!("{:.1}", base.server.heap_alloc_bytes as f64 / 1e6),
            format!("{:.1}", golf.server.heap_alloc_bytes as f64 / 1e6),
            format!("{:.0}", base.client.p99),
            format!("{:.0}", golf.client.p99),
            base.server.blocked_goroutines.to_string(),
            golf.server.deadlocks_reclaimed.to_string(),
        ]);
    }
    let mut s = String::from("Leak-rate sweep — baseline vs GOLF (extension experiment)\n\n");
    s.push_str(&t.render());
    s.push_str("\nMemory under the baseline grows with the rate; under GOLF it stays flat.\n");
    s
}

/// The three §5.3 root-expansion strategies, paper's first.
const STRATEGIES: [(&str, ExpansionStrategy); 3] = [
    ("Rescan (paper)", ExpansionStrategy::Rescan),
    ("FromMarked", ExpansionStrategy::FromMarked),
    ("Incremental", ExpansionStrategy::Incremental),
];

/// A daisy chain of `n` live links plus `n` deadlocked orphans — the §5.2
/// worst case for iterative marking.
fn chain_program(n: i64) -> ProgramSet {
    let mut p = ProgramSet::new();
    let s_link = p.site("main:link");
    let s_orphan = p.site("main:orphan");

    let mut b = FuncBuilder::new("link", 2);
    let mine = b.param(0);
    b.recv(mine, None);
    b.ret(None);
    let link = p.define(b);

    let mut b = FuncBuilder::new("orphan", 1);
    let ch = b.param(0);
    let v = b.int(1);
    b.send(ch, v);
    b.ret(None);
    let orphan = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let chans: Vec<_> = (0..n).map(|i| b.var(&format!("c{i}"))).collect();
    for &ch in &chans {
        b.make_chan(ch, 0);
    }
    for i in 0..(n - 1) as usize {
        b.go(link, &[chans[i], chans[i + 1]], s_link);
    }
    let oc = b.var("oc");
    b.repeat(n, |b, _| {
        b.make_chan(oc, 0);
        b.go(orphan, &[oc], s_orphan);
    });
    b.clear(oc);
    for &ch in &chans[1..] {
        b.clear(ch);
    }
    b.sleep(1_000_000);
    p.define(b);
    p
}

/// One GOLF collection of [`chain_program`]`(n)` under `strategy`.
fn chain_collection(n: i64, strategy: ExpansionStrategy) -> golf_core::GcCycleStats {
    let mut vm = Vm::boot(chain_program(n), VmConfig::default());
    vm.run(4_000);
    let config = GolfConfig { expansion: strategy, ..GolfConfig::default() };
    GcEngine::new(GcMode::Golf, config).collect(&mut vm)
}

/// `results/expansion_costs.txt`: iterations, liveness checks, objects
/// marked and wall-clock mark time of each §5.3 strategy on growing daisy
/// chains. The `mark µs` column is wall-clock time.
pub fn expansion_costs() -> String {
    let mut t = Table::new(vec![
        "n",
        "strategy",
        "iterations",
        "liveness checks",
        "objects marked",
        "mark µs",
        "detected",
    ]);
    for i in 2..7 {
        t.align(i, Align::Right);
    }
    for n in [8, 16, 32, 64] {
        for (name, strategy) in STRATEGIES {
            let stats = chain_collection(n, strategy);
            t.row(vec![
                n.to_string(),
                name.to_string(),
                stats.mark_iterations.to_string(),
                stats.liveness_checks.to_string(),
                stats.objects_marked.to_string(),
                format!("{:.1}", stats.mark_ns as f64 / 1_000.0),
                stats.deadlocks_detected.to_string(),
            ]);
        }
    }
    let mut s = String::from(
        "Root-expansion strategy costs on an n-link daisy chain + n orphans (§5.3)\n\n",
    );
    s.push_str(&t.render());
    s.push_str("\nRescan's checks grow ~quadratically with n; FromMarked's ~linearly;\n");
    s.push_str(
        "Incremental finishes in a single marking pass. All three mark and detect identically.\n",
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategies_mark_the_same_objects() {
        for n in [8, 16, 32, 64] {
            let stats: Vec<_> = STRATEGIES.iter().map(|&(_, st)| chain_collection(n, st)).collect();
            for s in &stats {
                assert_eq!(s.objects_marked, n as u64, "n={n}: the chain's channels");
                assert_eq!(s.deadlocks_detected, n as usize, "n={n}: every orphan");
            }
            assert_eq!(stats[2].mark_iterations, 1, "n={n}: Incremental is one pass");
        }
    }
}
