//! Wall-clock benchmark of the GOLF collector.
//!
//! One run executes one workload on one thread for a given number of
//! measured seconds, checks the program's outputs, and reports either the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced run).
//!
//! A run repeats episodes of identical work. Other tenants of a shared
//! machine slow a share of any interval that varies from minute to minute,
//! which moves medians by tens of percent; they can only add time, never
//! remove it. So the end-to-end timings keep, for every step of an episode
//! (the set-up, each collection, each stretch between collections), its
//! least-disturbed time over the run's episodes, and are computed from
//! those.
//!
//! See `predictions.json` for which per-layer metric should move which
//! end-to-end metric on which workload.

pub mod sim;
pub mod stats;
pub mod trace;
pub mod workloads;

use sim::Meter;
use stats::{fold_min, median, percentile};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Episodes per untraced run at least, so set-up time is a median.
const MIN_EPISODES: u64 = 3;
/// Episodes per traced run at least: untraced and traced ones alternate.
const MIN_TRACED_EPISODES: u64 = 4;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name (see [`workloads::NAMES`]).
    pub workload: String,
    /// Seed the workload's inputs are generated from.
    pub seed: u64,
    /// Measured time to run for; whole episodes run until it is reached.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The metrics of this kind of run, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Correctness checks made.
    pub checks: u64,
    /// Correctness checks failed.
    pub failed: u64,
    /// Human-readable lines: sample counts, deterministic outputs, failures.
    pub notes: Vec<String>,
}

/// Work and measured wall time of the untraced and traced episodes.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    episodes: u64,
    ops: u64,
    wall: Duration,
}

/// Runs one workload. Returns `None` for an unknown workload name.
pub fn run(config: &RunConfig) -> Option<RunReport> {
    let mut workload = workloads::by_name(&config.workload, config.seed)?;
    let run_id = golf_runtime::seed_for(
        config.seed ^ u64::from(std::process::id()) ^ unix_nanos(),
        &config.workload,
    );
    let mut m = Meter::new(config.trace.then(|| Tracer::new(run_id)));
    let min_episodes = if config.trace { MIN_TRACED_EPISODES } else { MIN_EPISODES };
    let seconds = Duration::from_secs_f64(config.seconds.max(0.0));
    let mut setup_s = Vec::new();
    // Untraced episodes repeat identical work. Over them: the least-disturbed
    // pause of each collection and wall time of each segment, the operations
    // of one episode, and (for the notes) each episode's own figures.
    let (mut best_pauses, mut best_segments, mut ops_per_episode) = (Vec::new(), Vec::new(), None);
    let (mut rates, mut p50s, mut p95s) = (Vec::new(), Vec::new(), Vec::new());
    let mut tally = [Tally::default(); 2];
    let mut episodes = 0;
    loop {
        let traced = config.trace && episodes % 2 == 1;

        m.set_phase(false, traced);
        let span = m.begin("setup");
        let (start, checks_before) = (Instant::now(), m.check_ns);
        workload.setup(&mut m);
        setup_s.push(untimed(start, m.check_ns - checks_before).as_secs_f64());
        m.end(span);

        m.set_phase(true, traced);
        let span = m.begin("episode");
        let (start, checks_before) = (Instant::now(), m.check_ns);
        let ops = workload.measure(&mut m);
        let wall = untimed(start, m.check_ns - checks_before);
        m.end(span);
        m.set_phase(false, false);

        let t = &mut tally[usize::from(traced)];
        t.episodes += 1;
        t.ops += ops;
        t.wall += wall;
        if !traced {
            rates.push(ops as f64 / wall.as_secs_f64());
            let pauses = std::mem::take(&mut m.pauses_us);
            let segments = std::mem::take(&mut m.segments_ns);
            p50s.push(percentile(&pauses, 50.0).expect("every episode runs 200 collections"));
            p95s.push(percentile(&pauses, 95.0).expect("every episode runs 200 collections"));
            let first_ops = *ops_per_episode.get_or_insert(ops);
            let same = ops == first_ops
                && fold_min(&mut best_pauses, &pauses)
                && fold_min(&mut best_segments, &segments);
            m.check(same, || {
                format!(
                    "episode {episodes}: {ops} operations over {} collections and {} segments, unlike the first episode",
                    pauses.len(),
                    segments.len()
                )
            });
        }
        episodes += 1;
        if tally[0].wall + tally[1].wall >= seconds && episodes >= min_episodes {
            break;
        }
    }

    let mut notes = vec![
        format!("run {run_id:016x}: {episodes} episodes, {} measured collections", m.collections),
        workload.summary(),
        format!(
            "error_rate {} ({} of {} checks failed, {:.3} s in checks)",
            error_rate(&m),
            m.failed,
            m.checks,
            m.check_ns as f64 / 1e9
        ),
    ];
    notes.extend(m.failures.iter().map(|f| format!("check failed: {f}")));
    let metrics = if config.trace {
        let (metrics, coverage) = per_layer(&m, tally);
        notes.push(format!(
            "build, boot, step_tick and collect spans cover {:.1} % of traced measured wall time",
            100.0 * coverage
        ));
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", config.workload, config.seed));
        let tracer = m.tracer().expect("a traced run has a tracer");
        match tracer.write_jsonl(&path) {
            Ok(()) => notes.push(format!("spans written to {}", path.display())),
            Err(e) => notes.push(format!("could not write spans to {}: {e}", path.display())),
        }
        metrics
    } else {
        notes.push(format!(
            "gc pause samples: {} collections in each of {} untraced episodes; p50 and p95 are \
             percentiles of each collection's least-disturbed pause over the episodes",
            best_pauses.len(),
            p50s.len()
        ));
        let spread = |v: &[f64]| {
            let (lo, hi) = v.iter().fold((f64::MAX, f64::MIN), |(a, b), &x| (a.min(x), b.max(x)));
            format!("min {lo:.4} median {:.4} max {hi:.4}", median(v))
        };
        notes.push(format!("per-episode ops_per_s: {}", spread(&rates)));
        notes.push(format!("per-episode gc_pause_p50_us: {}", spread(&p50s)));
        notes.push(format!("per-episode gc_pause_p95_us: {}", spread(&p95s)));
        let episode_s = best_segments.iter().sum::<f64>() / 1e9;
        let least_disturbed =
            |p| percentile(&best_pauses, p).expect("every episode runs 200 collections");
        vec![
            Metric {
                name: "setup_s",
                value: setup_s.iter().copied().fold(f64::MAX, f64::min),
                unit: "s",
            },
            Metric {
                name: "ops_per_s",
                value: ops_per_episode.unwrap_or(0) as f64 / episode_s,
                unit: "1/s",
            },
            Metric { name: "gc_pause_p50_us", value: least_disturbed(50.0), unit: "us" },
            Metric { name: "gc_pause_p95_us", value: least_disturbed(95.0), unit: "us" },
            Metric { name: "peak_rss_mb", value: peak_rss_mb(), unit: "MB" },
        ]
    };
    Some(RunReport { metrics, checks: m.checks, failed: m.failed, notes })
}

fn untimed(start: Instant, excluded_ns: u64) -> Duration {
    start.elapsed().saturating_sub(Duration::from_nanos(excluded_ns))
}

fn error_rate(m: &Meter) -> f64 {
    m.failed as f64 / m.checks.max(1) as f64
}

fn unix_nanos() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

fn mean(sum: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

/// The per-layer metrics of a traced run, and the share of traced measured
/// wall time that build, boot, tick and collect spans cover.
fn per_layer(m: &Meter, tally: [Tally; 2]) -> (Vec<Metric>, f64) {
    let tracer = m.tracer().expect("a traced run has a tracer");
    // Work counts are per traced episode, so they do not grow with speed or
    // run length.
    let per_episode = |n: u64| mean(n, tally[1].episodes);
    let ticks = tracer.ticks();
    let l = m.layer;
    let cycles = &m.cycles;
    let executed: Vec<_> = cycles.iter().filter(|c| !c.replayed).collect();
    let n_exec = executed.len() as u64;
    let sum_exec = |f: fn(&sim::CycleRec) -> u64| executed.iter().map(|c| f(c)).sum::<u64>();
    let pause_us = |replayed: bool| {
        let v: Vec<f64> =
            cycles.iter().filter(|c| c.replayed == replayed).map(|c| c.ns as f64 / 1e3).collect();
        median(&v)
    };
    let with_reports: Vec<_> = cycles.iter().filter(|c| c.reports > 0).collect();
    let post_mark_ns: u64 = with_reports.iter().map(|c| c.ns.saturating_sub(c.mark_ns)).sum();
    let report_sum: u64 = with_reports.iter().map(|c| c.reports).sum();
    let (build, boot) = (tracer.span_agg("build"), tracer.span_agg("boot"));
    let replayed = cycles.iter().filter(|c| c.replayed).count() as u64;
    let episode_self_ns = tracer.span_agg("episode").self_ns;
    let traced_wall = tally[1].wall.as_secs_f64();
    let overhead = (tally[1].wall.as_secs_f64() / tally[1].ops as f64)
        / (tally[0].wall.as_secs_f64() / tally[0].ops as f64)
        - 1.0;

    let metrics = vec![
        Metric { name: "runtime.tick_ns", value: mean(ticks.total_ns, ticks.count), unit: "ns" },
        Metric { name: "runtime.instr_ns", value: mean(ticks.total_ns, l.instrs), unit: "ns" },
        Metric { name: "runtime.ticks", value: per_episode(ticks.count), unit: "count" },
        Metric { name: "runtime.instrs", value: per_episode(l.instrs), unit: "count" },
        Metric {
            name: "runtime.goroutines_mean",
            value: mean(l.goroutine_sum, l.goroutine_samples),
            unit: "count",
        },
        Metric { name: "runtime.parks", value: per_episode(l.parks), unit: "count" },
        Metric { name: "runtime.wakes", value: per_episode(l.wakes), unit: "count" },
        Metric { name: "runtime.spawned", value: per_episode(l.spawned), unit: "count" },
        Metric { name: "heap.allocs", value: per_episode(l.allocs), unit: "count" },
        Metric { name: "heap.frees", value: per_episode(l.frees), unit: "count" },
        Metric {
            name: "heap.live_objects",
            value: mean(cycles.iter().map(|c| c.live_objects).sum(), cycles.len() as u64),
            unit: "count",
        },
        Metric {
            name: "heap.swept_objects",
            value: per_episode(cycles.iter().map(|c| c.swept).sum()),
            unit: "count",
        },
        Metric {
            name: "core.collect_s",
            value: per_episode(cycles.iter().map(|c| c.ns).sum()) / 1e9,
            unit: "s",
        },
        Metric { name: "core.cycles", value: per_episode(cycles.len() as u64), unit: "count" },
        Metric { name: "core.replayed", value: per_episode(replayed), unit: "count" },
        Metric {
            name: "core.replay_ratio",
            value: mean(replayed, cycles.len() as u64),
            unit: "ratio",
        },
        Metric { name: "core.full_pause_us", value: pause_us(false), unit: "us" },
        Metric { name: "core.replay_pause_us", value: pause_us(true), unit: "us" },
        Metric {
            name: "core.mark_ns_per_object",
            value: mean(sum_exec(|c| c.mark_ns), sum_exec(|c| c.objects_marked)),
            unit: "ns",
        },
        Metric {
            name: "core.objects_marked",
            value: mean(sum_exec(|c| c.objects_marked), n_exec),
            unit: "count",
        },
        Metric {
            name: "core.pointer_traversals",
            value: mean(sum_exec(|c| c.pointer_traversals), n_exec),
            unit: "count",
        },
        Metric {
            name: "core.mark_iterations",
            value: mean(sum_exec(|c| c.mark_iterations), n_exec),
            unit: "count",
        },
        Metric {
            name: "core.liveness_checks",
            value: mean(sum_exec(|c| c.liveness_checks), n_exec),
            unit: "count",
        },
        Metric {
            name: "core.reports",
            value: per_episode(cycles.iter().map(|c| c.reports).sum()),
            unit: "count",
        },
        Metric {
            name: "core.reclaimed",
            value: per_episode(cycles.iter().map(|c| c.reclaimed).sum()),
            unit: "count",
        },
        Metric {
            name: "core.post_mark_ns_per_report",
            value: mean(post_mark_ns, report_sum),
            unit: "ns",
        },
        Metric { name: "setup.build_ns", value: mean(build.total_ns, build.count), unit: "ns" },
        Metric { name: "setup.boot_ns", value: mean(boot.total_ns, boot.count), unit: "ns" },
        Metric { name: "bench.driver_self_s", value: episode_self_ns as f64 / 1e9, unit: "s" },
        Metric { name: "bench.check_s", value: m.check_ns as f64 / 1e9, unit: "s" },
        Metric { name: "bench.trace_overhead", value: overhead, unit: "ratio" },
        Metric { name: "bench.error_rate", value: error_rate(m), unit: "ratio" },
        Metric { name: "bench.checks", value: m.checks as f64, unit: "count" },
    ];
    let coverage = 1.0 - episode_self_ns as f64 / 1e9 / traced_wall;
    (metrics, coverage)
}

/// The final output line: one JSON object with the run's verdict and
/// metrics.
pub fn json_line(report: &RunReport) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.checks > 0,
        report.checks,
        report.failed,
        metrics.join(", ")
    )
}
