//! The Table 2 experiment: the controlled service under four scenarios —
//! {0%, 10%} leak rate × {baseline, GOLF}.

use crate::service::{boot_service, read_latencies, ServiceConfig};
use golf_core::{GcMode, GolfConfig, PacerConfig, Session};
use golf_metrics::{percentile, Align, Table};
use serde::{Deserialize, Serialize};

/// Experiment parameters (beyond the service workload itself).
#[derive(Debug, Clone)]
pub struct Table2Config {
    /// The base service workload (leak rate is overridden per scenario).
    pub service: ServiceConfig,
    /// Warm-up ticks discarded from measurements (the paper warms up 5 s).
    pub warmup_ticks: u64,
    /// Measured ticks (the paper measures 30 s; 1 tick ≈ 1 ms).
    pub run_ticks: u64,
    /// Leak rates (per mille) for the scenario columns.
    pub leak_rates: Vec<i64>,
    /// Force a collection at least this often (Go forces one every two
    /// minutes; scaled to the simulation).
    pub forced_gc_every: u64,
}

impl Default for Table2Config {
    fn default() -> Self {
        Table2Config {
            service: ServiceConfig::default(),
            warmup_ticks: 5_000,
            run_ticks: 30_000,
            leak_rates: vec![0, 100],
            forced_gc_every: 2_000,
        }
    }
}

/// Client-side metrics (latency in ticks ≈ ms).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ClientMetrics {
    /// Requests per simulated second.
    pub throughput_rps: f64,
    /// Median latency.
    pub p50: f64,
    /// 90th percentile latency.
    pub p90: f64,
    /// 95th percentile latency.
    pub p95: f64,
    /// 99th percentile latency.
    pub p99: f64,
    /// 99.9th percentile latency.
    pub p999: f64,
    /// 99.995th percentile latency.
    pub p99995: f64,
    /// Maximum latency.
    pub max: f64,
}

/// Server-side metrics, mirroring Go's `MemStats` fields used in Table 2.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ServerMetrics {
    /// `StackInuse` (bytes).
    pub stack_inuse_bytes: u64,
    /// `HeapAlloc` (bytes).
    pub heap_alloc_bytes: u64,
    /// `HeapObjects`.
    pub heap_objects: u64,
    /// Blocked user goroutines at the end of the run (the leak inventory).
    pub blocked_goroutines: usize,
    /// `PauseTotalNs` — modeled stop-the-world nanoseconds (marking is
    /// concurrent in Go; only root setup, the marking-done handshake,
    /// GOLF's liveness checks and forced shutdowns pause the world).
    pub pause_total_ns: u64,
    /// `NumGC`.
    pub num_gc: u64,
    /// `PauseTotalNs / NumGC`.
    pub pause_per_cycle_ns: u64,
    /// GC CPU fraction: STW time over the run's wall-clock time.
    pub gc_cpu_fraction: f64,
    /// Deadlocks detected (GOLF only).
    pub deadlocks_detected: u64,
    /// Deadlocked goroutines reclaimed (GOLF only).
    pub deadlocks_reclaimed: u64,
}

/// One scenario's results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Leak rate in requests per mille.
    pub leak_per_mille: i64,
    /// Whether GOLF ran.
    pub golf: bool,
    /// Client-side metrics.
    pub client: ClientMetrics,
    /// Server-side metrics.
    pub server: ServerMetrics,
}

/// Runs one scenario.
pub fn run_scenario(config: &Table2Config, leak_per_mille: i64, golf: bool) -> ScenarioResult {
    let mut service = config.service.clone();
    service.leak_per_mille = leak_per_mille;
    let (vm, globals) = boot_service(&service);
    let mode = if golf { GcMode::Golf } else { GcMode::Baseline };
    // A service-scale pacer (Go would not collect a 64 MiB service heap at
    // microbenchmark frequencies), with STW pauses charged to the clock.
    let pacer = PacerConfig { min_trigger_bytes: 64 * 1024 * 1024, ..PacerConfig::default() };
    let mut session = Session::new(vm, mode, GolfConfig::default(), pacer);
    session.engine_mut().set_keep_history(false);
    session.charge_pauses(1_000_000); // 1 tick = 1 ms

    // Warm-up, then measure. Runs proceed in chunks with a forced
    // collection between chunks (Go's two-minute forced GC, scaled).
    let run_chunked = |session: &mut Session, total: u64| {
        let mut left = total;
        while left > 0 {
            let chunk = left.min(config.forced_gc_every.max(1));
            session.run(chunk);
            session.collect();
            left -= chunk;
        }
    };
    run_chunked(&mut session, config.warmup_ticks);
    let warm_count = read_latencies(session.vm(), globals).len();
    let pause_before = session.gc_totals().modeled_stw_total_ns;
    run_chunked(&mut session, config.run_ticks);

    let all = read_latencies(session.vm(), globals);
    let lat = &all[warm_count.min(all.len())..];
    let seconds = config.run_ticks as f64 / 1_000.0;
    let client = ClientMetrics {
        throughput_rps: lat.len() as f64 / seconds,
        p50: percentile(lat, 50.0).unwrap_or(0.0),
        p90: percentile(lat, 90.0).unwrap_or(0.0),
        p95: percentile(lat, 95.0).unwrap_or(0.0),
        p99: percentile(lat, 99.0).unwrap_or(0.0),
        p999: percentile(lat, 99.9).unwrap_or(0.0),
        p99995: percentile(lat, 99.995).unwrap_or(0.0),
        max: percentile(lat, 100.0).unwrap_or(0.0),
    };

    let totals = *session.gc_totals();
    let heap = *session.vm().heap().stats();
    let server = ServerMetrics {
        stack_inuse_bytes: session.vm().stack_bytes() as u64,
        heap_alloc_bytes: heap.heap_alloc_bytes,
        heap_objects: heap.heap_objects,
        blocked_goroutines: session.vm().blocked_count(),
        pause_total_ns: totals.modeled_stw_total_ns - pause_before,
        num_gc: totals.num_gc,
        pause_per_cycle_ns: totals.modeled_stw_per_cycle_ns(),
        // STW time over simulated wall time (1 tick = 1 ms): the paper's
        // GCCPUFraction analogue.
        gc_cpu_fraction: (totals.modeled_stw_total_ns - pause_before) as f64
            / (config.run_ticks as f64 * 1_000_000.0),
        deadlocks_detected: totals.deadlocks_detected,
        deadlocks_reclaimed: totals.deadlocks_reclaimed,
    };

    ScenarioResult { leak_per_mille, golf, client, server }
}

/// The assembled Table 2: scenarios in (leak, collector) order.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Scenario results, `leak_rates × {baseline, golf}`.
    pub scenarios: Vec<ScenarioResult>,
}

/// Runs all scenarios.
pub fn run_table2(config: &Table2Config) -> Table2 {
    let mut scenarios = Vec::new();
    for &leak in &config.leak_rates {
        for golf in [false, true] {
            scenarios.push(run_scenario(config, leak, golf));
        }
    }
    Table2 { scenarios }
}

impl Table2 {
    /// All scenarios' server-side MemStats snapshots as `name value`
    /// lines, named `{base|golf}.leak{rate}.{field}` after Go's
    /// `runtime.MemStats` fields — the service's expvar-style export.
    /// Cumulative GC/deadlock counters come first, then point-in-time
    /// sizes, each block sorted by name.
    pub fn metrics(&self) -> String {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        for s in &self.scenarios {
            let collector = if s.golf { "golf" } else { "base" };
            let name = |field: &str| format!("{collector}.leak{}.{field}", s.leak_per_mille);
            let m = &s.server;
            counters.push((name("pause_total_ns"), m.pause_total_ns));
            counters.push((name("num_gc"), m.num_gc));
            counters.push((name("deadlocks_detected"), m.deadlocks_detected));
            counters.push((name("deadlocks_reclaimed"), m.deadlocks_reclaimed));
            gauges.push((name("stack_inuse_bytes"), m.stack_inuse_bytes));
            gauges.push((name("heap_alloc_bytes"), m.heap_alloc_bytes));
            gauges.push((name("heap_objects"), m.heap_objects));
            gauges.push((name("blocked_goroutines"), m.blocked_goroutines as u64));
        }
        counters.sort();
        gauges.sort();
        counters.iter().chain(&gauges).map(|(name, value)| format!("{name} {value}\n")).collect()
    }

    /// Renders the paper-style comparison. For each leak rate, Base (B) and
    /// GOLF (G) columns plus the B/G ratio.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let leak_rates: Vec<i64> = {
            let mut v: Vec<i64> = self.scenarios.iter().map(|s| s.leak_per_mille).collect();
            v.dedup();
            v
        };
        for leak in leak_rates {
            let base = self
                .scenarios
                .iter()
                .find(|s| s.leak_per_mille == leak && !s.golf)
                .expect("baseline scenario");
            let golf = self
                .scenarios
                .iter()
                .find(|s| s.leak_per_mille == leak && s.golf)
                .expect("golf scenario");
            out.push_str(&format!("== Leaks in {:.0}% of requests ==\n", leak as f64 / 10.0));
            let mut t = Table::new(vec!["Metric", "Base (B)", "GOLF (G)", "B/G"]);
            for i in 1..4 {
                t.align(i, Align::Right);
            }
            let ratio = |b: f64, g: f64| {
                if g == 0.0 {
                    "—".to_string()
                } else {
                    format!("{:.2}", b / g)
                }
            };
            let mut row = |name: &str, b: f64, g: f64| {
                t.row(vec![name.to_string(), format!("{b:.2}"), format!("{g:.2}"), ratio(b, g)]);
            };
            row("Throughput (req./s)", base.client.throughput_rps, golf.client.throughput_rps);
            row("P50 latency (ms)", base.client.p50, golf.client.p50);
            row("P90 latency (ms)", base.client.p90, golf.client.p90);
            row("P95 latency (ms)", base.client.p95, golf.client.p95);
            row("P99 latency (ms)", base.client.p99, golf.client.p99);
            row("P99.9 latency (ms)", base.client.p999, golf.client.p999);
            row("P99.995 latency (ms)", base.client.p99995, golf.client.p99995);
            row("Maximum latency (ms)", base.client.max, golf.client.max);
            row(
                "Stack spans (MB) (StackInuse)",
                base.server.stack_inuse_bytes as f64 / 1e6,
                golf.server.stack_inuse_bytes as f64 / 1e6,
            );
            row(
                "Heap objects allocated (MB) (HeapAlloc)",
                base.server.heap_alloc_bytes as f64 / 1e6,
                golf.server.heap_alloc_bytes as f64 / 1e6,
            );
            row(
                "No. of objects (HeapObjects)",
                base.server.heap_objects as f64,
                golf.server.heap_objects as f64,
            );
            row(
                "GC fractional CPU utilization (%)",
                base.server.gc_cpu_fraction * 100.0,
                golf.server.gc_cpu_fraction * 100.0,
            );
            row(
                "GC pause time (ns) (PauseTotalNs)",
                base.server.pause_total_ns as f64,
                golf.server.pause_total_ns as f64,
            );
            row("No. of GC cycles (NumGC)", base.server.num_gc as f64, golf.server.num_gc as f64);
            row(
                "Pause time per cycle (ns)",
                base.server.pause_per_cycle_ns as f64,
                golf.server.pause_per_cycle_ns as f64,
            );
            row(
                "Blocked goroutines (leak inventory)",
                base.server.blocked_goroutines as f64,
                golf.server.blocked_goroutines as f64,
            );
            out.push_str(&t.render());
            out.push_str(&format!(
                "GOLF detected {} deadlocks, reclaimed {}\n\n",
                golf.server.deadlocks_detected, golf.server.deadlocks_reclaimed
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> Table2Config {
        Table2Config {
            service: ServiceConfig {
                connections: 8,
                rpc_ticks: 30,
                think_ticks: 5,
                map_bytes: 50_000,
                ..ServiceConfig::default()
            },
            warmup_ticks: 500,
            run_ticks: 4_000,
            leak_rates: vec![0, 100],
            forced_gc_every: 1_000,
        }
    }

    #[test]
    fn leaky_baseline_bloats_golf_reclaims() {
        let t = run_table2(&quick_config());
        assert_eq!(t.scenarios.len(), 4);
        let base_leak = &t.scenarios[2];
        let golf_leak = &t.scenarios[3];
        assert!(!base_leak.golf && golf_leak.golf);
        // The paper's headline: HeapAlloc ~49x smaller under GOLF at 10% leak.
        assert!(
            base_leak.server.heap_alloc_bytes > golf_leak.server.heap_alloc_bytes * 3,
            "base {} vs golf {}",
            base_leak.server.heap_alloc_bytes,
            golf_leak.server.heap_alloc_bytes
        );
        assert!(golf_leak.server.deadlocks_reclaimed > 0);
        // Leak-free: GOLF detects nothing.
        let golf_clean = &t.scenarios[1];
        assert_eq!(golf_clean.server.deadlocks_detected, 0);
        // Both clean scenarios serve comparable traffic.
        let base_clean = &t.scenarios[0];
        let tp_ratio = base_clean.client.throughput_rps / golf_clean.client.throughput_rps;
        assert!((0.8..1.25).contains(&tp_ratio), "throughput ratio {tp_ratio}");
        let rendered = t.render();
        assert!(rendered.contains("Leaks in 10% of requests"));
        assert!(rendered.contains("HeapAlloc"));
        // The MemStats export carries every scenario.
        let metrics = t.metrics();
        let value = |name: &str| {
            metrics
                .lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse::<u64>().ok())
        };
        assert!(value("golf.leak100.heap_alloc_bytes").is_some());
        assert!(value("golf.leak100.deadlocks_reclaimed").unwrap() > 0);
        assert_eq!(value("golf.leak0.deadlocks_detected"), Some(0));
        assert!(value("base.leak0.heap_objects").is_some());
    }
}
