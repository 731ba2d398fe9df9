//! The Table 3 experiment: the service under production-like conditions —
//! diurnal traffic, measurement noise, a low-rate real leak — emitting
//! latency and CPU metrics in fixed windows, baseline vs GOLF.

use crate::service::{define_request, read_latencies, ServiceConfig, ServiceGlobals};
use golf_core::{GcMode, GolfConfig, PacerConfig, Session};
use golf_metrics::{mean_std, percentile, Align, MeanStd, Table};
use golf_runtime::{BinOp, FuncBuilder, ProgramSet, Value, Vm, VmConfig};

/// Production-experiment parameters.
#[derive(Debug, Clone)]
pub struct ProductionConfig {
    /// Base workload (think time is modulated; leak rate applies).
    pub service: ServiceConfig,
    /// Metric-emission window in ticks (the paper's services emit every
    /// three minutes; we compress time).
    pub window_ticks: u64,
    /// Number of windows (the paper observes 32 hours ≈ 640 windows).
    pub windows: usize,
    /// Diurnal period, in windows.
    pub diurnal_period: usize,
    /// Peak-to-trough think-time swing (1.0 = think time doubles at
    /// trough).
    pub diurnal_amplitude: f64,
}

impl Default for ProductionConfig {
    fn default() -> Self {
        ProductionConfig {
            service: ServiceConfig { leak_per_mille: 5, ..ServiceConfig::default() },
            window_ticks: 1_500,
            windows: 160,
            diurnal_period: 40,
            diurnal_amplitude: 1.0,
        }
    }
}

/// Builds the production service: like the controlled service, but with a
/// think-time cell modulated by an in-guest scheduler following a
/// precomputed diurnal curve.
fn build_production(config: &ProductionConfig) -> (ProgramSet, ServiceGlobals) {
    let c = &config.service;
    let mut p = ProgramSet::new();
    let latencies = p.global("latencies");
    let completed = p.global("completed");
    let think_global = p.global("think");
    let child_site = p.site("handleRequest:child");
    let conn_site = p.site("main:conn");
    let mod_site = p.site("main:modulator");

    let handle = define_request(&mut p, c, child_site);

    // conn: think time read from the modulated cell each iteration.
    let mut b = FuncBuilder::new("conn", 3); // lat, counter, think_cell
    let lat = b.param(0);
    let counter = b.param(1);
    let think_cell = b.param(2);
    b.forever(|b| {
        let t = b.var("t");
        b.cell_get(t, think_cell);
        b.sleep_var(t);
        b.call(handle, &[lat, counter], None);
    });
    let conn = p.define(b);

    // modulator: walks the precomputed schedule, one entry per window.
    let mut b = FuncBuilder::new("modulator", 2); // think_cell, schedule
    let think_cell = b.param(0);
    let schedule = b.param(1);
    let n = b.var("n");
    b.slice_len(n, schedule);
    let i = b.int(0);
    let one = b.int(1);
    let window = config.window_ticks.max(1);
    b.forever(|b| {
        let in_range = b.var("in_range");
        b.bin(BinOp::Lt, in_range, i, n);
        let skip = b.label();
        b.jump_if_not(in_range, skip);
        let v = b.var("v");
        b.slice_get(v, schedule, i);
        b.cell_set(think_cell, v);
        b.bin(BinOp::Add, i, i, one);
        b.bind(skip);
        b.sleep(window);
    });
    let modulator = p.define(b);

    // Precompute the diurnal think-time schedule.
    let base_think = c.think_ticks.max(1) as f64;
    let schedule_vals: Vec<i64> = (0..config.windows)
        .map(|w| {
            let phase = (w % config.diurnal_period) as f64 / config.diurnal_period as f64
                * std::f64::consts::TAU;
            let factor = 1.0
                + config.diurnal_amplitude * 0.5 * (1.0 - phase.cos()) / 2.0
                + config.diurnal_amplitude * 0.5 * ((w * 2654435761) % 97) as f64 / 970.0;
            (base_think * factor).round().max(1.0) as i64
        })
        .collect();

    // main: shared state, schedule slice, modulator, connections, park.
    let mut b = FuncBuilder::new("main", 0);
    let lat = b.var("lat");
    b.new_slice(lat);
    b.set_global(latencies, lat);
    let counter = b.var("counter");
    let zero = b.int(0);
    b.new_cell(counter, zero);
    b.set_global(completed, counter);
    let think_cell = b.var("think_cell");
    let init_think = b.int(c.think_ticks.max(1) as i64);
    b.new_cell(think_cell, init_think);
    b.set_global(think_global, think_cell);
    let schedule = b.var("schedule");
    b.new_slice(schedule);
    let tmp = b.var("tmp");
    for v in schedule_vals {
        b.konst(tmp, Value::Int(v));
        b.slice_push(schedule, tmp);
    }
    b.go(modulator, &[think_cell, schedule], mod_site);
    b.repeat(c.connections as i64, |b, _| {
        b.go(conn, &[lat, counter, think_cell], conn_site);
    });
    b.forever(|b| b.sleep(10_000));
    p.define(b);

    (p, ServiceGlobals { latencies, completed })
}

/// Per-collector production metrics.
#[derive(Debug, Clone)]
pub struct ProductionResult {
    /// Whether GOLF ran.
    pub golf: bool,
    /// Windowed P50 latency, aggregated mean ± std.
    pub p50_latency: MeanStd,
    /// Windowed P99 latency, aggregated mean ± std.
    pub p99_latency: MeanStd,
    /// Windowed CPU-utilization proxy (%), mean ± std. Computed as
    /// instructions executed per window over the window's execution budget.
    pub cpu_pct: MeanStd,
    /// Deadlocks detected over the run (GOLF only).
    pub deadlocks_detected: u64,
}

/// Runs the production experiment under one collector.
pub fn run_production(config: &ProductionConfig, golf: bool) -> ProductionResult {
    let (p, globals) = build_production(config);
    let vm = Vm::boot(
        p,
        VmConfig {
            gomaxprocs: config.service.server_procs,
            seed: config.service.seed,
            assist: config.service.assist,
            ..VmConfig::default()
        },
    );
    let mode = if golf { GcMode::Golf } else { GcMode::Baseline };
    let pacer = PacerConfig { min_trigger_bytes: 64 * 1024 * 1024, ..PacerConfig::default() };
    let mut session = Session::new(vm, mode, GolfConfig::default(), pacer);
    session.engine_mut().set_keep_history(false);
    session.charge_pauses(1_000_000);

    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    let mut cpus = Vec::new();
    let mut seen = 0usize;
    let mut instrs_prev = session.vm().instrs_executed();
    let budget_per_window = (config.window_ticks
        * config.service.server_procs as u64
        * u64::from(session.vm().config().max_quantum)) as f64;
    for _ in 0..config.windows {
        session.run(config.window_ticks);
        // Go's runtime forces a collection at least every two minutes even
        // when the pacer is quiet; one per emission window models that.
        session.collect();
        let all = read_latencies(session.vm(), globals);
        let fresh: Vec<f64> = all[seen.min(all.len())..].to_vec();
        seen = all.len();
        if let Some(p50) = percentile(&fresh, 50.0) {
            p50s.push(p50);
        }
        if let Some(p99) = percentile(&fresh, 99.0) {
            p99s.push(p99);
        }
        let instrs_now = session.vm().instrs_executed();
        cpus.push(100.0 * (instrs_now - instrs_prev) as f64 / budget_per_window);
        instrs_prev = instrs_now;
    }

    ProductionResult {
        golf,
        p50_latency: mean_std(&p50s).unwrap_or(MeanStd { mean: 0.0, std: 0.0, n: 0 }),
        p99_latency: mean_std(&p99s).unwrap_or(MeanStd { mean: 0.0, std: 0.0, n: 0 }),
        cpu_pct: mean_std(&cpus).unwrap_or(MeanStd { mean: 0.0, std: 0.0, n: 0 }),
        deadlocks_detected: session.gc_totals().deadlocks_detected,
    }
}

/// Renders the paper-style Table 3.
pub fn render_table3(baseline: &ProductionResult, golf: &ProductionResult) -> String {
    let mut t = Table::new(vec!["", "", "Latency (ms)", "CPU Usage (%)"]);
    t.align(2, Align::Right).align(3, Align::Right);
    t.row(vec![
        "P50".into(),
        "Baseline".into(),
        baseline.p50_latency.to_string(),
        baseline.cpu_pct.to_string(),
    ]);
    t.row(vec!["".into(), "GOLF".into(), golf.p50_latency.to_string(), golf.cpu_pct.to_string()]);
    t.row(vec![
        "P99".into(),
        "Baseline".into(),
        baseline.p99_latency.to_string(),
        baseline.cpu_pct.to_string(),
    ]);
    t.row(vec!["".into(), "GOLF".into(), golf.p99_latency.to_string(), golf.cpu_pct.to_string()]);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ProductionConfig {
        ProductionConfig {
            service: ServiceConfig {
                connections: 6,
                rpc_ticks: 20,
                think_ticks: 5,
                map_bytes: 10_000,
                leak_per_mille: 20,
                ..ServiceConfig::default()
            },
            window_ticks: 400,
            windows: 10,
            diurnal_period: 5,
            diurnal_amplitude: 1.0,
        }
    }

    #[test]
    fn production_run_produces_windows_and_detections() {
        let base = run_production(&quick(), false);
        let golf = run_production(&quick(), true);
        assert!(base.p50_latency.n >= 8, "windows with data: {}", base.p50_latency.n);
        assert!(golf.deadlocks_detected > 0, "GOLF saw the production leak");
        assert_eq!(base.deadlocks_detected, 0);
        // Latency medians are in the same ballpark: GOLF does not impinge
        // on production performance (paper Table 3's takeaway).
        let ratio = golf.p50_latency.mean / base.p50_latency.mean;
        assert!((0.7..1.4).contains(&ratio), "p50 ratio {ratio}");
        let rendered = render_table3(&base, &golf);
        assert!(rendered.contains("P99"));
    }
}
