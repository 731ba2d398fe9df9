//! The controlled-service workload of the paper's Table 2.
//!
//! The paper exercises a typical Uber service: each request makes one
//! downstream RPC and processes a DAG of sub-tasks in parallel; the request
//! handler spawns a child goroutine, parent and child communicate over two
//! channels, each side allocates a 100K-entry hash map, and the child may
//! deadlock on a "double send". We reproduce exactly that shape: `conns`
//! connection goroutines loop issuing requests; each request sleeps for the
//! RPC, allocates blobs standing in for the maps, spawns the child, and
//! `select`s on the two channels. The leak rate is controlled per-request.

use golf_runtime::{
    BinOp, FuncBuilder, FuncId, GlobalId, ProgramSet, SelectSpec, SiteId, Value, Vm, VmConfig,
};

/// Workload parameters. One scheduler tick models one millisecond.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Virtual cores for the server (the paper allocates 8).
    pub server_procs: usize,
    /// Concurrent client connections (the paper uses 32).
    pub connections: usize,
    /// Downstream RPC latency in ticks (≈ ms).
    pub rpc_ticks: u64,
    /// Client think time between requests, in ticks.
    pub think_ticks: u64,
    /// Leaking requests per thousand (0 or 100 in the paper's scenarios).
    pub leak_per_mille: i64,
    /// Modeled bytes of each side's hash map (the paper's 100K entries).
    pub map_bytes: u64,
    /// Allocation-assist (memory pressure) modeling.
    pub assist: Option<golf_runtime::AssistConfig>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            server_procs: 8,
            connections: 32,
            rpc_ticks: 250,
            think_ticks: 30,
            leak_per_mille: 0,
            map_bytes: 100_000 * 16,
            assist: Some(golf_runtime::AssistConfig::default()),
            seed: 0x5E21,
        }
    }
}

/// Handles into the instrumented program: where latencies and counters are
/// published by guest code.
#[derive(Debug, Clone, Copy)]
pub struct ServiceGlobals {
    /// Global slot holding the latency slice (each element one request's
    /// latency in ticks).
    pub latencies: GlobalId,
    /// Global slot holding the completed-request counter cell.
    pub completed: GlobalId,
}

/// Defines the request path shared by the Table 2 and Table 3 services —
/// `child` and `handle_request(lat_slice, counter)` — and returns
/// `handle_request`. `child_site` labels the `go child(..)` statement.
pub(crate) fn define_request(
    p: &mut ProgramSet,
    config: &ServiceConfig,
    child_site: SiteId,
) -> FuncId {
    // child(ch1, ch2, leak): allocate the child-side map, send on ch1, and
    // — on leaking requests — also send on ch2 (the double send).
    let mut b = FuncBuilder::new("child", 3);
    let ch1 = b.param(0);
    let ch2 = b.param(1);
    let leak = b.param(2);
    let map = b.var("child_map");
    b.new_blob(map, config.map_bytes);
    let v = b.int(1);
    b.send(ch1, v);
    b.if_then(leak, |b| {
        b.send(ch2, v); // double send: parent already returned
    });
    b.ret(None);
    let child = p.define(b);

    // handle_request(lat_slice, counter): the paper's request body.
    let mut b = FuncBuilder::new("handle_request", 2);
    let lat = b.param(0);
    let counter = b.param(1);
    let t0 = b.var("t0");
    b.now_tick(t0);
    // One downstream RPC.
    b.sleep(config.rpc_ticks.max(1));
    // Parent-side map for the DAG of sub-tasks.
    let pmap = b.var("parent_map");
    b.new_blob(pmap, config.map_bytes);
    let ch1 = b.var("ch1");
    let ch2 = b.var("ch2");
    b.make_chan(ch1, 0);
    b.make_chan(ch2, 0);
    let leak = b.var("leak");
    b.rand_chance(leak, config.leak_per_mille, 1000);
    b.go(child, &[ch1, ch2, leak], child_site);
    // The parent returns on whichever channel has a message first.
    let l1 = b.label();
    let l2 = b.label();
    let done = b.label();
    b.select(SelectSpec::new().recv(ch1, None, l1).recv(ch2, None, l2));
    b.bind(l1);
    b.jump(done);
    b.bind(l2);
    b.bind(done);
    // Record latency and completion.
    let t1 = b.var("t1");
    let dt = b.var("dt");
    b.now_tick(t1);
    b.bin(BinOp::Sub, dt, t1, t0);
    b.slice_push(lat, dt);
    let c = b.var("c");
    let one = b.int(1);
    b.cell_get(c, counter);
    b.bin(BinOp::Add, c, c, one);
    b.cell_set(counter, c);
    b.ret(None);
    p.define(b)
}

/// Builds the instrumented service program.
///
/// The program starts `connections` connection-driver goroutines and
/// returns; the embedding session runs it for as long as the experiment
/// lasts (drivers loop forever).
pub fn build_service(config: &ServiceConfig) -> (ProgramSet, ServiceGlobals) {
    let mut p = ProgramSet::new();
    let latencies = p.global("latencies");
    let completed = p.global("completed");
    let child_site = p.site("handleRequest:child");
    let conn_site = p.site("main:conn");
    let handle = define_request(&mut p, config, child_site);

    // conn(lat, counter): loop { think; handle_request() }.
    let mut b = FuncBuilder::new("conn", 2);
    let lat = b.param(0);
    let counter = b.param(1);
    let think = config.think_ticks.max(1);
    b.forever(|b| {
        b.sleep(think);
        b.call(handle, &[lat, counter], None);
    });
    let conn = p.define(b);

    // main: set up shared state, start the connection drivers, park.
    let mut b = FuncBuilder::new("main", 0);
    let lat = b.var("lat");
    b.new_slice(lat);
    b.set_global(latencies, lat);
    let counter = b.var("counter");
    let zero = b.int(0);
    b.new_cell(counter, zero);
    b.set_global(completed, counter);
    b.repeat(config.connections as i64, |b, _| {
        b.go(conn, &[lat, counter], conn_site);
    });
    b.forever(|b| b.sleep(10_000));
    p.define(b);

    (p, ServiceGlobals { latencies, completed })
}

/// Boots a VM running the service.
pub fn boot_service(config: &ServiceConfig) -> (Vm, ServiceGlobals) {
    let (p, globals) = build_service(config);
    let vm = Vm::boot(
        p,
        VmConfig {
            gomaxprocs: config.server_procs,
            seed: config.seed,
            assist: config.assist,
            ..VmConfig::default()
        },
    );
    (vm, globals)
}

/// Reads the recorded request latencies (ticks) out of a service VM.
pub fn read_latencies(vm: &Vm, globals: ServiceGlobals) -> Vec<f64> {
    let Value::Ref(h) = vm.global(globals.latencies) else { return Vec::new() };
    match vm.heap().get(h) {
        Some(golf_runtime::Object::Slice(vs)) => {
            vs.iter().filter_map(|v| v.as_int()).map(|i| i as f64).collect()
        }
        _ => Vec::new(),
    }
}

/// Reads the completed-request counter.
pub fn read_completed(vm: &Vm, globals: ServiceGlobals) -> u64 {
    let Value::Ref(h) = vm.global(globals.completed) else { return 0 };
    match vm.heap().get(h) {
        Some(golf_runtime::Object::Cell(v)) => v.as_int().unwrap_or(0).max(0) as u64,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use golf_core::Session;

    #[test]
    fn clean_service_serves_requests_without_leaks() {
        let (vm, globals) = boot_service(&ServiceConfig {
            connections: 4,
            rpc_ticks: 20,
            think_ticks: 5,
            leak_per_mille: 0,
            map_bytes: 1_000,
            ..ServiceConfig::default()
        });
        let mut s = Session::golf(vm);
        s.run(5_000);
        let lat = read_latencies(s.vm(), globals);
        assert!(lat.len() > 50, "served {} requests", lat.len());
        // The counter trails the latency slice by at most the handlers
        // caught between their two updates when the run stopped.
        let completed = read_completed(s.vm(), globals);
        assert!(completed as usize <= lat.len() && completed as usize + 10 >= lat.len());
        assert!(s.reports().is_empty(), "no leaks injected: {:?}", s.reports());
        // All latencies at least the RPC time.
        assert!(lat.iter().all(|&l| l >= 20.0));
    }

    #[test]
    fn leaky_service_leaks_and_golf_reclaims() {
        let build = |leak| ServiceConfig {
            connections: 4,
            rpc_ticks: 20,
            think_ticks: 5,
            leak_per_mille: leak,
            map_bytes: 10_000,
            ..ServiceConfig::default()
        };
        // Baseline: leaked children accumulate.
        let (vm, _) = boot_service(&build(300));
        let mut base = Session::baseline(vm);
        base.run(5_000);
        let leaked_base = base.vm().blocked_count();
        assert!(leaked_base > 5, "expected accumulated leaks, got {leaked_base}");

        // GOLF: reclaimed on the fly.
        let (vm, _) = boot_service(&build(300));
        let mut golf = Session::golf(vm);
        golf.run(5_000);
        assert!(
            golf.gc_totals().deadlocks_reclaimed > 0,
            "GOLF reclaimed nothing: {:?}",
            golf.gc_totals()
        );
        assert!(golf.vm().blocked_count() < leaked_base);
        // Memory: GOLF's live heap is far below the baseline's.
        assert!(
            golf.vm().heap().stats().heap_alloc_bytes
                < base.vm().heap().stats().heap_alloc_bytes / 2,
            "golf {} vs base {}",
            golf.vm().heap().stats().heap_alloc_bytes,
            base.vm().heap().stats().heap_alloc_bytes
        );
    }
}
