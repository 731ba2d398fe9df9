//! `service_leak`: the Table-2 service scaled to 512 connections with 10 %
//! leaky double-send requests, under GOLF with reclamation.
//!
//! A closed loop: each connection goroutine issues its next request only
//! after the previous one completed, as fast as the VM runs. The pacer is
//! off, as in Table 2; a collection is forced every 500 ticks. Every
//! episode boots the service afresh with the run's seed, so episodes repeat
//! exactly and the service's growing latency log never outlives one.

use super::Workload;
use crate::sim::{Meter, Sim};
use golf_core::{GcMode, GolfConfig, PacerConfig, Session};
use golf_runtime::{Object, TickStatus, Value, Vm, VmConfig};
use golf_service::{build_service, ServiceConfig, ServiceGlobals};

const CONNECTIONS: usize = 512;
const LEAK_PER_MILLE: i64 = 100;
const FORCE_EVERY: u64 = 500;
const WARMUP_TICKS: u64 = 5_000;
/// Forced collections per episode (100 000 ticks).
const ROUNDS: u64 = 200;
/// Collections checked against the oracle: every `ORACLE_EVERY`-th, plus
/// the last of each episode.
const ORACLE_EVERY: u64 = 1;
/// A pacer that never fires.
const PACER_OFF: PacerConfig = PacerConfig { growth_factor: 2.0, min_trigger_bytes: u64::MAX };

/// Requests completed so far: the length of the service's latency log.
/// (Its `completed` counter is a non-atomic read-modify-write across
/// preemption points, so concurrent handlers lose updates.)
fn requests(vm: &Vm, globals: ServiceGlobals) -> u64 {
    match vm.global(globals.latencies) {
        Value::Ref(h) => match vm.heap().get(h) {
            Some(Object::Slice(log)) => log.len() as u64,
            _ => 0,
        },
        _ => 0,
    }
}

/// Outputs that must repeat exactly in every episode of one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    warmup_completed: u64,
    warmup_reports: u64,
    completed: u64,
    reports: u64,
}

/// The `service_leak` workload.
pub struct ServiceLeak {
    config: ServiceConfig,
    episode: Option<(Sim, ServiceGlobals)>,
    warmup: (u64, u64),
    first: Option<Digest>,
}

impl ServiceLeak {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> Self {
        ServiceLeak {
            config: ServiceConfig {
                connections: CONNECTIONS,
                leak_per_mille: LEAK_PER_MILLE,
                seed,
                ..ServiceConfig::default()
            },
            episode: None,
            warmup: (0, 0),
            first: None,
        }
    }
}

impl Workload for ServiceLeak {
    fn setup(&mut self, m: &mut Meter) {
        let span = m.begin("build");
        let (program, globals) = build_service(&self.config);
        m.end(span);

        let span = m.begin("boot");
        let vm = Vm::boot(
            program,
            VmConfig {
                gomaxprocs: self.config.server_procs,
                seed: self.config.seed,
                assist: self.config.assist,
                ..VmConfig::default()
            },
        );
        let mut session = Session::new(vm, GcMode::Golf, GolfConfig::default(), PACER_OFF);
        session.engine_mut().set_keep_history(false);
        m.end(span);

        let mut sim = Sim::new(session, PACER_OFF);
        sim.force_every = Some(FORCE_EVERY);
        let mut reports = 0;
        while sim.session.vm().now() < WARMUP_TICKS {
            if let (_, Some(c)) = sim.tick(m) {
                reports += c.reports.len() as u64;
            }
        }
        self.warmup = (requests(sim.session.vm(), globals), reports);
        self.episode = Some((sim, globals));
    }

    fn measure(&mut self, m: &mut Meter) -> u64 {
        let (mut sim, globals) = self.episode.take().expect("setup runs before measure");
        sim.oracle_every = ORACLE_EVERY;
        sim.begin_measure();
        let before = requests(sim.session.vm(), globals);
        let mut reports = 0;
        let mut stalled = false;
        for round in 0..ROUNDS {
            sim.check_next = round + 1 == ROUNDS;
            loop {
                let (status, collected) = sim.tick(m);
                if status != TickStatus::Progress {
                    stalled = true;
                }
                if let Some(c) = collected {
                    reports += c.reports.len() as u64;
                    break;
                }
            }
        }
        sim.end_measure(m);
        let completed = requests(sim.session.vm(), globals) - before;

        let timer = m.check_begin();
        m.check(!stalled && completed > 0, || {
            format!("service stopped serving: {completed} requests, stalled={stalled}")
        });
        let digest = Digest {
            warmup_completed: self.warmup.0,
            warmup_reports: self.warmup.1,
            completed,
            reports,
        };
        let first = *self.first.get_or_insert(digest);
        m.check(digest == first, || {
            format!("episode differs from the first: {digest:?} vs {first:?}")
        });
        m.check_end(timer);
        completed
    }

    fn summary(&self) -> String {
        match self.first {
            Some(d) => format!(
                "service_leak per episode: {} requests and {} reports after {} warm-up requests and {} warm-up reports",
                d.completed, d.reports, d.warmup_completed, d.warmup_reports
            ),
            None => String::new(),
        }
    }
}
