//! `corpus_sweep`: the 73-program Table-1 corpus × procs {1, 2, 4, 10},
//! run one program after another the way `golf_micro::run_benchmark` does:
//! build, boot, run to the 3 000-tick budget, final collection.
//!
//! Each episode sweeps the corpus once under one corpus seed, derived from
//! the run's seed, so every episode repeats the same runs exactly. Most
//! ticks are idle and most collections small, which is what every Table-1
//! sweep and test run pays.

use super::Workload;
use crate::sim::{Meter, Sim};
use golf_core::{PacerConfig, Session};
use golf_micro::{corpus, instances_for, run_benchmark, Microbenchmark, RunSettings};
use golf_runtime::{seed_for, PanicPolicy, RunStatus, TickStatus, Vm, VmConfig};
use std::collections::BTreeSet;

const PROCS: [usize; 4] = [1, 2, 4, 10];
/// Collections checked against the oracle (every one).
const ORACLE_EVERY: u64 = 1;

/// What one program run produced; the fields `run_benchmark` reports.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RunResult {
    detected_sites: BTreeSet<String>,
    unexpected_sites: BTreeSet<String>,
    report_count: usize,
    runtime_failure: bool,
    ticks: u64,
}

/// The `corpus_sweep` workload.
pub struct CorpusSweep {
    seed: u64,
    corpus: Vec<Microbenchmark>,
    settings: RunSettings,
    episodes: u64,
    runs: u64,
    /// The first episode's results, which every later one must repeat.
    first: Vec<RunResult>,
}

impl CorpusSweep {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> Self {
        CorpusSweep {
            seed,
            corpus: corpus(),
            settings: RunSettings::default(),
            episodes: 0,
            runs: 0,
            first: Vec::new(),
        }
    }

    fn corpus_seed(&self) -> u64 {
        seed_for(self.seed, "corpus_sweep")
    }

    /// Builds one corpus program and boots it under a GOLF session.
    fn boot(&self, m: &mut Meter, mb: &Microbenchmark, procs: usize, seed: u64) -> Session {
        let span = m.begin("build");
        let program = (mb.build)(instances_for(mb.flakiness, self.settings.max_instances));
        m.end(span);
        let span = m.begin("boot");
        let vm = Vm::boot(
            program,
            VmConfig {
                gomaxprocs: procs,
                seed,
                panic_policy: PanicPolicy::KillGoroutine,
                ..VmConfig::default()
            },
        );
        let session = Session::golf(vm);
        m.end(span);
        session
    }

    /// One program run, driven tick by tick.
    fn run_one(&self, m: &mut Meter, mb: &Microbenchmark, procs: usize, seed: u64) -> RunResult {
        let mut sim = Sim::new(self.boot(m, mb, procs, seed), PacerConfig::default());
        sim.oracle_every = ORACLE_EVERY;
        sim.begin_measure();
        let mut reports = Vec::new();
        let status = loop {
            let (status, collected) = sim.tick(m);
            if let Some(c) = collected {
                reports.extend(c.reports);
            }
            match status {
                TickStatus::Progress if sim.session.vm().now() < self.settings.tick_budget => {}
                TickStatus::Progress => break RunStatus::TickLimit,
                TickStatus::MainDone => break RunStatus::MainDone,
                TickStatus::GlobalDeadlock => break RunStatus::GlobalDeadlock,
                TickStatus::Panicked => break RunStatus::Panicked,
            }
        };
        let ticks = sim.session.vm().now();
        reports.extend(sim.collect(m).reports);
        sim.end_measure(m);

        let mut result = RunResult {
            detected_sites: BTreeSet::new(),
            unexpected_sites: BTreeSet::new(),
            report_count: reports.len(),
            runtime_failure: status == RunStatus::Panicked || !sim.session.vm().panics().is_empty(),
            ticks,
        };
        for r in &reports {
            match &r.spawn_site {
                Some(site) if mb.sites.contains(&&**site) => {
                    result.detected_sites.insert(site.to_string());
                }
                Some(site) => {
                    result.unexpected_sites.insert(site.to_string());
                }
                None => {
                    result.unexpected_sites.insert(format!("<main> at {}", r.block_location));
                }
            }
        }
        result
    }
}

fn run_seed(corpus_seed: u64, bench: usize, procs_idx: usize) -> u64 {
    corpus_seed.wrapping_add((bench as u64) << 32).wrapping_add((procs_idx as u64) << 24)
}

impl Workload for CorpusSweep {
    fn setup(&mut self, m: &mut Meter) {
        let corpus_seed = self.corpus_seed();
        for (i, mb) in self.corpus.iter().enumerate() {
            for (pi, &procs) in PROCS.iter().enumerate() {
                drop(self.boot(m, mb, procs, run_seed(corpus_seed, i, pi)));
            }
        }
    }

    /// Checks every run: no unexpected sites, and the same result as
    /// `golf_micro::run_benchmark` in the first episode and as the first
    /// episode's run in every later one.
    fn measure(&mut self, m: &mut Meter) -> u64 {
        let corpus_seed = self.corpus_seed();
        let first_episode = self.episodes == 0;
        self.episodes += 1;
        let mut runs = 0;
        for (i, mb) in self.corpus.iter().enumerate() {
            for (pi, &procs) in PROCS.iter().enumerate() {
                let seed = run_seed(corpus_seed, i, pi);
                let result = self.run_one(m, mb, procs, seed);

                let timer = m.check_begin();
                m.check(result.unexpected_sites.is_empty(), || {
                    format!(
                        "{} procs={procs} seed={seed}: unexpected {:?}",
                        mb.name, result.unexpected_sites
                    )
                });
                if first_episode {
                    let reference =
                        run_benchmark(mb, &RunSettings { procs, seed, ..self.settings.clone() });
                    let same = reference.report_count == result.report_count
                        && reference.detected_sites == result.detected_sites
                        && reference.unexpected_sites == result.unexpected_sites
                        && reference.runtime_failure == result.runtime_failure
                        && reference.ticks == result.ticks;
                    m.check(same, || {
                        format!("{} procs={procs} seed={seed}: {result:?} vs run_benchmark {reference:?}", mb.name)
                    });
                    self.first.push(result);
                } else {
                    let first = &self.first[runs];
                    m.check(result == *first, || {
                        format!(
                            "{} procs={procs} seed={seed}: {result:?} vs first episode {first:?}",
                            mb.name
                        )
                    });
                }
                m.check_end(timer);
                runs += 1;
            }
        }
        self.runs += runs as u64;
        runs as u64
    }

    fn summary(&self) -> String {
        let total: usize = self.corpus.iter().map(|b| b.sites.len()).sum();
        let reports: usize = self.first.iter().map(|r| r.report_count).sum();
        let sites: BTreeSet<_> = self.first.iter().flat_map(|r| &r.detected_sites).collect();
        format!(
            "corpus_sweep per episode: {} program runs with corpus seed {:#x}, {reports} reports, \
             {}/{total} Table-1 sites detected ({:.1} %); {} runs in {} episodes",
            self.first.len(),
            self.corpus_seed(),
            sites.len(),
            100.0 * sites.len() as f64 / total as f64,
            self.runs,
            self.episodes
        )
    }
}
