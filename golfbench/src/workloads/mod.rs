//! The three workloads. Each run repeats episodes: an episode sets its
//! program(s) up, then runs a fixed amount of measured work.

pub mod corpus_sweep;
pub mod heap_churn;
pub mod service_leak;

use crate::sim::Meter;

/// One workload: how to set up and measure an episode. Every episode runs
/// at least 200 collections, so its p95 pause has ten samples beyond it.
pub trait Workload {
    /// Builds the program(s), boots them and warms up.
    fn setup(&mut self, m: &mut Meter);
    /// Runs the measured phase of the episode just set up; returns the
    /// operations completed.
    fn measure(&mut self, m: &mut Meter) -> u64;
    /// A line of deterministic outputs, printed with the results.
    fn summary(&self) -> String;
}

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["service_leak", "heap_churn", "corpus_sweep"];

/// The workload called `name`, with inputs generated from `seed`.
pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "service_leak" => Box::new(service_leak::ServiceLeak::new(seed)),
        "heap_churn" => Box::new(heap_churn::HeapChurn::new(seed)),
        "corpus_sweep" => Box::new(corpus_sweep::CorpusSweep::new(seed)),
        _ => return None,
    })
}
