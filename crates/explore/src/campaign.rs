//! Campaign runner: explore many targets, many schedules each, in
//! parallel, deterministically.
//!
//! Work is partitioned per target (one VM per worker thread at a time, as
//! the VM itself is single-threaded), and every schedule attempt is a pure
//! function of `(root seed, target name, schedule index)` — so a campaign
//! produces the same verdicts, logs, and minimized schedules for any
//! worker-thread count, and run-to-run.
//!
//! Seed derivation uses [`golf_runtime::seed_for`]: per target,
//! `seed_for(root, "vm/<name>")` and `seed_for(root, "strategy/<name>")`
//! anchor two independent streams, and schedule `i` offsets each by `i`.

use crate::runner::{record_run, replay_run, RunOutput};
use crate::schedule::Schedule;
use crate::shrink::shrink;
use crate::strategy::StrategyKind;
use crate::target::Target;
use golf_micro::par_map;
use golf_runtime::seed_for;
use std::collections::BTreeSet;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Maximum schedules per target.
    pub budget: u64,
    /// The exploration strategy.
    pub strategy: StrategyKind,
    /// Root seed; every per-target stream derives from it.
    pub root_seed: u64,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Replay probes allowed per shrink search (0 disables shrinking).
    pub shrink_budget: u64,
    /// Re-replay each minimized schedule and require the reproduced
    /// deadlock report to match byte-for-byte.
    pub verify: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            budget: 2_000,
            strategy: StrategyKind::Pct { depth: 3 },
            root_seed: 0x601F,
            threads: 0,
            shrink_budget: 96,
            verify: true,
        }
    }
}

/// What a campaign learned about one target.
#[derive(Debug)]
pub struct TargetOutcome {
    /// Target name.
    pub name: String,
    /// Sites annotated as leaky (ground truth).
    pub expected_sites: Vec<String>,
    /// Expected sites actually reported by some schedule.
    pub found_sites: BTreeSet<String>,
    /// Schedules executed (≤ budget; early exit once every site is found).
    pub schedules_run: u64,
    /// 1-based index of the first schedule that exposed a leak.
    pub first_leak: Option<u64>,
    /// Decision count of the first leaking schedule.
    pub original_len: Option<usize>,
    /// The minimized reproducing schedule for the first leak found.
    pub minimized: Option<Schedule>,
    /// Deduplication key of the report the minimized schedule reproduces.
    pub report_key: Option<(String, String)>,
    /// Rendered deadlock report reproduced by the minimized schedule.
    pub report_text: Option<String>,
    /// Replay probes the shrink search spent.
    pub shrink_probes: u64,
    /// Whether two independent replays of the minimized schedule produced
    /// byte-identical reports (`None` when verification was off or no leak
    /// was found).
    pub verified: Option<bool>,
    /// One JSONL line per executed schedule.
    pub log: Vec<String>,
}

impl TargetOutcome {
    /// A target counts as found when every annotated site was exposed.
    pub fn all_sites_found(&self) -> bool {
        self.expected_sites.iter().all(|s| self.found_sites.contains(s))
    }
}

/// Aggregate campaign result, target order preserved.
#[derive(Debug)]
pub struct CampaignResult {
    /// Per-target outcomes, in input target order.
    pub outcomes: Vec<TargetOutcome>,
    /// Total schedules executed (exploration only, excluding shrink and
    /// verification replays).
    pub schedules_total: u64,
    /// Total shrink/verification replays.
    pub replays_total: u64,
}

impl CampaignResult {
    /// Targets with at least one annotated leaky site.
    pub fn leaky_targets(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.expected_sites.is_empty()).count()
    }

    /// Leaky targets for which a leak was exposed.
    pub fn leaky_found(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| !o.expected_sites.is_empty() && o.first_leak.is_some())
            .count()
    }

    /// Whether every minimized schedule verified byte-for-byte.
    pub fn all_verified(&self) -> bool {
        self.outcomes.iter().all(|o| o.verified != Some(false))
    }

    /// The worst schedules-to-first-leak across leaky targets (`None` when
    /// some leaky target was never exposed).
    pub fn first_leak_max(&self) -> Option<u64> {
        let mut max = 0;
        for o in &self.outcomes {
            if o.expected_sites.is_empty() {
                continue;
            }
            max = max.max(o.first_leak?);
        }
        Some(max)
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn log_line(target: &str, index: u64, run: &RunOutput, new_sites: &[&str]) -> String {
    let sites =
        new_sites.iter().map(|s| format!("\"{}\"", json_escape(s))).collect::<Vec<_>>().join(",");
    format!(
        "{{\"target\":\"{}\",\"schedule\":{},\"strategy\":\"{}\",\"seed\":{},\"decisions\":{},\"status\":\"{:?}\",\"ticks\":{},\"reports\":{},\"new_sites\":[{}]}}",
        json_escape(target),
        index,
        json_escape(&run.schedule.strategy),
        run.schedule.seed,
        run.schedule.decisions.len(),
        run.status,
        run.ticks,
        run.reports.len(),
        sites,
    )
}

fn explore_target(target: &Target, config: &CampaignConfig) -> (TargetOutcome, u64) {
    let vm_base = seed_for(config.root_seed, &format!("vm/{}", target.name));
    let strat_base = seed_for(config.root_seed, &format!("strategy/{}", target.name));
    let mut outcome = TargetOutcome {
        name: target.name.clone(),
        expected_sites: target.expected_sites.clone(),
        found_sites: BTreeSet::new(),
        schedules_run: 0,
        first_leak: None,
        original_len: None,
        minimized: None,
        report_key: None,
        report_text: None,
        shrink_probes: 0,
        verified: None,
        log: Vec::new(),
    };
    let mut first_leak_schedule: Option<Schedule> = None;
    let mut first_leak_key: Option<(String, String)> = None;

    for i in 0..config.budget {
        let run = record_run(
            target,
            vm_base.wrapping_add(i),
            &config.strategy,
            strat_base.wrapping_add(i),
            false,
        );
        outcome.schedules_run += 1;
        let new_sites: Vec<&str> = run
            .found_sites(&target.expected_sites)
            .filter(|s| !outcome.found_sites.contains(*s))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        outcome.log.push(log_line(&target.name, i + 1, &run, &new_sites));
        if !new_sites.is_empty() && outcome.first_leak.is_none() {
            outcome.first_leak = Some(i + 1);
            outcome.original_len = Some(run.schedule.decisions.len());
            // The report to preserve through shrinking: the first one (in
            // oracle order) at an annotated site.
            let key = run
                .reports
                .iter()
                .find(|r| {
                    r.spawn_site
                        .as_deref()
                        .is_some_and(|s| target.expected_sites.iter().any(|e| e == s))
                })
                .map(|r| r.dedup_key_owned());
            first_leak_key = key;
            first_leak_schedule = Some(run.schedule.clone());
        }
        for s in new_sites {
            outcome.found_sites.insert(s.to_string());
        }
        if outcome.all_sites_found() {
            break;
        }
    }

    let mut replays = 0u64;
    if let (Some(schedule), Some(key)) = (first_leak_schedule, first_leak_key) {
        let minimized = if config.shrink_budget > 0 {
            let res = shrink(target, &schedule, &key, config.shrink_budget);
            outcome.shrink_probes = res.probes;
            replays += res.probes;
            res.schedule
        } else {
            schedule
        };
        if config.verify {
            let render = |run: &RunOutput| {
                run.reports.iter().find(|r| r.dedup_key_owned() == key).map(|r| format!("{r:?}"))
            };
            let a = render(&replay_run(target, &minimized, false));
            let b = render(&replay_run(target, &minimized, false));
            replays += 2;
            outcome.verified = Some(a.is_some() && a == b);
            outcome.report_text = a;
        }
        outcome.report_key = Some(key);
        outcome.minimized = Some(minimized);
    }
    (outcome, replays)
}

/// Runs a campaign over `targets`. Worker threads pull targets off a
/// shared queue; results are reassembled in target order.
pub fn run_campaign(targets: &[Target], config: &CampaignConfig) -> CampaignResult {
    let collected = par_map(targets, config.threads, |_, target| explore_target(target, config));
    let mut outcomes = Vec::with_capacity(collected.len());
    let mut schedules_total = 0;
    let mut replays_total = 0;
    for (outcome, replays) in collected {
        schedules_total += outcome.schedules_run;
        replays_total += replays;
        outcomes.push(outcome);
    }
    CampaignResult { outcomes, schedules_total, replays_total }
}
