//! Exploration strategies: how the next schedule is chosen.
//!
//! A [`StrategyKind`] is a factory: for each schedule attempt it builds a
//! fresh [`SchedPolicy`] from a per-schedule seed, so the attempt is a pure
//! function of `(root seed, target, schedule index)` and campaigns are
//! reproducible run-to-run and across worker-thread counts.
//!
//! Three classic systematic-concurrency-testing strategies are provided:
//!
//! * **Random walk** — uniform pick and quantum at every slot. The
//!   baseline; good at shallow races.
//! * **PCT** (probabilistic concurrency testing) — random per-goroutine
//!   priorities, highest-priority candidate runs, plus `depth` priority
//!   change points sprinkled over the expected schedule length. Finds bugs
//!   of preemption depth `d` with provable probability.
//! * **Delay-bounded** round-robin — runs the queue head except at a small
//!   number of delay points, where it skips to the second candidate.
//!   Systematically covers "one untimely preemption" bugs.

use golf_runtime::{Gid, SchedPolicy};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::str::FromStr;

/// The schedule-exploration strategies, parseable from `--strategy`
/// syntax. `Display` gives the stable label used in schedule files and
/// campaign logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Seeded uniform random walk over picks and quanta.
    Random,
    /// PCT-style randomized priorities with `depth` change points.
    Pct {
        /// Number of priority change points (the PCT bug depth parameter).
        depth: u32,
    },
    /// Round-robin with `delays` skip-the-head delay points.
    Delay {
        /// Number of delay points per schedule.
        delays: u32,
    },
}

impl FromStr for StrategyKind {
    type Err = String;

    /// Parses `random`, `pct`, `pct:<d>`, `delay`, or `delay:<k>`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind, param) = match s.split_once(':') {
            Some((k, p)) => (k, Some(p)),
            None => (s, None),
        };
        let parse = |p: Option<&str>, default: u32| -> Result<u32, String> {
            p.map_or(Ok(default), |v| v.parse().map_err(|e| format!("strategy parameter: {e}")))
        };
        match kind {
            "random" => {
                if param.is_some() {
                    return Err("random takes no parameter".into());
                }
                Ok(StrategyKind::Random)
            }
            "pct" => Ok(StrategyKind::Pct { depth: parse(param, 3)? }),
            "delay" => Ok(StrategyKind::Delay { delays: parse(param, 2)? }),
            _ => Err(format!("unknown strategy {s:?} (want random | pct[:d] | delay[:k])")),
        }
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyKind::Random => write!(f, "random"),
            StrategyKind::Pct { depth } => write!(f, "pct:{depth}"),
            StrategyKind::Delay { delays } => write!(f, "delay:{delays}"),
        }
    }
}

impl StrategyKind {
    /// Builds the policy for one schedule attempt. `expected_slots` is an
    /// upper estimate of scheduling slots in the run (ticks × procs), used
    /// by strategies that spread change/delay points over the execution.
    pub fn policy(&self, seed: u64, expected_slots: u64, max_quantum: u32) -> Box<dyn SchedPolicy> {
        let rng = SmallRng::seed_from_u64(seed);
        match *self {
            StrategyKind::Random => Box::new(RandomWalk { rng }),
            StrategyKind::Pct { depth } => Box::new(Pct::new(rng, depth, expected_slots)),
            StrategyKind::Delay { delays } => {
                Box::new(DelayBounded::new(rng, delays, expected_slots, max_quantum))
            }
        }
    }
}

/// Uniform random pick and quantum at every scheduling slot.
struct RandomWalk {
    rng: SmallRng,
}

impl SchedPolicy for RandomWalk {
    fn pick(&mut self, _tick: u64, candidates: &[Gid]) -> usize {
        self.rng.gen_range(0..candidates.len())
    }

    fn quantum(&mut self, max_quantum: u32) -> u32 {
        self.rng.gen_range(1..=max_quantum)
    }
}

/// PCT: every goroutine gets a random priority on first sight; the
/// highest-priority runnable candidate runs. At each of `depth` change
/// points (slots pre-sampled over the expected schedule length) the
/// currently leading candidate is demoted below everything seen so far.
struct Pct {
    rng: SmallRng,
    priorities: HashMap<Gid, u64>,
    change_points: Vec<u64>,
    next_change: usize,
    slot: u64,
    demote_floor: u64,
}

impl Pct {
    fn new(mut rng: SmallRng, depth: u32, expected_slots: u64) -> Self {
        let span = expected_slots.max(1);
        let mut change_points: Vec<u64> = (0..depth).map(|_| rng.gen_range(0..span)).collect();
        change_points.sort_unstable();
        Pct {
            rng,
            priorities: HashMap::new(),
            change_points,
            next_change: 0,
            slot: 0,
            // Base priorities live in [2^20, 2^40); demotions count down
            // from just under 2^20, so each demotion lands below every
            // earlier one — the "lowest priority so far" of the PCT paper.
            demote_floor: 1 << 20,
        }
    }
}

impl SchedPolicy for Pct {
    fn pick(&mut self, _tick: u64, candidates: &[Gid]) -> usize {
        for &gid in candidates {
            let p = self.rng.gen_range(1u64 << 20..1u64 << 40);
            self.priorities.entry(gid).or_insert(p);
        }
        let leader = |prio: &HashMap<Gid, u64>| -> usize {
            let mut best = 0;
            for i in 1..candidates.len() {
                if prio[&candidates[i]] > prio[&candidates[best]] {
                    best = i;
                }
            }
            best
        };
        while self.next_change < self.change_points.len()
            && self.change_points[self.next_change] <= self.slot
        {
            self.next_change += 1;
            self.demote_floor -= 1;
            let demoted = candidates[leader(&self.priorities)];
            self.priorities.insert(demoted, self.demote_floor);
        }
        self.slot += 1;
        leader(&self.priorities)
    }

    fn quantum(&mut self, max_quantum: u32) -> u32 {
        // Priorities decide who runs; preemption comes only from the change
        // points, so each slot runs a full quantum (and consumes no RNG).
        max_quantum
    }
}

/// Round-robin (queue head, full quantum) except at `delays` pre-sampled
/// slots, where the second candidate runs for a single instruction.
struct DelayBounded {
    delay_slots: Vec<u64>,
    next_delay: usize,
    slot: u64,
    max_quantum: u32,
    delayed_now: bool,
}

impl DelayBounded {
    fn new(mut rng: SmallRng, delays: u32, expected_slots: u64, max_quantum: u32) -> Self {
        let span = expected_slots.max(1);
        let mut delay_slots: Vec<u64> = (0..delays).map(|_| rng.gen_range(0..span)).collect();
        delay_slots.sort_unstable();
        delay_slots.dedup();
        DelayBounded { delay_slots, next_delay: 0, slot: 0, max_quantum, delayed_now: false }
    }
}

impl SchedPolicy for DelayBounded {
    fn pick(&mut self, _tick: u64, _candidates: &[Gid]) -> usize {
        self.delayed_now = self.next_delay < self.delay_slots.len()
            && self.delay_slots[self.next_delay] <= self.slot;
        if self.delayed_now {
            self.next_delay += 1;
        }
        self.slot += 1;
        usize::from(self.delayed_now)
    }

    fn quantum(&mut self, _max_quantum: u32) -> u32 {
        if self.delayed_now {
            1
        } else {
            self.max_quantum
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_syntax_round_trips() {
        for s in ["random", "pct:3", "pct:7", "delay:2"] {
            let k: StrategyKind = s.parse().expect(s);
            assert_eq!(k.to_string(), s);
        }
        assert_eq!("pct".parse::<StrategyKind>().unwrap(), StrategyKind::Pct { depth: 3 });
        assert_eq!("delay".parse::<StrategyKind>().unwrap(), StrategyKind::Delay { delays: 2 });
        assert!("random:1".parse::<StrategyKind>().is_err());
        assert!("bfs".parse::<StrategyKind>().is_err());
    }
}
