//! The schedule file: a compact, replayable decision trace.
//!
//! A schedule pins one execution completely: the VM seed (which fixes all
//! non-scheduling nondeterminism — `select` choice and `RandInt`), the
//! virtual-core count and tick budget, and the sequence of `(pick,
//! quantum)` decisions the scheduling policy made at every scheduling slot. Replaying a schedule through
//! [`ReplayPolicy`](crate::ReplayPolicy) reproduces the run byte-for-byte:
//! same trace, same deadlock reports, same GC statistics.
//!
//! The on-disk format is a line-oriented text file with a fixed header and
//! run-length-encoded decision tokens (`count*pick:quantum`), so minimized
//! schedules — which are mostly default decisions — stay tiny.

use std::fmt::Write as _;
use std::path::Path;

/// One scheduling decision: which runnable candidate ran (index into the
/// run-queue-ordered candidate list) and for how many instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Index of the picked goroutine among the runnable candidates.
    pub pick: u32,
    /// Instruction quantum granted to the pick.
    pub quantum: u32,
}

impl Decision {
    /// The decision the replay fallback makes past the end of a recorded
    /// trace: run the queue head for a full quantum. Trailing default
    /// decisions in a schedule are therefore redundant, which is what lets
    /// the shrinker truncate freely.
    pub fn default_for(max_quantum: u32) -> Self {
        Decision { pick: 0, quantum: max_quantum.max(1) }
    }
}

/// A complete, replayable schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// The explored target's name (e.g. `"cockroach/1462"`).
    pub target: String,
    /// Label of the strategy that produced this schedule (provenance).
    pub strategy: String,
    /// The VM seed of the run.
    pub seed: u64,
    /// Virtual cores (`GOMAXPROCS`) of the run.
    pub procs: usize,
    /// Scheduler-tick budget of the run.
    pub tick_budget: u64,
    /// Maximum instruction quantum of the run.
    pub max_quantum: u32,
    /// The recorded decisions, one per scheduling slot.
    pub decisions: Vec<Decision>,
}

impl Schedule {
    /// Renders the schedule in the `golf-schedule v1` text format.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(128 + self.decisions.len() * 2);
        out.push_str("# golf-schedule v1\n");
        let _ = writeln!(out, "target {}", self.target);
        let _ = writeln!(out, "strategy {}", self.strategy);
        let _ = writeln!(out, "seed {}", self.seed);
        let _ = writeln!(out, "procs {}", self.procs);
        let _ = writeln!(out, "ticks {}", self.tick_budget);
        let _ = writeln!(out, "quantum-max {}", self.max_quantum);
        let _ = writeln!(out, "decisions {}", self.decisions.len());
        // Run-length-encoded decision tokens, a bounded number per line.
        let mut tokens = Vec::new();
        let mut i = 0;
        while i < self.decisions.len() {
            let d = self.decisions[i];
            let mut run = 1;
            while i + run < self.decisions.len() && self.decisions[i + run] == d {
                run += 1;
            }
            if run > 1 {
                tokens.push(format!("{run}*{}:{}", d.pick, d.quantum));
            } else {
                tokens.push(format!("{}:{}", d.pick, d.quantum));
            }
            i += run;
        }
        for chunk in tokens.chunks(12) {
            let _ = writeln!(out, "{}", chunk.join(" "));
        }
        out.push_str("end\n");
        out
    }

    /// Parses the `golf-schedule v1` text format.
    pub fn parse(text: &str) -> Result<Schedule, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty schedule file")?;
        if header.trim() != "# golf-schedule v1" {
            return Err(format!("bad schedule header: {header:?}"));
        }
        let mut target = None;
        let mut strategy = None;
        let mut seed = None;
        let mut procs = None;
        let mut ticks = None;
        let mut max_quantum = None;
        let mut expected = None;
        let mut decisions: Vec<Decision> = Vec::new();
        let mut in_body = false;
        for line in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "end" {
                break;
            }
            if !in_body {
                if let Some((key, value)) = line.split_once(' ') {
                    match key {
                        "target" => {
                            target = Some(value.to_string());
                            continue;
                        }
                        "strategy" => {
                            strategy = Some(value.to_string());
                            continue;
                        }
                        "seed" => {
                            seed = Some(value.parse().map_err(|e| format!("seed: {e}"))?);
                            continue;
                        }
                        "procs" => {
                            procs = Some(value.parse().map_err(|e| format!("procs: {e}"))?);
                            continue;
                        }
                        "ticks" => {
                            ticks = Some(value.parse().map_err(|e| format!("ticks: {e}"))?);
                            continue;
                        }
                        "quantum-max" => {
                            max_quantum =
                                Some(value.parse().map_err(|e| format!("quantum-max: {e}"))?);
                            continue;
                        }
                        "decisions" => {
                            expected = Some(
                                value.parse::<usize>().map_err(|e| format!("decisions: {e}"))?,
                            );
                            in_body = true;
                            continue;
                        }
                        _ => return Err(format!("unknown schedule header key {key:?}")),
                    }
                }
                return Err(format!("malformed schedule header line {line:?}"));
            }
            for token in line.split_ascii_whitespace() {
                let (count, pair) = match token.split_once('*') {
                    Some((n, rest)) => {
                        (n.parse::<usize>().map_err(|e| format!("run length: {e}"))?, rest)
                    }
                    None => (1, token),
                };
                let (pick, quantum) =
                    pair.split_once(':').ok_or_else(|| format!("bad decision token {token:?}"))?;
                let d = Decision {
                    pick: pick.parse().map_err(|e| format!("pick: {e}"))?,
                    quantum: quantum.parse().map_err(|e| format!("quantum: {e}"))?,
                };
                decisions.extend(std::iter::repeat_n(d, count));
            }
        }
        if let Some(n) = expected {
            if n != decisions.len() {
                return Err(format!(
                    "decision count mismatch: header {n}, body {}",
                    decisions.len()
                ));
            }
        }
        Ok(Schedule {
            target: target.ok_or("missing target")?,
            strategy: strategy.unwrap_or_else(|| "unknown".into()),
            seed: seed.ok_or("missing seed")?,
            procs: procs.ok_or("missing procs")?,
            tick_budget: ticks.ok_or("missing ticks")?,
            max_quantum: max_quantum.unwrap_or(8),
            decisions,
        })
    }

    /// Writes the schedule to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Reads a schedule from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Schedule, String> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("read {}: {e}", path.as_ref().display()))?;
        Schedule::parse(&text)
    }

    /// A copy of this schedule with different decisions (shrink probes).
    pub fn with_decisions(&self, decisions: Vec<Decision>) -> Schedule {
        Schedule { decisions, ..self.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        Schedule {
            target: "cgo/double-send".into(),
            strategy: "pct:3".into(),
            seed: 0x601F,
            procs: 2,
            tick_budget: 3_000,
            max_quantum: 8,
            decisions: vec![
                Decision { pick: 0, quantum: 8 },
                Decision { pick: 0, quantum: 8 },
                Decision { pick: 2, quantum: 1 },
                Decision { pick: 1, quantum: 4 },
                Decision { pick: 1, quantum: 4 },
                Decision { pick: 1, quantum: 4 },
            ],
        }
    }

    #[test]
    fn text_round_trips() {
        let s = sample();
        let parsed = Schedule::parse(&s.to_text()).expect("parse");
        assert_eq!(parsed, s);
    }

    #[test]
    fn rle_compresses_runs() {
        let text = sample().to_text();
        assert!(text.contains("2*0:8"), "{text}");
        assert!(text.contains("3*1:4"), "{text}");
    }

    #[test]
    fn empty_decision_list_round_trips() {
        let s = Schedule { decisions: vec![], ..sample() };
        assert_eq!(Schedule::parse(&s.to_text()).expect("parse"), s);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Schedule::parse("nope").is_err());
        assert!(Schedule::parse("# golf-schedule v1\nseed x\n").is_err());
        let truncated =
            "# golf-schedule v1\ntarget t\nseed 1\nprocs 1\nticks 5\ndecisions 2\n0:1\nend\n";
        assert!(Schedule::parse(truncated).unwrap_err().contains("mismatch"));
    }
}
