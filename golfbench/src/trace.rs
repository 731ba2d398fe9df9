//! Spans for the traced run, recorded around the benchmark's own calls into
//! the program and kept in memory until the run ends.
//!
//! `Vm::step_tick` runs millions of times per run, often for under 100 ns,
//! and a pair of clock reads costs about as much. So ticks are timed in
//! batches of consecutive ticks and aggregated (count, total and a log2
//! histogram of ns per tick) instead of being stored one by one; the
//! enclosing span records how much of its time they took, which keeps self
//! times exact. Every other span is aggregated per name as it closes (count,
//! total and self time), and the first [`STORED_SPANS`] are also kept one by
//! one for the span file.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// Spans kept one by one; later spans still count in the per-name totals.
/// A traced corpus sweep closes millions of spans.
pub const STORED_SPANS: usize = 50_000;

/// One stored interval.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// The span that was open when this one began, if it is stored.
    parent: Option<usize>,
    /// Start and end, in ns since the tracer was created.
    start_ns: u64,
    end_ns: u64,
}

/// Count, total and self time of the closed spans of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanAgg {
    /// Spans closed.
    pub count: u64,
    /// Summed duration, in ns.
    pub total_ns: u64,
    /// Summed duration minus the time child spans and tick batches cover.
    pub self_ns: u64,
}

/// Count, total and distribution of `Vm::step_tick` calls.
#[derive(Debug, Clone)]
pub struct TickAgg {
    /// Calls timed.
    pub count: u64,
    /// Total ns inside the calls.
    pub total_ns: u64,
    /// `buckets[i]` counts calls from batches that averaged
    /// `[2^i, 2^(i+1))` ns per call (bucket 0 also holds 0 ns).
    pub buckets: [u64; 64],
}

impl TickAgg {
    fn record(&mut self, ns: u64, ticks: u64) {
        self.count += ticks;
        self.total_ns += ns;
        let per_tick = ns / ticks.max(1);
        self.buckets[(63 - per_tick.max(1).leading_zeros()) as usize] += ticks;
    }
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    start_ns: u64,
    covered_ns: u64,
    stored: Option<usize>,
}

/// The in-memory span store of one workload run.
#[derive(Debug)]
pub struct Tracer {
    run_id: u64,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<Open>,
    by_name: Vec<(&'static str, SpanAgg)>,
    ticks: TickAgg,
}

impl Tracer {
    /// An empty tracer whose spans all carry `run_id`.
    pub fn new(run_id: u64) -> Self {
        Tracer {
            run_id,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            by_name: Vec::new(),
            ticks: TickAgg { count: 0, total_ns: 0, buckets: [0; 64] },
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; returns its depth.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let stored = (self.spans.len() < STORED_SPANS).then(|| {
            let parent = self.open.last().and_then(|o| o.stored);
            self.spans.push(Span { name, parent, start_ns, end_ns: start_ns });
            self.spans.len() - 1
        });
        self.open.push(Open { name, start_ns, covered_ns: 0, stored });
        self.open.len() - 1
    }

    /// Closes the span `begin` returned `depth` for, which must be the
    /// innermost open span.
    pub fn end(&mut self, depth: usize) {
        assert_eq!(self.open.len(), depth + 1, "spans must close innermost first");
        let end_ns = self.now_ns();
        let span = self.open.pop().expect("an open span");
        let ns = end_ns - span.start_ns;
        if let Some(id) = span.stored {
            self.spans[id].end_ns = end_ns;
        }
        if let Some(parent) = self.open.last_mut() {
            parent.covered_ns += ns;
        }
        let agg = match self.by_name.iter().position(|(n, _)| *n == span.name) {
            Some(i) => &mut self.by_name[i].1,
            None => {
                self.by_name.push((span.name, SpanAgg::default()));
                &mut self.by_name.last_mut().expect("just pushed").1
            }
        };
        agg.count += 1;
        agg.total_ns += ns;
        agg.self_ns += ns.saturating_sub(span.covered_ns);
    }

    /// Adds a batch of `ticks` consecutive `step_tick` calls that took `ns`
    /// to the aggregate and to the innermost open span.
    pub fn ticks_done(&mut self, ticks: u64, ns: u64) {
        self.ticks.record(ns, ticks);
        if let Some(parent) = self.open.last_mut() {
            parent.covered_ns += ns;
        }
    }

    /// The `step_tick` aggregate.
    pub fn ticks(&self) -> &TickAgg {
        &self.ticks
    }

    /// The aggregate of the closed spans named `name`.
    pub fn span_agg(&self, name: &str) -> SpanAgg {
        self.by_name.iter().find(|(n, _)| *n == name).map(|(_, a)| *a).unwrap_or_default()
    }

    /// Writes the stored spans, then one aggregate line per span name and
    /// one for the ticks, as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let run = self.run_id;
        let mut out = String::new();
        let mut line = |args: std::fmt::Arguments| {
            out.write_fmt(args).expect("writing to a String cannot fail");
            out.push('\n');
        };
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            line(format_args!(
                "{{\"run\":{run},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            ));
        }
        for (name, a) in &self.by_name {
            line(format_args!(
                "{{\"run\":{run},\"aggregate\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                a.count, a.total_ns, a.self_ns
            ));
        }
        let buckets: Vec<String> = self.ticks.buckets.iter().map(u64::to_string).collect();
        line(format_args!(
            "{{\"run\":{run},\"aggregate\":\"step_tick\",\"count\":{},\"total_ns\":{},\"log2_ns_per_tick_buckets\":[{}]}}",
            self.ticks.count,
            self.ticks.total_ns,
            buckets.join(",")
        ));
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_ticks() {
        let mut t = Tracer::new(7);
        let root = t.begin("episode");
        let child = t.begin("collect");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.ticks_done(4, 4_000);
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.end(root);
        let episode = t.span_agg("episode");
        let collect = t.span_agg("collect");
        assert_eq!((episode.count, collect.count), (1, 1));
        assert!(collect.total_ns >= 2_000_000);
        assert_eq!(collect.self_ns, collect.total_ns);
        assert_eq!(episode.self_ns, episode.total_ns - collect.total_ns - 4_000);
        assert_eq!(t.ticks().count, 4);
        assert_eq!(t.ticks().buckets[9], 4, "1000 ns per tick lands in [512, 1024)");
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn spans_beyond_the_store_still_count() {
        let mut t = Tracer::new(1);
        for _ in 0..STORED_SPANS + 10 {
            let s = t.begin("boot");
            t.end(s);
        }
        assert_eq!(t.spans.len(), STORED_SPANS);
        assert_eq!(t.span_agg("boot").count, STORED_SPANS as u64 + 10);
        assert_eq!(t.span_agg("build").count, 0);
    }
}
