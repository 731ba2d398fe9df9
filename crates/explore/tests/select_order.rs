//! Paper §7 future work, GFuzz × GOLF, as an exploration campaign.
//!
//! GFuzz (Liu et al., ASPLOS'22) exposes latent leaks by reordering
//! `select` case priorities. Here the handler selects over four ready
//! channels and only one arm forgets to drain the worker's completion
//! channel, so the leak needs one of four select orderings. Each schedule's
//! VM seed fixes every `select` choice, so a `golf-explore` campaign sweeps
//! orderings as it sweeps schedules: it finds the leak after some clean
//! schedules, shrinks the reproducing schedule and verifies its replay.

use golf_explore::{run_campaign, CampaignConfig, StrategyKind, Target};
use golf_micro::{Microbenchmark, Source};
use golf_runtime::{FuncBuilder, ProgramSet, SelectSpec};

const SITE: &str = "select/order-sensitive:13";

/// `n` instances of a handler whose select arm 0 returns early without
/// receiving from `done`, leaking the task goroutine blocked on its send.
fn order_sensitive(n: usize) -> ProgramSet {
    let mut p = ProgramSet::new();
    let site = p.site(SITE);
    let feeder_site = p.site("select/order-sensitive:feeder");
    let inst_site = p.site("select/order-sensitive:inst");

    let mut b = FuncBuilder::new("task", 1);
    let done = b.param(0);
    let v = b.int(1);
    b.send(done, v);
    b.ret(None);
    let task = p.define(b);

    // feeder(chs…): make all four selectable at once.
    let mut b = FuncBuilder::new("feeder", 4);
    let v = b.int(1);
    for i in 0..4 {
        b.send(b.param(i), v);
    }
    b.ret(None);
    let feeder = p.define(b);

    let mut b = FuncBuilder::new("scenario", 0);
    let chs: Vec<_> = (0..4).map(|i| b.var(&format!("c{i}"))).collect();
    for &ch in &chs {
        b.make_chan(ch, 1); // buffered: the feeder never blocks
    }
    b.go(feeder, &chs, feeder_site);
    b.sleep(5); // all four cases ready
    let done = b.var("done");
    b.make_chan(done, 0);
    b.go(task, &[done], site);
    let arms: Vec<_> = (0..4).map(|_| b.label()).collect();
    let fin = b.label();
    let mut spec = SelectSpec::new();
    for (i, &l) in arms.iter().enumerate() {
        spec = spec.recv(chs[i], None, l);
    }
    b.select(spec);
    // Arm 0 is the buggy path: early return without draining `done`.
    b.bind(arms[0]);
    b.clear(done);
    b.ret(None);
    // Every other arm is careful.
    for &l in &arms[1..] {
        b.bind(l);
        b.jump(fin);
    }
    b.bind(fin);
    b.recv(done, None);
    b.ret(None);
    let scenario = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    b.repeat(n as i64, |b, _| {
        b.go(scenario, &[], inst_site);
    });
    b.sleep(600); // the corpus harness's settle time
    b.ret(None);
    p.define(b);
    p
}

#[test]
fn campaign_finds_shrinks_and_replays_the_select_order_leak() {
    let mb = Microbenchmark {
        name: "select/order-sensitive",
        source: Source::CgoPaper,
        flakiness: 1,
        sites: vec![SITE],
        build: order_sensitive,
        build_fixed: None,
    };
    let config = CampaignConfig {
        budget: 8,
        strategy: StrategyKind::Random,
        threads: 1,
        ..CampaignConfig::default()
    };
    let result = run_campaign(&[Target::from_micro(&mb, 24)], &config);
    let outcome = &result.outcomes[0];

    assert!(outcome.found_sites.contains(SITE), "{:?}", outcome.log);
    let first = outcome.first_leak.expect("a schedule exposes the leak");
    assert!(1 < first && first <= 8, "earlier orderings are clean, first leak at {first}");
    assert_eq!(outcome.verified, Some(true), "the minimized schedule replays byte for byte");
    let minimized = outcome.minimized.as_ref().expect("minimized schedule");
    // The VM seed alone fixes the select choice, so no scheduling decision
    // is needed to reproduce the leak.
    assert_eq!(minimized.decisions.len(), 0, "{}", minimized.to_text());
}
