//! Extra benchmarks beyond the paper's 73-program corpus.
//!
//! These exercise the `context`-style cancellation plumbing that the CGO'24
//! study identifies as the dominant leak source in enterprise Go. They are
//! deliberately **not** part of [`corpus()`](crate::corpus()) — Table 1's
//! composition (73 benchmarks / 121 sites) is fixed by the paper — but run
//! through the same [`Microbenchmark`] harness for tests, examples and
//! extended sweeps.

use super::{Microbenchmark, Source};
use golf_runtime::stdlib::ContextLib;
use golf_runtime::{FuncBuilder, ProgramSet, SelectSpec};

/// The additional context-centric benchmarks.
pub fn extra_corpus() -> Vec<Microbenchmark> {
    vec![
        // The canonical `defer cancel()` omission: a worker selects on
        // {ctx.Done(), work} forever; nobody cancels.
        Microbenchmark {
            name: "extra/ctx-forgotten-cancel",
            source: Source::CgoPaper,
            flakiness: 1,
            sites: vec!["extra/ctx-forgotten-cancel:31"],
            build: |n| build_forgotten_cancel(n, false),
            build_fixed: Some(|n| build_forgotten_cancel(n, true)),
        },
        // WithTimeout used for the parent's wait, but the worker's result
        // send has no timeout path of its own: when the context fires
        // first, the worker strands on its send.
        Microbenchmark {
            name: "extra/ctx-timeout-abandon",
            source: Source::CgoPaper,
            flakiness: 1,
            sites: vec!["extra/ctx-timeout-abandon:54"],
            build: |n| build_timeout_abandon(n, false),
            build_fixed: Some(|n| build_timeout_abandon(n, true)),
        },
        // A fan-out where each branch gets the same context; cancelling
        // releases all of them — the *fixed* variant — while the buggy
        // variant cancels a freshly-created (wrong) context.
        Microbenchmark {
            name: "extra/ctx-wrong-cancel",
            source: Source::CgoPaper,
            flakiness: 1,
            sites: vec!["extra/ctx-wrong-cancel:77"],
            build: |n| build_wrong_cancel(n, false),
            build_fixed: Some(|n| build_wrong_cancel(n, true)),
        },
    ]
}

fn build_forgotten_cancel(n: usize, fixed: bool) -> ProgramSet {
    super::patterns::build_with("extra/ctx-forgotten-cancel", n, |p| {
        let lib = ContextLib::install(p);
        let site = p.site("extra/ctx-forgotten-cancel:31");

        let mut b = FuncBuilder::new("ctx_worker", 2); // ctx, work
        let ctx = b.param(0);
        let work = b.param(1);
        let done = b.var("done");
        lib.done(&mut b, done, ctx);
        let l_done = b.label();
        let l_work = b.label();
        let top = b.label();
        b.bind(top);
        b.select(SelectSpec::new().recv(done, None, l_done).recv(work, None, l_work));
        b.bind(l_work);
        b.jump(top);
        b.bind(l_done);
        b.ret(None);
        let worker = p.define(b);

        let mut b = FuncBuilder::new("scenario", 0);
        let root = b.var("root");
        lib.background(&mut b, root);
        let ctx = b.var("ctx");
        lib.with_cancel(&mut b, ctx, root);
        let work = b.var("work");
        b.make_chan(work, 1);
        b.go(worker, &[ctx, work], site);
        let v = b.int(1);
        b.send(work, v);
        if fixed {
            b.sleep(5);
            lib.cancel(&mut b, ctx); // defer cancel()
        }
        b.ret(None);
        p.define(b)
    })
}

fn build_timeout_abandon(n: usize, fixed: bool) -> ProgramSet {
    super::patterns::build_with("extra/ctx-timeout-abandon", n, |p| {
        let lib = ContextLib::install(p);
        let site = p.site("extra/ctx-timeout-abandon:54");

        let mut b = FuncBuilder::new("slow_worker", 1);
        let res = b.param(0);
        b.sleep(40); // slower than the 5-tick context below
        let v = b.int(1);
        b.send(res, v);
        b.ret(None);
        let worker = p.define(b);

        let mut b = FuncBuilder::new("scenario", 0);
        let root = b.var("root");
        lib.background(&mut b, root);
        let ctx = b.var("ctx");
        lib.with_timeout(&mut b, ctx, root, 5);
        let res = b.var("res");
        // The fix: a buffered result channel outlives the impatient caller.
        b.make_chan(res, usize::from(fixed));
        b.go(worker, &[res], site);
        let done = b.var("done");
        lib.done(&mut b, done, ctx);
        let l_res = b.label();
        let l_ctx = b.label();
        let fin = b.label();
        b.select(SelectSpec::new().recv(res, None, l_res).recv(done, None, l_ctx));
        b.bind(l_res);
        b.jump(fin);
        b.bind(l_ctx);
        b.bind(fin);
        b.ret(None);
        p.define(b)
    })
}

fn build_wrong_cancel(n: usize, fixed: bool) -> ProgramSet {
    super::patterns::build_with("extra/ctx-wrong-cancel", n, |p| {
        let lib = ContextLib::install(p);
        let site = p.site("extra/ctx-wrong-cancel:77");

        let mut b = FuncBuilder::new("branch", 1); // ctx
        let ctx = b.param(0);
        let done = b.var("done");
        lib.done(&mut b, done, ctx);
        b.recv(done, None);
        b.ret(None);
        let branch = p.define(b);

        let mut b = FuncBuilder::new("scenario", 0);
        let root = b.var("root");
        lib.background(&mut b, root);
        let ctx = b.var("ctx");
        lib.with_cancel(&mut b, ctx, root);
        b.repeat(3, |b, _| {
            b.go(branch, &[ctx], site);
        });
        if fixed {
            b.sleep(5);
            lib.cancel(&mut b, ctx);
        } else {
            // The bug: a confusingly-named second context gets cancelled
            // instead of the one the branches hold.
            let ctx2 = b.var("ctx2");
            lib.with_cancel(&mut b, ctx2, root);
            b.sleep(5);
            lib.cancel(&mut b, ctx2);
        }
        b.ret(None);
        p.define(b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_benchmark, RunSettings};

    #[test]
    fn extra_benchmarks_detect_and_fixed_variants_do_not() {
        for mb in extra_corpus() {
            let res =
                run_benchmark(&mb, &RunSettings { procs: 2, seed: 9, ..RunSettings::default() });
            for site in &mb.sites {
                assert!(
                    res.detected_sites.contains(*site),
                    "{}: {site} not detected ({:?})",
                    mb.name,
                    res.detected_sites
                );
            }
            assert!(res.unexpected_sites.is_empty(), "{}: {:?}", mb.name, res.unexpected_sites);

            // Fixed variants are leak-free under the same harness.
            let fixed_mb = Microbenchmark {
                name: mb.name,
                source: mb.source,
                flakiness: mb.flakiness,
                sites: vec![],
                build: mb.build_fixed.unwrap(),
                build_fixed: None,
            };
            let res = run_benchmark(
                &fixed_mb,
                &RunSettings { procs: 2, seed: 9, ..RunSettings::default() },
            );
            assert_eq!(res.report_count, 0, "{} (fixed) reported leaks", mb.name);
        }
    }

    #[test]
    fn extra_corpus_is_disjoint_from_the_paper_corpus() {
        let paper: std::collections::HashSet<_> = crate::corpus().iter().map(|b| b.name).collect();
        for mb in extra_corpus() {
            assert!(!paper.contains(mb.name));
        }
        assert_eq!(crate::corpus().len(), 73, "Table 1 composition untouched");
    }
}
