//! Cross-crate integration tests asserting the paper's headline claims at
//! reduced scale (full-scale regeneration is `golf-bench`'s `run_all`).

use golf::core::{GcEngine, GcMode, GolfConfig, Session};
use golf::detectors::{find_leaks, GoleakOptions};
use golf::micro::{corpus, run_benchmark, RunSettings, Table1Config};
use golf::runtime::{FuncBuilder, ProgramSet, Vm, VmConfig};
use golf::service::testcorpus::{run_corpus, CorpusConfig};

/// §6.2 RQ1(a): GOLF detects the deterministic microbenchmarks in every
/// run, across core counts.
#[test]
fn table1_deterministic_benchmarks_are_always_detected() {
    let all = corpus();
    let subset: Vec<_> = all
        .into_iter()
        .filter(|b| {
            ["cgo/double-send", "cockroach/584", "moby/21233", "etcd/7902"].contains(&b.name)
        })
        .collect();
    assert_eq!(subset.len(), 4);
    let t = golf::micro::run_table1_on(
        &subset,
        &Table1Config { procs: vec![1, 4], runs: 5, ..Table1Config::default() },
    );
    assert!(t.rows.iter().all(|r| r.perfect()), "{:#?}", t.rows);
    assert_eq!(t.unexpected_reports, 0);
}

/// §6.2 RQ1(a): the etcd/7443 pattern is a near-total false negative —
/// shielded by a runaway-live keeper.
#[test]
fn table1_etcd_shape_is_shielded() {
    let all = corpus();
    let etcd = all.into_iter().find(|b| b.name == "etcd/7443").unwrap();
    let mut detected = 0;
    for seed in 0..5 {
        let r = run_benchmark(&etcd, &RunSettings { procs: 1, seed, ..RunSettings::default() });
        detected += r.detected_sites.len();
    }
    assert_eq!(detected, 0, "etcd/7443 must be invisible at one core");
}

/// §6.1 RQ1(b): every deadlock GOLF reports is also reported by GOLEAK
/// (GOLF ⊆ GOLEAK by design), on the same execution.
#[test]
fn golf_reports_are_a_subset_of_goleak() {
    for mb in corpus().iter().filter(|b| b.flakiness == 1).take(20) {
        let vm = Vm::boot((mb.build)(1), VmConfig { seed: 7, ..VmConfig::default() });
        let mut session = Session::golf_report_only(vm);
        session.run(3_000);
        session.collect();
        let leaks = find_leaks(session.vm(), GoleakOptions::default());
        let goleak_keys: std::collections::HashSet<_> =
            leaks.iter().map(|l| l.dedup_key()).collect();
        for r in session.reports() {
            assert!(
                goleak_keys.contains(&r.dedup_key()),
                "{}: GOLF report {:?} not seen by GOLEAK ({goleak_keys:?})",
                mb.name,
                r.dedup_key()
            );
        }
    }
}

/// §5.2: GOLF performs the same aggregate marking work as the baseline —
/// the same pointer traversals, just partitioned over more iterations.
#[test]
fn marking_work_is_invariant_across_collectors() {
    // A correct program with a deep live structure and live goroutines.
    let build = || {
        let mut p = ProgramSet::new();
        let site = p.site("main:worker");
        let mut b = FuncBuilder::new("worker", 1);
        let ch = b.param(0);
        b.recv(ch, None);
        b.ret(None);
        let worker = p.define(b);
        let mut b = FuncBuilder::new("main", 0);
        // A linked list of 50 cells.
        let head = b.var("head");
        let tmp = b.var("tmp");
        let nil = b.var("nil");
        b.new_cell(head, nil);
        b.repeat(50, |b, _| {
            b.new_cell(tmp, head);
            b.copy(head, tmp);
        });
        // Three goroutines blocked on channels main keeps alive.
        let chans: Vec<_> = (0..3).map(|i| b.var(&format!("ch{i}"))).collect();
        for &ch in &chans {
            b.make_chan(ch, 0);
            b.go(worker, &[ch], site);
        }
        b.sleep(1_000_000);
        p.define(b);
        p
    };

    let mut vm_base = Vm::boot(build(), VmConfig::default());
    vm_base.run(300);
    let mut vm_golf = Vm::boot(build(), VmConfig::default());
    vm_golf.run(300);

    let base = GcEngine::baseline().collect(&mut vm_base);
    let golf = GcEngine::golf().collect(&mut vm_golf);

    assert_eq!(base.objects_marked, golf.objects_marked, "same live set");
    assert!(golf.mark_iterations > base.mark_iterations, "GOLF iterates");
    // Same aggregate marking work, within the slack of re-pushed roots.
    let diff = golf.pointer_traversals.abs_diff(base.pointer_traversals);
    assert!(
        diff <= base.pointer_traversals / 10 + 8,
        "traversals: baseline {} vs golf {}",
        base.pointer_traversals,
        golf.pointer_traversals
    );
    assert_eq!(golf.deadlocks_detected, 0, "correct program");
}

/// §6.2: detection every 10th cycle loses nothing for stable leaks.
#[test]
fn detect_every_10_has_same_efficacy() {
    let run_with = |detect_every: u32| {
        let mb_all = corpus();
        let mb = mb_all.iter().find(|b| b.name == "cgo/unused-done").unwrap();
        let vm = Vm::boot((mb.build)(1), VmConfig::default());
        let mut session = Session::new(
            vm,
            GcMode::Golf,
            GolfConfig { detect_every, reclaim: true, ..GolfConfig::default() },
            golf::core::PacerConfig::default(),
        );
        session.run(2_000);
        // Give the every-10th configuration its ten cycles.
        for _ in 0..10 {
            session.collect();
        }
        session.reports().len()
    };
    assert_eq!(run_with(1), run_with(10), "same deadlocks found either way");
}

/// RQ1(b) anatomy at reduced scale: GOLF finds ~60% of GOLEAK's individual
/// reports and ~50% of its deduplicated ones.
#[test]
fn corpus_ratios_match_paper_shape() {
    let r = run_corpus(&CorpusConfig {
        packages: 400,
        visible_sites: 60,
        invisible_sites: 59,
        ..CorpusConfig::default()
    });
    let individual = r.golf_total as f64 / r.goleak_total as f64;
    let dedup = r.golf_dedup as f64 / r.goleak_dedup as f64;
    assert!((0.5..0.72).contains(&individual), "individual ratio {individual}");
    assert!((0.4..0.62).contains(&dedup), "dedup ratio {dedup}");
    assert!((0.7..0.92).contains(&r.auc), "auc {}", r.auc);
}

/// The whole pipeline is deterministic: same seeds, same table.
#[test]
fn table1_is_deterministic() {
    // Several benchmarks, so four workers finish them out of order.
    let subset: Vec<_> = corpus()
        .into_iter()
        .filter(|b| b.name.starts_with("grpc/") || b.name.starts_with("cgo/"))
        .collect();
    assert!(subset.len() > 4);
    let cfg = Table1Config { procs: vec![1, 2], runs: 4, trace: true, ..Table1Config::default() };
    let t1 = golf::micro::run_table1_on(&subset, &Table1Config { threads: 1, ..cfg.clone() });
    let t4 = golf::micro::run_table1_on(&subset, &Table1Config { threads: 4, ..cfg });
    let counts =
        |t: &golf::micro::Table1| t.rows.iter().map(|r| r.per_proc.clone()).collect::<Vec<_>>();
    assert_eq!(counts(&t1), counts(&t4));
    // One trace block per benchmark, byte-identical at any thread count.
    assert_eq!(t1.trace.len(), subset.len());
    assert!(t1.trace.iter().all(|block| !block.is_empty()));
    assert!(t1.trace == t4.trace, "traced sweep differs between 1 and 4 threads");
}
