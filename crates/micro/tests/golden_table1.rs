//! Golden regression test: Table 1 detection counts at one fixed seed.
//!
//! Everything in the harness is deterministic, so these exact counts must
//! reproduce bit-for-bit. If a legitimate change to the runtime, the
//! collector, or a benchmark shifts them, re-record the constants here and
//! regenerate the full Table 1 with `run_all` (`results/table1.txt`;
//! EXPERIMENTS.md documents the target shape: aggregate ≈ 94.7%,
//! etcd/7443 ≈ 0 except at 10 cores, grpc/3017 ≈ 0 at 1 core).

use golf_micro::{corpus, run_table1_on, Table1Config};

fn config() -> Table1Config {
    Table1Config {
        procs: vec![1, 10],
        runs: 4,
        base_seed: 0xFEED,
        threads: 2,
        ..Table1Config::default()
    }
}

#[test]
fn fixed_seed_counts_are_stable() {
    let all = corpus();
    let subset: Vec<_> = all
        .into_iter()
        .filter(|b| {
            [
                "cgo/unused-done",
                "cgo/func-manager",
                "etcd/7443",
                "grpc/3017",
                "cockroach/6181",
                "moby/21233",
            ]
            .contains(&b.name)
        })
        .collect();
    assert_eq!(subset.len(), 6);
    let t = run_table1_on(&subset, &config());

    // Deterministic sites: perfect at every core count.
    for site in [
        "cgo/unused-done:104",
        "cgo/func-manager:34",
        "cgo/func-manager:37",
        "moby/21233:155",
        "moby/21233:161",
    ] {
        let row = t.rows.iter().find(|r| r.site == site).unwrap();
        assert!(row.perfect(), "{site}: {:?}", row.per_proc);
    }

    // Shape pins (exact counts at this seed):
    // etcd/7443 — invisible at 1 core.
    for row in t.rows.iter().filter(|r| r.bench == "etcd/7443") {
        assert_eq!(row.per_proc[0], 0, "{}: {:?}", row.site, row.per_proc);
    }
    // grpc/3017 — rare at 1 core (≤ the measured ~10% tail), always at 10.
    for row in t.rows.iter().filter(|r| r.bench == "grpc/3017") {
        assert!(row.per_proc[0] <= 1, "{}: {:?}", row.site, row.per_proc);
        assert_eq!(row.per_proc[1], 4, "{}: {:?}", row.site, row.per_proc);
    }

    // And the whole grid replays identically.
    let again = run_table1_on(
        &corpus()
            .into_iter()
            .filter(|b| {
                [
                    "cgo/unused-done",
                    "cgo/func-manager",
                    "etcd/7443",
                    "grpc/3017",
                    "cockroach/6181",
                    "moby/21233",
                ]
                .contains(&b.name)
            })
            .collect::<Vec<_>>(),
        &config(),
    );
    let grid = |t: &golf_micro::Table1| {
        t.rows.iter().map(|r| (r.site.clone(), r.per_proc.clone())).collect::<Vec<_>>()
    };
    assert_eq!(grid(&t), grid(&again));
}
