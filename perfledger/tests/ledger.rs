//! Tests of the benchmark itself, on a tiny generated warehouse.

use std::path::{Path, PathBuf};
use std::time::Duration;

use maxson_json::JsonPath;
use perfledger::layers::{time_parser, ParserCall};
use perfledger::runner::{run, RunArgs};
use perfledger::streams::{
    adhoc_cycle, append_cycle, ingest_cycle, ingest_start, model_queries_per_day, period_repeats,
    rotated, served_cycle, served_start, table_weight, zipf_quota, IngestStep, APPEND_EVERY,
    INGEST_DAY, INGEST_DAY_QUOTA, INGEST_RANKS, INGEST_TABLES, SERVED_RANK, ZIPF_BLOCK,
};
use perfledger::warehouse::{generate, Warehouse, WarehouseSpec, MAX_DAYS};
use perfledger::workloads::{load, prepare, setup, Workload};

const ROWS: usize = 200;

/// A fresh directory for one test.
fn temp_base(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfledger-{name}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear temp dir");
    }
    dir
}

fn warehouse(base: &Path, data_seed: u64) -> Warehouse {
    let spec = WarehouseSpec {
        data_seed,
        rows: ROWS,
    };
    generate(base, spec).expect("generate");
    Warehouse::open(base, spec)
        .expect("open")
        .expect("complete")
}

/// Relative path and contents of every file under `dir`, sorted.
fn tree(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("list") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path
                    .strip_prefix(dir)
                    .expect("under dir")
                    .display()
                    .to_string();
                out.push((rel, std::fs::read(&path).expect("read")));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn warehouse_is_identical_per_seed_and_differs_across_seeds() {
    let (a, b, c) = (temp_base("wh-a"), temp_base("wh-b"), temp_base("wh-c"));
    let (wa, wb, wc) = (warehouse(&a, 7), warehouse(&b, 7), warehouse(&c, 8));
    let (ta, tb, tc) = (tree(&wa.dir), tree(&wb.dir), tree(&wc.dir));
    assert!(ta.len() > 20, "{} files", ta.len());
    assert_eq!(ta, tb);
    let names = |t: &[(String, Vec<u8>)]| t.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&ta), names(&tc));
    assert_ne!(ta, tc);
    for d in [a, b, c] {
        std::fs::remove_dir_all(d).ok();
    }
}

#[test]
fn statement_streams_are_identical_per_seed_and_differ_across_seeds() {
    let streams = |seed: u64| {
        let adhoc: Vec<usize> = rotated(adhoc_cycle(), seed).take(25).collect();
        let served: Vec<Vec<&str>> = (0..2)
            .map(|c| {
                rotated(served_cycle(), served_start(seed, c))
                    .take(150)
                    .collect()
            })
            .collect();
        let ingest: Vec<IngestStep> = rotated(ingest_cycle(), ingest_start(seed))
            .take(300)
            .collect();
        let appends: Vec<usize> = rotated(append_cycle(), seed).take(30).collect();
        (adhoc, served, ingest, appends)
    };
    assert_eq!(streams(1), streams(1));
    // The served cycle holds exactly one Zipf quota block.
    let served = served_cycle();
    assert_eq!(served.len(), ZIPF_BLOCK);
    for (label, n) in SERVED_RANK.iter().zip(zipf_quota()) {
        assert_eq!(served.iter().filter(|l| *l == label).count(), n, "{label}");
    }
    let (a1, z1, i1, p1) = streams(1);
    let (a2, z2, i2, p2) = streams(2);
    assert_ne!(a1, a2);
    assert_ne!(z1, z2);
    assert_ne!(i1, i2);
    assert_ne!(p1, p2);
}

#[test]
fn traffic_shape_follows_the_trace_model() {
    // Served: each rank's share of a block is its Zipf weight's share.
    let total: f64 = (1..=10).map(table_weight).sum();
    for (rank, n) in (1..=10).zip(zipf_quota()) {
        let exact = ZIPF_BLOCK as f64 * table_weight(rank) / total;
        assert!(
            (n as f64 - exact).abs() < 1.0,
            "rank {rank}: {n} vs {exact}"
        );
    }
    // Ingest: a day holds the model's daily queries per table, and the
    // loader appends to each table once a day.
    for (quota, rank) in INGEST_DAY_QUOTA.iter().zip(INGEST_RANKS) {
        assert_eq!(
            *quota as f64,
            model_queries_per_day(rank).round(),
            "rank {rank}"
        );
    }
    assert_eq!(APPEND_EVERY * INGEST_TABLES.len(), INGEST_DAY);
    let cycle = ingest_cycle();
    assert_eq!(cycle.len() % INGEST_DAY, 0);
    for day in cycle.chunks(INGEST_DAY) {
        for (t, quota) in INGEST_DAY_QUOTA.iter().enumerate() {
            assert_eq!(day.iter().filter(|s| s.table == t).count(), *quota);
        }
    }
}

/// The counts of one traced run that must repeat exactly across runs.
fn deterministic_counts(wh: &Warehouse, base: &Path, workload: Workload) -> Vec<(String, f64)> {
    let result = run(
        wh,
        base,
        RunArgs {
            workload,
            seed: 3,
            seconds: 0.1,
            trace: true,
        },
    )
    .expect("traced run");
    assert_eq!(
        result.outcome.failed(),
        0,
        "{:?}",
        result.outcome.first_failure
    );
    let names = [
        "json.docs_parsed",
        "storage.bytes_read_per_query",
        "storage.rg_skip_ratio",
        "storage.meta_miss_ratio",
        "cache_space_ratio",
    ];
    names
        .iter()
        .filter_map(|n| {
            let v = result.metrics.get(n).or_else(|| result.extra.get(n))?;
            Some((n.to_string(), v))
        })
        .collect()
}

#[test]
fn deterministic_counts_repeat_exactly_across_runs() {
    let base = temp_base("counts");
    let wh = warehouse(&base, 1);
    let generated = tree(&wh.data_root());
    for workload in [Workload::AdhocRaw, Workload::ServedCached] {
        let first = deterministic_counts(&wh, &base, workload);
        let second = deterministic_counts(&wh, &base, workload);
        let expected = if workload == Workload::AdhocRaw { 4 } else { 5 };
        assert_eq!(first.len(), expected, "{first:?}");
        assert_eq!(first, second, "{}", workload.name());
    }
    // No run writes to the generated warehouse (the cache tables live in
    // the workload's own root), so one workload never sees another's.
    assert!(tree(&wh.data_root()) == generated);
    std::fs::remove_dir_all(base).ok();
}

#[test]
fn ingest_cadence_and_repeat_share_match_the_generator() {
    let base = temp_base("ingest");
    let wh = warehouse(&base, 1);
    let w = Workload::IngestMidday;
    let root = prepare(&wh, &base, w).expect("prepare");
    let ready = setup(&wh, root, w).expect("setup");
    let outcome = load(&wh, &ready, 5, 2.0).expect("load");
    assert_eq!(outcome.failed(), 0, "{:?}", outcome.first_failure);

    let issued = outcome.steps.len();
    let expected_appends = (issued / APPEND_EVERY).min(MAX_DAYS * INGEST_TABLES.len());
    assert!(expected_appends > 0, "{issued} statements");
    assert_eq!(outcome.appends, expected_appends);
    assert_eq!(outcome.final_days.iter().sum::<usize>(), expected_appends);

    // Over whole cycles, from any start, the repeat share the generator
    // states is the cycle's own.
    let cycle = ingest_cycle();
    let whole = issued - issued % cycle.len();
    assert!(whole >= cycle.len(), "{issued} statements");
    let share = |r: &[bool]| r.iter().filter(|x| **x).count() as f64 / r.len() as f64;
    let stated = share(&period_repeats(&cycle));
    let repeats = period_repeats(&outcome.steps);
    assert!((share(&repeats[..whole]) - stated).abs() < 1e-12);
    assert!(stated > 0.5, "{stated}");
    // A repeat is answered by the reuse cache unless an epoch swap fell
    // between it and the statement's previous run; each of the loader's two
    // swaps per append separates at most one such pair per distinct
    // statement (ten).
    let (mut hits, mut lost) = (0, 0);
    for i in (0..issued).filter(|&i| repeats[i]) {
        let prev = (0..i)
            .rev()
            .find(|&j| outcome.steps[j] == outcome.steps[i])
            .expect("a repeat has an earlier run");
        if outcome.epochs[prev] == outcome.epochs[i] {
            assert!(
                outcome.reused[i],
                "statement {i} repeats {prev} in epoch {}",
                outcome.epochs[i]
            );
            hits += 1;
        } else {
            lost += 1;
        }
    }
    assert!(
        lost <= 2 * 10 * outcome.appends,
        "{lost} repeats lost to {} appends",
        outcome.appends
    );
    assert!(hits > 0);
    drop(ready);
    std::fs::remove_dir_all(base).ok();
}

#[test]
fn timed_loop_grows_with_its_iteration_count() {
    let doc = r#"{"a": 1, "b": {"c": "text", "d": [1, 2, 3]}, "e": 2.5}"#;
    let paths = vec![
        JsonPath::parse("$.b.c").expect("path"),
        JsonPath::parse("$.e").expect("path"),
    ];
    let docs = |n: usize| vec![doc.to_string(); n];
    let (small, large) = (docs(2_000), docs(16_000));
    for call in ParserCall::ALL {
        // Best of three, to keep a descheduled sample from deciding.
        let best = |d: &[String]| {
            (0..3)
                .map(|_| time_parser(call, d, &paths))
                .min()
                .unwrap_or(Duration::ZERO)
        };
        let (t_small, t_large) = (best(&small), best(&large));
        assert!(
            t_large > t_small * 4,
            "{call:?}: {t_small:?} for 2k docs, {t_large:?} for 16k"
        );
    }
}
