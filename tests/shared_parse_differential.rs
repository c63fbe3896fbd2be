//! Differential tests proving intra-query shared-parse extraction
//! (`MAXSON_SHARED_PARSE`) is byte-identical to the naive
//! parse-per-call reference path.
//!
//! Three layers:
//!
//! 1. **Golden queries** — the rewriter golden queries (plain and
//!    Maxson-rewritten sessions) plus a NoBench workload, run with shared
//!    parse off and on, under Jackson and Mison, at 1 and 4 threads: rows,
//!    rendered output, and every work counter except `docs_parsed` must
//!    match the naive serial reference exactly (`docs_parsed` is the one
//!    counter shared parse exists to shrink — it must never exceed
//!    `parse_calls`, and must be thread-invariant).
//! 2. **Dedup factor** — a Fig. 15-shaped query (JSON predicate plus three
//!    projected paths on one column) must reach a >=4x dedup factor with
//!    byte-identical rows.
//! 3. **Property test** — random tables and random JSON queries; shared ==
//!    naive for every case, both parsers, 1 and 4 threads. Failures replay
//!    via `MAXSON_TESTKIT_SEED`.
//!
//! Toggles are pinned with `Session::set_shared_parse` /
//! `Session::set_threads`, not env vars, so parallel test binaries cannot
//! race on process-global state (ci.sh covers the env-var path).

use maxson::rewriter::MaxsonScanRewriter;
use maxson_datagen::NobenchGenerator;
use maxson_engine::metrics::ExecMetrics;
use maxson_engine::session::{JsonParserKind, Session};
use maxson_storage::file::WriteOptions;
use maxson_storage::{Cell, ColumnType, Field, Schema};
use maxson_testkit::prop::{check, Config, Gen};
use maxson_testkit::rng::Rng;
use std::path::PathBuf;

fn bench_data_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("bench-data")
}

fn temp_root(name: &str) -> PathBuf {
    use std::time::{SystemTime, UNIX_EPOCH};
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .subsec_nanos();
    std::env::temp_dir().join(format!("maxson-sp-{}-{nanos}-{name}", std::process::id()))
}

/// The golden rewriter queries (see tests/rewriter_golden.rs).
const GOLDEN_QUERIES: [&str; 4] = [
    "select get_json_object(payload, '$.f0') as f0, \
     get_json_object(payload, '$.f1') as f1 from mydb.q1",
    "select get_json_object(payload, '$.f0') as f0, \
     get_json_object(payload, '$.f10') as f10 from mydb.q2",
    "select get_json_object(payload, '$.f0') as f0 \
     from mydb.q1 where get_json_object(payload, '$.f0') > 900",
    "select get_json_object(payload, '$.f12') as f12 from mydb.q2",
];

/// Work counters shared parse may change; every other one must be
/// identical between shared and naive runs.
const SHARED_MAY_DIFFER: [&str; 3] = [
    // Exactly the counter shared parse shrinks.
    "docs_parsed",
    // Mison builds one structural index per parsed document.
    "bitmap_builds",
    // Bytes classified by those index builds.
    "bitmap_bytes",
];

fn shared_invariant_counters(m: &ExecMetrics) -> Vec<(&'static str, u64)> {
    m.work_counters_except(&SHARED_MAY_DIFFER)
}

/// Run `sql` with shared parse off (serial Jackson reference) and compare
/// against shared-parse-on runs across both parsers and thread counts.
fn assert_shared_differential(mut make_session: impl FnMut() -> Session, sql: &str, label: &str) {
    for parser in [JsonParserKind::Jackson, JsonParserKind::Mison] {
        let mut reference_session = make_session();
        reference_session.set_parser(parser);
        reference_session.set_threads(Some(1));
        reference_session.set_shared_parse(Some(false));
        let reference = reference_session
            .execute(sql)
            .unwrap_or_else(|e| panic!("[{label}] naive run failed for {sql}: {e}"));
        assert_eq!(
            reference.metrics.parse_calls, reference.metrics.docs_parsed,
            "[{label}] naive mode parses once per call"
        );
        let mut shared_docs: Option<u64> = None;
        for threads in [1, 4] {
            let mut session = make_session();
            session.set_parser(parser);
            session.set_threads(Some(threads));
            session.set_shared_parse(Some(true));
            let result = session.execute(sql).unwrap_or_else(|e| {
                panic!("[{label}] shared run failed for {sql} at {threads} threads: {e}")
            });
            assert_eq!(
                result.rows, reference.rows,
                "[{label}] rows diverged for {sql} ({parser:?}, {threads} threads)"
            );
            assert_eq!(
                result.to_display_string(),
                reference.to_display_string(),
                "[{label}] rendered output diverged for {sql} ({parser:?}, {threads} threads)"
            );
            assert_eq!(
                shared_invariant_counters(&result.metrics),
                shared_invariant_counters(&reference.metrics),
                "[{label}] work counters diverged for {sql} ({parser:?}, {threads} threads): \
                 shared {:?} vs naive {:?}",
                result.metrics,
                reference.metrics
            );
            assert!(
                result.metrics.docs_parsed <= result.metrics.parse_calls,
                "[{label}] docs_parsed must never exceed parse_calls: {:?}",
                result.metrics
            );
            // docs_parsed is a per-row quantity, so it cannot depend on how
            // rows are distributed over threads.
            match shared_docs {
                None => shared_docs = Some(result.metrics.docs_parsed),
                Some(d) => assert_eq!(
                    result.metrics.docs_parsed, d,
                    "[{label}] docs_parsed not thread-invariant for {sql} ({parser:?})"
                ),
            }
        }
    }
}

#[test]
fn golden_queries_identical_with_and_without_shared_parse_plain() {
    for sql in GOLDEN_QUERIES {
        assert_shared_differential(|| Session::open(bench_data_root()).unwrap(), sql, "plain");
    }
}

#[test]
fn golden_queries_identical_with_and_without_shared_parse_rewritten() {
    let make = || {
        let root = bench_data_root();
        let mut session = Session::open(&root).unwrap();
        let rewriter = MaxsonScanRewriter::open(&root).unwrap();
        session.set_scan_rewriter(Some(Box::new(rewriter)));
        session
    };
    for sql in GOLDEN_QUERIES {
        assert_shared_differential(make, sql, "rewritten");
    }
}

// ---------------------------------------------------------------------
// NoBench workload + dedup factor
// ---------------------------------------------------------------------

/// Build a NoBench table: `rows` seeded JSON documents over `files` splits.
fn nobench_table(name: &str, rows: u64, files: u64) -> PathBuf {
    let root = temp_root(name);
    let mut session = Session::open(&root).unwrap();
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("payload", ColumnType::Utf8),
    ])
    .unwrap();
    let mut catalog = session.catalog_mut();
    let table = catalog.create_table("nb", "docs", schema, 0).unwrap();
    let mut generator = NobenchGenerator::new(42);
    let per_file = rows / files;
    for f in 0..files {
        let rows: Vec<Vec<Cell>> = (f * per_file..(f + 1) * per_file)
            .map(|i| vec![Cell::Int(i as i64), Cell::from(generator.record_text(i))])
            .collect();
        table
            .append_file(
                &rows,
                WriteOptions {
                    row_group_size: 16,
                    ..Default::default()
                },
                1,
            )
            .unwrap();
    }
    drop(catalog);
    root
}

#[test]
fn nobench_workload_identical_with_and_without_shared_parse() {
    let root = nobench_table("nobench", 240, 4);
    let queries = [
        // Filter + multi-path projection over one column — the Fig. 15
        // shape shared parse targets.
        "select get_json_object(payload, '$.str1') as s1, \
         get_json_object(payload, '$.num') as num, \
         get_json_object(payload, '$.nested_obj.str') as ns from nb.docs \
         where get_json_object(payload, '$.bool') = 'true'",
        // Repeated path: projection and predicate reuse $.num.
        "select get_json_object(payload, '$.num') as num from nb.docs \
         where get_json_object(payload, '$.num') > 100",
        // Grouped aggregation with JSON group key and JSON agg argument.
        "select get_json_object(payload, '$.str2') as grp, count(*), \
         sum(get_json_object(payload, '$.num')), \
         avg(get_json_object(payload, '$.num')) from nb.docs \
         group by get_json_object(payload, '$.str2')",
        // Raw-column predicate: rejected rows must not parse (laziness).
        "select get_json_object(payload, '$.str1') as s1 from nb.docs \
         where id < 60",
        // Sort on a JSON key above the segment.
        "select id from nb.docs order by get_json_object(payload, '$.num') limit 9",
    ];
    for sql in queries {
        assert_shared_differential(|| Session::open(&root).unwrap(), sql, "nobench");
    }
    std::fs::remove_dir_all(&root).ok();
}

/// A Fig. 15-shaped query — JSON predicate plus three more paths on the
/// same column — must reach a >=4x intra-query dedup factor: four
/// evaluations per row served by one parse.
#[test]
fn fig15_shape_reaches_4x_dedup_factor() {
    let root = temp_root("dedup4x");
    let mut session = Session::open(&root).unwrap();
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("payload", ColumnType::Utf8),
    ])
    .unwrap();
    let mut catalog = session.catalog_mut();
    let table = catalog.create_table("db", "t", schema, 0).unwrap();
    let rows: Vec<Vec<Cell>> = (0..120)
        .map(|i| {
            vec![
                Cell::Int(i),
                Cell::from(format!(
                    r#"{{"a": {i}, "b": "s{i}", "c": {}, "v": {}}}"#,
                    i * 2,
                    i % 5
                )),
            ]
        })
        .collect();
    table
        .append_file(&rows, WriteOptions::default(), 1)
        .unwrap();
    drop(catalog);

    let sql = "select get_json_object(payload, '$.a') as a, \
               get_json_object(payload, '$.b') as b, \
               get_json_object(payload, '$.c') as c from db.t \
               where get_json_object(payload, '$.v') >= 0";
    for parser in [JsonParserKind::Jackson, JsonParserKind::Mison] {
        session.set_parser(parser);
        session.set_threads(Some(1));
        session.set_shared_parse(Some(false));
        let naive = session.execute(sql).unwrap();
        session.set_shared_parse(Some(true));
        let shared = session.execute(sql).unwrap();
        assert_eq!(shared.rows, naive.rows, "{parser:?}");
        assert_eq!(shared.rows.len(), 120);
        assert_eq!(shared.metrics.parse_calls, naive.metrics.parse_calls);
        assert_eq!(shared.metrics.parse_calls, 480, "4 evaluations per row");
        assert_eq!(shared.metrics.docs_parsed, 120, "1 parse per row");
        assert!(
            shared.metrics.parse_dedup_factor() >= 4.0,
            "{parser:?}: dedup {:.2}x",
            shared.metrics.parse_dedup_factor()
        );
        assert_eq!(naive.metrics.docs_parsed, 480);
        if parser == JsonParserKind::Mison {
            assert_eq!(
                naive.metrics.bitmap_builds, naive.metrics.docs_parsed,
                "without sharing every call builds its own structural index"
            );
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------
// Property test: random tables x random JSON queries
// ---------------------------------------------------------------------

/// One generated scenario: table shape and a JSON-heavy query over it.
#[derive(Debug, Clone)]
struct Scenario {
    table_seed: u64,
    splits: usize,
    rows_per_split: usize,
    query: usize,
    threshold: i64,
    mison: bool,
}

const NUM_QUERIES: usize = 5;

fn scenario_gen() -> Gen<Scenario> {
    let base = Gen::tuple2(
        Gen::tuple2(Gen::u64_any(), Gen::usize_in(1..=6)),
        Gen::tuple2(
            Gen::tuple2(Gen::usize_in(0..=16), Gen::usize_in(0..=NUM_QUERIES - 1)),
            Gen::tuple2(Gen::i64_in(-20..=120), Gen::u64_any()),
        ),
    );
    base.map(
        |((table_seed, splits), ((rows_per_split, query), (threshold, coin)))| Scenario {
            table_seed,
            splits,
            rows_per_split,
            query,
            threshold,
            mison: coin % 2 == 0,
        },
    )
}

fn scenario_sql(s: &Scenario) -> String {
    let th = s.threshold;
    match s.query {
        0 => format!(
            "select get_json_object(doc, '$.x') as x, get_json_object(doc, '$.y') as y \
             from db.t where get_json_object(doc, '$.x') >= {th}"
        ),
        1 => "select get_json_object(doc, '$.tag') as tag, count(*), \
              sum(get_json_object(doc, '$.x')) from db.t \
              group by get_json_object(doc, '$.tag')"
            .into(),
        2 => format!(
            "select id, get_json_object(doc, '$.y') as y from db.t \
             where id < {th}"
        ),
        3 => "select get_json_object(doc, '$.x') as x1, \
              get_json_object(doc, '$.x') as x2, \
              get_json_object(doc, '$.missing') as nope from db.t"
            .into(),
        _ => format!(
            "select count(*), avg(get_json_object(doc, '$.x')) from db.t \
             where get_json_object(doc, '$.y') > {th}"
        ),
    }
}

/// Deterministic table of JSON documents with occasionally-missing fields
/// and malformed records, so shared parse also covers the error paths.
fn build_scenario_table(s: &Scenario, root: &PathBuf) -> Session {
    let mut session = Session::open(root).unwrap();
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("doc", ColumnType::Utf8),
    ])
    .unwrap();
    let mut catalog = session.catalog_mut();
    let table = catalog.create_table("db", "t", schema, 0).unwrap();
    let mut rng = Rng::seed_from_u64(s.table_seed);
    for _ in 0..s.splits {
        let rows: Vec<Vec<Cell>> = (0..s.rows_per_split)
            .map(|_| {
                let id = Cell::Int(rng.gen_range(-100..=100));
                let doc = if rng.gen_bool(0.05) {
                    "{broken".to_string()
                } else {
                    let x = rng.gen_range(-100..=100);
                    let y = rng.gen_range(-100..=100);
                    let tag = rng.gen_range(0..=3u32);
                    if rng.gen_bool(0.1) {
                        format!(r#"{{"x": {x}, "tag": "g{tag}"}}"#)
                    } else {
                        format!(r#"{{"x": {x}, "y": {y}, "tag": "g{tag}"}}"#)
                    }
                };
                vec![id, Cell::from(doc)]
            })
            .collect();
        table
            .append_file(
                &rows,
                WriteOptions {
                    row_group_size: 7,
                    ..Default::default()
                },
                1,
            )
            .unwrap();
    }
    drop(catalog);
    session
}

#[test]
fn property_random_json_queries_shared_equals_naive() {
    let cfg = Config::with_cases(24);
    check(
        "shared_parse_equals_naive",
        &cfg,
        &scenario_gen(),
        |scenario| {
            let root = temp_root(&format!("prop-{}", scenario.table_seed));
            let mut session = build_scenario_table(scenario, &root);
            let parser = if scenario.mison {
                JsonParserKind::Mison
            } else {
                JsonParserKind::Jackson
            };
            session.set_parser(parser);
            let sql = scenario_sql(scenario);

            session.set_threads(Some(1));
            session.set_shared_parse(Some(false));
            let reference = session.execute(&sql).map_err(|e| format!("naive: {e}"))?;
            for threads in [1, 4] {
                session.set_threads(Some(threads));
                session.set_shared_parse(Some(true));
                let result = session
                    .execute(&sql)
                    .map_err(|e| format!("shared, {threads} threads: {e}"))?;
                maxson_testkit::prop_assert_eq!(&result.rows, &reference.rows);
                maxson_testkit::prop_assert_eq!(
                    result.to_display_string(),
                    reference.to_display_string()
                );
                maxson_testkit::prop_assert_eq!(
                    result.metrics.parse_calls,
                    reference.metrics.parse_calls
                );
                maxson_testkit::prop_assert!(
                    result.metrics.docs_parsed <= result.metrics.parse_calls
                );
            }
            std::fs::remove_dir_all(&root).ok();
            Ok(())
        },
    );
}
