//! Differential tests proving split-parallel execution is byte-identical
//! to the serial reference path.
//!
//! Three layers:
//!
//! 1. **Golden queries** — every rewriter golden query from PR 1 (plain and
//!    Maxson-rewritten sessions) plus a NoBench workload run at thread
//!    counts {1, 2, 4, 8}; rows, rendered output, and work-counting metrics
//!    (rows scanned, row-group skips, parse calls, cache hits) must match
//!    the 1-thread run exactly.
//! 2. **Property test** — random small tables (1–8 splits, mixed types,
//!    nulls) and random filter/project/agg queries; parallel == serial for
//!    every case. Failures replay via `MAXSON_TESTKIT_SEED`.
//! 3. **Pool stress at the engine boundary** — a poisoned split surfaces
//!    the split index in an engine error (not a hang), and empty or
//!    single-split tables never engage the pool.
//!
//! Thread counts are pinned with `Session::set_threads`, not the
//! `MAXSON_THREADS` env var, so parallel test binaries cannot race on
//! process-global state (ci.sh covers the env-var path).

use maxson::rewriter::MaxsonScanRewriter;
use maxson_datagen::NobenchGenerator;
use maxson_engine::metrics::ExecMetrics;
use maxson_engine::scan::{Batch, ScanProvider};
use maxson_engine::session::{ScanContext, ScanRewrite, Session, TableScanRewriter};
use maxson_storage::file::WriteOptions;
use maxson_storage::{Cell, ColumnType, Field, Schema};
use maxson_testkit::prop::{check, Config, Gen};
use maxson_testkit::rng::Rng;
use std::path::PathBuf;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn bench_data_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("bench-data")
}

fn temp_root(name: &str) -> PathBuf {
    use std::time::{SystemTime, UNIX_EPOCH};
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .subsec_nanos();
    std::env::temp_dir().join(format!("maxson-par-{}-{nanos}-{name}", std::process::id()))
}

/// The golden rewriter queries from PR 1 (see tests/rewriter_golden.rs).
const GOLDEN_QUERIES: [&str; 4] = [
    "select get_json_object(payload, '$.f0') as f0, \
     get_json_object(payload, '$.f1') as f1 from mydb.q1",
    "select get_json_object(payload, '$.f0') as f0, \
     get_json_object(payload, '$.f10') as f10 from mydb.q2",
    "select get_json_object(payload, '$.f0') as f0 \
     from mydb.q1 where get_json_object(payload, '$.f0') > 900",
    "select get_json_object(payload, '$.f12') as f12 from mydb.q2",
];

/// Work-counting metrics that must be invariant under parallelism. Timing
/// fields are excluded (they legitimately vary); everything that counts
/// discrete work must not — including `docs_parsed`, since shared-parse
/// slots are per-row and rows never move between splits.
fn work_counters(m: &ExecMetrics) -> [u64; 8] {
    [
        m.rows_scanned,
        m.bytes_read,
        m.parse_calls,
        m.docs_parsed,
        m.cache_hits,
        m.row_groups_skipped,
        m.row_groups_read,
        m.prefilter_dropped,
    ]
}

fn assert_differential(mut make_session: impl FnMut() -> Session, sql: &str, label: &str) {
    let mut reference_session = make_session();
    reference_session.set_threads(Some(1));
    let reference = reference_session
        .execute(sql)
        .unwrap_or_else(|e| panic!("[{label}] serial run failed for {sql}: {e}"));
    assert_eq!(
        reference.metrics.threads_used, 0,
        "[{label}] serial run must not engage the pool"
    );
    for threads in THREAD_COUNTS {
        let mut session = make_session();
        session.set_threads(Some(threads));
        let result = session
            .execute(sql)
            .unwrap_or_else(|e| panic!("[{label}] {threads}-thread run failed for {sql}: {e}"));
        assert_eq!(
            result.rows, reference.rows,
            "[{label}] rows diverged at {threads} threads for {sql}"
        );
        assert_eq!(
            result.to_display_string(),
            reference.to_display_string(),
            "[{label}] rendered output diverged at {threads} threads for {sql}"
        );
        assert_eq!(
            work_counters(&result.metrics),
            work_counters(&reference.metrics),
            "[{label}] work counters diverged at {threads} threads for {sql}: \
             parallel {:?} vs serial {:?}",
            result.metrics,
            reference.metrics
        );
    }
}

#[test]
fn golden_queries_identical_across_thread_counts_plain() {
    for sql in GOLDEN_QUERIES {
        assert_differential(|| Session::open(bench_data_root()).unwrap(), sql, "plain");
    }
}

#[test]
fn golden_queries_identical_across_thread_counts_rewritten() {
    let make = || {
        let root = bench_data_root();
        let mut session = Session::open(&root).unwrap();
        let rewriter = MaxsonScanRewriter::open(&root).unwrap();
        session.set_scan_rewriter(Some(Box::new(rewriter)));
        session
    };
    for sql in GOLDEN_QUERIES {
        assert_differential(make, sql, "rewritten");
    }
}

#[test]
fn multi_split_golden_query_actually_parallelizes() {
    // Sanity check that the differential above is not vacuous: the mydb
    // tables have 2 files, so a >1-thread run must engage the pool.
    let mut session = Session::open(bench_data_root()).unwrap();
    session.set_threads(Some(4));
    let result = session.execute(GOLDEN_QUERIES[0]).unwrap();
    assert!(
        result.metrics.threads_used > 0,
        "expected a pool run: {:?}",
        result.metrics
    );
    assert_eq!(result.metrics.par_tasks, 2, "one task per split");
    assert!(result.metrics.summary().contains("threads="));
}

// ---------------------------------------------------------------------
// NoBench workload
// ---------------------------------------------------------------------

/// Build a NoBench table: `rows` seeded JSON documents spread over
/// `files` splits.
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
fn nobench_workload_identical_across_thread_counts() {
    let root = nobench_table("nobench", 240, 4);
    let queries = [
        // Projection over nested and flat paths.
        "select get_json_object(payload, '$.str1') as s1, \
         get_json_object(payload, '$.nested_obj.num') as nn from nb.docs",
        // Filter on a JSON path plus a raw column.
        "select id, get_json_object(payload, '$.num') as num from nb.docs \
         where get_json_object(payload, '$.bool') = 'true' and id < 200",
        // Global aggregates over a numeric path.
        "select count(*), sum(get_json_object(payload, '$.num')), \
         avg(get_json_object(payload, '$.num')) from nb.docs",
        // Grouped aggregation on the group-structured str2 field.
        "select get_json_object(payload, '$.str2') as grp, count(*), \
         max(get_json_object(payload, '$.num')) from nb.docs \
         group by get_json_object(payload, '$.str2')",
        // Sort + limit above a parallel segment.
        "select id from nb.docs order by id desc limit 7",
    ];
    for sql in queries {
        assert_differential(|| Session::open(&root).unwrap(), sql, "nobench");
    }
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------
// Property test: random tables x random plans
// ---------------------------------------------------------------------

/// One generated scenario: a table shape and a query over it.
#[derive(Debug, Clone)]
struct Scenario {
    table_seed: u64,
    splits: usize,
    rows_per_split: usize,
    query: usize,
    threshold: i64,
}

fn scenario_gen() -> Gen<Scenario> {
    let base = Gen::tuple2(
        Gen::tuple2(Gen::u64_any(), Gen::usize_in(1..=8)),
        Gen::tuple2(
            Gen::tuple2(Gen::usize_in(0..=20), Gen::usize_in(0..=NUM_QUERIES - 1)),
            Gen::i64_in(-50..=150),
        ),
    );
    base.map(
        |((table_seed, splits), ((rows_per_split, query), threshold))| Scenario {
            table_seed,
            splits,
            rows_per_split,
            query,
            threshold,
        },
    )
}

const NUM_QUERIES: usize = 6;

fn scenario_sql(s: &Scenario) -> String {
    let th = s.threshold;
    match s.query {
        0 => format!("select id, tag from db.t where id >= {th}"),
        1 => "select count(*), sum(val), avg(val), min(id), max(id) from db.t".into(),
        2 => "select tag, count(*), sum(val) from db.t group by tag".into(),
        3 => "select id, val, tag from db.t".into(),
        4 => format!(
            "select tag, min(val), max(val), count(val) from db.t \
             where id < {th} group by tag"
        ),
        _ => format!("select count(*) from db.t where val > {}", th as f64 / 10.0),
    }
}

/// Build the scenario's table: typed columns with nulls, deterministic
/// from the scenario seed. Columns stay consistently typed (int/float/str)
/// so MIN/MAX comparisons are total — mixed-type extremes are documented
/// as incomparable under `sql_cmp` and are not a parallelism property.
fn build_scenario_table(s: &Scenario, root: &PathBuf) -> Session {
    let mut session = Session::open(root).unwrap();
    let schema = Schema::new(vec![
        Field::new("id", ColumnType::Int64),
        Field::new("val", ColumnType::Float64),
        Field::new("tag", ColumnType::Utf8),
    ])
    .unwrap();
    let mut catalog = session.catalog_mut();
    let table = catalog.create_table("db", "t", schema, 0).unwrap();
    let mut rng = Rng::seed_from_u64(s.table_seed);
    for _ in 0..s.splits {
        let rows: Vec<Vec<Cell>> = (0..s.rows_per_split)
            .map(|_| {
                let id = if rng.gen_bool(0.1) {
                    Cell::Null
                } else {
                    Cell::Int(rng.gen_range(-100..=100))
                };
                let val = if rng.gen_bool(0.15) {
                    Cell::Null
                } else {
                    Cell::Float(rng.gen_range(-1000..=1000) as f64 / 8.0)
                };
                let tag = Cell::from(format!("g{}", rng.gen_range(0..=4u32)));
                vec![id, val, tag]
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
fn property_random_tables_and_plans_parallel_equals_serial() {
    let cfg = Config::with_cases(24);
    check(
        "parallel_equals_serial",
        &cfg,
        &scenario_gen(),
        |scenario| {
            let root = temp_root(&format!("prop-{}", scenario.table_seed));
            let mut session = build_scenario_table(scenario, &root);
            let sql = scenario_sql(scenario);

            session.set_threads(Some(1));
            let reference = session.execute(&sql).map_err(|e| format!("serial: {e}"))?;
            for threads in [2, 4, 8] {
                session.set_threads(Some(threads));
                let result = session
                    .execute(&sql)
                    .map_err(|e| format!("{threads} threads: {e}"))?;
                maxson_testkit::prop_assert_eq!(&result.rows, &reference.rows);
                maxson_testkit::prop_assert_eq!(
                    result.to_display_string(),
                    reference.to_display_string()
                );
                maxson_testkit::prop_assert_eq!(
                    work_counters(&result.metrics),
                    work_counters(&reference.metrics)
                );
            }
            std::fs::remove_dir_all(&root).ok();
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Pool stress at the engine boundary
// ---------------------------------------------------------------------

/// Provider with a split that panics mid-scan (poisoned data).
#[derive(Debug)]
struct PoisonedProvider {
    schema: Schema,
    splits: usize,
    poisoned: usize,
}

impl ScanProvider for PoisonedProvider {
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn split_count(&self) -> usize {
        self.splits
    }
    fn scan_split_batch(
        &self,
        split: usize,
        _metrics: &mut ExecMetrics,
    ) -> maxson_engine::Result<Batch> {
        if split == self.poisoned {
            panic!("poisoned split payload");
        }
        Ok(Batch::from_rows(vec![vec![Cell::Int(split as i64)]]))
    }
    fn label(&self) -> String {
        "PoisonedProvider".into()
    }
}

/// Rewriter that swaps every scan for a [`PoisonedProvider`].
struct PoisonRewriter {
    splits: usize,
    poisoned: usize,
}

impl TableScanRewriter for PoisonRewriter {
    fn name(&self) -> &str {
        "Poison"
    }
    fn rewrite_scan(&self, _ctx: &ScanContext<'_>) -> maxson_engine::Result<Option<ScanRewrite>> {
        let schema = Schema::new(vec![Field::new("id", ColumnType::Int64)]).unwrap();
        Ok(Some(ScanRewrite {
            provider: Box::new(PoisonedProvider {
                schema,
                splits: self.splits,
                poisoned: self.poisoned,
            }),
            resolved_paths: Vec::new(),
        }))
    }
}

fn one_row_table(name: &str) -> PathBuf {
    let root = temp_root(name);
    let mut session = Session::open(&root).unwrap();
    let schema = Schema::new(vec![Field::new("id", ColumnType::Int64)]).unwrap();
    let mut catalog = session.catalog_mut();
    let table = catalog.create_table("db", "t", schema, 0).unwrap();
    table
        .append_file(&[vec![Cell::Int(1)]], WriteOptions::default(), 1)
        .unwrap();
    drop(catalog);
    root
}

#[test]
fn poisoned_split_surfaces_split_index_as_engine_error() {
    let root = one_row_table("poison");
    let mut session = Session::open(&root).unwrap();
    session.set_scan_rewriter(Some(Box::new(PoisonRewriter {
        splits: 6,
        poisoned: 3,
    })));
    // Panic containment is a pool property: at 1 thread the scan runs on
    // the caller like it always has, so only pooled counts are asserted.
    for threads in [2, 4, 8] {
        session.set_threads(Some(threads));
        let err = session.execute("select id from db.t").unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("split 3") && msg.contains("poisoned split payload"),
            "{threads} threads: error must name the split: {msg}"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn single_split_table_does_not_engage_the_pool() {
    let root = one_row_table("single");
    let mut session = Session::open(&root).unwrap();
    session.set_threads(Some(8));
    let result = session.execute("select id from db.t").unwrap();
    assert_eq!(result.rows, vec![vec![Cell::Int(1)]]);
    assert_eq!(
        result.metrics.threads_used, 0,
        "single-split scans stay serial: {:?}",
        result.metrics
    );
    assert_eq!(result.metrics.par_tasks, 0);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn empty_table_does_not_engage_the_pool() {
    let root = temp_root("empty");
    let mut session = Session::open(&root).unwrap();
    let schema = Schema::new(vec![Field::new("id", ColumnType::Int64)]).unwrap();
    session
        .catalog_mut()
        .create_table("db", "t", schema, 0)
        .unwrap();
    // A table with no part files has zero splits: a global aggregate still
    // yields its one row, a grouped one none, at any thread count.
    for threads in [1, 8] {
        session.set_threads(Some(threads));
        let result = session.execute("select id from db.t").unwrap();
        assert!(result.rows.is_empty());
        assert_eq!(result.metrics.threads_used, 0);
        assert_eq!(result.metrics.par_tasks, 0);
        let global = session
            .execute("select count(*), sum(id) from db.t")
            .unwrap();
        assert_eq!(global.rows, vec![vec![Cell::Int(0), Cell::Null]]);
        assert_eq!(global.metrics.threads_used, 0);
        let grouped = session
            .execute("select id, count(*) from db.t group by id")
            .unwrap();
        assert!(grouped.rows.is_empty());
        assert_eq!(grouped.metrics.threads_used, 0);
    }
    std::fs::remove_dir_all(&root).ok();
}
