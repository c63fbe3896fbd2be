//! The traced run: per-layer numbers from serial passes over the
//! workload's statements, with spans around each public call.
//!
//! After the measured (untraced) phase, the run measures standalone layer
//! costs per table (cold `NorcFile::open_with`, `read_columns`, the miss
//! parser) and then makes four passes over the workload's distinct
//! statements:
//!
//! 1. in process at the workload's thread count, for task skew (and, on
//!    the served workload, through one client for the server overhead);
//! 2. serially (threads = 1) after clearing the Norc footer cache, untraced:
//!    the work counters;
//! 3. the same serially again, untraced, timed: the untraced serial wall;
//! 4. the same serially again, with a span around every call: `plan`,
//!    `execute`, and parser and wire calls over the same query's payloads
//!    and result. Its footer-cache misses, after a full serial pass, are the
//!    steady-state ones.
//!
//! Passes 3 and 4 both start in the footer-cache state a full serial pass
//! leaves, with a fresh reuse cache, so tracing overhead is pass 4's
//! execute wall minus pass 3's. The standalone costs are scaled to the work
//! the execution reported (open cost by its footer-cache miss share, decode
//! by its bytes read, parse by its documents parsed), and the query's
//! residual is its serial wall minus those three.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use maxson::cacher::{cache_table_name, CACHE_DB};
use maxson_datagen::tables::QuerySpec;
use maxson_engine::session::{JsonParserKind, Session};
use maxson_engine::{ExecMetrics, QueryResult};
use maxson_json::mison::MisonProjector;
use maxson_json::tape::{self, TapeStats};
use maxson_json::{get_json_objects, kernels, JsonPath};
use maxson_server::wire::{Reader, Writer, STATUS_OK};
use maxson_server::Client;
use maxson_storage::file::WriteOptions;
use maxson_storage::{Catalog, Cell, MmapMode, NorcFile};

use crate::report::Metrics;
use crate::spans::Recorder;
use crate::stats::{median, ms};
use crate::streams::{ingest_statement, IngestVariant, INGEST_TABLES};
use crate::warehouse::{
    payload_bytes, reference_key, result_hash, Warehouse, DATABASE, ROW_GROUP_SIZE,
};
use crate::workloads::{Outcome, Ready, Workload};

/// Documents per table each parser runs over.
const PARSE_SAMPLE_DOCS: usize = 2_000;

/// Column index of `payload` in every workload table.
const PAYLOAD: usize = 2;

/// The queries every workload issues; their serial walls are the per-layer
/// `engine.query_ms.<Qn>` metrics of the result line.
pub const COMMON_QUERIES: [&str; 5] = ["Q1", "Q2", "Q5", "Q7", "Q8"];

/// What the traced run reports.
pub struct Traced {
    /// The per-layer metrics of `BENCHMARK.json`.
    pub metrics: Metrics,
    /// Per-layer metrics that apply to some workloads only.
    pub extra: Metrics,
    /// The layer-sum table and self time per layer.
    pub notes: Vec<String>,
}

/// One statement of the traced passes.
struct Statement {
    label: String,
    sql: String,
    query: QuerySpec,
    /// Reference key the result must match.
    reference: String,
}

/// Per-table measurements of the standalone layer calls, made once.
#[derive(Default, Clone, Copy)]
struct TableCost {
    /// Cold open of every raw part file.
    open: Duration,
    /// Cold open of every cache-table part file (zero without a cache).
    cache_open: Duration,
    open_bytes: u64,
    open_files: u64,
    /// Decode of the payload column of split 0.
    decode: Duration,
    decode_bytes: u64,
    /// The workload's miss parser over the sample, per document.
    parse_per_doc: Duration,
}

/// Layer sum of one statement.
struct LayerSum {
    label: String,
    wall: Duration,
    open: Duration,
    decode: Duration,
    parse: Duration,
}

impl LayerSum {
    fn residual_ms(&self) -> f64 {
        ms(self.wall) - ms(self.open) - ms(self.decode) - ms(self.parse)
    }
}

/// The workload's distinct statements, in label order, with the reference
/// each must match in the warehouse state the measured phase left.
fn statements(wh: &Warehouse, workload: Workload, outcome: &Outcome) -> Vec<Statement> {
    match workload {
        Workload::IngestMidday => {
            let mut out = Vec::new();
            for (t, table) in INGEST_TABLES.iter().enumerate() {
                let q = wh
                    .queries
                    .iter()
                    .find(|q| q.table == *table)
                    .expect("ingest query");
                for variant in [IngestVariant::Base, IngestVariant::Limit] {
                    let (label, sql) = ingest_statement(q, variant);
                    out.push(Statement {
                        reference: reference_key(&label, outcome.final_days[t]),
                        label,
                        sql,
                        query: q.clone(),
                    });
                }
            }
            out
        }
        _ => wh
            .queries
            .iter()
            .map(|q| Statement {
                label: q.name.clone(),
                sql: q.sql.clone(),
                query: q.clone(),
                reference: reference_key(&q.name, 0),
            })
            .collect(),
    }
}

fn checked(
    wh: &Warehouse,
    s: &Statement,
    result: Result<QueryResult, String>,
) -> Result<QueryResult, String> {
    let r = result.map_err(|e| format!("traced {}: {e}", s.label))?;
    match wh.reference(&s.reference) {
        Some(x) if x.hash == result_hash(&r) => Ok(r),
        _ => Err(format!(
            "traced {}: result differs from reference {}",
            s.label, s.reference
        )),
    }
}

/// Run the traced passes on a set-up workload after its measured phase.
pub fn traced_run(
    wh: &Warehouse,
    base: &Path,
    ready: &mut Ready,
    outcome: &Outcome,
    seed: u64,
) -> Result<Traced, String> {
    let w = ready.workload;
    let stmts = statements(wh, w, outcome);
    let mut metrics = Metrics::default();
    let mut extra = Metrics::default();
    let mut notes = Vec::new();

    let mut rec = Recorder::default();

    // Pass 1: the workload's own thread count.
    let par = ready.session.clone();
    if let Some(mb) = w.pins().reuse_mb {
        // A fresh reuse cache, so every statement executes before it hits.
        ready.session.set_result_cache(Some(mb));
    }
    let mut skews = Vec::new();
    let mut par_walls = Vec::new();
    for s in &stmts {
        let t = Instant::now();
        let r = checked(wh, s, par.execute(&s.sql).map_err(|e| e.to_string()))?;
        par_walls.push(t.elapsed());
        if r.metrics.task_skew > 0.0 {
            skews.push(r.metrics.task_skew);
        }
    }
    if let Some(server) = &ready.server {
        let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let mut over = Vec::new();
        for (i, (s, wall)) in stmts.iter().zip(&par_walls).enumerate() {
            rec.set_request(i + 1);
            let (r, latency) = rec.span("server", "Client::query", |_| client.query(&s.sql));
            checked(wh, s, r.map_err(|e| e.to_string()))?;
            over.push(ms(latency) - ms(*wall));
        }
        extra.push("server.overhead_ms", median(&mut over), "ms");
        rec.set_request(0);
        let (text, _) = rec.span("server", "Client::metrics", |_| client.metrics());
        let text = text.map_err(|e| format!("METRICS: {e}"))?;
        extra.push(
            "server.sched_waits",
            prometheus_value(&text, "maxson_sched_waits_total"),
            "count",
        );
    }

    // Standalone layer costs, per table, traced. They run before the footer
    // cache is cleared, so their opens leave no trace in the passes below.
    let costs = table_costs(&mut rec, ready, w, &stmts)?;

    // Pass 2: serial, untraced, from a cold footer cache: the work counters.
    let mut serial = ready.session.clone();
    serial.set_threads(Some(1));
    // A fresh reuse cache (shared by every clone of the session) before
    // each serial pass, so each starts from the same one.
    let fresh_reuse = |serial: &mut Session| {
        if let Some(mb) = w.pins().reuse_mb {
            serial.set_result_cache(Some(mb));
        }
    };
    fresh_reuse(&mut serial);
    let meta = std::sync::Arc::clone(serial.catalog().meta_cache());
    meta.clear();
    let mut work = ExecMetrics::default();
    for s in &stmts {
        let r = checked(wh, s, serial.execute(&s.sql).map_err(|e| e.to_string()))?;
        work.absorb(&r.metrics);
    }

    // Pass 3: the same, untraced, timed. It starts in the footer-cache
    // state one serial pass leaves, as pass 4 does after it, so the two
    // execute walls differ by tracing alone.
    fresh_reuse(&mut serial);
    let mut untraced_wall = Duration::ZERO;
    for s in &stmts {
        let t = Instant::now();
        let r = serial.execute(&s.sql);
        untraced_wall += t.elapsed();
        checked(wh, s, r.map_err(|e| e.to_string()))?;
    }

    // Pass 4: serial, traced.
    fresh_reuse(&mut serial);
    // Its footer-cache misses, after a full serial pass, are the
    // steady-state ones.
    let before = meta.stats();
    let mut failure: Option<String> = None;
    let mut sums: Vec<LayerSum> = Vec::new();
    let mut traced_wall = Duration::ZERO;
    let mut plan_us = Vec::new();
    let mut probe_us = Vec::new();
    let (mut enc_bytes, mut enc_time, mut dec_time) = (0u64, Duration::ZERO, Duration::ZERO);
    for (i, s) in stmts.iter().enumerate() {
        rec.set_request(i + 1);
        rec.span("bench", s.label.clone(), |rec| {
            let (_, plan) = rec.span("engine", "Session::plan", |_| serial.plan(&s.sql));
            plan_us.push(plan.as_secs_f64() * 1e6);
            let (r, wall) = rec.span("engine", "Session::execute", |_| serial.execute(&s.sql));
            traced_wall += wall;
            let r = match checked(wh, s, r.map_err(|e| e.to_string())) {
                Ok(r) => r,
                Err(e) => {
                    failure.get_or_insert(e);
                    return;
                }
            };
            if w.pins().reuse_mb.is_some() {
                // The same statement again: a reuse probe, timed when it
                // hits (the cost model may have declined the fill).
                let (again, probe) = rec.span("engine", "Session::execute(reuse)", |_| {
                    serial.execute(&s.sql)
                });
                match checked(wh, s, again.map_err(|e| e.to_string())) {
                    Ok(a) if a.metrics.reuse_hits + a.metrics.reuse_fragment_hits > 0 => {
                        probe_us.push(probe.as_secs_f64() * 1e6)
                    }
                    Ok(_) => {}
                    Err(e) => {
                        failure.get_or_insert(e);
                        return;
                    }
                }
            }
            let cost = costs[&s.query.table];
            let m = &r.metrics;
            // The files this execution opened: the raw table's unless the
            // cache answered every path and no plain column is read, and
            // the cache table's when it answered any.
            let opens = (m.meta_cache_hits + m.meta_cache_misses).max(1);
            let raw_read = m.cache_hits == 0 || m.parse_calls > 0 || reads_plain_column(&s.sql);
            let cold = if raw_read { cost.open } else { Duration::ZERO }
                + if m.cache_hits > 0 {
                    cost.cache_open
                } else {
                    Duration::ZERO
                };
            let open = cold.mul_f64(m.meta_cache_misses as f64 / opens as f64);
            let decode = if cost.decode_bytes > 0 {
                cost.decode
                    .mul_f64(m.bytes_read as f64 / cost.decode_bytes as f64)
            } else {
                Duration::ZERO
            };
            let parse = cost.parse_per_doc * m.docs_parsed as u32;
            let (bytes, enc, dec) = rec.span("server", "wire", |_| wire_roundtrip(&r)).0;
            enc_bytes += bytes;
            enc_time += enc;
            dec_time += dec;
            sums.push(LayerSum {
                label: s.label.clone(),
                wall,
                open,
                decode,
                parse,
            });
        });
    }
    if let Some(e) = failure {
        return Err(e);
    }
    let after = meta.stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    // The standalone calls below belong to no statement.
    rec.set_request(0);

    // Storage.
    let all: TableCost = costs.values().fold(TableCost::default(), |a, c| TableCost {
        open: a.open + c.open + c.cache_open,
        cache_open: Duration::ZERO,
        open_bytes: a.open_bytes + c.open_bytes,
        open_files: a.open_files + c.open_files,
        decode: a.decode + c.decode,
        decode_bytes: a.decode_bytes + c.decode_bytes,
        parse_per_doc: Duration::ZERO,
    });
    let n = stmts.len() as f64;
    metrics.push(
        "storage.open_ms",
        ms(all.open) / all.open_files.max(1) as f64,
        "ms",
    );
    metrics.push("storage.open_mb_s", mb_s(all.open_bytes, all.open), "MB/s");
    // 0 where the working set fits the footer cache (`ingest_midday`).
    extra.push(
        "storage.meta_miss_ratio",
        misses as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    metrics.push(
        "storage.decode_mb_s",
        mb_s(all.decode_bytes, all.decode),
        "MB/s",
    );
    metrics.push(
        "storage.bytes_read_per_query",
        work.bytes_read as f64 / n,
        "B",
    );
    // 0 without pushdown (`adhoc_raw`).
    extra.push(
        "storage.rg_skip_ratio",
        work.row_groups_skipped as f64
            / (work.row_groups_skipped + work.row_groups_read).max(1) as f64,
        "ratio",
    );
    let (append_bytes, append_time) = append_cost(&mut rec, base, ready, w, &stmts)?;
    metrics.push(
        "storage.append_mb_s",
        mb_s(append_bytes, append_time),
        "MB/s",
    );

    // JSON.
    let parsers = parser_rates(&mut rec, ready, &stmts)?;
    for (name, rate) in parsers {
        metrics.push(name, rate, "MB/s");
    }
    metrics.push("json.docs_parsed", work.docs_parsed as f64, "count");
    metrics.push(
        "json.parse_dedup",
        work.parse_calls.saturating_sub(work.docs_parsed) as f64,
        "count",
    );

    // Engine.
    metrics.push("engine.plan_us", median(&mut plan_us), "us");
    for s in &sums {
        let name = format!("engine.query_ms.{}", s.label);
        if COMMON_QUERIES.contains(&s.label.as_str()) {
            metrics.push(name, ms(s.wall), "ms");
        } else {
            extra.push(name, ms(s.wall), "ms");
        }
    }
    let residual: f64 = sums.iter().map(LayerSum::residual_ms).sum();
    // Below 0 where the standalone estimates overstate what the engine did.
    extra.push("engine.residual_ms", residual / n, "ms");
    metrics.push(
        "engine.task_skew",
        if skews.is_empty() {
            0.0
        } else {
            median(&mut skews)
        },
        "ratio",
    );
    if w.pins().reuse_mb.is_some() {
        extra.push(
            "engine.reuse_hit_ratio",
            outcome.reused.iter().filter(|r| **r).count() as f64
                / outcome.reused.len().max(1) as f64,
            "ratio",
        );
        extra.push("engine.reuse_probe_us", median(&mut probe_us), "us");
    }

    // Maxson. The hit ratio is 0 without a cache (`adhoc_raw`), so the
    // result line carries its complement, which is positive everywhere.
    let lookups = (work.cache_hits + work.parse_calls).max(1) as f64;
    metrics.push(
        "maxson.cache_miss_ratio",
        work.parse_calls as f64 / lookups,
        "ratio",
    );
    extra.push(
        "maxson.cache_hit_ratio",
        work.cache_hits as f64 / lookups,
        "ratio",
    );
    if let Some(c) = &ready.cycle {
        extra.push("maxson.predict_ms", ms(c.predict), "ms");
        extra.push("maxson.score_ms", ms(c.score), "ms");
        extra.push("maxson.cache_build_s", c.build.as_secs_f64(), "s");
        extra.push(
            "maxson.cache_build_mb_s",
            mb_s(c.parsed_bytes, c.build),
            "MB/s",
        );
        extra.push("maxson.install_ms", ms(c.install), "ms");
    }
    if w == Workload::IngestMidday {
        let mut refresh: Vec<f64> = outcome.refresh_times.iter().map(|d| ms(*d)).collect();
        extra.push("maxson.refresh_ms", median(&mut refresh), "ms");
        extra.push(
            "maxson.stale_queries",
            outcome.stale_queries as f64,
            "count",
        );
    }

    // Server.
    metrics.push("server.encode_mb_s", mb_s(enc_bytes, enc_time), "MB/s");
    metrics.push("server.decode_mb_s", mb_s(enc_bytes, dec_time), "MB/s");

    // Tracing. Near 0, and below it when tracing costs less than the
    // run-to-run noise of a serial pass.
    extra.push(
        "trace.overhead_ms",
        ms(traced_wall) - ms(untraced_wall),
        "ms",
    );

    notes.push(layer_sum_table(w, &sums));
    let mut self_line = String::from("self time per layer (traced pass):");
    for (layer, d) in rec.self_time_by_layer() {
        let _ = write!(self_line, " {layer}={:.3}ms", ms(d));
    }
    notes.push(self_line);
    let trace_path = base.join(format!("trace-{}-seed{seed}.json", w.name()));
    std::fs::write(&trace_path, rec.to_chrome_json())
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    notes.push(format!("spans written to {}", trace_path.display()));
    Ok(Traced {
        metrics,
        extra,
        notes,
    })
}

fn mb_s(bytes: u64, d: Duration) -> f64 {
    bytes as f64 / 1e6 / d.as_secs_f64().max(1e-9)
}

/// Value of an unlabelled counter in Prometheus text exposition.
fn prometheus_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            (k == name).then(|| v.parse().ok()).flatten()
        })
        .unwrap_or(0.0)
}

/// Encode `r` as the server's query response frame and decode it back.
/// Returns the frame bytes and the two times.
fn wire_roundtrip(r: &QueryResult) -> (u64, Duration, Duration) {
    let t = Instant::now();
    let mut w = Writer::new();
    w.u8(STATUS_OK).u64(r.epoch).u32(r.columns.len() as u32);
    for c in &r.columns {
        w.str(c);
    }
    w.u32(r.rows.len() as u32);
    for row in &r.rows {
        for cell in row {
            w.cell(cell);
        }
    }
    let m = &r.metrics;
    w.u64(m.parse_calls)
        .u64(m.docs_parsed)
        .u64(m.cache_hits)
        .u64(m.meta_cache_hits)
        .u64(m.meta_cache_misses);
    let bytes = black_box(w.into_bytes());
    let enc = t.elapsed();

    let t = Instant::now();
    let mut rd = Reader::new(&bytes);
    let decoded: Result<Vec<Cell>, _> = (|| {
        rd.u8()?;
        rd.u64()?;
        let ncols = rd.u32()? as usize;
        for _ in 0..ncols {
            rd.str()?;
        }
        let nrows = rd.u32()? as usize;
        let mut cells = Vec::with_capacity(nrows * ncols);
        for _ in 0..nrows * ncols {
            cells.push(rd.cell()?);
        }
        Ok::<_, maxson_server::ServerError>(cells)
    })();
    black_box(decoded.expect("a frame this code just wrote decodes"));
    (bytes.len() as u64, enc, t.elapsed())
}

/// Standalone open, decode and parse costs of every table the statements
/// read.
fn table_costs(
    rec: &mut Recorder,
    ready: &Ready,
    w: Workload,
    stmts: &[Statement],
) -> Result<BTreeMap<String, TableCost>, String> {
    let catalog = ready.session.catalog();
    let mode = MmapMode::from_env();
    let mut out = BTreeMap::new();
    for s in stmts {
        let table = &s.query.table;
        if out.contains_key(table) {
            continue;
        }
        let raw = catalog
            .table(DATABASE, table)
            .map_err(|e| format!("{table}: {e}"))?;
        let mut files: Vec<(bool, std::path::PathBuf)> = raw
            .files()
            .iter()
            .map(|f| (false, raw.dir().join(f)))
            .collect();
        // Only a workload that built a cache reads cache tables.
        if ready.cycle.is_some() {
            if let Ok(ct) = catalog.table(CACHE_DB, &cache_table_name(DATABASE, table)) {
                files.extend(ct.files().iter().map(|f| (true, ct.dir().join(f))));
            }
        }
        let paths = compile(&s.query.paths);
        let parser = w.pins().parser;
        let (cost, _) = rec.span("bench", format!("standalone {table}"), |rec| {
            let mut cost = TableCost::default();
            let mut split0 = None;
            for (is_cache, path) in &files {
                let (f, d) = rec.span("storage", "NorcFile::open_with", |_| {
                    NorcFile::open_with(path, mode)
                });
                let f = f.map_err(|e| format!("open {}: {e}", path.display()))?;
                *if *is_cache {
                    &mut cost.cache_open
                } else {
                    &mut cost.open
                } += d;
                cost.open_bytes += f.byte_size() as u64;
                cost.open_files += 1;
                if !*is_cache && split0.is_none() {
                    split0 = Some(f);
                }
            }
            // Decode split 0 as just opened: the open has read every byte,
            // so the decode time does not depend on what the footer cache
            // held (a footer-cache hit would leave the pages to the decode).
            let file = split0.ok_or_else(|| format!("{table}: no part files"))?;
            let (cols, d) = rec.span("storage", "NorcFile::read_columns", |_| {
                file.read_columns(&[PAYLOAD], None)
            });
            let cols = cols.map_err(|e| format!("decode {table}: {e}"))?;
            cost.decode = d;
            cost.decode_bytes = cols[0].byte_size() as u64;
            let docs = sample_docs(&cols[0]);
            let call = match parser {
                JsonParserKind::Mison => ParserCall::Mison,
                _ => ParserCall::Jackson,
            };
            let (d, _) = rec.span("json", format!("{call:?}"), |_| {
                time_parser(call, &docs, &paths)
            });
            cost.parse_per_doc = d / docs.len().max(1) as u32;
            Ok::<_, String>(cost)
        });
        let cost = cost?;
        out.insert(table.clone(), cost);
    }
    Ok(out)
}

/// Whether `sql` reads a plain (non-JSON) column of the workload tables.
fn reads_plain_column(sql: &str) -> bool {
    sql.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '\''))
        .any(|tok| {
            let col = tok.rsplit('.').next().unwrap_or(tok);
            !tok.starts_with('\'') && (col == "id" || col == "date")
        })
}

fn compile(paths: &[String]) -> Vec<JsonPath> {
    paths
        .iter()
        .map(|p| JsonPath::parse(p).expect("workload paths parse"))
        .collect()
}

fn sample_docs(col: &maxson_storage::ColumnData) -> Vec<String> {
    (0..col.len().min(PARSE_SAMPLE_DOCS))
        .filter_map(|i| col.get(i).as_str().map(str::to_string))
        .collect()
}

/// A JSON-layer call the traced run times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParserCall {
    /// `get_json_objects` (DOM parse, all paths).
    Jackson,
    /// `MisonProjector::project_paths`.
    Mison,
    /// `kernels::build_bitmaps` on the active tier.
    Bitmaps,
    /// `tape::project_paths`.
    Tape,
}

impl ParserCall {
    /// In `json.*_mb_s` report order.
    pub const ALL: [ParserCall; 4] = [
        ParserCall::Jackson,
        ParserCall::Mison,
        ParserCall::Bitmaps,
        ParserCall::Tape,
    ];
}

/// Time `call` over every document in `docs` with `paths`, keeping the
/// work observable through `black_box`.
pub fn time_parser(call: ParserCall, docs: &[String], paths: &[JsonPath]) -> Duration {
    let mut stats = TapeStats::default();
    let t = Instant::now();
    for d in docs {
        let d = black_box(d.as_str());
        match call {
            ParserCall::Jackson => {
                black_box(get_json_objects(d, paths));
            }
            ParserCall::Mison => {
                black_box(MisonProjector::project_paths(d, paths));
            }
            ParserCall::Bitmaps => {
                black_box(kernels::build_bitmaps(d.as_bytes()));
            }
            ParserCall::Tape => {
                black_box(tape::project_paths(d, paths, &mut stats));
            }
        }
    }
    t.elapsed()
}

/// Each parser over the statements' own payloads and paths: MB/s of
/// Jackson, Mison, the structural bitmaps on the active tier, and Tape.
fn parser_rates(
    rec: &mut Recorder,
    ready: &Ready,
    stmts: &[Statement],
) -> Result<Vec<(&'static str, f64)>, String> {
    let catalog = ready.session.catalog();
    let mut bytes = 0u64;
    let mut times = [Duration::ZERO; 4];
    let mut seen: Vec<&str> = Vec::new();
    for s in stmts {
        let table = s.query.table.as_str();
        if seen.contains(&table) {
            continue;
        }
        seen.push(table);
        let file = catalog
            .table(DATABASE, table)
            .and_then(|t| t.open_split(0))
            .map_err(|e| format!("{table}: {e}"))?;
        let cols = file
            .read_columns(&[PAYLOAD], None)
            .map_err(|e| format!("decode {table}: {e}"))?;
        let docs = sample_docs(&cols[0]);
        let paths = compile(&s.query.paths);
        bytes += docs.iter().map(|d| d.len() as u64).sum::<u64>();
        for (time, call) in times.iter_mut().zip(ParserCall::ALL) {
            *time += rec
                .span("json", format!("{call:?} {table}"), |_| {
                    time_parser(call, &docs, &paths)
                })
                .0;
        }
    }
    Ok(vec![
        ("json.jackson_mb_s", mb_s(bytes, times[0])),
        ("json.mison_mb_s", mb_s(bytes, times[1])),
        ("json.bitmap_mb_s", mb_s(bytes, times[2])),
        ("json.tape_mb_s", mb_s(bytes, times[3])),
    ])
}

/// `Table::append_file` of one day-sized file per table the statements read,
/// into a scratch catalog. Returns payload bytes and time.
fn append_cost(
    rec: &mut Recorder,
    base: &Path,
    ready: &Ready,
    w: Workload,
    stmts: &[Statement],
) -> Result<(u64, Duration), String> {
    let scratch = base.join(format!("scratch-{}", w.name()));
    if scratch.exists() {
        std::fs::remove_dir_all(&scratch).map_err(|e| e.to_string())?;
    }
    let mut target = Catalog::open(&scratch).map_err(|e| e.to_string())?;
    let catalog = ready.session.catalog();
    let (mut bytes, mut time) = (0u64, Duration::ZERO);
    let mut seen: Vec<&str> = Vec::new();
    for s in stmts {
        let table = s.query.table.as_str();
        if seen.contains(&table) {
            continue;
        }
        seen.push(table);
        let src = catalog.table(DATABASE, table).map_err(|e| e.to_string())?;
        let file = src.open_split(0).map_err(|e| e.to_string())?;
        let mut rows = file.read_all_rows().map_err(|e| e.to_string())?;
        rows.truncate(rows.len().div_ceil(10));
        let dst = target
            .create_table(DATABASE, table, src.schema().clone(), 1)
            .map_err(|e| e.to_string())?;
        let (appended, d) = rec.span("storage", "Table::append_file", |_| {
            dst.append_file(
                &rows,
                WriteOptions {
                    row_group_size: ROW_GROUP_SIZE,
                    ..Default::default()
                },
                2,
            )
        });
        appended.map_err(|e| format!("append {table}: {e}"))?;
        time += d;
        bytes += payload_bytes(&rows);
    }
    drop(target);
    std::fs::remove_dir_all(&scratch).map_err(|e| e.to_string())?;
    Ok((bytes, time))
}

/// The per-query layer-sum table: open + decode + parse + residual against
/// the serial wall.
fn layer_sum_table(w: Workload, sums: &[LayerSum]) -> String {
    let mut out = format!(
        "layer sum, serial traced pass on {} (ms): open + decode + parse + residual = wall\n",
        w.name()
    );
    let _ = writeln!(
        out,
        "  {:<6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7}",
        "query", "wall", "open", "decode", "parse", "residual", "open%"
    );
    for s in sums {
        let _ = writeln!(
            out,
            "  {:<6} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>6.1}%",
            s.label,
            ms(s.wall),
            ms(s.open),
            ms(s.decode),
            ms(s.parse),
            s.residual_ms(),
            100.0 * ms(s.open) / ms(s.wall).max(1e-9)
        );
    }
    out.pop();
    out
}
