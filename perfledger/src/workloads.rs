//! The three workloads: how each is set up, and the closed-loop load each
//! runs for the measured phase. Nothing here is traced; the traced run is
//! in [`crate::layers`].

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use maxson::{CacheRegistry, JsonPathCacher};
use maxson_datagen::tables::QuerySpec;
use maxson_engine::session::{JsonParserKind, Session};
use maxson_engine::QueryResult;
use maxson_server::{Client, Server, ServerConfig};
use maxson_storage::{Catalog, Cell};

use crate::config::{host_threads, pinned_session, SessionPins};
use crate::cycle::{self, CycleReport, CYCLE_NOW};
use crate::streams::{
    adhoc_cycle, append_cycle, ingest_cycle, ingest_start, ingest_statement, rotated, served_cycle,
    served_start, IngestStep, IngestVariant, APPEND_EVERY, INGEST_TABLES,
};
use crate::warehouse::{
    append_day, copy_ingest_tables, day_file_rows, link_tables, reference_key, result_hash,
    Warehouse, MAX_DAYS,
};

/// Share of the full parsed-value budget the cached workloads' midnight
/// cycle gets (the analogue of the paper's 300 GB setting).
pub const BUDGET_SHARE: f64 = 0.75;

/// Reuse-cache budget of the ingest workload: the engine's default.
pub const REUSE_MB: u64 = 64;

/// Client connections of the served workload.
pub const SERVED_CLIENTS: usize = 2;

/// A workload by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Spark baseline: raw JSON, Jackson, no caches.
    AdhocRaw,
    /// The deployed system: midnight cache, Mison for misses, TCP server.
    ServedCached,
    /// Appends and incremental cache refresh beside reads.
    IngestMidday,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::AdhocRaw,
        Workload::ServedCached,
        Workload::IngestMidday,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AdhocRaw => "adhoc_raw",
            Workload::ServedCached => "served_cached",
            Workload::IngestMidday => "ingest_midday",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The latency percentile `latency_tail_ms` reports: the highest one
    /// with at least ten samples beyond it given [`Workload::min_samples`].
    pub fn tail_percentile(self) -> usize {
        match self {
            Workload::AdhocRaw => 75,
            Workload::ServedCached => 95,
            Workload::IngestMidday => 95,
        }
    }

    /// Completed requests the measured phase collects at least, even when
    /// that takes longer than the stated seconds.
    pub fn min_samples(self) -> usize {
        crate::stats::samples_for_tail(self.tail_percentile())
    }

    /// Times the set-up is repeated per run (the median is reported).
    pub fn setup_repeats(self) -> usize {
        match self {
            Workload::AdhocRaw => 51,
            Workload::ServedCached | Workload::IngestMidday => 3,
        }
    }

    /// The session configuration.
    pub fn pins(self) -> SessionPins {
        match self {
            Workload::AdhocRaw => SessionPins {
                parser: JsonParserKind::Jackson,
                threads: host_threads(),
                reuse_mb: None,
            },
            Workload::ServedCached => SessionPins {
                parser: JsonParserKind::Mison,
                threads: host_threads(),
                reuse_mb: None,
            },
            Workload::IngestMidday => SessionPins {
                parser: JsonParserKind::Jackson,
                threads: host_threads(),
                reuse_mb: Some(REUSE_MB),
            },
        }
    }

    /// The queries this workload issues.
    pub fn queries(self, wh: &Warehouse) -> Vec<QuerySpec> {
        match self {
            Workload::IngestMidday => wh
                .queries
                .iter()
                .filter(|q| INGEST_TABLES.contains(&q.table.as_str()))
                .cloned()
                .collect(),
            _ => wh.queries.clone(),
        }
    }
}

/// A set-up workload, ready for load.
pub struct Ready {
    /// The workload.
    pub workload: Workload,
    /// The session every caller clones.
    pub session: Session,
    /// Catalog root the session reads.
    pub root: PathBuf,
    /// The midnight cycle, on the cached workloads.
    pub cycle: Option<CycleReport>,
    /// The TCP server, on the served workload.
    pub server: Option<Server>,
}

/// Catalog root of a workload's per-run state (the cached workloads' cache
/// tables, the ingest workload's table copy).
pub fn run_dir(base: &std::path::Path, workload: Workload) -> PathBuf {
    base.join(format!("run-{}", workload.name()))
}

/// Untimed preparation before each set-up. The generated warehouse stays
/// read-only, so one workload's runs never change what another's read:
/// `adhoc_raw` reads it in place, `served_cached` gets a fresh root of
/// its own that links the raw tables (its midnight cycle writes the cache
/// tables there), and `ingest_midday` a fresh copy of its five tables.
pub fn prepare(
    wh: &Warehouse,
    base: &std::path::Path,
    workload: Workload,
) -> Result<PathBuf, String> {
    let root = run_dir(base, workload);
    match workload {
        Workload::AdhocRaw => return Ok(wh.data_root()),
        Workload::ServedCached => link_tables(&wh.data_root(), &root)?,
        Workload::IngestMidday => copy_ingest_tables(&wh.data_root(), &root)?,
    }
    Ok(root)
}

/// The timed set-up: open the warehouse and, on the cached workloads, run
/// the midnight cycle and (served) start the server.
pub fn setup(wh: &Warehouse, root: PathBuf, workload: Workload) -> Result<Ready, String> {
    let pins = workload.pins();
    let mut session = pinned_session(&root, pins)?;
    let queries = workload.queries(wh);
    let refs: Vec<&QuerySpec> = queries.iter().collect();
    let cycle = match workload {
        Workload::AdhocRaw => None,
        _ => Some(cycle::run(&mut session, &root, &refs, BUDGET_SHARE)?),
    };
    let server = match workload {
        Workload::ServedCached => Some(
            Server::serve(
                session.clone(),
                "127.0.0.1:0",
                ServerConfig {
                    threads: Some(pins.threads),
                    permits: Some(pins.threads),
                    result_cache_mb: None,
                },
            )
            .map_err(|e| format!("server start: {e}"))?,
        ),
        _ => None,
    };
    Ok(Ready {
        workload,
        session,
        root,
        cycle,
        server,
    })
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Statement label (`Q1`, `Q2L`, ...).
    pub label: String,
    /// Client-observed latency.
    pub latency: Duration,
}

/// What the measured phase observed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests that completed and matched their reference.
    pub samples: Vec<Sample>,
    /// Requests issued.
    pub attempted: u64,
    /// Requests that returned an error.
    pub errors: u64,
    /// Requests whose result differs from the reference.
    pub mismatches: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
    /// Wall time of the measured phase.
    pub elapsed: Duration,
    /// Ingest: the reader's statements in issue order.
    pub steps: Vec<IngestStep>,
    /// Ingest: appends committed.
    pub appends: usize,
    /// Ingest: day files each table holds when the phase ends.
    pub final_days: [usize; 5],
    /// Ingest: raw JSON bytes appended.
    pub appended_bytes: u64,
    /// Ingest: loader time in append + refresh + install.
    pub loader_busy: Duration,
    /// Ingest: per append, from its publication until the refreshed cache
    /// is installed.
    pub refresh_lags: Vec<Duration>,
    /// Ingest: per append, the `refresh_incremental` call alone.
    pub refresh_times: Vec<Duration>,
    /// Ingest: reader queries on a cached table that the Maxson cache could
    /// not answer because an append had made it stale.
    pub stale_queries: u64,
    /// Ingest: per reader statement (parallel to `steps`), whether the
    /// reuse cache answered it (a full-result or a fragment hit).
    pub reused: Vec<bool>,
    /// Ingest: per reader statement (parallel to `steps`), the warehouse
    /// epoch it was planned at (`u64::MAX` on an error).
    pub epochs: Vec<u64>,
}

impl Outcome {
    /// Errors plus mismatches.
    pub fn failed(&self) -> u64 {
        self.errors + self.mismatches
    }

    fn fail(&mut self, what: String) {
        if self.first_failure.is_none() {
            self.first_failure = Some(what);
        }
    }

    fn absorb(&mut self, other: Outcome) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.mismatches += other.mismatches;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    /// Check `result` against the reference answers `keys` (any may match)
    /// and record the request.
    fn record(
        &mut self,
        wh: &Warehouse,
        label: &str,
        keys: &[String],
        result: Result<QueryResult, String>,
        latency: Duration,
    ) {
        self.attempted += 1;
        match result {
            Err(e) => {
                self.errors += 1;
                self.fail(format!("{label}: {e}"));
            }
            Ok(r) => {
                let hash = result_hash(&r);
                if keys
                    .iter()
                    .any(|k| wh.reference(k).is_some_and(|x| x.hash == hash))
                {
                    self.samples.push(Sample {
                        label: label.to_string(),
                        latency,
                    });
                } else {
                    self.mismatches += 1;
                    let expected: Vec<usize> = keys
                        .iter()
                        .filter_map(|k| wh.reference(k).map(|x| x.rows))
                        .collect();
                    let m = &r.metrics;
                    self.fail(format!(
                        "{label}: result differs from reference {keys:?} \
                         ({} rows, expected {expected:?}; epoch {}, cache hits {}, \
                         parse calls {}, reuse hits {}/{} fragment)",
                        r.rows.len(),
                        r.epoch,
                        m.cache_hits,
                        m.parse_calls,
                        m.reuse_hits,
                        m.reuse_fragment_hits
                    ));
                }
            }
        }
    }
}

/// Run the measured phase for at least `seconds` and at least the
/// workload's minimum sample count, after one untimed (but checked) pass
/// over the distinct statements, so the footer cache is past its cold start
/// when the clock starts.
pub fn load(wh: &Warehouse, ready: &Ready, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let min = ready.workload.min_samples();
    let budget = Duration::from_secs_f64(seconds);
    let warm = warm_up(wh, ready, seed);
    if warm.failed() > 0 {
        return Ok(warm);
    }
    match ready.workload {
        Workload::AdhocRaw => Ok(adhoc(wh, &ready.session, seed, budget, min)),
        Workload::ServedCached => served(wh, ready, seed, budget, min),
        Workload::IngestMidday => ingest(wh, ready, seed, budget, min),
    }
}

/// Run each distinct statement of the workload once, in process. On
/// `adhoc_raw` this is one pass in the measured passes' own order, so the
/// first measured pass finds the footer cache as every later one does.
fn warm_up(wh: &Warehouse, ready: &Ready, seed: u64) -> Outcome {
    let mut warm = Outcome::default();
    let queries = match ready.workload {
        Workload::AdhocRaw => adhoc_pass(seed)
            .into_iter()
            .map(|qi| wh.queries[qi].clone())
            .collect(),
        w => w.queries(wh),
    };
    for q in queries {
        let variants: &[IngestVariant] = match ready.workload {
            Workload::IngestMidday => &[IngestVariant::Base, IngestVariant::Limit],
            _ => &[IngestVariant::Base],
        };
        for &v in variants {
            let (label, sql) = ingest_statement(&q, v);
            let result = ready.session.execute(&sql).map_err(|e| e.to_string());
            warm.record(
                wh,
                &label,
                &[reference_key(&label, 0)],
                result,
                Duration::ZERO,
            );
        }
    }
    warm
}

/// One pass of the adhoc cycle from a seeded start.
fn adhoc_pass(seed: u64) -> Vec<usize> {
    rotated(adhoc_cycle(), seed).take(10).collect()
}

/// One caller, closed loop, whole passes of the adhoc cycle from a seeded
/// start.
fn adhoc(wh: &Warehouse, session: &Session, seed: u64, budget: Duration, min: usize) -> Outcome {
    let pass = adhoc_pass(seed);
    let start = Instant::now();
    let mut out = Outcome::default();
    while start.elapsed() < budget || out.samples.len() < min {
        for &qi in &pass {
            let q = &wh.queries[qi];
            let t = Instant::now();
            let result = session.execute(&q.sql).map_err(|e| e.to_string());
            let latency = t.elapsed();
            out.record(wh, &q.name, &[reference_key(&q.name, 0)], result, latency);
        }
        if out.failed() > 0 {
            break;
        }
    }
    out.elapsed = start.elapsed();
    out
}

/// Closed-loop clients over TCP, each issuing its own seeded Zipf mix.
fn served(
    wh: &Warehouse,
    ready: &Ready,
    seed: u64,
    budget: Duration,
    min: usize,
) -> Result<Outcome, String> {
    let addr = ready
        .server
        .as_ref()
        .expect("served workload has a server")
        .addr();
    let done = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let start = Instant::now();
    let per_client: Vec<Result<Outcome, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SERVED_CLIENTS)
            .map(|c| {
                let (done, failed) = (&done, &failed);
                scope.spawn(move || -> Result<Outcome, String> {
                    let mut client =
                        Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                    let mut out = Outcome::default();
                    for label in rotated(served_cycle(), served_start(seed, c)) {
                        if (start.elapsed() >= budget && done.load(Ordering::Relaxed) >= min)
                            || failed.load(Ordering::Relaxed)
                        {
                            break;
                        }
                        let q = query_by_label(wh, label);
                        let t = Instant::now();
                        let result = client.query(&q.sql).map_err(|e| e.to_string());
                        let latency = t.elapsed();
                        out.record(wh, label, &[reference_key(label, 0)], result, latency);
                        done.fetch_add(1, Ordering::Relaxed);
                        if out.failed() > 0 {
                            failed.store(true, Ordering::Relaxed);
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread must not panic"))
            .collect()
    });
    let mut out = Outcome::default();
    for o in per_client {
        out.absorb(o?);
    }
    out.elapsed = start.elapsed();
    Ok(out)
}

/// `Qn` by label.
pub fn query_by_label<'a>(wh: &'a Warehouse, label: &str) -> &'a QuerySpec {
    wh.queries
        .iter()
        .find(|q| q.name == label)
        .expect("labels come from the query list")
}

/// Per-table day counters shared by the loader and the reader: `pending`
/// is bumped before an append starts and `committed` after it lands, so a
/// query bracketed by reading `committed` before and `pending` after saw a
/// table state in between.
struct DayCounters {
    pending: [AtomicUsize; 5],
    committed: [AtomicUsize; 5],
}

/// One reader and one loader over the five small tables.
fn ingest(
    wh: &Warehouse,
    ready: &Ready,
    seed: u64,
    budget: Duration,
    min: usize,
) -> Result<Outcome, String> {
    let queries = Workload::IngestMidday.queries(wh);
    let order: Vec<usize> = rotated(append_cycle(), seed)
        .take(MAX_DAYS * INGEST_TABLES.len())
        .collect();
    // Day files are read from the pool before the clock starts.
    let pool = Catalog::open(wh.pool_root()).map_err(|e| format!("open day pool: {e}"))?;
    let mut next_day = [0usize; 5];
    let mut days: Vec<(usize, Vec<Vec<Cell>>)> = Vec::with_capacity(order.len());
    for &t in &order {
        days.push((
            t,
            day_file_rows(&pool, wh.spec, INGEST_TABLES[t], next_day[t])?,
        ));
        next_day[t] += 1;
    }
    let cached_tables: Vec<bool> = {
        let cached = &ready.cycle.as_ref().expect("ingest runs a cycle").cached;
        INGEST_TABLES
            .iter()
            .map(|t| cached.iter().any(|l| l.table == *t))
            .collect()
    };
    let counters = DayCounters {
        pending: Default::default(),
        committed: Default::default(),
    };
    let (go, appends_due) = std::sync::mpsc::channel::<()>();
    let root = ready.root.clone();
    let budget_bytes = ready.cycle.as_ref().map_or(0, |c| c.budget);
    let reader_session = ready.session.clone();
    let loader_session = ready.session.clone();
    let start = Instant::now();

    let (mut out, loader) = std::thread::scope(|scope| -> Result<(Outcome, Outcome), String> {
        let loader = scope.spawn(|| -> Result<Outcome, String> {
            let appends_due = appends_due;
            let mut out = Outcome::default();
            // One append per signal; the reader hangs up when it is done.
            for (k, (t, rows)) in days.iter().enumerate() {
                if appends_due.recv().is_err() {
                    break;
                }
                let table = INGEST_TABLES[*t];
                let now = CYCLE_NOW + k as u64 + 1;
                let meta_cache = Arc::clone(loader_session.catalog().meta_cache());
                let open_work = || {
                    Catalog::open_with_cache(&root, Arc::clone(&meta_cache))
                        .map_err(|e| format!("open work catalog: {e}"))
                };
                let load_registry =
                    |c: &Catalog| CacheRegistry::load(c).map_err(|e| format!("load registry: {e}"));
                counters.pending[*t].fetch_add(1, Ordering::SeqCst);
                // Write the day file through a work catalog, then publish it
                // by epoch swap with the (now stale) cache registry, so the
                // session's tables and the rewriter's view change together.
                let mut work = open_work()?;
                let t_append = Instant::now();
                out.appended_bytes += append_day(&mut work, table, rows, now)?;
                let registry = load_registry(&work)?;
                cycle::install(&loader_session, work, registry)?;
                let committed = Instant::now();
                counters.committed[*t].fetch_add(1, Ordering::SeqCst);
                let mut work = open_work()?;
                let mut registry = load_registry(&work)?;
                let t_refresh = Instant::now();
                JsonPathCacher::new(budget_bytes)
                    .refresh_incremental(&mut work, &mut registry, now)
                    .map_err(|e| format!("refresh after append to {table}: {e}"))?;
                let refreshed = Instant::now();
                cycle::install(&loader_session, work, registry)?;
                let installed = Instant::now();
                out.refresh_times.push(refreshed - t_refresh);
                out.refresh_lags.push(installed - committed);
                out.loader_busy += installed - t_append;
                out.appends += 1;
            }
            Ok(out)
        });

        let mut out = Outcome::default();
        for step in rotated(ingest_cycle(), ingest_start(seed)) {
            if start.elapsed() >= budget && out.samples.len() >= min {
                break;
            }
            let q = queries
                .iter()
                .find(|q| q.table == INGEST_TABLES[step.table])
                .expect("ingest tables have queries");
            let (label, sql) = ingest_statement(q, step.variant);
            let lo = counters.committed[step.table].load(Ordering::SeqCst);
            let t = Instant::now();
            let result = reader_session.execute(&sql).map_err(|e| e.to_string());
            let latency = t.elapsed();
            let hi = counters.pending[step.table].load(Ordering::SeqCst);
            let reused = result
                .as_ref()
                .is_ok_and(|r| r.metrics.reuse_hits + r.metrics.reuse_fragment_hits > 0);
            if let Ok(r) = &result {
                if cached_tables[step.table] && !reused && r.metrics.cache_hits == 0 {
                    out.stale_queries += 1;
                }
            }
            out.epochs
                .push(result.as_ref().map_or(u64::MAX, |r| r.epoch));
            let keys: Vec<String> = (lo..=hi).map(|d| reference_key(&label, d)).collect();
            out.record(wh, &label, &keys, result, latency);
            out.steps.push(step);
            out.reused.push(reused);
            if out.steps.len().is_multiple_of(APPEND_EVERY) {
                // A loader past its last planned append ignores it.
                let _ = go.send(());
            }
            if out.failed() > 0 {
                break;
            }
        }
        drop(go);
        let loader = loader.join().expect("loader thread must not panic")?;
        Ok((out, loader))
    })?;
    out.elapsed = start.elapsed();
    out.final_days = std::array::from_fn(|t| counters.committed[t].load(Ordering::SeqCst));
    out.appends = loader.appends;
    out.appended_bytes = loader.appended_bytes;
    out.loader_busy = loader.loader_busy;
    out.refresh_lags = loader.refresh_lags;
    out.refresh_times = loader.refresh_times;
    Ok(out)
}

/// Cache-table bytes over raw-table bytes of a set-up workload (0 without
/// a cache).
pub fn cache_space_ratio(ready: &Ready) -> f64 {
    match &ready.cycle {
        Some(c) if c.raw_bytes > 0 => c.cache_bytes as f64 / c.raw_bytes as f64,
        _ => 0.0,
    }
}
