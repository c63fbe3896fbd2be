//! The midnight cycle, stage by stage through public calls, so each stage
//! can be timed: predict tomorrow's MPJPs, score them, build the cache
//! tables from scratch, and install them by epoch swap.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use maxson::cacher::CACHE_DB;
use maxson::mpjp::{predict_mpjps, PredictorKind, TrainedPredictor};
use maxson::{CacheRegistry, JsonPathCacher, MaxsonScanRewriter, PipelineConfig};
use maxson_datagen::tables::QuerySpec;
use maxson_engine::session::Session;
use maxson_storage::Catalog;
use maxson_trace::model::RecurrenceClass;
use maxson_trace::{JsonPathCollector, JsonPathLocation, QueryRecord};

use crate::warehouse::{table_bytes, DATABASE};

/// Days of query history the predictor trains on.
pub const HISTORY_DAYS: u32 = 14;

/// Logical time of the midnight build; appends and refreshes count up
/// from here.
pub const CYCLE_NOW: u64 = 1_000;

/// Timings and sizes of one midnight cycle.
#[derive(Debug, Clone)]
pub struct CycleReport {
    /// Train the predictor and predict tomorrow's MPJPs.
    pub predict: Duration,
    /// §IV-B scoring of the candidates.
    pub score: Duration,
    /// Build the cache tables from scratch.
    pub build: Duration,
    /// Open the rewriter's catalog view and swap the warehouse epoch.
    pub install: Duration,
    /// Bytes of the cache tables built.
    pub cache_bytes: u64,
    /// Bytes of the raw tables.
    pub raw_bytes: u64,
    /// Bytes of the raw tables the build read (those with at least one
    /// cached path).
    pub parsed_bytes: u64,
    /// JSONPath locations admitted under the budget.
    pub cached: Vec<JsonPathLocation>,
    /// The cacher's byte budget.
    pub budget: u64,
}

/// The recurring-report history of `queries`: every query runs twice a day
/// (two users) for [`HISTORY_DAYS`] days, so all its paths are MPJPs.
pub fn history(queries: &[&QuerySpec]) -> Vec<QueryRecord> {
    let mut out = Vec::new();
    let mut id = 0u64;
    for day in 0..HISTORY_DAYS {
        for (qi, q) in queries.iter().enumerate() {
            let paths: Vec<JsonPathLocation> = q
                .paths
                .iter()
                .map(|p| JsonPathLocation::new(&q.database, &q.table, "payload", p.clone()))
                .collect();
            for user in 0..2u32 {
                out.push(QueryRecord {
                    query_id: id,
                    user_id: qi as u32 * 2 + user,
                    day,
                    hour: 8 + user as u8,
                    recurrence: RecurrenceClass::Daily,
                    paths: paths.clone(),
                });
                id += 1;
            }
        }
    }
    out
}

/// Run the cycle over the warehouse at `root` for the tables of `queries`,
/// with a cache budget of `budget_share` of the full parsed-value size of
/// every predicted path, and install it on `session`.
pub fn run(
    session: &mut Session,
    root: &Path,
    queries: &[&QuerySpec],
    budget_share: f64,
) -> Result<CycleReport, String> {
    let history = history(queries);
    let features = PipelineConfig::default().features;
    let kind: PredictorKind = PipelineConfig::default().predictor;

    let t = Instant::now();
    let mut collector = JsonPathCollector::new();
    collector.observe_all(history.iter());
    let predictor = TrainedPredictor::train(kind, &collector, &features);
    let candidates = predict_mpjps(&collector, &predictor, HISTORY_DAYS - 1, &features);
    let predict = t.elapsed();

    let t = Instant::now();
    let ranked = maxson::score_candidates(&session.catalog(), &candidates, &history)
        .map_err(|e| format!("score: {e}"))?;
    let score = t.elapsed();
    let full: u64 = ranked.iter().map(|r| r.estimated_bytes).sum();
    let budget = (full as f64 * budget_share) as u64;

    let t = Instant::now();
    let meta_cache = Arc::clone(session.catalog().meta_cache());
    let mut work =
        Catalog::open_with_cache(root, meta_cache).map_err(|e| format!("open work: {e}"))?;
    let (registry, report) = JsonPathCacher::new(budget)
        .populate(&mut work, &ranked, CYCLE_NOW)
        .map_err(|e| format!("populate: {e}"))?;
    let build = t.elapsed();

    let cache_bytes = table_bytes(&work, CACHE_DB);
    let raw_bytes = table_bytes(&work, DATABASE);
    let parsed_bytes = parsed_table_bytes(&work, &report.cached);

    let t = Instant::now();
    install(session, work, registry)?;
    let install = t.elapsed();

    Ok(CycleReport {
        predict,
        score,
        build,
        install,
        cache_bytes,
        raw_bytes,
        parsed_bytes,
        cached: report.cached,
        budget,
    })
}

/// Install `registry` over catalog view `work` as the session's rewriter,
/// atomically, by epoch swap.
pub fn install(session: &Session, work: Catalog, registry: CacheRegistry) -> Result<(), String> {
    let mut rewriter = MaxsonScanRewriter::with_registry(work, registry);
    rewriter.enable_pushdown = PipelineConfig::default().enable_pushdown;
    rewriter.set_metrics_registry(Arc::clone(session.metrics_registry()));
    session
        .swap_warehouse_epoch(Some(Box::new(rewriter)))
        .map_err(|e| format!("install: {e}"))?;
    Ok(())
}

/// Bytes of the raw tables that hold at least one cached path.
fn parsed_table_bytes(catalog: &Catalog, cached: &[JsonPathLocation]) -> u64 {
    let mut tables: Vec<&str> = cached.iter().map(|l| l.table.as_str()).collect();
    tables.sort_unstable();
    tables.dedup();
    tables
        .iter()
        .filter_map(|t| catalog.table(DATABASE, t).ok())
        .filter_map(|t| t.byte_size().ok())
        .sum()
}
