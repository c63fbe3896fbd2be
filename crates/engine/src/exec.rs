//! Plan execution: one segment row loop for scan, filter, project and
//! aggregate, plus volcano-style (materialized) join, sort, limit and
//! distinct.
//!
//! ## Segments
//!
//! Filter, Project and Aggregate all run through one segment
//! (`PipelineSegment`): a per-row loop that applies an optional filter and
//! then feeds either the output rows (optionally projected) or an
//! aggregate partial. Above a
//! scan — `Scan`, `Filter(Scan)`, `Project([Filter](Scan))`,
//! `Aggregate([Filter](Scan))` — the segment covers the scan and its
//! stages together, so one row's JSON parse is shared by the filter *and*
//! the projection or aggregation, and columnar batches materialize cells
//! late. Over any other input (a join, or the aggregate under a HAVING
//! filter or post-aggregate projection) each operator is a one-stage
//! segment over the input's materialized rows, which arrive as a single
//! row-major batch.
//!
//! ## Parallel execution model
//!
//! When a scan segment's provider exposes more than one split and
//! [`ExecOptions::threads`] allows it, the segment fans out one task per
//! split on a scoped-thread pool ([`crate::pool::run_split_tasks`]). Each
//! task runs scan→filter→project (or scan→filter→partial-aggregate)
//! against its own [`ExecMetrics`]; the barrier absorbs task metrics and
//! reassembles rows (or merges aggregate partials) **in split order**,
//! which makes the output byte-identical to the serial path:
//!
//! * row pipelines: the serial scan visits splits in index order, so
//!   concatenating per-split outputs in index order reproduces the exact
//!   serial row sequence;
//! * aggregates: partial states merge in split order. `SUM`/`AVG` over
//!   floats defer their addends and fold them at finish time in input
//!   order, so the float additions happen in exactly the sequence the
//!   serial accumulator would use (float addition is not associative —
//!   summing per-split subtotals would *not* be bit-identical). Integer
//!   sums use wrapping i64 arithmetic, which is associative. Grouped
//!   output keeps first-seen group order because split 0's groups are
//!   merged first.
//!
//! Plans that are not segment-shaped (joins, sorts, HAVING chains, …) run
//! serially at the top but still parallelize any scan segment found deeper
//! in their inputs.

use std::collections::HashMap;

use maxson_obs::{SpanGuard, SpanId, Tracer};
use maxson_storage::{Cell, CellKey, ColumnData, RowKey, RowKeySlice, Schema};

use crate::error::Result;
use crate::expr::{truthy, Expr, JsonParserKind};
use crate::extract::{JsonExtractor, RowSlots};
use crate::metrics::ExecMetrics;
use crate::plan::LogicalPlan;
use crate::pool;
use crate::scan::{Batch, BatchData, ScanProvider};
use crate::sql::ast::AggFunc;

/// Knobs controlling one plan execution.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Maximum worker threads for split-parallel segments. `1` is the
    /// serial reference path (no pool involvement at all).
    pub threads: usize,
    /// Intra-query shared-parse extraction: parse each JSON document once
    /// per row and answer every path the query needs from that single
    /// parse. Off = the naive one-parse-per-`get_json_object` baseline.
    pub shared_parse: bool,
    /// Cooperative split scheduler: when set, every split task (inline or
    /// pooled) runs inside an acquire/release bracket so a query server can
    /// time-slice split execution fairly across concurrent queries.
    pub scheduler: Option<std::sync::Arc<dyn pool::SplitScheduler>>,
}

impl ExecOptions {
    /// The serial reference configuration (shared-parse still follows the
    /// `MAXSON_SHARED_PARSE` environment toggle).
    pub fn serial() -> Self {
        ExecOptions {
            threads: 1,
            shared_parse: shared_parse_from_env(),
            scheduler: None,
        }
    }

    /// Explicit thread count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        ExecOptions {
            threads: threads.max(1),
            shared_parse: shared_parse_from_env(),
            scheduler: None,
        }
    }

    /// Override the shared-parse toggle (builder style).
    pub fn with_shared_parse(mut self, on: bool) -> Self {
        self.shared_parse = on;
        self
    }

    /// Attach (or clear) a cooperative split scheduler (builder style).
    pub fn with_scheduler(
        mut self,
        scheduler: Option<std::sync::Arc<dyn pool::SplitScheduler>>,
    ) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Resolve from the environment: `MAXSON_THREADS` if set to a positive
    /// integer (otherwise the number of available cores), and
    /// `MAXSON_SHARED_PARSE` (default on; `0` disables).
    pub fn from_env() -> Self {
        let threads = std::env::var("MAXSON_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(default_threads);
        ExecOptions {
            threads,
            shared_parse: shared_parse_from_env(),
            scheduler: None,
        }
    }
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions::from_env()
    }
}

/// Available hardware parallelism (1 when it cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolve the `MAXSON_SHARED_PARSE` toggle: default on, `0` disables.
pub fn shared_parse_from_env() -> bool {
    std::env::var("MAXSON_SHARED_PARSE")
        .map(|v| v.trim() != "0")
        .unwrap_or(true)
}

/// Execute a plan to completion, returning the output rows. Threading is
/// resolved from the environment ([`ExecOptions::from_env`]).
pub fn execute_plan(
    plan: &LogicalPlan,
    parser: JsonParserKind,
    metrics: &mut ExecMetrics,
) -> Result<Vec<Vec<Cell>>> {
    execute_plan_with(plan, parser, metrics, ExecOptions::from_env())
}

/// Execute a plan to completion with explicit options (untraced).
pub fn execute_plan_with(
    plan: &LogicalPlan,
    parser: JsonParserKind,
    metrics: &mut ExecMetrics,
    opts: ExecOptions,
) -> Result<Vec<Vec<Cell>>> {
    execute_plan_traced(plan, parser, metrics, &opts, &Tracer::disabled(), None)
}

/// Execute a plan to completion, recording one span per operator (and per
/// split, inside scan pipelines) under `parent`. With a disabled tracer
/// every hook is a branch on a bool — rows and metrics are identical to
/// the untraced path (see `tests/tracing_differential.rs`).
pub fn execute_plan_traced(
    plan: &LogicalPlan,
    parser: JsonParserKind,
    metrics: &mut ExecMetrics,
    opts: &ExecOptions,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Vec<Vec<Cell>>> {
    match plan {
        LogicalPlan::Scan { provider } => {
            let source = Source::Scan(provider.as_ref());
            run_segment(
                source, None, None, None, parser, metrics, opts, tracer, parent,
            )
        }
        LogicalPlan::Filter { input, predicate } => {
            // Only a bare scan fuses with a filter; anything else (a join,
            // an aggregate under HAVING) is materialized first.
            let source = match input.as_ref() {
                LogicalPlan::Scan { provider } => Source::Scan(provider.as_ref()),
                _ => Source::Rows("filter", input),
            };
            let filter = Some(predicate);
            run_segment(
                source, filter, None, None, parser, metrics, opts, tracer, parent,
            )
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let (source, filter) = Source::fused(input, "project");
            let project = Some(exprs.as_slice());
            run_segment(
                source, filter, project, None, parser, metrics, opts, tracer, parent,
            )
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => {
            let (source, filter) = Source::fused(input, "hash_agg");
            let agg = Some((group_by.as_slice(), aggs.as_slice()));
            run_segment(
                source, filter, None, agg, parser, metrics, opts, tracer, parent,
            )
        }
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
            ..
        } => {
            let span = tracer.child("hash_join", parent);
            let left_rows = execute_plan_traced(left, parser, metrics, opts, tracer, span.id())?;
            let right_rows = execute_plan_traced(right, parser, metrics, opts, tracer, span.id())?;
            span.attr("rows_left", left_rows.len());
            span.attr("rows_right", right_rows.len());
            let before = counters_before(tracer, metrics);
            let out = hash_join(
                left_rows,
                right_rows,
                left_key,
                right_key,
                parser,
                metrics,
                opts.shared_parse,
            )?;
            span.attr("rows_out", out.len());
            attr_counter_deltas(&span, before.as_ref(), metrics);
            Ok(out)
        }
        LogicalPlan::Sort { input, keys } => {
            let span = tracer.child("sort", parent);
            let rows = execute_plan_traced(input, parser, metrics, opts, tracer, span.id())?;
            span.attr("rows_in", rows.len());
            let before = counters_before(tracer, metrics);
            let out = sort_rows(rows, keys, parser, metrics, opts.shared_parse)?;
            attr_counter_deltas(&span, before.as_ref(), metrics);
            Ok(out)
        }
        LogicalPlan::Limit { input, n } => {
            let span = tracer.child("limit", parent);
            let mut rows = execute_plan_traced(input, parser, metrics, opts, tracer, span.id())?;
            span.attr("rows_in", rows.len());
            rows.truncate(*n);
            span.attr("rows_out", rows.len());
            Ok(rows)
        }
        LogicalPlan::Distinct { input } => {
            let span = tracer.child("distinct", parent);
            let rows = execute_plan_traced(input, parser, metrics, opts, tracer, span.id())?;
            span.attr("rows_in", rows.len());
            let mut seen: std::collections::HashSet<RowKey> = std::collections::HashSet::new();
            let mut out = Vec::new();
            for row in rows {
                // Probe with the borrowed row; own a key (cheap cell
                // clones, no string build) only for first-seen rows.
                if !seen.contains(RowKeySlice::new(&row)) {
                    seen.insert(RowKey(row.clone()));
                    out.push(row);
                }
            }
            span.attr("rows_out", out.len());
            Ok(out)
        }
    }
}

/// Snapshot the counters an operator span will diff against — only when
/// tracing, so the untraced path never clones.
fn counters_before(tracer: &Tracer, metrics: &ExecMetrics) -> Option<ExecMetrics> {
    tracer.is_enabled().then(|| metrics.clone())
}

/// Annotate a span with the integer-counter deltas an operator charged
/// (zero deltas are omitted, keeping rendered plans compact and
/// deterministic across thread counts).
fn attr_counter_deltas(span: &SpanGuard<'_>, before: Option<&ExecMetrics>, after: &ExecMetrics) {
    let Some(b) = before else { return };
    for (key, delta) in [
        ("rows_scanned", after.rows_scanned - b.rows_scanned),
        ("bytes_read", after.bytes_read - b.bytes_read),
        ("parse_calls", after.parse_calls - b.parse_calls),
        ("docs_parsed", after.docs_parsed - b.docs_parsed),
        ("cache_hits", after.cache_hits - b.cache_hits),
        ("rg_read", after.row_groups_read - b.row_groups_read),
        (
            "rg_skipped",
            after.row_groups_skipped - b.row_groups_skipped,
        ),
        (
            "prefilter_dropped",
            after.prefilter_dropped - b.prefilter_dropped,
        ),
        (
            "cells_materialized",
            after.cells_materialized - b.cells_materialized,
        ),
        (
            "batch_rows_skipped",
            after.batch_rows_skipped - b.batch_rows_skipped,
        ),
        ("lru_hits", after.lru_hits - b.lru_hits),
        ("lru_misses", after.lru_misses - b.lru_misses),
        ("lru_evictions", after.lru_evictions - b.lru_evictions),
        ("nodes_skipped", after.nodes_skipped - b.nodes_skipped),
        ("bitmap_builds", after.bitmap_builds - b.bitmap_builds),
        ("bitmap_bytes", after.bitmap_bytes - b.bitmap_bytes),
    ] {
        if delta > 0 {
            span.attr(key, delta);
        }
    }
    // Kernel attribution rides along only when this operator actually built
    // structural bitmaps, so Jackson-mode span trees are unchanged.
    if after.bitmap_builds > b.bitmap_builds {
        let wall_us =
            (after.bitmap_build_wall.saturating_sub(b.bitmap_build_wall)).as_micros() as u64;
        if wall_us > 0 {
            span.attr("bitmap_wall_us", wall_us);
        }
        span.attr("simd", maxson_json::kernels::active().name());
    }
}

/// Build a shared-parse extractor over `exprs` when the toggle is on (and
/// the expressions contain any JSON path at all).
fn shared_extractor<'a>(
    shared_parse: bool,
    exprs: impl IntoIterator<Item = &'a Expr>,
) -> Option<JsonExtractor> {
    if shared_parse {
        JsonExtractor::from_exprs(exprs)
    } else {
        None
    }
}

// ----------------------------------------------------------------------
// Segments: the one row loop behind scan, filter, project and aggregate
// ----------------------------------------------------------------------

/// Where a segment's rows come from.
enum Source<'a> {
    /// Fused with this scan: split by split, in parallel when allowed.
    Scan(&'a dyn ScanProvider),
    /// The materialized rows of a non-scan input, as one row-major batch
    /// under an operator span with this name.
    Rows(&'static str, &'a LogicalPlan),
}

impl<'a> Source<'a> {
    /// The source of a projection or aggregation over `input`: a bare scan
    /// or a filter directly over one fuses (the filter joins the segment);
    /// any other input is materialized under a span named `name`.
    fn fused(input: &'a LogicalPlan, name: &'static str) -> (Self, Option<&'a Expr>) {
        match input {
            LogicalPlan::Scan { provider } => (Source::Scan(provider.as_ref()), None),
            LogicalPlan::Filter {
                input: inner,
                predicate,
            } => match inner.as_ref() {
                LogicalPlan::Scan { provider } => {
                    (Source::Scan(provider.as_ref()), Some(predicate))
                }
                _ => (Source::Rows(name, input), None),
            },
            _ => (Source::Rows(name, input), None),
        }
    }
}

/// An aggregation stage: group-by keys and `(function, argument)` calls.
type AggStage<'a> = (&'a [Expr], &'a [(AggFunc, Option<Expr>)]);

/// An optional filter, then either a projection or an aggregation (never
/// both — the planner puts the post-aggregate projection above the
/// Aggregate node, where it runs as its own segment over the aggregate's
/// few result rows).
struct PipelineSegment<'a> {
    filter: Option<&'a Expr>,
    project: Option<&'a [(Expr, String)]>,
    agg: Option<AggStage<'a>>,
    /// Shared-parse extraction sites across the *whole* segment (filter
    /// plus projection or aggregation), so one row-parse serves every
    /// stage. `None` when the toggle is off or no stage touches JSON.
    /// Read-only, hence safely shared across split tasks.
    extractor: Option<JsonExtractor>,
    /// Input columns the filter reads (ascending). For columnar batches
    /// only these are materialized before the filter runs.
    filter_cols: Vec<usize>,
    /// The complement of `filter_cols` over the input schema (ascending):
    /// materialized only for rows the filter keeps.
    rest_cols: Vec<usize>,
}

/// What a segment's row loop feeds.
enum SegmentOut {
    Rows(Vec<Vec<Cell>>),
    Agg(AggPartial),
}

impl SegmentOut {
    /// Rows emitted so far (`None` for an aggregate, whose rows exist only
    /// once it is finished).
    fn row_count(&self) -> Option<usize> {
        match self {
            SegmentOut::Rows(rows) => Some(rows.len()),
            SegmentOut::Agg(_) => None,
        }
    }

    /// Append a later split's output (rows concatenate, partials merge).
    fn merge(&mut self, later: SegmentOut) {
        match (self, later) {
            (SegmentOut::Rows(rows), SegmentOut::Rows(more)) => rows.extend(more),
            (SegmentOut::Agg(partial), SegmentOut::Agg(more)) => partial.merge(more),
            _ => unreachable!("merging mismatched segment outputs"),
        }
    }

    fn finish(self) -> Vec<Vec<Cell>> {
        match self {
            SegmentOut::Rows(rows) => rows,
            SegmentOut::Agg(partial) => finish_aggregate(partial),
        }
    }
}

/// One batch's rows as the segment loop sees them. Row-major rows are used
/// in place; a columnar batch materializes row `i` into one reused scratch
/// row, only the columns the loop asks for.
enum BatchRows {
    Rows(Vec<Vec<Cell>>),
    Columns {
        cols: Vec<ColumnData>,
        scratch: Vec<Cell>,
    },
}

impl BatchRows {
    fn new(data: BatchData) -> Self {
        match data {
            BatchData::Rows(rows) => BatchRows::Rows(rows),
            BatchData::Columns(cols) => BatchRows::Columns {
                scratch: vec![Cell::Null; cols.len()],
                cols,
            },
        }
    }

    /// Rows in the batch, selected or not.
    fn len(&self) -> usize {
        match self {
            BatchRows::Rows(rows) => rows.len(),
            BatchRows::Columns { cols, .. } => cols.first().map_or(0, |c| c.len()),
        }
    }

    /// Build `columns` of columnar row `i`, charging `cells_materialized`
    /// (row-major cells already exist).
    fn load(&mut self, i: usize, columns: &[usize], metrics: &mut ExecMetrics) {
        if let BatchRows::Columns { cols, scratch } = self {
            for &c in columns {
                scratch[c] = cols[c].get(i);
            }
            metrics.cells_materialized += columns.len() as u64;
        }
    }

    /// Row `i` (for columnar batches: the scratch row, valid for the
    /// columns loaded so far).
    fn row(&self, i: usize) -> &[Cell] {
        match self {
            BatchRows::Rows(rows) => &rows[i],
            BatchRows::Columns { scratch, .. } => scratch,
        }
    }

    /// Hand row `i` to the output: moved out of a row-major batch, copied
    /// out of the scratch row otherwise (cheap: cell clones are refcount
    /// bumps on shared buffers).
    fn take(&mut self, i: usize) -> Vec<Cell> {
        match self {
            BatchRows::Rows(rows) => std::mem::take(&mut rows[i]),
            BatchRows::Columns { scratch, .. } => scratch.clone(),
        }
    }

    /// The filter rejected a row. A columnar batch counts it as skipped:
    /// its non-predicate cells were never built.
    fn reject(&self, metrics: &mut ExecMetrics) {
        if let BatchRows::Columns { .. } = self {
            metrics.batch_rows_skipped += 1;
        }
    }
}

impl<'a> PipelineSegment<'a> {
    /// A segment over rows of `input` schema.
    fn new(
        filter: Option<&'a Expr>,
        project: Option<&'a [(Expr, String)]>,
        agg: Option<AggStage<'a>>,
        input: &Schema,
        shared_parse: bool,
    ) -> Self {
        let mut exprs: Vec<&Expr> = Vec::new();
        exprs.extend(filter);
        if let Some(list) = project {
            exprs.extend(list.iter().map(|(e, _)| e));
        }
        if let Some((group_by, aggs)) = agg {
            exprs.extend(group_by.iter());
            exprs.extend(aggs.iter().filter_map(|(_, a)| a.as_ref()));
        }
        let mut referenced = std::collections::BTreeSet::new();
        if let Some(predicate) = filter {
            predicate.collect_columns(&mut referenced);
        }
        let width = input.fields().len();
        PipelineSegment {
            filter,
            project,
            agg,
            extractor: shared_extractor(shared_parse, exprs),
            // Out-of-range references (a planner bug) are left out so the
            // filter's own eval reports the error instead of an index panic.
            filter_cols: referenced.iter().copied().filter(|&c| c < width).collect(),
            rest_cols: (0..width).filter(|c| !referenced.contains(c)).collect(),
        }
    }

    fn new_out(&self) -> SegmentOut {
        match self.agg {
            Some((group_by, aggs)) => SegmentOut::Agg(AggPartial::new(group_by, aggs)),
            None => SegmentOut::Rows(Vec::new()),
        }
    }

    /// Run the filter and then the projection or aggregation over one
    /// batch, row at a time so every stage shares one [`RowSlots`] — the
    /// filter's parse is reused above it. Rows the selection vector drops
    /// are charged to `batch_rows_skipped` and never visited.
    fn run(
        &self,
        batch: Batch,
        out: &mut SegmentOut,
        parser: JsonParserKind,
        metrics: &mut ExecMetrics,
    ) -> Result<()> {
        let mut rows = BatchRows::new(batch.data);
        let n = rows.len();
        let indexes = match batch.selection {
            Some(sel) => {
                metrics.batch_rows_skipped += (n - sel.len()) as u64;
                sel
            }
            None => (0..n as u32).collect(),
        };
        for &i in &indexes {
            let i = i as usize;
            let slots = self.extractor.as_ref().map(RowSlots::new);
            if let Some(predicate) = self.filter {
                rows.load(i, &self.filter_cols, metrics);
                if !truthy(&predicate.eval_with(rows.row(i), parser, metrics, slots.as_ref())?) {
                    rows.reject(metrics);
                    continue;
                }
            }
            rows.load(i, &self.rest_cols, metrics);
            match out {
                SegmentOut::Agg(partial) => {
                    let (group_by, aggs) = self.agg.expect("aggregate output implies aggregate");
                    partial.update(rows.row(i), group_by, aggs, parser, metrics, slots.as_ref())?;
                }
                SegmentOut::Rows(out) => match self.project {
                    Some(exprs) => {
                        let mut projected = Vec::with_capacity(exprs.len());
                        for (e, _) in exprs {
                            projected.push(e.eval_with(
                                rows.row(i),
                                parser,
                                metrics,
                                slots.as_ref(),
                            )?);
                        }
                        out.push(projected);
                    }
                    None => out.push(rows.take(i)),
                },
            }
        }
        Ok(())
    }

    /// Scan one split into `out` under its own `split` span.
    #[allow(clippy::too_many_arguments)]
    fn run_split(
        &self,
        provider: &dyn ScanProvider,
        split: usize,
        out: &mut SegmentOut,
        parser: JsonParserKind,
        metrics: &mut ExecMetrics,
        tracer: &Tracer,
        parent: Option<SpanId>,
    ) -> Result<()> {
        let span = tracer.child("split", parent);
        span.attr("split", split);
        let before = counters_before(tracer, metrics);
        let rows_before = out.row_count();
        let batch = provider.scan_split_batch(split, metrics)?;
        self.run(batch, out, parser, metrics)?;
        if let (Some(after), Some(before)) = (out.row_count(), rows_before) {
            span.attr("rows_out", after - before);
        }
        attr_counter_deltas(&span, before.as_ref(), metrics);
        Ok(())
    }
}

/// Record one pool run's shape in the query metrics.
fn note_pool_run(metrics: &mut ExecMetrics, threads_spawned: usize, walls: &[std::time::Duration]) {
    let (p50, p95, skew) = pool::wall_stats(walls);
    let run = ExecMetrics {
        threads_used: threads_spawned as u64,
        par_tasks: walls.len() as u64,
        task_wall_p50: p50,
        task_wall_p95: p95,
        task_skew: skew,
        ..Default::default()
    };
    metrics.absorb(&run);
}

/// Build the segment of `filter` then `project` or `agg` over `source`
/// and run it.
#[allow(clippy::too_many_arguments)]
fn run_segment(
    source: Source<'_>,
    filter: Option<&Expr>,
    project: Option<&[(Expr, String)]>,
    agg: Option<AggStage<'_>>,
    parser: JsonParserKind,
    metrics: &mut ExecMetrics,
    opts: &ExecOptions,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Vec<Vec<Cell>>> {
    let schema = match source {
        Source::Scan(provider) => provider.schema(),
        Source::Rows(_, input) => input.schema(),
    };
    let segment = PipelineSegment::new(filter, project, agg, schema, opts.shared_parse);
    match source {
        Source::Scan(provider) => {
            run_pipeline(provider, segment, parser, metrics, opts, tracer, parent)
        }
        Source::Rows(name, input) => {
            run_over_rows(name, input, segment, parser, metrics, opts, tracer, parent)
        }
    }
}

/// Run a segment fused with `provider`'s scan. Serial execution (one
/// thread, or fewer than two splits) walks the splits on the calling
/// thread in index order; parallel execution fans them out over the pool
/// and merges their outputs in split order.
#[allow(clippy::too_many_arguments)]
fn run_pipeline(
    provider: &dyn ScanProvider,
    segment: PipelineSegment<'_>,
    parser: JsonParserKind,
    metrics: &mut ExecMetrics,
    opts: &ExecOptions,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Vec<Vec<Cell>>> {
    let splits = provider.split_count();
    let span = tracer.child("scan_pipeline", parent);
    if span.is_recording() {
        span.attr("label", provider.label());
        let mut stages = String::from("scan");
        if segment.filter.is_some() {
            stages.push_str("+filter");
        }
        if segment.project.is_some() {
            stages.push_str("+project");
        }
        if segment.agg.is_some() {
            stages.push_str("+agg");
        }
        span.attr("stages", stages);
        span.attr("splits", splits);
    }
    let mut out = segment.new_out();
    // Single-split (and empty) tables stay serial even with many threads:
    // spawning threads for one task buys nothing and must not change
    // observable behavior (threads_used stays 0).
    if opts.threads <= 1 || splits <= 1 {
        for split in 0..splits {
            segment.run_split(
                provider,
                split,
                &mut out,
                parser,
                metrics,
                tracer,
                span.id(),
            )?;
        }
    } else {
        // Worker tasks parent their per-split spans on the pipeline span
        // even though they record from pool threads — the guard id is Copy
        // and the tracer is Sync, so each split lands on its own thread
        // track.
        let pipe_id = span.id();
        let run =
            pool::run_split_tasks(splits, opts.threads, opts.scheduler.as_deref(), |split| {
                let mut task_metrics = ExecMetrics::default();
                let mut task_out = segment.new_out();
                segment.run_split(
                    provider,
                    split,
                    &mut task_out,
                    parser,
                    &mut task_metrics,
                    tracer,
                    pipe_id,
                )?;
                Ok((task_out, task_metrics))
            })?;
        note_pool_run(metrics, run.threads_spawned, &run.task_walls);
        let workers = run.threads_spawned.max(1) as u32;
        for (task_out, mut task_metrics) in run.results {
            scale_wall_gauges(&mut task_metrics, workers);
            metrics.absorb(&task_metrics);
            out.merge(task_out);
        }
    }
    let out = out.finish();
    span.attr("rows_out", out.len());
    Ok(out)
}

/// Run a one-stage segment over a non-scan input's materialized rows (one
/// row-major batch), under an operator span named `name`.
#[allow(clippy::too_many_arguments)]
fn run_over_rows(
    name: &str,
    input: &LogicalPlan,
    segment: PipelineSegment<'_>,
    parser: JsonParserKind,
    metrics: &mut ExecMetrics,
    opts: &ExecOptions,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Vec<Vec<Cell>>> {
    let span = tracer.child(name, parent);
    let rows = execute_plan_traced(input, parser, metrics, opts, tracer, span.id())?;
    span.attr("rows_in", rows.len());
    let before = counters_before(tracer, metrics);
    let mut out = segment.new_out();
    segment.run(Batch::from_rows(rows), &mut out, parser, metrics)?;
    let out = out.finish();
    span.attr("rows_out", out.len());
    attr_counter_deltas(&span, before.as_ref(), metrics);
    Ok(out)
}

/// Turn a pool task's serially-charged wall gauges into this run's
/// wall-clock estimate: `workers` tasks overlap, so each one contributes
/// roughly `1/workers` of elapsed time. Applied before the barrier absorbs
/// task metrics (division distributes over the per-task sum, so absorb
/// stays order-insensitive).
fn scale_wall_gauges(m: &mut ExecMetrics, workers: u32) {
    m.read_wall /= workers;
    m.parse_wall /= workers;
}

// ----------------------------------------------------------------------
// Aggregation
// ----------------------------------------------------------------------

/// Running state of one aggregate call.
///
/// `Sum` and `Avg` **defer** their float addends instead of accumulating a
/// running `f64`: float addition is not associative, so the only way
/// parallel partials can finish to the exact bits of the serial result is
/// to replay the additions in serial input order at `finish` time. Partial
/// merge is then just addend concatenation (split order = input order).
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    CountDistinct(std::collections::HashSet<CellKey>),
    Sum {
        /// Coerced float value of every non-null input, in input order.
        addends: Vec<f64>,
        all_int: bool,
        isum: i64,
    },
    Min(Option<Cell>),
    Max(Option<Cell>),
    Avg {
        addends: Vec<f64>,
    },
}

impl AggState {
    fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::CountDistinct => AggState::CountDistinct(std::collections::HashSet::new()),
            AggFunc::Sum => AggState::Sum {
                addends: Vec::new(),
                all_int: true,
                isum: 0,
            },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg {
                addends: Vec::new(),
            },
        }
    }

    fn update(&mut self, value: Option<&Cell>) {
        match self {
            AggState::Count(n) => {
                // COUNT(*) counts every row (value None); COUNT(expr) skips NULL.
                match value {
                    None => *n += 1,
                    Some(c) if !c.is_null() => *n += 1,
                    _ => {}
                }
            }
            AggState::CountDistinct(set) => {
                if let Some(c) = value {
                    if !c.is_null() {
                        set.insert(CellKey(c.clone()));
                    }
                }
            }
            AggState::Sum {
                addends,
                all_int,
                isum,
            } => {
                if let Some(c) = value {
                    if let Some(f) = c.coerce_f64() {
                        addends.push(f);
                        match c {
                            Cell::Int(i) => *isum = isum.wrapping_add(*i),
                            _ => *all_int = false,
                        }
                    }
                }
            }
            AggState::Min(cur) => {
                if let Some(c) = value {
                    if !c.is_null()
                        && cur
                            .as_ref()
                            .is_none_or(|m| c.sql_cmp(m) == Some(std::cmp::Ordering::Less))
                    {
                        *cur = Some(c.clone());
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(c) = value {
                    if !c.is_null()
                        && cur
                            .as_ref()
                            .is_none_or(|m| c.sql_cmp(m) == Some(std::cmp::Ordering::Greater))
                    {
                        *cur = Some(c.clone());
                    }
                }
            }
            AggState::Avg { addends } => {
                if let Some(c) = value {
                    if let Some(f) = c.coerce_f64() {
                        addends.push(f);
                    }
                }
            }
        }
    }

    /// Merge a later split's state into this one. `other` must come from
    /// the same aggregate call (same variant), built over rows that follow
    /// this state's rows in input order.
    ///
    /// Every operation here is exact: counters add, sets union, addend
    /// lists concatenate (float folding is deferred to [`AggState::finish`]
    /// so it happens in global input order), and MIN/MAX treat the other
    /// side's extremum as one more update candidate. The single caveat is
    /// `sql_cmp` returning `None` for incomparable mixed-type pairs, where
    /// MIN/MAX keep the incumbent exactly like the serial fold does when it
    /// meets the same pair in the same order.
    fn merge(&mut self, other: AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::CountDistinct(a), AggState::CountDistinct(b)) => a.extend(b),
            (
                AggState::Sum {
                    addends,
                    all_int,
                    isum,
                },
                AggState::Sum {
                    addends: other_addends,
                    all_int: other_all_int,
                    isum: other_isum,
                },
            ) => {
                addends.extend(other_addends);
                *all_int &= other_all_int;
                *isum = isum.wrapping_add(other_isum);
            }
            (AggState::Min(cur), AggState::Min(candidate)) => {
                if let Some(c) = candidate {
                    if cur
                        .as_ref()
                        .is_none_or(|m| c.sql_cmp(m) == Some(std::cmp::Ordering::Less))
                    {
                        *cur = Some(c);
                    }
                }
            }
            (AggState::Max(cur), AggState::Max(candidate)) => {
                if let Some(c) = candidate {
                    if cur
                        .as_ref()
                        .is_none_or(|m| c.sql_cmp(m) == Some(std::cmp::Ordering::Greater))
                    {
                        *cur = Some(c);
                    }
                }
            }
            (
                AggState::Avg { addends },
                AggState::Avg {
                    addends: other_addends,
                },
            ) => addends.extend(other_addends),
            _ => unreachable!("merging mismatched aggregate states"),
        }
    }

    fn finish(self) -> Cell {
        match self {
            AggState::Count(n) => Cell::Int(n),
            AggState::CountDistinct(set) => Cell::Int(set.len() as i64),
            AggState::Sum {
                addends,
                all_int,
                isum,
            } => {
                if addends.is_empty() {
                    Cell::Null
                } else if all_int {
                    Cell::Int(isum)
                } else {
                    // Left fold from 0.0 in input order: bit-identical to the
                    // incremental serial accumulator.
                    Cell::Float(addends.iter().fold(0.0, |acc, &x| acc + x))
                }
            }
            AggState::Min(c) | AggState::Max(c) => c.unwrap_or(Cell::Null),
            AggState::Avg { addends } => {
                if addends.is_empty() {
                    Cell::Null
                } else {
                    let sum = addends.iter().fold(0.0, |acc, &x| acc + x);
                    Cell::Float(sum / addends.len() as f64)
                }
            }
        }
    }
}

/// Aggregate state over one slice of input rows, mergeable across splits.
#[derive(Debug)]
enum AggPartial {
    Global(Vec<AggState>),
    Grouped {
        /// Group keys in first-seen order. The key cells double as the
        /// output key columns, so no separate per-group row is stored.
        order: Vec<RowKey>,
        groups: HashMap<RowKey, Vec<AggState>>,
    },
}

impl AggPartial {
    /// Empty partial of the right shape for `group_by` / `aggs`.
    fn new(group_by: &[Expr], aggs: &[(AggFunc, Option<Expr>)]) -> AggPartial {
        if group_by.is_empty() {
            AggPartial::Global(aggs.iter().map(|(f, _)| AggState::new(*f)).collect())
        } else {
            AggPartial::Grouped {
                order: Vec::new(),
                groups: HashMap::new(),
            }
        }
    }

    /// Fold one input row into this partial. `slots` (when present) shares
    /// the row's JSON parse across group keys, aggregate arguments, and the
    /// caller's already-evaluated filter.
    fn update(
        &mut self,
        row: &[Cell],
        group_by: &[Expr],
        aggs: &[(AggFunc, Option<Expr>)],
        parser: JsonParserKind,
        metrics: &mut ExecMetrics,
        slots: Option<&RowSlots<'_>>,
    ) -> Result<()> {
        let states = match self {
            AggPartial::Global(states) => states,
            AggPartial::Grouped { order, groups } => {
                let mut keys = Vec::with_capacity(group_by.len());
                for g in group_by {
                    keys.push(g.eval_with(row, parser, metrics, slots)?);
                }
                // Probe with the evaluated cells directly — no per-row key
                // string. Only a first-seen group owns its key (cheap cell
                // clones).
                if !groups.contains_key(RowKeySlice::new(&keys)) {
                    let key = RowKey(keys.clone());
                    order.push(key.clone());
                    groups.insert(key, aggs.iter().map(|(f, _)| AggState::new(*f)).collect());
                }
                groups
                    .get_mut(RowKeySlice::new(&keys))
                    .expect("group inserted above")
            }
        };
        for (state, (_, arg)) in states.iter_mut().zip(aggs) {
            match arg {
                None => state.update(None),
                Some(e) => {
                    let v = e.eval_with(row, parser, metrics, slots)?;
                    state.update(Some(&v));
                }
            }
        }
        Ok(())
    }

    /// Merge a later split's partial into this one, preserving this side's
    /// first-seen group order and appending the other side's new groups in
    /// their own first-seen order — exactly the order a serial pass over
    /// the concatenated input would have discovered them in.
    fn merge(&mut self, other: AggPartial) {
        match (self, other) {
            (AggPartial::Global(states), AggPartial::Global(other_states)) => {
                for (state, other_state) in states.iter_mut().zip(other_states) {
                    state.merge(other_state);
                }
            }
            (
                AggPartial::Grouped { order, groups },
                AggPartial::Grouped {
                    order: other_order,
                    groups: mut other_groups,
                },
            ) => {
                for key in other_order {
                    let states = other_groups
                        .remove(&key)
                        .expect("group key recorded in order list");
                    match groups.entry(key) {
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            for (state, other_state) in e.get_mut().iter_mut().zip(states) {
                                state.merge(other_state);
                            }
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            order.push(e.key().clone());
                            e.insert(states);
                        }
                    }
                }
            }
            _ => unreachable!("merging mismatched aggregate partials"),
        }
    }
}

/// Finish a (possibly merged) partial into output rows.
fn finish_aggregate(partial: AggPartial) -> Vec<Vec<Cell>> {
    match partial {
        AggPartial::Global(states) => {
            vec![states.into_iter().map(AggState::finish).collect()]
        }
        AggPartial::Grouped { order, mut groups } => {
            let mut out = Vec::with_capacity(order.len());
            for key in order {
                let states = groups
                    .remove(&key)
                    .expect("group key recorded in order list");
                let mut row = key.into_cells();
                row.extend(states.into_iter().map(AggState::finish));
                out.push(row);
            }
            out
        }
    }
}

fn hash_join(
    left_rows: Vec<Vec<Cell>>,
    right_rows: Vec<Vec<Cell>>,
    left_key: &Expr,
    right_key: &Expr,
    parser: JsonParserKind,
    metrics: &mut ExecMetrics,
    shared_parse: bool,
) -> Result<Vec<Vec<Cell>>> {
    // Each side keys on one expression over its own rows, so the shared
    // extractor covers that single expression (still worthwhile: a path
    // repeated inside one key expression parses once).
    let right_extractor = shared_extractor(shared_parse, [right_key]);
    let left_extractor = shared_extractor(shared_parse, [left_key]);
    // Build on the right side.
    let mut table: HashMap<CellKey, Vec<usize>> = HashMap::new();
    let mut right_keys = Vec::with_capacity(right_rows.len());
    for (i, row) in right_rows.iter().enumerate() {
        let slots = right_extractor.as_ref().map(RowSlots::new);
        let k = right_key.eval_with(row, parser, metrics, slots.as_ref())?;
        if !k.is_null() {
            table.entry(CellKey(k.clone())).or_default().push(i);
        }
        right_keys.push(k);
    }
    let mut out = Vec::new();
    for lrow in &left_rows {
        let slots = left_extractor.as_ref().map(RowSlots::new);
        let k = left_key.eval_with(lrow, parser, metrics, slots.as_ref())?;
        if k.is_null() {
            continue;
        }
        if let Some(matches) = table.get(&CellKey(k.clone())) {
            for &ri in matches {
                let mut combined = lrow.clone();
                combined.extend(right_rows[ri].iter().cloned());
                out.push(combined);
            }
        }
    }
    Ok(out)
}

fn sort_rows(
    rows: Vec<Vec<Cell>>,
    keys: &[(Expr, bool)],
    parser: JsonParserKind,
    metrics: &mut ExecMetrics,
    shared_parse: bool,
) -> Result<Vec<Vec<Cell>>> {
    let extractor = shared_extractor(shared_parse, keys.iter().map(|(e, _)| e));
    // Precompute sort keys once per row (get_json_object keys are costly).
    let mut keyed: Vec<(Vec<Cell>, Vec<Cell>)> = Vec::with_capacity(rows.len());
    for row in rows {
        let slots = extractor.as_ref().map(RowSlots::new);
        let mut ks = Vec::with_capacity(keys.len());
        for (e, _) in keys {
            ks.push(e.eval_with(&row, parser, metrics, slots.as_ref())?);
        }
        keyed.push((ks, row));
    }
    keyed.sort_by(|(ka, _), (kb, _)| {
        for ((a, b), (_, asc)) in ka.iter().zip(kb).zip(keys) {
            let ord = a.total_cmp(b);
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(keyed.into_iter().map(|(_, row)| row).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::ast::BinaryOp;
    use maxson_storage::{ColumnType, Field, Schema};

    fn rows3() -> Vec<Vec<Cell>> {
        vec![
            vec![Cell::Str("a".into()), Cell::Int(1)],
            vec![Cell::Str("b".into()), Cell::Int(2)],
            vec![Cell::Str("a".into()), Cell::Int(3)],
            vec![Cell::Str("c".into()), Cell::Null],
        ]
    }

    fn m() -> ExecMetrics {
        ExecMetrics::default()
    }

    /// Test provider with an explicit split structure.
    #[derive(Debug)]
    struct SplitFixed {
        schema: Schema,
        splits: Vec<Vec<Vec<Cell>>>,
        /// Index of a split whose scan should panic (poisoned data).
        poisoned: Option<usize>,
    }

    impl SplitFixed {
        /// Columns `c0, c1, …` as wide as the first row (2 when empty).
        fn new(splits: Vec<Vec<Vec<Cell>>>) -> Self {
            let width = splits.iter().flatten().next().map_or(2, Vec::len);
            SplitFixed {
                schema: Schema::new(
                    (0..width)
                        .map(|c| Field::new(format!("c{c}"), ColumnType::Utf8))
                        .collect(),
                )
                .unwrap(),
                splits,
                poisoned: None,
            }
        }
    }

    impl ScanProvider for SplitFixed {
        fn schema(&self) -> &Schema {
            &self.schema
        }
        fn split_count(&self) -> usize {
            self.splits.len()
        }
        fn scan_split_batch(&self, split: usize, m: &mut ExecMetrics) -> Result<Batch> {
            if self.poisoned == Some(split) {
                panic!("corrupt split body");
            }
            let rows = self.splits[split].clone();
            m.rows_scanned += rows.len() as u64;
            Ok(Batch::from_rows(rows))
        }
        fn label(&self) -> String {
            "SplitFixed".into()
        }
    }

    fn scan_of(splits: Vec<Vec<Vec<Cell>>>) -> LogicalPlan {
        LogicalPlan::Scan {
            provider: Box::new(SplitFixed::new(splits)),
        }
    }

    /// Aggregate `splits` through the executor at `threads`.
    fn run_aggregate(
        splits: Vec<Vec<Vec<Cell>>>,
        group_by: &[Expr],
        aggs: &[(AggFunc, Option<Expr>)],
        threads: usize,
    ) -> Vec<Vec<Cell>> {
        let plan = LogicalPlan::Aggregate {
            input: Box::new(scan_of(splits)),
            group_by: group_by.to_vec(),
            aggs: aggs.to_vec(),
            schema: Schema::new(vec![]).unwrap(),
        };
        execute_plan_with(
            &plan,
            JsonParserKind::Jackson,
            &mut m(),
            ExecOptions::with_threads(threads),
        )
        .unwrap()
    }

    /// Fold `rows` into one partial, as a split task does.
    fn fold_partial(
        rows: &[Vec<Cell>],
        group_by: &[Expr],
        aggs: &[(AggFunc, Option<Expr>)],
    ) -> AggPartial {
        let mut partial = AggPartial::new(group_by, aggs);
        for row in rows {
            partial
                .update(row, group_by, aggs, JsonParserKind::Jackson, &mut m(), None)
                .unwrap();
        }
        partial
    }

    fn ten_split_plan(poisoned: Option<usize>) -> LogicalPlan {
        // 10 splits x 8 rows with cycling tags and float-ish values.
        let splits: Vec<Vec<Vec<Cell>>> = (0..10)
            .map(|s| {
                (0..8)
                    .map(|i| {
                        let n = (s * 8 + i) as i64;
                        vec![Cell::from(format!("g{}", n % 3)), Cell::Int(n)]
                    })
                    .collect()
            })
            .collect();
        let mut provider = SplitFixed::new(splits);
        provider.poisoned = poisoned;
        LogicalPlan::Scan {
            provider: Box::new(provider),
        }
    }

    #[test]
    fn global_aggregates() {
        let aggs = vec![
            (AggFunc::Count, None),
            (AggFunc::Count, Some(Expr::Column(1))),
            (AggFunc::Sum, Some(Expr::Column(1))),
            (AggFunc::Min, Some(Expr::Column(1))),
            (AggFunc::Max, Some(Expr::Column(1))),
            (AggFunc::Avg, Some(Expr::Column(1))),
        ];
        let out = run_aggregate(vec![rows3()], &[], &aggs, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][0], Cell::Int(4)); // COUNT(*)
        assert_eq!(out[0][1], Cell::Int(3)); // COUNT(v) skips null
        assert_eq!(out[0][2], Cell::Int(6)); // SUM
        assert_eq!(out[0][3], Cell::Int(1)); // MIN
        assert_eq!(out[0][4], Cell::Int(3)); // MAX
        assert_eq!(out[0][5], Cell::Float(2.0)); // AVG
    }

    #[test]
    fn empty_input_aggregates() {
        let aggs = vec![
            (AggFunc::Count, None),
            (AggFunc::Sum, Some(Expr::Column(0))),
            (AggFunc::Avg, Some(Expr::Column(0))),
            (AggFunc::Min, Some(Expr::Column(0))),
        ];
        // No splits at all, and one split with no rows.
        for splits in [vec![], vec![vec![]]] {
            let out = run_aggregate(splits, &[], &aggs, 1);
            assert_eq!(
                out,
                vec![vec![Cell::Int(0), Cell::Null, Cell::Null, Cell::Null]]
            );
        }
    }

    #[test]
    fn grouped_aggregates_preserve_first_seen_order() {
        let aggs = vec![
            (AggFunc::Count, None),
            (AggFunc::Sum, Some(Expr::Column(1))),
        ];
        let out = run_aggregate(vec![rows3()], &[Expr::Column(0)], &aggs, 1);
        assert_eq!(out.len(), 3);
        assert_eq!(
            out[0],
            vec![Cell::Str("a".into()), Cell::Int(2), Cell::Int(4)]
        );
        assert_eq!(
            out[1],
            vec![Cell::Str("b".into()), Cell::Int(1), Cell::Int(2)]
        );
        assert_eq!(
            out[2],
            vec![Cell::Str("c".into()), Cell::Int(1), Cell::Null]
        );
    }

    /// Float SUM/AVG must be bitwise identical however the input is split
    /// into merged partials — the property the whole deferred-addend design
    /// exists for (0.1 + 0.2 + 0.3 famously re-associates differently).
    #[test]
    fn float_sum_is_bitwise_identical_across_split_boundaries() {
        let values: Vec<f64> = (1..=23).map(|i| 0.1 * i as f64).collect();
        let rows: Vec<Vec<Cell>> = values.iter().map(|&v| vec![Cell::Float(v)]).collect();
        let aggs = vec![
            (AggFunc::Sum, Some(Expr::Column(0))),
            (AggFunc::Avg, Some(Expr::Column(0))),
        ];
        let serial = run_aggregate(vec![rows.clone()], &[], &aggs, 1);
        for cut1 in 0..rows.len() {
            for cut2 in cut1..rows.len() {
                let mut acc = fold_partial(&rows[..cut1], &[], &aggs);
                for chunk in [&rows[cut1..cut2], &rows[cut2..]] {
                    acc.merge(fold_partial(chunk, &[], &aggs));
                }
                let merged = finish_aggregate(acc);
                // Compare exact bits, not approximate equality.
                let (Cell::Float(a), Cell::Float(b)) = (&serial[0][0], &merged[0][0]) else {
                    panic!("expected float sums");
                };
                assert_eq!(a.to_bits(), b.to_bits(), "cut at {cut1}/{cut2}");
                assert_eq!(serial[0], merged[0]);
            }
        }
    }

    #[test]
    fn grouped_merge_preserves_global_first_seen_order() {
        let rows = rows3();
        let aggs = vec![
            (AggFunc::Count, None),
            (AggFunc::Sum, Some(Expr::Column(1))),
        ];
        let group = vec![Expr::Column(0)];
        let serial = run_aggregate(vec![rows.clone()], &group, &aggs, 1);
        for cut in 0..=rows.len() {
            let mut acc = fold_partial(&rows[..cut], &group, &aggs);
            acc.merge(fold_partial(&rows[cut..], &group, &aggs));
            assert_eq!(finish_aggregate(acc), serial, "cut at {cut}");
            // The same two splits through the executor's parallel merge.
            let splits = vec![rows[..cut].to_vec(), rows[cut..].to_vec()];
            assert_eq!(
                run_aggregate(splits, &group, &aggs, 2),
                serial,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn count_distinct_merges_as_set_union() {
        let rows = rows3();
        let aggs = vec![(AggFunc::CountDistinct, Some(Expr::Column(0)))];
        let serial = run_aggregate(vec![rows.clone()], &[], &aggs, 1);
        let mut acc = fold_partial(&rows[..2], &[], &aggs);
        acc.merge(fold_partial(&rows[2..], &[], &aggs));
        assert_eq!(finish_aggregate(acc), serial);
        assert_eq!(serial[0][0], Cell::Int(3));
    }

    #[test]
    fn join_matches_and_skips_nulls() {
        let left = vec![
            vec![Cell::Int(1), Cell::Str("l1".into())],
            vec![Cell::Int(2), Cell::Str("l2".into())],
            vec![Cell::Null, Cell::Str("ln".into())],
        ];
        let right = vec![
            vec![Cell::Int(2), Cell::Str("r2".into())],
            vec![Cell::Int(2), Cell::Str("r2b".into())],
            vec![Cell::Int(3), Cell::Str("r3".into())],
            vec![Cell::Null, Cell::Str("rn".into())],
        ];
        let out = hash_join(
            left,
            right,
            &Expr::Column(0),
            &Expr::Column(0),
            JsonParserKind::Jackson,
            &mut m(),
            true,
        )
        .unwrap();
        // Only key 2 matches, twice.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].len(), 4);
        assert_eq!(out[0][1], Cell::Str("l2".into()));
        assert_eq!(out[1][3], Cell::Str("r2b".into()));
    }

    #[test]
    fn join_keys_compare_numerically_across_types() {
        let left = vec![vec![Cell::Int(2)]];
        let right = vec![vec![Cell::Float(2.0)]];
        let out = hash_join(
            left,
            right,
            &Expr::Column(0),
            &Expr::Column(0),
            JsonParserKind::Jackson,
            &mut m(),
            true,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn sort_multi_key_with_direction() {
        let rows = vec![
            vec![Cell::Str("b".into()), Cell::Int(1)],
            vec![Cell::Str("a".into()), Cell::Int(2)],
            vec![Cell::Str("a".into()), Cell::Int(1)],
        ];
        let keys = vec![(Expr::Column(0), true), (Expr::Column(1), false)];
        let out = sort_rows(rows, &keys, JsonParserKind::Jackson, &mut m(), true).unwrap();
        assert_eq!(out[0], vec![Cell::Str("a".into()), Cell::Int(2)]);
        assert_eq!(out[1], vec![Cell::Str("a".into()), Cell::Int(1)]);
        assert_eq!(out[2], vec![Cell::Str("b".into()), Cell::Int(1)]);
    }

    #[test]
    fn sort_nulls_first() {
        let rows = vec![vec![Cell::Int(5)], vec![Cell::Null], vec![Cell::Int(1)]];
        let out = sort_rows(
            rows,
            &[(Expr::Column(0), true)],
            JsonParserKind::Jackson,
            &mut m(),
            true,
        )
        .unwrap();
        assert_eq!(out[0][0], Cell::Null);
        assert_eq!(out[1][0], Cell::Int(1));
    }

    #[test]
    fn sum_mixed_int_float_is_float() {
        let rows = vec![vec![Cell::Int(1)], vec![Cell::Float(2.5)]];
        let aggs = vec![(AggFunc::Sum, Some(Expr::Column(0)))];
        let out = run_aggregate(vec![rows], &[], &aggs, 1);
        assert_eq!(out[0][0], Cell::Float(3.5));
    }

    #[test]
    fn sum_of_numeric_strings_coerces() {
        // JSON-extracted values arrive as strings; SUM must still work.
        let rows = vec![vec![Cell::Str("10".into())], vec![Cell::Str("5".into())]];
        let aggs = vec![(AggFunc::Sum, Some(Expr::Column(0)))];
        let out = run_aggregate(vec![rows], &[], &aggs, 1);
        assert_eq!(out[0][0], Cell::Float(15.0));
    }

    #[test]
    fn filter_and_limit_via_execute_plan() {
        // Build a plan over a fake provider.
        use crate::scan::ScanProvider;

        #[derive(Debug)]
        struct Fixed(Schema, Vec<Vec<Cell>>);
        impl ScanProvider for Fixed {
            fn schema(&self) -> &Schema {
                &self.0
            }
            fn scan_split_batch(&self, _split: usize, _m: &mut ExecMetrics) -> Result<Batch> {
                Ok(Batch::from_rows(self.1.clone()))
            }
            fn label(&self) -> String {
                "Fixed".into()
            }
        }
        let schema = Schema::new(vec![Field::new("v", ColumnType::Int64)]).unwrap();
        let rows: Vec<Vec<Cell>> = (0..10).map(|i| vec![Cell::Int(i)]).collect();
        let plan = LogicalPlan::Limit {
            n: 3,
            input: Box::new(LogicalPlan::Filter {
                predicate: Expr::Binary {
                    left: Box::new(Expr::Column(0)),
                    op: BinaryOp::GtEq,
                    right: Box::new(Expr::Literal(Cell::Int(4))),
                },
                input: Box::new(LogicalPlan::Scan {
                    provider: Box::new(Fixed(schema, rows)),
                }),
            }),
        };
        let out = execute_plan(&plan, JsonParserKind::Jackson, &mut m()).unwrap();
        assert_eq!(
            out,
            vec![vec![Cell::Int(4)], vec![Cell::Int(5)], vec![Cell::Int(6)]]
        );
    }

    #[test]
    fn exec_options_resolution() {
        assert_eq!(ExecOptions::serial().threads, 1);
        assert_eq!(ExecOptions::with_threads(0).threads, 1);
        assert_eq!(ExecOptions::with_threads(7).threads, 7);
        assert!(default_threads() >= 1);
    }

    /// The same multi-split plan at 1/2/4/8 threads: identical rows and
    /// identical absorbed counters, with pool gauges set only when threads
    /// were actually used.
    #[test]
    fn parallel_scan_filter_matches_serial_exactly() {
        let predicate = Expr::Binary {
            left: Box::new(Expr::Column(1)),
            op: BinaryOp::GtEq,
            right: Box::new(Expr::Literal(Cell::Int(13))),
        };
        let plan = LogicalPlan::Filter {
            predicate,
            input: Box::new(ten_split_plan(None)),
        };
        let mut serial_m = m();
        let serial = execute_plan_with(
            &plan,
            JsonParserKind::Jackson,
            &mut serial_m,
            ExecOptions::serial(),
        )
        .unwrap();
        assert_eq!(serial_m.threads_used, 0, "serial path never touches pool");
        for threads in [2, 4, 8] {
            let mut par_m = m();
            let parallel = execute_plan_with(
                &plan,
                JsonParserKind::Jackson,
                &mut par_m,
                ExecOptions::with_threads(threads),
            )
            .unwrap();
            assert_eq!(parallel, serial, "{threads} threads");
            assert_eq!(par_m.rows_scanned, serial_m.rows_scanned);
            assert_eq!(par_m.threads_used, threads as u64);
            assert_eq!(par_m.par_tasks, 10);
            assert!(par_m.task_skew >= 1.0);
        }
    }

    #[test]
    fn parallel_grouped_aggregate_matches_serial_exactly() {
        let plan = LogicalPlan::Aggregate {
            input: Box::new(ten_split_plan(None)),
            group_by: vec![Expr::Column(0)],
            aggs: vec![
                (AggFunc::Count, None),
                (AggFunc::Sum, Some(Expr::Column(1))),
                (AggFunc::Min, Some(Expr::Column(1))),
                (AggFunc::Max, Some(Expr::Column(1))),
                (AggFunc::Avg, Some(Expr::Column(1))),
            ],
            schema: Schema::new(vec![Field::new("g", ColumnType::Utf8)]).unwrap(),
        };
        let mut serial_m = m();
        let serial = execute_plan_with(
            &plan,
            JsonParserKind::Jackson,
            &mut serial_m,
            ExecOptions::serial(),
        )
        .unwrap();
        let mut par_m = m();
        let parallel = execute_plan_with(
            &plan,
            JsonParserKind::Jackson,
            &mut par_m,
            ExecOptions::with_threads(4),
        )
        .unwrap();
        assert_eq!(parallel, serial);
        assert_eq!(par_m.rows_scanned, serial_m.rows_scanned);
    }

    #[test]
    fn poisoned_split_propagates_error_with_split_index() {
        let plan = ten_split_plan(Some(7));
        let mut metrics = m();
        let err = execute_plan_with(
            &plan,
            JsonParserKind::Jackson,
            &mut metrics,
            ExecOptions::with_threads(4),
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("split 7"), "error must name the split: {msg}");
        assert!(msg.contains("corrupt split body"), "{msg}");
    }

    #[test]
    fn single_split_scan_stays_serial_even_with_many_threads() {
        let splits = vec![(0..5)
            .map(|i| vec![Cell::Str("g0".into()), Cell::Int(i)])
            .collect()];
        let plan = LogicalPlan::Scan {
            provider: Box::new(SplitFixed::new(splits)),
        };
        let mut metrics = m();
        let rows = execute_plan_with(
            &plan,
            JsonParserKind::Jackson,
            &mut metrics,
            ExecOptions::with_threads(8),
        )
        .unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(metrics.threads_used, 0, "single split must not use pool");
        assert_eq!(metrics.par_tasks, 0);
    }

    #[test]
    fn empty_table_stays_serial() {
        let plan = LogicalPlan::Scan {
            provider: Box::new(SplitFixed::new(Vec::new())),
        };
        let mut metrics = m();
        let rows = execute_plan_with(
            &plan,
            JsonParserKind::Jackson,
            &mut metrics,
            ExecOptions::with_threads(8),
        )
        .unwrap();
        assert!(rows.is_empty());
        assert_eq!(metrics.threads_used, 0);
    }

    fn jp(column: usize, path: &str) -> Expr {
        Expr::GetJsonObject {
            column,
            path: maxson_json::JsonPath::parse(path).unwrap(),
        }
    }

    /// 2 splits x 4 rows; col 0 is a JSON document, col 1 a raw int.
    fn json_split_plan() -> LogicalPlan {
        let splits: Vec<Vec<Vec<Cell>>> = (0..2)
            .map(|s| {
                (0..4)
                    .map(|i| {
                        let n = s * 4 + i;
                        vec![
                            Cell::from(format!(r#"{{"a": {n}, "b": "t{n}", "v": {}}}"#, n % 3)),
                            Cell::Int(n as i64),
                        ]
                    })
                    .collect()
            })
            .collect();
        LogicalPlan::Scan {
            provider: Box::new(SplitFixed::new(splits)),
        }
    }

    fn json_project(input: LogicalPlan, filter: Expr) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(LogicalPlan::Filter {
                predicate: filter,
                input: Box::new(input),
            }),
            exprs: vec![
                (jp(0, "$.a"), "a".into()),
                (jp(0, "$.b"), "b".into()),
                (jp(0, "$.v"), "v".into()),
            ],
            schema: Schema::new(vec![
                Field::new("a", ColumnType::Utf8),
                Field::new("b", ColumnType::Utf8),
                Field::new("v", ColumnType::Utf8),
            ])
            .unwrap(),
        }
    }

    /// Shared-parse must be invisible in the output (byte-identical rows,
    /// same parse_calls) while collapsing docs_parsed to one per row across
    /// the filter *and* the projection above it.
    #[test]
    fn shared_parse_pipeline_matches_naive_and_dedupes() {
        let filter = Expr::Binary {
            left: Box::new(jp(0, "$.v")),
            op: BinaryOp::Gt,
            right: Box::new(Expr::Literal(Cell::Int(0))),
        };
        let plan = json_project(json_split_plan(), filter);
        for parser in [
            JsonParserKind::Jackson,
            JsonParserKind::Mison,
            JsonParserKind::Tape,
        ] {
            let mut naive_m = m();
            let naive = execute_plan_with(
                &plan,
                parser,
                &mut naive_m,
                ExecOptions::serial().with_shared_parse(false),
            )
            .unwrap();
            let mut shared_m = m();
            let shared = execute_plan_with(
                &plan,
                parser,
                &mut shared_m,
                ExecOptions::serial().with_shared_parse(true),
            )
            .unwrap();
            assert_eq!(shared, naive, "{parser:?}");
            assert_eq!(naive.len(), 5, "rows with $.v in {{1,2}}");
            // 8 filter evals + 3 projected paths x 5 passing rows.
            assert_eq!(naive_m.parse_calls, 23);
            assert_eq!(shared_m.parse_calls, 23, "parse_calls must not change");
            assert_eq!(naive_m.docs_parsed, 23, "naive parses once per call");
            assert_eq!(shared_m.docs_parsed, 8, "shared parses once per row");
            // Parallel shared run: same rows, same thread-invariant counters.
            let mut par_m = m();
            let parallel = execute_plan_with(
                &plan,
                parser,
                &mut par_m,
                ExecOptions::with_threads(4).with_shared_parse(true),
            )
            .unwrap();
            assert_eq!(parallel, naive);
            assert_eq!(par_m.parse_calls, 23);
            assert_eq!(par_m.docs_parsed, 8);
        }
    }

    /// Rows rejected by a raw-column predicate must not parse at all:
    /// slots fill on first JSON access, which never happens for them.
    #[test]
    fn shared_parse_stays_lazy_for_filtered_rows() {
        let filter = Expr::Binary {
            left: Box::new(Expr::Column(1)),
            op: BinaryOp::GtEq,
            right: Box::new(Expr::Literal(Cell::Int(6))),
        };
        let plan = json_project(json_split_plan(), filter);
        let mut shared_m = m();
        let shared = execute_plan_with(
            &plan,
            JsonParserKind::Jackson,
            &mut shared_m,
            ExecOptions::serial().with_shared_parse(true),
        )
        .unwrap();
        assert_eq!(shared.len(), 2);
        assert_eq!(shared_m.parse_calls, 6, "3 paths x 2 passing rows");
        assert_eq!(shared_m.docs_parsed, 2, "skipped rows parse nothing");
    }

    /// Aggregation over JSON group keys and arguments shares the filter's
    /// parse too, and stays byte-identical to the naive path at any thread
    /// count.
    #[test]
    fn shared_parse_aggregate_matches_naive() {
        let filter = Expr::Binary {
            left: Box::new(jp(0, "$.v")),
            op: BinaryOp::GtEq,
            right: Box::new(Expr::Literal(Cell::Int(0))),
        };
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Filter {
                predicate: filter,
                input: Box::new(json_split_plan()),
            }),
            group_by: vec![jp(0, "$.v")],
            aggs: vec![(AggFunc::Count, None), (AggFunc::Sum, Some(jp(0, "$.a")))],
            schema: Schema::new(vec![Field::new("v", ColumnType::Utf8)]).unwrap(),
        };
        for parser in [
            JsonParserKind::Jackson,
            JsonParserKind::Mison,
            JsonParserKind::Tape,
        ] {
            let mut naive_m = m();
            let naive = execute_plan_with(
                &plan,
                parser,
                &mut naive_m,
                ExecOptions::serial().with_shared_parse(false),
            )
            .unwrap();
            for threads in [1, 4] {
                let mut shared_m = m();
                let shared = execute_plan_with(
                    &plan,
                    parser,
                    &mut shared_m,
                    ExecOptions::with_threads(threads).with_shared_parse(true),
                )
                .unwrap();
                assert_eq!(shared, naive, "{parser:?} at {threads} threads");
                // Filter + group key + SUM arg all served by one parse/row.
                assert_eq!(shared_m.parse_calls, naive_m.parse_calls);
                assert_eq!(shared_m.parse_calls, 24);
                assert_eq!(shared_m.docs_parsed, 8);
            }
            assert_eq!(naive_m.docs_parsed, 24);
        }
    }
}
