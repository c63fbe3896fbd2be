//! Table scanning with a pluggable provider.
//!
//! [`ScanProvider`] is the engine's extension point for the table-reading
//! phase. Its one read method is [`ScanProvider::scan_split_batch`]: a
//! table is `split_count()` independently readable splits, each handed over
//! as a [`Batch`]. The executor walks splits in index order (or fans them
//! out over the pool), and [`scan_rows`] concatenates them for callers
//! that just want every row.
//!
//! The default [`NorcScanProvider`] reads a Norc table split by split,
//! applying SARG row-group skipping, and returns decoded column chunks.
//! Maxson's value combiner installs its own provider that reads the raw
//! table and cache table with two synchronized readers and returns their
//! chunks side by side, in the same columnar form.

use std::fmt::Debug;
use std::time::Instant;

use maxson_json::RawFilter;
use maxson_storage::{Cell, ColumnData, Schema, SearchArgument, Table};

use crate::error::Result;
use crate::metrics::ExecMetrics;

/// Physical layout of one scanned batch.
#[derive(Debug)]
pub enum BatchData {
    /// Row-major: providers that assemble rows directly (the join-stitch
    /// and online-LRU baselines, reuse-cache replays, test stubs).
    Rows(Vec<Vec<Cell>>),
    /// Column-major: decoded storage chunks handed over without
    /// materializing any row. Cells are built lazily by the consumer.
    Columns(Vec<ColumnData>),
}

/// One split's worth of scanned data plus an optional selection vector.
///
/// `selection` lists the surviving row indexes in ascending order (rows a
/// SARG/Sparser prefilter rejected are absent); `None` means every row
/// survives. Consumers must visit only selected rows — a columnar batch's
/// unselected rows hold decoded but logically dead data.
#[derive(Debug)]
pub struct Batch {
    /// The scanned data.
    pub data: BatchData,
    /// Surviving row indexes, ascending; `None` keeps all rows.
    pub selection: Option<Vec<u32>>,
}

impl Batch {
    /// Wrap already-materialized rows (no selection).
    pub fn from_rows(rows: Vec<Vec<Cell>>) -> Self {
        Batch {
            data: BatchData::Rows(rows),
            selection: None,
        }
    }

    /// Number of rows a consumer will see (after selection).
    pub fn len(&self) -> usize {
        match &self.selection {
            Some(sel) => sel.len(),
            None => match &self.data {
                BatchData::Rows(rows) => rows.len(),
                BatchData::Columns(cols) => cols.first().map_or(0, |c| c.len()),
            },
        }
    }

    /// `true` when no rows survive.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize the selected rows, charging `cells_materialized` for
    /// every column→cell conversion and `batch_rows_skipped` for rows the
    /// selection vector drops. Row-major batches move through unchanged
    /// (their cells were already built by the provider).
    pub fn into_rows(self, metrics: &mut ExecMetrics) -> Vec<Vec<Cell>> {
        match self.data {
            BatchData::Rows(rows) => match self.selection {
                None => rows,
                Some(sel) => {
                    metrics.batch_rows_skipped += (rows.len() - sel.len()) as u64;
                    let mut keep = vec![false; rows.len()];
                    for &i in &sel {
                        keep[i as usize] = true;
                    }
                    rows.into_iter()
                        .zip(keep)
                        .filter_map(|(row, k)| k.then_some(row))
                        .collect()
                }
            },
            BatchData::Columns(cols) => {
                let n = cols.first().map_or(0, |c| c.len());
                let mut out = Vec::new();
                match self.selection {
                    None => {
                        out.reserve(n);
                        for i in 0..n {
                            out.push(cols.iter().map(|c| c.get(i)).collect());
                        }
                    }
                    Some(sel) => {
                        metrics.batch_rows_skipped += (n - sel.len()) as u64;
                        out.reserve(sel.len());
                        for &i in &sel {
                            out.push(cols.iter().map(|c| c.get(i as usize)).collect());
                        }
                    }
                }
                metrics.cells_materialized += (out.len() * cols.len()) as u64;
                out
            }
        }
    }
}

/// Supplies rows for a scan node.
///
/// `Send + Sync` is a supertrait because the split-parallel executor shares
/// one provider across scoped worker threads, each calling
/// [`ScanProvider::scan_split_batch`] for a different split.
pub trait ScanProvider: Debug + Send + Sync {
    /// Output schema of the scan (what downstream expressions resolve
    /// against).
    fn schema(&self) -> &Schema;

    /// Number of independently scannable splits (zero for an empty
    /// table). The default of 1 suits providers that produce their rows in
    /// one piece.
    fn split_count(&self) -> usize {
        1
    }

    /// Read one split (`0 <= split < split_count()`), charging that split's
    /// read time/bytes to `metrics`. The table's rows are the selected rows
    /// of every split, concatenated in split index order ([`scan_rows`]).
    fn scan_split_batch(&self, split: usize, metrics: &mut ExecMetrics) -> Result<Batch>;

    /// Short label for plan display.
    fn label(&self) -> String;
}

/// Every row of `provider`: each split's batch materialized
/// ([`Batch::into_rows`]) and concatenated in split index order.
pub fn scan_rows(provider: &dyn ScanProvider, metrics: &mut ExecMetrics) -> Result<Vec<Vec<Cell>>> {
    let mut rows = Vec::new();
    for split in 0..provider.split_count() {
        rows.extend(
            provider
                .scan_split_batch(split, metrics)?
                .into_rows(metrics),
        );
    }
    Ok(rows)
}

/// The default provider: scan a Norc table directory.
#[derive(Debug)]
pub struct NorcScanProvider {
    table: Table,
    /// Column indexes to materialize, in output order.
    projection: Vec<usize>,
    /// Projected schema.
    out_schema: Schema,
    /// Optional SARG used to skip row groups (on raw columns).
    sarg: Option<SearchArgument>,
    /// Optional Sparser-style raw prefilter: `(output column index, filter)`.
    /// Rows whose JSON text cannot satisfy the predicate are dropped before
    /// they reach the parser.
    prefilter: Option<(usize, RawFilter)>,
}

impl NorcScanProvider {
    /// Create a provider over `table`, materializing `projection` columns.
    /// `sarg` column indexes refer to the *table* schema.
    pub fn new(table: Table, projection: Vec<usize>, sarg: Option<SearchArgument>) -> Result<Self> {
        let names: Vec<&str> = projection
            .iter()
            .map(|&i| table.schema().fields()[i].name.as_str())
            .collect();
        let out_schema = table.schema().project(&names)?;
        Ok(NorcScanProvider {
            table,
            projection,
            out_schema,
            sarg,
            prefilter: None,
        })
    }

    /// Attach a raw prefilter over output column `column_idx` (must hold
    /// the JSON text the filter's needles constrain).
    pub fn with_prefilter(mut self, column_idx: usize, filter: RawFilter) -> Self {
        if !filter.is_empty() {
            self.prefilter = Some((column_idx, filter));
        }
        self
    }

    /// The underlying table.
    pub fn table(&self) -> &Table {
        &self.table
    }
}

impl ScanProvider for NorcScanProvider {
    fn schema(&self) -> &Schema {
        &self.out_schema
    }

    fn split_count(&self) -> usize {
        self.table.file_count()
    }

    fn scan_split_batch(&self, split: usize, metrics: &mut ExecMetrics) -> Result<Batch> {
        let start = Instant::now();
        let (file, meta_hit) = self.table.open_split_cached(split)?;
        if meta_hit {
            metrics.meta_cache_hits += 1;
        } else {
            metrics.meta_cache_misses += 1;
        }
        let keep: Option<Vec<bool>> = self.sarg.as_ref().map(|s| {
            // Match ORC: only single-stripe files support skipping here,
            // mirroring the restriction the paper inherits (§IV-F).
            if file.stripe_count() <= 1 {
                s.keep_array(file.row_groups())
            } else {
                vec![true; file.row_group_count()]
            }
        });
        if let Some(keep) = &keep {
            let skipped = keep.iter().filter(|k| !**k).count() as u64;
            metrics.row_groups_skipped += skipped;
            metrics.row_groups_read += keep.len() as u64 - skipped;
        } else {
            metrics.row_groups_read += file.row_group_count() as u64;
        }
        let cols = file.read_columns(&self.projection, keep.as_deref())?;
        // Charge bytes once per decoded column chunk — not per materialized
        // row, which walked every cell on the hot path and missed rows the
        // prefilter drops (their bytes were decoded all the same).
        for c in &cols {
            metrics.bytes_read += c.byte_size() as u64;
        }
        let n = cols.first().map_or(0, |c| c.len());
        let selection = match &self.prefilter {
            // Sparser-style raw rejection straight off the decoded column:
            // sound because the needles are required by the predicate the
            // Filter re-checks. NULL documents pass through (the filter
            // decides), matching the row-at-a-time behavior.
            Some((ci, filter)) => {
                let mut sel: Vec<u32> = Vec::with_capacity(n);
                if let Some(ColumnData::Utf8 { valid, values }) = cols.get(*ci) {
                    for i in 0..n {
                        if valid[i] && !filter.maybe_matches(&values[i]) {
                            metrics.prefilter_dropped += 1;
                        } else {
                            sel.push(i as u32);
                        }
                    }
                } else {
                    sel.extend(0..n as u32);
                }
                Some(sel)
            }
            None => None,
        };
        metrics.rows_scanned += selection.as_ref().map_or(n, Vec::len) as u64;
        let spent = start.elapsed();
        metrics.read += spent;
        metrics.read_wall += spent;
        Ok(Batch {
            data: BatchData::Columns(cols),
            selection,
        })
    }

    fn label(&self) -> String {
        format!(
            "NorcScan({}, cols={:?}{})",
            self.table.dir().display(),
            self.projection,
            if self.sarg.as_ref().is_some_and(|s| !s.is_empty()) {
                ", sarg"
            } else {
                ""
            }
        ) + if self.prefilter.is_some() {
            " +prefilter"
        } else {
            ""
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxson_storage::file::WriteOptions;
    use maxson_storage::{CmpOp, ColumnType, Field};
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        use std::time::{SystemTime, UNIX_EPOCH};
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        std::env::temp_dir().join(format!("maxson-scan-{}-{nanos}-{name}", std::process::id()))
    }

    fn make_table(name: &str, rows_per_file: &[i64], rg_size: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("id", ColumnType::Int64),
            Field::new("tag", ColumnType::Utf8),
        ])
        .unwrap();
        let mut t = Table::create(temp_dir(name), schema, 0).unwrap();
        let mut next = 0i64;
        for &n in rows_per_file {
            let rows: Vec<Vec<Cell>> = (next..next + n)
                .map(|i| vec![Cell::Int(i), Cell::from(format!("t{i}"))])
                .collect();
            next += n;
            t.append_file(
                &rows,
                WriteOptions {
                    row_group_size: rg_size,
                    ..Default::default()
                },
                1,
            )
            .unwrap();
        }
        t
    }

    #[test]
    fn scans_all_rows_in_order() {
        let t = make_table("all", &[10, 5], 4);
        let p = NorcScanProvider::new(t, vec![0, 1], None).unwrap();
        let mut m = ExecMetrics::default();
        let rows = scan_rows(&p, &mut m).unwrap();
        assert_eq!(rows.len(), 15);
        assert_eq!(rows[0][0], Cell::Int(0));
        assert_eq!(rows[14][0], Cell::Int(14));
        assert_eq!(m.rows_scanned, 15);
        assert!(m.bytes_read > 0);
        assert!(m.read > std::time::Duration::ZERO);
        p.table.drop_table().unwrap();
    }

    #[test]
    fn projection_subsets_columns() {
        let t = make_table("proj", &[6], 10);
        let p = NorcScanProvider::new(t, vec![1], None).unwrap();
        assert_eq!(p.schema().fields()[0].name, "tag");
        let mut m = ExecMetrics::default();
        let rows = scan_rows(&p, &mut m).unwrap();
        assert_eq!(rows[3], vec![Cell::Str("t3".into())]);
        p.table.drop_table().unwrap();
    }

    #[test]
    fn sarg_skips_row_groups() {
        // 20 rows in row groups of 5: ids 0-4,5-9,10-14,15-19.
        let t = make_table("sarg", &[20], 5);
        let sarg = SearchArgument::new().with(0, CmpOp::GtEq, Cell::Int(12));
        let p = NorcScanProvider::new(t, vec![0], Some(sarg)).unwrap();
        let mut m = ExecMetrics::default();
        let rows = scan_rows(&p, &mut m).unwrap();
        // Groups 0-4 and 5-9 skipped; group 10-14 kept (contains 12+).
        assert_eq!(m.row_groups_skipped, 2);
        assert_eq!(m.row_groups_read, 2);
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0][0], Cell::Int(10));
        p.table.drop_table().unwrap();
    }

    #[test]
    fn multi_stripe_files_disable_skipping() {
        let schema = Schema::new(vec![Field::new("id", ColumnType::Int64)]).unwrap();
        let mut t = Table::create(temp_dir("multistripe"), schema, 0).unwrap();
        let rows: Vec<Vec<Cell>> = (0..20).map(|i| vec![Cell::Int(i)]).collect();
        t.append_file(
            &rows,
            WriteOptions {
                row_group_size: 5,
                row_groups_per_stripe: 1, // 4 stripes
            },
            1,
        )
        .unwrap();
        let sarg = SearchArgument::new().with(0, CmpOp::GtEq, Cell::Int(100));
        let p = NorcScanProvider::new(t, vec![0], Some(sarg)).unwrap();
        let mut m = ExecMetrics::default();
        let rows = scan_rows(&p, &mut m).unwrap();
        assert_eq!(m.row_groups_skipped, 0, "multi-stripe file must not skip");
        assert_eq!(rows.len(), 20);
        p.table.drop_table().unwrap();
    }

    #[test]
    fn one_split_per_file_in_file_order() {
        let t = make_table("splits", &[7, 5, 9], 4);
        let p = NorcScanProvider::new(t, vec![0, 1], None).unwrap();
        assert_eq!(p.split_count(), 3);
        let mut split_m = ExecMetrics::default();
        let lens: Vec<usize> = (0..p.split_count())
            .map(|s| p.scan_split_batch(s, &mut split_m).unwrap().len())
            .collect();
        assert_eq!(lens, vec![7, 5, 9]);
        let mut whole_m = ExecMetrics::default();
        let whole = scan_rows(&p, &mut whole_m).unwrap();
        let ids: Vec<Cell> = whole.iter().map(|r| r[0].clone()).collect();
        assert_eq!(ids, (0..21).map(Cell::Int).collect::<Vec<_>>());
        assert_eq!(split_m.rows_scanned, whole_m.rows_scanned);
        assert_eq!(split_m.bytes_read, whole_m.bytes_read);
        assert_eq!(split_m.row_groups_read, whole_m.row_groups_read);
        p.table.drop_table().unwrap();
    }

    #[test]
    fn batch_scan_is_columnar_and_charges_bytes_per_chunk() {
        let t = make_table("batch", &[8], 4);
        let p = NorcScanProvider::new(t, vec![0, 1], None).unwrap();
        let mut bm = ExecMetrics::default();
        let batch = p.scan_split_batch(0, &mut bm).unwrap();
        assert!(matches!(batch.data, BatchData::Columns(_)));
        assert!(batch.selection.is_none());
        assert_eq!(batch.len(), 8);
        // Bytes are charged at decode time, before any cell exists.
        assert!(bm.bytes_read > 0);
        assert_eq!(bm.cells_materialized, 0);
        assert_eq!(bm.rows_scanned, 8);
        let rows = batch.into_rows(&mut bm);
        assert_eq!(bm.cells_materialized, 16);
        assert_eq!(bm.batch_rows_skipped, 0);
        // The row helper is the batch API plus materialization.
        let mut rm = ExecMetrics::default();
        let via_rows = scan_rows(&p, &mut rm).unwrap();
        assert_eq!(rows, via_rows);
        assert_eq!(rm.bytes_read, bm.bytes_read);
        assert_eq!(rm.cells_materialized, 16);
        p.table.drop_table().unwrap();
    }

    #[test]
    fn prefilter_becomes_selection_vector() {
        let schema = Schema::new(vec![
            Field::new("id", ColumnType::Int64),
            Field::new("doc", ColumnType::Utf8),
        ])
        .unwrap();
        let mut t = Table::create(temp_dir("prefilter-batch"), schema, 0).unwrap();
        let rows: Vec<Vec<Cell>> = (0..6i64)
            .map(|i| {
                let name = if i % 3 == 0 { "banana" } else { "apple" };
                vec![
                    Cell::Int(i),
                    Cell::from(format!(r#"{{"name": "{name}", "n": {i}}}"#)),
                ]
            })
            .collect();
        t.append_file(&rows, WriteOptions::default(), 1).unwrap();
        let filter = RawFilter::new(vec![RawFilter::equality_needle("banana").unwrap()]);
        let p = NorcScanProvider::new(t, vec![0, 1], None)
            .unwrap()
            .with_prefilter(1, filter);
        let mut m = ExecMetrics::default();
        let batch = p.scan_split_batch(0, &mut m).unwrap();
        assert_eq!(batch.selection, Some(vec![0, 3]));
        assert_eq!(batch.len(), 2);
        assert_eq!(m.prefilter_dropped, 4);
        assert_eq!(m.rows_scanned, 2, "only selected rows count as scanned");
        // Dropped rows' bytes were still decoded, so they are still charged.
        let mut no_filter_m = ExecMetrics::default();
        let p2 =
            NorcScanProvider::new(Table::open(p.table.dir()).unwrap(), vec![0, 1], None).unwrap();
        scan_rows(&p2, &mut no_filter_m).unwrap();
        assert_eq!(m.bytes_read, no_filter_m.bytes_read);
        // Materializing honors the selection and counts skipped rows.
        let rows_out = batch.into_rows(&mut m);
        assert_eq!(rows_out.len(), 2);
        assert_eq!(rows_out[1][0], Cell::Int(3));
        assert_eq!(m.batch_rows_skipped, 4);
        assert_eq!(m.cells_materialized, 4);
        p.table.drop_table().unwrap();
    }

    #[test]
    fn row_major_batch_selection_filters_rows() {
        let rows: Vec<Vec<Cell>> = (0..5).map(|i| vec![Cell::Int(i)]).collect();
        let batch = Batch {
            data: BatchData::Rows(rows),
            selection: Some(vec![1, 4]),
        };
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        let mut m = ExecMetrics::default();
        let out = batch.into_rows(&mut m);
        assert_eq!(out, vec![vec![Cell::Int(1)], vec![Cell::Int(4)]]);
        assert_eq!(m.batch_rows_skipped, 3);
        assert_eq!(m.cells_materialized, 0, "row-major cells pre-exist");
    }

    #[test]
    fn label_mentions_sarg() {
        let t = make_table("label", &[1], 10);
        let sarg = SearchArgument::new().with(0, CmpOp::Eq, Cell::Int(0));
        let p = NorcScanProvider::new(t, vec![0], Some(sarg)).unwrap();
        assert!(p.label().contains("sarg"));
        p.table.drop_table().unwrap();
    }
}
