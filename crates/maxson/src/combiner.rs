//! The Value Combiner (Algorithm 2) and shared predicate pushdown
//! (Algorithm 3).
//!
//! When a query touches both cached and uncached data, two readers run per
//! split: the **PrimaryReader** over the raw table file and the
//! **CacheReader** over the cache table file with the same index. The
//! cacher guarantees the two files have the same row count and row-group
//! boundaries, so rows are stitched positionally — no join. The stitch
//! costs nothing per row: a split's batch is the raw column chunks followed
//! by the cache column chunks (`BatchData::Columns`, the form the plain
//! Norc provider returns), and the executor's pipeline builds cells late,
//! only for the rows and columns the query needs. `bytes_read` is charged
//! per decoded chunk on both sides, as for a plain Norc scan.
//!
//! When the predicate constrains a cached JSONPath, the SARG is evaluated
//! against the cache file's row-group statistics; the resulting keep/skip
//! array is *shared* with the PrimaryReader so the raw file skips the same
//! row groups. As in the paper, the optimization only applies when both
//! files hold a single stripe.
//!
//! Composition with shared-parse execution (`MAXSON_SHARED_PARSE`) is
//! automatic: cached paths were compiled down to plain column references
//! against this provider's output schema, so only the *residual* uncached
//! `get_json_object` calls reach the executor's per-row extractor — the
//! combiner removes cross-query duplicate parsing, shared-parse dedupes
//! whatever parsing remains within the query.

use std::time::Instant;

use maxson_engine::metrics::ExecMetrics;
use maxson_engine::scan::{Batch, BatchData, ScanProvider};
use maxson_storage::{Schema, SearchArgument, Table};

/// Scan provider combining a raw table with its cache table.
#[derive(Debug)]
pub struct CombinedScanProvider {
    /// The raw data table (PrimaryReader side). `None` for cache-only
    /// reads, which skip raw I/O entirely (§IV-B's relevance rationale).
    raw: Option<Table>,
    /// Raw column indexes to read, in output order.
    raw_projection: Vec<usize>,
    /// The cache table (CacheReader side).
    cache: Table,
    /// Cache column indexes to read, in output order (placed after the raw
    /// columns in the output schema).
    cache_projection: Vec<usize>,
    /// Output schema: raw columns then cache columns.
    out_schema: Schema,
    /// SARG over raw table columns (ordinary pushdown).
    raw_sarg: Option<SearchArgument>,
    /// SARG over cache table columns (Algorithm 3).
    cache_sarg: Option<SearchArgument>,
}

impl CombinedScanProvider {
    /// Build a combined provider. `out_schema` must list the raw projection
    /// fields followed by the cache projection fields.
    pub fn new(
        raw: Option<Table>,
        raw_projection: Vec<usize>,
        cache: Table,
        cache_projection: Vec<usize>,
        out_schema: Schema,
        raw_sarg: Option<SearchArgument>,
        cache_sarg: Option<SearchArgument>,
    ) -> Self {
        CombinedScanProvider {
            raw,
            raw_projection,
            cache,
            cache_projection,
            out_schema,
            raw_sarg,
            cache_sarg,
        }
    }

    /// Whether this scan reads only the cache table.
    pub fn is_cache_only(&self) -> bool {
        self.raw.is_none() || self.raw_projection.is_empty()
    }
}

impl ScanProvider for CombinedScanProvider {
    fn schema(&self) -> &Schema {
        &self.out_schema
    }

    fn split_count(&self) -> usize {
        // Cache files are written one per raw file, so the cache file count
        // IS the split count (and covers cache-only scans too).
        self.cache.file_count()
    }

    /// One split = the raw file and cache file with the same index, read by
    /// the paired PrimaryReader/CacheReader. Keeping the pair inside a
    /// single split task is what lets the split-parallel executor fan scans
    /// out without touching Algorithm 2 (positional stitch) or Algorithm 3
    /// (shared SARG skips): both stay split-local.
    fn scan_split_batch(
        &self,
        split: usize,
        metrics: &mut ExecMetrics,
    ) -> maxson_engine::Result<Batch> {
        let start = Instant::now();
        let (cache_file, cache_meta_hit) =
            self.cache.open_split_cached(split).map_err(engine_err)?;
        charge_meta_open(metrics, cache_meta_hit);

        // Algorithm 3: evaluate the cache-side SARG against the cache
        // file's row-group stats (single-stripe files only).
        let cache_keep: Option<Vec<bool>> = self.cache_sarg.as_ref().map(|sarg| {
            if cache_file.stripe_count() <= 1 {
                sarg.keep_array(cache_file.row_groups())
            } else {
                vec![true; cache_file.row_group_count()]
            }
        });

        let (mut cols, keep) = if self.is_cache_only() {
            (Vec::new(), cache_keep)
        } else {
            let raw_table = self.raw.as_ref().expect("raw table present");
            let (raw_file, raw_meta_hit) =
                raw_table.open_split_cached(split).map_err(engine_err)?;
            charge_meta_open(metrics, raw_meta_hit);

            // The alignment invariant of §IV-C. If it does not hold (e.g.
            // the raw table changed underneath us) fail loudly rather than
            // stitch misaligned rows.
            if raw_file.num_rows() != cache_file.num_rows() {
                return Err(maxson_engine::EngineError::exec(format!(
                    "cache misalignment on split {split}: raw has {} rows, cache has {}",
                    raw_file.num_rows(),
                    cache_file.num_rows()
                )));
            }

            // Combine keep arrays. Sharing requires identical row-group
            // boundaries; otherwise fall back to reading everything.
            let aligned_groups = raw_file.row_group_count() == cache_file.row_group_count()
                && raw_file.stripe_count() <= 1
                && cache_file.stripe_count() <= 1;
            let raw_keep: Option<Vec<bool>> = self.raw_sarg.as_ref().map(|sarg| {
                if raw_file.stripe_count() <= 1 {
                    sarg.keep_array(raw_file.row_groups())
                } else {
                    vec![true; raw_file.row_group_count()]
                }
            });
            let shared_keep: Option<Vec<bool>> = if aligned_groups {
                match (raw_keep, cache_keep) {
                    (Some(r), Some(c)) => Some(r.iter().zip(&c).map(|(a, b)| *a && *b).collect()),
                    (r, c) => r.or(c),
                }
            } else {
                // Cannot share: only the raw-side SARG can be applied, and
                // only consistently on both readers, so read everything.
                None
            };
            let raw_cols = raw_file
                .read_columns(&self.raw_projection, shared_keep.as_deref())
                .map_err(engine_err)?;
            (raw_cols, shared_keep)
        };
        count_rg(metrics, &keep, cache_file.row_group_count());
        let cache_cols = cache_file
            .read_columns(&self.cache_projection, keep.as_deref())
            .map_err(engine_err)?;

        // Algorithm 2: positional stitch. Both readers decoded the same
        // rows, so the output is simply the raw chunks followed by the
        // cache chunks (the output schema's order); cells are built later,
        // only for the rows and columns the pipeline needs.
        cols.extend(cache_cols);
        let n = cols.first().map_or(0, |c| c.len());
        for c in &cols {
            metrics.bytes_read += c.byte_size() as u64;
        }
        metrics.cache_hits += (n * self.cache_projection.len()) as u64;
        metrics.rows_scanned += n as u64;
        let spent = start.elapsed();
        metrics.read += spent;
        metrics.read_wall += spent;
        Ok(Batch {
            data: BatchData::Columns(cols),
            selection: None,
        })
    }

    fn label(&self) -> String {
        format!(
            "MaxsonCombinedScan(raw_cols={:?}, cache_cols={:?}{}{})",
            self.raw_projection,
            self.cache_projection,
            if self.cache_sarg.as_ref().is_some_and(|s| !s.is_empty()) {
                ", cache_sarg"
            } else {
                ""
            },
            if self.is_cache_only() {
                ", cache-only"
            } else {
                ""
            },
        )
    }
}

fn charge_meta_open(metrics: &mut ExecMetrics, hit: bool) {
    if hit {
        metrics.meta_cache_hits += 1;
    } else {
        metrics.meta_cache_misses += 1;
    }
}

fn count_rg(metrics: &mut ExecMetrics, keep: &Option<Vec<bool>>, total: usize) {
    match keep {
        Some(keep) => {
            let skipped = keep.iter().filter(|k| !**k).count() as u64;
            metrics.row_groups_skipped += skipped;
            metrics.row_groups_read += keep.len() as u64 - skipped;
        }
        None => metrics.row_groups_read += total as u64,
    }
}

fn engine_err(e: maxson_storage::StorageError) -> maxson_engine::EngineError {
    maxson_engine::EngineError::Storage(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxson_engine::exec::{execute_plan_with, ExecOptions};
    use maxson_engine::expr::Expr;
    use maxson_engine::scan::scan_rows;
    use maxson_engine::sql::BinaryOp;
    use maxson_engine::LogicalPlan;
    use maxson_storage::file::WriteOptions;
    use maxson_storage::{Cell, CmpOp, ColumnType, Field};
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        use std::time::{SystemTime, UNIX_EPOCH};
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        std::env::temp_dir().join(format!(
            "maxson-combiner-{}-{nanos}-{name}",
            std::process::id()
        ))
    }

    /// Raw table: (id, payload); cache table: (va,) where va = id * 10 as
    /// string. Two files of 20 rows each, row groups of 5.
    fn setup(name: &str) -> (Table, Table, PathBuf, PathBuf) {
        let raw_schema = Schema::new(vec![
            Field::new("id", ColumnType::Int64),
            Field::new("payload", ColumnType::Utf8),
        ])
        .unwrap();
        let cache_schema = Schema::new(vec![Field::new("va", ColumnType::Utf8)]).unwrap();
        let raw_dir = temp_dir(&format!("{name}-raw"));
        let cache_dir = temp_dir(&format!("{name}-cache"));
        let mut raw = Table::create(&raw_dir, raw_schema, 0).unwrap();
        let mut cache = Table::create(&cache_dir, cache_schema, 0).unwrap();
        let opts = WriteOptions {
            row_group_size: 5,
            ..Default::default()
        };
        for f in 0..2i64 {
            let raw_rows: Vec<Vec<Cell>> = (0..20)
                .map(|i| {
                    let n = f * 20 + i;
                    vec![Cell::Int(n), Cell::from(format!("{{\"a\":{}}}", n * 10))]
                })
                .collect();
            let cache_rows: Vec<Vec<Cell>> = (0..20)
                .map(|i| {
                    let n = f * 20 + i;
                    vec![Cell::from(format!("{}", n * 10))]
                })
                .collect();
            raw.append_file(&raw_rows, opts, 1).unwrap();
            cache.append_file(&cache_rows, opts, 1).unwrap();
        }
        (raw, cache, raw_dir, cache_dir)
    }

    fn out_schema() -> Schema {
        Schema::new(vec![
            Field::new("id", ColumnType::Int64),
            Field::new("va", ColumnType::Utf8),
        ])
        .unwrap()
    }

    #[test]
    fn stitches_rows_positionally() {
        let (raw, cache, rd, cd) = setup("stitch");
        let p =
            CombinedScanProvider::new(Some(raw), vec![0], cache, vec![0], out_schema(), None, None);
        let mut m = ExecMetrics::default();
        let rows = scan_rows(&p, &mut m).unwrap();
        assert_eq!(rows.len(), 40);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row[0], Cell::Int(i as i64));
            assert_eq!(row[1], Cell::from(format!("{}", i * 10)));
        }
        assert_eq!(m.cache_hits, 40);
        assert_eq!(m.rows_scanned, 40);
        std::fs::remove_dir_all(rd).ok();
        std::fs::remove_dir_all(cd).ok();
    }

    #[test]
    fn cache_sarg_skip_is_shared_with_primary_reader() {
        let (raw, cache, rd, cd) = setup("share");
        // va >= "350" numerically -> only rows 35..39 (last row group of
        // file 1) qualify.
        let sarg = SearchArgument::new().with(0, CmpOp::GtEq, Cell::Int(350));
        let p = CombinedScanProvider::new(
            Some(raw),
            vec![0],
            cache,
            vec![0],
            out_schema(),
            None,
            Some(sarg),
        );
        let mut m = ExecMetrics::default();
        let rows = scan_rows(&p, &mut m).unwrap();
        // Row group size 5, 4 groups per file, 2 files = 8 shared groups.
        // Only file 1's last group ([35..39], va 350..390) survives.
        assert_eq!(m.row_groups_read, 1);
        assert_eq!(m.row_groups_skipped, 7);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0][0], Cell::Int(35));
        std::fs::remove_dir_all(rd).ok();
        std::fs::remove_dir_all(cd).ok();
    }

    #[test]
    fn raw_and_cache_sargs_combine() {
        let (raw, cache, rd, cd) = setup("combine");
        let raw_sarg = SearchArgument::new().with(0, CmpOp::Lt, Cell::Int(10));
        let cache_sarg = SearchArgument::new().with(0, CmpOp::GtEq, Cell::Int(50));
        let p = CombinedScanProvider::new(
            Some(raw),
            vec![0],
            cache,
            vec![0],
            out_schema(),
            Some(raw_sarg),
            Some(cache_sarg),
        );
        let mut m = ExecMetrics::default();
        let rows = scan_rows(&p, &mut m).unwrap();
        // id < 10 AND va >= 50 -> ids 5..9 (row group [5..9]).
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0][0], Cell::Int(5));
        std::fs::remove_dir_all(rd).ok();
        std::fs::remove_dir_all(cd).ok();
    }

    #[test]
    fn cache_only_scan_never_opens_raw() {
        let (_raw, cache, rd, cd) = setup("cacheonly");
        let schema = Schema::new(vec![Field::new("va", ColumnType::Utf8)]).unwrap();
        let p = CombinedScanProvider::new(None, vec![], cache, vec![0], schema, None, None);
        assert!(p.is_cache_only());
        let mut m = ExecMetrics::default();
        let rows = scan_rows(&p, &mut m).unwrap();
        assert_eq!(rows.len(), 40);
        assert_eq!(m.cache_hits, 40);
        assert!(p.label().contains("cache-only"));
        std::fs::remove_dir_all(rd).ok();
        std::fs::remove_dir_all(cd).ok();
    }

    #[test]
    fn one_split_per_file_pair() {
        let (raw, cache, rd, cd) = setup("splitpair");
        let sarg = SearchArgument::new().with(0, CmpOp::GtEq, Cell::Int(150));
        let p = CombinedScanProvider::new(
            Some(raw),
            vec![0],
            cache,
            vec![0],
            out_schema(),
            None,
            Some(sarg),
        );
        assert_eq!(p.split_count(), 2);
        let mut split_m = ExecMetrics::default();
        // va >= 150 keeps the last row group of file 0 and all of file 1.
        let lens: Vec<usize> = (0..p.split_count())
            .map(|s| p.scan_split_batch(s, &mut split_m).unwrap().len())
            .collect();
        assert_eq!(lens, vec![5, 20]);
        let mut whole_m = ExecMetrics::default();
        let whole = scan_rows(&p, &mut whole_m).unwrap();
        assert_eq!(whole.len(), 25);
        assert_eq!(whole[0][0], Cell::Int(15));
        assert_eq!(split_m.rows_scanned, whole_m.rows_scanned);
        assert_eq!(split_m.row_groups_skipped, whole_m.row_groups_skipped);
        assert_eq!(split_m.row_groups_read, whole_m.row_groups_read);
        assert_eq!(split_m.cache_hits, whole_m.cache_hits);
        std::fs::remove_dir_all(rd).ok();
        std::fs::remove_dir_all(cd).ok();
    }

    /// Combined scans hand the pipeline decoded chunks, raw before cache,
    /// exactly like a plain Norc scan: bytes are charged per chunk and
    /// cells are built late, so rows a raw-column filter rejects only
    /// materialize the predicate's cell.
    #[test]
    fn combined_scan_is_columnar_with_late_materialization() {
        let (raw, cache, rd, cd) = setup("columnar");
        let schema = Schema::new(vec![
            Field::new("id", ColumnType::Int64),
            Field::new("payload", ColumnType::Utf8),
            Field::new("va", ColumnType::Utf8),
        ])
        .unwrap();
        let p = CombinedScanProvider::new(
            Some(raw.clone()),
            vec![0, 1],
            cache.clone(),
            vec![0],
            schema,
            None,
            None,
        );
        let mut m = ExecMetrics::default();
        let batch = p.scan_split_batch(0, &mut m).unwrap();
        let BatchData::Columns(cols) = &batch.data else {
            panic!("combined scan must be columnar");
        };
        assert_eq!(cols.len(), 3);
        assert_eq!(cols[0].get(3), Cell::Int(3));
        assert_eq!(cols[1].get(3), Cell::from("{\"a\":30}"));
        assert_eq!(cols[2].get(3), Cell::from("30"));
        assert_eq!(m.cells_materialized, 0);
        assert_eq!(m.cache_hits, 20);

        // bytes_read is the decoded chunks' size, not a per-cell sum.
        let mut chunk_bytes = 0;
        for s in 0..2 {
            for (table, projection) in [(&raw, vec![0, 1]), (&cache, vec![0])] {
                let file = table.open_split(s).unwrap();
                for c in file.read_columns(&projection, None).unwrap() {
                    chunk_bytes += c.byte_size() as u64;
                }
            }
        }
        let mut scan_m = ExecMetrics::default();
        let rows = scan_rows(&p, &mut scan_m).unwrap();
        assert_eq!(rows.len(), 40);
        assert_eq!(scan_m.bytes_read, chunk_bytes);

        // id >= 35 keeps 5 of 40 rows: 35 rejected rows build only `id`.
        let plan = LogicalPlan::Filter {
            predicate: Expr::Binary {
                left: Box::new(Expr::Column(0)),
                op: BinaryOp::GtEq,
                right: Box::new(Expr::Literal(Cell::Int(35))),
            },
            input: Box::new(LogicalPlan::Scan {
                provider: Box::new(p),
            }),
        };
        let mut fm = ExecMetrics::default();
        let out = execute_plan_with(&plan, &mut fm, ExecOptions::serial()).unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(
            out[0],
            vec![Cell::Int(35), Cell::from("{\"a\":350}"), Cell::from("350")]
        );
        assert_eq!(fm.cells_materialized, 40 + 5 * 2);
        assert!(fm.cells_materialized < 40 * 3);
        assert_eq!(fm.batch_rows_skipped, 35);
        assert_eq!(fm.bytes_read, chunk_bytes);
        std::fs::remove_dir_all(rd).ok();
        std::fs::remove_dir_all(cd).ok();
    }

    #[test]
    fn misaligned_split_is_detected() {
        let (raw, _cache, rd, cd) = setup("misaligned");
        // Build a cache table with a different row count.
        let bad_dir = temp_dir("misaligned-bad");
        let schema = Schema::new(vec![Field::new("va", ColumnType::Utf8)]).unwrap();
        let mut bad = Table::create(&bad_dir, schema, 0).unwrap();
        let rows: Vec<Vec<Cell>> = (0..7).map(|i| vec![Cell::from(format!("{i}"))]).collect();
        bad.append_file(&rows, WriteOptions::default(), 1).unwrap();
        bad.append_file(&rows, WriteOptions::default(), 1).unwrap();
        let p =
            CombinedScanProvider::new(Some(raw), vec![0], bad, vec![0], out_schema(), None, None);
        let mut m = ExecMetrics::default();
        let err = scan_rows(&p, &mut m).unwrap_err();
        assert!(err.to_string().contains("misalignment"));
        std::fs::remove_dir_all(rd).ok();
        std::fs::remove_dir_all(cd).ok();
        std::fs::remove_dir_all(bad_dir).ok();
    }

    #[test]
    fn multi_stripe_cache_file_disables_sharing() {
        // Cache file written with multiple stripes: SARG must not skip.
        let raw_schema = Schema::new(vec![Field::new("id", ColumnType::Int64)]).unwrap();
        let cache_schema = Schema::new(vec![Field::new("va", ColumnType::Utf8)]).unwrap();
        let rd = temp_dir("multistripe-raw");
        let cd = temp_dir("multistripe-cache");
        let mut raw = Table::create(&rd, raw_schema, 0).unwrap();
        let mut cache = Table::create(&cd, cache_schema, 0).unwrap();
        let raw_rows: Vec<Vec<Cell>> = (0..20).map(|i| vec![Cell::Int(i)]).collect();
        let cache_rows: Vec<Vec<Cell>> =
            (0..20).map(|i| vec![Cell::from(format!("{i}"))]).collect();
        raw.append_file(
            &raw_rows,
            WriteOptions {
                row_group_size: 5,
                ..Default::default()
            },
            1,
        )
        .unwrap();
        cache
            .append_file(
                &cache_rows,
                WriteOptions {
                    row_group_size: 5,
                    row_groups_per_stripe: 1,
                },
                1,
            )
            .unwrap();
        let sarg = SearchArgument::new().with(0, CmpOp::GtEq, Cell::Int(100));
        let schema = Schema::new(vec![
            Field::new("id", ColumnType::Int64),
            Field::new("va", ColumnType::Utf8),
        ])
        .unwrap();
        let p =
            CombinedScanProvider::new(Some(raw), vec![0], cache, vec![0], schema, None, Some(sarg));
        let mut m = ExecMetrics::default();
        let rows = scan_rows(&p, &mut m).unwrap();
        assert_eq!(rows.len(), 20, "no skipping on multi-stripe files");
        assert_eq!(m.row_groups_skipped, 0);
        std::fs::remove_dir_all(rd).ok();
        std::fs::remove_dir_all(cd).ok();
    }
}
