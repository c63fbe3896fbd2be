//! Per-phase execution metrics.
//!
//! The paper's Fig. 3 and Fig. 12 break query time into **Read** (pulling
//! bytes out of storage), **Parse** (JSON parsing inside
//! `get_json_object`), and **Compute** (everything else). The executor
//! threads one [`ExecMetrics`] through a query; the scan operator charges
//! read time and bytes, the JSON expression charges parse time, and compute
//! is derived as `total - read - parse`.
//!
//! Under split-parallel execution each worker task accumulates into its own
//! `ExecMetrics` instance; the barrier merges them into the query's metrics
//! via [`ExecMetrics::absorb`], so `absorb` must be commutative and
//! associative over every field it touches (counters sum, gauges max —
//! both orders are order-insensitive; see the shuffled-order test below).

use std::time::Duration;

/// Counters accumulated during one query execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecMetrics {
    /// Time spent reading/decoding storage. Under parallel execution this is
    /// the *sum across tasks*, so it can exceed wall-clock time.
    pub read: Duration,
    /// Time spent parsing JSON inside `get_json_object` (summed across
    /// tasks, like `read`).
    pub parse: Duration,
    /// Wall-clock estimate of the read phase. Serial execution charges this
    /// in lockstep with `read`; the parallel barrier divides each task's
    /// contribution by the number of pool workers before absorbing it
    /// (tasks overlap, so summed CPU time overstates elapsed time by about
    /// that factor). Unlike `read`, this stays comparable to `total`.
    pub read_wall: Duration,
    /// Wall-clock estimate of the parse phase (same convention as
    /// `read_wall`).
    pub parse_wall: Duration,
    /// Wall-clock for the whole execution (set by the session).
    pub total: Duration,
    /// Time spent generating/rewriting the plan (set by the session).
    pub planning: Duration,
    /// Rows scanned out of storage (after row-group skipping).
    pub rows_scanned: u64,
    /// Bytes of storage input actually decoded.
    pub bytes_read: u64,
    /// Number of `get_json_object` evaluations that reached a parser (the
    /// input cell held a JSON string). Identical whether shared-parse
    /// extraction is on or off — it counts path *evaluations*, not parses.
    pub parse_calls: u64,
    /// Number of documents actually parsed (DOM builds in Jackson mode,
    /// structural-index builds in Mison mode). With shared-parse extraction
    /// a row is parsed once per JSON column however many paths the query
    /// needs, so `parse_calls / docs_parsed` is the intra-query dedup
    /// factor; naively the two counters are equal.
    pub docs_parsed: u64,
    /// Number of JSON evaluations answered from a cache (Maxson hits).
    pub cache_hits: u64,
    /// Row groups skipped via SARG pushdown.
    pub row_groups_skipped: u64,
    /// Row groups read.
    pub row_groups_read: u64,
    /// Rows rejected by the Sparser-style raw prefilter before parsing.
    pub prefilter_dropped: u64,
    /// Cells converted out of columnar batches into row
    /// [`Cell`](maxson_storage::Cell)s. Late materialization keeps this
    /// below `rows × columns` whenever a filter rejects rows: rejected rows
    /// only materialize the predicate's columns. Zero for providers that
    /// produce rows directly.
    pub cells_materialized: u64,
    /// Rows of a columnar batch dropped before full-row materialization —
    /// by the batch's selection vector (prefilter) or by the filter after
    /// only its predicate columns were materialized.
    pub batch_rows_skipped: u64,
    /// Worker threads used by the widest parallel pool run (0 = serial).
    pub threads_used: u64,
    /// Split tasks executed by parallel pool runs.
    pub par_tasks: u64,
    /// Median per-task wall time of the slowest-skewed pool run.
    pub task_wall_p50: Duration,
    /// 95th-percentile per-task wall time of the slowest-skewed pool run.
    pub task_wall_p95: Duration,
    /// Task skew: max task wall over mean task wall (1.0 = perfectly even,
    /// 0.0 = no parallel run happened).
    pub task_skew: f64,
    /// Tape mode: tape entries navigation hopped over via skip markers
    /// without visiting (unqueried sibling subtrees). Zero in Jackson and
    /// Mison modes — those parsers have no tape to skip.
    pub nodes_skipped: u64,
    /// Tape mode: wall time spent building tapes (structural index + typed
    /// tape), summed across tasks like `parse`.
    pub tape_build_wall: Duration,
    /// Tape mode: wall time spent navigating built tapes and rendering the
    /// queried spans (the on-demand half), summed across tasks.
    pub tape_nav_wall: Duration,
    /// Online-LRU cache: per-path-per-scan lookups answered from the cache.
    pub lru_hits: u64,
    /// Online-LRU cache: lookups that had to parse and fill.
    pub lru_misses: u64,
    /// Online-LRU cache: entries evicted to make room during this query.
    pub lru_evictions: u64,
    /// Online-LRU cache: resident bytes after the largest fill this query
    /// observed (a gauge — `absorb` takes the max, not the sum).
    pub lru_resident_bytes: u64,
    /// Norc metadata cache: split opens whose decoded footer/index was
    /// served from the shared cache.
    pub meta_cache_hits: u64,
    /// Norc metadata cache: split opens that had to read and decode the
    /// part file (cache absent, cold, or invalidated).
    pub meta_cache_misses: u64,
    /// Structural-bitmap constructions (one per record indexed by the Mison
    /// or tape parser). Zero in Jackson mode — the DOM parser builds no
    /// bitmaps.
    pub bitmap_builds: u64,
    /// Input bytes classified by the structural kernels.
    pub bitmap_bytes: u64,
    /// Wall time inside structural-bitmap construction (classification +
    /// string-mask resolve, not the colon/bracket walk), summed across
    /// tasks like `parse`.
    pub bitmap_build_wall: Duration,
    /// Which structural-kernel tier ran (`maxson_json::kernels::Kernel`
    /// id: 1 scalar, 2 swar, 3 sse2, 4 avx2; 0 = no bitmap work observed).
    /// A gauge — `absorb` takes the max, and the tier is process-wide so
    /// concurrent tasks always agree.
    pub simd_kernel: u64,
    /// Cross-query reuse cache: full-result probe hits (the query was
    /// served entirely from cache; every execution counter stays zero).
    pub reuse_hits: u64,
    /// Cross-query reuse cache: probes that found nothing usable.
    pub reuse_misses: u64,
    /// Cross-query reuse cache: fragment hits (the result was rebuilt by
    /// replaying cached intermediate rows under `LIMIT`/`DISTINCT`).
    pub reuse_fragment_hits: u64,
    /// Cross-query reuse cache: entries this query filled (admitted).
    pub reuse_fills: u64,
    /// Per-JSONPath evaluation counts for this query, `(path text, count)`
    /// **kept sorted by path** so `absorb` is order-insensitive. Charged
    /// wherever `parse_calls` is charged (one entry bump per evaluation);
    /// the session drains this into the process-wide workload sketch at
    /// query end, attributed to the scanned table. A query touches a
    /// handful of distinct paths, so the sorted-Vec lookup is a short
    /// binary search with no per-row allocation after first touch.
    pub path_extracts: Vec<(String, u64)>,
}

impl ExecMetrics {
    /// Compute phase: total minus read and parse (clamped at zero).
    ///
    /// **Only meaningful for serial execution.** `read` and `parse` are
    /// *sums across tasks*: with N workers they approach N× the elapsed
    /// time, so this residual clamps to zero whenever threads > 1. Use
    /// [`ExecMetrics::compute_wall`] for a breakdown that stays honest
    /// under parallel execution.
    pub fn compute(&self) -> Duration {
        self.total
            .saturating_sub(self.read)
            .saturating_sub(self.parse)
    }

    /// Compute phase against the wall-clock gauges: total minus
    /// `read_wall` and `parse_wall` (clamped at zero). Equals
    /// [`ExecMetrics::compute`] for serial runs and remains a sane
    /// residual under parallel execution, where cross-task CPU sums
    /// exceed elapsed time.
    pub fn compute_wall(&self) -> Duration {
        self.total
            .saturating_sub(self.read_wall)
            .saturating_sub(self.parse_wall)
    }

    /// Fraction of total time spent parsing (0 when total is zero).
    pub fn parse_fraction(&self) -> f64 {
        if self.total.is_zero() {
            0.0
        } else {
            self.parse.as_secs_f64() / self.total.as_secs_f64()
        }
    }

    /// Merge counters from another execution (both sides of a join, or one
    /// worker task's metrics at the parallel barrier).
    ///
    /// Every field this touches combines with a commutative, associative
    /// operation (`+` for counters and phase times, `max` for the pool
    /// gauges), so the merged result does not depend on the order tasks
    /// finish in. `total` and `planning` are deliberately untouched: they
    /// are whole-query wall clocks owned by the session, not per-task work.
    pub fn absorb(&mut self, other: &ExecMetrics) {
        self.read += other.read;
        self.parse += other.parse;
        self.read_wall += other.read_wall;
        self.parse_wall += other.parse_wall;
        self.rows_scanned += other.rows_scanned;
        self.bytes_read += other.bytes_read;
        self.parse_calls += other.parse_calls;
        self.docs_parsed += other.docs_parsed;
        self.cache_hits += other.cache_hits;
        self.row_groups_skipped += other.row_groups_skipped;
        self.row_groups_read += other.row_groups_read;
        self.prefilter_dropped += other.prefilter_dropped;
        self.cells_materialized += other.cells_materialized;
        self.batch_rows_skipped += other.batch_rows_skipped;
        self.threads_used = self.threads_used.max(other.threads_used);
        self.par_tasks += other.par_tasks;
        self.task_wall_p50 = self.task_wall_p50.max(other.task_wall_p50);
        self.task_wall_p95 = self.task_wall_p95.max(other.task_wall_p95);
        self.task_skew = self.task_skew.max(other.task_skew);
        self.nodes_skipped += other.nodes_skipped;
        self.tape_build_wall += other.tape_build_wall;
        self.tape_nav_wall += other.tape_nav_wall;
        self.lru_hits += other.lru_hits;
        self.lru_misses += other.lru_misses;
        self.lru_evictions += other.lru_evictions;
        self.lru_resident_bytes = self.lru_resident_bytes.max(other.lru_resident_bytes);
        self.meta_cache_hits += other.meta_cache_hits;
        self.meta_cache_misses += other.meta_cache_misses;
        self.bitmap_builds += other.bitmap_builds;
        self.bitmap_bytes += other.bitmap_bytes;
        self.bitmap_build_wall += other.bitmap_build_wall;
        self.simd_kernel = self.simd_kernel.max(other.simd_kernel);
        self.reuse_hits += other.reuse_hits;
        self.reuse_misses += other.reuse_misses;
        self.reuse_fragment_hits += other.reuse_fragment_hits;
        self.reuse_fills += other.reuse_fills;
        for (path, n) in &other.path_extracts {
            match self
                .path_extracts
                .binary_search_by(|(p, _)| p.as_str().cmp(path.as_str()))
            {
                Ok(i) => self.path_extracts[i].1 += n,
                Err(i) => self.path_extracts.insert(i, (path.clone(), *n)),
            }
        }
    }

    /// Bump the per-query evaluation count of one JSONPath. Kept sorted so
    /// merges stay order-insensitive; allocates only on the first sighting
    /// of a path within this instance.
    pub fn charge_path_extract(&mut self, path: &str) {
        self.charge_path_extracts(path, 1);
    }

    /// Bulk form of [`ExecMetrics::charge_path_extract`] for column-at-a-
    /// time providers (LRU fills, cache-table scans) that answer `n`
    /// evaluations of one path at once.
    pub fn charge_path_extracts(&mut self, path: &str, n: u64) {
        if n == 0 {
            return;
        }
        match self
            .path_extracts
            .binary_search_by(|(p, _)| p.as_str().cmp(path))
        {
            Ok(i) => self.path_extracts[i].1 += n,
            Err(i) => self.path_extracts.insert(i, (path.to_string(), n)),
        }
    }

    /// Charge structural-kernel work performed since `before` (a snapshot
    /// of [`maxson_json::kernels::thread_build_stats`] taken just before
    /// the parse work). Records which kernel tier ran the moment any build
    /// is observed; Jackson-mode parses charge nothing because the DOM
    /// parser never builds bitmaps.
    pub fn charge_bitmap_builds(&mut self, before: maxson_json::kernels::BuildStats) {
        let d = maxson_json::kernels::thread_build_stats().delta_since(before);
        if d.builds > 0 {
            self.bitmap_builds += d.builds;
            self.bitmap_bytes += d.bytes;
            self.bitmap_build_wall += Duration::from_nanos(d.nanos);
            self.simd_kernel = self
                .simd_kernel
                .max(maxson_json::kernels::active().id() as u64);
        }
    }

    /// Online-LRU hit ratio over this query's lookups (0 when the LRU
    /// never ran).
    pub fn lru_hit_ratio(&self) -> f64 {
        let lookups = self.lru_hits + self.lru_misses;
        if lookups == 0 {
            0.0
        } else {
            self.lru_hits as f64 / lookups as f64
        }
    }

    /// Intra-query parse dedup factor: `parse_calls / docs_parsed`. 1.0
    /// means every evaluation parsed its own document (the naive path);
    /// K means K path evaluations were answered per parse. Returns 1.0
    /// when nothing was parsed.
    pub fn parse_dedup_factor(&self) -> f64 {
        if self.docs_parsed == 0 {
            1.0
        } else {
            self.parse_calls as f64 / self.docs_parsed as f64
        }
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "total={:?} read={:?} parse={:?} compute={:?} rows={} bytes={} parse_calls={} docs_parsed={} dedup={:.2}x cache_hits={} rg_skipped={}/{}",
            self.total,
            self.read,
            self.parse,
            self.compute(),
            self.rows_scanned,
            self.bytes_read,
            self.parse_calls,
            self.docs_parsed,
            self.parse_dedup_factor(),
            self.cache_hits,
            self.row_groups_skipped,
            self.row_groups_skipped + self.row_groups_read,
        );
        if self.threads_used > 0 {
            // Parallel runs: `read`/`parse` above are cross-task CPU sums
            // (compute() clamps to zero), so print the honest wall-clock
            // breakdown alongside the pool-shape gauges.
            s.push_str(&format!(
                " read_wall={:?} parse_wall={:?} compute_wall={:?}",
                self.read_wall,
                self.parse_wall,
                self.compute_wall(),
            ));
            s.push_str(&format!(
                " threads={} tasks={} task_p50={:?} task_p95={:?} skew={:.2}",
                self.threads_used,
                self.par_tasks,
                self.task_wall_p50,
                self.task_wall_p95,
                self.task_skew,
            ));
        }
        if self.cells_materialized + self.batch_rows_skipped > 0 {
            // Batch-mode scans only: how much row materialization the
            // columnar path performed, and how much it avoided.
            s.push_str(&format!(
                " cells_mat={} batch_skipped={}",
                self.cells_materialized, self.batch_rows_skipped,
            ));
        }
        if self.nodes_skipped > 0
            || !self.tape_build_wall.is_zero()
            || !self.tape_nav_wall.is_zero()
        {
            // Tape mode only: skip-marker work avoided plus the build vs
            // navigate wall split.
            s.push_str(&format!(
                " nodes_skipped={} tape_build={:?} tape_nav={:?}",
                self.nodes_skipped, self.tape_build_wall, self.tape_nav_wall,
            ));
        }
        if self.lru_hits + self.lru_misses > 0 {
            s.push_str(&format!(
                " lru_hits={} lru_misses={} lru_ratio={:.2} lru_evict={} lru_bytes={}",
                self.lru_hits,
                self.lru_misses,
                self.lru_hit_ratio(),
                self.lru_evictions,
                self.lru_resident_bytes,
            ));
        }
        if self.meta_cache_hits + self.meta_cache_misses > 0 {
            s.push_str(&format!(
                " meta_hits={} meta_misses={}",
                self.meta_cache_hits, self.meta_cache_misses,
            ));
        }
        if self.reuse_hits + self.reuse_misses + self.reuse_fragment_hits + self.reuse_fills > 0 {
            s.push_str(&format!(
                " reuse_hits={} reuse_misses={} reuse_frag={} reuse_fills={}",
                self.reuse_hits, self.reuse_misses, self.reuse_fragment_hits, self.reuse_fills,
            ));
        }
        if self.bitmap_builds > 0 {
            // Structural-kernel modes (Mison/tape) only: which tier ran and
            // what the bitmap construction cost.
            let kernel = maxson_json::kernels::Kernel::from_id(self.simd_kernel as u8)
                .map_or("unknown", |k| k.name());
            s.push_str(&format!(
                " simd={kernel} bitmap_builds={} bitmap_bytes={} bitmap_wall={:?}",
                self.bitmap_builds, self.bitmap_bytes, self.bitmap_build_wall,
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_is_residual() {
        let m = ExecMetrics {
            total: Duration::from_millis(100),
            read: Duration::from_millis(30),
            parse: Duration::from_millis(50),
            ..Default::default()
        };
        assert_eq!(m.compute(), Duration::from_millis(20));
        assert!((m.parse_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn compute_clamps_at_zero() {
        let m = ExecMetrics {
            total: Duration::from_millis(10),
            read: Duration::from_millis(30),
            ..Default::default()
        };
        assert_eq!(m.compute(), Duration::ZERO);
        assert_eq!(ExecMetrics::default().parse_fraction(), 0.0);
    }

    #[test]
    fn absorb_sums_counters() {
        let mut a = ExecMetrics {
            rows_scanned: 5,
            parse_calls: 2,
            ..Default::default()
        };
        let b = ExecMetrics {
            rows_scanned: 7,
            cache_hits: 3,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.rows_scanned, 12);
        assert_eq!(a.cache_hits, 3);
        assert_eq!(a.parse_calls, 2);
    }

    #[test]
    fn absorb_sums_docs_parsed() {
        let mut a = ExecMetrics {
            parse_calls: 12,
            docs_parsed: 4,
            ..Default::default()
        };
        let b = ExecMetrics {
            parse_calls: 9,
            docs_parsed: 3,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.docs_parsed, 7);
        assert!((a.parse_dedup_factor() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn path_extracts_stay_sorted_and_merge_by_key() {
        let mut a = ExecMetrics::default();
        a.charge_path_extract("$.b");
        a.charge_path_extract("$.a");
        a.charge_path_extract("$.b");
        assert_eq!(
            a.path_extracts,
            vec![("$.a".to_string(), 1), ("$.b".to_string(), 2)]
        );
        let mut b = ExecMetrics::default();
        b.charge_path_extract("$.c");
        b.charge_path_extract("$.b");
        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        assert_eq!(ab.path_extracts, ba.path_extracts);
        assert_eq!(
            ab.path_extracts,
            vec![
                ("$.a".to_string(), 1),
                ("$.b".to_string(), 3),
                ("$.c".to_string(), 1)
            ]
        );
    }

    #[test]
    fn dedup_factor_defaults_to_one_without_parses() {
        assert_eq!(ExecMetrics::default().parse_dedup_factor(), 1.0);
    }

    #[test]
    fn absorb_maxes_pool_gauges() {
        let mut a = ExecMetrics {
            threads_used: 4,
            par_tasks: 4,
            task_wall_p50: Duration::from_millis(3),
            task_skew: 1.5,
            ..Default::default()
        };
        let b = ExecMetrics {
            threads_used: 2,
            par_tasks: 2,
            task_wall_p50: Duration::from_millis(9),
            task_skew: 1.1,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.threads_used, 4);
        assert_eq!(a.par_tasks, 6);
        assert_eq!(a.task_wall_p50, Duration::from_millis(9));
        assert!((a.task_skew - 1.5).abs() < 1e-12);
    }

    /// One deterministic pseudo-random metrics instance per seed,
    /// exercising every field `absorb` touches.
    fn arb_metrics(seed: u64) -> ExecMetrics {
        // splitmix64: cheap, deterministic, good dispersion.
        let mut x = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut next = move || {
            x = x.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        ExecMetrics {
            read: Duration::from_micros(next() % 10_000),
            parse: Duration::from_micros(next() % 10_000),
            read_wall: Duration::from_micros(next() % 10_000),
            parse_wall: Duration::from_micros(next() % 10_000),
            // total/planning are not absorbed; leave zero so equality of the
            // merged structs is meaningful.
            total: Duration::ZERO,
            planning: Duration::ZERO,
            rows_scanned: next() % 1000,
            bytes_read: next() % 100_000,
            parse_calls: next() % 500,
            docs_parsed: next() % 500,
            cache_hits: next() % 500,
            row_groups_skipped: next() % 64,
            row_groups_read: next() % 64,
            prefilter_dropped: next() % 100,
            cells_materialized: next() % 10_000,
            batch_rows_skipped: next() % 1000,
            threads_used: next() % 16,
            par_tasks: next() % 16,
            task_wall_p50: Duration::from_micros(next() % 5_000),
            task_wall_p95: Duration::from_micros(next() % 5_000),
            task_skew: 1.0 + (next() % 1000) as f64 / 250.0,
            nodes_skipped: next() % 10_000,
            tape_build_wall: Duration::from_micros(next() % 5_000),
            tape_nav_wall: Duration::from_micros(next() % 5_000),
            lru_hits: next() % 500,
            lru_misses: next() % 500,
            lru_evictions: next() % 100,
            lru_resident_bytes: next() % 1_000_000,
            meta_cache_hits: next() % 500,
            meta_cache_misses: next() % 500,
            bitmap_builds: next() % 500,
            bitmap_bytes: next() % 100_000,
            bitmap_build_wall: Duration::from_micros(next() % 5_000),
            simd_kernel: next() % 5,
            reuse_hits: next() % 500,
            reuse_misses: next() % 500,
            reuse_fragment_hits: next() % 500,
            reuse_fills: next() % 500,
            path_extracts: {
                // A few overlapping keys so merges both sum and insert.
                let mut v = vec![
                    (format!("$.f{}", next() % 3), 1 + next() % 50),
                    ("$.shared".to_string(), 1 + next() % 50),
                ];
                v.sort();
                v.dedup_by(|a, b| a.0 == b.0);
                v
            },
        }
    }

    fn absorb_all(parts: &[ExecMetrics]) -> ExecMetrics {
        let mut acc = ExecMetrics::default();
        for p in parts {
            acc.absorb(p);
        }
        acc
    }

    /// The parallel barrier absorbs task metrics in whatever order is
    /// convenient; the result must not depend on it.
    #[test]
    fn absorb_is_commutative_and_associative_under_shuffles() {
        let parts: Vec<ExecMetrics> = (0..8).map(arb_metrics).collect();
        let reference = absorb_all(&parts);

        // A handful of deterministic shuffles (rotations + reversal +
        // interleavings) covers both pairwise swaps and regroupings.
        for rot in 0..parts.len() {
            let mut shuffled = parts.clone();
            shuffled.rotate_left(rot);
            assert_eq!(absorb_all(&shuffled), reference, "rotation {rot}");
            shuffled.reverse();
            assert_eq!(absorb_all(&shuffled), reference, "reversed rotation {rot}");
        }

        // Associativity: fold pairs first, then absorb the pair-sums.
        let mut pairs: Vec<ExecMetrics> = Vec::new();
        for chunk in parts.chunks(2) {
            pairs.push(absorb_all(chunk));
        }
        assert_eq!(absorb_all(&pairs), reference, "pairwise regrouping");

        // Tree-shaped merge (as a work-stealing barrier might do it).
        let left = absorb_all(&parts[..3]);
        let right = absorb_all(&parts[3..]);
        let mut tree = ExecMetrics::default();
        tree.absorb(&right);
        tree.absorb(&left);
        assert_eq!(tree, reference, "tree merge");
    }

    #[test]
    fn summary_mentions_fields() {
        let m = ExecMetrics {
            rows_scanned: 42,
            ..Default::default()
        };
        assert!(m.summary().contains("rows=42"));
        assert!(m.summary().contains("docs_parsed=0"));
        assert!(
            !m.summary().contains("threads="),
            "serial omits pool gauges"
        );
        let p = ExecMetrics {
            threads_used: 4,
            par_tasks: 8,
            ..Default::default()
        };
        assert!(p.summary().contains("threads=4"));
        assert!(p.summary().contains("tasks=8"));
        assert!(
            p.summary().contains("compute_wall="),
            "parallel summary prints the honest wall breakdown"
        );
        assert!(
            !m.summary().contains("lru_hits="),
            "LRU fields only print when the LRU ran"
        );
        assert!(
            !m.summary().contains("cells_mat="),
            "batch fields only print when a columnar batch ran"
        );
        let c = ExecMetrics {
            cells_materialized: 12,
            batch_rows_skipped: 5,
            ..Default::default()
        };
        assert!(c.summary().contains("cells_mat=12"));
        assert!(c.summary().contains("batch_skipped=5"));
        let l = ExecMetrics {
            lru_hits: 3,
            lru_misses: 1,
            lru_evictions: 2,
            lru_resident_bytes: 640,
            ..Default::default()
        };
        assert!(
            !m.summary().contains("nodes_skipped="),
            "tape fields only print when the tape parser ran"
        );
        let t = ExecMetrics {
            nodes_skipped: 7,
            tape_build_wall: Duration::from_micros(10),
            ..Default::default()
        };
        assert!(t.summary().contains("nodes_skipped=7"));
        assert!(t.summary().contains("tape_build="));
        assert!(t.summary().contains("tape_nav="));
        assert!(l.summary().contains("lru_hits=3"));
        assert!(l.summary().contains("lru_ratio=0.75"));
        assert!(l.summary().contains("lru_evict=2"));
        assert!(l.summary().contains("lru_bytes=640"));
        assert!(
            !m.summary().contains("reuse_hits="),
            "reuse fields only print when the reuse cache participated"
        );
        let u = ExecMetrics {
            reuse_hits: 1,
            reuse_fills: 2,
            ..Default::default()
        };
        assert!(u.summary().contains("reuse_hits=1"));
        assert!(u.summary().contains("reuse_fills=2"));
        assert!(
            !m.summary().contains("simd="),
            "kernel fields only print when bitmaps were built"
        );
        let k = ExecMetrics {
            bitmap_builds: 4,
            bitmap_bytes: 1200,
            simd_kernel: maxson_json::kernels::Kernel::Swar.id() as u64,
            ..Default::default()
        };
        assert!(k.summary().contains("simd=swar"));
        assert!(k.summary().contains("bitmap_builds=4"));
        assert!(k.summary().contains("bitmap_bytes=1200"));
    }

    #[test]
    fn wall_gauges_track_serial_phases() {
        let m = ExecMetrics {
            total: Duration::from_millis(100),
            read: Duration::from_millis(30),
            parse: Duration::from_millis(50),
            read_wall: Duration::from_millis(30),
            parse_wall: Duration::from_millis(50),
            ..Default::default()
        };
        // Serial runs charge wall gauges in lockstep with the sums.
        assert_eq!(m.compute_wall(), m.compute());
        // Parallel runs: sums exceed total, walls stay comparable.
        let p = ExecMetrics {
            total: Duration::from_millis(100),
            read: Duration::from_millis(240),
            parse: Duration::from_millis(160),
            read_wall: Duration::from_millis(60),
            parse_wall: Duration::from_millis(40),
            threads_used: 4,
            ..Default::default()
        };
        assert_eq!(p.compute(), Duration::ZERO, "the misleading residual");
        assert_eq!(p.compute_wall(), Duration::from_millis(0));
        let p2 = ExecMetrics {
            read_wall: Duration::from_millis(20),
            parse_wall: Duration::from_millis(30),
            ..p
        };
        assert_eq!(p2.compute_wall(), Duration::from_millis(50));
    }

    #[test]
    fn lru_hit_ratio_handles_empty_and_mixed() {
        assert_eq!(ExecMetrics::default().lru_hit_ratio(), 0.0);
        let m = ExecMetrics {
            lru_hits: 9,
            lru_misses: 3,
            ..Default::default()
        };
        assert!((m.lru_hit_ratio() - 0.75).abs() < 1e-12);
    }
}
