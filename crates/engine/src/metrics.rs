//! Per-phase execution metrics, declared once.
//!
//! The paper's Fig. 3 and Fig. 12 break query time into **Read** (pulling
//! bytes out of storage), **Parse** (JSON parsing inside
//! `get_json_object`), and **Compute** (everything else). The executor
//! threads one [`ExecMetrics`] through a query; the scan operator charges
//! read time and bytes, the JSON expression charges parse time, and compute
//! is the wall-clock residual [`ExecMetrics::compute_wall`].
//!
//! Every metric is one row of the `metric_table!` invocation below: its
//! doc, name, type, merge rule, and whether it counts discrete **work**.
//! The struct, [`ExecMetrics::absorb`], [`ExecMetrics::summary`] and the
//! [`ExecMetrics::visit`] visitor are generated from that table, and every
//! other surface reads the visitor:
//!
//! * `EXPLAIN ANALYZE` annotates each operator with the non-zero deltas of
//!   the work counters (`ExecMetrics::work_deltas`);
//! * the query log's `counters` object holds every summed metric
//!   ([`ExecMetrics::counters`]);
//! * the metric registry gets one `maxson_<name>_total` counter per summed
//!   count (`ExecMetrics::charge_registry`);
//! * the differential suites compare [`ExecMetrics::work_counters`].
//!
//! Under split-parallel execution each worker task accumulates into its own
//! `ExecMetrics` instance; the barrier merges them into the query's metrics
//! via [`ExecMetrics::absorb`], so `absorb` must be commutative and
//! associative over every field it touches (counters sum, gauges max —
//! both orders are order-insensitive; see the shuffled-order test below).

use std::fmt;
use std::time::Duration;

use maxson_obs::Registry;

/// How [`ExecMetrics::absorb`] merges a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// Summed: counters and phase times.
    Sum,
    /// Maximum: gauges (pool shape, kernel tier, resident bytes).
    Max,
    /// Left alone: whole-query wall clocks the session sets once.
    Session,
}

/// One row of the metric table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Field name; the one name every surface prints.
    pub name: &'static str,
    /// Merge rule under [`ExecMetrics::absorb`].
    pub merge: Merge,
    /// Counts discrete work: identical across threads, tracing and
    /// telemetry, and annotated per operator by `EXPLAIN ANALYZE`.
    pub work: bool,
}

/// A metric's value as the visitor hands it out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// A count.
    Count(u64),
    /// A duration.
    Time(Duration),
    /// A dimensionless ratio.
    Ratio(f64),
}

impl MetricValue {
    /// Whether the value is zero.
    pub(crate) fn is_zero(self) -> bool {
        match self {
            MetricValue::Count(n) => n == 0,
            MetricValue::Time(d) => d.is_zero(),
            MetricValue::Ratio(r) => r == 0.0,
        }
    }
}

impl fmt::Display for MetricValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricValue::Count(n) => write!(f, "{n}"),
            MetricValue::Time(d) => write!(f, "{d:?}"),
            MetricValue::Ratio(r) => write!(f, "{r:.2}"),
        }
    }
}

impl From<u64> for MetricValue {
    fn from(n: u64) -> Self {
        MetricValue::Count(n)
    }
}

impl From<Duration> for MetricValue {
    fn from(d: Duration) -> Self {
        MetricValue::Time(d)
    }
}

impl From<f64> for MetricValue {
    fn from(r: f64) -> Self {
        MetricValue::Ratio(r)
    }
}

/// Name of the registry counter a summed count is charged to.
pub fn counter_series(name: &str) -> String {
    format!("maxson_{name}_total")
}

/// Generates [`ExecMetrics`] and its table-driven methods. Rows come in
/// summary groups: an `always` group prints in every summary, a `nonzero`
/// group only when one of its metrics is non-zero. Each row is
/// `name: type => merge [work];` with merge one of `sum`, `max`,
/// `session`.
macro_rules! metric_table {
    ($(
        $show:ident {
            $( $(#[doc = $doc:literal])* $name:ident : $ty:ty => $merge:ident $($work:ident)? ; )*
        }
    )*) => {
        /// Counters accumulated during one query execution.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct ExecMetrics {
            $($( $(#[doc = $doc])* pub $name: $ty, )*)*
            /// Per-JSONPath evaluation counts for this query, `(path text,
            /// count)` **kept sorted by path** so `absorb` is
            /// order-insensitive. Charged wherever `parse_calls` is charged
            /// (one entry bump per evaluation); the session drains this into
            /// the process-wide workload sketch at query end, attributed to
            /// the scanned table. A query touches a handful of distinct
            /// paths, so the sorted-Vec lookup is a short binary search with
            /// no per-row allocation after first touch. The one field
            /// outside the table: it merges by key.
            pub path_extracts: Vec<(String, u64)>,
        }

        impl ExecMetrics {
            /// Call `f` with every table metric's definition and value, in
            /// table order.
            pub fn visit(&self, mut f: impl FnMut(&'static MetricDef, MetricValue)) {
                $($(
                    f(
                        &MetricDef {
                            name: stringify!($name),
                            merge: metric_table!(@merge_rule $merge),
                            work: metric_table!(@work $($work)?),
                        },
                        self.$name.into(),
                    );
                )*)*
            }

            /// Merge counters from another execution (both sides of a join,
            /// or one worker task's metrics at the parallel barrier).
            ///
            /// Every field combines with a commutative, associative
            /// operation (`+` for counters and phase times, `max` for
            /// gauges), so the merged result does not depend on the order
            /// tasks finish in. `total` and `planning` are deliberately
            /// untouched: they are whole-query wall clocks owned by the
            /// session, not per-task work.
            pub fn absorb(&mut self, other: &ExecMetrics) {
                $($( metric_table!(@merge $merge, self.$name, other.$name); )*)*
                for (path, n) in &other.path_extracts {
                    self.charge_path_extracts(path, *n);
                }
            }

            /// One-line human-readable summary: `name=value` for every
            /// metric of each group that prints (see the table), then the
            /// derived `compute_wall` and parse dedup factor, the LRU hit
            /// ratio when the LRU ran, and the kernel tier's name when
            /// bitmaps were built.
            pub fn summary(&self) -> String {
                let mut s = String::new();
                $(
                    if metric_table!(@show $show)
                        $(|| !MetricValue::from(self.$name).is_zero())*
                    {
                        $( s.push_str(&format!(
                            " {}={}",
                            stringify!($name),
                            MetricValue::from(self.$name),
                        )); )*
                    }
                )*
                self.push_derived(&mut s);
                s.trim_start().to_string()
            }

            /// Test helper: an instance whose every table field is built
            /// from `f`'s raw value for its row.
            #[cfg(test)]
            fn from_fn(mut f: impl FnMut(&MetricDef) -> u64) -> ExecMetrics {
                let mut m = ExecMetrics::default();
                $($(
                    m.$name = tests::FromRaw::from_raw(f(&MetricDef {
                        name: stringify!($name),
                        merge: metric_table!(@merge_rule $merge),
                        work: metric_table!(@work $($work)?),
                    }));
                )*)*
                m
            }
        }
    };
    (@merge_rule sum) => { Merge::Sum };
    (@merge_rule max) => { Merge::Max };
    (@merge_rule session) => { Merge::Session };
    (@work) => { false };
    (@work work) => { true };
    (@show always) => { true };
    (@show nonzero) => { false };
    (@merge sum, $a:expr, $b:expr) => { $a += $b };
    (@merge max, $a:expr, $b:expr) => { $a = $a.max($b) };
    (@merge session, $a:expr, $b:expr) => {};
}

metric_table! {
    // The Fig. 3 / Fig. 12 phase breakdown and the core scan/parse work.
    always {
        /// Wall-clock for the whole execution (set by the session).
        total: Duration => session;
        /// Time spent generating/rewriting the plan (set by the session).
        planning: Duration => session;
        /// Time spent reading/decoding storage. Under parallel execution
        /// this is the *sum across tasks*, so it can exceed wall-clock time.
        read: Duration => sum;
        /// Time spent parsing JSON inside `get_json_object` (summed across
        /// tasks, like `read`).
        parse: Duration => sum;
        /// Wall-clock estimate of the read phase. Serial execution charges
        /// this in lockstep with `read`; the parallel barrier divides each
        /// task's contribution by the number of pool workers before
        /// absorbing it (tasks overlap, so summed CPU time overstates
        /// elapsed time by about that factor). Unlike `read`, this stays
        /// comparable to `total`.
        read_wall: Duration => sum;
        /// Wall-clock estimate of the parse phase (same convention as
        /// `read_wall`).
        parse_wall: Duration => sum;
        /// Rows scanned out of storage (after row-group skipping).
        rows_scanned: u64 => sum work;
        /// Bytes of storage input actually decoded.
        bytes_read: u64 => sum work;
        /// Number of `get_json_object` evaluations that reached a parser
        /// (the input cell held a JSON string). Identical whether
        /// shared-parse extraction is on or off — it counts path
        /// *evaluations*, not parses.
        parse_calls: u64 => sum work;
        /// Number of documents actually parsed (DOM builds in Jackson mode,
        /// structural-index builds in Mison mode). With shared-parse
        /// extraction a row is parsed once per JSON column however many
        /// paths the query needs, so `parse_calls / docs_parsed` is the
        /// intra-query dedup factor; naively the two counters are equal.
        docs_parsed: u64 => sum work;
        /// Number of JSON evaluations answered from a cache (Maxson hits).
        cache_hits: u64 => sum work;
        /// Row groups read.
        row_groups_read: u64 => sum work;
        /// Row groups skipped via SARG pushdown.
        row_groups_skipped: u64 => sum work;
    }
    // Batch-mode scans: rows dropped early and cells built late.
    nonzero {
        /// Rows rejected by the Sparser-style raw prefilter before parsing.
        prefilter_dropped: u64 => sum work;
        /// Cells converted out of columnar batches into row
        /// [`Cell`](maxson_storage::Cell)s. Late materialization keeps
        /// this below `rows × columns` whenever a filter rejects rows:
        /// rejected rows only materialize the predicate's columns. Zero
        /// for providers that produce rows directly.
        cells_materialized: u64 => sum work;
        /// Rows of a columnar batch dropped before full-row
        /// materialization — by the batch's selection vector (prefilter)
        /// or by the filter after only its predicate columns were
        /// materialized.
        batch_rows_skipped: u64 => sum work;
    }
    // Split-parallel pool shape.
    nonzero {
        /// Worker threads used by the widest parallel pool run
        /// (0 = serial).
        threads_used: u64 => max;
        /// Split tasks executed by parallel pool runs.
        par_tasks: u64 => sum;
        /// Median per-task wall time of the slowest-skewed pool run.
        task_wall_p50: Duration => max;
        /// 95th-percentile per-task wall time of the slowest-skewed pool
        /// run.
        task_wall_p95: Duration => max;
        /// Task skew: max task wall over mean task wall (1.0 = perfectly
        /// even, 0.0 = no parallel run happened).
        task_skew: f64 => max;
    }
    // The online-LRU baseline (Fig. 14).
    nonzero {
        /// Online-LRU cache: per-path-per-scan lookups answered from the
        /// cache.
        lru_hits: u64 => sum work;
        /// Online-LRU cache: lookups that had to parse and fill.
        lru_misses: u64 => sum work;
        /// Online-LRU cache: entries evicted to make room during this
        /// query.
        lru_evictions: u64 => sum work;
        /// Online-LRU cache: resident bytes after the largest fill this
        /// query observed (a gauge).
        lru_resident_bytes: u64 => max;
    }
    // The tape parser's on-demand navigation.
    nonzero {
        /// Tape mode: tape entries navigation hopped over via skip markers
        /// without visiting (unqueried sibling subtrees). Zero in Jackson
        /// and Mison modes — those parsers have no tape to skip.
        nodes_skipped: u64 => sum work;
    }
    // Structural-bitmap kernels (Mison and tape).
    nonzero {
        /// Structural-bitmap constructions (one per record indexed by the
        /// Mison or tape parser). Zero in Jackson mode — the DOM parser
        /// builds no bitmaps.
        bitmap_builds: u64 => sum work;
        /// Input bytes classified by the structural kernels.
        bitmap_bytes: u64 => sum work;
        /// Wall time inside structural-bitmap construction (classification
        /// + string-mask resolve, not the colon/bracket walk), summed
        /// across tasks like `parse`.
        bitmap_build_wall: Duration => sum;
        /// Which structural-kernel tier ran (`maxson_json::kernels::Kernel`
        /// id: 1 scalar, 2 swar, 3 sse2, 4 avx2; 0 = no bitmap work
        /// observed). A gauge; the tier is process-wide so concurrent
        /// tasks always agree.
        simd_kernel: u64 => max;
    }
    // The shared Norc footer cache.
    nonzero {
        /// Norc metadata cache: split opens whose decoded footer/index was
        /// served from the shared cache.
        meta_cache_hits: u64 => sum;
        /// Norc metadata cache: split opens that had to read and decode the
        /// part file (cache absent, cold, or invalidated).
        meta_cache_misses: u64 => sum;
    }
    // The cross-query reuse cache.
    nonzero {
        /// Cross-query reuse cache: full-result probe hits (the query was
        /// served entirely from cache; every execution counter stays zero).
        reuse_hits: u64 => sum;
        /// Cross-query reuse cache: probes that found nothing usable.
        reuse_misses: u64 => sum;
        /// Cross-query reuse cache: fragment hits (the result was rebuilt
        /// by replaying cached intermediate rows under `LIMIT`/`DISTINCT`).
        reuse_fragment_hits: u64 => sum;
        /// Cross-query reuse cache: entries this query filled (admitted).
        reuse_fills: u64 => sum;
    }
}

impl ExecMetrics {
    /// Compute phase against the wall-clock gauges: total minus
    /// `read_wall` and `parse_wall` (clamped at zero). The three add up to
    /// `total` under serial and parallel execution alike, where the
    /// cross-task sums `read`/`parse` would exceed elapsed time.
    pub fn compute_wall(&self) -> Duration {
        self.total
            .saturating_sub(self.read_wall)
            .saturating_sub(self.parse_wall)
    }

    /// The work counters, `(name, value)` in table order.
    pub fn work_counters(&self) -> Vec<(&'static str, u64)> {
        let mut out = Vec::new();
        self.visit(|def, value| {
            if let (true, MetricValue::Count(n)) = (def.work, value) {
                out.push((def.name, n));
            }
        });
        out
    }

    /// [`ExecMetrics::work_counters`] without the named ones: what a
    /// differential suite compares when its dimension may legitimately
    /// move those counters. Panics on a name that is not a work counter,
    /// so an exemption cannot outlive its metric.
    pub fn work_counters_except(&self, may_differ: &[&str]) -> Vec<(&'static str, u64)> {
        let all = self.work_counters();
        for name in may_differ {
            assert!(
                all.iter().any(|(n, _)| n == name),
                "{name} is not a work counter"
            );
        }
        all.into_iter()
            .filter(|(n, _)| !may_differ.contains(n))
            .collect()
    }

    /// The non-zero work-counter deltas since `before` — what one operator
    /// charged, as `EXPLAIN ANALYZE` prints it.
    pub(crate) fn work_deltas(&self, before: &ExecMetrics) -> Vec<(&'static str, u64)> {
        self.work_counters()
            .into_iter()
            .zip(before.work_counters())
            .filter(|((_, after), (_, before))| after > before)
            .map(|((name, after), (_, before))| (name, after - before))
            .collect()
    }

    /// Every summed metric as one integer, in table order: counts under
    /// their name, durations in whole microseconds under `<name>_us`. This
    /// is the query log's `counters` object.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        self.visit(|def, value| match (def.merge, value) {
            (Merge::Sum, MetricValue::Count(n)) => out.push((def.name.to_string(), n)),
            (Merge::Sum, MetricValue::Time(d)) => {
                out.push((format!("{}_us", def.name), d.as_micros() as u64))
            }
            _ => {}
        });
        out
    }

    /// Charge this query to `registry`: every summed count to its
    /// [`counter_series`], and — when structural bitmaps were built — the
    /// build wall to `maxson_bitmap_build_wall_seconds` and the kernel tier
    /// to the `maxson_simd_kernel` gauge.
    pub(crate) fn charge_registry(&self, registry: &Registry) {
        self.visit(|def, value| {
            if let (Merge::Sum, MetricValue::Count(n)) = (def.merge, value) {
                registry.counter(&counter_series(def.name), &[]).add(n);
            }
        });
        if self.bitmap_builds > 0 {
            registry
                .histogram("maxson_bitmap_build_wall_seconds", &[])
                .observe(self.bitmap_build_wall);
            registry
                .gauge("maxson_simd_kernel", &[])
                .max(self.simd_kernel);
        }
    }

    fn push_derived(&self, s: &mut String) {
        s.push_str(&format!(
            " compute_wall={:?} dedup={:.2}x",
            self.compute_wall(),
            self.parse_dedup_factor()
        ));
        if self.lru_hits + self.lru_misses > 0 {
            s.push_str(&format!(" lru_ratio={:.2}", self.lru_hit_ratio()));
        }
        if self.bitmap_builds > 0 {
            let kernel = maxson_json::kernels::Kernel::from_id(self.simd_kernel as u8)
                .map_or("unknown", |k| k.name());
            s.push_str(&format!(" simd={kernel}"));
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a table field from a raw test value.
    pub(super) trait FromRaw {
        fn from_raw(n: u64) -> Self;
    }

    impl FromRaw for u64 {
        fn from_raw(n: u64) -> Self {
            n
        }
    }

    impl FromRaw for Duration {
        fn from_raw(n: u64) -> Self {
            Duration::from_micros(n)
        }
    }

    impl FromRaw for f64 {
        fn from_raw(n: u64) -> Self {
            n as f64 / 250.0
        }
    }

    #[test]
    fn compute_wall_is_the_residual_of_total() {
        let m = ExecMetrics {
            total: Duration::from_millis(100),
            read: Duration::from_millis(30),
            parse: Duration::from_millis(50),
            read_wall: Duration::from_millis(30),
            parse_wall: Duration::from_millis(50),
            ..Default::default()
        };
        assert_eq!(m.compute_wall(), Duration::from_millis(20));
        // Parallel runs: the cross-task sums exceed total, the walls do not.
        let p = ExecMetrics {
            total: Duration::from_millis(100),
            read: Duration::from_millis(240),
            parse: Duration::from_millis(160),
            read_wall: Duration::from_millis(20),
            parse_wall: Duration::from_millis(30),
            threads_used: 4,
            ..Default::default()
        };
        assert_eq!(p.compute_wall(), Duration::from_millis(50));
        let clamped = ExecMetrics {
            total: Duration::from_millis(10),
            read_wall: Duration::from_millis(30),
            ..Default::default()
        };
        assert_eq!(clamped.compute_wall(), Duration::ZERO);
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

    /// splitmix64: cheap, deterministic, good dispersion.
    fn splitmix(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed.wrapping_add(0x9E3779B97F4A7C15);
        move || {
            x = x.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }

    /// One deterministic pseudo-random metrics instance per seed, built
    /// from the table so every field `absorb` touches is exercised.
    fn arb_metrics(seed: u64) -> ExecMetrics {
        let mut next = splitmix(seed);
        // total/planning are not absorbed; leave them zero so equality of
        // the merged structs is meaningful.
        let mut m = ExecMetrics::from_fn(|def| match def.merge {
            Merge::Session => 0,
            _ => next() % 10_000,
        });
        // A few overlapping keys so merges both sum and insert.
        m.path_extracts = vec![
            (format!("$.f{}", next() % 3), 1 + next() % 50),
            ("$.shared".to_string(), 1 + next() % 50),
        ];
        m.path_extracts.sort();
        m.path_extracts.dedup_by(|a, b| a.0 == b.0);
        m
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

    /// Every surface derives from the table: with every field non-zero,
    /// each work counter shows up exactly once in `EXPLAIN ANALYZE`
    /// deltas, the query-log `counters` object and the registry, and every
    /// metric prints once in the summary.
    #[test]
    fn every_surface_covers_the_table() {
        let mut defs = Vec::new();
        let m = ExecMetrics::from_fn(|def| {
            defs.push(*def);
            1 + defs.len() as u64
        });
        let mut names: Vec<&str> = defs.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), defs.len(), "metric names are unique");

        let mut visited = Vec::new();
        m.visit(|def, value| {
            assert!(!value.is_zero(), "{} is non-zero", def.name);
            visited.push(*def);
        });
        assert_eq!(visited, defs, "visit walks the table in order");

        let work: Vec<&str> = m.work_counters().iter().map(|(n, _)| *n).collect();
        let work_defs: Vec<&str> = defs.iter().filter(|d| d.work).map(|d| d.name).collect();
        assert_eq!(work, work_defs, "every work row is a count");
        assert_eq!(work.len(), 16);

        let deltas = m.work_deltas(&ExecMetrics::default());
        let logged = m.counters();
        let registry = Registry::new();
        m.charge_registry(&registry);
        for (name, value) in m.work_counters() {
            let in_deltas: Vec<_> = deltas.iter().filter(|(n, _)| *n == name).collect();
            assert_eq!(in_deltas, [&(name, value)], "EXPLAIN delta for {name}");
            let in_log: Vec<_> = logged.iter().filter(|(n, _)| n == name).collect();
            assert_eq!(in_log, [&(name.to_string(), value)], "log key {name}");
            assert_eq!(
                registry.counter_value(&counter_series(name), &[]),
                Some(value),
                "registry series for {name}"
            );
        }

        // The log holds every summed metric, and only those.
        let summed = defs.iter().filter(|d| d.merge == Merge::Sum).count();
        assert_eq!(logged.len(), summed);

        let summary = format!(" {}", m.summary());
        for def in &defs {
            let key = format!(" {}=", def.name);
            assert_eq!(summary.matches(&key).count(), 1, "summary prints {key}");
        }
    }

    #[test]
    fn work_deltas_skip_unchanged_counters() {
        let before = ExecMetrics {
            rows_scanned: 5,
            bytes_read: 10,
            ..Default::default()
        };
        let after = ExecMetrics {
            rows_scanned: 9,
            bytes_read: 10,
            row_groups_read: 2,
            ..Default::default()
        };
        assert_eq!(
            after.work_deltas(&before),
            vec![("rows_scanned", 4), ("row_groups_read", 2)]
        );
    }

    #[test]
    fn summary_mentions_fields() {
        let m = ExecMetrics {
            rows_scanned: 42,
            ..Default::default()
        };
        assert!(m.summary().contains("rows_scanned=42"));
        assert!(m.summary().contains("docs_parsed=0"));
        assert!(
            !m.summary().contains("threads_used="),
            "serial omits pool gauges"
        );
        let p = ExecMetrics {
            threads_used: 4,
            par_tasks: 8,
            ..Default::default()
        };
        assert!(p.summary().contains("threads_used=4"));
        assert!(p.summary().contains("par_tasks=8"));
        assert!(
            p.summary().contains("compute_wall="),
            "parallel summary prints the honest wall breakdown"
        );
        assert!(
            !m.summary().contains("lru_hits="),
            "LRU fields only print when the LRU ran"
        );
        assert!(
            !m.summary().contains("cells_materialized="),
            "batch fields only print when a columnar batch ran"
        );
        let c = ExecMetrics {
            cells_materialized: 12,
            batch_rows_skipped: 5,
            ..Default::default()
        };
        assert!(c.summary().contains("cells_materialized=12"));
        assert!(c.summary().contains("batch_rows_skipped=5"));
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
            ..Default::default()
        };
        assert!(t.summary().contains("nodes_skipped=7"));
        assert!(l.summary().contains("lru_hits=3"));
        assert!(l.summary().contains("lru_ratio=0.75"));
        assert!(l.summary().contains("lru_evictions=2"));
        assert!(l.summary().contains("lru_resident_bytes=640"));
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
