//! Seeded statement streams: what each workload's callers issue, in which
//! order. Every stream is a pure function of the run seed, so the same seed
//! gives the same inputs.
//!
//! Each workload cycles through one fixed statement cycle (shuffled once,
//! from [`CYCLE_SEED`]); the run seed picks where in the cycle each caller
//! starts. Runs with different seeds therefore issue the same mix with the
//! same neighbours, and differ only in phase — the Norc footer cache, which
//! the working set overflows, then sees the same access pattern every run,
//! instead of a new one per seed that would swamp the run-to-run spread.
//!
//! **Where the traffic shape comes from.** The paper publishes neither a
//! per-table popularity nor a query-to-update ratio, so the shape is taken
//! from the repository's trace model (`maxson_trace::synth`), the one
//! source for it in the repository:
//!
//! - tables are Zipf-popular with exponent [`TABLE_ZIPF_S`] (the model's
//!   table weights, `1 / k^1.1` for its k-th table);
//! - every table is updated once a day (the model's table updates, after
//!   the paper's Fig. 2);
//! - a day carries the model's default query volume (see
//!   [`model_queries_per_day`]).
//!
//! Three choices are this benchmark's own, not the model's: Table II's Qk
//! takes the model's k-th table weight (Table II order, not a measured
//! ranking), the ingest reader splits each table's statements evenly
//! between the query and its `LIMIT` variant, and the day's five appends
//! are evenly spaced. The model itself is not fitted to a published
//! per-table figure, so the whole shape is unverified against real traffic.

use maxson_datagen::tables::QuerySpec;
use maxson_testkit::rng::Rng;
use maxson_trace::SynthConfig;

/// Zipf exponent of table popularity in the repository's trace model.
pub const TABLE_ZIPF_S: f64 = 1.1;

/// The five small tables the ingest workload reads and appends to (about
/// 22 MB at 10k rows, which fits the Norc footer cache).
pub const INGEST_TABLES: [&str; 5] = ["q1", "q2", "q5", "q7", "q8"];

/// Popularity rank (1 = most popular) of each of [`INGEST_TABLES`]: its
/// Table II position.
pub const INGEST_RANKS: [usize; 5] = [1, 2, 5, 7, 8];

/// Zipf popularity order of the served workload: Table II order.
pub const SERVED_RANK: [&str; 10] = ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10"];

/// Statements per quota block of the served Zipf mix.
pub const ZIPF_BLOCK: usize = 100;

/// Reader statements per day over each of [`INGEST_TABLES`]: the model's
/// daily queries on the table of that rank, rounded
/// ([`model_queries_per_day`]).
pub const INGEST_DAY_QUOTA: [usize; 5] = [64, 30, 11, 8, 7];

/// Reader statements per day.
pub const INGEST_DAY: usize = {
    let (mut sum, mut i) = (0, 0);
    while i < INGEST_DAY_QUOTA.len() {
        sum += INGEST_DAY_QUOTA[i];
        i += 1;
    }
    sum
};

/// The ingest loader appends one day file per this many reader statements:
/// each of the five tables once a day.
pub const APPEND_EVERY: usize = INGEST_DAY / INGEST_TABLES.len();

/// Days in the ingest reader's cycle.
pub const INGEST_CYCLE_DAYS: usize = 5;

/// Seed of the fixed statement cycles.
pub const CYCLE_SEED: u64 = 0x1ED6E5;

/// Weight of the table of popularity rank `rank` (1-based).
pub fn table_weight(rank: usize) -> f64 {
    1.0 / (rank as f64).powf(TABLE_ZIPF_S)
}

/// Expected queries per day on the table of popularity rank `rank` in the
/// trace model at its default configuration: every recurring template
/// fires daily or weekly, ad-hoc queries come on top, and each query picks
/// its table by [`table_weight`] over the model's tables.
pub fn model_queries_per_day(rank: usize) -> f64 {
    let c = SynthConfig::default();
    let templates = (c.users * c.templates_per_user) as f64;
    let per_day =
        templates * (c.daily_fraction + (1.0 - c.daily_fraction) / 7.0) + c.adhoc_per_day as f64;
    let total: f64 = (1..=c.tables).map(table_weight).sum();
    per_day * table_weight(rank) / total
}

/// An endless stream over `cycle`, starting at position `seed % len`.
pub fn rotated<T: Clone>(cycle: Vec<T>, seed: u64) -> impl Iterator<Item = T> {
    let start = (seed % cycle.len() as u64) as usize;
    cycle.into_iter().cycle().skip(start)
}

/// The adhoc cycle: Q1..Q10 (indices into the query list), shuffled once.
pub fn adhoc_cycle() -> Vec<usize> {
    let mut order: Vec<usize> = (0..10).collect();
    shuffle(&mut order, &mut Rng::seed_from_u64(CYCLE_SEED));
    order
}

/// The served cycle: one Zipf quota block, shuffled once.
pub fn served_cycle() -> Vec<&'static str> {
    zipf_block(&mut Rng::seed_from_u64(CYCLE_SEED))
}

/// Start of client `client` in the served cycle: the clients sit half a
/// cycle apart, and the seed moves both.
pub fn served_start(seed: u64, client: usize) -> u64 {
    seed.wrapping_add((client * ZIPF_BLOCK / 2) as u64)
}

/// Start of the ingest reader in its cycle. The seed only picks among the
/// starts that are a whole number of append periods apart, so the appends'
/// invalidations land on the same cycle positions in every run (which
/// statements lose their reuse entry then does not depend on the seed).
pub fn ingest_start(seed: u64) -> u64 {
    let periods = (INGEST_DAY * INGEST_CYCLE_DAYS / APPEND_EVERY) as u64;
    (seed % periods) * APPEND_EVERY as u64
}

/// The ingest reader's cycle: [`INGEST_CYCLE_DAYS`] days from
/// [`ingest_day`].
pub fn ingest_cycle() -> Vec<IngestStep> {
    let mut rng = Rng::seed_from_u64(CYCLE_SEED);
    (0..INGEST_CYCLE_DAYS)
        .flat_map(|_| ingest_day(&mut rng))
        .collect()
}

/// Per-rank statement counts of one Zipf quota block over the ten served
/// ranks: [`table_weight`] shares of [`ZIPF_BLOCK`], apportioned by largest
/// remainder so they sum to exactly [`ZIPF_BLOCK`].
pub fn zipf_quota() -> [usize; 10] {
    let weights: Vec<f64> = (1..=10).map(table_weight).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights
        .iter()
        .map(|w| ZIPF_BLOCK as f64 * w / total)
        .collect();
    let mut quota = [0usize; 10];
    for (q, e) in quota.iter_mut().zip(&exact) {
        *q = e.floor() as usize;
    }
    let mut by_remainder: Vec<usize> = (0..10).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = ZIPF_BLOCK - quota.iter().sum::<usize>();
    for &r in &by_remainder[..short] {
        quota[r] += 1;
    }
    quota
}

/// One quota block of the served mix: every rank exactly its quota, in
/// seeded order. Entries are query labels (`Q1`..`Q10`).
pub fn zipf_block(rng: &mut Rng) -> Vec<&'static str> {
    let mut block = Vec::with_capacity(ZIPF_BLOCK);
    for (label, n) in SERVED_RANK.iter().zip(zipf_quota()) {
        block.extend(std::iter::repeat_n(*label, n));
    }
    shuffle(&mut block, rng);
    block
}

/// The two statement shapes the ingest reader issues per table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IngestVariant {
    /// The table's Table II query.
    Base,
    /// The same query under an extra outer `LIMIT` (or a tighter one), so
    /// the reuse cache can answer it from the base query's fragment.
    Limit,
}

/// Label and SQL of one ingest statement over `q`'s table.
pub fn ingest_statement(q: &QuerySpec, variant: IngestVariant) -> (String, String) {
    match variant {
        IngestVariant::Base => (q.name.clone(), q.sql.clone()),
        IngestVariant::Limit => {
            let sql = match q.sql.rfind(" limit ") {
                // Already limited (Q2, Q8): tighten it.
                Some(at) => format!("{} limit 10", &q.sql[..at]),
                None => format!("{} limit 10", q.sql),
            };
            (format!("{}L", q.name), sql)
        }
    }
}

/// One reader statement of the ingest workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestStep {
    /// Index into [`INGEST_TABLES`].
    pub table: usize,
    /// Which statement over it.
    pub variant: IngestVariant,
}

/// One day of the ingest reader: [`INGEST_DAY_QUOTA`] statements per
/// table, half of them (rounded up) the query and the rest its `LIMIT`
/// variant, in seeded order.
pub fn ingest_day(rng: &mut Rng) -> Vec<IngestStep> {
    let mut day = Vec::with_capacity(INGEST_DAY);
    for (table, &n) in INGEST_DAY_QUOTA.iter().enumerate() {
        for i in 0..n {
            let variant = if i < n.div_ceil(2) {
                IngestVariant::Base
            } else {
                IngestVariant::Limit
            };
            day.push(IngestStep { table, variant });
        }
    }
    shuffle(&mut day, rng);
    day
}

/// Which of `steps` (the reader's statements from the start of its
/// measured phase) repeat a statement issued earlier in the same append
/// period. The loader is signalled after every [`APPEND_EVERY`]-th
/// statement, and each append swaps the warehouse epoch, which empties the
/// reuse cache, so these are the statements the reuse cache can answer
/// from an earlier identical one.
pub fn period_repeats(steps: &[IngestStep]) -> Vec<bool> {
    steps
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let period_start = i - i % APPEND_EVERY;
            steps[period_start..i].contains(s)
        })
        .collect()
}

/// The ingest loader's cycle: which table receives each append, the five
/// tables in a fixed shuffled round.
pub fn append_cycle() -> Vec<usize> {
    let mut round: Vec<usize> = (0..INGEST_TABLES.len()).collect();
    shuffle(&mut round, &mut Rng::seed_from_u64(CYCLE_SEED));
    round
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}
