//! Rebuild the checked-in `bench-data/` warehouse from scratch: the ten
//! Table II tables (deterministic, seed 0xCAFE) plus a fully populated
//! Maxson cache (`__maxson_cache`, cached at logical time 100 against
//! tables modified at time 1).
//!
//! Run after any Norc format or datagen change so the committed warehouse
//! stays readable:
//!
//! ```text
//! cargo run --release -p maxson-bench --bin make_warehouse
//! ```
//!
//! Honors `MAXSON_BENCH_DATA` (default `bench-data/`) and
//! `MAXSON_BENCH_ROWS` (default 2000) like every other bench binary.

use maxson_bench::workload::{bench_root, rebuild_warehouse};

fn main() {
    let queries = rebuild_warehouse();
    println!(
        "rebuilt {} ({} tables)",
        bench_root().display(),
        queries.len()
    );
}
