//! CI smoke test for the always-on telemetry subsystem.
//!
//! Replays the golden ten-query workload against a fresh metric registry
//! with a query log installed, and fails (non-zero exit) unless:
//!
//! * every summed count of the `ExecMetrics` table settles in the registry
//!   exactly equal to the sum of the per-query `ExecMetrics` the engine
//!   returned (telemetry loses and invents nothing),
//! * the Prometheus text exposition is well-formed — every line is a
//!   `# TYPE` comment or a `name{labels} value` sample with a finite
//!   numeric value,
//! * a second identical replay on a second fresh registry produces a
//!   byte-identical exposition once wall-time series are filtered out,
//! * the query log holds exactly one parseable JSONL line per query, each
//!   line's `counters` keys are exactly the table's summed metrics, the
//!   logged counts sum to the same totals, and plan fingerprints are stable
//!   across replays,
//! * the TCP server round-trips: STATS carries the kernel/skip counters
//!   and the METRICS opcode returns an exposition naming the server's own
//!   series.

use std::collections::BTreeMap;
use std::sync::Arc;

use maxson_bench::{bench_root, fresh_session, load_tables};
use maxson_engine::metrics::{counter_series, Merge, MetricValue};
use maxson_engine::{ExecMetrics, Registry, Session};
use maxson_server::{Client, Server, ServerConfig};

/// Run every workload query once against a fresh registry; returns the
/// registry, the summed metrics, and per-query fingerprints from the log.
fn replay(log_path: &std::path::Path) -> (Arc<Registry>, ExecMetrics, Vec<String>, usize) {
    std::fs::remove_file(log_path).ok();
    let queries = load_tables();
    let mut session = fresh_session();
    let registry = Arc::new(Registry::new());
    session.set_metrics_registry(Arc::clone(&registry));
    session
        .set_query_log(Some(log_path.to_path_buf()))
        .expect("query log opens");

    let mut summed = ExecMetrics::default();
    for q in &queries {
        let result = session.execute(&q.sql).expect("query executes");
        summed.absorb(&result.metrics);
    }
    drop(session); // flush ordering is moot (writes are line-atomic), but be tidy

    let text = std::fs::read_to_string(log_path).expect("query log written");
    let mut fingerprints = Vec::new();
    for line in text.lines() {
        let v = maxson_json::parse(line).expect("query-log line is valid JSON");
        fingerprints.push(
            v.get("fingerprint")
                .and_then(|f| f.as_str())
                .expect("fingerprint field")
                .to_string(),
        );
    }
    (registry, summed, fingerprints, queries.len())
}

/// Every exposition line must be a comment or `series value`.
fn validate_exposition(text: &str) {
    assert!(!text.is_empty(), "empty exposition");
    for line in text.lines() {
        if line.starts_with("# TYPE ") {
            let mut parts = line.split_whitespace();
            assert_eq!(parts.clone().count(), 4, "malformed TYPE comment: {line:?}");
            let kind = parts.nth(3).unwrap();
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown metric type in {line:?}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(!series.is_empty(), "sample without a series name: {line:?}");
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("sample value does not parse as f64: {line:?}"));
        assert!(value.is_finite(), "non-finite sample value: {line:?}");
        if let Some(open) = series.find('{') {
            assert!(series.ends_with('}'), "unclosed label set: {line:?}");
            assert!(open > 0, "label set without a name: {line:?}");
        }
    }
}

/// Drop wall-time series (values vary run to run); keep all counts.
fn stable_lines(exposition: &str) -> String {
    exposition
        .lines()
        .filter(|l| !l.contains("seconds"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    let results_dir = maxson_bench::report::results_dir();
    std::fs::create_dir_all(&results_dir).expect("results dir");
    let log_path = results_dir.join("telemetry_smoke.qlog.jsonl");

    // 1. Replay and settle: every summed count of the table has a registry
    //    counter equal to the summed ExecMetrics.
    let (registry, summed, fingerprints, n_queries) = replay(&log_path);
    let mut settled: Vec<(&'static str, u64)> = Vec::new();
    summed.visit(|def, value| {
        if let (Merge::Sum, MetricValue::Count(n)) = (def.merge, value) {
            settled.push((def.name, n));
        }
    });
    for &(name, want) in &settled {
        let series = counter_series(name);
        let got = registry
            .counter_value(&series, &[])
            .unwrap_or_else(|| panic!("counter {series} missing"));
        assert_eq!(
            got, want,
            "{series} settled at {got}, ExecMetrics sum is {want}"
        );
    }
    assert_eq!(
        registry.counter_value("maxson_queries_total", &[("parser", "jackson")]),
        Some(n_queries as u64),
        "per-parser query counter"
    );

    // 2. The exposition is well-formed.
    let exposition = registry.expose();
    validate_exposition(&exposition);
    assert!(exposition.contains("# TYPE maxson_queries_total counter"));
    assert!(exposition.contains("maxson_hot_path_extracts{"));

    // 3. Query log: one line per query whose `counters` keys are exactly
    //    the table's summed metrics, counts summing to the settled totals,
    //    fingerprints deterministic across a second replay.
    assert_eq!(
        fingerprints.len(),
        n_queries,
        "query log holds one line per query"
    );
    let table_keys: Vec<String> = ExecMetrics::default()
        .counters()
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    let log_text = std::fs::read_to_string(&log_path).expect("query log");
    let mut logged: BTreeMap<String, u64> = BTreeMap::new();
    for line in log_text.lines() {
        let v = maxson_json::parse(line).expect("log line parses");
        let Some(maxson_json::JsonValue::Object(counters)) = v.get("counters") else {
            panic!("log line without a counters object: {line}");
        };
        let keys: Vec<&str> = counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys, table_keys,
            "query-log counters drifted from the table"
        );
        for (k, x) in counters {
            *logged.entry(k.clone()).or_insert(0) += x.as_i64().expect("integer counter") as u64;
        }
        assert_eq!(v.get("slow").and_then(|s| s.as_bool()), Some(false));
    }
    for &(name, want) in &settled {
        assert_eq!(
            logged[name], want,
            "logged {name} sums to the settled total"
        );
    }

    let (registry2, _, fingerprints2, _) = replay(&log_path);
    assert_eq!(fingerprints, fingerprints2, "plan fingerprints are stable");
    assert_eq!(
        stable_lines(&exposition),
        stable_lines(&registry2.expose()),
        "exposition (wall-time series filtered) is deterministic"
    );

    // 4. Server round-trip: STATS carries kernel counters, METRICS opcode
    //    returns the registry exposition.
    let server =
        Server::start(bench_root(), "127.0.0.1:0", ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let queries = load_tables();
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for q in queries.iter().take(3) {
        let result = client.query(&q.sql).expect("served query");
        *counts.entry(q.name.clone()).or_insert(0) += result.rows.len();
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.queries_ok, 3);
    assert!(!stats.simd_kernel.is_empty(), "STATS names the kernel tier");
    let served = client.metrics().expect("metrics exposition");
    validate_exposition(&served);
    assert!(
        served.contains("maxson_server_queries_total{status=\"ok\"} 3"),
        "server query counter in exposition:\n{served}"
    );
    assert!(served.contains("# TYPE maxson_sched_acquires_total counter"));
    drop(client);
    drop(server);

    println!(
        "telemetry_smoke OK: {n_queries} queries settled {} counters exactly, \
         {} exposition bytes validated, {} log lines of {} counters, server \
         STATS kernel={} nodes_skipped={} ({} served rows)",
        settled.len(),
        exposition.len(),
        fingerprints.len(),
        table_keys.len(),
        stats.simd_kernel,
        stats.nodes_skipped,
        counts.values().sum::<usize>(),
    );
    let _ = Session::open(bench_root()).expect("warehouse still opens");
}
