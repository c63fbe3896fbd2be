//! CI smoke test for the tracing spine: tracing must be an observer, not a
//! participant.
//!
//! Runs a fig12 query (Q9) twice on identically-built Maxson sessions —
//! once untraced, once with `Session::set_trace_path` (the programmatic
//! equivalent of `MAXSON_TRACE`) — and fails (non-zero exit) if:
//!
//! * the traced run's rows or counters drift from the untraced run's,
//! * the exported file is not well-formed Chrome trace-event JSON,
//! * the trace holds no spans, no thread-name tracks, or no nesting.

use maxson_bench::workload::session_for;
use maxson_bench::{load_tables, SystemKind};
use maxson_json::JsonValue;

fn main() {
    let queries = load_tables();
    // Q9 is one of fig12's two queries and returns a non-trivial result
    // set, so the row-identity check is meaningful.
    let q = queries.iter().find(|q| q.name == "Q9").expect("Q9 exists");

    // Untraced baseline.
    let (untraced_session, _) = session_for(SystemKind::Maxson, &queries, u64::MAX, true);
    let untraced = untraced_session.execute(&q.sql).expect("untraced run");

    // Traced run on a fresh session built the same way.
    let (mut traced_session, _) = session_for(SystemKind::Maxson, &queries, u64::MAX, true);
    let trace_path = maxson_bench::report::results_dir().join("trace_smoke.json");
    std::fs::create_dir_all(maxson_bench::report::results_dir()).expect("results dir");
    traced_session.set_trace_path(Some(trace_path.clone()));
    let traced = traced_session.execute(&q.sql).expect("traced run");

    // 1. Zero-cost contract: identical rows and identical work counters.
    assert_eq!(
        untraced.rows, traced.rows,
        "tracing changed query output rows"
    );
    let counters = traced.metrics.work_counters();
    assert_eq!(
        untraced.metrics.work_counters(),
        counters,
        "tracing changed work counters"
    );

    // 2. The export is well-formed Chrome trace JSON.
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let doc = maxson_json::parse(&text).expect("trace file is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");

    let ph = |e: &JsonValue| e.get("ph").and_then(JsonValue::as_str).map(str::to_string);
    let spans: Vec<&JsonValue> = events
        .iter()
        .filter(|e| ph(e).as_deref() == Some("X"))
        .collect();
    assert!(!spans.is_empty(), "trace holds no spans");
    let thread_tracks = events
        .iter()
        .filter(|e| {
            ph(e).as_deref() == Some("M")
                && e.get("name").and_then(JsonValue::as_str) == Some("thread_name")
        })
        .count();
    assert!(thread_tracks > 0, "trace holds no thread-name tracks");
    let nested = spans
        .iter()
        .filter(|e| e.get("args").and_then(|a| a.get("parent")).is_some())
        .count();
    assert!(nested > 0, "trace holds no nested spans");
    let query_spans = spans
        .iter()
        .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some("query"))
        .count();
    assert!(query_spans > 0, "no query-root span in trace");

    println!(
        "trace_smoke OK: {} rows identical, {} counters identical, \
         {} spans ({} nested) across {} thread tracks -> {}",
        traced.rows.len(),
        counters.len(),
        spans.len(),
        nested,
        thread_tracks,
        trace_path.display()
    );
}
