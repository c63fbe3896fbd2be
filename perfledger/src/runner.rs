//! One benchmark run: set up (several times), load, optionally trace, and
//! turn what was observed into named metrics.

use std::path::Path;
use std::time::Duration;

use crate::config::Fingerprint;
use crate::layers;
use crate::report::Metrics;
use crate::stats::{median, median_secs, ms, percentile};
use crate::warehouse::Warehouse;
use crate::workloads::{cache_space_ratio, load, prepare, setup, Outcome, Ready, Workload};

/// Idle time before each set-up of a run.
pub const SETUP_GAP: Duration = Duration::from_millis(40);

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Seed of the statement streams.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether to add the traced run and report per-layer metrics.
    pub trace: bool,
}

/// Everything one run produced.
pub struct RunResult {
    /// The measured phase.
    pub outcome: Outcome,
    /// Metrics for the result line: end-to-end, or per-layer when traced.
    pub metrics: Metrics,
    /// Metrics only printed: the workload-specific end-to-end numbers and
    /// the per-layer numbers of one workload only.
    pub extra: Metrics,
    /// Human-readable sections printed before the result line.
    pub notes: Vec<String>,
}

/// Set up `args.workload` [`Workload::setup_repeats`] times, keep the last
/// set-up for the measured phase, and report.
pub fn run(wh: &Warehouse, base: &Path, args: RunArgs) -> Result<RunResult, String> {
    let w = args.workload;
    let mut setup_times = Vec::new();
    let mut ready: Option<Ready> = None;
    for _ in 0..w.setup_repeats() {
        // The previous set-up (and its server) is torn down first.
        drop(ready.take());
        let root = prepare(wh, base, w)?;
        // Set-ups spaced apart sample the host in more than one state: back
        // to back, a sub-millisecond set-up reads whichever state the
        // process happens to start in, and its median moves with it.
        std::thread::sleep(SETUP_GAP);
        let t = std::time::Instant::now();
        ready = Some(setup(wh, root, w)?);
        setup_times.push(t.elapsed());
    }
    let mut ready = ready.expect("at least one set-up");
    let outcome = load(wh, &ready, args.seed, args.seconds)?;

    let mut e2e = Metrics::default();
    let mut extra = Metrics::default();
    end_to_end(&ready, &outcome, &setup_times, &mut e2e, &mut extra);
    let fp = Fingerprint::current(&ready.session);
    let mut notes = vec![fp.describe(), per_statement_p50(&outcome)];

    let metrics = if args.trace {
        let traced = layers::traced_run(wh, base, &mut ready, &outcome, args.seed)?;
        notes.extend(traced.notes);
        extra.0.extend(traced.extra.0);
        traced.metrics
    } else {
        e2e.clone()
    };
    if args.trace {
        extra.0.splice(0..0, e2e.0);
    }
    if let Some(mut server) = ready.server.take() {
        server.stop();
    }
    Ok(RunResult {
        outcome,
        metrics,
        extra,
        notes,
    })
}

/// The end-to-end metrics of `BENCHMARK.json` into `e2e`, and the ones that
/// apply to one workload only into `extra`.
fn end_to_end(
    ready: &Ready,
    outcome: &Outcome,
    setup_times: &[Duration],
    e2e: &mut Metrics,
    extra: &mut Metrics,
) {
    let mut lat: Vec<f64> = outcome.samples.iter().map(|s| ms(s.latency)).collect();
    e2e.push("setup_s", median_secs(setup_times), "s");
    e2e.push(
        "throughput_qps",
        outcome.samples.len() as f64 / outcome.elapsed.as_secs_f64().max(1e-9),
        "1/s",
    );
    let p50 = match ready.workload {
        // Ten query types in equal shares put the run-wide median between
        // two of them, where it reads the fastest sample of the slower type
        // and moves with that one sample; the median over passes of each
        // pass's median reads that type's median instead. The one caller
        // completes whole passes, in order.
        Workload::AdhocRaw => {
            let mut passes: Vec<f64> = lat
                .chunks_exact(10)
                .map(|pass| percentile(&mut pass.to_vec(), 50.0))
                .collect();
            median(&mut passes)
        }
        _ => percentile(&mut lat, 50.0),
    };
    e2e.push("latency_p50_ms", p50, "ms");
    let tail = ready.workload.tail_percentile();
    e2e.push("latency_tail_ms", percentile(&mut lat, tail as f64), "ms");

    extra.push(
        "failed_ratio",
        outcome.failed() as f64 / outcome.attempted.max(1) as f64,
        "ratio",
    );
    extra.push("peak_rss_mb", peak_rss_mb(), "MB");
    extra.push("latency_tail_percentile", tail as f64, "pct");
    extra.push("latency_samples", outcome.samples.len() as f64, "count");
    if ready.cycle.is_some() {
        extra.push("cache_space_ratio", cache_space_ratio(ready), "ratio");
    }
    if ready.workload == Workload::IngestMidday {
        extra.push(
            "ingest_mb_s",
            outcome.appended_bytes as f64 / 1e6 / outcome.loader_busy.as_secs_f64().max(1e-9),
            "MB/s",
        );
        extra.push("refresh_lag_s", median_secs(&outcome.refresh_lags), "s");
        extra.push("appends", outcome.appends as f64, "count");
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Two lines: the median latency of each statement label, in label order,
/// and the deciles over every request.
fn per_statement_p50(outcome: &Outcome) -> String {
    let mut by_label: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for s in &outcome.samples {
        by_label.entry(&s.label).or_default().push(ms(s.latency));
    }
    let mut line = String::from("p50 per statement (ms):");
    for (label, mut lat) in by_label {
        line.push_str(&format!(" {label}={:.2}", percentile(&mut lat, 50.0)));
    }
    let mut all: Vec<f64> = outcome.samples.iter().map(|s| ms(s.latency)).collect();
    line.push_str("\nlatency deciles (ms):");
    for p in (10..100).step_by(10) {
        line.push_str(&format!(" p{p}={:.2}", percentile(&mut all, p as f64)));
    }
    line
}
