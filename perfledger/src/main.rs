//! `perfledger --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs from the root of a checkout of the repository. The generated
//! warehouse is kept under `target/perfledger/`, keyed by data seed and
//! scale; the first run generates it (in a child process, so its memory is
//! not charged to the measured run).
//!
//! Optional: `--rows <n>` (rows per Table II table, default 10000) and
//! `--data-seed <n>` (seed of the table contents, default 1).

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use perfledger::config::unpinnable;
use perfledger::report::result_line;
use perfledger::runner::{run, RunArgs};
use perfledger::warehouse::{generate, Warehouse, WarehouseSpec};
use perfledger::workloads::Workload;

/// Where the generated warehouse and per-run scratch state live, relative to
/// the checkout root.
const DATA_DIR: &str = "target/perfledger";

const DEFAULT_ROWS: usize = 10_000;
const DEFAULT_DATA_SEED: u64 = 1;

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfledger: {e}");
            ExitCode::from(2)
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse {v:?}")),
        None => default.ok_or_else(|| format!("missing {name}")),
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = WarehouseSpec {
        data_seed: parsed(&args, "--data-seed", Some(DEFAULT_DATA_SEED))?,
        rows: parsed(&args, "--rows", Some(DEFAULT_ROWS))?,
    };
    let base = PathBuf::from(DATA_DIR);
    if args.first().map(String::as_str) == Some("generate") {
        generate(&base, spec)?;
        return Ok(ExitCode::SUCCESS);
    }

    let bad = unpinnable(std::env::vars());
    if !bad.is_empty() {
        return Err(format!(
            "refusing to run: {} cannot be pinned through a public setter; unset {}",
            bad.join(", "),
            if bad.len() == 1 { "it" } else { "them" }
        ));
    }
    let name: String = parsed(&args, "--workload", None)?;
    let workload = Workload::from_name(&name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload {name:?}; expected one of {}",
            names.join(", ")
        )
    })?;
    let trace: u8 = parsed(&args, "--trace", Some(0))?;
    let run_args = RunArgs {
        workload,
        seed: parsed(&args, "--seed", None)?,
        seconds: parsed(&args, "--seconds", None)?,
        trace: trace == 1,
    };
    if run_args.seconds.is_nan() || run_args.seconds <= 0.0 || trace > 1 {
        return Err("--seconds must be positive and --trace 0 or 1".into());
    }

    let wh = ensure_warehouse(&base, spec)?;
    println!(
        "perfledger {} seed={} seconds={} trace={} data_seed={} rows={}",
        workload.name(),
        run_args.seed,
        run_args.seconds,
        trace,
        spec.data_seed,
        spec.rows
    );
    let result = run(&wh, &base, run_args)?;
    for note in &result.notes {
        println!("{note}");
    }
    println!("metrics:");
    print!("{}", result.metrics.to_text());
    println!("also measured:");
    print!("{}", result.extra.to_text());
    let o = &result.outcome;
    let correct = o.failed() == 0;
    if let Some(f) = &o.first_failure {
        println!("first failure: {f}");
    }
    println!(
        "{}",
        result_line(correct, o.attempted, o.failed(), &result.metrics)
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Open the warehouse for `spec`, generating it first in a child process
/// when it is missing.
fn ensure_warehouse(base: &Path, spec: WarehouseSpec) -> Result<Warehouse, String> {
    if let Some(wh) = Warehouse::open(base, spec)? {
        return Ok(wh);
    }
    eprintln!(
        "perfledger: generating the {}-row warehouse under {} (once per data seed and scale)",
        spec.rows,
        base.display()
    );
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let status = Command::new(exe)
        .args([
            "generate",
            "--rows",
            &spec.rows.to_string(),
            "--data-seed",
            &spec.data_seed.to_string(),
        ])
        .status()
        .map_err(|e| format!("start generator: {e}"))?;
    if !status.success() {
        return Err(format!("warehouse generation failed: {status}"));
    }
    Warehouse::open(base, spec)?.ok_or_else(|| "generator finished but left no warehouse".into())
}
