//! CI drift gate over the cross-run trend log.
//!
//! Loads and chain-verifies `results/trend_log.jsonl` (or `--log PATH`),
//! recomputes the drift report, rewrites `trend_report.json` next to the
//! log, and exits nonzero on any detection-rate drift: a provenance class
//! moving toward acceptance between consecutive comparable runs, or a
//! recorded fault-campaign flip count above zero. Perf drift (kernel
//! trials/s below the windowed median) is printed as a warning and never
//! gates — wall clock varies across machines; detection rates must not.
//!
//! ```text
//! cargo run --release -p flashmark-bench --bin trend_check -- [--log PATH]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use flashmark_bench::output::{results_dir, write_json_in};
use flashmark_bench::trend::{TREND_LOG_NAME, TREND_REPORT_NAME};
use flashmark_trend::{compute_drift, DriftOptions, TrendLog};

fn main() -> ExitCode {
    let mut log_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--log" {
            match args.next() {
                Some(v) => log_path = Some(PathBuf::from(v)),
                None => return usage("missing value after --log"),
            }
        } else if let Some(v) = arg.strip_prefix("--log=") {
            log_path = Some(PathBuf::from(v));
        } else {
            return usage(&format!("unknown argument {arg:?}"));
        }
    }
    let log_path = log_path.unwrap_or_else(|| results_dir().join(TREND_LOG_NAME));

    let log = match TrendLog::load(&log_path) {
        Ok(log) => log,
        Err(e) => {
            eprintln!("trend_check: {} is unusable: {e}", log_path.display());
            return ExitCode::FAILURE;
        }
    };
    let report = compute_drift(&log, &DriftOptions::default());

    let dir = log_path.parent().map_or_else(results_dir, PathBuf::from);
    match write_json_in(&dir, TREND_REPORT_NAME, &report) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("trend_check: cannot write report: {e}");
            return ExitCode::FAILURE;
        }
    }

    println!(
        "{}: {} record(s), chain root {}, {} comparable group(s)",
        log_path.display(),
        report.records,
        log.root(),
        report.checks.len()
    );
    for check in &report.checks {
        println!(
            "  {}@{} seed {}: {} run(s)",
            check.kind, check.params, check.seed, check.runs
        );
    }
    for warning in &report.warnings {
        eprintln!("WARNING {warning}");
    }
    for failure in &report.failures {
        eprintln!("DETECTION DRIFT {failure}");
    }
    if report.passed() {
        println!(
            "trend check OK: no detection drift across {} record(s) ({} warning(s))",
            report.records,
            report.warnings.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "trend check FAILED: {} detection drift failure(s)",
            report.failures.len()
        );
        ExitCode::FAILURE
    }
}

fn usage(error: &str) -> ExitCode {
    eprintln!("{error}");
    eprintln!("usage: trend_check [--log PATH]");
    ExitCode::FAILURE
}
