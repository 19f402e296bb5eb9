//! Runs every experiment and writes a paper-vs-measured Markdown report
//! (`results/experiments_report.md`) — the data behind `EXPERIMENTS.md`.
//!
//! Flags:
//!
//! - `--threads N` — worker threads (default: available parallelism;
//!   `1` runs the exact legacy serial path). Results are bit-identical
//!   at any thread count.
//! - `--smoke` / `--profile=smoke` — reduced trial counts for CI.
//! - `--only a,b` / `--only=a,b` — run just the named experiments of the
//!   suite's table and write just their artifacts; the report, the trend
//!   log and `BENCH_runtime.json` are left alone. An unknown name exits 2
//!   and lists the valid ones.
//!
//! Exits 1 if any experiment fails; the report still covers every
//! experiment that ran.

use std::process::ExitCode;

use flashmark_bench::output::results_dir;
use flashmark_bench::suite::{run_selected, run_suite, select, Experiment, Profile, SuiteOptions};
use flashmark_par::threads_from_env_args;

/// The entries named by `--only`, or `None` to run the whole table.
fn only_arg(args: &[String]) -> Result<Option<Vec<&'static Experiment>>, String> {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let list = if arg == "--only" {
            iter.next().ok_or("missing value after --only")?
        } else if let Some(list) = arg.strip_prefix("--only=") {
            list
        } else {
            continue;
        };
        return select(list).map(Some);
    }
    Ok(None)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let only = match only_arg(&args) {
        Ok(only) => only,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let threads = match threads_from_env_args() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let smoke = args
        .iter()
        .any(|a| a == "--smoke" || a == "--profile=smoke");
    let opts = SuiteOptions {
        threads,
        profile: if smoke { Profile::Smoke } else { Profile::Full },
        results_dir: results_dir(),
    };
    let report = match &only {
        Some(entries) => run_selected(&opts, entries),
        None => run_suite(&opts),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("suite failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", report.markdown);
    match &only {
        Some(entries) => {
            let artifacts: Vec<&str> = entries.iter().flat_map(|e| e.artifacts).copied().collect();
            eprintln!(
                "wrote {} into {}",
                artifacts.join(", "),
                opts.results_dir.display()
            );
        }
        None => eprintln!(
            "wrote {}",
            opts.results_dir.join("experiments_report.md").display()
        ),
    }
    let failures = report.failures();
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in failures {
            eprintln!(
                "experiment {} failed: {}",
                f.name,
                f.error.as_deref().unwrap_or("unknown")
            );
        }
        ExitCode::FAILURE
    }
}
