//! Per-shard service-telemetry viewer: renders the Prometheus-style
//! metrics exposition a service campaign writes
//! (`results/service_metrics.prom` by default, `service_metrics_smoke.prom`
//! with `--smoke`, any file with `--file PATH`) as an aligned per-shard
//! table — queue-depth high watermark, request and probe totals, mean
//! virtual latency and mean retry-ladder depth per shard — plus the
//! service-wide batch-occupancy watermark.
//!
//! The exposition is deterministic (virtual latency is ops-weighted, not
//! wall clock), so the rendered table is byte-identical for campaigns run
//! at any `--threads` count.

use std::path::PathBuf;
use std::process::ExitCode;

use flashmark_bench::output::results_dir;
use flashmark_bench::top::{fold, render};

fn main() -> ExitCode {
    let mut file: Option<PathBuf> = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--file" {
            match args.next() {
                Some(v) => file = Some(PathBuf::from(v)),
                None => return usage("missing value after --file"),
            }
        } else if let Some(v) = arg.strip_prefix("--file=") {
            file = Some(PathBuf::from(v));
        } else if arg == "--smoke" {
            smoke = true;
        } else {
            return usage(&format!("unknown argument {arg:?}"));
        }
    }
    let path = file.unwrap_or_else(|| {
        results_dir().join(if smoke {
            "service_metrics_smoke.prom"
        } else {
            "service_metrics.prom"
        })
    });
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!(
                "obs_top: cannot read {} ({e}); run the service_campaign bin (or the suite) first",
                path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    println!("{}", path.display());
    print!("{}", render(&fold(&text)));
    ExitCode::SUCCESS
}

fn usage(error: &str) -> ExitCode {
    eprintln!("{error}");
    eprintln!("usage: obs_top [--file PATH] [--smoke]");
    ExitCode::FAILURE
}
