//! Deterministic verification-service load generator.
//!
//! Streams verify requests (1 M by default; 10 k with `--smoke`) through
//! the channel front end of the sharded verification service and writes
//! the registry summary:
//!
//! * `results/service_campaign.json` (or `service_campaign_smoke.json`
//!   with `--smoke`) — verdict mix per provenance class, retry-ladder,
//!   transient-retry and virtual-latency histograms, reason breakdown,
//!   telemetry gauges/counters, registry root digest. Byte-identical at
//!   any `--threads` count.
//! * `results/service_metrics.prom` (or `service_metrics_smoke.prom`) —
//!   the telemetry snapshot in Prometheus text exposition format (the
//!   `obs_top` bin renders it as a per-shard table).
//! * `results/trend_log.jsonl` + `results/trend_report.json` — the run is
//!   appended to the cross-run trend log and the drift report recomputed
//!   (the `trend_check` bin gates on it).
//! * `results/service_timings.json` — wall clock and throughput,
//!   quarantined so the campaign artifact stays deterministic.
//!
//! ```text
//! cargo run --release -p flashmark-bench --bin service_campaign -- \
//!     --threads 8 [--smoke] [--requests N]
//! ```

use std::process::ExitCode;
use std::time::Instant;

use flashmark_bench::output::{results_dir, write_json_in, Table};
use flashmark_bench::service_campaign::{
    run_service_campaign, ServiceCampaignOptions, ServiceTimings,
};
use flashmark_bench::trend::{append_and_report, service_record};
use flashmark_par::threads_from_env_args;

fn parse_requests() -> Result<Option<u64>, String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = if arg == "--requests" {
            args.next().ok_or("missing value after --requests")?
        } else if let Some(v) = arg.strip_prefix("--requests=") {
            v.to_owned()
        } else {
            continue;
        };
        return value
            .parse()
            .map(Some)
            .map_err(|_| format!("bad --requests: {value:?}"));
    }
    Ok(None)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let threads = threads_from_env_args()?;
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut opts = if smoke {
        ServiceCampaignOptions::smoke(threads)
    } else {
        ServiceCampaignOptions::full(threads)
    };
    if let Some(requests) = parse_requests()? {
        opts.requests = requests;
        opts.batch = opts.batch.min(requests.max(1));
    }
    let artifact = if smoke {
        "service_campaign_smoke"
    } else {
        "service_campaign"
    };
    eprintln!(
        "service_campaign: {} requests, seed {}, {} thread(s) ...",
        opts.requests, opts.seed, threads
    );

    let t0 = Instant::now();
    let mut last_pct = 0u64;
    let run = run_service_campaign(&opts, |done| {
        let pct = done * 100 / opts.requests.max(1);
        if pct >= last_pct + 10 || done == opts.requests {
            eprintln!("  {done}/{} ({pct}%)", opts.requests);
            last_pct = pct;
        }
    })?;
    let wall_s = t0.elapsed().as_secs_f64();
    let data = run.data;

    let mut table = Table::new(["class", "verdict", "count", "per 1M"]);
    for row in &data.verdict_mix {
        table.row([
            row.class.clone(),
            row.verdict.to_string(),
            row.count.to_string(),
            format!("{:.0}", row.per_million),
        ]);
    }
    println!("{}", table.render());
    println!(
        "registry root {} over {} records in {} seals; {} duplicates",
        data.registry_root, data.registry_records, data.registry_seals, data.duplicates
    );

    let dir = results_dir();
    let path = write_json_in(&dir, artifact, &data)?;
    println!("wrote {}", path.display());

    let prom = dir.join(if smoke {
        "service_metrics_smoke.prom"
    } else {
        "service_metrics.prom"
    });
    std::fs::write(&prom, &run.exposition)?;
    println!("wrote {}", prom.display());

    let report = append_and_report(&dir, service_record(&data))?;
    println!(
        "trend: {} run(s) on record; drift gates {} ({} failure(s), {} warning(s))",
        report.records,
        if report.passed() { "passed" } else { "FAILED" },
        report.failures.len(),
        report.warnings.len()
    );

    let timings = ServiceTimings {
        threads,
        requests: data.requests,
        wall_s,
        requests_per_s: data.requests as f64 / wall_s.max(1e-9),
    };
    let tpath = write_json_in(&dir, "service_timings", &timings)?;
    println!(
        "wrote {} ({:.0} requests/s over {:.1} s)",
        tpath.display(),
        timings.requests_per_s,
        wall_s
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("service_campaign: {e}");
            ExitCode::FAILURE
        }
    }
}
