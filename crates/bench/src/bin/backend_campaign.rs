//! Scheme-generic differential backend campaign.
//!
//! Runs the genuine / rejected-die / blank / cloned scenario grid through
//! every [`WatermarkScheme`] backend — NOR tPEW, intrinsic NAND PUF, and
//! ReRAM forming-voltage wear — and writes the comparison artifact:
//!
//! * `results/backend_campaign.json` (or `backend_campaign_smoke.json`
//!   with `--smoke`) — per-trial rows plus per-scheme summaries: verdict
//!   mix, genuine-vs-forgery mismatch asymmetry, imprint cost, and the
//!   per-scheme provenance-registry root. Byte-identical at any
//!   `--threads` count.
//! * `results/trend_log.jsonl` + `results/trend_report.json` — one
//!   `"backend"` record per scheme is appended so `trend_check` gates
//!   detection drift per backend independently.
//!
//! Wall clock goes to stderr only; the artifact stays deterministic.
//!
//! ```text
//! cargo run --release -p flashmark-bench --bin backend_campaign -- \
//!     --threads 8 [--smoke]
//! ```
//!
//! [`WatermarkScheme`]: flashmark_core::WatermarkScheme

use std::process::ExitCode;
use std::time::Instant;

use flashmark_bench::backend_campaign::{run_backend_campaign, BackendCampaignOptions};
use flashmark_bench::output::{results_dir, write_json_in, Table};
use flashmark_bench::trend::{append_and_report, backend_trend_record};
use flashmark_par::threads_from_env_args;

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let threads = threads_from_env_args()?;
    let smoke = std::env::args().any(|a| a == "--smoke");
    let opts = if smoke {
        BackendCampaignOptions::smoke(threads)
    } else {
        BackendCampaignOptions::full(threads)
    };
    let artifact = if smoke {
        "backend_campaign_smoke"
    } else {
        "backend_campaign"
    };
    eprintln!(
        "backend_campaign: {} trials/scenario, seed {}, {} thread(s) ...",
        opts.trials, opts.seed, threads
    );

    let t0 = Instant::now();
    let data = run_backend_campaign(&opts)?;
    let wall_s = t0.elapsed().as_secs_f64();

    let mut table = Table::new([
        "scheme",
        "imprints",
        "expected",
        "genuine mism",
        "forgery mism",
        "margin",
        "imprint cycles",
    ]);
    for s in &data.schemes {
        table.row([
            s.scheme.clone(),
            if s.imprints { "yes" } else { "no" }.into(),
            format!("{}/{}", s.expected_matches, s.trials),
            format!("{:.4}", s.mean_genuine_mismatch),
            format!("{:.4}", s.mean_counterfeit_mismatch),
            format!("{:.4}", s.forgery_margin),
            s.imprint_cycles.to_string(),
        ]);
    }
    println!("{}", table.render());
    for s in &data.schemes {
        println!(
            "{}: registry root {} over {} records",
            s.scheme, s.registry_root, s.registry_records
        );
    }

    let dir = results_dir();
    let path = write_json_in(&dir, artifact, &data)?;
    println!("wrote {}", path.display());

    let mut report = None;
    for summary in &data.schemes {
        report = Some(append_and_report(
            &dir,
            backend_trend_record(&data, summary),
        )?);
    }
    if let Some(report) = report {
        println!(
            "trend: {} run(s) on record; drift gates {} ({} failure(s), {} warning(s))",
            report.records,
            if report.passed() { "passed" } else { "FAILED" },
            report.failures.len(),
            report.warnings.len()
        );
    }
    eprintln!("backend_campaign: done in {wall_s:.1} s");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("backend_campaign: {e}");
            ExitCode::FAILURE
        }
    }
}
