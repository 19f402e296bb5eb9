//! Differential fault-injection campaign gate.
//!
//! Runs golden-vs-faulted verification over the fault grid and writes
//! `results/fault_campaign.json`. Exits nonzero if any fault schedule
//! flipped a reject into an accept, or made wear decrease — the two
//! invariants CI's `fault-smoke` job enforces.
//!
//! ```text
//! cargo run --release -p flashmark-bench --bin fault_campaign -- \
//!     --threads 8 --seed 42 [--smoke]
//! ```
//!
//! The artifact is a pure function of `--seed`: any `--threads` value
//! produces byte-identical JSON.

use std::process::ExitCode;

use flashmark_bench::fault_campaign::{fault_campaign, fault_campaign_trials, CAMPAIGN_SEED};
use flashmark_bench::output::{results_dir, write_json_in, Table};
use flashmark_bench::suite::Profile;
use flashmark_par::{threads_from_env_args, TrialRunner};

fn parse_seed() -> Result<u64, String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = if arg == "--seed" {
            args.next().ok_or("missing value after --seed")?
        } else if let Some(v) = arg.strip_prefix("--seed=") {
            v.to_owned()
        } else {
            continue;
        };
        return value.parse().map_err(|_| format!("bad --seed: {value:?}"));
    }
    Ok(CAMPAIGN_SEED)
}

fn run() -> Result<bool, Box<dyn std::error::Error>> {
    let threads = threads_from_env_args()?;
    let seed = parse_seed()?;
    let profile = if std::env::args().any(|a| a == "--smoke") {
        Profile::Smoke
    } else {
        Profile::Full
    };
    let runner = TrialRunner::with_threads(seed, threads);
    eprintln!(
        "fault_campaign: {} trials ({profile:?}), seed {seed}, {threads} thread(s) ...",
        fault_campaign_trials(profile)
    );

    let data = fault_campaign(&runner, profile)?;
    let mut table = Table::new([
        "scenario",
        "fault class",
        "golden OK",
        "faulted OK",
        "rej→acc",
        "acc→rej",
        "inconcl",
        "BER vs golden",
    ]);
    for r in &data.rows {
        table.row([
            r.scenario.to_string(),
            r.fault_class.to_string(),
            format!("{}/{}", r.golden_genuine, r.trials),
            format!("{}/{}", r.faulted_genuine, r.trials),
            r.reject_to_accept.to_string(),
            r.accept_to_reject.to_string(),
            r.inconclusive.to_string(),
            r.mean_ber_vs_golden
                .map_or_else(|| "—".into(), |b| format!("{:.3} %", b * 100.0)),
        ]);
    }
    println!("{}", table.render());

    let path = write_json_in(&results_dir(), "fault_campaign", &data)?;
    eprintln!("wrote {}", path.display());

    if data.invariants_hold() {
        println!(
            "fault campaign OK: 0 reject→accept flips, 0 wear decreases \
             across {} trials",
            fault_campaign_trials(profile)
        );
    } else {
        eprintln!(
            "FAULT CAMPAIGN INVARIANT VIOLATED: {} reject→accept flip(s), \
             {} wear decrease(s)",
            data.reject_to_accept_total, data.wear_decrease_total
        );
    }
    Ok(data.invariants_hold())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fault_campaign failed: {e}");
            ExitCode::FAILURE
        }
    }
}
