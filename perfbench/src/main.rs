#![forbid(unsafe_code)]
//! `flashmark-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric (name, value, unit, how it was measured),
//! then, as the last line, the JSON result. Exits 1 when a correctness
//! gate fails or the run errors, 2 on a usage error.

use std::process::ExitCode;

use flashmark_perfbench::workload::Workload;
use flashmark_perfbench::{e2e, traced};

const USAGE: &str = "usage: flashmark-perfbench --workload <lot_mixed|inspect_genuine|probe_recycled> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad(()))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad(()))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(())),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "workload {} seed {} seconds {} trace {} lot {} threads {} available_parallelism {cores}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.lot(),
        args.workload.threads(),
    );
    let run = if args.trace { traced::run } else { e2e::run };
    let result = match run(args.workload, args.seed, args.seconds) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::from(1);
        }
    };
    for m in &result.metrics {
        println!(
            "metric {:<36} {:>16.6} {:<8} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for why in &result.failures {
        eprintln!("FAILED: {why}");
    }
    println!("{}", result.json_line());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
