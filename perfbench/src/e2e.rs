//! The untraced end-to-end run: set-up, one warm-up lot, then closed-loop
//! lots for the run length, all through `RequestSender::submit` and
//! `VerificationService::serve_drained`.

use std::time::{Duration, Instant};

use flashmark_core::CoreError;
use flashmark_registry::{RecordVerdict, ServiceStats};
use flashmark_serve::{class, VerificationService};

use crate::replay::ReplayCtx;
use crate::stats::{block_ranges, mean, median, quantile, ratio, RunResult};
use crate::trace::Tracer;
use crate::workload::{
    build_service, repeat_share, serve_lot, service_config, shard_spread, Workload,
};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Timed lots a run needs at least, so `lot_p90_ms` rests on at least ten
/// lots beyond it.
const MIN_LOTS: usize = 100;

/// Most blocks the lot-latency percentiles are split into. Each block
/// holds at least `MIN_LOTS` lots; the reported percentile is the median
/// of the blocks' percentiles.
const MAX_LATENCY_BLOCKS: usize = 10;

/// Blocks of consecutive timed lots; `throughput_rps` is the median of
/// the blocks' rates, so a burst of interference from outside the
/// process moves one block rather than the whole figure.
const THROUGHPUT_BLOCKS: usize = 10;

/// Requests from the start of the stream that are replayed after the timed
/// phase to measure `sim_inspect_ms` and to cross-check the service.
const SIM_REQUESTS: u64 = 1024;

/// Classes the service must never accept.
const COUNTERFEIT_CLASSES: [&str; 3] = [class::FALLOUT, class::CLONE, class::REBRANDED];

/// Requests of a counterfeit class the service accepted (each one fails
/// the correctness gate).
#[must_use]
pub fn accepted_counterfeits(stats: &ServiceStats) -> u64 {
    COUNTERFEIT_CLASSES
        .iter()
        .map(|c| stats.verdicts(c, RecordVerdict::Accept))
        .sum()
}

/// Builds the service `SETUP_REPEATS` times (dropping each before the
/// next, so peak memory holds one population) and returns the last one
/// with the median set-up time.
///
/// # Errors
///
/// Manufacturing errors.
fn timed_setup(workload: Workload, seed: u64) -> Result<(VerificationService, f64), CoreError> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut svc = None;
    for _ in 0..SETUP_REPEATS {
        drop(svc.take());
        let start = Instant::now();
        svc = Some(build_service(workload, seed)?);
        times.push(start.elapsed().as_secs_f64());
    }
    let svc = svc.ok_or(CoreError::Config("no set-up ran"))?;
    Ok((svc, median(&times)))
}

/// Runs the workload for `seconds` of timed lots and reports every
/// end-to-end metric.
///
/// # Errors
///
/// Manufacturing, channel, or flash errors (the caller reports them as a
/// failed run).
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<RunResult, CoreError> {
    let mut out = RunResult::default();
    let (mut svc, setup_s) = timed_setup(workload, seed)?;
    let sender = svc.handle();
    let threads = workload.threads();

    // Lots are numbered from the start of the stream; lot 0 is the warm-up.
    let mut checked = Vec::new();
    let mut lot_ms = Vec::new();
    let mut lot_recorded = Vec::new();
    let mut index = 0u64;
    let warm = serve_lot(&mut svc, &sender, workload, seed, index, threads)?;
    out.attempted += warm.requests.len() as u64;
    out.fail(
        warm.failures(),
        "warm-up lot: lost, unrecorded or duplicate requests",
    );
    checked.push((warm.requests, warm.report.stats));
    index += 1;

    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while start.elapsed() < budget || lot_ms.len() < MIN_LOTS {
        let lot = serve_lot(&mut svc, &sender, workload, seed, index, threads)?;
        index += 1;
        out.attempted += lot.requests.len() as u64;
        out.fail(
            lot.failures(),
            format!("lot {}: lost, unrecorded or duplicate requests", index - 1),
        );
        lot_recorded.push(lot.report.recorded as f64);
        lot_ms.push(lot.wall.as_secs_f64() * 1e3);
        if (checked.len() as u64) * workload.lot() < SIM_REQUESTS {
            checked.push((lot.requests, lot.report.stats));
        }
    }
    let timed_s = start.elapsed().as_secs_f64();
    let recorded: f64 = lot_recorded.iter().sum();
    let block_rps: Vec<f64> = block_ranges(lot_ms.len(), THROUGHPUT_BLOCKS)
        .into_iter()
        .map(|b| {
            lot_recorded[b.clone()].iter().sum::<f64>() / (lot_ms[b].iter().sum::<f64>() / 1e3)
        })
        .collect();
    let peak_rss_mib = peak_rss_mib();

    // Cross-check and simulated time: replay the first lots serially and
    // compare their tally with the service's own per-lot stats.
    let ctx = ReplayCtx::new(&svc, seed)?;
    let mut tracer = Tracer::disabled();
    let mut replayed_stats = ServiceStats::new();
    let mut served_stats = ServiceStats::new();
    let mut sim_ms = Vec::new();
    for (requests, stats) in &checked {
        served_stats.absorb(stats);
        for &req in requests {
            let r = ctx.replay(svc.population(), req, &mut tracer)?;
            replayed_stats.record(&r.record);
            sim_ms.push(r.sim_ms);
        }
    }
    out.attempted += 1;
    out.fail(
        u64::from(replayed_stats != served_stats),
        "replayed (class, verdict, reason) tally differs from the service's lot stats",
    );

    out.fail(
        accepted_counterfeits(svc.registry().stats()),
        "counterfeit-class requests accepted",
    );

    let lots = lot_ms.len();
    let latency_blocks = (lots / MIN_LOTS).clamp(1, MAX_LATENCY_BLOCKS);
    let block_quantile = |q: f64| {
        let per_block: Vec<f64> = block_ranges(lots, latency_blocks)
            .into_iter()
            .map(|b| quantile(&lot_ms[b], q))
            .collect();
        median(&per_block)
    };
    let latency_note = format!(
        "median over {latency_blocks} block(s) of {lots} lots of {} requests",
        workload.lot()
    );
    out.push(
        "setup_s",
        "s",
        setup_s,
        format!("median of {SETUP_REPEATS} builds of population + service"),
    );
    out.push(
        "throughput_rps",
        "req/s",
        median(&block_rps),
        format!(
            "median of {} blocks of {} lots; {recorded} requests recorded in {timed_s:.2} s, {threads} thread(s)",
            block_rps.len(),
            lot_ms.len() / block_rps.len()
        ),
    );
    out.push(
        "lot_p50_ms",
        "ms",
        block_quantile(0.5),
        latency_note.clone(),
    );
    out.push("lot_p90_ms", "ms", block_quantile(0.9), latency_note);
    out.push(
        "peak_rss_mib",
        "MiB",
        peak_rss_mib,
        "VmHWM of this process".into(),
    );
    out.push(
        "sim_inspect_ms",
        "sim_ms",
        mean(&sim_ms),
        format!(
            "mean simulated device time over the first {} requests",
            sim_ms.len()
        ),
    );

    print_properties(workload, seed, &svc, index);
    Ok(out)
}

/// Prints the quality rates and the workload properties of the `lots`
/// lots served so far (warm-up included). They describe the run and are
/// not part of the metrics: `false_reject_rate` is 0 in almost every run,
/// and `recycled_detect_rate` is undefined without probed recycled chips.
fn print_properties(workload: Workload, seed: u64, svc: &VerificationService, lots: u64) {
    let population = svc.population();
    let requests: Vec<_> = (0..lots)
        .flat_map(|i| workload.lot_requests(seed, i, population.len() as u64))
        .collect();
    let stats = svc.registry().stats();
    let genuine = class_requests(stats, class::GENUINE);
    let false_rejects = genuine - stats.verdicts(class::GENUINE, RecordVerdict::Accept);
    let probed_recycled = requests
        .iter()
        .filter(|r| {
            r.probe
                && population
                    .get(r.chip_id)
                    .is_some_and(|c| c.class == class::RECYCLED)
        })
        .count();
    let wear_rejects = stats
        .reason_breakdown()
        .find(|(reason, _)| *reason == "recycled_wear")
        .map_or(0, |(_, n)| n);
    let shards = service_config(seed).shards;
    let spreads: Vec<f64> = requests
        .chunks(workload.lot() as usize)
        .map(|lot| shard_spread(lot, shards))
        .collect();
    println!(
        "quality false_reject_rate = {:.6} ({false_rejects} of {genuine} genuine-class requests not accepted)",
        ratio(false_rejects as f64, genuine as f64)
    );
    println!(
        "quality recycled_detect_rate = {:.6} ({wear_rejects} recycled_wear rejects of {probed_recycled} probed recycled requests)",
        ratio(wear_rejects as f64, probed_recycled as f64)
    );
    println!(
        "property repeat_share = {:.6} (requests repeating an earlier (chip_id, probe segment) pair, of {})",
        repeat_share(seed, &requests),
        requests.len()
    );
    println!(
        "property par.shard_spread = {:.6} (mean over {} lots, {shards} shards)",
        mean(&spreads),
        spreads.len()
    );
}

/// Requests of `class` folded into `stats`, over every verdict.
fn class_requests(stats: &ServiceStats, class: &str) -> u64 {
    [
        RecordVerdict::Accept,
        RecordVerdict::Reject,
        RecordVerdict::Inconclusive,
    ]
    .into_iter()
    .map(|v| stats.verdicts(class, v))
    .sum()
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 when unavailable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
