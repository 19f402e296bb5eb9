//! The traced run: per-layer rows from a serial, span-timed replay.
//!
//! 1. Set-up builds the service and a traced replica of its population
//!    (`supply.*` rows), checked chip by chip against the service's.
//! 2. Traced phase: each lot is served at one thread (its wall time is
//!    `W1`), then replayed serially through the layers' public functions
//!    with a span around every call (`R`), records appended to a replica
//!    registry. The replica registry must equal the service's: same
//!    stats, same root digest.
//! 3. Untraced phase: lots served at the workload's thread count (`WT`),
//!    for `par.efficiency` and the tracing overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use flashmark_core::CoreError;
use flashmark_registry::Registry;
use flashmark_serve::{VerificationService, VerifyRequest};

use crate::e2e::accepted_counterfeits;
use crate::replay::ReplayCtx;
use crate::stats::{mean, median, quantile, ratio, RunResult};
use crate::supply::replicate;
use crate::trace::{self_times, to_jsonl, Span, Tracer};
use crate::workload::{
    build_service, repeat_share, serve_lot, service_config, shard_order, shard_spread, Workload,
};

/// Share of the run spent in the traced phase; the rest is untraced.
const TRACED_SHARE: f64 = 2.0 / 3.0;

/// Lots each phase runs at least.
const MIN_PHASE_LOTS: usize = 10;

/// Largest share of the traced lot wall time the replay may spend outside
/// any span before the attribution check fails.
const MAX_UNSPANNED_SHARE: f64 = 0.05;

/// Flash operations reported per layer, by span name suffix.
const NOR_OPS: [&str; 5] = [
    "erase_segment",
    "partial_erase",
    "program_block",
    "read_block",
    "erase_until_clean",
];

/// Directory the span and per-layer files are written to.
const OUT_DIR: &str = "perfbench/out";

/// The traced set-up: supply spans and die-sort counts.
struct Setup {
    tracer: Tracer,
    screened: u64,
    screen_produces: u64,
}

/// The traced phase: lot walls at one thread (`w1`), replay walls (`r`),
/// and the spans of the replays.
struct Traced {
    tracer: Tracer,
    lots: Vec<Vec<VerifyRequest>>,
    w1: Vec<f64>,
    r: Vec<f64>,
    ladder_rungs: u64,
    wall_s: f64,
}

/// The untraced phase: lot walls at the workload's thread count.
struct Untraced {
    wt: Vec<f64>,
    requests: u64,
    wall_s: f64,
}

/// Runs the traced replay of `workload` and reports every per-layer row.
///
/// # Errors
///
/// Manufacturing, channel, flash, or output-file errors.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<RunResult, CoreError> {
    let mut out = RunResult::default();
    let mut svc = build_service(workload, seed)?;
    let setup = traced_setup(workload, seed, &svc, &mut out)?;
    let (traced, next_lot) =
        traced_phase(&mut svc, workload, seed, seconds * TRACED_SHARE, &mut out)?;
    let untraced = untraced_phase(
        &mut svc,
        workload,
        seed,
        next_lot,
        seconds * (1.0 - TRACED_SHARE),
        &mut out,
    )?;
    out.fail(
        accepted_counterfeits(svc.registry().stats()),
        "counterfeit-class requests accepted",
    );
    push_layer_rows(&mut out, workload, seed, &setup, &traced, &untraced);

    let attribution = attribution(&traced);
    let unspanned = attribution
        .iter()
        .find(|(name, _)| *name == "replay.unspanned")
        .map_or(0.0, |&(_, share)| share);
    out.attempted += 1;
    out.fail(
        u64::from(unspanned.abs() > MAX_UNSPANNED_SHARE),
        format!("layer self times leave {unspanned:.4} of the traced lot wall unattributed"),
    );
    let sum_w1: f64 = traced.w1.iter().sum();
    println!(
        "attribution of the traced lot wall time ({} lots, {sum_w1:.3} s):",
        traced.w1.len()
    );
    for (name, share) in &attribution {
        println!("  {name:<24} {share:>8.4}");
    }
    let total: f64 = attribution.iter().map(|(_, s)| s).sum();
    println!("  {:<24} {total:>8.4}", "total");
    let requests = traced.lots.concat();
    let repeats = repeat_share(seed, &requests);
    println!(
        "property repeat_share = {repeats:.6} (of {} traced requests)",
        requests.len()
    );

    write_outputs(workload, seed, &setup, &traced, &out, &attribution, repeats)
        .map_err(|_| CoreError::Config("cannot write the trace output files"))?;
    Ok(out)
}

/// Replicates the service's population with supply spans and checks the
/// replica against it.
fn traced_setup(
    workload: Workload,
    seed: u64,
    svc: &VerificationService,
    out: &mut RunResult,
) -> Result<Setup, CoreError> {
    let mut tracer = Tracer::enabled();
    let replica = replicate(&workload.spec(seed), &mut tracer)?;
    out.attempted += replica.chips.len() as u64;
    out.fail(
        replica.mismatches(svc.population()),
        "supply replica differs from the service's population",
    );
    Ok(Setup {
        tracer,
        screened: replica.screened,
        screen_produces: replica.screen_produces,
    })
}

/// Serves a warm-up lot and then lots for `seconds`, each at one thread
/// and then replayed; returns the phase and the next lot index.
fn traced_phase(
    svc: &mut VerificationService,
    workload: Workload,
    seed: u64,
    seconds: f64,
    out: &mut RunResult,
) -> Result<(Traced, u64), CoreError> {
    let sender = svc.handle();
    let ctx = ReplayCtx::new(svc, seed)?;
    let cfg = service_config(seed);
    let shards = cfg.shards;
    let mut registry = Registry::new(cfg.registry);
    let mut t = Traced {
        tracer: Tracer::enabled(),
        lots: Vec::new(),
        w1: Vec::new(),
        r: Vec::new(),
        ladder_rungs: 0,
        wall_s: 0.0,
    };
    // Lot 0 warms up; it is replayed too, so the replica registry stays in
    // step, but its spans are dropped.
    let mut index = 0u64;
    let mut start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while index == 0 || start.elapsed() < budget || t.lots.len() < MIN_PHASE_LOTS {
        let lot = serve_lot(svc, &sender, workload, seed, index, 1)?;
        out.attempted += lot.requests.len() as u64;
        out.fail(
            lot.failures(),
            "traced lot: lost, unrecorded or duplicate requests",
        );
        // Replay in the service's one-thread order, then append in arrival
        // order, as `process_batch` does.
        let replay_start = Instant::now();
        let mut records = vec![None; lot.requests.len()];
        for i in shard_order(&lot.requests, shards) {
            records[i] = Some(
                ctx.replay(svc.population(), lot.requests[i], &mut t.tracer)?
                    .record,
            );
        }
        let records: Vec<_> = records.into_iter().flatten().collect();
        let rungs: u64 = records.iter().map(|r| u64::from(r.ladder_depth)).sum();
        for record in records {
            t.tracer.set_request(record.request_id);
            let id = t.tracer.enter("registry.append");
            let outcome = registry.append(record);
            t.tracer.exit(id);
            out.fail(
                u64::from(!outcome.recorded()),
                "replica registry refused a replayed record",
            );
        }
        if index == 0 {
            t.tracer.clear();
            start = Instant::now();
        } else {
            t.r.push(replay_start.elapsed().as_secs_f64());
            t.w1.push(lot.wall.as_secs_f64());
            t.ladder_rungs += rungs;
            t.lots.push(lot.requests);
        }
        index += 1;
    }
    t.wall_s = start.elapsed().as_secs_f64();
    out.attempted += 2;
    out.fail(
        u64::from(svc.registry().stats() != registry.stats()),
        "replayed (class, verdict, reason) tally differs from registry().stats()",
    );
    out.fail(
        u64::from(svc.registry().root() != registry.root()),
        "replica registry root differs from the service's",
    );
    Ok((t, index))
}

/// Serves lots from `index` on at the workload's thread count for
/// `seconds`, untraced.
fn untraced_phase(
    svc: &mut VerificationService,
    workload: Workload,
    seed: u64,
    mut index: u64,
    seconds: f64,
    out: &mut RunResult,
) -> Result<Untraced, CoreError> {
    let sender = svc.handle();
    let mut u = Untraced {
        wt: Vec::new(),
        requests: 0,
        wall_s: 0.0,
    };
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while start.elapsed() < budget || u.wt.len() < MIN_PHASE_LOTS {
        let lot = serve_lot(svc, &sender, workload, seed, index, workload.threads())?;
        index += 1;
        out.attempted += lot.requests.len() as u64;
        out.fail(
            lot.failures(),
            "untraced lot: lost, unrecorded or duplicate requests",
        );
        u.requests += lot.report.recorded;
        u.wt.push(lot.wall.as_secs_f64());
    }
    u.wall_s = start.elapsed().as_secs_f64();
    Ok(u)
}

/// Durations of the spans named `name`, in µs.
fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

fn op_spans<'a>(spans: &'a [Span], op: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    spans
        .iter()
        .filter(move |s| s.name.strip_prefix("nor.") == Some(op))
}

/// Every per-layer row, in `BENCHMARK.json` order.
fn push_layer_rows(
    out: &mut RunResult,
    workload: Workload,
    seed: u64,
    setup: &Setup,
    t: &Traced,
    u: &Untraced,
) {
    let spans = t.tracer.spans();
    let selfs = self_times(spans);
    let threads = workload.threads();
    let n_req = t.lots.iter().map(Vec::len).sum::<usize>() as f64;
    let (sum_w1, sum_r) = (t.w1.iter().sum::<f64>(), t.r.iter().sum::<f64>());
    let sum_wt: f64 = u.wt.iter().sum();
    let n = |v: &[f64]| format!("{} samples", v.len());

    let clone_us = durations_us(spans, "serve.clone");
    out.push("serve.clone_us.p50", "us", median(&clone_us), n(&clone_us));
    out.push(
        "serve.clone_us.p90",
        "us",
        quantile(&clone_us, 0.9),
        n(&clone_us),
    );
    out.push(
        "serve.residual_share",
        "ratio",
        1.0 - ratio(sum_r, sum_w1),
        format!(
            "1 - replayed work / lot wall at 1 thread, {} lots",
            t.w1.len()
        ),
    );
    out.push(
        "par.efficiency",
        "ratio",
        ratio(sum_r / n_req, threads as f64 * sum_wt / u.requests as f64),
        format!(
            "replayed work / ({threads} x lot wall), per request, {} untraced lots",
            u.wt.len()
        ),
    );
    let shards = service_config(seed).shards;
    let spreads: Vec<f64> = t.lots.iter().map(|lot| shard_spread(lot, shards)).collect();
    out.push(
        "par.shard_spread",
        "ratio",
        mean(&spreads),
        format!("mean over {} lots, {shards} shards", spreads.len()),
    );

    let verify_us = durations_us(spans, "core.verify");
    let verify_self_us: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "core.verify")
        .map(|(_, &own)| own as f64 / 1e3)
        .collect();
    out.push(
        "core.verify_us.p50",
        "us",
        median(&verify_us),
        n(&verify_us),
    );
    out.push(
        "core.verify_us.p90",
        "us",
        quantile(&verify_us, 0.9),
        n(&verify_us),
    );
    out.push(
        "core.verify_self_us.p50",
        "us",
        median(&verify_self_us),
        n(&verify_self_us),
    );
    out.push(
        "core.ladder_rungs.mean",
        "count",
        t.ladder_rungs as f64 / n_req,
        format!("{n_req} requests"),
    );
    let probe_us = durations_us(spans, "core.probe");
    out.push("core.probe_us.p50", "us", median(&probe_us), n(&probe_us));

    for op in &NOR_OPS[..4] {
        let per_cell: Vec<f64> = op_spans(spans, op)
            .map(|s| s.duration_ns() as f64 / s.cells.max(1) as f64)
            .collect();
        out.push(
            format!("nor.{op}.ns_per_cell"),
            "ns/cell",
            median(&per_cell),
            format!("median over {} calls", per_cell.len()),
        );
    }
    for op in NOR_OPS {
        let calls = op_spans(spans, op).count();
        out.push(
            format!("nor.{op}.calls_per_request"),
            "count",
            calls as f64 / n_req,
            format!("{calls} calls"),
        );
    }
    let flash_us: f64 = spans
        .iter()
        .filter(|s| s.name.starts_with("nor."))
        .map(|s| s.duration_ns() as f64 / 1e3)
        .sum();
    let request_us: f64 = durations_us(spans, "serve.request").iter().sum();
    out.push(
        "nor.flash_share",
        "ratio",
        ratio(flash_us, request_us),
        "flash-op spans / request spans".into(),
    );

    let mut collector: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "obs.collector") {
        *collector.entry(s.request_id).or_insert(0.0) += s.duration_ns() as f64 / 1e3;
    }
    let collector_us: Vec<f64> = collector.into_values().collect();
    out.push(
        "obs.collector_us.p50",
        "us",
        median(&collector_us),
        format!(
            "install + take + metrics + virtual_latency_of, {}",
            n(&collector_us)
        ),
    );
    let append_us = durations_us(spans, "registry.append");
    out.push(
        "registry.append_us.p50",
        "us",
        median(&append_us),
        n(&append_us),
    );
    out.push(
        "registry.append_us.p99",
        "us",
        quantile(&append_us, 0.99),
        n(&append_us),
    );
    out.push(
        "registry.serial_share",
        "ratio",
        ratio(append_us.iter().sum::<f64>() / 1e6, sum_w1),
        "append time / lot wall at 1 thread".into(),
    );

    let setup_spans = setup.tracer.spans();
    let produce_ms: Vec<f64> = durations_us(setup_spans, "supply.produce")
        .into_iter()
        .map(|us| us / 1e3)
        .collect();
    let field_use_ms: Vec<f64> = durations_us(setup_spans, "supply.field_use")
        .into_iter()
        .map(|us| us / 1e3)
        .collect();
    out.push(
        "supply.produce_ms.p50",
        "ms",
        median(&produce_ms),
        n(&produce_ms),
    );
    out.push(
        "supply.field_use_ms.p50",
        "ms",
        median(&field_use_ms),
        n(&field_use_ms),
    );
    out.push(
        "supply.screen_attempts.mean",
        "count",
        ratio(setup.screen_produces as f64, setup.screened as f64),
        format!(
            "{} produce calls for {} screened chips",
            setup.screen_produces, setup.screened
        ),
    );

    let untraced_rps = u.requests as f64 / u.wall_s;
    let traced_rps = n_req / t.wall_s;
    out.push(
        "trace.overhead_ratio",
        "ratio",
        ratio(untraced_rps, traced_rps),
        format!(
            "untraced {untraced_rps:.1} req/s at {threads} thread(s) / traced {traced_rps:.1} req/s"
        ),
    );
}

/// Each layer's share of the traced lot wall time: self times by span
/// name, the replay time outside any span, and the residual the service
/// spent outside the replayed work. The shares add up to 1.
fn attribution(t: &Traced) -> Vec<(&'static str, f64)> {
    let spans = t.tracer.spans();
    let (sum_w1, sum_r) = (t.w1.iter().sum::<f64>(), t.r.iter().sum::<f64>());
    let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
    }
    let spanned: f64 = by_name.values().sum();
    let mut rows: Vec<(&'static str, f64)> = by_name
        .into_iter()
        .map(|(name, secs)| (name, ratio(secs, sum_w1)))
        .collect();
    rows.push(("replay.unspanned", ratio(sum_r - spanned, sum_w1)));
    rows.push(("serve.residual", 1.0 - ratio(sum_r, sum_w1)));
    rows
}

/// Writes `<workload>.spans.jsonl` (every span) and `<workload>.layers.json`
/// (seed, rows, attribution, properties). Each traced run of a workload
/// replaces its files, so repeated runs do not pile up span logs.
fn write_outputs(
    workload: Workload,
    seed: u64,
    setup: &Setup,
    traced: &Traced,
    result: &RunResult,
    attribution: &[(&'static str, f64)],
    repeat_share: f64,
) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let stem = format!("{OUT_DIR}/{}", workload.name());
    let mut spans = to_jsonl("setup", setup.tracer.spans());
    spans.push_str(&to_jsonl("lots", traced.tracer.spans()));
    std::fs::write(format!("{stem}.spans.jsonl"), spans)?;

    let mut json = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {seed},\n  \"repeat_share\": {repeat_share:?},\n  \"layers\": {{",
        workload.name()
    );
    for (i, m) in result.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            json,
            "{sep}\n    \"{}\": {{\"value\": {:?}, \"unit\": \"{}\", \"note\": \"{}\"}}",
            m.name, m.value, m.unit, m.note
        );
    }
    json.push_str("\n  },\n  \"attribution\": {");
    for (i, (name, share)) in attribution.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(json, "{sep}\n    \"{name}\": {share:?}");
    }
    json.push_str("\n  }\n}\n");
    std::fs::write(format!("{stem}.layers.json"), json)
}
