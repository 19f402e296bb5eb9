//! The three inspection workloads and the closed-loop client that drives
//! them through the service's public API.
//!
//! Every workload uses the campaign recipe (`campaign_config`) and the
//! registry options of `build_campaign_service`; only the enrolled
//! population, the request stream, the lot size and the worker threads
//! differ. Populations and request streams are pure functions of the seed.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use flashmark_bench::service_campaign::{
    campaign_config, campaign_request, CAMPAIGN_MANUFACTURER, CAMPAIGN_SEAL_EVERY,
};
use flashmark_core::CoreError;
use flashmark_nor::SegmentAddr;
use flashmark_physics::rng::mix2;
use flashmark_registry::RegistryOptions;
use flashmark_serve::{
    BatchReport, PopulationSpec, RequestSender, ServiceConfig, VerificationService, VerifyRequest,
    PROBE_WINDOW_SEGMENTS,
};
use flashmark_supply::sampled_probe_segments;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The campaign's production mix: 120 chips of all five classes, one
    /// request in four probed, lots of 64 over two threads.
    LotMixed,
    /// Single-part inspection of 120 genuine chips, no probes, one request
    /// per lot on one thread.
    InspectGenuine,
    /// 32 worn recycled chips, every request probed, lots of 32 over two
    /// threads.
    ProbeRecycled,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Self; 3] = [Self::LotMixed, Self::InspectGenuine, Self::ProbeRecycled];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::LotMixed => "lot_mixed",
            Self::InspectGenuine => "inspect_genuine",
            Self::ProbeRecycled => "probe_recycled",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests per lot (one `serve_drained` call).
    #[must_use]
    pub fn lot(self) -> u64 {
        match self {
            Self::LotMixed => 64,
            Self::InspectGenuine => 1,
            Self::ProbeRecycled => 32,
        }
    }

    /// Worker threads the service shards a lot across.
    #[must_use]
    pub fn threads(self) -> usize {
        match self {
            Self::InspectGenuine => 1,
            Self::LotMixed | Self::ProbeRecycled => 2,
        }
    }

    /// The enrolled population.
    #[must_use]
    pub fn spec(self, seed: u64) -> PopulationSpec {
        let campaign = PopulationSpec::campaign(seed);
        let only = |genuine, recycled| PopulationSpec {
            genuine,
            fallout: 0,
            recycled,
            clones: 0,
            rebranded: 0,
            ..PopulationSpec::campaign(seed)
        };
        match self {
            Self::LotMixed => campaign,
            Self::InspectGenuine => only(120, 0),
            Self::ProbeRecycled => only(0, 32),
        }
    }

    /// The request at stream position `i`: the campaign's uniform chip
    /// pick, with the probe flag set by the workload.
    #[must_use]
    pub fn request(self, seed: u64, i: u64, population: u64) -> VerifyRequest {
        let req = campaign_request(seed, i, population);
        match self {
            Self::LotMixed => req,
            Self::InspectGenuine => VerifyRequest {
                probe: false,
                ..req
            },
            Self::ProbeRecycled => VerifyRequest { probe: true, ..req },
        }
    }

    /// The requests of lot `index` (stream positions `index * lot ..`).
    #[must_use]
    pub fn lot_requests(self, seed: u64, index: u64, population: u64) -> Vec<VerifyRequest> {
        let start = index * self.lot();
        (start..start + self.lot())
            .map(|i| self.request(seed, i, population))
            .collect()
    }
}

/// The service configuration `build_campaign_service` uses.
#[must_use]
pub fn service_config(seed: u64) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(campaign_config(), CAMPAIGN_MANUFACTURER, seed);
    cfg.registry = RegistryOptions {
        seal_every: CAMPAIGN_SEAL_EVERY,
        retain_records: false,
    };
    cfg
}

/// Set-up: builds the workload's population and the service around it.
///
/// # Errors
///
/// Imprint/flash errors from manufacturing.
pub fn build_service(workload: Workload, seed: u64) -> Result<VerificationService, CoreError> {
    let population = workload
        .spec(seed)
        .build(&campaign_config(), CAMPAIGN_MANUFACTURER)?;
    VerificationService::new(population, service_config(seed))
}

/// The segment the service probes for request `request_id`.
#[must_use]
pub fn probe_segment(seed: u64, request_id: u64) -> SegmentAddr {
    sampled_probe_segments(PROBE_WINDOW_SEGMENTS, 1, mix2(seed, request_id))[0]
}

/// One lot served through the channel front end.
#[derive(Debug)]
pub struct ServedLot {
    /// The lot's requests, in submission order.
    pub requests: Vec<VerifyRequest>,
    /// From the first `submit` until `serve_drained` returned.
    pub wall: Duration,
    /// The service's report for the lot.
    pub report: BatchReport,
}

impl ServedLot {
    /// Requests of the lot that failed the gate: not recorded, recorded
    /// twice, or lost between `submit` and the drain.
    #[must_use]
    pub fn failures(&self) -> u64 {
        let r = &self.report;
        let lost = (self.requests.len() as u64).abs_diff(r.submitted);
        lost + r.submitted.abs_diff(r.recorded) + r.duplicates
    }
}

/// Submits lot `index` request by request and serves it on `threads`
/// workers. The lot's requests are generated before the clock starts.
///
/// # Errors
///
/// A closed channel, or flash/layout errors from verification.
pub fn serve_lot(
    svc: &mut VerificationService,
    sender: &RequestSender,
    workload: Workload,
    seed: u64,
    index: u64,
    threads: usize,
) -> Result<ServedLot, CoreError> {
    let requests = workload.lot_requests(seed, index, svc.population().len() as u64);
    let start = Instant::now();
    for &req in &requests {
        sender.submit(req)?;
    }
    let report = svc.serve_drained(threads)?;
    Ok(ServedLot {
        requests,
        wall: start.elapsed(),
        report,
    })
}

/// Share of requests whose (`chip_id`, probe segment) pair repeats an
/// earlier request's; a request without a probe has no probe segment.
#[must_use]
pub fn repeat_share(seed: u64, requests: &[VerifyRequest]) -> f64 {
    let mut seen = BTreeSet::new();
    let repeats = requests
        .iter()
        .filter(|r| {
            let seg = r.probe.then(|| probe_segment(seed, r.request_id).index());
            !seen.insert((r.chip_id, seg))
        })
        .count();
    repeats as f64 / requests.len().max(1) as f64
}

/// Positions of `requests` in the order the service handles them on one
/// thread: shard by shard (`chip_id % shards`), arrival order within a
/// shard.
#[must_use]
pub fn shard_order(requests: &[VerifyRequest], shards: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| (requests[i].chip_id % shards.max(1) as u64, i));
    order
}

/// Max ÷ mean requests per non-empty shard (`chip_id % shards`) of one
/// lot: 1 when the lot spreads evenly.
#[must_use]
pub fn shard_spread(requests: &[VerifyRequest], shards: usize) -> f64 {
    let shards = shards.max(1);
    let mut per_shard = vec![0u64; shards];
    for r in requests {
        per_shard[(r.chip_id % shards as u64) as usize] += 1;
    }
    let busy: Vec<u64> = per_shard.into_iter().filter(|&n| n > 0).collect();
    let max = busy.iter().copied().max().unwrap_or(0) as f64;
    let mean = busy.iter().sum::<u64>() as f64 / busy.len().max(1) as f64;
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn request_streams_follow_the_workload() {
        let genuine: Vec<_> = (0..64)
            .map(|i| Workload::InspectGenuine.request(5, i, 120))
            .collect();
        assert!(genuine.iter().all(|r| !r.probe));
        let recycled: Vec<_> = (0..64)
            .map(|i| Workload::ProbeRecycled.request(5, i, 32))
            .collect();
        assert!(recycled.iter().all(|r| r.probe && r.chip_id < 32));
        let mixed = Workload::LotMixed.lot_requests(5, 3, 120);
        assert_eq!(mixed[0].request_id, 3 * 64);
        assert_eq!(mixed[0], campaign_request(5, 3 * 64, 120));
    }

    #[test]
    fn shard_spread_of_an_even_lot_is_one() {
        let even: Vec<_> = (0..32)
            .map(|i| VerifyRequest {
                request_id: i,
                chip_id: i,
                probe: false,
            })
            .collect();
        assert!((shard_spread(&even, 16) - 1.0).abs() < 1e-12);
        assert!((shard_spread(&even[..1], 16) - 1.0).abs() < 1e-12);
        let skewed: Vec<_> = [0, 0, 0, 1]
            .into_iter()
            .enumerate()
            .map(|(i, chip_id)| VerifyRequest {
                request_id: i as u64,
                chip_id,
                probe: false,
            })
            .collect();
        assert!((shard_spread(&skewed, 16) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn shard_order_groups_by_shard_then_arrival() {
        let reqs: Vec<_> = [17, 1, 2, 33]
            .into_iter()
            .enumerate()
            .map(|(i, chip_id)| VerifyRequest {
                request_id: i as u64,
                chip_id,
                probe: false,
            })
            .collect();
        assert_eq!(shard_order(&reqs, 16), vec![0, 1, 3, 2]);
    }

    #[test]
    fn repeat_share_counts_repeated_pairs() {
        let reqs: Vec<_> = [3, 3, 4, 3]
            .into_iter()
            .enumerate()
            .map(|(i, chip_id)| VerifyRequest {
                request_id: i as u64,
                chip_id,
                probe: false,
            })
            .collect();
        assert!((repeat_share(1, &reqs) - 0.5).abs() < 1e-12);
    }
}
