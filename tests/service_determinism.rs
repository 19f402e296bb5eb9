//! The provenance service's fleet-scale determinism guarantees: any
//! `--threads N` produces a byte-identical registry, campaign artifact,
//! telemetry exposition, and trend-log record, and replaying a batch
//! never duplicates records.

use flashmark_bench::service_campaign::{
    build_campaign_service, campaign_request, summarize, ServiceCampaignOptions,
};
use flashmark_bench::trend::service_record;
use flashmark_core::FlashmarkConfig;
use flashmark_registry::json::ToJson as _;
use flashmark_registry::RegistryOptions;
use flashmark_serve::{PopulationSpec, ServiceConfig, VerificationService};

/// One thread count's run of the reduced campaign stream: every byte
/// surface that must be identical across `--threads` counts.
struct CampaignBytes {
    registry: String,
    artifact_json: String,
    exposition: String,
    trend_line: String,
    vlat_observations: u64,
}

/// Drives the reduced campaign stream at the given thread count.
fn run_campaign(threads: usize) -> CampaignBytes {
    let opts = ServiceCampaignOptions::tiny(threads);
    let mut service = build_campaign_service(opts.seed).expect("campaign service");
    let population = service.population().len() as u64;
    let handle = service.handle();
    let mut duplicates = 0u64;
    let mut done = 0u64;
    while done < opts.requests {
        let end = (done + opts.batch).min(opts.requests);
        for i in done..end {
            handle
                .submit(campaign_request(opts.seed, i, population))
                .expect("submit");
        }
        duplicates += service.serve_drained(threads).expect("serve").duplicates;
        done = end;
    }
    let data = summarize(&service, &opts, duplicates);
    assert_eq!(data.requests, opts.requests);
    assert_eq!(data.duplicates, 0, "clean stream must not deduplicate");
    CampaignBytes {
        registry: service.registry().contents(),
        exposition: service.telemetry().expose(),
        trend_line: service_record(&data).canonical_line(),
        vlat_observations: data.virtual_latency_histogram.iter().map(|b| b.count).sum(),
        artifact_json: data.to_json().pretty(),
    }
}

/// Tentpole guarantee: the registry file, `service_campaign` artifact,
/// telemetry exposition (including the ops-weighted virtual-latency
/// histograms), and the appended trend-log record are all byte-identical
/// at `--threads 1` (the exact serial path) and `--threads 8`.
#[test]
fn registry_and_artifact_identical_across_thread_counts() {
    let serial = run_campaign(1);
    let parallel = run_campaign(8);
    assert_eq!(
        serial.registry, parallel.registry,
        "registry file differs between --threads 1 and --threads 8"
    );
    assert_eq!(
        serial.artifact_json, parallel.artifact_json,
        "service_campaign artifact differs between --threads 1 and --threads 8"
    );
    assert_eq!(
        serial.exposition, parallel.exposition,
        "metrics exposition differs between --threads 1 and --threads 8"
    );
    assert_eq!(
        serial.trend_line, parallel.trend_line,
        "trend record differs between --threads 1 and --threads 8"
    );
    // The exposition actually carries the latency histograms (one
    // observation per request), not just empty scaffolding.
    assert_eq!(
        serial.vlat_observations,
        ServiceCampaignOptions::tiny(1).requests,
        "virtual-latency histogram must hold one observation per request"
    );
    assert!(
        serial
            .exposition
            .contains("service_virtual_latency_ops_bucket"),
        "exposition lacks virtual-latency buckets:\n{}",
        serial.exposition
    );

    // The bytes `Registry::write_to` persists are exactly `contents()`.
    let dir = std::env::temp_dir().join(format!(
        "flashmark_service_determinism_{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("registry.log");
    {
        let mut service = build_campaign_service(0x5E47).expect("campaign service");
        let population = service.population().len() as u64;
        let handle = service.handle();
        for i in 0..64u64 {
            handle
                .submit(campaign_request(0x5E47, i, population))
                .expect("submit");
        }
        service.serve_drained(8).expect("serve");
        let contents = service.registry().contents();
        let registry = service.into_registry();
        registry.write_to(&path).expect("write registry");
        let on_disk = std::fs::read_to_string(&path).expect("read registry");
        assert_eq!(on_disk, contents);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replaying the same batch is idempotent: the duplicate submissions are
/// rejected by request id, so the record count, root digest, and stats are
/// unchanged — no record is ever double-counted.
#[test]
fn replaying_a_batch_is_idempotent() {
    let config = FlashmarkConfig::builder()
        .n_pe(60_000)
        .replicas(5)
        .reads(1)
        .build()
        .expect("config");
    let population = PopulationSpec::tiny(0x1DEA)
        .build(&config, 0x7C01)
        .expect("population");
    let n = population.len() as u64;
    let mut cfg = ServiceConfig::new(config, 0x7C01, 0x1DEA);
    cfg.registry = RegistryOptions {
        seal_every: 64,
        retain_records: true,
    };
    let mut service = VerificationService::new(population, cfg).expect("service");
    let handle = service.handle();

    let submit_batch = |handle: &flashmark_serve::RequestSender| {
        for i in 0..200u64 {
            handle
                .submit(campaign_request(0x1DEA, i, n))
                .expect("submit");
        }
    };

    submit_batch(&handle);
    let first = service.serve_drained(4).expect("serve");
    assert_eq!(first.recorded, 200);
    assert_eq!(first.duplicates, 0);
    let root = service.registry().root();
    let records = service.registry().len();
    let contents = service.registry().contents();

    // The replay: every request id is already in the log.
    submit_batch(&handle);
    let replay = service.serve_drained(4).expect("serve replay");
    assert_eq!(replay.recorded, 0, "replayed records must not append");
    assert_eq!(replay.duplicates, 200);
    assert_eq!(
        service.registry().root(),
        root,
        "root digest changed on replay"
    );
    assert_eq!(service.registry().len(), records);
    assert_eq!(
        service.registry().contents(),
        contents,
        "registry bytes changed on replay"
    );
}
