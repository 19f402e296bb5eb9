//! Reproducibility: the whole stack is deterministic given seeds.

use flashmark::core::{Extractor, FlashmarkConfig, Imprinter, Watermark};
use flashmark::msp430::Msp430Flash;
use flashmark::nor::SegmentAddr;
use flashmark::supply::{ScenarioConfig, SupplyChainScenario};
use std::collections::{BTreeMap, BTreeSet};

fn pipeline(seed: u64) -> Vec<bool> {
    let mut chip = Msp430Flash::f5438(seed);
    let seg = chip.watermark_segment();
    let cfg = FlashmarkConfig::builder()
        .n_pe(40_000)
        .replicas(3)
        .build()
        .unwrap();
    let wm = Watermark::from_ascii("DETERMINISM").unwrap();
    Imprinter::new(&cfg).imprint(&mut chip, seg, &wm).unwrap();
    Extractor::new(&cfg)
        .extract(&mut chip, seg, wm.len())
        .unwrap()
        .channel()
        .to_vec()
}

#[test]
fn same_seed_same_raw_channel() {
    assert_eq!(pipeline(0xD1), pipeline(0xD1));
}

#[test]
fn different_seed_different_raw_channel_noise() {
    // The decoded watermark should agree, but the raw per-cell channel
    // (which carries each chip's process variation) should not be
    // bit-identical between chips.
    let a = pipeline(0xD2);
    let b = pipeline(0xD3);
    assert_ne!(a, b, "two chips should differ somewhere in the raw channel");
}

#[test]
fn scenario_statistics_are_reproducible() {
    let s1 = SupplyChainScenario::new(ScenarioConfig::small(0x5EED))
        .run()
        .unwrap();
    let s2 = SupplyChainScenario::new(ScenarioConfig::small(0x5EED))
        .run()
        .unwrap();
    assert_eq!(format!("{s1}"), format!("{s2}"));
}

/// The wall-clock quarantine files: the only artifacts allowed to differ
/// between runs.
const TIMING_ARTIFACTS: [&str; 2] = ["obs_timings.json", "service_timings.json"];

/// The deterministic artifacts (`.json`, `.jsonl`, `.prom`, `.csv`) in `dir`,
/// by file name.
fn deterministic_artifacts(dir: &std::path::Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("results dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if path
            .extension()
            .is_some_and(|e| e == "json" || e == "jsonl" || e == "prom" || e == "csv")
            && !TIMING_ARTIFACTS.contains(&name.as_str())
        {
            files.insert(name, std::fs::read(&path).expect("artifact"));
        }
    }
    files
}

/// The parallel trial engine's core guarantee: a reduced-profile `run_all`
/// produces byte-identical JSON, `.jsonl`, `.prom`, and CSV artifacts at 1
/// worker thread (the exact legacy serial path) and at 8, and writes every
/// artifact the experiment table declares. The only exceptions are
/// `obs_timings.json` and `service_timings.json`, which exist precisely to
/// quarantine wall-clock measurements away from the deterministic
/// artifacts. `run_all --only` then rewrites a subset of the table
/// byte-identically, and writes nothing else.
#[test]
fn suite_json_artifacts_identical_across_thread_counts() {
    use flashmark_bench::suite::{
        run_selected, run_suite, select, Profile, SuiteOptions, EXPERIMENTS,
    };

    let base = std::env::temp_dir().join(format!("flashmark_determinism_{}", std::process::id()));
    let opts = |threads: usize, dir: &str| SuiteOptions {
        threads,
        profile: Profile::Smoke,
        results_dir: base.join(dir),
    };
    let mut artifacts: Vec<BTreeMap<String, Vec<u8>>> = Vec::new();
    for threads in [1usize, 8] {
        let opts = opts(threads, &format!("threads_{threads}"));
        let report = run_suite(&opts).expect("suite I/O");
        assert!(
            report.failures().is_empty(),
            "smoke suite failed at {threads} thread(s): {:?}",
            report.failures()
        );
        for artifact in EXPERIMENTS.iter().flat_map(|e| e.artifacts) {
            assert!(
                opts.results_dir.join(artifact).is_file(),
                "suite did not write {artifact}"
            );
        }
        let files = deterministic_artifacts(&opts.results_dir);
        assert!(
            files.contains_key("trend_log.jsonl") && files.contains_key("trend_report.json"),
            "suite did not append the trend log and drift report"
        );
        artifacts.push(files);
    }
    let (serial, parallel) = (&artifacts[0], &artifacts[1]);
    assert_eq!(
        serial.keys().collect::<Vec<_>>(),
        parallel.keys().collect::<Vec<_>>(),
        "thread counts produced different artifact sets"
    );
    for (name, bytes) in serial {
        assert_eq!(
            bytes, &parallel[name],
            "{name} differs between --threads 1 and --threads 8"
        );
    }

    let entries = select("fig11,nand_demo").expect("known names");
    let only = opts(8, "only");
    let report = run_selected(&only, &entries).expect("suite I/O");
    assert!(report.failures().is_empty(), "{:?}", report.failures());
    let written = deterministic_artifacts(&only.results_dir);
    let declared: Vec<&str> = entries.iter().flat_map(|e| e.artifacts).copied().collect();
    assert_eq!(
        written.keys().map(String::as_str).collect::<BTreeSet<_>>(),
        declared.into_iter().collect::<BTreeSet<_>>(),
        "--only wrote a different artifact set"
    );
    for (name, bytes) in &written {
        assert_eq!(bytes, &serial[name], "--only rewrote {name} differently");
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn experiments_are_reproducible() {
    use flashmark::core::SweepSpec;
    use flashmark::physics::Micros;
    let sweep = SweepSpec::new(Micros::new(20.0), Micros::new(40.0), Micros::new(10.0)).unwrap();
    let run = || {
        let mut chip = Msp430Flash::f5438(0x4E9);
        let cfg = FlashmarkConfig::builder()
            .n_pe(20_000)
            .replicas(1)
            .reads(1)
            .build()
            .unwrap();
        let wm = Watermark::from_bits(vec![false; 256]).unwrap();
        Imprinter::new(&cfg)
            .imprint(&mut chip, SegmentAddr::new(0), &wm)
            .unwrap();
        sweep
            .times()
            .iter()
            .map(|&t| {
                let c = FlashmarkConfig::builder()
                    .n_pe(1)
                    .replicas(1)
                    .reads(1)
                    .t_pew(t)
                    .build()
                    .unwrap();
                Extractor::new(&c)
                    .extract(&mut chip, SegmentAddr::new(0), wm.len())
                    .unwrap()
                    .ber_against(&wm)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
