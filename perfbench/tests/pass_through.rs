//! The benchmark times layers from outside the program, so its wrappers
//! and replays must not change what the program does.

use flashmark_bench::service_campaign::{campaign_config, CAMPAIGN_MANUFACTURER};
use flashmark_core::{StressDetector, Verifier};
use flashmark_nor::{FlashInterface, SegmentAddr};
use flashmark_obs::{install, take, Collector};
use flashmark_perfbench::replay::{ReplayCtx, TimedFlash};
use flashmark_perfbench::trace::Tracer;
use flashmark_perfbench::workload::{service_config, Workload};
use flashmark_physics::Micros;
use flashmark_registry::Registry;
use flashmark_serve::{class, PopulationSpec, VerificationService};

type Observed = (String, Vec<(&'static str, &'static str, u64)>, u64, usize);

/// Runs `op` on a fresh copy of `flash`, bare or wrapped, and returns the
/// outcome, the obs counters, the simulated time and the spans recorded.
fn observe<F, T: std::fmt::Debug>(
    flash: &F,
    wrapped: bool,
    op: impl Fn(&mut dyn FlashInterface) -> T,
) -> Observed
where
    F: FlashInterface + Clone,
{
    let mut copy = flash.clone();
    let mut tracer = Tracer::enabled();
    let prev = install(Collector::with_capacity(0, 0));
    let outcome = if wrapped {
        op(&mut TimedFlash::new(&mut copy, &mut tracer))
    } else {
        op(&mut copy)
    };
    let collector = take().expect("collector installed above");
    if let Some(p) = prev {
        install(p);
    }
    let counters = collector.metrics().counters().collect();
    (
        format!("{outcome:?}"),
        counters,
        copy.elapsed().get().to_bits(),
        tracer.spans().len(),
    )
}

#[test]
fn timed_flash_leaves_verify_and_probe_unchanged_on_every_class() {
    let config = campaign_config();
    let population = PopulationSpec::tiny(0xBEEF)
        .build(&config, CAMPAIGN_MANUFACTURER)
        .unwrap();
    let verifier = Verifier::new(config, CAMPAIGN_MANUFACTURER);
    let detector = StressDetector::new(Micros::new(23.0), 1, 0.5).unwrap();
    let mut classes = Vec::new();
    for chip in population.chips() {
        classes.push(chip.class);
        let flash = &chip.chip.flash;
        let seg = flash.watermark_segment();
        let verify = |mut f: &mut dyn FlashInterface| verifier.verify(&mut f, seg).unwrap().verdict;
        let bare = observe(flash, false, verify);
        let wrapped = observe(flash, true, verify);
        assert_eq!(bare.0, wrapped.0, "{}: verdict differs", chip.class);
        assert_eq!(bare.1, wrapped.1, "{}: op counts differ", chip.class);
        assert_eq!(bare.2, wrapped.2, "{}: elapsed() differs", chip.class);
        assert_eq!(bare.3, 0);
        let flash_ops: u64 = wrapped
            .1
            .iter()
            .filter(|(group, _, _)| *group == "flash")
            .map(|&(_, _, n)| n)
            .sum();
        assert_eq!(
            wrapped.3 as u64, flash_ops,
            "{}: one span per op",
            chip.class
        );

        // A worn segment of the recycled chip, a fresh one elsewhere.
        let probe = |mut f: &mut dyn FlashInterface| {
            detector.classify(&mut f, SegmentAddr::new(4)).unwrap()
        };
        let bare = observe(flash, false, probe);
        let wrapped = observe(flash, true, probe);
        assert_eq!(bare.0, wrapped.0, "{}: probe report differs", chip.class);
        assert_eq!(bare.1, wrapped.1, "{}: probe op counts differ", chip.class);
        assert_eq!(bare.2, wrapped.2, "{}: probe elapsed() differs", chip.class);
    }
    classes.sort_unstable();
    classes.dedup();
    assert_eq!(classes.len(), 5, "every provenance class covered");
}

#[test]
fn replay_reproduces_the_service_registry() {
    let seed = 0x5E47;
    let population = PopulationSpec::tiny(seed)
        .build(&campaign_config(), CAMPAIGN_MANUFACTURER)
        .unwrap();
    let n = population.len() as u64;
    let mut svc = VerificationService::new(population, service_config(seed)).unwrap();
    let ctx = ReplayCtx::new(&svc, seed).unwrap();
    let mut replica = Registry::new(service_config(seed).registry);
    let mut tracer = Tracer::enabled();
    for index in 0..3 {
        let lot = Workload::LotMixed.lot_requests(seed, index, n);
        let report = svc.process_batch(&lot, 2).unwrap();
        assert_eq!(report.recorded, lot.len() as u64);
        for &req in &lot {
            let r = ctx.replay(svc.population(), req, &mut tracer).unwrap();
            assert!(r.sim_ms > 0.0);
            assert!(replica.append(r.record).recorded());
        }
    }
    assert_eq!(svc.registry().stats(), replica.stats());
    assert_eq!(svc.registry().root(), replica.root());
    assert!(
        svc.registry()
            .stats()
            .verdicts(class::GENUINE, flashmark_registry::RecordVerdict::Accept)
            > 0
    );
    let requests = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "serve.request")
        .count();
    assert_eq!(requests, 3 * 64);
    assert!(tracer.spans().iter().all(|s| s.end_ns >= s.start_ns));
}
