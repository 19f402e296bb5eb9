//! Replays one inspection request through each layer's public functions,
//! the way the service serves it, with a span around every layer call.
//!
//! The replay mirrors the service's per-request path step by step: clone
//! the enrolled flash state, install a metrics-only obs collector, run
//! `Verifier::verify`, run the wear probe on accepted probe requests,
//! harvest the collector, and draft the registry record. Its records must
//! reproduce the service's registry exactly; the gates in the runs check
//! that, so a replay that drifts from the service fails the benchmark
//! instead of timing something else.

use flashmark_bench::service_campaign::{campaign_config, CAMPAIGN_MANUFACTURER};
use flashmark_core::{
    CoreError, CounterfeitReason, InconclusiveReason, SegmentCondition, StressDetector, Verdict,
    Verifier,
};
use flashmark_nor::{FlashGeometry, FlashInterface, NorError, SegmentAddr, WordAddr};
use flashmark_obs::{install, take, virtual_latency_of, Collector, Metrics};
use flashmark_physics::{Micros, Seconds};
use flashmark_registry::{json_string, Record, RecordVerdict};
use flashmark_serve::service::SCHEME;
use flashmark_serve::{Population, VerificationService, VerifyRequest, COMMIT_TAG};

use crate::trace::Tracer;
use crate::workload::{probe_segment, service_config};

/// Partial-erase time the service's wear probe uses.
const PROBE_T_PEW_US: f64 = 23.0;

/// Programmed-cell fraction above which the probe calls a segment stressed.
const PROBE_THRESHOLD: f64 = 0.5;

/// A pass-through [`FlashInterface`] that records a span around every
/// flash operation it forwards. Every method delegates, `read_block`
/// included, so the wrapped device behaves exactly like the bare one.
#[derive(Debug)]
pub struct TimedFlash<'a, F> {
    inner: &'a mut F,
    tracer: &'a mut Tracer,
}

impl<'a, F: FlashInterface> TimedFlash<'a, F> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: &'a mut F, tracer: &'a mut Tracer) -> Self {
        Self { inner, tracer }
    }

    fn segment_cells(&self) -> u64 {
        self.inner.geometry().cells_per_segment() as u64
    }
}

impl<F: FlashInterface> FlashInterface for TimedFlash<'_, F> {
    fn geometry(&self) -> FlashGeometry {
        self.inner.geometry()
    }

    fn read_word(&mut self, word: WordAddr) -> Result<u16, NorError> {
        let Self { inner, tracer } = self;
        tracer.leaf("nor.read_word", 16, || inner.read_word(word))
    }

    fn program_word(&mut self, word: WordAddr, value: u16) -> Result<(), NorError> {
        let Self { inner, tracer } = self;
        tracer.leaf("nor.program_word", 16, || inner.program_word(word, value))
    }

    fn read_block(&mut self, seg: SegmentAddr) -> Result<Vec<u16>, NorError> {
        let cells = self.segment_cells();
        let Self { inner, tracer } = self;
        tracer.leaf("nor.read_block", cells, || inner.read_block(seg))
    }

    fn program_block(&mut self, seg: SegmentAddr, values: &[u16]) -> Result<(), NorError> {
        let cells = self.segment_cells();
        let Self { inner, tracer } = self;
        tracer.leaf("nor.program_block", cells, || {
            inner.program_block(seg, values)
        })
    }

    fn erase_segment(&mut self, seg: SegmentAddr) -> Result<(), NorError> {
        let cells = self.segment_cells();
        let Self { inner, tracer } = self;
        tracer.leaf("nor.erase_segment", cells, || inner.erase_segment(seg))
    }

    fn partial_erase(&mut self, seg: SegmentAddr, t_pe: Micros) -> Result<(), NorError> {
        let cells = self.segment_cells();
        let Self { inner, tracer } = self;
        tracer.leaf("nor.partial_erase", cells, || {
            inner.partial_erase(seg, t_pe)
        })
    }

    fn erase_until_clean(&mut self, seg: SegmentAddr) -> Result<Micros, NorError> {
        let cells = self.segment_cells();
        let Self { inner, tracer } = self;
        tracer.leaf("nor.erase_until_clean", cells, || {
            inner.erase_until_clean(seg)
        })
    }

    fn elapsed(&self) -> Seconds {
        self.inner.elapsed()
    }
}

/// One replayed request.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// The registry record the service drafts for the request.
    pub record: Record,
    /// Simulated device time the inspection took (`elapsed()` delta), ms.
    pub sim_ms: f64,
}

/// The read-only state a replay needs besides the population: the same
/// verifier, probe detector, probe seed and recipe string the service uses.
#[derive(Debug)]
pub struct ReplayCtx {
    verifier: Verifier,
    detector: StressDetector,
    seed: u64,
    params: String,
}

impl ReplayCtx {
    /// The replay context of `svc`, built with service seed `seed`.
    ///
    /// # Errors
    ///
    /// An invalid probe detector configuration.
    pub fn new(svc: &VerificationService, seed: u64) -> Result<Self, CoreError> {
        let cfg = service_config(seed);
        Ok(Self {
            verifier: Verifier::new(campaign_config(), CAMPAIGN_MANUFACTURER),
            detector: StressDetector::new(
                Micros::new(PROBE_T_PEW_US),
                cfg.probe_reads,
                PROBE_THRESHOLD,
            )?,
            seed,
            params: svc.params().to_string(),
        })
    }

    /// Serves `req` against `population` as the service does, recording a
    /// `serve.request` span with the layer spans nested inside it.
    ///
    /// # Errors
    ///
    /// An unenrolled chip, or flash/layout errors from verification.
    pub fn replay(
        &self,
        population: &Population,
        req: VerifyRequest,
        tr: &mut Tracer,
    ) -> Result<Replayed, CoreError> {
        tr.set_request(req.request_id);
        let top = tr.enter("serve.request");
        let out = self.replay_inner(population, req, tr);
        tr.exit(top);
        out
    }

    fn replay_inner(
        &self,
        population: &Population,
        req: VerifyRequest,
        tr: &mut Tracer,
    ) -> Result<Replayed, CoreError> {
        let enrolled = population
            .get(req.chip_id)
            .ok_or(CoreError::Config("request names an unenrolled chip"))?;
        let mut flash = tr.leaf("serve.clone", 0, || enrolled.chip.flash.clone());
        let seg = flash.watermark_segment();
        let sim_start = flash.elapsed().get();

        let prev = tr.leaf("obs.collector", 0, || {
            install(Collector::with_capacity(req.request_id, 0))
        });
        let served = self.inspect(&mut flash, seg, req, tr);
        let harvest = tr.leaf("obs.collector", 0, || {
            let collector = take().unwrap_or_else(|| Collector::with_capacity(req.request_id, 0));
            if let Some(p) = prev {
                install(p);
            }
            let metrics = collector.metrics();
            let ladder_depth = metrics.group_total("ladder") as u32;
            let retries = metrics.group_total("retry") as u32;
            std::hint::black_box(virtual_latency_of(metrics));
            (collector, ladder_depth, retries)
        });
        let (verdict, reason) = served?;
        let (collector, ladder_depth, retries) = harvest;

        Ok(Replayed {
            record: Record {
                request_id: req.request_id,
                chip_id: req.chip_id,
                class: enrolled.class.to_string(),
                scheme: SCHEME.to_string(),
                commit: COMMIT_TAG.to_string(),
                params: self.params.clone(),
                verdict,
                reason: reason.to_string(),
                metrics: canonical_metrics(collector.metrics()),
                ladder_depth,
                retries,
            },
            sim_ms: (flash.elapsed().get() - sim_start) * 1e3,
        })
    }

    /// Verification plus, for an accepted probe request, the wear probe.
    fn inspect<F: FlashInterface>(
        &self,
        flash: &mut F,
        seg: SegmentAddr,
        req: VerifyRequest,
        tr: &mut Tracer,
    ) -> Result<(RecordVerdict, &'static str), CoreError> {
        let id = tr.enter("core.verify");
        let report = self.verifier.verify(&mut TimedFlash::new(flash, tr), seg);
        tr.exit(id);
        let (mut verdict, mut reason) = map_verdict(report?.verdict);
        if req.probe && verdict == RecordVerdict::Accept {
            let probe_seg = probe_segment(self.seed, req.request_id);
            let id = tr.enter("core.probe");
            let probe = self
                .detector
                .classify(&mut TimedFlash::new(flash, tr), probe_seg);
            tr.exit(id);
            if probe?.verdict == SegmentCondition::Stressed {
                verdict = RecordVerdict::Reject;
                reason = "recycled_wear";
            }
        }
        Ok((verdict, reason))
    }
}

/// The service's (verdict, reason) mapping of a core verdict.
fn map_verdict(verdict: Verdict) -> (RecordVerdict, &'static str) {
    match verdict {
        Verdict::Genuine => (RecordVerdict::Accept, ""),
        Verdict::Counterfeit(reason) => (
            RecordVerdict::Reject,
            match reason {
                CounterfeitReason::NoWatermark => "no_watermark",
                CounterfeitReason::SignatureMismatch => "signature_mismatch",
                CounterfeitReason::RejectedDie => "rejected_die",
                CounterfeitReason::WrongManufacturer { .. } => "wrong_manufacturer",
            },
        ),
        Verdict::Inconclusive(reason) => (
            RecordVerdict::Inconclusive,
            match reason {
                InconclusiveReason::TransientFaults => "transient_faults",
                InconclusiveReason::RecharacterizationFailed => "recharacterization_failed",
                InconclusiveReason::FuzzyMatchMarginal => "fuzzy_match_marginal",
            },
        ),
    }
}

/// The service's canonical per-request metrics JSON: `"group.name": n`
/// counters in sorted order.
fn canonical_metrics(metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .counters()
        .map(|(group, name, n)| format!("{}:{n}", json_string(&format!("{group}.{name}"))))
        .collect();
    format!("{{{}}}", fields.join(","))
}
