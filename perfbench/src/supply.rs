//! A traced replica of `PopulationSpec::build`, so the set-up rows
//! (`supply.*`) come from spans around `Manufacturer::produce` and
//! `simulate_field_use` rather than from inside the program.
//!
//! The replica repeats the build step for step — die-sort screening with
//! re-spins, metadata forgery, field use, cloning, re-branding — and the
//! traced run checks it against the service's population chip by chip.

use flashmark_bench::service_campaign::{campaign_config, CAMPAIGN_MANUFACTURER};
use flashmark_core::{CoreError, TestStatus, Verifier};
use flashmark_msp430::Msp430Variant;
use flashmark_nor::{FlashInterface, SegmentAddr};
use flashmark_physics::rng::mix2;
use flashmark_serve::{class, Population, PopulationSpec};
use flashmark_supply::counterfeiter::{simulate_field_use, CloneData, MetadataForge};
use flashmark_supply::{Attack, Chip, Manufacturer, Provenance};

use crate::trace::Tracer;

/// The replicated population plus the die-sort work it took.
#[derive(Debug)]
pub struct Replica {
    /// `(class, chip)` in `chip_id` order.
    pub chips: Vec<(&'static str, Chip)>,
    /// Chips that went through die-sort screening.
    pub screened: u64,
    /// `produce` calls those screened chips took, re-spins included.
    pub screen_produces: u64,
}

impl Replica {
    /// Chips whose class, provenance or simulated manufacturing time
    /// differs from the population's (0 when the replica is faithful).
    #[must_use]
    pub fn mismatches(&self, population: &Population) -> u64 {
        let differs = self
            .chips
            .iter()
            .zip(population.chips())
            .filter(|((class, chip), enrolled)| {
                *class != enrolled.class
                    || chip.provenance != enrolled.chip.provenance
                    || chip.flash.elapsed().get().to_bits()
                        != enrolled.chip.flash.elapsed().get().to_bits()
            })
            .count();
        differs as u64 + self.chips.len().abs_diff(population.len()) as u64
    }
}

struct ProductionLine<'t> {
    manufacturer: Manufacturer,
    verifier: Verifier,
    tracer: &'t mut Tracer,
    screened: u64,
    screen_produces: u64,
}

impl ProductionLine<'_> {
    fn produce(&mut self, seed: u64, status: TestStatus) -> Result<Chip, CoreError> {
        let m = &mut self.manufacturer;
        self.tracer
            .leaf("supply.produce", 0, || m.produce(seed, status))
    }

    /// Die sort: re-spin the die seed until the record decodes.
    fn screened(&mut self, seed: u64, status: TestStatus) -> Result<Chip, CoreError> {
        self.screened += 1;
        self.screen_produces += 1;
        let mut chip = self.produce(seed, status)?;
        for attempt in 1u64.. {
            let mut copy = chip.flash.clone();
            let seg = copy.watermark_segment();
            if self.verifier.verify(&mut copy, seg)?.record.is_some() {
                break;
            }
            self.screen_produces += 1;
            chip = self.produce(mix2(seed, attempt), status)?;
        }
        Ok(chip)
    }
}

/// Builds `spec`'s population the way `PopulationSpec::build` does, with a
/// span around every `produce` and `simulate_field_use` call.
///
/// # Errors
///
/// Imprint/flash errors from manufacturing or tampering.
pub fn replicate(spec: &PopulationSpec, tracer: &mut Tracer) -> Result<Replica, CoreError> {
    let config = campaign_config();
    let mut b = ProductionLine {
        manufacturer: Manufacturer::new(
            CAMPAIGN_MANUFACTURER,
            Msp430Variant::F5438,
            config.clone(),
        ),
        verifier: Verifier::new(config.clone(), CAMPAIGN_MANUFACTURER),
        tracer,
        screened: 0,
        screen_produces: 0,
    };
    let mut chips: Vec<(&'static str, Chip)> = Vec::with_capacity(spec.total());
    let chip_seed = |chip_id: usize| mix2(spec.seed, chip_id as u64);

    for _ in 0..spec.genuine {
        b.tracer.set_request(chips.len() as u64);
        let chip = b.screened(chip_seed(chips.len()), TestStatus::Accept)?;
        chips.push((class::GENUINE, chip));
    }
    for _ in 0..spec.fallout {
        b.tracer.set_request(chips.len() as u64);
        let mut chip = b.screened(chip_seed(chips.len()), TestStatus::Reject)?;
        MetadataForge.apply(&mut chip)?;
        chips.push((class::FALLOUT, chip));
    }
    for _ in 0..spec.recycled {
        b.tracer.set_request(chips.len() as u64);
        let mut chip = b.screened(chip_seed(chips.len()), TestStatus::Accept)?;
        for &seg in &spec.worn_segments {
            b.tracer.leaf("supply.field_use", 0, || {
                simulate_field_use(&mut chip, SegmentAddr::new(seg), spec.recycled_cycles)
            })?;
        }
        chip.provenance = Provenance::Recycled {
            prior_cycles: spec.recycled_cycles,
        };
        chips.push((class::RECYCLED, chip));
    }
    if spec.clones > 0 {
        b.tracer.set_request(chips.len() as u64);
        let mut donor = b.produce(mix2(spec.seed, 0xD0_00E5), TestStatus::Accept)?;
        let donor_bits = CloneData::harvest(&mut donor, 3)?;
        for _ in 0..spec.clones {
            let mut chip = Chip::fresh(
                Msp430Variant::F5438,
                chip_seed(chips.len()),
                Provenance::Clone,
            );
            CloneData {
                config: config.clone(),
                donor_bits: donor_bits.clone(),
            }
            .apply(&mut chip)?;
            chips.push((class::CLONE, chip));
        }
    }
    for _ in 0..spec.rebranded {
        let chip = Chip::fresh(
            Msp430Variant::F5529,
            chip_seed(chips.len()),
            Provenance::Rebranded,
        );
        chips.push((class::REBRANDED, chip));
    }
    Ok(Replica {
        chips,
        screened: b.screened,
        screen_produces: b.screen_produces,
    })
}
