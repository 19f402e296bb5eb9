//! The obs collector is the one record of flash activity: every interface
//! call on every backend lands as exactly one `flash.<op>` count, and no
//! operation is counted twice (a block read is one `read_block`, not a
//! `read_block` plus per-word `read_word`s).

use flashmark_msp430::{Msp430Flash, Msp430Variant};
use flashmark_nor::{
    BulkStress, FlashController, FlashGeometry, FlashInterface, FlashTimings, ImprintTiming,
    PartialProgram, SegmentAddr,
};
use flashmark_obs::{collect, Collector, Metrics};
use flashmark_physics::{Micros, PhysicsParams};
use flashmark_reram::{ReramChip, ReramWordAdapter};

/// The interface calls [`drive`] makes, one each, by obs op name.
const SCRIPT: [&str; 8] = [
    "erase_segment",
    "program_word",
    "program_block",
    "read_word",
    "read_block",
    "partial_erase",
    "erase_until_clean",
    "bulk_imprint",
];

/// Runs [`SCRIPT`] on `seg` of `flash`, one call per entry.
fn drive<F: BulkStress>(flash: &mut F, seg: SegmentAddr) {
    let geometry = flash.geometry();
    let words = geometry.words_per_segment();
    let base = geometry.first_word(seg);
    flash.erase_segment(seg).unwrap();
    flash.program_word(base, 0x5443).unwrap();
    flash.program_block(seg, &vec![0u16; words]).unwrap();
    flash.read_word(base).unwrap();
    flash.read_block(seg).unwrap();
    flash.partial_erase(seg, Micros::new(20.0)).unwrap();
    flash.erase_until_clean(seg).unwrap();
    flash
        .bulk_imprint(seg, &vec![0u16; words], 1_000, ImprintTiming::Accelerated)
        .unwrap();
}

fn assert_one_count_per_call(metrics: &Metrics, ops: &[&str], backend: &str) {
    for op in ops {
        assert_eq!(metrics.counter("flash", op), 1, "{backend}: flash.{op}");
    }
    assert_eq!(
        metrics.group_total("flash"),
        ops.len() as u64,
        "{backend}: flash ops beyond the script were counted"
    );
}

#[test]
fn flash_controller_counts_each_call_once() {
    let mut ctl = FlashController::new(
        PhysicsParams::msp430_like(),
        FlashGeometry::single_bank(4),
        FlashTimings::msp430(),
        0x0ACC,
    );
    let seg = SegmentAddr::new(1);
    let ((), collector) = collect(Collector::new(0), || {
        drive(&mut ctl, seg);
        ctl.partial_program(seg, Micros::new(10.0)).unwrap();
        ctl.mass_erase().unwrap();
    });
    let mut ops = SCRIPT.to_vec();
    ops.extend(["partial_program", "mass_erase"]);
    assert_one_count_per_call(collector.metrics(), &ops, "FlashController");
}

#[test]
fn msp430_flash_counts_each_call_once() {
    let mut chip = Msp430Flash::new(Msp430Variant::F5529, 0x0ACC);
    let seg = chip.watermark_segment();
    let ((), collector) = collect(Collector::new(0), || drive(&mut chip, seg));
    assert_one_count_per_call(collector.metrics(), &SCRIPT, "Msp430Flash");
}

#[test]
fn reram_adapter_counts_each_call_once() {
    let mut adapter = ReramWordAdapter::new(ReramChip::new(FlashGeometry::single_bank(4), 0x0ACC));
    let ((), collector) = collect(Collector::new(0), || {
        drive(&mut adapter, SegmentAddr::new(1));
    });
    assert_one_count_per_call(collector.metrics(), &SCRIPT, "ReramWordAdapter");
}
