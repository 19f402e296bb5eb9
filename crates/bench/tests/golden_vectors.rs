//! Golden-vector regression: re-runs the Fig. 5 extraction on its fixed
//! suite seed and pins every field against the committed
//! `results/fig05.json`. Any drift in the physics model, characterization,
//! or RNG plumbing shows up here as an exact-value mismatch rather than a
//! silently regenerated artifact.

use std::path::Path;

use flashmark_bench::experiments::fig05;
use flashmark_par::TrialRunner;
use flashmark_physics::Micros;
use flashmark_registry::json::{self, Json, ToJson as _};

#[test]
fn fig05_extraction_matches_committed_golden_vector() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/fig05.json");
    let text = std::fs::read_to_string(&committed)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", committed.display()));
    let doc = json::parse(&text).expect("fig05.json parses");
    let t_pew_us = doc.get("t_pew_us").and_then(Json::as_f64);
    let t_pew_us = t_pew_us.expect("fig05.json records its t_pew_us");

    // The exact suite invocation: seed 0xF1605, 50 kcycle stress, the
    // paper's 23 µs operating point. Serial runner — fig05 is one trial, so
    // the thread count is irrelevant, but pinning it keeps this test
    // independent of machine parallelism by construction.
    let runner = TrialRunner::with_threads(0xF1605, 1);
    let f5 = fig05(&runner, 50.0, Micros::new(t_pew_us)).unwrap();

    // Every field, compared as parsed values: floats exactly, counts as
    // exact integers.
    assert_eq!(f5.to_json(), doc);
}
