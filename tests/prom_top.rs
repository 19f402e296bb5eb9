//! The `obs_top` exposition reader must never panic on hostile input: a
//! `.prom` file is read back from disk, so any byte sequence can reach it.

use flashmark_bench::top::{fold, render};
use proptest::prelude::*;

const NAMES: &[&str] = &[
    "service_requests_total",
    "service_probe_total",
    "service_queue_depth",
    "service_virtual_latency_ops_sum",
    "service_virtual_latency_ops_count",
    "service_ladder_depth_sum",
    "service_ladder_depth_count",
    "service_batch_occupancy",
    "# TYPE service_requests_total counter",
    "",
];

const LABELS: &[&str] = &[
    "{shard=\"0\"}",
    "{shard=\"1\"}",
    "{shard=\"18446744073709551615\"}",
    "{shard=\"0\",le=\"+Inf\"}",
    "{shard=\"0\"",
    "{shard=0}",
    "",
];

const VALUES: &[&str] = &[
    " 0",
    " 1",
    " 18446744073709551615",
    " 18446744073709551616",
    " -1",
    " é",
    "",
];

/// One sample line, chosen field by field from `pick`'s bits, so the
/// generated text reaches the sums and not only the line filter.
fn line(pick: u64) -> String {
    let at =
        |list: &[&'static str], shift: u32| list[((pick >> shift) % list.len() as u64) as usize];
    format!("{}{}{}\n", at(NAMES, 0), at(LABELS, 16), at(VALUES, 32))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn render_of_fold_never_panics_on_sample_lines(
        picks in collection::vec(any::<u64>(), 0..64),
    ) {
        let text: String = picks.into_iter().map(line).collect();
        let rendered = render(&fold(&text));
        prop_assert!(rendered.contains("shard(s)"));
    }

    #[test]
    fn render_of_fold_never_panics_on_arbitrary_bytes(
        bytes in collection::vec(any::<u8>(), 0..256),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let rendered = render(&fold(&text));
        prop_assert!(rendered.contains("shard(s)"));
    }
}
