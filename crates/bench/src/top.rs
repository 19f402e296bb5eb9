//! The per-shard table the `obs_top` bin prints, folded out of the
//! Prometheus-style exposition a service campaign writes.
//!
//! The input is read from disk, so the parser treats it as hostile: any
//! line it cannot read is skipped, and sums saturate at `u64::MAX` rather
//! than overflow.

use std::collections::BTreeMap;

use crate::output::Table;

/// One shard's accumulated series.
#[derive(Debug, Clone, Copy, Default)]
struct ShardRow {
    queue_depth: u64,
    requests: u64,
    probes: u64,
    vlat_count: u64,
    vlat_sum: u64,
    ladder_count: u64,
    ladder_sum: u64,
}

/// Everything the table needs, folded out of an exposition text.
#[derive(Debug, Clone, Default)]
pub struct TopData {
    shards: BTreeMap<u64, ShardRow>,
    batch_occupancy: u64,
}

/// Parses one sample line into `(metric, shard label, value)`; `None` for
/// comments, blank lines, and anything non-numeric.
fn parse_sample(line: &str) -> Option<(&str, Option<u64>, u64)> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let (series, value) = line.rsplit_once(' ')?;
    let value: u64 = value.parse().ok()?;
    let (name, labels) = match series.split_once('{') {
        Some((name, rest)) => (name, rest.strip_suffix('}')?),
        None => (series, ""),
    };
    let mut shard = None;
    for pair in labels.split(',').filter(|p| !p.is_empty()) {
        let (key, v) = pair.split_once('=')?;
        let v = v.strip_prefix('"')?.strip_suffix('"')?;
        if key == "shard" {
            shard = Some(v.parse().ok()?);
        }
    }
    Some((name, shard, value))
}

/// Folds an exposition text into the per-shard table data.
pub fn fold(text: &str) -> TopData {
    let mut data = TopData::default();
    for (name, shard, value) in text.lines().filter_map(parse_sample) {
        if name == "service_batch_occupancy" && shard.is_none() {
            data.batch_occupancy = data.batch_occupancy.max(value);
            continue;
        }
        let Some(shard) = shard else { continue };
        let row = data.shards.entry(shard).or_default();
        let sum = match name {
            "service_queue_depth" => {
                row.queue_depth = row.queue_depth.max(value);
                continue;
            }
            "service_requests_total" => &mut row.requests,
            "service_probe_total" => &mut row.probes,
            "service_virtual_latency_ops_count" => &mut row.vlat_count,
            "service_virtual_latency_ops_sum" => &mut row.vlat_sum,
            "service_ladder_depth_count" => &mut row.ladder_count,
            "service_ladder_depth_sum" => &mut row.ladder_sum,
            _ => continue,
        };
        *sum = sum.saturating_add(value);
    }
    data
}

fn mean(sum: u64, count: u64) -> String {
    if count == 0 {
        "-".to_string()
    } else {
        format!("{:.1}", sum as f64 / count as f64)
    }
}

/// Renders the folded data as the aligned table plus footer lines.
pub fn render(data: &TopData) -> String {
    let mut table = Table::new([
        "shard",
        "queue depth",
        "requests",
        "probes",
        "mean vlat (ops)",
        "mean ladder",
    ]);
    let mut requests = 0u64;
    let mut probes = 0u64;
    for (shard, row) in &data.shards {
        requests = requests.saturating_add(row.requests);
        probes = probes.saturating_add(row.probes);
        table.row([
            shard.to_string(),
            row.queue_depth.to_string(),
            row.requests.to_string(),
            row.probes.to_string(),
            mean(row.vlat_sum, row.vlat_count),
            mean(row.ladder_sum, row.ladder_count),
        ]);
    }
    format!(
        "{}\n{} shard(s), {requests} request(s), {probes} probe(s); \
         batch occupancy high watermark {}\n",
        table.render(),
        data.shards.len(),
        data.batch_occupancy
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# TYPE service_batch_occupancy gauge
service_batch_occupancy 250
# TYPE service_queue_depth gauge
service_queue_depth{shard=\"0\"} 17
service_queue_depth{shard=\"3\"} 11
# TYPE service_requests_total counter
service_requests_total{shard=\"0\"} 120
service_requests_total{shard=\"3\"} 130
# TYPE service_probe_total counter
service_probe_total{shard=\"0\"} 30
# TYPE service_virtual_latency_ops histogram
service_virtual_latency_ops_bucket{shard=\"0\",le=\"256\"} 119
service_virtual_latency_ops_bucket{shard=\"0\",le=\"+Inf\"} 120
service_virtual_latency_ops_sum{shard=\"0\"} 24000
service_virtual_latency_ops_count{shard=\"0\"} 120
";

    #[test]
    fn samples_parse_with_and_without_labels() {
        assert_eq!(
            parse_sample("service_batch_occupancy 250"),
            Some(("service_batch_occupancy", None, 250))
        );
        assert_eq!(
            parse_sample("service_queue_depth{shard=\"3\"} 11"),
            Some(("service_queue_depth", Some(3), 11))
        );
        // le labels are carried but ignored; comments and blanks skip.
        assert_eq!(
            parse_sample("x_bucket{shard=\"1\",le=\"+Inf\"} 9"),
            Some(("x_bucket", Some(1), 9))
        );
        assert_eq!(parse_sample("# TYPE x gauge"), None);
        assert_eq!(parse_sample(""), None);
    }

    #[test]
    fn fold_and_render_summarize_per_shard() {
        let data = fold(SAMPLE);
        assert_eq!(data.batch_occupancy, 250);
        assert_eq!(data.shards.len(), 2);
        assert_eq!(data.shards[&0].requests, 120);
        assert_eq!(data.shards[&0].vlat_sum, 24000);
        let text = render(&data);
        assert!(
            text.contains("2 shard(s), 250 request(s), 30 probe(s)"),
            "{text}"
        );
        assert!(text.contains("200.0"), "mean vlat missing: {text}");
        assert!(text.contains('-'), "empty ladder mean should dash: {text}");
    }

    #[test]
    fn sums_saturate_instead_of_overflowing() {
        let max = u64::MAX;
        let text = format!(
            "service_requests_total{{shard=\"0\"}} {max}\n\
             service_requests_total{{shard=\"0\"}} {max}\n\
             service_requests_total{{shard=\"1\"}} {max}\n"
        );
        let data = fold(&text);
        assert_eq!(data.shards[&0].requests, max);
        assert_eq!(data.shards[&1].requests, max);
        assert!(
            render(&data).contains(&format!("2 shard(s), {max} request(s)")),
            "cross-shard total must saturate"
        );
    }
}
