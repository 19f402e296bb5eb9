//! Order statistics and the result line.

use std::fmt::Write as _;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, interpolating linearly
/// between order statistics; 0 for an empty sample.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of `values`; 0 for an empty sample.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Splits `0..len` into `blocks` consecutive ranges whose lengths differ
/// by at most one (fewer when `len < blocks`).
#[must_use]
pub fn block_ranges(len: usize, blocks: usize) -> Vec<std::ops::Range<usize>> {
    let blocks = blocks.clamp(1, len.max(1));
    (0..blocks)
        .map(|b| b * len / blocks..(b + 1) * len / blocks)
        .collect()
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// How it was measured (sample counts), for the human-readable lines.
    pub note: String,
}

/// The run's outcome: the correctness gate plus the metrics.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations (requests and replay checks) attempted.
    pub attempted: u64,
    /// Operations that failed a gate.
    pub failed: u64,
    /// Why each failure was counted.
    pub failures: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Counts `n` failed operations for `why` (nothing when `n` is 0).
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        if n > 0 {
            self.failed += n;
            self.failures.push(why.into());
        }
    }

    /// Adds a metric.
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64, note: String) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            note,
        });
    }

    /// True when no gate failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The single-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` (each `{"value", "unit"}`).
    #[must_use]
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert!((median(&v) - 2.5).abs() < 1e-12);
        assert!((quantile(&v, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&v, 1.0) - 4.0).abs() < 1e-12);
        assert!((quantile(&[7.0], 0.9) - 7.0).abs() < 1e-12);
        assert!(quantile(&[], 0.5).abs() < 1e-12);
    }

    #[test]
    fn block_ranges_cover_evenly() {
        let r = block_ranges(25, 10);
        assert_eq!(r.len(), 10);
        assert_eq!(r[0].start, 0);
        assert_eq!(r[9].end, 25);
        assert!(r.iter().all(|b| (2..=3).contains(&b.len())));
        assert!(r.windows(2).all(|w| w[0].end == w[1].start));
        assert_eq!(block_ranges(3, 10).len(), 3);
        assert_eq!(block_ranges(0, 4), vec![0..0]);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = RunResult {
            attempted: 3,
            ..RunResult::default()
        };
        r.push("lot_p50_ms", "ms", 1.25, String::new());
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"lot_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.fail(2, "lost");
        assert!(r
            .json_line()
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 2"));
    }
}
