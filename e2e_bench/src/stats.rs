//! Order statistics and Prometheus-text scraping.

/// The `q`-quantile of `values` by nearest rank — the smallest sample
/// with at least `⌈q·n⌉` samples at or below it — and the sample count
/// `n`. `None` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> Option<(f64, usize)> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], n))
}

/// The nearest-rank median, 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).map_or(0.0, |(value, _)| value)
}

/// `numerator / denominator`, 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// One sample line of a Prometheus text dump: `name{labels} value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample<'a> {
    pub name: &'a str,
    labels: &'a str,
    pub value: f64,
}

impl<'a> Sample<'a> {
    /// The value of label `key`. Escaped quotes inside label values are
    /// not supported; none of the series read here carry them.
    pub fn label(&self, key: &str) -> Option<&'a str> {
        let mut rest = self.labels;
        while let Some((name, tail)) = rest.split_once("=\"") {
            let end = tail.find('"')?;
            if name == key {
                return Some(&tail[..end]);
            }
            rest = tail[end + 1..].trim_start_matches(',');
        }
        None
    }
}

/// Every sample line of a Prometheus text dump.
pub fn samples(text: &str) -> impl Iterator<Item = Sample<'_>> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            let value = value.parse().ok()?;
            let (name, labels) = match series.split_once('{') {
                Some((name, labels)) => (name, labels.strip_suffix('}')?),
                None => (series, ""),
            };
            Some(Sample {
                name,
                labels,
                value,
            })
        })
}

/// Sum of the samples of series `name` that `keep` selects.
pub fn sum(text: &str, name: &str, keep: impl Fn(&Sample) -> bool) -> f64 {
    samples(text)
        .filter(|s| s.name == name && keep(s))
        .map(|s| s.value)
        .sum()
}

/// The `q`-quantile of histogram `name` (one series, selected by
/// `keep`), read from its cumulative `_bucket` lines the way the
/// registry estimates quantiles: the upper bound of the first bucket
/// whose cumulative count reaches `⌈q·count⌉`. 0 for an empty or absent
/// histogram.
pub fn histogram_quantile(text: &str, name: &str, q: f64, keep: impl Fn(&Sample) -> bool) -> f64 {
    let bucket_series = format!("{name}_bucket");
    let mut buckets: Vec<(f64, f64)> = samples(text)
        .filter(|s| s.name == bucket_series && keep(s))
        .filter_map(|s| Some((s.label("le")?.parse::<f64>().ok()?, s.value)))
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let count = buckets.last().map_or(0.0, |&(_, count)| count);
    if count == 0.0 {
        return 0.0;
    }
    let rank = (q * count).ceil().clamp(1.0, count);
    buckets
        .iter()
        .find(|(_, cumulative)| *cumulative >= rank)
        .map_or(0.0, |&(bound, _)| bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_with_its_sample_count() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&values, 0.95), Some((95.0, 100)));
        assert_eq!(percentile(&values, 0.5), Some((50.0, 100)));
        assert_eq!(percentile(&values, 1.0), Some((100.0, 100)));
        assert_eq!(percentile(&[7.0], 0.95), Some((7.0, 1)));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    const DUMP: &str = "\
# HELP net_request_ns Server-side request handling latency
# TYPE net_request_ns histogram
net_request_ns_bucket{op=\"fetch\",le=\"1023\"} 1
net_request_ns_bucket{op=\"fetch\",le=\"2047\"} 3
net_request_ns_bucket{op=\"fetch\",le=\"+Inf\"} 3
net_request_ns_sum{op=\"fetch\"} 4000
net_request_ns_count{op=\"fetch\"} 3
net_request_ns_bucket{op=\"produce\",le=\"+Inf\"} 0
net_request_ns_count{op=\"produce\"} 0
pubsub_topic_records_in_total{topic=\"strata.thermal.0.raw.replay\"} 5
pubsub_topic_records_in_total{topic=\"strata.thermal.0.events.out\"} 7
kv_put_ns_count 9
";

    #[test]
    fn scrapes_counters_by_label() {
        let raw = |s: &Sample| s.label("topic").is_some_and(|t| t.ends_with(".raw.replay"));
        assert_eq!(sum(DUMP, "pubsub_topic_records_in_total", raw), 5.0);
        assert_eq!(sum(DUMP, "pubsub_topic_records_in_total", |_| true), 12.0);
        assert_eq!(sum(DUMP, "kv_put_ns_count", |_| true), 9.0);
        assert_eq!(sum(DUMP, "absent_total", |_| true), 0.0);
    }

    #[test]
    fn histogram_quantiles_come_from_cumulative_buckets() {
        let fetch = |s: &Sample| s.label("op") == Some("fetch");
        assert_eq!(
            histogram_quantile(DUMP, "net_request_ns", 0.3, fetch),
            1023.0
        );
        assert_eq!(
            histogram_quantile(DUMP, "net_request_ns", 0.5, fetch),
            2047.0
        );
        assert_eq!(
            histogram_quantile(DUMP, "net_request_ns", 1.0, fetch),
            2047.0
        );
        let produce = |s: &Sample| s.label("op") == Some("produce");
        assert_eq!(
            histogram_quantile(DUMP, "net_request_ns", 0.5, produce),
            0.0
        );
        assert_eq!(histogram_quantile(DUMP, "absent_ns", 0.5, |_| true), 0.0);
    }
}
