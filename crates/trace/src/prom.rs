//! Prometheus-style text exposition.
//!
//! A hand-rolled writer for the text format scrapers understand:
//! `# HELP` / `# TYPE` comments followed by `name{labels} value`
//! samples. The caller walks its own metric table and drives three
//! primitives: [`PromWriter::header`] opens a family,
//! [`PromWriter::sample`] / [`PromWriter::sample_f64`] emit scalar
//! series, and [`PromWriter::histogram`] emits one [`Histogram`] series
//! (cumulative per-bucket counts, `_sum`, `_count`).

use bpw_metrics::Histogram;
use std::fmt::{Display, Write as _};

/// Incremental builder for one exposition payload.
#[derive(Debug, Default)]
pub struct PromWriter {
    buf: String,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        && !name.starts_with(|c: char| c.is_ascii_digit())
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

impl PromWriter {
    /// An empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a metric family: its `# HELP` and `# TYPE` lines (`kind` is
    /// `counter`, `gauge`, or `histogram`). Emit once per name, before
    /// the family's samples.
    pub fn header(&mut self, name: &str, help: &str, kind: &str) -> &mut Self {
        debug_assert!(valid_name(name), "invalid metric name {name:?}");
        let _ = writeln!(self.buf, "# HELP {name} {help}");
        let _ = writeln!(self.buf, "# TYPE {name} {kind}");
        self
    }

    /// One `name{labels} value` sample line.
    pub fn sample(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        value: impl Display,
    ) -> &mut Self {
        self.sample_with(name, labels, None, value)
    }

    /// [`sample`](Self::sample) with an optional trailing label (the
    /// histogram buckets' `le`).
    fn sample_with(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        last: Option<(&str, &str)>,
        value: impl Display,
    ) -> &mut Self {
        self.buf.push_str(name);
        let mut sep = '{';
        for (k, v) in labels.iter().copied().chain(last) {
            let _ = write!(self.buf, "{sep}{k}=\"{}\"", escape_label_value(v));
            sep = ',';
        }
        if sep == ',' {
            self.buf.push('}');
        }
        let _ = writeln!(self.buf, " {value}");
        self
    }

    /// A float sample; non-finite values render as `NaN`.
    pub fn sample_f64(&mut self, name: &str, labels: &[(&str, &str)], value: f64) -> &mut Self {
        if value.is_finite() {
            self.sample(name, labels, value)
        } else {
            self.sample(name, labels, "NaN")
        }
    }

    /// One [`Histogram`] series: cumulative `_bucket{le="..."}` samples
    /// (only occupied buckets, plus the mandatory `+Inf`), `_sum`, and
    /// `_count`, with `labels` ahead of the `le` bucket label.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], h: &Histogram) -> &mut Self {
        let bucket = format!("{name}_bucket");
        let mut cumulative = 0u64;
        for (_, ceil, count) in h.buckets() {
            if count == 0 {
                continue;
            }
            cumulative += count;
            self.sample_with(&bucket, labels, Some(("le", &ceil.to_string())), cumulative);
        }
        self.sample_with(&bucket, labels, Some(("le", "+Inf")), h.count());
        self.sample(&format!("{name}_sum"), labels, h.sum());
        self.sample(&format!("{name}_count"), labels, h.count());
        self
    }

    /// The rendered exposition text.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Sanity-check an exposition payload: every non-comment, non-blank
/// line must be `name[{labels}] value` with a parseable value. Returns
/// the number of samples, or the first offending line.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    let mut samples = 0;
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("no value separator: {line:?}"))?;
        let name = name_part.split('{').next().unwrap_or("");
        if !valid_name(name) {
            return Err(format!("invalid metric name in line {line:?}"));
        }
        if value_part != "NaN" && value_part.parse::<f64>().is_err() {
            return Err(format!("unparseable value in line {line:?}"));
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render() {
        let mut w = PromWriter::new();
        w.header("bpw_requests_total", "Requests served.", "counter")
            .sample("bpw_requests_total", &[], 42u64)
            .header("bpw_hit_ratio", "Pool hit ratio.", "gauge")
            .sample_f64("bpw_hit_ratio", &[], 0.9375)
            .sample_f64("bpw_hit_ratio", &[("pool", "b")], f64::NAN);
        let text = w.finish();
        assert!(text.contains("# TYPE bpw_requests_total counter"));
        assert!(text.contains("bpw_requests_total 42"));
        assert!(text.contains("bpw_hit_ratio 0.9375"));
        assert!(text.contains("bpw_hit_ratio{pool=\"b\"} NaN"));
        assert_eq!(validate_exposition(&text), Ok(3));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::new();
        for v in [1u64, 1, 2, 3, 100] {
            h.record(v);
        }
        let mut w = PromWriter::new();
        w.header("bpw_latency_ns", "Latency.", "histogram")
            .histogram("bpw_latency_ns", &[], &h);
        let text = w.finish();
        // Bucket 1 holds {1,1}; bucket [2,3] holds {2,3}; [64,127] holds {100}.
        assert!(text.contains("bpw_latency_ns_bucket{le=\"1\"} 2"));
        assert!(text.contains("bpw_latency_ns_bucket{le=\"3\"} 4"));
        assert!(text.contains("bpw_latency_ns_bucket{le=\"127\"} 5"));
        assert!(text.contains("bpw_latency_ns_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("bpw_latency_ns_sum 107"));
        assert!(text.contains("bpw_latency_ns_count 5"));
        assert!(validate_exposition(&text).unwrap() >= 6);
    }

    #[test]
    fn labeled_histogram_series_share_one_family() {
        let slow = Histogram::new();
        slow.record(100);
        let fast = Histogram::new();
        fast.record(1);
        fast.record(2);
        let mut w = PromWriter::new();
        w.header("bpw_stage_ns", "Per-stage latency.", "histogram")
            .histogram(
                "bpw_stage_ns",
                &[("op", "get"), ("stage", "miss_io")],
                &slow,
            )
            .histogram(
                "bpw_stage_ns",
                &[("op", "put"), ("stage", "pin_hit")],
                &fast,
            );
        let text = w.finish();
        assert_eq!(text.matches("# TYPE bpw_stage_ns histogram").count(), 1);
        assert!(text.contains("bpw_stage_ns_bucket{op=\"get\",stage=\"miss_io\",le=\"127\"} 1"));
        assert!(text.contains("bpw_stage_ns_bucket{op=\"get\",stage=\"miss_io\",le=\"+Inf\"} 1"));
        assert!(text.contains("bpw_stage_ns_count{op=\"put\",stage=\"pin_hit\"} 2"));
        assert!(text.contains("bpw_stage_ns_sum{op=\"get\",stage=\"miss_io\"} 100"));
        assert!(validate_exposition(&text).unwrap() >= 8);
    }

    #[test]
    fn label_values_are_escaped() {
        let mut w = PromWriter::new();
        w.header("bpw_x_total", "X.", "counter")
            .sample("bpw_x_total", &[("who", "a\"b\\c")], 1u64);
        let text = w.finish();
        assert!(text.contains("bpw_x_total{who=\"a\\\"b\\\\c\"} 1"));
        assert_eq!(validate_exposition(&text), Ok(1));
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_exposition("9bad_name 1").is_err());
        assert!(validate_exposition("name notanumber").is_err());
        assert!(validate_exposition("no_value").is_err());
        assert_eq!(validate_exposition("# just a comment\n\n"), Ok(0));
    }
}
