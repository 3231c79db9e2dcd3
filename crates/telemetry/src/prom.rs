//! Prometheus text exposition rendering.
//!
//! Implements the slice of the text format the daemon needs: `# HELP`
//! and `# TYPE` comment lines, counter and gauge samples with label
//! sets, and histogram families rendered as cumulative
//! `_bucket{le="..."}` series ending in `+Inf`, plus `_sum` and
//! `_count`. Metric sums are recorded in nanoseconds and exposed in
//! seconds, matching the Prometheus base-unit convention.

use crate::histogram::{HistogramSnapshot, BUCKETS};
use std::fmt::Write as _;

/// Incrementally builds a Prometheus text-exposition document.
#[derive(Debug, Default)]
pub struct PromText {
    buf: String,
}

impl PromText {
    /// An empty document.
    pub fn new() -> PromText {
        PromText::default()
    }

    /// Emits `# HELP` and `# TYPE` lines for a metric family.
    pub fn family(&mut self, name: &str, kind: &str, help: &str) {
        let _ = writeln!(self.buf, "# HELP {name} {help}");
        let _ = writeln!(self.buf, "# TYPE {name} {kind}");
    }

    /// Emits one integer-valued sample line.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.push_series(name, labels, None);
        let _ = writeln!(self.buf, " {value}");
    }

    /// Emits one float-valued sample line.
    pub fn sample_f64(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.push_series(name, labels, None);
        let _ = writeln!(self.buf, " {value}");
    }

    /// Emits a full histogram family body for one label set:
    /// cumulative `_bucket` series (seconds-valued `le`, ending in
    /// `+Inf`), then `_sum` (seconds) and `_count`.
    ///
    /// Empty buckets inside the populated range are emitted, but the
    /// long tail of trailing empty buckets collapses straight to
    /// `+Inf` to keep scrapes compact.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], snap: &HistogramSnapshot) {
        self.histogram_in(name, labels, snap, fmt_seconds);
    }

    /// [`histogram`](PromText::histogram) for a histogram of counts
    /// rather than nanoseconds: `le` bounds and `_sum` are plain
    /// integers.
    pub fn count_histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        snap: &HistogramSnapshot,
    ) {
        self.histogram_in(name, labels, snap, |n| n.to_string());
    }

    /// A histogram body whose bounds and sum `unit` writes.
    fn histogram_in(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        snap: &HistogramSnapshot,
        unit: fn(u64) -> String,
    ) {
        let last_used = (0..BUCKETS).rev().find(|&i| snap.buckets[i] > 0);
        let mut cumulative = 0u64;
        if let Some(last) = last_used {
            for (i, &bucket) in snap.buckets.iter().enumerate().take(last + 1) {
                cumulative += bucket;
                let le = unit(crate::Histogram::bucket_bound(i));
                self.push_series(&format!("{name}_bucket"), labels, Some(&le));
                let _ = writeln!(self.buf, " {cumulative}");
            }
        }
        self.push_series(&format!("{name}_bucket"), labels, Some("+Inf"));
        let _ = writeln!(self.buf, " {}", snap.count);
        self.push_series(&format!("{name}_sum"), labels, None);
        let _ = writeln!(self.buf, " {}", unit(snap.sum));
        self.push_series(&format!("{name}_count"), labels, None);
        let _ = writeln!(self.buf, " {}", snap.count);
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.buf
    }

    /// Writes `name{labels,le="..."}` (labels and `le` optional).
    fn push_series(&mut self, name: &str, labels: &[(&str, &str)], le: Option<&str>) {
        self.buf.push_str(name);
        if labels.is_empty() && le.is_none() {
            return;
        }
        self.buf.push('{');
        let mut first = true;
        for (key, value) in labels {
            if !first {
                self.buf.push(',');
            }
            first = false;
            let _ = write!(self.buf, "{key}=\"");
            push_label_value(&mut self.buf, value);
            self.buf.push('"');
        }
        if let Some(le) = le {
            if !first {
                self.buf.push(',');
            }
            let _ = write!(self.buf, "le=\"{le}\"");
        }
        self.buf.push('}');
    }
}

/// Escapes a label value per the exposition format: backslash, quote,
/// and newline.
fn push_label_value(buf: &mut String, value: &str) {
    for ch in value.chars() {
        match ch {
            '\\' => buf.push_str("\\\\"),
            '"' => buf.push_str("\\\""),
            '\n' => buf.push_str("\\n"),
            other => buf.push(other),
        }
    }
}

/// Renders a nanosecond quantity as seconds without float rounding
/// surprises: `123_456_789 ns` → `"0.123456789"`, trailing zeros
/// trimmed.
fn fmt_seconds(ns: u64) -> String {
    let secs = ns / 1_000_000_000;
    let frac = ns % 1_000_000_000;
    if frac == 0 {
        return format!("{secs}");
    }
    let mut s = format!("{secs}.{frac:09}");
    while s.ends_with('0') {
        s.pop();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    #[test]
    fn fmt_seconds_is_exact_and_trimmed() {
        assert_eq!(fmt_seconds(0), "0");
        assert_eq!(fmt_seconds(1), "0.000000001");
        assert_eq!(fmt_seconds(1_500_000_000), "1.5");
        assert_eq!(fmt_seconds(2_000_000_000), "2");
        assert_eq!(fmt_seconds(123_456_789), "0.123456789");
    }

    #[test]
    fn counters_and_gauges_render_with_labels() {
        let mut out = PromText::new();
        out.family("pathalias_queries_total", "counter", "Total queries.");
        out.sample("pathalias_queries_total", &[("map", "east")], 42);
        out.sample("pathalias_up", &[], 1);
        let text = out.finish();
        assert!(text.contains("# HELP pathalias_queries_total Total queries.\n"));
        assert!(text.contains("# TYPE pathalias_queries_total counter\n"));
        assert!(text.contains("pathalias_queries_total{map=\"east\"} 42\n"));
        assert!(text.contains("pathalias_up 1\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut out = PromText::new();
        out.sample("m", &[("host", "a\"b\\c\nd")], 1);
        assert!(out.finish().contains("m{host=\"a\\\"b\\\\c\\nd\"} 1\n"));
    }

    /// Pulls `(le, cumulative)` pairs for one histogram out of the text.
    fn bucket_series(text: &str, name: &str) -> Vec<(String, u64)> {
        text.lines()
            .filter(|l| l.starts_with(&format!("{name}_bucket")))
            .map(|l| {
                let le_start = l.find("le=\"").unwrap() + 4;
                let le_end = l[le_start..].find('"').unwrap() + le_start;
                let value = l.rsplit(' ').next().unwrap().parse().unwrap();
                (l[le_start..le_end].to_owned(), value)
            })
            .collect()
    }

    #[test]
    fn histogram_series_are_cumulative_monotone_and_end_in_inf() {
        let h = Histogram::new();
        for ns in [1u64, 3, 3, 100, 5_000, 5_000, 5_000, 1_000_000] {
            h.record(ns);
        }
        let mut out = PromText::new();
        out.family("lat", "histogram", "Latency.");
        out.histogram("lat", &[("map", "east")], &h.snapshot());
        let text = out.finish();

        let buckets = bucket_series(&text, "lat");
        assert!(!buckets.is_empty());
        assert_eq!(buckets.last().unwrap().0, "+Inf");
        // Cumulative counts never decrease, and +Inf equals _count.
        let mut prev = 0;
        for (_, v) in &buckets {
            assert!(*v >= prev, "non-monotone bucket series in:\n{text}");
            prev = *v;
        }
        assert_eq!(prev, 8);
        assert!(text.contains("lat_count{map=\"east\"} 8\n"));
        // _sum is the exact total in seconds.
        let total_ns: u64 = 1 + 3 + 3 + 100 + 5_000 * 3 + 1_000_000;
        assert!(
            text.contains(&format!(
                "lat_sum{{map=\"east\"}} {}\n",
                fmt_seconds(total_ns)
            )),
            "missing exact _sum in:\n{text}"
        );
        // Finite le bounds strictly increase.
        let finite: Vec<f64> = buckets
            .iter()
            .filter(|(le, _)| le != "+Inf")
            .map(|(le, _)| le.parse().unwrap())
            .collect();
        assert!(finite.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_histogram_renders_only_inf_sum_count() {
        let h = Histogram::new();
        let mut out = PromText::new();
        out.histogram("lat", &[], &h.snapshot());
        let text = out.finish();
        assert_eq!(text, "lat_bucket{le=\"+Inf\"} 0\nlat_sum 0\nlat_count 0\n");
    }
}
