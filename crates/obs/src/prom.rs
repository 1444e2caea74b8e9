//! Prometheus exposition-format text export of a [`MetricsRegistry`].
//!
//! The JSON snapshot is for machines and the metrics table for eyes;
//! this renderer is for scrapers. It emits the [text-based exposition
//! format]: a `# HELP` + `# TYPE` pair per metric (the HELP text carries
//! the original dotted path, since the sample name is sanitized),
//! counters suffixed `_total`, power-of-two histograms as cumulative
//! `_bucket{le="..."}` series with `_sum` and `_count`. Metric names are
//! sanitized to the Prometheus charset (`[a-zA-Z0-9_:]`), so
//! `engine.events_fired` becomes `engine_events_fired_total`; label
//! values and HELP text are escaped per the format's rules
//! (`promtool check metrics` clean).
//!
//! [text-based exposition format]:
//!     https://prometheus.io/docs/instrumenting/exposition_formats/

use std::fmt::Write as _;

use crate::registry::{Metric, MetricsRegistry};

/// Sanitizes a dotted metric path into a Prometheus metric name.
fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and line feed.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Escapes `# HELP` text: backslash and line feed (quotes are legal
/// there).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Formats a float sample value the way Prometheus expects special
/// values spelled (`NaN`, `+Inf`, `-Inf`).
fn prom_float(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        v.to_string()
    }
}

/// Renders the registry in the Prometheus text exposition format.
///
/// # Examples
///
/// ```
/// use obs::MetricsRegistry;
///
/// let mut reg = MetricsRegistry::new();
/// reg.counter("engine.events_fired", 7);
/// let text = obs::prom::text(&reg);
/// assert!(text.contains("# HELP engine_events_fired_total simulator metric engine.events_fired"));
/// assert!(text.contains("# TYPE engine_events_fired_total counter"));
/// assert!(text.contains("engine_events_fired_total 7"));
/// ```
pub fn text(reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    for (name, metric) in reg.iter() {
        let base = prom_name(name);
        let help = escape_help(name);
        match metric {
            Metric::Counter(c) => {
                let _ = writeln!(out, "# HELP {base}_total simulator metric {help}");
                let _ = writeln!(out, "# TYPE {base}_total counter");
                let _ = writeln!(out, "{base}_total {c}");
            }
            Metric::Gauge(g) => {
                let _ = writeln!(out, "# HELP {base} simulator metric {help}");
                let _ = writeln!(out, "# TYPE {base} gauge");
                let _ = writeln!(out, "{base} {}", prom_float(*g));
            }
            Metric::Histogram(h) => {
                let _ = writeln!(out, "# HELP {base} simulator metric {help}");
                let _ = writeln!(out, "# TYPE {base} histogram");
                let mut cumulative = 0u64;
                for (floor, count) in h.nonzero_buckets() {
                    cumulative += count;
                    // Bucket 0 holds [0, 2); bucket i >= 1 holds
                    // [2^i, 2^(i+1)), so the upper edge doubles the floor.
                    let le =
                        escape_label_value(&(if floor == 0 { 2 } else { floor * 2 }).to_string());
                    let _ = writeln!(out, "{base}_bucket{{le=\"{le}\"}} {cumulative}");
                }
                let _ = writeln!(out, "{base}_bucket{{le=\"+Inf\"}} {}", h.count());
                let _ = writeln!(out, "{base}_sum {}", h.sum());
                let _ = writeln!(out, "{base}_count {}", h.count());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizes_names() {
        assert_eq!(prom_name("net.link.0.bytes"), "net_link_0_bytes");
        assert_eq!(prom_name("9lives"), "_9lives");
        assert_eq!(prom_name("a:b_c"), "a:b_c");
    }

    #[test]
    fn renders_all_metric_kinds() {
        let mut reg = MetricsRegistry::new();
        reg.counter("engine.events", 42);
        reg.gauge("net.util", 0.5);
        reg.observe("lat.ns", 3);
        reg.observe("lat.ns", 100);
        let text = text(&reg);
        assert!(
            text.contains("# TYPE engine_events_total counter"),
            "{text}"
        );
        assert!(text.contains("engine_events_total 42"), "{text}");
        assert!(text.contains("# TYPE net_util gauge"), "{text}");
        assert!(text.contains("net_util 0.5"), "{text}");
        assert!(text.contains("# TYPE lat_ns histogram"), "{text}");
        // 3 lands in [2,4) -> le=4; 100 in [64,128) -> le=128; cumulative.
        assert!(text.contains("lat_ns_bucket{le=\"4\"} 1"), "{text}");
        assert!(text.contains("lat_ns_bucket{le=\"128\"} 2"), "{text}");
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("lat_ns_sum 103"), "{text}");
        assert!(text.contains("lat_ns_count 2"), "{text}");
    }

    #[test]
    fn empty_registry_renders_empty() {
        assert_eq!(text(&MetricsRegistry::new()), "");
    }

    #[test]
    fn every_metric_gets_help_before_type() {
        let mut reg = MetricsRegistry::new();
        reg.counter("a.count", 1);
        reg.gauge("b.level", 2.0);
        reg.observe("c.dist", 3);
        let text = text(&reg);
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split(' ').next().unwrap();
                assert_eq!(
                    lines[i - 1]
                        .strip_prefix("# HELP ")
                        .and_then(|h| h.split(' ').next()),
                    Some(name),
                    "HELP must immediately precede TYPE for {name}"
                );
            }
        }
        assert_eq!(
            lines.iter().filter(|l| l.starts_with("# HELP")).count(),
            3,
            "one HELP per metric"
        );
    }

    #[test]
    fn label_values_and_help_escape() {
        assert_eq!(escape_label_value(r"a\b"), r"a\\b");
        assert_eq!(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label_value("two\nlines"), "two\\nlines");
        assert_eq!(escape_label_value("plain"), "plain");
    }

    #[test]
    fn nonfinite_gauges_use_prometheus_spelling() {
        let mut reg = MetricsRegistry::new();
        reg.gauge("g.nan", f64::NAN);
        reg.gauge("g.pos", f64::INFINITY);
        reg.gauge("g.neg", f64::NEG_INFINITY);
        let text = text(&reg);
        assert!(text.contains("g_nan NaN"), "{text}");
        assert!(text.contains("g_pos +Inf"), "{text}");
        assert!(text.contains("g_neg -Inf"), "{text}");
    }
}
