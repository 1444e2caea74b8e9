//! Text rendering of metrics snapshots: the run manifest as a comment
//! header followed by a name/kind/value table, so every results
//! artifact carries the configuration that produced it.

use crate::table::Table;
use obs::{MetricsRegistry, RunManifest};

/// Renders a metrics registry as an aligned text table preceded by the
/// manifest's `# key: value` header lines.
///
/// A run whose `exec.trace.dropped` counter is nonzero silently lost
/// messages to the trace cap — every derived view (timelines, the
/// critical-path walk) is incomplete — so the table is followed by a
/// visible WARNING line instead of leaving the count buried in the rows.
///
/// # Examples
///
/// ```
/// use obs::{MetricsRegistry, RunManifest};
///
/// let mut reg = MetricsRegistry::new();
/// reg.counter("net.messages", 63);
/// let manifest = RunManifest::new("t3d").param("p", 64);
/// let text = report::metrics::render(&manifest, &reg);
/// assert!(text.contains("# machine: t3d"));
/// assert!(text.contains("net.messages"));
/// assert!(!text.contains("WARNING"));
/// ```
pub fn render(manifest: &RunManifest, reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    for line in manifest.header_lines() {
        out.push_str(&line);
        out.push('\n');
    }
    let mut table = Table::new(["metric", "kind", "value"]);
    for row in reg.rows() {
        table.push_row(row);
    }
    out.push_str(&table.render());
    if let Some(dropped) = reg.get("exec.trace.dropped").and_then(|m| m.as_f64()) {
        if dropped > 0.0 {
            out.push_str(&format!(
                "\nWARNING: {dropped:.0} messages exceeded the trace cap and were dropped — \
                 timelines and critical-path decompositions are incomplete \
                 (raise RunOptions::trace_limit, or --trace-cap)\n"
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_manifest_header_and_all_metrics() {
        let mut reg = MetricsRegistry::new();
        reg.counter("exec.messages", 7);
        reg.gauge("exec.completed_us", 123.456);
        reg.observe("net.link.bytes", 4096);
        let manifest = RunManifest::new("sp2")
            .param("op", "bcast")
            .param("m", 1024);
        let text = render(&manifest, &reg);
        assert!(text.contains("# machine: sp2"), "{text}");
        assert!(text.contains("# op: bcast"), "{text}");
        assert!(text.contains("exec.messages"), "{text}");
        assert!(text.contains("exec.completed_us"), "{text}");
        assert!(text.contains("histogram"), "{text}");
        // Header lines precede the table.
        let first_metric = text.find("metric").expect("table header");
        let last_comment = text.rfind('#').expect("comment header");
        assert!(last_comment < first_metric);
        assert!(!text.contains("WARNING"), "no drops, no warning: {text}");
    }

    #[test]
    fn dropped_messages_surface_as_warning() {
        let mut reg = MetricsRegistry::new();
        reg.counter("exec.trace.recorded", 100);
        reg.counter("exec.trace.dropped", 17);
        let text = render(&RunManifest::new("sp2"), &reg);
        assert!(
            text.contains("WARNING: 17 messages exceeded the trace cap"),
            "{text}"
        );
        // The warning trails the table, on its own line.
        assert!(text
            .trim_end()
            .ends_with("(raise RunOptions::trace_limit, or --trace-cap)"));
    }
}
