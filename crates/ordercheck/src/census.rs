//! The commutability census: machine-readable per-point results naming
//! the event-class pairs whose same-instant order matters.
//!
//! Every field is a pure function of the simulation inputs, so the
//! serialized census is byte-identical across reruns and thread counts
//! — the same determinism contract the run-record and critpath
//! artifacts honor.

use obs::{Json, MetricsRegistry};

/// Per unordered event-class pair (e.g. `message_ready+rank_resume`)
/// exploration outcomes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassCensus {
    /// The unordered class-pair key.
    pub classes: String,
    /// Pairs of this class selected for exploration.
    pub candidates: u64,
    /// Of those, statically independent.
    pub independent: u64,
    /// Inversions that engaged (swap applied).
    pub explored: u64,
    /// Canonically invisible inversions.
    pub commuting: u64,
    /// Canonically visible inversions (order-sensitive).
    pub sensitive: u64,
    /// Sensitive pairs the static layer called independent.
    pub unexplained: u64,
    /// Requested swaps that never engaged (pair not co-enabled at pop).
    pub missed: u64,
}

impl ClassCensus {
    fn to_json(&self) -> Json {
        Json::object([
            ("classes", Json::str(self.classes.clone())),
            ("candidates", Json::UInt(self.candidates)),
            ("independent", Json::UInt(self.independent)),
            ("explored", Json::UInt(self.explored)),
            ("commuting", Json::UInt(self.commuting)),
            ("sensitive", Json::UInt(self.sensitive)),
            ("unexplained", Json::UInt(self.unexplained)),
            ("missed", Json::UInt(self.missed)),
        ])
    }
}

/// One point's commutability census.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointCensus {
    /// Machine display name (e.g. `Cray T3D`).
    pub machine: String,
    /// Collective key (e.g. `alltoall`).
    pub op: String,
    /// Communicator size.
    pub p: u64,
    /// Payload bytes.
    pub m: u64,
    /// Baseline fired events.
    pub events: u64,
    /// Adjacent same-instant pairs in the baseline log.
    pub tie_pairs: u64,
    /// Pairs pruned by provenance (parent → child, not co-enabled).
    pub pruned_causal: u64,
    /// Co-enabled candidates surviving pruning.
    pub candidates: u64,
    /// Candidates with disjoint widened footprints.
    pub independent: u64,
    /// Candidates with conflicting footprints.
    pub dependent: u64,
    /// Inversions that engaged.
    pub explored: u64,
    /// Canonically invisible inversions.
    pub commuting: u64,
    /// Order-sensitive inversions.
    pub sensitive: u64,
    /// Sensitive + statically independent — the deny-gate condition.
    pub unexplained: u64,
    /// Requested swaps that never engaged.
    pub missed: u64,
    /// Per-class-pair breakdown, in first-seen order.
    pub classes: Vec<ClassCensus>,
    /// Rendered reports for the first few sensitive pairs.
    pub sensitive_examples: Vec<String>,
}

impl PointCensus {
    /// The per-class bucket for `key`, created on first use.
    pub fn class_mut(&mut self, key: &str) -> &mut ClassCensus {
        if let Some(i) = self.classes.iter().position(|c| c.classes == key) {
            return &mut self.classes[i];
        }
        self.classes.push(ClassCensus {
            classes: key.to_string(),
            ..ClassCensus::default()
        });
        self.classes.last_mut().expect("just pushed")
    }

    /// True when every explored order-sensitive pair was predicted by
    /// the static relation — the gate condition.
    pub fn clean(&self) -> bool {
        self.unexplained == 0
    }

    /// Serializes the census (deterministic key order).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("machine", Json::str(self.machine.clone())),
            ("op", Json::str(self.op.clone())),
            ("p", Json::UInt(self.p)),
            ("m_bytes", Json::UInt(self.m)),
            ("events", Json::UInt(self.events)),
            ("tie_pairs", Json::UInt(self.tie_pairs)),
            ("pruned_causal", Json::UInt(self.pruned_causal)),
            ("candidates", Json::UInt(self.candidates)),
            ("independent", Json::UInt(self.independent)),
            ("dependent", Json::UInt(self.dependent)),
            ("explored", Json::UInt(self.explored)),
            ("commuting", Json::UInt(self.commuting)),
            ("sensitive", Json::UInt(self.sensitive)),
            ("unexplained", Json::UInt(self.unexplained)),
            ("missed", Json::UInt(self.missed)),
            (
                "classes",
                Json::Array(self.classes.iter().map(ClassCensus::to_json).collect()),
            ),
            (
                "sensitive_examples",
                Json::Array(
                    self.sensitive_examples
                        .iter()
                        .map(|s| Json::str(s.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Metric-name-safe point id, e.g. `cray_t3d.alltoall`.
    pub fn metric_id(&self) -> String {
        format!(
            "{}.{}",
            self.machine.to_ascii_lowercase().replace(' ', "_"),
            self.op
        )
    }
}

/// The whole suite's census.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SuiteCensus {
    /// One census per point, in canonical suite order.
    pub points: Vec<PointCensus>,
}

impl SuiteCensus {
    /// Total explored inversions.
    pub fn explored(&self) -> u64 {
        self.points.iter().map(|p| p.explored).sum()
    }

    /// Total order-sensitive pairs.
    pub fn sensitive(&self) -> u64 {
        self.points.iter().map(|p| p.sensitive).sum()
    }

    /// Total unexplained (gate-tripping) pairs.
    pub fn unexplained(&self) -> u64 {
        self.points.iter().map(|p| p.unexplained).sum()
    }

    /// True when every point is clean.
    pub fn clean(&self) -> bool {
        self.points.iter().all(PointCensus::clean)
    }

    /// Serializes the suite census as a JSON array document.
    pub fn to_json_string(&self) -> String {
        Json::Array(self.points.iter().map(PointCensus::to_json).collect()).to_string_pretty()
    }

    /// Exports the census as gauges: suite totals under
    /// `ordercheck.sensitive_pairs` / `ordercheck.explored`, plus one
    /// per-point family mirroring the critpath census exposition.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.gauge("ordercheck.sensitive_pairs", self.sensitive() as f64);
        reg.gauge("ordercheck.explored", self.explored() as f64);
        reg.gauge("ordercheck.unexplained", self.unexplained() as f64);
        for p in &self.points {
            let base = format!("ordercheck.{}", p.metric_id());
            reg.gauge(format!("{base}.tie_pairs"), p.tie_pairs as f64);
            reg.gauge(format!("{base}.explored"), p.explored as f64);
            reg.gauge(format!("{base}.sensitive"), p.sensitive as f64);
            reg.gauge(format!("{base}.unexplained"), p.unexplained as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PointCensus {
        let mut c = PointCensus {
            machine: "Cray T3D".into(),
            op: "alltoall".into(),
            p: 8,
            m: 512,
            tie_pairs: 5,
            explored: 3,
            sensitive: 1,
            ..PointCensus::default()
        };
        c.class_mut("message_ready+rank_resume").sensitive = 1;
        c
    }

    #[test]
    fn class_buckets_are_created_once() {
        let mut c = sample();
        c.class_mut("message_ready+rank_resume").explored += 1;
        c.class_mut("a+b").explored += 1;
        assert_eq!(c.classes.len(), 2);
        assert_eq!(c.classes[0].explored, 1);
    }

    #[test]
    fn json_round_trip_is_deterministic_and_parseable() {
        let suite = SuiteCensus {
            points: vec![sample()],
        };
        let text = suite.to_json_string();
        assert_eq!(text, suite.to_json_string());
        let parsed = obs::json::validate(&text).expect("valid JSON");
        let arr = parsed.as_array().expect("array document");
        assert_eq!(
            arr[0].get("machine").and_then(Json::as_str),
            Some("Cray T3D")
        );
        assert_eq!(arr[0].get("tie_pairs").and_then(Json::as_f64), Some(5.0));
    }

    #[test]
    fn metrics_export_has_totals_and_per_point_series() {
        let suite = SuiteCensus {
            points: vec![sample()],
        };
        let mut reg = MetricsRegistry::new();
        suite.export_metrics(&mut reg);
        assert_eq!(
            reg.get("ordercheck.sensitive_pairs")
                .and_then(|m| m.as_f64()),
            Some(1.0)
        );
        assert_eq!(
            reg.get("ordercheck.explored").and_then(|m| m.as_f64()),
            Some(3.0)
        );
        assert_eq!(
            reg.get("ordercheck.cray_t3d.alltoall.tie_pairs")
                .and_then(|m| m.as_f64()),
            Some(5.0)
        );
    }

    #[test]
    fn clean_tracks_unexplained_only() {
        let mut c = sample();
        assert!(c.clean());
        c.unexplained = 1;
        assert!(!c.clean());
        let suite = SuiteCensus { points: vec![c] };
        assert!(!suite.clean());
        assert_eq!(suite.unexplained(), 1);
    }
}
