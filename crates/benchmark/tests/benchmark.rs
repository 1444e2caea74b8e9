//! Tests of the benchmark's own machinery: seeded inputs, the tail
//! rule, min-of-best, the layer table's conservation, the metric names against
//! BENCHMARK.json, and every workload at 1% size, untraced and traced.

use benchmark::stats::{min_of_best, percentile, tail};
use benchmark::trace::{Layer, Tracer};
use benchmark::{query_stream, run, Config, Workload, END_TO_END, PER_LAYER};
use std::time::{Duration, Instant};

fn small(trace: bool) -> Config {
    Config {
        seed: 7,
        seconds: 0.0,
        scale: 0.01,
        trace,
    }
}

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    let a = query_stream(11, 3);
    assert_eq!(a, query_stream(11, 3));
    assert_ne!(a, query_stream(12, 3));
    // 3 machines × 7 ops × (7 + 7 + 6) sizes, 3 queries each.
    assert_eq!(a.len(), 140 * 3);
    assert!(a
        .iter()
        .all(|q| q.bytes == 0 || (4..=65_536).contains(&q.bytes)));
}

#[test]
fn tail_takes_the_highest_percentile_with_ten_beyond() {
    let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
    for (n, label, value, beyond) in [
        (20_000, "p99.9", 19_980.0, 20),
        (10_000, "p99.9", 9_990.0, 10),
        (9_999, "p99", 9_900.0, 99),
        (2_100, "p99", 2_079.0, 21),
        (980, "p95", 931.0, 49),
        (200, "p95", 190.0, 10),
        (199, "p50", 100.0, 99),
    ] {
        let t = tail(&xs(n));
        assert_eq!(
            (t.label().as_str(), t.value, t.beyond, t.n),
            (label, value, beyond, n),
            "n={n}"
        );
    }
    // Order of the input does not matter.
    let mut rev = xs(980);
    rev.reverse();
    assert_eq!(tail(&rev), tail(&xs(980)));
    assert_eq!(percentile(&[5.0], 999).value, 5.0);
}

#[test]
fn min_of_best_averages_the_fastest_passes() {
    assert_eq!(min_of_best(&[5.0, 1.0, 3.0, 2.0], 2), 1.5);
    assert_eq!(min_of_best(&[4.0, 2.0], 3), 3.0);
    assert_eq!(min_of_best(&[], 3), 0.0);
}

#[test]
fn layer_rows_sum_to_the_traced_wall() {
    let mut tr = Tracer::new(true);
    tr.begin();
    let (_, exec) = tr.call(Layer::Execute, || {
        std::thread::sleep(Duration::from_millis(3))
    });
    let exec = exec.expect("enabled tracer records");
    tr.instrument(|tr| {
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        let q = tr.carve(exec, Layer::Queue, t0, t0.elapsed(), 2.0);
        tr.carve(q, Layer::Send, t0, Duration::from_micros(100), 1.0);
    });
    std::thread::sleep(Duration::from_millis(1));
    tr.end();
    let t = tr.table();
    let sum: f64 = t.rows().iter().map(|(_, s)| s).sum();
    assert!((sum - t.wall_s).abs() < 1e-9, "{sum} vs {}", t.wall_s);
    assert!(
        t.unattributed_s > 0.0,
        "the last sleep is outside every span"
    );
    assert!(
        t.instrumentation_s >= 0.001,
        "the replay is instrumentation"
    );
    // The queue replay counts twice, minus its own child.
    assert!(t.self_of(Layer::Queue) > 0.0019);
    // Execute's only child is the queue replay (to rounding of ns → s).
    let children = t.total_of(Layer::Execute) - t.self_of(Layer::Execute);
    assert!((children - t.total_of(Layer::Queue)).abs() < 1e-12);
}

fn benchmark_json() -> obs::Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    obs::validate(&text).expect("BENCHMARK.json parses")
}

/// The `name` and `unit` fields of one BENCHMARK.json metric section.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(obs::Json::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(obs::Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn printed_names(out: &benchmark::Outcome) -> Vec<(String, String)> {
    out.lines()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f[0], out.workload.name());
            (f[1].to_string(), f[3].to_string())
        })
        .collect()
}

fn pairs(xs: &[(&str, &str)]) -> Vec<(String, String)> {
    xs.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), pairs(&END_TO_END));
    assert_eq!(declared("per_layer"), pairs(&PER_LAYER));
    let doc = benchmark_json();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(obs::Json::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(obs::Json::as_str))
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));

    let untraced = run(Workload::ColdQueries, &small(false)).expect("runs");
    assert_eq!(printed_names(&untraced), pairs(&END_TO_END));
    let traced = run(Workload::ColdQueries, &small(true)).expect("runs");
    assert_eq!(printed_names(&traced), pairs(&PER_LAYER));
    let json = untraced.json();
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(json.get(key).is_some(), "{key}");
    }
}

#[test]
fn every_workload_completes_at_one_percent_without_failures() {
    for w in Workload::ALL {
        let out = run(w, &small(false)).expect("runs");
        assert!(out.attempted > 0, "{}", w.name());
        assert_eq!(out.fail_frac(), 0.0, "{}: {}", w.name(), out.lines());
        assert!(out.correct(), "{}", w.name());
        for m in &out.metrics {
            let v = m.value.expect("untraced metrics never fail");
            assert!(v.is_finite() && v > 0.0, "{} {} = {v}", w.name(), m.name);
        }
    }
}

#[test]
fn traced_runs_pass_the_replay_gates_and_conserve_time() {
    for w in Workload::ALL {
        let out = run(w, &small(true)).expect("runs");
        assert!(out.correct(), "{}: {}", w.name(), out.lines());
        let t = out
            .tracer
            .as_ref()
            .expect("traced runs keep the tracer")
            .table();
        let sum: f64 = t.rows().iter().map(|(_, s)| s).sum();
        assert!(
            (sum - t.wall_s).abs() <= 0.01 * t.wall_s,
            "{}: rows {sum} vs wall {}",
            w.name(),
            t.wall_s
        );
        let value = |name| {
            out.metrics
                .iter()
                .find(|m| m.name == name)
                .and_then(|m| m.value)
        };
        let events = value("desim.events").expect("queue gate passed");
        let sends = value("netmodel.sends").expect("send gate passed");
        assert!(events > 0.0 && sends > 0.0, "{}", w.name());
    }
}

#[test]
fn traced_and_untraced_paper_grid_produce_the_same_dataset() {
    let plain = run(Workload::PaperGrid, &small(false)).expect("runs");
    let traced = run(Workload::PaperGrid, &small(true)).expect("runs");
    assert_eq!(plain.digest, traced.digest);
}
