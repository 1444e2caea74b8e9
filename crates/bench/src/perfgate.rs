//! The continuous-benchmarking pipeline behind `bench/perfgate`.
//!
//! The fixed suite of [`crate::suite`] (every collective on every
//! machine at one representative `(m, p)` point) is timed in interleaved
//! round-robin rounds — round `i` of every suite point runs before round
//! `i + 1` of any, so slow ambient drift (thermal throttling, a
//! background build) spreads across all points instead of biasing
//! whichever ran last.
//! Per-point wall times are reduced to robust statistics (median, MAD,
//! min-of-best-K, bootstrap CI of the median) and compared against a
//! committed baseline with a noise-aware threshold, so the gate neither
//! cries wolf on timer jitter nor sleeps through a real 2x regression.
//!
//! Everything here is a library so the regression gate itself is
//! unit-testable; `src/bin/perfgate.rs` is a thin CLI on top.

use crate::suite::SuitePoint;
use desim::SplitMix64;
use harness::{measure, Protocol};
use mpisim::SimMpiError;
use obs::Json;
use std::time::Instant;

/// Version stamp of the `BENCH_<date>.json` document layout. Bump on
/// any breaking change; [`BenchReport::from_json`] rejects mismatches.
pub const SCHEMA_VERSION: u64 = 1;

/// Median of a sample set (mean of the middle pair for even counts).
/// Returns 0 for empty input.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median absolute deviation around `center`.
pub fn mad(xs: &[f64], center: f64) -> f64 {
    let dev: Vec<f64> = xs.iter().map(|&x| (x - center).abs()).collect();
    median(&dev)
}

/// Mean of the best (smallest) `k` samples — the paper-style
/// noise-rejecting point estimate for wall-clock timings, where all
/// noise is additive and positive.
pub fn min_of_best(xs: &[f64], k: usize) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = k.clamp(1, v.len());
    v[..k].iter().sum::<f64>() / k as f64
}

/// Seeded bootstrap confidence interval of the median:
/// `iters` resamples with replacement, central `conf` mass. The seed is
/// fixed by callers so gate decisions are reproducible.
pub fn bootstrap_ci_median(xs: &[f64], iters: usize, conf: f64, seed: u64) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    if xs.len() == 1 {
        return (xs[0], xs[0]);
    }
    let mut rng = SplitMix64::new(seed);
    let mut medians = Vec::with_capacity(iters);
    let mut resample = vec![0.0; xs.len()];
    for _ in 0..iters {
        for slot in &mut resample {
            let idx = (rng.next_u64() % xs.len() as u64) as usize;
            *slot = xs[idx];
        }
        medians.push(median(&resample));
    }
    medians.sort_by(f64::total_cmp);
    let alpha = (1.0 - conf.clamp(0.0, 1.0)) / 2.0;
    let lo_idx = ((iters as f64 * alpha) as usize).min(iters - 1);
    let hi_idx = ((iters as f64 * (1.0 - alpha)) as usize).min(iters - 1);
    (medians[lo_idx], medians[hi_idx])
}

/// Robust per-point summary of one suite entry's wall-clock rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// Suite-point identifier (`sp2/alltoall`).
    pub label: String,
    /// Raw per-round wall-clock times of one `measure()` call, µs.
    pub rounds_us: Vec<f64>,
    /// Median of the rounds, µs — the headline estimate.
    pub median_us: f64,
    /// Median absolute deviation, µs — the noise scale.
    pub mad_us: f64,
    /// Mean of the best 3 rounds, µs.
    pub min_of_best_us: f64,
    /// Bootstrap 95% CI of the median, lower bound, µs.
    pub ci_low_us: f64,
    /// Upper bound, µs.
    pub ci_high_us: f64,
    /// Simulated collective time at this point, µs (model drift signal,
    /// independent of host speed).
    pub sim_time_us: f64,
}

impl PointResult {
    /// Reduces raw rounds to the robust summary.
    pub fn from_rounds(label: String, rounds_us: Vec<f64>, sim_time_us: f64) -> PointResult {
        let med = median(&rounds_us);
        let mad_us = mad(&rounds_us, med);
        let (lo, hi) = bootstrap_ci_median(&rounds_us, 200, 0.95, 0x9e37_79b9);
        PointResult {
            label,
            median_us: med,
            mad_us,
            min_of_best_us: min_of_best(&rounds_us, 3),
            ci_low_us: lo,
            ci_high_us: hi,
            sim_time_us,
            rounds_us,
        }
    }

    /// Relative noise scale: `max(3·MAD, CI half-width) / median`.
    /// 0 when the median is 0.
    pub fn rel_noise(&self) -> f64 {
        if self.median_us <= 0.0 {
            return 0.0;
        }
        let ci_half = (self.ci_high_us - self.ci_low_us) / 2.0;
        (3.0 * self.mad_us).max(ci_half) / self.median_us
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("label", Json::str(&self.label)),
            (
                "rounds_us",
                Json::Array(self.rounds_us.iter().map(|&x| Json::Float(x)).collect()),
            ),
            ("median_us", Json::Float(self.median_us)),
            ("mad_us", Json::Float(self.mad_us)),
            ("min_of_best_us", Json::Float(self.min_of_best_us)),
            ("ci_low_us", Json::Float(self.ci_low_us)),
            ("ci_high_us", Json::Float(self.ci_high_us)),
            ("sim_time_us", Json::Float(self.sim_time_us)),
        ])
    }

    fn from_json(j: &Json) -> Result<PointResult, String> {
        let f = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("point missing numeric field '{k}'"))
        };
        let rounds_us = j
            .get("rounds_us")
            .and_then(Json::as_array)
            .ok_or("point missing 'rounds_us' array")?
            .iter()
            .map(|x| x.as_f64().ok_or("non-numeric round"))
            .collect::<Result<Vec<f64>, _>>()?;
        Ok(PointResult {
            label: j
                .get("label")
                .and_then(Json::as_str)
                .ok_or("point missing 'label'")?
                .to_string(),
            rounds_us,
            median_us: f("median_us")?,
            mad_us: f("mad_us")?,
            min_of_best_us: f("min_of_best_us")?,
            ci_low_us: f("ci_low_us")?,
            ci_high_us: f("ci_high_us")?,
            sim_time_us: f("sim_time_us")?,
        })
    }
}

/// A full benchmark run: provenance, per-point results, and the metric
/// snapshot (fit-quality gauges, sweep metering) taken alongside.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Document layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// ISO date (`YYYY-MM-DD`) the run started.
    pub date: String,
    /// True when the reduced protocol was used.
    pub quick: bool,
    /// Timing rounds per suite point.
    pub rounds: usize,
    /// Per-point robust summaries.
    pub points: Vec<PointResult>,
    /// Metrics snapshot exported with the run (fit diagnostics etc.).
    pub metrics: Json,
}

impl BenchReport {
    /// Finds a point by label.
    pub fn point(&self, label: &str) -> Option<&PointResult> {
        self.points.iter().find(|p| p.label == label)
    }

    /// Serializes to the schema-versioned JSON document.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("schema_version", Json::UInt(self.schema_version)),
            ("date", Json::str(&self.date)),
            ("quick", Json::Bool(self.quick)),
            ("rounds", Json::UInt(self.rounds as u64)),
            (
                "points",
                Json::Array(self.points.iter().map(PointResult::to_json).collect()),
            ),
            ("metrics", self.metrics.clone()),
        ])
    }

    /// Parses and validates a report document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first structural problem: bad JSON,
    /// missing fields, or a schema-version mismatch.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let j = obs::validate(text)?;
        let version = field_uint(&j, "schema_version")?.ok_or("missing 'schema_version'")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "schema version {version} unsupported (expected {SCHEMA_VERSION})"
            ));
        }
        let points = j
            .get("points")
            .and_then(Json::as_array)
            .ok_or("missing 'points' array")?
            .iter()
            .map(PointResult::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchReport {
            schema_version: version,
            date: j
                .get("date")
                .and_then(Json::as_str)
                .ok_or("missing 'date'")?
                .to_string(),
            quick: matches!(j.get("quick"), Some(Json::Bool(true))),
            rounds: usize::try_from(field_uint(&j, "rounds")?.unwrap_or(0))
                .map_err(|_| "'rounds' overflows usize")?,
            points,
            metrics: j.get("metrics").cloned().unwrap_or(Json::Null),
        })
    }
}

/// An optional non-negative integer field. A negative, fractional or
/// out-of-range number is an error naming the field, never truncated.
fn field_uint(j: &Json, name: &str) -> Result<Option<u64>, String> {
    match j.get(name) {
        None => Ok(None),
        Some(Json::UInt(u)) => Ok(Some(*u)),
        Some(&Json::Int(i)) if i >= 0 => Ok(Some(i as u64)),
        Some(_) => Err(format!("'{name}' is not a non-negative integer")),
    }
}

/// Gate decision for one suite point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateStatus {
    /// Within the noise envelope of the baseline.
    Ok,
    /// Significantly faster than baseline (consider refreshing it).
    Faster,
    /// Slower than baseline beyond the noise-aware threshold.
    Regression,
    /// Not present in the baseline.
    New,
}

impl GateStatus {
    /// Verdict label for the summary table.
    pub fn label(self) -> &'static str {
        match self {
            GateStatus::Ok => "ok",
            GateStatus::Faster => "faster",
            GateStatus::Regression => "REGRESSION",
            GateStatus::New => "new",
        }
    }
}

/// One row of the gate comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Suite-point identifier.
    pub label: String,
    /// Current median, µs.
    pub current_us: f64,
    /// Baseline median, µs (`None` for new points).
    pub baseline_us: Option<f64>,
    /// Relative threshold the comparison used (0.10 = ±10%).
    pub threshold: f64,
    /// The decision.
    pub status: GateStatus,
}

/// Relative regression threshold floor: changes under 10% are treated
/// as noise regardless of how tight the measured CIs are, because CI
/// wall-clock on shared machines drifts more than that run to run.
pub const MIN_THRESHOLD: f64 = 0.10;

/// Absolute slowdown guard: a point slower than baseline by more than
/// this survives even full drift normalization. This is what catches an
/// engine-wide regression (every point 2x slower looks exactly like
/// host drift to the normalizer); the price is that uniform host drift
/// beyond 30% also fails, which is the right side to err on.
pub const ABS_GUARD: f64 = 0.30;

/// Minimum shared points before the suite-median drift estimate is
/// trusted; below this, drift is taken as 1.0 (no normalization).
pub const DRIFT_MIN_POINTS: usize = 5;

/// Suite-wide host-drift estimate: the median over shared points of
/// `current.median / baseline.median`. Uniform machine slowdown
/// (thermal state, noisy neighbors) moves every point together; the
/// median ratio captures that common factor while staying anchored by
/// the unchanged majority when only a few points genuinely regress.
/// Returns 1.0 when fewer than [`DRIFT_MIN_POINTS`] points are shared.
pub fn drift(current: &BenchReport, baseline: &BenchReport) -> f64 {
    let ratios: Vec<f64> = current
        .points
        .iter()
        .filter_map(|p| {
            baseline
                .point(&p.label)
                .filter(|b| b.median_us > 0.0 && p.median_us > 0.0)
                .map(|b| p.median_us / b.median_us)
        })
        .collect();
    if ratios.len() < DRIFT_MIN_POINTS {
        return 1.0;
    }
    let d = median(&ratios);
    if d > 0.0 {
        d
    } else {
        1.0
    }
}

/// Compares a run against a baseline, one verdict per current point.
///
/// Each point's ratio is first normalized by the suite-median [`drift`]
/// (so uniform host slowdown doesn't fail every point), then judged
/// against the noise-aware threshold
/// `max(MIN_THRESHOLD, current.rel_noise(), baseline.rel_noise())`.
/// The raw, un-normalized ratio is additionally held to
/// [`ABS_GUARD`], which is what still catches a uniform engine-wide
/// slowdown that the normalizer would otherwise absorb.
pub fn compare(current: &BenchReport, baseline: &BenchReport) -> Vec<Verdict> {
    let d = drift(current, baseline);
    current
        .points
        .iter()
        .map(|p| {
            let Some(base) = baseline.point(&p.label) else {
                return Verdict {
                    label: p.label.clone(),
                    current_us: p.median_us,
                    baseline_us: None,
                    threshold: MIN_THRESHOLD,
                    status: GateStatus::New,
                };
            };
            let threshold = MIN_THRESHOLD.max(p.rel_noise()).max(base.rel_noise());
            let status = if base.median_us <= 0.0 {
                GateStatus::New
            } else {
                let ratio = p.median_us / base.median_us;
                let adjusted = ratio / d;
                if adjusted > 1.0 + threshold || ratio > 1.0 + ABS_GUARD.max(threshold) {
                    GateStatus::Regression
                } else if adjusted < 1.0 - threshold {
                    GateStatus::Faster
                } else {
                    GateStatus::Ok
                }
            };
            Verdict {
                label: p.label.clone(),
                current_us: p.median_us,
                baseline_us: Some(base.median_us),
                threshold,
                status,
            }
        })
        .collect()
}

/// Adapts gate verdicts + current points into [`report::perf`] rows.
pub fn perf_rows(current: &BenchReport, verdicts: &[Verdict]) -> Vec<report::perf::PerfRow> {
    verdicts
        .iter()
        .map(|v| {
            let p = current.point(&v.label);
            report::perf::PerfRow {
                label: v.label.clone(),
                wall_us: v.current_us,
                ci_low_us: p.map_or(0.0, |p| p.ci_low_us),
                ci_high_us: p.map_or(0.0, |p| p.ci_high_us),
                baseline_us: v.baseline_us,
                verdict: v.status.label().to_string(),
            }
        })
        .collect()
}

/// Knobs for one [`run_suite`] invocation.
#[derive(Debug, Clone, Copy)]
pub struct SuiteConfig {
    /// Interleaved round-robin timing rounds (at least 1).
    pub rounds: usize,
    /// Whether the reduced protocol is in use (recorded in the report).
    pub quick: bool,
    /// Worker threads for the untimed setup stage (0 = auto-detect).
    pub threads: usize,
}

/// Runs the suite: `cfg.rounds` interleaved round-robin timing rounds
/// over `suite`, each round timing one full `measure()` call per point.
/// `progress(done, total)` is invoked after each timed call.
///
/// `cfg.threads` parallelizes only the *untimed* setup (communicator
/// construction). The timed calls themselves always run serialized on
/// the calling thread — one point at a time, rounds interleaved in
/// suite order — because concurrent wall-clock measurement points would
/// contend for cores and stop being comparable to the committed
/// baseline. Pinning the measurement to one worker keeps `--threads N`
/// report numbers identical in meaning to `--threads 1`.
///
/// # Errors
///
/// Propagates the first simulation failure.
pub fn run_suite(
    suite: &[SuitePoint],
    protocol: &Protocol,
    cfg: SuiteConfig,
    date: String,
    metrics: Json,
    mut progress: impl FnMut(usize, usize),
) -> Result<BenchReport, SimMpiError> {
    let SuiteConfig {
        rounds,
        quick,
        threads,
    } = cfg;
    let rounds = rounds.max(1);
    let mut walls: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds); suite.len()];
    let mut sim_times = vec![0.0f64; suite.len()];
    // Reuse communicators across rounds: building one is cheap, but it
    // is not what the gate measures — so this is the one stage safe to
    // shard across workers.
    let (comms, _) = harness::par::run_indexed(
        suite.len(),
        threads,
        |i| suite[i].machine.communicator(suite[i].nodes),
        &|_, _| {},
    );
    let comms = comms?;
    let total = rounds * suite.len();
    let mut done = 0;
    for _round in 0..rounds {
        for (i, pt) in suite.iter().enumerate() {
            let t0 = Instant::now();
            let m = measure(&comms[i], pt.op, pt.bytes, protocol)?;
            walls[i].push(t0.elapsed().as_secs_f64() * 1e6);
            sim_times[i] = m.time_us;
            done += 1;
            progress(done, total);
        }
    }
    let points = suite
        .iter()
        .zip(walls)
        .zip(sim_times)
        .map(|((pt, w), sim)| PointResult::from_rounds(pt.label(), w, sim))
        .collect();
    Ok(BenchReport {
        schema_version: SCHEMA_VERSION,
        date,
        quick,
        rounds,
        points,
        metrics,
    })
}

/// `YYYY-MM-DD` from a Unix timestamp (civil-from-days, Gregorian).
pub fn iso_date(unix_secs: u64) -> String {
    let days = (unix_secs / 86_400) as i64;
    // Howard Hinnant's civil_from_days.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{Machine, OpClass};

    fn report_with(medians: &[(&str, f64)], noise_rel: f64) -> BenchReport {
        let points = medians
            .iter()
            .map(|&(label, med)| {
                // Five rounds tightly clustered around the median.
                let rounds: Vec<f64> = (0..5)
                    .map(|i| med * (1.0 + noise_rel * (i as f64 - 2.0) / 2.0))
                    .collect();
                PointResult::from_rounds(label.to_string(), rounds, med)
            })
            .collect();
        BenchReport {
            schema_version: SCHEMA_VERSION,
            date: "2026-08-06".into(),
            quick: true,
            rounds: 5,
            points,
            metrics: Json::Null,
        }
    }

    #[test]
    fn robust_stats_basics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mad(&[1.0, 2.0, 3.0, 100.0], 2.5), 1.0);
        assert_eq!(min_of_best(&[5.0, 1.0, 3.0, 2.0], 2), 1.5);
        let (lo, hi) = bootstrap_ci_median(&[10.0, 11.0, 9.0, 10.5, 10.2], 200, 0.95, 42);
        assert!(lo <= 10.2 && hi >= 10.0, "({lo}, {hi})");
        // Deterministic under a fixed seed.
        assert_eq!(
            bootstrap_ci_median(&[1.0, 2.0, 3.0], 100, 0.9, 7),
            bootstrap_ci_median(&[1.0, 2.0, 3.0], 100, 0.9, 7)
        );
    }

    #[test]
    fn identical_reports_all_pass() {
        let a = report_with(&[("sp2/bcast", 100.0), ("t3d/barrier", 20.0)], 0.02);
        let verdicts = compare(&a, &a.clone());
        assert!(verdicts.iter().all(|v| v.status == GateStatus::Ok));
    }

    #[test]
    fn synthetic_2x_slowdown_detected() {
        let base = report_with(&[("sp2/bcast", 100.0), ("t3d/barrier", 20.0)], 0.02);
        let slowed = report_with(&[("sp2/bcast", 200.0), ("t3d/barrier", 40.0)], 0.02);
        let verdicts = compare(&slowed, &base);
        assert!(
            verdicts.iter().all(|v| v.status == GateStatus::Regression),
            "{verdicts:?}"
        );
        // And the inverse direction reads as faster, not regression.
        let verdicts = compare(&base, &slowed);
        assert!(verdicts.iter().all(|v| v.status == GateStatus::Faster));
    }

    #[test]
    fn noise_widens_the_threshold() {
        let base = report_with(&[("sp2/bcast", 100.0)], 0.0);
        // 12% slower with tight noise: regression (10% floor).
        let slow = report_with(&[("sp2/bcast", 112.0)], 0.0);
        assert_eq!(compare(&slow, &base)[0].status, GateStatus::Regression);
        // Same 12% but the baseline itself is noisy at ±30%: tolerated.
        let noisy_base = report_with(&[("sp2/bcast", 100.0)], 0.3);
        let v = &compare(&slow, &noisy_base)[0];
        assert!(v.threshold > 0.10, "threshold {v:?}");
        assert_eq!(v.status, GateStatus::Ok);
    }

    #[test]
    fn uniform_host_drift_tolerated() {
        // Six points, all 18% slower — looks like thermal/neighbor drift,
        // not a code regression; the suite-median normalizer absorbs it.
        let labels = [
            ("sp2/bcast", 100.0),
            ("sp2/scan", 200.0),
            ("t3d/bcast", 50.0),
            ("t3d/barrier", 20.0),
            ("paragon/gather", 80.0),
            ("paragon/reduce", 90.0),
        ];
        let base = report_with(&labels, 0.02);
        let drifted: Vec<(&str, f64)> = labels.iter().map(|&(l, m)| (l, m * 1.18)).collect();
        let cur = report_with(&drifted, 0.02);
        assert!((drift(&cur, &base) - 1.18).abs() < 1e-9);
        let verdicts = compare(&cur, &base);
        assert!(
            verdicts.iter().all(|v| v.status == GateStatus::Ok),
            "{verdicts:?}"
        );
    }

    #[test]
    fn uniform_2x_slowdown_caught_by_absolute_guard() {
        // Every point 2x slower IS indistinguishable from host drift to
        // the normalizer — the absolute guard must still fail it.
        let labels = [
            ("sp2/bcast", 100.0),
            ("sp2/scan", 200.0),
            ("t3d/bcast", 50.0),
            ("t3d/barrier", 20.0),
            ("paragon/gather", 80.0),
            ("paragon/reduce", 90.0),
        ];
        let base = report_with(&labels, 0.02);
        let slowed: Vec<(&str, f64)> = labels.iter().map(|&(l, m)| (l, m * 2.0)).collect();
        let cur = report_with(&slowed, 0.02);
        let verdicts = compare(&cur, &base);
        assert!(
            verdicts.iter().all(|v| v.status == GateStatus::Regression),
            "{verdicts:?}"
        );
    }

    #[test]
    fn localized_regression_survives_drift_normalization() {
        // One point +50%, the rest unchanged: the median drift stays ~1
        // (anchored by the unchanged majority), so the hot point fails
        // while its neighbors pass.
        let labels = [
            ("sp2/bcast", 100.0),
            ("sp2/scan", 200.0),
            ("t3d/bcast", 50.0),
            ("t3d/barrier", 20.0),
            ("paragon/gather", 80.0),
            ("paragon/reduce", 90.0),
        ];
        let base = report_with(&labels, 0.02);
        let mut cur_pts: Vec<(&str, f64)> = labels.to_vec();
        cur_pts[1].1 *= 1.5; // sp2/scan regresses
        let cur = report_with(&cur_pts, 0.02);
        assert!((drift(&cur, &base) - 1.0).abs() < 1e-9);
        let verdicts = compare(&cur, &base);
        for v in &verdicts {
            if v.label == "sp2/scan" {
                assert_eq!(v.status, GateStatus::Regression, "{v:?}");
            } else {
                assert_eq!(v.status, GateStatus::Ok, "{v:?}");
            }
        }
    }

    #[test]
    fn new_points_flagged_not_failed() {
        let base = report_with(&[("sp2/bcast", 100.0)], 0.02);
        let cur = report_with(&[("sp2/bcast", 100.0), ("sp2/scan", 50.0)], 0.02);
        let verdicts = compare(&cur, &base);
        assert_eq!(verdicts[0].status, GateStatus::Ok);
        assert_eq!(verdicts[1].status, GateStatus::New);
        assert_eq!(verdicts[1].baseline_us, None);
    }

    #[test]
    fn json_round_trip() {
        let r = report_with(&[("sp2/bcast", 100.0), ("paragon/gather", 64.5)], 0.05);
        let text = r.to_json().to_string_pretty();
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.date, r.date);
        assert_eq!(back.points.len(), 2);
        let (a, b) = (&back.points[0], &r.points[0]);
        assert_eq!(a.label, b.label);
        assert!((a.median_us - b.median_us).abs() < 1e-9);
        assert_eq!(a.rounds_us.len(), b.rounds_us.len());
    }

    #[test]
    fn schema_mismatch_and_malformed_rejected() {
        assert!(BenchReport::from_json("not json").is_err());
        assert!(BenchReport::from_json("{}")
            .unwrap_err()
            .contains("schema_version"));
        let wrong = Json::object([
            ("schema_version", Json::UInt(99)),
            ("date", Json::str("2026-01-01")),
            ("points", Json::Array(vec![])),
        ])
        .to_string_compact();
        let err = BenchReport::from_json(&wrong).unwrap_err();
        assert!(err.contains("schema version 99"), "{err}");
        let missing_points = Json::object([
            ("schema_version", Json::UInt(SCHEMA_VERSION)),
            ("date", Json::str("2026-01-01")),
        ])
        .to_string_compact();
        assert!(BenchReport::from_json(&missing_points)
            .unwrap_err()
            .contains("points"));
        // Integer fields are read exactly: a fractional version is not
        // version 1, and a negative or huge round count is not 0 or
        // `usize::MAX`.
        for (field, doc) in [
            (
                "schema_version",
                r#"{"schema_version":1.9,"date":"d","points":[]}"#,
            ),
            (
                "rounds",
                r#"{"schema_version":1,"date":"d","points":[],"rounds":-3}"#,
            ),
            (
                "rounds",
                r#"{"schema_version":1,"date":"d","points":[],"rounds":1e300}"#,
            ),
        ] {
            let err = BenchReport::from_json(doc).unwrap_err();
            assert!(err.contains(field), "{doc}: {err}");
        }
    }

    #[test]
    fn tiny_real_suite_runs_and_serializes() {
        // One cheap point, three rounds: exercises the real timing loop.
        let suite = vec![SuitePoint::new(Machine::t3d(), OpClass::Bcast, 8, 256)];
        let mut calls = 0;
        let r = run_suite(
            &suite,
            &Protocol::quick(),
            SuiteConfig {
                rounds: 3,
                quick: true,
                threads: 2,
            },
            iso_date(1_754_438_400),
            Json::Null,
            |done, total| {
                calls += 1;
                assert!(done <= total);
            },
        )
        .unwrap();
        assert_eq!(calls, 3);
        assert_eq!(r.points.len(), 1);
        let p = &r.points[0];
        assert_eq!(p.label, "t3d/bcast");
        assert_eq!(p.rounds_us.len(), 3);
        assert!(p.median_us > 0.0, "wall-clock measured");
        assert!(p.sim_time_us > 0.0, "simulated time captured");
        assert!(p.ci_low_us <= p.median_us && p.median_us <= p.ci_high_us);
        let back = BenchReport::from_json(&r.to_json().to_string_pretty()).unwrap();
        assert_eq!(back.points[0].label, "t3d/bcast");
        // A run compared against itself passes the gate.
        assert!(compare(&r, &back)
            .iter()
            .all(|v| v.status == GateStatus::Ok));
    }

    #[test]
    fn iso_dates() {
        assert_eq!(iso_date(0), "1970-01-01");
        assert_eq!(iso_date(86_400), "1970-01-02");
        assert_eq!(iso_date(1_754_438_400), "2025-08-06");
        assert_eq!(iso_date(1_785_974_400), "2026-08-06");
        assert_eq!(iso_date(951_782_400), "2000-02-29", "leap day");
    }

    #[test]
    fn perf_rows_adapt_verdicts() {
        let base = report_with(&[("sp2/bcast", 100.0)], 0.02);
        let cur = report_with(&[("sp2/bcast", 250.0), ("t3d/scan", 10.0)], 0.02);
        let rows = perf_rows(&cur, &compare(&cur, &base));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].verdict, "REGRESSION");
        assert_eq!(rows[0].baseline_us, Some(100.0));
        assert_eq!(rows[1].verdict, "new");
        let text = report::perf::render(&rows);
        assert!(text.contains("REGRESSION"), "{text}");
    }
}
