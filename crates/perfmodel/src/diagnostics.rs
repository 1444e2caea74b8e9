//! Fit-quality diagnostics for drift detection.
//!
//! A calibration regression can hide behind a passing test suite: the
//! simulator still runs, the fits still converge, but the fitted surface
//! slowly drifts away from the measurements (or from the paper's
//! published Table 3). This module quantifies fit quality as plain
//! numbers — pseudo-R², relative residuals, and the accuracy of the
//! fitted formula against both the dataset it was fitted on and the
//! paper's oracle — rendered into `results/report.md`'s scorecard.

use crate::accuracy::{score, Accuracy};
use crate::formula::TimingFormula;
use crate::surface::{fit_surface, FitError};
use harness::Dataset;
use mpisim::{Machine, MachineId, OpClass};

/// Fit-quality numbers for one `(machine, op)` surface.
#[derive(Debug, Clone)]
pub struct FitDiagnostics {
    /// Machine display name (as stored in the dataset).
    pub machine: String,
    /// Operation class.
    pub op: OpClass,
    /// The fitted Table-3-style formula.
    pub formula: TimingFormula,
    /// Points the diagnostics were computed over.
    pub points: usize,
    /// Pseudo-R² of the formula's predictions against the measurements
    /// (`1 - SS_res / SS_tot`); 1 is a perfect fit, 0 no better than the
    /// mean, negative worse than the mean.
    pub r2: f64,
    /// Mean `|predicted - measured| / measured` over the dataset.
    pub mean_rel_residual: f64,
    /// Largest `|predicted - measured| / measured` over the dataset.
    pub max_rel_residual: f64,
    /// Accuracy of the fitted formula against its own dataset.
    pub self_accuracy: Accuracy,
    /// Accuracy of the paper's published Table-3 formula against the
    /// same dataset, when the machine has a published entry.
    pub paper_accuracy: Option<Accuracy>,
}

/// Maps a dataset machine display name (e.g. `"IBM SP2"`) back to its
/// [`MachineId`]. Returns `None` for synthetic machines.
pub fn machine_id_of(name: &str) -> Option<MachineId> {
    MachineId::ALL
        .into_iter()
        .find(|&id| Machine::from_id(id).name() == name)
}

/// Fits `(machine, op)` from `data` and computes its diagnostics.
///
/// # Errors
///
/// Propagates [`FitError`] when the dataset lacks the needed grid.
pub fn diagnose(data: &Dataset, machine: &str, op: OpClass) -> Result<FitDiagnostics, FitError> {
    let formula = fit_surface(data, machine, op)?;
    // Residual statistics over every positive measurement.
    let mut n = 0usize;
    let mut mean_t = 0.0f64;
    let mut rel_sum = 0.0f64;
    let mut rel_max = 0.0f64;
    let pts: Vec<(f64, f64)> = data
        .slice(machine, op)
        .filter(|m| m.time_us > 0.0)
        .map(|m| (m.time_us, formula.predict_us(m.bytes, m.nodes)))
        .collect();
    for &(t, pred) in &pts {
        n += 1;
        mean_t += t;
        let rel = (pred - t).abs() / t;
        rel_sum += rel;
        rel_max = rel_max.max(rel);
    }
    if n == 0 {
        return Err(FitError::NoData);
    }
    mean_t /= n as f64;
    let ss_tot: f64 = pts.iter().map(|&(t, _)| (t - mean_t).powi(2)).sum();
    let ss_res: f64 = pts.iter().map(|&(t, pred)| (t - pred).powi(2)).sum();
    let r2 = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else if ss_res == 0.0 {
        1.0
    } else {
        0.0
    };
    let self_accuracy = score(data, machine, op, &formula).ok_or(FitError::NoData)?;
    let paper_accuracy = machine_id_of(machine)
        .and_then(|id| crate::paper::table3(id, op))
        .and_then(|f| score(data, machine, op, &f));
    Ok(FitDiagnostics {
        machine: machine.to_string(),
        op,
        formula,
        points: n,
        r2,
        mean_rel_residual: rel_sum / n as f64,
        max_rel_residual: rel_max,
        self_accuracy,
        paper_accuracy,
    })
}

/// Diagnoses every `(machine, op)` pair present in `data`; pairs that
/// cannot be fitted are skipped.
pub fn diagnose_all(data: &Dataset) -> Vec<FitDiagnostics> {
    let mut out = Vec::new();
    for machine in data.machines() {
        for op in data.ops() {
            if let Ok(d) = diagnose(data, &machine, op) {
                out.push(d);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::Measurement;

    fn synthetic(machine: &str, noise: f64) -> Dataset {
        let mut d = Dataset::new();
        for (i, &p) in [2usize, 4, 8, 16, 32, 64].iter().enumerate() {
            for &m in &[4u32, 64, 1024, 16384, 65536] {
                // T = (5p + 50) + 0.02m with optional multiplicative noise.
                let wiggle = 1.0 + noise * if i % 2 == 0 { 1.0 } else { -1.0 };
                let t = ((5.0 * p as f64 + 50.0) + 0.02 * f64::from(m)) * wiggle;
                d.push(Measurement {
                    machine: machine.into(),
                    op: OpClass::Scatter,
                    bytes: m,
                    nodes: p,
                    time_us: t,
                    min_time_us: t,
                    mean_time_us: t,
                    per_repetition_us: vec![t],
                });
            }
        }
        d
    }

    #[test]
    fn exact_surface_scores_near_perfect_r2() {
        let d = synthetic("X", 0.0);
        let diag = diagnose(&d, "X", OpClass::Scatter).unwrap();
        assert!(diag.r2 > 0.999, "r2 = {}", diag.r2);
        assert!(diag.max_rel_residual < 0.05);
        assert!(diag.paper_accuracy.is_none(), "synthetic machine");
    }

    #[test]
    fn noise_lowers_r2() {
        let clean = diagnose(&synthetic("X", 0.0), "X", OpClass::Scatter).unwrap();
        let noisy = diagnose(&synthetic("X", 0.3), "X", OpClass::Scatter).unwrap();
        assert!(noisy.r2 < clean.r2);
        assert!(noisy.max_rel_residual > clean.max_rel_residual);
    }

    #[test]
    fn paper_machines_resolve() {
        assert_eq!(machine_id_of("IBM SP2"), Some(MachineId::Sp2));
        assert_eq!(machine_id_of("Cray T3D"), Some(MachineId::T3d));
        assert_eq!(machine_id_of("Intel Paragon"), Some(MachineId::Paragon));
        assert_eq!(machine_id_of("VAX"), None);
    }

    #[test]
    fn real_measurements_diagnose_against_paper() {
        // A small real sweep on the T3D: the paper oracle must engage.
        let data = harness::SweepBuilder::new()
            .machines([Machine::t3d()])
            .ops([OpClass::Bcast])
            .message_sizes([16, 1024, 16384])
            .node_counts([4, 16, 64])
            .protocol(harness::Protocol::quick())
            .run()
            .unwrap();
        let all = diagnose_all(&data);
        assert_eq!(all.len(), 1);
        let diag = &all[0];
        assert!(diag.paper_accuracy.is_some(), "T3D bcast is in Table 3");
        assert!(diag.r2 > 0.5, "fit tracks its own data: r2 = {}", diag.r2);
    }
}
