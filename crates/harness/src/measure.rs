//! The measurement procedure.
//!
//! Reproduces the paper's pseudo-code (§2):
//!
//! ```text
//! barrier synchronization
//! get start-time
//! for (i = 0; i < k; i++) the-collective-routine-being-measured
//! get end-time
//! local-time = (end-time - start-time) / k
//! communication-time = maximum reduce(local-time)
//! ```
//!
//! plus the warm-up discard and the five outer repetitions. Timestamps
//! are quantized to the protocol's timer resolution, and nodes enter the
//! program with randomized skew — the barrier "only synchronizes the
//! processes logically. It does not time-synchronize the processes."

use crate::protocol::Protocol;
use desim::{SimTime, SplitMix64};
use mpisim::{
    comm::RunOptions, Communicator, CpuNoise, ExecOutcome, OpClass, Rank, Schedule, SimMpiError,
};

/// One measured data point `T(m, p)` for an operation on a machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Machine display name.
    pub machine: String,
    /// Operation measured.
    pub op: OpClass,
    /// Message length in bytes (`m`).
    pub bytes: u32,
    /// Machine size (`p`).
    pub nodes: usize,
    /// The paper's reported number: max over processes of the per-process
    /// mean iteration time, averaged over repetitions. Microseconds.
    pub time_us: f64,
    /// Min over processes (averaged over repetitions), microseconds.
    pub min_time_us: f64,
    /// Mean over processes (averaged over repetitions), microseconds.
    pub mean_time_us: f64,
    /// The max-reduced time of each individual repetition, microseconds.
    pub per_repetition_us: Vec<f64>,
}

impl Measurement {
    /// Aggregated message volume `f(m, p)` of this point (§3).
    pub fn aggregated_bytes(&self) -> u64 {
        self.op
            .aggregated_bytes(u64::from(self.bytes), self.nodes as u64)
    }

    /// Aggregated bandwidth `R(m, p) = f(m, p) / D` in MB/s, given a
    /// startup latency `t0_us` to subtract. Returns `None` when the
    /// transmission delay is non-positive (startup-dominated points).
    pub fn aggregated_bandwidth_mb_s(&self, t0_us: f64) -> Option<f64> {
        let d_us = self.time_us - t0_us;
        if d_us <= 0.0 || self.aggregated_bytes() == 0 {
            return None;
        }
        Some(self.aggregated_bytes() as f64 / d_us) // B/us == MB/s
    }
}

/// Quantizes `t` down to a multiple of `res` (timer tick floor).
fn quantize(t: SimTime, res: desim::SimDuration) -> f64 {
    let us = t.as_micros_f64();
    let q = res.as_micros_f64();
    if q <= 0.0 {
        us
    } else {
        (us / q).floor() * q
    }
}

/// Measures one collective on one communicator per the protocol.
///
/// The executed program per repetition is
/// `[barrier, op × (warmup + k)]` with per-rank start skew; timestamps
/// are taken at each rank's segment completions, exactly as
/// `MPI_Wtime()` calls between the loop iterations would.
///
/// The simulator is deterministic, so a repetition whose skew and noise
/// draws equal the previous repetition's would reproduce its result bit
/// for bit. Such a repetition is not re-executed: the previous result is
/// pushed again and averaged like any other. A protocol with no skew and
/// no noise ([`Protocol::quick`]) therefore executes once per call, while
/// the paper's protocol, which draws fresh skew per rank, executes every
/// repetition.
///
/// # Errors
///
/// Propagates schedule/executor failures, and reports an invalid
/// protocol as [`SimMpiError::InvalidSpec`].
pub fn measure(
    comm: &Communicator,
    op: OpClass,
    bytes: u32,
    protocol: &Protocol,
) -> Result<Measurement, SimMpiError> {
    protocol.validate().map_err(SimMpiError::InvalidSpec)?;
    let p = comm.size();
    let barrier = comm.schedule(OpClass::Barrier, Rank(0), 0)?;
    let coll = comm.schedule(op, Rank(0), bytes)?;
    let segments: Vec<&Schedule> = std::iter::once(&barrier)
        .chain(std::iter::repeat_n(&coll, protocol.runs_per_repetition()))
        .collect();

    let mut rng = SplitMix64::new(protocol.seed);
    let mut per_rep_max = Vec::with_capacity(protocol.repetitions);
    let mut per_rep_min = Vec::with_capacity(protocol.repetitions);
    let mut per_rep_mean = Vec::with_capacity(protocol.repetitions);
    // The inputs the last executed repetition drew, and its (max, min,
    // mean). A repetition that draws equal inputs pushes that triple again.
    let mut executed: Option<(Vec<SimTime>, Option<CpuNoise>)> = None;
    let mut reduced = (0.0, 0.0, 0.0);

    for _rep in 0..protocol.repetitions {
        let skew: Vec<SimTime> = (0..p)
            .map(|_| {
                let max_ns = protocol.max_skew.as_nanos();
                if max_ns == 0 {
                    SimTime::ZERO
                } else {
                    SimTime::from_nanos(rng.next_below(max_ns + 1))
                }
            })
            .collect();
        let cpu_noise = (protocol.os_noise > 0.0).then(|| CpuNoise {
            amplitude: protocol.os_noise,
            seed: rng.next_u64(),
        });

        let drawn = (skew, cpu_noise);
        if executed.as_ref() != Some(&drawn) {
            let out = comm.run_with(
                &segments,
                RunOptions {
                    start_times: Some(drawn.0.clone()),
                    cpu_noise: drawn.1,
                    ..RunOptions::default()
                },
            )?;
            reduced = reduce(&out, protocol, p);
            executed = Some(drawn);
        }
        let (max, min, mean) = reduced;
        per_rep_max.push(max);
        per_rep_min.push(min);
        per_rep_mean.push(mean);
    }

    let reps = protocol.repetitions as f64;
    Ok(Measurement {
        machine: comm.machine().name().to_string(),
        op,
        bytes,
        nodes: p,
        time_us: per_rep_max.iter().sum::<f64>() / reps,
        min_time_us: per_rep_min.iter().sum::<f64>() / reps,
        mean_time_us: per_rep_mean.iter().sum::<f64>() / reps,
        per_repetition_us: per_rep_max,
    })
}

/// Reduces one repetition's run to `(max, min, mean)` over ranks of the
/// per-rank local time `(end - start) / k`, where start is the timestamp
/// after the warm-up segment and end after the last.
fn reduce(out: &ExecOutcome, protocol: &Protocol, p: usize) -> (f64, f64, f64) {
    let start_seg = protocol.warmup; // segment index: 0 = barrier, 1.. = runs
    let end_seg = protocol.warmup + protocol.iterations;
    let mut local_means = Vec::with_capacity(p);
    for r in 0..p {
        let t_start = quantize(out.finish[start_seg][r], protocol.timer_resolution);
        let t_end = quantize(out.finish[end_seg][r], protocol.timer_resolution);
        local_means.push((t_end - t_start) / protocol.iterations as f64);
    }
    let max = local_means.iter().copied().fold(f64::MIN, f64::max);
    let min = local_means.iter().copied().fold(f64::MAX, f64::min);
    let mean = local_means.iter().sum::<f64>() / p as f64;
    (max, min, mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::Machine;

    #[test]
    fn measurement_basics() {
        let comm = Machine::t3d().communicator(8).unwrap();
        let m = measure(&comm, OpClass::Bcast, 1024, &Protocol::quick()).unwrap();
        assert_eq!(m.nodes, 8);
        assert_eq!(m.bytes, 1024);
        assert_eq!(m.machine, "Cray T3D");
        assert!(m.time_us > 0.0);
        assert!(m.min_time_us <= m.mean_time_us);
        assert!(m.mean_time_us <= m.time_us + 1e-9);
        assert_eq!(m.per_repetition_us.len(), 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let comm = Machine::sp2().communicator(8).unwrap();
        let a = measure(&comm, OpClass::Alltoall, 256, &Protocol::quick()).unwrap();
        let b = measure(&comm, OpClass::Alltoall, 256, &Protocol::quick()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn skew_seed_changes_results_slightly() {
        let comm = Machine::sp2().communicator(8).unwrap();
        let mut proto = Protocol::quick();
        proto.max_skew = desim::SimDuration::from_micros(50);
        let a = measure(&comm, OpClass::Bcast, 64, &proto.clone().with_seed(1)).unwrap();
        let b = measure(&comm, OpClass::Bcast, 64, &proto.with_seed(2)).unwrap();
        assert_ne!(a.time_us, b.time_us);
        // But not wildly: skew amortizes over iterations.
        let rel = (a.time_us - b.time_us).abs() / a.time_us;
        assert!(rel < 0.5, "rel diff {rel}");
    }

    #[test]
    fn pipelined_iterations_cheaper_than_cold_start() {
        // Amortized per-iteration time over k runs is at most the
        // cold-start single-run time.
        let comm = Machine::paragon().communicator(16).unwrap();
        let cold = comm.bcast(Rank(0), 4096).unwrap().time().as_micros_f64();
        let meas = measure(&comm, OpClass::Bcast, 4096, &Protocol::quick()).unwrap();
        assert!(
            meas.time_us <= cold * 1.6,
            "meas {} vs cold {}",
            meas.time_us,
            cold
        );
    }

    #[test]
    fn aggregated_bandwidth_computation() {
        let comm = Machine::t3d().communicator(16).unwrap();
        let m = measure(&comm, OpClass::Alltoall, 16_384, &Protocol::quick()).unwrap();
        let f = m.aggregated_bytes();
        assert_eq!(f, 16_384 * 16 * 15);
        let r = m.aggregated_bandwidth_mb_s(0.0).unwrap();
        assert!(r > 0.0);
        // Subtracting a huge startup makes D non-positive -> None.
        assert!(m.aggregated_bandwidth_mb_s(1e12).is_none());
    }

    #[test]
    fn os_noise_slows_and_spreads() {
        let comm = Machine::sp2().communicator(16).unwrap();
        let quiet = measure(&comm, OpClass::Bcast, 1_024, &Protocol::quick()).unwrap();
        let mut noisy_proto = Protocol::quick();
        noisy_proto.os_noise = 0.5;
        let noisy = measure(&comm, OpClass::Bcast, 1_024, &noisy_proto).unwrap();
        assert!(noisy.time_us > quiet.time_us, "interference slows the max");
        let quiet_spread = quiet.time_us - quiet.min_time_us;
        let noisy_spread = noisy.time_us - noisy.min_time_us;
        assert!(
            noisy_spread >= quiet_spread,
            "noise widens the min-max spread: {quiet_spread} vs {noisy_spread}"
        );
    }

    #[test]
    fn timer_resolution_quantizes() {
        let comm = Machine::t3d().communicator(4).unwrap();
        let mut proto = Protocol::quick();
        proto.timer_resolution = desim::SimDuration::from_micros(1000);
        let m = measure(&comm, OpClass::Barrier, 0, &proto).unwrap();
        // A ~3us barrier under a 1ms timer reads as 0.
        assert_eq!(m.time_us, 0.0);
    }

    #[test]
    fn invalid_protocol_is_reported() {
        let comm = Machine::t3d().communicator(4).unwrap();
        let mut proto = Protocol::quick();
        proto.iterations = 0;
        assert!(measure(&comm, OpClass::Bcast, 4, &proto).is_err());

        // Each once overflowed or over-allocated inside `measure`.
        let broken = |edit: fn(&mut Protocol)| {
            let mut p = Protocol::paper();
            edit(&mut p);
            p
        };
        for proto in [
            broken(|p| p.max_skew = desim::SimDuration::MAX),
            broken(|p| p.warmup = usize::MAX),
            broken(|p| p.iterations = usize::MAX),
            broken(|p| p.repetitions = usize::MAX),
        ] {
            let err = measure(&comm, OpClass::Bcast, 4, &proto);
            assert!(
                matches!(err, Err(SimMpiError::InvalidSpec(_))),
                "{proto:?}: {err:?}"
            );
        }
    }
}
