//! Point-to-point measurement with the paper's methodology.
//!
//! The collectives harness measures group operations; this module gives
//! point-to-point paths the same treatment — warm-up discards, an
//! averaged k-iteration ping-pong loop — producing the `(m, time)`
//! samples Hockney fitting (`perfmodel::hockney`) consumes.

use crate::protocol::Protocol;
use collectives::{Rank, Schedule, Step};
use mpisim::{Communicator, OpClass, RunOptions, SimMpiError};

/// One point-to-point sample: one-way latency for a message size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PingPongSample {
    /// Message size, bytes.
    pub bytes: u32,
    /// One-way latency (half the averaged round trip), microseconds.
    pub one_way_us: f64,
}

/// Builds a single ping-pong round trip schedule between two ranks.
fn round_trip(p: usize, a: Rank, b: Rank, bytes: u32) -> Schedule {
    let mut s = Schedule::new(OpClass::PointToPoint, p);
    s.push(a, Step::Send { to: b, bytes });
    s.push(b, Step::Recv { from: a, bytes });
    s.push(b, Step::Send { to: a, bytes });
    s.push(a, Step::Recv { from: b, bytes });
    s
}

/// Measures one-way point-to-point latency between `a` and `b` for each
/// message size, using the protocol's warm-up/iteration structure over
/// ping-pong round trips.
///
/// # Errors
///
/// Fails on invalid ranks, identical endpoints, or an invalid protocol.
pub fn measure_pingpong(
    comm: &Communicator,
    a: Rank,
    b: Rank,
    sizes: &[u32],
    protocol: &Protocol,
) -> Result<Vec<PingPongSample>, SimMpiError> {
    protocol.validate().map_err(SimMpiError::InvalidSpec)?;
    if protocol.iterations < 2 {
        // The timed window spans iterations-1 round trips; a single
        // iteration would silently measure an empty span.
        return Err(SimMpiError::InvalidSpec(
            "ping-pong needs at least 2 timed iterations".into(),
        ));
    }
    if a == b {
        return Err(SimMpiError::InvalidRank {
            rank: b.0,
            size: comm.size(),
        });
    }
    let p = comm.size();
    let mut out = Vec::with_capacity(sizes.len());
    for &bytes in sizes {
        let rt = round_trip(p, a, b, bytes);
        let segments: Vec<&Schedule> =
            std::iter::repeat_n(&rt, protocol.runs_per_repetition()).collect();
        let run = comm.run_with(&segments, RunOptions::default())?;
        // Rank a's local clock across the timed window, averaged per
        // round trip, halved for one-way.
        let start = run.finish[protocol.warmup][a.0];
        let end = run.finish[protocol.warmup + protocol.iterations - 1][a.0];
        let per_rt_us = end.since(start).as_micros_f64() / (protocol.iterations - 1) as f64;
        out.push(PingPongSample {
            bytes,
            one_way_us: per_rt_us / 2.0,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::Machine;

    fn samples(machine: Machine) -> Vec<PingPongSample> {
        let comm = machine.communicator(8).unwrap();
        measure_pingpong(
            &comm,
            Rank(0),
            Rank(7),
            &[64, 1_024, 16_384, 65_536],
            &Protocol::quick(),
        )
        .unwrap()
    }

    #[test]
    fn latency_grows_with_size() {
        let s = samples(Machine::sp2());
        assert_eq!(s.len(), 4);
        assert!(s.windows(2).all(|w| w[1].one_way_us > w[0].one_way_us));
    }

    #[test]
    fn t3d_beats_sp2_at_both_ends() {
        let t3d = samples(Machine::t3d());
        let sp2 = samples(Machine::sp2());
        assert!(t3d[0].one_way_us < sp2[0].one_way_us, "latency end");
        assert!(t3d[3].one_way_us < sp2[3].one_way_us, "bandwidth end");
    }

    #[test]
    fn hockney_fit_integrates() {
        let s = samples(Machine::paragon());
        let pts: Vec<(u32, f64)> = s.iter().map(|x| (x.bytes, x.one_way_us)).collect();
        let fit = perfmodel_fit(&pts);
        assert!(fit.is_some());
        let f = fit.unwrap();
        // Effective bandwidth cannot exceed the 175 MB/s link.
        assert!(f.1 <= 180.0, "r_inf {} MB/s", f.1);
        assert!(f.0 > 0.0, "positive latency");
    }

    /// Local mini-fit (avoids a dev-dependency cycle with perfmodel):
    /// least squares of t = t0 + m/r.
    fn perfmodel_fit(pts: &[(u32, f64)]) -> Option<(f64, f64)> {
        let n = pts.len() as f64;
        let sx: f64 = pts.iter().map(|&(m, _)| f64::from(m)).sum();
        let sy: f64 = pts.iter().map(|&(_, t)| t).sum();
        let sxx: f64 = pts.iter().map(|&(m, _)| f64::from(m).powi(2)).sum();
        let sxy: f64 = pts.iter().map(|&(m, t)| f64::from(m) * t).sum();
        let det = n * sxx - sx * sx;
        if det.abs() < 1e-9 {
            return None;
        }
        let slope = (n * sxy - sx * sy) / det;
        let t0 = (sy - slope * sx) / n;
        (slope > 0.0).then(|| (t0, 1.0 / slope))
    }

    #[test]
    fn same_rank_rejected() {
        let comm = Machine::t3d().communicator(4).unwrap();
        assert!(measure_pingpong(&comm, Rank(1), Rank(1), &[64], &Protocol::quick()).is_err());
    }

    #[test]
    fn single_iteration_protocol_rejected() {
        // An empty timed window must be an error, not a silent 0 us.
        let comm = Machine::t3d().communicator(4).unwrap();
        let e = measure_pingpong(&comm, Rank(0), Rank(1), &[64], &Protocol::ideal());
        assert!(e.is_err());
    }

    #[test]
    fn oversized_protocol_rejected() {
        // `warmup + iterations` once overflowed, then indexed past the run.
        let comm = Machine::t3d().communicator(4).unwrap();
        for warmup in [usize::MAX, Protocol::MAX_RUNS_PER_REPETITION] {
            let mut proto = Protocol::quick();
            proto.warmup = warmup;
            let e = measure_pingpong(&comm, Rank(0), Rank(1), &[64], &proto);
            assert!(matches!(e, Err(SimMpiError::InvalidSpec(_))), "{e:?}");
        }
    }
}
