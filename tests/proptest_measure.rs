//! Property test for `harness::measure`'s repetition reuse: a repetition
//! whose skew and noise draws equal the previous one's is not executed,
//! and the result must be exactly what executing every repetition gives.
//! The reference below draws the same inputs in the same order, executes
//! each repetition through `Communicator::run_with`, and reduces the runs
//! the way `measure` does; every float is compared bit for bit.

use desim::check::{forall, Gen};
use desim::{SimDuration, SimTime, SplitMix64};
use harness::{measure, Measurement, Protocol};
use mpisim::comm::RunOptions;
use mpisim::{Communicator, CpuNoise, ExecOutcome, Machine, OpClass, Rank, Schedule};

/// A random protocol in the ranges the reuse has to be right for. When
/// `zero_draw` is set it has no skew and no noise, so every repetition
/// draws the same inputs, and it repeats 3 or 5 times.
fn random_protocol(g: &mut Gen, zero_draw: bool) -> Protocol {
    let mut p = Protocol::quick();
    p.warmup = g.usize(0, 2);
    p.iterations = g.usize(1, 4);
    p.repetitions = g.usize(1, 5);
    p.max_skew = if g.bool() {
        SimDuration::ZERO
    } else {
        SimDuration::from_nanos(g.u64(1, 20_000))
    };
    p.os_noise = if g.bool() { 0.0 } else { g.f64(0.0, 0.3) };
    p.timer_resolution = SimDuration::from_nanos(*g.pick(&[0, 100]));
    p.seed = g.u64(0, u64::MAX);
    if zero_draw {
        p.max_skew = SimDuration::ZERO;
        p.os_noise = 0.0;
        p.repetitions = *g.pick(&[3, 5]);
    }
    p
}

/// `(max, min, mean)` over ranks of the quantized per-iteration time.
fn reduce(out: &ExecOutcome, protocol: &Protocol, p: usize) -> (f64, f64, f64) {
    let quantize = |t: SimTime| {
        let us = t.as_micros_f64();
        let q = protocol.timer_resolution.as_micros_f64();
        if q <= 0.0 {
            us
        } else {
            (us / q).floor() * q
        }
    };
    let (start, end) = (protocol.warmup, protocol.warmup + protocol.iterations);
    let local: Vec<f64> = (0..p)
        .map(|r| {
            (quantize(out.finish[end][r]) - quantize(out.finish[start][r]))
                / protocol.iterations as f64
        })
        .collect();
    (
        local.iter().copied().fold(f64::MIN, f64::max),
        local.iter().copied().fold(f64::MAX, f64::min),
        local.iter().sum::<f64>() / p as f64,
    )
}

/// `measure` without reuse: every repetition draws its inputs and runs.
fn execute_every_repetition(
    comm: &Communicator,
    op: OpClass,
    bytes: u32,
    protocol: &Protocol,
) -> Measurement {
    let p = comm.size();
    let barrier = comm
        .schedule(OpClass::Barrier, Rank(0), 0)
        .expect("barrier");
    let coll = comm.schedule(op, Rank(0), bytes).expect("schedule");
    let segments: Vec<&Schedule> = std::iter::once(&barrier)
        .chain(std::iter::repeat_n(&coll, protocol.runs_per_repetition()))
        .collect();
    let mut rng = SplitMix64::new(protocol.seed);
    let max_ns = protocol.max_skew.as_nanos();
    let mut reps = Vec::new();
    for _ in 0..protocol.repetitions {
        let skew: Vec<SimTime> = (0..p)
            .map(|_| match max_ns {
                0 => SimTime::ZERO,
                _ => SimTime::from_nanos(rng.next_below(max_ns + 1)),
            })
            .collect();
        let cpu_noise = (protocol.os_noise > 0.0).then(|| CpuNoise {
            amplitude: protocol.os_noise,
            seed: rng.next_u64(),
        });
        let options = RunOptions {
            start_times: Some(skew),
            cpu_noise,
            ..RunOptions::default()
        };
        let out = comm.run_with(&segments, options).expect("run");
        reps.push(reduce(&out, protocol, p));
    }
    let n = protocol.repetitions as f64;
    Measurement {
        machine: comm.machine().name().to_string(),
        op,
        bytes,
        nodes: p,
        time_us: reps.iter().map(|r| r.0).sum::<f64>() / n,
        min_time_us: reps.iter().map(|r| r.1).sum::<f64>() / n,
        mean_time_us: reps.iter().map(|r| r.2).sum::<f64>() / n,
        per_repetition_us: reps.iter().map(|r| r.0).collect(),
    }
}

fn assert_bit_identical(got: &Measurement, want: &Measurement, label: &str) {
    assert_eq!(
        (&got.machine, got.op, got.bytes, got.nodes),
        (&want.machine, want.op, want.bytes, want.nodes),
        "{label}"
    );
    let floats = [
        ("time_us", got.time_us, want.time_us),
        ("min_time_us", got.min_time_us, want.min_time_us),
        ("mean_time_us", got.mean_time_us, want.mean_time_us),
    ];
    for (field, g, w) in floats {
        assert_eq!(g.to_bits(), w.to_bits(), "{label}: {field} {g} vs {w}");
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&got.per_repetition_us),
        bits(&want.per_repetition_us),
        "{label}: per_repetition_us {:?} vs {:?}",
        got.per_repetition_us,
        want.per_repetition_us
    );
}

#[test]
fn measure_equals_executing_every_repetition() {
    let mut case = 0u32;
    let mut zero_draw_cases = 0u32;
    forall("measure_equals_every_repetition", 120, |g| {
        case += 1;
        let zero_draw = case.is_multiple_of(3);
        let machine = g.pick(&Machine::all()).clone();
        let op = *g.pick(&OpClass::COLLECTIVES);
        let p = g.usize(2, 32);
        let bytes = g.u32(0, 65_536);
        let protocol = random_protocol(g, zero_draw);
        let label = format!("{} {op:?} p={p} m={bytes} {protocol:?}", machine.name());
        let comm = machine.communicator(p).expect("communicator");
        let got = measure(&comm, op, bytes, &protocol).expect("measure");
        let want = execute_every_repetition(&comm, op, bytes, &protocol);
        assert_bit_identical(&got, &want, &label);
        zero_draw_cases += u32::from(zero_draw);
    });
    assert_eq!(
        zero_draw_cases, 40,
        "zero-draw cases with 3 or 5 repetitions"
    );
}
