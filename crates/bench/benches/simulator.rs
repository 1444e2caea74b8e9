//! Micro-benchmarks of the simulator itself: how fast can the
//! discrete-event engine execute each collective's schedule? These guard
//! against performance regressions in the simulation core (the paper
//! reproduction sweeps run hundreds of thousands of collective
//! executions).
//!
//! Self-contained harness (no external framework): each case is warmed
//! up, then timed over enough iterations to smooth scheduler noise, and
//! reported as median ns/iter. Run with `cargo bench -p bench`.

use std::hint::black_box;
use std::time::Instant;

use mpisim::{Machine, OpClass, Rank};

/// Times `f` and reports the median per-iteration cost over `samples`
/// batches of `iters` calls each.
fn bench<R>(name: &str, samples: usize, iters: u32, mut f: impl FnMut() -> R) {
    // Warmup: one batch, unrecorded.
    for _ in 0..iters {
        black_box(f());
    }
    let mut per_iter_ns: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t0.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    per_iter_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = per_iter_ns[per_iter_ns.len() / 2];
    let best = per_iter_ns[0];
    println!("{name:<44} median {median:>12.0} ns/iter   best {best:>12.0} ns/iter");
}

fn collectives() {
    println!("-- collective_execution --");
    for op in [OpClass::Bcast, OpClass::Alltoall, OpClass::Barrier] {
        for p in [16usize, 64] {
            let machine = Machine::t3d();
            let comm = machine.communicator(p).unwrap();
            let schedule = comm.schedule(op, Rank(0), 1024).unwrap();
            let name = format!("{}/{}", op.paper_name().replace(' ', "_"), p);
            let iters = if op == OpClass::Alltoall && p == 64 {
                20
            } else {
                200
            };
            bench(&name, 20, iters, || comm.run(&schedule).unwrap());
        }
    }
}

fn machines() {
    println!("-- machine_comparison --");
    for machine in Machine::all() {
        let comm = machine.communicator(32).unwrap();
        let schedule = comm.schedule(OpClass::Alltoall, Rank(0), 4096).unwrap();
        bench(&machine.name().replace(' ', "_"), 20, 50, || {
            comm.run(&schedule).unwrap()
        });
    }
}

fn routing() {
    use topo::{Mesh2d, NodeId, Omega, Topology, Torus3d};
    println!("-- routing --");
    let torus = Torus3d::for_nodes(64);
    let mesh = Mesh2d::for_nodes(128);
    let omega = Omega::sp2(128);
    bench("torus64_all_pairs", 20, 50, || {
        let mut h = 0usize;
        for s in 0..64 {
            for d in 0..64 {
                h += torus.route(NodeId(s), NodeId(d)).hops();
            }
        }
        h
    });
    bench("mesh128_all_pairs", 20, 50, || {
        let mut h = 0usize;
        for s in 0..128 {
            for d in 0..128 {
                h += mesh.route(NodeId(s), NodeId(d)).hops();
            }
        }
        h
    });
    bench("omega128_all_pairs", 20, 50, || {
        let mut h = 0usize;
        for s in 0..128 {
            for d in 0..128 {
                h += omega.route(NodeId(s), NodeId(d)).hops();
            }
        }
        h
    });
}

fn measurement_pipeline() {
    use harness::{measure, Protocol};
    println!("-- paper_measurement --");
    let machine = Machine::sp2();
    let comm = machine.communicator(32).unwrap();
    for op in [
        OpClass::Bcast,
        OpClass::Alltoall,
        OpClass::Scatter,
        OpClass::Gather,
        OpClass::Scan,
        OpClass::Reduce,
        OpClass::Barrier,
    ] {
        let m = if op == OpClass::Barrier { 0 } else { 1024 };
        bench(&op.paper_name().replace(' ', "_"), 10, 5, || {
            measure(&comm, op, m, &Protocol::quick()).unwrap()
        });
    }
}

fn typed_dispatch() {
    use desim::{Engine, EventWorld, Scheduler, SimDuration, SimTime, TypedEvent};
    println!("-- event_dispatch --");

    // A dense self-rescheduling population: no per-event allocation,
    // dispatch by match.
    struct Counter {
        fired: u64,
        stride: u64,
    }
    impl EventWorld for Counter {
        fn dispatch(&mut self, s: &mut Scheduler<Self>, ev: TypedEvent) {
            if let TypedEvent::Timer { id } = ev {
                self.fired += 1;
                if id % 1000 > 0 {
                    let stride = self.stride + id / 1000;
                    s.post_in(
                        SimDuration::from_nanos(stride),
                        TypedEvent::Timer { id: id - 1 },
                    );
                }
            }
        }
    }

    bench("typed_timer_chain", 20, 50, || {
        let mut engine = Engine::<Counter>::new();
        // 64 actors x 100 steps; actor index rides in the id's high part
        // so each chain keeps its own stride.
        for actor in 0..64u64 {
            engine.post_at(
                SimTime::from_nanos(actor * 17),
                TypedEvent::Timer {
                    id: actor * 1000 + 100,
                },
            );
        }
        let mut world = Counter {
            fired: 0,
            stride: 97,
        };
        engine.run(&mut world);
        world.fired
    });
}

fn main() {
    // `cargo bench` passes flags like `--bench`; none affect this harness.
    collectives();
    machines();
    routing();
    typed_dispatch();
    measurement_pipeline();
}
