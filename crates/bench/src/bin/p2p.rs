//! Point-to-point characterization (companion to the collective study).
//!
//! The paper notes that prior MPI benchmarking focused on point-to-point
//! paths, and §9 contrasts Hockney's asymptotic bandwidth with the
//! aggregated-bandwidth metric. This binary produces the classical
//! Hockney view of all three machines — ping latency vs message size,
//! fitted `t0`, `r∞`, and `n½` — for nearest-neighbour and
//! cross-machine-diameter node pairs.

use bench::{machines, timed, Cli};
use harness::measure_pingpong;
use mpisim::Rank;
use perfmodel::fit_hockney;
use report::Table;

const SIZES: [u32; 8] = [4, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144];

fn main() {
    Cli::parse(&[]);
    println!("Point-to-point characterization (Hockney model)\n");

    let mut fits = Table::new([
        "Machine",
        "pair",
        "t0 (us)",
        "r_inf (MB/s)",
        "n_1/2 (B)",
        "r^2",
    ]);
    let protocol = harness::Protocol::paper();
    timed("p2p sweep", || {
        for machine in machines() {
            let p = machine.spec().max_nodes.min(64);
            let comm = machine.communicator(p).expect("size");
            for (label, dst) in [("neighbour", 1usize), ("far corner", p - 1)] {
                let measured = measure_pingpong(&comm, Rank(0), Rank(dst), &SIZES, &protocol)
                    .expect("pingpong");
                let mut samples = Vec::new();
                let mut rows = Table::new(["m (B)", "latency (us)", "MB/s"]);
                for s in measured {
                    let (m, us) = (s.bytes, s.one_way_us);
                    samples.push((m, us));
                    rows.push_row([
                        m.to_string(),
                        format!("{us:.2}"),
                        format!("{:.1}", f64::from(m) / us),
                    ]);
                }
                println!("-- {} ({label}, rank 0 -> {dst}) --", machine.name());
                print!("{}", rows.render());
                println!();
                if let Some(f) = fit_hockney(&samples) {
                    fits.push_row([
                        machine.name().to_string(),
                        label.to_string(),
                        format!("{:.1}", f.t0_us),
                        format!("{:.1}", f.r_inf_mb_s),
                        format!("{:.0}", f.n_half),
                        format!("{:.4}", f.r2),
                    ]);
                }
            }
        }
    });
    println!("== Fitted Hockney parameters ==");
    print!("{}", fits.render());
    println!(
        "\nExpected territory: SP2 r_inf near its 40 MB/s link; T3D the highest\n\
         r_inf and the lowest t0; Paragon in between with NX-dominated t0."
    );
}
