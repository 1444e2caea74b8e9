//! Design-choice ablations (DESIGN.md §5): quantify what each modeled
//! mechanism contributes by turning it off and re-measuring a reference
//! workload.
//!
//! * wormhole vs store-and-forward wire model;
//! * per-link contention on/off;
//! * NIC injection serialization on/off;
//! * vendor algorithm tables vs generic MPICH (kills the T3D hardware
//!   barrier);
//! * offload engines (Paragon co-processor / T3D BLT) vs CPU copies;
//! * rank placement: contiguous vs scattered node allocation (§9's
//!   "runtime node allocation" accuracy factor);
//! * alltoall algorithm: pairwise vs ring vs Bruck;
//! * broadcast/scatter/gather/reduce: binomial vs linear.

use bench::{timed, Cli, Flag};
use collectives::{alltoall, bcast, gather, reduce, scatter, Rank};
use harness::measure;
use mpisim::{AlgorithmPolicy, Machine, OpClass, Placement, SimMpiError, WireConfig};
use netmodel::SendEngine;
use report::Table;

const P: usize = 64;
const M: u32 = 16_384;

fn run_with(machine: &Machine, op: OpClass, m: u32, proto: &harness::Protocol) -> f64 {
    let comm = machine.communicator(P).expect("size");
    measure(&comm, op, m, proto).expect("measure").time_us
}

fn wire_ablations(cli: &Cli) {
    let proto = cli.protocol();
    println!("\n== Wire-model ablations (alltoall, {M} B x {P} nodes) ==");
    let mut t = Table::new([
        "Machine",
        "full model",
        "no contention",
        "no NIC serial.",
        "store&fwd",
        "ideal xbar",
    ]);
    for base in [Machine::sp2(), Machine::paragon(), Machine::t3d()] {
        let full = run_with(&base, OpClass::Alltoall, M, &proto);
        let no_contention = run_with(
            &base.clone().with_wire_config(WireConfig {
                link_contention: false,
                ..WireConfig::default()
            }),
            OpClass::Alltoall,
            M,
            &proto,
        );
        let no_nic = run_with(
            &base.clone().with_wire_config(WireConfig {
                nic_serialization: false,
                ..WireConfig::default()
            }),
            OpClass::Alltoall,
            M,
            &proto,
        );
        let saf = run_with(
            &base.clone().with_wire_config(WireConfig {
                wormhole: false,
                ..WireConfig::default()
            }),
            OpClass::Alltoall,
            M,
            &proto,
        );
        // Ideal network: same software stack on a contention-free
        // crossbar.
        let mut xbar_spec = base.spec().clone();
        xbar_spec.topology = netmodel::TopologyKind::Crossbar;
        let xbar = Machine::custom(xbar_spec).expect("valid spec");
        let ideal = run_with(&xbar, OpClass::Alltoall, M, &proto);
        t.push_row([
            base.name().to_string(),
            format!("{full:.0} us"),
            format!("{:.2}x", no_contention / full),
            format!("{:.2}x", no_nic / full),
            format!("{:.2}x", saf / full),
            format!("{:.2}x", ideal / full),
        ]);
    }
    print!("{}", t.render());
}

fn vendor_ablation(cli: &Cli) {
    let proto = cli.protocol();
    println!("\n== Vendor vs generic algorithms (barrier, {P} nodes) ==");
    let mut t = Table::new(["Machine", "vendor (us)", "generic MPICH (us)", "ratio"]);
    for base in [Machine::sp2(), Machine::paragon(), Machine::t3d()] {
        let vendor = run_with(&base, OpClass::Barrier, 0, &proto);
        let generic = run_with(
            &base.clone().with_policy(AlgorithmPolicy::Generic),
            OpClass::Barrier,
            0,
            &proto,
        );
        t.push_row([
            base.name().to_string(),
            format!("{vendor:.2}"),
            format!("{generic:.2}"),
            format!("{:.1}x", generic / vendor),
        ]);
    }
    print!("{}", t.render());
    println!("(the T3D row isolates the hardwired barrier's contribution)");
}

fn offload_ablation(cli: &Cli) {
    let proto = cli.protocol();
    println!("\n== Offload engines vs CPU copies (alltoall, 64 KB x {P} nodes) ==");
    let mut t = Table::new(["Machine", "with engine (ms)", "CPU only (ms)", "slowdown"]);
    for base in [Machine::paragon(), Machine::t3d()] {
        let with = run_with(&base, OpClass::Alltoall, 65_536, &proto);
        let mut spec = base.spec().clone();
        spec.send_engine = SendEngine::Cpu;
        let cpu_only = Machine::custom(spec).expect("valid spec");
        let without = run_with(&cpu_only, OpClass::Alltoall, 65_536, &proto);
        t.push_row([
            base.name().to_string(),
            format!("{:.1}", with / 1000.0),
            format!("{:.1}", without / 1000.0),
            format!("{:.2}x", without / with),
        ]);
    }
    print!("{}", t.render());
}

fn interconnect_ablation(cli: &Cli) {
    let proto = cli.protocol();
    println!("\n== SP2 interconnect abstraction: Omega vs fat tree vs crossbar ==");
    let mut t = Table::new(["Operation", "Omega (us)", "fat tree", "crossbar"]);
    let omega = Machine::sp2();
    let mut ft_spec = omega.spec().clone();
    ft_spec.topology = netmodel::TopologyKind::FatTree { radix: 4 };
    let fat_tree = Machine::custom(ft_spec).expect("valid spec");
    let mut xb_spec = omega.spec().clone();
    xb_spec.topology = netmodel::TopologyKind::Crossbar;
    let crossbar = Machine::custom(xb_spec).expect("valid spec");
    for (op, m) in [
        (OpClass::Bcast, 16_384u32),
        (OpClass::Alltoall, 16_384),
        (OpClass::Gather, 16_384),
    ] {
        let base = run_with(&omega, op, m, &proto);
        let ft = run_with(&fat_tree, op, m, &proto);
        let xb = run_with(&crossbar, op, m, &proto);
        t.push_row([
            op.paper_name().to_string(),
            format!("{base:.0}"),
            format!("{:.2}x", ft / base),
            format!("{:.2}x", xb / base),
        ]);
    }
    print!("{}", t.render());
    println!("(ratios near 1.0 mean the results do not hinge on the indirect-network abstraction)");
}

fn placement_ablation(cli: &Cli) {
    let proto = cli.protocol();
    println!(
        "\n== Rank placement: contiguous vs scattered allocation (bcast, 4 KB x {P} nodes) =="
    );
    let mut t = Table::new(["Machine", "contiguous (us)", "scattered (us)", "penalty"]);
    for base in [Machine::sp2(), Machine::paragon(), Machine::t3d()] {
        let contiguous = run_with(&base, OpClass::Bcast, 4_096, &proto);
        let scattered = run_with(
            &base
                .clone()
                .with_placement(Placement::Scattered { seed: 1997 }),
            OpClass::Bcast,
            4_096,
            &proto,
        );
        t.push_row([
            base.name().to_string(),
            format!("{contiguous:.0}"),
            format!("{scattered:.0}"),
            format!("{:.2}x", scattered / contiguous),
        ]);
    }
    print!("{}", t.render());
    println!("(the Omega network is placement-insensitive: uniform route lengths)");
}

fn algorithm_ablation() -> Result<(), SimMpiError> {
    println!("\n== Algorithm alternatives (SP2, {M} B x {P} nodes, cold start) ==");
    let machine = Machine::sp2();
    let comm = machine.communicator(P)?;
    let mut t = Table::new(["Operation", "Schedule", "time (us)", "messages"]);
    let rows: Vec<(&str, &str, collectives::Schedule)> = vec![
        (
            "Broadcast",
            "binomial (vendor)",
            bcast::binomial(P, Rank(0), M),
        ),
        ("Broadcast", "linear", bcast::linear(P, Rank(0), M)),
        (
            "Broadcast",
            "scatter-allgather",
            bcast::scatter_allgather(P, Rank(0), M),
        ),
        (
            "Broadcast",
            "pipelined chain",
            bcast::pipelined(P, Rank(0), M, 4_096),
        ),
        ("Scatter", "linear (vendor)", scatter::linear(P, Rank(0), M)),
        ("Scatter", "binomial", scatter::binomial(P, Rank(0), M)),
        ("Gather", "linear (vendor)", gather::linear(P, Rank(0), M)),
        ("Gather", "binomial", gather::binomial(P, Rank(0), M)),
        (
            "Reduce",
            "binomial (vendor)",
            reduce::binomial(P, Rank(0), M),
        ),
        ("Reduce", "linear", reduce::linear(P, Rank(0), M)),
        ("Alltoall", "pairwise (vendor)", alltoall::pairwise(P, M)),
        ("Alltoall", "ring", alltoall::ring(P, M)),
        ("Alltoall", "bruck", alltoall::bruck(P, M)),
    ];
    for (op, name, schedule) in rows {
        let out = comm.run(&schedule)?;
        t.push_row([
            op.to_string(),
            name.to_string(),
            format!("{:.0}", out.time().as_micros_f64()),
            out.messages().to_string(),
        ]);
    }
    print!("{}", t.render());
    Ok(())
}

fn main() {
    let cli = Cli::parse(&[Flag::Quick]);
    timed("wire ablations", || wire_ablations(&cli));
    timed("vendor ablation", || vendor_ablation(&cli));
    timed("offload ablation", || offload_ablation(&cli));
    timed("placement ablation", || placement_ablation(&cli));
    timed("interconnect ablation", || interconnect_ablation(&cli));
    timed("algorithm ablation", || {
        algorithm_ablation().expect("ablation")
    });
}
