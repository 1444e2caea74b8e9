//! Network hotspot analysis: where does each topology concentrate load,
//! and where does each rank's time go?
//!
//! Runs a 64-node total exchange on all three machines under full
//! instrumentation and reports (1) the link-load distribution — the
//! Paragon's mesh funnels bisection traffic through its center columns,
//! the T3D torus spreads it across wrap links, and the SP2's Omega
//! concentrates on shared interior wire columns — and (2) the per-phase
//! time split (software / copy / blocked) plus queueing delays, instead
//! of wall-clock-only numbers. Quantifies the "routing delays in the
//! 2-D mesh network" the paper blames for Paragon latency (§4).
//!
//! `--json` emits the same data as one machine-readable JSON document
//! (for dashboards and the profiling notes in ROADMAP.md).

use bench::{Cli, Flag};
use desim::SimDuration;
use mpisim::comm::RunOptions;
use mpisim::{Machine, OpClass, Rank};
use obs::Json;
use report::Table;

const P: usize = 64;
const M: u32 = 4_096;

struct LinkRow {
    id: usize,
    busy_us: f64,
    share: f64,
}

struct MachineHotspots {
    machine: String,
    topology: String,
    active_links: usize,
    max_busy_us: f64,
    mean_busy_us: f64,
    imbalance: f64,
    sw_us: f64,
    blocked_us: f64,
    blocked_share: f64,
    link_queue_us: f64,
    inject_queue_us: f64,
    top_links: Vec<LinkRow>,
}

fn analyze(machine: &Machine) -> MachineHotspots {
    let comm = machine.communicator(P).expect("size");
    let schedule = comm
        .schedule(OpClass::Alltoall, Rank(0), M)
        .expect("schedule");
    let (out, observed) = comm
        .run_observed(&[&schedule], RunOptions::default())
        .expect("run");
    let loads = &out.link_loads;
    let n = loads.len().max(1);
    let total: SimDuration = loads.iter().map(|&(_, b)| b).sum();
    let total_us = total.as_micros_f64();
    let mean_us = total_us / n as f64;
    let max_us = loads
        .first()
        .map(|&(_, b)| b.as_micros_f64())
        .unwrap_or(0.0);

    // Per-phase split of the slowest rank: how much of the critical
    // path is software overhead vs. waiting on the network.
    let slowest = (0..P)
        .max_by_key(|&r| out.rank_elapsed(r))
        .expect("non-empty");
    let ph = out.phases[slowest];
    let elapsed = out.rank_elapsed(slowest).as_micros_f64();

    MachineHotspots {
        machine: machine.name().to_string(),
        topology: machine.spec().topology.build(P).describe(),
        active_links: n,
        max_busy_us: max_us,
        mean_busy_us: mean_us,
        imbalance: max_us / mean_us.max(1e-9),
        sw_us: ph.sw.as_micros_f64(),
        blocked_us: ph.blocked.as_micros_f64(),
        blocked_share: ph.blocked.as_micros_f64() / elapsed.max(1e-9),
        link_queue_us: observed.net.link_queue_ns as f64 / 1e3,
        inject_queue_us: observed.net.inject_queue_ns as f64 / 1e3,
        top_links: loads
            .iter()
            .take(10)
            .map(|&(id, busy)| LinkRow {
                id,
                busy_us: busy.as_micros_f64(),
                share: busy.as_micros_f64() / total_us.max(1e-9),
            })
            .collect(),
    }
}

fn to_json(all: &[MachineHotspots]) -> Json {
    Json::object([
        ("workload", Json::str("alltoall")),
        ("bytes", Json::UInt(M as u64)),
        ("nodes", Json::UInt(P as u64)),
        (
            "machines",
            Json::Array(
                all.iter()
                    .map(|h| {
                        Json::object([
                            ("machine", Json::str(&h.machine)),
                            ("topology", Json::str(&h.topology)),
                            ("active_links", Json::UInt(h.active_links as u64)),
                            ("max_busy_us", Json::Float(h.max_busy_us)),
                            ("mean_busy_us", Json::Float(h.mean_busy_us)),
                            ("imbalance", Json::Float(h.imbalance)),
                            ("critical_sw_us", Json::Float(h.sw_us)),
                            ("critical_blocked_us", Json::Float(h.blocked_us)),
                            ("critical_blocked_share", Json::Float(h.blocked_share)),
                            ("link_queue_us", Json::Float(h.link_queue_us)),
                            ("inject_queue_us", Json::Float(h.inject_queue_us)),
                            (
                                "top_links",
                                Json::Array(
                                    h.top_links
                                        .iter()
                                        .map(|l| {
                                            Json::object([
                                                ("link", Json::UInt(l.id as u64)),
                                                ("busy_us", Json::Float(l.busy_us)),
                                                ("share", Json::Float(l.share)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() {
    let cli = Cli::parse(&[Flag::Threads, Flag::Json]);
    let machines = [Machine::sp2(), Machine::paragon(), Machine::t3d()];
    let all = harness::map_indexed(
        machines.len(),
        cli.threads.unwrap_or(1),
        |i| analyze(&machines[i]),
        &|_, _| {},
    );

    if cli.json {
        println!("{}", to_json(&all).to_string_pretty());
        return;
    }

    println!("Link-load distribution: total exchange, {M} B x {P} nodes\n");
    let mut summary = Table::new([
        "Machine",
        "topology",
        "active links",
        "max busy",
        "mean busy",
        "imbalance",
    ]);
    let mut phases = Table::new([
        "Machine",
        "sw (max rank)",
        "blocked (max rank)",
        "blocked share",
        "link queue",
        "inject queue",
    ]);
    for h in &all {
        summary.push_row([
            h.machine.clone(),
            h.topology.clone(),
            h.active_links.to_string(),
            format!("{:.0} us", h.max_busy_us),
            format!("{:.0} us", h.mean_busy_us),
            format!("{:.2}x", h.imbalance),
        ]);
        phases.push_row([
            h.machine.clone(),
            format!("{:.0} us", h.sw_us),
            format!("{:.0} us", h.blocked_us),
            format!("{:.0}%", 100.0 * h.blocked_share),
            format!("{:.0} us", h.link_queue_us),
            format!("{:.0} us", h.inject_queue_us),
        ]);

        println!("-- {} : ten hottest links --", h.machine);
        let mut t = Table::new(["link", "busy (us)", "share of total"]);
        for l in &h.top_links {
            t.push_row([
                format!("l{}", l.id),
                format!("{:.0}", l.busy_us),
                format!("{:.1}%", 100.0 * l.share),
            ]);
        }
        println!("{}", t.render());
    }
    println!("== Summary ==");
    print!("{}", summary.render());
    println!("\n(imbalance = hottest link / mean active link; 1.0 = perfectly spread)\n");
    println!("== Critical-path phase split (slowest rank) ==");
    print!("{}", phases.render());
    println!("\n(queue columns: total time messages spent waiting for busy links / the injection engine)");
}
