//! schedlint — static schedule verification sweep.
//!
//! Runs the `schedcheck` analyzer (happens-before graph, match
//! ambiguity, volume/coverage conservation, critical-path bounds) over
//! every shipped vendor schedule: all seven collectives × three
//! machines × a ladder of communicator sizes and message lengths —
//! without executing a single schedule.
//!
//! Flags:
//!
//! - `--all`    full sweep (p up to 128, three message sizes); the
//!   default is a reduced grid for interactive use
//! - `--deny`   exit nonzero if any sweep point has a finding (CI gate)
//! - `--json`   machine-readable output (findings + `schedcheck.*`
//!   metrics snapshot) instead of the text tables
//! - `--threads N`  shard the sweep across N workers (0 = auto-detect).
//!   Static checks are pure functions of the schedule, so every point
//!   runs fully parallel; verdicts and metrics merge in canonical
//!   sweep order, making all output byte-identical to `--threads 1`
//! - `--demo-broken`  additionally analyze four deliberately broken
//!   broadcast variants, one per lint class (see EXPERIMENTS.md)

use collectives::select::Algorithm;
use collectives::{build, vendor_algorithm, vendor_schedule, Rank, Schedule, Step};
use netmodel::{MachineId, OpClass};
use obs::{Json, MetricsRegistry};
use report::Table;
use schedcheck::{depth_bound, verify_expected, Expectations, Report};

struct Opts {
    all: bool,
    deny: bool,
    json: bool,
    demo: bool,
    threads: usize,
}

const USAGE: &str = "usage: schedlint [--all] [--deny] [--json] [--threads N] [--demo-broken]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        all: false,
        deny: false,
        json: false,
        demo: false,
        threads: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--all" => o.all = true,
            "--deny" => o.deny = true,
            "--json" => o.json = true,
            "--demo-broken" => o.demo = true,
            "--threads" => {
                o.threads = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--threads needs a non-negative integer (0 = auto)");
                    usage();
                });
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown option {other}");
                usage();
            }
        }
    }
    o
}

/// One sweep point's verdict, kept for the JSON rendering.
struct Point {
    machine: MachineId,
    class: OpClass,
    p: usize,
    bytes: u32,
    report: Report,
}

/// The canonical sweep grid: machine → op → p → m, barrier at one size.
fn sweep_specs(opts: &Opts) -> Vec<(MachineId, OpClass, usize, u32)> {
    let node_counts: &[usize] = if opts.all {
        &[2, 3, 4, 8, 16, 17, 32, 64, 128]
    } else {
        &[2, 4, 8, 16]
    };
    let sizes: &[u32] = if opts.all {
        &[16, 1024, 65536]
    } else {
        &[1024]
    };

    let mut specs = Vec::new();
    for machine in MachineId::ALL {
        for class in OpClass::COLLECTIVES {
            for &p in node_counts {
                // Barrier carries no payload; one size suffices.
                let ms: &[u32] = if class == OpClass::Barrier {
                    &sizes[..1]
                } else {
                    sizes
                };
                for &bytes in ms {
                    specs.push((machine, class, p, bytes));
                }
            }
        }
    }
    specs
}

/// Runs the static analyzer over the grid, sharded across workers.
/// Each point is a pure function of its `(machine, op, p, m)` spec, so
/// reports compute fully parallel; metrics are then recorded serially
/// in canonical sweep order, keeping the registry byte-identical to a
/// serial run for any thread count.
fn sweep(opts: &Opts, metrics: &mut MetricsRegistry) -> Vec<Point> {
    let specs = sweep_specs(opts);
    let reports = harness::map_indexed(
        specs.len(),
        opts.threads,
        |i| {
            let (machine, class, p, bytes) = specs[i];
            let s = vendor_schedule(machine, class, p, Rank(0), bytes)
                .expect("vendor table covers all seven collectives");
            verify_expected(
                &s,
                &Expectations {
                    algorithm: vendor_algorithm(machine, class),
                    root: Rank(0),
                    bytes,
                },
            )
        },
        &|_, _| {},
    );
    specs
        .into_iter()
        .zip(reports)
        .map(|((machine, class, p, bytes), report)| {
            metrics.counter("schedcheck.points", 1);
            metrics.counter("schedcheck.findings", report.findings.len() as u64);
            metrics.observe("schedcheck.depth", report.stats.crit.depth as u64);
            metrics.observe("schedcheck.messages", report.stats.messages as u64);
            metrics.observe(
                "schedcheck.recv_fanin",
                report.stats.crit.max_recv_fanin as u64,
            );
            Point {
                machine,
                class,
                p,
                bytes,
                report,
            }
        })
        .collect()
}

/// Closed-form depth bound as a human-readable formula.
fn bound_formula(alg: Algorithm, class: OpClass) -> &'static str {
    match (alg, class) {
        (Algorithm::Hardware, _) => "0",
        (Algorithm::Linear, OpClass::Scan) | (Algorithm::Ring, _) => "p-1",
        (Algorithm::Linear, _) => "1",
        (Algorithm::Pairwise, OpClass::Alltoall) => "p-1",
        (Algorithm::Tree, _) => "2*ceil(log2 p)",
        (Algorithm::ScatterAllgather, _) => "ceil(log2 p) + p-1",
        (Algorithm::Pipelined, _) => "-",
        _ => "ceil(log2 p)",
    }
}

fn render_text(points: &[Point], metrics: &MetricsRegistry) {
    println!("schedlint — static verification of all shipped vendor schedules\n");
    let mut table = Table::new([
        "Machine",
        "Operation",
        "Algorithm",
        "Points",
        "Max depth",
        "Depth bound",
        "Max fan-in",
        "Findings",
    ]);
    for machine in MachineId::ALL {
        for class in OpClass::COLLECTIVES {
            let group: Vec<&Point> = points
                .iter()
                .filter(|pt| pt.machine == machine && pt.class == class)
                .collect();
            let max_p = group.iter().map(|pt| pt.p).max().unwrap_or(0);
            let alg = vendor_algorithm(machine, class);
            let bound = depth_bound(alg, class, max_p)
                .map(|b| format!("<= {b} ({})", bound_formula(alg, class)))
                .unwrap_or_else(|| "-".into());
            table.push_row([
                machine.to_string(),
                class.paper_name().to_string(),
                format!("{alg:?}"),
                group.len().to_string(),
                group
                    .iter()
                    .map(|pt| pt.report.stats.crit.depth)
                    .max()
                    .unwrap_or(0)
                    .to_string(),
                bound,
                group
                    .iter()
                    .map(|pt| pt.report.stats.crit.max_recv_fanin)
                    .max()
                    .unwrap_or(0)
                    .to_string(),
                group
                    .iter()
                    .map(|pt| pt.report.findings.len())
                    .sum::<usize>()
                    .to_string(),
            ]);
        }
    }
    print!("{}", table.render());

    for pt in points.iter().filter(|pt| !pt.report.is_clean()) {
        println!(
            "\n{}/{}/p={}/m={}:",
            pt.machine,
            pt.class.key(),
            pt.p,
            pt.bytes
        );
        for f in &pt.report.findings {
            println!("  [{}] {f}", f.code());
        }
    }

    println!("\nschedcheck.* metrics:");
    let mut mt = Table::new(["Metric", "Kind", "Value"]);
    for row in metrics.rows() {
        mt.push_row(row);
    }
    print!("{}", mt.render());
}

fn point_json(pt: &Point) -> Json {
    Json::object([
        ("machine", Json::Str(pt.machine.to_string())),
        ("op", Json::Str(pt.class.key().to_string())),
        ("p", Json::UInt(pt.p as u64)),
        ("bytes", Json::UInt(u64::from(pt.bytes))),
        ("depth", Json::UInt(pt.report.stats.crit.depth as u64)),
        ("messages", Json::UInt(pt.report.stats.messages as u64)),
        ("total_bytes", Json::UInt(pt.report.stats.total_bytes)),
        (
            "findings",
            Json::Array(
                pt.report
                    .findings
                    .iter()
                    .map(|f| {
                        Json::object([
                            ("code", Json::Str(f.code().to_string())),
                            ("message", Json::Str(f.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Rebuilds `s` with `edit` applied to each `(rank, step index, step)`;
/// returning `None` drops the step.
fn rebuild(s: &Schedule, mut edit: impl FnMut(Rank, usize, Step) -> Option<Step>) -> Schedule {
    let mut out = Schedule::new(s.class(), s.ranks());
    for (r, prog) in s.iter() {
        for (i, &step) in prog.iter().enumerate() {
            if let Some(st) = edit(r, i, step) {
                out.push(r, st);
            }
        }
    }
    out
}

/// Four deliberately broken 8-rank broadcasts, one per lint class.
fn demos() -> Vec<(&'static str, Schedule, Expectations)> {
    let exp = |algorithm| Expectations {
        algorithm,
        root: Rank(0),
        bytes: 1024,
    };
    let base = || build(Algorithm::Binomial, OpClass::Bcast, 8, Rank(0), 1024).expect("bcast");

    // (a) Reversed tree edge: the root *receives* from its first child
    // before sending anything — a two-rank wait-for cycle.
    let mut done = false;
    let reversed = rebuild(&base(), |r, _, step| match step {
        Step::Send { to, bytes } if r == Rank(0) && !done => {
            done = true;
            Some(Step::Recv { from: to, bytes })
        }
        other => Some(other),
    });

    // (b) Lost subtree: the root's last send never happens, so that
    // child waits forever and the volume falls short of m(p-1).
    let last_root_send = base()
        .iter()
        .find(|(r, _)| *r == Rank(0))
        .map(|(_, prog)| {
            prog.iter()
                .rposition(|st| matches!(st, Step::Send { .. }))
                .expect("root sends")
        })
        .expect("root program");
    let lost = rebuild(&base(), |r, i, step| {
        if r == Rank(0) && i == last_root_send {
            None
        } else {
            Some(step)
        }
    });

    // (c) Serialized chain passed off as a binomial tree: volume is
    // exactly m(p-1), it runs fine, but depth p-1 blows the log2 bound.
    let mut chain = Schedule::new(OpClass::Bcast, 8);
    for r in 0..8usize {
        if r > 0 {
            chain.push(
                Rank(r),
                Step::Recv {
                    from: Rank(r - 1),
                    bytes: 1024,
                },
            );
        }
        if r < 7 {
            chain.push(
                Rank(r),
                Step::Send {
                    to: Rank(r + 1),
                    bytes: 1024,
                },
            );
        }
    }

    // (d) Pipelined broadcast with a non-multiple payload: the 4 KB
    // segments and the short tail segment race for the same receives.
    let pipelined =
        build(Algorithm::Pipelined, OpClass::Bcast, 4, Rank(0), 10_000).expect("pipelined bcast");

    vec![
        ("reversed-edge deadlock", reversed, exp(Algorithm::Binomial)),
        ("lost subtree", lost, exp(Algorithm::Binomial)),
        ("serialized chain", chain, exp(Algorithm::Binomial)),
        (
            "pipelined tail segment",
            pipelined,
            Expectations {
                algorithm: Algorithm::Pipelined,
                root: Rank(0),
                bytes: 10_000,
            },
        ),
    ]
}

fn main() {
    let opts = parse_opts();
    let mut metrics = MetricsRegistry::new();
    let points = sweep(&opts, &mut metrics);
    let total_findings: usize = points.iter().map(|pt| pt.report.findings.len()).sum();
    metrics.gauge(
        "schedcheck.clean",
        if total_findings == 0 { 1.0 } else { 0.0 },
    );

    let demo_reports: Vec<(&str, Report)> = if opts.demo {
        demos()
            .into_iter()
            .map(|(name, s, exp)| (name, verify_expected(&s, &exp)))
            .collect()
    } else {
        Vec::new()
    };

    if opts.json {
        let dirty: Vec<Json> = points
            .iter()
            .filter(|pt| !pt.report.is_clean())
            .map(point_json)
            .collect();
        let doc = Json::object([
            (
                "sweep",
                Json::object([
                    ("points", Json::UInt(points.len() as u64)),
                    ("findings", Json::UInt(total_findings as u64)),
                    ("clean", Json::Bool(total_findings == 0)),
                    ("dirty_points", Json::Array(dirty)),
                ]),
            ),
            ("metrics", metrics.snapshot()),
            (
                "demos",
                Json::Array(
                    demo_reports
                        .iter()
                        .map(|(name, report)| {
                            Json::object([
                                ("name", Json::Str((*name).to_string())),
                                ("depth", Json::UInt(report.stats.crit.depth as u64)),
                                ("total_bytes", Json::UInt(report.stats.total_bytes)),
                                (
                                    "findings",
                                    Json::Array(
                                        report
                                            .findings
                                            .iter()
                                            .map(|f| {
                                                Json::object([
                                                    ("code", Json::Str(f.code().to_string())),
                                                    ("message", Json::Str(f.to_string())),
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
        ]);
        println!("{}", doc.to_string_pretty());
    } else {
        render_text(&points, &metrics);
        if !demo_reports.is_empty() {
            println!("\nDeliberately broken broadcasts (--demo-broken):");
            for (name, report) in &demo_reports {
                println!("\n  {name} (depth {}):", report.stats.crit.depth);
                if report.is_clean() {
                    println!("    clean");
                }
                for f in &report.findings {
                    println!("    [{}] {f}", f.code());
                }
            }
        }
        println!(
            "\n{} points, {} findings{}",
            points.len(),
            total_findings,
            if total_findings == 0 {
                " — clean"
            } else {
                ""
            }
        );
    }

    if opts.deny && total_findings > 0 {
        std::process::exit(1);
    }
}
