//! Every paper artifact, rendered from one measured dataset.
//!
//! The paper draws Table 3, Figs. 1–5 and its headline numbers from one
//! measured `T(m, p)` grid (§2–§3, §8); so does this reproduction.
//! `full_report` sweeps the grid once and hands the [`Dataset`] to the
//! pure renderers here, which only read it: no renderer measures.
//!
//! Fig. 4, Fig. 5 and the headline bandwidth table fit a surface over a
//! part of the grid, the part the paper's figure shows. A fit depends
//! on the points it sees, so each of them selects its own sub-grid
//! before fitting (`fig4`, `fig5`, `alltoall_bandwidth_64`).

use crate::{machines, ratio_to_paper, symbol, SIX_OPS};
use harness::{Dataset, Protocol, PAPER_MESSAGE_SIZES, PAPER_NODE_COUNTS};
use mpisim::{Machine, OpClass};
use perfmodel::{bandwidth_series, breakdown, diagnose_all, fit_surface, paper};
use report::{GnuplotFigure, LogChart, Series, Table};
use std::fmt::Write as _;

/// Every file `full_report --out DIR` writes, as `(file name, content)`:
/// the text of Table 3, Figs. 1–5, the headline numbers and the
/// calibration grid, `dataset.csv`, `report.md` and Fig. 1's gnuplot
/// panels.
pub fn files(data: &Dataset, protocol: &Protocol) -> Vec<(String, String)> {
    let mut out = vec![
        ("table3.txt".to_string(), table3(data)),
        ("fig1.txt".into(), fig1(data)),
        ("fig2.txt".into(), fig2(data)),
        ("fig3.txt".into(), fig3(data)),
        ("fig4.txt".into(), fig4(data)),
        ("fig5.txt".into(), fig5(data)),
        ("headline.txt".into(), headline(data)),
        ("calibrate.txt".into(), calibrate(data)),
        ("dataset.csv".into(), data.to_csv()),
        ("report.md".into(), report(data, protocol)),
    ];
    out.extend(fig1_gnuplot(data));
    out
}

/// The points of `data` with a message length in `sizes` on at most
/// `max_nodes` nodes.
fn sub_grid(data: &Dataset, sizes: &[u32], max_nodes: usize) -> Dataset {
    data.iter()
        .filter(|m| sizes.contains(&m.bytes) && m.nodes <= max_nodes)
        .cloned()
        .collect()
}

/// `x`'s time in `series` with `precision` decimals, or `-`.
fn cell(series: &[(f64, f64)], x: f64, precision: usize) -> String {
    series
        .iter()
        .find(|&&(sx, _)| sx == x)
        .map_or_else(|| "-".into(), |&(_, t)| format!("{t:.precision$}"))
}

/// A labelled `(x, T)` series and its plot symbol. The table beside a
/// chart prints every point, including the non-positive ones that
/// [`Series::new`] drops from the chart.
type Curve = (String, char, Vec<(f64, f64)>);

/// A chart of the curves, then the same numbers as a table with one row
/// per `xs` and one column per curve.
fn panel(
    mut chart: LogChart,
    headers: Vec<String>,
    xs: &[f64],
    series: &[Curve],
    precision: usize,
) -> String {
    for (label, sym, pts) in series {
        chart = chart.series(Series::new(label.clone(), *sym, pts.clone()));
    }
    let mut table = Table::new(headers);
    for &x in xs {
        let mut row = vec![x.to_string()];
        row.extend(series.iter().map(|(_, _, pts)| cell(pts, x, precision)));
        table.push_row(row);
    }
    format!("\n{}\n{}", chart.render(), table.render())
}

/// One `T(p)` series per machine, at message length `bytes`.
fn per_machine_vs_nodes(data: &Dataset, op: OpClass, bytes: u32) -> Vec<Curve> {
    machines()
        .iter()
        .map(|m| {
            let pts = data.series_vs_nodes(m.name(), op, bytes);
            let pts = pts.into_iter().map(|(p, t)| (p as f64, t)).collect();
            (m.name().to_string(), symbol(m.name()), pts)
        })
        .collect()
}

/// Header row of a table with one time column per machine.
fn per_machine_headers(x_head: &str) -> Vec<String> {
    [x_head, "SP2 (us)", "Paragon (us)", "T3D (us)"]
        .map(String::from)
        .to_vec()
}

/// The paper's machine sizes, one table row each.
fn node_axis() -> Vec<f64> {
    PAPER_NODE_COUNTS.iter().map(|&p| p as f64).collect()
}

/// Table 3: closed-form timing expressions fitted from the full grid
/// with the paper's §3 procedure, beside the published rows, and the
/// startup growth family of each fit (§8).
fn table3(data: &Dataset) -> String {
    let mut out = String::from(
        "\nTABLE 3 — fitted timing expressions T(m,p) = T0(p) + D(m,p)·m  [us; m in bytes]\n",
    );
    let mut table = Table::new([
        "Operation",
        "Machine",
        "Fitted (this work)",
        "Published (paper)",
    ]);
    let mut growth = Table::new(["Operation", "Expected", "SP2", "Paragon", "T3D"]);
    for op in OpClass::COLLECTIVES {
        let mut growth_row = vec![
            op.paper_name().to_string(),
            if op.startup_is_logarithmic() {
                "O(log p)".to_string()
            } else {
                "O(p)".to_string()
            },
        ];
        for mach in machines() {
            let fitted = fit_surface(data, mach.name(), op).expect("fit");
            let published = mach
                .id()
                .and_then(|id| paper::table3(id, op))
                .map_or_else(|| "-".into(), |f| f.to_string());
            table.push_row([
                op.paper_name().to_string(),
                mach.name().to_string(),
                if op == OpClass::Barrier {
                    fitted.startup.to_string()
                } else {
                    fitted.to_string()
                },
                published,
            ]);
            growth_row.push(format!(
                "O({})",
                fitted.startup.growth.symbol().replace(' ', "")
            ));
        }
        growth.push_row(growth_row);
    }
    out.push_str(&table.render());
    out.push_str("\nStartup growth families (fitted vs expected):\n");
    out.push_str(&growth.render());
    out
}

/// Fig. 1: startup latencies `T0(p)` of the six collectives, 2 to 128
/// nodes. The paper approximates `T0` by the timing of a short message
/// (§3); this uses the 4-byte point of the grid, as the figure does.
fn fig1(data: &Dataset) -> String {
    let mut out = String::new();
    for op in SIX_OPS {
        let title = format!(
            "FIGURE 1 ({}) — startup latency T0(p) [us]",
            op.paper_name()
        );
        let chart = LogChart::new(title, "p, machine size", "T0 (us)");
        let series = per_machine_vs_nodes(data, op, 4);
        out += &panel(chart, per_machine_headers("p"), &node_axis(), &series, 0);
    }
    out
}

/// Fig. 1 as one gnuplot script per panel, `(file name, script)`.
fn fig1_gnuplot(data: &Dataset) -> Vec<(String, String)> {
    SIX_OPS
        .iter()
        .map(|&op| {
            let title = format!("Fig. 1 ({}) — startup latency T0(p)", op.paper_name());
            let mut fig = GnuplotFigure::new(title, "p, machine size", "T0 (us)");
            for (label, sym, pts) in per_machine_vs_nodes(data, op, 4) {
                fig = fig.series(Series::new(label, sym, pts));
            }
            let name = format!("fig1_{}.gp", op.paper_name().replace(' ', "_"));
            (name, fig.render())
        })
        .collect()
}

/// Fig. 2: `T(m, 32)` of the six collectives against the message
/// length, on 32 nodes.
fn fig2(data: &Dataset) -> String {
    let sizes: Vec<f64> = PAPER_MESSAGE_SIZES.iter().map(|&m| f64::from(m)).collect();
    let mut out = String::new();
    for op in SIX_OPS {
        let title = format!(
            "FIGURE 2 ({}) — T(m, 32) vs message length [us]",
            op.paper_name()
        );
        let chart = LogChart::new(title, "m, message length (bytes)", "T (us)");
        let series: Vec<_> = machines()
            .iter()
            .map(|m| {
                let pts = data.series_vs_bytes(m.name(), op, 32);
                let pts = pts.into_iter().map(|(b, t)| (f64::from(b), t)).collect();
                (m.name().to_string(), symbol(m.name()), pts)
            })
            .collect();
        out += &panel(chart, per_machine_headers("m (B)"), &sizes, &series, 0);
    }
    out
}

/// Fig. 3: `T(m, p)` against the machine size for short (16 B) and
/// long (64 KB) messages, one panel per collective, and the barrier in
/// panel (g).
fn fig3(data: &Dataset) -> String {
    let mut out = String::new();
    for op in SIX_OPS {
        let title = format!(
            "FIGURE 3 ({}) — T(m, p) vs machine size; short = 16 B, long = 64 KB",
            op.paper_name()
        );
        let chart = LogChart::new(title, "p, machine size", "T (us)");
        let (mut headers, mut series) = (vec!["p".to_string()], Vec::new());
        for (m, length) in [(16, "short"), (65_536, "long")] {
            headers.extend(["SP2", "Paragon", "T3D"].map(|name| format!("{name} {length}")));
            for (label, sym, pts) in per_machine_vs_nodes(data, op, m) {
                let sym = if m > 1000 {
                    sym.to_ascii_uppercase()
                } else {
                    sym
                };
                series.push((format!("{label} {m}B"), sym, pts));
            }
        }
        out += &panel(chart, headers, &node_axis(), &series, 0);
    }
    let title = "FIGURE 3 (g) — Barrier time vs machine size";
    let chart = LogChart::new(title, "p, machine size", "T (us)");
    let series = per_machine_vs_nodes(data, OpClass::Barrier, 0);
    out += &panel(chart, per_machine_headers("p"), &node_axis(), &series, 2);
    out
}

/// Fig. 4: the split of `T` into startup latency and transmission delay
/// at p = 32, m = 1 KB. The startup comes from the fitted `T0(p)`
/// surface (§3), fitted over m ∈ {4, 64, 1K, 16K, 64K} and p ≤ 64.
fn fig4(data: &Dataset) -> String {
    const P: usize = 32;
    const M: u32 = 1_024;
    let data = sub_grid(data, &[4, 64, 1_024, 16_384, 65_536], 64);
    let mut out = format!("\nFIGURE 4 — timing breakdown at p = {P}, m = {M} B\n");
    let mut table = Table::new([
        "Operation",
        "Machine",
        "T total (us)",
        "T0 startup (us)",
        "D transmission (us)",
        "startup %",
        "bar",
    ]);
    for op in SIX_OPS {
        for mach in machines() {
            let b = breakdown(&data, mach.name(), op, M, P).expect("breakdown");
            let frac = b.startup_fraction();
            // A 30-char bar: '#' startup, '.' transmission (log-free,
            // proportional within the row like the paper's stacked bars).
            let filled = (frac * 30.0).round() as usize;
            let bar: String = "#".repeat(filled) + &".".repeat(30 - filled);
            table.push_row([
                op.paper_name().to_string(),
                mach.name().to_string(),
                format!("{:.0}", b.total_us),
                format!("{:.0}", b.startup_us),
                format!("{:.0}", b.transmission_us),
                format!("{:.0}%", frac * 100.0),
                bar,
            ]);
        }
    }
    out.push_str(&table.render());
    out.push_str(
        "\nPaper's observations to check: total exchange demands the longest time;\n\
         Paragon alltoall/gather startup is several times the SP2/T3D's.\n",
    );
    out
}

/// Fig. 5: aggregated bandwidths `R∞(p) = lim f(m, p) / D(m, p)` of the
/// six collectives (§8, Eq. 4) at p = 8, 32, 64 and 128, from surfaces
/// fitted over m ∈ {4, 1K, 16K, 64K} and every p.
fn fig5(data: &Dataset) -> String {
    let data = sub_grid(data, &[4, 1_024, 16_384, 65_536], usize::MAX);
    let mut out = String::from("\nFIGURE 5 — aggregated bandwidth R_inf(p) [MB/s]\n");
    for op in SIX_OPS {
        let mut table = Table::new(["Machine", "p=8", "p=32", "p=64", "p=128"]);
        for mach in machines() {
            let series = bandwidth_series(&data, mach.name(), op).expect("series");
            let mut row = vec![mach.name().to_string()];
            row.extend([8, 32, 64, 128].map(|p| {
                series
                    .iter()
                    .find(|b| b.nodes == p)
                    .map_or_else(|| "-".into(), |b| format!("{:.0}", b.mb_s))
            }));
            table.push_row(row);
        }
        let _ = writeln!(out, "\n-- {} --", op.paper_name());
        out.push_str(&table.render());
    }
    out.push_str(
        "\nPaper's §8 reference points (64-node total exchange): \n\
         T3D 1745 MB/s, Paragon 879 MB/s, SP2 818 MB/s.\n",
    );
    out
}

/// The 64-node total-exchange `R∞` of each machine the paper quotes
/// (§8), as `(machine, simulated GB/s, published GB/s)`. The alltoall
/// surface is fitted over m ∈ {4, 1K, 16K, 64K} and p ≤ 64.
fn alltoall_bandwidth_64(data: &Dataset) -> Vec<(String, Option<f64>, f64)> {
    let data = sub_grid(data, &[4, 1_024, 16_384, 65_536], 64);
    paper::ALLTOALL_64_BANDWIDTH_GB_S
        .iter()
        .map(|&(id, published)| {
            let name = Machine::from_id(id).name().to_string();
            let sim = bandwidth_series(&data, &name, OpClass::Alltoall)
                .ok()
                .and_then(|s| s.iter().find(|b| b.nodes == 64).map(|b| b.mb_s / 1000.0));
            (name, sim, published)
        })
        .collect()
}

/// `T` in µs of `op` at `(m, p)` on `machine`, NaN when not measured.
fn time_us(data: &Dataset, machine: &str, op: OpClass, bytes: u32, nodes: usize) -> f64 {
    data.at(machine, op, bytes, nodes)
        .map_or(f64::NAN, |x| x.time_us)
}

/// The paper's headline numbers (§1, §4, §5, §8) beside the published
/// values: the 64-node barriers, the T3D's 64-node startup latencies,
/// the SP2's 64 KB × 64-node total exchange, the 64-node total-exchange
/// bandwidths, and the completion range of every collective at
/// 64 KB × 64 nodes.
fn headline(data: &Dataset) -> String {
    let mut out = String::from("\n== Barrier synchronization at 64 nodes ==\n");
    let mut t = Table::new(["Machine", "simulated (us)", "paper"]);
    let barrier = |m: &Machine| time_us(data, m.name(), OpClass::Barrier, 0, 64);
    for mach in machines() {
        let paper_note = match mach.name() {
            "Cray T3D" => format!("~{} us (hardwired)", paper::T3D_BARRIER_US),
            _ => "software barrier".to_string(),
        };
        t.push_row([
            mach.name().to_string(),
            format!("{:.2}", barrier(&mach)),
            paper_note,
        ]);
    }
    out.push_str(&t.render());
    let others_min = barrier(&Machine::sp2()).min(barrier(&Machine::paragon()));
    let _ = writeln!(
        out,
        "speedup over best software barrier: {:.0}x (paper claims at least 30x)",
        others_min / barrier(&Machine::t3d())
    );

    out.push_str("\n== T3D startup latencies at 64 nodes (short-message proxy) ==\n");
    let mut t = Table::new(["Operation", "simulated (us)", "paper (us)", "ratio"]);
    for (op, published) in paper::T3D_64_NODE_LATENCIES_US {
        let sim = time_us(data, "Cray T3D", op, 4, 64);
        t.push_row([
            op.paper_name().to_string(),
            format!("{sim:.0}"),
            format!("{published:.0}"),
            format!("{:.2}", sim / published),
        ]);
    }
    out.push_str(&t.render());

    let sp2_ms = time_us(data, "IBM SP2", OpClass::Alltoall, 65_536, 64) / 1000.0;
    let volume = OpClass::Alltoall.aggregated_bytes(65_536, 64);
    let _ = writeln!(
        out,
        "\n== SP2 total exchange, 64 KB x 64 nodes ==\n\
         simulated {sp2_ms:.0} ms, paper {:.0} ms (ratio {:.2}); total volume {} MB",
        paper::SP2_ALLTOALL_64KB_64N_MS,
        sp2_ms / paper::SP2_ALLTOALL_64KB_64N_MS,
        volume / 1_000_000,
    );

    out.push_str("\n== Aggregated bandwidth, 64-node total exchange ==\n");
    let mut t = Table::new(["Machine", "simulated (GB/s)", "paper (GB/s)", "ratio"]);
    for (name, sim, published) in alltoall_bandwidth_64(data) {
        let sim = sim.unwrap_or(f64::NAN);
        t.push_row([
            name,
            format!("{sim:.3}"),
            format!("{published:.3}"),
            format!("{:.2}", sim / published),
        ]);
    }
    out.push_str(&t.render());

    let times: Vec<f64> = machines()
        .iter()
        .flat_map(|m| SIX_OPS.map(|op| time_us(data, m.name(), op, 65_536, 64)))
        .collect();
    let lo = times.iter().copied().fold(f64::MAX, f64::min);
    let hi = times.iter().copied().fold(f64::MIN, f64::max);
    let _ = writeln!(
        out,
        "\n== All collectives, 64 KB x 64 nodes: completion range ==\n\
         simulated range ({:.2} ms, {:.0} ms); paper reports (5.12 ms, 675 ms)",
        lo / 1000.0,
        hi / 1000.0
    );
    out
}

/// The calibration grid: simulated `T(m, p)` over the published Table 3
/// prediction at m ∈ {4, 1K, 64K} and p ∈ {2, 8, 32, 64}. Ratios near
/// 1.0 mean the simulator lands on the published surface; the grid is
/// used to tune the software-cost tables in `netmodel::machines`
/// (DESIGN.md §7).
fn calibrate(data: &Dataset) -> String {
    let mut out = String::new();
    for machine in machines() {
        let mut table = Table::new(["Operation", "m\\p", "2", "8", "32", "64"]);
        for op in OpClass::COLLECTIVES {
            let m_values: &[u32] = if op == OpClass::Barrier {
                &[0]
            } else {
                &[4, 1_024, 65_536]
            };
            for &m in m_values {
                let mut cells = vec![op.paper_name().to_string(), format!("{m}")];
                cells.extend([2, 8, 32, 64].map(|p| {
                    data.at(machine.name(), op, m, p).map_or_else(
                        || "-".into(),
                        |meas| match ratio_to_paper(machine.name(), op, m, p, meas.time_us) {
                            Some(r) => format!("{r:.2}"),
                            None => format!("[{:.0}us]", meas.time_us),
                        },
                    )
                }));
                table.push_row(cells);
            }
        }
        let _ = writeln!(
            out,
            "\n== {} — sim/published ratio (1.00 = exact) ==",
            machine.name()
        );
        out.push_str(&table.render());
    }
    out
}

/// The consolidated markdown report: every surface's fit diagnostics
/// and accuracy against the published Table 3, the 64-node
/// total-exchange bandwidths, and the paper's qualitative claims.
pub fn report(data: &Dataset, protocol: &Protocol) -> String {
    let mut md = String::new();
    let _ = writeln!(md, "# Consolidated reproduction report\n");
    let _ = writeln!(
        md,
        "Protocol: {} warm-up + {} iterations × {} repetitions; {} grid points.\n",
        protocol.warmup,
        protocol.iterations,
        protocol.repetitions,
        data.len()
    );

    let _ = writeln!(md, "## Fitted timing surfaces vs published Table 3\n");
    let mut table = Table::new([
        "Operation",
        "Machine",
        "Fitted T(m,p) [us]",
        "R²",
        "fit MAPE",
        "MAPE vs published",
        "bias",
    ]);
    let diagnostics = diagnose_all(data);
    for op in OpClass::COLLECTIVES {
        for d in diagnostics.iter().filter(|d| d.op == op) {
            let (mape, bias) = d.paper_accuracy.as_ref().map_or_else(
                || ("-".into(), "-".into()),
                |a| (format!("{:.0}%", a.mape * 100.0), format!("{:.2}", a.bias)),
            );
            table.push_row([
                op.paper_name().to_string(),
                d.machine.clone(),
                d.formula.to_string(),
                format!("{:.4}", d.r2),
                format!("{:.1}%", d.self_accuracy.mape * 100.0),
                mape,
                bias,
            ]);
        }
    }
    md.push_str(&table.render_markdown());

    let _ = writeln!(md, "\n## Aggregated bandwidth, 64-node total exchange\n");
    let mut bw = Table::new(["Machine", "simulated (GB/s)", "published (GB/s)"]);
    for (name, sim, published) in alltoall_bandwidth_64(data) {
        bw.push_row([
            name,
            sim.map_or_else(|| "-".into(), |v| format!("{v:.3}")),
            format!("{published:.3}"),
        ]);
    }
    md.push_str(&bw.render_markdown());

    let _ = writeln!(md, "\n## Qualitative checks\n");
    use OpClass::{Alltoall, Barrier, Reduce, Scan, Scatter};
    let (sp2, par, t3d) = ("IBM SP2", "Intel Paragon", "Cray T3D");
    let t = |machine: &str, op: OpClass, bytes: u32| time_us(data, machine, op, bytes, 64);
    let short_a2a = t(sp2, Alltoall, 16).min(t(par, Alltoall, 16));
    let checks = [
        (
            "T3D barrier ≈ 3 µs",
            (2.0..5.0).contains(&t(t3d, Barrier, 0)),
        ),
        (
            "T3D fastest 64-node alltoall (short)",
            t(t3d, Alltoall, 16) <= short_a2a * 1.05,
        ),
        (
            "SP2 beats Paragon, short scatter",
            t(sp2, Scatter, 16) < t(par, Scatter, 16),
        ),
        (
            "Paragon beats SP2, long scatter",
            t(par, Scatter, 65_536) < t(sp2, Scatter, 65_536),
        ),
        (
            "SP2 keeps long reduce",
            t(sp2, Reduce, 65_536) < t(par, Reduce, 65_536),
        ),
        (
            "Paragon scan beats T3D",
            t(par, Scan, 16) < t(t3d, Scan, 16),
        ),
    ];
    let mut qt = Table::new(["Claim", "Holds"]);
    for (claim, holds) in checks {
        qt.push_row([claim, if holds { "yes" } else { "NO" }]);
    }
    md.push_str(&qt.render_markdown());
    md
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::Measurement;

    /// The paper's full grid on all three machines and seven ops, with
    /// the T3D stopping at 64 nodes. `T` grows with p² and (m·p)², which
    /// no Table 3 form can follow, so a fit over part of the grid
    /// differs from a fit over all of it, in `T0(p)` and in `D(m, p)`.
    fn synthetic_grid() -> Dataset {
        let mut data = Dataset::new();
        for (i, machine) in machines().iter().enumerate() {
            for &p in &PAPER_NODE_COUNTS {
                if p > machine.spec().max_nodes {
                    continue;
                }
                for (j, op) in OpClass::COLLECTIVES.into_iter().enumerate() {
                    let sizes: &[u32] = if op == OpClass::Barrier {
                        &[0]
                    } else {
                        &PAPER_MESSAGE_SIZES
                    };
                    for &m in sizes {
                        let mp = f64::from(m) * p as f64;
                        let t = 20.0
                            + 10.0 * i as f64
                            + 5.0 * j as f64
                            + 15.0 * (p as f64).log2()
                            + 0.05 * (p * p) as f64
                            + 0.02 * f64::from(m)
                            + 3e-8 * mp * mp;
                        data.push(Measurement {
                            machine: machine.name().to_string(),
                            op,
                            bytes: m,
                            nodes: p,
                            time_us: t,
                            min_time_us: t,
                            mean_time_us: t,
                            per_repetition_us: vec![t],
                        });
                    }
                }
            }
        }
        data
    }

    #[test]
    fn fitted_renderers_fit_their_own_sub_grid() {
        let full = synthetic_grid();
        let only = |keep: &dyn Fn(&Measurement) -> bool| -> Dataset {
            full.iter().filter(|m| keep(m)).cloned().collect()
        };
        let long = [4, 1_024, 16_384, 65_536];
        let fig4_grid =
            only(&|m| [4, 64, 1_024, 16_384, 65_536].contains(&m.bytes) && m.nodes <= 64);
        let fig5_grid = only(&|m| long.contains(&m.bytes));
        // The headline fits alltoall over its bandwidth sub-grid and
        // reads its other numbers at single 64-node points.
        let headline_grid = only(&|m| {
            let bandwidth = m.op == OpClass::Alltoall && long.contains(&m.bytes) && m.nodes <= 64;
            bandwidth || (m.nodes == 64 && [0, 4, 65_536].contains(&m.bytes))
        });
        let fit = |d: &Dataset| fit_surface(d, "IBM SP2", OpClass::Alltoall).map(|f| f.to_string());
        for sub in [&fig4_grid, &fig5_grid, &headline_grid] {
            assert_ne!(
                fit(&full),
                fit(sub),
                "the grid does not tell the fits apart"
            );
        }
        assert_eq!(fig4(&full), fig4(&fig4_grid));
        assert_eq!(fig5(&full), fig5(&fig5_grid));
        assert_eq!(headline(&full), headline(&headline_grid));
        assert_eq!(
            alltoall_bandwidth_64(&full),
            alltoall_bandwidth_64(&headline_grid),
            "report.md's bandwidth rows"
        );
    }
}
