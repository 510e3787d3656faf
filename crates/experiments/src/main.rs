//! Experiment runner: `cargo run --release -p dtr-experiments -- [FLAGS] [NAMES…]`.
//!
//! One binary regenerates every paper figure and table and every
//! extension study. `NAMES` pick entries of [`EXPERIMENTS`] (default:
//! `fig2 fig3 table1`; `all` runs every entry in order). Budgets:
//!
//! - `--smoke` (CI's `experiments-smoke` job): [`ExperimentCtx::smoke`] —
//!   tiny search budget, one representative panel of Fig. 2 and Fig. 3,
//!   two load points. Tables are printed, no CSV is written. Finishes in
//!   seconds, so the experiments crate cannot silently rot while CI only
//!   compiles it.
//! - `--quick`: the same tiny budget over every panel, with CSVs.
//! - default: [`ExperimentCtx::default`] — the budget the committed
//!   figures were produced with (minutes to hours; not run in CI).
//!   `--paper` switches to the full published iteration budget (hours
//!   of CPU).
//!
//! `--seed N` and `--points N` override the seed and the number of load
//! points. Outside `--smoke`, every table is also written as CSV under
//! `results/` (`DTR_RESULTS` overrides) and its path printed.
//!
//! Every run asserts the result-shape invariants of Fig. 2, Fig. 3 and
//! Table 1 (finite ratios, non-empty sweeps, monotone relaxation).
//! Exit status: `0` on success, `2` on a usage error. Invariant
//! violations panic, which is exactly what a CI gate wants.

use dtr_core::{Objective, SearchParams};
use dtr_experiments::*;

/// What one invocation asked for.
struct Invocation {
    ctx: ExperimentCtx,
    /// `--smoke`: reduced panels, no CSV.
    smoke: bool,
    /// `--quick`: the smoke budget over every panel.
    quick: bool,
    /// `--paper`: the published iteration budget.
    paper: bool,
    names: Vec<String>,
}

/// Prints a table and, outside `--smoke`, writes it as CSV.
type Emit<'e> = &'e mut dyn FnMut(&str, &Table);

/// One named experiment: it runs and hands each of its tables to `emit`.
type Experiment = (&'static str, fn(&Invocation, Emit));

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[Experiment] = &[
    ("triangle", |inv, emit| {
        emit("triangle", &triangle::table(&triangle::run(&inv.ctx)))
    }),
    ("fig2", run_fig2),
    ("fig3", run_fig3),
    ("fig4", |inv, emit| {
        emit("fig4", &fig4::table(&fig4::run_all(&inv.ctx)))
    }),
    ("fig5", |inv, emit| {
        emit("fig5", &fig5::table(&fig5::run_all(&inv.ctx)))
    }),
    ("fig6", |inv, emit| {
        emit("fig6", &fig6::table(&fig6::run_all(&inv.ctx)))
    }),
    ("fig7", |inv, emit| {
        let data = fig7::run(&inv.ctx);
        emit("fig7", &fig7::table(&data));
        let (s_short, s_long) = fig7::tercile_means(&data.str_points);
        let (d_short, d_long) = fig7::tercile_means(&data.dtr_points);
        println!("STR: mean util shortest-delay tercile {s_short:.3}, longest {s_long:.3}");
        println!("DTR: mean util shortest-delay tercile {d_short:.3}, longest {d_long:.3}");
    }),
    ("fig8", |inv, emit| {
        emit("fig8", &fig8::table(&fig8::run_all(&inv.ctx)))
    }),
    ("fig9", |inv, emit| {
        emit("fig9", &fig9::table(&fig9::run(&inv.ctx)))
    }),
    ("table1", run_table1),
    ("optimality", |inv, emit| {
        emit("optimality", &optimality::table(&optimality::run(&inv.ctx)))
    }),
    ("robustness", |inv, emit| {
        emit("robustness", &robustness::table(&robustness::run(&inv.ctx)))
    }),
    ("drift", |inv, emit| {
        emit("drift", &drift::table(&drift::run(&inv.ctx, 10)))
    }),
    ("robust_opt", |inv, emit| {
        emit("robust_opt", &robust_opt::table(&robust_opt::run(&inv.ctx)))
    }),
    ("reopt", |inv, emit| {
        emit("reopt", &reopt_exp::table(&reopt_exp::run(&inv.ctx)))
    }),
    ("estimation", |inv, emit| {
        let study = estimation::run(&inv.ctx);
        emit("estimation_quality", &estimation::quality_table(&study));
        emit("estimation_impact", &estimation::impact_table(&study));
    }),
    ("overhead", |inv, emit| {
        emit(
            "overhead",
            &overhead_exp::table(&overhead_exp::run(&inv.ctx)),
        )
    }),
    ("convergence", |inv, emit| {
        let curves = convergence::run(&inv.ctx);
        emit("convergence", &convergence::table(&curves));
        emit("convergence_curves", &convergence::curves_table(&curves));
    }),
    ("multiclass", |inv, emit| {
        emit("multiclass", &multiclass::table(&multiclass::run(&inv.ctx)))
    }),
];

const USAGE: &str =
    "usage: dtr-experiments [--smoke|--quick] [--paper] [--seed N] [--points N] [NAMES…]\n\
     (no names = fig2 fig3 table1; `all` = every experiment)";

/// Parses the arguments after the program name.
fn parse(args: &[String]) -> Result<Invocation, String> {
    let mut inv = Invocation {
        ctx: ExperimentCtx::default(),
        smoke: false,
        quick: false,
        paper: false,
        names: Vec::new(),
    };
    let (mut seed, mut points) = (None, None);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| format!("{flag} needs a non-negative integer"))
        };
        match arg.as_str() {
            "--smoke" => inv.smoke = true,
            "--quick" => inv.quick = true,
            "--paper" => inv.paper = true,
            "--seed" => seed = Some(value("--seed")?),
            "--points" => points = Some(value("--points")? as usize),
            "all" => inv
                .names
                .extend(EXPERIMENTS.iter().map(|e| e.0.to_string())),
            name if EXPERIMENTS.iter().any(|e| e.0 == name) => inv.names.push(arg.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if inv.smoke || inv.quick {
        inv.ctx = ExperimentCtx::smoke();
    }
    if inv.paper {
        inv.ctx.params = SearchParams::paper();
    }
    if let Some(seed) = seed {
        inv.ctx.seed = seed;
        inv.ctx.params = inv.ctx.params.with_seed(seed);
    }
    inv.ctx.load_points = points.unwrap_or(inv.ctx.load_points);
    if inv.names.is_empty() {
        inv.names = vec!["fig2".into(), "fig3".into(), "table1".into()];
    }
    Ok(inv)
}

/// The smoke invariants shared by every ratio-producing experiment: the
/// §5.2 conventions guarantee ratios are finite, positive, and saturated
/// into [1e-3, 1e3].
fn assert_ratio(label: &str, r: f64) {
    assert!(
        r.is_finite() && (1e-3..=1e3).contains(&r),
        "{label}: ratio {r} outside the saturated range"
    );
}

fn run_fig2(inv: &Invocation, emit: Emit) {
    let cfg = fig2::Fig2Cfg::default();
    let panels = if inv.smoke {
        // One representative panel: the deterministic ISP topology under
        // the load-based objective.
        vec![fig2::run_panel(
            &inv.ctx,
            TopologyKind::Isp,
            Objective::LoadBased,
            &cfg,
        )]
    } else {
        fig2::run_all(&inv.ctx, &cfg)
    };
    for panel in &panels {
        assert!(!panel.points.is_empty(), "fig2 panel swept no load points");
        for p in &panel.points {
            assert_ratio("fig2 R_H", p.r_h);
            assert_ratio("fig2 R_L", p.r_l);
        }
        let name = format!("fig2_{}_{}", panel.topology.name(), panel.objective);
        emit(&name, &fig2::table(panel));
    }
}

fn run_fig3(inv: &Invocation, emit: Emit) {
    let panels = if inv.smoke {
        vec![fig3::run_panel(
            &inv.ctx,
            0.10,
            Objective::LoadBased,
            "(a) k=10%, load-based",
            0.65,
        )]
    } else {
        fig3::run_all(&inv.ctx)
    };
    for (i, panel) in panels.iter().enumerate() {
        assert!(!panel.bins.is_empty(), "fig3 histogram is empty");
        let str_links: usize = panel.bins.iter().map(|b| b.1).sum();
        let dtr_links: usize = panel.bins.iter().map(|b| b.2).sum();
        assert_eq!(
            str_links, dtr_links,
            "fig3 histograms must cover the same link set"
        );
        assert!(str_links > 0, "fig3 counted no links");
        emit(
            &format!("fig3_{}", (b'a' + i as u8) as char),
            &fig3::table(panel),
        );
    }
}

fn run_table1(inv: &Invocation, emit: Emit) {
    let mut ctx = inv.ctx;
    // The paper's table has seven load columns.
    if ctx.load_points < 7 && !(inv.smoke || inv.quick) {
        ctx.load_points = 7;
    }
    let blocks = table1::run(&ctx);
    assert_eq!(blocks.len(), 3, "table1 covers three topology families");
    for block in &blocks {
        assert!(!block.points.is_empty(), "table1 block swept no points");
        for p in &block.points {
            assert_ratio("table1 R_L", p.r_l);
            assert_ratio("table1 R_L,5%", p.r_l_5);
            assert_ratio("table1 R_L,30%", p.r_l_30);
            // Relaxation can only help the low class (monotone in ε).
            assert!(
                p.r_l_30 <= p.r_l_5 + 1e-9,
                "table1: ε=30% ratio {} worse than ε=5% ratio {}",
                p.r_l_30,
                p.r_l_5
            );
        }
        emit(
            &format!("table1_{}", block.topology.name()),
            &table1::table(block),
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        println!("{USAGE}\nexperiments: {}", names.join(" "));
        return;
    }
    let inv = parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let budget = match (inv.smoke, inv.quick, inv.paper) {
        (true, _, _) => "smoke",
        (_, true, _) => "quick",
        (_, _, true) => "paper",
        _ => "full",
    };
    let mut emit = |name: &str, table: &Table| {
        println!("{}", table.render());
        if !inv.smoke {
            let path = write_csv(name, table);
            println!("[csv] {}\n", path.display());
        }
    };
    for name in &inv.names {
        println!("=== {name} ({budget} budget) ===");
        let (_, run) = EXPERIMENTS.iter().find(|e| e.0 == name).expect("parsed");
        run(&inv, &mut emit);
    }
    println!("experiments OK: {}", inv.names.join(", "));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn malformed_flags_are_errors_not_panics() {
        assert!(parse(&args(&["fig2", "--seed", "x"])).is_err());
        assert!(parse(&args(&["fig2", "--points"])).is_err());
        assert!(parse(&args(&["fig2", "--seed", "-1"])).is_err());
        assert!(parse(&args(&["fig2", "--bogus"])).is_err());
        assert!(parse(&args(&["no-such-figure"])).is_err());
        let inv = parse(&args(&["fig2", "--quick", "--seed", "5", "--points", "3"])).unwrap();
        assert_eq!((inv.ctx.seed, inv.ctx.load_points), (5, 3));
        assert_eq!(inv.ctx.params.seed, 5);
    }

    #[test]
    fn default_ctx_is_experiment_budget() {
        let inv = parse(&[]).unwrap();
        assert_eq!(inv.ctx.params.n_iters, SearchParams::experiment().n_iters);
        assert_eq!(inv.names, ["fig2", "fig3", "table1"]);
    }

    #[test]
    fn all_runs_every_experiment_once() {
        let inv = parse(&args(&["all"])).unwrap();
        assert_eq!(inv.names.len(), EXPERIMENTS.len());
        assert!(EXPERIMENTS
            .iter()
            .enumerate()
            .all(|(i, e)| EXPERIMENTS[..i].iter().all(|f| f.0 != e.0)));
    }
}
